"""Command-line front end: catalog listing, invariants, verification, extremum.

stdout carries the report (human-readable or JSON with a versioned schema
field); stderr carries diagnostics.  Exit code 0 is success and 1 a
counterexample; an error prints one ``error:`` line and exits with its code
in ``errors.EXIT_CODES``, any other exception with ``errors.EXIT_INTERNAL``,
and a command-line usage error with argparse's 2.

``main`` may be called many times in one process: it builds its parser once,
on the first call, and looks up the ``cmd_<subcommand>`` function of each
call by name when the call runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import catalog as _catalog
from . import verify as _verify
from .errors import EXIT_COUNTEREXAMPLE, EXIT_INTERNAL, EXIT_OK, CasoratiError, DegenerateInput
from .errors import exit_code_for
from .extremum import ExtremumProblem, solve_closed_form, solve_oracle

SCHEMA = "casorati-report/1"
# invariants report keys of each side: coefficients, scalar curvatures, structure.
SIDE_KEYS = {
    "map": ("B", "map", "range"),
    "sub-vert": ("T", "vertical", "vertical"),
    "sub-hor": ("A", "horizontal", "horizontal"),
}


def _int_at_least(low: int, what: str):
    """argparse type of the counts and seeds: a usage error (exit 2) unless an
    integer >= low, which the message calls a ``what`` integer."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")

    return parse


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise DegenerateInput(f"cannot parse point {text!r}: expected comma-separated floats")


def _resolve_entry(args) -> _catalog.CatalogEntry:
    if args.geometry_file is not None:
        return _catalog.load_geometry_file(args.geometry_file)
    if not getattr(args, "geometry", None):
        raise DegenerateInput("no geometry given: use --geometry or --geometry-file")
    return _catalog.get(args.geometry)


def _emit(report: dict, args, text: str) -> None:
    if args.json:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as err:
            raise DegenerateInput(
                f"cannot write the report to {args.output!r}: {err.strerror}"
            ) from None
    else:
        sys.stdout.write(payload)


# --------------------------------------------------------------------------
# catalog
# --------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    entries = _catalog.list_entries()
    if args.tag is not None:
        _verify.theorem_info(args.tag)  # an unknown tag is bad input, as in verify --theorem
        entries = [e for e in entries if args.tag in e.hypothesis_tags]
    rows = [e.summary() for e in entries]
    report = {"schema": SCHEMA, "command": "catalog", "entries": rows}
    lines = []
    for row in rows:
        tags = ", ".join(row["tags"]) or "(computation only)"
        lines.append(
            f"{row['id']:28s} {row['kind']:22s} rank {row['rank']}  "
            f"{row['source_dim']}d -> {row['target_dim']}d  [{tags}]"
        )
    _emit(report, args, "\n".join(lines) if lines else "no matching entries")
    return EXIT_OK


# --------------------------------------------------------------------------
# invariants
# --------------------------------------------------------------------------

def _casorati_block(ev: _verify.PointEvaluation, side: str) -> dict:
    coeffs = ev.coefficients(side)
    out = {
        "role": coeffs.role,
        "r": coeffs.r,
        "normal_count": coeffs.normal_count,
        "norm_squared": coeffs.norm_squared(),
        "C": coeffs.norm_squared() / coeffs.r if coeffs.r else 0.0,
    }
    if coeffs.r >= 3:
        out.update(ev.casorati(side).to_json())
        out["equality_shape"] = ev.equality(side).to_json()
    else:
        out["note"] = "delta invariants need r >= 3"
    return out


def _structure_block(ev: _verify.PointEvaluation, side: str) -> dict:
    klass = ev.invariance(side)
    block = {
        "invariance": klass.label,
        "pnorm2": klass.pnorm2,
        "leakage_defect": klass.leakage_defect,
        "retention_defect": klass.retention_defect,
    }
    if ev.spec.contact:
        pos = ev.xi(side)
        block["xi"] = {"position": pos.position, "defect": pos.projection_defect}
    return block


def cmd_invariants(args) -> int:
    entry = _resolve_entry(args)
    p = entry.base_point if args.point is None else _parse_point(args.point)
    ev = _verify.PointEvaluation(entry, p, seed=args.seed)
    mp = ev.map
    sides = ("map",) if entry.kind == _catalog.KIND_MAP else ("sub-vert", "sub-hor")
    report = {
        "schema": SCHEMA,
        "command": "invariants",
        "geometry": entry.id,
        "point": [float(x) for x in p],
        "kind": entry.kind,
        "dims": {
            "source": mp.m1,
            "target": mp.m2,
            "rank": mp.rank,
            "vertical": mp.m1 - mp.rank,
        },
        "frames": {
            "vertical": mp.vertical_frame.vectors.tolist(),
            "horizontal": mp.horizontal_frame.vectors.tolist(),
            "range": mp.range_frame.vectors.tolist(),
        },
        "coefficients": {
            SIDE_KEYS[side][0]: _casorati_block(ev, side) for side in sides
        },
        "scalar_curvatures": {
            SIDE_KEYS[side][1]: ev.pair(side).to_json() for side in sides
        },
    }
    if entry.family is not None and entry.structure_fn is not None:
        report["structure"] = {
            SIDE_KEYS[side][2]: _structure_block(ev, side)
            for side in sides
            if ev.frame(side).count
        }
        report["family"] = entry.family.to_json()
    if entry.reference_values:
        report["reference_values"] = dict(entry.reference_values)

    lines = [f"{entry.id} at {report['point']}"]
    for role, block in report["coefficients"].items():
        if "delta_C" in block:
            lines.append(
                f"  {role}: C = {block['C']:.6g}, delta_C = {block['delta_C']:.6g}, "
                f"delta_hat_C = {block['delta_hat_C']:.6g}"
            )
        else:
            lines.append(f"  {role}: C = {block['C']:.6g} ({block['note']})")
    for name, pair in report["scalar_curvatures"].items():
        lines.append(
            f"  {name}: 2scal = {pair['left_2scal']:.6g} vs reference {pair['right_2scal']:.6g}"
        )
    for name, block in report.get("structure", {}).items():
        xi = block.get("xi")
        suffix = f", xi {xi['position']}" if xi else ""
        lines.append(f"  {name}: {block['invariance']}, |P|^2 = {block['pnorm2']:.6g}{suffix}")
    _emit(report, args, "\n".join(lines))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_synthetic(args, theorems) -> int:
    summaries = _verify.verify_synthetic_each(theorems, args.trials, seed=args.seed)
    failures = sum(s["failures"] for s in summaries)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "mode": "synthetic",
        "trials": args.trials,
        "seed": args.seed,
        "summaries": summaries,
        "total_failures": failures,
    }
    lines = [
        f"{s['theorem']:24s} trials {s['trials']:>7d}  failures {s['failures']:>3d}  "
        f"min residual {s['min_residual']:+.3e}  equality hits {s['equality_hits']}"
        for s in summaries
    ]
    lines.append("PASS: no counterexamples" if failures == 0 else "FAIL: counterexample found")
    _emit(report, args, "\n".join(lines))
    return EXIT_OK if failures == 0 else EXIT_COUNTEREXAMPLE


def _verify_geometry(args, theorems, entry) -> int:
    points = None
    if args.point is not None:
        points = [_parse_point(args.point)]
    elif args.samples is not None:
        points = args.samples
    tolerance = args.tolerance if args.tolerance is not None else _verify.RESIDUAL_TOL
    reports = _verify.verify_geometry(
        theorems, entry, points=points, seed=args.seed, tolerance=tolerance
    )
    failing = [r for r in reports if not r.holds]
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "mode": "geometry",
        "geometry": entry.id,
        "reports": [r.to_json() for r in reports],
        "total_failures": len(failing),
    }
    if failing:
        report["counterexample"] = failing[0].to_json()
    lines = [
        f"{r.theorem:24s} {r.variant:9s} lhs {r.lhs:+.6f}  rhs {r.rhs:+.6f}  "
        f"residual {r.residual:+.3e}  {'holds' if r.holds else 'FAILS'}"
        for r in reports
    ]
    lines.append("PASS: all inequalities hold" if not failing else "FAIL: inequality violated")
    _emit(report, args, "\n".join(lines))
    return EXIT_OK if not failing else EXIT_COUNTEREXAMPLE


def _synthetic(args) -> bool:
    """Whether a verify call runs the synthetic fuzz: no --geometry-file, and
    --geometry absent or 'synthetic'."""
    return args.geometry in (None, "synthetic") and args.geometry_file is None


def cmd_verify(args) -> int:
    if _synthetic(args):
        theorems = list(_verify.THEOREM_IDS) if args.theorem == "all" else [args.theorem]
        for t in theorems:
            _verify.theorem_info(t)
        return _verify_synthetic(args, theorems)
    entry = _resolve_entry(args)
    if args.theorem == "all":
        for tag in entry.hypothesis_tags:
            _verify.theorem_info(tag)
        theorems = [t for t in _verify.THEOREM_IDS if t in entry.hypothesis_tags]
        if not theorems:
            raise DegenerateInput(
                f"geometry {entry.id!r} declares no theorem hypotheses; "
                "pass an explicit --theorem"
            )
    else:
        _verify.theorem_info(args.theorem)
        theorems = [args.theorem]
    return _verify_geometry(args, theorems, entry)


# --------------------------------------------------------------------------
# extremum
# --------------------------------------------------------------------------

def cmd_extremum(args) -> int:
    prob = ExtremumProblem.from_lambda1(args.r, args.lambda1, args.k)
    z_cf, f_cf = solve_closed_form(prob)
    z_or, f_or = solve_oracle(prob)
    agreement = float(np.abs(z_cf - z_or).max())
    agrees = agreement <= 1e-8 * (1.0 + abs(prob.k))
    report = {
        "schema": SCHEMA,
        "command": "extremum",
        "r": prob.r,
        "lambda1": prob.lambda1,
        "lambda2": prob.lambda2,
        "k": prob.k,
        "minimizer": [float(z) for z in z_cf],
        "f_min": float(f_cf),
        "oracle": {"minimizer": [float(z) for z in z_or], "f_min": float(f_or)},
        "agreement": agreement,
        "agrees": bool(agrees),
    }
    text = (
        f"lambda2 = {prob.lambda2:.12g} (from the proviso)\n"
        f"minimizer = {[round(z, 12) for z in report['minimizer']]}\n"
        f"f_min = {f_cf:.3e}\n"
        f"oracle agreement = {agreement:.3e} ({'ok' if agrees else 'MISMATCH'})"
    )
    _emit(report, args, text)
    return EXIT_OK if agrees else EXIT_COUNTEREXAMPLE


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A fresh parser tree: the program's parser and each subcommand's, by name."""
    parser = argparse.ArgumentParser(
        prog="casorati",
        description="Casorati curvature bounds for Riemannian maps and submersions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
        p.add_argument("--output", default=None, help="write the report to a file instead of stdout")

    def add_geometry_inputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--geometry-file", default=None, help="JSON geometry description")
        p.add_argument("--point", default=None, help="comma-separated source coordinates")
        p.add_argument(
            "--seed", type=_int_at_least(0, "non-negative"), default=0,
            help="random seed (default 0)",
        )

    p_cat = sub.add_parser("catalog", help="list built-in geometries")
    p_cat.add_argument("--tag", default=None, help="only entries declaring this theorem tag")
    add_common(p_cat)

    p_inv = sub.add_parser("invariants", help="compute invariants of a geometry at a point")
    p_inv.add_argument("--geometry", default=None, help="catalog id")
    add_geometry_inputs(p_inv)
    add_common(p_inv)

    p_ver = sub.add_parser("verify", help="verify inequalities on a geometry or synthetic data")
    p_ver.add_argument("--theorem", required=True, help="registry id or 'all'")
    p_ver.add_argument(
        "--geometry", default=None, help="catalog id or 'synthetic' (default)"
    )
    add_geometry_inputs(p_ver)
    p_ver.add_argument(
        "--trials", type=_int_at_least(1, "positive"), default=1000,
        help="synthetic trials per theorem",
    )
    p_ver.add_argument(
        "--samples", type=_int_at_least(1, "positive"), default=None,
        help="number of sample points",
    )
    p_ver.add_argument("--tolerance", type=float, default=None, help="residual tolerance override")
    add_common(p_ver)

    p_ext = sub.add_parser("extremum", help="solve the constrained quadratic minimum")
    p_ext.add_argument("--r", type=int, required=True, help="number of variables (>= 3)")
    p_ext.add_argument("--lambda1", type=float, required=True, help="leading coefficient")
    p_ext.add_argument("--k", type=float, required=True, help="constraint value")
    add_common(p_ext)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree; ``main`` uses one shared tree per process."""
    return _build_parsers()[0]


@functools.cache
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """``_build_parsers()`` once per process, built by the first ``main`` call."""
    return _build_parsers()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate negative value such as "-4e0", "-inf" or
    # "-0.1,0.2" as an option; bind it to the flag before it.
    for i in range(len(argv) - 1, 0, -1):
        if re.fullmatch(r"--[^=]+", argv[i - 1]) and re.match(r"-([0-9.]|inf|nan)", argv[i], re.I):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser, commands = _shared_parser()
    args, leftovers = parser.parse_known_args(argv)
    usage_error = commands[args.command].error  # prints the subcommand's usage line
    if leftovers:  # argparse lists the program's own, those before the subcommand, first
        before = leftovers[0] in argv[: argv.index(args.command)]
        (parser.error if before else usage_error)(f"unrecognized arguments: {' '.join(leftovers)}")
    if args.command == "verify" and _synthetic(args):
        flags = ("point", "samples", "tolerance")
        unread = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
        if unread:
            usage_error(f"synthetic verify does not read {', '.join(unread)}; pass --geometry")
    elif getattr(args, "geometry_file", None) is not None and args.geometry is not None:
        usage_error("--geometry and --geometry-file each name a geometry; pass one")
    elif getattr(args, "samples", None) is not None and args.point is not None:
        usage_error("--point and --samples each choose the sample points; pass one")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CasoratiError as err:
        code, text = exit_code_for(err), str(err)
    except Exception as err:  # SystemExit and KeyboardInterrupt pass through
        code, text = EXIT_INTERNAL, f"{type(err).__name__}: {err}"
    # One line: an unprintable character, such as a line break in a key of a
    # geometry file, is written as its escape.
    print("error: " + "".join(c if c.isprintable() else repr(c)[1:-1] for c in text),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

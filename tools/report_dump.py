"""Dump the JSON reports of a fixed set of runs, one canonical line per run.

Each CLI argv goes through ``casorati.cli.main`` in this process, against
the package in this checkout's ``src/``. A line holds the argv, the exit
code and the parsed report (``null`` when the run printed none), serialised
with sorted keys, so two dumps compare with ``diff`` or ``cmp``:

    python tools/report_dump.py --output before.jsonl   # in one checkout
    python tools/report_dump.py --output after.jsonl    # in another
    cmp before.jsonl after.jsonl
    python tools/report_dump.py --compare before.jsonl after.jsonl

The runs are ``verify --theorem all`` on every tagged catalog entry at
SEEDS with SAMPLES points, ``invariants`` on every entry at its base point,
and synthetic ``verify --theorem all --trials`` SYNTHETIC_TRIALS at SEEDS.
After them come the certified extrema of the benchmark's ``certify``
workload: one line per coefficient set of the first CERTIFY_ROUNDS rounds of
``perfbench/workloads.py``'s ``certify_rounds(seed)`` for each seed in
CERTIFY_SEEDS (36 sets a round, 1,440 lines). Such a line's argv is the
request's label with its seed and round, its exit code is ``null`` (no CLI
run), and its report is ``delta_casorati(FormCoefficients(role, c),
certify=True).to_json()``.

``--compare`` reads two dumps line by line. It prints the argv of every
line that is not byte-identical, once per argv with its count of such
lines, in the order of the dump. Then it prints, for each numeric field
(list indices folded), the largest relative change |a - b| / max(|a|,
|b|) and the argv where it occurs, the largest change relative to 1 +
|before|, the scale of the package's tolerance gates (a value that moves
across zero is a relative change near 1 but may be a small one on that
scale), and the largest absolute change, then every other change: exit
codes, booleans, strings, counts, the optimizer's ``starts``, keys and list
lengths. Integers are compared exactly, except the solver cost
``iterations``, which is reported with the numbers. Each changed
``inf_normal`` or ``sup_normal`` is counted as flipped (n' = -n within
FLIP_TOL, the same hyperplane) or moved (another hyperplane); a moved normal
is also counted as on a flat optimum when its block has C_L_sup - C_L_inf <=
FLAT_TOL * (1 + |C_L_sup|) in both dumps, where every hyperplane attains
nearly the same value and rounding picks the one reported. Each changed
frame of an ``invariants`` report (``frames.*``) is counted as rotated (its
rows span the same subspace: their orthogonal projectors agree within
FLIP_TOL), whose numbers are then no numeric change, or moved. It exits 1 if
anything other than a number changed, else 0.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

import casorati  # noqa: E402
import casorati.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)
SAMPLES = 2
SYNTHETIC_TRIALS = 1024
CERTIFY_SEEDS = (0, 1)
CERTIFY_ROUNDS = 20


def argv_list() -> list[list[str]]:
    entries = casorati.list_entries()
    runs = [
        ["verify", "--theorem", "all", "--geometry", e.id,
         "--samples", str(SAMPLES), "--seed", str(seed)]
        for e in entries if e.hypothesis_tags
        for seed in SEEDS
    ]
    runs += [["invariants", "--geometry", e.id] for e in entries]
    runs += [["verify", "--theorem", "all", "--trials", str(SYNTHETIC_TRIALS), "--seed", str(seed)]
             for seed in SEEDS]
    return runs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = casorati.cli.main([*argv, "--json"])
    text = out.getvalue()
    return {"argv": argv, "exit": code, "report": json.loads(text) if text else None}


def certify_lines(seeds=CERTIFY_SEEDS, rounds: int = CERTIFY_ROUNDS) -> list[dict]:
    """One line per set of the first ``rounds`` rounds of ``certify_rounds(seed)``."""
    lines = []
    for seed in seeds:
        for k, requests in enumerate(workloads.certify_rounds(seed)[:rounds]):
            for request in requests:
                _, payload = request.call()
                argv = [*request.label.split(), f"seed={seed}", f"round={k}"]
                lines.append({"argv": argv, "exit": None, "report": json.loads(payload)})
    return lines


# Integer fields that measure cost rather than state a result.
NUMERIC_COUNTS = ("iterations",)
# Unit normals of the attaining hyperplanes; n and -n are one hyperplane.
NORMALS = ("inf_normal", "sup_normal")
# Frames of invariants reports: rows of vectors whose span is what they state.
FRAMES = tuple(f"report.frames.{name}" for name in ("vertical", "horizontal", "range"))
FLIP_TOL = 1e-12
FLAT_TOL = 1e-8


def _is_number(value, key: str) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or key in NUMERIC_COUNTS


def _projector(rows: list) -> np.ndarray:
    """The orthogonal projector onto the span of ``rows``."""
    vectors = np.array(rows, dtype=float)
    return np.linalg.pinv(vectors) @ vectors


def _is_flat(block: dict) -> bool:
    """Whether C^L over hyperplanes varies by at most FLAT_TOL of its sup in ``block``."""
    if not {"C_L_inf", "C_L_sup"} <= block.keys():
        return False
    return block["C_L_sup"] - block["C_L_inf"] <= FLAT_TOL * (1.0 + abs(block["C_L_sup"]))


def _walk(before, after, path: str, key: str, numeric: dict, other: list, where: str,
          kinds: collections.Counter) -> None:
    """Put the numeric changes from ``before`` to ``after`` in ``numeric``, others in
    ``other``, and count in ``kinds`` each changed normal as flipped or moved (and
    whether on a flat optimum) and each changed frame as rotated or moved."""
    if _is_number(before, key) and _is_number(after, key):
        absolute = abs(after - before)
        relative = absolute / max(abs(before), abs(after)) if absolute else 0.0
        worst_relative, worst_absolute, worst_where, worst_gate = numeric.get(
            path, (-1.0, 0.0, where, 0.0)
        )
        if relative > worst_relative:
            worst_relative, worst_where = relative, where
        gate = absolute / (1.0 + abs(before))
        numeric[path] = (worst_relative, max(worst_absolute, absolute), worst_where,
                         max(worst_gate, gate))
    elif isinstance(before, dict) and isinstance(after, dict):
        for k in sorted(before.keys() | after.keys()):
            if k not in before or k not in after:
                other.append(f"{where}: {path}.{k} only in {'after' if k in after else 'before'}")
            else:
                old, new = before[k], after[k]
                if k in NORMALS and old != new and len(old) == len(new):
                    if max(abs(b + a) for b, a in zip(old, new)) <= FLIP_TOL:
                        kinds["normal flipped"] += 1
                    else:
                        kinds["normal moved"] += 1
                        kinds["normal moved flat"] += _is_flat(before) and _is_flat(after)
                _walk(old, new, f"{path}.{k}", k, numeric, other, where, kinds)
    elif isinstance(before, list) and isinstance(after, list):
        if len(before) != len(after):
            other.append(f"{where}: {path} has {len(before)} items before, {len(after)} after")
        else:
            if path in FRAMES and before != after:
                gap = np.abs(_projector(before) - _projector(after)).max()
                if gap <= FLIP_TOL:
                    kinds["frame rotated"] += 1
                    return
                kinds["frame moved"] += 1
            for b, a in zip(before, after):
                _walk(b, a, f"{path}[]", key, numeric, other, where, kinds)
    elif type(before) is not type(after) or before != after:
        other.append(f"{where}: {path} {json.dumps(before)} -> {json.dumps(after)}")


def compare(before_file: str, after_file: str) -> int:
    before = Path(before_file).read_text(encoding="utf-8").splitlines()
    after = Path(after_file).read_text(encoding="utf-8").splitlines()
    numeric: dict = {}
    other: list = []
    kinds: collections.Counter = collections.Counter()
    changed: collections.Counter = collections.Counter()  # lines not byte-identical, per argv
    if len(before) != len(after):
        other.append(f"{len(before)} lines before, {len(after)} after")
    for old, new in zip(before, after):
        a, b = json.loads(old), json.loads(new)
        where = " ".join(a["argv"])
        if old != new:
            changed[where] += 1
        if a["argv"] != b["argv"]:
            other.append(f"argv {where!r} -> {' '.join(b['argv'])!r}")
            continue
        _walk(a["exit"], b["exit"], "exit", "exit", numeric, other, where, kinds)
        _walk(a["report"], b["report"], "report", "report", numeric, other, where, kinds)
    same = sum(old == new for old, new in zip(before, after))
    print(f"{same} of {len(after)} lines byte-identical")
    for where, count in changed.items():
        print(f"  changed: {count} x {where}")
    moved = {path: v for path, v in numeric.items() if v[1]}
    print(f"{len(moved)} of {len(numeric)} numeric fields changed")
    for path, (relative, absolute, where, gate) in sorted(moved.items()):
        print(f"  {path}: relative {relative:.2e}, to 1 + |before| {gate:.2e}, "
              f"absolute {absolute:.2e} ({where})")
    print(f"{kinds['normal flipped']} normals flipped (same hyperplane), "
          f"{kinds['normal moved']} moved, {kinds['normal moved flat']} of them on a flat optimum")
    print(f"{kinds['frame rotated']} frames rotated (same span), {kinds['frame moved']} moved")
    print(f"{len(other)} other changes")
    for line in other:
        print(f"  {line}")
    return 1 if other else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="-", help="file to write (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    lines = [
        json.dumps(line, sort_keys=True, separators=(",", ":"))
        for line in [*map(run, argv_list()), *certify_lines()]
    ]
    payload = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

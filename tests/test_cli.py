import argparse
import contextlib
import copy
import functools
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casorati import catalog, cli, errors
from casorati.cli import main
from casorati.framecore import MAX_CHART_DIM
from casorati.verify import THEOREM_IDS

GEO_DESC = {
    "id": "cli-temp-geometry",
    "kind": "riemannian-submersion",
    "source_chart": {"builder": "flat", "dim": 4},
    "target_chart": {"builder": "flat", "dim": 2},
    "map": {"builder": "coordinate-projection", "indices": [0, 1]},
    "declared_rank": 2,
    "base_point": [0.1, 0.2, -0.3, 0.05],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_every_entry(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "sphere-immersion-S3" in out
    assert "quaternionic-hopf-S7-S4" in out
    assert len(out.strip().splitlines()) == 9


def test_catalog_tag_filter_json(capsys):
    code, out, _ = run(capsys, "catalog", "--tag", "sub-hor-general", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "casorati-report/1"
    ids = [e["id"] for e in report["entries"]]
    assert ids == ["quaternionic-hopf-S7-S4", "sasakian-R5-model", "kenmotsu-H5-H3"]


@pytest.mark.parametrize("tag", ["map-genral", ""], ids=["misspelled", "empty"])
def test_catalog_tag_that_is_not_a_theorem_id_is_an_input_error(capsys, tag):
    code, out, err = run(capsys, "catalog", "--tag", tag)
    assert code == 2 and out == ""
    assert f"unknown theorem {tag!r}" in err


def test_catalog_known_tag_without_entries_exits_0(capsys):
    code, out, _ = run(capsys, "catalog", "--tag", "map-gssf")
    assert code == 0 and out.strip() == "no matching entries"


def test_invariants_sphere(capsys):
    code, out, _ = run(capsys, "invariants", "--geometry", "sphere-immersion-S3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dims"] == {"source": 3, "target": 4, "rank": 3, "vertical": 0}
    block = report["coefficients"]["B"]
    assert block["C"] == pytest.approx(1.0, abs=1e-6)
    assert block["delta_C"] == pytest.approx(7.0 / 6.0, abs=1e-6)
    assert report["structure"]["range"]["invariance"] == "anti-invariant"


def test_verify_sphere_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["total_failures"] == 0
    residuals = [r["residual"] for r in report["reports"]]
    assert all(abs(res - 1.0 / 6.0) <= 1e-6 for res in residuals)


def test_verify_synthetic_exit_zero(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--theorem", "all", "--geometry", "synthetic",
        "--trials", "1000", "--seed", "7", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "synthetic"
    assert len(report["summaries"]) == 17
    assert report["total_failures"] == 0


def test_verify_json_output_is_deterministic(capsys):
    argv = [
        "verify", "--theorem", "all", "--geometry", "synthetic",
        "--trials", "400", "--seed", "7", "--json",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_exit_code_hypothesis_violated(capsys):
    code, out, err = run(
        capsys, "verify", "--theorem", "sub-hor-general", "--geometry", "complex-hopf-S3-S2"
    )
    assert code == 4
    assert "r >= 3" in err
    assert out == ""


def test_exit_code_out_of_domain(capsys):
    code, _, err = run(
        capsys,
        "verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3",
        "--point", "10,0,0",
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_rank_drop(tmp_path, capsys):
    desc = dict(GEO_DESC, declared_rank=3)
    path = tmp_path / "bad-rank.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(
        capsys, "verify", "--theorem", "sub-vert-general", "--geometry-file", str(path)
    )
    assert code == 3
    assert "rank" in err


def test_exit_code_proviso(capsys):
    code, _, err = run(capsys, "extremum", "--r", "3", "--lambda1", "0.5", "--k", "1")
    assert code == 6
    assert "proviso" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--r", "3", "--lambda1", "3", "--k", "nan"],
        ["--r", "3", "--lambda1", "3", "--k", "inf"],
        ["--r", "3", "--lambda1", "nan", "--k", "1"],
        ["--r", "3", "--lambda1", "inf", "--k", "1"],
        ["--r", str(MAX_CHART_DIM + 1), "--lambda1", str(MAX_CHART_DIM + 8), "--k", "1"],
        ["--r", "3", "--lambda1", "3", "--k", "1e308"],
        ["--r", "3", "--lambda1", "3", "--k=-1e308"],
        ["--r", "4", "--lambda1", "40", "--k", "1e200"],
    ],
    ids=["k-nan", "k-inf", "lambda1-nan", "lambda1-inf", "r-above-cap", "k-overflows",
         "negative-k-overflows", "f-overflows"],
)
def test_extremum_bad_input_exits_2(capsys, flags):
    code, out, err = run(capsys, "extremum", *flags)
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_extremum_large_k_that_does_not_overflow_exits_0(capsys):
    code, out, err = run(capsys, "extremum", "--r", "3", "--lambda1", "3", "--k", "1e200", "--json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["minimizer"] == pytest.approx([2.5e199, 2.5e199, 5e199])
    assert report["agrees"]


def test_extremum_text_of_a_huge_minimizer_is_finite(capsys):
    # Rounding the text to 12 places must not overflow where the JSON holds the values.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would exit 9 with an error line
        code, out, err = run(capsys, "extremum", "--r", "3", "--lambda1", "3", "--k", "1e300")
        assert code == 0 and err == ""
        assert "minimizer = [2.5e+299, 2.5e+299, 5e+299]" in out
        code, out, err = run(capsys, "extremum", "--r", "3", "--lambda1", "3", "--k", "4")
        assert code == 0 and err == ""
        assert "minimizer = [1.0, 1.0, 2.0]" in out


def test_extremum_known_case(capsys):
    code, out, _ = run(capsys, "extremum", "--r", "3", "--lambda1", "3", "--k", "4", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["minimizer"] == pytest.approx([1.0, 1.0, 2.0], abs=1e-10)
    assert abs(report["f_min"]) <= 1e-9
    assert report["agrees"]


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "extremum", "--r", "4", "--lambda1", "4", "--k", "7",
        "--json", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["minimizer"] == pytest.approx([1.4, 1.4, 1.4, 2.8], abs=1e-10)


@pytest.mark.parametrize(
    "where", ["missing-dir/x.json", "."], ids=["missing-directory", "a-directory"]
)
def test_unwritable_output_is_an_input_error(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run(
        capsys, "invariants", "--geometry", "fubini-study-CP2", "--json", "--output", str(target)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write the report to") and str(target) in err
    assert len(err.splitlines()) == 1


def test_verify_all_on_geometry_uses_declared_tags(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "all", "--geometry", "kenmotsu-H5-H3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    theorems = {r["theorem"] for r in report["reports"]}
    assert theorems == {"sub-hor-general", "sub-hor-gssf"}


def test_verify_all_without_tags_errors(capsys):
    code, _, err = run(
        capsys, "verify", "--theorem", "all", "--geometry", "complex-hopf-S3-S2"
    )
    assert code == 2
    assert "no theorem hypotheses" in err


def test_unknown_theorem_is_reported(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "map-unknown", "--geometry", "synthetic")
    assert code == 2
    assert "unknown theorem" in err


@pytest.mark.parametrize("command", [["invariants"], ["verify", "--theorem", "map-general"]])
def test_spaced_negative_point(capsys, command):
    code, out, _ = run(
        capsys, *command, "--geometry", "sphere-immersion-S3", "--point", "-0.1,0.2,0.3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    points = [report["point"]] if "point" in report else [r["point"] for r in report["reports"]]
    assert points and all(p == [-0.1, 0.2, 0.3] for p in points)


EXTREMUM_ARGV = ["extremum", "--r", "3", "--lambda1", "3", "--json"]
SPHERE_VERIFY_ARGV = ["verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3"]


@pytest.mark.parametrize(
    "argv, flag, value, code",
    [
        (EXTREMUM_ARGV, "--k", "-4e0", 0),
        (EXTREMUM_ARGV, "--k", "-.5e1", 0),
        (EXTREMUM_ARGV, "--k", "-4E-0", 0),
        (SPHERE_VERIFY_ARGV, "--tolerance", "-1e-3", 2),
        (SPHERE_VERIFY_ARGV, "--tolerance", "-inf", 2),
    ],
    ids=["k-exponent", "k-exponent-no-leading-digit", "k-capital-exponent",
         "tolerance-exponent", "tolerance-minus-infinity"],
)
def test_spaced_negative_value_binds_to_its_flag(capsys, argv, flag, value, code):
    # argparse's own negative-number pattern has no exponent and no infinity.
    spaced = run(capsys, *argv, flag, value)
    assert spaced == run(capsys, *argv, f"{flag}={value}")
    got, out, err = spaced
    assert got == code
    if code:
        assert out == "" and err.startswith("error: tolerance must be finite and >= 0")
    else:
        assert json.loads(out)["k"] == float(value)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "--theorem", "all", "--geometry", "sphere-immersion-S3",
          "--point", "0.1,0.2,0.3", "--samples", "3"], "--point and --samples"),
        (["invariants", "--geometry", "sphere-immersion-S3", "--geometry-file", "GEO"],
         "--geometry and --geometry-file"),
        (["verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3",
          "--geometry-file", "GEO"], "--geometry and --geometry-file"),
        (["verify", "--theorem", "map-general", "--geometry", "synthetic",
          "--geometry-file", "GEO"], "--geometry and --geometry-file"),
    ],
    ids=["verify-point-and-samples", "invariants-two-geometries", "verify-two-geometries",
         "verify-synthetic-and-file"],
)
def test_inputs_that_one_run_cannot_both_read_are_usage_errors(tmp_path, capsys, argv, named):
    # Each pair used to run with one of its flags silently dropped.
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(GEO_DESC))
    with pytest.raises(SystemExit) as exc:
        main([str(path) if arg == "GEO" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {named} each" in captured.err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["invariants", "--geometry", "sphere-immersion-S3", "--point="], "cannot parse point ''"),
        (["verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3", "--point="],
         "cannot parse point ''"),
        (["invariants", "--geometry-file="], "cannot read geometry file ''"),
        (["verify", "--theorem", "all", "--geometry-file="], "cannot read geometry file ''"),
    ],
    ids=["invariants-point", "verify-point", "invariants-file", "verify-file"],
)
def test_an_empty_value_is_not_a_missing_flag(capsys, argv, named):
    # An empty --point used to mean the base point, and an empty
    # --geometry-file no file: verify ran the synthetic fuzz instead.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {named}") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "all", "--samples", "2"],
        ["verify", "--theorem", "all", "--geometry", "sphere-immersion-S3", "--point", "0,0,0",
         "--samples", "2"],
        ["verify", "--theorem", "all", "--geometry", "synthetic", "--geometry-file", "g.json"],
        ["invariants", "--geometry", "sphere-immersion-S3", "--geometry-file", "g.json"],
        ["invariants", "--bogus"],
        ["verify", "--theorem", "all", "--geometry", "sphere-immersion-S3", "extra"],
    ],
    ids=["synthetic-samples", "point-and-samples", "verify-two-geometries",
         "invariants-two-geometries", "invariants-unknown-flag", "verify-extra-argument"],
)
def test_usage_errors_of_main_print_the_subcommands_usage(capsys, argv):
    # The usage that argparse prints for an error of its own in the same subcommand.
    command = argv[0]
    with pytest.raises(SystemExit):
        main([command, "--seed", "x"])
    theirs = capsys.readouterr().err
    usage = theirs[: theirs.index(f"casorati {command}: error: ")]
    assert usage.startswith(f"usage: casorati {command} ")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    ours = capsys.readouterr()
    assert ours.out == "" and ours.err.startswith(usage)
    assert ours.err[len(usage):].startswith(f"casorati {command}: error: ")
    assert len(ours.err[len(usage):].splitlines()) == 1


def test_an_unknown_argument_before_the_subcommand_prints_the_programs_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "invariants", "--extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: casorati [-h] {")
    assert err.endswith("casorati: error: unrecognized arguments: --bogus --extra\n")


def _with_subclasses(cls):
    return [cls] + [sub for child in cls.__subclasses__() for sub in _with_subclasses(child)]


def test_no_error_exits_with_the_counterexample_code(monkeypatch, capsys):
    # Exit 1 means "counterexample found"; every toolkit error, a bare
    # CasoratiError included, exits with a documented code of its own.
    classes = _with_subclasses(errors.CasoratiError)
    assert len(classes) >= 13
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("planted")

        monkeypatch.setattr(cli, "cmd_catalog", fail)
        code, out, err = run(capsys, "catalog")
        assert code != errors.EXIT_COUNTEREXAMPLE and 2 <= code <= 8, cls
        assert out == "" and err == "error: planted\n"
    assert errors.exit_code_for(errors.CasoratiError()) == 8
    assert errors.exit_code_for(errors.GaussResidualExceeded()) == 7


@pytest.mark.parametrize(
    "raised", [MemoryError("planted"), FloatingPointError("planted"), ValueError("planted")]
)
def test_an_exception_outside_the_toolkit_exits_with_its_own_code(monkeypatch, capsys, raised):
    def fail(args):
        raise raised

    monkeypatch.setattr(cli, "cmd_catalog", fail)
    code, out, err = run(capsys, "catalog")
    assert code == errors.EXIT_INTERNAL == 9
    assert code not in errors.EXIT_CODES.values() and code != errors.EXIT_COUNTEREXAMPLE
    assert out == "" and err == f"error: {type(raised).__name__}: planted\n"


@pytest.mark.parametrize("raised", [SystemExit(3), KeyboardInterrupt()])
def test_exit_and_interrupt_pass_through_the_cli(monkeypatch, raised):
    def fail(args):
        raise raised

    monkeypatch.setattr(cli, "cmd_catalog", fail)
    with pytest.raises(type(raised)):
        main(["catalog"])


def test_main_builds_one_parser_tree(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser()
    tree = len(built)
    assert tree == 5  # the program and its four subcommands
    built.clear()
    cli._shared_parser.cache_clear()
    for argv in (["catalog"], ["catalog", "--json"], [*EXTREMUM_ARGV, "--k", "4"],
                 ["invariants", "--geometry", "sphere-immersion-S3"], ["catalog", "--bogus"]):
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert len(built) == tree


@pytest.mark.parametrize(
    "bad",
    [
        ["verify", "--theorem", "all", "--geometry", "sasakian-R5-model", "--samples", "0"],
        ["verify", "--theorem", "all", "--geometry", "sasakian-R5-model", "--point", "0,0,0,0,0",
         "--samples", "1"],
        ["verify", "--theorem", "all", "--samples", "1"],
        ["verify", "--geometry", "sasakian-R5-model"],
        ["invariants", "--bogus"],
    ],
    ids=["bad-value", "two-point-sources", "synthetic-samples", "missing-theorem", "unknown-flag"],
)
def test_a_usage_error_leaves_no_state_in_the_parser(capsys, bad):
    valid = ["verify", "--theorem", "all", "--geometry", "sasakian-R5-model",
             "--samples", "1", "--seed", "4", "--json"]
    first = run(capsys, *valid)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, *valid) == first


@pytest.mark.parametrize("command", [[], ["catalog"], ["invariants"], ["verify"], ["extremum"]],
                         ids=["program", "catalog", "invariants", "verify", "extremum"])
def test_help_matches_a_freshly_built_parser(capsys, command):
    run(capsys, "catalog")  # the shared parser exists and has parsed a call
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    shared = capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([*command, "--help"])
    assert shared == capsys.readouterr().out
    assert shared.startswith(f"usage: {' '.join(['casorati', *command])} ")


@pytest.mark.parametrize("command", [["invariants"], ["verify", "--theorem", "map-general"]])
def test_non_finite_point_is_out_of_domain(capsys, command):
    code, out, err = run(capsys, *command, "--geometry", "sphere-immersion-S3", "--point", "nan,0,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, named",
    [
        (None, "cannot read geometry file"),
        ('{"id": "broken",', "not valid JSON"),
        (json.dumps({k: v for k, v in GEO_DESC.items() if k != "source_chart"}),
         "lacks the key 'source_chart'"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "flat", "dim": 4, "radius": 2})),
         "unexpected keyword argument 'radius'"),
        (json.dumps(dict(GEO_DESC, map="identity")), "the key 'map' must hold an object"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "flat", "dim": "five"})),
         "source_chart.dim must be an integer, not 'five'"),
        (json.dumps(dict(GEO_DESC, structure={"builder": "trivial", "x": 1})),
         "structure: trivial_structure() got an unexpected keyword argument 'x'"),
        (json.dumps(dict(GEO_DESC, map={"builder": "coordinate-projection", "indices": [0, 9]})),
         "map.indices: 9 is not a coordinate of the 4-dimensional source chart"),
        (json.dumps(dict(GEO_DESC, map={"builder": "coordinate-projection", "indices": [0, True]})),
         "map.indices: True is not a coordinate of the 4-dimensional source chart"),
        (json.dumps(dict(GEO_DESC, map={"builder": "coordinate-projection", "indices": 1})),
         "map.indices: expected a list of coordinates, not 1"),
        (json.dumps(dict(GEO_DESC, target_chart={"builder": "flat", "dim": 3},
                         map={"builder": "zero-padding", "pad": -1})),
         "map.pad: -1 does not take the 4-dimensional source chart to the 3-dimensional"),
        (json.dumps(dict(GEO_DESC, target_chart={"builder": "flat", "dim": 6},
                         map={"builder": "zero-padding", "pad": 2.0})),
         "map.pad: 2.0 does not take the 4-dimensional source chart to the 6-dimensional"),
        (json.dumps(dict(GEO_DESC, map={"builder": "identity", "x": 1})),
         "map: identity_map() got an unexpected keyword argument 'x'"),
        (json.dumps(dict(GEO_DESC, family={"name": "almost-C-alpha", "c": 1.0, "alpha": "x"})),
         "family.alpha must be a number, not 'x'"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "flat", "dim": 1000000000})),
         "source_chart.dim must lie in 1..32, not 1000000000"),
        (json.dumps(dict(GEO_DESC, target_chart={"builder": "sphere", "dim": 20000})),
         "target_chart.dim must lie in 1..32, not 20000"),
        (json.dumps(dict(GEO_DESC, target_chart={"builder": "flat", "dim": 0})),
         "target_chart.dim must lie in 1..32, not 0"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "flat", "dim": 4.0})),
         "source_chart.dim must be an integer, not 4.0"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "warped-line", "fiber_dim": 32})),
         "source_chart.fiber_dim must lie in 0..31, not 32"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "fubini-study", "n": True})),
         "source_chart.n must be an integer, not True"),
        (json.dumps(dict(GEO_DESC, target_chart={"builder": "flat", "dim": 2,
                                                 "half_width": 10**400})),
         "target_chart: int too large to convert to float"),
        (json.dumps(dict(GEO_DESC, declared_rank=float("inf"))),
         "holds Infinity, not a finite number"),
        (json.dumps(dict(GEO_DESC, declared_rank=2.5)), "declared_rank must be an integer, not 2.5"),
        (json.dumps(dict(GEO_DESC, declared_rank="2")), "declared_rank must be an integer, not '2'"),
        (json.dumps(dict(GEO_DESC, declared_rank=True)),
         "declared_rank must be an integer, not True"),
        (json.dumps(dict(GEO_DESC, source_chart={"builder": "flat", "dim": 4, "a\nb": 1})),
         "source_chart: flat_chart() got an unexpected keyword argument 'a\\nb'"),
    ],
    ids=["missing-file", "invalid-json", "missing-key", "unknown-builder-keyword",
         "section-not-an-object", "section-value-of-the-wrong-type", "unknown-structure-keyword",
         "projection-index-out-of-range", "projection-index-a-boolean",
         "projection-indices-not-a-list", "negative-padding", "padding-a-float",
         "unknown-map-keyword", "family-value-not-a-number",
         "chart-dim-huge", "chart-dim-too-large", "chart-dim-zero", "chart-dim-a-float",
         "fibre-dim-too-large", "chart-size-a-boolean", "chart-width-a-huge-integer",
         "rank-infinite", "rank-a-float", "rank-a-string", "rank-a-boolean",
         "keyword-with-a-line-break"],
)
def test_malformed_geometry_file_is_an_input_error(tmp_path, capsys, text, named):
    path = tmp_path / "geo.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "invariants", "--geometry-file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert str(path) in err and named in err


_BY_ID = {desc["id"]: desc for desc in catalog.DESCRIPTIONS}


@pytest.mark.parametrize(
    "geometry, key, value",
    [
        ("sphere-immersion-S3", "source_chart.radius", True),
        ("sphere-immersion-S3", "source_chart.radius", "1"),
        ("sphere-immersion-S3", "target_chart.half_width", True),
        ("sphere-immersion-S3", "map.radius", True),
        ("sphere-immersion-S3", "family.c", False),
        ("sphere-immersion-S3", "family.c", "0"),
        ("sphere-immersion-S3", "family.c", "0.0"),
        ("sphere-immersion-S3", "base_point.0", True),
        ("sphere-immersion-S3", "base_point.0", "0.2"),
        ("sphere-immersion-S3", "id", 7),
        ("sasakian-R5-model", "target_chart.scale", True),
        ("kenmotsu-H5-H3", "source_chart.half_t", True),
        ("kenmotsu-H5-H3", "target_chart.half_x", "1.8"),
        ("fubini-study-CP2", "family", {"name": "real-kahler", "c": 4.0, "alpha": True}),
    ],
)
def test_a_value_of_the_wrong_type_in_a_geometry_file_is_an_input_error(
    tmp_path, capsys, geometry, key, value
):
    # Each of these built and exited 0 (or raised a raw TypeError) before the
    # one type check where descriptions are read.
    desc = copy.deepcopy(_BY_ID[geometry])
    *path, last = key.split(".")
    node = desc
    for part in path:
        node = node[part]
    node[int(last) if isinstance(node, list) else last] = value
    named = {"base_point.0": "base_point[0]", "family": "family.alpha"}.get(key, key)
    file = tmp_path / "geo.json"
    file.write_text(json.dumps(desc))
    code, out, err = run(capsys, "invariants", "--geometry-file", str(file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert f"{named} must be " in err


def test_submersion_check_exits_with_hypothesis_code(tmp_path, capsys):
    code, _, err = run(
        capsys, "verify", "--theorem", "sub-vert-general", "--geometry", "sphere-immersion-S3"
    )
    assert code == 4
    assert "needs a Riemannian submersion" in err
    # A file that declares an immersion to be a submersion reaches the O'Neill tensors.
    desc = dict(
        GEO_DESC,
        target_chart={"builder": "flat", "dim": 5},
        map={"builder": "zero-padding", "pad": 1},
        declared_rank=4,
    )
    path = tmp_path / "not-a-submersion.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, "invariants", "--geometry-file", str(path))
    assert code == 4
    assert "needs a Riemannian submersion" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--theorem", "map-general", "--geometry", "sphere-immersion-S3", "--samples", "-1"],
        ["--theorem", "map-general", "--geometry", "sphere-immersion-S3", "--samples", "0"],
        ["--theorem", "all", "--trials", "0"],
    ],
    ids=["samples-negative", "samples-zero", "trials-zero"],
)
def test_non_positive_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a positive integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "map-general", "--trials", "16"],
        ["verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3"],
        ["invariants", "--geometry", "sphere-immersion-S3"],
    ],
    ids=["verify-synthetic", "verify-geometry", "invariants"],
)
def test_negative_seed_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a non-negative integer" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog"],
        ["extremum", "--r", "3", "--lambda1", "3", "--k", "4"],
        ["invariants", "--geometry", "sphere-immersion-S3"],
    ],
    ids=["catalog", "extremum", "invariants"],
)
def test_only_verify_reads_samples_and_tolerance(capsys, argv):
    # catalog and extremum take no --seed either; invariants keeps its --seed.
    flags = [["--samples", "2"], ["--tolerance", "1e-3"]]
    if argv[0] != "invariants":
        flags.append(["--seed", "1"])
    for flag in flags:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("geometry", ["quaternionic-hopf-S7-S4", "sphere-immersion-S3"])
def test_verify_all_matches_single_theorem_runs(capsys, geometry):
    common = ["--geometry", geometry, "--samples", "2", "--seed", "3", "--json"]
    code, out, _ = run(capsys, "verify", "--theorem", "all", *common)
    assert code == 0
    together = json.loads(out)["reports"]
    tags = catalog.get(geometry).hypothesis_tags
    assert len(tags) >= 3
    one_by_one = []
    for theorem in THEOREM_IDS:
        if theorem in tags:
            code, out, _ = run(capsys, "verify", "--theorem", theorem, *common)
            assert code == 0
            one_by_one.extend(json.loads(out)["reports"])
    assert len(together) == len(one_by_one) == 2 * 2 * len(tags)
    for joint, single in zip(together, one_by_one):
        assert joint == single


@pytest.mark.parametrize(
    "theorem,geometry",
    [
        ("map-gssf", "kenmotsu-H5-H3"),
        ("map-gssf-invariant", "kenmotsu-H5-H3"),
        ("map-gssf-antiinvariant", "kenmotsu-H5-H3"),
        ("map-gcsf", "quaternionic-hopf-S7-S4"),
    ],
)
def test_map_model_theorems_need_a_target_space_form(capsys, theorem, geometry):
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--geometry", geometry)
    assert code == 4
    assert out == ""
    assert "declares its space form on the source" in err


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--point", "9,9,9"], "--point"),
        (["--samples", "5"], "--samples"),
        (["--tolerance", "5"], "--tolerance"),
        (
            ["--samples", "5", "--point", "9,9,9", "--tolerance", "5"],
            "--point, --samples, --tolerance",
        ),
    ],
    ids=["point", "samples", "tolerance", "all-three"],
)
def test_synthetic_verify_rejects_geometry_flags(capsys, flags, named):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "map-general", "--trials", "16", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"synthetic verify does not read {named}" in captured.err


@pytest.mark.parametrize(
    "value,code", [("nan", 2), ("inf", 2), ("-inf", 2), ("-1", 2), ("0", 0)]
)
def test_verify_tolerance_must_be_finite_and_non_negative(capsys, value, code):
    # The residual is +0.167: a NaN or negative tolerance used to report a
    # counterexample (exit 1), and an infinite one to pass every report.
    got, _, err = run(
        capsys, "verify", "--theorem", "map-general", "--geometry", "sphere-immersion-S3",
        f"--tolerance={value}",
    )
    assert got == code
    assert ("tolerance must be finite and >= 0" in err) == bool(code)


HEISENBERG_FIBRE = {
    "id": "heisenberg-R5-R2",
    "kind": "riemannian-submersion",
    "source_chart": {"builder": "heisenberg"},
    "target_chart": {"builder": "flat", "dim": 2, "scale": 0.25, "half_width": 2.0},
    "map": {"builder": "coordinate-projection", "indices": [0, 1]},
    "declared_rank": 2,
    "base_point": [0.2, 0.3, -0.1, 0.15, 0.1],
    "family": {"name": "sasakian", "c": -3.0},
    "spaceform_side": "source",
    "structure": {"builder": "heisenberg"},
}

# The fibre of the projection onto (x1, x2) instead spans d/dy1, d/dy2 and xi.
HEISENBERG_ANTI_FIBRE = dict(
    HEISENBERG_FIBRE,
    id="heisenberg-R5-R2-anti",
    map={"builder": "coordinate-projection", "indices": [0, 2]},
)


def test_invariant_fibre_with_tangent_reeb_field(tmp_path, capsys):
    # The fibre spans d/dx2, d/dy2 and xi: phi-invariant with xi tangent, so
    # |P|^2 = r - 1 and the invariant bound agrees with the generic one.
    path = tmp_path / "heisenberg-R5-R2.json"
    path.write_text(json.dumps(HEISENBERG_FIBRE))
    residuals = {}
    for theorem in ("sub-vert-gssf", "sub-vert-gssf-inv"):
        code, out, _ = run(
            capsys, "verify", "--theorem", theorem, "--geometry-file", str(path), "--json"
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["branch"] for r in reports] == [{"xi": "tangent", "invariance": "invariant"}] * 2
        residuals[theorem] = [r["residual"] for r in reports]
        assert all(0.0 <= res <= 1e-8 for res in residuals[theorem])
    assert residuals["sub-vert-gssf-inv"] == pytest.approx(residuals["sub-vert-gssf"], abs=1e-12)


def test_anti_invariant_fibre_with_tangent_reeb_field(tmp_path, capsys):
    # phi maps d/dy1 and d/dy2 into the horizontal space: the fibre is
    # anti-invariant with xi tangent, |P|^2 = 0, and the anti-invariant bound
    # agrees with the generic one.
    path = tmp_path / "heisenberg-R5-R2-anti.json"
    path.write_text(json.dumps(HEISENBERG_ANTI_FIBRE))
    residuals = {}
    for theorem in ("sub-vert-gssf", "sub-vert-gssf-anti"):
        code, out, _ = run(capsys, "verify", "--theorem", theorem, "--geometry-file", str(path),
                           "--samples", "3", "--json")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["branch"] for r in reports] == [
            {"xi": "tangent", "invariance": "anti-invariant"}
        ] * 6
        assert all(r["holds"] for r in reports)
        residuals[theorem] = [r["residual"] for r in reports]
    assert residuals["sub-vert-gssf-anti"] == pytest.approx(residuals["sub-vert-gssf"], abs=1e-12)
    assert residuals["sub-vert-gssf-anti"][-1] == pytest.approx(2.40, abs=0.01)


@pytest.mark.parametrize(
    "family, structure",
    [
        ({"name": "complex", "c": 4.0}, {"builder": "heisenberg"}),
        ({"name": "sasakian", "c": -3.0}, {"builder": "trivial"}),
        # c3 = 0 here, so only the family names the contact type.
        ({"name": "sasakian", "c": 1.0}, {"builder": "trivial"}),
    ],
    ids=["complex-family-contact-structure", "contact-family-trivial-structure",
         "contact-family-with-c3-zero-trivial-structure"],
)
def test_a_family_and_structure_of_different_types_are_an_input_error(
    tmp_path, capsys, family, structure
):
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(dict(HEISENBERG_FIBRE, family=family, structure=structure)))
    code, out, err = run(capsys, "invariants", "--geometry-file", str(path))
    assert code == 2 and out == ""
    assert "differ in contact type" in err


def test_space_form_constants_that_overflow_are_an_input_error(tmp_path, capsys):
    # Finite numbers whose constants are not: c1 = (c + 3 alpha^2)/4 = inf.
    path = tmp_path / "geo.json"
    family = {"name": "almost-C-alpha", "c": 1.0, "alpha": 1e200}
    path.write_text(json.dumps(dict(HEISENBERG_FIBRE, family=family)))
    code, out, err = run(
        capsys, "verify", "--theorem", "sub-vert-gssf", "--geometry-file", str(path)
    )
    assert code == 2 and out == ""
    assert "space-form constants must be finite" in err


@pytest.mark.parametrize(
    "tag, named",
    [("map-gcsf-antinvariant", "unknown theorem 'map-gcsf-antinvariant'"),
     (["map-gcsf"], "unknown theorem ['map-gcsf']")],
    ids=["misspelled", "a-list"],
)
def test_a_tag_that_is_not_a_theorem_id_is_an_input_error(tmp_path, capsys, tag, named):
    path = tmp_path / "geo.json"
    desc = next(d for d in catalog.DESCRIPTIONS if d["id"] == "sphere-immersion-S3")
    path.write_text(json.dumps(dict(desc, tags=["map-general", tag])))
    code, out, err = run(capsys, "verify", "--theorem", "all", "--geometry-file", str(path))
    assert code == 2 and out == ""
    assert named in err


def _numeric_leaves(node, path=()):
    """Paths of the numbers (not booleans) in a JSON-style value."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _numeric_leaves(value, (*path, key))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _numeric_leaves(value, (*path, i))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("desc", catalog.DESCRIPTIONS, ids=lambda d: d["id"])
def test_a_number_that_is_not_finite_in_a_geometry_file_is_an_input_error(
    tmp_path, capsys, desc, number
):
    path = tmp_path / "geo.json"
    faults = []
    for leaf in _numeric_leaves(desc):
        mutated = copy.deepcopy(desc)
        node = mutated
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = "__number__"
        path.write_text(json.dumps(mutated).replace('"__number__"', number))
        for argv in (["invariants"], ["verify", "--theorem", "all", "--samples", "1"]):
            code, out, err = run(capsys, *argv, "--geometry-file", str(path))
            if code != 2 or out or f"holds {number}, not a finite number" not in err:
                faults.append(f"{argv[0]} with {leaf}: exit {code}, stderr {err!r}")
    assert faults == []


@pytest.mark.parametrize("desc", catalog.DESCRIPTIONS, ids=lambda d: d["id"])
def test_builtin_description_is_a_geometry_file(tmp_path, capsys, desc):
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(desc))
    code, from_file, _ = run(capsys, "invariants", "--geometry-file", str(path), "--json")
    assert code == 0
    assert from_file == run(capsys, "invariants", "--geometry", desc["id"], "--json")[1]


def _mutations(desc):
    """(label, copy of ``desc`` with one fault) pairs of a built-in description."""
    for key in desc:
        yield f"drop {key}", {k: v for k, v in desc.items() if k != key}
    for key in ("source_chart", "target_chart", "map", "family", "structure"):
        if key in desc:
            yield f"{key} as a string", dict(desc, **{key: "x"})
    yield "short base point", dict(desc, base_point=desc["base_point"][:-1])
    source_dim = len(desc["base_point"])
    if desc["map"]["builder"] == "coordinate-projection":
        indices = [*desc["map"]["indices"][:-1], source_dim]
        yield "index out of range", dict(desc, map=dict(desc["map"], indices=indices))
    if desc["map"]["builder"] == "zero-padding":
        yield "negative pad", dict(desc, map=dict(desc["map"], pad=-1))
    for key in ("source_chart", "target_chart"):
        if "dim" in desc[key]:
            yield f"{key} dim a string", dict(desc, **{key: dict(desc[key], dim="five")})


@pytest.mark.parametrize("desc", catalog.DESCRIPTIONS, ids=lambda d: d["id"])
def test_mutated_builtin_descriptions_exit_with_a_documented_code(tmp_path, capsys, desc):
    path = tmp_path / "geo.json"
    faults = []
    for label, mutated in _mutations(desc):
        path.write_text(json.dumps(mutated))
        try:
            code, _, err = run(capsys, "invariants", "--geometry-file", str(path))
        except Exception as exc:  # a command-line run would print a traceback
            faults.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        lines = err.strip().splitlines()
        if code not in (0, 2, 3, 4) or (code and (len(lines) != 1 or not err.startswith("error:"))):
            faults.append(f"{label}: exit {code}, stderr {err!r}")
    assert faults == []


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(2**80)])
    | st.floats() | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _malformed_descriptions(draw):
    """A built-in description with one to three keys, at the top or in a section,
    set to a random JSON value: NaN, infinities, huge integers, strings, lists,
    null and nested objects among them."""
    desc = copy.deepcopy(draw(st.sampled_from(catalog.DESCRIPTIONS)))
    for _ in range(draw(st.integers(1, 3))):
        sections = [k for k, v in desc.items() if isinstance(v, dict)]
        section = draw(st.sampled_from([None, *sections]))
        target = desc if section is None else desc[section]
        key = draw(st.one_of(*map(st.just, sorted(target)), st.text(max_size=6)))
        target[key] = draw(_JSON_VALUES)
    return desc


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(desc=_malformed_descriptions())
def test_random_values_in_a_geometry_file_exit_with_a_documented_code(tmp_path, capsys, desc):
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(desc))
    # verify reads the family constants and samples the box, which invariants
    # at the base point does not. Only verify may exit 1 (a counterexample).
    for argv in (["invariants"], ["verify", "--theorem", "all", "--samples", "1"]):
        allowed = (0, 1) if argv[0] == "verify" else (0,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning on stderr would be a second line
            code, _, err = run(capsys, *argv, "--geometry-file", str(path))
        assert code in allowed or code in errors.EXIT_CODES.values(), err
        if code not in allowed:
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "geometry, chart, key, number",
    [
        ("sphere-immersion-S3", "source_chart", "radius", 1e77),
        ("sphere-immersion-S3", "source_chart", "half_width", 1e300),
        ("kenmotsu-H5-H3", "source_chart", "half_t", 1e300),
    ],
    ids=["sphere-radius", "sphere-half-width", "warped-line-half-t"],
)
@pytest.mark.parametrize("as_errors", [False, True], ids=["warnings-shown", "warnings-as-errors"])
def test_huge_chart_parameters_give_one_error_line(tmp_path, capsys, geometry, chart, key, number,
                                                   as_errors):
    # Finite parameters whose metric or map overflows: the chart and map
    # builders' inf and NaN are refused with one error line and exit 2, and no
    # numpy warning reaches stderr (under -W error it would exit 9).
    desc = copy.deepcopy(next(d for d in catalog.DESCRIPTIONS if d["id"] == geometry))
    desc[chart][key] = number
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(desc))
    for argv in (["invariants"], ["verify", "--theorem", "all", "--samples", "1"]):
        with warnings.catch_warnings(record=not as_errors) as shown:
            warnings.simplefilter("error" if as_errors else "always")
            code, out, err = run(capsys, *argv, "--geometry-file", str(path))
        assert not shown
        if code == 0:  # this parameter leaves the base point's geometry finite
            assert argv[0] == "invariants" and out
            continue
        assert code == 2 and out == "", err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


def test_a_map_derivative_that_overflows_is_an_input_error():
    # Finite at the point, the complex step's imaginary part overflows:
    # d/dp (p + 1e308 p^2) = 1 + 2e308 at p = 1.
    from casorati.rmaps import SmoothMap

    chart = catalog.flat_chart(1, half_width=1.5e308)
    sm = SmoothMap(chart, chart, lambda z: z + 1e308 * z * z, "overflowing")
    assert np.isfinite(sm(np.array([1.0]))).all()
    with pytest.raises(errors.DegenerateInput, match="derivative that is not finite"):
        sm.jacobian(np.array([1.0]))


@pytest.mark.parametrize(
    "geometry, model_id",
    [
        ("quaternionic-hopf-S7-S4", "sub-hor-gcsf"),
        ("sasakian-R5-model", "sub-hor-gssf"),
        ("kenmotsu-H5-H3", "sub-hor-gssf"),
    ],
)
def test_sub_hor_residual_beyond_the_algebra_is_the_model_term(capsys, geometry, model_id):
    # The sub-hor residual is delta + 3C/(r-1), which is nonnegative by algebra,
    # plus (model - measured) horizontal curvature for the model ids. Read from
    # the JSON: the generic id leaves only the rounding of rhs - lhs (one ulp
    # of the residual), and the model id leaves the model term.
    def extra_terms(theorem):
        code, out, _ = run(capsys, "verify", "--theorem", theorem, "--geometry", geometry,
                           "--samples", "3", "--json")
        assert code == 0
        for rep in json.loads(out)["reports"]:
            c = rep["casorati"]
            delta = c["delta_C"] if rep["variant"] == "delta" else c["delta_hat_C"]
            yield rep, rep["residual"] - (delta + 3.0 * c["C"] / (c["r"] - 1))

    generic = list(extra_terms("sub-hor-general"))
    assert len(generic) == 6
    for rep, extra in generic:
        ulp = np.spacing(max(abs(rep["residual"]), abs(rep["lhs"]), abs(rep["rhs"])))
        assert abs(extra) <= ulp
    model = list(extra_terms(model_id))
    assert len(model) == 6
    for rep, extra in model:
        assert abs(extra) <= 1e-8 * (1.0 + abs(rep["rhs"]))


# Flag values for the argv property test: special numbers, text that is no
# number, and values each flag takes. --trials and --samples take small
# counts only, so that every example runs in milliseconds.
_SPECIAL = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "-1e309", str(10**30),
                            str(-(10**30)), "-4e0", "-.5e1", "", "0", "-1", "x", "1,2"])
_NUMBERS = st.one_of(_SPECIAL, _SPECIAL, st.floats().map(repr), st.integers(-50, 50).map(str))
_COORDINATES = st.sampled_from(["nan", "inf", "-inf", "1e309", "-4e0", "", "x"]) | st.floats(
    -0.5, 0.5).map(repr)
_COUNTS = st.integers(1, 3).map(str) | st.sampled_from(["0", "-1", "", "1e3", "nan", "2.0", "x"])
_THEOREMS = st.sampled_from([*THEOREM_IDS, "all", "all", "all", "nope", ""])
_COMMAND_FLAGS = {
    "catalog": ("--tag",),
    "invariants": ("--geometry", "--geometry-file", "--point", "--seed"),
    "verify": ("--theorem", "--geometry", "--geometry-file", "--point", "--seed", "--trials",
               "--samples", "--tolerance"),
    "extremum": ("--r", "--lambda1", "--k"),
}
# Out of ten examples, how many give each flag of the subcommand; any other
# flag is given in three.
_GIVEN_IN = {"--theorem": 9, "--r": 9, "--lambda1": 9, "--k": 9, "--geometry": 8, "--point": 5}


def _mostly(good):
    """A value of ``good`` three times in four, else one of ``_NUMBERS``."""
    return st.integers(0, 3).flatmap(lambda i: good if i else _NUMBERS)


def _flag_values(tmp_path):
    """flag -> strategy of its value (None: the flag takes none); a value that
    names a file stays in ``tmp_path``."""
    geo = tmp_path / "geo.json"
    geo.write_text(json.dumps(GEO_DESC))
    return {
        "--json": None,
        "--output": st.sampled_from(["", "-", str(tmp_path)]),
        "--tag": _THEOREMS,
        "--geometry": st.sampled_from([e["id"] for e in catalog.DESCRIPTIONS]
                                      + ["synthetic", "nope", ""]),
        "--geometry-file": st.sampled_from(
            [str(geo), str(tmp_path), str(tmp_path / "missing.json"), ""]
        ),
        # Comma lists of the right length for some chart, and of the wrong one.
        "--point": _mostly(st.lists(_COORDINATES, min_size=1, max_size=8).map(",".join)),
        "--seed": _mostly(st.integers(0, 2**70).map(str)),
        "--theorem": _THEOREMS,
        "--trials": _COUNTS | st.just("64"),
        "--samples": _COUNTS,
        "--tolerance": _mostly(st.floats(0, 1).map(repr)),
        "--r": _mostly(st.integers(3, 8).map(str)),
        "--lambda1": _mostly(st.floats(0, 40).map(repr)),  # the proviso asks lambda1 > r - 2
        "--k": _mostly(st.floats(-10, 10).map(repr)),
        "--bogus": _NUMBERS,
    }


@st.composite
def _argv_lists(draw, command, values):
    """``command`` with some of its flags (the required ones mostly given),
    then up to two faults: a flag of another subcommand or an unknown one, a
    flag without its value, a stray value, an unknown subcommand."""
    chosen = [flag for flag in (*_COMMAND_FLAGS[command], "--json", "--output")
              if draw(st.integers(0, 9)) < _GIVEN_IN.get(flag, 3)]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        if values[flag] is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.extend([flag, draw(values[flag])])
        else:
            argv.append(f"{flag}={draw(values[flag])}")
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
        flag = draw(st.sampled_from(sorted(values)))
        fault = draw(st.sampled_from(["flag", "missing value", "stray value", "subcommand"]))
        where = draw(st.integers(1, len(argv)))
        if fault == "subcommand":
            argv[0] = "nope"
        elif fault == "stray value" or values[flag] is None:
            argv.insert(where, draw(_NUMBERS))
        elif fault == "missing value":
            argv.append(flag)
        else:
            argv[where:where] = [flag, draw(values[flag])]
    return argv


@functools.cache
def _catalog_json() -> str:
    """``catalog --json`` through a parser of its own."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cmd_catalog(cli.build_parser().parse_args(["catalog", "--json"])) == 0
    return out.getvalue()


def _shows_a_counterexample(out: str) -> bool:
    try:
        report = json.loads(out)
    except ValueError:
        return "FAIL" in out or "MISMATCH" in out
    return report.get("total_failures", 0) > 0 or report.get("agrees") is False


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_argv_exits_with_a_documented_code(tmp_path, capsys, command, data):
    argv = data.draw(_argv_lists(command, _flag_values(tmp_path)), label="argv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning on stderr would be a second line
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2
            code = None
    out, err = capsys.readouterr()
    if code is None:
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ]
    elif code in (0, 1):
        assert err == ""
        assert code == 0 or (argv[0] in ("verify", "extremum") and _shows_a_counterexample(out))
    else:
        assert code in errors.EXIT_CODES.values(), err
        assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1
    assert run(capsys, "catalog", "--json") == (0, _catalog_json(), "")

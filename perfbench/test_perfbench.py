"""Tests of the benchmark itself: every oracle can fail, tracing leaves no trace.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json

import numpy as np
import pytest

import checkout

checkout.pin_blas_threads()
casorati = checkout.import_package()

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------- fuzz


@pytest.fixture(scope="module")
def fuzz_summary():
    return casorati.verify_synthetic("map-gcsf", 64, seed=3)


def test_fuzz_oracle_accepts_the_package(fuzz_summary):
    assert oracles.check_fuzz(fuzz_summary, "map-gcsf", 64) == []


@pytest.mark.parametrize("field, value", [("failures", 1), ("equality_hits", 3), ("trials", 63)])
def test_fuzz_oracle_rejects_a_corrupted_summary(fuzz_summary, field, value):
    corrupted = {**fuzz_summary, field: value}
    assert oracles.check_fuzz(corrupted, "map-gcsf", 64)


# ---------------------------------------------------------------- certify


def _certified(role, r, s, seed):
    coeffs = workloads.random_coefficients(np.random.default_rng(seed), role, r, s)
    return coeffs, casorati.delta_casorati(casorati.FormCoefficients(role, coeffs), certify=True)


@pytest.fixture(scope="module")
def certified_a():
    return _certified(casorati.ROLE_A, 4, 2, 7)


@pytest.fixture(scope="module")
def certified_b1():
    return _certified(casorati.ROLE_B, 4, 1, 8)


def test_certify_oracle_accepts_the_package(certified_a, certified_b1):
    for role, (coeffs, report) in ((casorati.ROLE_A, certified_a), (casorati.ROLE_B, certified_b1)):
        assert oracles.check_certify(report, role, coeffs) == []


def test_closed_forms_cover_a_role_and_single_normal_only():
    rng = np.random.default_rng(0)
    general = workloads.random_coefficients(rng, casorati.ROLE_T, 4, 2)
    assert oracles.closed_form_extrema(casorati.ROLE_T, general) == (None, None)
    single = workloads.random_coefficients(rng, casorati.ROLE_B, 4, 1)
    inf_ref, sup_ref = oracles.closed_form_extrema(casorati.ROLE_B, single)
    assert inf_ref is None and sup_ref is not None


@pytest.mark.parametrize("field, delta", [("C_L_inf", 1e-2), ("C_L_sup", -1e-2)])
def test_certify_oracle_rejects_a_perturbed_a_extremum(certified_a, field, delta):
    coeffs, report = certified_a
    corrupted = dataclasses.replace(report, **{field: getattr(report, field) + delta})
    assert oracles.check_certify(corrupted, casorati.ROLE_A, coeffs)


def test_certify_oracle_rejects_a_perturbed_single_normal_sup(certified_b1):
    coeffs, report = certified_b1
    corrupted = dataclasses.replace(report, C_L_sup=report.C_L_sup + 1e-2)
    assert oracles.check_certify(corrupted, casorati.ROLE_B, coeffs)


@pytest.mark.parametrize("flag", [False, None])
def test_certify_oracle_rejects_an_uncertified_report(certified_a, flag):
    coeffs, report = certified_a
    corrupted = dataclasses.replace(report, certified=flag)
    assert oracles.check_certify(corrupted, casorati.ROLE_A, coeffs)


# ---------------------------------------------------------------- catalog


def _cli(tmp_path, argv):
    out = tmp_path / "report.json"
    code = casorati.cli.main([*argv, "--json", "--output", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    argv = ["verify", "--theorem", "all", "--geometry", "sasakian-R5-model", "--samples", "1"]
    return _cli(tmp_path_factory.mktemp("verify"), argv)


@pytest.fixture(scope="module")
def invariants_report(tmp_path_factory):
    argv = ["invariants", "--geometry", "sphere-immersion-S3", "--point=-0.3,0.2,0.1"]
    return _cli(tmp_path_factory.mktemp("invariants"), argv)


def test_catalog_oracles_accept_the_package(verify_report, invariants_report):
    assert oracles.check_cli_verify(*verify_report, "sasakian-R5-model") == []
    assert oracles.check_cli_invariants(*invariants_report, "sphere-immersion-S3") == []


def test_verify_oracle_rejects_a_failure_count(verify_report):
    code, report = verify_report
    corrupted = {**report, "total_failures": 1}
    assert oracles.check_cli_verify(code, corrupted, "sasakian-R5-model")


def test_verify_oracle_rejects_a_flipped_certified(verify_report):
    code, report = verify_report
    corrupted = json.loads(json.dumps(report))
    corrupted["reports"][-1]["casorati"]["optimizer"]["certified"] = False
    assert oracles.check_cli_verify(code, corrupted, "sasakian-R5-model")


def test_invariants_oracle_rejects_a_flipped_certified(invariants_report):
    code, report = invariants_report
    corrupted = json.loads(json.dumps(report))
    corrupted["coefficients"]["B"]["optimizer"]["certified"] = False
    assert oracles.check_cli_invariants(code, corrupted, "sphere-immersion-S3")


@pytest.mark.parametrize("code", [1, 2])
def test_catalog_oracles_reject_a_nonzero_exit(verify_report, invariants_report, code):
    assert oracles.check_cli_verify(code, verify_report[1], "sasakian-R5-model")
    assert oracles.check_cli_invariants(code, invariants_report[1], "sphere-immersion-S3")


# ---------------------------------------------------------------- runner and tracing


def test_a_failing_request_counts_its_ops_and_does_not_crash():
    def broken():
        raise ValueError("boom")

    requests = [workloads.Request("ok", 2, lambda: ([], b"{}")), workloads.Request("bad", 3, broken)]
    phase = run.Phase()
    for _ in range(2):
        run.run_round(phase, requests)
    assert (phase.ops, phase.failed, len(phase.latencies), phase.rounds) == (10, 6, 4, 2)
    assert "boom" in phase.problems[0]


def test_tail_latency_leaves_ten_samples_beyond():
    latency, percentile = run.tail_latency([float(i) for i in range(100)])
    assert latency == 89.0 and percentile == pytest.approx(90.0)


def test_tail_latency_is_the_p95_of_a_long_run():
    latency, percentile = run.tail_latency([float(i) for i in range(1000)])
    assert latency == 949.0 and percentile == pytest.approx(95.0)


def test_normalised_times_follow_the_reference_around_each_request():
    latencies = [0.010] * 5 + [0.020] * 5
    # The host runs at reference speed, then at half of it.
    references = [speed.REFERENCE_S] * 6 + [2 * speed.REFERENCE_S] * 5
    scaled = speed.normalised(latencies, references)
    assert scaled[:2] == pytest.approx([0.010] * 2) and scaled[-2:] == pytest.approx([0.010] * 2)
    with pytest.raises(ValueError):
        speed.normalised(latencies, references[:-1])
    assert speed.reference_seconds() > 0.0


def test_tracer_records_layers_and_restores_the_package():
    before = (casorati.verify.delta_casorati, casorati.rmaps.map_at_point,
              casorati.curvature.ChartMetric.metric_at)
    tracer = tracing.Tracer()
    with tracer:
        assert workloads.catalog_rounds(5)[0][0].call()[0] == []
    assert (casorati.verify.delta_casorati, casorati.rmaps.map_at_point,
            casorati.curvature.ChartMetric.metric_at) == before
    metrics = tracer.layer_metrics(ops=1)
    for layer in ("cli.main", "verify.verify_geometry", "measures.delta_casorati",
                  "measures.grid_extrema", "catalog.CatalogEntry.instantiate",
                  "curvature.ChartMetric.metric_at", "rmaps.SmoothMap.jacobian"):
        assert metrics[f"{layer}.calls"] >= 1, layer
    total = max(end for *_, end in tracer.spans) - min(start for *_, start, _ in tracer.spans)
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert 0.0 < self_ms <= 1e3 * total * (1.0 + 1e-9)
    assert metrics["measures.delta_casorati.certified_ratio"] == 1.0


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOAD_ROUNDS)
    phase = run.Phase(latencies=[0.01 * i for i in range(1, 30)], references=[5e-4] * 30,
                      ops=29, elapsed=1.0)
    e2e, _ = run.end_to_end(phase, setup_times=[(0.2, 5e-4)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in e2e.items()}
    layers = tracing.Tracer().layer_metrics(ops=1)
    layers["tracing.overhead_pct"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: run.per_layer_unit(k) for k in layers
    }

"""Benchmark of the casorati verifier: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fuzz,certify,catalog} --seed N --seconds S --trace {0,1}

One closed-loop client sends one request at a time, with the BLAS thread
count pinned. Requests run in whole rounds of the workload's mix until at
least S seconds have been measured. ``--trace 0`` reports the end-to-end
metrics, with every time normalised by a reference computation timed around
it (see ``speed.py``); ``--trace 1`` runs each round untraced and traced, and
reports per-layer metrics per op with the tracing overhead. The last line of stdout
is the result object; the full record, with the environment, goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

import checkout

WORKLOADS = ("fuzz", "certify", "catalog")
SETUP_PROBES = 9
WARM_REFERENCES = 20
TAIL_BEYOND = 10
TAIL_PERCENTILE = 95.0
PROBLEMS_KEPT = 20


@dataclass
class Phase:
    """What one stretch of whole rounds did."""

    latencies: list[float] = field(default_factory=list)
    # Reference times: one before the first request and one after each.
    references: list[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    elapsed: float = 0.0
    rounds: int = 0
    problems: list[str] = field(default_factory=list)


def run_round(phase: Phase, requests, tracer=None, reference=None) -> None:
    """Run one round's requests in order and add them to ``phase``.

    With ``reference``, a function that times the reference computation, it
    is also timed before the first request and after every request.
    """
    clock = time.perf_counter
    start = clock()
    if reference is not None and not phase.references:
        phase.references.append(reference())
    for request in requests:
        if tracer is not None:
            tracer.request += 1
        began = clock()
        try:
            problems, _ = request.call()
        except Exception as exc:  # a failed op, not a crash of the benchmark
            problems = [repr(exc)]
        phase.latencies.append(clock() - began)
        if reference is not None:
            phase.references.append(reference())
        phase.ops += request.ops
        if problems:
            phase.failed += request.ops
            phase.problems.extend(f"{request.label}: {problem}" for problem in problems)
    phase.elapsed += clock() - start
    phase.rounds += 1


def repeat_is_identical(request) -> bool:
    """The same request twice gives byte-identical JSON."""
    try:
        first = request.call()[1]
        return first != b"" and request.call()[1] == first
    except Exception:  # reported as a failed check, like any failing request
        return False


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(set-up, reference) seconds of one fresh interpreter.

    The set-up is the package import plus making the inputs; the reference
    is timed in the same interpreter just after.
    """
    probe = checkout.ROOT / "perfbench" / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), workload, str(seed)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup, reference = done.stdout.split()[-2:]
    return float(setup), float(reference)


def timed(rounds, workload: str, seed: int, seconds: float) -> tuple[Phase, list[tuple[float, float]]]:
    """Whole rounds for ``seconds`` of measured time, with set-up probes spread between them."""
    import speed

    for _ in range(WARM_REFERENCES):
        speed.reference_seconds()
    phase = Phase()
    setup_times: list[tuple[float, float]] = []
    while phase.elapsed < seconds:
        run_round(phase, rounds[phase.rounds % len(rounds)], reference=speed.reference_seconds)
        due = len(setup_times) * seconds / SETUP_PROBES
        if len(setup_times) < SETUP_PROBES and phase.elapsed >= due:
            setup_times.append(setup_probe(workload, seed))
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(workload, seed))
    return phase, setup_times


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at TAIL_PERCENTILE, or lower if that leaves fewer than TAIL_BEYOND above it.

    A percentile fixed in advance, unlike "the 11th slowest", does not move
    with the number of requests a run gets through.
    """
    ordered = sorted(latencies, reverse=True)
    k = max(TAIL_BEYOND, int(len(ordered) * (100.0 - TAIL_PERCENTILE) / 100.0))
    k = min(k, len(ordered) - 1)
    return ordered[k], 100.0 * (1.0 - k / len(ordered))


def environment(casorati) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(checkout.PACKAGE.glob("*.py"))
    )
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas": blas,
        "blas_threads": checkout.BLAS_THREADS,
        "client": "one closed-loop client, one request at a time",
        "src_casorati_lines": src_lines,
        "casorati_all": len(casorati.__all__),
    }


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if ".self_ms" in name:
        return "ms/op"
    if name.endswith(".iterations"):
        return "iter/call"
    if name.endswith(".starts"):
        return "starts/call"
    if name.endswith("_ratio"):
        return "ratio"
    return "%"


def end_to_end(phase: Phase, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics, every time normalised to the reference host."""
    import speed

    latencies = speed.normalised(phase.latencies, phase.references)
    setups = [setup * speed.REFERENCE_S / reference for setup, reference in setup_times]
    tail, percentile = tail_latency(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (phase.ops / math.fsum(latencies), "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "success_rate": ((phase.ops - phase.failed) / phase.ops, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_tail, _ = tail_latency(phase.latencies)
    note = {"tail_percentile": percentile, "requests": len(phase.latencies),
            "beyond_tail": round(len(latencies) * (100.0 - percentile) / 100.0),
            "rounds": phase.rounds, "seconds": phase.elapsed,
            "setup_s": setups,
            "measured": {"throughput_ops_s": phase.ops / phase.elapsed,
                         "latency_p50_ms": 1e3 * statistics.median(phase.latencies),
                         "latency_tail_ms": 1e3 * raw_tail,
                         "setup_s": [setup for setup, _ in setup_times]},
            "reference_ms": {"median": 1e3 * statistics.median(phase.references),
                             "min": 1e3 * min(phase.references),
                             "max": 1e3 * max(phase.references)}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, note


def traced(rounds, seconds: float) -> tuple[dict, dict, list[Phase], object]:
    """Each round once untraced and once traced, for ``seconds`` in all.

    Running the pair back to back, in alternating order, lets both sides see
    the same machine speed, which drifts over tens of seconds.
    """
    import tracing

    plain, spanned = Phase(), Phase()
    tracer = tracing.Tracer()

    def run_traced(requests) -> None:
        with tracer:
            run_round(spanned, requests, tracer)

    while plain.elapsed + spanned.elapsed < seconds:
        requests = rounds[plain.rounds % len(rounds)]
        if plain.rounds % 2:
            run_traced(requests)
            run_round(plain, requests)
        else:
            run_round(plain, requests)
            run_traced(requests)
    overhead = 100.0 * (spanned.elapsed / plain.elapsed - 1.0)
    values = tracer.layer_metrics(spanned.ops)
    values["tracing.overhead_pct"] = overhead
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    note = {"rounds": plain.rounds, "untraced_s": plain.elapsed, "traced_s": spanned.elapsed,
            "spans": len(tracer.spans), "overhead_pct": overhead}
    return metrics, note, [plain, spanned], tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout.pin_blas_threads()
    try:
        casorati = checkout.import_package()
    except checkout.MissingPackage as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import workloads

    checkout.OUT.mkdir(exist_ok=True)
    rounds = workloads.build(args.workload, args.seed)
    env = environment(casorati)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    # The determinism probe, which runs the first request twice, is also the warm-up.
    identical = repeat_is_identical(rounds[0][0])
    if args.trace:
        metrics, note, phases, tracer = traced(rounds, args.seconds)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(checkout.OUT / f"spans-{stem}.jsonl")
        print(f"tracing overhead {note['overhead_pct']:+.1f}% on {note['rounds']} rounds "
              f"({note['untraced_s']:.2f} s untraced, {note['traced_s']:.2f} s traced, "
              f"{note['spans']} spans)", flush=True)
    else:
        phase, setup_times = timed(rounds, args.workload, args.seed, args.seconds)
        metrics, note = end_to_end(phase, setup_times)
        phases = [phase]
        print(f"latency_tail_ms is the p{note['tail_percentile']:.2f} latency of "
              f"{note['requests']} requests ({note['beyond_tail']} beyond it); "
              f"{note['rounds']} rounds in {note['seconds']:.2f} s", flush=True)

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for phase in phases for p in phase.problems]
    if not identical:
        problems.insert(0, f"first request did not give the same JSON twice: {rounds[0][0].label}")
    for problem in problems[:PROBLEMS_KEPT]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"args": vars(args), "env": env, "note": note,
              "problems": problems[:PROBLEMS_KEPT], "result": result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (checkout.OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    workloads.CLI_REPORT.unlink(missing_ok=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

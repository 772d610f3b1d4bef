"""Benchmark a base commit against this checkout, in alternating pairs, into one JSON file.

Both sides run their own, unmodified ``perfbench/run.py``: the base side
from a ``git archive`` of ``--base`` unpacked into a scratch directory, the
change side likewise from ``--change``, or from this checkout's working tree
when no ``--change`` is given. Usage, from the root of a checkout:

    python3 tools/bench_pair.py --base HEAD~1 --output BENCH_<n>.json

Each of the ten pairs runs every workload of ``BENCHMARK.json`` once per
side for its ``run_seconds``, with one seed (``--seed`` plus the pair's
index); even pairs run the base side first and odd pairs the change side. The file holds the environment, each
workload's end-to-end medians and quartiles per side, the pairs the change
won per metric, one traced run per side of every workload (``traced``,
keyed by workload), the Tier-1 suite time per side, and each side's
``src/`` line count and ``__all__`` size.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10
RUN_TIMEOUT_S = 1800


def unpack(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``, via ``git archive``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", rev], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its environment line and its result object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env, "result": json.loads(lines[-1])}


def tier1(root: Path) -> dict:
    """Wall time and summary line of the Tier-1 suite in ``root``."""
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return {"seconds": time.perf_counter() - began, "exit": done.returncode,
            "summary": done.stdout.strip().splitlines()[-1]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """Per workload and metric: each side's median and quartiles, and the pairs the change won.

    ``gain`` applies the claim rule: the change wins at least nine tenths of
    the pairs (ties count for neither), and the medians differ by more than
    the base side's interquartile range.
    """
    out = {}
    for workload, pairs in runs.items():
        rows = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            pairs_of = zip(values["base"], values["change"])
            wins = sum((c > b) if higher else (c < b) for b, c in pairs_of)
            spread = stats["base"]["q3"] - stats["base"]["q1"]
            base_median = stats["base"]["median"]
            shift = stats["change"]["median"] - base_median
            rows[name] = {
                "unit": metric["unit"], "better": metric["better"], **stats,
                "change_vs_base": shift / base_median if base_median else None,
                "pairs_won": wins, "pairs": len(pairs),
                "gain": wins >= 0.9 * len(pairs) and (shift if higher else -shift) > spread,
            }
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        out[workload] = {"metrics": rows, "failed_ops": failed}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1", help="git revision of the base side")
    parser.add_argument("--change", default=None,
                        help="git revision of the change side (default: the working tree)")
    parser.add_argument("--output", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=70, help="workload seed of the first pair")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    revs = {"base": rev_parse(args.base),
            "change": rev_parse(args.change) if args.change else "working tree"}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: ROOT if rev == "working tree" else unpack(rev, Path(tmp) / side)
                 for side, rev in revs.items()}
        runs = {w: [] for w in workloads}
        envs = {}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                pair = {}
                for side in order:
                    run = perfbench(roots[side], workload, args.seed + i, seconds, 0)
                    envs[side] = run["env"]
                    pair[side] = run["result"]
                    print(f"pair {i} {workload} {side}: "
                          f"{run['result']['metrics']['throughput_ops_s']['value']:.2f} ops/s",
                          file=sys.stderr, flush=True)
                runs[workload].append(pair)
        traced = {w: {side: perfbench(roots[side], w, args.seed, seconds, 1)["result"]
                      for side in SIDES} for w in workloads}
        suite = {side: tier1(roots[side]) for side in SIDES}

    record = {
        **revs,
        "settings": {"pairs": PAIRS, "seeds": [args.seed, args.seed + PAIRS - 1],
                     "seconds": seconds, "order": "base first in even pairs, change first in odd"},
        "environment": envs["change"],
        "end_to_end": summarise(runs, spec["end_to_end"]),
        "traced": {
            w: {"seed": args.seed,
                **{side: {"per_layer": {k: v["value"] for k, v in run["metrics"].items()},
                          "correct": run["correct"]} for side, run in sides.items()}}
            for w, sides in traced.items()
        },
        "tier1": suite,
        "src": {side: {"lines": envs[side]["src_casorati_lines"],
                       "all": envs[side]["casorati_all"]} for side in SIDES},
    }
    Path(args.output).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

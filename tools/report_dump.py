"""Dump the JSON reports of a fixed set of CLI runs, one canonical line per run.

Each argv goes through ``casorati.cli.main`` in this process, against the
package in this checkout's ``src/``. A line holds the argv, the exit code and
the parsed report (``null`` when the run printed none), serialised with
sorted keys, so two dumps compare with ``diff`` or ``cmp``:

    python tools/report_dump.py --output before.jsonl   # in one checkout
    python tools/report_dump.py --output after.jsonl    # in another
    cmp before.jsonl after.jsonl

The runs are ``verify --theorem all`` on every tagged catalog entry at
SEEDS with SAMPLES points, ``invariants`` on every entry at its base point,
and synthetic ``verify --theorem all --trials`` SYNTHETIC_TRIALS at SEEDS.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import casorati  # noqa: E402
import casorati.cli  # noqa: E402

SEEDS = (0, 1, 2)
SAMPLES = 2
SYNTHETIC_TRIALS = 1024


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="-", help="file to write (default stdout)")
    args = parser.parse_args()
    lines = [json.dumps(run(argv), sort_keys=True, separators=(",", ":")) for argv in argv_list()]
    payload = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's three workloads: inputs made from a seed, requests, oracles.

A workload is a list of rounds; a round is the workload's whole request mix
once, so a run that measures whole rounds measures the same mix whatever its
length. Inputs for more rounds than a run needs are made in advance, during
set-up, and a run that outlasts them starts the list again.

Requests reach the package only through its public functions and
``casorati.cli.main``, looked up at call time so that the traced run sees its
wrappers.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import casorati
import casorati.cli

import oracles
from checkout import OUT

# A multiple of 16 next to the CLI's default of 1000 trials, so that the
# injected equality trials number exactly trials // 16.
FUZZ_TRIALS = 1024
FUZZ_ROUNDS = 256
CERTIFY_R = range(3, 7)
CERTIFY_S = range(1, 4)
CERTIFY_ROLES = (casorati.ROLE_B, casorati.ROLE_T, casorati.ROLE_A)
CERTIFY_ROUNDS = 32
CATALOG_SAMPLES = 1
CATALOG_ROUNDS = 96
# Distance kept from the chart box when drawing points, as the package's own
# interior sampler does.
POINT_MARGIN = 0.1

# Where the catalog requests have the CLI write its report.
CLI_REPORT = OUT / f"cli-report-{os.getpid()}.json"


@dataclass(frozen=True)
class Request:
    """One request: ``call`` returns its oracle's problems and its canonical JSON."""

    label: str
    ops: int
    call: Callable[[], tuple[list[str], bytes]]


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _fuzz_request(theorem: str, seed: int) -> Request:
    def call():
        summary = casorati.verify_synthetic(theorem, FUZZ_TRIALS, seed=seed)
        return oracles.check_fuzz(summary, theorem, FUZZ_TRIALS), _canonical(summary)

    return Request(f"verify_synthetic {theorem} seed={seed}", FUZZ_TRIALS, call)


def fuzz_rounds(seed: int) -> list[list[Request]]:
    """All 17 theorems per round, each with its own seed drawn from the workload seed.

    One call is one request: a whole sweep per request would make the
    median latency jump between the machine's fast and slow spells.
    """
    seeds = np.random.default_rng(seed).integers(0, 2**31, size=(FUZZ_ROUNDS, len(casorati.THEOREM_IDS)))
    return [[_fuzz_request(t, int(s)) for t, s in zip(casorati.THEOREM_IDS, row)] for row in seeds]


def random_coefficients(rng: np.random.Generator, role: str, r: int, s: int) -> np.ndarray:
    """Dense coefficients: symmetric for the B and T roles, antisymmetric for A."""
    m = rng.standard_normal((s, r, r))
    flipped = m.transpose(0, 2, 1)
    return 0.5 * (m - flipped) if role == casorati.ROLE_A else 0.5 * (m + flipped)


def _certify_request(role: str, coeffs: np.ndarray) -> Request:
    def call():
        report = casorati.delta_casorati(casorati.FormCoefficients(role, coeffs), certify=True)
        return oracles.check_certify(report, role, coeffs), _canonical(report.to_json())

    s, r, _ = coeffs.shape
    return Request(f"delta_casorati {role} r={r} s={s}", 1, call)


def certify_rounds(seed: int) -> list[list[Request]]:
    """Every (r, s) with the roles B, T, A in turn: 36 sets per round."""
    rng = np.random.default_rng(seed)
    return [
        [
            _certify_request(role, random_coefficients(rng, role, r, s))
            for r, s in itertools.product(CERTIFY_R, CERTIFY_S)
            for role in CERTIFY_ROLES
        ]
        for _ in range(CERTIFY_ROUNDS)
    ]


def _cli_request(label: str, ops: int, argv: list[str], geometry: str, check) -> Request:
    argv = [*argv, "--json", "--output", str(CLI_REPORT)]

    def call():
        CLI_REPORT.unlink(missing_ok=True)
        try:
            code = casorati.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        payload = CLI_REPORT.read_bytes() if code == 0 else b""
        report = json.loads(payload) if payload else None
        return check(code, report, geometry), payload

    return Request(label, ops, call)


def _point_arg(p: np.ndarray) -> str:
    # The joined form: argparse reads "--point -0.1,..." as a missing value.
    return "--point=" + ",".join(repr(float(x)) for x in p)


def catalog_rounds(seed: int) -> list[list[Request]]:
    """``verify --theorem all`` on each tagged entry, ``invariants`` on every entry."""
    rng = np.random.default_rng(seed)
    entries = casorati.list_entries()
    tagged = [e for e in entries if e.hypothesis_tags]
    rounds = []
    for _ in range(CATALOG_ROUNDS):
        requests = []
        for entry, sample_seed in zip(tagged, rng.integers(0, 2**31, size=len(tagged))):
            argv = ["verify", "--theorem", "all", "--geometry", entry.id,
                    "--samples", str(CATALOG_SAMPLES), "--seed", str(int(sample_seed))]
            requests.append(_cli_request(
                f"verify {entry.id} seed={int(sample_seed)}", CATALOG_SAMPLES, argv,
                entry.id, oracles.check_cli_verify,
            ))
        for entry in entries:
            box = entry.source_chart.domain_box
            point = _point_arg(rng.uniform(box[:, 0] + POINT_MARGIN, box[:, 1] - POINT_MARGIN))
            argv = ["invariants", "--geometry", entry.id, point]
            requests.append(_cli_request(
                f"invariants {entry.id} {point}", 1, argv, entry.id, oracles.check_cli_invariants,
            ))
        rounds.append(requests)
    return rounds


WORKLOAD_ROUNDS = {"fuzz": fuzz_rounds, "certify": certify_rounds, "catalog": catalog_rounds}


def build(name: str, seed: int) -> list[list[Request]]:
    return WORKLOAD_ROUNDS[name](seed)

"""Correctness oracles, one per workload.

Each check returns a list of problems, empty when the result is correct; a
request whose list is not empty counts its ops as failed. The references are
computed here from the inputs, not read from the package.
"""

from __future__ import annotations

import numpy as np

import casorati

# The package certifies an extremum when optimizer and grid agree to within
# this relative tolerance; the closed-form references are held to the same bar.
CERTIFY_REL_TOL = 1e-4
# verify_synthetic injects the equality shape on every 16th trial.
EQUALITY_STRIDE = 16


def check_fuzz(summary: dict, theorem: str, trials: int) -> list[str]:
    """No counterexample, and the delta bound is attained on every equality trial."""
    problems = []
    if summary.get("theorem") != theorem or summary.get("trials") != trials:
        problems.append(f"{theorem}: summary is for {summary.get('theorem')!r}, "
                        f"{summary.get('trials')} trials")
    if summary.get("failures") != 0:
        problems.append(f"{theorem}: {summary.get('failures')} counterexamples")
    expected = trials // EQUALITY_STRIDE
    if summary.get("equality_hits") != expected:
        problems.append(f"{theorem}: {summary.get('equality_hits')} equality hits, "
                        f"expected {expected}")
    return problems


def closed_form_extrema(role: str, coeffs: np.ndarray) -> tuple[float | None, float | None]:
    """(inf, sup) of C^L over hyperplanes where a closed form exists, else None.

    A role: n^T A n = 0, so the restricted sum is ||A||^2 - 2 n^T (sum A^T A) n
    and its extrema sit at the extreme eigenvalues of sum A^T A.
    One symmetric matrix B: the sup is ||B||^2 - min lambda_i^2 over B's eigenvalues.
    """
    r = coeffs.shape[1]
    norm2 = float(np.sum(coeffs * coeffs))
    if role == casorati.ROLE_A:
        lam = np.linalg.eigvalsh(np.einsum("aij,aik->jk", coeffs, coeffs))
        return (norm2 - 2.0 * lam[-1]) / (r - 1), (norm2 - 2.0 * lam[0]) / (r - 1)
    if coeffs.shape[0] == 1:
        lam = np.linalg.eigvalsh(coeffs[0])
        return None, (norm2 - float(np.min(lam * lam))) / (r - 1)
    return None, None


def check_certify(report, role: str, coeffs: np.ndarray) -> list[str]:
    """Certified by the package's grid, and equal to the closed form where one exists."""
    problems = []
    if report.certified is not True:
        problems.append(f"certified is {report.certified!r}")
    inf_ref, sup_ref = closed_form_extrema(role, coeffs)
    for name, got, ref in (("C_L_inf", report.C_L_inf, inf_ref), ("C_L_sup", report.C_L_sup, sup_ref)):
        if ref is not None and not abs(got - ref) <= CERTIFY_REL_TOL * (1.0 + abs(ref)):
            problems.append(f"{name} {got!r} differs from the closed form {ref!r}")
    return problems


def _certified_blocks(blocks) -> list[str]:
    return [
        f"{where}: certified is {block['optimizer'].get('certified')!r}"
        for where, block in blocks
        if "optimizer" in block and block["optimizer"].get("certified") is not True
    ]


def check_cli_verify(code: int, report: dict | None, geometry: str) -> list[str]:
    """Exit 0, no failing inequality, every extremum certified."""
    if code != 0 or report is None:
        return [f"verify {geometry}: exit code {code}"]
    problems = []
    if report.get("geometry") != geometry or not report.get("reports"):
        problems.append(f"verify {geometry}: report names {report.get('geometry')!r} "
                        f"with {len(report.get('reports') or [])} inequalities")
    if report.get("total_failures") != 0:
        problems.append(f"verify {geometry}: total_failures {report.get('total_failures')}")
    problems += _certified_blocks(
        (f"verify {geometry} {r.get('theorem')} {r.get('variant')}", r.get("casorati", {}))
        for r in report.get("reports") or []
    )
    return problems


def check_cli_invariants(code: int, report: dict | None, geometry: str) -> list[str]:
    """Exit 0 and every extremum certified."""
    if code != 0 or report is None:
        return [f"invariants {geometry}: exit code {code}"]
    problems = []
    if report.get("geometry") != geometry or not report.get("coefficients"):
        problems.append(f"invariants {geometry}: report names {report.get('geometry')!r}")
    problems += _certified_blocks(
        (f"invariants {geometry} {role}", block)
        for role, block in (report.get("coefficients") or {}).items()
    )
    return problems

"""The constrained quadratic extremum lemma and an independent KKT oracle.

Minimize, over the hyperplane z_1 + ... + z_r = k,

    f(z) = lambda1 * (z_1^2 + ... + z_{r-1}^2) + lambda2 * z_r^2
           - 2 * sum_{i<j} z_i z_j.

Provided lambda2 = (r-1) / (lambda1 - r + 2), the global minimum is attained at
z_1 = ... = z_{r-1} = k/(lambda1+1), z_r = k/(lambda2+1), where f = 0. The
closed form is cross-checked against a direct solve of the (r+1) x (r+1) KKT
system, which needs no proviso at all. A |k| so large that either route
overflows is bad input, not a failed proviso.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, IndefiniteRestriction, ProvisoViolated
from .framecore import MAX_CHART_DIM

PROVISO_TOL = 1e-12
ZR_CONSISTENCY_TOL = 1e-10
KKT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ExtremumProblem:
    r: int
    lambda1: float
    lambda2: float
    k: float

    def __post_init__(self) -> None:
        if self.r > MAX_CHART_DIM or not np.isfinite([self.lambda1, self.lambda2, self.k]).all():
            raise DegenerateInput(f"need r <= {MAX_CHART_DIM} and finite lambda1, lambda2, k")
        if self.r < 3:
            raise ProvisoViolated(f"need r >= 3, got {self.r}")
        if self.lambda1 <= 0 or self.lambda2 <= 0:
            raise ProvisoViolated("lambda1 and lambda2 must be positive")

    @classmethod
    def from_lambda1(cls, r: int, lambda1: float, k: float) -> "ExtremumProblem":
        """Derive lambda2 from the proviso; requires lambda1 > r - 2."""
        if lambda1 <= r - 2:
            raise ProvisoViolated(
                f"proviso needs lambda1 > r - 2 (= {r - 2}), got {lambda1}"
            )
        return cls(r, float(lambda1), (r - 1.0) / (lambda1 - r + 2.0), float(k))

    def satisfies_proviso(self) -> bool:
        if self.lambda1 <= self.r - 2:
            return False
        expected = (self.r - 1.0) / (self.lambda1 - self.r + 2.0)
        return abs(self.lambda2 - expected) <= PROVISO_TOL * (1.0 + abs(expected))

    def hessian_half(self) -> np.ndarray:
        """M with f(z) = z^T M z: diag(l1,..,l1,l2) + I - ones*ones^T."""
        r = self.r
        d = np.full(r, self.lambda1)
        d[-1] = self.lambda2
        return np.diag(d + 1.0) - np.ones((r, r))

    def value(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.hessian_half() @ z)


def _require_finite(prob: ExtremumProblem, *values: float) -> None:
    """Raise DegenerateInput if a value computed for ``prob`` overflowed."""
    if not np.isfinite(values).all():
        raise DegenerateInput(f"|k| = {abs(prob.k):g} is too large: the extremum overflows")


def solve_closed_form(prob: ExtremumProblem) -> tuple[np.ndarray, float]:
    """The lemma's minimizer and the value of f there (evaluated, not assumed)."""
    if not prob.satisfies_proviso():
        raise ProvisoViolated(
            "lambda2 != (r-1)/(lambda1 - r + 2); closed form does not apply"
        )
    r, l1, l2, k = prob.r, prob.lambda1, prob.lambda2, prob.k
    z = np.full(r, k / (l1 + 1.0))
    z_r = k / (l2 + 1.0)
    # The lemma states three equivalent expressions for z_r; they must agree.
    alt1 = k * (r - 1.0) / ((l1 + 1.0) * l2)
    alt2 = k * (l1 - r + 2.0) / (l1 + 1.0)
    _require_finite(prob, alt1, alt2)
    scale = 1.0 + abs(z_r)
    if abs(z_r - alt1) > ZR_CONSISTENCY_TOL * scale or abs(z_r - alt2) > ZR_CONSISTENCY_TOL * scale:
        raise ProvisoViolated(
            f"inconsistent z_r expressions ({z_r}, {alt1}, {alt2}): proviso violated"
        )
    z[-1] = z_r
    return z, _value(prob, z)


def _value(prob: ExtremumProblem, z: np.ndarray) -> float:
    """f(z), which must not overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = prob.value(z)
    _require_finite(prob, f)
    return f


def solve_oracle(prob: ExtremumProblem) -> tuple[np.ndarray, float]:
    """Equality-constrained minimizer by the KKT normal equations.

    Exact for quadratics (single linear solve). Raises IndefiniteRestriction
    when the Hessian restricted to the constraint hyperplane has a negative
    eigenvalue, i.e. no finite minimum exists.
    """
    r = prob.r
    m = prob.hessian_half()

    # Restricted-Hessian definiteness: eigenvalues of V^T M V on ones(r)^perp.
    ones = np.ones(r) / np.sqrt(r)
    q, _ = np.linalg.qr(np.eye(r) - np.outer(ones, ones))
    v = q[:, : r - 1]
    restricted = v.T @ m @ v
    min_eig = float(np.linalg.eigvalsh(restricted).min())
    if min_eig < -1e-10 * (1.0 + float(np.abs(m).max())):
        raise IndefiniteRestriction(
            f"restricted Hessian has negative eigenvalue {min_eig:.3e}"
        )

    kkt = np.zeros((r + 1, r + 1))
    kkt[:r, :r] = 2.0 * m
    kkt[:r, r] = -1.0
    kkt[r, :r] = 1.0
    rhs = np.zeros(r + 1)
    rhs[r] = prob.k
    sol = np.linalg.solve(kkt, rhs)
    z = sol[:r]

    with np.errstate(over="ignore", invalid="ignore"):
        stationarity = np.abs(2.0 * m @ z - sol[r]).max()
        constraint = abs(z.sum() - prob.k)
    _require_finite(prob, stationarity, constraint)
    if stationarity > KKT_RESIDUAL_TOL * (1.0 + abs(prob.k)) or constraint > 1e-10 * (
        1.0 + abs(prob.k)
    ):
        raise IndefiniteRestriction(
            f"KKT solve failed (stationarity {stationarity:.2e}, constraint {constraint:.2e})"
        )
    return z, _value(prob, z)

"""Chart-based metric geometry by numerical differentiation.

A chart is a smooth map ``p -> g(p)`` (symmetric positive-definite matrix) on
a coordinate box. The Christoffel symbols and the full Riemann tensor at a
point come from one pass of first and second central differences of the
metric alone, so no finite difference is ever taken of an already-differenced
quantity and the scheme stays cleanly second order in the step. One Richardson
step removes the leading error term of those differences, which are linear in
the samples; the symbols are formed from the result, and the fully lowered
coordinate formula assembles the tensor once.

Sign convention: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z
and R_{ijkl} = <R(d_i, d_j) d_k, d_l>, which gives the unit round sphere
sectional curvature +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NearSingularMetric, OutOfDomain
from .framecore import MAX_CHART_DIM, Frame

# Differentiation step: h = scale * (1 + |coordinate|), then h/2.
RIEMANN_STEP_SCALE = 1e-3
# Algebraic-identity tolerance for assembled tensors, scaled by (1 + max |R|).
TENSOR_IDENTITY_TOL = 1e-6
MAX_METRIC_CONDITION = 1e8


@dataclass(frozen=True)
class ChartMetric:
    """A coordinate chart: metric function plus a validity box.

    ``metric_fn`` takes points of shape (..., dim) and returns the metric at
    each, of shape (..., dim, dim), so that a stencil is one call.
    ``domain_box`` has shape (dim, 2) with finite rows (lo, hi), lo < hi;
    points (and all finite-difference samples around them) must stay inside.
    """

    dim: int
    metric_fn: Callable[[np.ndarray], np.ndarray]
    domain_box: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        box = np.array(self.domain_box, dtype=float)
        if box.shape != (self.dim, 2):
            raise DimensionMismatch(
                f"domain_box shape {box.shape}, expected ({self.dim}, 2)"
            )
        if not (np.isfinite(box).all() and (box[:, 0] < box[:, 1]).all()):
            raise DegenerateInput(f"domain_box {box.tolist()} needs finite rows lo < hi")
        object.__setattr__(self, "domain_box", box)
        box.setflags(write=False)

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        """The metric at points of shape (..., dim), as an array (..., dim, dim).

        Overflow and invalid operations inside ``metric_fn`` (a huge
        parameter) raise no floating-point warning: they leave inf or NaN,
        which every caller rejects with a typed error.
        """
        p = np.asarray(p, dtype=float)
        with np.errstate(all="ignore"):
            g = np.asarray(self.metric_fn(p), dtype=float)
        if g.shape != p.shape[:-1] + (self.dim, self.dim):
            raise DimensionMismatch(f"metric has shape {g.shape} at points of shape {p.shape}")
        return g

    def steps_at(self, p: np.ndarray, scale: float) -> np.ndarray:
        return scale * (1.0 + np.abs(np.asarray(p, dtype=float)))

    def require_inside(self, p: np.ndarray, margin: np.ndarray | float) -> None:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionMismatch(f"point has shape {p.shape}, chart dim {self.dim}")
        lo = self.domain_box[:, 0] + margin
        hi = self.domain_box[:, 1] - margin
        # NaN compares False against both bounds, so finiteness is tested first.
        if not np.all(np.isfinite(p)) or np.any(p < lo) or np.any(p > hi):
            raise OutOfDomain(
                f"point {p.tolist()} outside chart box with margin (chart {self.name!r})"
            )

    def interior_sampler(self, rng: np.random.Generator, margin: float = 0.1):
        """Uniform sample points inside the box, away from the boundary."""
        lo = self.domain_box[:, 0] + margin
        hi = self.domain_box[:, 1] - margin
        if np.any(hi <= lo):
            raise OutOfDomain("domain box too small for the requested margin")

        def sample() -> np.ndarray:
            return rng.uniform(lo, hi)

        return sample


@dataclass(frozen=True)
class CurvatureTensor:
    """R_{ijkl} components at a point, validated against the algebraic identities, and
    the Christoffel symbols Gamma^k_{ij} [k, i, j] that ``riemann_at`` formed with them
    (None for a tensor built from components alone)."""

    components: np.ndarray
    christoffel: np.ndarray | None = None

    def __post_init__(self) -> None:
        comp = np.array(self.components, dtype=float)
        if comp.ndim != 4 or len(set(comp.shape)) != 1:
            raise DimensionMismatch(f"components have shape {comp.shape}")
        scale = 1.0 + float(np.abs(comp).max())
        tol = TENSOR_IDENTITY_TOL * scale
        defects = {
            "antisym_ij": np.abs(comp + comp.transpose(1, 0, 2, 3)).max(),
            "antisym_kl": np.abs(comp + comp.transpose(0, 1, 3, 2)).max(),
            "pair_sym": np.abs(comp - comp.transpose(2, 3, 0, 1)).max(),
            "bianchi": np.abs(
                comp + comp.transpose(1, 2, 0, 3) + comp.transpose(2, 0, 1, 3)
            ).max(),
        }
        worst = max(defects.values())
        # NaN compares False against tol, so the test is written to fail on it.
        if not worst <= tol:
            named = ", ".join(f"{name} {value:.2e}" for name, value in defects.items())
            raise DimensionMismatch(f"curvature tensor identities violated: {named}, tol {tol:.2e}")
        object.__setattr__(self, "components", comp)
        comp.setflags(write=False)
        if self.christoffel is not None:
            object.__setattr__(self, "christoffel", np.array(self.christoffel, dtype=float))
            self.christoffel.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.components.shape[0]


@lru_cache(maxsize=MAX_CHART_DIM)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) of the pairs a < b of n coordinates, in row-major order."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _stencil(p: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central-difference sample points around p, one per row.

    Rows: p, then p + h_a e_a and p - h_a e_a for each a, then
    (p + s h_a e_a) + t h_b e_b for a < b and signs (s, t) = (+, +), (+, -),
    (-, +), (-, -) in turn. Each row is p with one or two coordinates
    replaced, so its entries are those that adding h_a e_a gives.
    """
    n = p.size
    plus, minus = p + h, p - h
    eye = np.eye(n, dtype=bool)
    a, b = _upper_pairs(n)
    pairs = np.arange(a.size)
    quad = np.tile(p, (4, a.size, 1))
    quad[:, pairs, a] = [plus[a], plus[a], minus[a], minus[a]]
    quad[:, pairs, b] = [plus[b], minus[b], plus[b], minus[b]]
    return np.concatenate([p[None, :], np.where(eye, plus, p), np.where(eye, minus, p),
                           quad.reshape(-1, n)])


def _derivatives(samples: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, dg, ddg) from the metric on ``_stencil`` rows: g at p, dg[a] = d_a g
    and ddg[a, b] = d_a d_b g."""
    n = h.size
    g0, gp, gm = samples[0], samples[1 : n + 1], samples[n + 1 : 2 * n + 1]
    ddg = np.empty((n, n, n, n))
    diag = np.arange(n)
    ddg[diag, diag] = (gp - 2.0 * g0 + gm) / (h * h)[:, None, None]
    a, b = _upper_pairs(n)
    pp, pm, mp, mm = samples[2 * n + 1 :].reshape(4, a.size, n, n)
    mixed = (pp - pm - mp + mm) / (4.0 * h[a] * h[b])[:, None, None]
    ddg[a, b] = mixed
    ddg[b, a] = mixed
    return g0, (gp - gm) / (2.0 * h[:, None, None]), ddg


def _check_condition(g: np.ndarray) -> None:
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > MAX_METRIC_CONDITION:
        raise NearSingularMetric(f"metric condition number {cond:.3e}")


def _lowered(dg: np.ndarray) -> np.ndarray:
    """Gamma_{l,ij} = (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) / 2 from dg[a, i, j] = d_a g_{ij}."""
    return 0.5 * (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg)


def _symbols(g: np.ndarray, dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Gamma_{l,ij}, Gamma^k_{ij}) from the metric and its first derivatives."""
    _check_condition(g)
    low = _lowered(dg)
    return low, np.einsum("kl,lij->kij", np.linalg.inv(g), low)


def christoffel(chart: ChartMetric, p: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij} at p, indexed [k, i, j], as ``riemann_at`` forms them."""
    return riemann_at(chart, p).christoffel


def riemann_at(chart: ChartMetric, p: np.ndarray) -> CurvatureTensor:
    """Full lowered Riemann tensor R_{ijkl} at p, with the Christoffel symbols there.

    One Richardson extrapolation step combines the metric derivatives of the
    h and h/2 stencils, killing their leading O(h^2) truncation term; the
    Christoffel symbols and then the tensor are formed once from the result.
    The step starts large: extrapolation removes its truncation error, while
    the halved step must stay clear of the second-difference roundoff floor
    eps/h^2. The stencils of both steps go to the metric in one call.
    """
    p = np.asarray(p, dtype=float)
    h = chart.steps_at(p, RIEMANN_STEP_SCALE)
    chart.require_inside(p, 4.0 * h)
    steps = (h, 0.5 * h)
    samples = chart.metric_at(np.concatenate([_stencil(p, step) for step in steps]))
    if not np.all(np.isfinite(samples)):
        raise NearSingularMetric(
            f"metric not finite on the stencil at {p.tolist()} (chart {chart.name!r})")
    (g, dg_coarse, ddg_coarse), (_, dg_fine, ddg_fine) = (
        _derivatives(part, step) for part, step in zip(np.split(samples, 2), steps)
    )
    dg, ddg = (4.0 * dg_fine - dg_coarse) / 3.0, (4.0 * ddg_fine - ddg_coarse) / 3.0
    low, gamma = _symbols(g, dg)
    return CurvatureTensor(_riemann_components(low, gamma, ddg), gamma)


def _riemann_components(low: np.ndarray, gamma: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """R_{ijkl} from the symbols Gamma_{m,ij} and Gamma^m_{ij} and ddg[a, b] = d_a d_b g:

    R_{ijkl} = (d_i d_k g_{jl} - d_i d_l g_{jk} - d_j d_k g_{il} + d_j d_l g_{ik}) / 2
               + Gamma_{m,jl} Gamma^m_{ik} - Gamma_{m,il} Gamma^m_{jk}.
    """
    dd = ddg.transpose(0, 2, 1, 3)  # [i, j, k, l] = d_i d_k g_{jl}
    # s holds the terms with d_i or Gamma^m_{ik}; the other three are -s with i and j swapped.
    s = 0.5 * (dd - dd.transpose(0, 1, 3, 2)) + np.einsum("mjl,mik->ijkl", low, gamma)
    return s - s.transpose(1, 0, 2, 3)


def traced_curvature(components: np.ndarray, vectors: np.ndarray) -> float:
    """sum_{i,j} R(e_i, e_j, e_j, e_i) over the rows e_i of ``vectors`` (k, n), any k.

    With the projector P = E^T E it is sum_{abcd} R_abcd P_ad P_bc, taken in
    two-operand stages: P (n^2 k), R against P over the adjacent pair (b, c),
    one matrix product over the n^4 components, then the n^2 pairing with P.
    """
    n = components.shape[0]
    p = vectors.T @ vectors
    return float(np.vdot(p.ravel() @ components.reshape(n, n * n, n), p))


def scalar_on_subspace(tensor: CurvatureTensor, frame: Frame) -> float:
    """Twice the scalar curvature of a subspace: sum_{i,j} R(e_i, e_j, e_j, e_i)."""
    if tensor.dim != frame.dim:
        raise DimensionMismatch("curvature tensor and frame dims differ")
    return traced_curvature(tensor.components, frame.vectors)

"""Pointwise analysis of Riemannian maps and submersions between charts.

A smooth map F between two metric charts is differentiated numerically at a
point, the tangent space splits into vertical (ker F*) and horizontal frames,
and the target splits into range and range-perp frames. On top of that sit
the second fundamental form of the map, the O'Neill tensors T and A of a
submersion, and the traced Gauss identities that feed the curvature
inequalities:

    map:        2scal^H = 2scal^R  + ||trace B||^2 - r C      (B on horizontal pairs)
    vertical:   2scal^V = 2scal_M1^V + ||trace T||^2 - r C    (fibers as submanifolds)
    horizontal: 2scal_H^H = 2scal^H + 3 r C                   (A measures non-integrability)

Jacobians of the map use complex-step differentiation, so the coordinate
function must accept complex input (all built-in geometries do); this gives
machine-precision Jacobians, which the projector-field derivatives behind T
and A need in order to meet the 1e-9 symmetry tolerance of FormCoefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .curvature import ChartMetric, CurvatureTensor, christoffel, riemann_at, scalar_on_subspace
from .errors import (
    DimensionMismatch,
    GaussResidualExceeded,
    HypothesisViolated,
    RankDrop,
    ValidationFailed,
)
from .framecore import Frame, InnerProduct, gram_schmidt
from .measures import ROLE_A, ROLE_B, ROLE_T, FormCoefficients

COMPLEX_STEP = 1e-150
FD_STEP = 5e-6
KERNEL_THRESHOLD = 1e-8
ISOMETRY_TOL = 1e-9
FRAME_ORTHO_TOL = 1e-9
RANGE_RESIDUAL_TOL = 1e-6
TRACED_IDENTITY_TOL = 1e-5
TRACE_A_TOL = 1e-10


@dataclass(frozen=True)
class SmoothMap:
    """A coordinate map between two charts.

    ``func`` maps source coordinates to target coordinates and must handle
    complex arrays: Jacobians use the complex-step rule Im F(p + ih e_k)/h,
    exact to machine precision.
    """

    source: ChartMetric
    target: ChartMetric
    func: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, p: np.ndarray) -> np.ndarray:
        q = np.asarray(self.func(np.asarray(p)))
        if q.shape != (self.target.dim,):
            raise DimensionMismatch(
                f"map {self.name!r} returned shape {q.shape}, target dim {self.target.dim}"
            )
        return q

    def jacobian(self, p: np.ndarray) -> np.ndarray:
        """dF at p as an m2 x m1 matrix."""
        p = np.asarray(p, dtype=float)
        cols = []
        for k in range(self.source.dim):
            z = p.astype(complex)
            z[k] += 1j * COMPLEX_STEP
            cols.append(np.asarray(self.func(z)).imag / COMPLEX_STEP)
        return np.column_stack(cols)

    def component_hessians(self, p: np.ndarray) -> np.ndarray:
        """d2F[c, k, l] = second partials of each target component.

        Central difference of exact Jacobian columns: error ~1e-10.
        """
        p = np.asarray(p, dtype=float)
        m1 = self.source.dim
        h = self.source.steps_at(p, FD_STEP)
        self.source.require_inside(p, 2.0 * h)
        dj = np.empty((m1, self.target.dim, m1))
        for a in range(m1):
            e = np.zeros_like(p)
            e[a] = h[a]
            dj[a] = (self.jacobian(p + e) - self.jacobian(p - e)) / (2.0 * h[a])
        hessians = dj.transpose(1, 0, 2)  # [c, a, l]
        return 0.5 * (hessians + hessians.transpose(0, 2, 1))


@dataclass(frozen=True)
class ScalarCurvaturePair:
    """The two traced scalar curvatures of a Gauss identity, plus the trace residual."""

    left_2scal: float
    right_2scal: float
    r: int
    residual: float = 0.0

    @property
    def rho_left(self) -> float:
        if self.r < 2:
            raise DimensionMismatch("normalized scalar curvature needs r >= 2")
        return self.left_2scal / (self.r * (self.r - 1))

    @property
    def rho_right(self) -> float:
        if self.r < 2:
            raise DimensionMismatch("normalized scalar curvature needs r >= 2")
        return self.right_2scal / (self.r * (self.r - 1))

    def to_json(self) -> dict:
        return {
            "left_2scal": self.left_2scal,
            "right_2scal": self.right_2scal,
            "r": self.r,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class MapAtPoint:
    """Frames and derivative data of a map at a single source point.

    Derived geometry that several consumers read is computed on first use and
    cached on the instance. ``map_at_point`` is the constructor that checks
    the horizontal isometry.
    """

    smooth_map: SmoothMap
    point: np.ndarray
    derivative: np.ndarray
    source_inner: InnerProduct
    target_inner: InnerProduct
    vertical_frame: Frame
    horizontal_frame: Frame
    range_frame: Frame
    range_perp_frame: Frame

    def __post_init__(self) -> None:
        j = self.derivative
        m2, m1 = j.shape
        if self.source_inner.dim != m1 or self.target_inner.dim != m2:
            raise DimensionMismatch("derivative shape inconsistent with inner products")
        if self.vertical_frame.count + self.horizontal_frame.count != m1:
            raise DimensionMismatch("vertical + horizontal frames do not span the source")
        if self.range_frame.count != self.horizontal_frame.count:
            raise DimensionMismatch("range frame size differs from horizontal frame size")
        if self.range_frame.count + self.range_perp_frame.count != m2:
            raise DimensionMismatch("range + range-perp frames do not span the target")
        scale = 1.0 + float(np.abs(j).max())
        if self.vertical_frame.count:
            kernel_defect = float(np.abs(j @ self.vertical_frame.vectors.T).max())
            if kernel_defect > FRAME_ORTHO_TOL * scale:
                raise ValidationFailed(f"vertical frame not in kernel ({kernel_defect:.2e})")
            cross = (
                self.horizontal_frame.vectors
                @ self.source_inner.gram
                @ self.vertical_frame.vectors.T
            )
            if float(np.abs(cross).max()) > FRAME_ORTHO_TOL:
                raise ValidationFailed("horizontal frame not orthogonal to vertical frame")
        if self.range_perp_frame.count:
            cross = (
                self.range_frame.vectors
                @ self.target_inner.gram
                @ self.range_perp_frame.vectors.T
            )
            if float(np.abs(cross).max()) > FRAME_ORTHO_TOL:
                raise ValidationFailed("range frame not orthogonal to range-perp frame")

    @property
    def m1(self) -> int:
        return self.derivative.shape[1]

    @property
    def m2(self) -> int:
        return self.derivative.shape[0]

    @property
    def rank(self) -> int:
        return self.horizontal_frame.count

    @property
    def is_submersion(self) -> bool:
        return self.rank == self.m2

    def require_submersion(self, needed_by: str) -> None:
        """Raise HypothesisViolated unless the map is a submersion here."""
        if not self.is_submersion:
            raise HypothesisViolated(
                f"{needed_by} needs a Riemannian submersion; the map has "
                f"rank {self.rank} < target dimension {self.m2}"
            )

    @cached_property
    def source_curvature(self) -> CurvatureTensor:
        """Refined Riemann tensor of the source chart at the point."""
        return riemann_at(self.smooth_map.source, self.point, refine=True)

    @cached_property
    def projector_field(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Pv, dPv, Gamma): the vertical projector at the point, its first
        derivatives, and the source Christoffel symbols that T and A share."""
        sm = self.smooth_map
        pv = _vertical_projector(sm, self.point, self.rank)
        dpv = _projector_derivative(sm, self.point, self.rank)
        # Only first metric derivatives enter here, so a step below the curvature
        # default keeps the truncation error under the 1e-9 symmetry gates.
        gamma = christoffel(sm.source, self.point, step_scale=1e-5)
        return pv, dpv, gamma

    @cached_property
    def t_vectors(self) -> np.ndarray:
        return _oneill_vectors(self, "T")

    @cached_property
    def a_vectors(self) -> np.ndarray:
        return _oneill_vectors(self, "A")


def map_at_point(sm: SmoothMap, p: np.ndarray, declared_rank: int | None = None) -> MapAtPoint:
    """Differentiate the map at p and build all four frames.

    The kernel comes from an SVD of the derivative (threshold 1e-8 relative to
    the largest singular value); RankDrop is raised when the numerical rank
    disagrees with ``declared_rank``.
    """
    p = np.asarray(p, dtype=float)
    sm.source.require_inside(p, 0.0)
    g1 = sm.source.metric_at(p)
    q = sm(p)
    sm.target.require_inside(q, 0.0)
    g2 = sm.target.metric_at(q)
    inner1, inner2 = InnerProduct(g1), InnerProduct(g2)

    j = sm.jacobian(p)
    _, s, vt = np.linalg.svd(j)
    sigma_max = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > KERNEL_THRESHOLD * sigma_max)) if sigma_max > 0.0 else 0
    if declared_rank is not None and rank != declared_rank:
        raise RankDrop(f"numerical rank {rank} != declared rank {declared_rank} at {p.tolist()}")

    m1, m2 = sm.source.dim, sm.target.dim
    if rank < m1:
        vertical = gram_schmidt(vt[rank:], inner1)
    else:
        vertical = Frame(np.zeros((0, m1)), inner1)
    # (ker F*)^perp w.r.t. g1 is g1^{-1} applied to the row space of the derivative.
    horizontal = gram_schmidt(np.linalg.solve(g1, vt[:rank].T).T, inner1)

    pushed = horizontal.vectors @ j.T
    if rank:
        gram = pushed @ g2 @ pushed.T
        iso_defect = float(np.abs(gram - np.eye(rank)).max())
        if iso_defect > ISOMETRY_TOL:
            raise HypothesisViolated(
                f"map {sm.name!r} is not Riemannian at {p.tolist()}: "
                f"isometry defect {iso_defect:.2e}"
            )
    range_frame = Frame(pushed, inner2)
    if rank < m2:
        # w is g2-orthogonal to the range iff (range g2) w = 0.
        _, _, wt = np.linalg.svd(pushed @ g2)
        range_perp = gram_schmidt(wt[rank:], inner2)
    else:
        range_perp = Frame(np.zeros((0, m2)), inner2)

    return MapAtPoint(
        smooth_map=sm,
        point=p,
        derivative=j,
        source_inner=inner1,
        target_inner=inner2,
        vertical_frame=vertical,
        horizontal_frame=horizontal,
        range_frame=range_frame,
        range_perp_frame=range_perp,
    )


def second_fundamental_form(mp: MapAtPoint) -> FormCoefficients:
    """Coefficients of (nabla F*)(e_i, e_j) against the range-perp frame.

    (nabla F*)(d_k, d_l)^c = d_k d_l F^c + Gamma2^c_{ab} J^a_k J^b_l - Gamma1^m_{kl} J^c_m,
    contracted with the horizontal frame. The range component must vanish
    (checked against a relative 1e-6 gate).
    """
    sm = mp.smooth_map
    p = mp.point
    j = mp.derivative
    gamma1 = christoffel(sm.source, p)
    gamma2 = christoffel(sm.target, sm(p))
    hess = sm.component_hessians(p)
    nabla = (
        hess
        + np.einsum("cab,ak,bl->ckl", gamma2, j, j)
        - np.einsum("mkl,cm->ckl", gamma1, j)
    )
    e = mp.horizontal_frame.vectors
    b_vec = np.einsum("ik,jl,ckl->ijc", e, e, nabla)

    g2 = mp.target_inner.gram
    scale = 1.0 + float(np.abs(b_vec).max())
    if mp.range_frame.count:
        range_comp = np.einsum("ijc,cd,ad->ija", b_vec, g2, mp.range_frame.vectors)
        rel = float(np.abs(range_comp).max()) / scale
        if rel > RANGE_RESIDUAL_TOL:
            raise ValidationFailed(
                f"second fundamental form leaks into the range (relative {rel:.2e})"
            )
    if mp.range_perp_frame.count:
        coeffs = np.einsum("ijc,cd,ad->aij", b_vec, g2, mp.range_perp_frame.vectors)
    else:
        coeffs = np.zeros((0, mp.rank, mp.rank))
    return FormCoefficients(ROLE_B, coeffs)


def _vertical_projector(sm: SmoothMap, x: np.ndarray, rank: int) -> np.ndarray:
    """g1-orthogonal projector onto ker F* at x (smooth even though the SVD basis is not)."""
    j = sm.jacobian(x)
    _, s, vt = np.linalg.svd(j)
    sigma_max = float(s[0]) if s.size else 0.0
    local_rank = int(np.sum(s > KERNEL_THRESHOLD * sigma_max)) if sigma_max > 0.0 else 0
    if local_rank != rank:
        raise RankDrop(f"rank changed from {rank} to {local_rank} near {x.tolist()}")
    m1 = sm.source.dim
    if local_rank == m1:
        return np.zeros((m1, m1))
    k = vt[rank:].T
    g = sm.source.metric_at(x)
    kgk = k.T @ g @ k
    return k @ np.linalg.solve(kgk, k.T @ g)


def _projector_derivative(sm: SmoothMap, p: np.ndarray, rank: int) -> np.ndarray:
    """dPv[a] = partial_a of the vertical projector field, by finite differences.

    Fourth-order stencil: the downstream antisymmetry gates sit at 1e-9 and a
    plain central difference leaves visible truncation error on maps with
    large third derivatives (e.g. stereographic compositions).
    """
    h = sm.source.steps_at(p, FD_STEP)
    sm.source.require_inside(p, 3.0 * h)
    m1 = sm.source.dim
    dpv = np.empty((m1, m1, m1))
    for a in range(m1):
        e = np.zeros_like(p)
        e[a] = h[a]
        p1 = _vertical_projector(sm, p + e, rank) - _vertical_projector(sm, p - e, rank)
        p2 = _vertical_projector(sm, p + 2.0 * e, rank) - _vertical_projector(sm, p - 2.0 * e, rank)
        dpv[a] = (8.0 * p1 - p2) / (12.0 * h[a])
    return dpv


def _oneill_vectors(mp: MapAtPoint, of: str) -> np.ndarray:
    """Full T or A vectors: out[i, j] = T_{e_i} e_j (or A_{e_i} e_j) in source coords.

    Frame fields extend the frame vectors by projecting constants onto the
    moving vertical/horizontal distribution; the covariant derivative then
    needs only the projector field's first derivatives and the Christoffel
    symbols at the base point.
    """
    mp.require_submersion(f"the O'Neill tensor {of}")
    pv, dpv, gamma = mp.projector_field
    if of == "T":
        args = mp.vertical_frame.vectors
        out_proj = np.eye(mp.m1) - pv  # horizontal part of nabla_{v_i} (Pv v~_j)
        field_sign = 1.0
    else:
        args = mp.horizontal_frame.vectors
        out_proj = pv  # vertical part of nabla_{h_i} (Ph h~_j)
        field_sign = -1.0  # d(Ph) = -d(Pv)
    n = args.shape[0]
    out = np.empty((n, n, mp.m1))
    for i in range(n):
        for jdx in range(n):
            drift = field_sign * np.einsum("a,alm,m->l", args[i], dpv, args[jdx])
            conn = np.einsum("a,lam,m->l", args[i], gamma, args[jdx])
            out[i, jdx] = out_proj @ (drift + conn)
    return out


def oneill_T(mp: MapAtPoint) -> FormCoefficients:
    """T coefficients: coeffs[alpha][i][j] = g1(T_{v_i} v_j, h_alpha)."""
    coeffs = np.einsum(
        "ijl,lm,am->aij", mp.t_vectors, mp.source_inner.gram, mp.horizontal_frame.vectors
    )
    return FormCoefficients(ROLE_T, coeffs)


def oneill_A(mp: MapAtPoint) -> FormCoefficients:
    """A coefficients: coeffs[alpha][i][j] = g1(A_{h_i} h_j, v_alpha)."""
    coeffs = np.einsum(
        "ijl,lm,am->aij", mp.a_vectors, mp.source_inner.gram, mp.vertical_frame.vectors
    )
    a = FormCoefficients(ROLE_A, coeffs)
    # The trace-vector check runs on the raw coefficients (after
    # antisymmetrization it would be identically zero).
    raw_traces = np.einsum("aii->a", coeffs)
    trace_sq = float(raw_traces @ raw_traces)
    if trace_sq > TRACE_A_TOL * (1.0 + float(np.sum(coeffs * coeffs))):
        raise ValidationFailed(f"A has a nonzero trace vector (||trace A||^2 = {trace_sq:.2e})")
    return a


def gauss_map_scalars(mp: MapAtPoint, b: FormCoefficients) -> ScalarCurvaturePair:
    """Traced Gauss identity of a Riemannian map.

    left = 2scal^H (source curvature over the horizontal frame), right =
    2scal^R (target curvature over the range frame); their difference must
    equal ||trace B||^2 - r C within 1e-5 relative, which ties the two
    independently computed curvature tensors to the numeric second
    fundamental form.
    """
    if b.role != ROLE_B or b.r != mp.rank:
        raise DimensionMismatch("coefficients do not belong to this map")
    sm = mp.smooth_map
    left = scalar_on_subspace(mp.source_curvature, mp.horizontal_frame)
    right = scalar_on_subspace(riemann_at(sm.target, sm(mp.point), refine=True), mp.range_frame)
    residual = left - right - b.trace_vector_norm_squared() + b.norm_squared()
    scale = 1.0 + abs(left) + abs(right) + b.norm_squared()
    if abs(residual) > TRACED_IDENTITY_TOL * scale:
        raise GaussResidualExceeded(
            f"map Gauss identity residual {residual:.3e} (scale {scale:.3e})"
        )
    return ScalarCurvaturePair(left, right, mp.rank, residual=float(residual))


def gauss_submersion_vertical(
    mp: MapAtPoint, t: FormCoefficients | None = None
) -> ScalarCurvaturePair:
    """Fiber Gauss identity: left = 2scal^V (fiber intrinsic), right = 2scal_M1^V.

    The fiber is a submanifold with second fundamental form T, so its
    intrinsic curvature assembles from the ambient curvature and the full T
    vectors; the reported residual compares the vector-level trace terms with
    the coefficient-level aggregates (a completeness check on the horizontal
    frame).
    """
    t_vec = mp.t_vectors
    if t is None:
        t = oneill_T(mp)
    right = scalar_on_subspace(mp.source_curvature, mp.vertical_frame)
    g1 = mp.source_inner.gram
    trace_vec = np.einsum("iil->l", t_vec)
    tr2 = float(trace_vec @ g1 @ trace_vec)
    sq = float(np.einsum("ijl,lm,ijm->", t_vec, g1, t_vec))
    left = right + tr2 - sq
    residual = (tr2 - sq) - (t.trace_vector_norm_squared() - t.norm_squared())
    scale = 1.0 + abs(left) + abs(right) + t.norm_squared()
    if abs(residual) > TRACED_IDENTITY_TOL * scale:
        raise GaussResidualExceeded(
            f"vertical Gauss identity residual {residual:.3e} (scale {scale:.3e})"
        )
    r = mp.vertical_frame.count
    return ScalarCurvaturePair(float(left), float(right), r, residual=float(residual))


def gauss_submersion_horizontal(
    mp: MapAtPoint, a: FormCoefficients | None = None
) -> ScalarCurvaturePair:
    """Horizontal-distribution identity: left = 2scal_H^H, right = 2scal^H.

    O'Neill's curvature relation adds 3|A_XY|^2 to every ambient horizontal
    sectional curvature, so the traced identity is left = right + 3 r C with
    no trace term (A has zero diagonal). The residual compares vector-level
    and coefficient-level ||A||^2.
    """
    a_vec = mp.a_vectors
    if a is None:
        a = oneill_A(mp)
    right = scalar_on_subspace(mp.source_curvature, mp.horizontal_frame)
    g1 = mp.source_inner.gram
    norm_sq = float(np.einsum("ijl,lm,ijm->", a_vec, g1, a_vec))
    left = right + 3.0 * norm_sq
    residual = 3.0 * (norm_sq - a.norm_squared())
    scale = 1.0 + abs(left) + abs(right) + a.norm_squared()
    if abs(residual) > TRACED_IDENTITY_TOL * scale:
        raise GaussResidualExceeded(
            f"horizontal Gauss identity residual {residual:.3e} (scale {scale:.3e})"
        )
    return ScalarCurvaturePair(float(left), float(right), mp.rank, residual=float(residual))

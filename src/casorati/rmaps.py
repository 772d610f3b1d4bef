"""Pointwise analysis of Riemannian maps and submersions between charts.

A smooth map F between two metric charts is differentiated numerically at a
point, the tangent space splits into vertical (ker F*) and horizontal frames,
and the target splits into range and range-perp frames. On top of that sit
one tensor per point, the second fundamental form nabla F* of the map. Its
frame contractions are the coefficients of the inequalities: B on horizontal
pairs against the range-perp frame, and the O'Neill tensors of a submersion,
(nabla F*)(U, V) = -F*(T_U V) and (nabla F*)(X, U) = -F*(A_X U) for vertical
U, V and horizontal X. The traced Gauss identities feed the curvature
inequalities:

    horizontal: 2scal_1^H - 2scal_2^R = ||trace B||^2 - ||B||^2 - 3||A||^2
    vertical:   2scal^V = 2scal_M1^V + ||trace T||^2 - ||T||^2   (fibers as submanifolds)

Jacobians of the map use complex-step differentiation, so the coordinate
function must accept complex input (all built-in geometries do); this gives
machine-precision Jacobians, whose central differences give the Hessians
behind nabla F* to ~1e-10, inside the 1e-9 symmetry tolerance of
FormCoefficients.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    """The two traced scalar curvatures of a Gauss identity, plus the residual of its gate."""

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
        return asdict(self)


@dataclass(frozen=True)
class MapAtPoint:
    """Frames and derivative data of a map at a single source point.

    ``image`` is F(point), the one evaluation of the map at the point.
    Derived geometry that several consumers read is computed on first use and
    cached on the instance. ``map_at_point`` is the constructor that checks
    the horizontal isometry.
    """

    smooth_map: SmoothMap
    point: np.ndarray
    image: np.ndarray
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
        return riemann_at(self.smooth_map.source, self.point)

    @cached_property
    def target_curvature(self) -> CurvatureTensor:
        """Refined Riemann tensor of the target chart at the image point."""
        return riemann_at(self.smooth_map.target, self.image)

    @cached_property
    def nabla_fstar(self) -> np.ndarray:
        """nabla F* in coordinates: [c, k, l] = (nabla F*)(d_k, d_l)^c.

        (nabla F*)(d_k, d_l)^c = d_k d_l F^c + Gamma2^c_{ab} J^a_k J^b_l - Gamma1^m_{kl} J^c_m.
        On horizontal pairs it is normal to the range (zero for a submersion);
        the range component must vanish within a relative 1e-6 gate.
        """
        sm = self.smooth_map
        j = self.derivative
        nabla = (
            sm.component_hessians(self.point)
            + np.einsum("cab,ak,bl->ckl", christoffel(sm.target, self.image), j, j)
            - np.einsum("mkl,cm->ckl", christoffel(sm.source, self.point), j)
        )
        e = self.horizontal_frame.vectors
        b_vec = np.einsum("ik,jl,ckl->ijc", e, e, nabla)
        leak = np.einsum("ijc,cd,ad->ija", b_vec, self.target_inner.gram, self.range_frame.vectors)
        rel = float(np.abs(leak).max(initial=0.0)) / (1.0 + float(np.abs(b_vec).max(initial=0.0)))
        if rel > RANGE_RESIDUAL_TOL:
            raise ValidationFailed(
                f"second fundamental form leaks into the range (relative {rel:.2e})"
            )
        return nabla


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
        image=q,
        derivative=j,
        source_inner=inner1,
        target_inner=inner2,
        vertical_frame=vertical,
        horizontal_frame=horizontal,
        range_frame=range_frame,
        range_perp_frame=range_perp,
    )


def _pairs(mp: MapAtPoint, first: Frame, second: Frame) -> np.ndarray:
    """[i, j, d] = g2((nabla F*)(first_i, second_j), d_d): nabla F* on frame pairs, lowered."""
    return np.einsum(
        "ik,jl,ckl,cd->ijd", first.vectors, second.vectors, mp.nabla_fstar, mp.target_inner.gram
    )


def second_fundamental_form(mp: MapAtPoint) -> FormCoefficients:
    """B coefficients: coeffs[alpha][i][j] = g2((nabla F*)(h_i, h_j), n_alpha)."""
    pairs = _pairs(mp, mp.horizontal_frame, mp.horizontal_frame)
    return FormCoefficients(ROLE_B, np.einsum("ijd,ad->aij", pairs, mp.range_perp_frame.vectors))


def oneill_T(mp: MapAtPoint) -> FormCoefficients:
    """T coefficients: coeffs[alpha][i][j] = g1(T_{v_i} v_j, h_alpha).

    That is -g2((nabla F*)(v_i, v_j), F* h_alpha), since F* is an isometry on
    horizontal vectors.
    """
    mp.require_submersion("the O'Neill tensor T")
    pairs = _pairs(mp, mp.vertical_frame, mp.vertical_frame)
    return FormCoefficients(ROLE_T, -np.einsum("ijd,ad->aij", pairs, mp.range_frame.vectors))


def _a_coefficients(mp: MapAtPoint) -> np.ndarray:
    """coeffs[alpha][i][j] = g1(A_{h_i} h_j, v_alpha) = g2((nabla F*)(h_i, v_alpha), F* h_j)."""
    pairs = _pairs(mp, mp.horizontal_frame, mp.vertical_frame)
    return np.einsum("iad,jd->aij", pairs, mp.range_frame.vectors)


def oneill_A(mp: MapAtPoint) -> FormCoefficients:
    """A coefficients: coeffs[alpha][i][j] = g1(A_{h_i} h_j, v_alpha)."""
    mp.require_submersion("the O'Neill tensor A")
    return FormCoefficients(ROLE_A, _a_coefficients(mp))


def _horizontal_identity(
    mp: MapAtPoint, b: FormCoefficients, a_norm_sq: float, name: str
) -> tuple[float, float, float]:
    """(2scal_1^H, 2scal_2^R, residual) of the traced horizontal identity

        2scal_1^H - 2scal_2^R = ||trace B||^2 - ||B||^2 - 3||A||^2.

    2scal_1^H is the source curvature over the horizontal frame and 2scal_2^R
    the target curvature over the range frame, each measured on its own chart,
    so the identity ties both curvature tensors to the forms of nabla F*
    (Gauss for the range, O'Neill's 3|A_X Y|^2 for the horizontal
    distribution). Raises GaussResidualExceeded beyond 1e-5 relative.
    """
    if b.role != ROLE_B or b.r != mp.rank:
        raise DimensionMismatch("coefficients do not belong to this map")
    source = scalar_on_subspace(mp.source_curvature, mp.horizontal_frame)
    target = scalar_on_subspace(mp.target_curvature, mp.range_frame)
    residual = source - target - b.trace_vector_norm_squared() + b.norm_squared() + 3.0 * a_norm_sq
    scale = 1.0 + abs(source) + abs(target) + b.norm_squared() + a_norm_sq
    if abs(residual) > TRACED_IDENTITY_TOL * scale:
        raise GaussResidualExceeded(
            f"{name} Gauss identity residual {residual:.3e} (scale {scale:.3e})"
        )
    return source, target, float(residual)


def gauss_map_scalars(mp: MapAtPoint, b: FormCoefficients) -> ScalarCurvaturePair:
    """Traced Gauss identity of a Riemannian map: left = 2scal^H, right = 2scal^R.

    The identity is the horizontal one above; ||A||^2 is 0 unless the map
    has a kernel.
    """
    a_norm_sq = float(np.sum(_a_coefficients(mp) ** 2))
    left, right, residual = _horizontal_identity(mp, b, a_norm_sq, "map")
    return ScalarCurvaturePair(left, right, mp.rank, residual=residual)


def gauss_submersion_vertical(mp: MapAtPoint, t: FormCoefficients) -> ScalarCurvaturePair:
    """Fiber Gauss identity: left = 2scal^V (fiber intrinsic), right = 2scal_M1^V.

    The fiber is a submanifold with second fundamental form T, so left is
    defined as right + ||trace T||^2 - ||T||^2. Nothing measures the fiber
    curvature independently, so there is no gate and ``residual`` is 0.0.
    """
    right = scalar_on_subspace(mp.source_curvature, mp.vertical_frame)
    left = right + t.trace_vector_norm_squared() - t.norm_squared()
    return ScalarCurvaturePair(float(left), right, mp.vertical_frame.count)


def gauss_submersion_horizontal(mp: MapAtPoint, a: FormCoefficients) -> ScalarCurvaturePair:
    """Horizontal-distribution identity: left = 2scal_H^H (base), right = 2scal^H.

    left is the target curvature over the range frame, measured on the target
    chart; O'Neill's relation adds 3|A_X Y|^2 to every horizontal sectional
    curvature, so left = right + 3||A||^2 is the horizontal identity above,
    gated at 1e-5 relative. A submersion has no range-perp normals, so its B
    is the empty form and is not computed.
    """
    mp.require_submersion("the horizontal Gauss identity")
    no_normals = FormCoefficients(ROLE_B, np.zeros((0, mp.rank, mp.rank)))
    right, left, residual = _horizontal_identity(mp, no_normals, a.norm_squared(), "horizontal")
    return ScalarCurvaturePair(left, right, mp.rank, residual=residual)

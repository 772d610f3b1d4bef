"""Casorati curvature measures of fundamental-form coefficients.

Given coefficients B_alpha (one r x r matrix per normal direction alpha):

    C       = (1/r) sum_alpha ||B_alpha||_F^2
    C^L(n)  = (1/(r-1)) sum_alpha || restriction of B_alpha to n^perp ||_F^2
    delta_C(r-1)     = C/2 + ((r+1)/(2r)) * inf_n C^L(n)
    delta-hat_C(r-1) = 2C  - ((2r-1)/(2r)) * sup_n C^L(n)

The inf/sup run over all hyperplanes of the r-dimensional frame: in closed
form for antisymmetric data, one normal or all-zero data, else by a sphere
solver batched over many starts, whose seeded random starts and scan are
drawn once per (seed, r) and kept for the last few pairs, and which runs
under one np.errstate per solve. One eigh gives a closed form's normals
and the estimates of its proved bounds on the inf and sup: eigenvalue
brackets, each end proved by one Cholesky factorization. The solver's
extrema are certified by such a proof too when the bracket [||B||^2 -
lambda_max(G), ||B||^2 - lambda_min(G) / 2] on the inf and sup, read from
the eigh of the starts, is narrow enough to decide the verdict alone.
Otherwise they are certified against a dense sphere grid, whose leaders the
starts' solver call polishes as a group of their own; its values contract
the stack product with the directions in one einsum pass per slice.
Equality holds exactly on the equality shape: a shared orthonormal basis
in which every B_alpha is diag(a, ..., a, 2a) with no off-diagonal terms.
The paper's proof polynomials P and Q, which certify the bounds per
hyperplane, are test oracles in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

try:  # np.einsum's kernel, without the wrapper's dispatch
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum

from .errors import DegenerateInput, DimensionMismatch
from .framecore import forms_on_frames

ROLE_B = "B-map"
ROLE_T = "T-submersion"
ROLE_A = "A-submersion"
ROLES = (ROLE_B, ROLE_T, ROLE_A)

SYMMETRY_TOL = 1e-9
GRAD_NORM_TOL = 1e-10
ROUNDING_TOL = 1e-14
SOLVER_MAX_ITER = 400
SCAN_PER_DIM = 256
EQUALITY_TOL = 1e-7
CERTIFY_REL_TOL = 1e-4
GRID_PER_DIM = 10_000
GRID_SEED = 1  # the one seed of every certification grid
GRID_SLICE_DOUBLES = 65_536  # most doubles in one slice's product in the grid pass
POLISH_LEADERS = 8
SEEDED_KEPT = 8  # (seed, r) pairs whose random starts and scan stay drawn
LEADER_SAMPLE_STRIDE = 16  # every 16th value places the cuts of _diverse_leaders
# Sphere solver: longest tangent step, least |curvature| (relative to the
# scale 1 + ||B||^2) a step divides by, and the step fraction where halving stops.
NEWTON_MAX_STEP = 0.5
NEWTON_FLOOR = 1e-8
NEWTON_MIN_FRACTION = 1e-12


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_seed(seed) -> int:
    """``seed`` as an int if it is an integer >= 0, else DegenerateInput: never
    None (fresh entropy on every call), a bool or a Generator."""
    if not (_is_int(seed) and seed >= 0):
        raise DegenerateInput(f"seed must be a non-negative integer, not {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class FormCoefficients:
    """Per-normal coefficient matrices of a second-fundamental-form-like tensor.

    ``coeffs`` has shape (normal_count, r, r). Matrices are symmetric for the
    B and T roles and antisymmetric (zero diagonal) for the A role. The input
    must be finite and (anti)symmetric within SYMMETRY_TOL of its scale; the
    stored array is its exactly (anti)symmetrized, read-only copy. Its largest
    |entry| m must keep 8 m^2 size <= sqrt(float max): the engine squares
    gradient norms up to 8 ||B||^2, and ||B||^2 <= m^2 size.
    """

    role: str
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise DegenerateInput(f"unknown role {self.role!r}; know {ROLES}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 3 or c.shape[1] != c.shape[2]:
            raise DimensionMismatch(f"coeffs shape {c.shape}, expected (m, r, r)")
        if not np.all(np.isfinite(c)):
            raise DegenerateInput(f"{self.role} coefficients are not finite")
        sign = -1.0 if self.role == ROLE_A else 1.0
        flipped = sign * c.transpose(0, 2, 1)
        if c.size:
            largest = float(np.abs(c).max())
            if 8.0 * c.size * largest * largest > np.sqrt(np.finfo(float).max):
                raise DegenerateInput(f"{self.role} coefficients too large ({largest:.2e})")
            defect = float(np.abs(c - flipped).max())
            if defect > SYMMETRY_TOL * (1.0 + largest):
                kind = "antisymmetric" if self.role == ROLE_A else "symmetric"
                raise DegenerateInput(f"{self.role} coefficients not {kind} ({defect:.2e})")
        cleaned = 0.5 * (c + flipped)
        cleaned.setflags(write=False)
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def r(self) -> int:
        return self.coeffs.shape[1]

    @property
    def normal_count(self) -> int:
        return self.coeffs.shape[0]

    @cached_property
    def stack(self) -> FormStack:
        """The FormStack of ``coeffs``, built on first use."""
        return form_stack(self.coeffs)

    def norm_squared(self) -> float:
        """||B||^2 = sum over all alpha, i, j of the squared coefficients."""
        return float(self.stack.norm)

    def trace_vector_norm_squared(self) -> float:
        """||trace B||^2 = sum_alpha (sum_i B_alpha[i,i])^2."""
        traces = np.trace(self.coeffs, axis1=1, axis2=2)
        return float(traces @ traces)


@dataclass(frozen=True)
class CasoratiReport:
    r: int
    C: float
    C_L_inf: float
    C_L_sup: float
    inf_normal: np.ndarray
    sup_normal: np.ndarray
    delta_C: float
    delta_hat_C: float
    converged: bool
    starts: int
    iterations: int
    certified: bool | None = None

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "C": self.C,
            "C_L_inf": self.C_L_inf,
            "C_L_sup": self.C_L_sup,
            "inf_normal": [float(x) for x in self.inf_normal],
            "sup_normal": [float(x) for x in self.sup_normal],
            "delta_C": self.delta_C,
            "delta_hat_C": self.delta_hat_C,
            "optimizer": {
                "converged": self.converged,
                "starts": self.starts,
                "iterations": self.iterations,
                "certified": self.certified,
            },
        }


@dataclass(frozen=True)
class EqualityDiagnosis:
    is_equality_shape: bool
    max_offdiag: float
    max_umbilic_defect: float

    def to_json(self) -> dict:
        return {
            "is_equality_shape": self.is_equality_shape,
            "max_offdiag": self.max_offdiag,
            "max_umbilic_defect": self.max_umbilic_defect,
        }


def casorati_C(coeffs: FormCoefficients) -> float:
    """C = (1/r) ||B||^2."""
    if coeffs.r < 2:
        raise DimensionMismatch("Casorati curvature needs r >= 2")
    return coeffs.norm_squared() / coeffs.r


def delta_pair(c_val, c_l_inf, c_l_sup, r: int):
    """(delta_C, delta_hat_C) from C and the inf and sup of C^L; elementwise on arrays."""
    delta = 0.5 * c_val + (r + 1.0) / (2.0 * r) * c_l_inf
    delta_hat = 2.0 * c_val - (2.0 * r - 1.0) / (2.0 * r) * c_l_sup
    return delta, delta_hat


class FormStack(NamedTuple):
    """Coefficient matrices B, (..., s, r, r), with ||B||^2, G and their stacked forms.

    ``gram`` is G = sum_alpha (B_alpha^T B_alpha + B_alpha B_alpha^T), and
    ``forms`` the stack [G; S_1; ...; S_s], (..., (s + 1) r, r), with S_alpha =
    B_alpha + B_alpha^T; antisymmetric data has S = 0 exactly, and its stack
    is G alone. ``sym`` views the S rows of ``forms`` as (..., s, r, r), with
    s = 0 for G alone. Every hyperplane quantity derives from the stack: with
    q_alpha = n^T S_alpha n / 2 and u_alpha = S_alpha n, for any B,

        restricted_sum = ||B||^2 - n^T G n + sum_alpha q_alpha^2
        gradient       = -2 G n + 2 sum_alpha q_alpha u_alpha
        Hessian        = -2 G + 2 sum_alpha (u_alpha u_alpha^T + q_alpha S_alpha).
    """

    mats: np.ndarray
    norm: np.ndarray
    gram: np.ndarray
    forms: np.ndarray
    sym: np.ndarray


def form_stack(mats) -> FormStack:
    """The FormStack of (..., s, r, r) coefficient matrices; a FormStack passes
    through, so every function here takes either."""
    if isinstance(mats, FormStack):
        return mats
    mats = np.asarray(mats, dtype=float)
    r = mats.shape[-1]
    flat = mats.reshape(mats.shape[:-3] + (-1, r))
    flat_t = np.swapaxes(mats, -1, -2).reshape(flat.shape)
    gram = np.swapaxes(flat, -1, -2) @ flat + np.swapaxes(flat_t, -1, -2) @ flat_t
    sym = flat + flat_t
    forms = np.concatenate([gram, sym], axis=-2) if sym.any() else gram
    sym = forms[..., r:, :].reshape(forms.shape[:-2] + (forms.shape[-2] // r - 1, r, r))
    return FormStack(mats, np.sum(mats * mats, axis=(-3, -2, -1)), gram, forms, sym)


def restricted_sum(mats, normals: np.ndarray) -> np.ndarray:
    """sum_alpha ||(I - nn^T) B_alpha (I - nn^T)||_F^2 at every unit normal n.

    ``mats`` is (..., s, r, r) or its FormStack, and ``normals`` is (..., k,
    r) with the same leading shape; the result is (..., k). One matrix
    product of the stack with the normals, contracted with the normals over
    r in one einsum pass, gives n^T G n and every n^T S_alpha n. For k >= 2
    that contraction adds the r products in order, as multiplying and then
    summing over r did (``tests/reference.py`` keeps that formula); a single
    normal takes einsum's contiguous kernel, which may round differently,
    as the matrix product already does at k = 1.
    """
    stack = form_stack(mats)
    (m, r), k = stack.forms.shape[-2:], normals.shape[-2]
    cols = np.swapaxes(normals, -1, -2)
    forms = stack.forms @ cols
    forms = forms.reshape(forms.shape[:-2] + (m // r, r, k))
    forms = c_einsum("...ark,...rk->...ak", forms, cols)  # n^T G n, then n^T S_alpha n
    q = 0.5 * forms[..., 1:, :]
    return stack.norm[..., None] - forms[..., 0, :] + c_einsum("...ak,...ak->...k", q, q)


def _half_derivatives(mats, normals: np.ndarray):
    """restricted_sum with half its gradient and half its Hessian; doubling
    is exact, so a caller may fold the 2 into a factor of its own. The
    solver calls this on every iteration, so it calls einsum's kernel
    without its wrapper, and one contraction of the stack product with the
    normals gives n^T G n and every n^T S_alpha n."""
    stack = form_stack(mats)
    s, r = stack.sym.shape[-3:-1]
    prod = c_einsum("...mj,...kj->...km", stack.forms, normals)
    prod = prod.reshape(prod.shape[:-1] + (s + 1, r))
    gn, u = prod[..., 0, :], prod[..., 1:, :]  # G n and u_alpha = S_alpha n
    quad = c_einsum("...kai,...ki->...ka", prod, normals)  # n^T G n, then n^T S_alpha n
    q = 0.5 * quad[..., 1:]
    value = stack.norm[..., None] - quad[..., 0] + c_einsum("...ka,...ka->...k", q, q)
    half_grad = c_einsum("...ka,...kai->...ki", q, u) - gn
    hess = c_einsum("...kai,...kaj->...kij", u, u) + c_einsum("...ka,...aij->...kij", q, stack.sym)
    return value, half_grad, hess - stack.gram[..., None, :, :]


def closed_form(mats, antisymmetric: bool, certify: bool = False):
    """(minimizing normal, maximizing normal, bounds) of f = restricted_sum,
    exact, batched over (..., s, r, r) or their FormStack; None for symmetric
    data with s >= 2. One eigh gives the normals and, if ``certify``, the
    estimates of ``_proved_lower_bounds``: ``bounds`` is then (a lower bound
    on inf f, an upper bound on sup f, proved), else None; they prove
    nothing where ``proved`` is False. N = ||B||^2; [a, b] a proved bracket.
    - Antisymmetric A, any s: n^T A n = 0, so f = N - n^T G n, extremal at
      the top and bottom eigenvectors of G = 2 sum A^T A; inf f >= N - b and
      sup f <= N - a for [a, b] bracketing G. So is symmetric data with no S
      rows in its stack (s = 0, or all coefficients 0 in every set of a
      batch), where f = 0.
    - One symmetric B: with w_i = n_i^2 in B's eigenbasis, x = lambda.w =
      n^T B n and y = lambda^2.w = n^T B^2 n, f = N - 2y + x^2. On the
      simplex, (x, y) fills the hull of the points (lambda_i, lambda_i^2),
      and f falls as y grows. So the sup sits at the vertex of least
      lambda_i^2, and as x^2 <= y, sup f <= N - a_G / 2 for a_G <
      lambda_min(G), G = 2 B^2. The inf sits on the chord from lambda_min to
      lambda_max, at weight lambda_max / (lambda_max - lambda_min) on
      lambda_max, clipped to [0, 1]; for [a, b] bracketing B, (lambda -
      a)(lambda - b) <= 0 gives y <= (a + b) x - ab, so inf f >= N - a^2 -
      b^2 if a <= 0 <= b, else N - max(a^2, b^2).
    The bounds hold for the stored G and B; forming them rounds at r s eps
    ||B||^2, far below CERTIFY_REL_TOL.
    """
    stack = form_stack(mats)
    bounds = None
    if antisymmetric or stack.sym.shape[-3] == 0:  # no S rows: every S_alpha is 0
        lam, vecs = np.linalg.eigh(stack.gram)
        n_inf, n_sup = vecs[..., -1], vecs[..., 0]
        if certify:
            a, b, proved = _gram_bracket(stack.gram, lam)
            bounds = stack.norm - b, stack.norm - a, proved
        return n_inf, n_sup, bounds
    if stack.mats.shape[-3] != 1:
        return None
    b_mat = stack.mats[..., 0, :, :]
    lam, vecs = np.linalg.eigh(b_mat)
    lo, hi = lam[..., 0], lam[..., -1]
    gap = hi - lo
    t = np.clip(np.divide(hi, gap, out=np.zeros_like(gap), where=gap > 0), 0.0, 1.0)
    n_inf = np.sqrt(1.0 - t)[..., None] * vecs[..., 0] + np.sqrt(t)[..., None] * vecs[..., -1]
    squares = lam * lam
    n_sup = np.take_along_axis(vecs, np.argmin(squares, axis=-1)[..., None, None], axis=-1)[..., 0]
    if certify:
        low, ok = _proved_lower_bounds(
            np.stack([stack.gram, b_mat, -b_mat], axis=-3),
            np.stack([2.0 * np.min(squares, axis=-1), lo, -hi], axis=-1),
        )
        a, b = low[..., 1], -low[..., 2]
        chord = np.where((a <= 0.0) & (b >= 0.0), a * a + b * b, np.maximum(a * a, b * b))
        bounds = stack.norm - chord, stack.norm - 0.5 * low[..., 0], ok.all(axis=-1)
    return n_inf, n_sup, bounds


def _gram_bracket(gram: np.ndarray, lam: np.ndarray):
    """(a, b, proved): a < lambda_min(G) and b > lambda_max(G) wherever
    ``proved`` is True, per G of a (..., r, r) stack, from the ascending
    eigenvalues ``lam`` of an eigh of G; both ends proved by
    ``_proved_lower_bounds`` on [G, -G]."""
    low, ok = _proved_lower_bounds(
        np.stack([gram, -gram], axis=-3), np.stack([lam[..., 0], -lam[..., -1]], axis=-1)
    )
    return low[..., 0], -low[..., 1], ok.all(axis=-1)


def _solver_bracket(stack: FormStack, lam: np.ndarray):
    """(lower bound on inf f, upper bound on sup f, proved) of f = restricted_sum
    on symmetric data, any s, from the ascending eigenvalues ``lam`` of G.

    With N = ||B||^2 and q_alpha = n^T B_alpha n: the quartic term is >= 0,
    so inf f >= N - lambda_max(G); and q_alpha^2 <= ||B_alpha n||^2, whose
    sum is n^T G n / 2 as G = 2 sum B_alpha^2, so f <= N - n^T G n / 2 and
    sup f <= N - lambda_min(G) / 2. For [a, b] bracketing G
    (``_gram_bracket``), the bounds are N - b and N - a / 2; they prove
    nothing where ``proved`` is False.
    """
    a, b, proved = _gram_bracket(stack.gram, lam)
    return stack.norm - b, stack.norm - 0.5 * a, proved


def _proved_lower_bounds(mats: np.ndarray, least: np.ndarray):
    """(a, proved): per symmetric matrix S of a (..., r, r) stack, given an
    estimate ``least`` of its least eigenvalue, a bound a that
    lambda_min(S) > a wherever ``proved`` is True.

    a = least - w, with the bracket half-width w = 8 r (r + 2) eps (1 +
    ||S||_F), and the proof is one Cholesky factorization of M = S - (a + c) I,
    with c = 2 (r + 2) eps (|trace S - r a| + |a|). When floating-point
    Cholesky of M runs to completion, R^T R = M + E with |E| <= gamma_{r+1}
    |R^T| |R| (Higham, Accuracy and Stability of Numerical Algorithms, Thm
    10.3), so ||E||_2 <= gamma_{r+1} ||R||_F^2, about (r + 1) eps trace M.
    c covers that, the rounding of forming M and the rounding of a + c, so
    success proves S - a I positive definite (Rump, Acta Numerica 2010).
    The soundness rests on c alone; w only decides whether the factorization
    succeeds. It must exceed the error of ``least`` (a few r eps ||S||_2 for
    LAPACK's eigh) plus c, which is at most about 4 r (r + 2) eps ||S||_2.
    Underflow is not counted; the floor of 1 in w keeps M far from it.
    """
    r = mats.shape[-1]
    eps = np.finfo(float).eps
    width = 8.0 * r * (r + 2) * eps * (1.0 + np.sqrt(np.sum(mats * mats, axis=(-2, -1))))
    bound = least - width
    trace = np.trace(mats, axis1=-2, axis2=-1)
    shift = bound + 2.0 * (r + 2) * eps * (np.abs(trace - r * bound) + np.abs(bound))
    factored = mats - shift[..., None, None] * _identity(r)
    with np.errstate(all="ignore"):
        proved = _cholesky_succeeds(factored.reshape(-1, r, r)).reshape(bound.shape)
    return bound, proved


@cache
def _identity(r: int) -> np.ndarray:
    """The read-only r x r identity that every solver step shares."""
    eye = np.eye(r)
    eye.setflags(write=False)
    return eye


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of a float (k, r) array, the same sqrt of
    add.reduce, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _tangent_derivatives(mats, normals: np.ndarray, signs: np.ndarray):
    """Signed objective, its gradient projected onto the sphere's tangent space,
    and its signed Hessian H - (n . grad) I, which P = I - n n^T turns into
    the Riemannian Hessian P (H - (n . grad) I) P. The 2 of the derivatives
    and the sign of each row are one exact factor 2 sign."""
    value, grad, hess = _half_derivatives(mats, normals)
    factor = 2.0 * signs
    grad = factor[:, None] * grad
    radial = np.add.reduce(grad * normals, axis=1)
    hess = factor[:, None, None] * hess - radial[:, None, None] * _identity(normals.shape[1])
    return signs * value, grad - radial[:, None] * normals, hess


def _cholesky_succeeds(mats: np.ndarray) -> np.ndarray:
    """Per row of a (k, r, r) stack: whether np.linalg.cholesky of that row
    alone succeeds.

    np.linalg.cholesky calls the ``cholesky_lo`` gufunc and raises for the
    whole stack when any row fails. The gufunc itself fills a failed row
    with NaN and goes on to the next, while a factor that succeeds has the
    (0, 0) entry sqrt(m_00) > 0; a NaN there marks exactly the rows that
    np.linalg.cholesky refuses alone. The floating-point flags that the
    wrapper reads are the caller's to ignore, under np.errstate(all="ignore").
    """
    return ~np.isnan(_umath_linalg.cholesky_lo(mats)[:, 0, 0])


def _newton_directions(
    normals: np.ndarray, pg: np.ndarray, hess: np.ndarray, scale: float, floor_eye: np.ndarray
):
    """Tangent steps -sum_i v_i w_i over the eigenpairs (lambda_i, v_i) of each
    Riemannian Hessian P hess P, shortened to at most NEWTON_MAX_STEP.

    ``floor_eye`` is floor I, with floor = NEWTON_FLOOR scale, formed once
    per set by the caller. w_i = (v_i . pg) / max(|lambda_i|, floor), so
    every component descends, at saddles too; along curvature below -floor
    the quadratic model has no minimum, and w_i is NEWTON_MAX_STEP with the
    sign of v_i . pg, which leaves a maximum in a few steps where
    |lambda_i| would only double the distance to it. The normal n is an eigenvector of P hess P with
    eigenvalue 0; adding scale n n^T moves it out of the way, so only
    tangent eigenvectors take part. On a row whose matrix has every
    eigenvalue above the floor that sum is the plain Newton step -M^-1 pg,
    solved without an eigendecomposition. A Cholesky factorization of M -
    floor I, row by row, proves a row definite; eigh runs on the rows where
    it fails only. The two tests can only disagree on a row whose smallest
    eigenvalue lies within rounding of the floor, where the two steps agree
    to rounding. Each row's step is the step of a batch of that row alone.
    The ``cholesky_lo``, ``solve1`` and ``eigh_lo`` gufuncs behind
    np.linalg run directly, and the floating-point flags they raise are the
    caller's to ignore, under np.errstate(all="ignore"), as the solver does
    once per solve. In place of the wrappers' LinAlgError on a NaN, a step
    that is not finite raises LinAlgError.
    """
    outer = c_einsum("ki,kj->kij", normals, normals)
    proj = _identity(normals.shape[1]) - outer
    mats = proj @ hess @ proj + scale * outer
    floor = NEWTON_FLOOR * scale
    definite = _cholesky_succeeds(mats - floor_eye)
    if definite.all():
        step = -_umath_linalg.solve1(mats, pg)
    else:
        step = np.empty_like(pg)
        if definite.any():
            step[definite] = -_umath_linalg.solve1(mats[definite], pg[definite])
        rest = ~definite
        lam, vecs = _umath_linalg.eigh_lo(mats[rest])
        coords = c_einsum("kij,ki->kj", vecs, pg[rest])
        weights = np.where(
            lam < -floor, np.sign(coords) * NEWTON_MAX_STEP, coords / np.maximum(np.abs(lam), floor)
        )
        step[rest] = -c_einsum("kij,kj->ki", vecs, weights)
    length = _row_norms(step)[:, None]
    if not math.isfinite(length.sum()):
        raise np.linalg.LinAlgError("Newton step is not finite")
    return step * np.minimum(1.0, NEWTON_MAX_STEP / np.maximum(length, NEWTON_MAX_STEP))


def _sphere_extrema(
    mats, *problems: tuple[np.ndarray, np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(best minimizer, best maximizer, iterations summed over starts) per problem, in one batch.

    Each problem is a pair (low starts, high starts); every start carries the
    label of its problem and side, and each result is picked from the rows of
    its own label only. The derivatives of a row do not depend on its batch,
    so the problems share the batch and nothing else.
    Safeguarded Riemannian Newton on the unit sphere (Absil, Mahony and
    Sepulchre, 2008), minimizing from the low starts and maximizing from the
    high ones. Each step evaluates the value, gradient and Hessian once at
    the candidates; ``_newton_directions`` turns them into a descent step of
    at most NEWTON_MAX_STEP, retracted to the sphere by normalizing. A step that
    fails the Armijo test is halved; an accepted one resets to the full
    Newton step at the new point. A start stops once its projected gradient
    is within GRAD_NORM_TOL of the scale or its step fraction falls to
    NEWTON_MIN_FRACTION. The Armijo test forgives rises below ROUNDING_TOL
    of the scale: near an optimum the objective's rounding outgrows the
    predicted decrease long before the gradient reaches its tolerance.
    The whole solve runs under one errstate, for the LAPACK gufuncs of
    ``_newton_directions``; the step fractions are None while every running
    start takes its full step, which is the step times 1 exactly.
    """
    sides = [starts for pair in problems for starts in pair]
    labels = np.repeat(np.arange(len(sides)), [len(starts) for starts in sides])
    signs, owners = np.where(labels % 2 == 0, 1.0, -1.0), labels // 2
    n = np.vstack(sides)
    n = n / _row_norms(n)[:, None]
    stack = form_stack(mats)
    scale = 1.0 + float(stack.norm)
    tol, forgiven = GRAD_NORM_TOL * scale, ROUNDING_TOL * scale
    floor_eye = NEWTON_FLOOR * scale * _identity(n.shape[1])
    steps = np.zeros(len(n), dtype=int)  # a start's iterations, written when it stops
    with np.errstate(all="ignore"):
        f, pg, hess = _tangent_derivatives(stack, n, signs)
        # The running starts: their indices, points, values, gradients, steps and step fractions.
        idx = np.flatnonzero(_row_norms(pg) > tol)
        x, fx, gx, sx = n[idx], f[idx], pg[idx], signs[idx]
        step = _newton_directions(x, gx, hess[idx], scale, floor_eye) if idx.size else gx
        frac = None
        for done in range(1, SOLVER_MAX_ITER + 1):
            if idx.size == 0:
                break
            cand = x + step if frac is None else x + frac[:, None] * step
            cand /= _row_norms(cand)[:, None]
            fc, pgc, hc = _tangent_derivatives(stack, cand, sx)
            armijo = 1e-4 if frac is None else 1e-4 * frac
            ok = fc <= fx + armijo * np.add.reduce(gx * step, axis=1) + forgiven
            if ok.all():
                x, fx, gx = cand, fc, pgc
                step = _newton_directions(cand, pgc, hc, scale, floor_eye)
                frac = None
            else:
                if ok.any():
                    x[ok], fx[ok], gx[ok] = cand[ok], fc[ok], pgc[ok]
                    step[ok] = _newton_directions(cand[ok], pgc[ok], hc[ok], scale, floor_eye)
                frac = np.where(ok, 1.0, 0.5 if frac is None else 0.5 * frac)
            keep = _row_norms(gx) > tol
            if frac is not None:
                keep &= frac > NEWTON_MIN_FRACTION
            if not keep.all():
                n[idx], f[idx], steps[idx] = x, fx, done
                idx, x, fx, gx, sx, step = (a[keep] for a in (idx, x, fx, gx, sx, step))
                frac = None if frac is None else frac[keep]
    n[idx], f[idx], steps[idx] = x, fx, SOLVER_MAX_ITER
    best = [n[np.argmin(np.where(labels == label, f, np.inf))] for label in range(len(sides))]
    row_steps = np.bincount(owners, weights=steps, minlength=len(problems))
    return [(best[2 * i], best[2 * i + 1], int(row_steps[i])) for i in range(len(problems))]


def _diverse_leaders(dirs: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Up to k rows of dirs, lowest value first, none within ~18 degrees of an earlier pick.

    Picks come from a prefix of the rows in (value, index) order, of about
    32 k rows, then 128 k, and so on. Such a prefix is every row of value <=
    t, with t read from one sorted sample of every LEADER_SAMPLE_STRIDE-th
    value: the sample's (size / stride)-th value. When that gathers more than
    4 times the wanted size (ties, flat data, a skewed sample), the prefix is
    cut exactly at the size-th value, and ties at that cut go to the lower
    indices, so a subset stays within 4 times its size, however flat the
    values. The picks equal a greedy pass over all rows: each pick is the
    argmin over the subset, in index order, and its cap is masked to +inf.
    While the subset yields fewer than k picks and rows remain, it widens;
    the picks stay, and only the rows new to the subset are screened against
    them. A +inf value is never picked.
    """
    values = np.asarray(values, dtype=float)
    sample = np.sort(values[::LEADER_SAMPLE_STRIDE])
    picked: list[np.ndarray] = []
    seen = np.zeros(len(values), dtype=bool)
    size = 32 * k
    while True:
        if size < len(values):
            rows = np.flatnonzero(values <= sample[size // LEADER_SAMPLE_STRIDE - 1])
            if len(rows) > 4 * size:
                cut = np.partition(values, size - 1)[size - 1]
                rows = np.flatnonzero(values <= cut)
                if len(rows) > size:  # ties at the cut: keep those of the lowest indices
                    below = np.flatnonzero(values < cut)
                    ties = np.flatnonzero(values == cut)[: size - len(below)]
                    rows = np.sort(np.concatenate((below, ties)))
        else:
            rows = np.arange(len(values))
        rows = rows[~seen[rows]]  # only the rows new to the subset, in index order
        seen[rows] = True
        candidates, masked = dirs[rows], values[rows]
        for pick in picked:
            masked[np.abs(candidates @ pick) > 0.95] = np.inf
        while len(picked) < k and masked.size:
            i = masked.argmin()
            if masked[i] == np.inf:
                break
            picked.append(candidates[i])
            masked[np.abs(candidates @ candidates[i]) > 0.95] = np.inf
        if len(picked) == k or size >= len(values):
            return np.array(picked)
        size *= 4


@lru_cache(maxsize=SEEDED_KEPT)
def _seeded_directions(seed: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only unit (random starts, scan) of (seed, r): r directions,
    then SCAN_PER_DIM * r, drawn in that order from default_rng(seed), and
    kept for the SEEDED_KEPT (seed, r) pairs used last: (SCAN_PER_DIM + 1)
    r^2 doubles each, 74 KB at r = 6."""
    rng = np.random.default_rng(seed)
    randoms = rng.standard_normal((r, r))
    randoms /= np.linalg.norm(randoms, axis=1, keepdims=True)
    scan = rng.standard_normal((SCAN_PER_DIM * r, r))
    scan /= np.linalg.norm(scan, axis=1, keepdims=True)
    randoms.setflags(write=False)
    scan.setflags(write=False)
    return randoms, scan


def _optimizer_starts(mats, r: int, seed: int):
    """((low starts, high starts), eigenvalues of G), 2r + 8 starts each: the
    eigenvectors of G, r random directions, and the 8 basin-diverse leaders
    of that side's own tail of a coarse sphere scan, the lowest values for
    the minimizer and the highest for the maximizer; ``mats`` as for
    restricted_sum. The eigenvalues, ascending, come from the same eigh as
    the eigenvectors. The random directions and the scan depend on (seed, r)
    alone (``_seeded_directions``)."""
    stack = form_stack(mats)
    lam, eigvecs = np.linalg.eigh(stack.gram)
    randoms, scan = _seeded_directions(seed, r)
    total = restricted_sum(stack, scan)
    shared = np.vstack([eigvecs.T, randoms])
    starts = tuple(np.vstack([shared, _diverse_leaders(scan, v, 8)]) for v in (total, -total))
    return starts, lam


def _deciding_bracket(stack: FormStack, lam: np.ndarray, r: int):
    """``_solver_bracket`` of symmetric data when it decides the certificate,
    else None. It decides when every value of [low, high] / (r - 1) lies
    within CERTIFY_REL_TOL of both ends (``_decides``): first on the
    estimates N - lambda_max(G) and N - lambda_min(G) / 2, which compares
    numbers only, then on the proved ends, which must both be proved."""
    norm = float(stack.norm)
    if not _decides((norm - lam[-1]) / (r - 1), (norm - 0.5 * lam[0]) / (r - 1)):
        return None
    low, high, proved = _solver_bracket(stack, lam)
    if not (proved and _decides(float(low) / (r - 1), float(high) / (r - 1))):
        return None
    return low, high, proved


def delta_casorati(
    coeffs: FormCoefficients, seed: int = 0, certify: bool = False
) -> CasoratiReport:
    """Full report: C, inf/sup of C^L over all hyperplanes, delta values.

    Closed forms serve the A role and symmetric data with one normal, none,
    or all coefficients 0, with 0 starts and 0 iterations. Otherwise the
    sphere solver minimizes and maximizes from 2r + 8 starts per side, which
    ``starts`` counts: the eigenvectors of G, r random directions, and the 8
    leaders of that side's own tail of a coarse sphere scan
    (``_optimizer_starts``). ``seed`` must be an integer >= 0, else
    DegenerateInput; the random directions and the scan depend on (seed, r)
    alone and are drawn once for the SEEDED_KEPT pairs used last. Each
    Newton iteration calls the LAPACK gufuncs behind np.linalg directly
    (``_newton_directions``).
    ``certify=True`` on a closed form proves bounds on the inf and sup,
    with no grid (``closed_form``); ``certified`` is True when both were
    proved and each lies within CERTIFY_REL_TOL of the reported value, which
    stays the closed form's. On the solver's extrema (symmetric data, s >=
    2) the same rule holds, with no grid, when ``_solver_bracket`` proves
    both ends of a bracket so narrow that every value in it certifies
    against both (``_deciding_bracket``, read from the eigenvalues of the
    starts' eigh); the report keeps the solver's values. Otherwise the
    starts' solver call polishes the leaders of ``grid_extrema`` as a group
    of their own; ``certified`` is True when the two agree within
    CERTIFY_REL_TOL, and a better grid extremum is reported with its normal.
    ``converged``: the projected gradient at each reported normal is within
    GRAD_NORM_TOL.
    """
    seed = _checked_seed(seed)
    r = coeffs.r
    if r < 3:
        raise DimensionMismatch("delta-Casorati curvatures need r >= 3")
    stack = coeffs.stack
    c_val = casorati_C(coeffs)

    closed = closed_form(stack, coeffs.role == ROLE_A, certify)
    if closed is not None:
        n_inf, n_sup, bounds = closed
        starts, iterations = 0, 0
    else:
        start_dirs, lam = _optimizer_starts(stack, r, seed)
        starts = max(map(len, start_dirs))
        bounds = _deciding_bracket(stack, lam, r) if certify else None
        grid = [grid_extrema(coeffs)] if certify and bounds is None else []
        (n_inf, n_sup, iterations), *grid = _sphere_extrema(stack, start_dirs, *grid)
    c_l_inf, c_l_sup = (float(v) for v in restricted_sum(stack, np.stack([n_inf, n_sup])) / (r - 1))

    certified: bool | None = None
    if bounds is not None:
        low, high, proved = bounds
        certified = (
            bool(proved)
            and _certifies(c_l_inf, float(low) / (r - 1))
            and _certifies(c_l_sup, float(high) / (r - 1))
        )
    elif certify:
        ((grid_n_inf, grid_n_sup, _),) = grid
        grid_inf, grid_sup = (
            float(v) for v in restricted_sum(stack, np.stack([grid_n_inf, grid_n_sup])) / (r - 1)
        )
        certified = _certifies(c_l_inf, grid_inf) and _certifies(c_l_sup, grid_sup)
        # The grid may genuinely beat the multi-start; keep the better value.
        if grid_inf < c_l_inf:
            c_l_inf, n_inf = grid_inf, grid_n_inf
        if grid_sup > c_l_sup:
            c_l_sup, n_sup = grid_sup, grid_n_sup

    _, pg, _ = _tangent_derivatives(stack, np.stack([n_inf, n_sup]), np.ones(2))
    stationary = np.linalg.norm(pg, axis=1) <= GRAD_NORM_TOL * (1.0 + coeffs.norm_squared())
    delta_c, delta_hat_c = delta_pair(c_val, c_l_inf, c_l_sup, r)
    return CasoratiReport(
        r=r,
        C=c_val,
        C_L_inf=c_l_inf,
        C_L_sup=c_l_sup,
        inf_normal=n_inf,
        sup_normal=n_sup,
        delta_C=delta_c,
        delta_hat_C=delta_hat_c,
        converged=bool(stationary.all()),
        starts=starts,
        iterations=iterations,
        certified=certified,
    )


def _certifies(value: float, reference: float) -> bool:
    """Whether ``value`` lies within CERTIFY_REL_TOL (1 + |reference|) of ``reference``."""
    return bool(abs(value - reference) <= CERTIFY_REL_TOL * (1.0 + abs(reference)))


def _decides(low: float, high: float) -> bool:
    """Whether every value of [low, high] ``_certifies`` against both ends."""
    return _certifies(high, low) and _certifies(low, high)


_GRIDS: dict[int, np.ndarray] = {}


def _grid_directions(r: int) -> np.ndarray:
    """The read-only unit grid directions of r, drawn from GRID_SEED on first use.

    The draw is row by row, (GRID_PER_DIM * r + r, r); it is stored as its
    C-contiguous (r, GRID_PER_DIM * r + r) transpose, and the (N, r) view of
    that is returned. A slice of consecutive directions is then r contiguous
    runs, which reach the matrix product of ``_grid_values`` as one BLAS
    operand with no copy. The grid ignores the caller's seed; at seed GRID_SEED
    the optimizer's starts share its stream, which weakens no check: the grid's
    optimum comes from its own leader rows only, and ``certified`` fails
    whenever it and the optimizer differ by more than CERTIFY_REL_TOL.
    """
    if r not in _GRIDS:
        rng = np.random.default_rng(GRID_SEED)
        columns = np.empty((r, GRID_PER_DIM * r + r))
        dirs = columns.T
        dirs[:-r], dirs[-r:] = rng.standard_normal((GRID_PER_DIM * r, r)), np.eye(r)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        columns.setflags(write=False)
        _GRIDS[r] = columns.T  # a view of the read-only columns is read-only too
    return _GRIDS[r]


def _grid_values(mats, dirs: np.ndarray) -> np.ndarray:
    """``restricted_sum`` at every row of ``dirs``, one slice of directions at a time.

    A slice holds as many directions as keep the product of the stack with
    it within GRID_SLICE_DOUBLES, a multiple of 8, and the last len(dirs) % 8
    directions form one more. On such slices OpenBLAS rounds the
    column-major grid as it rounds a row-major copy (seen up to r = 7), so
    the storage does not show.
    """
    stack = form_stack(mats)
    rows = max(8, GRID_SLICE_DOUBLES // len(stack.forms) // 8 * 8)
    whole = len(dirs) - len(dirs) % 8
    cuts = [*range(0, whole, rows), whole, len(dirs)]
    values = np.empty(len(dirs))
    for lo, hi in zip(cuts, cuts[1:]):
        values[lo:hi] = restricted_sum(stack, dirs[lo:hi])
    return values


def grid_extrema(coeffs: FormCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """(low leaders, high leaders): the POLISH_LEADERS best basin-diverse
    directions on each side (fewer can all sit in wrong basins) of the
    certification grid, GRID_PER_DIM random directions per dimension plus
    the axes, drawn once per r by ``_grid_directions``."""
    dirs = _grid_directions(coeffs.r)
    total = _grid_values(coeffs.stack, dirs)
    return tuple(_diverse_leaders(dirs, v, POLISH_LEADERS) for v in (total, -total))


def diagnose_equality(coeffs: FormCoefficients) -> EqualityDiagnosis:
    """Search a shared orthonormal basis realizing the equality shape.

    Equality shape: all off-diagonals vanish and every diagonal reads
    (a, ..., a, 2a) with a shared distinguished axis, within EQUALITY_TOL
    relative. For the antisymmetric role the shape forces the tensor to
    vanish identically, so the diagnosis reduces to max |coeffs| within it.
    """
    r = coeffs.r
    if r < 3:
        raise DimensionMismatch("equality diagnosis needs r >= 3")
    maxabs = float(np.abs(coeffs.coeffs).max()) if coeffs.coeffs.size else 0.0
    scaled_tol = EQUALITY_TOL * (1.0 + maxabs)

    if coeffs.role == ROLE_A:
        return EqualityDiagnosis(
            is_equality_shape=maxabs <= scaled_tol,
            max_offdiag=maxabs,
            max_umbilic_defect=0.0,
        )

    # Joint diagonalization attempt: eigenbasis of G = 2 sum_alpha B_alpha^2.
    _, v = np.linalg.eigh(coeffs.stack.gram)
    rotated = forms_on_frames(coeffs.coeffs, v.T, v.T)
    max_offdiag = float(np.abs(rotated * (1.0 - np.eye(r))).max(initial=0.0))
    # Per distinguished axis m and alpha, the fit a = (sum_{i != m} d_i + 2 d_m)
    # / (r + 3) and the largest deviation of the diagonal d from (a, ..., 2a, ..., a).
    diags = np.einsum("aii->ai", rotated)
    fits = (diags.sum(axis=1, keepdims=True) + diags) / (r + 3.0)  # [alpha, m]
    shapes = fits[:, :, None] * (1.0 + np.eye(r))  # [alpha, m, i]
    best_defect = float(np.abs(diags[:, None, :] - shapes).max(axis=(0, 2), initial=0.0).min())

    return EqualityDiagnosis(
        is_equality_shape=max_offdiag <= scaled_tol and best_defect <= scaled_tol,
        max_offdiag=max_offdiag,
        max_umbilic_defect=best_defect,
    )


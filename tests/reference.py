"""Independent reference implementations and oracles that only the tests read.

Each function recomputes a quantity of the package by a different route (or
from an independently transcribed table), so that a slip in either copy shows
up as a disagreement. The hyperplane proof polynomials and the full model
curvature tensor are oracles of the paper's arguments that the package never
evaluates itself: the verifier reads only their traced forms.
"""

from dataclasses import dataclass

import numpy as np

from casorati import curvature, measures
from casorati.curvature import ChartMetric, CurvatureTensor, riemann_at
from casorati.errors import (
    DegenerateInput,
    DimensionMismatch,
    HypothesisViolated,
    RankDrop,
    ValidationFailed,
)
from casorati.framecore import Frame, InnerProduct, StructureOperator, gram_schmidt
from casorati.measures import (
    CERTIFY_REL_TOL,
    GRAD_NORM_TOL,
    GRID_PER_DIM,
    NEWTON_FLOOR,
    NEWTON_MAX_STEP,
    POLISH_LEADERS,
    ROLE_A,
    ROLE_T,
    ROUNDING_TOL,
    SOLVER_MAX_ITER,
    CasoratiReport,
    FormCoefficients,
    casorati_C,
    delta_pair,
    form_stack,
    restricted_sum,
)
from casorati.rmaps import (
    COMPLEX_STEP,
    FD_STEP,
    ISOMETRY_TOL,
    KERNEL_THRESHOLD,
    MapAtPoint,
    SmoothMap,
)
from casorati.spaceforms import CONTACT_FAMILIES, NamedFamily, SpaceFormSpec, family_constants
from casorati.verify import INVARIANCE_TOL, XI_POSITION_TOL, model_reference_part

UNIT_NORMAL_TOL = 1e-12
# Chart curvature against the space-form models: the largest residual measured
# is 4.3e-9 (criterion 5's S4 chart), the catalog entries reach 9.3e-10, so
# this bound leaves 23x headroom; a 1e-4 slip in the curvature formula's
# coefficients gives residuals near 4e-4.
CHART_VALIDATION_TOL = 1e-7


# --------------------------------------------------------------------------
# frames and structures
# --------------------------------------------------------------------------


def orthonormality_defect(frame: Frame) -> float:
    """max |<e_i, e_j> - delta_ij| over the frame."""
    if frame.count == 0:
        return 0.0
    gram = frame.vectors @ frame.inner.gram @ frame.vectors.T
    return float(np.abs(gram - np.eye(frame.count)).max())


def metric_compatibility_defect(op: StructureOperator, inner: InnerProduct) -> float:
    """Max defect of g(op X, op Y) = g(X, Y) [- eta(X) eta(Y) for contact]."""
    if op.kind == "trivial":
        return 0.0
    g = inner.gram
    lhs = op.matrix.T @ g @ op.matrix
    rhs = g.copy()
    if op.kind == "almost-contact":
        rhs = rhs - np.outer(op.eta, op.eta)
    return float(np.abs(lhs - rhs).max())


def _g_norm(u: np.ndarray, g: np.ndarray) -> float:
    return float(np.sqrt(max(u @ g @ u, 0.0)))


def _project(frame: Frame, v: np.ndarray) -> np.ndarray:
    """The g-orthogonal projection of v onto the frame's span."""
    return (frame.vectors @ frame.inner.gram @ v) @ frame.vectors


def invariance_by_loops(frame: Frame, op: StructureOperator) -> tuple[str, float, float]:
    """(label, leakage, retention) of ``verify.classify_invariance``, one
    structure image at a time."""
    g = frame.inner.gram
    leakage = retention = 0.0
    scale = 1.0
    for v in frame.vectors:
        image = op.matrix @ v
        proj = _project(frame, image)
        scale = max(scale, 1.0 + _g_norm(image, g))
        leakage = max(leakage, _g_norm(image - proj, g))
        retention = max(retention, _g_norm(proj, g))
    if retention <= INVARIANCE_TOL * scale:
        return "anti-invariant", leakage, retention
    if leakage <= INVARIANCE_TOL * scale:
        return "invariant", leakage, retention
    return "generic", leakage, retention


def xi_position_by_loops(xi: np.ndarray, frame: Frame) -> tuple[str, float, float]:
    """(position, tangent defect, normal defect) of ``verify.xi_position``,
    with the position "oblique" where it raises BranchUndetermined."""
    g = frame.inner.gram
    proj = _project(frame, xi)
    scale = 1.0 + _g_norm(xi, g)
    tangent_defect = _g_norm(xi - proj, g)
    normal_defect = _g_norm(proj, g)
    if tangent_defect <= XI_POSITION_TOL * scale:
        return "tangent", tangent_defect, normal_defect
    if normal_defect <= XI_POSITION_TOL * scale:
        return "normal", tangent_defect, normal_defect
    return "oblique", tangent_defect, normal_defect


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane of an r-dimensional frame, given by a unit normal in frame coefficients."""

    ambient_frame: Frame
    unit_normal: np.ndarray

    def __post_init__(self) -> None:
        n = np.array(self.unit_normal, dtype=float)
        r = self.ambient_frame.count
        if r < 3:
            raise DimensionMismatch(f"hyperplanes need ambient frame dim >= 3, got {r}")
        if n.shape != (r,):
            raise DimensionMismatch(f"normal has shape {n.shape}, expected ({r},)")
        if abs(np.linalg.norm(n) - 1.0) > UNIT_NORMAL_TOL:
            raise DegenerateInput("hyperplane normal is not unit length")
        object.__setattr__(self, "unit_normal", n)
        n.setflags(write=False)

    @property
    def r(self) -> int:
        return self.ambient_frame.count


def restrict_to_hyperplane(coeffs: np.ndarray, hp: Hyperplane) -> np.ndarray:
    """Matrix of a bilinear form restricted to a hyperplane.

    ``coeffs`` is the r x r matrix of the form in the ambient frame; the result
    is (r-1) x (r-1) in an orthonormal basis of the hyperplane (any such basis:
    the Frobenius norm of the result is basis-independent).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    r = hp.r
    if coeffs.shape != (r, r):
        raise DimensionMismatch(f"coefficient matrix shape {coeffs.shape} != ({r},{r})")
    basis = _hyperplane_basis(hp.unit_normal)
    return basis.T @ coeffs @ basis


def _hyperplane_basis(normal: np.ndarray) -> np.ndarray:
    """Columns: an orthonormal basis of the hyperplane normal^perp in R^r."""
    r = normal.shape[0]
    # Householder reflection taking e_last to the normal; the first r-1 columns
    # of the reflection matrix then span the hyperplane.
    e = np.zeros(r)
    e[-1] = 1.0
    w = normal - e if normal[-1] >= 0 else normal + e
    wn = np.linalg.norm(w)
    if wn < 1e-14:
        h = np.eye(r)
    else:
        w = w / wn
        h = np.eye(r) - 2.0 * np.outer(w, w)
    # h maps +-e_last to the normal, so the remaining columns are the basis.
    return h[:, : r - 1]


# --------------------------------------------------------------------------
# hyperplane measures and the proof polynomials
# --------------------------------------------------------------------------


def casorati_on_hyperplane(coeffs: FormCoefficients, hp: Hyperplane) -> float:
    """C^L = (1/(r-1)) * sum_alpha || B_alpha restricted to the hyperplane ||_F^2."""
    if hp.r != coeffs.r:
        raise DimensionMismatch("hyperplane and coefficients have different r")
    return float(restricted_sum(coeffs.coeffs, hp.unit_normal[None])[0]) / (coeffs.r - 1)


def proof_polynomial_P(coeffs: FormCoefficients, hp: Hyperplane, scal_gap: float) -> float:
    """P = r(r-1)/2 * C + (r^2-1)/2 * C^L(hp) + scal_gap; provably >= 0."""
    r = coeffs.r
    c_val = casorati_C(coeffs)
    c_l = casorati_on_hyperplane(coeffs, hp)
    return 0.5 * r * (r - 1) * c_val + 0.5 * (r * r - 1) * c_l + scal_gap


def proof_polynomial_Q(coeffs: FormCoefficients, hp: Hyperplane, scal_gap: float) -> float:
    """Q = 2r(r-1) * C - (r-1)(2r-1)/2 * C^L(hp) + scal_gap; provably >= 0."""
    r = coeffs.r
    c_val = casorati_C(coeffs)
    c_l = casorati_on_hyperplane(coeffs, hp)
    return 2.0 * r * (r - 1) * c_val - 0.5 * (r - 1) * (2 * r - 1) * c_l + scal_gap


def gauss_scal_gap(coeffs: FormCoefficients) -> float:
    """scal_gap = ||trace||^2 is traded against rC through the traced Gauss identity.

    For the symmetric roles the identity reads
        left_2scal = right_2scal + ||trace||^2 - r C,
    so the gap (right - left) entering P and Q is  r C - ||trace||^2.
    For the antisymmetric role the trace vanishes and the gap is +3 r C.
    """
    r = coeffs.r
    c_val = casorati_C(coeffs)
    if coeffs.role == ROLE_A:
        return 3.0 * r * c_val
    return r * c_val - coeffs.trace_vector_norm_squared()


def diverse_leaders(dirs: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Up to k rows of dirs, lowest value first, none within ~18 degrees of an earlier pick.

    The full greedy pass that ``measures._diverse_leaders`` reproduces from a
    partial sort: each pick is a matrix-vector product and an argmin over all rows.
    """
    values = np.array(values, dtype=float)
    picked = []
    for _ in range(k):
        i = int(np.argmin(values))
        if values[i] == np.inf:
            break
        picked.append(dirs[i])
        values[np.abs(dirs @ dirs[i]) > 0.95] = np.inf
    return np.array(picked)


def restricted_sum_derivatives(mats, normals: np.ndarray):
    """restricted_sum with its unconstrained gradient and Hessian in n.

    Shapes (..., k), (..., k, r) and (..., k, r, r), by the FormStack
    formulas: ``measures._half_derivatives`` with its half gradient and half
    Hessian doubled, which is exact. Every contraction there is an einsum
    over one row at a time, so each row's results are bit for bit those of a
    batch of that row alone; a BLAS product rounds a single row differently
    from a batch.
    """
    value, half_grad, half_hess = measures._half_derivatives(mats, normals)
    return value, 2.0 * half_grad, 2.0 * half_hess


def closed_form_normals(mats, antisymmetric: bool):
    """The exact (minimizing, maximizing) unit normals of ``measures.closed_form``,
    by its own eigh of G or B; else None. The proofs of the normals are in
    the docstring there."""
    stack = form_stack(mats)
    if antisymmetric or stack.sym.shape[-3] == 0:  # no S rows: every S_alpha is 0
        _, vecs = np.linalg.eigh(stack.gram)
        return vecs[..., -1], vecs[..., 0]
    if stack.mats.shape[-3] != 1:
        return None
    lam, vecs = np.linalg.eigh(stack.mats[..., 0, :, :])
    lo, hi = lam[..., 0], lam[..., -1]
    gap = hi - lo
    t = np.clip(np.divide(hi, gap, out=np.zeros_like(gap), where=gap > 0), 0.0, 1.0)
    n_inf = np.sqrt(1.0 - t)[..., None] * vecs[..., 0] + np.sqrt(t)[..., None] * vecs[..., -1]
    least = np.argmin(lam * lam, axis=-1)[..., None, None]
    return n_inf, np.take_along_axis(vecs, least, axis=-1)[..., 0]


def closed_form_bounds(mats, antisymmetric: bool):
    """The proved (lower bound on inf f, upper bound on sup f, proved) of
    ``measures.closed_form``, with the estimates of ``_proved_lower_bounds``
    taken from a second decomposition, LAPACK's eigvalsh, in place of the
    eigh that gave the normals; else None."""
    stack = form_stack(mats)
    if antisymmetric or stack.sym.shape[-3] == 0:
        lam = np.linalg.eigvalsh(stack.gram)
        low, ok = measures._proved_lower_bounds(
            np.stack([stack.gram, -stack.gram], axis=-3),
            np.stack([lam[..., 0], -lam[..., -1]], axis=-1),
        )
        return stack.norm + low[..., 1], stack.norm - low[..., 0], ok.all(axis=-1)
    if stack.mats.shape[-3] != 1:
        return None
    b_mat = stack.mats[..., 0, :, :]
    lam = np.linalg.eigvalsh(b_mat)
    low, ok = measures._proved_lower_bounds(
        np.stack([stack.gram, b_mat, -b_mat], axis=-3),
        np.stack([2.0 * np.min(lam * lam, axis=-1), lam[..., 0], -lam[..., -1]], axis=-1),
    )
    a, b = low[..., 1], -low[..., 2]
    chord = np.where((a <= 0.0) & (b >= 0.0), a * a + b * b, np.maximum(a * a, b * b))
    return stack.norm - chord, stack.norm - 0.5 * low[..., 0], ok.all(axis=-1)


def gradient_sphere_extrema(
    mats: np.ndarray, low_starts: np.ndarray, high_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The projected-gradient solver that ``measures._sphere_extrema`` replaces.

    Same starts, stopping rule and Armijo forgiveness; each start keeps its
    own Barzilai-Borwein step, halved when the Armijo test fails, in place
    of the Newton step. Returns (best minimizer, best maximizer, iterations
    summed over starts).
    """
    def tangent_gradient(normals, signs):
        value, grad, _ = restricted_sum_derivatives(mats, normals)
        grad = signs[:, None] * grad
        return signs * value, grad - np.sum(grad * normals, axis=1, keepdims=True) * normals

    signs = np.repeat([1.0, -1.0], [len(low_starts), len(high_starts)])
    n = np.vstack([low_starts, high_starts])
    n = n / np.linalg.norm(n, axis=1, keepdims=True)
    scale = 1.0 + float(np.sum(mats * mats))
    tol = GRAD_NORM_TOL * scale
    f, pg = tangent_gradient(n, signs)
    step = np.full(len(n), 1.0 / scale)
    iters = np.zeros(len(n), dtype=int)
    running = np.linalg.norm(pg, axis=1) > tol
    for _ in range(SOLVER_MAX_ITER):
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        n0, pg0, t0 = n[idx], pg[idx], step[idx]
        cand = n0 - t0[:, None] * pg0
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc, pgc = tangent_gradient(cand, signs[idx])
        ok = fc <= f[idx] - 1e-4 * t0 * np.sum(pg0 * pg0, axis=1) + ROUNDING_TOL * scale
        s_vec, y_vec = cand - n0, pgc - pg0
        sy = np.abs(np.sum(s_vec * y_vec, axis=1))
        yy = np.sum(y_vec * y_vec, axis=1)
        bb = np.minimum(sy / np.where(yy > 0.0, yy, 1.0), 1e6)
        bb = np.where((sy > 0.0) & (yy > 0.0), bb, 1.0 / scale)
        step[idx] = np.where(ok, bb, 0.5 * t0)
        moved = idx[ok]
        n[moved], f[moved], pg[moved] = cand[ok], fc[ok], pgc[ok]
        iters[idx] += 1
        running[idx] = (np.linalg.norm(pg[idx], axis=1) > tol) & (step[idx] > 1e-18)
    low = signs > 0
    n_min, n_max = n[np.argmin(np.where(low, f, np.inf))], n[np.argmin(np.where(low, np.inf, f))]
    return n_min, n_max, int(iters.sum())


def row_major_grid(r: int) -> np.ndarray:
    """The grid of ``measures._grid_directions`` as drawn, row by row, before
    it is stored column-major."""
    rng = np.random.default_rng(measures.GRID_SEED)
    dirs = np.vstack([rng.standard_normal((GRID_PER_DIM * r, r)), np.eye(r)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def summed_restricted_sum(mats, normals: np.ndarray) -> np.ndarray:
    """``measures.restricted_sum`` in two passes: the stack product times the
    normals, then summed over r, where the one-pass route contracts them in
    one einsum. ``mats`` is (..., s, r, r) or its FormStack."""
    stack = measures.form_stack(mats)
    (m, r), k = stack.forms.shape[-2:], normals.shape[-2]
    cols = np.swapaxes(normals, -1, -2)
    forms = stack.forms @ cols
    forms = forms.reshape(forms.shape[:-2] + (m // r, r, k))
    forms *= cols[..., None, :, :]
    forms = forms.sum(axis=-2)  # n^T G n, then n^T S_alpha n for each alpha
    q = 0.5 * forms[..., 1:, :]
    return stack.norm[..., None] - forms[..., 0, :] + np.einsum("...ak,...ak->...k", q, q)


def expanded_restricted_sum(mats: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """``measures.restricted_sum`` by the projector expansion in B and B^T:
    ||B||^2 - ||B n||^2 - ||B^T n||^2 + sum_alpha (n^T B_alpha n)^2, with
    separate products for B n and B^T n in place of the stacked forms.
    ``mats`` is (..., s, r, r) and ``normals`` (..., k, r); the result is (..., k)."""
    cols = np.swapaxes(normals, -1, -2)[..., None, :, :]
    bn = mats @ cols
    btn = np.swapaxes(mats, -1, -2) @ cols
    nbn = np.einsum("...aik,...ik->...ak", bn, cols[..., 0, :, :])
    return (
        np.einsum("...aij,...aij->...", mats, mats)[..., None]
        - np.einsum("...aik,...aik->...k", bn, bn)
        - np.einsum("...aik,...aik->...k", btn, btn)
        + np.einsum("...ak,...ak->...k", nbn, nbn)
    )


def sliced_grid_values(mats: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The grid values of ``measures._grid_values`` by ``expanded_restricted_sum``
    on slices of 8192 directions."""
    slices = np.split(dirs, range(8192, len(dirs), 8192))
    return np.concatenate([expanded_restricted_sum(mats, part) for part in slices])


def newton_directions_by_eigh(
    normals: np.ndarray, pg: np.ndarray, hess: np.ndarray, scale: float
) -> np.ndarray:
    """``measures._newton_directions`` with one eigh on every row: the |lambda|
    step of the eigenpairs, which is the plain Newton step on definite rows."""
    outer = normals[:, :, None] * normals[:, None, :]
    proj = np.eye(normals.shape[1]) - outer
    lam, vecs = np.linalg.eigh(proj @ hess @ proj + scale * outer)
    coords = np.einsum("kij,ki->kj", vecs, pg)
    floor = NEWTON_FLOOR * scale
    weights = np.where(
        lam < -floor, np.sign(coords) * NEWTON_MAX_STEP, coords / np.maximum(np.abs(lam), floor)
    )
    step = -np.einsum("kij,kj->ki", vecs, weights)
    length = np.linalg.norm(step, axis=1, keepdims=True)
    return step * np.minimum(1.0, NEWTON_MAX_STEP / np.maximum(length, NEWTON_MAX_STEP))


def _polished(coeffs: FormCoefficients, leaders: tuple) -> tuple:
    """(C_L_inf, n_inf, C_L_sup, n_sup) of the (low, high) ``leaders`` polished
    in a solver call of their own."""
    ((n_min, n_max, _),) = measures._sphere_extrema(coeffs.coeffs, leaders)
    f_min, f_max = restricted_sum(coeffs.coeffs, np.stack([n_min, n_max])) / (coeffs.r - 1)
    return float(f_min), n_min, float(f_max), n_max


def grid_extrema(coeffs: FormCoefficients) -> tuple:
    """The grid oracle, (C_L_inf, n_inf, C_L_sup, n_sup): the leaders of
    ``measures.grid_extrema`` polished without the optimizer's starts."""
    return _polished(coeffs, measures.grid_extrema(coeffs))


def separate_grid_extrema(coeffs: FormCoefficients, grid: np.ndarray) -> tuple:
    """``grid_extrema`` on a row-major ``grid``, with the full greedy leader pass."""
    total = measures._grid_values(coeffs.coeffs, grid)
    leaders = tuple(diverse_leaders(grid, v, POLISH_LEADERS) for v in (total, -total))
    return _polished(coeffs, leaders)


def two_solve_report(coeffs: FormCoefficients, seed: int, grid: np.ndarray) -> CasoratiReport:
    """``delta_casorati(coeffs, seed, certify=True)`` by two solver calls: the
    optimizer's starts alone, then ``separate_grid_extrema`` on ``grid``, which
    is ``row_major_grid(r)``. A closed form takes the certificate route, as
    there, and no grid, by the oracle pair ``closed_form_normals`` and
    ``closed_form_bounds``, whose eigvalsh the package does not call."""
    mats, r = coeffs.coeffs, coeffs.r
    closed = closed_form_normals(mats, coeffs.role == ROLE_A)
    if closed is None:
        starts = measures._optimizer_starts(mats, r, seed)
        ((n_inf, n_sup, iterations),) = measures._sphere_extrema(mats, starts)
        count = max(map(len, starts))
    else:
        (n_inf, n_sup), count, iterations = closed, 0, 0
    c_l_inf, c_l_sup = (float(v) for v in restricted_sum(mats, np.stack([n_inf, n_sup])) / (r - 1))
    if closed is None:
        inf_ref, grid_n_inf, sup_ref, grid_n_sup = separate_grid_extrema(coeffs, grid)
        proved = True
    else:
        low, high, proved = closed_form_bounds(mats, coeffs.role == ROLE_A)
        inf_ref, sup_ref = float(low) / (r - 1), float(high) / (r - 1)
    certified = bool(
        proved
        and abs(c_l_inf - inf_ref) <= CERTIFY_REL_TOL * (1.0 + abs(inf_ref))
        and abs(c_l_sup - sup_ref) <= CERTIFY_REL_TOL * (1.0 + abs(sup_ref))
    )
    if closed is None and inf_ref < c_l_inf:
        c_l_inf, n_inf = inf_ref, grid_n_inf
    if closed is None and sup_ref > c_l_sup:
        c_l_sup, n_sup = sup_ref, grid_n_sup
    _, pg, _ = measures._tangent_derivatives(mats, np.stack([n_inf, n_sup]), np.ones(2))
    stationary = np.linalg.norm(pg, axis=1) <= GRAD_NORM_TOL * (1.0 + coeffs.norm_squared())
    delta_c, delta_hat_c = delta_pair(casorati_C(coeffs), c_l_inf, c_l_sup, r)
    return CasoratiReport(
        r=r, C=casorati_C(coeffs), C_L_inf=c_l_inf, C_L_sup=c_l_sup, inf_normal=n_inf,
        sup_normal=n_sup, delta_C=delta_c, delta_hat_C=delta_hat_c,
        converged=bool(stationary.all()), starts=count, iterations=iterations,
        certified=certified,
    )


def make_equality_shape(
    role: str,
    amplitudes: np.ndarray,
    r: int,
    basis: np.ndarray | None = None,
) -> FormCoefficients:
    """Coefficients attaining equality: a_alpha * diag(1, ..., 1, 2) in a shared basis.

    ``basis`` (orthonormal, rows) rotates the shape; identity by default. Only
    meaningful for the symmetric roles — the antisymmetric equality shape is
    identically zero, so amplitudes must vanish there.
    """
    amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if role == ROLE_A and np.any(amplitudes != 0.0):
        raise DegenerateInput("antisymmetric equality shape is identically zero")
    pattern = np.ones(r)
    pattern[-1] = 2.0
    mats = np.stack([a * np.diag(pattern) for a in amplitudes])
    if basis is not None:
        u = np.asarray(basis, dtype=float)
        mats = np.einsum("pi,aij,qj->apq", u.T, mats, u.T)
    return FormCoefficients(role, mats)


# --------------------------------------------------------------------------
# curvature
# --------------------------------------------------------------------------


def sectional(tensor: CurvatureTensor, inner: InnerProduct, x: np.ndarray, y: np.ndarray) -> float:
    """Sectional curvature of span{x, y}."""
    num = float(np.einsum("abcd,a,b,c,d->", tensor.components, x, y, y, x))
    g = inner.gram
    den = (x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2
    return num / den


def _lowered_symbols(d: np.ndarray) -> np.ndarray:
    """Gamma_{l,ij} from d[..., a, i, j] = d_a g_{ij}; leading indices pass through,
    so the same formula lowers d_a Gamma from ddg."""
    return 0.5 * (np.einsum("...ijl->...lij", d) + np.einsum("...jil->...lij", d) - d)


def _riemann_by_christoffel_derivatives(
    g: np.ndarray, dg: np.ndarray, ddg: np.ndarray
) -> np.ndarray:
    """R_{ijkl} by raising, differentiating and lowering: d_a g^{-1}, d_a Gamma^k_{ij},
    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^m_{jk} Gamma^l_{im}
    - Gamma^m_{ik} Gamma^l_{jm}, then R_{ijkl} = g_{lm} R^m_{ijk}."""
    g_inv = np.linalg.inv(g)
    low = _lowered_symbols(dg)
    gamma = np.einsum("kl,lij->kij", g_inv, low)
    dginv = -np.einsum("kl,alm,mn->akn", g_inv, dg, g_inv)
    dgamma = np.einsum("akl,lij->akij", dginv, low) + np.einsum(
        "kl,alij->akij", g_inv, _lowered_symbols(ddg)
    )
    term1 = dgamma.transpose(1, 0, 2, 3)  # [l, i, j, k] = d_i Gamma^l_{jk}
    term2 = term1.transpose(0, 2, 1, 3)
    term3 = np.einsum("mjk,lim->lijk", gamma, gamma)
    term4 = np.einsum("mik,ljm->lijk", gamma, gamma)
    return np.einsum("lm,mijk->ijkl", g, term1 - term2 + term3 - term4)


def riemann_through_christoffel_derivatives(chart: ChartMetric, p: np.ndarray) -> np.ndarray:
    """R_{ijkl} at p by the mixed-index route, assembled at both Richardson steps
    from per-point stencils, the components then extrapolated."""
    h = chart.steps_at(p, curvature.RIEMANN_STEP_SCALE)
    coarse, fine = (
        _riemann_by_christoffel_derivatives(*metric_derivatives_by_loops(chart, p, step))
        for step in (h, 0.5 * h)
    )
    return (4.0 * fine - coarse) / 3.0


# --------------------------------------------------------------------------
# space-form model tensors
# --------------------------------------------------------------------------


def model_curvature(
    spec: SpaceFormSpec,
    z1: np.ndarray,
    z2: np.ndarray,
    z3: np.ndarray,
    inner: InnerProduct,
) -> np.ndarray:
    """R(Z1, Z2)Z3 of the model tensor, as a coordinate vector."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    z3 = np.asarray(z3, dtype=float)
    if z1.shape != (spec.dim,) or z2.shape != (spec.dim,) or z3.shape != (spec.dim,):
        raise DimensionMismatch("tangent vectors do not match the spec dimension")
    if inner.dim != spec.dim:
        raise DimensionMismatch("inner product does not match the spec dimension")

    def g(u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ inner.gram @ v)

    j = spec.structure.matrix
    jz1, jz2, jz3 = j @ z1, j @ z2, j @ z3

    out = spec.c1 * (g(z2, z3) * z1 - g(z1, z3) * z2)
    out = out + spec.c2 * (
        g(z1, jz3) * jz2 - g(z2, jz3) * jz1 + 2.0 * g(z1, jz2) * jz3
    )
    if spec.contact:
        eta = spec.structure.eta
        xi = spec.structure.xi
        e1, e2, e3 = float(eta @ z1), float(eta @ z2), float(eta @ z3)
        out = out + spec.c3 * (
            e1 * e3 * z2 - e2 * e3 * z1 + g(z1, z3) * e2 * xi - g(z2, z3) * e1 * xi
        )
    return out


def model_tensor(spec: SpaceFormSpec, inner: InnerProduct) -> CurvatureTensor:
    """All components R_{ijkl} of the model tensor on the coordinate basis."""
    n = spec.dim
    comp = np.empty((n, n, n, n))
    basis = np.eye(n)
    for i in range(n):
        for k in range(n):
            for kk in range(n):
                vec = model_curvature(spec, basis[i], basis[k], basis[kk], inner)
                comp[i, k, kk, :] = inner.gram @ vec
    return CurvatureTensor(comp)


def validate_against_chart(
    spec: SpaceFormSpec,
    chart: ChartMetric,
    structure_fn,
    sample_points,
    rng: np.random.Generator | None = None,
    tol: float = CHART_VALIDATION_TOL,
) -> float:
    """Max relative residual of the chart's numeric curvature vs the model.

    ``structure_fn(p) -> StructureOperator`` supplies the (possibly
    point-dependent) structure in chart coordinates. For each sample point the
    numeric Riemann tensor is compared against the model on random vector
    triples; raises ValidationFailed if any residual exceeds ``tol``.
    """
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    worst_point = None
    for p in sample_points:
        p = np.asarray(p, dtype=float)
        g = chart.metric_at(p)
        inner = InnerProduct(g)
        op = structure_fn(p)
        point_spec = SpaceFormSpec(spec.c1, spec.c2, spec.c3, op)
        numeric = riemann_at(chart, p)
        for _ in range(8):
            z = rng.standard_normal((3, chart.dim))
            model = model_curvature(point_spec, z[0], z[1], z[2], inner)
            actual = np.einsum("ijkl,i,j,k->l", numeric.components, z[0], z[1], z[2])
            # numeric components are fully lowered; raise the last index.
            actual = np.linalg.solve(g, actual)
            res = np.linalg.norm(actual - model) / (1.0 + np.linalg.norm(model))
            if res > worst:
                worst = res
                worst_point = p
    if worst > tol:
        raise ValidationFailed(
            f"model mismatch {worst:.3e} > {tol} at {None if worst_point is None else worst_point.tolist()}"
        )
    return worst


# --------------------------------------------------------------------------
# Hopf fibrations, each written out on its own
# --------------------------------------------------------------------------


def _stereo_to_unit_sphere(y: np.ndarray) -> np.ndarray:
    s = np.sum(y * y)
    return np.concatenate([2.0 * y, np.atleast_1d(s - 1.0)]) / (1.0 + s)


def _stereo_of_half_sphere(x: np.ndarray) -> np.ndarray:
    return 0.5 * x[:-1] / (0.5 - x[-1])


def hopf_complex(y: np.ndarray) -> np.ndarray:
    """S^3(1) -> S^2(1/2): (a, b, c, d) -> (ac + bd, bc - ad, (a^2 + b^2 - c^2 - d^2)/2)."""
    a, b, c, d = _stereo_to_unit_sphere(y)
    h = np.stack([a * c + b * d, b * c - a * d, 0.5 * ((a * a + b * b) - (c * c + d * d))])
    return _stereo_of_half_sphere(h)


def hopf_quaternionic(y: np.ndarray) -> np.ndarray:
    """S^7(1) -> S^4(1/2): (q1, q2) -> (q1 conj(q2), (|q1|^2 - |q2|^2)/2), the product expanded."""
    x = _stereo_to_unit_sphere(y)
    a0, a1, a2, a3 = x[:4]
    b0, b1, b2, b3 = x[4], -x[5], -x[6], -x[7]  # conj(q2)
    prod = np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ]
    )
    s1, s2 = np.sum(x[:4] * x[:4]), np.sum(x[4:] * x[4:])
    h = np.concatenate([prod, np.atleast_1d(0.5 * (s1 - s2))])
    return _stereo_of_half_sphere(h)


# --------------------------------------------------------------------------
# the four frames of a map by Gram-Schmidt
# --------------------------------------------------------------------------


def map_at_point_by_gram_schmidt(
    sm: SmoothMap, p: np.ndarray, declared_rank: int | None = None
) -> MapAtPoint:
    """``rmaps.map_at_point`` by another route: each frame orthonormalized on its own.

    The kernel comes from an SVD of the coordinate derivative J, the horizontal
    frame from g1^{-1} applied to its row space, the range frame is J applied
    to the horizontal one, and the range-perp from a second SVD: w is
    g2-orthogonal to the range iff (range g2) w = 0. Every set goes through
    modified Gram-Schmidt. The spans are those of ``map_at_point``; the bases
    within them differ.
    """
    p = np.asarray(p, dtype=float)
    g1 = sm.source.metric_at(p)
    q = sm(p)
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
    horizontal = gram_schmidt(np.linalg.solve(g1, vt[:rank].T).T, inner1)

    pushed = horizontal.vectors @ j.T
    if rank:
        iso_defect = float(np.abs(pushed @ g2 @ pushed.T - np.eye(rank)).max())
        if iso_defect > ISOMETRY_TOL:
            raise HypothesisViolated(f"isometry defect {iso_defect:.2e} at {p.tolist()}")
    if rank < m2:
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
        range_frame=Frame(pushed, inner2),
        range_perp_frame=range_perp,
    )


# --------------------------------------------------------------------------
# O'Neill tensors T and A from the vertical projector field
# --------------------------------------------------------------------------


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


def projector_field(mp: MapAtPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Pv, dPv, Gamma): the vertical projector at the point, its first derivatives
    dPv[a] = d_a Pv, and the source Christoffel symbols.

    dPv uses a fourth-order stencil: a plain central difference leaves visible
    truncation error on maps with large third derivatives (e.g. stereographic
    compositions).
    """
    sm, p, rank = mp.smooth_map, mp.point, mp.rank
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
    return _vertical_projector(sm, p, rank), dpv, mp.source_curvature.christoffel


def _oneill_vectors(mp: MapAtPoint, of: str) -> np.ndarray:
    """Full T or A vectors: out[i, j] = T_{e_i} e_j (or A_{e_i} e_j) in source coords.

    Frame fields extend the frame vectors by projecting constants onto the
    moving vertical/horizontal distribution; the covariant derivative then
    needs only the projector field's first derivatives and the Christoffel
    symbols at the base point.
    """
    mp.require_submersion(f"the O'Neill tensor {of}")
    pv, dpv, gamma = projector_field(mp)
    if of == "T":
        args = mp.vertical_frame.vectors
        out_proj = np.eye(mp.m1) - pv  # horizontal part of nabla_{v_i} (Pv v~_j)
        field_sign = 1.0
    else:
        args = mp.horizontal_frame.vectors
        out_proj = pv  # vertical part of nabla_{h_i} (Ph h~_j)
        field_sign = -1.0  # d(Ph) = -d(Pv)
    drift = field_sign * np.einsum("ia,alm,jm->ijl", args, dpv, args)
    conn = np.einsum("ia,lam,jm->ijl", args, gamma, args)
    return np.einsum("kl,ijl->ijk", out_proj, drift + conn)


def oneill_T_via_projector(mp: MapAtPoint) -> FormCoefficients:
    """T coefficients g1(T_{v_i} v_j, h_alpha) by the projector-field route."""
    t_vec = _oneill_vectors(mp, "T")
    coeffs = np.einsum("ijl,lm,am->aij", t_vec, mp.source_inner.gram, mp.horizontal_frame.vectors)
    return FormCoefficients(ROLE_T, coeffs)


def oneill_A_via_projector(mp: MapAtPoint) -> FormCoefficients:
    """A coefficients g1(A_{h_i} h_j, v_alpha) by the projector-field route."""
    a_vec = _oneill_vectors(mp, "A")
    coeffs = np.einsum("ijl,lm,am->aij", a_vec, mp.source_inner.gram, mp.vertical_frame.vectors)
    return FormCoefficients(ROLE_A, coeffs)


def oneill_A_via_bracket(mp: MapAtPoint) -> FormCoefficients:
    """Independent A route: A_X Y = (1/2) v[X~, Y~] for horizontal field extensions."""
    mp.require_submersion("the O'Neill tensor A")
    pv, dpv, _ = projector_field(mp)
    h_vecs = mp.horizontal_frame.vectors
    n = h_vecs.shape[0]
    out = np.empty((n, n, mp.m1))
    for i in range(n):
        for jdx in range(n):
            # [h~_i, h~_j] with h~_k(x) = (I - Pv(x)) h_k; d h~_k = -dPv h_k.
            bracket = -np.einsum("a,alm,m->l", h_vecs[i], dpv, h_vecs[jdx]) + np.einsum(
                "a,alm,m->l", h_vecs[jdx], dpv, h_vecs[i]
            )
            out[i, jdx] = 0.5 * pv @ bracket
    coeffs = np.einsum("ijl,lm,am->aij", out, mp.source_inner.gram, mp.vertical_frame.vectors)
    return FormCoefficients(ROLE_A, 0.5 * (coeffs - coeffs.transpose(0, 2, 1)))


# --------------------------------------------------------------------------
# named-family bounds
# --------------------------------------------------------------------------


def corollary_reference_part(
    family: NamedFamily, r: int, pnorm2: float, xi_tangent: bool
) -> float:
    """The named-family bounds written out directly, for cross-checking.

    These expressions are transcribed independently of family_constants so a
    transposed coefficient in either table cannot cancel out.
    """
    c = float(family.c)
    a = 0.0 if family.alpha is None else float(family.alpha)
    denom = 4.0 * r * (r - 1)
    if family.name == "real":
        return c
    if family.name == "complex":
        return c / 4.0 + 3.0 * c * pnorm2 / denom
    if family.name == "real-kahler":
        return (c + 3.0 * a) / 4.0 + 3.0 * (c - a) * pnorm2 / denom
    if family.name == "sasakian":
        val = (c + 3.0) / 4.0 + 3.0 * (c - 1.0) * pnorm2 / denom
        return val - (c - 1.0) / (2.0 * r) if xi_tangent else val
    if family.name == "kenmotsu":
        val = (c - 3.0) / 4.0 + 3.0 * (c + 1.0) * pnorm2 / denom
        return val - (c + 1.0) / (2.0 * r) if xi_tangent else val
    if family.name == "cosymplectic":
        val = c / 4.0 + 3.0 * c * pnorm2 / denom
        return val - c / (2.0 * r) if xi_tangent else val
    if family.name == "almost-C-alpha":
        a2 = a * a
        val = (c + 3.0 * a2) / 4.0 + 3.0 * (c - a2) * pnorm2 / denom
        return val - (c - a2) / (2.0 * r) if xi_tangent else val
    raise DegenerateInput(f"no bound table entry for family {family.name!r}")


def specialization_deviation(samples: int = 200, seed: int = 0) -> float:
    """Max |generic-constants bound - named-family bound| over random draws.

    The generic path routes through family_constants; the comparison uses the
    independently transcribed family table.  Agreement certifies the constant
    tables against transcription slips.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name in sorted(_FAMILY_SAMPLERS):
        for _ in range(samples):
            fam = _FAMILY_SAMPLERS[name](rng)
            r = int(rng.integers(3, 8))
            pnorm2 = float(rng.uniform(0.0, r))
            tangent = bool(rng.random() < 0.5) and name in CONTACT_FAMILIES
            c1, c2, c3 = family_constants(fam)
            generic = model_reference_part(c1, c2, c3, r, pnorm2, tangent)
            table = corollary_reference_part(fam, r, pnorm2, tangent)
            worst = max(worst, abs(generic - table))
    return worst


_FAMILY_SAMPLERS = {
    "real": lambda rng: NamedFamily("real", float(rng.normal(0.0, 2.0))),
    "complex": lambda rng: NamedFamily("complex", float(rng.normal(0.0, 2.0))),
    "real-kahler": lambda rng: NamedFamily(
        "real-kahler", float(rng.normal(0.0, 2.0)), float(rng.normal(0.0, 2.0))
    ),
    "sasakian": lambda rng: NamedFamily("sasakian", float(rng.normal(0.0, 2.0))),
    "kenmotsu": lambda rng: NamedFamily("kenmotsu", float(rng.normal(0.0, 2.0))),
    "cosymplectic": lambda rng: NamedFamily("cosymplectic", float(rng.normal(0.0, 2.0))),
    "almost-C-alpha": lambda rng: NamedFamily(
        "almost-C-alpha", float(rng.normal(0.0, 2.0)), float(rng.normal(0.0, 2.0))
    ),
}


# --------------------------------------------------------------------------
# Per-point stencils: one metric call per sample point and one map call per
# Jacobian column, the loops that the batched calls replace
# --------------------------------------------------------------------------


def metric_derivatives_by_loops(
    chart: ChartMetric, p: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, dg, ddg) at p by central differences, the metric called point by
    point; dg[a] = d_a g and ddg[a, b] = d_a d_b g."""
    n = chart.dim
    g0 = chart.metric_at(p)
    gp = np.array([chart.metric_at(p + e) for e in np.diag(h)])
    gm = np.array([chart.metric_at(p - e) for e in np.diag(h)])
    dg = (gp - gm) / (2.0 * h[:, None, None])
    ddg = np.empty((n, n, n, n))
    for a in range(n):
        ddg[a, a] = (gp[a] - 2.0 * g0 + gm[a]) / (h[a] * h[a])
    for a in range(n):
        for b in range(a + 1, n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = h[a]
            eb[b] = h[b]
            second = (
                chart.metric_at(p + ea + eb)
                - chart.metric_at(p + ea - eb)
                - chart.metric_at(p - ea + eb)
                + chart.metric_at(p - ea - eb)
            ) / (4.0 * h[a] * h[b])
            ddg[a, b] = second
            ddg[b, a] = second
    return g0, dg, ddg


def _extrapolated_by_loops(chart: ChartMetric, p: np.ndarray):
    """(g, dg, ddg) at p: the metric derivatives of both Richardson steps of
    ``riemann_at`` from per-point stencils, extrapolated."""
    h = chart.steps_at(p, curvature.RIEMANN_STEP_SCALE)
    (g, dg_coarse, ddg_coarse), (_, dg_fine, ddg_fine) = (
        metric_derivatives_by_loops(chart, p, step) for step in (h, 0.5 * h)
    )
    return g, (4.0 * dg_fine - dg_coarse) / 3.0, (4.0 * ddg_fine - ddg_coarse) / 3.0


def riemann_by_loops(chart: ChartMetric, p: np.ndarray) -> np.ndarray:
    """``riemann_at``'s components from per-point stencils: the extrapolated
    metric derivatives, then one assembly."""
    g, dg, ddg = _extrapolated_by_loops(chart, p)
    return curvature._riemann_components(*curvature._symbols(g, dg), ddg)


def christoffel_by_loops(chart: ChartMetric, p: np.ndarray) -> np.ndarray:
    """``christoffel``: the symbols of ``riemann_by_loops``' extrapolated derivatives."""
    return curvature._symbols(*_extrapolated_by_loops(chart, p)[:2])[1]


def jacobian_by_columns(sm: SmoothMap, p: np.ndarray) -> np.ndarray:
    """dF at p, one complex-step call of the map per column."""
    cols = []
    for k in range(sm.source.dim):
        z = p.astype(complex)
        z[k] += 1j * COMPLEX_STEP
        cols.append(np.asarray(sm.func(z)).imag / COMPLEX_STEP)
    return np.column_stack(cols)


def component_hessians_by_columns(sm: SmoothMap, p: np.ndarray) -> np.ndarray:
    """``component_hessians`` from per-column Jacobians at p +- h_a e_a."""
    m1 = sm.source.dim
    h = sm.source.steps_at(p, FD_STEP)
    dj = np.empty((m1, sm.target.dim, m1))
    for a in range(m1):
        e = np.zeros_like(p)
        e[a] = h[a]
        dj[a] = (jacobian_by_columns(sm, p + e) - jacobian_by_columns(sm, p - e)) / (2.0 * h[a])
    hessians = dj.transpose(1, 0, 2)
    return 0.5 * (hessians + hessians.transpose(0, 2, 1))

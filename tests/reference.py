"""Independent reference implementations that only the tests read.

Each function recomputes a quantity of the package by a different route (or
from an independently transcribed table), so that a slip in either copy shows
up as a disagreement.
"""

import numpy as np

from casorati.curvature import CurvatureTensor, christoffel
from casorati.errors import DegenerateInput, DimensionMismatch, RankDrop
from casorati.framecore import Frame, Hyperplane, InnerProduct, StructureOperator
from casorati.measures import ROLE_A, ROLE_T, FormCoefficients
from casorati.rmaps import FD_STEP, KERNEL_THRESHOLD, MapAtPoint, SmoothMap
from casorati.spaceforms import CONTACT_FAMILIES, NamedFamily, family_constants
from casorati.verify import model_reference_part

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
# curvature
# --------------------------------------------------------------------------


def sectional(tensor: CurvatureTensor, inner: InnerProduct, x: np.ndarray, y: np.ndarray) -> float:
    """Sectional curvature of span{x, y}."""
    num = float(np.einsum("abcd,a,b,c,d->", tensor.components, x, y, y, x))
    den = inner.dot(x, x) * inner.dot(y, y) - inner.dot(x, y) ** 2
    return num / den


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
    return _vertical_projector(sm, p, rank), dpv, christoffel(sm.source, p)


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

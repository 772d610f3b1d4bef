import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casorati.catalog import CatalogEntry, KIND_MAP, flat_chart, identity_map
from casorati.curvature import ChartMetric, CurvatureTensor
from casorati.errors import DegenerateInput, DimensionMismatch
from casorati.framecore import (
    Frame,
    InnerProduct,
    StructureOperator,
    gram_schmidt,
    structure_norm_squared,
)
from casorati.measures import ROLE_B, FormCoefficients, restricted_sum
from casorati.rmaps import SmoothMap
from reference import (
    Hyperplane,
    metric_compatibility_defect,
    orthonormality_defect,
    restrict_to_hyperplane,
)

ORTHO_TOL = 1e-10
FROB_TOL = 1e-11


def random_spd(rng, n, spread=2.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + spread * np.eye(n)


def test_euclidean_inner_product_basics():
    inner = InnerProduct.euclidean(3)
    assert inner.dim == 3
    assert np.array([1, 0, 0]) @ inner.gram @ np.array([0, 1, 0]) == 0.0
    assert np.sqrt(np.array([3, 4, 0]) @ inner.gram @ np.array([3, 4, 0])) == pytest.approx(5.0)


def test_inner_product_rejects_nonsymmetric():
    with pytest.raises(DegenerateInput):
        InnerProduct(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_frame_rejects_non_orthonormal_rows():
    inner = InnerProduct.euclidean(2)
    with pytest.raises(DegenerateInput):
        Frame(np.array([[1.0, 0.0], [1.0, 1.0]]), inner)


@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_gram_schmidt_orthonormal_under_curved_metric(seed, n):
    rng = np.random.default_rng(seed)
    inner = InnerProduct(random_spd(rng, n))
    k = int(rng.integers(1, n + 1))
    frame = gram_schmidt(rng.standard_normal((k, n)), inner)
    assert frame.count == k
    assert orthonormality_defect(frame) <= ORTHO_TOL
    # span is preserved: projecting the original vectors changes nothing
    v = rng.standard_normal(n)
    proj = frame.vectors @ inner.gram @ v @ frame.vectors
    assert np.allclose(frame.vectors @ inner.gram @ proj @ frame.vectors, proj, atol=1e-9)


def test_gram_schmidt_rejects_dependent_input():
    inner = InnerProduct.euclidean(3)
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DegenerateInput):
        gram_schmidt(rows, inner)


def test_gram_schmidt_accepts_well_conditioned_sets_in_eight_dimensions():
    # det(normalized gram) shrinks with the dimension; the singular values of
    # the whitened vectors do not. This draw (condition number 4.7e3) has
    # det < 1e-12 and used to be rejected as dependent.
    rows = np.random.default_rng(3127).standard_normal((8, 8))
    frame = gram_schmidt(rows, InnerProduct.euclidean(8))
    assert orthonormality_defect(frame) <= ORTHO_TOL
    rows[-1] = rows[0] - 1e-10 * rows[1]
    with pytest.raises(DegenerateInput):
        gram_schmidt(rows, InnerProduct.euclidean(8))
    with pytest.raises(DegenerateInput):
        gram_schmidt(np.zeros((2, 8)), InnerProduct.euclidean(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inner_product_rejects_non_finite_gram(bad):
    with pytest.raises(DegenerateInput):
        InnerProduct(np.full((2, 2), bad))
    gram = np.eye(3)
    gram[1, 2] = gram[2, 1] = bad
    with pytest.raises(DegenerateInput):
        InnerProduct(gram)


def test_hyperplane_needs_unit_normal_and_r_at_least_3():
    inner = InnerProduct.euclidean(3)
    frame = Frame(np.eye(3), inner)
    with pytest.raises(DegenerateInput):
        Hyperplane(frame, np.array([1.0, 1.0, 0.0]))
    small = Frame(np.eye(2), InnerProduct.euclidean(2))
    with pytest.raises(DimensionMismatch):
        Hyperplane(small, np.array([1.0, 0.0]))


@given(seed=st.integers(0, 10_000), r=st.integers(3, 7))
@settings(max_examples=80, deadline=None)
def test_hyperplane_frobenius_matches_explicit_restriction(seed, r):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((r, r))
    n = rng.standard_normal(r)
    n /= np.linalg.norm(n)
    frame = Frame(np.eye(r), InnerProduct.euclidean(r))
    hp = Hyperplane(frame, n)
    restricted = restrict_to_hyperplane(b, hp)
    direct = restricted_sum(b[None], n[None])[0]
    scale = 1.0 + float(np.sum(b * b))
    assert abs(float(np.sum(restricted * restricted)) - direct) <= FROB_TOL * scale


def test_hyperplane_frobenius_closed_form_symmetric():
    # For symmetric B the projector expansion collapses to
    # ||B||^2 - 2 ||B n||^2 + (n^T B n)^2.
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4))
    b = 0.5 * (b + b.T)
    n = rng.standard_normal(4)
    n /= np.linalg.norm(n)
    bn = b @ n
    expected = float(np.sum(b * b) - 2.0 * bn @ bn + (n @ bn) ** 2)
    assert restricted_sum(b[None], n[None])[0] == pytest.approx(expected, abs=1e-12)


def test_structure_operator_complex_square_rule():
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    op = StructureOperator(j, "almost-complex")
    assert op.dim == 2
    with pytest.raises(DegenerateInput):
        StructureOperator(np.eye(2), "almost-complex")


def test_structure_operator_contact_identities():
    phi = np.zeros((3, 3))
    phi[0, 1] = -1.0
    phi[1, 0] = 1.0
    xi = np.array([0.0, 0.0, 1.0])
    op = StructureOperator(phi, "almost-contact", xi=xi, eta=xi)
    assert np.allclose(op.matrix @ xi, 0.0)
    assert metric_compatibility_defect(op, InnerProduct.euclidean(3)) <= 1e-12
    with pytest.raises(DegenerateInput):
        StructureOperator(phi, "almost-contact", xi=xi, eta=2.0 * xi)


def test_structure_norm_squared_on_complex_plane():
    # J-invariant 2-plane carries |P|^2 = 2, a totally real one carries 0.
    j = np.zeros((4, 4))
    j[0, 1], j[1, 0], j[2, 3], j[3, 2] = -1.0, 1.0, -1.0, 1.0
    op = StructureOperator(j, "almost-complex")
    inner = InnerProduct.euclidean(4)
    invariant = Frame(np.eye(4)[[0, 1]], inner)
    real_plane = Frame(np.eye(4)[[0, 2]], inner)
    assert structure_norm_squared(invariant, op) == pytest.approx(2.0, abs=1e-14)
    assert structure_norm_squared(real_plane, op) == pytest.approx(0.0, abs=1e-14)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_structure_norm_bounded_by_frame_count(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = np.zeros((4, 4))
    s[0, 1], s[1, 0], s[2, 3], s[3, 2] = -1.0, 1.0, -1.0, 1.0
    op = StructureOperator(q @ s @ q.T, "almost-complex")
    inner = InnerProduct.euclidean(4)
    k = int(rng.integers(1, 5))
    frame = gram_schmidt(rng.standard_normal((k, 4)), inner)
    val = structure_norm_squared(frame, op)
    assert -1e-12 <= val <= k + 1e-12


def _contact_phi():
    phi = np.zeros((3, 3))
    phi[0, 1], phi[1, 0] = -1.0, 1.0
    return phi


def _contact_part(array, part):
    parts = {"matrix": _contact_phi(), "xi": np.eye(3)[2], "eta": np.eye(3)[2], part: array}
    op = StructureOperator(parts["matrix"], "almost-contact", xi=parts["xi"], eta=parts["eta"])
    return getattr(op, part)


def _base_point(array):
    sm = SmoothMap(flat_chart(2), flat_chart(2), identity_map())
    return CatalogEntry("frozen", KIND_MAP, sm, 2, array).base_point


# name: (template of the caller's array, the array the object stores from it)
FROZEN_CASES = {
    "FormCoefficients": (np.zeros((1, 3, 3)), lambda a: FormCoefficients(ROLE_B, a).coeffs),
    "InnerProduct": (np.eye(3), lambda a: InnerProduct(a).gram),
    "Frame": (np.eye(3), lambda a: Frame(a, InnerProduct.euclidean(3)).vectors),
    "Hyperplane": (
        np.eye(3)[2],
        lambda a: Hyperplane(Frame(np.eye(3), InnerProduct.euclidean(3)), a).unit_normal,
    ),
    "StructureOperator.matrix": (
        np.array([[0.0, -1.0], [1.0, 0.0]]),
        lambda a: StructureOperator(a, "almost-complex").matrix,
    ),
    "StructureOperator.contact-matrix": (_contact_phi(), lambda a: _contact_part(a, "matrix")),
    "StructureOperator.xi": (np.eye(3)[2], lambda a: _contact_part(a, "xi")),
    "StructureOperator.eta": (np.eye(3)[2], lambda a: _contact_part(a, "eta")),
    "CurvatureTensor": (np.zeros((2, 2, 2, 2)), lambda a: CurvatureTensor(a).components),
    "ChartMetric.domain_box": (
        np.array([[-1.0, 1.0], [-1.0, 1.0]]),
        lambda a: ChartMetric(2, lambda p: np.eye(2), a).domain_box,
    ),
    "CatalogEntry.base_point": (np.array([0.1, 0.2]), _base_point),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CASES))
def test_value_types_store_a_frozen_copy(name):
    template, stored_of = FROZEN_CASES[name]
    caller = template.copy()
    stored = stored_of(caller)
    before = stored.copy()
    assert not stored.flags.writeable
    caller[...] = 5.0  # the caller's array stays writable
    assert np.array_equal(stored, before)

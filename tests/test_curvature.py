import re

import numpy as np
import pytest

from casorati import catalog
from casorati.catalog import flat_chart, fubini_study_chart, round_sphere_chart
from casorati.curvature import (
    TENSOR_IDENTITY_TOL,
    ChartMetric,
    CurvatureTensor,
    christoffel,
    riemann_at,
    scalar_on_subspace,
)
from casorati.errors import DegenerateInput, DimensionMismatch, NearSingularMetric, OutOfDomain
from casorati.framecore import Frame, InnerProduct
from reference import riemann_through_christoffel_derivatives, sectional

FLAT_TOL = 1e-9
SECTIONAL_TOL = 1e-7
REFINED_TOL = 1e-8
# Largest measured gap to the oracle route, 1.3e-11 of (1 + max |R|) over the
# base point and ten sampled points of every catalog chart; 8x headroom.
ORACLE_REL_TOL = 1e-10
# Largest measured gap to the analytic conformal symbols, 6.4e-12 of
# (1 + max |Gamma|) over the base point and three sampled points of every
# catalog sphere chart; a separate first-difference stencil gave 1.0e-10 to 5.3e-10.
SPHERE_SYMBOLS_TOL = 2e-11
SIDES = [(e, side) for e in catalog.list_entries() for side in ("source", "target")]
SPHERE_SIDES = [
    (catalog.get(desc["id"]), side, desc[f"{side}_chart"].get("radius", 1.0))
    for desc in catalog.DESCRIPTIONS
    for side in ("source", "target")
    if desc[f"{side}_chart"]["builder"] == "sphere"
]


def _side(entry, side):
    """The chart of one side and a point on it: the base point or its image."""
    if side == "source":
        return entry.source_chart, entry.base_point
    return entry.target_chart, entry.smooth_map(entry.base_point)


def test_flat_chart_has_zero_curvature():
    chart = flat_chart(3)
    p = np.array([0.4, -1.2, 0.7])
    tensor = riemann_at(chart, p)
    assert np.abs(tensor.components).max() <= FLAT_TOL
    gamma = christoffel(chart, p)
    assert np.abs(gamma).max() <= FLAT_TOL


@pytest.mark.parametrize(
    "entry, side, radius", SPHERE_SIDES, ids=[f"{e.id}-{s}" for e, s, _ in SPHERE_SIDES]
)
def test_christoffel_matches_the_conformal_sphere_symbols(entry, side, radius):
    # g = e^{2 phi} I with e^phi = 2R^2 / (R^2 + |y|^2), so d_a phi = -2 y_a / (R^2 + |y|^2)
    # and Gamma^k_{ij} = delta_ki d_j phi + delta_kj d_i phi - delta_ij d_k phi.
    chart, base = _side(entry, side)
    box = chart.domain_box
    sampled = np.random.default_rng(7).uniform(0.5 * box[:, 0], 0.5 * box[:, 1], (3, chart.dim))
    eye = np.eye(chart.dim)
    for p in [base, *sampled]:
        dphi = -2.0 * p / (radius**2 + p @ p)
        want = (np.einsum("ki,j->kij", eye, dphi) + np.einsum("kj,i->kij", eye, dphi)
                - np.einsum("ij,k->kij", eye, dphi))
        got = christoffel(chart, p)
        assert np.abs(got - want).max() <= SPHERE_SYMBOLS_TOL * (1.0 + np.abs(want).max())


def test_christoffel_symmetric_in_lower_indices():
    chart = round_sphere_chart(3, radius=1.0)
    p = np.array([0.3, -0.2, 0.5])
    gamma = christoffel(chart, p)
    assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() <= 1e-8


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_round_sphere_sectional_curvature(radius):
    chart = round_sphere_chart(3, radius=radius)
    p = np.array([0.25, 0.1, -0.3])
    tensor = riemann_at(chart, p)
    inner = InnerProduct(chart.metric_at(p))
    rng = np.random.default_rng(0)
    for _ in range(4):
        x, y = rng.standard_normal((2, 3))
        k = sectional(tensor, inner, x, y)
        assert k == pytest.approx(1.0 / radius**2, abs=SECTIONAL_TOL)


def test_refinement_tightens_the_sphere_tensor():
    chart = round_sphere_chart(3, radius=1.0)
    p = np.array([0.2, 0.3, -0.1])
    inner = InnerProduct(chart.metric_at(p))
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    fine = abs(sectional(riemann_at(chart, p), inner, x, y) - 1.0)
    assert fine <= REFINED_TOL


def test_scalar_on_subspace_full_frame_of_unit_sphere():
    # sum over ordered pairs of K = r(r-1) * 1 = 6 on a unit 3-sphere frame.
    chart = round_sphere_chart(3, radius=1.0)
    p = np.array([0.15, -0.2, 0.1])
    tensor = riemann_at(chart, p)
    g = chart.metric_at(p)
    inner = InnerProduct(g)
    basis = np.linalg.cholesky(np.linalg.inv(g)).T
    frame = Frame(basis, inner)
    assert scalar_on_subspace(tensor, frame) == pytest.approx(6.0, abs=1e-6)


def test_fubini_study_holomorphic_pinching_at_origin():
    # At the origin the metric is euclidean and J is multiplication by i:
    # K(X, JX) = 4 while a totally real plane has K = 1 (c = 4 normalization).
    chart = fubini_study_chart(2)
    p = np.zeros(4)
    tensor = riemann_at(chart, p)
    inner = InnerProduct(chart.metric_at(p))
    e = np.eye(4)
    assert sectional(tensor, inner, e[0], e[1]) == pytest.approx(4.0, abs=1e-6)
    assert sectional(tensor, inner, e[0], e[2]) == pytest.approx(1.0, abs=1e-6)


def _two_form(*pairs):
    omega = np.zeros((4, 4))
    for a, b in pairs:
        omega[a, b], omega[b, a] = 1.0, -1.0
    return omega


SYMMETRIC = np.eye(4)
OMEGA, ETA = _two_form((0, 1)), _two_form((2, 3))
PLANTED = {
    "antisym_ij": np.einsum("ij,kl->ijkl", SYMMETRIC, OMEGA),
    "antisym_kl": np.einsum("ij,kl->ijkl", OMEGA, SYMMETRIC),
    "pair_sym": np.einsum("ij,kl->ijkl", OMEGA, ETA),
    # omega x omega with omega = e1^e2 + e3^e4 has every symmetry but the first Bianchi one.
    "bianchi": np.einsum("ij,kl->ijkl", OMEGA + ETA, OMEGA + ETA),
}


@pytest.mark.parametrize("identity", sorted(PLANTED))
def test_curvature_tensor_rejects_identity_violations(identity):
    with pytest.raises(DimensionMismatch, match="identities violated") as exc:
        CurvatureTensor(PLANTED[identity])
    named = re.findall(r"(\w+) ([-+.e\d]+)[,( ]", str(exc.value))  # "bianchi 1.00e+00, ..."
    defects = {name: float(value) for name, value in named}
    assert sorted(defects) == sorted(PLANTED)
    tol = TENSOR_IDENTITY_TOL * (1.0 + np.abs(PLANTED[identity]).max())
    assert defects[identity] > tol
    if identity == "bianchi":
        assert max(v for name, v in defects.items() if name != identity) <= tol


@pytest.mark.parametrize("entry, side", SIDES, ids=[f"{e.id}-{s}" for e, s in SIDES])
def test_riemann_at_matches_the_route_through_christoffel_derivatives(entry, side):
    # Richardson on the metric derivatives before one lowered assembly, against
    # the mixed-index assembly at each step with Richardson on the components:
    # the two differ by rounding and a higher-order remainder of the steps.
    chart, base = _side(entry, side)
    box = chart.domain_box
    sampled = np.random.default_rng(7).uniform(0.5 * box[:, 0], 0.5 * box[:, 1], (3, chart.dim))
    for p in [base, *sampled]:
        want = riemann_through_christoffel_derivatives(chart, p)
        got = riemann_at(chart, p).components
        assert np.abs(got - want).max() <= ORACLE_REL_TOL * (1.0 + np.abs(want).max())


def test_a_nan_tensor_violates_the_identities():
    with pytest.raises(DimensionMismatch, match="identities violated"):
        CurvatureTensor(np.full((2, 2, 2, 2), np.nan))


def test_a_metric_that_is_not_finite_on_the_stencil_is_refused():
    # Finite at p, NaN from x_0 = 0.1001 on: the step h = 1.1e-3 reaches past it.
    def metric(p):
        g = np.tile(np.eye(2), p.shape[:-1] + (1, 1))
        g[..., 0, 0] = np.where(p[..., 0] > 0.1001, np.nan, 1.0)
        return g

    chart = ChartMetric(2, metric, np.array([[-1.0, 1.0], [-1.0, 1.0]]), name="nan-edge")
    p = np.array([0.1, 0.0])
    assert np.isfinite(chart.metric_at(p)).all()
    for measure in (riemann_at, christoffel):
        with pytest.raises(NearSingularMetric, match="not finite .*'nan-edge'"):
            measure(chart, p)


def test_chart_domain_enforcement():
    chart = flat_chart(2, half_width=1.0)
    with pytest.raises(OutOfDomain):
        riemann_at(chart, np.array([5.0, 0.0]))
    with pytest.raises(OutOfDomain):
        chart.require_inside(np.array([0.999, 0.0]), 0.1)


@pytest.mark.parametrize(
    "box",
    [[[-1.0, np.nan]], [[-np.inf, 1.0]], [[-1.0, np.inf]], [[1.0, 1.0]], [[1.0, -1.0]]],
    ids=["nan", "minus-infinity", "infinity", "empty", "reversed"],
)
def test_a_box_that_is_not_finite_or_has_lo_not_below_hi_is_refused(box):
    with pytest.raises(DegenerateInput, match="needs finite rows lo < hi"):
        ChartMetric(1, lambda p: np.ones(p.shape + (1,)), box)


@pytest.mark.parametrize("half_width", [np.nan, np.inf, 0.0, -1.0])
def test_a_builder_half_width_that_gives_no_box_is_refused(half_width):
    with pytest.raises(DegenerateInput, match="needs finite rows lo < hi"):
        round_sphere_chart(2, half_width=half_width)


def test_anisotropic_chart_matches_closed_form():
    # g = diag(1, e^{2x}) on R^2 is hyperbolic-like with K = -1:
    # R_1212 = -e^{2x} in coordinates. Like every chart metric it takes
    # points of shape (..., 2).
    def metric(p):
        g = np.zeros(p.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = np.exp(2.0 * p[..., 0])
        return g

    chart = ChartMetric(2, metric, np.array([[-1.0, 1.0], [-1.0, 1.0]]), name="exp-strip")
    p = np.array([0.2, -0.3])
    tensor = riemann_at(chart, p)
    inner = InnerProduct(metric(p))
    assert sectional(tensor, inner, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        -1.0, abs=1e-7
    )

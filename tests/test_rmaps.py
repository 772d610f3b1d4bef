import numpy as np
import pytest

from casorati import catalog, rmaps
from casorati.catalog import (
    coordinate_projection,
    flat_chart,
    round_sphere_chart,
    stereographic_embedding,
    warped_line_chart,
)
from casorati.errors import GaussResidualExceeded, HypothesisViolated, RankDrop
from casorati.measures import ROLE_A, FormCoefficients, delta_casorati
from casorati.rmaps import (
    SmoothMap,
    gauss_map_scalars,
    gauss_submersion_horizontal,
    gauss_submersion_vertical,
    map_at_point,
    oneill_A,
    oneill_T,
    second_fundamental_form,
)
from reference import (
    map_at_point_by_gram_schmidt,
    oneill_A_via_bracket,
    oneill_A_via_projector,
    oneill_T_via_projector,
    orthonormality_defect,
)

FRAME_TOL = 1e-9
GAUSS_TOL = 1e-5
ROUTE_AGREEMENT_TOL = 1e-7
PROJECTOR_ROUTE_TOL = 1e-9
ORACLE_FRAME_TOL = 1e-12
# Largest measured |T norm^2 - exact| over the base point and three sampled
# points of each warped submersion, 1.5e-12 with Christoffel symbols from the
# extrapolated curvature stencil; a separate first-difference stencil gave
# 3.1e-10 to 1.0e-9.
WARPED_T_TOL = 1e-11
SUBMERSIONS = [e for e in catalog.list_entries() if e.kind == catalog.KIND_SUBMERSION]


def test_frames_of_the_sphere_immersion():
    entry = catalog.get("sphere-immersion-S3")
    mp = entry.instantiate()
    assert mp.rank == 3
    assert mp.m1 == 3 and mp.m2 == 4
    assert not mp.is_submersion
    assert mp.vertical_frame.count == 0
    assert mp.range_perp_frame.count == 1
    assert orthonormality_defect(mp.horizontal_frame) <= FRAME_TOL
    assert orthonormality_defect(mp.range_frame) <= FRAME_TOL


def test_sphere_second_fundamental_form_is_metric_multiple():
    # A unit sphere in flat space is totally umbilical with ||B||^2 = r.
    mp = catalog.get("sphere-immersion-S3").instantiate()
    b = second_fundamental_form(mp)
    assert b.normal_count == 1
    assert b.norm_squared() == pytest.approx(3.0, abs=1e-7)
    assert np.allclose(np.abs(b.coeffs[0]), np.eye(3), atol=1e-7)


def _projector(frame) -> np.ndarray:
    """The g-orthogonal projector onto the frame's span: v -> sum_i <e_i, v> e_i."""
    return frame.vectors.T @ frame.vectors @ frame.inner.gram


def _sides(entry, mp):
    if entry.kind == catalog.KIND_SUBMERSION:
        return (oneill_T(mp), oneill_A(mp))
    return (second_fundamental_form(mp),)


@pytest.mark.parametrize("entry", catalog.list_entries(), ids=lambda e: e.id)
def test_frames_span_what_the_gram_schmidt_oracle_spans(entry):
    # One SVD in orthonormal coordinates against each frame orthonormalized on
    # its own: the same subspaces, and the same basis-free numbers on each side.
    sampler = entry.source_chart.interior_sampler(np.random.default_rng(5), margin=0.1)
    for p in [np.asarray(entry.base_point, dtype=float)] + [sampler() for _ in range(3)]:
        mp = entry.instantiate(p)
        oracle = map_at_point_by_gram_schmidt(entry.smooth_map, p, entry.declared_rank)
        for name in ("vertical_frame", "horizontal_frame", "range_frame", "range_perp_frame"):
            got, want = getattr(mp, name), getattr(oracle, name)
            assert got.count == want.count
            assert np.abs(_projector(got) - _projector(want)).max() <= ORACLE_FRAME_TOL
        for got, want in zip(_sides(entry, mp), _sides(entry, oracle)):
            assert got.role == want.role and got.r == want.r
            pairs = [(got.norm_squared(), want.norm_squared())]
            if got.r >= 3:
                a, b = delta_casorati(got), delta_casorati(want)
                pairs += [(getattr(a, k), getattr(b, k))
                          for k in ("C", "C_L_inf", "C_L_sup", "delta_C", "delta_hat_C")]
            for x, y in pairs:
                assert abs(x - y) <= ORACLE_FRAME_TOL


@pytest.mark.parametrize(
    "sm, rank",
    [
        (SmoothMap(warped_line_chart(31), warped_line_chart(15),
                   coordinate_projection(list(range(16)), 32), "warped-line-32-16"), 16),
        (SmoothMap(round_sphere_chart(31), flat_chart(32), stereographic_embedding(), "S31-R32"),
         31),
    ],
    ids=["warped-line-32-to-16", "sphere-31-in-flat-32"],
)
def test_frames_pass_every_gate_on_32_coordinate_charts(sm, rank):
    p = np.linspace(-0.3, 0.4, sm.source.dim)
    mp = map_at_point(sm, p, declared_rank=rank)
    assert 32 in (mp.m1, mp.m2) and mp.rank == rank
    assert mp.vertical_frame.count == mp.m1 - rank
    assert mp.range_perp_frame.count == mp.m2 - rank
    for frame in (mp.vertical_frame, mp.horizontal_frame, mp.range_frame, mp.range_perp_frame):
        assert orthonormality_defect(frame) <= FRAME_TOL
    assert mp.nabla_fstar.shape == (mp.m2, mp.m1, mp.m1)  # the range-leak gate passes


def test_rank_drop_detection():
    entry = catalog.get("euclidean-projection-5-2")
    with pytest.raises(RankDrop):
        map_at_point(entry.smooth_map, np.asarray(entry.base_point), declared_rank=3)


def test_oneill_tensors_require_a_submersion():
    mp = catalog.get("sphere-immersion-S3").instantiate()
    with pytest.raises(HypothesisViolated):
        oneill_T(mp)
    with pytest.raises(HypothesisViolated):
        oneill_A(mp)
    # The horizontal identity reads B as empty, which only a submersion's is.
    with pytest.raises(HypothesisViolated):
        gauss_submersion_horizontal(mp, FormCoefficients(ROLE_A, np.zeros((0, 3, 3))))


def test_warped_product_T_is_minus_identity():
    # Fibers of (t, x) -> t with g = dt^2 + e^{2t} dx^2 have T_v w = -g(v,w) d_t.
    mp = catalog.get("warped-product-R-x-R3").instantiate()
    t = oneill_T(mp)
    assert t.normal_count == 1
    assert np.allclose(np.abs(t.coeffs[0]), np.eye(3), atol=1e-6)
    assert t.norm_squared() == pytest.approx(3.0, abs=1e-6)
    assert t.trace_vector_norm_squared() == pytest.approx(9.0, abs=1e-5)


@pytest.mark.parametrize("entry_id, fibre_dim", [("warped-product-R-x-R3", 3),
                                                  ("kenmotsu-H5-H3", 2)])
def test_warped_T_norm_is_the_fibre_dimension(entry_id, fibre_dim):
    # Each fibre direction v of a warping e^{2t} has T_v v = -g(v, v) d_t, so ||T||^2 = k.
    entry = catalog.get(entry_id)
    sampler = entry.source_chart.interior_sampler(np.random.default_rng(3), margin=0.1)
    for p in [entry.base_point] + [sampler() for _ in range(3)]:
        t = oneill_T(entry.instantiate(p))
        assert abs(t.norm_squared() - fibre_dim) <= WARPED_T_TOL


def test_flat_projection_has_vanishing_tensors():
    mp = catalog.get("euclidean-projection-5-2").instantiate()
    assert oneill_T(mp).norm_squared() <= 1e-12
    assert oneill_A(mp).norm_squared() <= 1e-12


def test_hopf_A_tensor_norm_and_trace():
    mp = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    a = oneill_A(mp)
    assert a.norm_squared() == pytest.approx(12.0, abs=1e-2)
    assert np.abs(np.trace(a.coeffs, axis1=1, axis2=2)).max() <= 1e-10
    t = oneill_T(mp)
    assert np.abs(t.coeffs).max() <= 1e-6  # totally geodesic fibers


def test_hopf_A_bracket_route_agrees():
    mp = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    a = oneill_A(mp)
    b = oneill_A_via_bracket(mp)
    scale = 1.0 + np.abs(a.coeffs).max()
    assert np.abs(a.coeffs - b.coeffs).max() <= ROUTE_AGREEMENT_TOL * scale


def test_complex_hopf_A_norm():
    mp = catalog.get("complex-hopf-S3-S2").instantiate()
    assert oneill_A(mp).norm_squared() == pytest.approx(2.0, abs=1e-3)


def test_gauss_identity_for_the_sphere_map():
    mp = catalog.get("sphere-immersion-S3").instantiate()
    b = second_fundamental_form(mp)
    pair = gauss_map_scalars(mp, b)
    assert pair.r == 3
    assert abs(pair.residual) <= GAUSS_TOL
    # source horizontal curvature 6 (unit S^3), flat target: 6 = 0 + 9 - 3
    assert pair.left_2scal == pytest.approx(6.0, abs=1e-4)
    assert pair.right_2scal == pytest.approx(0.0, abs=1e-4)
    assert pair.rho_left == pytest.approx(1.0, abs=1e-5)


def test_gauss_identity_vertical_warped():
    mp = catalog.get("warped-product-R-x-R3").instantiate()
    pair = gauss_submersion_vertical(mp, oneill_T(mp))
    # flat fibers over ambient 2scal^V = -6: 0 = -6 + 9 - 3
    assert pair.left_2scal == pytest.approx(0.0, abs=1e-4)
    assert pair.right_2scal == pytest.approx(-6.0, abs=1e-4)
    assert abs(pair.residual) <= GAUSS_TOL


def test_gauss_identity_horizontal_hopf():
    mp = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    a = oneill_A(mp)
    pair = gauss_submersion_horizontal(mp, a=a)
    # base S^4(1/2) has 2scal = 48; horizontal in S^7: 48 = 12 + 3 * 12
    assert pair.left_2scal == pytest.approx(48.0, abs=1e-2)
    assert pair.right_2scal == pytest.approx(12.0, abs=1e-2)
    assert abs(pair.residual) <= GAUSS_TOL * (1.0 + 48.0 + 12.0)


def test_gauss_identity_vertical_hopf_fibers():
    # Totally geodesic S^3 fibers: intrinsic = ambient restriction = 6.
    mp = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    pair = gauss_submersion_vertical(mp, oneill_T(mp))
    assert pair.left_2scal == pytest.approx(6.0, abs=1e-3)
    assert pair.right_2scal == pytest.approx(6.0, abs=1e-3)


def test_kenmotsu_A_vanishes():
    mp = catalog.get("kenmotsu-H5-H3").instantiate()
    assert oneill_A(mp).norm_squared() <= 1e-10


@pytest.mark.parametrize("entry", SUBMERSIONS, ids=lambda e: e.id)
def test_T_and_A_match_the_projector_route(entry):
    # Contractions of nabla F* against the finite-difference derivative of the
    # vertical projector field, at the base point and three random points.
    assert len(SUBMERSIONS) == 6
    sampler = entry.source_chart.interior_sampler(np.random.default_rng(4), margin=0.1)
    for p in [np.asarray(entry.base_point, dtype=float)] + [sampler() for _ in range(3)]:
        mp = entry.instantiate(p)
        routes = ((oneill_T, oneill_T_via_projector), (oneill_A, oneill_A_via_projector))
        for ours, reference in routes:
            want = reference(mp).coeffs
            got = ours(mp).coeffs
            scale = 1.0 + np.abs(want).max(initial=0.0)
            assert np.abs(got - want).max(initial=0.0) <= PROJECTOR_ROUTE_TOL * scale


def test_horizontal_gauss_gate_fails_on_a_scaled_A():
    mp = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    a = oneill_A(mp)
    gauss_submersion_horizontal(mp, a)
    with pytest.raises(GaussResidualExceeded):
        gauss_submersion_horizontal(mp, FormCoefficients(ROLE_A, 1.01 * a.coeffs))


HORIZONTAL_SLIPS = {
    # O'Neill's 3||A||^2 term 1 % high
    "A": lambda identity: lambda mp, trace_sq, b_norm_sq, a_norm_sq, name: identity(
        mp, trace_sq, b_norm_sq, 1.01 * a_norm_sq, name
    ),
    # the Gauss ||B||^2 term 1 % high
    "B": lambda identity: lambda mp, trace_sq, b_norm_sq, a_norm_sq, name: identity(
        mp, trace_sq, 1.01 * b_norm_sq, a_norm_sq, name
    ),
}
# The entries whose base point trips the horizontal gate under each slip. The
# others have A = 0 and B = 0 there, so neither slip can move their residual.
CATCHES_SLIP = {
    "A": {"quaternionic-hopf-S7-S4", "complex-hopf-S3-S2", "sasakian-R5-model"},
    "B": {"sphere-immersion-S3"},
}


@pytest.mark.parametrize("slip", sorted(HORIZONTAL_SLIPS))
def test_horizontal_identity_catches_a_slipped_term(monkeypatch, slip):
    def trips(entry) -> bool:
        mp = entry.instantiate()
        try:
            if entry.kind == catalog.KIND_SUBMERSION:
                gauss_submersion_horizontal(mp, oneill_A(mp))
            else:
                gauss_map_scalars(mp, second_fundamental_form(mp))
        except GaussResidualExceeded:
            return True
        return False

    entries = catalog.list_entries()
    assert not any(trips(e) for e in entries)
    monkeypatch.setattr(
        rmaps, "_horizontal_identity", HORIZONTAL_SLIPS[slip](rmaps._horizontal_identity)
    )
    assert {e.id for e in entries if trips(e)} == CATCHES_SLIP[slip]

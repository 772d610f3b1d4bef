import json
from collections import Counter

import numpy as np
import pytest

from casorati import catalog, measures, rmaps, verify
from casorati.cli import main
from casorati.errors import BranchUndetermined, DegenerateInput, HypothesisViolated
from casorati.framecore import Frame, InnerProduct, StructureOperator, gram_schmidt
from casorati.measures import ROLE_A, ROLE_B, ROLE_T, delta_casorati
from casorati.spaceforms import NamedFamily, family_constants
from casorati.verify import (
    REGISTRY,
    THEOREM_IDS,
    XiPosition,
    classify_invariance,
    rhs_for,
    theorem_info,
    verify_geometry,
    verify_synthetic,
    xi_position,
)
from reference import (
    invariance_by_loops,
    make_equality_shape,
    specialization_deviation,
    xi_position_by_loops,
)

RESIDUAL_SCALE_TOL = 1e-8
EQ_TOL = 1e-7
SPECIALIZATION_TOL = 1e-12

EXPECTED_IDS = (
    "map-general",
    "map-gcsf",
    "map-gcsf-invariant",
    "map-gcsf-antiinvariant",
    "map-gssf",
    "map-gssf-invariant",
    "map-gssf-antiinvariant",
    "sub-vert-general",
    "sub-vert-gcsf",
    "sub-vert-gcsf-inv",
    "sub-vert-gcsf-anti",
    "sub-vert-gssf",
    "sub-vert-gssf-inv",
    "sub-vert-gssf-anti",
    "sub-hor-general",
    "sub-hor-gcsf",
    "sub-hor-gssf",
)


def test_registry_is_complete_pinned():
    assert THEOREM_IDS == EXPECTED_IDS
    assert len(REGISTRY) == 17
    assert theorem_info("map-gssf").needs_xi
    assert not theorem_info("map-gcsf").needs_xi
    with pytest.raises(DegenerateInput):
        theorem_info("map-lorentz")


def _contact_op():
    phi = np.zeros((5, 5))
    phi[0, 1], phi[1, 0] = -1.0, 1.0
    phi[2, 3], phi[3, 2] = -1.0, 1.0
    xi = np.eye(5)[4]
    return StructureOperator(phi, "almost-contact", xi=xi, eta=xi)


def test_xi_position_branches():
    inner = InnerProduct.euclidean(5)
    xi = np.eye(5)[4]
    tangent = xi_position(xi, Frame(np.eye(5)[[0, 1, 4]], inner))
    assert tangent.tangent and tangent.projection_defect <= 1e-12
    normal = xi_position(xi, Frame(np.eye(5)[[0, 1, 2]], inner))
    assert normal.position == "normal"
    oblique_frame = Frame(
        np.vstack([np.eye(5)[0], (np.eye(5)[1] + np.eye(5)[4]) / np.sqrt(2.0)]), inner
    )
    with pytest.raises(BranchUndetermined):
        xi_position(xi, oblique_frame)


def test_classify_invariance_three_ways():
    op = _contact_op()
    inner = InnerProduct.euclidean(5)
    inv = classify_invariance(Frame(np.eye(5)[[0, 1]], inner), op)
    assert inv.label == "invariant" and inv.pnorm2 == pytest.approx(2.0)
    anti = classify_invariance(Frame(np.eye(5)[[0, 2]], inner), op)
    assert anti.label == "anti-invariant" and anti.pnorm2 <= 1e-12
    theta = 0.3
    mixed = np.vstack([np.eye(5)[0], np.cos(theta) * np.eye(5)[1] + np.sin(theta) * np.eye(5)[2]])
    generic = classify_invariance(Frame(mixed, inner), op)
    assert generic.label == "generic"
    assert generic.pnorm2 == pytest.approx(2.0 * np.cos(theta) ** 2, abs=1e-12)


def test_trivial_structure_counts_as_anti_invariant():
    inner = InnerProduct.euclidean(3)
    op = StructureOperator(np.zeros((3, 3)), "trivial")
    out = classify_invariance(Frame(np.eye(3), inner), op)
    assert out.label == "anti-invariant"
    assert out.pnorm2 == 0.0


# Largest |vectorised - per-vector loop| defect, relative to 1 + the loop's
# value: 8.3e-17 on the catalog frames below, 6.0e-16 on the planted frames
# of seeds 0-1999.
PROJECTION_AGREEMENT_TOL = 2e-15


def _assert_matches_the_loops(frame, op):
    label, leakage, retention = invariance_by_loops(frame, op)
    got = classify_invariance(frame, op)
    assert got.label == label
    assert abs(got.leakage_defect - leakage) <= PROJECTION_AGREEMENT_TOL * (1.0 + leakage)
    assert abs(got.retention_defect - retention) <= PROJECTION_AGREEMENT_TOL * (1.0 + retention)
    if op.kind != "almost-contact":
        return
    position, tangent_defect, normal_defect = xi_position_by_loops(op.xi, frame)
    if position == "oblique":
        with pytest.raises(BranchUndetermined):
            xi_position(op.xi, frame)
        return
    got = xi_position(op.xi, frame)
    want = tangent_defect if position == "tangent" else normal_defect
    assert got.position == position
    assert abs(got.projection_defect - want) <= PROJECTION_AGREEMENT_TOL * (1.0 + want)


@pytest.mark.parametrize("entry", catalog.list_entries(), ids=lambda e: e.id)
def test_projections_match_the_per_vector_loops_on_catalog_frames(entry):
    rng = np.random.default_rng(7)
    sampler = entry.source_chart.interior_sampler(rng, margin=0.1)
    sides = ("map",) if entry.kind == catalog.KIND_MAP else ("sub-vert", "sub-hor")
    for point in [entry.base_point, *(sampler() for _ in range(3))]:
        ev = verify.PointEvaluation(entry, point)
        for side in sides:
            if ev.frame(side).count:
                _assert_matches_the_loops(ev.frame(side), ev.spec.structure)


def _planted_structure(rng, blocks, contact):
    """(basis Q, inner product, structure): J = Q S Q^-1 on 2 blocks
    coordinates, or phi with xi = the last column of Q on 2 blocks + 1, and
    g = (Q Q^T)^-1, under which the columns of Q are orthonormal. Q has
    singular values in [0.5, 2]."""
    dim = 2 * blocks + contact
    u, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = u @ np.diag(rng.uniform(0.5, 2.0, dim)) @ v
    s = np.zeros((dim, dim))
    for b in range(blocks):
        s[2 * b + 1, 2 * b], s[2 * b, 2 * b + 1] = 1.0, -1.0
    q_inv = np.linalg.inv(q)
    inner = InnerProduct(np.linalg.inv(q @ q.T))
    if not contact:
        return q, inner, StructureOperator(q @ s @ q_inv, "almost-complex")
    op = StructureOperator(q @ s @ q_inv, "almost-contact", xi=q[:, -1], eta=q_inv[-1])
    return q, inner, op


@pytest.mark.parametrize("seed", range(8))
def test_projections_match_the_per_vector_loops_on_planted_frames(seed):
    rng = np.random.default_rng(seed)
    blocks = int(rng.integers(2, 5))
    for contact in (0, 1):
        q, inner, op = _planted_structure(rng, blocks, contact)
        dim = q.shape[0]
        # Rows: a J-invariant pair of pairs, one vector of each pair, a random span.
        planted = {
            "invariant": q[:, :4].T,
            "anti-invariant": q[:, 0:2 * blocks:2].T,
            "generic": rng.standard_normal((3, dim)),
        }
        if contact:
            xi = q[:, -1]
            planted["invariant"] = np.vstack([planted["invariant"], xi])
            planted["oblique"] = np.vstack([q[:, 0], q[:, 2] + xi])
        for name, rows in planted.items():
            frame = gram_schmidt(rows, inner)
            _assert_matches_the_loops(frame, op)
            if name != "oblique":
                assert classify_invariance(frame, op).label == name


def _toy_report(r=4):
    return delta_casorati(make_equality_shape(ROLE_B, [1.0], r))


def test_rhs_for_model_theorems():
    rep = _toy_report(4)
    consts = family_constants(NamedFamily("complex", 4.0))  # c1 = c2 = 1
    # invariant: |P|^2 = r, reference = 1 + 3 * 4 / 12 = 2
    rhs = rhs_for("map-gcsf-invariant", "delta", 4, rep, constants=consts)
    assert rhs == pytest.approx(rep.delta_C + 2.0, abs=1e-12)
    # anti-invariant: reference = c1
    rhs = rhs_for("map-gcsf-antiinvariant", "delta-hat", 4, rep, constants=consts)
    assert rhs == pytest.approx(rep.delta_hat_C + 1.0, abs=1e-12)
    # generic needs |P|^2 explicitly
    rhs = rhs_for("map-gcsf", "delta", 4, rep, constants=consts, pnorm2=2.0)
    assert rhs == pytest.approx(rep.delta_C + 1.5, abs=1e-12)
    with pytest.raises(DegenerateInput):
        rhs_for("map-gcsf", "delta", 4, rep, constants=consts)


def test_rhs_for_invariant_contact_branches():
    rep = _toy_report(4)
    c1, c2, c3 = consts = family_constants(NamedFamily("sasakian", -3.0))
    # xi normal: |P|^2 = r; xi tangent: phi xi = 0 leaves |P|^2 = r - 1 and adds -2 c3 / r
    normal = rhs_for("sub-vert-gssf-inv", "delta", 4, rep, constants=consts,
                     xi=XiPosition("normal", 0.0))
    assert normal == pytest.approx(rep.delta_C + c1 + 3.0 * c2 / 3.0, abs=1e-12)
    tangent = rhs_for("sub-vert-gssf-inv", "delta", 4, rep, constants=consts,
                      xi=XiPosition("tangent", 0.0))
    assert tangent == pytest.approx(rep.delta_C + c1 + 3.0 * c2 / 4.0 - c3 / 2.0, abs=1e-12)


def test_rhs_for_error_paths():
    rep = _toy_report(4)
    with pytest.raises(DegenerateInput):
        rhs_for("map-general", "delta", 4, rep)  # missing rho_reference
    with pytest.raises(DegenerateInput):
        rhs_for("map-general", "midpoint", 4, rep, rho_reference=0.0)
    with pytest.raises(HypothesisViolated):
        rhs_for("map-general", "delta", 2, _toy_report(3), rho_reference=0.0)
    sasakian = family_constants(NamedFamily("sasakian", -3.0))
    with pytest.raises(BranchUndetermined):
        rhs_for("map-gssf", "delta", 4, rep, constants=sasakian, pnorm2=1.0)


def test_sphere_immersion_residual_one_sixth():
    reports = verify_geometry("map-general", "sphere-immersion-S3")
    assert len(reports) == 2  # both variants
    for rep in reports:
        assert rep.holds
        assert rep.lhs == pytest.approx(1.0, abs=1e-6)
        assert rep.residual == pytest.approx(1.0 / 6.0, abs=1e-6)
        assert not rep.equality.is_equality_shape
        assert rep.xi_branch == "absent"


def test_kenmotsu_horizontal_equality():
    reports = verify_geometry("sub-hor-gssf", "kenmotsu-H5-H3")
    for rep in reports:
        assert rep.holds
        assert rep.xi_branch == "tangent"
        assert abs(rep.residual) <= EQ_TOL * (1.0 + abs(rep.rhs))
        assert rep.equality.is_equality_shape  # A vanishes identically


def test_cp2_identity_map_is_invariant_equality():
    reports = verify_geometry("map-gcsf-invariant", "fubini-study-CP2")
    for rep in reports:
        assert rep.holds
        assert rep.invariance == "invariant"
        if rep.variant == "delta":
            assert abs(rep.residual) <= EQ_TOL * (1.0 + abs(rep.rhs))
        assert rep.equality.is_equality_shape


def test_hopf_sub_hor_is_strict():
    reports = verify_geometry("sub-hor-general", "quaternionic-hopf-S7-S4")
    for rep in reports:
        assert rep.holds
        assert rep.residual > 1e-3  # far from equality
        assert not rep.equality.is_equality_shape


def test_invariance_gate_refuses_mismatched_geometry():
    # the sphere immersion's range is anti-invariant (trivial J), never invariant
    with pytest.raises(HypothesisViolated):
        verify_geometry("map-gcsf-invariant", "sphere-immersion-S3")


def test_family_kind_gates():
    with pytest.raises(HypothesisViolated):
        verify_geometry("map-gssf", "sphere-immersion-S3")  # real family, needs contact
    with pytest.raises(HypothesisViolated):
        verify_geometry("sub-hor-gcsf", "sasakian-R5-model")  # contact family on a gcsf id
    with pytest.raises(HypothesisViolated):
        verify_geometry("sub-vert-general", "sphere-immersion-S3")  # not a submersion


@pytest.mark.parametrize("points", [0, -1, [], (), True, 2.5])
def test_sample_count_must_be_positive(points):
    # No points would pass vacuously, True would count as 1, and 2.5 failed untyped.
    with pytest.raises(DegenerateInput, match="points"):
        verify_geometry("map-general", "sphere-immersion-S3", points=points)


def test_an_empty_theorem_list_is_refused():
    with pytest.raises(DegenerateInput, match="no theorem"):
        verify_geometry([], "sphere-immersion-S3")


@pytest.mark.parametrize(
    "geometry", [123, None, {"id": "sphere-immersion-S3"}, ["sphere-immersion-S3"]],
    ids=["int", "none", "dict", "list"],
)
def test_a_geometry_that_is_neither_an_id_nor_an_entry_is_refused(geometry):
    # These used to raise AttributeError on the entry's base_point.
    with pytest.raises(DegenerateInput, match="geometry must be a catalog id or a CatalogEntry"):
        verify_geometry("map-general", geometry)


@pytest.mark.parametrize("theorem", [True, 3, None])
def test_a_theorem_that_is_neither_an_id_nor_a_sequence_is_refused(theorem):
    with pytest.raises(DegenerateInput, match="theorem must be an id"):
        verify_geometry(theorem, "sphere-immersion-S3")


@pytest.mark.parametrize("trials", [True, 1.5, 0, -3])
def test_trial_count_must_be_a_positive_integer(trials):
    with pytest.raises(DegenerateInput, match="trials"):
        verify_synthetic("map-general", trials)


def test_r_threshold_gate():
    with pytest.raises(HypothesisViolated):
        verify_geometry("sub-hor-general", "complex-hopf-S3-S2")  # r = 2


@pytest.mark.parametrize(
    "theorem",
    ["map-general", "map-gssf-invariant", "sub-vert-gcsf-anti", "sub-hor-gssf"],
)
def test_synthetic_fuzz_smoke(theorem):
    out = verify_synthetic(theorem, trials=2000, seed=3)
    assert out["trials"] == 2000
    assert out["failures"] == 0
    assert out["min_residual"] >= -RESIDUAL_SCALE_TOL
    assert out["equality_hits"] == 2000 // 16


@pytest.mark.parametrize("theorem", ["map-general", "sub-vert-gssf"])
def test_synthetic_fuzz_catches_a_shrunk_delta(monkeypatch, theorem):
    # The equality trials sit exactly on the bound, so a delta 1% too small fails there.
    original = verify.delta_pair
    monkeypatch.setattr(verify, "delta_pair", lambda *args: tuple(0.99 * d for d in original(*args)))
    out = verify_synthetic(theorem, trials=2000, seed=3)
    assert out["failures"] >= 2000 // 16
    assert out["equality_hits"] == 0


def test_synthetic_summary_depends_only_on_the_role():
    # The curvature reference cancels from both sides, so ids of one role agree.
    general = verify_synthetic("map-general", trials=2000, seed=5)
    model = verify_synthetic("map-gssf-invariant", trials=2000, seed=5)
    assert {**general, "theorem": None} == {**model, "theorem": None}


@pytest.mark.parametrize(
    "theorem,geometry",
    [
        ("map-gcsf", "fubini-study-CP2"),
        ("sub-vert-gcsf", "quaternionic-hopf-S7-S4"),
        ("sub-hor-gssf", "kenmotsu-H5-H3"),
    ],
)
def test_geometries_catch_a_shifted_model_term(monkeypatch, theorem, geometry):
    # The synthetic fuzz cannot see the model term; measured chart curvature can.
    base = verify_geometry(theorem, geometry)
    original = verify.model_reference_part
    monkeypatch.setattr(verify, "model_reference_part", lambda *args: original(*args) - 0.01)
    shifted = verify_geometry(theorem, geometry)
    for before, after in zip(base, shifted, strict=True):
        assert before.holds and not after.holds
        assert after.residual == pytest.approx(before.residual - 0.01, abs=1e-12)


def test_synthetic_fuzz_is_deterministic():
    a = verify_synthetic("map-gcsf", trials=500, seed=11)
    b = verify_synthetic("map-gcsf", trials=500, seed=11)
    assert a == b


def test_synthetic_each_fuzzes_once_per_kind_of_data(monkeypatch):
    ids = list(verify.THEOREM_IDS)
    expected = [verify_synthetic(t, trials=200, seed=4) for t in ids]
    calls = []

    def counting(theorem, trials, seed=0):
        calls.append(theorem)
        return verify_synthetic(theorem, trials, seed=seed)

    monkeypatch.setattr(verify, "verify_synthetic", counting)
    assert verify.verify_synthetic_each(ids, trials=200, seed=4) == expected
    assert len(calls) == 2


def test_specialization_deviation_small():
    assert specialization_deviation(samples=300, seed=5) <= SPECIALIZATION_TOL


def test_verify_all_computes_each_point_once(monkeypatch, capsys):
    # Every theorem tagged on the Hopf fibration shares one evaluation per point:
    # one map, one nabla F* (one set of Hessians), one source and one target
    # curvature tensor, and one extremum per (point, side), however many
    # theorems read them.
    counts = Counter()

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[(name, *key(*args, **kwargs))] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    entry = catalog.get("quaternionic-hopf-S7-S4")
    source = entry.source_chart
    counting(catalog, "map_at_point", lambda sm, p, **kw: (tuple(p),))
    counting(rmaps.SmoothMap, "component_hessians", lambda sm, p: (tuple(p),))
    counting(rmaps, "riemann_at", lambda chart, p, **kw: (chart is source, tuple(p)))
    counting(verify, "delta_casorati", lambda coeffs, **kw: (coeffs.role,))

    argv = ["verify", "--theorem", "all", "--geometry", entry.id, "--samples", "2", "--json"]
    assert main(argv) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    points = {tuple(r["point"]) for r in reports}
    assert len(points) == 2
    assert len({r["theorem"] for r in reports}) == len(entry.hypothesis_tags) == 5
    for p in points:
        assert counts["map_at_point", p] == 1
        assert counts["component_hessians", p] == 1
        assert counts["riemann_at", True, p] == 1
        assert counts["riemann_at", False, tuple(entry.smooth_map(np.asarray(p)))] == 1
    assert counts["delta_casorati", ROLE_T] == counts["delta_casorati", ROLE_A] == 2
    assert sum(counts.values()) == 2 + 2 + 2 + 2 + 4


def test_each_point_reads_the_map_once_and_builds_B_only_for_maps(monkeypatch, capsys):
    # invariants on every entry and verify on every tagged one, one point per
    # run: F is evaluated once per point (its Jacobians evaluate the function
    # itself, not the map), and B is built once per point of a map entry and
    # never at a point of a submersion, whose range-perp frame is empty.
    evaluated, built = [], []
    call = rmaps.SmoothMap.__call__
    build_b = rmaps.second_fundamental_form

    def counting_call(sm, p):
        evaluated.append((sm.name, tuple(p)))
        return call(sm, p)

    def counting_b(mp):
        built.append((mp.smooth_map.name, tuple(mp.point)))
        return build_b(mp)

    monkeypatch.setattr(rmaps.SmoothMap, "__call__", counting_call)
    for module in (rmaps, verify):
        monkeypatch.setattr(module, "second_fundamental_form", counting_b)

    runs = [["invariants", "--geometry", e.id] for e in catalog.list_entries()]
    runs += [
        ["verify", "--theorem", "all", "--geometry", e.id, "--samples", "1"]
        for e in catalog.list_entries() if e.hypothesis_tags
    ]
    assert len(runs) == 9 + 7
    map_points = []
    for argv in runs:
        evaluated.clear()
        assert main([*argv, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        points = report["reports"] if "reports" in report else [report]
        point = tuple(points[0]["point"])
        assert {tuple(r["point"]) for r in points} == {point}
        assert evaluated == [(argv[argv.index("--geometry") + 1], point)], argv
        if catalog.get(argv[argv.index("--geometry") + 1]).kind == catalog.KIND_MAP:
            map_points.append(evaluated[0])
    assert len(map_points) == 3 + 2
    assert sorted(built) == sorted(map_points)


@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -np.inf, -1.0, None, "1e-6"])
def test_verify_geometry_rejects_a_tolerance_that_is_not_finite_and_non_negative(tolerance):
    with pytest.raises(DegenerateInput, match="tolerance"):
        verify.verify_geometry("map-general", "sphere-immersion-S3", tolerance=tolerance)


@pytest.mark.parametrize(
    "seed",
    [-1, 1.5, "3", None, True, np.random.default_rng(0)],
    ids=["negative", "float", "str", "None", "bool", "Generator"],
)
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    # None would draw fresh entropy, so two identical calls would differ.
    coeffs = measures.FormCoefficients(ROLE_B, np.eye(3)[None].repeat(2, axis=0))
    with pytest.raises(DegenerateInput, match="seed"):
        delta_casorati(coeffs, seed=seed)
    with pytest.raises(DegenerateInput, match="seed"):
        verify_geometry("map-general", "sphere-immersion-S3", seed=seed)
    with pytest.raises(DegenerateInput, match="seed"):
        verify_synthetic("map-general", 16, seed=seed)


def _grid_draws(monkeypatch) -> list:
    """Every grid ``measures._grid_directions`` returns from a fresh cache, in call order."""
    monkeypatch.setattr(measures, "_GRIDS", {})
    grids, grid_directions = [], measures._grid_directions

    def recording(*args):
        grids.append(grid_directions(*args))
        return grids[-1]

    monkeypatch.setattr(measures, "_grid_directions", recording)
    return grids


def test_verify_geometry_draws_each_grid_once(monkeypatch):
    # Three points certify the r = 3 fibres (T, s = 4) against the grid: one
    # draw, not one per point. The r = 4 horizontal spaces (A) have a closed
    # form, which is proved, and draw no grid.
    grids = _grid_draws(monkeypatch)
    entry = catalog.get("quaternionic-hopf-S7-S4")
    reports = verify.verify_geometry(list(entry.hypothesis_tags), entry, points=3, seed=7)
    assert all(r.holds for r in reports)
    assert len(grids) == 3 and len({id(g) for g in grids}) == 1
    assert {len(g) for g in grids} == {30_003}
    horizontal = [rep for rep in reports if rep.theorem.startswith("sub-hor")]
    assert horizontal and all(rep.casorati.certified is True for rep in horizontal)


def test_verify_geometry_draws_one_grid_per_r_whatever_the_seed(monkeypatch):
    # The certification grid does not follow the caller's seed: two seeds
    # (neither of them measures.GRID_SEED) share one r = 3 grid on the side
    # that still reaches it, the Hopf fibres (T, s = 4). The vertical spaces
    # of the projection (T, s = 2, all coefficients 0) and the r = 4 sides of
    # the Hopf map (A) and of CP^2 (B, s = 0) have closed forms and draw none.
    grids = _grid_draws(monkeypatch)
    for geometry in ("quaternionic-hopf-S7-S4", "euclidean-projection-5-2", "fubini-study-CP2"):
        entry = catalog.get(geometry)
        for seed in (7, 8):
            reports = verify.verify_geometry(list(entry.hypothesis_tags), entry, points=1, seed=seed)
            assert all(r.holds and r.casorati.certified is True for r in reports)
    assert len(grids) == 2 and len({id(g) for g in grids}) == 1
    assert {len(g) for g in grids} == {30_003}


@pytest.mark.parametrize(
    "geometry,residual", [("sasakian-R5-model", 1.0), ("quaternionic-hopf-S7-S4", 3.0)]
)
def test_map_general_on_submersions_carries_the_A_term(capsys, geometry, residual):
    # B vanishes on a submersion, so the map bound's residual is the
    # integrability term 3||A||^2 / (r(r-1)) of the horizontal Gauss identity.
    mp = catalog.get(geometry).instantiate()
    r = mp.rank
    a_term = 3.0 * rmaps.oneill_A(mp).norm_squared() / (r * (r - 1))
    assert a_term == pytest.approx(residual, abs=1e-2)
    assert main(["verify", "--theorem", "map-general", "--geometry", geometry, "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [rep["variant"] for rep in reports] == ["delta", "delta-hat"]
    for rep in reports:
        assert rep["holds"]
        assert rep["residual"] == pytest.approx(residual, abs=1e-6)

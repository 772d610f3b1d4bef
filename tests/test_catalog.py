import json

import numpy as np
import pytest

from casorati import catalog
from casorati.errors import DegenerateInput, OutOfDomain
from casorati.rmaps import COMPLEX_STEP
from casorati.rmaps import (
    gauss_map_scalars,
    gauss_submersion_horizontal,
    gauss_submersion_vertical,
    oneill_A,
    oneill_T,
    second_fundamental_form,
)
from reference import (
    CHART_VALIDATION_TOL,
    hopf_complex,
    hopf_quaternionic,
    validate_against_chart,
)

EXPECTED_IDS = {
    "euclidean-projection-5-2",
    "sphere-immersion-S3",
    "fubini-study-CP1-CP2",
    "fubini-study-CP2",
    "warped-product-R-x-R3",
    "quaternionic-hopf-S7-S4",
    "complex-hopf-S3-S2",
    "sasakian-R5-model",
    "kenmotsu-H5-H3",
}

GAUSS_SAMPLE_TOL = 1e-5


def test_catalog_inventory():
    entries = catalog.list_entries()
    assert {e.id for e in entries} == EXPECTED_IDS
    with pytest.raises(DegenerateInput):
        catalog.get("moebius-strip")


@pytest.mark.parametrize("entry", catalog.list_entries(), ids=lambda e: e.id)
def test_entry_instantiates_at_base_point(entry):
    mp = entry.instantiate()
    assert mp.rank == entry.declared_rank
    if entry.kind == catalog.KIND_SUBMERSION:
        assert mp.is_submersion
    assert entry.vertical_dim == mp.m1 - mp.rank
    assert entry.summary()


@pytest.mark.parametrize("entry", catalog.list_entries(), ids=lambda e: e.id)
def test_entry_matches_declared_space_form(entry):
    if entry.family is None:
        pytest.skip("no declared family")
    chart = entry.source_chart if entry.spaceform_side == "source" else entry.target_chart
    p = np.asarray(entry.base_point, dtype=float)
    side_point = p if entry.spaceform_side == "source" else entry.smooth_map(p)
    spec = entry.space_form_spec(side_point)
    rng = np.random.default_rng(0)
    sampler = chart.interior_sampler(rng, margin=0.05)
    points = [side_point] + [sampler() for _ in range(2)]
    worst = validate_against_chart(spec, chart, entry.structure_fn, points, rng=rng)
    assert worst <= CHART_VALIDATION_TOL


@pytest.mark.parametrize("entry", catalog.list_entries(), ids=lambda e: e.id)
def test_traced_gauss_identities_at_random_points(entry):
    rng = np.random.default_rng(1)
    sampler = entry.source_chart.interior_sampler(rng, margin=0.15)
    for _ in range(3):
        mp = entry.instantiate(sampler())
        # each helper raises GaussResidualExceeded beyond the 1e-5 gate
        if entry.kind == catalog.KIND_SUBMERSION:
            if mp.vertical_frame.count:
                pair = gauss_submersion_vertical(mp, oneill_T(mp))
                assert abs(pair.residual) <= GAUSS_SAMPLE_TOL * 100
            pair = gauss_submersion_horizontal(mp, a=oneill_A(mp))
            assert abs(pair.residual) <= GAUSS_SAMPLE_TOL * 100
        else:
            b = second_fundamental_form(mp)
            assert abs(gauss_map_scalars(mp, b).residual) <= GAUSS_SAMPLE_TOL * 100


def test_reference_values_reproduced():
    refs = catalog.get("quaternionic-hopf-S7-S4").reference_values
    mp = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    assert oneill_A(mp).norm_squared() == pytest.approx(refs["A_norm_sq"], abs=1e-2)
    assert oneill_T(mp).norm_squared() == pytest.approx(refs["T_norm_sq"], abs=1e-6)

    refs = catalog.get("complex-hopf-S3-S2").reference_values
    mp = catalog.get("complex-hopf-S3-S2").instantiate()
    assert oneill_A(mp).norm_squared() == pytest.approx(refs["A_norm_sq"], abs=1e-3)


@pytest.mark.parametrize(
    "entry_id,n,oracle",
    [("complex-hopf-S3-S2", 2, hopf_complex), ("quaternionic-hopf-S7-S4", 4, hopf_quaternionic)],
)
def test_hopf_matches_its_written_out_formula_bit_for_bit(entry_id, n, oracle):
    # At random points of the chart box, on real input and on every
    # complex-step input that the Jacobian feeds the map.
    entry = catalog.get(entry_id)
    box = entry.source_chart.domain_box
    points = np.random.default_rng(n).uniform(box[:, 0], box[:, 1], size=(500, len(box)))
    steps = 1j * COMPLEX_STEP * np.eye(len(box))
    for func in (catalog.hopf(n), entry.smooth_map.func):
        for p in points:
            for x in [p, *(p + step for step in steps)]:
                got, want = func(x), oracle(x)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_out_of_domain_point_rejected():
    entry = catalog.get("sphere-immersion-S3")
    with pytest.raises(OutOfDomain):
        entry.instantiate(np.array([10.0, 0.0, 0.0]))


def test_geometry_file_loader(tmp_path):
    desc = {
        "id": "user-flat-projection",
        "kind": "riemannian-submersion",
        "source_chart": {"builder": "flat", "dim": 5},
        "target_chart": {"builder": "flat", "dim": 2},
        "map": {"builder": "coordinate-projection", "indices": [0, 1]},
        "declared_rank": 2,
        "base_point": [0.1, 0.2, -0.3, 0.05, 0.0],
        "family": {"name": "real", "c": 0.0},
        "spaceform_side": "source",
        "structure": {"builder": "trivial"},
    }
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(desc))
    entry = catalog.load_geometry_file(path)
    assert entry.id == "user-flat-projection"
    mp = entry.instantiate()
    assert mp.is_submersion
    assert oneill_T(mp).norm_squared() <= 1e-12


@pytest.mark.parametrize(
    "builder, name, largest",
    [(catalog.flat_chart, "dim", 32), (catalog.round_sphere_chart, "dim", 32),
     (catalog.warped_line_chart, "fiber_dim", 31), (catalog.fubini_study_chart, "n", 16)],
)
def test_chart_sizes_stop_at_the_documented_bound(builder, name, largest):
    # The largest size admitted gives MAX_CHART_DIM coordinates; one more is
    # refused before any array is made.
    assert builder(largest).dim == catalog.MAX_CHART_DIM == 32
    with pytest.raises(DegenerateInput, match=f"^{name} must lie in .*, not {largest + 1}$"):
        builder(largest + 1)


def test_geometry_file_rejects_unknown_builder(tmp_path):
    desc = {
        "id": "x",
        "kind": "riemannian-map",
        "source_chart": {"builder": "torus", "dim": 2},
        "target_chart": {"builder": "flat", "dim": 2},
        "map": {"builder": "identity"},
        "declared_rank": 2,
        "base_point": [0.0, 0.0],
    }
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(DegenerateInput):
        catalog.load_geometry_file(path)

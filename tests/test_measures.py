import itertools
import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casorati import catalog, measures, verify
from casorati.errors import DegenerateInput, DimensionMismatch
from casorati.framecore import Frame, InnerProduct
from casorati.measures import (
    ROLE_A,
    ROLE_B,
    ROLE_T,
    ROLES,
    FormCoefficients,
    casorati_C,
    delta_casorati,
    diagnose_equality,
    restricted_sum,
    restricted_sum_derivatives,
)
from reference import (
    Hyperplane,
    casorati_on_hyperplane,
    diverse_leaders,
    expanded_restricted_sum,
    gauss_scal_gap,
    gradient_sphere_extrema,
    grid_extrema,
    make_equality_shape,
    newton_directions_by_eigh,
    proof_polynomial_P,
    proof_polynomial_Q,
    row_major_grid,
    sliced_grid_values,
    two_solve_report,
)

DESK_TOL = 1e-9
POSITIVITY_TOL = 1e-10
OPT_VS_GRID_TOL = 1e-4


def euclid_frame(r):
    return Frame(np.eye(r), InnerProduct.euclidean(r))


def sym_coeffs(rng, s, r, role=ROLE_B):
    m = rng.standard_normal((s, r, r))
    return FormCoefficients(role, 0.5 * (m + m.transpose(0, 2, 1)))


def antisym_coeffs(rng, s, r):
    m = rng.standard_normal((s, r, r))
    return FormCoefficients(ROLE_A, 0.5 * (m - m.transpose(0, 2, 1)))


def test_symmetry_gates_per_role():
    bad = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(DegenerateInput):
        FormCoefficients(ROLE_B, bad)
    with pytest.raises(DegenerateInput):
        FormCoefficients(ROLE_A, np.array([[[1.0, 0.0], [0.0, 0.0]]]))
    with pytest.raises(DegenerateInput):
        FormCoefficients("shape-operator", bad)


def test_non_finite_coefficients_are_rejected():
    for role in ROLES:
        for value in (np.nan, np.inf):
            c = np.zeros((1, 3, 3))
            c[0, 0, 1] = c[0, 1, 0] = value
            with pytest.raises(DegenerateInput, match="not finite"):
                FormCoefficients(role, c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("role", ROLES)
def test_coefficients_too_large_for_the_engine_are_refused(role):
    # The bound is 8 m^2 size <= sqrt(float max), m the largest |entry|. Just
    # below it a certified report and its equality diagnosis raise no numpy
    # warning and every number is finite; just above it, and at 1e200, the
    # input is refused. All-equal entries give the largest ||B||^2 for their m.
    rng = np.random.default_rng(7)
    for r, s in ((3, 1), (4, 2), (5, 3), (6, 4)):
        drawn = antisym_coeffs(rng, s, r) if role == ROLE_A else sym_coeffs(rng, s, r, role)
        ones = np.ones((s, r, r))
        flat = np.triu(ones, 1) - np.tril(ones, -1) if role == ROLE_A else ones
        for unit in (drawn.coeffs / np.abs(drawn.coeffs).max(), flat):
            limit = np.sqrt(np.sqrt(np.finfo(float).max) / (8.0 * unit.size))
            coeffs = FormCoefficients(role, (1.0 - 1e-12) * limit * unit)
            rep = delta_casorati(coeffs, certify=True)
            diagnose_equality(coeffs)
            assert rep.converged and rep.certified is not None
            values = [rep.C, rep.C_L_inf, rep.C_L_sup, rep.delta_C, rep.delta_hat_C]
            assert np.all(np.isfinite(values))
            for scale in ((1.0 + 1e-12) * limit, 1e200):
                with pytest.raises(DegenerateInput, match="too large"):
                    FormCoefficients(role, scale * unit)


def test_stored_coefficients_are_exactly_symmetrized():
    # Input within the gate is accepted and stored exactly (anti)symmetric.
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 4, 4))
    noise = 1e-12 * rng.standard_normal((2, 4, 4))
    b = FormCoefficients(ROLE_B, 0.5 * (m + m.transpose(0, 2, 1)) + noise)
    assert np.array_equal(b.coeffs, b.coeffs.transpose(0, 2, 1))
    a = FormCoefficients(ROLE_A, 0.5 * (m - m.transpose(0, 2, 1)) + noise)
    assert np.array_equal(a.coeffs, -a.coeffs.transpose(0, 2, 1))
    assert np.abs(a.coeffs - 0.5 * (m - m.transpose(0, 2, 1))).max() <= 1e-11


def test_casorati_desk_example_diag_1_1_2():
    # Single normal, B = diag(1, 1, 2): C = 6/3 = 2, inf C^L = 1 at normal e_3,
    # sup C^L = 5/2 at e_1, so delta_C = 5/3 and delta-hat_C = 23/12.
    coeffs = FormCoefficients(ROLE_B, np.diag([1.0, 1.0, 2.0])[None])
    assert casorati_C(coeffs) == pytest.approx(2.0, abs=0.0)

    frame = euclid_frame(3)
    assert casorati_on_hyperplane(coeffs, Hyperplane(frame, np.eye(3)[2])) == pytest.approx(1.0)
    assert casorati_on_hyperplane(coeffs, Hyperplane(frame, np.eye(3)[0])) == pytest.approx(2.5)

    rep = delta_casorati(coeffs, certify=True)
    assert rep.C_L_inf == pytest.approx(1.0, abs=DESK_TOL)
    assert rep.C_L_sup == pytest.approx(2.5, abs=DESK_TOL)
    assert rep.delta_C == pytest.approx(5.0 / 3.0, abs=DESK_TOL)
    assert rep.delta_hat_C == pytest.approx(23.0 / 12.0, abs=DESK_TOL)
    assert rep.certified
    assert abs(rep.inf_normal[2]) == pytest.approx(1.0, abs=1e-6)
    # one normal: a closed form, so no solver starts
    assert (rep.converged, rep.starts, rep.iterations) == (True, 0, 0)


def test_delta_needs_r_at_least_3():
    coeffs = FormCoefficients(ROLE_B, np.diag([1.0, 2.0])[None])
    with pytest.raises(DimensionMismatch):
        delta_casorati(coeffs)


@given(seed=st.integers(0, 10_000), r=st.integers(3, 6), s=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_hyperplane_casorati_between_zero_and_full(seed, r, s):
    rng = np.random.default_rng(seed)
    coeffs = sym_coeffs(rng, s, r)
    rep = delta_casorati(coeffs, seed=seed)
    full = coeffs.norm_squared() / (r - 1)
    assert -1e-12 <= rep.C_L_inf <= rep.C_L_sup <= full + 1e-12
    # both optimizer outputs are genuine hyperplane values
    frame = euclid_frame(r)
    for n, val in ((rep.inf_normal, rep.C_L_inf), (rep.sup_normal, rep.C_L_sup)):
        direct = casorati_on_hyperplane(coeffs, Hyperplane(frame, n / np.linalg.norm(n)))
        assert direct == pytest.approx(val, abs=1e-8 * (1.0 + abs(val)))


@given(
    seed=st.integers(0, 5_000),
    r=st.integers(3, 5),
    s=st.integers(1, 3),
    role=st.sampled_from(ROLES),
)
@example(seed=0, r=4, s=2, role=ROLE_A)
@example(seed=1, r=5, s=1, role=ROLE_B)
@example(seed=2, r=3, s=1, role=ROLE_T)
@settings(max_examples=15, deadline=None)
def test_optimizer_matches_grid_oracle(seed, r, s, role):
    # Covers each closed form (A role with any s, one symmetric normal) and the
    # solver (symmetric, s >= 2) against the independent grid.
    rng = np.random.default_rng(seed)
    coeffs = antisym_coeffs(rng, s, r) if role == ROLE_A else sym_coeffs(rng, s, r, role)
    rep = delta_casorati(coeffs, seed=seed)
    g_inf, _, g_sup, _ = grid_extrema(coeffs)
    assert abs(rep.C_L_inf - g_inf) <= OPT_VS_GRID_TOL * (1.0 + abs(g_inf))
    assert abs(rep.C_L_sup - g_sup) <= OPT_VS_GRID_TOL * (1.0 + abs(g_sup))
    assert rep.converged
    assert (rep.starts == 0) == (role == ROLE_A or s == 1)


@given(seed=st.integers(0, 10_000), r=st.integers(3, 6), s=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_restricted_sum_derivatives_match_finite_differences(seed, r, s):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((s, r, r))  # no symmetry: every term of the derivatives counts
    normals = rng.standard_normal((4, r))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    value, grad, hess = restricted_sum_derivatives(mats, normals)
    # the stacked forms against the projector expansion in B and B^T
    expanded = expanded_restricted_sum(mats, normals)
    assert np.allclose(value, expanded, rtol=0.0, atol=1e-12)
    assert np.allclose(restricted_sum(mats, normals), expanded, rtol=0.0, atol=1e-12)
    h = 1e-6
    steps = h * np.eye(r)
    shifted = normals[:, None, :]
    fd = (restricted_sum(mats, shifted + steps) - restricted_sum(mats, shifted - steps)) / (2.0 * h)
    scale = 1.0 + float(np.sum(mats * mats))
    assert np.abs(grad - fd).max() <= 1e-6 * scale
    # the Hessian against central differences of the gradient, one column per axis
    plus = restricted_sum_derivatives(mats, shifted + steps)[1]
    minus = restricted_sum_derivatives(mats, shifted - steps)[1]
    fd_hess = np.swapaxes(plus - minus, -1, -2) / (2.0 * h)
    assert hess.shape == (4, r, r)
    assert np.abs(hess - fd_hess).max() <= 1e-6 * scale
    # per-trial batches agree with one call per trial
    batched = restricted_sum(np.stack([mats, 2.0 * mats]), np.stack([normals, normals]))
    assert np.allclose(batched, [value, 4.0 * value], rtol=1e-12, atol=1e-12)
    b_value, b_grad, b_hess = restricted_sum_derivatives(
        np.stack([mats, 2.0 * mats]), np.stack([normals, normals])
    )
    assert np.allclose(b_value, [value, 4.0 * value], rtol=1e-12, atol=1e-12)
    assert np.allclose(b_grad, [grad, 4.0 * grad], rtol=1e-12, atol=1e-12 * scale)
    assert np.allclose(b_hess, [hess, 4.0 * hess], rtol=1e-12, atol=1e-12 * scale)


def test_derivatives_of_a_row_do_not_depend_on_its_batch():
    # Each row's value, gradient and Hessian equals, bit for bit, that of
    # every sub-batch holding it, single rows included, so that the rows of
    # one solver batch cannot see one another.
    rng = np.random.default_rng(41)
    for r, s in itertools.product(range(3, 7), range(1, 5)):
        for coeffs in (sym_coeffs(rng, s, r), antisym_coeffs(rng, s, r)):
            normals = rng.standard_normal((12, r))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            whole = restricted_sum_derivatives(coeffs.coeffs, normals)
            subs = [[i] for i in range(12)] + [[0, 1], list(range(3, 12))]
            subs.append(np.sort(rng.choice(12, size=5, replace=False)))
            for sub in subs:
                part = restricted_sum_derivatives(coeffs.coeffs, normals[sub])
                for together, alone in zip(whole, part, strict=True):
                    assert np.array_equal(together[sub], alone), (r, s, coeffs.role, sub)


def test_each_coefficient_set_builds_one_stack(monkeypatch):
    # A certified delta_casorati, with its grid pass and solver, and the
    # equality diagnosis share one FormStack per set; the fuzz builds one per
    # (r, s) group. None is rebuilt per grid slice or solver iteration.
    built = []
    real = measures.form_stack

    def counting(mats):
        if not isinstance(mats, measures.FormStack):
            built.append(np.shape(mats))
        return real(mats)

    monkeypatch.setattr(measures, "form_stack", counting)
    monkeypatch.setattr(verify, "form_stack", counting)
    rng = np.random.default_rng(9)
    for coeffs in (sym_coeffs(rng, 3, 5), sym_coeffs(rng, 1, 4, ROLE_T), antisym_coeffs(rng, 2, 6)):
        built.clear()
        delta_casorati(coeffs, certify=True)
        diagnose_equality(coeffs)
        assert built == [coeffs.coeffs.shape]
    built.clear()
    verify.verify_synthetic("map-general", 1024, seed=3)
    draw = np.random.default_rng(3)
    r_arr, s_arr = draw.integers(3, 7, size=1024), draw.integers(1, 5, size=1024)
    assert sorted((shape[2], shape[1]) for shape in built) == sorted(set(zip(r_arr, s_arr)))


def test_newton_solver_matches_the_gradient_oracle():
    # The old projected-gradient solver, run from the same starts, reaches the
    # same inf and sup on dense symmetric sets over four decades of scale.
    rng = np.random.default_rng(2024)
    for i in range(200):
        r, s = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        mats = 10.0 ** rng.uniform(-2.0, 2.0) * rng.standard_normal((s, r, r))
        coeffs = FormCoefficients((ROLE_B, ROLE_T)[i % 2], 0.5 * (mats + mats.transpose(0, 2, 1)))
        rep = delta_casorati(coeffs, seed=i)
        low, high = measures._optimizer_starts(coeffs.coeffs, r, np.random.default_rng(i))
        n_min, n_max, _ = gradient_sphere_extrema(coeffs.coeffs, low, high)
        ref_inf, ref_sup = restricted_sum(coeffs.coeffs, np.stack([n_min, n_max])) / (r - 1)
        assert rep.converged
        assert rep.starts == len(low) == len(high)
        assert abs(rep.C_L_inf - ref_inf) <= 1e-9 * abs(ref_inf)
        assert abs(rep.C_L_sup - ref_sup) <= 1e-9 * abs(ref_sup)


def test_each_side_starts_from_its_own_tail_of_the_scan():
    # Both sides share the eigenvectors of G and the r random directions; the
    # minimizer then takes the 8 diverse leaders of the scan's low tail, and
    # the maximizer those of its high tail, so 2r + 8 starts each.
    rng = np.random.default_rng(36)
    for i in range(24):
        r, s = 3 + i % 4, 2 + i % 3
        coeffs = sym_coeffs(rng, s, r, (ROLE_B, ROLE_T)[i % 2])
        low, high = measures._optimizer_starts(coeffs.coeffs, r, np.random.default_rng(i))
        assert low.shape == high.shape == (2 * r + 8, r)
        assert delta_casorati(coeffs, seed=i).starts == 2 * r + 8
        draw = np.random.default_rng(i)
        draw.standard_normal((r, r))  # the random starts come first
        scan = draw.standard_normal((measures.SCAN_PER_DIM * r, r))
        scan /= np.linalg.norm(scan, axis=1, keepdims=True)
        total = restricted_sum(coeffs.coeffs, scan)
        low_tail, high_tail = (diverse_leaders(scan, v, 8) for v in (total, -total))
        assert np.array_equal(low[: 2 * r], high[: 2 * r])
        assert np.array_equal(low[2 * r :], low_tail) and np.array_equal(high[2 * r :], high_tail)
        for side, other_tail in ((low, high_tail), (high, low_tail)):
            assert not (side[:, None, :] == other_tail[None, :, :]).all(axis=2).any()
        lows, highs = restricted_sum(coeffs.coeffs, np.vstack([low_tail, high_tail])).reshape(2, 8)
        assert lows.max() < highs.min()


def test_grid_polish_finds_the_true_sup():
    # From the certify benchmark (seed 304, round 3, B r=6 s=2, rounded to 4
    # decimals): the grid's first six basin-diverse leaders polish into local
    # maxima near 5.4938 or 5.4902; the seventh reaches the true sup 5.49902.
    upper = [
        [0.8203, 0.7, 0.6222, -0.7591, 1.2715, 0.2007, -0.1428, -1.0147, 0.0948, -0.3395, -0.1388,
         0.9725, -0.1959, -0.7515, -0.1674, -0.8746, 0.065, -0.5153, -0.3287, -0.5511, 0.3757],
        [1.2575, 0.3366, -0.9608, 0.12, -0.3367, 0.3977, 0.6031, 0.6247, -0.2295, -1.0803, 0.2028,
         1.4708, -0.1309, -0.2866, -0.7857, -1.9618, -0.4163, 0.5737, -0.2684, 0.0493, 0.9449],
    ]
    mats = np.zeros((2, 6, 6))
    for m, u in zip(mats, upper):
        m[np.triu_indices(6)] = u
        m += np.triu(m, 1).T
    coeffs = FormCoefficients(ROLE_B, mats)
    _, _, g_sup, _ = grid_extrema(coeffs)
    assert g_sup == pytest.approx(5.499025, abs=1e-6)
    assert delta_casorati(coeffs, certify=True).certified


def _so_basis(r):
    """Every e_ij - e_ji with i < j: antisymmetric data with sum A^T A = (r - 1) I."""
    basis = []
    for i in range(r):
        for j in range(i + 1, r):
            a = np.zeros((r, r))
            a[i, j], a[j, i] = 1.0, -1.0
            basis.append(a)
    return np.array(basis)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_diverse_leaders_match_the_full_greedy_pass(monkeypatch, r):
    monkeypatch.setattr(measures, "_GRIDS", {})
    dirs = measures._grid_directions(r)
    rng = np.random.default_rng(r)
    total = restricted_sum(sym_coeffs(rng, 2, r).coeffs, dirs)
    ties = restricted_sum(_so_basis(r), dirs)  # constant up to rounding
    some_inf = total.copy()
    some_inf[::3] = np.inf
    few_finite = np.full(len(dirs), np.inf)
    few_finite[:5] = total[:5]
    # 5 levels: thousands of rows tie at each level, so ties straddle every cut.
    levels = np.round(4.0 * (total - total.min()) / np.ptp(total))
    # About 100 rows at 0 and the rest +inf, so the cut itself falls among the +inf ties.
    tied_inf = np.full(len(dirs), np.inf)
    tied_inf[:: len(dirs) // 100] = 0.0
    # Against the sorted sample of every LEADER_SAMPLE_STRIDE-th value that
    # places each cut: sampled rows lowest, so a cut gathers too few rows and
    # the prefix widens; sampled rows highest, so a cut gathers nearly every
    # row and falls back to the exact cut; and the ranks 128 to 512 tied at
    # the value of the first k = 8 cut, so ties straddle it.
    stride, spread = measures.LEADER_SAMPLE_STRIDE, np.ptp(total) + 1.0
    sampled_low, sampled_high = total.copy(), total.copy()
    sampled_low[::stride] -= spread
    sampled_high[::stride] += spread
    order = np.sort(total)
    cut = np.sort(total[::stride])[32 * 8 // stride - 1]
    tied_at_cut = np.where((total >= order[128]) & (total <= order[512]), cut, total)
    cases = [total, -total, np.full(len(dirs), 2.5), ties, -ties, some_inf, few_finite,
             levels, -levels, tied_inf, sampled_low, sampled_high, tied_at_cut]
    for values in cases:
        for k in (4, 8):
            fast = measures._diverse_leaders(dirs, values, k)
            slow = diverse_leaders(dirs, values, k)
            assert fast.shape == slow.shape and np.array_equal(fast, slow)
    assert len(measures._diverse_leaders(dirs, few_finite, 8)) <= 5


def test_diverse_leaders_widen_past_the_first_subset(monkeypatch):
    # At r = 3 the lowest 32 k values of a smooth objective crowd into one
    # basin, so the later picks lie beyond the first partial sort.
    monkeypatch.setattr(measures, "_GRIDS", {})
    dirs = measures._grid_directions(3)
    values = restricted_sum(sym_coeffs(np.random.default_rng(5), 2, 3).coeffs, dirs)
    k = 8
    picks = measures._diverse_leaders(dirs, values, k)
    assert np.array_equal(picks, diverse_leaders(dirs, values, k))
    assert len(picks) == k
    rank = np.empty(len(dirs), dtype=int)
    rank[np.lexsort((np.arange(len(dirs)), values))] = np.arange(len(dirs))
    last = np.flatnonzero((dirs == picks[-1]).all(axis=1))[0]
    assert rank[last] >= 32 * k


class _RowGathers(np.ndarray):
    """A view of the grid that logs the length of every integer-array index into it."""

    log: list[int] = []

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
            _RowGathers.log.append(len(key))
        return super().__getitem__(key)


def test_diverse_leaders_widen_past_a_low_sample_and_cut_exactly_past_a_high_one(monkeypatch):
    # The first cut reads the sample's (32 k / stride)-th value. When the
    # sampled rows hold the lowest values, it gathers just those sampled rows
    # and later cuts widen the prefix; when they hold the highest, it would
    # gather nearly every row, and the exact cut of 32 k rows stands in.
    monkeypatch.setattr(measures, "_GRIDS", {})
    dirs = measures._grid_directions(3)
    values = restricted_sum(sym_coeffs(np.random.default_rng(6), 2, 3).coeffs, dirs)
    stride, spread, k = measures.LEADER_SAMPLE_STRIDE, np.ptp(values) + 1.0, 8
    for shift, first in ((-spread, 32 * k // stride), (spread, 32 * k)):
        skewed = values.copy()
        skewed[::stride] += shift
        monkeypatch.setattr(_RowGathers, "log", [])
        picks = measures._diverse_leaders(dirs.view(_RowGathers), skewed, k)
        assert np.array_equal(picks, diverse_leaders(dirs, skewed, k)) and len(picks) == k
        assert _RowGathers.log[0] == first and len(_RowGathers.log) > 1


def test_diverse_leaders_gather_no_more_than_the_first_subset_when_all_values_tie(monkeypatch):
    # B = 0 makes every grid value 0: the leaders must come from the first
    # 32 k rows in index order, not from a gather of all 30,003 rows.
    monkeypatch.setattr(measures, "_GRIDS", {})
    monkeypatch.setattr(_RowGathers, "log", [])
    dirs = measures._grid_directions(3)
    values = restricted_sum(np.zeros((1, 3, 3)), dirs)
    assert len(dirs) == 30_003 and not values.any()
    k = 8
    picks = measures._diverse_leaders(dirs.view(_RowGathers), values, k)
    assert np.array_equal(picks, diverse_leaders(dirs, values, k)) and len(picks) == k
    assert _RowGathers.log and sum(_RowGathers.log) <= 32 * k


def test_certified_report_does_not_depend_on_the_grid_cache(monkeypatch):
    monkeypatch.setattr(measures, "_GRIDS", {})
    rng = np.random.default_rng(8)
    sets = [sym_coeffs(rng, 2, 4), sym_coeffs(rng, 3, 5, ROLE_T), antisym_coeffs(rng, 2, 6)]
    cold = [delta_casorati(c, seed=0, certify=True).to_json() for c in sets]
    warm = [delta_casorati(c, seed=0, certify=True).to_json() for c in sets]
    for c in (sym_coeffs(rng, 2, 4), sym_coeffs(rng, 2, 3), antisym_coeffs(rng, 1, 6)):
        delta_casorati(c, seed=4, certify=True)  # other seeds and r in between
    after = [delta_casorati(c, seed=0, certify=True).to_json() for c in sets]
    assert cold == warm == after


def test_grid_directions_are_kept_read_only_one_grid_per_r(monkeypatch):
    monkeypatch.setattr(measures, "_GRIDS", {})
    dirs = measures._grid_directions(4)
    assert not dirs.flags.writeable and not dirs.base.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 1.0
    assert dirs.shape == (measures.GRID_PER_DIM * 4 + 4, 4)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert measures._grid_directions(4) is dirs
    other = measures._grid_directions(3)
    assert measures._grid_directions(4) is dirs and measures._grid_directions(3) is other
    assert sorted(measures._GRIDS) == [3, 4]


@pytest.mark.parametrize("r", [3, 6])
def test_grid_is_the_row_major_draw_stored_column_major(monkeypatch, r):
    monkeypatch.setattr(measures, "_GRIDS", {})
    dirs = measures._grid_directions(r)
    drawn = row_major_grid(r)
    assert np.array_equal(dirs, drawn)
    # an (N, r) view of C-contiguous (r, N) memory, which it does not own
    assert dirs.flags.f_contiguous and not dirs.flags.owndata
    assert dirs.base.shape == (r, len(drawn)) and dirs.base.flags.c_contiguous
    # a slice of directions, transposed, is an (r, k) view with unit stride
    # along k: the grid pass hands it to BLAS with no copy. Its values equal
    # those of the row-major copy bit for bit, for every role.
    part = dirs[5:9].T
    assert np.shares_memory(part, dirs.base) and part.strides == (8 * len(drawn), 8)
    rng = np.random.default_rng(r)
    for mats in (sym_coeffs(rng, 3, r).coeffs, antisym_coeffs(rng, 2, r).coeffs):
        view = measures._grid_values(mats, dirs)
        assert np.array_equal(view, measures._grid_values(mats, drawn))


def test_grid_values_match_the_sliced_restricted_sum(monkeypatch):
    # The stacked quadratic forms against restricted_sum on slices, on the
    # real grids: every role, B = 0 and the equality shape.
    monkeypatch.setattr(measures, "_GRIDS", {})
    rng = np.random.default_rng(12)
    for r in range(2, 7):
        dirs = measures._grid_directions(r)
        sets = [sym_coeffs(rng, s, r, role) for s in range(1, 5) for role in (ROLE_B, ROLE_T)]
        sets += [antisym_coeffs(rng, s, r) for s in range(1, 5)]
        sets += [FormCoefficients(role, np.zeros((2, r, r))) for role in ROLES]
        if r >= 3:
            basis = np.linalg.qr(rng.standard_normal((r, r)))[0]
            sets.append(make_equality_shape(ROLE_T, [0.7, -1.3], r, basis))
        for coeffs in sets:
            fast = measures._grid_values(coeffs.coeffs, dirs)
            slow = sliced_grid_values(coeffs.coeffs, dirs)
            assert np.all(np.abs(fast - slow) <= 1e-13 * (1.0 + np.abs(slow))), (r, coeffs.role)


def _newton_batch(rng, r, s, count):
    """Random normals with the tangent derivatives that the solver steps from."""
    mats = sym_coeffs(rng, s, r).coeffs
    normals = rng.standard_normal((count, r))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    signs = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    _, pg, hess = measures._tangent_derivatives(mats, normals, signs)
    return normals, pg, hess, 1.0 + float(np.sum(mats * mats))


def _definite(normals, hess, scale):
    outer = normals[:, :, None] * normals[:, None, :]
    proj = np.eye(normals.shape[1]) - outer
    lam = np.linalg.eigvalsh(proj @ hess @ proj + scale * outer)
    return lam[:, 0] > measures.NEWTON_FLOOR * scale


def test_newton_step_on_definite_rows_is_the_eigh_step():
    rng = np.random.default_rng(31)
    batches = 0
    for _ in range(400):
        r, s = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        normals, pg, hess, scale = _newton_batch(rng, r, s, 12)
        keep = _definite(normals, hess, scale)
        if keep.sum() < 2:
            continue
        normals, pg, hess = normals[keep], pg[keep], hess[keep]
        step = measures._newton_directions(normals, pg, hess, scale)
        expected = newton_directions_by_eigh(normals, pg, hess, scale)
        size = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(step - expected) <= 1e-12 * size)
        batches += 1
    assert batches >= 100


def test_newton_step_of_each_row_equals_its_step_alone():
    rng = np.random.default_rng(32)
    mixed = 0
    for _ in range(100):
        r, s = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        normals, pg, hess, scale = _newton_batch(rng, r, s, 10)
        definite = _definite(normals, hess, scale)
        step = measures._newton_directions(normals, pg, hess, scale)
        for i in range(len(normals)):
            row = slice(i, i + 1)
            alone = measures._newton_directions(normals[row], pg[row], hess[row], scale)
            assert np.array_equal(step[i], alone[0])
        expected = newton_directions_by_eigh(normals, pg, hess, scale)
        assert np.allclose(step, expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())
        mixed += definite.any() and not definite.all()
    assert mixed >= 50


def _newton_matrices(normals, hess, scale):
    """The matrices P hess P + scale n n^T that ``_newton_directions`` factors,
    less the floor: positive definite exactly where it takes a Newton solve."""
    outer = normals[:, :, None] * normals[:, None, :]
    eye = np.eye(normals.shape[1])
    proj = eye - outer
    return proj @ hess @ proj + scale * outer - measures.NEWTON_FLOOR * scale * eye


def _cholesky_alone(mats):
    """Whether np.linalg.cholesky of each row alone succeeds."""
    succeeds = []
    for m in mats:
        try:
            np.linalg.cholesky(m)
            succeeds.append(True)
        except np.linalg.LinAlgError:
            succeeds.append(False)
    return np.array(succeeds)


def test_definite_flag_of_each_row_is_cholesky_of_that_row_alone():
    rng = np.random.default_rng(33)
    planted = []
    for _ in range(100):
        r, s = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        normals, pg, hess, scale = _newton_batch(rng, r, s, 12)
        mats = _newton_matrices(normals, hess, scale)
        # Planted rows: shift a row by its smallest eigenvalue, give or take
        # a few units in the last place of the scale, so that it is definite
        # or not by rounding alone.
        near = mats[:4] - np.linalg.eigvalsh(mats[:4])[:, :1, None] * np.eye(r)
        near += (rng.integers(-4, 5, size=4) * np.spacing(scale))[:, None, None] * np.eye(r)
        stack = np.concatenate([mats, near])
        with np.errstate(all="ignore"):
            flags = measures._cholesky_succeeds(stack)
        assert flags.dtype == bool and np.array_equal(flags, _cholesky_alone(stack))
        planted.extend(flags[12:])
    assert 0 < sum(planted) < len(planted)


def test_eigh_sees_only_the_rows_that_fail_cholesky(monkeypatch):
    # The solver calls the gufunc behind np.linalg.eigh directly.
    seen = []
    gufuncs = measures._umath_linalg

    def counting_eigh(a):
        seen.append(len(a))
        return gufuncs.eigh_lo(a)

    monkeypatch.setattr(
        measures,
        "_umath_linalg",
        types.SimpleNamespace(
            cholesky_lo=gufuncs.cholesky_lo, solve1=gufuncs.solve1, eigh_lo=counting_eigh
        ),
    )
    rng = np.random.default_rng(34)
    mixed = 0
    for _ in range(60):
        r, s = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        normals, pg, hess, scale = _newton_batch(rng, r, s, 10)
        failed = int(np.sum(~_cholesky_alone(_newton_matrices(normals, hess, scale))))
        seen.clear()
        measures._newton_directions(normals, pg, hess, scale)
        assert sum(seen) == failed and len(seen) == (failed > 0)
        mixed += 0 < failed < len(normals)
    assert mixed >= 20


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("rows", [1, 6])
def test_newton_step_refuses_a_non_finite_hessian_row(bad, rows):
    # A NaN step would reach the solver's argmin unnoticed; the step must raise.
    normals, pg, hess, scale = _newton_batch(np.random.default_rng(35), 4, 2, rows)
    hess[rows // 2] = bad
    with pytest.raises(np.linalg.LinAlgError):
        measures._newton_directions(normals, pg, hess, scale)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("fill", ["row", "diagonal"])
@pytest.mark.parametrize("rows", [1, 6])
def test_newton_step_refuses_a_positive_infinite_hessian_row(fill, rows):
    # A matrix that starts with +inf passes the Cholesky test, whose factor
    # then starts with sqrt(inf) = inf, not NaN, and reaches the linear solve.
    normals, pg, hess, scale = _newton_batch(np.random.default_rng(35), 4, 2, rows)
    hess[rows // 2] = np.inf if fill == "row" else np.where(np.eye(4, dtype=bool), np.inf, 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        measures._newton_directions(normals, pg, hess, scale)


def test_grid_oracle_at_two_dimensions():
    # At r = 2 a hyperplane is a line, and C^L is B restricted to it, squared.
    f_min, _, f_max, _ = grid_extrema(FormCoefficients(ROLE_B, np.diag([1.0, 3.0])[None]))
    assert f_min == pytest.approx(1.0) and f_max == pytest.approx(9.0)


def test_grouped_solve_equals_one_solve_per_problem():
    # Few starts per problem, so that problems often run down to one row;
    # BLAS rounds a single row differently, and the group must not notice.
    rng = np.random.default_rng(17)
    for _ in range(60):
        r, s = int(rng.integers(3, 7)), int(rng.integers(2, 4))
        mats = sym_coeffs(rng, s, r).coeffs
        problems = [
            tuple(rng.standard_normal((int(rng.integers(1, 4)), r)) for _ in range(2))
            for _ in range(int(rng.integers(2, 5)))
        ]
        together = measures._sphere_extrema(mats, *problems)
        for problem, grouped in zip(problems, together, strict=True):
            ((n_min, n_max, iterations),) = measures._sphere_extrema(mats, problem)
            assert np.array_equal(grouped[0], n_min) and np.array_equal(grouped[1], n_max)
            assert grouped[2] == iterations


def test_one_solver_call_equals_two(monkeypatch):
    # delta_casorati(certify=True) solves its starts and the grid's polish in
    # one call; the two-call path of tests/reference.py gives the same JSON.
    monkeypatch.setattr(measures, "_GRIDS", {})
    count = 0
    grids = {r: row_major_grid(r) for r in range(3, 7)}
    for seed in range(4):
        for r in range(3, 7):
            rng = np.random.default_rng([seed, r])
            for s, (i, role), j in itertools.product((1, 2, 3), enumerate(ROLES), (0, 1)):
                scale = (0.3, 1.0, 5.0)[(seed + s + i + j) % 3]
                drawn = antisym_coeffs(rng, s, r) if role == ROLE_A else sym_coeffs(rng, s, r, role)
                coeffs = FormCoefficients(role, scale * drawn.coeffs)
                one = delta_casorati(coeffs, seed=seed, certify=True).to_json()
                assert one == two_solve_report(coeffs, seed, grids[r]).to_json()
                count += 1
    assert count == 288


def test_reported_normal_attains_reported_value(monkeypatch):
    # With one start the solver often ends in a worse basin than the grid's
    # polish; the certificate must then fail, and the report must carry the
    # grid's normal with its value.
    all_starts = measures._optimizer_starts
    monkeypatch.setattr(
        measures,
        "_optimizer_starts",
        lambda mats, r, rng: tuple(side[:1] for side in all_starts(mats, r, rng)),
    )
    rng = np.random.default_rng(21)
    frame = euclid_frame(5)
    grid_won = uncertified = 0
    for _ in range(20):
        coeffs = sym_coeffs(rng, 2, 5)
        alone = delta_casorati(coeffs)
        rep = delta_casorati(coeffs, certify=True)
        g_inf, _, g_sup, _ = grid_extrema(coeffs)
        agree = all(
            abs(value - grid) <= measures.CERTIFY_REL_TOL * (1.0 + abs(grid))
            for value, grid in ((alone.C_L_inf, g_inf), (alone.C_L_sup, g_sup))
        )
        assert rep.certified is agree
        uncertified += not agree
        assert rep.C_L_inf == min(alone.C_L_inf, g_inf) and rep.C_L_sup == max(alone.C_L_sup, g_sup)
        grid_won += rep.C_L_inf < alone.C_L_inf - 1e-9 or rep.C_L_sup > alone.C_L_sup + 1e-9
        for n, val in ((rep.inf_normal, rep.C_L_inf), (rep.sup_normal, rep.C_L_sup)):
            direct = casorati_on_hyperplane(coeffs, Hyperplane(frame, n))
            assert direct == pytest.approx(val, abs=1e-12 * (1.0 + abs(val)))
    assert grid_won and uncertified >= 5  # 7 of these 20 sets


def test_converged_is_false_when_the_solver_is_cut_short(monkeypatch):
    coeffs = sym_coeffs(np.random.default_rng(4), 2, 5)
    assert delta_casorati(coeffs).converged
    monkeypatch.setattr(measures, "SOLVER_MAX_ITER", 2)
    rep = delta_casorati(coeffs)
    assert not rep.converged
    assert rep.iterations <= 2 * 2 * rep.starts


def _no_grid(monkeypatch) -> list:
    """Make ``measures.grid_extrema`` record the role and s of every call."""
    calls, grid_extrema_of = [], measures.grid_extrema

    def recording(coeffs):
        calls.append((coeffs.role, coeffs.normal_count))
        return grid_extrema_of(coeffs)

    monkeypatch.setattr(measures, "grid_extrema", recording)
    return calls


def test_closed_forms_are_proved_without_the_grid(monkeypatch):
    # Each closed-form set of three rounds of the benchmark's certify mix
    # (every r 3-6, s 1-3, roles B, T, A in turn) is certified by its proof
    # alone, and its report keeps the closed form's normals and values.
    calls = _no_grid(monkeypatch)
    rng = np.random.default_rng(24)
    proved = 0
    for _ in range(3):
        for r, s, role in itertools.product(range(3, 7), (1, 2, 3), ROLES):
            coeffs = antisym_coeffs(rng, s, r) if role == ROLE_A else sym_coeffs(rng, s, r, role)
            closed = measures.closed_form_normals(coeffs.stack, role == ROLE_A)
            if closed is None:
                continue
            rep = delta_casorati(coeffs, certify=True)
            plain = delta_casorati(coeffs)
            assert rep.certified is True and rep.starts == 0
            assert rep.to_json() == {**plain.to_json(), "optimizer": rep.to_json()["optimizer"]}
            assert np.array_equal(rep.inf_normal, closed[0])
            assert np.array_equal(rep.sup_normal, closed[1])
            proved += 1
    assert calls == [] and proved == 3 * 4 * (3 + 2)


@pytest.mark.parametrize("geometry", [e.id for e in catalog.list_entries() if e.hypothesis_tags])
def test_catalog_reaches_the_grid_only_for_symmetric_data_with_several_normals(monkeypatch, geometry):
    calls = _no_grid(monkeypatch)
    entry = catalog.get(geometry)
    reports = verify.verify_geometry(list(entry.hypothesis_tags), entry, points=2, seed=3)
    assert reports and all(rep.casorati.certified is True for rep in reports)
    assert all(role != ROLE_A and s >= 2 for role, s in calls)


@pytest.mark.parametrize("role", [ROLE_B, ROLE_T])
@pytest.mark.parametrize("s", [2, 3])
def test_zero_coefficients_take_the_closed_form(monkeypatch, role, s):
    # f = 0 at every normal: the proof certifies it, with no start and no grid.
    calls = _no_grid(monkeypatch)
    for r in (3, 5):
        coeffs = FormCoefficients(role, np.zeros((s, r, r)))
        rep = delta_casorati(coeffs, certify=True)
        assert (rep.certified, rep.converged, rep.starts, rep.iterations) == (True, True, 0, 0)
        assert (rep.C, rep.C_L_inf, rep.C_L_sup) == (0.0, 0.0, 0.0)
        assert measures.closed_form_bounds(coeffs.stack, False)[2]
    assert calls == []


@pytest.mark.parametrize("role, s", [(ROLE_A, 2), (ROLE_B, 1), (ROLE_T, 2)])
def test_certified_is_a_python_bool(role, s):
    rng = np.random.default_rng(5)
    coeffs = antisym_coeffs(rng, s, 4) if role == ROLE_A else sym_coeffs(rng, s, 4, role)
    rep = delta_casorati(coeffs, certify=True)
    assert type(rep.certified) is bool and rep.certified
    assert json.loads(json.dumps(rep.to_json()))["optimizer"]["certified"] is True


def _chord_set(rng, r):
    """One symmetric B whose spectrum straddles 0, so its inf normal is an inner chord point."""
    while True:
        coeffs = sym_coeffs(rng, 1, r)
        lam = np.linalg.eigvalsh(coeffs.coeffs[0])
        if lam[0] < -0.5 and lam[-1] > 0.5:
            return coeffs


def test_a_wrong_chord_weight_fails_the_certificate(monkeypatch):
    # The chord weight t on lambda_max, moved by 0.2: f moves by (0.2 (lambda_max -
    # lambda_min))^2, well past CERTIFY_REL_TOL. (A 1 % error moves f only to
    # second order, below it.)
    rng = np.random.default_rng(31)
    sets = [_chord_set(rng, r) for r in (3, 4, 5, 6) for _ in range(3)]
    assert all(delta_casorati(c, certify=True).certified for c in sets)
    closed = measures.closed_form_normals

    def planted(mats, antisymmetric):
        _, n_sup = closed(mats, antisymmetric)
        lam, vecs = np.linalg.eigh(measures.form_stack(mats).mats[0])
        t = lam[-1] / (lam[-1] - lam[0]) + 0.2 * (1 if lam[-1] < -lam[0] else -1)
        return np.sqrt(1.0 - t) * vecs[:, 0] + np.sqrt(t) * vecs[:, -1], n_sup

    monkeypatch.setattr(measures, "closed_form_normals", planted)
    for coeffs in sets:
        rep = delta_casorati(coeffs, certify=True)
        assert rep.certified is False
        assert delta_casorati(coeffs).certified is None


def test_an_A_normal_from_the_wrong_end_of_G_fails_the_certificate(monkeypatch):
    rng = np.random.default_rng(32)
    sets = [antisym_coeffs(rng, s, r) for r in (3, 4, 5, 6) for s in (1, 2, 3)]
    assert all(delta_casorati(c, certify=True).certified for c in sets)
    closed = measures.closed_form_normals

    def wrong_end(mats, antisymmetric):
        n_inf, n_sup = closed(mats, antisymmetric)
        return n_sup, n_sup  # the inf normal from lambda_min(G), not lambda_max(G)

    monkeypatch.setattr(measures, "closed_form_normals", wrong_end)
    for coeffs in sets:
        lam = np.linalg.eigvalsh(coeffs.stack.gram)
        assert lam[-1] - lam[0] > 1e-2  # the ends differ, so the value moves
        assert delta_casorati(coeffs, certify=True).certified is False


def test_a_failed_proof_is_not_certified(monkeypatch):
    rng = np.random.default_rng(33)
    sets = [antisym_coeffs(rng, 2, 4), sym_coeffs(rng, 1, 5), sym_coeffs(rng, 1, 3, ROLE_T)]
    assert all(delta_casorati(c, certify=True).certified is True for c in sets)
    monkeypatch.setattr(measures, "_cholesky_succeeds", lambda mats: np.zeros(len(mats), bool))
    for coeffs in sets:
        assert delta_casorati(coeffs, certify=True).certified is False
        assert not measures.closed_form_bounds(coeffs.stack, coeffs.role == ROLE_A)[2]


def test_a_bracket_end_inside_the_spectrum_is_not_proved():
    # _proved_lower_bounds proves lambda_min(S) > a only when that holds:
    # an estimate above lambda_min by more than the bracket's half-width fails.
    rng = np.random.default_rng(34)
    for r in (3, 4, 6):
        for scale in (1e-3, 1.0, 1e3):
            m = scale * rng.standard_normal((r, r))
            s = m + m.T
            lam = np.linalg.eigvalsh(s)
            ests = np.array([lam[0], lam[0] + 1e-9 * (1.0 + np.abs(lam).max()), lam[1]])
            bound, proved = measures._proved_lower_bounds(np.stack([s, s, s]), ests)
            assert proved.tolist() == [True, False, False]
            assert lam[0] - bound[0] > 0.0


def test_proved_bounds_agree_with_the_grid_on_criterion_7_closed_forms():
    # Criterion 7's draw (seed 99, r 3-6, s 1-3, role B); its s = 1 sets have
    # a closed form. Each proved bound lies within CERTIFY_REL_TOL of the grid's
    # extremum, on the right side of it within rounding, and of the closed form.
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        r, s = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        mats = rng.standard_normal((s, r, r))
        if s != 1:
            continue
        coeffs = FormCoefficients(ROLE_B, 0.5 * (mats + mats.transpose(0, 2, 1)))
        low, high, proved = measures.closed_form_bounds(coeffs.stack, False)
        low, high = float(low) / (r - 1), float(high) / (r - 1)
        g_inf, _, g_sup, _ = grid_extrema(coeffs)
        rep = delta_casorati(coeffs, certify=True)
        assert proved and rep.certified is True
        for bound, grid, value in ((low, g_inf, rep.C_L_inf), (high, g_sup, rep.C_L_sup)):
            assert abs(bound - grid) <= measures.CERTIFY_REL_TOL * (1.0 + abs(bound))
            assert abs(bound - value) <= 1e-10 * (1.0 + abs(bound))
        assert low <= g_inf + 1e-12 and g_sup <= high + 1e-12
        checked += 1
    assert checked > 300


@given(seed=st.integers(0, 10_000), r=st.integers(3, 6), s=st.integers(1, 3), antisym=st.booleans())
@settings(max_examples=60, deadline=None)
def test_proof_polynomials_nonnegative_with_gauss_gap(seed, r, s, antisym):
    rng = np.random.default_rng(seed)
    coeffs = antisym_coeffs(rng, s, r) if antisym else sym_coeffs(rng, s, r, ROLE_T)
    gap = gauss_scal_gap(coeffs)
    frame = euclid_frame(r)
    for _ in range(4):
        n = rng.standard_normal(r)
        hp = Hyperplane(frame, n / np.linalg.norm(n))
        scale = 1.0 + coeffs.norm_squared()
        assert proof_polynomial_P(coeffs, hp, gap) >= -POSITIVITY_TOL * scale
        assert proof_polynomial_Q(coeffs, hp, gap) >= -POSITIVITY_TOL * scale


def test_proof_polynomial_P_vanishes_on_equality_shape():
    for r in (3, 4, 6):
        coeffs = make_equality_shape(ROLE_B, [0.7, -1.3], r)
        gap = gauss_scal_gap(coeffs)
        hp = Hyperplane(euclid_frame(r), np.eye(r)[-1])
        assert abs(proof_polynomial_P(coeffs, hp, gap)) <= 1e-9 * (1.0 + coeffs.norm_squared())


def test_gauss_scal_gap_roles():
    rng = np.random.default_rng(11)
    sym = sym_coeffs(rng, 2, 4, ROLE_T)
    assert gauss_scal_gap(sym) == pytest.approx(
        4.0 * casorati_C(sym) - sym.trace_vector_norm_squared(), abs=1e-12
    )
    anti = antisym_coeffs(rng, 2, 4)
    assert gauss_scal_gap(anti) == pytest.approx(12.0 * casorati_C(anti), abs=1e-12)


def test_equality_shape_diagnosis_roundtrip():
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    coeffs = make_equality_shape(ROLE_B, [1.1, 0.4, -0.6], 4, basis=q)
    diag = diagnose_equality(coeffs)
    assert diag.is_equality_shape
    assert diag.max_offdiag <= 1e-9
    assert diag.max_umbilic_defect <= 1e-7


def test_equality_diagnosis_rejects_perturbation():
    coeffs = make_equality_shape(ROLE_B, [1.0], 4)
    mats = coeffs.coeffs.copy()
    mats[0, 0, 1] = mats[0, 1, 0] = 1e-2
    diag = diagnose_equality(FormCoefficients(ROLE_B, mats))
    assert not diag.is_equality_shape


def test_equality_diagnosis_rejects_wrong_diagonal_pattern():
    coeffs = FormCoefficients(ROLE_B, np.diag([1.0, 2.0, 3.0])[None])
    diag = diagnose_equality(coeffs)
    assert not diag.is_equality_shape
    assert diag.max_offdiag <= 1e-12  # it is diagonal, just not (a, a, 2a)


def test_antisymmetric_equality_means_zero():
    zero = make_equality_shape(ROLE_A, [0.0, 0.0], 4)
    assert diagnose_equality(zero).is_equality_shape
    with pytest.raises(DegenerateInput):
        make_equality_shape(ROLE_A, [1.0], 4)
    rng = np.random.default_rng(3)
    nonzero = antisym_coeffs(rng, 1, 4)
    assert not diagnose_equality(nonzero).is_equality_shape


def test_delta_values_at_equality_shape():
    # At B = a * diag(1,..,1,2) the delta bound is tight; with r = 4, a = 1:
    # C = 7/4, inf C^L = 1 (normal e_4), delta_C = 7/8 + (5/8)*1 = 3/2, and the
    # traced gap r C - |trace|^2 = 7 - 25 = -18 = -r(r-1) * lhs-contribution.
    coeffs = make_equality_shape(ROLE_B, [1.0], 4)
    rep = delta_casorati(coeffs, certify=True)
    assert rep.C == pytest.approx(7.0 / 4.0, abs=DESK_TOL)
    assert rep.C_L_inf == pytest.approx(1.0, abs=DESK_TOL)
    assert rep.delta_C == pytest.approx(1.5, abs=DESK_TOL)
    # delta form of the bound is exactly tight: rho_gap = (|tr|^2 - rC)/(r(r-1))
    rho_gap = (coeffs.trace_vector_norm_squared() - 4.0 * rep.C) / 12.0
    assert rep.delta_C == pytest.approx(rho_gap, abs=DESK_TOL)
    # the hat variant stays strictly above at the same data
    assert rep.delta_hat_C > rep.delta_C + 0.1

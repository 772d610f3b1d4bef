import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casorati.errors import DegenerateInput, ProvisoViolated
from casorati.extremum import ExtremumProblem, solve_closed_form, solve_oracle
from casorati.framecore import MAX_CHART_DIM

AGREE_TOL = 1e-8
VALUE_TOL = 1e-9


def test_known_minimizer_r3():
    prob = ExtremumProblem.from_lambda1(3, 3.0, 4.0)
    z, f = solve_closed_form(prob)
    assert np.allclose(z, [1.0, 1.0, 2.0], atol=1e-12)
    assert abs(f) <= VALUE_TOL


def test_known_minimizer_r4():
    prob = ExtremumProblem.from_lambda1(4, 4.0, 7.0)
    assert prob.lambda2 == pytest.approx(1.5)
    z, f = solve_closed_form(prob)
    assert np.allclose(z, [1.4, 1.4, 1.4, 2.8], atol=1e-12)
    assert abs(f) <= VALUE_TOL


@pytest.mark.parametrize(
    "solve, r, lambda1, k",
    [
        # The cross-check k (r - 1) / ((lambda1 + 1) lambda2) = 2k overflows,
        # although every input is finite.
        (solve_closed_form, 3, 3.0, 1e308),
        # f(z) = z^T M z overflows on both routes.
        (solve_closed_form, 4, 40.0, 1e200),
        (solve_oracle, 4, 40.0, 1e200),
    ],
    ids=["cross-check", "closed-form-value", "oracle-value"],
)
def test_an_overflowing_k_is_bad_input_not_a_proviso_violation(solve, r, lambda1, k):
    with pytest.raises(DegenerateInput, match="too large"):
        solve(ExtremumProblem.from_lambda1(r, lambda1, k))


def test_proviso_violation_raises():
    with pytest.raises(ProvisoViolated):
        ExtremumProblem.from_lambda1(3, 1.0, 2.0)
    with pytest.raises(ProvisoViolated):
        ExtremumProblem.from_lambda1(5, 3.0, 1.0)  # lambda1 == r - 2


@pytest.mark.parametrize(
    "args",
    [(3, np.nan, 1.0, 1.0), (3, 2.0, np.inf, 1.0), (3, 2.0, 1.0, -np.inf),
     (MAX_CHART_DIM + 1, 40.0, 1.0, 1.0)],
    ids=["lambda1-nan", "lambda2-inf", "k-minus-inf", "r-above-cap"],
)
def test_problem_rejects_non_finite_input_and_r_above_the_cap(args):
    with pytest.raises(DegenerateInput):
        ExtremumProblem(*args)


def test_oracle_matches_closed_form_on_frozen_case():
    prob = ExtremumProblem.from_lambda1(5, 6.5, -2.0)
    z_cf, f_cf = solve_closed_form(prob)
    z_or, f_or = solve_oracle(prob)
    assert np.abs(z_cf - z_or).max() <= AGREE_TOL
    assert abs(f_cf - f_or) <= AGREE_TOL
    assert prob.satisfies_proviso()


def test_minimizer_lies_on_the_constraint():
    prob = ExtremumProblem.from_lambda1(4, 5.0, 3.0)
    z, f = solve_closed_form(prob)
    assert abs(float(np.sum(z)) - prob.k) <= 1e-10
    assert prob.value(z) == pytest.approx(f, abs=1e-12)


@given(
    r=st.integers(3, 8),
    lam_frac=st.floats(1e-3, 1.0),
    k=st.floats(-10.0, 10.0),
)
@settings(max_examples=120, deadline=None)
def test_closed_form_agrees_with_kkt_oracle(r, lam_frac, k):
    lambda1 = (r - 2) + lam_frac * 12.0
    prob = ExtremumProblem.from_lambda1(r, lambda1, k)
    z_cf, f_cf = solve_closed_form(prob)
    z_or, f_or = solve_oracle(prob)
    scale = 1.0 + abs(k)
    assert np.abs(z_cf - z_or).max() <= AGREE_TOL * scale
    assert abs(f_cf) <= VALUE_TOL * scale
    assert abs(f_or) <= VALUE_TOL * scale


@given(r=st.integers(3, 8), lam_frac=st.floats(1e-3, 1.0), k=st.floats(-10.0, 10.0), seed=st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_minimum_is_global_on_the_constraint_plane(r, lam_frac, k, seed):
    # Random feasible competitors never beat the closed-form value.
    lambda1 = (r - 2) + lam_frac * 12.0
    prob = ExtremumProblem.from_lambda1(r, lambda1, k)
    z_cf, f_cf = solve_closed_form(prob)
    rng = np.random.default_rng(seed)
    w = np.ones(r)
    for _ in range(8):
        z = z_cf + rng.standard_normal(r)
        z -= (float(w @ z) - prob.k) * w / r  # back onto the sum-k plane
        assert prob.value(z) >= f_cf - 1e-9 * (1.0 + abs(prob.value(z)))

"""End-to-end acceptance gates for the whole package.

Each test covers one release criterion at its stated tolerance and runtime
budget and prints a single PASS line with the measured numbers (visible with
``pytest -rA`` or ``-s``); a failing criterion fails its test.
"""

import time

import numpy as np
import pytest

from casorati import catalog
from casorati.extremum import ExtremumProblem, solve_closed_form, solve_oracle
from casorati.framecore import (
    Frame,
    InnerProduct,
    StructureOperator,
    gram_schmidt,
    structure_norm_squared,
)
from casorati.measures import (
    ROLE_A,
    ROLE_B,
    ROLE_T,
    FormCoefficients,
    delta_casorati,
    diagnose_equality,
    grid_extrema,
)
from casorati.rmaps import (
    gauss_submersion_horizontal,
    gauss_submersion_vertical,
    oneill_A,
    oneill_T,
)
from casorati.spaceforms import (
    NamedFamily,
    SpaceFormSpec,
    family_constants,
)
from casorati.verify import (
    THEOREM_IDS,
    model_reference_part,
    rhs_for,
    verify_geometry,
    verify_synthetic,
)
from reference import (
    CHART_VALIDATION_TOL,
    Hyperplane,
    gauss_scal_gap,
    make_equality_shape,
    model_curvature,
    proof_polynomial_P,
    proof_polynomial_Q,
    specialization_deviation,
    validate_against_chart,
)


# --------------------------------------------------------------------------
# 1. extremum lemma: closed form vs KKT oracle
# --------------------------------------------------------------------------

def test_criterion_1_extremum_lemma():
    rng = np.random.default_rng(42)
    worst_z = 0.0
    worst_f = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        r = int(rng.integers(3, 9))
        lambda1 = (r - 2) + rng.uniform(1e-6, 12.0)  # (r-2, r+10]
        k = rng.uniform(-10.0, 10.0)
        prob = ExtremumProblem.from_lambda1(r, lambda1, k)
        z_cf, f_cf = solve_closed_form(prob)
        z_or, _ = solve_oracle(prob)
        worst_z = max(worst_z, float(np.abs(z_cf - z_or).max()))
        worst_f = max(worst_f, abs(f_cf))
    elapsed = time.perf_counter() - t0
    assert worst_z <= 1e-8
    assert worst_f <= 1e-9
    assert elapsed < 1.0
    print(
        f"[criterion 1] PASS: 1000 problems, minimizer disagreement {worst_z:.2e}, "
        f"|f_min| {worst_f:.2e}, runtime {elapsed:.2f} s"
    )


# --------------------------------------------------------------------------
# 2. proof-polynomial positivity under Gauss-consistent curvature gaps
# --------------------------------------------------------------------------

def _batched_polynomials(mats, normals, r, antisymmetric):
    """Vectorized P and Q over (n, s, r, r) coefficients and (n, r) unit normals."""
    frob = np.einsum("nsij,nsij->n", mats, mats)
    c_val = frob / r
    bn = np.einsum("nsij,nj->nsi", mats, normals)
    btn = np.einsum("nsji,nj->nsi", mats, normals)
    nbn = np.einsum("nsi,ni->ns", bn, normals)
    restricted = (
        frob
        - np.einsum("nsi,nsi->n", bn, bn)
        - np.einsum("nsi,nsi->n", btn, btn)
        + np.einsum("ns,ns->n", nbn, nbn)
    )
    c_l = restricted / (r - 1)
    if antisymmetric:
        gap = 3.0 * r * c_val
    else:
        traces = np.einsum("nsii->ns", mats)
        gap = r * c_val - np.einsum("ns,ns->n", traces, traces)
    p = 0.5 * r * (r - 1) * c_val + 0.5 * (r * r - 1) * c_l + gap
    q = 2.0 * r * (r - 1) * c_val - 0.5 * (r - 1) * (2 * r - 1) * c_l + gap
    return p, q


def test_criterion_2_proof_polynomial_positivity():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = {ROLE_B: np.inf, ROLE_T: np.inf, ROLE_A: np.inf}
    worst_eq = 0.0
    for role in (ROLE_B, ROLE_T, ROLE_A):
        antisym = role == ROLE_A
        for r in (3, 4, 5, 6):
            mats = rng.standard_normal((25_000, 2, r, r))
            if antisym:
                mats = 0.5 * (mats - mats.transpose(0, 1, 3, 2))
            else:
                mats = 0.5 * (mats + mats.transpose(0, 1, 3, 2))
            normals = rng.standard_normal((25_000, r))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            p, q = _batched_polynomials(mats, normals, r, antisym)
            worst[role] = min(worst[role], float(p.min()), float(q.min()))

            # tie the batched formulas to the reference implementation
            frame = Frame(np.eye(r), InnerProduct.euclidean(r))
            for i in range(0, 25_000, 5000):
                coeffs = FormCoefficients(role, mats[i])
                hp = Hyperplane(frame, normals[i])
                gap = gauss_scal_gap(coeffs)
                assert proof_polynomial_P(coeffs, hp, gap) == pytest.approx(p[i], abs=1e-9)
                assert proof_polynomial_Q(coeffs, hp, gap) == pytest.approx(q[i], abs=1e-9)

            # equality-shape injections: P vanishes at the optimal hyperplane
            amps = np.zeros((100, 2)) if antisym else rng.uniform(-2.0, 2.0, (100, 2))
            pattern = np.ones(r)
            pattern[-1] = 2.0
            eq_mats = amps[:, :, None, None] * np.diag(pattern)[None, None]
            axis = np.zeros((100, r))
            axis[:, -1] = 1.0
            p_eq, _ = _batched_polynomials(eq_mats, axis, r, antisym)
            worst_eq = max(worst_eq, float(np.abs(p_eq).max()))
    elapsed = time.perf_counter() - t0
    for role, val in worst.items():
        assert val >= -1e-10, f"{role}: min polynomial value {val:.3e}"
    assert worst_eq <= 1e-9
    assert elapsed < 30.0
    print(
        f"[criterion 2] PASS: 3 x 100000 trials, min(P, Q) "
        f"{min(worst.values()):.2e}, max |P| at equality {worst_eq:.2e}, "
        f"runtime {elapsed:.1f} s"
    )


# --------------------------------------------------------------------------
# 3. full registry fuzz + named-family specialization
# --------------------------------------------------------------------------

def test_criterion_3_theorem_fuzz():
    t0 = time.perf_counter()
    total_failures = 0
    worst_residual = np.inf
    for theorem in THEOREM_IDS:
        out = verify_synthetic(theorem, trials=100_000, seed=0)
        total_failures += out["failures"]
        worst_residual = min(worst_residual, out["min_residual"])
        assert out["failures"] == 0, f"{theorem}: {out['failures']} failures"
        assert out["equality_hits"] == 100_000 // 16
    deviation = specialization_deviation(samples=500, seed=0)
    elapsed = time.perf_counter() - t0
    assert total_failures == 0
    assert deviation <= 1e-12
    assert elapsed < 300.0
    print(
        f"[criterion 3] PASS: 17 theorems x 100000 trials, 0 failures, "
        f"min residual {worst_residual:.2e}, specialization deviation {deviation:.2e}, "
        f"runtime {elapsed:.1f} s"
    )


# --------------------------------------------------------------------------
# 4. model-tensor trace identity
# --------------------------------------------------------------------------

def _frame_two_scal(spec, frame, inner):
    total = 0.0
    for i in range(frame.count):
        for j in range(frame.count):
            vec = model_curvature(spec, frame.vectors[i], frame.vectors[j], frame.vectors[j], inner)
            total += float(vec @ inner.gram @ frame.vectors[i])
    return total


def test_criterion_4_space_form_trace_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(40):
        r = int(rng.integers(3, 9))
        contact = bool(rng.integers(0, 2))
        blocks = max(r, 4)
        dim = 2 * blocks + (1 if contact else 0)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        s = np.zeros((dim, dim))
        for b in range(blocks):
            s[2 * b, 2 * b + 1] = -1.0
            s[2 * b + 1, 2 * b] = 1.0
        inner = InnerProduct.euclidean(dim)
        c1, c2, c3 = rng.normal(size=3)
        if contact:
            xi = q[:, -1]
            op = StructureOperator(q @ s @ q.T, "almost-contact", xi=xi, eta=xi)
            spec = SpaceFormSpec(c1, c2, c3, op)
            tangent = bool(rng.integers(0, 2))
            perp = q[:, :-1].T
            if tangent:
                raw = np.vstack([xi, rng.standard_normal((r - 1, dim - 1)) @ perp])
            else:
                raw = rng.standard_normal((r, dim - 1)) @ perp
        else:
            op = StructureOperator(q @ s @ q.T, "almost-complex")
            spec = SpaceFormSpec(c1, c2, 0.0, op)
            c3, tangent = 0.0, False
            raw = rng.standard_normal((r, dim))
        frame = gram_schmidt(raw, inner)
        pnorm2 = structure_norm_squared(frame, op)
        expected = r * (r - 1) * model_reference_part(c1, c2, c3, r, pnorm2, tangent)
        worst = max(worst, abs(_frame_two_scal(spec, frame, inner) - expected))
    assert worst <= 1e-9
    print(f"[criterion 4] PASS: 40 random spec/frame draws, max trace deviation {worst:.2e}")


# --------------------------------------------------------------------------
# 5. numeric curvature vs model tensors on reference charts
# --------------------------------------------------------------------------

def test_criterion_5_chart_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    results = {}

    sphere = catalog.round_sphere_chart(4, radius=1.0)
    spec = SpaceFormSpec(1.0, 0.0, 0.0, catalog.trivial_structure(4)(np.zeros(4)))
    pts = [sphere.interior_sampler(rng, margin=0.2)() for _ in range(20)]
    results["S4(c=1)"] = validate_against_chart(
        spec, sphere, catalog.trivial_structure(4), pts, rng=rng
    )

    cp2 = catalog.fubini_study_chart(2)
    j = catalog.interleaved_complex_structure(2)
    spec = SpaceFormSpec(1.0, 1.0, 0.0, j(np.zeros(4)))
    pts = [cp2.interior_sampler(rng, margin=0.1)() for _ in range(20)]
    results["CP2(c=4)"] = validate_against_chart(spec, cp2, j, pts, rng=rng)

    heis = catalog.heisenberg_chart()
    structure = catalog.heisenberg_structure()
    c1, c2, c3 = family_constants(NamedFamily("sasakian", -3.0))
    base = np.zeros(5)
    spec = SpaceFormSpec(c1, c2, c3, structure(base))
    pts = [heis.interior_sampler(rng, margin=0.2)() for _ in range(20)]
    results["Sasakian R5(c=-3)"] = validate_against_chart(spec, heis, structure, pts, rng=rng)

    elapsed = time.perf_counter() - t0
    for name, worst in results.items():
        assert worst <= CHART_VALIDATION_TOL, f"{name}: residual {worst:.3e}"
    assert elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in results.items())
    print(f"[criterion 5] PASS: 20 points per chart, residuals {detail}, runtime {elapsed:.1f} s")


# --------------------------------------------------------------------------
# 6. catalog geometry anchors
# --------------------------------------------------------------------------

def test_criterion_6_catalog_anchors():
    # sphere immersion: rho^H = 1, C = 1, delta_C = 7/6, residual 1/6
    reports = verify_geometry("map-general", "sphere-immersion-S3")
    delta_rep = next(r for r in reports if r.variant == "delta")
    assert delta_rep.lhs == pytest.approx(1.0, abs=1e-6)
    assert delta_rep.casorati.C == pytest.approx(1.0, abs=1e-6)
    assert delta_rep.casorati.delta_C == pytest.approx(7.0 / 6.0, abs=1e-6)
    assert delta_rep.residual == pytest.approx(1.0 / 6.0, abs=1e-6)

    # warped product: traced T-identity and ambient fiber curvature
    warped = catalog.get("warped-product-R-x-R3").instantiate()
    t = oneill_T(warped)
    assert np.abs(np.abs(t.coeffs[0]) - np.eye(3)).max() <= 1e-5
    pair = gauss_submersion_vertical(warped, t=t)
    assert abs(pair.residual) <= 1e-5
    assert pair.right_2scal == pytest.approx(-6.0, abs=1e-4)

    # quaternionic Hopf: horizontal curvature, A norm, vanishing T, strictness
    hopf = catalog.get("quaternionic-hopf-S7-S4").instantiate()
    a = oneill_A(hopf)
    assert a.norm_squared() == pytest.approx(12.0, abs=1e-2)
    assert np.abs(oneill_T(hopf).coeffs).max() <= 1e-6
    pair = gauss_submersion_horizontal(hopf, a=a)
    assert pair.rho_left == pytest.approx(4.0, abs=1e-3)
    for rep in verify_geometry("sub-hor-general", "quaternionic-hopf-S7-S4"):
        assert rep.holds
        assert not rep.equality.is_equality_shape
        assert rep.residual > 1e-6  # strict: the horizontal distribution is not integrable
    print(
        "[criterion 6] PASS: sphere (rho 1, C 1, delta 7/6, residual 1/6), "
        "warped (T-identity, ambient -6), Hopf (rho 4, |A|^2 12, T = 0, strict)"
    )


# --------------------------------------------------------------------------
# 7. optimizer certification against the dense grid
# --------------------------------------------------------------------------

def test_criterion_7_optimizer_certification():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(3, 7))
        s = int(rng.integers(1, 4))
        mats = rng.standard_normal((s, r, r))
        mats = 0.5 * (mats + mats.transpose(0, 2, 1))
        coeffs = FormCoefficients(ROLE_B, mats)
        rep = delta_casorati(coeffs, seed=0)
        g_inf, _, g_sup, _ = grid_extrema(coeffs)
        worst = max(
            worst,
            abs(rep.C_L_inf - g_inf) / (1.0 + abs(g_inf)),
            abs(rep.C_L_sup - g_sup) / (1.0 + abs(g_sup)),
        )
    assert worst <= 1e-4

    desk = delta_casorati(FormCoefficients(ROLE_B, np.diag([1.0, 1.0, 2.0])[None]))
    assert desk.delta_C == pytest.approx(5.0 / 3.0, abs=1e-9)
    print(
        f"[criterion 7] PASS: 1000 coefficient sets, optimizer-vs-grid relative "
        f"disagreement {worst:.2e}; diag(1,1,2) delta_C = 5/3"
    )


# --------------------------------------------------------------------------
# 8. equality-shape perturbation
# --------------------------------------------------------------------------

def test_criterion_8_equality_perturbation():
    r = 4
    rho_reference = 0.3  # any comparison curvature; cancels in the residual
    coeffs = make_equality_shape(ROLE_B, [0.9, -0.5], r)

    def residual_of(c):
        rep = delta_casorati(c, certify=True)
        lhs = rho_reference + (c.trace_vector_norm_squared() - r * rep.C) / (r * (r - 1))
        rhs = rhs_for("map-general", "delta", r, rep, rho_reference=rho_reference)
        return rhs - lhs

    base = residual_of(coeffs)
    assert abs(base) <= 1e-10
    assert diagnose_equality(coeffs).is_equality_shape

    mats = coeffs.coeffs.copy()
    mats[0, 0, 1] = mats[0, 1, 0] = 1e-2
    perturbed = FormCoefficients(ROLE_B, mats)
    res = residual_of(perturbed)
    assert res > 0.0
    assert res > -1e-8 * (1.0 + abs(res))  # the inequality still holds
    assert not diagnose_equality(perturbed).is_equality_shape
    print(
        f"[criterion 8] PASS: equality residual {base:.2e}, perturbed residual "
        f"{res:.3e} > 0, diagnosis flips to false"
    )

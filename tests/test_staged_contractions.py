"""The per-point tensor contractions, taken in two-operand stages, against the
one-pass multi-operand einsum forms that they replace (``tests/reference.py``).

The staged forms reorder the sums, so they agree with the one-pass forms up
to rounding only. The largest gaps measured over the cases below are 5.7e-16
on the random data, relative to the same contraction of the absolute values
(the scale of a sum's rounding error), and 1.0e-15 on the catalog, relative
to 1 + |one-pass value| (a traced curvature); STAGED_TOL leaves 10x headroom.
"""

import numpy as np
import pytest

from casorati import catalog, rmaps
from casorati.cli import main
from casorati.curvature import scalar_on_subspace, traced_curvature
from casorati.framecore import forms_on_frames
from casorati.measures import ROLE_A, diagnose_equality
from reference import (
    forms_on_frames_in_one_pass,
    frame_coefficients_in_one_pass,
    frame_pairs_in_one_pass,
    nabla_fstar_in_one_pass,
    pushed_symbols_in_one_pass,
    range_leak_in_one_pass,
    rotated_in_one_pass,
    traced_curvature_in_one_pass,
)

STAGED_TOL = 1e-14


def _gap(staged, one_pass, scale) -> float:
    """max |staged - one_pass| / scale, 0.0 where they agree exactly (empty frames)."""
    gap = float(np.abs(np.asarray(staged) - one_pass).max(initial=0.0))
    return gap / scale if gap else 0.0


def _rows(rng, count: int, n: int, deficient: bool) -> np.ndarray:
    """``count`` random rows of length n; when ``deficient``, the last is a
    combination of the first two, so that the rows have rank count - 1."""
    rows = rng.standard_normal((count, n))
    if deficient and count >= 2:
        rows[-1] = 0.5 * rows[0] + 2.0 * rows[1]
    return rows


@pytest.mark.parametrize("n", range(2, 13))
def test_staged_contractions_match_the_one_pass_forms_on_random_data(n):
    rng = np.random.default_rng(2900 + n)
    for deficient in (False, True):
        components = rng.standard_normal((n, n, n, n))
        for count in sorted({0, 1, n // 2, n, n + 2}):
            e = _rows(rng, count, n, deficient)
            f = _rows(rng, int(rng.integers(0, n + 1)), n, deficient)

            one_pass = traced_curvature_in_one_pass(components, e)
            scale = traced_curvature_in_one_pass(np.abs(components), np.abs(e))
            if count == 0:
                assert traced_curvature(components, e) == 0.0 == one_pass
            else:
                assert _gap(traced_curvature(components, e), one_pass, scale) <= STAGED_TOL

            forms = rng.standard_normal((int(rng.integers(1, n + 1)), n, n))
            one_pass = forms_on_frames_in_one_pass(forms, e, f)
            staged = forms_on_frames(forms, e, f)
            assert staged.shape == one_pass.shape
            scale = forms_on_frames_in_one_pass(np.abs(forms), np.abs(e), np.abs(f))
            assert _gap(staged, one_pass, scale.max(initial=0.0)) <= STAGED_TOL

            # The Gamma2 J J term of nabla F*, for an m2 x n Jacobian.
            m2 = int(rng.integers(1, n + 1))
            gamma, jac = rng.standard_normal((m2, m2, m2)), rng.standard_normal((m2, n))
            one_pass = pushed_symbols_in_one_pass(gamma, jac)
            scale = pushed_symbols_in_one_pass(np.abs(gamma), np.abs(jac)).max()
            assert _gap(forms_on_frames(gamma, jac.T, jac.T), one_pass, scale) <= STAGED_TOL

            # Frame pairs of nabla F* against a target frame, and the leak test.
            a = rng.standard_normal((m2, m2))
            gram = a @ a.T + m2 * np.eye(m2)
            nabla = rng.standard_normal((m2, n, n))
            targets = _rows(rng, int(rng.integers(0, m2 + 1)), m2, deficient)
            lowered = frame_pairs_in_one_pass(nabla, gram, e, f)
            one_pass = np.einsum("ijd,ad->aij", lowered, targets)
            staged = rmaps._paired(forms_on_frames(nabla, e, f), gram, targets)
            assert staged.shape == one_pass.shape
            scale = np.einsum("ijd,ad->aij", frame_pairs_in_one_pass(
                np.abs(nabla), np.abs(gram), np.abs(e), np.abs(f)), np.abs(targets))
            assert _gap(staged, one_pass, scale.max(initial=0.0)) <= STAGED_TOL
            b_vec = forms_on_frames(nabla, e, e)
            one_pass = range_leak_in_one_pass(b_vec.transpose(1, 2, 0), gram, targets)
            staged = rmaps._paired(b_vec, gram, targets).transpose(1, 2, 0)
            assert staged.shape == one_pass.shape
            scale = range_leak_in_one_pass(np.abs(b_vec.transpose(1, 2, 0)), np.abs(gram),
                                           np.abs(targets))
            assert _gap(staged, one_pass, scale.max(initial=0.0)) <= STAGED_TOL

        # The rotation of diagnose_equality into an orthonormal basis.
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        one_pass = rotated_in_one_pass(v, forms)
        scale = rotated_in_one_pass(np.abs(v), np.abs(forms)).max()
        assert _gap(forms_on_frames(forms, v.T, v.T), one_pass, scale) <= STAGED_TOL


@pytest.mark.parametrize("entry", catalog.list_entries(), ids=lambda entry: entry.id)
def test_staged_contractions_match_the_one_pass_forms_on_every_catalog_entry(entry):
    mp = entry.instantiate()
    one_pass = nabla_fstar_in_one_pass(mp)
    assert _gap(mp.nabla_fstar, one_pass, 1.0 + np.abs(one_pass).max()) <= STAGED_TOL

    sides = ((mp.source_curvature, (mp.horizontal_frame, mp.vertical_frame)),
             (mp.target_curvature, (mp.range_frame,)))
    for tensor, frames in sides:
        for frame in frames:
            one_pass = traced_curvature_in_one_pass(tensor.components, frame.vectors)
            staged = scalar_on_subspace(tensor, frame)
            assert _gap(staged, one_pass, 1.0 + abs(one_pass)) <= STAGED_TOL

    staged = [rmaps.second_fundamental_form(mp)]
    if mp.is_submersion:
        staged += [rmaps.oneill_T(mp), rmaps.oneill_A(mp)]
    one_pass = frame_coefficients_in_one_pass(mp)
    assert sorted(one_pass) == sorted(form.role for form in staged)
    for form in staged:
        want = one_pass[form.role].coeffs
        assert form.coeffs.shape == want.shape
        assert _gap(form.coeffs, want, 1.0 + np.abs(want).max(initial=0.0)) <= STAGED_TOL
        if form.r < 3 or form.role == ROLE_A:
            continue
        _, v = np.linalg.eigh(form.stack.gram)
        rotated = rotated_in_one_pass(v, form.coeffs)
        scale = 1.0 + np.abs(rotated).max(initial=0.0)
        assert _gap(forms_on_frames(form.coeffs, v.T, v.T), rotated, scale) <= STAGED_TOL
        offdiag = float(np.abs(rotated * (1.0 - np.eye(form.r))).max(initial=0.0))
        assert abs(diagnose_equality(form).max_offdiag - offdiag) <= STAGED_TOL * scale


def test_the_per_point_path_makes_no_einsum_call_of_more_than_two_operands(
    monkeypatch, capsys
):
    # A one-pass einsum over three or more operands loops over the whole index
    # product (n^4 k^2 terms for a traced curvature), and optimize= searches a
    # contraction path on every call; the per-point path takes neither.
    calls = []
    einsum = np.einsum

    def recording(*args, **kwargs):
        operands = len(args) - 1 if isinstance(args[0], str) else len(args) // 2
        calls.append((args[0] if isinstance(args[0], str) else "sublists", operands, kwargs))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    for entry in catalog.list_entries():
        main(["invariants", "--geometry", entry.id])
        main(["verify", "--theorem", "all", "--geometry", entry.id])
    capsys.readouterr()
    assert calls, "the wrapper saw no einsum call: the per-point path was not reached"
    assert [call for call in calls if call[1] > 2] == []
    assert [call for call in calls if "optimize" in call[2]] == []

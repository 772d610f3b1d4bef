import importlib.util
import json
from pathlib import Path

import numpy as np

from casorati import ROLE_B, FormCoefficients, delta_casorati

SPEC = importlib.util.spec_from_file_location(
    "report_dump", Path(__file__).resolve().parent.parent / "tools" / "report_dump.py"
)
report_dump = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(report_dump)


def _dump(path, lines):
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    return str(path)


def _line(exit_code=0, c_l_inf=1.0, iterations=40, starts=20, holds=True):
    optimizer = {"converged": True, "certified": True, "starts": starts, "iterations": iterations}
    report = {"reports": [{"holds": holds, "casorati": {"C_L_inf": c_l_inf, "optimizer": optimizer}}]}
    return {"argv": ["verify", "--theorem", "all"], "exit": exit_code, "report": report}


def test_compare_reports_numbers_and_fails_on_other_changes(tmp_path, capsys):
    before = _dump(tmp_path / "before.jsonl", [_line(), _line()])

    same = report_dump.compare(before, _dump(tmp_path / "same.jsonl", [_line(), _line()]))
    assert same == 0
    assert "2 of 2 lines byte-identical" in capsys.readouterr().out

    moved = [_line(c_l_inf=1.0 + 1e-12, iterations=10), _line()]
    assert report_dump.compare(before, _dump(tmp_path / "moved.jsonl", moved)) == 0
    out = capsys.readouterr().out
    assert "report.reports[].casorati.C_L_inf: relative 1.00e-12" in out
    assert "report.reports[].casorati.optimizer.iterations: relative 7.50e-01" in out
    assert "0 other changes" in out

    for changed in (_line(exit_code=1), _line(holds=False), _line(starts=19)):
        assert report_dump.compare(before, _dump(tmp_path / "bad.jsonl", [changed, _line()])) == 1
        assert "1 other changes" in capsys.readouterr().out
    assert report_dump.compare(before, _dump(tmp_path / "short.jsonl", [_line()])) == 1


def test_compare_states_a_change_across_zero_on_the_gates_scale(tmp_path, capsys):
    # A residual that moves from 4.6e-12 to -4.7e-12 changes by 1e-12 relative to
    # 1 + |before|, where its relative change |a - b| / max(|a|, |b|) reads near 2.
    before = _dump(tmp_path / "before.jsonl", [_line(c_l_inf=4.6e-12)])
    after = _dump(tmp_path / "after.jsonl", [_line(c_l_inf=-4.7e-12)])
    assert report_dump.compare(before, after) == 0
    out = capsys.readouterr().out
    assert "C_L_inf: relative 1.98e+00, to 1 + |before| 9.30e-12, absolute 9.30e-12" in out

    moved = _dump(tmp_path / "moved.jsonl", [_line(c_l_inf=3.0)])
    assert report_dump.compare(_dump(tmp_path / "one.jsonl", [_line(c_l_inf=1.0)]), moved) == 0
    assert "C_L_inf: relative 6.67e-01, to 1 + |before| 1.00e+00, absolute 2.00e+00" in (
        capsys.readouterr().out
    )


def test_compare_counts_flipped_and_moved_normals(tmp_path, capsys):
    def line(inf_normal, sup_normal):
        report = {"C_L_inf": 1.0, "inf_normal": inf_normal, "sup_normal": sup_normal}
        return {"argv": ["delta_casorati"], "exit": None, "report": report}

    before = _dump(tmp_path / "before.jsonl", [line([0.6, -0.8], [1.0, 0.0])] * 3)
    after = [
        line([-0.6, 0.8], [1.0, 0.0]),  # inf flipped
        line([-0.6, 0.8 + 1e-9], [0.0, 1.0]),  # inf moved off the hyperplane, sup moved
        line([0.6, -0.8], [-1.0, 0.0]),  # sup flipped
    ]
    assert report_dump.compare(before, _dump(tmp_path / "after.jsonl", after)) == 0
    out = capsys.readouterr().out
    assert "2 normals flipped (same hyperplane), 2 moved" in out
    assert "0 other changes" in out


def test_compare_counts_moved_normals_on_flat_optima(tmp_path, capsys):
    def line(c_l_sup, sup_normal):
        block = {"C_L_inf": 2.0, "C_L_sup": c_l_sup, "inf_normal": [1.0, 0.0],
                 "sup_normal": sup_normal}
        return {"argv": ["invariants"], "exit": 0, "report": {"coefficients": {"B": block}}}

    flat, steep = 2.0 + 2e-8, 2.0 + 4e-8  # C_L_sup - C_L_inf within 1e-8 (1 + 2) or not
    before = [line(flat, [1.0, 0.0]), line(flat, [1.0, 0.0]), line(steep, [1.0, 0.0])]
    after = [
        line(flat, [0.0, 1.0]),  # moved on a flat optimum
        line(steep, [0.0, 1.0]),  # moved; flat before, steep after
        line(steep, [-1.0, 0.0]),  # flipped
    ]
    assert report_dump.compare(
        _dump(tmp_path / "before.jsonl", before), _dump(tmp_path / "after.jsonl", after)
    ) == 0
    assert "1 normals flipped (same hyperplane), 2 moved, 1 of them on a flat optimum" in (
        capsys.readouterr().out
    )


def test_compare_counts_rotated_and_moved_frames(tmp_path, capsys):
    def line(horizontal):
        frames = {"horizontal": horizontal, "range": [[1.0, 0.0]], "vertical": []}
        return {"argv": ["invariants"], "exit": 0, "report": {"C": 1.0, "frames": frames}}

    before = _dump(tmp_path / "before.jsonl", [line([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])] * 2)
    rotated = line([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0]])  # another basis of the same plane
    moved = line([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])  # another plane

    assert report_dump.compare(before, _dump(tmp_path / "rotated.jsonl", [rotated] * 2)) == 0
    out = capsys.readouterr().out
    assert "2 frames rotated (same span), 0 moved" in out
    assert "0 of 2 numeric fields changed" in out  # C and the range; the rotated frame is none

    assert report_dump.compare(before, _dump(tmp_path / "mixed.jsonl", [rotated, moved])) == 0
    out = capsys.readouterr().out
    assert "1 frames rotated (same span), 1 moved" in out
    assert "report.frames.horizontal[][]: relative" in out
    assert "0 other changes" in out


def test_certify_lines_hold_the_certified_reports_of_the_workload_sets():
    lines = report_dump.certify_lines(seeds=(0,), rounds=1)
    assert len(lines) == 36
    assert len({" ".join(line["argv"]) for line in lines}) == 36
    # The first set of a round is drawn first: role B, r = 3, s = 1.
    assert lines[0]["argv"] == ["delta_casorati", ROLE_B, "r=3", "s=1", "seed=0", "round=0"]
    coeffs = report_dump.workloads.random_coefficients(np.random.default_rng(0), ROLE_B, 3, 1)
    want = delta_casorati(FormCoefficients(ROLE_B, coeffs), certify=True).to_json()
    assert lines[0]["report"] == json.loads(json.dumps(want))
    assert all(line["exit"] is None and line["report"]["optimizer"]["certified"] for line in lines)

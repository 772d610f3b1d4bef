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

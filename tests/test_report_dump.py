import importlib.util
import json
from pathlib import Path

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

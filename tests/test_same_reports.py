import importlib.util
from pathlib import Path

import pytest

from strathardy.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_reports", ROOT / "tools" / "same_reports.py")
same_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_reports)


def _cases(*labels):
    cases = {case.label: case for case in same_reports.matrix()}
    return [cases[label] for label in labels]


def test_matrix_covers_every_subcommand_and_workload():
    labels = [case.label for case in same_reports.matrix()]
    assert len(set(labels)) == len(labels)
    assert {f"{c}:default" for c in COMMANDS} <= set(labels)
    assert {"h2-hardy:hardy", "h3-hardy-mc:hardy"} <= set(labels)


def test_the_tree_matches_itself():
    cases = _cases("hardy:oblique", "bft-fuzz:default")
    assert same_reports.compare(ROOT, ROOT, cases) == []


def test_a_different_tree_is_reported(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "strathardy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    print('other')\n    return 2\n")
    cases = _cases("sharpness:default")
    monkeypatch.setattr(same_reports, "matrix", lambda: cases)
    assert same_reports.main(["--against", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    # every seed and format differs, in stdout and in the exit code
    assert out.count("exit code 2 -> 0") == 4 and out.count("-other") == 4
    assert "sharpness:default seed 42 json:" in out
    assert out.endswith("0 of 4 runs identical (1 configs)\n")


def test_rejects_a_tree_without_the_package(tmp_path):
    with pytest.raises(SystemExit, match="no package"):
        same_reports.main(["--against", str(tmp_path)])

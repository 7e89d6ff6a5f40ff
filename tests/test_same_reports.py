import copy
import functools
import importlib.util
import json
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
    # a ball that touches the boundary keeps the graded rule; abelian:5 takes the ball rule
    assert {"hardy:touching", "sobolev:abelian5"} <= set(labels)
    # oblique distances on the cached 5- and 7-dimension ball templates, and
    # heisenberg:5's template, too large to cache
    assert {"hardy:heisenberg2-oblique", "hardy:heisenberg3-oblique", "hardy:heisenberg5"} <= set(labels)
    # a config that names the one quadrature method keeps the digest of one that does not
    assert "hardy:explicit-method" in labels
    # luan-young on a normal and a p the command overrides; the smallest ball companion
    new = {"luan-young:heisenberg2-oblique", "luan-young:p-2-3", "hardy:heisenberg2-4-points"}
    assert new <= set(labels)
    # the horizontal split on an offset normal up to p = 4, and on heisenberg:2
    assert {"remainder:offset", "remainder:heisenberg2"} <= set(labels)
    # the split and the p* integrand on heisenberg:3's symmetric sphere rule
    assert {"remainder:heisenberg3", "sobolev:heisenberg3"} <= set(labels)
    # a sharpness sweep of 12 rows, and one on a box rule of many blocks
    assert {"sharpness:12-rows", "sharpness:32-points"} <= set(labels)
    # a ball rule integrated in many blocks, on a template too large to cache
    assert "hardy:heisenberg2-24-points" in labels
    # one refused input per subcommand
    assert {f"{c}:refused" for c in COMMANDS} <= set(labels)


def test_each_refused_case_exits_3_with_one_line(tmp_path):
    # the stderr compared is one refusal line, not a traceback
    for case in _cases(*(f"{c}:refused" for c in COMMANDS)):
        same_reports._config_path(tmp_path, case).write_text(json.dumps(case.config))
        done = same_reports._run(ROOT, case, 42, "csv", tmp_path)
        assert (done.code, done.stdout, done.stderr.count("\n")) == (3, "", 1), case.label
        assert done.stderr.startswith("configuration error: "), case.label


def test_the_tree_matches_itself():
    cases = _cases("hardy:oblique", "bft-fuzz:default")
    assert same_reports.compare(ROOT, ROOT, cases) == ([], [])


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


def _report_tree(root, quotient, evaluations=16384, label="hardy"):
    """A tree whose CLI prints one report row in the format it is asked for."""
    package = root / "src" / "strathardy"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import json\n"
        "def main(argv):\n"
        f"    row = {{'inequality_id': {label!r}, 'quotient': {quotient!r}, 'evaluations': {evaluations}}}\n"
        "    if argv[argv.index('--format') + 1] == 'json':\n"
        "        print(json.dumps({'rows': [row]}))\n"
        "    else:\n"
        "        print(','.join(row))\n"
        "        print(','.join(str(v) for v in row.values()))\n"
        "    return 0\n"
    )
    return root


@pytest.mark.parametrize(
    "theirs, passes",
    [
        ({"quotient": 0.1 * (1 + 1e-15)}, True),
        ({"quotient": 0.1 * (1 + 1e-9)}, False),
        ({"quotient": 0.1 * (1 + 1e-15), "evaluations": 16385}, False),
        ({"quotient": 0.1 * (1 + 1e-15), "label": "hardy:other"}, False),
    ],
)
def test_rtol_lets_only_numbers_differ(tmp_path, monkeypatch, capsys, theirs, passes):
    cases = _cases("sharpness:default")
    monkeypatch.setattr(same_reports, "ROOT", _report_tree(tmp_path / "ours", 0.1))
    monkeypatch.setattr(same_reports, "matrix", lambda: cases)
    other = str(_report_tree(tmp_path / "theirs", **theirs))
    assert same_reports.main(["--against", other, "--rtol", "1e-12"]) == (0 if passes else 1)
    out = capsys.readouterr().out
    if passes:
        assert out == "0 of 4 runs identical, 4 within relative 1e-12 (worst 1.1e-15) (1 configs)\n"
    # without the flag every run differs
    assert same_reports.main(["--against", other]) == 1
    assert capsys.readouterr().out.endswith("0 of 4 runs identical (1 configs)\n")


@pytest.mark.parametrize(
    "ours, theirs, gap",
    [
        ('{"a": [1.0, 2.0], "evaluations": 3}', '{"a": [1.0, 2.0000000002], "evaluations": 3}', 1e-10),
        ('{"a": 1.0}', '{"b": 1.0}', float("inf")),
        ('{"a": NaN}', '{"a": NaN}', 0.0),
        ('{"a": 0.0}', '{"a": 1e-300}', 1.0),
        ('{"a": true}', '{"a": 1}', float("inf")),
        ('{"evaluations": 3}', '{"evaluations": 4}', float("inf")),
        ("not json", "not json either", float("inf")),
    ],
)
def test_report_gap(ours, theirs, gap):
    assert same_reports.report_gap(ours, theirs, "json") == pytest.approx(gap, rel=1e-6)



_ROW = {"quotient": 0.25, "stderr": 1e-6, "numerator": {"value": 0.5, "stderr": 1e-7, "evaluations": 9216}}
# a row of large numbers and a large config entry scale only themselves
_BIG = {"quotient": 1e6, "stderr": 1.0, "numerator": None}
_CONFIG = {"sample_count": 1e9}


@pytest.mark.parametrize(
    "path, factor, passes",
    [
        # 1e-10 of the stderr is 2e-16 of the row's largest number
        (("stderr",), 1 + 1e-10, True),
        (("numerator", "stderr"), 1 + 1e-10, True),
        (("numerator", "value"), 1 + 1e-9, False),
        (("quotient",), 1 + 1e-9, False),
    ],
)
def test_rtol_scales_each_number_by_its_json_row(path, factor, passes):
    moved = copy.deepcopy(_ROW)
    *parents, last = path
    functools.reduce(dict.__getitem__, parents, moved)[last] *= factor
    ours, theirs = ({"config": _CONFIG, "rows": [_BIG, row]} for row in (_ROW, moved))
    assert (same_reports.report_gap(json.dumps(ours), json.dumps(theirs), "json") <= 1e-12) == passes


@pytest.mark.parametrize(
    "column, factor, passes",
    [("stderr", 1 + 1e-10, True), ("numerator", 1 + 1e-9, False)],
)
def test_rtol_scales_each_number_by_its_csv_line(column, factor, passes):
    columns = ("quotient_or_margin", "numerator", "stderr")

    def report(**moved):
        values = {"quotient_or_margin": 0.25, "numerator": 0.5, "stderr": 1e-6, **moved}
        line = ",".join(repr(values[c]) for c in columns)
        return f"inequality_id,{','.join(columns)},evaluations\nhardy,1000000.0,,1.0,9216\nhardy,{line},9216\n"

    theirs = report(**{column: {"numerator": 0.5, "stderr": 1e-6}[column] * factor})
    assert (same_reports.report_gap(report(), theirs, "csv") <= 1e-12) == passes

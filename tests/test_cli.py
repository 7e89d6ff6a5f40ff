import argparse
import contextlib
import ctypes
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import strathardy
from strathardy import (
    CSV_COLUMNS, IntegralEstimate, Report, SharpnessSpec, calculus, cli, experiments, quadrature, render_json,
)
from strathardy.cli import COMMANDS, fix_malloc_thresholds, main
from strathardy.config import SIZE_BOUNDS, build_trials, load_config, resolve


SMALL = {
    "trials": {"count": 3},
    "quadrature": {"points_per_axis": 8},
    "p": [2.0],
    "seed": 11,
}


def write_config(tmp_path, name="cfg.json", **over):
    cfg = json.loads(json.dumps(SMALL))
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_hardy_passes(self, tmp_path, capsys):
        code, out, _ = run(["hardy", "--config", write_config(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 3  # one row per trial

    def test_unknown_config_key_is_code_3(self, tmp_path, capsys):
        path = write_config(tmp_path, quadrture={"points_per_axis": 8})
        code, out, err = run(["hardy", "--config", path], capsys)
        assert code == 3
        assert "configuration error" in err and "quadrture" in err
        assert out == ""

    def test_bad_group_is_code_3(self, tmp_path, capsys):
        path = write_config(tmp_path, group="free:2")
        code, _, err = run(["hardy", "--config", path], capsys)
        assert code == 3 and "unknown group name" in err

    def test_malformed_json_is_code_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(["hardy", "--config", str(path)], capsys)
        assert code == 3 and "not valid JSON" in err

    def test_missing_file_is_code_3(self, capsys):
        code, _, err = run(["hardy", "--config", "/nonexistent/cfg.json"], capsys)
        assert code == 3 and "cannot read" in err

    def test_violated_contract_is_code_2(self, tmp_path, capsys, monkeypatch):
        # the power of dist read as (p - 1) / p + 0.55 - eps, as a wrong
        # exponent would be: the trials then move away from the extremal
        # as eps falls, and the quotient rises; the default resolution keeps
        # the error bars small enough to see it
        exponent = property(lambda s: (s.p - 1.0) / s.p + 0.55 - s.eps)
        monkeypatch.setattr(SharpnessSpec, "exponent", exponent)
        path = write_config(
            tmp_path,
            eps=[0.5, 0.05],
            cutoff_radius=1.0,
            quadrature={"points_per_axis": 16},
        )
        code, out, err = run(["sharpness", "--config", path], capsys)
        assert code == 2
        assert out  # the report is still written for inspection
        # one line per failing row; here the pair that breaks the decrease
        assert err.count("\n") == 1
        assert err.startswith("contract violated: rows 0,1 sharpness: quotient rose")
        assert "eps 0.5 -> 0.05" in err

    def test_a_sweep_listed_by_increasing_eps_holds(self, tmp_path, capsys):
        # each p's rows are compared by decreasing eps, not in list order
        path = tmp_path / "cfg.json"
        runs = []
        for eps in ([0.05, 0.1, 0.2, 0.5], [0.5, 0.2, 0.1, 0.05]):
            path.write_text(json.dumps({"p": [2.0], "eps": eps}))
            runs.append(run(["sharpness", "--config", str(path), "--seed", "42"], capsys))
        assert [(code, err) for code, _, err in runs] == [(0, ""), (0, "")]
        # the rows but their config digests, which hash the eps list
        rising, falling = ([line.rsplit(",", 1)[0] for line in out.splitlines()[1:]] for _, out, _ in runs)
        assert len(rising) == 4 and rising == falling[::-1]

    @pytest.mark.parametrize("cancel", [True, False])
    def test_a_sharpness_rise_is_measured_against_its_paired_bar(self, cancel):
        # both numerators err by +0.5 in one replicate: the errors cancel in
        # q_b - q_a, so a rise of 0.5 is far outside its paired bar, though
        # inside 3 (a.stderr + b.stderr) = 3; errors in separate replicates
        # leave the bar at 0.5 sqrt(2), which the rise is inside
        den = IntegralEstimate(1.0, 0.0, 10, (0.0, 0.0))

        def row(quotient, eps, replicates):
            num = IntegralEstimate(quotient, 0.5, 10, replicates)
            return Report("sharpness", 2.0, "heisenberg:1", (1.0, 0.0, 0.0), 0.0, quotient, 0.25,
                          quotient - 0.25, 0.5, 10, 42, "digest", num, den,
                          {"eps": eps, "label": "verification"})

        reports = [row(10.0, 0.5, (0.5, 0.0)), row(10.5, 0.25, (0.5, 0.0) if cancel else (0.0, 0.5))]
        failures = COMMANDS["sharpness"].failures(reports)
        if cancel:
            assert failures == ["rows 0,1 sharpness: quotient rose from 10.0 to 10.5 at eps 0.5 -> 0.25, slack 0.01"]
        else:
            assert failures == []

    def test_each_p_is_compared_by_decreasing_eps(self):
        # p 2 and 3 interleaved, eps out of order: p 2 falls with eps, p 3
        # rises from eps 0.5 (row 1) to 0.1 (row 3), and the rows are named
        den = IntegralEstimate(1.0, 0.0, 10, (0.0,))

        def row(p, quotient, eps):
            num = IntegralEstimate(quotient, 0.0, 10, (0.0,))
            return Report("sharpness", p, "heisenberg:1", (1.0, 0.0, 0.0), 0.0, quotient, 0.25,
                          quotient - 0.25, 0.0, 10, 42, "digest", num, den,
                          {"eps": eps, "label": "verification"})

        reports = [row(2.0, 0.4, 0.1), row(3.0, 0.5, 0.5), row(2.0, 0.6, 0.5), row(3.0, 0.9, 0.1), row(2.0, 0.5, 0.2)]
        assert COMMANDS["sharpness"].failures(reports) == [
            "rows 1,3 sharpness: quotient rose from 0.5 to 0.9 at eps 0.5 -> 0.1, slack 0.001"
        ]

    def test_failing_rows_are_named(self):
        def row(margin):
            return Report("hardy", 2.0, "heisenberg:1", (0.0, 0.0, 1.0), 0.0, 0.25 + margin,
                          0.25, margin, 1e-3, 10, 42, "digest")

        reports = [row(0.1), row(-0.5), row(0.0)]
        failures = COMMANDS["hardy"].failures(reports)
        tol = reports[1].contract_tolerance()
        assert failures == [f"row 1 hardy: margin -0.5, tolerance {tol!r}"]


class TestCommands:
    def test_identities_rows(self, tmp_path, capsys):
        path = write_config(tmp_path, identity_points=50, identity_indices=[1])
        code, out, _ = run(["identities", "--config", path], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        ids = [r.split(",")[0] for r in rows]
        assert len(ids) == 7
        assert all(i.startswith("identity:") for i in ids)

    def test_general_hardy(self, tmp_path, capsys):
        path = write_config(tmp_path, trials={"count": 2}, beta=[-0.5, -0.2])
        code, out, _ = run(["general-hardy", "--config", path], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 4

    def test_remainder_rejects_small_p(self, tmp_path, capsys):
        path = write_config(tmp_path, p=[1.5])
        code, _, err = run(["remainder", "--config", path], capsys)
        assert code == 3 and "p >= 2" in err

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_hardy_above_heisenberg_3_gives_a_usable_verdict(self, tmp_path, capsys, k):
        # at the default resolution these interior bumps take the ball rule;
        # the graded rule's Monte Carlo lines missed the bump on heisenberg:6
        # (a zero denominator, exit 3) and left error bars of 50-90% on 4 and 5
        path = write_config(tmp_path, group=f"heisenberg:{k}", quadrature={"points_per_axis": 16}, seed=42)
        code, out, err = run(["hardy", "--config", path], capsys)
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            assert float(row[6]) < 0.1 * abs(float(row[2]))

    def test_sobolev(self, tmp_path, capsys):
        path = write_config(tmp_path, trials={"count": 2})
        code, out, _ = run(["sobolev", "--config", path], capsys)
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[2]) > 0

    def test_bft_fuzz(self, tmp_path, capsys):
        path = write_config(tmp_path, samples=20_000)
        code, out, _ = run(["bft-fuzz", "--config", path], capsys)
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[0] == "bft" and float(row[2]) == 0.0

    def test_sharpness_defaults_to_first_axis(self, tmp_path, capsys):
        path = write_config(tmp_path, eps=[0.4, 0.1])
        code, out, _ = run(["sharpness", "--config", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["halfspace"] == {"preset": "x1-axis", "d": 0.0}
        labels = [r["extras"]["label"] for r in doc["rows"]]
        assert labels == ["verification", "verification"]

    def test_sharpness_honors_explicit_halfspace(self, tmp_path, capsys):
        path = write_config(
            tmp_path, eps=[0.3], halfspace={"preset": "t-axis", "d": 0.0}
        )
        code, out, _ = run(["sharpness", "--config", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["halfspace"]["preset"] == "t-axis"
        assert doc["rows"][0]["extras"]["label"] == "probe"

    def test_sharpness_offset_alone_keeps_first_axis(self, tmp_path, capsys):
        path = write_config(tmp_path, eps=[0.3], halfspace={"d": 0.25})
        code, out, _ = run(["sharpness", "--config", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["halfspace"] == {"preset": "x1-axis", "d": 0.25}
        assert doc["rows"][0]["nu"] == [1.0, 0.0, 0.0]

    def test_explicit_normal(self, tmp_path, capsys):
        path = write_config(tmp_path, halfspace={"nu": [0.0, 0.0, 2.0], "d": 0.0})
        code, out, _ = run(["hardy", "--config", path, "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["halfspace"] == {"nu": [0.0, 0.0, 1.0], "d": 0.0}

    def test_luan_young_forces_t_axis(self, tmp_path, capsys):
        path = write_config(
            tmp_path, trials={"count": 2}, halfspace={"preset": "x1-axis", "d": 0.0}
        )
        code, out, _ = run(["luan-young", "--config", path, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["halfspace"]["preset"] == "t-axis"
        assert all(r["nu"] == [0.0, 0.0, 1.0] for r in doc["rows"])


class TestDiscrimination:
    # the sharp constant patched to k C_p, as a wrong constant would be: on
    # the default heisenberg:1 trials at p 2 and 3, seed 42, the remainder's
    # paired bar first fails a row at k = 1.0263; a change may lower the
    # smallest k pinned to exit 2, never raise it
    @pytest.mark.parametrize("k, code", [(1.0, 0), (1.03, 2), (1.05, 2)])
    def test_remainder_catches_a_constant_too_large(self, tmp_path, capsys, monkeypatch, k, code):
        sharp = experiments.sharp_hardy_constant
        monkeypatch.setattr(experiments, "sharp_hardy_constant", lambda p: k * sharp(p))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"p": [2, 3]}))
        got, out, err = run(["remainder", "--config", str(path), "--seed", "42"], capsys)
        assert got == code and len(out.splitlines()) == 1 + 2 * 20
        assert ("contract violated: " in err) == (code == 2)


class TestOutput:
    def test_the_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        path = write_config(tmp_path)
        first, second = (run(["hardy", "--config", path], capsys) for _ in range(2))
        assert first == second and first[0] == 0
        # the parser and one subparser per command, all built by the first call
        assert made.count("strathardy") == 1 and len(made) == 1 + len(COMMANDS)

    def test_out_file_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["hardy", "--config", cfg, "--out", str(a)]) == 0
        assert main(["hardy", "--config", cfg, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, csv_text, _ = run(["hardy", "--config", cfg], capsys)
        code2, json_text, _ = run(["hardy", "--config", cfg, "--format", "json"], capsys)
        assert code == code2 == 0
        doc = json.loads(json_text)
        csv_rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
        assert len(doc["rows"]) == len(csv_rows)
        for jrow, crow in zip(doc["rows"], csv_rows):
            assert jrow["inequality_id"] == crow[0]
            assert jrow["quotient_or_margin"] == float(crow[2])
            assert jrow["evaluations"] == int(crow[7])
            assert jrow["config_digest"] == crow[9]
        assert doc["config"]["command"] == "hardy"

    def test_seed_override_changes_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        _, out1, _ = run(["hardy", "--config", cfg, "--seed", "1"], capsys)
        _, out2, _ = run(["hardy", "--config", cfg, "--seed", "2"], capsys)
        assert out1 != out2
        seed_col = out1.strip().split("\n")[1].split(",")[8]
        assert seed_col == "1"

    def test_digest_depends_on_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials={"count": 2})
        _, hardy_out, _ = run(["hardy", "--config", cfg], capsys)
        _, sobolev_out, _ = run(["sobolev", "--config", cfg], capsys)
        d1 = hardy_out.strip().split("\n")[1].split(",")[9]
        d2 = sobolev_out.strip().split("\n")[1].split(",")[9]
        assert d1 != d2


class TestRefusals:
    """Each input outside a check's hypotheses is refused once, by the code
    that states its condition, before anything is integrated; a Refusal,
    and nothing else, exits 3."""

    @pytest.mark.parametrize(
        "command, over, line",
        [
            ("remainder", {"p": [1.5]}, "the remainder check needs p >= 2"),
            ("sobolev", {"group": "heisenberg:1", "p": [4.0]}, "sobolev needs 2 <= p < Q = 4, got p = 4.0"),
            ("luan-young", {"group": "abelian:3"}, "luan-young needs a group of the Heisenberg family, got abelian:3"),
            ("sharpness", {"eps": [0]}, "eps must be positive"),
            (
                "sharpness",
                {"p": [2.0], "eps": [0.025]},
                "sharpness row p=2.0, eps=0.025 has p*eps < 0.1: its denominator exponent p*eps - 1 "
                "is below -0.9, where quadrature is not validated",
            ),
            ("bft-fuzz", {"samples": 0}, "samples must be positive, got 0"),
            ("identities", {"identity_indices": [0]}, "identity_indices must be Heisenberg indices >= 1, got [0]"),
            (
                "general-hardy",
                {"beta": [1e300]},
                "beta 1e+300 at p=2.0: its beta-form coefficient is past the float range",
            ),
        ],
    )
    def test_refused_before_any_integration(self, tmp_path, capsys, monkeypatch, command, over, line):
        calls = []
        integrate = quadrature.integrate_many

        def counted(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        for module in (quadrature, experiments):
            monkeypatch.setattr(module, "integrate_many", counted)
        report = tmp_path / "report.csv"
        code, out, err = run([command, "--config", write_config(tmp_path, **over), "--out", str(report)], capsys)
        assert (code, out, err) == (3, "", f"configuration error: {line}\n")
        assert not report.exists() and calls == []

    def test_a_plain_value_error_is_a_bug_not_a_refusal(self, tmp_path, capsys, monkeypatch):
        def runner(*args):
            raise ValueError("a bug")

        monkeypatch.setitem(COMMANDS, "hardy", COMMANDS["hardy"]._replace(run=runner))
        with pytest.raises(ValueError, match="a bug") as got:
            main(["hardy", "--config", write_config(tmp_path)])
        assert type(got.value) is ValueError and capsys.readouterr().err == ""


class TestRejectedConfigs:
    """Configs that must exit 3 with one line on stderr and no report."""

    @pytest.mark.parametrize(
        "command, over",
        [
            # the ball rule's 96 radii x 48 x 24^3 directions, about 6.4e7;
            # rejected before allocation
            ("hardy", {"group": "heisenberg:2", "quadrature": {"points_per_axis": 64}}),
            # the boundary-graded rule's Monte Carlo branch: a sharpness
            # cutoff sits on the boundary, so it never takes the ball rule
            ("sharpness", {"group": "heisenberg:3", "quadrature": {"sample_count": 30_000_000}}),
            # its tensor branch: 64^4 transverse nodes on lines of 61 panels
            # of 8, about 8.2e9
            ("sharpness", {"group": "heisenberg:2", "quadrature": {"points_per_axis": 64}}),
            # the ball rule of an interior bump in five abelian dimensions
            ("sobolev", {"group": "abelian:5", "quadrature": {"points_per_axis": 64}}),
        ],
    )
    def test_node_budget(self, tmp_path, capsys, command, over):
        code, out, err = run([command, "--config", write_config(tmp_path, **over)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "budget" in err

    @pytest.mark.parametrize(
        "command, over, name",
        [
            ("hardy", {"seed": 1.5}, "seed"),
            ("hardy", {"quadrature": {"points_per_axis": 2.7}}, "points_per_axis"),
            ("hardy", {"quadrature": {"sample_count": 1000.9}}, "sample_count"),
            ("hardy", {"trials": {"count": 2.5}}, "trials.count"),
            ("bft-fuzz", {"samples": 1000.5}, "samples"),
            ("identities", {"identity_points": 10.5}, "identity_points"),
            ("identities", {"identity_indices": [1.5]}, "identity_indices"),
            ("hardy", {"seed": float("inf")}, "seed"),
        ],
    )
    def test_non_integral_counts(self, tmp_path, capsys, command, over, name):
        code, out, err = run([command, "--config", write_config(tmp_path, **over)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and name in err and "integer" in err

    @pytest.mark.parametrize(
        "command, over, name",
        [
            ("bft-fuzz", {"samples": 0}, "samples"),
            ("identities", {"identity_points": 0}, "identity_points"),
            ("identities", {"identity_indices": [0]}, "identity_indices"),
        ],
    )
    def test_zero_counts(self, tmp_path, capsys, command, over, name):
        code, out, err = run([command, "--config", write_config(tmp_path, **over)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and name in err

    @pytest.mark.parametrize(
        "command, over, name",
        [
            ("sobolev", {"p": [4.0]}, "Q = 4"),  # p >= Q on heisenberg:1
            ("luan-young", {"group": "abelian:3"}, "Heisenberg"),
            ("general-hardy", {"beta": -0.5}, "beta"),
            ("hardy", {"halfspace": {"preset": "t-axis", "d": float("nan")}}, "finite"),
            ("hardy", {"p": [float("inf")]}, "p must be"),
            ("hardy", {"p": "23"}, "p must be"),  # not iterated as [2, 3]
            ("sharpness", {"eps": "51"}, "eps"),
            ("hardy", {"trials": {"radius": [0.2]}}, "trials.radius"),
            ("hardy", {"halfspace": {"preset": "t-axis", "nu": [0.0, 0.0, 1.0]}}, "preset"),
            # a JSON boolean is not a count, a string is not a number
            ("bft-fuzz", {"samples": True}, "samples"),
            ("hardy", {"trials": {"count": True}}, "trials.count"),
            ("hardy", {"quadrature": {"points_per_axis": "8"}}, "points_per_axis"),
            ("hardy", {"halfspace": {"d": "-0.5"}}, "halfspace.d"),
            ("sharpness", {"cutoff_radius": "1"}, "cutoff_radius"),
            ("hardy", {"halfspace": {"nu": ["0", "0", "1"]}}, "halfspace.nu"),
            ("hardy", {"quadrature": {"grading_exponent": "4"}}, "grading_exponent"),
            ("hardy", {"trials": {"region": "1.2"}}, "trials.region"),
            ("hardy", {"trials": {"clearance": True}}, "trials.clearance"),
            # bumps that cross the boundary would fail the theorem, not the code
            ("hardy", {"trials": {"clearance": -0.3, "count": 3}}, "clearance must be >= 0"),
            ("sharpness", {"cutoff_radius": -1.0}, "bump radius must be positive, got -1.0"),
            # p * eps = 0.002: the denominator exponent -0.998 is not validated
            ("sharpness", {"eps": [0.2, 1e-3]}, "p=2.0, eps=0.001"),
            # the coarse companion behind every stderr takes half the points, at least 2
            ("remainder", {"quadrature": {"points_per_axis": 2}}, "points_per_axis must be >= 4"),
            ("sharpness", {"quadrature": {"points_per_axis": 3}}, "points_per_axis must be >= 4"),
        ],
    )
    def test_bad_values(self, tmp_path, capsys, command, over, name):
        code, out, err = run([command, "--config", write_config(tmp_path, **over)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and name in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, over, name",
        [
            # a ball 1 from the boundary and near the t-axis, where W is
            # small: (W |u| / dist)^300 integrates to 1e-292, too small to square
            (
                "hardy",
                {"group": "heisenberg:2", "p": [300], "trials": {"region": 0.1, "clearance": 1.0}},
                "at p 300.0: its denominator integral",
            ),
            # |u|^p* underflows to zero at p* = 2495
            ("sobolev", {"group": "abelian:5", "p": [4.99]}, "at p 4.99: its denominator integral 0.0"),
            # |grad_H u|^1000 overflows inside the bump
            ("hardy", {"p": [1000]}, "non-finite"),
            # the weighted integral of a 6.4e-107 cutoff squares to zero
            ("sharpness", {"cutoff_radius": 6.4e-107}, "trivial"),
            # a radius below the spacing of floats at the center: no box
            ("hardy", {"trials": {"radius": [1e-300, 1e-300]}}, "vanishes next to its center"),
            # boxes past the float range: the box rule's weights overflow,
            # and its sums are not finite or its nodes are
            ("sharpness", {"cutoff_radius": 1e120}, "are not both finite"),
            ("sharpness", {"cutoff_radius": 1e200}, "non-finite"),
            *(
                (command, {"trials": {"radius": [1e300, 1e300]}}, "non-finite")
                for command in ("hardy", "remainder", "sobolev", "general-hardy")
            ),
        ],
    )
    def test_unverifiable_trials(self, tmp_path, capsys, recwarn, command, over, name):
        path = write_config(tmp_path, **{"trials": {"count": 1}, **over})
        code, out, err = run([command, "--config", path], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and name in err
        # the one line says it all: no numpy warning about how the failure arose
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("method", ["tensor-gauss", "monte-carlo", "simpson"])
    def test_only_the_boundary_graded_method(self, tmp_path, capsys, method):
        path = write_config(tmp_path, quadrature={"method": method})
        code, out, err = run(["hardy", "--config", path], capsys)
        assert code == 3 and out == ""
        assert err == (
            f"configuration error: quadrature.method {method!r}: the one method is 'boundary-graded'\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_naming_the_method_changes_no_byte(self, tmp_path, capsys, fmt):
        named = write_config(tmp_path, "named.json", quadrature={"method": "boundary-graded"})
        plain = write_config(tmp_path)
        assert "method" in Path(named).read_text() and "method" not in Path(plain).read_text()
        outputs = [run(["hardy", "--config", path, "--format", fmt], capsys) for path in (named, plain)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    @pytest.mark.parametrize(
        "command, cfg, name",
        [
            # denominator integrals past 1e154 square past the float range in
            # the trivial-trial test and the quotient stderr, but at 8 points
            # per axis the coarse rule reads each numerator as 0
            (
                "hardy",
                {"p": [300], "trials": {"count": 3}, "quadrature": {"points_per_axis": 8}},
                "at p 300.0: an integral",
            ),
            # ... and so does the remainder numerator on heisenberg:2
            (
                "remainder",
                {
                    "group": "heisenberg:2",
                    "p": [2, 300],
                    "trials": {"count": 2, "region": 0.3, "clearance": 0.5},
                    "quadrature": {"points_per_axis": 8},
                },
                "at p 300.0: an integral",
            ),
            # ... at the default rule the rows are finite
            ("remainder", {"p": [2, 200]}, None),
            # ... and at p = 400 the integrand overflows too
            ("remainder", {"p": [2, 200, 400]}, "non-finite"),
            ("general-hardy", {"beta": [-1e200]}, "beta -1e+200 at p=2.0"),
            # the sharpness rows of p = 2 hold; the cutoff reaches dist 2, and
            # dist^300.5 overflows at p = 6
            ("sharpness", {"p": [2, 6], "eps": [0.5, 300], "cutoff_radius": 2}, "non-finite"),
        ],
    )
    def test_float_overflows(self, tmp_path, capsys, command, cfg, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run([command, "--config", str(path), "--seed", "42", "--format", "json"], capsys)
        if name is None:
            assert code in (0, 2) and "Traceback" not in err
            rows = json.loads(out)["rows"]
            assert len(rows) == len(cfg["p"]) * cfg.get("trials", {"count": 20})["count"]
            for row in rows:
                assert all(math.isfinite(row[k]) for k in ("quotient", "bound", "margin", "stderr"))
        else:
            assert code == 3 and out == ""
            assert err.count("\n") == 1 and name in err

    def test_sharpness_on_a_half_line_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, group="abelian:1")
        code, out, _ = run(["sharpness", "--config", path], capsys)
        assert code in (0, 2)
        assert len(out.strip().split("\n")) == 1 + 4

    def test_sharpness_on_the_validated_bound_runs(self, tmp_path, capsys):
        # p * eps = 0.1 exactly at p = 2: the exponent is -0.9, still validated
        path = write_config(tmp_path, p=[2.0, 3.0], eps=[0.05], cutoff_radius=1)
        code, out, _ = run(["sharpness", "--config", path], capsys)
        assert code in (0, 2)
        assert len(out.strip().split("\n")) == 1 + 2

    @pytest.mark.parametrize(
        "command, over, key, shown",
        [
            ("hardy", {"trials": {"count": 1001}}, "trials.count", "1001"),
            ("hardy", {"trials": {"count": 1e300}}, "trials.count", "1e+300"),
            ("bft-fuzz", {"samples": 100_000_001}, "samples", "100000001"),
            ("identities", {"identity_points": 1e300}, "identity_points", "1e+300"),
            ("identities", {"identity_indices": [1, 200]}, "identity_indices entry", "200"),
            ("hardy", {"group": "heisenberg:9"}, "group index", "'heisenberg:9'"),
            ("hardy", {"group": "abelian:" + "9" * 400}, "group index", "'abelian:999"),
            ("hardy", {"p": [2.0] * 9}, "length of p", "9"),
            ("general-hardy", {"beta": [-0.5] * 9}, "length of beta", "9"),
            ("sharpness", {"eps": [0.5] * 9}, "length of eps", "9"),
            ("identities", {"identity_indices": [1] * 9}, "length of identity_indices", "9"),
        ],
    )
    def test_sizes_over_their_bounds(self, tmp_path, capsys, command, over, key, shown):
        code, out, err = run([command, "--config", write_config(tmp_path, **over)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert f"{key} is {shown}" in err and f"over its bound of {SIZE_BOUNDS[key]}" in err

    def test_integral_floats_still_run(self, tmp_path, capsys):
        path = write_config(
            tmp_path, seed=11.0, trials={"count": 2.0}, quadrature={"points_per_axis": 8.0}
        )
        code, out, _ = run(["hardy", "--config", path], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2


def _over(key):
    """Sizes over the bound of ``key``, up to 1e300, as JSON ints and floats."""
    bound = SIZE_BOUNDS[key]
    return st.one_of(st.integers(bound + 1, 10**300), st.floats(bound + 1, 1e300))


# perturbations of every config key: odd numbers, wrong types, and sizes
# either small or over their bound (up to 1e300, and lists up to _LONG
# entries, past their length bound); a size just under its bound is not
# drawn, since it would only make the run long
_WRONG = st.sampled_from(["8", True, None, [], [1], {"a": 1}, -1, 0, 0.5, float("nan")])
_SMALL_FLOAT = st.floats(-3.0, 8.0, allow_nan=False)
_LONG = SIZE_BOUNDS["length of p"] + 4
_PERTURBED = {
    "group": st.one_of(
        st.sampled_from(
            ["heisenberg:1", "heisenberg:2", "heisenberg:3", "heisenberg:0"]
            + ["abelian:1", "abelian:3", "abelian:5"]
        ),
        st.builds(
            "{}:{}".format,
            st.sampled_from(["heisenberg", "abelian"]),
            st.integers(SIZE_BOUNDS["group index"] + 1, 10**300),
        ),
    ),
    "halfspace": st.fixed_dictionaries(
        {},
        optional={
            "preset": st.sampled_from(["t-axis", "x1-axis", "y-axis"]),
            "nu": st.lists(_SMALL_FLOAT, min_size=1, max_size=4),
            "d": _SMALL_FLOAT,
        },
    ),
    "trials": st.fixed_dictionaries(
        {},
        optional={
            "count": st.one_of(st.integers(-1, 3), _over("trials.count")),
            "radius": st.lists(st.floats(-0.1, 1.5), min_size=1, max_size=3),
            "region": _SMALL_FLOAT,
            "clearance": st.floats(-0.5, 0.5),
        },
    ),
    "quadrature": st.fixed_dictionaries(
        {},
        optional={
            "method": st.sampled_from(
                ["boundary-graded", "tensor-gauss", "monte-carlo", "simpson"]
            ),
            "points_per_axis": st.integers(1, 5),
            "sample_count": st.integers(8, 3000),
            "grading_exponent": st.floats(0.5, 8.0),
        },
    ),
    "p": st.lists(
        st.sampled_from([0.5, 1.0, 1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 7.5, 60.0]), max_size=_LONG
    ),
    "beta": st.one_of(st.none(), st.lists(_SMALL_FLOAT, max_size=_LONG)),
    "eps": st.lists(st.floats(-0.1, 1.0), max_size=_LONG),
    "cutoff_radius": st.floats(-0.5, 2.0),
    "samples": st.one_of(st.integers(-1, 2000), _over("samples")),
    "identity_points": st.one_of(st.integers(-1, 20), _over("identity_points")),
    "identity_indices": st.lists(
        st.one_of(st.integers(-1, 2), _over("identity_indices entry")), max_size=_LONG
    ),
    "seed": st.integers(0, 2**64),
}


@st.composite
def _perturbed_configs(draw):
    cfg = {"trials": {"count": 2}, "quadrature": {"points_per_axis": 4, "sample_count": 2000}}
    cfg["samples"], cfg["identity_points"], cfg["identity_indices"] = 2000, 20, [1, 2]
    for key in draw(st.lists(st.sampled_from(sorted(_PERTURBED)), max_size=4, unique=True)):
        value = draw(_PERTURBED[key])
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(_PERTURBED)))
        if isinstance(cfg.get(key), dict) and cfg[key] and draw(st.booleans()):
            cfg[key][draw(st.sampled_from(sorted(cfg[key])))] = draw(_WRONG)
        else:
            cfg[key] = draw(_WRONG)
    return cfg


class TestPerturbedConfigs:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=_perturbed_configs())
    def test_verdict_or_one_line_exit(self, command, cfg):
        # in process, a traceback is an exception escaping main: it fails here
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 3:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1


# the commands that integrate trials, and the groups (with their
# homogeneous dimension Q) where the ball rule's companion once matched its
# sphere order, or did not
_VERDICTS = ["hardy", "general-hardy", "remainder", "sharpness", "sobolev", "luan-young"]
_SMALL_GROUPS = {"heisenberg:1": 4, "heisenberg:2": 6, "abelian:2": 2, "abelian:3": 3, "abelian:4": 4}
_DIMS = {"heisenberg:1": 3, "heisenberg:2": 5, "abelian:2": 2, "abelian:3": 3, "abelian:4": 4}
_OFFSETS = [-0.3, 0.0, 0.25]


@st.composite
def _accepted_configs(draw, command):
    """Small configs that ``command`` accepts: p >= 2 where its contract
    needs it (and 2 <= p < Q on sobolev), a Heisenberg group on luan-young,
    and eps >= 0.05 on sharpness, so p eps >= 0.1.  The half-space is a
    preset or an oblique normal, at an offset; sharpness draws its eps list
    in any order and its cutoff radius, general-hardy its beta list."""
    groups = [g for g in _SMALL_GROUPS if command != "luan-young" or g.startswith("heisenberg")]
    if command == "sobolev":
        groups = [g for g in groups if _SMALL_GROUPS[g] > 2]
    group = draw(st.sampled_from(groups))
    ps = [1.5, 2.0, 2.5, 3.0, 4.0]
    if command in ("remainder", "sharpness", "sobolev"):
        ps = [p for p in ps if p >= 2.0 and (command != "sobolev" or p < _SMALL_GROUPS[group])]
    oblique = st.lists(st.sampled_from([-0.8, -0.3, 0.0, 0.4, 1.0]), min_size=_DIMS[group], max_size=_DIMS[group])
    halfspace = draw(
        st.one_of(
            st.fixed_dictionaries({"preset": st.sampled_from(["t-axis", "x1-axis"]), "d": st.sampled_from(_OFFSETS)}),
            st.fixed_dictionaries({"nu": oblique.filter(any), "d": st.sampled_from(_OFFSETS)}),
        )
    )
    cfg = {
        "group": group,
        "halfspace": halfspace,
        "trials": {"count": draw(st.integers(1, 4)), "clearance": draw(st.sampled_from([0.0, 0.1, 0.5]))},
        "quadrature": {"points_per_axis": draw(st.integers(4, 8))},
        "p": draw(st.lists(st.sampled_from(ps), min_size=1, max_size=3, unique=True)),
        "seed": draw(st.integers(0, 99)),
    }
    if command == "sharpness":
        cfg["eps"] = draw(st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]), min_size=1, max_size=4, unique=True))
        cfg["cutoff_radius"] = draw(st.sampled_from([0.3, 0.6, 1.0, 1.5]))
    if command == "general-hardy":
        betas = st.lists(st.sampled_from([-1.5, -0.7, -0.5, -0.2, 0.0, 0.4]), max_size=3, unique=True)
        cfg["beta"] = draw(st.one_of(st.none(), betas))
    return cfg


class TestNoFalseVerdicts:
    # every contract is a theorem, so correct code never exits 2 on a
    # config it accepts: an exit 2 here is a defect to mend, not a case to
    # filter out
    @settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_an_accepted_config_exits_0(self, data):
        command = data.draw(st.sampled_from(_VERDICTS), label="command")
        cfg = data.draw(_accepted_configs(command), label="config")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(cfg))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path)])
        assert code in (0, 3), (code, err.getvalue())


_CHECKS = {
    "hardy": experiments.HARDY,
    "remainder": experiments.REMAINDER,
    "sobolev": experiments.SOBOLEV,
    "luan-young": experiments.LUAN_YOUNG,
}


class TestOneIntegrationPerTrial:
    """Each trial is integrated once for every p (and every beta), and each
    row is, bit for bit, the report of ``each_p`` on its (p, beta, trial)
    alone."""

    @pytest.mark.parametrize(
        "command, ps, over",
        [
            ("hardy", [2.0, 3.0], {}),
            ("hardy", [2.0, 2.0], {}),
            ("hardy", [], {}),
            ("remainder", [2.0, 3.0], {}),
            ("sobolev", [2.0, 3.0], {}),
            # luan-young is at p = 2 alone, whatever p the config gives
            ("luan-young", [2.0, 3.0], {}),
            ("general-hardy", [2.0, 3.0], {"beta": [-0.5, -0.25]}),
            ("general-hardy", [2.0, 2.0], {}),  # beta_star(p)
            # an oblique normal: the distance is not p-harmonic, T2 is integrated
            ("general-hardy", [3.0, 2.0], {"halfspace": {"nu": [0.3, 0.2, 1.0], "d": 0.1}}),
        ],
    )
    def test_rows_are_the_runners(self, tmp_path, capsys, monkeypatch, command, ps, over):
        calls = []
        integrate = experiments.integrate_many

        def counted(*args, **kwargs):
            calls.append(args[1])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(experiments, "integrate_many", counted)
        over = {"halfspace": {"preset": "t-axis", "d": 0.0}, **over}
        path = write_config(tmp_path, group="heisenberg:1", p=ps, trials={"count": 2}, **over)
        code, out, _ = run([command, "--config", path, "--format", "json"], capsys)
        assert code in (0, 2)
        assert len(calls) == (2 if ps else 0)  # one per trial; at the parent, one per row

        rows = json.loads(out)["rows"]
        group, hs, quad, cfg = resolve(load_config(path))
        digest = rows[0]["config_digest"] if rows else ""
        trials = build_trials(group, hs, cfg)
        if command == "general-hardy":
            expected = [
                row
                for p in ps
                for beta in cfg["beta"] or [experiments.beta_star(p)]
                for u in trials
                for (row,) in experiments.each_p(
                    experiments.GENERAL_HARDY, group, hs, u, [p], quad, digest, betas=[beta]
                )
            ]
        else:
            expected = [
                row
                for p in ([2.0] if command == "luan-young" else ps)
                for u in trials
                for (row,) in experiments.each_p(_CHECKS[command], group, hs, u, [p], quad, digest)
            ]
        assert rows == json.loads(render_json(expected, cfg))["rows"]

    def test_general_hardy_builds_the_flux_parts_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        build = calculus._distance_flux_parts.__wrapped__

        def counted(spec, nu):
            builds.append(nu)
            return build(spec, nu)

        monkeypatch.setattr(calculus, "_distance_flux_parts", functools.lru_cache(maxsize=16)(counted))
        path = write_config(tmp_path, p=[2.0, 3.0], trials={"count": 20})
        code, out, _ = run(["general-hardy", "--config", path], capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 20
        assert builds == [(0.0, 0.0, 1.0)]

    # at p 400 |grad_H u|^p overflows on trial 1 of seed 10 and on trial 0 of
    # seed 11 (seed 1's trial 0 stops first: its coarse rule reads 0)
    @pytest.mark.parametrize("seed, failing", [(10, 1), (11, 0)])
    def test_an_overflow_names_its_trial_and_p(self, tmp_path, capsys, monkeypatch, seed, failing):
        calls = []
        integrate = experiments.integrate_many

        def counted(fs, box, *args, **kwargs):
            calls.append(box.tobytes())
            return integrate(fs, box, *args, **kwargs)

        monkeypatch.setattr(experiments, "integrate_many", counted)
        path = write_config(tmp_path, p=[2.0, 400.0], trials={"count": 2}, seed=seed)
        code, out, err = run(["hardy", "--config", path], capsys)
        assert code == 3 and out == ""
        group, hs, _, cfg = resolve(load_config(path))
        trials = build_trials(group, hs, cfg)
        line = (
            f"configuration error: trial {trials[failing].label} at p 400.0: "
            "integrand returned a non-finite value at point ["
        )
        assert err.startswith(line) and err.endswith("]\n") and err.count("\n") == 1
        # each trial up to the failing one integrated once
        assert calls == [u.support_box.tobytes() for u in trials[: failing + 1]]

    # trial 1 at p 300: a numerator of 4.1e200 over a denominator of 3.2e-132;
    # before it, the coarse rule reads trial 0's numerator at p 300 as 0
    @pytest.mark.parametrize("command", ["hardy", "general-hardy"])
    def test_a_quotient_past_the_float_range_is_no_verdict(self, tmp_path, capsys, command):
        path = write_config(
            tmp_path,
            group="heisenberg:2",
            p=[2, 300],
            trials={"count": 2, "region": 0.3, "clearance": 0.5},
            quadrature={"points_per_axis": 8},
            seed=11,
        )
        code, out, err = run([command, "--config", path], capsys)
        group, hs, quad, cfg = resolve(load_config(path))
        trials = build_trials(group, hs, cfg)
        assert (code, out) == (3, "")
        assert err.startswith(f"configuration error: trial {trials[0].label} at p 300.0: an integral ")
        assert err.endswith(" with a stderr as large as itself checks no bound\n") and err.count("\n") == 1
        check = {"hardy": experiments.HARDY, "general-hardy": experiments.GENERAL_HARDY}[command]
        params = {"betas": cfg["beta"]} if command == "general-hardy" else {}
        with pytest.raises(experiments.TrivialTrialError) as got:
            experiments.each_p(check, group, hs, trials[1], cfg["p"], quad, **params)
        assert str(got.value) == (
            f"trial {trials[1].label} at p 300.0: its quotient inf and stderr inf "
            "are not both finite, so they check no bound"
        )


# one heisenberg:2 trial integrated twice; prints the minor faults of the second
_REPEATED_INTEGRATION = """
import resource
from strathardy import experiments
from strathardy.cli import fix_malloc_thresholds
from strathardy.config import build_trials, load_config, resolve
from strathardy.quadrature import integrate_many

if not fix_malloc_thresholds():
    raise SystemExit(print("no mallopt"))
cfg = load_config(None)
cfg["group"], cfg["trials"]["count"] = "heisenberg:2", 1
group, hs, quad, cfg = resolve(cfg, seed=42)
(u,) = build_trials(group, hs, cfg)
fs = [f for p in (2.0, 3.0) for f in experiments._hardy_integrands(group, hs, p)]
first = integrate_many(fs, u.support_box, hs, quad, trial=(group, u))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
second = integrate_many(fs, u.support_box, hs, quad, trial=(group, u))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
assert second == first and first[0].evaluations == 62_208
print(faults)
"""


class _FakeLibc:
    """A C library whose mallopt records its calls, or has none, or fails to load."""

    def __init__(self, mallopt=True):
        self.calls = []
        if mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1

    def load(self, name):
        assert name is None
        return self


class TestMallocThresholds:
    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        fix_malloc_thresholds.cache_clear()
        yield
        fix_malloc_thresholds.cache_clear()
        fix_malloc_thresholds()

    def test_repeated_integration_keeps_its_pages(self):
        """On glibc, a second integration of one heisenberg:2 trial faults in
        almost no pages: its temporaries come from heap that stayed mapped.

        Measured in a fresh interpreter: one whose glibc already raised its
        dynamic thresholds past these arrays keeps them mapped anyway.
        """
        src = str(Path(strathardy.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _REPEATED_INTEGRATION],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120, check=True,
        )
        if done.stdout == "no mallopt\n":
            pytest.skip("the C library has no mallopt")
        # about 2,000 with glibc's dynamic thresholds
        assert int(done.stdout) <= 50

    @pytest.mark.parametrize(
        "libc",
        [
            pytest.param(_FakeLibc(mallopt=False).load, id="no-mallopt"),
            pytest.param(mock.Mock(side_effect=OSError("no C library")), id="no-libc"),
        ],
    )
    def test_cli_runs_without_mallopt(self, tmp_path, capsys, monkeypatch, libc):
        path = write_config(tmp_path, p=[2.0, 3.0])
        expected = run(["hardy", "--config", path], capsys)
        fix_malloc_thresholds.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", libc)
        assert run(["hardy", "--config", path], capsys) == expected
        assert expected[0] == 0
        assert fix_malloc_thresholds() is False

    def test_thresholds_are_set_once(self, monkeypatch):
        libc = _FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", libc.load)
        assert fix_malloc_thresholds() and fix_malloc_thresholds()
        # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        assert libc.calls == [(-3, 4 << 20), (-1, 16 << 20)]

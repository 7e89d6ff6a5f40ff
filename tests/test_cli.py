import json

import pytest

from strathardy import CSV_COLUMNS, Report
from strathardy.cli import COMMANDS, main


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

    def test_violated_contract_is_code_2(self, tmp_path, capsys):
        # sweeping eps upward reverses the required monotone decrease; the
        # default resolution keeps the error bars small enough to see it
        path = write_config(
            tmp_path,
            eps=[0.05, 0.5],
            cutoff_radius=1.0,
            quadrature={"points_per_axis": 16},
        )
        code, out, err = run(["sharpness", "--config", path], capsys)
        assert code == 2
        assert out  # the report is still written for inspection
        # one line per failing row; here the pair that breaks the decrease
        assert err.count("\n") == 1
        assert err.startswith("contract violated: rows 0,1 sharpness: quotient rose")
        assert "eps 0.05 -> 0.5" in err

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


class TestOutput:
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


class TestRejectedConfigs:
    """Configs that must exit 3 with one line on stderr and no report."""

    @pytest.mark.parametrize(
        "command, over",
        [
            # 64^4 x 128 nodes would be about 2.1e9; rejected before allocation
            ("hardy", {"group": "heisenberg:2", "quadrature": {"points_per_axis": 64}}),
            ("hardy", {"quadrature": {"method": "tensor-gauss", "points_per_axis": 300}}),
            ("hardy", {"quadrature": {"method": "monte-carlo", "sample_count": 30_000_000}}),
            ("hardy", {"group": "heisenberg:3", "quadrature": {"sample_count": 30_000_000}}),
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
        ],
    )
    def test_bad_values(self, tmp_path, capsys, command, over, name):
        code, out, err = run([command, "--config", write_config(tmp_path, **over)], capsys)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and name in err and "Traceback" not in err

    def test_integral_floats_still_run(self, tmp_path, capsys):
        path = write_config(
            tmp_path, seed=11.0, trials={"count": 2.0}, quadrature={"points_per_axis": 8.0}
        )
        code, out, _ = run(["hardy", "--config", path], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2

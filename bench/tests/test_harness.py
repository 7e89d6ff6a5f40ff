"""The benchmark's tracer and row checks on small CLI runs."""

import contextlib
import io
import json

import pytest

import reference
import run
from checks import Outcome, Verifier, trial_of
from tracing import PassTrace, Tracer

HARDY = {"p": [2.0, 3.0], "trials": {"count": 2}}


def _cli(lib, tmp_path, command, config, seed=7):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(config))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main([command, "--config", str(path), "--format", "json", "--seed", str(seed)])
    return Outcome(command, rc, buf.getvalue())


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_self_times_subtract_direct_children():
    trace = PassTrace(spans=[
        ("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0),
    ])
    times = trace.layer_times()
    assert times["a"] == (6.0, 10.0, 1)
    assert times["b"] == (3.0, 4.0, 2)
    assert times["c"] == (1.0, 1.0, 1)


def test_tracer_counts_from_the_calls_and_restores_the_library(lib, tmp_path):
    originals = (lib.cli.main, lib.experiments.integrate_many, lib.calculus.ScalarField.values)
    plain = _cli(lib, tmp_path, "hardy", HARDY)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _cli(lib, tmp_path, "hardy", HARDY)
    finally:
        tracer.remove()
    assert traced.text == plain.text
    assert (lib.cli.main, lib.experiments.integrate_many, lib.calculus.ScalarField.values) == originals
    metrics = tracer.trace.metrics()
    # heisenberg:1, interior bumps: 16^2 x 32 fine nodes and 8^2 x 16 coarse ones, all live
    calls = 2 * 2  # trials x p
    assert metrics["quadrature.nodes"] == calls * (8192 + 1024)
    assert metrics["quadrature.integrand_points"] == calls * 2 * (8192 + 1024)
    assert 0.0 < metrics["trials.support_hit_ratio"] < 1.0
    assert metrics["cli.config_s"] > 0.0 and metrics["quadrature.integrand_s"] > 0.0


def _verify(lib, outcomes, configs, seed=7, fixed=True):
    verifier = Verifier(lambda row: run.contract_tolerance(lib, row))
    failures, accuracy = verifier.check_pass(outcomes, configs, seed, fixed)
    return failures, accuracy, verifier.problems


def test_checks_pass_real_rows_and_catch_doctored_ones(lib, tmp_path):
    configs = [("hardy", HARDY), ("luan-young", {"trials": {"count": 2}})]
    outcomes = [_cli(lib, tmp_path, command, config) for command, config in configs]
    failures, accuracy, problems = _verify(lib, outcomes, configs)
    assert failures == [] and problems == []
    assert len(accuracy["rel_errors"]) == 4 and max(e for e, _ in accuracy["rel_errors"]) < 1e-2

    doc = json.loads(outcomes[0].text)
    doc["rows"][1]["quotient"] *= 1.2  # off the reference, and luan-young no longer 4x hardy
    doctored = [Outcome("hardy", 0, json.dumps(doc)), outcomes[1]]
    failures, _, _ = _verify(lib, doctored, configs)
    assert {name.split(" (")[0] for name, _ in failures} == {"hardy row 1", "luan-young row 1"}


def test_a_3_stderr_miss_fails_a_fixed_pass_and_is_named_on_a_seeded_one(lib, tmp_path):
    configs = [("hardy", HARDY)]
    doc = json.loads(_cli(lib, tmp_path, "hardy", HARDY).text)
    row = doc["rows"][0]
    # move it away from the reference to halfway between 3 stderr and the wider contract tolerance
    center, radius = trial_of(row)
    q_ref, _ = reference.hardy_reference(1, row["nu"], row["d"], center, radius, [2.0])[2.0]
    shift = 0.5 * (3.0 * row["stderr"] + run.contract_tolerance(lib, row))
    shift = shift if row["quotient"] > q_ref else -shift
    row["margin"] += q_ref + shift - row["quotient"]
    row["quotient"] = q_ref + shift
    doctored = [Outcome("hardy", 0, json.dumps(doc))]
    failures, accuracy, _ = _verify(lib, doctored, configs, fixed=True)
    assert [name.split(" (")[0] for name, _ in failures] == ["hardy row 0"]
    failures, accuracy, _ = _verify(lib, doctored, configs, fixed=False)
    assert failures == []
    assert [name.split(" (")[0] for name, _ in accuracy["stderr_misses"]] == ["hardy row 0"]


def test_a_raising_or_short_command_fails_every_missing_row(lib, tmp_path):
    configs = [("hardy", HARDY)]
    failures, _, _ = _verify(lib, [Outcome("hardy", None, "Traceback ...")], configs)
    assert len(failures) == 4
    doc = json.loads(_cli(lib, tmp_path, "hardy", HARDY).text)
    doc["rows"] = doc["rows"][:3]
    failures, _, _ = _verify(lib, [Outcome("hardy", 0, json.dumps(doc))], configs)
    assert [name for name, _ in failures] == ["hardy row 3"]

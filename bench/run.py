"""Time-to-verdict benchmark of the strathardy CLI.

    python3 bench/run.py --workload h1-verdicts --seed 1 --seconds 15 --trace 0

Runs one workload in process, from the library under ``src/`` of the
checkout this file sits in, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from spans recorded around the library's public
functions (see ``tracing.py``).  A readable summary and the name of every
failed row go to standard error.

A run is: one untimed pass at the reference seed 42, whose rows give the
accuracy metrics; then timed passes at ``--seed`` until ``--seconds``
have passed (at least three; with ``--trace 1`` untraced and traced
passes alternate).  With ``--trace 0``, fresh processes are timed through
set-up after every timed pass.  Every row of the reference pass and of the
first timed pass is checked (``checks.py``); these rows are the operations
counted in ``attempted``.  Later timed passes must print the same reports
as the first.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_SEED = 42
MIN_PASSES = 3
SETUP_PER_PASS = 3  # set-up processes timed after each untraced pass

# both p where a subcommand takes one, every count spelled out
_P = [2.0, 3.0]
_TRIALS = {"count": 20}
WORKLOADS = {
    "h1-verdicts": [
        ("identities", {"identity_points": 1000, "identity_indices": [1, 2, 3]}),
        ("hardy", {"p": _P, "trials": _TRIALS}),
        ("general-hardy", {"p": _P, "trials": _TRIALS}),
        ("remainder", {"p": _P, "trials": _TRIALS}),
        ("sharpness", {"p": _P, "eps": [0.5, 0.2, 0.1, 0.05], "cutoff_radius": 1.0}),
        ("sobolev", {"p": _P, "trials": _TRIALS}),
        ("bft-fuzz", {"samples": 1_000_000}),
        ("luan-young", {"trials": _TRIALS}),
    ],
    "h2-hardy": [("hardy", {"group": "heisenberg:2", "p": _P, "trials": {"count": 2}})],
    "h3-hardy-mc": [("hardy", {"group": "heisenberg:3", "p": _P, "trials": _TRIALS})],
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_error": "ratio",
    "median_rel_stderr": "ratio",
}

# runs in a fresh interpreter: import, resolve the config, build the trials
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
from strathardy.config import build_trials, load_config, resolve
group, hs, quad, cfg = resolve(load_config(sys.argv[1]), seed=int(sys.argv[2]))
build_trials(group, hs, cfg)
print(time.perf_counter() - start)
"""


def limit_threads() -> None:
    """Cap BLAS and OpenMP pools at the CPUs this process may use; children inherit it."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cpus:
            os.environ[var] = str(cpus)


def import_library():
    """Import strathardy from this checkout's src/, or exit 1 if it is not there."""
    if not (SRC / "strathardy" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC / 'strathardy'}")
    sys.path.insert(0, str(SRC))
    import strathardy.cli
    import strathardy.config
    import strathardy.experiments
    import strathardy.reports

    if Path(strathardy.__file__).resolve().parent != SRC / "strathardy":
        sys.exit(f"bench: imported strathardy from {strathardy.__file__}, not from {SRC}")
    return strathardy


def run_pass(cli, commands, seed):
    """Run each (command, config path) through the CLI; return Outcomes."""
    from checks import Outcome

    outcomes = []
    for command, path in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main([command, "--config", path, "--format", "json", "--seed", str(seed)])
        except Exception:  # a raising subcommand fails its rows; the run goes on
            outcomes.append(Outcome(command, None, traceback.format_exc()))
        else:
            outcomes.append(Outcome(command, rc, buf.getvalue()))
    return outcomes


def setup_times(config_path, seed) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PER_PASS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, config_path, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def scaled_sobolev_ratios(lib, config_path):
    """S(7u) for each trial and p of a sobolev config, keyed like the report rows."""
    cache = {}

    def ratios(seed):
        if seed not in cache:
            group, hs, quad, cfg = lib.config.resolve(lib.config.load_config(config_path), seed=seed)
            cache[seed] = {
                (u.label, p): lib.experiments.hardy_sobolev_ratio(
                    group, hs, u.scaled(7.0), p, quad
                ).quotient
                for p in cfg["p"]
                for u in lib.config.build_trials(group, hs, cfg)
            }
        return cache[seed]

    return ratios


def contract_tolerance(lib, row) -> float:
    """``Report.contract_tolerance()`` of a JSON report row."""
    fields = ("inequality_id", "p", "group", "d", "quotient", "bound", "margin", "stderr",
              "evaluations", "seed", "config_digest")
    report = lib.reports.Report(nu=tuple(row["nu"]), **{k: row[k] for k in fields})
    return report.contract_tolerance()


def timed_passes(lib, commands, args, setup_config):
    """Timed passes at ``args.seed``; with ``--trace 1`` untraced and traced alternate.

    With ``--trace 0``, set-up is timed in fresh processes after every pass,
    so that set-up and passes sample the same stretch of the machine's speed.
    Returns (untraced seconds, traced seconds, set-up seconds, PassTraces,
    outcomes per pass).
    """
    from tracing import Tracer

    plain, traced, setup, traces, outcomes = [], [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(traced) < len(plain) else None
        gc.collect()  # a fresh CLI process carries no garbage from an earlier pass
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        outcomes.append(run_pass(lib.cli, commands, args.seed))
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.remove()
            traces.append(tracer.trace)
        (traced if tracer else plain).append(elapsed)
        if not args.trace:
            setup += setup_times(setup_config, args.seed)
        enough = len(outcomes) >= MIN_PASSES and len(traced) == len(plain) * args.trace
        if enough and time.perf_counter() - start >= args.seconds:
            return plain, traced, setup, traces, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit_threads()
    lib = import_library()
    # the benchmark's own modules load numpy, so they come after the thread caps
    from checks import Verifier, expected_rows
    from tracing import METRICS as LAYER_METRICS
    from tracing import median_metrics

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        commands = []
        for i, (command, config) in enumerate(workload):
            path = str(Path(tmp) / f"{i}-{command}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            commands.append((command, path))
        trial_config = next(path for (command, path) in commands if command == "hardy")
        reference_pass = run_pass(lib.cli, commands, REFERENCE_SEED)
        plain, traced, setup, traces, timed_outcomes = timed_passes(lib, commands, args, trial_config)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        sobolev = next((path for (command, path) in commands if command == "sobolev"), None)
        verifier = Verifier(
            lambda row: contract_tolerance(lib, row),
            scaled_sobolev_ratios(lib, sobolev) if sobolev else None,
        )
        ref_failures, accuracy = verifier.check_pass(
            reference_pass, workload, REFERENCE_SEED, fixed=True
        )
        timed_failures, timed_accuracy = verifier.check_pass(
            timed_outcomes[0], workload, args.seed, fixed=False
        )

    for i, outcomes in enumerate(timed_outcomes[1:], start=2):
        for a, b in zip(timed_outcomes[0], outcomes):
            if a.text != b.text or a.rc != b.rc:
                verifier.problems.append(f"timed pass {i} printed another {a.command} report")
    for outcome in reference_pass + timed_outcomes[0]:
        if outcome.rc is None:
            print(f"bench: {outcome.command} raised:\n{outcome.text}", file=sys.stderr)

    # a reference pass with no referenced row measures nothing: report 1 and mark it
    max_error, max_spread = max(accuracy["rel_errors"], default=(1.0, 0.0))
    rel_stderrs = accuracy["rel_stderrs"] or [1.0]
    if not accuracy["rel_errors"]:
        verifier.problems.append("no row of the reference pass has a reference")
    elif max_spread > 0.1 * max_error:
        verifier.problems.append(
            f"reference spread {max_spread:.2e} is not 10x below the error {max_error:.2e}"
        )
    for problem in dict.fromkeys(verifier.problems):
        print(f"bench: {problem}", file=sys.stderr)
    correct = not verifier.problems

    # the operations are the rows of the two checked passes; later timed passes repeat the
    # first byte for byte, so counting them again would tie the failed share to --seconds
    passes = 1 + len(timed_outcomes)
    attempted = 2 * sum(expected_rows(command, config) for command, config in workload)
    failed = len({name for name, _ in ref_failures}) + len({name for name, _ in timed_failures})
    for name, reason in ref_failures + timed_failures:
        print(f"bench: FAILED {name}: {reason}", file=sys.stderr)
    # on seeded rows a 3-stderr miss comes and goes with the seed, so it is named, not counted
    for name, reason in timed_accuracy["stderr_misses"]:
        print(f"bench: 3-stderr miss, not counted: {name}: {reason}", file=sys.stderr)
    stderr_misses = len(accuracy["stderr_misses"]) + len(timed_accuracy["stderr_misses"])

    if args.trace:
        values = median_metrics(traces)
        values["quadrature.stderr_misses"] = stderr_misses
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units.update({"quadrature.stderr_misses": "count", "trace.overhead_s": "s"})
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "max_rel_error": max_error,
            "median_rel_stderr": statistics.median(rel_stderrs),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"bench: {args.workload} seed {args.seed}: {passes} passes", file=sys.stderr)
    print(f"bench:   pass seconds {[round(t, 4) for t in plain]} traced {[round(t, 4) for t in traced]}",
          file=sys.stderr)
    print(f"bench:   set-up seconds {[round(t, 4) for t in setup]}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"bench:   {name:32s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check: run each workload repeatedly and compare spreads with bounds.

    python3 bench/steady.py --runs 10

Runs every workload of BENCHMARK.json ``--runs`` times, each run
``bench/run.py --trace 0`` in its own process with seeds 1, 2, ... and the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles, the spread (Q3 - Q1) / median and the metric's
bound; a spread of a third of the bound or more is marked, and makes the
exit code 1.  It also prints the operations attempted and failed, and
whether every run was correct and failed the same share of its operations.  With ``--runs 1`` it is a one-line-per-
metric report of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(spec, workload, seed) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    steady = True
    seeds = range(1, args.runs + 1)
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, workload, seed) for seed in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"correct {correct}, failed {failed} of {attempted} operations, "
              f"{'the same' if len(shares) == 1 else 'a varying'} failed share per run")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            mark = "" if rel < bound / 3 else "  <-- spread >= bound / 3"
            steady &= rel < bound / 3
            print(f"  {name:18s} median {med:.6g} {metric['unit']}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {rel:.4f}  bound {bound}{mark}")
        steady &= correct and len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

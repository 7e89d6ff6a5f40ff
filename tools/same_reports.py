"""Check that two source trees print the same CLI reports, byte for byte.

    python3 tools/same_reports.py --against ../other-checkout

Runs a fixed matrix of CLI commands on this checkout and on the tree at
``--against`` (any directory with the package under ``src/``, such as a
``git worktree`` of the parent commit): the eight subcommands at their
default configs, the configs of the benchmark's three workloads, oblique
and offset normals, an oblique normal on heisenberg:4, and ``sharpness``
on heisenberg:2, on an oblique normal and on an offset t-axis.  Each runs at seeds 1 and 42, in
CSV and in JSON, in a fresh interpreter.  Standard output, standard error
(with each tree's own path replaced by ``<tree>``) and the exit code are
compared; every run that differs is listed with the start of its diff.
Exits 0 when every run is identical and 1 otherwise.

A change that keeps the arithmetic must keep these reports identical.
"""

from __future__ import annotations

import argparse
import difflib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 42)
FORMATS = ("csv", "json")
SUBCOMMANDS = (
    "identities",
    "hardy",
    "general-hardy",
    "remainder",
    "sharpness",
    "sobolev",
    "bft-fuzz",
    "luan-young",
)
_OBLIQUE_H1 = {"nu": [0.36, -0.48, 0.8], "d": 0.0}
_OBLIQUE_H4 = {"nu": [0.1, -0.2, 0.3, 0.15, -0.25, 0.2, -0.1, 0.35, 0.75], "d": 0.2}

# runs in a fresh interpreter, on the tree its PYTHONPATH names
_RUNNER = "import sys; from strathardy.cli import main; sys.exit(main(sys.argv[1:]))"


class Case(NamedTuple):
    label: str
    command: str
    config: dict | None  # None: the subcommand's defaults, no --config


def _workload_cases() -> list[Case]:
    """Every command config of the benchmark's workloads, as ``bench/run.py`` defines them."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return [
        Case(f"{name}:{command}", command, config)
        for name, commands in run.WORKLOADS.items()
        for command, config in commands
    ]


def matrix() -> list[Case]:
    """The cases every comparison runs."""
    return [
        *(Case(f"{command}:default", command, None) for command in SUBCOMMANDS),
        *_workload_cases(),
        Case("hardy:oblique", "hardy", {"halfspace": _OBLIQUE_H1}),
        Case("hardy:offset", "hardy", {"halfspace": {"preset": "t-axis", "d": 0.3}}),
        Case("general-hardy:oblique-offset", "general-hardy", {"halfspace": {**_OBLIQUE_H1, "d": -0.25}}),
        Case("remainder:oblique", "remainder", {"halfspace": _OBLIQUE_H1, "p": [2.0, 3.0]}),
        Case(
            "hardy:heisenberg4-oblique",
            "hardy",
            {"group": "heisenberg:4", "halfspace": _OBLIQUE_H4, "trials": {"count": 4}},
        ),
        Case(
            "sharpness:heisenberg2",
            "sharpness",
            {"group": "heisenberg:2", "quadrature": {"points_per_axis": 8}},
        ),
        Case("sharpness:oblique", "sharpness", {"halfspace": {"nu": [0.6, 0.0, 0.8], "d": 0.1}}),
        Case("sharpness:offset", "sharpness", {"halfspace": {"preset": "t-axis", "d": 0.3}}),
    ]


class Run(NamedTuple):
    stdout: str
    stderr: str
    code: int


def _config_path(workdir: Path, case: Case) -> Path:
    return workdir / f"{case.label.replace(':', '_')}.json"


def _run(tree: Path, case: Case, seed: int, fmt: str, workdir: Path) -> Run:
    argv = [case.command, "--format", fmt, "--seed", str(seed)]
    if case.config is not None:
        argv += ["--config", str(_config_path(workdir, case))]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _RUNNER, *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=600,
    )
    return Run(done.stdout, done.stderr.replace(str(tree), "<tree>"), done.returncode)


def _diff(name: str, ours: str, theirs: str) -> list[str]:
    """The first lines of the unified diff from theirs to ours."""
    diff = difflib.unified_diff(
        theirs.splitlines(), ours.splitlines(), f"against/{name}", f"this/{name}", n=0, lineterm=""
    )
    return [f"    {line[:160]}" for _, line in zip(range(8), diff)]


def compare(ours: Path, theirs: Path, cases: list[Case]) -> list[str]:
    """Run ``cases`` on both trees; one message per run that differs, [] if none."""
    jobs = [(case, seed, fmt) for case in cases for seed in SEEDS for fmt in FORMATS]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for case in cases:
            if case.config is not None:
                _config_path(workdir, case).write_text(json.dumps(case.config))
        # two CLI processes at a time keep the memory of a run small
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                (job, pool.submit(_run, tree, *job, workdir))
                for job in jobs
                for tree in (ours, theirs)
            ]
            results = [(job, future.result()) for job, future in futures]
    differences = []
    for (job, a), (_, b) in zip(results[::2], results[1::2]):
        case, seed, fmt = job
        if a == b:
            continue
        lines = [f"{case.label} seed {seed} {fmt}:"]
        if a.code != b.code:
            lines.append(f"    exit code {b.code} -> {a.code}")
        for name in ("stdout", "stderr"):
            if getattr(a, name) != getattr(b, name):
                lines += _diff(name, getattr(a, name), getattr(b, name))
        differences.append("\n".join(lines))
    return differences


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="the other source tree")
    args = parser.parse_args(argv)
    theirs = args.against.resolve()
    if not (theirs / "src" / "strathardy" / "__init__.py").is_file():
        sys.exit(f"same_reports: no package at {theirs / 'src' / 'strathardy'}")
    cases = matrix()
    differences = compare(ROOT, theirs, cases)
    for message in differences:
        print(message)
    runs = len(cases) * len(SEEDS) * len(FORMATS)
    print(f"{runs - len(differences)} of {runs} runs identical ({len(cases)} configs)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

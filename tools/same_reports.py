"""Check that two source trees print the same CLI reports, byte for byte.

    python3 tools/same_reports.py --against ../other-checkout [--rtol 1e-12]

Runs a fixed matrix of CLI commands on this checkout and on the tree at
``--against`` (any directory with the package under ``src/``, such as a
``git worktree`` of the parent commit): the eight subcommands at their
default configs, the configs of the benchmark's three workloads, oblique
and offset normals, ``remainder`` at p = 4 and on heisenberg:2,
``remainder`` and ``sobolev`` on heisenberg:3 (the horizontal split and
the p* integrand on the symmetric sphere rule's bumps),
``hardy`` with the quadrature method spelled out,
oblique normals on heisenberg:2 to :4, ``hardy`` on heisenberg:5
(whose ball template is too large to cache), ``hardy`` on bumps
that touch the boundary (clearance 0), ``hardy`` on heisenberg:2 at 4
points per axis (the smallest ball companion) and at 24 (a ball rule of
many blocks), ``sobolev`` on abelian:5,
``sharpness`` on heisenberg:2, on an oblique normal, on an offset
t-axis, at three p (12 rows in one integration) and at 32 points
per axis (a box rule placed in many blocks, cut mid-line), and
``luan-young`` on heisenberg:2 with an oblique normal, which the command
pins to the t-axis, and with ``p: [2, 3]``, which it ignores.  Each runs
at seeds 1 and 42, in CSV and in JSON, in a fresh interpreter.  Standard output, standard error
(with each tree's own path replaced by ``<tree>``) and the exit code are
compared; every run that differs is listed with the start of its diff.
Exits 0 when every run is identical and 1 otherwise.

A change that keeps the arithmetic must keep these reports identical.  A
change that only reorders float additions may move numbers in their last
bits: with ``--rtol X`` a run whose exit code and standard error are
identical also passes when its JSON or CSV report differs only in
numbers, each within X times the largest magnitude in its own report row
(an element of the JSON ``rows``, nested ``numerator`` and
``denominator`` included, or a CSV line; the rest of a JSON report is
one more row).  A stderr |fine - coarse| or a margin near 0 is a
difference of nearly equal sums, so it is measured against the sums it
came from, not against itself.  The keys, the labels, the column layout
and the ``evaluations``, ``seed`` and ``config_digest`` fields must still
be identical.  The worst relative difference of the runs that pass this
way is printed.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import importlib.util
import io
import json
import math
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
_OBLIQUE_H2 = {"nu": [0.3, -0.2, 0.4, 0.1, 0.8], "d": 0.1}
_OBLIQUE_H3 = {"nu": [0.2, -0.3, 0.1, 0.25, -0.15, 0.3, 0.8], "d": -0.1}
_OBLIQUE_H4 = {"nu": [0.1, -0.2, 0.3, 0.15, -0.25, 0.2, -0.1, 0.35, 0.75], "d": 0.2}

# report fields that --rtol still compares exactly
_EXACT = ("inequality_id", "evaluations", "seed", "config_digest")

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
        # the method key spelled out: the same digest as when it is left out
        Case("hardy:explicit-method", "hardy", {"quadrature": {"method": "boundary-graded"}}),
        Case("general-hardy:oblique-offset", "general-hardy", {"halfspace": {**_OBLIQUE_H1, "d": -0.25}}),
        Case("remainder:oblique", "remainder", {"halfspace": _OBLIQUE_H1, "p": [2.0, 3.0]}),
        Case(
            "remainder:offset",
            "remainder",
            {"halfspace": {"preset": "t-axis", "d": 0.3}, "p": [2.0, 3.0, 4.0]},
        ),
        Case("remainder:heisenberg2", "remainder", {"group": "heisenberg:2", "trials": {"count": 4}}),
        # the split and the p* integrand on the 7-dimension symmetric sphere rule
        Case("remainder:heisenberg3", "remainder", {"group": "heisenberg:3"}),
        Case("sobolev:heisenberg3", "sobolev", {"group": "heisenberg:3"}),
        # interior bumps on the cached 5- and 7-dimension ball templates
        Case(
            "hardy:heisenberg2-oblique",
            "hardy",
            {"group": "heisenberg:2", "halfspace": _OBLIQUE_H2, "trials": {"count": 4}},
        ),
        Case(
            "hardy:heisenberg3-oblique",
            "hardy",
            {"group": "heisenberg:3", "halfspace": _OBLIQUE_H3, "trials": {"count": 4}},
        ),
        Case(
            "hardy:heisenberg4-oblique",
            "hardy",
            {"group": "heisenberg:4", "halfspace": _OBLIQUE_H4, "trials": {"count": 4}},
        ),
        # interior bumps on an 11-dimension ball template above the cache cap,
        # rebuilt on each call
        Case("hardy:heisenberg5", "hardy", {"group": "heisenberg:5", "trials": {"count": 2}}),
        # every centre drawn within 0.05 of the boundary, so every ball touches it
        Case("hardy:touching", "hardy", {"trials": {"clearance": 0, "region": 0.05}}),
        Case("sobolev:abelian5", "sobolev", {"group": "abelian:5"}),
        Case(
            "sharpness:heisenberg2",
            "sharpness",
            {"group": "heisenberg:2", "quadrature": {"points_per_axis": 8}},
        ),
        Case("sharpness:oblique", "sharpness", {"halfspace": {"nu": [0.6, 0.0, 0.8], "d": 0.1}}),
        Case("sharpness:offset", "sharpness", {"halfspace": {"preset": "t-axis", "d": 0.3}}),
        # 12 (p, eps) rows in one integration
        Case("sharpness:12-rows", "sharpness", {"p": [2.0, 3.0, 4.0]}),
        # a box rule of 287,364 nodes, placed in many blocks cut mid-line
        Case(
            "sharpness:32-points",
            "sharpness",
            {"halfspace": {"preset": "x1-axis"}, "p": [2.0, 3.0], "quadrature": {"points_per_axis": 32}},
        ),
        # a 481,608-node ball rule on a template too large to cache,
        # integrated in many blocks
        Case(
            "hardy:heisenberg2-24-points",
            "hardy",
            {"group": "heisenberg:2", "quadrature": {"points_per_axis": 24}, "trials": {"count": 4}},
        ),
        Case(
            "hardy:heisenberg2-4-points",
            "hardy",
            {"group": "heisenberg:2", "quadrature": {"points_per_axis": 4}, "trials": {"count": 4}},
        ),
        # luan-young runs at p = 2 on the t-axis, whatever the config gives
        Case(
            "luan-young:heisenberg2-oblique",
            "luan-young",
            {"group": "heisenberg:2", "halfspace": _OBLIQUE_H2, "trials": {"count": 4}},
        ),
        Case("luan-young:p-2-3", "luan-young", {"p": [2.0, 3.0]}),
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


def _relative(a: float, b: float, scale: float) -> float:
    """|a - b| relative to the larger of |a|, |b| and ``scale``: 0.0 where
    they are equal (two nan included), inf where one is not finite and the
    other differs."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    gap = abs(a - b) / max(abs(a), abs(b), scale)
    return gap if math.isfinite(gap) else math.inf


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _magnitude(value, key=None) -> float:
    """The largest finite magnitude among the numbers of a parsed JSON
    value that are compared relatively, outside any ``rows``."""
    if isinstance(value, dict):
        return max((_magnitude(v, k) for k, v in value.items() if k != "rows"), default=0.0)
    if isinstance(value, list):
        return max((_magnitude(v, key) for v in value), default=0.0)
    if _is_number(value) and key not in _EXACT and math.isfinite(value):
        return abs(float(value))
    return 0.0


def _json_gap(ours, theirs, key=None, scale=None) -> float:
    """The worst difference between the numbers of two parsed JSON values,
    relative to the largest magnitude of their row (each element of a
    ``rows`` list is one, the rest of the document another); inf where
    they differ in anything else."""
    if scale is None:
        scale = max(_magnitude(ours), _magnitude(theirs))
    if isinstance(ours, dict) and isinstance(theirs, dict):
        if ours.keys() != theirs.keys():
            return math.inf
        return max((_json_gap(ours[k], theirs[k], k, scale) for k in ours), default=0.0)
    if isinstance(ours, list) and isinstance(theirs, list):
        if len(ours) != len(theirs):
            return math.inf
        row_scale = None if key == "rows" else scale
        return max((_json_gap(a, b, key, row_scale) for a, b in zip(ours, theirs)), default=0.0)
    if _is_number(ours) and _is_number(theirs) and key not in _EXACT:
        return _relative(float(ours), float(theirs), scale)
    return 0.0 if type(ours) is type(theirs) and ours == theirs else math.inf


def _csv_cell(column: str, text: str):
    """A CSV field as a number where it parses as one, outside the exact columns."""
    if column in _EXACT:
        return text
    try:
        return float(text)
    except ValueError:
        return text


def _csv_gap(ours: str, theirs: str) -> float:
    """The worst relative difference between the numbers of two CSV reports,
    each line a row; inf where they differ in anything else."""
    a, b = (list(csv.reader(io.StringIO(text))) for text in (ours, theirs))
    if not a or len(a) != len(b) or a[0] != b[0]:
        return math.inf
    header = a[0]
    if any(len(line) != len(header) for line in a[1:] + b[1:]):
        return math.inf
    rows_a, rows_b = (
        [{column: _csv_cell(column, text) for column, text in zip(header, line)} for line in lines[1:]]
        for lines in (a, b)
    )
    return _json_gap({"rows": rows_a}, {"rows": rows_b})


def report_gap(ours: str, theirs: str, fmt: str) -> float:
    """The worst relative difference between the numbers of two reports in
    ``fmt``; inf where they differ in anything else or do not parse."""
    if fmt == "csv":
        return _csv_gap(ours, theirs)
    try:
        return _json_gap(json.loads(ours), json.loads(theirs))
    except json.JSONDecodeError:
        return math.inf


def compare(ours: Path, theirs: Path, cases: list[Case], rtol: float | None = None):
    """Run ``cases`` on both trees.  Returns one message per run that differs
    ([] if none) and, with ``rtol``, the worst relative difference of each
    run that differs only in numbers, each within relative ``rtol``."""
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
    differences, gaps = [], []
    for (job, a), (_, b) in zip(results[::2], results[1::2]):
        case, seed, fmt = job
        if a == b:
            continue
        if rtol is not None and (a.code, a.stderr) == (b.code, b.stderr):
            gap = report_gap(a.stdout, b.stdout, fmt)
            if gap <= rtol:
                gaps.append(gap)
                continue
        lines = [f"{case.label} seed {seed} {fmt}:"]
        if a.code != b.code:
            lines.append(f"    exit code {b.code} -> {a.code}")
        for name in ("stdout", "stderr"):
            if getattr(a, name) != getattr(b, name):
                lines += _diff(name, getattr(a, name), getattr(b, name))
        differences.append("\n".join(lines))
    return differences, gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, type=Path, help="the other source tree")
    parser.add_argument(
        "--rtol", type=float, help="let report numbers differ by this relative amount"
    )
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.rtol >= 0.0:
        parser.error(f"--rtol must be a number >= 0, got {args.rtol!r}")
    theirs = args.against.resolve()
    if not (theirs / "src" / "strathardy" / "__init__.py").is_file():
        sys.exit(f"same_reports: no package at {theirs / 'src' / 'strathardy'}")
    cases = matrix()
    differences, gaps = compare(ROOT, theirs, cases, args.rtol)
    for message in differences:
        print(message)
    runs = len(cases) * len(SEEDS) * len(FORMATS)
    identical = runs - len(differences) - len(gaps)
    close = ""
    if args.rtol is not None:
        close = f", {len(gaps)} within relative {args.rtol:g} (worst {max(gaps, default=0.0):.2g})"
    print(f"{identical} of {runs} runs identical{close} ({len(cases)} configs)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

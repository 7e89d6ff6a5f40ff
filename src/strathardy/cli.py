"""Command-line entry point.

Subcommands run one experiment family each and write a CSV or JSON report
(stdout by default, a file with --out).  Each subcommand is one row of
``COMMANDS``: a runner that turns the resolved configuration into report
rows, the contract that names the rows that fail, and the half-space
preset used when the configuration names no normal.  Exit codes: 0 when
every checked contract holds within tolerance, 2 when a contract is
violated (one stderr line per failing row), 3 for configuration errors:
among them a size over its bound (``config.SIZE_BOUNDS``), a quadrature
method other than ``boundary-graded``, a quadrature over its node
budget, a trial the quadrature rule never sees (its denominator integral
vanishes, or its quotient or stderr is not finite; the line names the
trial and p), an integrand that overflows at a node (p too large, say;
the line names the trial and p of its row and the node) and a beta
whose beta-form coefficient overflows.
The first such error ends the run with its one line.  All randomness is
counter-based and derived from the seed, so identical configurations
produce byte-identical reports.

On glibc, ``main`` first fixes malloc's mmap threshold at 4 MiB and its
trim threshold at 16 MiB, for the whole process.  With glibc's dynamic
thresholds, each trial's temporaries (arrays of up to 62,208 x 5 doubles
on heisenberg:2) are handed back to the kernel when the trial frees them
and faulted in again by the next trial: about 4,200 minor page faults per
two-trial ``hardy`` run on heisenberg:2, against 5 to 12 with the
thresholds fixed.  Where ``mallopt`` is missing (not glibc) nothing is
set; library callers of ``integrate_many`` outside the CLI keep glibc's
defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from functools import cache, partial
from typing import Callable, NamedTuple

from . import experiments
from .config import ConfigError, as_count, as_number, build_trials, load_config, resolve
from .identities import run_identity_suite
from .quadrature import IntegrationError, NodeBudgetError
from .reports import Report, config_digest, render_csv, render_json
from .trials import boundary_bump_spec


# -- runners: (group, hs, quad, resolved config, digest) -> report rows ----------


def _identities(group, hs, quad, cfg, digest):
    indices = tuple(as_count(i, "identity_indices entry") for i in cfg["identity_indices"])
    points = as_count(cfg["identity_points"], "identity_points")
    if any(i < 1 for i in indices):
        raise ConfigError(f"identity_indices must be Heisenberg indices >= 1, got {list(indices)}")
    if points < 1:
        raise ConfigError(f"identity_points must be positive, got {points}")
    return [
        Report(
            inequality_id=f"identity:{c.name}",
            p=0.0,
            group=c.group,
            nu=(),
            d=0.0,
            quotient=c.residual,
            bound=c.tolerance,
            margin=c.tolerance - c.residual,
            stderr=0.0,
            evaluations=points,
            seed=cfg["seed"],
            config_digest=digest,
            extras={"passed": c.passed},
        )
        for c in run_identity_suite(indices=indices, points=points, seed=cfg["seed"])
    ]


def _each_trial(check, group, hs, quad, cfg, digest, **params):
    """``check`` on every trial for every p: p outer, then the rows of one
    (p, trial), then trials.

    Each trial is integrated once, for all p together, so one rule and one
    trial sample serve every p of a trial.  The first error raises.
    """
    per_trial = [
        experiments.each_p(check, group, hs, u, cfg["p"], quad, digest, **params)
        for u in build_trials(group, hs, cfg)
    ]
    # one p, every trial
    return [r for column in zip(*per_trial) for same in zip(*column) for r in same]


def _general_hardy(group, hs, quad, cfg, digest):
    for p in cfg["p"]:
        for beta in cfg["beta"] or []:
            try:
                experiments.beta_form_coefficient(p, beta)
            except OverflowError:
                raise ConfigError(
                    f"beta {beta!r} at p={p!r}: its beta-form coefficient is past the float range"
                ) from None
    if cfg["beta"] == []:  # no rows asked for: integrate nothing
        cfg = dict(cfg, p=[])
    return _each_trial(experiments.GENERAL_HARDY, group, hs, quad, cfg, digest, betas=cfg["beta"])


def _remainder(group, hs, quad, cfg, digest):
    if any(p < 2 for p in cfg["p"]):
        raise ConfigError("remainder checks need every p >= 2")
    return _each_trial(experiments.REMAINDER, group, hs, quad, cfg, digest)


def _sobolev(group, hs, quad, cfg, digest):
    Q = group.homogeneous_dim
    if any(not 2 <= p < Q for p in cfg["p"]):
        raise ConfigError(f"sobolev needs 2 <= p < Q = {Q} for every p, got {cfg['p']}")
    return _each_trial(experiments.SOBOLEV, group, hs, quad, cfg, digest)


# the sharpness denominator behaves like dist^(p*eps - 1), and the
# boundary-graded rule is validated for dist^g down to g = -0.9 only
_MIN_P_EPS = 0.1


def _sharpness(group, hs, quad, cfg, digest):
    eps_list = [float(e) for e in cfg["eps"]]
    radius = as_number(cfg["cutoff_radius"], "cutoff_radius")
    try:
        cutoff = boundary_bump_spec(hs, radius)
    except ValueError as exc:
        raise ConfigError(f"cutoff_radius {radius!r}: {exc}") from exc
    if any(e <= 0 for e in eps_list):
        raise ConfigError("every eps must be positive")
    for p in cfg["p"]:
        for e in eps_list:
            if p * e < _MIN_P_EPS:
                raise ConfigError(
                    f"sharpness row p={p!r}, eps={e!r} has p*eps < {_MIN_P_EPS!r}: "
                    "its denominator exponent p*eps - 1 is below -0.9, where quadrature "
                    "is not validated"
                )
    return experiments.sharpness_grid(group, hs, cfg["p"], eps_list, cutoff, quad, config_digest=digest)


def _bft(group, hs, quad, cfg, digest):
    samples = as_count(cfg["samples"], "samples")
    if samples < 1:
        raise ConfigError(f"samples must be positive, got {samples}")
    return [experiments.bft_fuzz(samples=samples, seed=cfg["seed"], config_digest=digest)]


def _luan_young(group, hs, quad, cfg, digest):
    if not group.is_heisenberg:
        raise ConfigError(f"luan-young needs a Heisenberg group, got {group.name}")
    # the check is at p = 2 alone; a p the config gives is ignored
    return _each_trial(experiments.LUAN_YOUNG, group, hs, quad, dict(cfg, p=[2.0]), digest)


# -- contracts: report rows -> one line per failing row --------------------------


def _failure(i: int, r: Report, tolerance: float) -> str:
    return f"row {i} {r.inequality_id}: margin {r.margin!r}, tolerance {tolerance!r}"


def _within_tolerance(reports):
    return [
        _failure(i, r, r.contract_tolerance())
        for i, r in enumerate(reports)
        if not r.margin >= -r.contract_tolerance()
    ]


def _identities_passed(reports):
    return [_failure(i, r, r.bound) for i, r in enumerate(reports) if not r.extras["passed"]]


def _positive(reports):
    return [_failure(i, r, 0.0) for i, r in enumerate(reports) if not r.quotient > 0]


def _no_violations(reports):
    return [_failure(i, r, 0.0) for i, r in enumerate(reports) if r.quotient != 0.0]


def _sharpness_holds(reports):
    """Within tolerance, and quotients not increasing as eps falls along a
    verification sweep: each p's rows in order of decreasing eps, however
    the config lists them.

    A rise is measured against 3 times the paired bar of q_b - q_a: both
    rows integrate the one cutoff on one rule, so their replicates pair.
    """
    failures = _within_tolerance(reports)
    sweeps = {}
    for i, r in enumerate(reports):
        if r.extras.get("label") == "verification":
            sweeps.setdefault(r.p, []).append(i)
    for rows in sweeps.values():
        rows.sort(key=lambda i: reports[i].extras["eps"], reverse=True)
        for i, j in zip(rows, rows[1:]):
            a, b = reports[i], reports[j]
            gap_bar = experiments._bar(
                (1.0, b.numerator, b.denominator.value),
                (-b.quotient, b.denominator, b.denominator.value),
                (-1.0, a.numerator, a.denominator.value),
                (a.quotient, a.denominator, a.denominator.value),
            )
            slack = 3.0 * gap_bar + 1e-3 * max(abs(a.quotient), 1.0)
            if b.quotient > a.quotient + slack:
                failures.append(
                    f"rows {i},{j} sharpness: quotient rose from {a.quotient!r} "
                    f"to {b.quotient!r} at eps {a.extras['eps']!r} -> {b.extras['eps']!r}, "
                    f"slack {slack!r}"
                )
    return failures


class Command(NamedTuple):
    run: Callable[..., list[Report]]
    failures: Callable[[list[Report]], list[str]]
    # preset used when the config gives neither a preset nor a normal
    halfspace: str = "t-axis"
    # True: the preset, with d = 0, replaces whatever the config gives
    pinned: bool = False


COMMANDS = {
    "identities": Command(_identities, _identities_passed),
    "hardy": Command(partial(_each_trial, experiments.HARDY), _within_tolerance),
    "general-hardy": Command(_general_hardy, _within_tolerance),
    "remainder": Command(_remainder, _within_tolerance),
    # sharpness verifies against the first-coordinate normal by default
    "sharpness": Command(_sharpness, _sharpness_holds, halfspace="x1-axis"),
    "sobolev": Command(_sobolev, _positive),
    "bft-fuzz": Command(_bft, _no_violations),
    "luan-young": Command(_luan_young, _within_tolerance, pinned=True),
}


# glibc's mallopt parameters (malloc.h) and the values the CLI fixes them at:
# arrays below 4 MiB come from heap that stays mapped between trials, and
# freed heap returns to the kernel only past 16 MiB
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 16 << 20


@cache
def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds, once per process.

    Returns whether both were set: False where the C library has no
    ``mallopt``, or refuses a value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_set and trim_set


@cache  # once per process: each main() call of a process parses with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strathardy",
        description="Hardy-inequality experiments on stratified groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON configuration file")
        cmd.add_argument("--out", default=None, help="write the report to this path")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    fix_malloc_thresholds()
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        cfg = load_config(args.config)
        if command.pinned:
            cfg["halfspace"] = {"preset": command.halfspace, "nu": None, "d": 0.0}
        elif cfg["halfspace"]["preset"] is None and cfg["halfspace"]["nu"] is None:
            cfg["halfspace"]["preset"] = command.halfspace
        group, hs, quad, resolved = resolve(cfg, seed=args.seed)
        resolved["command"] = args.command
        digest = config_digest(resolved)
        reports = command.run(group, hs, quad, resolved, digest)
    except (ConfigError, NodeBudgetError, experiments.TrivialTrialError, IntegrationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    text = render_csv(reports) if args.format == "csv" else render_json(reports, resolved)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failures = command.failures(reports)
    for line in failures:
        print(f"contract violated: {line}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

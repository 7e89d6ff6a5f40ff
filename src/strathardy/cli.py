"""Command-line entry point.

Subcommands run one experiment family each and write a CSV or JSON report
(stdout by default, a file with --out).  Each subcommand is one row of
``COMMANDS``: a runner that turns the resolved configuration into report
rows, the contract that names the rows that fail, and the half-space
preset used when the configuration names no normal.  Exit codes: 0 when
every checked contract holds within tolerance, 2 when a contract is
violated (one stderr line per failing row), 3 for configuration errors, a
quadrature over its node budget among them.  All randomness is
counter-based and derived from the seed, so identical configurations
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import Callable, NamedTuple

from . import experiments
from .config import ConfigError, as_integer, build_trials, load_config, resolve
from .identities import run_identity_suite
from .quadrature import NodeBudgetError
from .reports import Report, config_digest, render_csv, render_json
from .trials import boundary_bump_spec


# -- runners: (group, hs, quad, resolved config, digest) -> report rows ----------


def _identities(group, hs, quad, cfg, digest):
    indices = tuple(as_integer(i, "identity_indices entry") for i in cfg["identity_indices"])
    points = as_integer(cfg["identity_points"], "identity_points")
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


def _each_trial(experiment, group, hs, quad, cfg, digest):
    """``experiment`` on every trial for every p (p outer, trials inner)."""
    trials = build_trials(group, hs, cfg)
    return [experiment(group, hs, u, p, quad, config_digest=digest) for p in cfg["p"] for u in trials]


def _general_hardy(group, hs, quad, cfg, digest):
    trials = build_trials(group, hs, cfg)
    return [
        experiments.general_hardy_margin(group, hs, u, p, float(beta), quad, config_digest=digest)
        for p in cfg["p"]
        for beta in (cfg["beta"] if cfg["beta"] is not None else [experiments.beta_star(p)])
        for u in trials
    ]


def _remainder(group, hs, quad, cfg, digest):
    if any(p < 2 for p in cfg["p"]):
        raise ConfigError("remainder checks need every p >= 2")
    return _each_trial(experiments.remainder_check, group, hs, quad, cfg, digest)


def _sobolev(group, hs, quad, cfg, digest):
    Q = group.homogeneous_dim
    if any(not 2 <= p < Q for p in cfg["p"]):
        raise ConfigError(f"sobolev needs 2 <= p < Q = {Q} for every p, got {cfg['p']}")
    return _each_trial(experiments.hardy_sobolev_ratio, group, hs, quad, cfg, digest)


def _sharpness(group, hs, quad, cfg, digest):
    eps_list = [float(e) for e in cfg["eps"]]
    try:
        radius = float(cfg["cutoff_radius"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sharpness settings: {exc}") from exc
    if any(e <= 0 for e in eps_list):
        raise ConfigError("every eps must be positive")
    cutoff = boundary_bump_spec(hs, radius)
    return [
        report
        for p in cfg["p"]
        for report in experiments.sharpness_sweep(
            group, hs, p, eps_list, cutoff, quad, config_digest=digest
        )
    ]


def _bft(group, hs, quad, cfg, digest):
    samples = as_integer(cfg["samples"], "samples")
    if samples < 1:
        raise ConfigError(f"samples must be positive, got {samples}")
    return [experiments.bft_fuzz(samples=samples, seed=cfg["seed"], config_digest=digest)]


def _luan_young(group, hs, quad, cfg, digest):
    if not group.is_heisenberg:
        raise ConfigError(f"luan-young needs a Heisenberg group, got {group.name}")
    return [
        experiments.luan_young_check(group, u, quad, config_digest=digest)
        for u in build_trials(group, hs, cfg)
    ]


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
    """Within tolerance, and quotients not increasing along a verification sweep."""
    failures = _within_tolerance(reports)
    for i, (a, b) in enumerate(zip(reports, reports[1:])):
        if a.p != b.p or a.extras.get("label") != "verification":
            continue
        slack = 3.0 * (a.stderr + b.stderr) + 1e-3 * max(abs(a.quotient), 1.0)
        if b.quotient > a.quotient + slack:
            failures.append(
                f"rows {i},{i + 1} sharpness: quotient rose from {a.quotient!r} "
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
    "hardy": Command(partial(_each_trial, experiments.hardy_quotient), _within_tolerance),
    "general-hardy": Command(_general_hardy, _within_tolerance),
    "remainder": Command(_remainder, _within_tolerance),
    # sharpness verifies against the first-coordinate normal by default
    "sharpness": Command(_sharpness, _sharpness_holds, halfspace="x1-axis"),
    "sobolev": Command(_sobolev, _positive),
    "bft-fuzz": Command(_bft, _no_violations),
    "luan-young": Command(_luan_young, _within_tolerance, pinned=True),
}


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
    except (ConfigError, NodeBudgetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    text = (
        render_csv(reports)
        if args.format == "csv"
        else render_json(reports, resolved)
    )
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

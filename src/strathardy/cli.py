"""Command-line entry point.

Subcommands run one experiment family each and write a CSV or JSON report
(stdout by default, a file with --out).  Exit codes: 0 when every checked
contract holds within tolerance, 2 when a contract is violated, 3 for
configuration errors, a quadrature over its node budget among them.  All
randomness is counter-based and derived from the seed, so identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import ConfigError, as_integer, build_trials, load_config, resolve
from .identities import run_identity_suite
from .quadrature import NodeBudgetError
from .reports import Report, config_digest, render_csv, render_json
from .trials import boundary_bump_spec

COMMANDS = (
    "identities",
    "hardy",
    "general-hardy",
    "remainder",
    "sharpness",
    "sobolev",
    "bft-fuzz",
    "luan-young",
)


def _run_identities(group, hs, quad, cfg, digest):
    try:
        raw_indices = list(cfg["identity_indices"])
    except TypeError as exc:
        raise ConfigError(f"identity_indices must be a list: {exc}") from exc
    indices = tuple(as_integer(i, "identity_indices entry") for i in raw_indices)
    points = as_integer(cfg["identity_points"], "identity_points")
    if any(i < 1 for i in indices):
        raise ConfigError(f"identity_indices must be Heisenberg indices >= 1, got {list(indices)}")
    if points < 1:
        raise ConfigError(f"identity_points must be positive, got {points}")
    checks = run_identity_suite(indices=indices, points=points, seed=cfg["seed"])
    reports = []
    for c in checks:
        reports.append(
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
        )
    ok = all(c.passed for c in checks)
    return reports, ok


def _per_trial(runner, group, hs, quad, cfg, digest, p_values=None):
    trials = build_trials(group, hs, cfg)
    reports = []
    for p in p_values if p_values is not None else cfg["p"]:
        for u in trials:
            reports.append(runner(group, hs, u, p, quad, digest))
    return reports


def _run_hardy(group, hs, quad, cfg, digest):
    reports = _per_trial(
        lambda g, h, u, p, q, dg: experiments.hardy_quotient(
            g, h, u, p, q, config_digest=dg
        ),
        group,
        hs,
        quad,
        cfg,
        digest,
    )
    ok = all(r.margin >= -r.contract_tolerance() for r in reports)
    return reports, ok


def _run_general_hardy(group, hs, quad, cfg, digest):
    betas = cfg["beta"]
    reports = []
    for p in cfg["p"]:
        beta_list = betas if betas is not None else [experiments.beta_star(p)]
        for beta in beta_list:
            for u in build_trials(group, hs, cfg):
                reports.append(
                    experiments.general_hardy_margin(
                        group, hs, u, p, float(beta), quad, config_digest=digest
                    )
                )
    ok = all(r.margin >= -r.contract_tolerance() for r in reports)
    return reports, ok


def _run_remainder(group, hs, quad, cfg, digest):
    for p in cfg["p"]:
        if p < 2:
            raise ConfigError("remainder checks need every p >= 2")
    reports = _per_trial(
        lambda g, h, u, p, q, dg: experiments.remainder_check(
            g, h, u, p, q, config_digest=dg
        ),
        group,
        hs,
        quad,
        cfg,
        digest,
    )
    ok = all(r.margin >= -r.contract_tolerance() for r in reports)
    return reports, ok


def _run_sharpness(group, hs, quad, cfg, digest):
    try:
        eps_list = [float(e) for e in cfg["eps"]]
        radius = float(cfg["cutoff_radius"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sharpness settings: {exc}") from exc
    if any(e <= 0 for e in eps_list):
        raise ConfigError("every eps must be positive")
    cutoff = boundary_bump_spec(hs, radius)
    reports = []
    for p in cfg["p"]:
        reports.extend(
            experiments.sharpness_sweep(
                group, hs, p, eps_list, cutoff, quad, config_digest=digest
            )
        )
    ok = all(r.margin >= -r.contract_tolerance() for r in reports)
    # quotients must not increase along the sweep wherever it is a verification
    for a, b in zip(reports, reports[1:]):
        if a.p != b.p or a.extras.get("label") != "verification":
            continue
        slack = 3.0 * (a.stderr + b.stderr) + 1e-3 * max(abs(a.quotient), 1.0)
        if b.quotient > a.quotient + slack:
            ok = False
    return reports, ok


def _run_sobolev(group, hs, quad, cfg, digest):
    reports = _per_trial(
        lambda g, h, u, p, q, dg: experiments.hardy_sobolev_ratio(
            g, h, u, p, q, config_digest=dg
        ),
        group,
        hs,
        quad,
        cfg,
        digest,
    )
    ok = all(r.quotient > 0 for r in reports)
    return reports, ok


def _run_bft(group, hs, quad, cfg, digest):
    samples = as_integer(cfg["samples"], "samples")
    if samples < 1:
        raise ConfigError(f"samples must be positive, got {samples}")
    report = experiments.bft_fuzz(samples=samples, seed=cfg["seed"], config_digest=digest)
    return [report], report.quotient == 0.0


def _run_luan_young(group, hs, quad, cfg, digest):
    reports = []
    for u in build_trials(group, hs, cfg):
        reports.append(
            experiments.luan_young_check(group, u, quad, config_digest=digest)
        )
    ok = all(r.margin >= -r.contract_tolerance() for r in reports)
    return reports, ok


_RUNNERS = {
    "identities": _run_identities,
    "hardy": _run_hardy,
    "general-hardy": _run_general_hardy,
    "remainder": _run_remainder,
    "sharpness": _run_sharpness,
    "sobolev": _run_sobolev,
    "bft-fuzz": _run_bft,
    "luan-young": _run_luan_young,
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
    try:
        cfg = load_config(args.config)
        if args.command == "sharpness" and (
            args.config is None or "halfspace" not in _raw_keys(args.config)
        ):
            # sharpness verifies against the first-coordinate normal by default
            cfg["halfspace"] = {"preset": "x1-axis", "d": 0.0}
        if args.command == "luan-young":
            cfg["halfspace"] = {"preset": "t-axis", "d": 0.0}
        group, hs, quad, resolved = resolve(cfg, seed=args.seed)
        resolved["command"] = args.command
        digest = config_digest(resolved)
        reports, ok = _RUNNERS[args.command](group, hs, quad, resolved, digest)
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
    return 0 if ok else 2


def _raw_keys(path: str) -> set:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return set(raw) if isinstance(raw, dict) else set()
    except Exception:
        return set()


if __name__ == "__main__":
    sys.exit(main())

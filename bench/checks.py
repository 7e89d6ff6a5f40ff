"""Checks of every report row against independent computations or required properties.

An operation is one report row together with its checks.  A row fails
when its command raised or printed fewer rows than its config asks for,
when it breaks its bound beyond ``Report.contract_tolerance()``, or when
it fails one of the checks below:

- identities: the suite's own verdict, residual below tolerance, and a
  residual of exactly 0 for the exact checks (tolerance 0);
- hardy: within 3 x its reported ``stderr`` (plus the reference's own
  two-resolution spread) of the reference integral of the same bump from
  ``reference.py``.  This is a failure on the reference pass, whose inputs
  are fixed.  On rows drawn from ``--seed`` the program misses it on some
  seeds only, so there a miss is named but not counted, and the row must
  lie within ``contract_tolerance()`` of the reference;
- general-hardy at beta*: margin equal to the hardy margin of the same
  trial and p, to rounding;
- remainder: at p = 2 the margin is 0 within tolerance;
- sharpness: quotients decrease as eps decreases, and at p = 2 lie within
  2% of the reference values;
- sobolev: a positive ratio, unchanged when u is replaced by 7u;
- bft-fuzz: no violations in the configured number of samples;
- luan-young: quotient equal to 4 x the p = 2 hardy quotient of the same
  trial, to rounding (on the t-axis half-space W^2 = 4(|x|^2 + |y|^2)).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import reference

TRIAL = re.compile(r"bump\(center=\(([^)]*)\),radius=([^,)]+)\)")
ROUNDING = 1e-12  # relative agreement required of values equal up to rounding
SHARPNESS_REL = 0.02
IDENTITY_ROWS = 7  # checks per group in the identity suite


@dataclass
class Outcome:
    """What one CLI invocation produced."""

    command: str
    rc: int | None  # None when the command raised
    text: str  # the JSON report, or the traceback when it raised


def expected_rows(command: str, config: dict) -> int:
    """Rows a subcommand must print for a benchmark config (which sets every count)."""
    if command == "identities":
        return IDENTITY_ROWS * len(config["identity_indices"])
    if command == "bft-fuzz":
        return 1
    if command == "sharpness":
        return len(config["eps"]) * len(config["p"])
    if command == "luan-young":
        return config["trials"]["count"]
    return config["trials"]["count"] * len(config["p"])


def trial_of(row) -> tuple[tuple[float, ...], float]:
    """Bump center and radius from the row's trial label (repr floats round-trip)."""
    match = TRIAL.fullmatch(row["extras"]["trial"])
    if match is None:
        raise ValueError(f"unrecognised trial label {row['extras']['trial']!r}")
    center, radius = match.groups()
    return tuple(float(c) for c in center.split(",")), float(radius)


def heisenberg_index(group: str) -> int:
    kind, _, n = group.partition(":")
    if kind != "heisenberg":
        raise ValueError(f"references cover Heisenberg groups only, not {group!r}")
    return int(n)


class Verifier:
    """Checks passes of report rows and keeps what the metrics need.

    ``problems`` names reasons the verification itself cannot be trusted
    (a reference too coarse for the error it measures); they make the
    run's ``correct`` false.  ``scaled_sobolev(seed)`` gives S(7u) keyed
    by (trial label, p), for workloads with sobolev rows.
    """

    def __init__(self, contract_tolerance, scaled_sobolev=None):
        self._tolerance = contract_tolerance
        self._scaled_sobolev = scaled_sobolev
        self._hardy_refs: dict = {}
        self.problems: list[str] = []

    # -- references -------------------------------------------------------------

    def _hardy_reference(self, row):
        center, radius = trial_of(row)
        key = (row["group"], tuple(row["nu"]), row["d"], center, radius)
        if key not in self._hardy_refs:
            self._hardy_refs[key] = reference.hardy_reference(
                heisenberg_index(row["group"]), row["nu"], row["d"], center, radius, [2.0, 3.0]
            )
        return self._hardy_refs[key][row["p"]]

    # -- one pass ---------------------------------------------------------------

    def check_pass(self, outcomes, configs, seed, fixed):
        """Check every row of one pass; ``fixed`` if its inputs do not depend on ``--seed``.

        Returns (failures, accuracy): failures is a list of (row name,
        reason); accuracy has the relative errors against references, the
        reference spreads, the relative stderrs of quotient rows, and the
        hardy rows whose reference lies beyond 3 stderr (``stderr_misses``,
        each a (row name, reason), counted as failures only if ``fixed``).
        """
        failures = []
        accuracy = {"rel_errors": [], "rel_stderrs": [], "stderr_misses": []}
        docs = {}
        for outcome, (command, config) in zip(outcomes, configs):
            want = expected_rows(command, config)
            if outcome.rc is None:
                failures += [(f"{command} row {i}", "the command raised") for i in range(want)]
                continue
            # a configuration error (exit 3) prints no report at all
            rows = json.loads(outcome.text)["rows"] if outcome.text.strip() else []
            docs[command] = rows
            if len(rows) < want:
                failures += [
                    (f"{command} row {i}", "missing from the report") for i in range(len(rows), want)
                ]
        config_of = dict(configs)
        hardy = {(r["extras"]["trial"], r["p"]): r for r in docs.get("hardy", [])}
        for command, rows in docs.items():
            check = getattr(self, "_check_" + command.replace("-", "_"))
            previous = {}
            for i, row in enumerate(rows):
                name = f"{command} row {i} ({row['inequality_id']}, p={row['p']:g}, seed {seed})"
                reasons = check(
                    row, config=config_of[command], hardy=hardy, previous=previous,
                    accuracy=accuracy, seed=seed, fixed=fixed, name=name,
                )
                if command != "identities" and command != "bft-fuzz":
                    reasons += self._contract(command, row)
                failures += [(name, reason) for reason in reasons]
        return failures, accuracy

    def _contract(self, command, row):
        if command == "sobolev":
            ok = row["quotient"] is not None and row["quotient"] > 0.0
            return [] if ok else [f"ratio {row['quotient']!r} is not positive"]
        tol = self._tolerance(row)
        if row["margin"] >= -tol:
            return []
        return [f"margin {row['margin']!r} breaks the bound beyond tolerance {tol!r}"]

    # -- per-command checks -------------------------------------------------------

    def _check_identities(self, row, **_):
        residual, tol = row["quotient"], row["bound"]
        reasons = [] if row["extras"]["passed"] else ["the suite reports a failure"]
        if tol == 0.0 and residual != 0.0:
            reasons.append(f"exact check has residual {residual!r}, not 0")
        elif tol > 0.0 and not residual < tol:
            reasons.append(f"residual {residual!r} is not below {tol!r}")
        return reasons

    def _check_hardy(self, row, accuracy, fixed, name, **_):
        q, stderr = row["quotient"], row["stderr"]
        q_ref, spread = self._hardy_reference(row)
        error = abs(q - q_ref)
        accuracy["rel_errors"].append((error / q_ref, spread))
        accuracy["rel_stderrs"].append(stderr / q)
        if spread * q_ref > 0.1 * max(3.0 * stderr, error):
            self.problems.append(
                f"hardy reference spread {spread:.2e} is not 10x below the error it checks"
            )
        if error <= 3.0 * stderr + spread * q_ref:
            return []
        miss = (f"quotient {q!r} is {error:.3e} from the reference {q_ref!r}, "
                f"beyond 3 x stderr {stderr:.3e} + spread")
        accuracy["stderr_misses"].append((name, miss))
        if fixed:
            return [miss]
        tol = self._tolerance(row)
        return [f"{miss}, and beyond its tolerance {tol:.3e}"] if error > tol else []

    def _check_general_hardy(self, row, hardy, **_):
        match = hardy.get((row["extras"]["trial"], row["p"]))
        if match is None:
            return ["no hardy row of the same trial and p to compare with"]
        if abs(row["margin"] - match["margin"]) > ROUNDING * max(1.0, abs(row["quotient"])):
            return [f"margin {row['margin']!r} differs from the hardy margin {match['margin']!r}"]
        return []

    def _check_remainder(self, row, **_):
        tol = self._tolerance(row)
        if row["p"] == 2.0 and abs(row["margin"]) > tol:
            return [f"p = 2 margin {row['margin']!r} is not 0 within {tol!r}"]
        return []

    def _check_sharpness(self, row, previous, accuracy, **_):
        reasons = []
        q, p = row["quotient"], row["p"]
        accuracy["rel_stderrs"].append(row["stderr"] / q)
        if p in previous and not q < previous[p]:
            reasons.append(f"quotient {q!r} does not decrease from {previous[p]!r} as eps decreases")
        previous[p] = q
        if p == 2.0:
            q_ref, spread = reference.sharpness_reference(row["extras"]["eps"])
            rel = abs(q - q_ref) / q_ref
            accuracy["rel_errors"].append((rel, spread))
            if rel > SHARPNESS_REL:
                reasons.append(f"quotient {q!r} is {rel:.2%} from the reference {q_ref!r}")
        return reasons

    def _check_sobolev(self, row, seed, accuracy, **_):
        q = row["quotient"]
        accuracy["rel_stderrs"].append(row["stderr"] / q)
        scaled = self._scaled_sobolev(seed)[(row["extras"]["trial"], row["p"])]
        if abs(scaled - q) > ROUNDING * q:
            return [f"ratio {q!r} changes to {scaled!r} when u is replaced by 7u"]
        return []

    def _check_bft_fuzz(self, row, config, **_):
        reasons = []
        if row["extras"]["samples"] != config["samples"]:
            reasons.append(f"drew {row['extras']['samples']} samples, not {config['samples']}")
        if row["quotient"] != 0.0:
            reasons.append(f"{row['quotient']:g} violations in {row['extras']['samples']} samples")
        return reasons

    def _check_luan_young(self, row, hardy, accuracy, **_):
        q = row["quotient"]
        accuracy["rel_stderrs"].append(row["stderr"] / q)
        match = hardy.get((row["extras"]["trial"], 2.0))
        if match is None:
            return ["no p = 2 hardy row of the same trial to compare with"]
        if abs(q - 4.0 * match["quotient"]) > ROUNDING * q:
            return [f"quotient {q!r} is not 4 x the hardy quotient {match['quotient']!r}"]
        return []

"""Configuration files for the command-line experiments.

A configuration is a JSON object of named blocks; anything omitted takes
the defaults below.  Unknown keys are rejected so typos fail loudly
(exit code 3 at the CLI) instead of silently running the default, and so
are scalar numeric keys that are not finite JSON numbers (a string or a
boolean is not one) and list-valued keys that are not JSON arrays of
finite numbers.  Every size a config sets (a count, a group index, the
length of a list) has an upper bound in ``SIZE_BOUNDS``, checked before
anything of that size is built or looped over; a larger one is a
ConfigError too.

{
  "group": "heisenberg:1",
  "halfspace": {"preset": "t-axis", "d": 0.0}      or {"nu": [...], "d": ...}
                                   (neither: the subcommand's default preset),
  "trials": {"family": "bump", "count": 20, "radius": [0.1, 0.35],
             "region": 1.2, "clearance": 0.1},
  "quadrature": {"method": "boundary-graded", "points_per_axis": 16,
                 "sample_count": 200000, "grading_exponent": 4.0},
  "p": [2.0],
  "beta": [-0.5],                  # general-hardy only; default beta_star(p)
  "eps": [0.5, 0.2, 0.1, 0.05],    # sharpness only
  "cutoff_radius": 1.0,            # sharpness only
  "samples": 1000000,              # bft-fuzz only
  "identity_points": 1000,         # identities only
  "identity_indices": [1, 2, 3],   # identities only
  "seed": 42
}
"""

from __future__ import annotations

import json
import math
from copy import deepcopy

import numpy as np

from .calculus import HalfSpace, halfspace_preset
from .errors import Refusal
from .groups import GroupSpec, group_from_name
from .quadrature import QuadConfig
from .trials import make_bump, random_interior_bumps

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "SIZE_BOUNDS",
    "as_count",
    "as_integer",
    "as_number",
    "number_list",
    "load_config",
    "resolve",
]


class ConfigError(Refusal):
    """Bad configuration file or values."""


def _is_number(value) -> bool:
    """Whether a config value is a JSON number; booleans and strings are not."""
    return type(value) in (int, float)


def as_integer(value, name: str) -> int:
    """A count or seed from the config as an int.

    A float is accepted only when it is integral (16.0 is 16); 2.7 is
    rejected rather than truncated, and so are true (not 1) and "16".
    """
    if not _is_number(value) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


# the largest size each key may ask for.  Each sits well above every
# value the benchmark, the README and the tests use, and keeps a run to
# minutes and a few hundred MB; the length of p also multiplies the
# integrand rows that one integration holds.
SIZE_BOUNDS = {
    "trials.count": 1000,
    "samples": 100_000_000,
    "identity_points": 10_000,
    "identity_indices entry": 8,
    "group index": 8,
    "length of p": 8,
    "length of beta": 8,
    "length of eps": 8,
    "length of identity_indices": 8,
}


def _check_size(size, key: str, shown=None) -> None:
    """Reject ``size`` when it is over ``SIZE_BOUNDS[key]``; the message
    spells the value as ``shown`` when given."""
    bound = SIZE_BOUNDS[key]
    if size > bound:
        raise ConfigError(f"{key} is {size if shown is None else shown!r}, over its bound of {bound}")


def as_count(value, name: str) -> int:
    """A size key as an int (see :func:`as_integer`) within its bound in
    ``SIZE_BOUNDS``."""
    count = as_integer(value, name)
    _check_size(count, name, shown=value)
    return count


def as_number(value, name: str) -> float:
    """A scalar key as a float; it must be a finite JSON number ("1" is rejected)."""
    if _is_number(value):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{name} must be a finite JSON number, got {value!r}")


def number_list(value, name: str) -> list[float]:
    """A list-valued key as floats; it must be a JSON array of finite numbers.

    A string or a scalar is rejected rather than iterated: "23" is not
    [2, 3].
    """
    if isinstance(value, list) and all(_is_number(v) for v in value):
        try:
            floats = [float(v) for v in value]
        except OverflowError:
            floats = [math.inf]
        if all(math.isfinite(v) for v in floats):
            return floats
    raise ConfigError(f"{name} must be a JSON array of finite numbers, got {value!r}")


DEFAULT_CONFIG = {
    "group": "heisenberg:1",
    "halfspace": {"preset": None, "nu": None, "d": 0.0},
    "trials": {
        "family": "bump",
        "count": 20,
        "radius": [0.1, 0.35],
        "region": 1.2,
        "clearance": 0.1,
    },
    "quadrature": {
        "method": "boundary-graded",
        "points_per_axis": 16,
        "sample_count": 200_000,
        "grading_exponent": 4.0,
    },
    "p": [2.0],
    "beta": None,
    "eps": [0.5, 0.2, 0.1, 0.05],
    "cutoff_radius": 1.0,
    "samples": 1_000_000,
    "identity_points": 1000,
    "identity_indices": [1, 2, 3],
    "seed": 42,
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown configuration key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path + key!r} must be an object")
            out[key] = _merge(base[key], value, path=f"{path}{key}.")
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    """Read a JSON config file and merge it over the defaults."""
    if path is None:
        return deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    return _merge(DEFAULT_CONFIG, raw)


def resolve(config: dict, seed: int | None = None):
    """Turn a merged config dict into runnable objects.

    Returns (group, halfspace, quad_config, resolved_config); the resolved
    dict is what gets echoed into JSON reports and hashed into digests.
    """
    cfg = deepcopy(config)
    if seed is not None:
        cfg["seed"] = int(seed)
    cfg["seed"] = as_integer(cfg["seed"], "seed")

    name = str(cfg["group"])
    family, _, index = name.partition(":")
    if family in ("heisenberg", "abelian") and index.isdecimal():
        _check_size(float(index), "group index", shown=name)
    try:
        group = group_from_name(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    hs_block = cfg["halfspace"]
    if not isinstance(hs_block, dict):
        raise ConfigError("halfspace block must be an object")
    preset, nu = hs_block.get("preset"), hs_block.get("nu")
    if preset is not None and nu is not None:
        raise ConfigError("halfspace block gives both a preset and a normal nu; give one")
    d = as_number(hs_block.get("d", 0.0), "halfspace.d")
    try:
        if nu is not None:
            nu = np.asarray(number_list(nu, "halfspace.nu"))
            if nu.shape != (group.total_dim,):
                raise ConfigError(
                    f"halfspace normal has {nu.size} entries, group needs {group.total_dim}"
                )
            hs = HalfSpace(nu=nu, d=d)
            cfg["halfspace"] = {"nu": [float(v) for v in hs.nu], "d": d}
        else:
            preset = "t-axis" if preset is None else preset
            hs = halfspace_preset(group, preset, d=d)
            cfg["halfspace"] = {"preset": preset, "d": d}
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad halfspace block: {exc}") from exc

    qblock = cfg["quadrature"]
    if qblock["method"] != "boundary-graded":
        raise ConfigError(f"quadrature.method {qblock['method']!r}: the one method is 'boundary-graded'")
    points_per_axis = as_integer(qblock["points_per_axis"], "quadrature.points_per_axis")
    sample_count = as_integer(qblock["sample_count"], "quadrature.sample_count")
    grading_exponent = as_number(qblock["grading_exponent"], "quadrature.grading_exponent")
    try:
        quad = QuadConfig(
            points_per_axis=points_per_axis,
            sample_count=sample_count,
            seed=cfg["seed"],
            grading_exponent=grading_exponent,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad quadrature block: {exc}") from exc

    cfg["p"] = number_list(cfg["p"], "p")
    if any(p <= 1 for p in cfg["p"]):
        raise ConfigError("every p must exceed 1")
    for key in ("p", "beta", "eps", "identity_indices"):
        if key != "beta" or cfg[key] is not None:  # beta None: beta_star(p)
            _check_size(len(number_list(cfg[key], key)), f"length of {key}")
    if len(number_list(cfg["trials"]["radius"], "trials.radius")) != 2:
        raise ConfigError("trials.radius must be [lo, hi]")

    return group, hs, quad, cfg


def build_trials(group: GroupSpec, hs: HalfSpace, cfg: dict):
    """Materialize the trial family of a resolved config as ScalarFields."""
    block = cfg["trials"]
    family = block.get("family", "bump")
    if family != "bump":
        raise ConfigError(f"unknown trial family {family!r}")
    count = as_count(block["count"], "trials.count")
    region = as_number(block["region"], "trials.region")
    clearance = as_number(block["clearance"], "trials.clearance")
    try:
        specs = random_interior_bumps(
            hs,
            count=count,
            seed=cfg["seed"],
            radius_range=tuple(float(r) for r in block["radius"]),
            region_halfwidth=region,
            clearance=clearance,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad trials block: {exc}") from exc
    return [make_bump(s) for s in specs]

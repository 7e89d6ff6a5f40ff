"""The reference integrator against the package's frozen oracle values."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference

ACCEPTANCE = Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py"


def _oracle_sharpness():
    """SHARPNESS_REFERENCE as frozen in the acceptance tests (printed by the oracle script)."""
    tree = ast.parse(ACCEPTANCE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SHARPNESS_REFERENCE":
            return ast.literal_eval(node.value)
    raise LookupError("SHARPNESS_REFERENCE not found")


def test_sharpness_reproduces_the_oracle():
    for eps, value in _oracle_sharpness().items():
        q, spread = reference.sharpness_reference(eps)
        assert abs(q - value) <= 5e-9, (eps, q, value)
        assert spread < 1e-8


# H1 bump of seed 42 on the t-axis half-space, to the digits they were frozen with
@pytest.mark.parametrize("p, value, digits", [(2.0, 9.6332844, 7), (3.0, 25.320478, 6)])
def test_h1_bump_reproduces_the_frozen_values(p, value, digits):
    center, radius = reference.PANEL[1]
    q, spread = reference.hardy_reference(1, [0.0, 0.0, 1.0], 0.0, center, radius, [p])[p]
    assert abs(q - value) <= 0.5 * 10.0**-digits, (q, value)
    assert spread < 1e-7


@pytest.mark.parametrize("dim", [2, 3, 5, 7])
def test_sphere_rule_integrates_low_moments_exactly(dim):
    directions, weights = reference.sphere_rule(dim, 4)
    area = 2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2)
    assert np.isclose(weights.sum(), area, rtol=1e-13)
    assert np.allclose(np.linalg.norm(directions, axis=1), 1.0)
    assert np.allclose(weights @ directions, 0.0, atol=1e-13)
    assert np.allclose(weights @ directions**2, area / dim, rtol=1e-12)


def test_bumps_outside_the_half_space_are_refused():
    with pytest.raises(ValueError):
        reference.hardy_reference(1, [0.0, 0.0, 1.0], 0.0, (0.0, 0.0, 0.1), 0.3, [2.0])


def test_stored_references_are_current():
    stored = json.loads(reference.STORE.read_text())
    fresh = json.loads(json.dumps(reference.regenerate()))
    for kind in ("hardy", "sharpness"):
        assert len(stored[kind]) == len(fresh[kind])
        for old, new in zip(stored[kind], fresh[kind]):
            assert old == {**new, "quotient": pytest.approx(new["quotient"], rel=1e-12),
                           "spread": pytest.approx(new["spread"], abs=1e-12)}

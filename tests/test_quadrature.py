import ast
import itertools
import math
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from strathardy import (
    BumpSpec,
    HalfSpace,
    IntegrationError,
    NodeBudgetError,
    QuadConfig,
    ScalarField,
    SharpnessSpec,
    boundary_bump_spec,
    halfspace_preset,
    heisenberg_group,
    integrate_many,
    make_bump,
    random_interior_bumps,
    sample_trial,
)
from strathardy.config import build_trials, load_config, resolve
from strathardy.experiments import HARDY, each_p, hardy_sobolev_ratio
from strathardy import quadrature
from strathardy.quadrature import (
    _ball_resolution,
    _ball_size,
    _build_boundary_graded,
    _build_nodes,
    _cached_unit_ball,
    _gauss_jacobi,
    _philox_uniform,
    _s_window,
    _sums,
    _sphere_rule,
    _symmetric_sphere_rule,
    _takes_ball,
    _unit_ball,
)

from chain_rule import power_weighted_field, viewed


UNIT_BOX = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])


def _parts(rule):
    """The rule's own nodes, then its companion's on a deterministic rule,
    each as a rule without a split that places its rows of the rule."""
    if rule.split is None:
        return [rule]
    cuts = ((0, rule.split), (rule.split, rule.count))
    return [
        rule._replace(place=lambda lo, hi, a=a, b=b: rule.place(a + lo, a + min(hi, b - a)), count=b - a, split=None)
        for a, b in cuts
    ]


def _arrays(rule):
    """The whole rule's points, dist, weights and line numbers, all placed."""
    return rule.points, rule.dist, rule.weights, rule.line


def far_halfspace(dim=3):
    # contains every box used here, so clipping never bites
    return HalfSpace(nu=np.r_[1.0, np.zeros(dim - 1)], d=-100.0)


class TestConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.points_per_axis == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"points_per_axis": 1},
            {"points_per_axis": 2},
            {"points_per_axis": 3},
            {"sample_count": 4},
            {"grading_exponent": 0.5},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            QuadConfig(**kwargs)

    def test_box_validation(self):
        cfg = QuadConfig()
        with pytest.raises(ValueError):
            integrate_many([lambda s: s.points[:, 0]], np.array([[0.0, 1.0, 2.0]]), far_halfspace(), cfg)
        with pytest.raises(ValueError):
            integrate_many([lambda s: s.points[:, 0]], np.array([[1.0, 0.0]]), far_halfspace(), cfg)


class TestBoundaryGraded:
    def test_polynomial_exactness_without_grading(self):
        # away from the boundary and with m = 1 the rule is tensor Gauss:
        # 12 nodes along the normal axis, 6 along each other axis
        cfg = QuadConfig(points_per_axis=6, grading_exponent=1.0)
        est = integrate_many(
            [lambda s: s.points[:, 0] ** 4 * s.points[:, 1] ** 2 + s.points[:, 2]],
            UNIT_BOX,
            far_halfspace(),
            cfg,
        )[0]
        assert est.value == pytest.approx(1.0 / 15.0 + 0.5, rel=1e-14)
        assert est.evaluations == 6**2 * 12

    def test_oblique_clipping_converges(self):
        # x + 0.9 y > 1.2 cuts a triangle of area 0.7 x (7/9) / 2 = 49/180
        # from the unit square; the lines along x leave the box for y < 2/9,
        # a kink that the transverse rule resolves only as it refines
        nu = np.array([1.0, 0.9, 0.0])
        hs = HalfSpace(nu=nu / np.linalg.norm(nu), d=1.2 / np.linalg.norm(nu))
        exact = 49.0 / 180.0
        ones = [lambda s: np.ones(len(s))]
        coarse = integrate_many(ones, UNIT_BOX, hs, QuadConfig(points_per_axis=8))[0]
        fine = integrate_many(ones, UNIT_BOX, hs, QuadConfig(points_per_axis=32))[0]
        assert abs(fine.value - exact) < abs(coarse.value - exact)
        assert abs(fine.value - exact) < min(fine.stderr, 5e-3)

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_axis_aligned_power(self, gamma):
        # dist = t over [0,1]^3 against the t-axis: integral is 1/(gamma+1)
        hs = halfspace_preset(3, "t-axis", 0.0)
        cfg = QuadConfig(points_per_axis=16)
        est = integrate_many([lambda s: s.dist ** gamma], UNIT_BOX, hs, cfg)[0]
        exact = 1.0 / (gamma + 1.0)
        assert abs(est.value - exact) < 1e-3 * abs(exact)

    @pytest.mark.parametrize("gamma", [-0.7, 0.5, 2.0])
    def test_oblique_power(self, gamma):
        # dist = a*x + b*y over the unit square (t trivial): closed form
        # ((a+b)^(g+2) - a^(g+2) - b^(g+2)) / (a b (g+1) (g+2))
        hs = HalfSpace(nu=np.array([0.6, 0.8, 0.0]), d=0.0)
        a, b = hs.nu[0], hs.nu[1]
        g = gamma
        exact = ((a + b) ** (g + 2) - a ** (g + 2) - b ** (g + 2)) / (
            a * b * (g + 1) * (g + 2)
        )
        cfg = QuadConfig(points_per_axis=24)
        est = integrate_many([lambda s: s.dist ** gamma], UNIT_BOX, hs, cfg)[0]
        assert abs(est.value - exact) < 2e-3 * abs(exact)

    def test_offset_boundary(self):
        hs = halfspace_preset(3, "t-axis", 0.25)
        cfg = QuadConfig(points_per_axis=16)
        est = integrate_many([lambda s: s.dist ** -0.5], UNIT_BOX, hs, cfg)[0]
        assert abs(est.value - 2.0 * np.sqrt(0.75)) < 2e-3

    def test_detached_box_needs_no_grading(self):
        # boundary far below the box: plain smooth integration must be sharp
        hs = halfspace_preset(3, "t-axis", -3.0)
        est = integrate_many(
            [lambda s: np.exp(s.points[:, 2])], UNIT_BOX, hs, QuadConfig(points_per_axis=12)
        )[0]
        assert est.value == pytest.approx(np.e - 1.0, rel=1e-9)

    def test_box_outside_halfspace_is_zero(self):
        hs = halfspace_preset(3, "t-axis", 5.0)
        est = integrate_many([lambda s: np.ones(len(s))], UNIT_BOX, hs, QuadConfig())[0]
        assert est.value == 0.0 and est.stderr == 0.0
        assert est.evaluations > 0

    def test_nodes_stay_strictly_inside(self):
        hs = HalfSpace(nu=np.array([0.3, -0.4, 0.866]), d=0.1)
        seen = []

        def spy(s):
            seen.append(s.dist)
            return np.ones(len(s))

        integrate_many([spy], np.array([[-1, 1], [-1, 1], [-1, 1]], float), hs, QuadConfig())
        dist = np.concatenate(seen)
        assert dist.size > 0
        assert np.min(dist) > 0.0

    def test_nodes_on_the_boundary_to_rounding_carry_no_weight(self):
        # an oblique normal with a vanishing offset: at small s most nodes'
        # <x, nu> cancels to 0, so a distance recomputed from the
        # coordinates would be |d|, not s**m, and dist**-2 there would
        # overflow; the rule's own dist is s**m
        nu = np.zeros(7)
        nu[[3, 6]] = np.sqrt(0.5)
        hs = HalfSpace(nu=nu, d=-1e-171)
        box = np.tile([-0.5, 0.5], (7, 1))
        cfg = QuadConfig(sample_count=64)
        rule = _build_nodes(box, hs, cfg, None)
        dist = rule.dist[rule.weights != 0.0]
        assert dist.size > 0 and np.min(dist) > 1e-100
        (est,) = integrate_many([lambda s: s.dist ** -2.0], box, hs, cfg)
        assert np.isfinite(est.value)

    def test_grading_exponent_one_still_works(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        cfg = QuadConfig(grading_exponent=1.0)
        est = integrate_many([lambda s: s.dist], UNIT_BOX, hs, cfg)[0]
        assert est.value == pytest.approx(0.5, rel=1e-6)

    def test_high_dimension_uses_monte_carlo_transverse(self):
        # 7 coordinates: transverse plane has 6 axes, beyond the tensor cap
        hs = halfspace_preset(7, "t-axis", 0.0)
        box = np.tile([0.0, 1.0], (7, 1))
        cfg = QuadConfig(points_per_axis=8, sample_count=20_000)
        est = integrate_many([lambda s: s.dist ** -0.5 * s.points[:, 0]], box, hs, cfg)[0]
        assert est.stderr > 0.0
        assert abs(est.value - 1.0) < max(4.0 * est.stderr, 2e-2)


# 7 coordinates against the x1-axis at offset 0.5: the graded rule's
# transverse plane has 6 axes, beyond the tensor cap, and takes Monte Carlo
_MC_BOX = np.tile([0.0, 1.0], (7, 1))
_MC_HS = halfspace_preset(7, "x1-axis", 0.5)


class TestMonteCarlo:
    def test_value_within_error_bars(self):
        cfg = QuadConfig(sample_count=200_000, seed=3)
        est = integrate_many([lambda s: s.points[:, 0] * s.points[:, 1]], _MC_BOX, _MC_HS, cfg)[0]
        # (the integral of x over [0.5, 1]) x (the integral of y over [0, 1])
        exact = 0.375 * 0.5
        assert 0.0 < abs(est.value - exact) < 4.0 * est.stderr

    def test_stderr_scales_with_samples(self):
        errs = {}
        for count in (20_000, 80_000):
            vals = []
            for seed in range(8):
                cfg = QuadConfig(sample_count=count, seed=seed)
                f = lambda s: np.sin(s.points).sum(axis=1)
                vals.append(integrate_many([f], _MC_BOX, _MC_HS, cfg)[0].stderr)
            errs[count] = np.mean(vals)
        ratio = errs[80_000] / errs[20_000]
        assert 0.35 < ratio < 0.65

    def test_deterministic(self):
        cfg = QuadConfig(sample_count=30_000, seed=11)
        f = lambda s: np.cos(s.points[:, 1] * s.points[:, 2])
        a = integrate_many([f], _MC_BOX, _MC_HS, cfg)[0]
        _philox_uniform.cache_clear()
        b = integrate_many([f], _MC_BOX, _MC_HS, cfg)[0]
        assert a == b

    def test_seed_changes_value(self):
        ests = [
            integrate_many(
                [lambda s: np.cos(s.points[:, 1])], _MC_BOX, _MC_HS, QuadConfig(sample_count=5_000, seed=s)
            )[0].value
            for s in (1, 2)
        ]
        assert ests[0] != ests[1]


class TestSharedNodes:
    def test_pair_reuses_nodes(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        f = lambda s: s.dist ** -0.3
        a, b = integrate_many([f, f], UNIT_BOX, hs, QuadConfig())
        assert a.value == b.value and a.stderr == b.stderr

    def test_linearity_on_shared_nodes(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        f = lambda s: s.dist ** -0.4
        g = lambda s: np.exp(s.points[:, 0]) * s.dist ** 0.5
        fg = lambda s: f(s) + g(s)
        ef, eg, efg = integrate_many([f, g, fg], UNIT_BOX, hs, QuadConfig())
        assert abs(efg.value - (ef.value + eg.value)) < 1e-12 * (
            abs(ef.value) + abs(eg.value)
        )

    def test_doubling_is_exact(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        f = lambda s: s.dist ** -0.4
        e1, e2 = integrate_many([f, lambda s: 2.0 * f(s)], UNIT_BOX, hs, QuadConfig())
        assert e2.value == 2.0 * e1.value

    def test_deterministic_across_runs(self):
        hs = HalfSpace(nu=np.array([0.5, 0.5, np.sqrt(0.5)]), d=0.05)
        cfg = QuadConfig(points_per_axis=12)
        f = lambda s: s.dist ** -0.5
        assert integrate_many([f], UNIT_BOX, hs, cfg) == integrate_many([f], UNIT_BOX, hs, cfg)


class TestFailureModes:
    def test_nonfinite_names_the_point(self):
        hs = halfspace_preset(3, "t-axis", 0.0)

        def bad(s):
            out = np.ones(len(s))
            out[s.points[:, 0] > 0.7] = np.inf
            return out

        with pytest.raises(IntegrationError) as err:
            integrate_many([bad], UNIT_BOX, hs, QuadConfig(points_per_axis=8))
        assert err.value.point is not None
        assert err.value.point.shape == (3,)
        assert "non-finite" in str(err.value)

    def test_wrong_output_shape_rejected(self):
        hs = far_halfspace()
        with pytest.raises((ValueError, IntegrationError)):
            integrate_many([lambda s: np.ones((len(s), 2))], UNIT_BOX, hs, QuadConfig())


class TestFiniteSums:
    """``_sums`` scans an integrand's values only when their weighted sum
    is not finite; the error is the one a scan of every value would raise."""

    _HS = halfspace_preset(3, "t-axis", 0.0)
    _BOX = np.array([[-2.0, 2.0], [-2.0, 2.0], [-1.0, 3.0]])
    # the box rule over the box, the ball rule over a unit ball inside it,
    # and the box rule's Monte Carlo branch in 7 dimensions, with the
    # volume each covers (about 48, 4 pi / 3, and 1/2)
    _RULES = {
        "box": (_BOX, _HS, QuadConfig(points_per_axis=6), None, (40.0, 50.0)),
        "ball": (_BOX, _HS, QuadConfig(points_per_axis=6), make_bump(BumpSpec((0.0, 0.0, 2.0), 1.0)).support, (4.1, 4.3)),
        "monte-carlo": (_MC_BOX, _MC_HS, QuadConfig(sample_count=2000), None, (0.45, 0.55)),
    }

    def _rules(self, name):
        box, hs, cfg, support, _ = self._RULES[name]
        assert _takes_ball(box, hs, support, cfg) == (name == "ball")
        rule = _build_nodes(box, hs, cfg, support)
        assert (rule.line is not None) == (rule.split is None) == (name == "monte-carlo")
        return rule

    def _sums(self, f, rule, name):
        hs = self._RULES[name][1]
        return _sums([lambda s: np.ones(len(s)), f], rule, partial(sample_trial, None, hs, None))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(_RULES))
    def test_a_non_finite_value_names_its_node(self, bad, name):
        rule = self._rules(name)
        # a node of the rule's own, and one of its companion's
        for part in _parts(rule):
            target = part.points[len(part.points) // 3]

            def f(s):
                out = np.ones(len(s))
                out[np.all(s.points == target, axis=1)] = bad
                return out

            with pytest.raises(IntegrationError, match="non-finite") as err:
                self._sums(f, rule, name)
            # and its integrand, the second of the call
            assert np.array_equal(err.value.point, target) and err.value.index == 1

    # a deterministic rule sums each integrand's weighted values at once
    @pytest.mark.parametrize("name", ["ball", "box"])
    def test_finite_values_whose_sum_overflows_do_not_raise(self, name):
        # 1e308 at each node sums to inf over more than 1.8 units of volume
        low, high = self._RULES[name][-1]
        # the rule's sums, then its companion's
        sums = self._sums(lambda s: np.full(len(s), 1e308), self._rules(name), name)
        assert sums.shape == (2, 2)
        for part in sums:
            assert low < part[0] < high and part[1] == np.inf

    def test_a_monte_carlo_rule_checks_each_value(self, monkeypatch):
        rule = _build_nodes(_MC_BOX, _MC_HS, QuadConfig(sample_count=2000), None)
        assert rule.split is None and rule.line is not None
        checked = []
        check = quadrature._check_finite
        monkeypatch.setattr(quadrature, "_check_finite", lambda v, *args: checked.append(v.size) or check(v, *args))
        ones = lambda s: np.ones(len(s))
        _sums([ones, ones], rule, partial(sample_trial, None, _MC_HS, None))
        assert checked == [len(rule.points)] * 2


class TestNodeBudget:
    # each request is rejected from its node count, before any allocation
    @pytest.mark.parametrize(
        "dim, cfg",
        [
            # 64^4 transverse nodes x 128 s-nodes, about 2.1e9
            (5, QuadConfig(points_per_axis=64)),
            # the Monte Carlo transverse branch: 30e6 // 32 lines of 32 nodes
            (7, QuadConfig(sample_count=30_000_000)),
        ],
    )
    def test_over_budget_rejected(self, dim, cfg):
        hs = HalfSpace(nu=np.r_[np.zeros(dim - 1), 1.0], d=-1.0)
        box = np.tile([0.0, 1.0], (dim, 1))
        with pytest.raises(NodeBudgetError, match="budget"):
            integrate_many([lambda s: np.ones(len(s))], box, hs, cfg)

    # the ball rule checks its own count: 1.5 ppa radii x 2 (ppa / 2)^2
    # directions in 3 dimensions, 1.5 ppa x (2n + 2^n) in 6
    @pytest.mark.parametrize(
        "dim, cfg",
        [(3, QuadConfig(points_per_axis=400)), (6, QuadConfig(points_per_axis=200_000, sample_count=10**8))],
    )
    def test_ball_rule_over_budget_rejected(self, dim, cfg):
        hs = halfspace_preset(dim, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0,) * (dim - 1) + (1.0,), radius=0.5))
        assert _takes_ball(u.support_box, hs, u.support, cfg)
        with pytest.raises(NodeBudgetError, match="the ball rule .* budget"):
            _build_nodes(u.support_box, hs, cfg, u.support)

    def test_h2_default_is_far_under_budget(self):
        # the largest default rule: 16^4 x 32 nodes, plus the coarse companion
        hs = halfspace_preset(5, "t-axis", -1.0)
        box = np.tile([0.0, 1.0], (5, 1))
        est = integrate_many([lambda s: np.ones(len(s))], box, hs, QuadConfig())[0]
        assert est.evaluations == 16**4 * 32


def _bits(est):
    return (est.value.hex(), est.stderr.hex(), est.evaluations)


def _assert_close(ests, others, rtol=1e-14):
    # the same sums in another order: value and stderr agree within rtol of
    # the value, the node count exactly
    for a, b in zip(ests, others, strict=True):
        assert a.evaluations == b.evaluations
        assert abs(a.value - b.value) <= rtol * abs(a.value)
        assert abs(a.stderr - b.stderr) <= rtol * abs(a.value)


def _matching_rows(points, full):
    """The row of ``full`` equal to each row of ``points``."""
    rows = {row.tobytes(): i for i, row in enumerate(full)}
    return np.array([rows[row.tobytes()] for row in points], dtype=int)


def _without_support(u):
    return ScalarField(u.dim, fn=u.values, grad_fn=u.gradients, support_box=u.support_box)


class _Forwarded:
    """A bump's support behind a type that is not a ``BumpSupport``: it
    forwards ``chord`` and ``shape``, and ``_takes_ball`` refuses it."""

    def __init__(self, support):
        self.chord, self.shape = support.chord, support.shape


def _on_box_rule(u):
    """The bump u on the box rule: a ball inside the half-space would take
    the ball rule, which has no unmasked twin."""
    return ScalarField(
        u.dim, fn_and_grad=u.values_and_gradients, support_box=u.support_box,
        label=u.label, support=_Forwarded(u.support),
    )


def _in_support(support, points):
    """The (M,) bool mask of the (M, n) points inside ``support``, S < 1."""
    return support.shape(points)[0] < 1.0


_H1 = heisenberg_group(1)
_T_AXIS = halfspace_preset(3, "t-axis", 0.0)
# a ball inside the half-space, put on the box rule by _on_box_rule
_INTERIOR = BumpSpec(center=(0.1, -0.2, 0.8), radius=0.5)
_ON_BOUNDARY = boundary_bump_spec(_T_AXIS, 0.6)
# the power of dist of a sharpness trial at p = 2, eps = 0.2
_SHARPNESS_A = SharpnessSpec(p=2.0, eps=0.2, cutoff=_ON_BOUNDARY).exponent
# (the trial, and a for integrands that read the view of its sample as
# that of dist^a times it, or None)
_TRIALS = {
    "bump": (make_bump, None),
    # the ground-state substitution dist^(-2/3) u of the remainder at p = 3
    "ground": (make_bump, -2.0 / 3.0),
    "sharpness": (make_bump, _SHARPNESS_A),
    "scaled": (lambda spec: make_bump(spec).scaled(7.0), None),
}
# the support's chord window in s = dist**(1/m) moves with the points per
# axis (panels, and the coarse companion at half of them) and with m
_RULES = {
    "ppa10": QuadConfig(points_per_axis=10),
    "ppa7": QuadConfig(points_per_axis=7),
    "m2": QuadConfig(points_per_axis=10, grading_exponent=2.0),
}


# each has a factor of u or grad_H u, so it is exactly 0.0 outside u.support
_INTEGRANDS = [
    lambda s: np.sum(s.hgrad**2, axis=1),
    lambda s: (np.abs(s.u) / s.dist) ** 2,
    lambda s: np.exp(s.points[:, 0]) * s.u,
]


class TestSupportMask:
    @pytest.mark.parametrize("box_kind", ["interior", "boundary"])
    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize("trial", sorted(_TRIALS))
    def test_masked_equals_unmasked(self, trial, rule, box_kind):
        build, a = _TRIALS[trial]
        u = _on_box_rule(build(_INTERIOR)) if box_kind == "interior" else build(_ON_BOUNDARY)
        assert u.support is not None
        cfg = _RULES[rule]
        fs = _INTEGRANDS if a is None else viewed(_INTEGRANDS, a)
        masked = integrate_many(fs, u.support_box, _T_AXIS, cfg, trial=(_H1, u))
        # unmasked, a view's trial is the field dist^a u by the chain rule
        field = u if a is None else power_weighted_field(u, _T_AXIS, a)
        plain = integrate_many(
            _INTEGRANDS, u.support_box, _T_AXIS, cfg, trial=(_H1, _without_support(field))
        )
        _assert_close(masked, plain)
        assert masked[0].value > 0.0

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_integrand_never_sees_points_outside_support(self, rule):
        u = make_bump(_ON_BOUNDARY)
        seen = []

        def spy(s):
            seen.append(s.points.copy())
            return s.u

        integrate_many([spy], u.support_box, _T_AXIS, _RULES[rule], trial=(_H1, u))
        pts = np.concatenate(seen)
        assert pts.shape[0] > 0
        assert np.all(_in_support(u.support, pts))
        assert np.min(_T_AXIS.distance(pts)) > 0.0

    def test_field_without_predicate_sees_every_weighted_node(self):
        f = ScalarField(3, fn=lambda p: np.ones(len(p)), support_box=UNIT_BOX)
        assert f.support is None
        seen = []

        def spy(s):
            seen.append(len(s))
            return s.u

        cfg = QuadConfig(points_per_axis=8)
        (est,) = integrate_many([spy], UNIT_BOX, far_halfspace(), cfg, trial=(_H1, f))
        # every node carries weight: 8^2 lines of 16 s-nodes fine, 4^2 of 8
        # on the companion, in one sample
        assert seen == [8**2 * 16 + 4**2 * 8]
        assert est.evaluations == 8**2 * 16

    def test_infinite_p_fails_at_the_same_point(self):
        # |grad_H u|^inf overflows inside the support; the first such node is
        # the same whether or not the nodes outside it are skipped
        h1 = heisenberg_group(1)
        u = _on_box_rule(make_bump(_INTERIOR))
        cfg = QuadConfig(points_per_axis=8)
        with pytest.raises(IntegrationError) as masked:
            each_p(HARDY, h1, _T_AXIS, u, [np.inf], cfg)
        with pytest.raises(IntegrationError) as plain:
            each_p(HARDY, h1, _T_AXIS, _without_support(u), [np.inf], cfg)
        assert masked.value.point is not None
        assert np.array_equal(masked.value.point, plain.value.point)


# heisenberg:1 and :2 take the deterministic transverse branch, :3 the
# Monte Carlo one
_GROUPS = {k: heisenberg_group(k) for k in (1, 2, 3, 4)}
_CLIP_INTEGRANDS = [
    lambda s: np.sum(s.grad**2, axis=1),
    # singular at the boundary where a half-space crosses the bump, but
    # integrable there; (|u| / dist)**2 is not (see _CROSSING_CASE)
    lambda s: np.abs(s.u) / np.sqrt(s.dist),
    lambda s: s.w * np.sum(s.hgrad**2, axis=1),
    lambda s: np.exp(s.points[:, 0]) * s.u,
]
_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _clip_cases(draw):
    k = draw(st.sampled_from(sorted(_GROUPS)))
    n = 2 * k + 1
    center = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    radius = draw(st.floats(0.1, 0.8))
    nu = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    if np.linalg.norm(nu) < 0.1:
        nu[draw(st.integers(0, n - 1))] = 1.0
    nu = nu / np.linalg.norm(nu)
    # shift < -sqrt(n) puts the whole support box inside the half-space;
    # near 0 the boundary crosses the bump
    shift = draw(st.floats(-3.0, 0.9))
    hs = HalfSpace(nu=nu, d=float(nu @ center) + shift * radius)
    u = _on_box_rule(make_bump(BumpSpec(center=tuple(center), radius=radius)))
    if k == 3:
        cfg = QuadConfig(sample_count=draw(st.integers(64, 3000)), seed=draw(st.integers(0, 99)))
    else:
        cfg = QuadConfig(points_per_axis=draw(st.integers(4, 7 if k == 1 else 5)))
    return _GROUPS[k], hs, u, cfg


# on heisenberg:4 (9 coordinates) a distance recomputed from the nodes by a
# BLAS matrix-vector product could differ in its last bits with the batch it
# was computed in, and so between clipped and unclipped integration
_H4_CASE = (
    heisenberg_group(4),
    HalfSpace(nu=[-0.83, -0.97, 0.31, -0.74, 0.13, -0.51, 0.88, -0.57, 0.04], d=0.869),
    make_bump(BumpSpec(center=(0.15, -1.0, 0.02, -0.95, -0.78, 0.69, 0.32, -0.64, 0.49), radius=0.43)),
    QuadConfig(sample_count=817, seed=31),
)
# a draw whose half-space crosses the bump: its support reaches 0.59 along
# the normal, past the centre's distance 0.5625
_CROSSING_CASE = (
    heisenberg_group(1),
    HalfSpace(nu=[0.0, 1.0, 1.0], d=-0.5625),
    make_bump(BumpSpec(center=(0.0, 0.0, 0.0), radius=0.59)),
    QuadConfig(points_per_axis=6),
)


class TestClipToSupport:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_clip_cases())
    @example(_H4_CASE)
    @example(_CROSSING_CASE)
    def test_clipped_equals_unclipped(self, case):
        spec, hs, u, cfg = case
        clipped = integrate_many(_CLIP_INTEGRANDS, u.support_box, hs, cfg, trial=(spec, u))
        plain = integrate_many(
            _CLIP_INTEGRANDS, u.support_box, hs, cfg, trial=(spec, _without_support(u))
        )
        _assert_close(clipped, plain)

    def test_a_crossing_bump_has_no_finite_hardy_weight(self):
        # (|u| / dist)**2 diverges where u is not 0 on the boundary: the
        # rule and its companion disagree by 870 times the value, so an
        # ulp of the stderr, all that two orders of the same sums may
        # differ by, is 1e-13 of the value, past _assert_close's 1e-14;
        # |u| / sqrt(dist) is integrable there
        spec, hs, u, cfg = _CROSSING_CASE
        hardy = lambda s: (np.abs(s.u) / s.dist) ** 2
        (est,) = integrate_many([hardy], u.support_box, hs, cfg, trial=(spec, u))
        assert 0.0 < est.value and est.stderr > 100.0 * est.value
        (est,) = integrate_many([_CLIP_INTEGRANDS[1]], u.support_box, hs, cfg, trial=(spec, u))
        assert 0.0 < est.stderr < est.value

    # heisenberg:1 at the default rule, heisenberg:2 at 8 points per axis
    @pytest.mark.parametrize("k, ppa", [(1, 16), (2, 8)])
    def test_interior_bump_builds_only_nodes_inside_the_support(self, k, ppa):
        n = 2 * k + 1
        u = _on_box_rule(make_bump(BumpSpec(center=(0.1,) * (n - 1) + (0.8,), radius=0.5)))
        hs = halfspace_preset(n, "t-axis", 0.0)
        cfg = QuadConfig(points_per_axis=ppa)
        full = _build_nodes(u.support_box, hs, cfg, None)
        clipped = _build_nodes(u.support_box, hs, cfg, u.support)
        # every node of the full rule and of its companion, (ppa / 2)^(n-1)
        # lines of ppa s-nodes, lies inside the half-space
        assert full.size == clipped.size == full.split
        assert len(full.points) - full.split == (ppa // 2) ** (n - 1) * ppa
        for rule, frule in zip(_parts(clipped), _parts(full), strict=True):
            pts, w = rule.points, rule.weights
            fpts, fw = frule.points, frule.weights
            # every node of the full rule lies inside the half-space
            assert len(pts) < len(fpts)
            # the nodes built are those of the full rule, bit for bit, and
            # the ones left out all lie outside the support
            at = _matching_rows(pts, fpts)
            assert np.array_equal(fw[at], w) and np.array_equal(frule.dist[at], rule.dist)
            dropped = np.setdiff1d(np.arange(len(fpts)), at)
            assert dropped.size > 0 and not np.any(_in_support(u.support, fpts[dropped]))
            # the lines are clipped to their chords: no node outside the bump
            assert np.all(_in_support(u.support, pts))
        (est,) = integrate_many([lambda s: s.u], u.support_box, hs, cfg, trial=(_GROUPS[k], u))
        assert est.evaluations == full.size

    def test_no_line_meets_the_support(self):
        # a support box 3 times the ball, 4 points per axis on four
        # transverse axes: every Gauss line passes at 0.34 or 0.86 times the
        # box's half-width, 1.5, from the center on each axis (0.58 times it
        # on the coarse companion), outside the ball of radius 0.5, and the
        # box touches the boundary, so the graded panels get zero rows
        h2 = _GROUPS[2]
        hs = halfspace_preset(h2, "t-axis", 0.0)
        ball = make_bump(BumpSpec(center=(0.0,) * 5, radius=0.5))
        u = ScalarField(
            5, fn_and_grad=ball.values_and_gradients, support_box=3.0 * ball.support_box,
            label=ball.label, support=ball.support,
        )
        cfg = QuadConfig(points_per_axis=4)
        ns = _build_nodes(u.support_box, hs, cfg, u.support)
        assert len(ns.points) == 0 and ns.split == 0 and ns.size > 0
        with pytest.raises(ValueError, match="trivial"):
            each_p(HARDY, h2, hs, u, [2.0], cfg)

    # a small radius far from the origin leaves the half-width few ulps of |c|
    @pytest.mark.parametrize("radius", [0.4, 1e-3, 50.0])
    @pytest.mark.parametrize("far", [0.0, 1e3, 1e5])
    def test_chord_holds_every_live_point_of_its_line(self, rng, far, radius):
        # far from the origin, x - c and c +- the half-width round to ulps
        # of |c|, far coarser than the half-width's own rounding
        center = np.array([0.2, -0.1, 0.5]) + far * np.array([1.0, -0.7, 0.4])
        support = make_bump(BumpSpec(center=tuple(center), radius=radius)).support
        pts = center + rng.uniform(-1.2, 1.2, size=(4000, 3)) * radius
        for axis in range(3):
            lo, hi = support.chord(pts, axis)
            on_line = lambda x: np.where(np.arange(3) == axis, x[:, None], pts)
            meets = lo <= hi
            assert 0 < np.count_nonzero(meets) < len(pts)
            # points along each line, and the outermost float with S < 1 on
            # each side of the centre: bisect between the centre (inside
            # wherever the line meets the support) and c +- 2r (outside)
            along = center[axis] + np.linspace(-1.1, 1.1, 45) * radius
            ends = []
            for side in (-1.0, 1.0):
                a = np.full(len(pts), center[axis])
                b = a + side * 2.0 * radius
                for _ in range(200):
                    mid = a + 0.5 * (b - a)
                    if np.all((mid == a) | (mid == b)):
                        break
                    live = _in_support(support, on_line(mid))
                    a, b = np.where(live, mid, a), np.where(live, b, mid)
                ends.append(a)
            for x in [*np.repeat(along[:, None], len(pts), axis=1), *ends]:
                live = _in_support(support, on_line(x))
                assert np.all(meets[live])
                assert np.all((lo[live] <= x[live]) & (x[live] <= hi[live]))
            # each end is the outermost live float where the centre is live
            centre_live = _in_support(support, on_line(np.full(len(pts), center[axis])))
            for end, side in zip(ends, (-np.inf, np.inf)):
                assert np.array_equal(_in_support(support, on_line(end)), centre_live)
                assert not np.any(_in_support(support, on_line(np.nextafter(end, side))))
            # a line that misses the support has lo > hi and no live point
            miss = np.sum(np.abs(np.delete(pts - center, axis, axis=1) / radius) ** 2, axis=1) > 1.001
            assert np.any(miss) and np.all(lo[miss] > hi[miss])
            assert not np.any(centre_live[miss])

    @pytest.mark.parametrize("m", [1.0, 2.0, 4.0, 7.5])
    def test_s_window_holds_every_node_of_the_chord(self, rng, m):
        # lines whose chord lies inside the half-space, offsets c up to 1e3
        count = 4000
        nuj = rng.choice([-1.0, 1.0], count) * rng.uniform(0.2, 1.0, count)
        c = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.integers(0, 4, count)
        d1, d2 = np.sort(rng.uniform(0.0, 2.0, (2, count)) ** 4, axis=0)
        chord_lo, chord_hi = np.sort([(d1 - c) / nuj, (d2 - c) / nuj], axis=0)
        s_lo, s_hi = _s_window(chord_lo, chord_hi, nuj, c, m)

        def in_chord(s):
            x = (s**m - c) / nuj  # as the builder computes a node's coordinate
            return (chord_lo <= x) & (x <= chord_hi)

        # the least and the greatest float s in the chord, by bisection
        # from a point inside it towards 0 (itself in the chord where d1
        # rounds away next to c) and towards 2 s_hi + 1
        inside = (0.5 * (d1 + d2)) ** (1.0 / m)
        assert np.all(in_chord(inside))
        for outer in (np.zeros(count), 2.0 * s_hi + 1.0):
            a, b = inside, outer
            for _ in range(2000):
                mid = a + 0.5 * (b - a)
                if np.all((mid == a) | (mid == b)):
                    break
                ok = in_chord(mid)
                a, b = np.where(ok, mid, a), np.where(ok, b, mid)
            end = np.where(in_chord(b), b, a)
            assert np.all(in_chord(end))
            assert np.all((s_lo <= end) & (end <= s_hi))


# heisenberg:2 takes the deterministic transverse branch, heisenberg:3 the
# Monte Carlo one
_MANY = [
    lambda s, k=k: s.u * s.dist ** (0.25 * k) + (k % 3) * np.sum(s.grad**2, axis=1)
    for k in range(16)
]


def _boundary_trial(k):
    n = 2 * k + 1
    hs = halfspace_preset(n, "t-axis", 0.0)
    u = make_bump(boundary_bump_spec(hs, 0.7))
    return hs, u, (_GROUPS[k], u)


class TestManyIntegrands:
    @pytest.mark.parametrize(
        "k, cfg", [(2, QuadConfig(points_per_axis=4)), (3, QuadConfig(sample_count=3000))]
    )
    def test_sixteen_integrands_in_one_call_are_each_alone(self, k, cfg):
        hs, u, trial = _boundary_trial(k)
        together = integrate_many(_MANY, u.support_box, hs, cfg, trial=trial)
        alone = [integrate_many([f], u.support_box, hs, cfg, trial=trial)[0] for f in _MANY]
        assert [_bits(e) for e in together] == [_bits(e) for e in alone]
        assert len({_bits(e) for e in together}) == len(_MANY)

    # each integrand is summed before the next is evaluated, so 16 cost
    # what 2 do: an interior bump on heisenberg:2 (the ball rule), boundary
    # ones on heisenberg:1 (the graded rule with its coarse companion) and on
    # heisenberg:3 (the graded rule's Monte Carlo branch)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_peak_memory_does_not_grow_with_the_integrand_count(self, k):
        cfg = QuadConfig()
        hs = halfspace_preset(2 * k + 1, "t-axis", 0.0)
        spec = BumpSpec(center=(0.1,) * 2 * k + (0.8,), radius=0.5) if k == 2 else boundary_bump_spec(hs, 0.7)
        u = make_bump(spec)
        trial = (_GROUPS[k], u)
        # the first call fills the caches of Gauss rules and Philox draws
        integrate_many(_MANY[:2], u.support_box, hs, cfg, trial=trial)
        peaks = {}
        for count in (2, 16):
            tracemalloc.start()
            try:
                integrate_many(_MANY[:count], u.support_box, hs, cfg, trial=trial)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] <= 1.25 * peaks[2]


class TestMonteCarloLines:
    # heisenberg:3 and :4 take the graded rule's Monte Carlo transverse
    # branch, whose lines are the transverse draws; the bump fills about 1.6 %
    # of its box's 8 transverse axes on heisenberg:4, so that takes more lines
    @pytest.mark.parametrize("k, samples", [(3, 20_000), (4, 200_000)])
    def test_lines_without_a_built_node_count_in_the_stderr(self, k, samples):
        cfg = QuadConfig(sample_count=samples, seed=5)
        hs, u, trial = _boundary_trial(k)
        f = _MANY[1]
        (est,) = integrate_many([f], u.support_box, hs, cfg, trial=trial)
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        assert rule.split is None and 0 < np.unique(rule.line).size < rule.lines
        contrib = rule.weights * f(sample_trial(_GROUPS[k], hs, u, rule.points, rule.dist))
        # every line of the full rule, 0.0 where the rule built no node
        full = np.zeros(rule.lines)
        np.add.at(full, rule.line, contrib)
        stderr = np.sqrt(rule.lines) * np.std(full, ddof=1)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        assert est.value == pytest.approx(np.sum(full), rel=1e-12, abs=0.0)
        # one replicate per line, each line's deviation from the mean, and stderr their norm
        assert len(est.replicates) == rule.lines
        deviations = (full - np.mean(full)) * np.sqrt(rule.lines / (rule.lines - 1))
        np.testing.assert_allclose(est.replicates, deviations, rtol=1e-12, atol=1e-12 * np.max(np.abs(deviations)))
        assert math.hypot(*est.replicates) == pytest.approx(est.stderr, rel=1e-12, abs=0.0)


class TestCachedDraw:
    def test_draw_is_read_only_and_equals_a_fresh_one(self):
        hs = halfspace_preset(7, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.1,) * 6 + (0.3,), radius=0.5))
        cfg = QuadConfig(sample_count=5000, seed=3)
        cached = _build_nodes(u.support_box, hs, cfg, u.support)
        draw = _philox_uniform(cfg.seed, 16, 6)
        with pytest.raises(ValueError):
            draw[0, 0] = 0.5
        _philox_uniform.cache_clear()
        fresh = _build_nodes(u.support_box, hs, cfg, u.support)
        assert cached.split is None and fresh.lines == cached.lines
        for a, b in zip(_arrays(fresh), _arrays(cached), strict=True):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        hits = _philox_uniform.cache_info().hits
        _build_nodes(u.support_box, hs, cfg, u.support)
        assert _philox_uniform.cache_info().hits == hits + 1


def _sphere_moment(alpha) -> float:
    """The integral of prod x_i^alpha_i over the unit sphere in len(alpha) dimensions."""
    if any(a % 2 for a in alpha):
        return 0.0
    b = [0.5 * (a + 1) for a in alpha]
    return 2.0 * math.prod(math.gamma(x) for x in b) / math.gamma(sum(b))


def _interior_ball(k, clearance=0.3, radius=0.45):
    """heisenberg:k, its t-axis half-space and a bump whose support ball
    clears the boundary by ``clearance``."""
    n = 2 * k + 1
    hs = halfspace_preset(n, "t-axis", 0.0)
    spec = BumpSpec(center=(0.1, -0.2) * k + (radius + clearance,), radius=radius)
    return heisenberg_group(k), hs, make_bump(spec)


class TestSphereRule:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("order", [1, 2, 5, 8])
    def test_weights_sum_to_the_sphere_area(self, dim, order):
        dirs, w = _sphere_rule(dim, order)
        assert dirs.shape == (w.size, dim) and np.all(w > 0.0)
        assert np.sum(w) == pytest.approx(2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2), rel=1e-14)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_exact_on_monomials_below_degree_two_order(self, dim, order):
        dirs, w = _sphere_rule(dim, order)
        misses = 0
        for alpha in itertools.product(range(2 * order + 1), repeat=dim):
            degree = sum(alpha)
            if degree > 2 * order:
                continue
            value = np.sum(w * np.prod(dirs**np.array(alpha), axis=1))
            exact = _sphere_moment(alpha)
            if degree < 2 * order:
                assert value == pytest.approx(exact, rel=1e-13, abs=1e-14), alpha
            else:
                misses += abs(value - exact) > 1e-6
        # and not beyond
        assert misses > 0

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("order", [1, 2, 3, 6, 8, 12, 24])
    def test_gauss_jacobi_matches_scipy(self, a, order):
        special = pytest.importorskip("scipy.special")
        x, w = _gauss_jacobi(order, a)
        x_ref, w_ref = special.roots_jacobi(order, a, a)
        assert np.allclose(x, x_ref, rtol=0.0, atol=1e-14)
        # to 1e-14 of the weight's mass (the smallest weights lose digits
        # relative to themselves)
        assert np.allclose(w, w_ref, rtol=0.0, atol=1e-14 * np.sum(w_ref))

    def test_library_shares_no_code_with_the_benchmark_reference(self):
        # the benchmark checks the ball rule against bench/reference.py, so
        # the library must reach its figures apart from it
        for path in (Path(__file__).parent.parent / "src" / "strathardy").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in ("scipy", "bench", "reference"), (path.name, name)


def _partitions(total, most):
    """The partitions of ``total`` into at most ``most`` positive parts."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, most), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _rows(w, dirs):
    """The weighted directions as one array, its rows in a canonical order."""
    table = np.column_stack([w, dirs])
    return table[np.lexsort(table.T[::-1])]


class TestSymmetricSphereRule:
    @pytest.mark.parametrize("dim", range(6, 18))
    @pytest.mark.parametrize("degree", [3, 5])
    def test_exact_on_every_monomial_up_to_its_degree(self, dim, degree):
        dirs, w = _symmetric_sphere_rule(dim, degree)
        assert dirs.shape == (w.size, dim) and w.size == 2 * dim + (2**dim if degree == 5 else 0)
        assert np.all(w > 0.0)
        assert np.sum(w) == pytest.approx(2.0 * math.pi ** (dim / 2) / math.gamma(dim / 2), rel=1e-14)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)
        # the weighted directions are mapped onto themselves by a sign flip
        # of the first axis, a swap of the first two and a cyclic shift,
        # which generate every permutation and sign change of the axes; so
        # a monomial integrates as the one of its sorted exponents on the
        # first axes does, and those are all checked
        table = _rows(w, dirs)
        flip = dirs * np.r_[-1.0, np.ones(dim - 1)]
        for moved in (flip, dirs[:, [1, 0, *range(2, dim)]], np.roll(dirs, 1, axis=1)):
            assert np.array_equal(_rows(w, moved), table)
        for total in range(degree + 2):
            misses = 0
            for parts in _partitions(total, dim):
                alpha = parts + (0,) * (dim - len(parts))
                value = np.sum(w * np.prod(dirs[:, : len(parts)] ** np.array(parts), axis=1))
                exact = _sphere_moment(alpha)
                if total <= degree:
                    assert value == pytest.approx(exact, rel=1e-13, abs=1e-14), alpha
                else:
                    misses += abs(value - exact) > 1e-6
            # and not beyond
            assert total <= degree or misses > 0


_H1_NORMALS = {
    "t-axis": halfspace_preset(3, "t-axis", 0.0),
    "oblique": HalfSpace(nu=[0.36, -0.48, 0.8], d=0.0),
}


def _inside(dim, d=0.0):
    """The half-space t > d of ``dim`` dimensions and a bump of radius 0.4
    whose centre lies at distance 0.5."""
    hs = HalfSpace(nu=np.eye(dim)[-1], d=d)
    center = np.full(dim, 0.1)
    center += (0.5 - float(hs.distance(center))) * hs.nu
    return hs, make_bump(BumpSpec(center=tuple(center), radius=0.4))


class TestBallRule:
    @pytest.mark.parametrize("normal", sorted(_H1_NORMALS))
    def test_agrees_with_the_unmasked_graded_rule(self, normal):
        # the ball rule at the default resolution against the box rule at
        # 32 points per axis: within 2e-3 relative (measured 2.1e-4 on the
        # t-axis and 1.25e-3 on the oblique normal, where the box rule is
        # the coarser of the two), and within the sum of their stderrs
        hs = _H1_NORMALS[normal]
        center = np.array([0.1, -0.2, 0.0])
        center += (0.6 - float(hs.distance(center))) * hs.nu
        u = make_bump(BumpSpec(center=tuple(center), radius=0.45))
        assert _takes_ball(u.support_box, hs, u.support, QuadConfig())
        ball = integrate_many(_CLIP_INTEGRANDS, u.support_box, hs, QuadConfig(), trial=(_H1, u))
        box_cfg = QuadConfig(points_per_axis=32)
        box = integrate_many(_CLIP_INTEGRANDS, u.support_box, hs, box_cfg, trial=(_H1, _without_support(u)))
        for a, b in zip(ball, box, strict=True):
            assert abs(a.value - b.value) <= 2e-3 * abs(b.value)
            assert abs(a.value - b.value) <= a.stderr + b.stderr
            # 24 radii x 16 x 8 directions
            assert a.evaluations == 24 * 16 * 8

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 13])
    def test_taken_inside_the_half_space(self, dim):
        hs, u = _inside(dim)
        assert _takes_ball(u.support_box, hs, u.support, QuadConfig())
        # from 6 dimensions on only from 16 points per axis
        cfg = QuadConfig(points_per_axis=8 if dim <= 5 else 16)
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        assert rule.size == rule.split and len(rule.points) == len(rule.dist) == len(rule.weights)
        companion = len(rule.points) - rule.split
        for r in _parts(rule):
            # every node lies inside the support, and off the boundary
            assert np.all(r.dist > 0.0) and np.array_equal(r.dist, hs.distance(r.points))
            assert np.all(_in_support(u.support, r.points)) and np.all(r.weights > 0.0)
            # the weights add up to the volume of the ball
            volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * 0.4**dim
            assert np.sum(r.weights) == pytest.approx(volume, rel=1e-13)
        assert 0 < companion < rule.size
        if dim >= 6:
            # 24 radii x (2 dim + 2^dim) directions of degree 5, and
            # 12 x 2 dim of degree 3 on the companion; at 32 points per axis
            # twice the radii, the companion still of degree 3, where
            # sample_count admits that many nodes
            assert rule.size == 24 * (2 * dim + 2**dim) and companion == 12 * 2 * dim
            size = 48 * (2 * dim + 2**dim)
            finer = QuadConfig(points_per_axis=32, sample_count=size)
            rule = _build_nodes(u.support_box, hs, finer, u.support)
            assert rule.size == rule.split == size and len(rule.points) - size == 24 * 2 * dim
            assert not _takes_ball(u.support_box, hs, u.support, replace(finer, sample_count=size - 1))

    def test_agrees_with_the_product_sphere_rule_on_h3_bumps(self, monkeypatch):
        # hardy at seed 42 on heisenberg:3 (20 bumps, p 2 and 3), against
        # the same radial rule on the product sphere rule of order 4 (degree
        # 7, 8 x 4^5 directions): measured within 3.5% relative, and the
        # stderr at least 13 times the gap
        config = load_config(None)
        config["group"] = "heisenberg:3"
        group, hs, quad, cfg = resolve(config, seed=42)
        trials = build_trials(group, hs, cfg)

        def quotients(u):
            return [reports[0] for reports in each_p(HARDY, group, hs, u, (2.0, 3.0), quad)]

        rows = [quotients(u) for u in trials]
        # the 7-dimension templates are cached: cleared before the patch, so
        # that the patched rule is read, and after, so that no later test
        # reads a template it built
        quadrature._cached_unit_ball.cache_clear()
        monkeypatch.setattr(quadrature, "_symmetric_sphere_rule", lambda dim, degree: _sphere_rule(dim, 4))
        try:
            for u, reports in zip(trials, rows):
                for rep, reference in zip(reports, quotients(u), strict=True):
                    assert reference.quotient != rep.quotient
                    assert abs(rep.quotient - reference.quotient) <= rep.stderr
        finally:
            quadrature._cached_unit_ball.cache_clear()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_templates_are_cached_up_to_the_cap(self, k):
        # the rule and its companion in one template, nodes, f, slope and
        # weights: heisenberg:2's (62,208 + 1,944) x (5 + 3) x 8 bytes
        # (4.1 MB), heisenberg:3's (3,408 + 168) x 10 x 8 and heisenberg:4's
        # (12,720 + 216) x 12 x 8 are kept; heisenberg:5's (49,680 + 264)
        # x 14 x 8 (5.6 MB) and heisenberg:6's (197,232 + 312) x 16 x 8 are not
        spec, hs, u = _interior_ball(k)
        _cached_unit_ball.cache_clear()
        try:
            first = _build_nodes(u.support_box, hs, QuadConfig(), u.support)
            again = _build_nodes(u.support_box, hs, QuadConfig(), u.support)
            assert _takes_ball(u.support_box, hs, u.support, QuadConfig())
            assert np.array_equal(first.points, again.points)
            info = _cached_unit_ball.cache_info()
            if k == 5:
                assert first.size == 49_680 and len(first.points) == 49_944 and info.currsize == 0
            elif k == 6:
                assert first.size == 197_232 and len(first.points) == 197_544 and info.currsize == 0
            else:
                assert info.currsize == 1 and info.hits == 1
        finally:
            _cached_unit_ball.cache_clear()

    def test_resolution_grows_with_points_per_axis(self):
        _, hs, u = _interior_ball(2)
        sizes = [
            _build_nodes(u.support_box, hs, QuadConfig(points_per_axis=ppa), u.support).size
            for ppa in (4, 8, 16, 32)
        ]
        assert sizes == sorted(set(sizes))
        # 24 radii x 12 x 6^3 directions at the default, 12 x 6 x 3^3 at 8
        assert sizes[1:3] == [12 * 6 * 27, 24 * 12 * 216]

    def test_over_budget_before_allocation(self):
        _, hs, u = _interior_ball(2)
        with pytest.raises(NodeBudgetError, match="ball rule"):
            _build_nodes(u.support_box, hs, QuadConfig(points_per_axis=64), u.support)

    @pytest.mark.parametrize(
        "why",
        [
            "clearance 0",
            "not a BumpSupport",
            "heisenberg:3 at 8 points per axis",
            "heisenberg:7",
            "no support",
            "box inside the ball",
            "sharpness",
        ],
    )
    def test_other_supports_keep_the_graded_rule(self, why):
        cfg = QuadConfig(points_per_axis=6, sample_count=2000)
        if why == "clearance 0":
            spec, hs, u = _interior_ball(1, clearance=0.0)
        elif why == "not a BumpSupport":
            spec, hs, u = _interior_ball(1)
            u = _on_box_rule(u)
        elif why == "heisenberg:3 at 8 points per axis":
            # degree 3 against its companion's degree 3: the stderr would
            # not see the angular error
            spec, hs, u = _interior_ball(3)
            cfg = QuadConfig(points_per_axis=8)
            assert _takes_ball(u.support_box, hs, u.support, QuadConfig())
        elif why == "heisenberg:7":
            # 24 radii x (30 + 2^15) directions, more than the Monte Carlo
            # nodes of the rule it would replace
            spec, hs, u = _interior_ball(7)
            cfg = QuadConfig(sample_count=20_000)
            assert _takes_ball(u.support_box, hs, u.support, QuadConfig(sample_count=24 * (30 + 2**15)))
        else:
            spec, hs, u = _interior_ball(1)
        box, support = u.support_box, u.support
        if why == "no support":
            u, support = _without_support(u), None
        elif why == "box inside the ball":
            box = 0.5 * (box + box.mean(axis=1, keepdims=True))
        elif why == "sharpness":
            # the cutoff a sharpness sweep integrates over
            u = make_bump(boundary_bump_spec(hs, 0.45))
            box, support = u.support_box, u.support
        assert not _takes_ball(box, hs, support, cfg)
        rule = _build_nodes(box, hs, cfg, support)
        graded = _build_boundary_graded(box, hs, cfg, support)
        for x, y in zip(_arrays(rule), _arrays(graded), strict=True):
            assert np.array_equal(x, y)
        assert rule.size == graded.size and rule.split == graded.split
        (est,) = integrate_many([_CLIP_INTEGRANDS[1]], box, hs, cfg, trial=(spec, u))
        assert est.evaluations == graded.size

    @pytest.mark.parametrize("normal", sorted(_H1_NORMALS))
    def test_balls_pushed_onto_the_boundary_touch_it(self, normal):
        # a centre pushed to distance r clears the boundary by a rounding
        # error of either sign; every such ball keeps the graded rule
        hs = _H1_NORMALS[normal]
        specs = random_interior_bumps(hs, 40, 1, region_halfwidth=0.05, clearance=0.0)
        clearances = [float(np.array(s.center) @ hs.nu) - hs.d - s.radius for s in specs]
        assert max(clearances) > 0.0 and max(map(abs, clearances)) < 1e-15
        for spec in specs:
            u = make_bump(spec)
            assert not _takes_ball(u.support_box, hs, u.support, QuadConfig())

    @pytest.mark.parametrize("preset", ["t-axis", "x1-axis", "oblique", "offset"])
    def test_no_sharpness_trial_takes_it(self, preset):
        # a sharpness cutoff is centred on the boundary
        hs = {
            "oblique": HalfSpace(nu=[0.6, 0.0, 0.8], d=0.1),
            "offset": halfspace_preset(3, "t-axis", 0.3),
        }.get(preset) or halfspace_preset(3, preset, 0.0)
        u = make_bump(boundary_bump_spec(hs, 1.0))
        assert not _takes_ball(u.support_box, hs, u.support, QuadConfig())


class _Shaved(HalfSpace):
    """A half-space whose distance reads 0.0 at every 7th node, nodes that
    the ball rule drops as it would ones that round onto the boundary.  Its
    normal is oblique: on an axis normal the ball rule takes dist from the
    normal's column without calling ``distance``."""

    def distance(self, points):
        dist = super().distance(points)
        dist[::7] = 0.0
        return dist


def _box_interior():
    """heisenberg:1, its t-axis half-space and an interior bump on the box rule."""
    spec, hs, u = _interior_ball(1)
    return spec, hs, _on_box_rule(u)


def _sharpness_case(hs):
    """heisenberg:1, hs and a sharpness cutoff, whose sample the integrands read through a view."""
    return _H1, hs, make_bump(boundary_bump_spec(hs, 0.45))


# (group, half-space, trial) and the chunk size (None: the real block
# size): the product ball rule in 3 and 5 dimensions, the symmetric one in
# 7, the graded rule on an interior box and on a boundary-touching
# sharpness trial; the 5-dimension ball rule (heisenberg:2's default) and
# the sharpness trial's rule are larger than one real block; chunks of 300
# nodes, which cut the nodes of both rules and their companions unevenly,
# so that a chunk grid laid over the whole node set would sum the
# companion in other pieces; and a ball whose dist > 0 filter drops nodes
_JOINT_CASES = {
    "ball-3": lambda: (_interior_ball(1), None),
    "ball-5-blocks": lambda: (_interior_ball(2), None),
    "ball-7": lambda: (_interior_ball(3), None),
    "box-interior": lambda: (_box_interior(), None),
    "box-touching": lambda: (_sharpness_case(_T_AXIS), None),
    "ball-3-chunks": lambda: (_interior_ball(1), 300),
    "box-touching-chunks": lambda: (_sharpness_case(_T_AXIS), 300),
    "ball-3-shaved": lambda: ((_H1, _Shaved(nu=[0.0, 0.1, 1.0]), _interior_ball(1)[2]), None),
}


class TestJointSample:
    @pytest.mark.parametrize("name", sorted(_JOINT_CASES))
    def test_each_part_sums_as_if_sampled_alone(self, name, monkeypatch):
        # one sample of a rule and its companion, summed part by part, gives
        # the bits of each part's nodes sampled and summed on their own
        (spec, hs, u), chunk = _JOINT_CASES[name]()
        if chunk is not None:
            monkeypatch.setattr(quadrature, "_EVAL_CHUNK", chunk)
        cfg = QuadConfig()
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        assert _takes_ball(u.support_box, hs, u.support, cfg) == name.startswith("ball")
        assert rule.line is None and 0 < rule.split < len(rule.points)
        if chunk is not None:
            assert rule.split % chunk != 0 and len(rule.points) > chunk
        if name.endswith("blocks"):
            # unpatched: the rule's 62,208 nodes take 4 blocks, its companion's 1,944 one
            assert (rule.split, len(rule.points)) == (62_208, 64_152)
            assert quadrature._EVAL_CHUNK < rule.split < 4 * quadrature._EVAL_CHUNK
        if name.endswith("shaved"):
            # every 7th of the 3,072 + 384 nodes dropped, the split recounted
            assert rule.split == 3072 - len(range(0, 3072, 7)) and len(rule.points) == 3456 - len(range(0, 3456, 7))
            assert np.all(rule.dist > 0.0)
        sample = partial(sample_trial, spec, hs, u)
        # none reads grad u, which a sharpness trial's sample does not hold
        fs = _CLIP_INTEGRANDS[1:]
        if name.startswith("box-touching"):
            fs = viewed(fs, _SHARPNESS_A)
        fine, coarse = (_sums(fs, part, sample)[0] for part in _parts(rule))
        joint = integrate_many(fs, u.support_box, hs, cfg, trial=(spec, u))
        assert [_bits(e) for e in joint] == [(f.hex(), abs(f - c).hex(), rule.size) for f, c in zip(fine, coarse)]
        assert all(e.stderr > 0.0 for e in joint)


class TestBlockMemory:
    # the heisenberg:2 ball rule (64,152 and 481,608 nodes) and the
    # heisenberg:1 sharpness box rule (50,132 and 287,364), each larger than
    # one block at both resolutions
    @pytest.mark.parametrize(
        "case, resolutions",
        [(lambda: _interior_ball(2), (16, 24)), (lambda: _sharpness_case(_T_AXIS), (16, 32))],
        ids=["ball-5", "box-touching"],
    )
    def test_peak_memory_past_the_rule_does_not_grow_with_the_rule(self, case, resolutions, monkeypatch):
        spec, hs, u = case()
        build = quadrature._build_nodes
        peaks = {}
        for ppa in resolutions:
            cfg = QuadConfig(points_per_axis=ppa)
            # the rule is built before tracing, so the peak is what its
            # integration holds past the rule's own arrays
            rule = build(u.support_box, hs, cfg, u.support)
            assert len(rule.points) > 2 * quadrature._EVAL_CHUNK
            monkeypatch.setattr(quadrature, "_build_nodes", lambda *args: rule)
            integrate_many(_MANY[:2], u.support_box, hs, cfg, trial=(spec, u))
            tracemalloc.start()
            try:
                integrate_many(_MANY[:2], u.support_box, hs, cfg, trial=(spec, u))
                peaks[ppa] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        small, large = resolutions
        assert peaks[large] <= 1.05 * peaks[small]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _frozen_profile(s):
    """The bump's profile and slope at S = s, as the bump computed them
    from S at every block of every trial before the ball rule's template
    held them: the arithmetic the template must keep bit for bit."""
    inside = s < 1.0
    gap = np.where(inside, 1.0 - s, np.inf)
    f = np.where(inside, np.exp(-1.0 / gap), 0.0)
    return f, -f / (gap * gap)


def _frozen_ball(hs, cfg, support):
    """The ball rule's whole arrays as they were built when the rule held
    its nodes: each part's nodes as one row-major product, all of them
    placed, dist taken over all of them in one call, the profile taken of
    S over all of them, and the dist > 0 filter.  Returns points, dist,
    weights, z, f, slope and the split."""
    n = support.center.size
    ppa = cfg.points_per_axis
    nodes, weights = [], []
    for radial, sphere in (_ball_resolution(n, ppa), _ball_resolution(n, ppa // 2, companion=True)):
        dirs, w_dir = _sphere_rule(n, sphere) if n <= 5 else _symmetric_sphere_rule(n, sphere)
        x, w = np.polynomial.legendre.leggauss(radial)
        rho = 0.5 * (1.0 + x)
        nodes.append((rho[:, None, None] * dirs[None, :, :]).reshape(-1, n))
        weights.append(((0.5 * w * rho ** (n - 1))[:, None] * w_dir[None, :]).reshape(-1))
    split = len(nodes[0])
    z, weights = np.asfortranarray(np.concatenate(nodes)), np.concatenate(weights)
    squares = np.zeros(len(z))
    for col in z.T:
        squares += col * col
    pts = z * support.radius
    pts += support.center
    dist = hs.distance(pts)
    weights = weights * support.radius**n
    f, slope = _frozen_profile(squares)
    keep = np.flatnonzero(dist > 0.0)
    return pts[keep], dist[keep], weights[keep], z[keep], f[keep], slope[keep], int(np.searchsorted(keep, split))


def _oblique_ball():
    """heisenberg:2 on an oblique normal (the benchmark matrix's) and a
    default bump 0.3 clear of the boundary: 64,152 nodes, 4 blocks, and
    dist by a matmul over every coordinate."""
    hs = HalfSpace(nu=[0.3, -0.2, 0.4, 0.1, 0.8], d=0.1)
    center = np.array([0.1, -0.2, 0.1, -0.2, 0.0])
    center += (0.75 - float(hs.distance(center))) * hs.nu
    return hs, make_bump(BumpSpec(center=tuple(center), radius=0.45))


# every dimension of test_taken_inside_the_half_space at its resolution,
# an offset axis normal, whose dist rounds in its - d, heisenberg:5's
# template (too large to cache), a rule whose dist > 0 filter drops nodes
# and an oblique normal on the heisenberg:2 rule
_PLACEMENT_CASES = {
    **{f"ball-{dim}": (lambda dim=dim: (*_inside(dim), QuadConfig(points_per_axis=8 if dim <= 5 else 16)))
       for dim in (1, 2, 3, 4, 5, 6, 7, 13)},
    "ball-3-offset": lambda: (*_inside(3, d=0.3), QuadConfig()),
    "ball-11-uncached": lambda: (*_interior_ball(5)[1:], QuadConfig()),
    "ball-3-shaved": lambda: (_Shaved(nu=[0.0, 0.1, 1.0]), _interior_ball(1)[2], QuadConfig()),
    "ball-5-oblique": lambda: (*_oblique_ball(), QuadConfig()),
}


class TestPlacement:
    @pytest.mark.parametrize("name", sorted(_PLACEMENT_CASES))
    def test_each_window_holds_the_whole_rules_bits(self, name):
        # the ball rule holds of its nodes only their dist; every window it
        # places, of the real block size or of 300 nodes, holds the bits of
        # the same rows of the rule built whole
        hs, u, cfg = _PLACEMENT_CASES[name]()
        assert _takes_ball(u.support_box, hs, u.support, cfg)
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        *whole, split = _frozen_ball(hs, cfg, u.support)
        count = len(whole[1])
        assert (rule.split, len(rule.dist)) == (split, count)
        if name.endswith("shaved"):
            assert count == 3456 - len(range(0, 3456, 7))
        for size in (quadrature._EVAL_CHUNK, 300):
            for lo in range(0, count, size):
                points, dist, weights, local, line = rule.place(lo, lo + size)
                assert line is None
                for got, want in zip((points, dist, weights, *local), whole, strict=True):
                    assert _same_bits(got, want[lo : lo + size])
        # and the whole rule, as the tests and the benchmark's tracer read it
        for got, want in zip((rule.points, rule.dist, rule.weights, *rule.local), whole, strict=True):
            assert _same_bits(got, want)


    def test_a_default_heisenberg2_trial_takes_the_template_and_one_block(self):
        # the 4 Hardy integrands of p 2 and 3 on the default heisenberg:2
        # ball rule, its template cached: 6.32 MiB when the rule held its
        # 64,152 nodes, dist and weights (3.4 MiB)
        spec, hs, u = _interior_ball(2)
        fs = HARDY.integrands(spec, hs, 2.0) + HARDY.integrands(spec, hs, 3.0)
        integrate_many(fs, u.support_box, hs, QuadConfig(), trial=(spec, u))
        tracemalloc.start()
        try:
            integrate_many(fs, u.support_box, hs, QuadConfig(), trial=(spec, u))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * 2**20


def _frozen_box(box, hs, cfg, support):
    """The box rule's whole arrays as they were built when the rule held
    its nodes: each part's s grid over all its kept lines at once, the
    nodes kept by s**m > 0 and the chord's s window, then filled in.
    Returns points, dist, weights, each node's line among its part's kept
    ones and the split."""
    n, nu, m = box.shape[0], hs.nu, cfg.grading_exponent
    jstar = int(np.argmax(np.abs(nu)))
    nuj = nu[jstar]
    trans_axes = [j for j in range(n) if j != jstar]
    touching = float(np.sum(np.minimum(nu * box[:, 0], nu * box[:, 1])) - hs.d) <= 1e-12 * max(
        1.0, abs(float(np.sum(np.maximum(nu * box[:, 0], nu * box[:, 1])) - hs.d))
    )
    deterministic = len(trans_axes) <= 4
    levels = [(cfg.points_per_axis, 8), (cfg.points_per_axis // 2, 4)]
    parts = []
    for ppa, order in levels[: 2 if deterministic else 1]:
        panels = min(60, max(8, (5 * ppa) // 2)) if touching else None
        if deterministic:
            trans_pts, trans_w = quadrature._tensor_product(box[trans_axes], ppa)
        else:
            t_count = max(16, cfg.sample_count // ((panels + 1) * order if touching else 2 * ppa))
            sub = box[trans_axes]
            trans_pts = sub[:, 0] + _philox_uniform(cfg.seed, t_count, len(trans_axes)) * (sub[:, 1] - sub[:, 0])
            trans_w = np.full(t_count, float(np.prod(sub[:, 1] - sub[:, 0])) / t_count)
        c = trans_pts @ nu[trans_axes] - hs.d
        da, db = nuj * box[jstar, 0] + c, nuj * box[jstar, 1] + c
        lo, hi = np.maximum(0.0, np.minimum(da, db)), np.maximum(da, db)
        keep = hi > np.maximum(lo, 0.0)
        if support is not None:
            line_pts = np.zeros((len(c), n), order="F")
            line_pts[:, trans_axes] = trans_pts
            chord_lo, chord_hi = support.chord(line_pts, jstar)
            keep &= chord_lo <= chord_hi
        lines = np.flatnonzero(keep)
        trans_pts, trans_w, c, lo, hi = (a[lines] for a in (trans_pts, trans_w, c, lo, hi))
        s, ws = quadrature._graded_s_axis(lo, hi, m, ppa, panels, order)
        kept = s**m > 0.0
        if support is not None:
            window = _s_window(chord_lo[lines], chord_hi[lines], nuj, c, m)
            kept &= (s >= window[0][:, None]) & (s <= window[1][:, None])
        rows, cols = np.nonzero(kept)
        s, ws = s[rows, cols], ws[rows, cols]
        dist = s**m
        pts = np.empty((rows.size, n), order="F")
        pts[:, trans_axes] = trans_pts[rows]
        pts[:, jstar] = (dist - c[rows]) / nuj
        weights = trans_w[rows] * ws
        weights *= (m * s ** (m - 1.0)) / abs(nuj)
        parts.append((pts, dist, weights, rows))
    pts, dist, weights, rows = (np.concatenate(a) for a in zip(*parts))
    return np.asfortranarray(pts), dist, weights, rows, len(parts[0][1])


def _sharpness_box(ppa):
    """The box, half-space, config and support of a sharpness cutoff's box rule."""
    u = make_bump(boundary_bump_spec(_T_AXIS, 0.45))
    return u.support_box, _T_AXIS, QuadConfig(points_per_axis=ppa), u.support


# a boundary-touching sharpness cutoff (graded panels), at 8 points per
# axis and at the default 16, whose 50,132 nodes take several blocks of
# several chunks of lines; a touching box without a support at a grading
# exponent whose s**m underflows; an interior box (one Gauss rule per
# line); and the Monte Carlo branch
_BOX_CASES = {
    "sharpness": lambda: _sharpness_box(8),
    "sharpness-blocks": lambda: _sharpness_box(16),
    "underflow": lambda: (UNIT_BOX, _T_AXIS, QuadConfig(points_per_axis=8, grading_exponent=100.0), None),
    "interior": lambda: (
        make_bump(_INTERIOR).support_box, _T_AXIS, QuadConfig(points_per_axis=8), make_bump(_INTERIOR).support
    ),
    "monte-carlo": lambda: (_MC_BOX, _MC_HS, QuadConfig(sample_count=2000), None),
}


class TestBoxPlacement:
    @pytest.mark.parametrize("name", sorted(_BOX_CASES))
    def test_each_window_holds_the_whole_rules_bits(self, name):
        # the box rule holds of its nodes only their lines; every window it
        # places, of the real block size, of 300 nodes or of 7 (which cut
        # lines on every rule), holds the bits of the same rows of the rule
        # built whole
        box, hs, cfg, support = _BOX_CASES[name]()
        rule = _build_boundary_graded(box, hs, cfg, support)
        *whole, rows, split = _frozen_box(box, hs, cfg, support)
        count = len(whole[1])
        assert (rule.count, rule.split) == (count, None if name == "monte-carlo" else split)
        if name == "sharpness-blocks":
            assert count == 50_132
        # the nodes that start a line
        starts = {0, split, *(np.flatnonzero(np.diff(rows) != 0) + 1).tolist()}
        whole.append(rows if name == "monte-carlo" else None)
        sizes = (quadrature._EVAL_CHUNK, 300, 7)
        assert {lo for size in sizes for lo in range(0, count, size)} - starts, "no window is cut mid-line"
        for size in sizes:
            for lo in range(0, count, size):
                points, dist, weights, local, line = rule.place(lo, lo + size)
                assert local is None and (line is None) == (whole[3] is None)
                for got, want in zip((points, dist, weights), whole[:3], strict=True):
                    assert _same_bits(got, want[lo : lo + size]) and got.flags.f_contiguous
                if line is not None:
                    assert np.array_equal(line, whole[3][lo : lo + size])
        # and the whole rule, as the tests and the benchmark's tracer read it
        for got, want in zip(_arrays(rule), whole, strict=True):
            assert want is None if got is None else _same_bits(got, want)


class TestBuiltInPlace:
    """A template is written straight into its arrays; a box rule holds
    only its lines."""

    @pytest.mark.parametrize("dim, ppa", [(5, 16), (11, 16), (5, 24)])
    def test_a_template_is_built_in_place(self, dim, ppa):
        # heisenberg:2's template (3.9 MiB), heisenberg:5's (5.3 MiB, not
        # cached) and heisenberg:2's at 24 points per axis (29.4 MiB); with
        # z, S and weights they peaked at 1.6 to 1.8 times their size when
        # each part was one product
        parts = (_ball_resolution(dim, ppa), _ball_resolution(dim, ppa // 2, companion=True))
        _unit_ball(dim, parts)
        tracemalloc.start()
        try:
            template = _unit_ball(dim, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(template) == 5 and peak <= 1.1 * sum(a.nbytes for a in template[:4])

    def test_integrating_a_graded_rule_does_not_grow_with_it(self):
        # the sharpness cutoff of a 32-point run: 287,364 nodes (11.5 MB of
        # points, dist and weights when the rule held them, its build
        # peaking at 1.12 times that); the rule now holds its lines, so
        # building and integrating it peak as at 16 points per axis
        hs = halfspace_preset(3, "x1-axis", 0.0)
        u = make_bump(boundary_bump_spec(hs, 1.0))
        peaks = {}
        for ppa in (16, 32):
            cfg = QuadConfig(points_per_axis=ppa)
            integrate_many(_MANY[:2], u.support_box, hs, cfg, trial=(_H1, u))
            tracemalloc.start()
            try:
                integrate_many(_MANY[:2], u.support_box, hs, cfg, trial=(_H1, u))
                peaks[ppa] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert _build_nodes(u.support_box, hs, QuadConfig(points_per_axis=32), u.support).count == 287_364
        assert peaks[32] <= 1.25 * peaks[16]

    @pytest.mark.parametrize("name", sorted(_BOX_CASES))
    def test_chunks_of_lines_give_the_bits_of_the_whole_grid(self, name, monkeypatch):
        box, hs, cfg, support = _BOX_CASES[name]()
        rules = []
        # the default chunks, one line per chunk, and every line in one
        # chunk, for counting the nodes and for placing them
        for chunk in (quadrature._EVAL_CHUNK, 1, 1 << 40):
            monkeypatch.setattr(quadrature, "_EVAL_CHUNK", chunk)
            rule = _build_boundary_graded(box, hs, cfg, support)
            rules.append((rule, _arrays(rule)))
        first, arrays = rules[0]
        if name == "underflow":
            # every line of the box reaches into the half-space, so only
            # the dist > 0 filter keeps the rule below its full size
            assert first.split < first.size and np.all(arrays[1] > 0.0)
        for rule, got in rules[1:]:
            assert (rule.size, rule.split, rule.lines) == (first.size, first.split, first.lines)
            for a, b in zip(got[:3], arrays[:3]):
                assert _same_bits(a, b)
            assert (got[3] is None) == (name != "monte-carlo")
            if got[3] is not None:
                assert np.array_equal(got[3], arrays[3])


# the ball rule's local coordinates: the product sphere rule in 3 and 5
# dimensions, the symmetric one on a cached template in 7 and on one too
# large to cache in 11, and a rule whose dist > 0 filter drops nodes
_LOCAL_CASES = {
    "ball-3": lambda: _interior_ball(1),
    "ball-5": lambda: _interior_ball(2),
    "ball-7": lambda: _interior_ball(3),
    "ball-11": lambda: _interior_ball(5),
    "ball-3-shaved": lambda: (_H1, _Shaved(nu=[0.0, 0.1, 1.0]), _interior_ball(1)[2]),
}


def _no_shape(points):
    raise AssertionError("the bump worked z back out of the nodes")


class TestLocalFrame:
    @pytest.mark.parametrize("name", sorted(_LOCAL_CASES))
    def test_local_sample_matches_the_points(self, name, monkeypatch):
        spec, hs, u = _LOCAL_CASES[name]()
        cfg = QuadConfig()
        assert _takes_ball(u.support_box, hs, u.support, cfg)
        _cached_unit_ball.cache_clear()
        try:
            rule = _build_nodes(u.support_box, hs, cfg, u.support)
            assert _cached_unit_ball.cache_info().currsize == (0 if name == "ball-11" else 1)
        finally:
            _cached_unit_ball.cache_clear()
        z, f, slope = rule.local
        assert z.shape == rule.points.shape and f.shape == slope.shape == rule.dist.shape and z.flags.f_contiguous
        # a shared template is read-only; a filtered rule holds its own rows
        assert z.flags.writeable == f.flags.writeable == slope.flags.writeable == name.endswith("shaved")
        # the nodes are c + r z, and f and slope are the profile at S, which
        # adds z_i * z_i in axis order
        support = u.support
        assert np.array_equal(rule.points, z * support.radius + support.center)
        for got, want in zip((f, slope), _frozen_profile(support._sum(z)), strict=True):
            assert _same_bits(got, want)
        want_u, want_grad = u.values_and_gradients(rule.points)
        before = z.copy()
        monkeypatch.setattr(support, "shape", _no_shape)
        got = sample_trial(spec, hs, u, rule.points, rule.dist, local=rule.local)
        assert np.array_equal(z, before)
        assert np.max(np.abs(got.u - want_u)) <= 1e-14 * np.max(np.abs(want_u))
        assert np.max(np.abs(got.grad - want_grad)) <= 1e-14 * np.max(np.abs(want_grad))

    def test_scaled_bumps_keep_the_local_path(self, monkeypatch):
        spec, hs, u = _interior_ball(1)
        cfg = QuadConfig()
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        sample = partial(sample_trial, spec, hs, points=rule.points, dist=rule.dist, local=rule.local)
        # the unscaled ratio first: the patch below shows that no sample
        # afterwards evaluates the bump at the nodes
        once = hardy_sobolev_ratio(spec, hs, u, 2.0, cfg).quotient
        base = sample(u)
        monkeypatch.setattr(u.support, "shape", _no_shape)
        seven = sample(u.scaled(7.0))
        assert np.array_equal(seven.u, 7.0 * base.u) and np.array_equal(seven.grad, 7.0 * base.grad)
        # so S(7u) / S(u) of the Sobolev quotient is 1 to rounding
        scaled = hardy_sobolev_ratio(spec, hs, u.scaled(7.0), 2.0, cfg).quotient
        assert abs(scaled / once - 1.0) <= 4 * np.finfo(float).eps

    def test_a_scaled_bump_reads_the_template_profile_times_its_factor(self, monkeypatch):
        # the benchmark's sobolev check of 7u on heisenberg:2's ball rule:
        # u is the template's f, 7u is 7.0 times it, and their gradients are
        # z (2 / r) slope and 7.0 times that, none evaluated at the nodes
        spec, hs, u = _interior_ball(2)
        rule = _build_nodes(u.support_box, hs, QuadConfig(), u.support)
        z, f, slope = rule.local
        monkeypatch.setattr(u.support, "shape", _no_shape)
        grad = z * ((2.0 / u.support.radius) * slope)[:, None]
        for factor, field in ((1.0, u), (7.0, u.scaled(7.0))):
            got = sample_trial(spec, hs, field, rule.points, rule.dist, local=rule.local)
            assert _same_bits(got.u, factor * f) and _same_bits(got.grad, factor * grad)

    def test_a_hand_built_field_samples_through_its_points(self):
        # a round BumpSupport makes the ball rule, but only the bump itself
        # reads the local coordinates
        spec, hs, ball = _interior_ball(1)
        seen = []

        def fn_and_grad(points):
            seen.append(points)
            return ball.values_and_gradients(points)

        u = ScalarField(
            3, fn_and_grad=fn_and_grad, support_box=ball.support_box, label=ball.label, support=ball.support
        )
        cfg = QuadConfig()
        assert _takes_ball(u.support_box, hs, u.support, cfg)
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        (est,) = integrate_many([lambda s: s.u], u.support_box, hs, cfg, trial=(spec, u))
        assert len(seen) == 1 and np.array_equal(seen[0], rule.points)
        (ref,) = integrate_many([lambda s: s.u], ball.support_box, hs, cfg, trial=(spec, ball))
        assert est.evaluations == ref.evaluations and abs(est.value - ref.value) <= 1e-14 * ref.value

    @pytest.mark.parametrize("k", [2, 4])
    def test_the_cache_cap_counts_the_squares(self, k, monkeypatch):
        # a template is cached at (nodes + f + slope + weights) x 8 bytes a
        # node, and not one byte below: heisenberg:2's 4,105,728 bytes fit
        # the default cap of 4 MiB
        spec, hs, u = _interior_ball(k)
        n = 2 * k + 1
        parts = (_ball_resolution(n, 16), _ball_resolution(n, 8, companion=True))
        need = sum(_ball_size(n, *part) for part in parts) * (n + 3) * 8
        assert need <= quadrature._BALL_CACHE_BYTES and (k != 2 or need == 4_105_728)
        for cap, kept in ((need, 1), (need - 1, 0)):
            monkeypatch.setattr(quadrature, "_BALL_CACHE_BYTES", cap)
            _cached_unit_ball.cache_clear()
            try:
                _build_nodes(u.support_box, hs, QuadConfig(), u.support)
                assert _cached_unit_ball.cache_info().currsize == kept
            finally:
                _cached_unit_ball.cache_clear()


class TestTemplateProfile:
    @pytest.mark.parametrize("dim", range(2, 14))
    def test_the_template_holds_the_profile_of_its_squares(self, dim, monkeypatch):
        # f and slope of the rule and of its companion, cached or built past
        # the cap, are bit for bit the profile the bump took of S at each
        # block before the template held them, S adding z_i * z_i from 0.0
        hs, u = _inside(dim)
        cfg = QuadConfig(points_per_axis=8 if dim <= 5 else 16)
        assert _takes_ball(u.support_box, hs, u.support, cfg)
        for cap, kept in ((1 << 40, 1), (0, 0)):
            monkeypatch.setattr(quadrature, "_BALL_CACHE_BYTES", cap)
            _cached_unit_ball.cache_clear()
            try:
                rule = _build_nodes(u.support_box, hs, cfg, u.support)
                assert _cached_unit_ball.cache_info().currsize == kept
            finally:
                _cached_unit_ball.cache_clear()
            z, f, slope = rule.local
            assert 0 < rule.split < len(f)
            squares = np.zeros(len(z))
            for col in z.T:
                squares += col * col
            for got, want in zip((f, slope), _frozen_profile(squares), strict=True):
                assert _same_bits(got, want)
            assert np.all(f > 0.0) and np.all(slope < 0.0)


class TestResolutionInvariant:
    @pytest.mark.parametrize("dim", range(2, 14))
    def test_the_companion_is_coarser_on_the_sphere_wherever_the_ball_is_taken(self, dim):
        # at equal sphere orders |fine - coarse| held no angular error, and
        # remainder on heisenberg:2 at 4 points per axis failed 17 of 20 seeds
        hs, u = _inside(dim)
        taken = []
        for ppa in range(4, 65):
            cfg = QuadConfig(points_per_axis=ppa)
            if _takes_ball(u.support_box, hs, u.support, cfg):
                taken.append(ppa)
                fine, coarse = _ball_resolution(dim, ppa)[1], _ball_resolution(dim, ppa // 2, companion=True)[1]
                assert coarse < fine, (ppa, fine, coarse)
        # every resolution up to 5 dimensions, and above from 16 points per
        # axis while the rule fits the Monte Carlo branch's sample count
        assert 16 in taken and (dim > 5 or taken == list(range(4, 65)))

    def test_heisenberg2_at_4_points_per_axis_has_order_2(self):
        # 6 radii x 2 x 2^4 directions; order 1 gave 12 nodes
        assert _ball_resolution(5, 4) == (6, 2) and _ball_size(5, 6, 2) == 192
        assert _ball_resolution(5, 2, companion=True) == (3, 1)


class TestHardyRow15:
    def test_seed_42_trial_15_lies_within_its_stderr_of_the_reference(self):
        # hardy on heisenberg:1 at the default config and seed 42, p = 2,
        # trial 15 of 20: the box rule put it 11 stderr from the reference
        # of bench/reference.py at its fine resolution
        group, hs, quad, cfg = resolve(load_config(None), seed=42)
        u = build_trials(group, hs, cfg)[15]
        assert u.label.startswith("bump(center=(-0.8907742505038627,")
        ((rep,),) = each_p(HARDY, group, hs, u, [2.0], quad)
        reference = 103.903155092839
        assert abs(rep.quotient - reference) <= 3.0 * rep.stderr
        assert abs(rep.quotient - reference) <= 1e-5 * reference

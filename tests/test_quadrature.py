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
    ground_transform,
    halfspace_preset,
    heisenberg_group,
    integrate_many,
    make_bump,
    random_interior_bumps,
    sample_trial,
    sharpness_trial,
)
from strathardy.config import build_trials, load_config, resolve
from strathardy.experiments import HARDY, each_p
from strathardy import quadrature
from strathardy.quadrature import (
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
)


UNIT_BOX = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])


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
        assert (rule.line is not None) == (name == "monte-carlo")
        return [rule] if rule.coarse is None else [rule, rule.coarse]

    def _sums(self, f, rule, name):
        hs = self._RULES[name][1]
        return _sums([lambda s: np.ones(len(s)), f], rule, partial(sample_trial, None, hs, None))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", sorted(_RULES))
    def test_a_non_finite_value_names_its_node(self, bad, name):
        for rule in self._rules(name):
            target = rule.points[len(rule.points) // 3]

            def f(s):
                out = np.ones(len(s))
                out[np.all(s.points == target, axis=1)] = bad
                return out

            with pytest.raises(IntegrationError, match="non-finite") as err:
                self._sums(f, rule, name)
            assert np.array_equal(err.value.point, target)

    # a deterministic rule sums each integrand's weighted values at once
    @pytest.mark.parametrize("name", ["ball", "box"])
    def test_finite_values_whose_sum_overflows_do_not_raise(self, name):
        # 1e308 at each node sums to inf over more than 1.8 units of volume
        low, high = self._RULES[name][-1]
        for rule in self._rules(name):
            sums = self._sums(lambda s: np.full(len(s), 1e308), rule, name)
            assert low < sums[0] < high and sums[1] == np.inf

    def test_a_monte_carlo_rule_checks_each_value(self, monkeypatch):
        rule = _build_nodes(_MC_BOX, _MC_HS, QuadConfig(sample_count=2000), None)
        assert rule.coarse is None and rule.line is not None
        checked = []
        check = quadrature._check_finite
        monkeypatch.setattr(quadrature, "_check_finite", lambda v, pts: checked.append(v.size) or check(v, pts))
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


_H1 = heisenberg_group(1)
_T_AXIS = halfspace_preset(3, "t-axis", 0.0)
# not a round ball: the boundary-graded rule integrates a ball inside the
# half-space on a rule of its own, which has no unmasked twin
_INTERIOR = BumpSpec(center=(0.1, -0.2, 0.8), radius=0.5, powers=(2, 4, 2))
_ON_BOUNDARY = boundary_bump_spec(_T_AXIS, 0.6)
_TRIALS = {
    "bump": lambda spec: make_bump(spec),
    "ground": lambda spec: ground_transform(make_bump(spec), _T_AXIS, 3.0),
    "sharpness": lambda spec: sharpness_trial(SharpnessSpec(p=2.0, eps=0.2, cutoff=spec), _T_AXIS),
    "scaled": lambda spec: make_bump(spec).scaled(7.0),
}
# the support's chord window in s = dist**(1/m) moves with the points per
# axis (panels, and the coarse companion at half of them) and with m
_RULES = {
    "ppa10": QuadConfig(points_per_axis=10),
    "ppa7": QuadConfig(points_per_axis=7),
    "m2": QuadConfig(points_per_axis=10, grading_exponent=2.0),
}


# each has a factor of u or grad u, so it is exactly 0.0 outside u.support
_INTEGRANDS = [
    lambda s: np.sum(s.grad**2, axis=1),
    lambda s: (np.abs(s.u) / s.dist) ** 2,
    lambda s: np.exp(s.points[:, 0]) * s.u,
]


class TestSupportMask:
    @pytest.mark.parametrize("box_kind", ["interior", "boundary"])
    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize("trial", sorted(_TRIALS))
    def test_masked_equals_unmasked(self, trial, rule, box_kind):
        u = _TRIALS[trial](_INTERIOR if box_kind == "interior" else _ON_BOUNDARY)
        assert u.support is not None
        cfg = _RULES[rule]
        masked = integrate_many(_INTEGRANDS, u.support_box, _T_AXIS, cfg, trial=(_H1, u))
        plain = integrate_many(
            _INTEGRANDS, u.support_box, _T_AXIS, cfg, trial=(_H1, _without_support(u))
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
        assert np.all(u.support(pts))
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
        # every node carries weight: 8^2 lines of 16 s-nodes fine, 4^2 of 8 coarse
        assert sum(seen) == 8**2 * 16 + 4**2 * 8
        assert est.evaluations == 8**2 * 16

    def test_infinite_p_fails_at_the_same_point(self):
        # |grad_H u|^inf overflows inside the support; the first such node is
        # the same whether or not the nodes outside it are skipped
        h1 = heisenberg_group(1)
        u = make_bump(_INTERIOR)
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
    lambda s: (np.abs(s.u) / s.dist) ** 2,
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
    powers = draw(st.lists(st.sampled_from([2, 4]), min_size=n, max_size=n))
    nu = np.array(draw(st.lists(_unit, min_size=n, max_size=n)))
    if np.linalg.norm(nu) < 0.1:
        nu[draw(st.integers(0, n - 1))] = 1.0
    nu = nu / np.linalg.norm(nu)
    # shift < -sqrt(n) puts the whole support box inside the half-space;
    # near 0 the boundary crosses the bump
    shift = draw(st.floats(-3.0, 0.9))
    hs = HalfSpace(nu=nu, d=float(nu @ center) + shift * radius)
    if k < 3 and shift < -0.9:
        # a round ball inside the half-space would take the ball rule, which
        # has no unclipped twin: make it a bump of another shape
        powers[draw(st.integers(0, n - 1))] = 4
    u = make_bump(BumpSpec(center=tuple(center), radius=radius, powers=tuple(powers)))
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
    make_bump(
        BumpSpec(
            center=(0.15, -1.0, 0.02, -0.95, -0.78, 0.69, 0.32, -0.64, 0.49),
            radius=0.43,
            powers=(2, 2, 2, 4, 4, 2, 4, 2, 4),
        )
    ),
    QuadConfig(sample_count=817, seed=31),
)


class TestClipToSupport:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_clip_cases())
    @example(_H4_CASE)
    def test_clipped_equals_unclipped(self, case):
        spec, hs, u, cfg = case
        clipped = integrate_many(_CLIP_INTEGRANDS, u.support_box, hs, cfg, trial=(spec, u))
        plain = integrate_many(
            _CLIP_INTEGRANDS, u.support_box, hs, cfg, trial=(spec, _without_support(u))
        )
        _assert_close(clipped, plain)

    # heisenberg:1 at the default rule, heisenberg:2 at 8 points per axis
    @pytest.mark.parametrize("k, ppa", [(1, 16), (2, 8)])
    def test_interior_bump_builds_only_nodes_inside_the_support(self, k, ppa):
        n = 2 * k + 1
        # not a round ball, which would take the ball rule
        u = make_bump(BumpSpec(center=(0.1,) * (n - 1) + (0.8,), radius=0.5, powers=(2,) * (n - 1) + (4,)))
        hs = halfspace_preset(n, "t-axis", 0.0)
        cfg = QuadConfig(points_per_axis=ppa)
        full = _build_nodes(u.support_box, hs, cfg, None)
        clipped = _build_nodes(u.support_box, hs, cfg, u.support)
        for rule, frule in [(clipped, full), (clipped.coarse, full.coarse)]:
            pts, w, size = rule.points, rule.weights, rule.size
            fpts, fw, fsize = frule.points, frule.weights, frule.size
            # every node of the full rule lies inside the half-space
            assert size == fsize == len(fpts) and len(pts) < size
            # the nodes built are those of the full rule, bit for bit, and
            # the ones left out all lie outside the support
            at = _matching_rows(pts, fpts)
            assert np.array_equal(fw[at], w) and np.array_equal(frule.dist[at], rule.dist)
            dropped = np.setdiff1d(np.arange(len(fpts)), at)
            assert dropped.size > 0 and not np.any(u.support(fpts[dropped]))
            # the lines are clipped to their chords: no node outside the bump
            assert np.all(u.support(pts))
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
        assert len(ns.points) == 0 and len(ns.coarse.points) == 0 and ns.size > 0
        with pytest.raises(ValueError, match="trivial"):
            each_p(HARDY, h2, hs, u, [2.0], cfg)

    # at a power of 1e5, an ulp of z is 1e5 ulps of |z|^q: the margin on
    # 1 - R then falls short, and the one on the half-width holds
    @pytest.mark.parametrize("q", [2, 4, 6, 100_000])
    @pytest.mark.parametrize("far", [0.0, 1e3, 1e5])
    @pytest.mark.filterwarnings("ignore:overflow encountered in power")
    def test_chord_holds_every_live_point_of_its_line(self, rng, q, far):
        # far from the origin, x - c and c +- the half-width round to ulps
        # of |c|, far coarser than the half-width's own rounding
        center = np.array([0.2, -0.1, 0.5]) + far * np.array([1.0, -0.7, 0.4])
        radius = 0.4
        support = make_bump(BumpSpec(center=tuple(center), radius=radius, powers=(q, 2, q))).support
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
                    live = support(on_line(mid))
                    a, b = np.where(live, mid, a), np.where(live, b, mid)
                ends.append(a)
            for x in [*np.repeat(along[:, None], len(pts), axis=1), *ends]:
                live = support(on_line(x))
                assert np.all(meets[live])
                assert np.all((lo[live] <= x[live]) & (x[live] <= hi[live]))
            # each end is the outermost live float where the centre is live
            centre_live = support(on_line(np.full(len(pts), center[axis])))
            for end, side in zip(ends, (-np.inf, np.inf)):
                assert np.array_equal(support(on_line(end)), centre_live)
                assert not np.any(support(on_line(np.nextafter(end, side))))
            # a line that misses the support has lo > hi and no live point
            miss = np.sum(np.abs(np.delete(pts - center, axis, axis=1) / radius) ** q, axis=1) > 1.001
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


def _boundary_trial(k, powers=None):
    n = 2 * k + 1
    hs = halfspace_preset(n, "t-axis", 0.0)
    u = make_bump(boundary_bump_spec(hs, 0.7, powers=powers))
    return hs, u, (_GROUPS[k], u)


class TestManyIntegrands:
    @pytest.mark.parametrize(
        "k, cfg", [(2, QuadConfig(points_per_axis=4)), (3, QuadConfig(sample_count=3000))]
    )
    def test_sixteen_integrands_in_one_call_are_each_alone(self, k, cfg):
        hs, u, trial = _boundary_trial(k, powers=(2, 4) * k + (2,))
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
        assert rule.coarse is None and 0 < np.unique(rule.line).size < rule.lines
        contrib = rule.weights * f(sample_trial(_GROUPS[k], hs, u, rule.points, rule.dist))
        # every line of the full rule, 0.0 where the rule built no node
        full = np.zeros(rule.lines)
        np.add.at(full, rule.line, contrib)
        stderr = np.sqrt(rule.lines) * np.std(full, ddof=1)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        assert est.value == pytest.approx(np.sum(full), rel=1e-12, abs=0.0)


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
        assert cached.coarse is None and fresh.lines == cached.lines
        for a, b in zip(fresh[:3] + (fresh.line,), cached[:3] + (cached.line,)):
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


def _interior_ball(k, clearance=0.3, radius=0.45, powers=None):
    """heisenberg:k, its t-axis half-space and a bump whose support ball
    clears the boundary by ``clearance``."""
    n = 2 * k + 1
    hs = halfspace_preset(n, "t-axis", 0.0)
    spec = BumpSpec(center=(0.1, -0.2) * k + (radius + clearance,), radius=radius, powers=powers)
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
        hs = HalfSpace(nu=np.eye(dim)[-1], d=0.0)
        center = np.full(dim, 0.1)
        center += (0.5 - float(hs.distance(center))) * hs.nu
        u = make_bump(BumpSpec(center=tuple(center), radius=0.4))
        assert _takes_ball(u.support_box, hs, u.support, QuadConfig())
        # from 6 dimensions on only from 16 points per axis
        cfg = QuadConfig(points_per_axis=8 if dim <= 5 else 16)
        rule = _build_nodes(u.support_box, hs, cfg, u.support)
        for r in (rule, rule.coarse):
            # every node lies inside the support, and off the boundary
            assert r.size == len(r.points) == len(r.dist) == len(r.weights)
            assert np.all(r.dist > 0.0) and np.array_equal(r.dist, hs.distance(r.points))
            assert np.all(u.support(r.points)) and np.all(r.weights > 0.0)
            # the weights add up to the volume of the ball
            volume = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * 0.4**dim
            assert np.sum(r.weights) == pytest.approx(volume, rel=1e-13)
        assert rule.coarse.coarse is None and rule.coarse.size < rule.size
        if dim >= 6:
            # 24 radii x (2 dim + 2^dim) directions of degree 5, and
            # 12 x 2 dim of degree 3 on the companion; at 32 points per axis
            # twice the radii, the companion still of degree 3, where
            # sample_count admits that many nodes
            assert rule.size == 24 * (2 * dim + 2**dim) and rule.coarse.size == 12 * 2 * dim
            size = 48 * (2 * dim + 2**dim)
            finer = QuadConfig(points_per_axis=32, sample_count=size)
            rule = _build_nodes(u.support_box, hs, finer, u.support)
            assert rule.size == size and rule.coarse.size == 24 * 2 * dim
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

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_templates_are_cached_up_to_the_cap(self, k):
        # heisenberg:2's 62,208 x 5 and heisenberg:3's 3,408 x 7 are kept,
        # heisenberg:6's 197,232 x 13 (21 MB) is not
        spec, hs, u = _interior_ball(k)
        _cached_unit_ball.cache_clear()
        try:
            first = _build_nodes(u.support_box, hs, QuadConfig(), u.support)
            again = _build_nodes(u.support_box, hs, QuadConfig(), u.support)
            assert _takes_ball(u.support_box, hs, u.support, QuadConfig())
            assert np.array_equal(first.points, again.points)
            info = _cached_unit_ball.cache_info()
            if k == 6:
                assert first.size == 197_232 and info.currsize == 1  # the companion's only
            else:
                assert info.currsize == 2 and info.hits == 2
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
            "powers (2, 4, 2)",
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
        elif why == "powers (2, 4, 2)":
            spec, hs, u = _interior_ball(1, powers=(2, 4, 2))
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
            u = sharpness_trial(SharpnessSpec(p=2.0, eps=0.2, cutoff=boundary_bump_spec(hs, 0.45)), hs)
            box, support = u.support_box, u.support
        assert not _takes_ball(box, hs, support, cfg)
        rule = _build_nodes(box, hs, cfg, support)
        graded = _build_boundary_graded(box, hs, cfg, support)
        pairs = [(rule, graded)] if rule.coarse is None else [(rule, graded), (rule.coarse, graded.coarse)]
        for a, b in pairs:
            for x, y in zip(a[:3], b[:3]):
                assert np.array_equal(x, y)
            assert a.size == b.size
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
        u = sharpness_trial(SharpnessSpec(p=3.0, eps=0.1, cutoff=boundary_bump_spec(hs, 1.0)), hs)
        assert not _takes_ball(u.support_box, hs, u.support, QuadConfig())


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

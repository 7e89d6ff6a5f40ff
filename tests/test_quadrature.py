import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    hardy_quotient,
    heisenberg_group,
    integrate_many,
    make_bump,
    sample_trial,
    sharpness_trial,
)
from strathardy.quadrature import _build_nodes, _philox_uniform, _s_window


UNIT_BOX = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])


def far_halfspace(dim=3):
    # contains every box used here, so clipping never bites
    return HalfSpace(nu=np.r_[1.0, np.zeros(dim - 1)], d=-100.0)


class TestConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.method == "boundary-graded"
        assert cfg.points_per_axis == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "simpson"},
            {"points_per_axis": 1},
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
            integrate_many([lambda p: p[:, 0]], np.array([[0.0, 1.0, 2.0]]), far_halfspace(), cfg)
        with pytest.raises(ValueError):
            integrate_many([lambda p: p[:, 0]], np.array([[1.0, 0.0]]), far_halfspace(), cfg)


class TestTensorGauss:
    def test_polynomial_exactness(self):
        cfg = QuadConfig(method="tensor-gauss", points_per_axis=6)
        est = integrate_many(
            [lambda p: p[:, 0] ** 4 * p[:, 1] ** 2 + p[:, 2]],
            UNIT_BOX,
            far_halfspace(),
            cfg,
        )[0]
        assert est.value == pytest.approx(1.0 / 15.0 + 0.5, rel=1e-14)
        assert est.evaluations == 6**3

    def test_interior_clipping_converges(self):
        hs = halfspace_preset(3, "x1-axis", 0.5)
        exact = 0.5  # volume of the clipped unit box
        coarse = integrate_many(
            [lambda p: np.ones(len(p))], UNIT_BOX, hs, QuadConfig(method="tensor-gauss", points_per_axis=8)
        )[0]
        fine = integrate_many(
            [lambda p: np.ones(len(p))], UNIT_BOX, hs, QuadConfig(method="tensor-gauss", points_per_axis=64)
        )[0]
        assert abs(fine.value - exact) < abs(coarse.value - exact) + 1e-12
        assert abs(fine.value - exact) < 5e-3


class TestBoundaryGraded:
    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_axis_aligned_power(self, gamma):
        # dist = t over [0,1]^3 against the t-axis: integral is 1/(gamma+1)
        hs = halfspace_preset(3, "t-axis", 0.0)
        cfg = QuadConfig(points_per_axis=16)
        est = integrate_many([lambda p: hs.distance(p) ** gamma], UNIT_BOX, hs, cfg)[0]
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
        est = integrate_many([lambda p: hs.distance(p) ** gamma], UNIT_BOX, hs, cfg)[0]
        assert abs(est.value - exact) < 2e-3 * abs(exact)

    def test_offset_boundary(self):
        hs = halfspace_preset(3, "t-axis", 0.25)
        cfg = QuadConfig(points_per_axis=16)
        est = integrate_many([lambda p: hs.distance(p) ** -0.5], UNIT_BOX, hs, cfg)[0]
        assert abs(est.value - 2.0 * np.sqrt(0.75)) < 2e-3

    def test_detached_box_needs_no_grading(self):
        # boundary far below the box: plain smooth integration must be sharp
        hs = halfspace_preset(3, "t-axis", -3.0)
        est = integrate_many(
            [lambda p: np.exp(p[:, 2])], UNIT_BOX, hs, QuadConfig(points_per_axis=12)
        )[0]
        assert est.value == pytest.approx(np.e - 1.0, rel=1e-9)

    def test_box_outside_halfspace_is_zero(self):
        hs = halfspace_preset(3, "t-axis", 5.0)
        est = integrate_many([lambda p: np.ones(len(p))], UNIT_BOX, hs, QuadConfig())[0]
        assert est.value == 0.0 and est.stderr == 0.0
        assert est.evaluations > 0

    def test_nodes_stay_strictly_inside(self):
        hs = HalfSpace(nu=np.array([0.3, -0.4, 0.866]), d=0.1)
        seen = []

        def spy(p):
            seen.append(p)
            return np.ones(len(p))

        integrate_many([spy], np.array([[-1, 1], [-1, 1], [-1, 1]], float), hs, QuadConfig())
        pts = np.concatenate(seen)
        assert pts.size > 0
        assert np.min(hs.distance(pts)) > 0.0

    def test_nodes_on_the_boundary_to_rounding_carry_no_weight(self):
        # an oblique normal with a vanishing offset: at small s most nodes'
        # <x, nu> cancels to 0, so their recomputed distance is |d|, not
        # s**m, and dist**-2 there overflows
        nu = np.zeros(7)
        nu[[3, 6]] = np.sqrt(0.5)
        hs = HalfSpace(nu=nu, d=-1e-171)
        box = np.tile([-0.5, 0.5], (7, 1))
        cfg = QuadConfig(sample_count=64)
        rule = _build_nodes(box, hs, cfg, None)
        dist = hs.distance(rule.points[rule.weights != 0.0])
        assert dist.size > 0 and np.min(dist) > 1e-100
        (est,) = integrate_many([lambda p: hs.distance(p) ** -2.0], box, hs, cfg)
        assert np.isfinite(est.value)

    def test_grading_exponent_one_still_works(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        cfg = QuadConfig(grading_exponent=1.0)
        est = integrate_many([lambda p: hs.distance(p)], UNIT_BOX, hs, cfg)[0]
        assert est.value == pytest.approx(0.5, rel=1e-6)

    def test_high_dimension_uses_monte_carlo_transverse(self):
        # 7 coordinates: transverse plane has 6 axes, beyond the tensor cap
        hs = halfspace_preset(7, "t-axis", 0.0)
        box = np.tile([0.0, 1.0], (7, 1))
        cfg = QuadConfig(points_per_axis=8, sample_count=20_000)
        est = integrate_many([lambda p: hs.distance(p) ** -0.5 * p[:, 0]], box, hs, cfg)[0]
        assert est.stderr > 0.0
        assert abs(est.value - 1.0) < max(4.0 * est.stderr, 2e-2)


class TestMonteCarlo:
    def test_value_within_error_bars(self):
        cfg = QuadConfig(method="monte-carlo", sample_count=200_000, seed=3)
        hs = halfspace_preset(3, "x1-axis", 0.5)
        est = integrate_many([lambda p: p[:, 0]], UNIT_BOX, hs, cfg)[0]
        exact = 0.375
        assert abs(est.value - exact) < 4.0 * est.stderr
        assert est.evaluations == 200_000

    def test_stderr_scales_with_samples(self):
        hs = far_halfspace()
        errs = {}
        for count in (20_000, 80_000):
            vals = []
            for seed in range(8):
                cfg = QuadConfig(method="monte-carlo", sample_count=count, seed=seed)
                vals.append(integrate_many([lambda p: np.sin(p).sum(axis=1)], UNIT_BOX, hs, cfg)[0].stderr)
            errs[count] = np.mean(vals)
        ratio = errs[80_000] / errs[20_000]
        assert 0.35 < ratio < 0.65

    def test_deterministic(self):
        cfg = QuadConfig(method="monte-carlo", sample_count=30_000, seed=11)
        hs = far_halfspace()
        a = integrate_many([lambda p: np.cos(p[:, 0] * p[:, 1])], UNIT_BOX, hs, cfg)[0]
        b = integrate_many([lambda p: np.cos(p[:, 0] * p[:, 1])], UNIT_BOX, hs, cfg)[0]
        assert a == b

    def test_seed_changes_value(self):
        hs = far_halfspace()
        ests = [
            integrate_many(
                [lambda p: np.cos(p[:, 0])],
                UNIT_BOX,
                hs,
                QuadConfig(method="monte-carlo", sample_count=5_000, seed=s),
            )[0].value
            for s in (1, 2)
        ]
        assert ests[0] != ests[1]


class TestSharedNodes:
    def test_pair_reuses_nodes(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        f = lambda p: hs.distance(p) ** -0.3
        a, b = integrate_many([f, f], UNIT_BOX, hs, QuadConfig())
        assert a.value == b.value and a.stderr == b.stderr

    def test_linearity_on_shared_nodes(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        f = lambda p: hs.distance(p) ** -0.4
        g = lambda p: np.exp(p[:, 0]) * hs.distance(p) ** 0.5
        fg = lambda p: f(p) + g(p)
        ef, eg, efg = integrate_many([f, g, fg], UNIT_BOX, hs, QuadConfig())
        assert abs(efg.value - (ef.value + eg.value)) < 1e-12 * (
            abs(ef.value) + abs(eg.value)
        )

    def test_doubling_is_exact(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        f = lambda p: hs.distance(p) ** -0.4
        e1, e2 = integrate_many([f, lambda p: 2.0 * f(p)], UNIT_BOX, hs, QuadConfig())
        assert e2.value == 2.0 * e1.value

    def test_deterministic_across_runs(self):
        hs = HalfSpace(nu=np.array([0.5, 0.5, np.sqrt(0.5)]), d=0.05)
        cfg = QuadConfig(points_per_axis=12)
        f = lambda p: hs.distance(p) ** -0.5
        assert integrate_many([f], UNIT_BOX, hs, cfg) == integrate_many([f], UNIT_BOX, hs, cfg)


class TestFailureModes:
    def test_nonfinite_names_the_point(self):
        hs = halfspace_preset(3, "t-axis", 0.0)

        def bad(p):
            out = np.ones(len(p))
            out[p[:, 0] > 0.7] = np.inf
            return out

        with pytest.raises(IntegrationError) as err:
            integrate_many([bad], UNIT_BOX, hs, QuadConfig(points_per_axis=8))
        assert err.value.point is not None
        assert err.value.point.shape == (3,)
        assert "non-finite" in str(err.value)

    def test_wrong_output_shape_rejected(self):
        hs = far_halfspace()
        with pytest.raises((ValueError, IntegrationError)):
            integrate_many([lambda p: np.ones((len(p), 2))], UNIT_BOX, hs, QuadConfig())


class TestNodeBudget:
    # each request is rejected from its node count, before any allocation
    @pytest.mark.parametrize(
        "dim, cfg",
        [
            (3, QuadConfig(method="tensor-gauss", points_per_axis=300)),
            (3, QuadConfig(method="monte-carlo", sample_count=20_000_001)),
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
            integrate_many([lambda p: np.ones(len(p))], box, hs, cfg)

    def test_h2_default_is_far_under_budget(self):
        # the largest default rule: 16^4 x 32 nodes, plus the coarse companion
        hs = halfspace_preset(5, "t-axis", -1.0)
        box = np.tile([0.0, 1.0], (5, 1))
        est = integrate_many([lambda p: np.ones(len(p))], box, hs, QuadConfig())[0]
        assert est.evaluations == 16**4 * 32


def _bits(est):
    return (est.value.hex(), est.stderr.hex(), est.evaluations)


def _without_support(u):
    return ScalarField(u.dim, fn=u.values, grad_fn=u.gradients, support_box=u.support_box)


_H1 = heisenberg_group(1)
_T_AXIS = halfspace_preset(3, "t-axis", 0.0)
_INTERIOR = BumpSpec(center=(0.1, -0.2, 0.8), radius=0.5)
_ON_BOUNDARY = boundary_bump_spec(_T_AXIS, 0.6)
_TRIALS = {
    "bump": lambda spec: make_bump(spec),
    "ground": lambda spec: ground_transform(make_bump(spec), _T_AXIS, 3.0),
    "sharpness": lambda spec: sharpness_trial(SharpnessSpec(p=2.0, eps=0.2, cutoff=spec), _T_AXIS),
    "scaled": lambda spec: make_bump(spec).scaled(7.0),
}
_RULES = {
    "tensor-gauss": QuadConfig(method="tensor-gauss", points_per_axis=12),
    "monte-carlo": QuadConfig(method="monte-carlo", sample_count=20_000, seed=5),
    "boundary-graded": QuadConfig(points_per_axis=10),
}


# each has a factor of u or grad u, so it is exactly 0.0 outside u.support
_INTEGRANDS = [
    lambda s: np.sum(s.grad**2, axis=1),
    lambda s: (np.abs(s.u) / s.dist) ** 2,
    lambda s: np.exp(s.points[:, 0]) * s.u,
]


def _on_points(f, u):
    """The sample integrand f as an integrand over raw points."""
    return lambda p: f(sample_trial(_H1, _T_AXIS, u, p))


class TestSupportMask:
    @pytest.mark.parametrize("box_kind", ["interior", "boundary"])
    @pytest.mark.parametrize("rule", sorted(_RULES))
    @pytest.mark.parametrize("trial", sorted(_TRIALS))
    def test_masked_equals_unmasked_bitwise(self, trial, rule, box_kind):
        u = _TRIALS[trial](_INTERIOR if box_kind == "interior" else _ON_BOUNDARY)
        assert u.support is not None
        cfg = _RULES[rule]
        masked = integrate_many(_INTEGRANDS, u.support_box, _T_AXIS, cfg, trial=(_H1, u))
        plain = integrate_many(
            [_on_points(f, u) for f in _INTEGRANDS], u.support_box, _T_AXIS, cfg
        )
        assert [_bits(e) for e in masked] == [_bits(e) for e in plain]
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

        cfg = QuadConfig(method="tensor-gauss", points_per_axis=8)
        (est,) = integrate_many([spy], UNIT_BOX, far_halfspace(), cfg, trial=(_H1, f))
        # every node carries weight: 8^3 fine and 4^3 coarse
        assert sum(seen) == 8**3 + 4**3
        assert est.evaluations == 8**3

    def test_infinite_p_fails_at_the_same_point(self):
        # |grad_H u|^inf overflows inside the support; the first such node is
        # the same whether or not the nodes outside it are skipped
        h1 = heisenberg_group(1)
        u = make_bump(_INTERIOR)
        cfg = QuadConfig(points_per_axis=8)
        with pytest.raises(IntegrationError) as masked:
            hardy_quotient(h1, _T_AXIS, u, np.inf, cfg)
        with pytest.raises(IntegrationError) as plain:
            hardy_quotient(h1, _T_AXIS, _without_support(u), np.inf, cfg)
        assert masked.value.point is not None
        assert np.array_equal(masked.value.point, plain.value.point)


# heisenberg:1 and :2 take the deterministic transverse branch, :3 the
# Monte Carlo one
_GROUPS = {k: heisenberg_group(k) for k in (1, 2, 3)}
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
    u = make_bump(BumpSpec(center=tuple(center), radius=radius, powers=tuple(powers)))
    if k == 3:
        cfg = QuadConfig(sample_count=draw(st.integers(64, 3000)), seed=draw(st.integers(0, 99)))
    else:
        cfg = QuadConfig(points_per_axis=draw(st.integers(2, 7 if k == 1 else 4)))
    return _GROUPS[k], hs, u, cfg


class TestClipToSupport:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_clip_cases())
    def test_clipped_equals_unclipped_bitwise(self, case):
        spec, hs, u, cfg = case
        clipped = integrate_many(_CLIP_INTEGRANDS, u.support_box, hs, cfg, trial=(spec, u))
        plain = integrate_many(
            _CLIP_INTEGRANDS, u.support_box, hs, cfg, trial=(spec, _without_support(u))
        )
        assert [_bits(e) for e in clipped] == [_bits(e) for e in plain]

    # heisenberg:1 at the default rule, heisenberg:2 at 8 points per axis
    @pytest.mark.parametrize("k, ppa", [(1, 16), (2, 8)])
    def test_interior_bump_builds_only_nodes_inside_the_support(self, k, ppa):
        n = 2 * k + 1
        u = make_bump(BumpSpec(center=(0.1,) * (n - 1) + (0.8,), radius=0.5))
        hs = halfspace_preset(n, "t-axis", 0.0)
        cfg = QuadConfig(points_per_axis=ppa)
        full = _build_nodes(u.support_box, hs, cfg, None)
        clipped = _build_nodes(u.support_box, hs, cfg, u.support)
        for rule, frule in [(clipped, full), (clipped.coarse, full.coarse)]:
            pts, w, index, size = rule.points, rule.weights, rule.index, rule.size
            fpts, fw, findex, fsize = frule.points, frule.weights, frule.index, frule.size
            assert size == fsize and len(pts) < size
            # the nodes built are those of the full rule, bit for bit, and
            # the ones left out all lie outside the support
            at = np.searchsorted(findex, index)
            assert np.array_equal(findex[at], index)
            assert np.array_equal(fpts[at], pts) and np.array_equal(fw[at], w)
            dropped = np.setdiff1d(np.arange(len(fpts)), at)
            assert dropped.size > 0 and not np.any(u.support(fpts[dropped]))
            # the lines are clipped to their chords: no node outside the bump
            assert np.all(u.support(pts))
        (est,) = integrate_many([lambda s: s.u], u.support_box, hs, cfg, trial=(_GROUPS[k], u))
        assert est.evaluations == full.size

    def test_no_line_meets_the_support(self):
        # 2 points per axis on four transverse axes: every line passes at
        # 2/sqrt(3) radii from the center, outside the ball, and the box
        # touches the boundary, so the graded panels get zero rows
        h2 = _GROUPS[2]
        hs = halfspace_preset(h2, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0,) * 5, radius=0.5))
        cfg = QuadConfig(points_per_axis=2)
        ns = _build_nodes(u.support_box, hs, cfg, u.support)
        assert len(ns.points) == 0 and len(ns.coarse.points) == 0 and ns.size > 0
        with pytest.raises(ValueError, match="trivial"):
            hardy_quotient(h2, hs, u, 2.0, cfg)

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


class TestSharedRowBuffer:
    @pytest.mark.parametrize(
        "k, cfg", [(2, QuadConfig(points_per_axis=4)), (3, QuadConfig(sample_count=3000))]
    )
    def test_sixteen_integrands_in_one_call_are_each_alone(self, k, cfg):
        n = 2 * k + 1
        hs = halfspace_preset(n, "t-axis", 0.0)
        u = make_bump(boundary_bump_spec(hs, 0.7, powers=(2, 4) * k + (2,)))
        trial = (_GROUPS[k], u)
        together = integrate_many(_MANY, u.support_box, hs, cfg, trial=trial)
        alone = [integrate_many([f], u.support_box, hs, cfg, trial=trial)[0] for f in _MANY]
        assert [_bits(e) for e in together] == [_bits(e) for e in alone]
        assert len({_bits(e) for e in together}) == len(_MANY)


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
        assert cached.coarse is None and fresh.group_size == cached.group_size
        for a, b in zip(fresh[:4], cached[:4]):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
        hits = _philox_uniform.cache_info().hits
        _build_nodes(u.support_box, hs, cfg, u.support)
        assert _philox_uniform.cache_info().hits == hits + 1

import numpy as np
import pytest

from strathardy import (
    BumpSpec,
    HalfSpace,
    QuadConfig,
    ScalarField,
    beta_form_coefficient,
    beta_star,
    bft_fuzz,
    boundary_bump_spec,
    distance_field,
    general_hardy_margin,
    group_from_table,
    halfspace_preset,
    hardy_quotient,
    hardy_sobolev_ratio,
    integrate_many,
    luan_young_check,
    make_bump,
    p_sub_laplacian_fd_many,
    remainder_check,
    remainder_constant,
    sharp_hardy_constant,
    sharpness_sweep,
    sharpness_trial,
    SharpnessSpec,
    sobolev_exponent,
)


@pytest.fixture
def interior_bump():
    return make_bump(BumpSpec(center=(0.2, -0.1, 0.8), radius=0.45))


@pytest.fixture
def fast_cfg():
    return QuadConfig(points_per_axis=10)


class TestConstants:
    def test_sharp_constant_p2(self):
        assert sharp_hardy_constant(2.0) == 0.25

    def test_sharp_constant_general(self):
        assert abs(sharp_hardy_constant(3.0) - 8.0 / 27.0) < 1e-15
        assert abs(sharp_hardy_constant(1.5) - (1.0 / 3.0) ** 1.5) < 1e-15

    def test_beta_star_p2(self):
        assert beta_star(2.0) == -0.5

    def test_remainder_constant(self):
        assert remainder_constant(2.0) == 1.0
        assert remainder_constant(3.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_sobolev_exponent(self):
        assert sobolev_exponent(2.0, 4.0) == 4.0
        assert sobolev_exponent(3.0, 6.0) == 6.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 7.0])
    def test_beta_form_peak(self, p):
        # at beta = beta_star the coefficient equals the sharp constant
        got = beta_form_coefficient(p, beta_star(p))
        assert abs(got - sharp_hardy_constant(p)) < 1e-14

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_beta_form_below_peak_elsewhere(self, p):
        star = beta_star(p)
        for beta in (star - 0.3, star + 0.2, star * 2):
            assert beta_form_coefficient(p, beta) < sharp_hardy_constant(p)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sharp_hardy_constant(1.0)
        with pytest.raises(ValueError):
            remainder_constant(1.5)
        with pytest.raises(ValueError):
            sobolev_exponent(1.5, 4.0)
        with pytest.raises(ValueError):
            sobolev_exponent(4.0, 4.0)


class TestHardyQuotient:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_interior_bump_beats_bound(self, h1, t_axis, interior_bump, fast_cfg, p):
        rep = hardy_quotient(h1, t_axis, interior_bump, p, fast_cfg)
        assert rep.margin > -rep.contract_tolerance()
        assert rep.quotient > 0
        assert rep.bound == sharp_hardy_constant(p)
        assert rep.evaluations > 0
        assert rep.inequality_id == "hardy"

    def test_abelian_quotient(self, r3, fast_cfg):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.9, 0.0, 0.0), radius=0.4))
        rep = hardy_quotient(r3, hs, u, 2.0, fast_cfg)
        assert rep.quotient >= 0.25 - rep.contract_tolerance()

    def test_trivial_trial_rejected(self, h1, t_axis, fast_cfg):
        outside = make_bump(BumpSpec(center=(0.0, 0.0, -2.0), radius=0.5))
        with pytest.raises(ValueError, match="trivial"):
            hardy_quotient(h1, t_axis, outside, 2.0, fast_cfg)

    def test_missing_box_rejected(self, h1, t_axis, fast_cfg):
        no_box = ScalarField(3, lambda pts: np.ones(len(pts)))
        with pytest.raises(ValueError):
            hardy_quotient(h1, t_axis, no_box, 2.0, fast_cfg)

    def test_dilation_covariance(self, h1, t_axis):
        # the quotient is invariant under u -> u o dilation for this weight
        from strathardy import dilate

        cfg = QuadConfig(points_per_axis=14)
        base_spec = BumpSpec(center=(0.2, -0.1, 0.8), radius=0.4)
        u = make_bump(base_spec)
        lam = 1.7

        def scaled_fn(pts):
            return u.values(dilate(h1, lam, pts))

        def scaled_grad(pts):
            inner = u.gradients(dilate(h1, lam, pts))
            return inner * np.array([lam, lam, lam * lam])

        lo, hi = u.support_box[:, 0], u.support_box[:, 1]
        box = np.stack([lo / [lam, lam, lam**2], hi / [lam, lam, lam**2]], axis=1)
        v = ScalarField(3, scaled_fn, grad_fn=scaled_grad, support_box=box)
        q0 = hardy_quotient(h1, t_axis, u, 2.0, cfg)
        q1 = hardy_quotient(h1, t_axis, v, 2.0, cfg)
        tol = 3 * (q0.stderr + q1.stderr) + 1e-3 * q0.quotient
        assert abs(q0.quotient - q1.quotient) < tol


class TestGeneralHardy:
    def test_reduces_to_sharp_at_beta_star(self, h1, t_axis, interior_bump, fast_cfg):
        rep = general_hardy_margin(h1, t_axis, interior_bump, 2.0, beta_star(2.0), fast_cfg)
        base = hardy_quotient(h1, t_axis, interior_bump, 2.0, fast_cfg)
        assert rep.extras["p_harmonic_distance"] is True
        assert rep.extras["t2_value"] == 0.0
        assert rep.bound == pytest.approx(0.25, abs=1e-15)
        assert rep.quotient == base.quotient
        assert rep.margin > -rep.contract_tolerance()

    @pytest.mark.parametrize("beta", [-1.5, -0.25, 0.6])
    def test_holds_off_peak(self, h1, t_axis, interior_bump, fast_cfg, beta):
        rep = general_hardy_margin(h1, t_axis, interior_bump, 2.0, beta, fast_cfg)
        assert rep.margin > -rep.contract_tolerance()
        assert rep.bound <= 0.25 + 1e-15

    def test_oblique_normal_still_p_harmonic(self, h1, fast_cfg, rng):
        nu = rng.normal(size=3)
        hs = HalfSpace(nu=nu, d=-0.3)
        u = make_bump(BumpSpec(center=(0.2, -0.1, 0.8), radius=0.45))
        rep = general_hardy_margin(h1, hs, u, 3.0, beta_star(3.0), fast_cfg)
        assert rep.extras["p_harmonic_distance"] is True

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_t2_term_when_distance_is_not_p_harmonic(self, p):
        # X1 = d/dx1 + x1 d/dt against the t-axis: S1 = 1 and S2 = x1^2, so the
        # t2 term is integrated; compare it with the finite-difference route
        skew = group_from_table(name="skew", strata_dims=(2, 1), table={(0, 2): "x1"})
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.1, 0.2, 0.8), radius=0.3))
        cfg = QuadConfig(points_per_axis=8)
        rep = general_hardy_margin(skew, hs, u, p, beta_star(p), cfg)
        assert rep.extras["p_harmonic_distance"] is False

        dist = distance_field(hs)
        (ref,) = integrate_many(
            [
                lambda pts: p_sub_laplacian_fd_many(skew, dist, pts, p)
                / hs.distance(pts) ** (p - 1.0)
                * np.abs(u.values(pts)) ** p
            ],
            u.support_box,
            hs,
            cfg,
        )
        assert ref.value > 0.0
        assert rep.extras["t2_value"] == pytest.approx(ref.value, rel=1e-8)


class TestRemainder:
    def test_p2_is_an_identity(self, h1, t_axis, interior_bump):
        # at p = 2 the energy equals the remainder integral exactly
        rep = remainder_check(h1, t_axis, interior_bump, 2.0, QuadConfig(points_per_axis=12))
        scale = abs(rep.extras["energy"]) + abs(rep.extras["remainder_integral"])
        assert abs(rep.margin) < 3 * rep.stderr + 1e-6 * scale

    def test_p3_has_positive_slack(self, h1, t_axis, interior_bump, fast_cfg):
        rep = remainder_check(h1, t_axis, interior_bump, 3.0, fast_cfg)
        assert rep.margin > 0
        assert rep.bound == remainder_constant(3.0)

    def test_rejects_p_below_two(self, h1, t_axis, interior_bump):
        with pytest.raises(ValueError):
            remainder_check(h1, t_axis, interior_bump, 1.5)


class TestSobolev:
    def test_positive_and_scale_invariant(self, h1, t_axis, interior_bump, fast_cfg):
        rep = hardy_sobolev_ratio(h1, t_axis, interior_bump, 2.0, fast_cfg)
        assert rep.quotient > 0
        assert rep.extras["p_star"] == 4.0
        scaled = hardy_sobolev_ratio(h1, t_axis, interior_bump.scaled(7.0), 2.0, fast_cfg)
        assert abs(scaled.quotient / rep.quotient - 1.0) < 1e-10

    def test_rejects_constant_inside_box(self, h1, t_axis, fast_cfg):
        # a flat positive field has zero energy numerator but positive
        # weighted mass, an inconsistent configuration the check must flag
        box = np.array([[0.1, 0.5], [0.1, 0.5], [0.1, 0.5]])
        flat = ScalarField(
            3,
            lambda pts: np.ones(len(pts)),
            grad_fn=lambda pts: np.zeros_like(pts),
            support_box=box,
        )
        with pytest.raises(ValueError, match="inconsistent"):
            hardy_sobolev_ratio(h1, t_axis, flat, 2.0, fast_cfg)

    def test_rejects_p_at_or_above_q(self, r3, fast_cfg):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.9, 0.0, 0.0), radius=0.4))
        with pytest.raises(ValueError):
            hardy_sobolev_ratio(r3, hs, u, 3.0, fast_cfg)


class TestLuanYoung:
    def test_quotient_at_least_one(self, h1, fast_cfg):
        u = make_bump(BumpSpec(center=(0.2, -0.1, 0.8), radius=0.45))
        rep = luan_young_check(h1, u, fast_cfg)
        assert rep.margin > -rep.contract_tolerance()
        assert rep.bound == 1.0

    def test_weight_matches_angle_route(self, h1, t_axis, rng):
        # (1/4) W^2 / dist^2 equals (|x|^2 + |y|^2) / t^2 on the t-axis cone
        from strathardy import angle_function_many

        pts = rng.uniform(0.2, 1.5, size=(50, 3))
        w = angle_function_many(h1, t_axis, pts)
        direct = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / pts[:, 2] ** 2
        assert np.allclose(0.25 * w**2 / t_axis.distance(pts) ** 2, direct, rtol=1e-14)

    def test_rejects_non_heisenberg(self, r3, fast_cfg):
        u = make_bump(BumpSpec(center=(0.9, 0.0, 0.0), radius=0.4))
        with pytest.raises(ValueError):
            luan_young_check(r3, u, fast_cfg)


class TestVectorInequality:
    def test_no_violations(self):
        rep = bft_fuzz(samples=50_000, seed=5)
        assert rep.quotient == 0.0
        assert rep.extras["worst_relative_defect"] >= -1e-12
        assert rep.evaluations == 50_000

    def test_deterministic(self):
        a = bft_fuzz(samples=10_000, seed=7)
        b = bft_fuzz(samples=10_000, seed=7)
        assert a.extras["worst_relative_defect"] == b.extras["worst_relative_defect"]

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            bft_fuzz(samples=100, p_range=(1.5, 3.0))

    def test_equality_cases_by_hand(self):
        # b = 0 and b = a are the two equality regimes at p = 2
        a = np.array([3.0, 4.0])
        for b in (np.zeros(2), a.copy()):
            lhs = np.linalg.norm(a + b) ** 2 - np.linalg.norm(a) ** 2
            rhs = np.linalg.norm(b) ** 2 + 2 * a @ b
            assert lhs == rhs


class TestSharpnessSweep:
    def test_quotients_decrease_toward_bound(self, h1):
        hs = halfspace_preset(h1, "x1-axis", 0.0)
        cutoff = boundary_bump_spec(hs, 1.0)
        reports = sharpness_sweep(h1, hs, 2.0, (0.4, 0.1), cutoff, QuadConfig(points_per_axis=12))
        assert [r.extras["eps"] for r in reports] == [0.4, 0.1]
        assert reports[0].quotient > reports[1].quotient > 0.25
        assert all(r.extras["label"] == "verification" for r in reports)

    def test_probe_role_off_axis(self, h1, t_axis):
        cutoff = BumpSpec(center=(0.0, 0.0, 0.0), radius=1.0)
        reports = sharpness_sweep(h1, t_axis, 2.0, (0.3,), cutoff, QuadConfig(points_per_axis=8))
        assert reports[0].extras["label"] == "probe"

    def test_trial_field_construction(self):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        u = sharpness_trial(SharpnessSpec(p=2.0, eps=0.5, cutoff=boundary_bump_spec(hs, 1.0)), hs)
        pts = np.array([[0.25, 0.0, 0.0]])
        assert u.values(pts)[0] > 0

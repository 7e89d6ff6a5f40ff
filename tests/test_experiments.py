import concurrent.futures
import tracemalloc
import weakref
from functools import partial
from itertools import product

import numpy as np
import pytest

from strathardy import (
    BumpSpec,
    BumpSupport,
    HalfSpace,
    IntegralEstimate,
    Polynomial,
    QuadConfig,
    ScalarField,
    beta_form_coefficient,
    beta_star,
    bft_fuzz,
    boundary_bump_spec,
    distance_field,
    group_from_name,
    group_from_table,
    halfspace_preset,
    hardy_sobolev_ratio,
    integrate_many,
    make_bump,
    p_sub_laplacian_fd_many,
    power_weighted_sample,
    remainder_constant,
    sample_trial,
    sharp_hardy_constant,
    sharpness_grid,
    SharpnessSpec,
    sobolev_exponent,
)
from strathardy import experiments
from strathardy.experiments import (
    GENERAL_HARDY,
    HARDY,
    LUAN_YOUNG,
    REMAINDER,
    SOBOLEV,
    TrivialTrialError,
    each_p,
)
from strathardy import quadrature
from strathardy.quadrature import IntegrationError, _build_nodes
from strathardy.streams import FUZZER, philox_chunks

from chain_rule import power_weighted_field


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
        ((rep,),) = each_p(HARDY, h1, t_axis, interior_bump, [p], fast_cfg)
        assert rep.margin > -rep.contract_tolerance()
        assert rep.quotient > 0
        assert rep.bound == sharp_hardy_constant(p)
        assert rep.evaluations > 0
        assert rep.inequality_id == "hardy"

    def test_abelian_quotient(self, r3, fast_cfg):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.9, 0.0, 0.0), radius=0.4))
        ((rep,),) = each_p(HARDY, r3, hs, u, [2.0], fast_cfg)
        assert rep.quotient >= 0.25 - rep.contract_tolerance()

    def test_trivial_trial_rejected(self, h1, t_axis, fast_cfg):
        outside = make_bump(BumpSpec(center=(0.0, 0.0, -2.0), radius=0.5))
        with pytest.raises(ValueError, match="trivial"):
            each_p(HARDY, h1, t_axis, outside, [2.0], fast_cfg)

    def test_missing_box_rejected(self, h1, t_axis, fast_cfg):
        no_box = ScalarField(3, lambda pts: np.ones(len(pts)))
        with pytest.raises(ValueError):
            each_p(HARDY, h1, t_axis, no_box, [2.0], fast_cfg)

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
        ((q0,),) = each_p(HARDY, h1, t_axis, u, [2.0], cfg)
        ((q1,),) = each_p(HARDY, h1, t_axis, v, [2.0], cfg)
        tol = 3 * (q0.stderr + q1.stderr) + 1e-3 * q0.quotient
        assert abs(q0.quotient - q1.quotient) < tol


class TestEachP:
    # on this bump (W |u| / dist)^300 underflows to a zero integral and
    # |grad_H u|^1000 overflows
    _SMALL = BumpSpec(center=(0.2, -0.1, 0.8), radius=0.15)

    def test_a_trivial_p_names_its_trial_and_p(self, h1, t_axis, fast_cfg):
        u = make_bump(self._SMALL)
        with pytest.raises(TrivialTrialError) as got:
            each_p(HARDY, h1, t_axis, u, [2.0, 300.0], fast_cfg)
        assert str(got.value).startswith(f"trivial trial function {u.label} at p 300.0: ")

    def test_an_overflow_names_the_trial_and_the_p_of_its_row(self, h1, t_axis, fast_cfg, integrations):
        u = make_bump(self._SMALL)
        with pytest.raises(IntegrationError) as got:
            each_p(HARDY, h1, t_axis, u, [2.0, 1000.0], fast_cfg)
        message = f"trial {u.label} at p 1000.0: integrand returned a non-finite value at point "
        assert str(got.value).startswith(message)
        assert got.value.point is not None and got.value.point.shape == (3,)
        assert integrations == [4]

    def test_no_p_integrates_nothing(self, h1, t_axis, fast_cfg):
        no_box = ScalarField(3, lambda pts: np.ones(len(pts)))
        assert each_p(HARDY, h1, t_axis, no_box, [], fast_cfg) == []

    def test_the_most_p_a_config_gives_take_one_integration(
        self, h1, t_axis, interior_bump, fast_cfg, integrations
    ):
        ps = [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5]
        rows = each_p(HARDY, h1, t_axis, interior_bump, ps, fast_cfg)
        assert [row.p for (row,) in rows] == ps and integrations == [16]


class TestSharedBases:
    @pytest.fixture
    def calls(self, monkeypatch):
        from strathardy import calculus, quadrature

        calls = {"sample": 0, "hgrad": 0, "w": 0, "pairings": 0, "squares": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(quadrature, "sample_trial", counting("sample", quadrature.sample_trial))
        monkeypatch.setattr(
            calculus, "horizontal_from_euclidean", counting("hgrad", calculus.horizontal_from_euclidean)
        )
        monkeypatch.setattr(calculus, "angle_function_many", counting("w", calculus.angle_function_many))
        monkeypatch.setattr(calculus, "field_pairings", counting("pairings", calculus.field_pairings))
        # W's squared pairings and |grad_H u|^2, each shared by both p
        monkeypatch.setattr(calculus, "_sum_squares", counting("squares", calculus._sum_squares))
        return calls

    # an interior bump takes the ball rule, one touching the boundary the
    # graded rule; each rule and its companion make one sample together
    _BUMPS = {
        True: BumpSpec(center=(0.2, -0.1, 0.8), radius=0.45),
        False: BumpSpec(center=(0.2, -0.1, 0.45), radius=0.45),
    }

    @pytest.mark.parametrize("interior", [True, False])
    def test_each_sample_computes_grad_h_u_and_w_once(self, h1, t_axis, interior, calls):
        each_p(HARDY, h1, t_axis, make_bump(self._BUMPS[interior]), (2.0, 3.0), QuadConfig())
        assert calls == {"sample": 1, "hgrad": 1, "w": 1, "pairings": 0, "squares": 2}

    # the split of both p reads one P a sample, and W is its norm
    @pytest.mark.parametrize("interior", [True, False])
    def test_remainder_evaluates_the_pairings_once_per_sample(self, h1, t_axis, interior, calls):
        each_p(REMAINDER, h1, t_axis, make_bump(self._BUMPS[interior]), (2.0, 3.0), QuadConfig())
        assert calls == {"sample": 1, "hgrad": 1, "w": 0, "pairings": 1, "squares": 2}


class TestGeneralHardy:
    def test_reduces_to_sharp_at_beta_star(self, h1, t_axis, interior_bump, fast_cfg):
        ((rep,),) = each_p(
            GENERAL_HARDY, h1, t_axis, interior_bump, [2.0], fast_cfg, betas=[beta_star(2.0)]
        )
        ((base,),) = each_p(HARDY, h1, t_axis, interior_bump, [2.0], fast_cfg)
        assert rep.extras["p_harmonic_distance"] is True
        assert rep.extras["t2_value"] == 0.0
        assert rep.bound == pytest.approx(0.25, abs=1e-15)
        assert rep.quotient == base.quotient
        assert rep.margin > -rep.contract_tolerance()

    @pytest.mark.parametrize("beta", [-1.5, -0.25, 0.6])
    def test_holds_off_peak(self, h1, t_axis, interior_bump, fast_cfg, beta):
        ((rep,),) = each_p(GENERAL_HARDY, h1, t_axis, interior_bump, [2.0], fast_cfg, betas=[beta])
        assert rep.margin > -rep.contract_tolerance()
        assert rep.bound <= 0.25 + 1e-15

    def test_oblique_normal_still_p_harmonic(self, h1, fast_cfg, rng):
        nu = rng.normal(size=3)
        hs = HalfSpace(nu=nu, d=-0.3)
        # inside the half-space: across its boundary the weight integral diverges
        u = make_bump(BumpSpec(center=tuple(hs.nu * (hs.d + 0.6)), radius=0.45))
        ((rep,),) = each_p(GENERAL_HARDY, h1, hs, u, [3.0], fast_cfg, betas=[beta_star(3.0)])
        assert rep.extras["p_harmonic_distance"] is True

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_t2_term_when_distance_is_not_p_harmonic(self, p):
        # X1 = d/dx1 + x1 d/dt against the t-axis: S1 = 1 and S2 = x1^2, so the
        # t2 term is integrated; compare it with the finite-difference route
        skew = group_from_table(name="skew", strata_dims=(2, 1), table={(0, 2): Polynomial.variable(3, 0)})
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.1, 0.2, 0.8), radius=0.3))
        cfg = QuadConfig(points_per_axis=8)
        ((rep,),) = each_p(GENERAL_HARDY, skew, hs, u, [p], cfg, betas=[beta_star(p)])
        assert rep.extras["p_harmonic_distance"] is False

        dist = distance_field(hs)
        (ref,) = integrate_many(
            [
                lambda s: p_sub_laplacian_fd_many(skew, dist, s.points, [p])[0]
                / s.dist ** (p - 1.0)
                * np.abs(u.values(s.points)) ** p
            ],
            u.support_box,
            hs,
            cfg,
            # on the trial's own rule, the ball rule of an interior bump
            trial=(skew, u),
        )
        assert ref.value > 0.0
        assert rep.extras["t2_value"] == pytest.approx(ref.value, rel=1e-8)


class TestRemainder:
    def test_p2_is_an_identity(self, h1, t_axis, interior_bump):
        # at p = 2 the energy equals the remainder integral exactly
        ((rep,),) = each_p(REMAINDER, h1, t_axis, interior_bump, [2.0], QuadConfig(points_per_axis=12))
        scale = abs(rep.extras["energy"]) + abs(rep.extras["remainder_integral"])
        assert abs(rep.margin) < 3 * rep.stderr + 1e-6 * scale

    def test_p3_has_positive_slack(self, h1, t_axis, interior_bump, fast_cfg):
        ((rep,),) = each_p(REMAINDER, h1, t_axis, interior_bump, [3.0], fast_cfg)
        assert rep.margin > 0
        assert rep.bound == remainder_constant(3.0)

    def test_rejects_p_below_two(self, h1, t_axis, interior_bump):
        with pytest.raises(ValueError):
            each_p(REMAINDER, h1, t_axis, interior_bump, [1.5])

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize(
        "group, nu, d",
        [
            ("heisenberg:1", (0.0, 0.0, 1.0), 0.0),
            ("heisenberg:1", (0.36, -0.48, 0.8), -0.2),
            ("heisenberg:2", (0.3, -0.2, 0.4, 0.1, 0.8), 0.1),
        ],
    )
    def test_the_split_integrates_as_the_ground_state_gradient(self, group, nu, d, p):
        # dist^(p-1) |grad_H v|^p with v = dist^(-(p-1)/p) u, the long way:
        # through the Euclidean gradient of v, then its horizontal form
        from strathardy import horizontal_from_euclidean

        spec, hs = group_from_name(group), HalfSpace(nu=nu, d=d)

        def ground_r_integrand(s):
            a = -(p - 1.0) / p
            da = s.dist**a
            grad_v = da[:, None] * s.grad + a * (da / s.dist)[:, None] * s.u[:, None] * hs.nu
            hor = horizontal_from_euclidean(spec, s.points, grad_v)
            return (s.dist ** ((p - 1.0) / p) * np.sqrt(np.sum(hor * hor, axis=1))) ** p

        center = tuple(np.asarray(hs.nu) * (hs.d + 0.5) + 0.1)
        u = make_bump(BumpSpec(center=center, radius=0.4))
        (rem, *_) = REMAINDER.integrands(spec, hs, p)
        cfg = QuadConfig(points_per_axis=8)
        split, ref = integrate_many([rem, ground_r_integrand], u.support_box, hs, cfg, trial=(spec, u))
        assert ref.value > 0.0
        assert abs(split.value - ref.value) <= 1e-14 * ref.value
        assert abs(split.stderr - ref.stderr) <= 1e-14 * ref.value


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


class TestPairedBar:
    """A row's stderr is the norm of its number linearised in its
    integrals' shared replicates, so errors that cancel in the number
    cancel in the bar; rows built here from hand-made estimates."""

    @staticmethod
    def _case(h1, t_axis, p):
        return experiments._Case(h1, t_axis, "hand-made", p, QuadConfig(), "")

    def test_a_numerator_moving_with_its_quotient_has_no_bar(self, h1, t_axis):
        # q = 6 / 2 = 3 and e_N = q e_D: the quotient does not move
        num, den = IntegralEstimate(6.0, 1.5, 10, (1.5,)), IntegralEstimate(2.0, 0.5, 10, (0.5,))
        case = self._case(h1, t_axis, 2.0)
        (hardy,) = experiments._hardy_rows(case, [num, den])
        (general,) = experiments._general_hardy_rows(case, [num, den])
        assert hardy.quotient == 3.0 and hardy.stderr == 0.0
        assert general.stderr == 0.0
        # with e_N = -q e_D the errors add: |e_N| / D + q |e_D| / D
        (apart,) = experiments._hardy_rows(case, [IntegralEstimate(6.0, 1.5, 10, (-1.5,)), den])
        assert apart.stderr == 1.5

    def test_a_remainder_whose_errors_cancel_has_no_bar(self, h1, t_axis):
        # at p = 2, C_p = 1/4 and c_p = 1; each replicate has e_t0 = C_p e_t1 + c_p e_rem
        assert (sharp_hardy_constant(2.0), remainder_constant(2.0)) == (0.25, 1.0)
        rem = IntegralEstimate(1.0, 0.5, 10, (0.5, -0.25))
        t0 = IntegralEstimate(2.0, 1.0, 10, (1.5, 0.75))
        t1 = IntegralEstimate(4.0, 4.0 * 2**0.5, 10, (4.0, 4.0))
        (row,) = experiments._remainder_rows(self._case(h1, t_axis, 2.0), [rem, t0, t1])
        assert row.margin == 0.0 and row.stderr == 0.0

    def test_a_bar_is_the_norm_over_the_replicates(self, h1, t_axis):
        # q = 2: the combined replicates are (2 / 2 - 2 * 0 / 2, 0 / 2 - 2 * 1 / 2) = (1, -1)
        num, den = IntegralEstimate(4.0, 2.0, 10, (2.0, 0.0)), IntegralEstimate(2.0, 1.0, 10, (0.0, 1.0))
        (row,) = experiments._hardy_rows(self._case(h1, t_axis, 2.0), [num, den])
        assert row.stderr == pytest.approx(2**0.5, rel=1e-15)


class TestLuanYoung:
    def test_quotient_at_least_one(self, h1, t_axis, fast_cfg):
        u = make_bump(BumpSpec(center=(0.2, -0.1, 0.8), radius=0.45))
        ((rep,),) = each_p(LUAN_YOUNG, h1, t_axis, u, [2.0], fast_cfg)
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
        with pytest.raises(ValueError, match="Heisenberg family"):
            each_p(LUAN_YOUNG, r3, halfspace_preset(r3, "t-axis"), u, [2.0], fast_cfg)

    # the classical two-weight inequality is on t > 0 at p = 2 alone
    @pytest.mark.parametrize(
        "preset, d, p, message",
        [("x1-axis", 0.0, 2.0, "t > 0"), ("t-axis", 0.3, 2.0, "t > 0"), ("t-axis", 0.0, 3.0, "p = 2")],
    )
    def test_rejects_outside_its_setting(
        self, h1, interior_bump, fast_cfg, integrations, preset, d, p, message
    ):
        with pytest.raises(ValueError, match=message) as got:
            each_p(LUAN_YOUNG, h1, halfspace_preset(h1, preset, d), interior_bump, [p], fast_cfg)
        assert type(got.value) is ValueError
        assert integrations == []


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_range": (2.0, float("inf"))},
            {"p_range": (2.0, float("nan"))},
            {"p_range": (float("nan"), 3.0)},
            {"p_range": (3.0, 2.5)},
            {"max_dim": 0},
            {"rel_tol": float("nan")},
            {"rel_tol": float("inf")},
            {"rel_tol": -1e-12},
        ],
    )
    def test_rejects_inputs_that_cannot_give_a_verdict(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            bft_fuzz(samples=100, **kwargs)

    def test_a_defect_that_is_not_finite_is_a_violation(self, monkeypatch):
        # past p of about 300 the powers of the norms overflow and the
        # defects of many rows are inf - inf
        rep = bft_fuzz(samples=1000, seed=3, p_range=(2.0, 2000.0))
        assert rep.quotient > 0
        assert np.isnan(rep.extras["worst_relative_defect"])
        # one NaN in a block that is neither the first nor the last
        calls = []
        defects = experiments._bft_defects

        def spy(*args):
            out = defects(*args)
            calls.append(None)
            if len(calls) == 7:
                out[3] = np.nan
            return out

        monkeypatch.setattr(experiments, "_bft_defects", spy)
        for cpus in (1, 4):
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            calls.clear()
            rep = bft_fuzz(samples=300_000, seed=3)
            assert len(calls) > 7
            assert rep.quotient == 1.0
            assert np.isnan(rep.extras["worst_relative_defect"])

    @staticmethod
    def gram_defects(a2, z, b2, p, cp_scale=1.0):
        """The relative defect of the inequality with C_p scaled by cp_scale,
        for A = (c1, 0), B = (z, c2) given as a2 = c1^2, z and b2 = c2^2."""
        na = np.sqrt(a2)
        nb = np.sqrt(z**2 + b2)
        nab = np.sqrt((na + z) ** 2 + b2)
        cp = 1.0 / (np.exp2(p - 1.0) - 1.0) * cp_scale
        na_q = na ** (p - 2.0)
        na_p = na_q * a2
        cross = p * (na_q * (na * z))
        lhs = nab**p - na_p
        rhs = cp * nb**p + cross
        return (lhs - rhs) / (nab**p + na_p + cp * nb**p + np.abs(cross) + 1e-300)

    @staticmethod
    def explicit_defects(a, b, p):
        """The relative defect from d-dimensional vectors a, b, (rows, d)."""
        na = np.linalg.norm(a, axis=1)
        nab = np.linalg.norm(a + b, axis=1)
        cnb = np.linalg.norm(b, axis=1) ** p / (np.exp2(p - 1.0) - 1.0)
        cross = p * na ** (p - 2.0) * np.sum(a * b, axis=1)
        return (nab**p - na**p - cnb - cross) / (nab**p + na**p + cnb + np.abs(cross) + 1e-300)

    @classmethod
    def reference_defects(cls, samples, seed, max_dim=5, lo_p=2.0, hi_p=5.0):
        """The fuzzer's draws and arithmetic without its buffers and
        threads: per chunk, the rows of each dimension d counted by one
        multinomial draw, then per d and per block of at most 8,192 of its
        rows the Gram matrices of A, B ~ N(0, I_d) as c1^2 ~ chi^2_d,
        z ~ N(0, 1) and c2^2 ~ chi^2_(d-1), chi^2_1 being a squared
        normal, and the block's p."""

        def chi2(gen, k, rows):
            if k == 0:
                return np.zeros(rows)
            return gen.standard_normal(rows) ** 2 if k == 1 else gen.chisquare(k, rows)

        out = []
        for gen, take in philox_chunks(seed, samples, 1 << 17, FUZZER):
            counts = gen.multinomial(take, [1.0 / max_dim] * max_dim)
            for d, n_d in enumerate(counts, 1):
                for start in range(0, n_d, 1 << 13):
                    rows = min(1 << 13, n_d - start)
                    a2 = chi2(gen, d, rows)
                    z = gen.standard_normal(rows)
                    b2 = chi2(gen, d - 1, rows)
                    p = gen.uniform(lo_p, hi_p, size=rows)
                    out.append(cls.gram_defects(a2, z, b2, p))
        return np.concatenate(out)

    @pytest.mark.parametrize("samples", [1, 1000, 131072, 131073, 300000])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_matches_the_chunk_arithmetic_bit_for_bit(self, monkeypatch, samples, seed):
        want = self.reference_defects(samples, seed)
        # near zero and at the median: thresholds that count many rows
        tols = (1e-12, -1e-3, -float(np.median(want)))
        seen = []
        defects = experiments._bft_defects

        def spy(*args):
            # a copy: the defects are a row of the worker's scratch, which
            # its next block overwrites
            seen.append(defects(*args).copy())
            return seen[-1]

        monkeypatch.setattr(experiments, "_bft_defects", spy)
        for cpus in (1, 4):
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            seen.clear()
            rep = bft_fuzz(samples=samples, seed=seed)
            got = np.concatenate(seen)
            # blocks finish in any order across threads: compare as multisets
            assert np.array_equal(np.sort(got), np.sort(want))
            assert rep.quotient == np.count_nonzero(want < -1e-12)
            assert rep.extras["worst_relative_defect"] == float(want.min())
            # bft_fuzz takes no negative rel_tol, so the thresholds that
            # count many rows go to the workers' chunk loop, split as
            # bft_fuzz splits the chunks among its workers
            for rel_tol in tols:
                chunks = list(philox_chunks(seed, samples, 1 << 17, FUZZER))
                counts, lows = zip(
                    *(
                        experiments._bft_chunks(chunks[k::cpus], 5, 2.0, 5.0, rel_tol)
                        for k in range(min(cpus, len(chunks)))
                    )
                )
                assert sum(counts) == np.count_nonzero(want < -rel_tol)
                assert min(lows) == float(want.min())

    @pytest.mark.parametrize("max_dim", [1, 5])
    def test_blocks_hold_only_the_coordinates_they_check(self, monkeypatch, max_dim):
        drawn, seen = [], []
        draw_gram, defects = experiments._draw_gram, experiments._bft_defects

        def draw_spy(gen, d, *columns):
            drawn.append((d, columns[0].shape))
            return draw_gram(gen, d, *columns)

        def spy(*columns):
            seen.append([c.shape for c in columns[:4]])
            # and the scratch, six rows of the block's length
            assert len(columns) == 5 and columns[4].shape == (6, len(columns[0]))
            return defects(*columns)

        monkeypatch.setattr(experiments, "_draw_gram", draw_spy)
        monkeypatch.setattr(experiments, "_bft_defects", spy)
        rep = bft_fuzz(samples=100_000, seed=11, max_dim=max_dim)
        assert rep.quotient == 0.0
        # the Gram matrices of every d from 1 to max_dim, one row a sample
        assert {d for d, _ in drawn} == set(range(1, max_dim + 1))
        assert sum(shape[0] for _, shape in drawn) == 100_000
        # four (rows,) columns a block, at most _FUZZ_BLOCK rows, every row checked once
        assert all(len(shapes) == 4 and len(set(shapes)) == 1 and len(shapes[0]) == 1 for shapes in seen)
        assert max(shapes[0][0] for shapes in seen) <= experiments._FUZZ_BLOCK
        assert sum(shapes[0][0] for shapes in seen) == 100_000

    @pytest.mark.parametrize("max_dim", [1, 5])
    def test_dimension_counts_have_the_law_of_uniform_dimensions(self, monkeypatch, max_dim):
        drawn = []
        draw_gram = experiments._draw_gram

        def draw_spy(gen, d, *columns):
            drawn.append((d, len(columns[0])))
            return draw_gram(gen, d, *columns)

        monkeypatch.setattr(experiments, "_draw_gram", draw_spy)
        samples = 10**6
        per_d = np.zeros(max_dim + 1, dtype=int)
        for chunk in philox_chunks(42, samples, 1 << 17, FUZZER):
            drawn.clear()
            experiments._bft_chunks([chunk], max_dim, 2.0, 5.0, 1e-12)
            # every row of the chunk has one dimension in 1..max_dim
            assert sum(rows for _, rows in drawn) == chunk[1]
            for d, rows in drawn:
                per_d[d] += rows
        assert per_d[0] == 0 and per_d.sum() == samples
        # each d a share 1/max_dim, binomially spread: at max_dim 1 every row
        share, expected = per_d[1:] / samples, 1.0 / max_dim
        sigma = np.sqrt(expected * (1.0 - expected) / samples)
        assert np.all(np.abs(share - expected) <= 4.0 * sigma)

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        def traced_peak(samples):
            tracemalloc.start()
            try:
                bft_fuzz(samples=samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bft_fuzz(samples=1000)  # first-call imports stay out of the traced runs
        for cpus in (4, 1):
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            # each worker holds one (4, _FUZZ_BLOCK) buffer and one block's temporaries
            assert traced_peak(10**6) < 4 * 2**20
        # at 2e5 samples only two chunks, so two workers, run: the growth is
        # checked on the one worker left patched, and stays below one block's draws
        block = 4 * experiments._FUZZ_BLOCK * np.dtype(float).itemsize
        assert traced_peak(10**6) - traced_peak(2 * 10**5) < block

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_gram_draws_have_the_law_of_explicit_vectors(self, d):
        stats = pytest.importorskip("scipy.stats")
        rows = 20_000
        gen = np.random.Generator(np.random.Philox(key=[d, 1]))
        a2, z, b2 = np.empty((3, rows))
        experiments._draw_gram(gen, d, a2, z, b2)
        p = gen.uniform(2.0, 5.0, size=rows)
        gram = experiments._bft_defects(a2, z, b2, p)
        other = np.random.Generator(np.random.Philox(key=[d, 2]))
        a, b = other.standard_normal((2, rows, d))
        explicit = self.explicit_defects(a, b, other.uniform(2.0, 5.0, size=rows))
        assert stats.ks_2samp(gram, explicit).pvalue > 1e-3
        # |A|^2, <A, B> and |B|^2 have means d, 0 and d
        for value, mean in ((a2, d), (np.sqrt(a2) * z, 0.0), (z * z + b2, d)):
            assert abs(value.mean() - mean) < 4.0 * value.std() / np.sqrt(rows)

    def test_a_constant_raised_by_a_thousandth_is_violated(self, monkeypatch):
        seen = []
        defects = experiments._bft_defects

        def spy(*columns):
            # the draws; the fifth argument is the worker's scratch
            seen.append([c.copy() for c in columns[:4]])
            return defects(*columns)

        monkeypatch.setattr(experiments, "_bft_defects", spy)
        rep = bft_fuzz(samples=100_000, seed=5)
        a2, z, b2, p = (np.concatenate(column) for column in zip(*seen))
        assert len(p) == 100_000 and rep.quotient == 0.0
        assert np.count_nonzero(self.gram_defects(a2, z, b2, p) < -1e-12) == 0
        # C_p is sharp: 0.1 % more is violated by the draws the fuzzer checks
        assert np.count_nonzero(self.gram_defects(a2, z, b2, p, cp_scale=1.001) < -1e-12) > 0

    def test_workers_allocate_no_array_per_block(self, monkeypatch):
        # bft_fuzz makes each worker's buffer in the calling thread
        given = []
        chunk_loop = experiments._bft_chunks
        monkeypatch.setattr(experiments, "_bft_chunks", lambda *args: given.append(args[5]) or chunk_loop(*args))
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
        bft_fuzz(samples=300_000)
        assert [b.shape for b in given] == [(10, experiments._FUZZ_BLOCK)] * 2
        # a worker given its buffer draws and checks every block in it: over
        # 8 chunks, about 160 blocks, its traced peak stays below one row
        def chunks():  # fresh streams: a chunk's generator advances as it draws
            return list(philox_chunks(42, 10**6, experiments._FUZZ_CHUNK, FUZZER))

        buffer = np.empty((10, experiments._FUZZ_BLOCK))
        chunk_loop(chunks()[:1], 5, 2.0, 5.0, 1e-12, buffer)  # first-call set-up, untraced
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            work = chunks()
            tracemalloc.start()
            try:
                got = pool.submit(chunk_loop, work, 5, 2.0, 5.0, 1e-12, buffer).result()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < experiments._FUZZ_BLOCK * np.dtype(float).itemsize
        # and the buffer changes no result
        assert got == chunk_loop(chunks(), 5, 2.0, 5.0, 1e-12)

    @pytest.mark.parametrize(
        "affinity, cpu_count, samples, workers",
        [
            (64, None, 1000, 1),  # one chunk: one worker, whatever the CPUs
            (None, 64, 1000, 1),  # no affinity call: os.cpu_count() instead
            (None, 2, 300000, 2),
            (None, 1, 300000, 1),
            (None, None, 1000, 1),  # cpu_count() unknown
        ],
    )
    def test_workers_are_bounded_by_chunks_and_cpus(
        self, monkeypatch, affinity, cpu_count, samples, workers
    ):
        if affinity is None:
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(affinity)))
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpu_count)
        made = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                made.append([max_workers, 0])

            def shutdown(self, *args, **kwargs):
                made[-1][1] = len(self._threads)
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        rep = bft_fuzz(samples=samples, seed=3)
        assert made == [[workers, workers]]  # max_workers, and the threads it started
        assert rep.quotient == 0.0

    def test_equality_cases_by_hand(self):
        # b = 0 and b = a are the two equality regimes at p = 2
        a = np.array([3.0, 4.0])
        for b in (np.zeros(2), a.copy()):
            lhs = np.linalg.norm(a + b) ** 2 - np.linalg.norm(a) ** 2
            rhs = np.linalg.norm(b) ** 2 + 2 * a @ b
            assert lhs == rhs


# points per axis of the sweep tests on each group
_SWEEP_GROUPS = {"heisenberg:1": 8, "heisenberg:2": 6, "abelian:3": 8}


def _sweep_halfspace(spec, normal):
    if normal == "x1-axis":
        return halfspace_preset(spec, "x1-axis", 0.0)
    if normal == "t-axis-offset":
        return halfspace_preset(spec, "t-axis", 0.3)
    return HalfSpace(nu=[1.0, -0.7, 0.4, 0.2, -0.5][: spec.total_dim], d=0.0)


def _per_row(spec, hs, ps, eps_list, cutoff, cfg, digest=""):
    """The sweep's rows, each (p, eps) integrated alone, p outer and eps inner."""
    return [
        row for p, eps in product(ps, eps_list) for row in sharpness_grid(spec, hs, [p], [eps], cutoff, cfg, digest)
    ]


def _field_rows(spec, hs, ps, eps_list, cutoff, cfg):
    """The HARDY row of each (p, eps) of the field dist^alpha * cutoff, by the chain rule."""
    rows = []
    for p, eps in product(ps, eps_list):
        a = SharpnessSpec(p=p, eps=eps, cutoff=cutoff).exponent
        field = power_weighted_field(make_bump(cutoff), hs, a)
        ((row,),) = each_p(HARDY, spec, hs, field, [p], cfg)
        rows.append(row)
    return rows


@pytest.fixture
def integrations(monkeypatch):
    """The integrand count of each integrate_many call the experiments make."""
    counts = []
    integrate = experiments.integrate_many

    def spy(fs, *args, **kwargs):
        counts.append(len(fs))
        return integrate(fs, *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate_many", spy)
    return counts


def _sweep_blocks(hs, cutoff):
    """The blocks that integrate_many samples the sweep's rule and its companion in, at the default config."""
    u = make_bump(cutoff)
    rule = _build_nodes(u.support_box, hs, QuadConfig(), u.support)
    parts = (rule.split, len(rule.points) - rule.split)
    return sum(-(-size // quadrature._EVAL_CHUNK) for size in parts)


# the most rows a config may ask for: 8 p by 8 eps
_LARGEST_SWEEP = (
    [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5],
    [0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15],
)


class TestSharpnessSweep:
    def test_quotients_decrease_toward_bound(self, h1):
        hs = halfspace_preset(h1, "x1-axis", 0.0)
        cutoff = boundary_bump_spec(hs, 1.0)
        reports = sharpness_grid(h1, hs, [2.0], (0.4, 0.1), cutoff, QuadConfig(points_per_axis=12))
        assert [r.extras["eps"] for r in reports] == [0.4, 0.1]
        assert reports[0].quotient > reports[1].quotient > 0.25
        assert all(r.extras["label"] == "verification" for r in reports)

    def test_a_sweep_drops_each_block_before_the_next(self, h1):
        # the benchmark's sweep: 4.95 MiB at peak when each block's sample
        # and its last view lived on into the next block's placement, 3.65
        # with the view dropped after its group's last integrand alone
        hs = halfspace_preset(h1, "x1-axis", 0.0)
        cutoff = boundary_bump_spec(hs, 1.0)
        sweep = partial(sharpness_grid, h1, hs, [2.0, 3.0], (0.5, 0.2, 0.1, 0.05), cutoff)
        sweep()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_probe_role_off_axis(self, h1, t_axis):
        cutoff = BumpSpec(center=(0.0, 0.0, 0.0), radius=1.0)
        reports = sharpness_grid(h1, t_axis, [2.0], (0.3,), cutoff, QuadConfig(points_per_axis=8))
        assert reports[0].extras["label"] == "probe"

    # the grading exponent m moves every node of the s-axis, dist = s**m
    @pytest.mark.parametrize("m", [1.0, 2.5, 4.0])
    @pytest.mark.parametrize("normal", ["x1-axis", "t-axis-offset", "oblique"])
    @pytest.mark.parametrize("group", sorted(_SWEEP_GROUPS))
    def test_rows_are_the_per_row_runners_bit_for_bit(self, group, normal, m, integrations):
        spec = group_from_name(group)
        hs = _sweep_halfspace(spec, normal)
        cutoff = boundary_bump_spec(hs, 1.0)
        cfg = QuadConfig(points_per_axis=_SWEEP_GROUPS[group], grading_exponent=m)
        ps, eps_list = [2.0, 3.0], [0.5, 0.1]
        label = "verification" if normal == "x1-axis" else "probe"
        rows = sharpness_grid(spec, hs, ps, eps_list, cutoff, cfg, "digest")
        assert integrations == [8]
        extras = [(r.extras["eps"], r.extras["label"]) for r in rows]
        assert extras == [(eps, label) for _ in ps for eps in eps_list]
        assert rows == _per_row(spec, hs, ps, eps_list, cutoff, cfg, "digest")
        assert all(r.denominator.value > 0.0 for r in rows)

    # the field takes dist from the nodes, the view the rule's own; they
    # agree where a node's coordinate along the normal is its dist, on an
    # axis normal with offset 0 (elsewhere the dist worked back out of the
    # nodes rounds away from the rule's near the boundary)
    @pytest.mark.parametrize("m", [1.0, 2.5, 4.0])
    @pytest.mark.parametrize("normal", ["x1-axis", "t-axis"])
    @pytest.mark.parametrize("group", sorted(_SWEEP_GROUPS))
    def test_rows_are_the_hardy_rows_of_the_power_weighted_field(self, group, normal, m):
        spec = group_from_name(group)
        hs = halfspace_preset(spec, normal, 0.0)
        cutoff = boundary_bump_spec(hs, 1.0)
        cfg = QuadConfig(points_per_axis=_SWEEP_GROUPS[group], grading_exponent=m)
        rows = sharpness_grid(spec, hs, [2.0, 3.0], [0.5, 0.1], cutoff, cfg)
        _same_rows(rows, _field_rows(spec, hs, [2.0, 3.0], [0.5, 0.1], cutoff, cfg))

    def test_one_integration_serves_the_default_sweep(self, h1, x1_axis, integrations, monkeypatch):
        shapes = []
        shape = BumpSupport.shape
        monkeypatch.setattr(BumpSupport, "shape", lambda *a: shapes.append(1) or shape(*a))
        cutoff = boundary_bump_spec(x1_axis, 1.0)
        rows = sharpness_grid(h1, x1_axis, [2.0, 3.0], [0.5, 0.2, 0.1, 0.05], cutoff, QuadConfig())
        assert len(rows) == 8 and integrations == [16]
        # one sample of the cutoff per block of the rule and its companion
        blocks = _sweep_blocks(x1_axis, cutoff)
        assert blocks > 2 and len(shapes) == blocks
        shapes.clear()
        sharpness_grid(h1, x1_axis, [2.0], [0.5], cutoff, QuadConfig())
        assert len(shapes) == blocks  # as many as one row alone

    def test_each_row_reads_one_view_that_it_alone_holds(self, h1, x1_axis, integrations, monkeypatch):
        # the default sweep's 8 rows: each row's view of a block's sample of
        # the cutoff is made once, and dropped before the next view is made
        made = []
        view = experiments.power_weighted_sample

        def spy(sample, a):
            assert all(ref() is None for ref in made)
            derived = view(sample, a)
            made.append(weakref.ref(derived))
            return derived

        monkeypatch.setattr(experiments, "power_weighted_sample", spy)
        cutoff = boundary_bump_spec(x1_axis, 1.0)
        rows = sharpness_grid(h1, x1_axis, [2.0, 3.0], [0.5, 0.2, 0.1, 0.05], cutoff, QuadConfig())
        assert len(rows) == 8 and integrations == [16] and len(made) == 8 * _sweep_blocks(x1_axis, cutoff)
        assert all(ref() is None for ref in made)

    def test_the_largest_sweep_is_one_integration(self, h1, x1_axis, integrations):
        ps, eps_list = _LARGEST_SWEEP
        cutoff = boundary_bump_spec(x1_axis, 1.0)
        cfg = QuadConfig(points_per_axis=6)
        rows = sharpness_grid(h1, x1_axis, ps, eps_list, cutoff, cfg)
        assert integrations == [128]
        assert rows == _per_row(h1, x1_axis, ps, eps_list, cutoff, cfg)

    def test_the_largest_sweep_keeps_the_peak_of_the_default_one(self, h1, x1_axis):
        # 128 integrands in one call stay within the bound of the default
        # sweep's 16 (2.76 MiB at peak against 2.66): each is summed over a
        # block before the next is evaluated
        cutoff = boundary_bump_spec(x1_axis, 1.0)
        sweep = partial(sharpness_grid, h1, x1_axis, *_LARGEST_SWEEP, cutoff)
        sweep()
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize(
        "ps, eps_list, error, calls, row",
        [
            # a cutoff of radius 2 reaches dist 2, where dist^300.5 raised to
            # p = 6 overflows: the one batch fails, naming that row
            ([2.0, 6.0], [0.5, 300.0], IntegrationError, [8], (6.0, 300.0)),
            # (400, 0.5) is trivial, but its batch overflows at (400, 300)
            # before any row is made
            ([2.0, 400.0, 6.0], [0.5, 300.0], IntegrationError, [12], (400.0, 300.0)),
            # 12 rows in one batch: only the last, (6, 300), overflows
            ([2.0, 3.0, 6.0], [0.5, 0.2, 0.1, 300.0], IntegrationError, [24], (6.0, 300.0)),
            # a row that cannot be built fails the sweep before anything is integrated
            ([2.0], [0.5, -1.0, 0.2], ValueError, [], None),
            ([6.0], [300.0, -1.0], ValueError, [], None),
        ],
    )
    def test_the_first_failing_row_raises_its_own_error(
        self, h1, x1_axis, integrations, ps, eps_list, error, calls, row
    ):
        cutoff = boundary_bump_spec(x1_axis, 2.0)
        cfg = QuadConfig(points_per_axis=6)
        with pytest.raises(error) as got:
            sharpness_grid(h1, x1_axis, ps, eps_list, cutoff, cfg)
        assert type(got.value) is error
        if error is IntegrationError:
            p, eps = row
            label = SharpnessSpec(p=p, eps=eps, cutoff=cutoff).label()
            assert str(got.value).startswith(f"trial {label} at p {p!r}: integrand returned a non-finite value")
            assert got.value.point is not None
        else:
            assert str(got.value) == "eps must be positive"
        assert integrations == calls

    def test_no_rows_integrate_nothing(self, h1, x1_axis, integrations):
        cutoff = boundary_bump_spec(x1_axis, 1.0)
        assert sharpness_grid(h1, x1_axis, [], [0.5], cutoff) == []
        assert sharpness_grid(h1, x1_axis, [2.0, 3.0], [], cutoff) == []
        assert sharpness_grid(h1, x1_axis, [2.0], [], cutoff) == []
        assert integrations == []

    def test_trial_field_construction(self, h1):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        trial = SharpnessSpec(p=2.0, eps=0.5, cutoff=boundary_bump_spec(hs, 1.0))
        base = sample_trial(h1, hs, make_bump(trial.cutoff), np.array([[0.25, 0.0, 0.0]]))
        assert power_weighted_sample(base, trial.exponent).u[0] > 0


def _same_rows(rows, reference):
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        for name in ("quotient", "numerator", "denominator"):
            got, want = getattr(row, name), getattr(ref, name)
            if name != "quotient":
                got, want = got.value, want.value
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (row.extras["trial"], name)


class TestTranslation:
    """(x, y, t) -> (x, y, t + c) is a left translation of heisenberg:1 that
    maps the t-axis half-space at offset 0 onto the one at offset c, so a
    trial shifted with it has the same integrals."""

    @staticmethod
    def _interior_rows(h1, c):
        hs = halfspace_preset(h1, "t-axis", c)
        u = make_bump(BumpSpec(center=(0.1, -0.2, 0.45 + c), radius=0.35))
        checks = (HARDY, GENERAL_HARDY, REMAINDER, SOBOLEV)
        return [row for check in checks for rows in each_p(check, h1, hs, u, [2.0, 3.0]) for row in rows]

    @staticmethod
    def _sharpness_rows(h1, c):
        hs = halfspace_preset(h1, "t-axis", c)
        cutoff = BumpSpec(center=(0.0, 0.0, c), radius=1.0)
        return sharpness_grid(h1, hs, [2.0, 3.0], [0.5, 0.2, 0.1, 0.05], cutoff)

    @pytest.mark.parametrize("c", [0.3, 3.0, 30.0])
    def test_interior_bump_rows(self, h1, c):
        _same_rows(self._interior_rows(h1, c), self._interior_rows(h1, 0.0))

    @pytest.mark.parametrize("c", [0.3, 3.0, 30.0])
    def test_sharpness_rows(self, h1, c):
        _same_rows(self._sharpness_rows(h1, c), self._sharpness_rows(h1, 0.0))

import dataclasses

import numpy as np
import pytest

from strathardy import (
    BumpSpec,
    HalfSpace,
    ScalarField,
    SharpnessSpec,
    boundary_bump_spec,
    halfspace_preset,
    heisenberg_group,
    horizontal_from_euclidean,
    make_bump,
    power_weighted_sample,
    random_interior_bumps,
    sample_trial,
)

from chain_rule import power_weighted_field


def fd_gradients(field, pts, h=1e-6):
    out = np.empty_like(pts)
    for j in range(pts.shape[1]):
        shift = np.zeros(pts.shape[1])
        shift[j] = h
        out[:, j] = (field.values(pts + shift) - field.values(pts - shift)) / (2 * h)
    return out


def _frozen_bump(spec):
    """The bump's values and gradients at points, as the field computed them
    before it read the ball rule's local coordinates: the formula the points
    path must keep bit for bit."""
    center, r = np.asarray(spec.center, float), spec.radius

    def fn_and_grad(points):
        z = (points - center) / r
        s = np.zeros(len(points))
        for i in range(center.size):
            col = z[:, i]
            s += col * col
        inside = s < 1.0
        gap = np.where(inside, 1.0 - s, np.inf)
        f = np.where(inside, np.exp(-1.0 / gap), 0.0)
        dS = np.multiply(z, 2.0, out=z)
        dS /= r
        dS *= (-f / (gap * gap))[:, None]
        return f, dS

    return fn_and_grad


def _in_support(support, points):
    """The (M,) bool mask of the (M, n) points inside ``support``, S < 1."""
    return support.shape(points)[0] < 1.0


class TestBump:
    @pytest.mark.parametrize(
        "spec",
        [
            BumpSpec(center=(0.3, -0.1, 0.7), radius=0.45),
            BumpSpec(center=(0.3, -0.1, 0.7, 0.2, -0.5), radius=0.45),
            BumpSpec(center=(1e3 + 0.3, -0.1, 0.7), radius=0.45),
            BumpSpec(center=(0.3, -0.1, 0.7), radius=1e-6),
            BumpSpec(center=(0.3,), radius=0.45),
        ],
        ids=["3-d", "5-d", "far", "tiny", "1-d"],
    )
    def test_values_and_gradients_keep_the_frozen_formula(self, rng, spec):
        u = make_bump(spec)
        center = np.asarray(spec.center)
        pts = np.asfortranarray(rng.uniform(-1.2, 1.2, size=(3000, center.size)) * spec.radius + center)
        f, grad = _frozen_bump(spec)(pts)
        assert 0 < np.count_nonzero(f) < len(pts)
        got = u.values_and_gradients(pts)
        assert np.array_equal(got[0], f) and np.array_equal(got[1], grad)
        # a scaled bump scales those bits, at points as on the ball rule
        got = u.scaled(7.0).values_and_gradients(pts)
        assert np.array_equal(got[0], 7.0 * f) and np.array_equal(got[1], 7.0 * grad)

    def test_center_value(self):
        u = make_bump(BumpSpec(center=(0.3, -0.1, 2.0), radius=0.5))
        assert u.values([[0.3, -0.1, 2.0]])[0] == np.exp(-1.0)

    def test_vanishes_outside_support(self):
        u = make_bump(BumpSpec(center=(0.0, 0.0, 0.0), radius=1.0))
        pts = np.array([[1.0, 0.0, 0.0], [0.9, 0.9, 0.0], [0.0, 0.0, -1.5]])
        assert np.array_equal(u.values(pts), [0.0, 0.0, 0.0])
        assert np.array_equal(u.gradients(pts), np.zeros((3, 3)))

    def test_support_box_is_tight(self):
        u = make_bump(BumpSpec(center=(1.0, 2.0), radius=0.25))
        assert np.array_equal(u.support_box, [[0.75, 1.25], [1.75, 2.25]])

    def test_exact_gradient_matches_fd(self, rng):
        u = make_bump(BumpSpec(center=(0.0, 0.5, 0.0), radius=0.8))
        pts = rng.uniform(-0.4, 0.4, size=(50, 3)) + [0.0, 0.5, 0.0]
        exact = u.gradients(pts)
        fd = fd_gradients(u, pts)
        assert np.max(np.abs(exact - fd)) < 1e-7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"center": (0.0,), "radius": 0.0},
            {"center": (0.0,), "radius": -1.0},
            {"center": (0.0, 1e20), "radius": 1.0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            BumpSpec(**kwargs)

    def test_a_bump_is_round(self):
        # a center and a radius, nothing else: every bump is a ball
        assert [f.name for f in dataclasses.fields(BumpSpec)] == ["center", "radius"]
        assert BumpSpec(center=(0.1, 0.2), radius=0.3).label() == "bump(center=(0.1,0.2),radius=0.3)"

    def test_label_deterministic_and_distinct(self):
        a = BumpSpec(center=(0.1, 0.2), radius=0.3)
        b = BumpSpec(center=(0.1, 0.2), radius=0.3)
        c = BumpSpec(center=(0.1, 0.25), radius=0.3)
        assert a.label() == b.label()
        assert a.label() != c.label()


class TestFamilies:
    def test_boundary_bump_centered_on_boundary(self):
        hs = halfspace_preset(3, "x1-axis", 0.7)
        spec = boundary_bump_spec(hs, 1.0)
        assert spec.center == (0.7, 0.0, 0.0)
        assert abs(hs.distance(np.array(spec.center))) < 1e-15

    def test_random_interior_bumps_clear_boundary(self):
        hs = HalfSpace(nu=np.array([0.6, 0.0, 0.8]), d=0.2)
        specs = random_interior_bumps(hs, 40, seed=9, clearance=0.1)
        assert len(specs) == 40
        for s in specs:
            # the whole support ball must clear the boundary
            assert hs.distance(np.array(s.center)) >= s.radius + 0.1 - 1e-12

    def test_random_interior_bumps_deterministic(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        a = random_interior_bumps(hs, 5, seed=3)
        b = random_interior_bumps(hs, 5, seed=3)
        c = random_interior_bumps(hs, 5, seed=4)
        assert a == b
        assert a != c

    def test_random_interior_bumps_validation(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        with pytest.raises(ValueError):
            random_interior_bumps(hs, 0, seed=1)
        with pytest.raises(ValueError):
            random_interior_bumps(hs, 3, seed=1, radius_range=(0.5, 0.1))


class TestPowerWeightedSample:
    @pytest.mark.parametrize("k", [1, 2])
    def test_round_trip(self, rng, k):
        # the ground substitution v = dist^(-a) u and back: dist^a v is u again
        spec = heisenberg_group(k)
        hs = halfspace_preset(spec, "t-axis", 0.0)
        center = hs.nu * 1.0
        u = make_bump(BumpSpec(center=tuple(center), radius=0.6))
        pts = rng.uniform(-0.4, 0.4, size=(60, spec.total_dim)) + center
        s = sample_trial(spec, hs, u, pts)
        a = 2.0 / 3.0
        back = power_weighted_sample(power_weighted_sample(s, -a), a)
        assert np.any(s.u != 0.0) and back.dist is s.dist
        assert np.max(np.abs(back.u - s.u)) < 1e-14 * np.max(np.abs(s.u))
        assert np.max(np.abs(back.hgrad - s.hgrad)) < 1e-14 * np.max(np.abs(s.hgrad))

    @pytest.mark.parametrize("p, eps", [(2.0, 0.5), (3.0, 0.05)])
    def test_a_derived_sample_is_the_power_weighted_fields(self, rng, p, eps):
        # points on both sides of an oblique, offset boundary: the derived
        # sample zeroes the rows the field dist^alpha * cutoff does
        h1 = heisenberg_group(1)
        hs = HalfSpace(nu=[1.0, -0.7, 0.4], d=0.1)
        cutoff = boundary_bump_spec(hs, 0.8)
        pts = rng.uniform(-0.8, 0.8, size=(200, 3)) + cutoff.center
        base = sample_trial(h1, hs, make_bump(cutoff), pts)
        trial = SharpnessSpec(p=p, eps=eps, cutoff=cutoff)
        want = sample_trial(h1, hs, power_weighted_field(make_bump(cutoff), hs, trial.exponent), pts)
        got = power_weighted_sample(base, trial.exponent)
        outside = hs.distance(pts) <= 0.0
        assert np.any(outside) and np.any(got.u != 0.0)
        assert np.all(got.u[outside] == 0.0) and np.all(got.hgrad[outside] == 0.0)
        for name in ("u", "hgrad"):
            ours, theirs = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(ours - theirs)) <= 1e-14 * np.max(np.abs(theirs)), name
        for name in ("dist", "w", "pairings"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.grad is None
        assert got.dist is base.dist and got.w is base.w and got.pairings is base.pairings

    @pytest.mark.parametrize("p, eps", [(2.0, 0.5), (3.0, 0.05)])
    @pytest.mark.parametrize("k", [1, 2])
    def test_hgrad_is_the_horizontal_form_of_the_fields_gradient(self, rng, k, p, eps):
        spec = heisenberg_group(k)
        n = spec.total_dim
        hs = HalfSpace(nu=rng.normal(size=n), d=0.1)
        trial = SharpnessSpec(p=p, eps=eps, cutoff=boundary_bump_spec(hs, 0.8))
        cutoff, a = make_bump(trial.cutoff), trial.exponent
        pts = rng.uniform(-0.8, 0.8, size=(400, n)) + trial.cutoff.center
        got = power_weighted_sample(sample_trial(spec, hs, cutoff, pts), a).hgrad
        want = horizontal_from_euclidean(spec, pts, power_weighted_field(cutoff, hs, a).gradients(pts))
        outside = hs.distance(pts) <= 0.0
        assert np.any(outside) and np.any(got != 0.0)
        assert np.all(got[outside] == 0.0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestSharpnessTrial:
    def test_validation(self):
        cutoff = BumpSpec(center=(0.0, 0.0, 0.0), radius=1.0)
        with pytest.raises(ValueError):
            SharpnessSpec(p=1.0, eps=0.1, cutoff=cutoff)
        with pytest.raises(ValueError):
            SharpnessSpec(p=2.0, eps=0.0, cutoff=cutoff)

    def test_label_mentions_parameters(self):
        spec = SharpnessSpec(p=2.0, eps=0.05, cutoff=BumpSpec(center=(0.0,), radius=1.0))
        assert "0.05" in spec.label() and "2.0" in spec.label()

    @staticmethod
    def _sample(trial, hs, pts):
        """The sample of the trial at pts, viewed from its cutoff's."""
        base = sample_trial(heisenberg_group(1), hs, make_bump(trial.cutoff), pts)
        return power_weighted_sample(base, trial.exponent)

    def test_vanishes_outside_halfspace(self):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        spec = SharpnessSpec(p=2.0, eps=0.1, cutoff=boundary_bump_spec(hs, 1.0))
        s = self._sample(spec, hs, np.array([[-0.2, 0.1, 0.0], [-0.5, 0.0, 0.0]]))
        assert np.array_equal(s.u, [0.0, 0.0]) and np.array_equal(s.hgrad, np.zeros((2, 2)))

    def test_power_times_cutoff(self):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        cut_spec = boundary_bump_spec(hs, 1.0)
        cutoff = make_bump(cut_spec)
        pts = np.array([[0.3, 0.1, -0.2], [0.6, -0.4, 0.1]])
        expected = hs.distance(pts) ** 0.75 * cutoff.values(pts)
        s = self._sample(SharpnessSpec(p=2.0, eps=0.25, cutoff=cut_spec), hs, pts)
        assert np.allclose(s.u, expected, rtol=1e-15)

    def test_gradient_matches_fd(self, rng):
        # grad_H of dist^alpha * cutoff by central differences of its values
        hs = halfspace_preset(3, "x1-axis", 0.0)
        spec = SharpnessSpec(p=3.0, eps=0.2, cutoff=boundary_bump_spec(hs, 1.0))
        field = power_weighted_field(make_bump(spec.cutoff), hs, spec.exponent)
        pts = rng.uniform(0.2, 0.7, size=(40, 3))
        want = horizontal_from_euclidean(heisenberg_group(1), pts, fd_gradients(field, pts))
        assert np.max(np.abs(field.gradients(pts) - fd_gradients(field, pts))) < 1e-6
        assert np.max(np.abs(self._sample(spec, hs, pts).hgrad - want)) < 1e-6


class TestSupportPredicate:
    def test_bump_support_matches_where_it_vanishes(self, rng):
        spec = BumpSpec(center=(0.2, -0.1, 0.5), radius=0.4)
        u = make_bump(spec)
        pts = rng.uniform(-1.0, 1.0, size=(4000, 3)) * 0.45 + [0.2, -0.1, 0.5]
        inside = _in_support(u.support, pts)
        assert inside.dtype == bool and inside.shape == (4000,)
        z = (pts - np.array(spec.center)) / spec.radius
        assert np.array_equal(inside, np.sum(z * z, axis=1) < 1.0)
        assert 0 < np.count_nonzero(inside) < len(pts)
        assert np.all(u.values(pts[~inside]) == 0.0)
        assert np.all(u.gradients(pts[~inside]) == 0.0)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_shape_adds_the_terms_in_axis_order(self, rng, n):
        support = make_bump(BumpSpec(center=(0.1,) * n, radius=0.6)).support
        pts = rng.uniform(-1.0, 1.0, size=(3000, n))
        s, z = support.shape(pts)
        assert np.array_equal(s, np.sum(z * z, axis=1))

    def test_gradient_is_zero_far_outside(self):
        # 1e110 radii away z / r is 1e230 and the profile's slope 0.0: the gradient stays 0.0
        u = make_bump(BumpSpec(center=(0.0, 0.0), radius=1e-120))
        values, grads = u.values_and_gradients(np.array([[1e-10, 0.0], [0.0, 1e-10]]))
        assert np.array_equal(values, [0.0, 0.0]) and np.array_equal(grads, np.zeros((2, 2)))

    # and quietly: the overflows off the support raise no numpy warning
    @pytest.mark.filterwarnings("error")
    def test_gradient_is_zero_where_the_offsets_overflow(self):
        # 1e160 radii away (x - c) / r is finite but 2 (x - c) / r**2 is inf,
        # which times the profile's slope of 0.0 made a nan gradient
        u = make_bump(BumpSpec(center=(0.0, 0.0), radius=1e-170))
        for field in (u, u.scaled(7.0)):
            values, grads = field.values_and_gradients([[1e-10, 0.0], [0.0, -1e-10]])
            assert values.tolist() == [0.0, 0.0] and grads.tolist() == [[0.0, 0.0], [0.0, 0.0]]
            assert not np.signbit(grads).any()

    def test_derived_trials_keep_the_bump_support(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        spec = BumpSpec(center=(0.0, 0.0, 0.7), radius=0.5)
        u = make_bump(spec)
        assert u.scaled(7.0).support is u.support
        # a sharpness trial's sample, viewed from the bump's, is 0.0 off its support
        pts = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 1.3], [0.45, 0.0, 0.7]])
        a = SharpnessSpec(p=2.0, eps=0.1, cutoff=spec).exponent
        w = power_weighted_sample(sample_trial(heisenberg_group(1), hs, u, pts), a)
        inside = _in_support(u.support, pts)
        assert np.array_equal(w.u != 0.0, inside)
        assert np.all(w.hgrad[~inside] == 0.0)

    def test_hand_built_field_has_no_predicate(self):
        f = ScalarField(2, fn=lambda p: np.ones(len(p)))
        assert f.support is None

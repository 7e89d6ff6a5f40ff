import numpy as np
import pytest

from strathardy import (
    BumpSpec,
    HalfSpace,
    ScalarField,
    SharpnessSpec,
    boundary_bump_spec,
    ground_gradient,
    ground_transform,
    halfspace_preset,
    heisenberg_group,
    inverse_ground_transform,
    make_bump,
    random_interior_bumps,
    sample_trial,
    sharpness_trial,
)


def fd_gradients(field, pts, h=1e-6):
    out = np.empty_like(pts)
    for j in range(pts.shape[1]):
        shift = np.zeros(pts.shape[1])
        shift[j] = h
        out[:, j] = (field.values(pts + shift) - field.values(pts - shift)) / (2 * h)
    return out


class TestBump:
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

    def test_anisotropic_powers(self, rng):
        u = make_bump(BumpSpec(center=(0.0, 0.0, 0.0), radius=1.0, powers=(4, 2, 2)))
        pts = rng.uniform(-0.5, 0.5, size=(40, 3))
        assert np.max(np.abs(u.gradients(pts) - fd_gradients(u, pts))) < 1e-7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"center": (0.0,), "radius": 0.0},
            {"center": (0.0,), "radius": -1.0},
            {"center": (0.0, 0.0), "radius": 1.0, "powers": (2,)},
            {"center": (0.0,), "radius": 1.0, "powers": (3,)},
            {"center": (0.0,), "radius": 1.0, "powers": (0,)},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            BumpSpec(**kwargs)

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


class TestGroundTransform:
    def test_round_trip(self, rng):
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0, 0.0, 1.0), radius=0.6))
        back = inverse_ground_transform(ground_transform(u, hs, 3.0), hs, 3.0)
        pts = rng.uniform(-0.4, 0.4, size=(60, 3)) + [0.0, 0.0, 1.0]
        orig = u.values(pts)
        assert np.max(np.abs(back.values(pts) - orig)) < 1e-14 * (1 + np.max(np.abs(orig)))

    def test_vanishes_outside_halfspace(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0, 0.0, 0.2), radius=0.6))
        v = ground_transform(u, hs, 2.0)
        pts = np.array([[0.0, 0.0, -0.1], [0.1, 0.0, -0.3]])
        assert np.array_equal(v.values(pts), [0.0, 0.0])

    def test_gradient_matches_fd_inside(self, rng):
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0, 0.0, 1.0), radius=0.5))
        v = ground_transform(u, hs, 2.0)
        pts = rng.uniform(-0.3, 0.3, size=(40, 3)) + [0.0, 0.0, 1.0]
        assert np.max(np.abs(v.gradients(pts) - fd_gradients(v, pts))) < 1e-6

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_gradient_from_a_sample_is_bitwise_the_fields(self, rng, p):
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0, 0.0, 0.3), radius=0.5))
        pts = rng.uniform(-0.5, 0.5, size=(60, 3)) + [0.0, 0.0, 0.3]
        pts = pts[hs.distance(pts) > 0.0]
        sample = sample_trial(heisenberg_group(1), hs, u, pts)
        assert np.array_equal(ground_gradient(sample, hs, p), ground_transform(u, hs, p).gradients(pts))

    def test_rejects_small_p(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        u = make_bump(BumpSpec(center=(0.0, 0.0, 1.0), radius=0.5))
        with pytest.raises(ValueError):
            ground_transform(u, hs, 1.0)
        with pytest.raises(ValueError):
            inverse_ground_transform(u, hs, 0.5)


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

    def test_vanishes_outside_halfspace(self):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        spec = SharpnessSpec(p=2.0, eps=0.1, cutoff=boundary_bump_spec(hs, 1.0))
        u = sharpness_trial(spec, hs)
        pts = np.array([[-0.2, 0.1, 0.0], [-0.5, 0.0, 0.0]])
        assert np.array_equal(u.values(pts), [0.0, 0.0])

    def test_power_times_cutoff(self):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        cut_spec = boundary_bump_spec(hs, 1.0)
        u = sharpness_trial(SharpnessSpec(p=2.0, eps=0.25, cutoff=cut_spec), hs)
        cutoff = make_bump(cut_spec)
        pts = np.array([[0.3, 0.1, -0.2], [0.6, -0.4, 0.1]])
        expected = hs.distance(pts) ** 0.75 * cutoff.values(pts)
        assert np.allclose(u.values(pts), expected, rtol=1e-15)

    def test_gradient_matches_fd(self, rng):
        hs = halfspace_preset(3, "x1-axis", 0.0)
        spec = SharpnessSpec(p=3.0, eps=0.2, cutoff=boundary_bump_spec(hs, 1.0))
        u = sharpness_trial(spec, hs)
        pts = rng.uniform(0.2, 0.7, size=(40, 3))
        assert np.max(np.abs(u.gradients(pts) - fd_gradients(u, pts))) < 1e-6


class TestSupportPredicate:
    def test_bump_support_matches_where_it_vanishes(self, rng):
        spec = BumpSpec(center=(0.2, -0.1, 0.5), radius=0.4, powers=(2, 4, 2))
        u = make_bump(spec)
        pts = rng.uniform(-1.0, 1.0, size=(4000, 3)) * 0.45 + [0.2, -0.1, 0.5]
        inside = u.support(pts)
        assert inside.dtype == bool and inside.shape == (4000,)
        z = (pts - np.array(spec.center)) / spec.radius
        s = np.sum(np.abs(z) ** np.array([2.0, 4.0, 2.0]), axis=1)
        assert np.array_equal(inside, s < 1.0)
        assert 0 < np.count_nonzero(inside) < len(pts)
        assert np.all(u.values(pts[~inside]) == 0.0)
        assert np.all(u.gradients(pts[~inside]) == 0.0)

    def test_derived_trials_keep_the_bump_support(self):
        hs = halfspace_preset(3, "t-axis", 0.0)
        spec = BumpSpec(center=(0.0, 0.0, 0.7), radius=0.5)
        u = make_bump(spec)
        v = ground_transform(u, hs, 2.0)
        assert v.support is u.support
        assert inverse_ground_transform(v, hs, 2.0).support is u.support
        assert u.scaled(7.0).support is u.support
        w = sharpness_trial(SharpnessSpec(p=2.0, eps=0.1, cutoff=spec), hs)
        pts = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 1.3], [0.45, 0.0, 0.7]])
        assert np.array_equal(w.support(pts), u.support(pts))

    def test_hand_built_field_has_no_predicate(self):
        f = ScalarField(2, fn=lambda p: np.ones(len(p)))
        assert f.support is None
        assert f.scaled(2.0).support is None

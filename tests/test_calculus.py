import numpy as np
import pytest

from strathardy import (
    HalfSpace,
    Polynomial,
    ScalarField,
    BumpSpec,
    abelian_group,
    angle_function_many,
    angle_gradient_many,
    apply_field_to_polynomial,
    distance_field,
    distance_flux_parts,
    field_pairings,
    group_from_name,
    group_from_table,
    halfspace_preset,
    heisenberg_group,
    horizontal_from_euclidean,
    horizontal_gradient_many,
    make_bump,
    identity_Xi_pairing_many,
    orthogonality_identity_many,
    p_sub_laplacian_distance_many,
    p_sub_laplacian_fd_many,
    pairing_polynomials,
    sample_trial,
    sub_laplacian_distance_polynomial,
)
from strathardy.experiments import GENERAL_HARDY, HARDY, LUAN_YOUNG, REMAINDER, SOBOLEV
from strathardy.quadrature import QuadConfig, _build_nodes
from strathardy.trials import (
    BumpSupport,
    SharpnessSpec,
    boundary_bump_spec,
    ground_transform,
    inverse_ground_transform,
    sharpness_trial,
)


def random_unit(rng, dim, tilt=True):
    nu = rng.normal(size=dim)
    if tilt and abs(nu[-1]) < 0.3:
        nu[-1] = 0.5 * np.sign(nu[-1] or 1.0)
    return nu / np.linalg.norm(nu)


@pytest.fixture
def skew_table():
    # Table chosen so the flux parts are nonzero: the first field's t-slot
    # coefficient depends on its own first-stratum variable.
    return group_from_table(
        name="skew",
        strata_dims=(2, 1),
        table={(0, 2): "x1"},
    )


class TestHalfSpace:
    def test_normalizes(self):
        hs = HalfSpace(nu=np.array([3.0, 4.0, 0.0]), d=1.0)
        assert np.allclose(hs.nu, [0.6, 0.8, 0.0])
        assert np.isclose(np.linalg.norm(hs.nu), 1.0)
        assert hs.d == 1.0

    def test_distance_and_contains(self):
        hs = halfspace_preset(3, "x1-axis", 2.0)
        pts = np.array([[3.0, 9.0, 9.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(hs.distance(pts), [1.0, -1.0])
        assert np.array_equal(hs.contains(pts), [True, False])
        assert hs.distance(np.array([[5.0, 0.0, 0.0]]))[0] == 3.0

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            HalfSpace(nu=np.zeros(3), d=0.0)

    @pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_offset(self, d):
        with pytest.raises(ValueError, match="finite"):
            HalfSpace(nu=np.array([0.0, 0.0, 1.0]), d=d)

    def test_preset_accepts_spec(self, h1):
        hs = halfspace_preset(h1, "t-axis")
        assert np.array_equal(hs.nu, [0.0, 0.0, 1.0])

    def test_preset_rejects_unknown(self):
        with pytest.raises(ValueError):
            halfspace_preset(3, "z-axis")


class TestScalarField:
    def test_values_and_value(self):
        f = ScalarField(2, lambda pts: pts[:, 0] + 2 * pts[:, 1])
        assert f.values([[1.0, 3.0]])[0] == 7.0
        assert np.array_equal(f.values([[1.0, 0.0], [0.0, 1.0]]), [1.0, 2.0])

    def test_shape_validation(self):
        f = ScalarField(3, lambda pts: pts[:, 0])
        with pytest.raises(ValueError):
            f.values(np.zeros((4, 2)))

    def test_support_box_shape_validation(self):
        with pytest.raises(ValueError):
            ScalarField(3, lambda pts: pts[:, 0], support_box=np.zeros((2, 2)))

    def test_fd_gradient_second_order(self):
        f = ScalarField(2, lambda pts: np.exp(np.sin(pts[:, 0]) + pts[:, 1] ** 2))
        x = np.array([[0.4, -0.7]])
        exact = f.values(x) * np.array([np.cos(0.4), -1.4])
        err = [np.max(np.abs(f.gradients(x, h) - exact)) for h in (2e-2, 1e-2)]
        ratio = err[0] / err[1]
        assert 3.0 < ratio < 5.5

    def test_exact_gradient_preferred(self):
        calls = []
        f = ScalarField(
            2,
            lambda pts: pts[:, 0] ** 2,
            grad_fn=lambda pts: calls.append(1) or np.stack([2 * pts[:, 0], 0 * pts[:, 1]], axis=1),
        )
        assert f.has_exact_grad
        g = f.gradients(np.array([[3.0, 1.0]]))
        assert np.array_equal(g, [[6.0, 0.0]]) and calls

    def test_needs_fn_or_fn_and_grad(self):
        both = lambda pts: (pts[:, 0], np.ones_like(pts))
        for parts in ({}, {"fn": both, "fn_and_grad": both}, {"grad_fn": both, "fn_and_grad": both}):
            with pytest.raises(ValueError, match="fn_and_grad"):
                ScalarField(2, **parts)
        f = ScalarField(2, fn_and_grad=both)
        assert f.has_exact_grad
        assert np.array_equal(f.values([[3.0, 1.0]]), [3.0])
        assert np.array_equal(f.gradients([[3.0, 1.0]]), [[1.0, 1.0]])

    def test_scaled(self):
        f = ScalarField(2, lambda pts: pts[:, 0], grad_fn=lambda pts: np.tile([1.0, 0.0], (len(pts), 1)))
        g = f.scaled(-3.0)
        pts = np.array([[2.0, 5.0]])
        assert g.values(pts)[0] == -6.0
        assert np.array_equal(g.gradients(pts), [[-3.0, 0.0]])


class TestPairings:
    def test_heisenberg_pairing_polynomials(self, h1, rng):
        nu = random_unit(rng, 3)
        hs = HalfSpace(nu=nu, d=0.0)
        px, py = pairing_polynomials(h1, hs)
        nu = hs.nu
        assert px == Polynomial(3, {(0, 0, 0): nu[0], (0, 1, 0): 2.0 * nu[2]})
        assert py == Polynomial(3, {(0, 0, 0): nu[1], (1, 0, 0): -2.0 * nu[2]})

    def test_field_pairings_match_polynomials(self, h2, rng):
        hs = HalfSpace(nu=random_unit(rng, 5), d=0.3)
        pts = rng.uniform(-2, 2, size=(30, 5))
        polys = pairing_polynomials(h2, hs)
        direct = field_pairings(h2, hs, pts)
        assert direct.shape == (30, 4)
        for k, p in enumerate(polys):
            assert np.array_equal(direct[:, k], p.eval_many(pts))

    def test_abelian_pairings_are_constants(self, r3, rng):
        hs = HalfSpace(nu=random_unit(rng, 3, tilt=False), d=0.0)
        for k, p in enumerate(pairing_polynomials(r3, hs)):
            assert p == Polynomial.constant(3, hs.nu[k])

    def test_fd_route_agrees(self, h2, rng):
        hs = HalfSpace(nu=random_unit(rng, 5), d=0.0)
        pts = rng.uniform(-2, 2, size=(50, 5))
        assert np.max(identity_Xi_pairing_many(h2, hs, pts)) < 1e-8

    def test_dimension_mismatch(self, h1):
        with pytest.raises(ValueError):
            pairing_polynomials(h1, halfspace_preset(5, "t-axis"))

    def test_mixed_derivatives_exact(self, h2):
        # Y_i <X_i, nu> = 2 nu_t and X_i <Y_i, nu> = -2 nu_t, all other
        # cross-applications vanish; exercised on the exact polynomial ring.
        hs = HalfSpace(nu=np.array([0.1, 0.2, 0.3, 0.4, 0.5]), d=0.0)
        polys = pairing_polynomials(h2, hs)
        nut = hs.nu[4]
        n = 2
        for i in range(n):
            for j in range(n):
                yj_pxi = apply_field_to_polynomial(h2, n + j, polys[i])
                xi_pyj = apply_field_to_polynomial(h2, i, polys[n + j])
                if i == j:
                    assert yj_pxi == Polynomial.constant(5, 2.0 * nut)
                    assert xi_pyj == Polynomial.constant(5, -2.0 * nut)
                else:
                    assert yj_pxi.is_zero and xi_pyj.is_zero
                assert apply_field_to_polynomial(h2, i, polys[i]).is_zero

    def test_horizontal_from_euclidean(self, h1, rng):
        pts = rng.uniform(-2, 2, size=(10, 3))
        grads = rng.normal(size=(10, 3))
        hor = horizontal_from_euclidean(h1, pts, grads)
        x, y = pts[:, 0], pts[:, 1]
        assert np.allclose(hor[:, 0], grads[:, 0] + 2 * y * grads[:, 2], rtol=1e-15)
        assert np.allclose(hor[:, 1], grads[:, 1] - 2 * x * grads[:, 2], rtol=1e-15)


_BUMP = BumpSpec(center=(0.2, -0.1, 0.8), radius=0.6)

# (builder of a trial from a half-space, BumpSupport.shape calls per evaluation)
_TRIALS = {
    "bump": (lambda hs: make_bump(_BUMP), 1),
    "bump-powers-4": (lambda hs: make_bump(BumpSpec(_BUMP.center, 0.6, powers=(4, 4, 4))), 1),
    "ground": (lambda hs: ground_transform(make_bump(_BUMP), hs, 3.0), 1),
    "unground": (lambda hs: inverse_ground_transform(make_bump(_BUMP), hs, 2.0), 1),
    "sharpness": (
        lambda hs: sharpness_trial(SharpnessSpec(2.0, 0.3, boundary_bump_spec(hs, 0.9)), hs),
        1,
    ),
    "scaled": (lambda hs: make_bump(_BUMP).scaled(7.0), 1),
    # no exact gradient: central differences of fn
    "hand-built": (lambda hs: ScalarField(3, lambda pts: np.exp(-np.sum(pts * pts, axis=1))), 0),
}


class TestTrialSample:
    def test_fields_match_the_separate_batch_calls(self, h1, rng):
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.1)
        u = make_bump(BumpSpec(center=(0.2, -0.1, 0.8), radius=0.6))
        pts = rng.uniform(-0.4, 1.4, size=(40, 3))
        s = sample_trial(h1, hs, u, pts)
        assert len(s) == 40
        assert np.array_equal(s.points, pts)
        assert np.array_equal(s.dist, hs.distance(pts))
        assert np.array_equal(s.w, angle_function_many(h1, hs, pts))
        assert np.array_equal(s.u, u.values(pts))
        assert np.array_equal(s.grad, u.gradients(pts))
        assert np.array_equal(s.hgrad, horizontal_gradient_many(h1, u, pts))

    @pytest.mark.parametrize("name", sorted(_TRIALS))
    def test_u_and_grad_u_come_from_one_evaluation(self, h1, rng, monkeypatch, name):
        build, shapes = _TRIALS[name]
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.1)
        u = build(hs)
        pts = rng.uniform(-0.4, 1.4, size=(40, 3))
        calls = []
        shape = BumpSupport.shape
        monkeypatch.setattr(BumpSupport, "shape", lambda *a: calls.append(1) or shape(*a))
        s = sample_trial(h1, hs, u, pts)
        assert len(calls) == shapes
        assert np.any(s.u != 0.0)
        assert np.array_equal(s.u, u.values(pts))
        assert np.array_equal(s.grad, u.gradients(pts))

    def test_w_and_hgrad_are_computed_on_first_read(self, h1, rng):
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.1)
        u = make_bump(BumpSpec(center=(0.2, -0.1, 0.8), radius=0.6))
        pts = rng.uniform(-0.4, 1.4, size=(40, 3))
        dist = hs.distance(pts) + 1.0  # not the points' own: the sample reads what it is given
        s = sample_trial(h1, hs, u, pts, dist)
        assert "w" not in vars(s) and "hgrad" not in vars(s)
        assert s.w is s.w and "w" in vars(s) and "hgrad" not in vars(s)
        assert s.dist is dist


class TestAngleFunction:
    def test_t_axis_closed_form(self, h1, t_axis, rng):
        pts = rng.uniform(-2, 2, size=(40, 3))
        w = angle_function_many(h1, t_axis, pts)
        ref = 4.0 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        assert np.allclose(w**2, ref, rtol=1e-14)

    def test_x1_axis_is_one(self, h1, x1_axis, rng):
        pts = rng.uniform(-2, 2, size=(40, 3))
        assert np.all(angle_function_many(h1, x1_axis, pts) == 1.0)

    def test_abelian_is_one(self, r3, rng):
        hs = HalfSpace(nu=random_unit(rng, 3, tilt=False), d=0.0)
        pts = rng.uniform(-2, 2, size=(40, 3))
        assert np.max(np.abs(angle_function_many(r3, hs, pts) - 1.0)) < 1e-15

    def test_gradient_closed_form_vs_fd(self, h1, rng):
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.0)
        pts = rng.uniform(0.5, 2.0, size=(30, 3))
        w = angle_function_many(h1, hs, pts)
        keep = w > 0.3
        pts = pts[keep]
        closed = angle_gradient_many(1, hs, pts)
        w_field = ScalarField(3, lambda q: angle_function_many(h1, hs, q))
        fd = horizontal_gradient_many(h1, w_field, pts)
        scale = 1.0 + np.max(np.abs(closed))
        assert np.max(np.abs(closed - fd)) < 1e-5 * scale

    def test_gradient_nan_where_angle_vanishes(self, h1, t_axis):
        out = angle_gradient_many(1, t_axis, np.array([[0.0, 0.0, 5.0]]))
        assert np.all(np.isnan(out))


class TestDistanceOperators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_distance_harmonic_on_heisenberg(self, rng, n):
        spec = heisenberg_group(n)
        hs = HalfSpace(nu=random_unit(rng, 2 * n + 1), d=0.2)
        assert sub_laplacian_distance_polynomial(spec, hs).is_zero

    def test_distance_harmonic_abelian(self, r3, rng):
        hs = HalfSpace(nu=random_unit(rng, 3, tilt=False), d=0.0)
        assert sub_laplacian_distance_polynomial(r3, hs).is_zero

    def test_flux_parts_vanish_on_heisenberg(self, h2, rng):
        hs = HalfSpace(nu=random_unit(rng, 5), d=-0.4)
        s1, s2 = distance_flux_parts(h2, hs)
        assert s1.is_zero and s2.is_zero

    def test_flux_parts_nonzero_on_skew_table(self, skew_table):
        hs = HalfSpace(nu=np.array([0.6, 0.0, 0.8]), d=0.0)
        s1, s2 = distance_flux_parts(skew_table, hs)
        nu = hs.nu
        # P1 = nu1 + nu3*x1, X1 P1 = nu3, so S1 = nu3 and S2 = nu3 * P1^2.
        assert s1 == Polynomial.constant(3, nu[2])
        p1 = Polynomial(3, {(0, 0, 0): nu[0], (1, 0, 0): nu[2]})
        assert s2 == p1 * p1 * nu[2]

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_distance_p_harmonic_closed_form(self, h1, rng, p):
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.0)
        pts = rng.uniform(0.5, 2.0, size=(25, 3))
        out = p_sub_laplacian_distance_many(h1, hs, pts, p)
        assert np.all(out[np.isfinite(out)] == 0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_closed_form_matches_fd_on_skew_table(self, skew_table, p, rng):
        hs = HalfSpace(nu=np.array([0.6, 0.0, 0.8]), d=0.0)
        pts = rng.uniform(0.5, 1.5, size=(20, 3))
        closed = p_sub_laplacian_distance_many(skew_table, hs, pts, p)
        (fd,) = p_sub_laplacian_fd_many(skew_table, distance_field(hs), pts, [p])
        assert np.all(np.isfinite(closed))
        assert np.max(np.abs(closed - fd)) < 1e-5 * (1.0 + np.max(np.abs(closed)))

    def test_fd_route_near_zero_on_heisenberg(self, h1, t_axis, rng):
        pts = rng.uniform(0.5, 2.0, size=(15, 3))
        (out,) = p_sub_laplacian_fd_many(h1, distance_field(t_axis), pts, [2.0])
        assert np.max(np.abs(out)) < 1e-6

    def test_rejects_small_p(self, h1, t_axis):
        with pytest.raises(ValueError):
            p_sub_laplacian_distance_many(h1, t_axis, np.zeros((1, 3)), 1.0)
        with pytest.raises(ValueError):
            p_sub_laplacian_fd_many(h1, distance_field(t_axis), np.zeros((1, 3)), [2.0, 0.5])

    def test_singular_flux_is_nan_below_two(self, h1):
        flat = ScalarField(3, lambda pts: np.ones(len(pts)), grad_fn=lambda pts: np.zeros_like(pts))
        x = np.array([[1.0, 1.0, 1.0]])
        below, above = p_sub_laplacian_fd_many(h1, flat, x, [1.5, 3.0])
        assert np.isnan(below[0])
        assert above[0] == 0.0

    @staticmethod
    def fd_one_p(spec, f, points, p, h=1e-4):
        """The nested-FD p-sub-Laplacian at one p, as it was computed before
        one call served several p."""
        m, n = points.shape
        nh = spec.horizontal_dim
        outer = np.sqrt(h) * 1e-2 * np.maximum(1.0, np.max(np.abs(points), axis=1))
        probes = np.repeat(points[:, None, :], 2 * n, axis=1)
        idx = np.arange(n)
        probes[:, 2 * idx, idx] += outer[:, None]
        probes[:, 2 * idx + 1, idx] -= outer[:, None]
        flat = probes.reshape(m * 2 * n, n)
        hor = horizontal_from_euclidean(spec, flat, f.gradients(flat, h))
        w2 = np.sum(hor * hor, axis=1)
        if p == 2.0:
            flux = hor
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                flux = np.where(w2[:, None] > 0.0, w2[:, None] ** ((p - 2.0) / 2.0), 0.0) * hor
            if p < 2.0:
                flux[w2 == 0.0] = np.nan
        flux = flux.reshape(m, 2 * n, nh)
        dflux = (flux[:, 2 * idx, :] - flux[:, 2 * idx + 1, :]) / (2.0 * outer[:, None, None])
        out = np.einsum("qkk->q", dflux[:, :nh, :])
        for k in range(nh):
            for slot, poly in spec.coeffs[k]:
                out += poly.eval_many(points) * dflux[:, slot, k]
        return out

    @pytest.mark.parametrize("group", ["skew", "heisenberg:1", "heisenberg:2"])
    def test_each_row_is_its_p_alone_bit_for_bit(self, skew_table, rng, group):
        spec = skew_table if group == "skew" else group_from_name(group)
        dim = spec.total_dim
        pts = rng.uniform(-1.5, 1.5, size=(40, dim))
        pts[::4, 0] = 0.0  # x1 = 0 at every probe of these points but one pair
        fields = [
            distance_field(HalfSpace(nu=random_unit(rng, dim), d=0.0)),
            # grad_H vanishes where x1 does: nan at p = 1.5 there
            ScalarField(dim, lambda q: q[:, 0] ** 2, grad_fn=lambda q: 2.0 * q * (np.arange(dim) == 0)),
        ]
        ps = [1.5, 2.0, 3.0]
        for f in fields:
            rows = p_sub_laplacian_fd_many(spec, f, pts, ps)
            assert rows.shape == (3, 40)
            for row, p in zip(rows, ps):
                want = self.fd_one_p(spec, f, pts, p)
                assert np.array_equal(row, want, equal_nan=True)
                assert np.array_equal(p_sub_laplacian_fd_many(spec, f, pts, [p])[0], want, equal_nan=True)
        # the second field at p = 1.5: nan at the points with x1 = 0 alone
        assert np.array_equal(np.isnan(rows[0]), pts[:, 0] == 0.0)

    def test_nan_where_angle_vanishes(self, h1, t_axis):
        out = p_sub_laplacian_distance_many(h1, t_axis, np.array([[0.0, 0.0, 1.0]]), 2.0)
        assert np.isnan(out[0])


class TestOrthogonality:
    def test_exact_zero(self, h1, rng):
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.0)
        pts = rng.uniform(-2, 2, size=(200, 3))
        out = orthogonality_identity_many(1, hs, pts)
        finite = out[np.isfinite(out)]
        assert finite.size > 150
        assert np.all(finite == 0.0)

    def test_single_point(self, h1):
        hs = HalfSpace(nu=np.array([0.3, -0.2, 0.9]), d=0.0)
        assert orthogonality_identity_many(1, hs, np.array([[0.7, -0.4, 1.1]]))[0] == 0.0

    def test_nan_where_angle_vanishes(self, t_axis):
        out = orthogonality_identity_many(1, t_axis, np.array([[0.0, 0.0, 3.0]]))
        assert np.isnan(out[0])

    def test_index_two(self, rng):
        hs = HalfSpace(nu=random_unit(rng, 5), d=0.0)
        pts = rng.uniform(-2, 2, size=(100, 5))
        out = orthogonality_identity_many(2, hs, pts)
        assert np.all(out[np.isfinite(out)] == 0.0)


class TestApplyField:
    def test_exact_gradient_route_matches_pairings(self, h1, rng):
        hs = HalfSpace(nu=random_unit(rng, 3), d=0.1)
        f = distance_field(hs)
        polys = pairing_polynomials(h1, hs)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=(1, 3))
            hor = horizontal_gradient_many(h1, f, x)[0]
            for k in range(2):
                assert np.isclose(hor[k], polys[k].eval_many(x)[0], rtol=1e-12, atol=1e-14)

    def test_fd_route_matches_polynomial_ring(self, h2, rng):
        g = Polynomial(5, {(1, 1, 0, 0, 1): 2.0, (0, 0, 2, 0, 0): -1.0, (0, 0, 0, 0, 2): 0.5})
        f = ScalarField(5, lambda pts: g.eval_many(pts))
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=(1, 5))
            hor = horizontal_gradient_many(h2, f, x)[0]
            for k in range(4):
                exact = apply_field_to_polynomial(h2, k, g).eval_many(x)[0]
                assert abs(hor[k] - exact) < 1e-5 * (1 + abs(exact))

    def test_index_out_of_range(self, h1):
        with pytest.raises(ValueError):
            apply_field_to_polynomial(h1, 5, Polynomial.variable(3, 0))


def _layout_trial(name, hs, center):
    bump = BumpSpec(center=tuple(center), radius=0.6)
    if name == "bump":
        return make_bump(bump)
    if name == "sharpness":
        return sharpness_trial(SharpnessSpec(p=3.0, eps=0.1, cutoff=bump), hs)
    return ground_transform(make_bump(bump), hs, 3.0)


class TestNodeLayout:
    """Quadrature stores its nodes by coordinate (column-major); a sample
    must not depend on that."""

    _BASES = ("dist", "u", "grad", "hgrad", "w", "hgrad_sq", "weighted_u")
    _CHECKS = (HARDY, GENERAL_HARDY, REMAINDER, SOBOLEV)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("normal", ["t-axis", "oblique"])
    @pytest.mark.parametrize("trial", ["bump", "sharpness", "ground"])
    def test_row_and_column_major_nodes_give_the_same_sample(self, k, normal, trial, rng):
        spec = heisenberg_group(k)
        n = spec.total_dim
        hs = halfspace_preset(spec, "t-axis", 0.1) if normal == "t-axis" else HalfSpace(random_unit(rng, n), 0.1)
        center = hs.nu * (hs.d + 0.3)
        pts = center + rng.uniform(-0.6, 0.6, size=(400, n))
        pts = pts[hs.distance(pts) > 0.0]
        u = _layout_trial(trial, hs, center)
        by_row = sample_trial(spec, hs, u, np.ascontiguousarray(pts))
        by_column = sample_trial(spec, hs, u, np.asfortranarray(pts))
        assert by_column.points.flags.f_contiguous and not by_row.points.flags.f_contiguous
        assert np.any(by_row.u != 0.0)
        for name in self._BASES:
            assert np.array_equal(getattr(by_row, name), getattr(by_column, name)), name
        # LUAN_YOUNG takes t > 0 at p = 2 alone; its integrands read neither
        integrands = LUAN_YOUNG.integrands(spec, halfspace_preset(spec, "t-axis"), 2.0)
        for check in self._CHECKS:
            for p in (2.0, 3.0):
                integrands += check.integrands(spec, hs, p)
        for f in integrands:
            assert np.array_equal(f(by_row), f(by_column), equal_nan=True)

    # below 16 points per axis a bump inside the half-space on heisenberg:3
    # takes the graded rule's Monte Carlo branch, not the ball rule; 5 has
    # the smallest coarse companion, at 2
    @pytest.mark.parametrize("ppa", [5, 8, 16])
    @pytest.mark.parametrize("normal", ["t-axis", "oblique"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_every_rule_stores_its_nodes_by_coordinate(self, normal, k, ppa, rng):
        n = 2 * k + 1
        hs = halfspace_preset(n, "t-axis", 0.0) if normal == "t-axis" else HalfSpace(random_unit(rng, n), 0.0)
        cfg = QuadConfig(points_per_axis=ppa, sample_count=5000)
        # a bump across the boundary (the graded rule) and one inside (the
        # ball rule, or the graded rule's Monte Carlo branch)
        for clearance in (0.0, 0.5):
            u = make_bump(BumpSpec(center=tuple(hs.nu * clearance), radius=0.4))
            rule = _build_nodes(u.support_box, hs, cfg, u.support)
            # one row would be both row- and column-major
            assert len(rule.points) > 1
            for r in (rule, rule.coarse):
                assert r is None or r.points.flags.f_contiguous

import numpy as np
import pytest

from strathardy import (
    GroupSpec,
    Polynomial,
    commutator_check,
    dilate,
    group_from_name,
    group_from_table,
    h_multiply,
    heisenberg_group,
    left_translation_jacobian,
)


class TestSpecValidation:
    def test_heisenberg_dimensions(self, h2):
        assert h2.strata_dims == (4, 1)
        assert h2.total_dim == 5
        assert h2.horizontal_dim == 4
        assert h2.homogeneous_dim == 6
        assert np.array_equal(h2.stratum_weights(), [1, 1, 1, 1, 2])

    def test_abelian_dimensions(self, r3):
        assert r3.strata_dims == (3,)
        assert r3.homogeneous_dim == 3
        assert not r3.is_heisenberg

    def test_heisenberg_coefficient_table(self, h1):
        # X1 carries 2*x2 on the t slot, Y1 carries -2*x1.
        assert h1.field_vector(0)[2] == Polynomial.variable(3, 1).scale(2.0)
        assert h1.field_vector(1)[2] == Polynomial.variable(3, 0).scale(-2.0)
        assert h1.field_vector(0)[1].is_zero

    def test_field_vector_shape(self, h1):
        assert h1.field_vector(0) == [
            Polynomial.constant(3, 1.0),
            Polynomial.zero(3),
            Polynomial.variable(3, 1).scale(2.0),
        ]

    def test_field_index_out_of_range(self, h1):
        with pytest.raises(ValueError):
            h1.field_vector(2)

    def test_rejects_coefficient_on_first_stratum(self):
        with pytest.raises(ValueError):
            GroupSpec(
                name="bad",
                strata_dims=(2, 1),
                coeffs=(((1, Polynomial.variable(3, 0)),), ()),
            )

    def test_rejects_dependence_on_target_stratum(self):
        # a t-slot coefficient may only involve first-stratum variables
        with pytest.raises(ValueError):
            GroupSpec(
                name="bad",
                strata_dims=(2, 1),
                coeffs=(((2, Polynomial.variable(3, 2)),), ()),
            )

    def test_rejects_empty_strata(self):
        with pytest.raises(ValueError):
            GroupSpec(name="bad", strata_dims=(), coeffs=())

    def test_rejects_coeff_row_mismatch(self):
        with pytest.raises(ValueError):
            GroupSpec(name="bad", strata_dims=(2,), coeffs=((),))

    def test_group_from_table_takes_polynomials(self):
        x, y = Polynomial.variable(3, 0), Polynomial.variable(3, 1)
        spec = group_from_table(
            name="h1-copy",
            strata_dims=(2, 1),
            table={(0, 2): y.scale(2.0), (1, 2): x.scale(-2.0)},
        )
        assert spec.field_vector(0) == heisenberg_group(1).field_vector(0)
        assert spec.field_vector(1) == heisenberg_group(1).field_vector(1)
        with pytest.raises(ValueError, match="must be a Polynomial in 3 variables"):
            group_from_table(strata_dims=(2, 1), table={(0, 2): "2*x2"})

    @pytest.mark.parametrize(
        "entry", ["2*x2", 2.0, None, Polynomial.variable(2, 1)], ids=["text", "float", "none", "nvars"]
    )
    def test_group_from_table_rejects_other_entries(self, entry):
        with pytest.raises(ValueError, match="field 0, slot 2: coefficient must be a Polynomial in 3 variables"):
            group_from_table(strata_dims=(2, 1), table={(0, 2): entry})

    def test_group_from_name(self):
        assert group_from_name("heisenberg:2").heisenberg_n == 2
        assert group_from_name("abelian:4").total_dim == 4

    @pytest.mark.parametrize("bad", ["heisenberg", "heisenberg:0", "abelian:x", "free:2"])
    def test_group_from_name_rejects(self, bad):
        with pytest.raises(ValueError):
            group_from_name(bad)


class TestGroupLaw:
    def test_identity_element(self, rng):
        xi = rng.uniform(-2, 2, size=5)
        zero = np.zeros(5)
        assert np.array_equal(h_multiply(xi, zero, 2), xi)
        assert np.array_equal(h_multiply(zero, xi, 2), xi)

    def test_inverse_cancels(self, rng):
        xi = rng.uniform(-2, 2, size=(40, 5))
        # the Heisenberg inverse is coordinatewise negation
        prod = h_multiply(xi, -xi, 2)
        assert np.max(np.abs(prod)) == 0.0

    def test_known_product(self):
        xi = np.array([1.0, 2.0, 3.0])
        eta = np.array([4.0, 5.0, 6.0])
        # t + t' + 2*(x'*y - x*y')
        assert np.array_equal(h_multiply(xi, eta, 1), [5.0, 7.0, 9.0 + 2 * (8 - 5)])

    def test_associativity(self, rng):
        a, b, c = rng.uniform(-2, 2, size=(3, 30, 5))
        left = h_multiply(h_multiply(a, b, 2), c, 2)
        right = h_multiply(a, h_multiply(b, c, 2), 2)
        assert np.max(np.abs(left - right)) < 1e-12

    def test_noncommutative(self):
        xi = np.array([1.0, 0.0, 0.0])
        eta = np.array([0.0, 1.0, 0.0])
        assert not np.array_equal(h_multiply(xi, eta, 1), h_multiply(eta, xi, 1))

    def test_broadcasting(self, rng):
        one = rng.uniform(-1, 1, size=3)
        many = rng.uniform(-1, 1, size=(6, 3))
        out = h_multiply(one, many, 1)
        assert out.shape == (6, 3)
        assert np.array_equal(out[2], h_multiply(one, many[2], 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            h_multiply(np.zeros(4), np.zeros(3), 1)


class TestDilations:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
    def test_morphism(self, h2, rng, lam):
        xi, eta = rng.uniform(-2, 2, size=(2, 25, 5))
        left = dilate(h2, lam, h_multiply(xi, eta, 2))
        right = h_multiply(dilate(h2, lam, xi), dilate(h2, lam, eta), 2)
        assert np.max(np.abs(left - right)) <= 1e-12 * max(1.0, np.max(np.abs(left)))

    def test_composition(self, h1, rng):
        xi = rng.uniform(-2, 2, size=(10, 3))
        assert np.allclose(
            dilate(h1, 3.0, dilate(h1, 2.0, xi)), dilate(h1, 6.0, xi), rtol=1e-15
        )

    def test_weights(self, h1):
        assert np.array_equal(dilate(h1, 2.0, np.ones(3)), [2.0, 2.0, 4.0])

    def test_rejects_nonpositive(self, h1):
        with pytest.raises(ValueError):
            dilate(h1, -1.0, np.zeros(3))


class TestVectorFields:
    def test_commutator_xy_pairs(self, h2):
        t_slot = 4
        for i in range(2):
            for j in range(2):
                bracket = commutator_check(h2, i, 2 + j)
                for slot, poly in enumerate(bracket):
                    if i == j and slot == t_slot:
                        assert poly == Polynomial.constant(5, -4.0)
                    else:
                        assert poly.is_zero, (i, j, slot)

    def test_commutator_xx_vanishes(self, h2):
        for i, j in [(0, 1), (2, 3)]:
            assert all(p.is_zero for p in commutator_check(h2, i, j))

    def test_commutator_antisymmetric(self, h1):
        fwd = commutator_check(h1, 0, 1)
        rev = commutator_check(h1, 1, 0)
        assert all((a + b).is_zero for a, b in zip(fwd, rev))

    def test_commutator_rejects_non_heisenberg(self, r3):
        with pytest.raises(ValueError):
            commutator_check(r3, 0, 1)

    def test_left_invariance_fd(self, h1, rng):
        # X_k(f . L_xi) at eta equals (X_k f) at xi o eta for smooth f.
        from strathardy.calculus import ScalarField, horizontal_from_euclidean

        f = Polynomial(3, {(2, 1, 0): 1.0, (0, 0, 1): 2.0, (1, 0, 1): -0.5})
        xi = rng.uniform(-1, 1, size=3)
        eta = rng.uniform(-1, 1, size=(15, 3))
        field = ScalarField(3, lambda pts: f.eval_many(pts))
        shifted = ScalarField(3, lambda pts: f.eval_many(h_multiply(xi, pts, 1)))
        moved = h_multiply(xi, eta, 1)
        lhs = horizontal_from_euclidean(h1, eta, shifted.gradients(eta))
        rhs = horizontal_from_euclidean(h1, moved, field.gradients(moved))
        for k in range(2):
            assert np.max(np.abs(lhs[:, k] - rhs[:, k])) < 1e-6


class TestHaar:
    def test_left_translation_volume_preserved(self, rng):
        pairs = [(rng.uniform(-3, 3, size=5), rng.uniform(-3, 3, size=5)) for _ in range(12)]
        xi, eta = (np.array(side) for side in zip(*pairs))
        assert np.all(np.abs(left_translation_jacobian(xi, eta, 2) - 1.0) < 1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_matches_one_pair_at_a_time(self, rng, n):
        xi = rng.uniform(-3, 3, size=(20, 2 * n + 1))
        eta = rng.uniform(-3, 3, size=(20, 2 * n + 1))
        batch = left_translation_jacobian(xi, eta, n)
        single = [left_translation_jacobian(xi[i : i + 1], eta[i : i + 1], n)[0] for i in range(20)]
        assert batch.shape == (20,)
        assert np.array_equal(batch, single)

    def test_rejects_unpaired_shapes(self):
        with pytest.raises(ValueError):
            left_translation_jacobian(np.zeros(3), np.zeros(3), 1)
        with pytest.raises(ValueError):
            left_translation_jacobian(np.zeros((2, 3)), np.zeros((3, 3)), 1)

    def test_far_from_origin(self, rng):
        xi = rng.uniform(40, 50, size=(1, 3))
        eta = rng.uniform(-50, -40, size=(1, 3))
        assert abs(left_translation_jacobian(xi, eta, 1)[0] - 1.0) < 1e-10

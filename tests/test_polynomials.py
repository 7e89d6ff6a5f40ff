import numpy as np
import pytest
from hypothesis import given, strategies as st

from strathardy import Polynomial, parse_polynomial


def int_polys(nvars, max_exp=4, max_terms=6):
    """Integer-coefficient polynomials; every ring operation on them is
    exact in floats, so algebraic identities must hold bitwise."""
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    coeffs = st.integers(-9, 9)
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d)
    )


points = st.tuples(*[st.floats(-3, 3)] * 3).map(np.array)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert p.terms == {(0, 1): 2.0}

    def test_negative_zero_is_dropped(self):
        assert Polynomial(1, {(1,): -0.0}).is_zero

    def test_like_terms_combine(self):
        p = Polynomial(1, {(2,): 1.5}) + Polynomial(1, {(2,): -1.5})
        assert p.is_zero

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            Polynomial(2, {(1, 2, 3): 1.0})

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(-1,): 1.0})

    def test_rejects_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            Polynomial(1, {(1,): float("nan")})

    def test_immutable(self):
        p = Polynomial.variable(2, 0)
        with pytest.raises(AttributeError):
            p.nvars = 3

    def test_hashable_and_equal(self):
        a = Polynomial(2, {(1, 0): 2.0})
        b = Polynomial.variable(2, 0).scale(2.0)
        assert a == b and hash(a) == hash(b)


class TestRing:
    @given(int_polys(3), int_polys(3))
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(int_polys(3), int_polys(3))
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(int_polys(2), int_polys(2), int_polys(2))
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(int_polys(2), int_polys(2), int_polys(2))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(int_polys(3))
    def test_additive_inverse(self, a):
        assert (a - a).is_zero

    @given(int_polys(3), st.integers(0, 2))
    def test_partial_of_constant_times(self, a, i):
        assert (a * 3).partial(i) == a.partial(i) * 3

    @given(int_polys(2), int_polys(2), st.integers(0, 1))
    def test_leibniz(self, a, b, i):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)

    @given(int_polys(2), st.integers(0, 1))
    def test_partials_commute(self, a, i):
        j = 1 - i
        assert a.partial(i).partial(j) == a.partial(j).partial(i)


class TestEvaluation:
    @given(int_polys(3), points)
    def test_scalar_matches_batch(self, a, x):
        # a point alone and the same point inside a larger batch
        assert a.eval_many(x.reshape(1, -1))[0] == a.eval_many(np.stack([x, 2 * x]))[0]

    @given(int_polys(3), int_polys(3), points)
    def test_sum_evaluates_pointwise(self, a, b, x):
        x = x.reshape(1, -1)
        ax, bx = a.eval_many(x)[0], b.eval_many(x)[0]
        assert abs((a + b).eval_many(x)[0] - (ax + bx)) <= 1e-9 * (1 + abs(ax) + abs(bx))

    def test_eval_many_shape_check(self):
        with pytest.raises(ValueError):
            Polynomial.variable(2, 0).eval_many(np.zeros((3, 5)))

    def test_known_value(self):
        p = Polynomial(2, {(2, 1): 3.0, (0, 0): -1.0})  # 3 x^2 y - 1
        assert p.eval_many(np.array([[2.0, 5.0]]))[0] == 59.0


class TestText:
    @given(int_polys(3))
    def test_round_trip_integer(self, a):
        assert parse_polynomial(a.to_string(), 3) == a

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=5,
        )
    )
    def test_round_trip_float_coefficients(self, terms):
        a = Polynomial(2, terms)
        assert parse_polynomial(a.to_string(), 2) == a

    def test_zero_prints_as_zero(self):
        assert Polynomial.zero(3).to_string() == "0"
        assert parse_polynomial("0", 3).is_zero

    def test_parse_accepts_bare_variables(self):
        assert parse_polynomial("x2", 3) == Polynomial.variable(3, 1)
        assert parse_polynomial("-x1^2", 2) == Polynomial.monomial(2, (2, 0), -1.0)

    def test_parse_scientific_notation(self):
        p = parse_polynomial("1e-3*x1 + 2.5E+2", 1)
        assert p == Polynomial(1, {(1,): 1e-3, (0,): 250.0})

    def test_parse_repeated_factor_accumulates(self):
        assert parse_polynomial("2*x1*x1^2", 1) == Polynomial(1, {(3,): 2.0})

    @pytest.mark.parametrize("bad", ["", "x0", "x4", "2*", "+ -", "x1^-2", "x1^2.5", "3..2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_polynomial(bad, 3)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strathardy import Polynomial


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


def _term_by_term(poly, pts):
    """Each term as a filled array of its coefficient times x_i ** e, term by
    term, added in order from the first (zeros for the zero polynomial)."""
    out = np.zeros(pts.shape[0]) if poly.is_zero else None
    for exps, coeff in poly.terms.items():
        term = np.full(pts.shape[0], coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * pts[:, i] ** e
        out = term if out is None else out + term
    return out


def _zero_started(poly, pts):
    """The sum as eval_many added it from a zero array: 0.0 + the first term
    turns a -0.0 into 0.0, and is otherwise the first term itself."""
    out = np.zeros(pts.shape[0])
    for exps, coeff in poly.terms.items():
        term = coeff
        for i, e in enumerate(exps):
            if e:
                term = term * (pts[:, i] if e == 1 else pts[:, i] ** e)
        out += term
    return out


_coeffs = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: c != 0.0)


@st.composite
def _covering_polys(draw):
    """Polynomials in 3 variables that hold a constant term, a linear one,
    one with exponents of 2 and more, and a negative coefficient."""
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), _coeffs, max_size=5))
    terms.update(
        {
            (0, 0, 0): draw(_coeffs),
            (0, 1, 0): draw(_coeffs),
            (2, 0, 3): -abs(draw(_coeffs)),
        }
    )
    return Polynomial(3, terms)


class TestEvalManyArithmetic:
    @given(
        _covering_polys(),
        st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 3), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_equals_the_term_by_term_formula_bit_for_bit(self, poly, rows, column_major):
        pts = np.array(rows, dtype=float, order="F" if column_major else "C")
        want = _term_by_term(poly, np.ascontiguousarray(pts))
        got = poly.eval_many(pts)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestEvalManyFirstTerm:
    """eval_many starts its sum from the first term, not from a zero array."""

    @given(
        st.one_of(_covering_polys(), int_polys(3)),
        st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, -2.5]) | st.floats(-1e3, 1e3)] * 3), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_equals_the_zero_started_sum_up_to_the_sign_of_zero(self, poly, rows, column_major):
        pts = np.array(rows, dtype=float, order="F" if column_major else "C")
        before = pts.copy()
        got = poly.eval_many(pts)
        want = _zero_started(poly, pts)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(got[np.signbit(got) != np.signbit(want)] == 0.0)
        # a new array of its own, never a view of the points
        assert got.shape == (len(pts),) and got.flags.owndata and got.flags.writeable
        assert not np.shares_memory(got, pts)
        got += 1.0
        assert np.array_equal(pts, before)

    @pytest.mark.parametrize(
        "poly, want",
        [
            (Polynomial(2, {}), [0.0, 0.0]),  # zeros for the zero polynomial
            (Polynomial.constant(2, -1.5), [-1.5, -1.5]),  # filled for a constant
            (Polynomial.variable(2, 0), [-0.0, 3.0]),  # a new array, not the column
            (Polynomial(2, {(1, 0): -1.0, (0, 0): 2.0}), [2.0, -1.0]),
        ],
    )
    def test_each_start(self, poly, want):
        pts = np.array([[-0.0, 1.0], [3.0, 2.0]], order="F")
        got = poly.eval_many(pts)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert got.flags.owndata and not np.shares_memory(got, pts)

    def test_a_negative_zero_first_term_keeps_its_sign(self):
        # -x at x = 0.0: the zero-started sum read 0.0
        pts = np.array([[0.0]])
        poly = Polynomial(1, {(1,): -1.0})
        assert np.signbit(poly.eval_many(pts)[0]) and not np.signbit(_zero_started(poly, pts)[0])


class TestRepr:
    """``repr`` is the one printed form: it spells the constructor call."""

    @given(int_polys(3))
    def test_round_trip_integer(self, a):
        assert eval(repr(a), {"Polynomial": Polynomial}) == a

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=5,
        )
    )
    def test_round_trip_float_coefficients(self, terms):
        a = Polynomial(2, terms)
        assert eval(repr(a), {"Polynomial": Polynomial}) == a

    def test_zero_and_str(self):
        assert repr(Polynomial.zero(3)) == "Polynomial(3, {})"
        p = Polynomial.variable(2, 1).scale(-2.0)
        assert str(p) == repr(p) == "Polynomial(2, {(0, 1): -2.0})"


class TestBuiltFromArithmetic:
    """Coefficient tables are built from constructors and ring operations."""

    def test_variable_is_a_unit_monomial(self):
        assert Polynomial.variable(3, 1) == Polynomial.monomial(3, (0, 1, 0), 1.0)
        x1 = Polynomial.variable(2, 0)
        assert -(x1 * x1) == Polynomial.monomial(2, (2, 0), -1.0)

    def test_small_and_large_coefficients(self):
        p = Polynomial.variable(1, 0).scale(1e-3) + 2.5e2
        assert p == Polynomial(1, {(1,): 1e-3, (0,): 250.0})

    def test_repeated_factor_accumulates(self):
        x1 = Polynomial.variable(1, 0)
        assert 2 * x1 * (x1 * x1) == Polynomial(1, {(3,): 2.0})

    @pytest.mark.parametrize("index", [-1, 3])
    def test_variable_rejects_index(self, index):
        with pytest.raises(ValueError, match="out of range"):
            Polynomial.variable(3, index)

    @pytest.mark.parametrize(
        "op",
        [
            lambda p: p + "x1",
            lambda p: "x1" + p,
            lambda p: p - "x1",
            lambda p: p * "x1",
        ],
        ids=["add", "radd", "sub", "mul"],
    )
    def test_text_is_not_an_operand(self, op):
        with pytest.raises(TypeError):
            op(Polynomial.variable(3, 0))

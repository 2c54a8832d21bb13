import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ust import (
    DimensionMismatchError,
    NumericOverflowError,
    UncertainValue,
    UncertainVector,
    u_add,
    u_eq,
    u_lt,
    u_pow,
    u_sub,
    udissim,
)

from oracles import sq_euclidean

finite_best = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
finite_unc = st.floats(min_value=0.0, max_value=1e2, allow_nan=False)
uvalues = st.builds(UncertainValue, finite_best, finite_unc)


def uvectors(max_n=16):
    return st.lists(st.tuples(finite_best, finite_unc), min_size=1, max_size=max_n).map(
        UncertainVector.from_pairs
    )


def paired_vectors(max_n=16):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(finite_best, finite_unc), min_size=n, max_size=n).map(
                UncertainVector.from_pairs
            ),
            st.lists(st.tuples(finite_best, finite_unc), min_size=n, max_size=n).map(
                UncertainVector.from_pairs
            ),
        )
    )


class TestUncertainValue:
    def test_normalizes_negative_uncertainty(self):
        assert UncertainValue(1.0, -0.5).uncertainty == 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_best(self, bad):
        with pytest.raises(ValueError):
            UncertainValue(bad, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_uncertainty(self, bad):
        with pytest.raises(ValueError):
            UncertainValue(0.0, bad)

    def test_str(self):
        assert str(UncertainValue(2.0, 0.5)) == "2.0 ± 0.5"


class TestArithmetic:
    def test_add(self):
        z = u_add(UncertainValue(2, 0.5), UncertainValue(3, 0.1))
        assert z.best == 5.0
        assert z.uncertainty == pytest.approx(0.6, rel=1e-15)

    def test_add_identity(self):
        x = UncertainValue(7.25, 0.0)
        assert u_eq(u_add(x, UncertainValue(0.0, 0.0)), x)

    def test_add_inverse_bests(self):
        z = u_add(UncertainValue(1, 0.2), UncertainValue(-1, 0.3))
        assert z.best == 0.0
        assert z.uncertainty == 0.5

    def test_sub(self):
        z = u_sub(UncertainValue(2, 0.5), UncertainValue(2, 0.1))
        assert z.best == 0.0
        assert z.uncertainty == 0.6

    def test_sub_self(self):
        x = UncertainValue(3.5, 0.25)
        z = u_sub(x, x)
        assert z.best == 0.0
        assert z.uncertainty == 0.5

    def test_sub_certain(self):
        assert u_eq(u_sub(UncertainValue(5, 0), UncertainValue(3, 0)), UncertainValue(2, 0))

    def test_pow_square(self):
        z = u_pow(UncertainValue(3, 0.1), 2)
        assert z.best == 9.0
        assert z.uncertainty == pytest.approx(0.6, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_pow_certain_unity(self, n):
        assert u_eq(u_pow(UncertainValue(1, 0), n), UncertainValue(1, 0))

    def test_pow_zero_base_square(self):
        assert u_eq(u_pow(UncertainValue(0, 0.4), 2), UncertainValue(0, 0))

    def test_pow_zero_base_keeps_uncertainty_at_one(self):
        assert u_eq(u_pow(UncertainValue(0, 0.4), 1), UncertainValue(0, 0.4))

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_pow_rejects_nonpositive_exponent(self, n):
        with pytest.raises(ValueError):
            u_pow(UncertainValue(2, 0.1), n)

    def test_pow_rejects_non_integer(self):
        with pytest.raises(TypeError):
            u_pow(UncertainValue(2, 0.1), 1.5)

    def test_add_overflow(self):
        big = UncertainValue(1e308, 0.0)
        with pytest.raises(NumericOverflowError):
            u_add(big, big)

    def test_operators_match_functions(self):
        x, y = UncertainValue(2, 0.5), UncertainValue(3, 0.1)
        assert u_eq(x + y, u_add(x, y))
        assert u_eq(x - y, u_sub(x, y))
        assert u_eq(x**2, u_pow(x, 2))

    @given(uvalues, uvalues)
    def test_add_matches_rules(self, x, y):
        z = u_add(x, y)
        assert z.best == x.best + y.best
        assert z.uncertainty == x.uncertainty + y.uncertainty

    @given(uvalues, uvalues)
    def test_sub_uncertainties_still_add(self, x, y):
        z = u_sub(x, y)
        assert z.best == x.best - y.best
        assert z.uncertainty == x.uncertainty + y.uncertainty


class TestOrder:
    def test_eq_reflexive(self):
        assert u_eq(UncertainValue(2, 0.5), UncertainValue(2, 0.5))

    def test_eq_distinguishes_uncertainty(self):
        # same best estimate, different uncertainties: not equal
        assert not u_eq(UncertainValue(2, 0.5), UncertainValue(2, 0.1))

    def test_eq_distinguishes_best(self):
        assert not u_eq(UncertainValue(2, 0.1), UncertainValue(3, 0.1))

    def test_lt_breaks_ties_on_uncertainty(self):
        # with x = 2 ± 0.5 and y = 2 ± 0.1 the order puts y below x
        assert u_lt(UncertainValue(2, 0.1), UncertainValue(2, 0.5))

    def test_lt_best_dominates(self):
        assert u_lt(UncertainValue(1, 9), UncertainValue(2, 0))

    def test_lt_irreflexive(self):
        x = UncertainValue(1.5, 0.25)
        assert not u_lt(x, x)

    def test_dunder_order_matches(self):
        x, y = UncertainValue(2, 0.1), UncertainValue(2, 0.5)
        assert (x < y) == u_lt(x, y)
        assert (x == y) == u_eq(x, y)
        assert sorted([y, x]) == [x, y]

    @given(uvalues, uvalues)
    def test_trichotomy(self, x, y):
        assert sum([u_lt(x, y), u_lt(y, x), u_eq(x, y)]) == 1

    @given(uvalues, uvalues)
    def test_asymmetry(self, x, y):
        assert not (u_lt(x, y) and u_lt(y, x))

    @given(uvalues, uvalues, uvalues)
    def test_transitivity(self, x, y, z):
        if u_lt(x, y) and u_lt(y, z):
            assert u_lt(x, z)


class TestUncertainVector:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UncertainVector([], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            UncertainVector([1.0, 2.0], [0.1])

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError, match="^uncertain vector components must be one-dimensional$"):
            UncertainVector([[1.0, 2.0]], [[0.1, 0.2]])

    @pytest.mark.parametrize("best, unc", [([1.0, math.nan], [0.0, 0.0]), ([1.0, 2.0], [0.0, math.inf])])
    def test_rejects_non_finite_values(self, best, unc):
        with pytest.raises(ValueError, match="^uncertain vector elements must be finite$"):
            UncertainVector(best, unc)

    def test_immutable(self):
        v = UncertainVector([1.0], [0.1])
        with pytest.raises(AttributeError):
            v.best = None
        with pytest.raises(ValueError):
            v.best[0] = 7.0

    def test_repr_equality_and_hash(self):
        v = UncertainVector([1.0, 2.0], [0.5, 0.0])
        assert repr(v) == "UncertainVector([1.0 ± 0.5, 2.0 ± 0.0])"
        assert (v == 1) is False
        assert hash(v) == hash(UncertainVector([1.0, 2.0], [0.5, 0.0]))

    def test_indexing_and_iteration(self):
        v = UncertainVector.from_pairs([(1, 0.1), (2, 0.2)])
        assert u_eq(v[1], UncertainValue(2, 0.2))
        assert [x.best for x in v] == [1.0, 2.0]
        assert len(v[0:1]) == 1


class TestUdissim:
    def test_worked_example(self):
        v = UncertainVector.from_pairs([(1, 0.1), (2, 0.2)])
        u = UncertainVector.from_pairs([(1, 0.1), (1, 0.0)])
        d = udissim(v, u)
        assert d.best == 1.0
        assert d.uncertainty == pytest.approx(0.4, rel=1e-15)

    def test_identical_certain_vectors(self):
        v = UncertainVector([3.0, -1.0, 2.5], [0.0, 0.0, 0.0])
        assert u_eq(udissim(v, v), UncertainValue(0, 0))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            udissim(UncertainVector([1.0], [0.0]), UncertainVector([1.0, 2.0], [0.0, 0.0]))

    @given(paired_vectors())
    def test_non_negative(self, pair):
        d = udissim(*pair)
        assert d.best >= 0.0
        assert d.uncertainty >= 0.0

    @given(paired_vectors())
    def test_symmetry(self, pair):
        v, u = pair
        assert u_eq(udissim(v, u), udissim(u, v))

    @given(paired_vectors())
    def test_certain_reduction_to_squared_euclidean(self, pair):
        v, u = pair
        v0 = UncertainVector(v.best, [0.0] * len(v))
        u0 = UncertainVector(u.best, [0.0] * len(u))
        d = udissim(v0, u0)
        assert d.uncertainty == 0.0
        expected = sq_euclidean(v0.best.tolist(), u0.best.tolist())
        assert d.best == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(paired_vectors())
    def test_matches_elementwise_composition(self, pair):
        v, u = pair
        acc = u_pow(u_sub(v[0], u[0]), 2)
        for i in range(1, len(v)):
            acc = u_add(acc, u_pow(u_sub(v[i], u[i]), 2))
        d = udissim(v, u)
        assert d.best == pytest.approx(acc.best, rel=1e-12, abs=1e-300)
        assert d.uncertainty == pytest.approx(acc.uncertainty, rel=1e-12, abs=1e-300)

    @given(paired_vectors(max_n=8), st.data())
    @settings(max_examples=50)
    def test_uncertainty_monotone_in_deltas(self, pair, data):
        v, u = pair
        i = data.draw(st.integers(min_value=0, max_value=len(v) - 1))
        bump = data.draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        raised = UncertainVector(
            v.best, [du + (bump if j == i else 0.0) for j, du in enumerate(v.uncertainty)]
        )
        d0 = udissim(v, u)
        d1 = udissim(raised, u)
        assert d1.best == d0.best
        assert d1.uncertainty >= d0.uncertainty

"""Scalar primitives and Laurent polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from krallm1 import (DegreeUnderflow, LaurentPoly, format_rational,
                     parse_rational, poch, qpoch, to_mpf,
                     working_precision)

F = Fraction


def fractions_st(lo=-12, hi=12, max_den=7):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, max_den))


def laurent_st(min_deg=-1, max_deg=6, max_terms=5):
    return st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(min_deg, max_deg), fractions_st(),
                        max_size=max_terms))


def proper_st(max_deg=6, max_terms=5):
    return laurent_st(min_deg=0, max_deg=max_deg, max_terms=max_terms)


# -- rational serialization ------------------------------------------------

def test_rational_round_trip():
    for text in ("3/4", "-7/5", "0", "12", "-3"):
        assert format_rational(parse_rational(text)) == text


def test_rational_canonical():
    assert parse_rational("2/4") == F(1, 2)
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(F(-6, 3)) == "-2"


def test_precision_float_round_trip():
    with working_precision(60):
        for value in (to_mpf(F(1, 3)), mp.sqrt(2), -mp.pi / 7):
            text = mp.nstr(value, mp.dps + 3)
            assert mpf(text) == value
        assert to_mpf("0.5") == mpf("0.5")
        x = mp.sqrt(3)
        assert to_mpf(x) is x  # mpf inputs are never re-rounded


# -- Pochhammer primitives -------------------------------------------------

def test_poch_values():
    assert poch(F(5, 3), 0) == 1
    assert poch(F(1), 3) == 6
    assert poch(F(1, 2), 2) == F(3, 4)


def test_qpoch_values():
    assert qpoch(F(7), F(3), 0) == 1
    assert qpoch(F(2), F(2), 2) == 3
    assert qpoch(F(1), F(5), 4) == 0


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        poch(F(1), -1)
    with pytest.raises(ValueError):
        qpoch(F(1), F(2), -2)


@given(fractions_st(), st.integers(0, 10))
def test_poch_recurrence(x, n):
    assert poch(x, n + 1) == poch(x, n) * (x + n)


@given(fractions_st(max_den=4), fractions_st(max_den=4),
       st.integers(0, 6), st.integers(0, 6))
def test_qpoch_multiplicativity(a, q, n, m):
    assert qpoch(a, q, n + m) == qpoch(a, q, n) * qpoch(a * q ** n, q, m)


# -- Laurent polynomial basics ----------------------------------------------

def test_zero_coefficients_dropped():
    p = LaurentPoly({2: F(0), 1: F(3), 0: F(0)})
    assert p.coeffs == {1: F(3)}


def test_floor_enforced_at_construction():
    LaurentPoly({-3: F(1)})  # allowed
    with pytest.raises(DegreeUnderflow):
        LaurentPoly({-4: F(1)})


def test_product_examples():
    x = LaurentPoly.x()
    one = LaurentPoly.one()
    assert (x + one) * (x - one) == LaurentPoly({2: F(1), 0: F(-1)})
    assert LaurentPoly.monomial(-1) * LaurentPoly.monomial(3) == \
        LaurentPoly.monomial(2)


def test_product_underflow():
    p = LaurentPoly.monomial(-2)
    with pytest.raises(DegreeUnderflow):
        p * p


def test_product_underflow_cancellation_is_allowed():
    # Cross terms below the floor that cancel exactly are not an error.
    a = LaurentPoly({-2: F(1), 1: F(1)})
    b = LaurentPoly({-1: F(1), 2: F(-1)})
    c = LaurentPoly({-1: F(1)})
    assert (a * b + a * c) == a * (b + c)


def test_derivative_rules():
    assert LaurentPoly.monomial(3).derivative() == LaurentPoly({2: F(3)})
    assert LaurentPoly({0: F(5)}).derivative() == LaurentPoly.zero()
    assert LaurentPoly.monomial(-1).derivative() == LaurentPoly({-2: F(-1)})
    with pytest.raises(DegreeUnderflow):
        LaurentPoly.monomial(-3).derivative()


def test_reflect_examples():
    p = LaurentPoly({2: F(1), 1: F(1)})
    assert p.reflect() == LaurentPoly({2: F(1), 1: F(-1)})
    even = LaurentPoly({4: F(2), 0: F(-1)})
    assert even.reflect() == even


def test_power_and_eval():
    p = LaurentPoly({1: F(1), 0: F(1)})
    assert p ** 0 == LaurentPoly.one()
    assert p ** 2 == LaurentPoly({2: F(1), 1: F(2), 0: F(1)})
    assert p(F(3)) == 4
    assert LaurentPoly.monomial(-2)(F(1, 2)) == 4


@given(laurent_st(), laurent_st(), laurent_st())
@settings(max_examples=80)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(laurent_st())
def test_reflect_involution(p):
    assert p.reflect().reflect() == p


@given(proper_st())
def test_derivative_anticommutes_with_reflect(p):
    assert p.reflect().derivative() == -(p.derivative().reflect())


@given(fractions_st(), fractions_st(), laurent_st())
def test_exact_addition_inverts(x, y, p):
    q = p + LaurentPoly({0: x}) * LaurentPoly({1: y})
    assert q - LaurentPoly({1: x * y}) == p

"""Even/odd machinery, five-term recurrence, matrix polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt

from krallm1 import (LaurentPoly, MinusOneParams, NotPositiveDefinite,
                     QJacobiParams, ResidualExceeded, d_matrix,
                     default_tolerance, e_matrix,
                     find_positive_definite_point, five_term_check,
                     gen_poly_family, geronimus_family, matrix_poly,
                     matrix_recurrence_check, r_nm, split_even_odd,
                     transformed_recurrence_m1, working_precision)
from krallm1.matrix_op import (_chains, _coeffs_from_chain,
                               _f_polys_from_chain, _five_term_residual)
from krallm1.minus_one import family_from_chain

F = Fraction

POINT = find_positive_definite_point(16)


def fractions_st():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


def proper_st(max_deg=9):
    return st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(0, max_deg), fractions_st(), max_size=6))


# -- splitting -----------------------------------------------------------------

def test_split_examples():
    p = LaurentPoly({2: F(1), 1: F(1)})
    even, odd = split_even_odd(p)
    assert even == LaurentPoly.monomial(2)
    assert odd == LaurentPoly.monomial(1)
    e2, o2 = split_even_odd(even)
    assert e2 == even and o2 == LaurentPoly.zero()


@given(proper_st())
@settings(max_examples=40)
def test_split_is_direct_sum(p):
    even, odd = split_even_odd(p)
    assert even + odd == p
    assert all(d % 2 == 0 for d in even.coeffs)
    assert all(d % 2 == 1 for d in odd.coeffs)


# -- five-term data -------------------------------------------------------------

def test_auto_point_is_the_first_candidate():
    assert POINT == MinusOneParams(beta=F(1), M=F(-1))


def test_c2_squared_consistency():
    us, bs = _chains(POINT, 6)
    with working_precision(60):
        for n in (2, 3, 5):
            c = _coeffs_from_chain(n, us, bs, 60)
            u_n = transformed_recurrence_m1(n, POINT)[0]
            u_prev = transformed_recurrence_m1(n - 1, POINT)[0]
            target = mpf(u_n.numerator) / u_n.denominator * \
                mpf(u_prev.numerator) / u_prev.denominator
            assert abs(c.c2 ** 2 - target) < mpf(10) ** -50


def test_boundary_coefficients_vanish():
    us, bs = _chains(POINT, 2)
    c0 = _coeffs_from_chain(0, us, bs, 60)
    assert c0.c1 == 0 and c0.c2 == 0
    assert _coeffs_from_chain(1, us, bs, 60).c2 == 0
    # sigma_0 = 1: F_0 is E_0 = 1 itself.
    assert _f_polys_from_chain(0, 1, us, bs, 60)[0] == \
        LaurentPoly({0: mpf(1)})


@pytest.mark.parametrize("start", [0, 3, 10])
@pytest.mark.parametrize("params", [
    POINT, MinusOneParams(beta=F(3, 2), M=F(-1, 3))])
def test_f_polys_are_even_parts_over_sigma(params, start):
    us, bs = _chains(params, 11)
    family = family_from_chain(us, bs, 12)
    fs = _f_polys_from_chain(0, 12, us, bs, 60)
    # A window [start, stop) converts only its own F_k, but each must be
    # the full build's F_k to the last bit.
    stop = min(start + 5, 12)
    window = _f_polys_from_chain(start, stop, us, bs, 60)
    assert len(window) == stop - start
    for k, f in enumerate(window, start):
        assert f.coeffs == fs[k].coeffs
        assert list(f.coeffs) == list(fs[k].coeffs)
    with working_precision(60):
        sigma = mpf(1)
        for k, f in enumerate(fs):
            if k >= 1:
                sigma *= sqrt(mpf(us[k].numerator) / us[k].denominator)
            even, _ = split_even_odd(family[k])
            assert all(d % 2 == 0 for d in f.coeffs)
            assert f.coeffs == {d: mpf(c.numerator) / c.denominator / sigma
                                for d, c in even.coeffs.items()}


def test_five_term_replay():
    for n in range(9):
        report = five_term_check(n, POINT, precision=60)
        assert report.ok, report.failures
        assert mpf(report.results[0].residual) <= mpf(10) ** -40


def test_not_positive_definite_point():
    bad = MinusOneParams(beta=F(1), M=F(3, 4))
    with pytest.raises(NotPositiveDefinite) as err:
        _chains(bad, 3)
    assert err.value.index == 2


def test_family_from_chain_matches_generator():
    us, bs = _chains(POINT, 6)
    assert family_from_chain(us, bs, 7) == gen_poly_family(6, POINT)


def test_five_term_scaling_invariance():
    # Scaling the whole u~ chain by a positive constant yields another
    # valid recurrence chain; the five-term residual property survives.
    us, bs = _chains(POINT, 9)
    for c in (F(4), F(1, 4)):
        scaled = [u * c for u in us]
        for n in range(5):
            residual, _, _ = _five_term_residual(n, scaled, bs, 60)
            assert residual <= mpf(10) ** -40, (c, n)


# -- coefficient slices -----------------------------------------------------------

def test_r_nm_examples():
    p = LaurentPoly({4: F(1), 2: F(3), 0: F(5)})
    assert r_nm(p, 2, 0) == LaurentPoly({2: F(1), 1: F(3), 0: F(5)})
    assert r_nm(LaurentPoly({3: F(1), 1: F(2)}), 2, 1) == \
        LaurentPoly({1: F(1), 0: F(2)})
    assert r_nm(p, 2, 1) == LaurentPoly.zero()


def test_r_nm_validation():
    with pytest.raises(ValueError):
        r_nm(LaurentPoly.one(), 2, 2)
    with pytest.raises(ValueError):
        r_nm(LaurentPoly.monomial(-1), 2, 0)


def substitute_power(p, N):
    return LaurentPoly({d * N: c for d, c in p.coeffs.items()})


@given(proper_st(), st.sampled_from([2, 3]))
@settings(max_examples=60)
def test_r_nm_reconstruction_identity(p, N):
    total = LaurentPoly.zero()
    for m in range(N):
        total = total + LaurentPoly.monomial(m) * \
            substitute_power(r_nm(p, N, m), N)
    assert total == p


@given(proper_st(), proper_st(), st.sampled_from([2, 3]),
       st.integers(0, 5))
@settings(max_examples=40)
def test_r_nm_linearity(p, q, N, m_raw):
    m = m_raw % N
    assert r_nm(p + q, N, m) == r_nm(p, N, m) + r_nm(q, N, m)


# -- matrix polynomials ------------------------------------------------------------

def test_matrix_structure():
    for n in range(4):
        e_n = e_matrix(n, POINT)
        d_n = d_matrix(n, POINT)
        assert e_n[0][1] == e_n[1][0]
        assert d_n[0][1] == 0


def test_matrix_second_column_is_zero():
    # The renormalized even parts are even polynomials, so the odd slice
    # vanishes identically; the recurrence content lives in column 0.
    pn = matrix_poly(2, POINT)
    assert pn[0][1] == LaurentPoly.zero()
    assert pn[1][1] == LaurentPoly.zero()
    assert pn[0][0].degree == 2
    assert pn[1][0].degree == 2


def test_matrix_recurrence():
    for n in range(5):
        report = matrix_recurrence_check(n, POINT, precision=60)
        assert report.ok
        assert mpf(report.results[0].residual) <= mpf(10) ** -40


def test_matrix_recurrence_residual_exceeded():
    with pytest.raises(ResidualExceeded) as err:
        matrix_recurrence_check(2, POINT, tol=F(1, 10 ** 99), precision=60)
    assert err.value.location


def test_mpf_scaling_never_formats_the_polynomial(monkeypatch):
    # mpf * LaurentPoly first tries to convert the polynomial to mpf, and
    # the failed conversion formats it with repr; poly * mpf does not.
    def no_repr(self):
        raise AssertionError("LaurentPoly formatted for a scalar product")

    monkeypatch.setattr(LaurentPoly, "__repr__", no_repr)
    with working_precision(80):
        eps = mpf("1e-3")
        point = QJacobiParams(q=-mp.exp(eps), b=-mp.exp(eps / 2), j=2,
                              M=mpf(-1) / 4)
        assert len(geronimus_family(4, point)[1]) == 5
    assert five_term_check(2, POINT, precision=60).ok
    assert matrix_recurrence_check(2, POINT, precision=60).ok


def test_default_tolerance_follows_precision_up_to_1e_40():
    assert default_tolerance(30) == F(1, 10 ** 10)
    assert default_tolerance(60) == F(1, 10 ** 40)
    assert default_tolerance(100) == F(1, 10 ** 40)

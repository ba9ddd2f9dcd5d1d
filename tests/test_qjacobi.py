"""Little q-Jacobi pipeline: expansion coefficients, Geronimus transform,
representation table and its reconstruction oracle."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from krallm1 import (ABSENT, DegenerateParameters, GeronimusDegenerate,
                     IncompleteTable, LaurentPoly, QJacobiParams, apply_Lq,
                     geronimus_family, lambda_q, lqj_coeff,
                     lqj_poly, lqj_recurrence, phi, qn_zero, qpoch, qpochs,
                     rep_coeff_paper, rep_coeff_reconstruct, to_mpf,
                     transformed_recurrence, working_precision)
from krallm1.qjacobi import transformed_chain
from conftest import random_q_params

F = Fraction

P1 = QJacobiParams(q=F(2), b=F(3), j=2, M=F(1, 7))
P2 = QJacobiParams(q=F(1, 2), b=F(1, 3), j=2, M=F(1, 5))
P3 = QJacobiParams(q=F(2), b=F(3), j=1, M=F(0))


def series_poly(n, q, b, a):
    """Independent route to the monic polynomials: expand the terminating
    basic hypergeometric series

        P_n(x) = (-1)^n q^(n(n-1)/2) (aq;q)_n / (abq^(n+1);q)_n
                 * sum_k (q^-n;q)_k (abq^(n+1);q)_k / ((aq;q)_k (q;q)_k) (qx)^k

    term by term; monicity of the result is part of what it certifies."""
    pref = (-1) ** n * q ** (n * (n - 1) // 2) * \
        qpoch(a * q, q, n) / qpoch(a * b * q ** (n + 1), q, n)
    coeffs = {}
    for k in range(n + 1):
        num = qpoch(q ** (-n), q, k) * qpoch(a * b * q ** (n + 1), q, k) \
            * q ** k
        coeffs[k] = pref * num / (qpoch(a * q, q, k) * qpoch(q, q, k))
    return LaurentPoly(coeffs)


# -- parameter validation -----------------------------------------------------

@pytest.mark.parametrize("q", [F(0), F(1), F(-1)])
def test_forbidden_q(q):
    with pytest.raises(DegenerateParameters):
        QJacobiParams(q=q, b=F(3), j=1, M=F(0))


def test_forbidden_b_and_j():
    with pytest.raises(DegenerateParameters):
        QJacobiParams(q=F(2), b=F(0), j=1, M=F(0))
    with pytest.raises(DegenerateParameters):
        QJacobiParams(q=F(2), b=F(3), j=0, M=F(0))


# -- expansion coefficients ---------------------------------------------------

def test_leading_coefficient_is_one():
    for n in range(6):
        assert lqj_coeff(n, 0, P1) == 1


def test_coeff_against_series_expansion():
    for params in (P1, P2, P3):
        a = params.a
        for n in range(7):
            assert lqj_poly(n, params) == series_poly(n, params.q,
                                                      params.b, a)


def test_coeff_frozen_values():
    assert lqj_coeff(1, 1, P1) == F(-7, 47)
    assert lqj_coeff(3, 2, QJacobiParams(q=F(1, 2), b=F(1, 3), j=1,
                                         M=F(0))) == F(52920, 73153)


def test_monic():
    for n in range(9):
        assert lqj_poly(n, P2).leading_coeff == 1
        assert lqj_poly(n, P2).degree == n


def scan_point(digits, j=2):
    """The limit-scan point q = -e^eps, b = -e^(beta eps) at eps = 1e-3,
    beta = 1/2, M = -1/4 (j = 2 in limit-scan), built at ``digits``."""
    with working_precision(digits):
        eps = mpf("1e-3")
        return QJacobiParams(q=-mp.exp(eps), b=-mp.exp(eps / 2), j=j,
                             M=mpf(-1) / 4)


@pytest.mark.parametrize("digits", [80, 110])
def test_running_qpochs_match_qpoch(digits):
    # One pass must give each prefix product with the very operations a
    # fresh qpoch would use: equal Fractions, and equal mpf bits, also
    # when a run is extended in place.
    point = scan_point(digits)
    with working_precision(digits):
        cases = [(F(3, 7), F(2), 9), (F(-5, 2), F(1, 3), 6),
                 (point.q ** -7, point.q, 7), (point.b * point.q, point.q, 5)]
        for a, q, n in cases:
            powers = [1]
            for _ in range(n - 1):
                powers.append(powers[-1] * q)
            fresh = [qpoch(a, q, s) for s in range(n + 1)]
            assert qpochs(a, powers) == fresh
            run = qpochs(a, powers[:2])
            assert qpochs(a, powers, run) is run and run == fresh


@pytest.mark.parametrize("digits", [80, 110])
def test_one_pass_poly_matches_coefficients(digits):
    point = scan_point(digits)
    with working_precision(digits):
        for params in (P1, P2, P3, point):
            for n in range(8):
                poly = lqj_poly(n, params)
                assert poly.coeffs == {n - s: lqj_coeff(n, s, params)
                                       for s in range(n + 1)}


# The closed forms written out on exact_core.qpoch alone, with no memo: the
# memoized route must reproduce each value by the same operations.

def fresh_phi(n, params):
    q, b, j, M = params.q, params.b, params.j, params.M
    den_j = qpoch(q ** (n + 1), q, j) * qpoch(b * q ** (n + 1), q, j)
    sign = 1 if n % 2 == 0 else -1
    prefactor = sign * q ** (n * (n - 1) // 2) * qpoch(q ** (j + 1), q, n) \
        / qpoch(b * q ** (n + j + 1), q, n)
    inner = M - q ** (n * j) * (1 - b * q ** (j + 1)) * qpoch(b * q, q, j) \
        * qpoch(q, q, j) / ((1 - q ** j) * den_j)
    return prefactor * inner


def fresh_lqj_poly(n, params):
    q, b, a = params.q, params.b, params.q ** params.j
    return LaurentPoly({n - s: b ** (-s) * (
        qpoch(q ** (-n), q, s) * qpoch(a ** -1 * q ** (-n), q, s)) / (
        qpoch(q, q, s) * qpoch(a ** -1 * b ** -1 * q ** (-2 * n), q, s))
        for s in range(n + 1)})


def fresh_lambda_q(n, params):
    q, b, j, M = params.q, params.b, params.j, params.M
    t1 = M * (q - 1) * q ** (-n * (j + 1) - 1) * qpoch(q ** n, q, j + 1) * \
        qpoch(b * q ** n, q, j + 1) / (1 - q ** (-j - 1))
    t2 = (q ** (-n) - 1) * (1 - b * q ** (n + j)) * qpoch(b * q, q, j + 1) \
        * qpoch(q, q, j - 1)
    return t1 - t2


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_memo_route_matches_fresh_formulas(j):
    # Equal Fractions and equal mpf bits, whether a point's memo is filled
    # from degree 0 up or from degree 7 down.
    for make, digits in [(lambda: scan_point(80, j), 80),
                         (lambda: scan_point(110, j), 110),
                         (lambda: QJacobiParams(F(2), F(3), j, F(1, 7)), 30),
                         (lambda: QJacobiParams(F(1, 2), F(1, 3), j, F(1, 5)),
                          30)]:
        with working_precision(digits):
            up, down = make(), make()
            for n in reversed(range(8)):
                phi(n, down), lqj_poly(n, down), lambda_q(n, down)
            for n in range(8):
                expected = (fresh_phi(n, up), fresh_lqj_poly(n, up),
                            fresh_lambda_q(n, up))
                for point in (up, down):
                    got = (phi(n, point), lqj_poly(n, point),
                           lambda_q(n, point))
                    assert got == expected, (j, digits, n)
                    assert list(got[1].coeffs) == list(expected[1].coeffs)


def test_memo_factors_of_phi_are_named():
    # One vanishing factor of each per-degree q-Pochhammer product of phi.
    # 1 - q^2 vanishes only in mpf: q^2 rounds to 1 at 15 digits.
    with working_precision(80):
        q = mpf(-1) + mpf(2) ** -200
    cases = [(QJacobiParams(q, mpf(3), 1, mpf(1)), 1, "(q^2;q)_1"),
             (QJacobiParams(F(2), F(1, 4), 2, F(1)), 1, "(bq^2;q)_2"),
             (QJacobiParams(F(2), F(1, 32), 1, F(1)), 2, "(bq^4;q)_2")]
    for params, n, factor in cases:
        with working_precision(15), pytest.raises(DegenerateParameters) as err:
            phi(n, params)
        assert str(err.value) == f"factor {factor} vanishes"


# -- three-term recurrence ----------------------------------------------------

def test_recurrence_replay():
    x = LaurentPoly.x()
    for params in (P1, P2):
        polys = [lqj_poly(n, params) for n in range(9)]
        for n in range(1, 8):
            un, bn = lqj_recurrence(n, params)
            assert polys[n + 1] + bn * polys[n] + un * polys[n - 1] == \
                x * polys[n]


def test_recurrence_u0_vanishes():
    un, _ = lqj_recurrence(0, P1)
    assert un == 0


def test_recurrence_frozen_value():
    assert lqj_recurrence(1, P3) == (F(60, 24863), F(198, 2185))


def test_recurrence_positive_in_classical_window():
    params = QJacobiParams(q=F(1, 2), b=F(1, 2), j=1, M=F(0))
    for n in range(1, 11):
        assert lqj_recurrence(n, params)[0] > 0


# -- second-kind values and Geronimus data ------------------------------------

def test_qn_zero_order_zero():
    a, b, q = P1.a, P1.b, P1.q
    assert qn_zero(0, P1) == -(1 - a * b * q) / (1 - a)


def test_qn_zero_frozen_value():
    assert qn_zero(1, P3) == F(10, 23)


def test_qn_zero_against_truncated_series():
    # Q_n(0) = -sum_k P_n(q^k) w_k / q^k with the normalized weight
    # w_k = (aq;q)_inf/(abq^2;q)_inf (bq;q)_k (aq)^k/(q;q)_k; needs |q| < 1
    # and decaying terms, hence the 60-digit float route.
    params = QJacobiParams(q=F(1, 3), b=F(1, 5), j=2, M=F(0))
    with working_precision(60):
        q, b, a = to_mpf(params.q), to_mpf(params.b), to_mpf(params.a)
        norm = mp.qp(a * q, q) / mp.qp(a * b * q ** 2, q)
        for n in (1, 2):
            poly = lqj_poly(n, params)
            total = mpf(0)
            for k in range(200):
                wk = norm * qpoch(b * q, q, k) * (a * q) ** k / qpoch(q, q, k)
                total -= poly(q ** k) * wk / q ** k
            exact = to_mpf(qn_zero(n, params))
            assert abs(total - exact) < mpf(10) ** -30


def test_phi_definitional_identity():
    for params in (P1, P2):
        for n in range(11):
            expected = qn_zero(n, params) + params.M * \
                lqj_poly(n, params).coeff(0)
            assert phi(n, params) == expected


def test_phi_reduces_to_qn_zero_at_mass_zero():
    params = QJacobiParams(q=F(2), b=F(3), j=2, M=F(0))
    for n in range(6):
        assert phi(n, params) == qn_zero(n, params)


def test_phi_frozen_value():
    assert phi(1, P1) == F(17, 141)


def test_degenerate_factors_are_named():
    # ab = q^-2 makes (1/(ab) q^-2n; q)_s vanish at n = 1, s = 1
    params = QJacobiParams(q=F(2), b=F(1, 8), j=1, M=F(0))
    with pytest.raises(DegenerateParameters) as err:
        lqj_coeff(1, 1, params)
    assert "vanishes" in str(err.value)
    with pytest.raises(DegenerateParameters) as err:
        lqj_poly(1, params)
    assert str(err.value) == "factor (1/(ab) q^-2;q)_1 vanishes"
    # abq^2 = 1 makes (abq; q)_n vanish for n >= 2
    with pytest.raises(DegenerateParameters):
        qn_zero(2, params)


def test_second_kind_recurrence():
    # The Geronimus data satisfies the polynomial three-term recurrence
    # seeded by Phi_1 = -b_0 Phi_0 - 1 (unit total weight).
    for params in (P1, P2):
        phis = [phi(n, params) for n in range(7)]
        b0 = lqj_recurrence(0, params)[1]
        assert phis[1] == -b0 * phis[0] - 1
        for n in range(1, 6):
            un, bn = lqj_recurrence(n, params)
            assert phis[n + 1] == -bn * phis[n] - un * phis[n - 1]


# -- Geronimus transform -------------------------------------------------------

def test_geronimus_degree_zero():
    assert geronimus_family(0, P1) == ([], [LaurentPoly.one()])


def test_geronimus_monic(rng):
    for params in random_q_params(rng, 3, need_degrees=10):
        for n, poly in enumerate(geronimus_family(10, params)[1]):
            assert poly.degree == n
            assert poly.leading_coeff == 1


def test_geronimus_degenerate_mass():
    # M chosen so that Phi_1 = 0 (a linear condition in M).
    m_star = -qn_zero(1, P1) / lqj_poly(1, P1).coeff(0)
    assert m_star == F(20, 21)
    params = QJacobiParams(q=F(2), b=F(3), j=2, M=m_star)
    with pytest.raises(GeronimusDegenerate) as err:
        geronimus_family(2, params)
    assert err.value.n == 2


def test_transformed_recurrence_replay():
    x = LaurentPoly.x()
    for params in (P1, P2):
        fam = geronimus_family(9, params)[1]
        for n in range(1, 8):
            un, bn = transformed_recurrence(n, params)
            assert fam[n + 1] + bn * fam[n] + un * fam[n - 1] == x * fam[n]


def test_transformed_chain_matches_transformed_recurrence():
    # verify-q reads (u~_n, b~_n) off one Phi list and one lqj_recurrence
    # per degree; transformed_recurrence recomputes Phi for every n.
    for params in (P1, P2):
        phis, _ = geronimus_family(8, params)
        assert phis == [phi(n, params) for n in range(9)]
        recs = [lqj_recurrence(n, params) for n in range(8)]
        chain = transformed_chain(phis, recs)
        assert len(chain) == 8
        for n, pair in enumerate(chain):
            assert pair == transformed_recurrence(n, params), n
            assert all(type(v) is F for v in pair)


def test_reconstructed_table_keeps_its_family():
    phis, family = geronimus_family(6, P2)
    table = rep_coeff_reconstruct(P2, 6)
    assert (table.phis, table.family) == (phis, family)
    assert rep_coeff_reconstruct(P2, 0).phis == []
    assert transformed_chain([phi(0, P2)], []) == []


def test_transformed_b0_at_mass_zero():
    params = QJacobiParams(q=F(1, 2), b=F(1, 3), j=2, M=F(0))
    b0 = lqj_recurrence(0, params)[1]
    expected = b0 + qn_zero(1, params) / qn_zero(0, params)
    assert transformed_recurrence(0, params)[1] == expected


def test_transformed_recurrence_frozen_pair():
    assert transformed_recurrence(2, P2) == \
        (F(-1478959776, 547677793), F(461292804, 238489121))


# -- representation table -------------------------------------------------------

def test_lambda_zero_vanishes():
    assert lambda_q(0, P1) == 0
    assert rep_coeff_paper(P1, 2).value(0, 0) == 0


def test_paper_table_zero_band():
    table = rep_coeff_paper(P1, 6)
    for n in range(7):
        for s in range(P1.j + 2, n + 1):
            assert table.value(n, s) == 0


def test_paper_table_absent_band():
    table = rep_coeff_paper(P1, 6)  # j = 2: s = 3 is stated nowhere
    assert table.value(3, 3) is ABSENT
    assert (3, 3) in table.absent_pairs()
    assert rep_coeff_paper(P3, 6).absent_pairs() == []  # j = 1: none absent


def test_paper_table_frozen_value():
    assert rep_coeff_paper(P1, 1).value(1, 1) == F(3795, 2)


def test_reconstruction_matches_paper(rng):
    for j in (1, 2, 3):
        for params in random_q_params(rng, 2, j=j, need_degrees=8):
            paper = rep_coeff_paper(params, 8)
            recon = rep_coeff_reconstruct(params, 8)
            for n in range(9):
                for s in range(n + 1):
                    expected = paper.value(n, s)
                    if expected is ABSENT:
                        continue
                    assert recon.value(n, s) == expected, (j, n, s)


def test_reconstruction_eigenvalue_row():
    recon = rep_coeff_reconstruct(P1, 6)
    for n in range(7):
        assert recon.value(n, 0) == lambda_q(n, P1)


def test_reconstruction_fills_the_absent_band():
    recon = rep_coeff_reconstruct(P1, 6)
    assert recon.value(4, 3) == F(-12555, 128)
    assert recon.value(3, 3) == 0
    assert recon.absent_pairs() == []


def test_apply_on_constant():
    table = rep_coeff_reconstruct(P1, 2)
    assert apply_Lq(LaurentPoly.one(), table) == LaurentPoly.zero()


def test_apply_eigen_identity():
    table = rep_coeff_reconstruct(P2, 8)
    fam = geronimus_family(8, P2)[1]
    for n in range(9):
        assert apply_Lq(fam[n], table) == lambda_q(n, P2) * fam[n]


def test_apply_linearity():
    table = rep_coeff_reconstruct(P1, 5)
    p = LaurentPoly({3: F(2), 1: F(-1, 3)})
    r = LaurentPoly({5: F(1), 0: F(7)})
    assert apply_Lq(p + r, table) == apply_Lq(p, table) + apply_Lq(r, table)


def test_apply_incomplete_paper_table():
    table = rep_coeff_paper(P1, 5)
    with pytest.raises(IncompleteTable) as err:
        apply_Lq(LaurentPoly.monomial(3), table)
    assert (3, 3) in err.value.missing


def test_apply_requires_coverage():
    table = rep_coeff_reconstruct(P1, 2)
    with pytest.raises(IncompleteTable):
        apply_Lq(LaurentPoly.monomial(5), table)

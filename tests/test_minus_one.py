"""The limit family: operators, recurrence, moments, orthogonality,
quadrature and the epsilon scan."""

import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from krallm1 import (DegenerateParameters, GeronimusDegenerate,
                     InsufficientMoments, IntegrabilityError, LaurentPoly,
                     MinusOneParams, apply_L0_monomial, apply_L0_operator,
                     base_recurrence_m1, epsilon_scan, family_gram,
                     gen_poly_family, gen_poly_m1, gram_matrix, hankel_dets,
                     inner_product, lambda_tilde, limit_B, limit_rep_coeff,
                     moments, point_mass, quadrature_moment_check,
                     transformed_recurrence_m1, weight_density,
                     working_precision)
from krallm1 import minus_one
from krallm1.exact_core import poch
from krallm1.minus_one import (MomentSequence, _det_fraction, btilde0_closed,
                               explicit_eigenvalue, explicit_solution,
                               family_from_chain)
from conftest import rand_fraction, random_m1_params

F = Fraction

STD = MinusOneParams(beta=F(1), M=F(-1))
HALF = MinusOneParams(beta=F(1, 2), M=F(-1, 4))
DEGEN = MinusOneParams(beta=F(1), M=F(1))


# -- limit coefficients -------------------------------------------------------

def test_limit_coeff_base_cases():
    assert limit_rep_coeff(0, 0, STD) == 0
    assert limit_rep_coeff(1, 0, DEGEN) == -128
    assert limit_rep_coeff(2, 3, STD) == 0  # factor (n-2)
    assert limit_rep_coeff(4, 5, STD) == 0  # beyond the four-band structure


def test_lambda_tilde_is_top_coefficient(rng):
    for params in random_m1_params(rng, 3):
        for n in range(8):
            assert lambda_tilde(n, params) == limit_rep_coeff(n, 0, params)


def test_explicit_eigenvalues(rng):
    assert explicit_eigenvalue(2, STD) == lambda_tilde(2, STD)
    for params in random_m1_params(rng, 5):
        for n in (1, 2, 3):
            assert lambda_tilde(n, params) == explicit_eigenvalue(n, params)


def test_lambda_two_value():
    assert lambda_tilde(2, MinusOneParams(beta=F(1), M=F(1))) == -128


# -- recurrence data -----------------------------------------------------------

def test_base_recurrence_examples():
    assert base_recurrence_m1(0, STD) == (F(0), F(1))
    assert base_recurrence_m1(2, STD) == (F(-1, 6), F(1))
    assert base_recurrence_m1(1, STD) == (F(-1, 3), F(-1))


def test_base_recurrence_degenerate():
    with pytest.raises(DegenerateParameters):
        base_recurrence_m1(0, MinusOneParams(beta=F(-1), M=F(0)))


def test_limit_B_examples():
    assert limit_B(1, STD) == F(-2, 3)
    assert limit_B(1, DEGEN) == 0
    with pytest.raises(GeronimusDegenerate) as err:
        limit_B(2, DEGEN)
    assert err.value.n == 2


def test_transformed_b0():
    u0, b0 = transformed_recurrence_m1(0, STD)
    assert (u0, b0) == (F(0), F(1, 3))
    seq = moments(2, STD)
    assert b0 == seq.mu(1) / seq.mu(0)


def test_b0_closed_form(rng):
    for params in random_m1_params(rng, 5):
        b0 = transformed_recurrence_m1(0, params)[1]
        assert b0 == btilde0_closed(params)
        seq = moments(2, params)
        assert b0 == seq.mu(1) / seq.mu(0)


def test_u1_from_moments():
    assert transformed_recurrence_m1(1, STD)[0] == F(2, 9)


# -- the integer kernels against their Fraction closed forms --------------------

# The closed forms are cached so that the old transformed_recurrence_m1,
# which takes each B_n up to twice, replays cheaply over the grid; an
# exception is not cached and is raised again on every call.
@functools.lru_cache(maxsize=None)
def _base_closed(n, params):
    """base_recurrence_m1 as its docstring states it, in Fractions."""
    beta = params.beta
    d1, d2 = 2 * n + 1 + beta, 2 * n + 3 + beta
    if d1 == 0 or d2 == 0:
        raise DegenerateParameters(
            f"(2n+1+beta)(2n+3+beta) vanishes at n={n}, beta={beta}")
    if n % 2 == 0:
        return F(-n * (n + 2)) / (d1 * d2), F(1)
    return -(n + beta) * (n + 2 + beta) / (d1 * d2), F(-1)


@functools.lru_cache(maxsize=None)
def _limit_B_closed(n, params):
    """limit_B as its docstring states it, in Fractions."""
    beta, M = params.beta, params.M
    g = (3 + beta) * (1 + beta)
    if n % 2 == 0:
        den = M - g / (n * (n + 1 + beta))
        if den == 0:
            raise GeronimusDegenerate(
                n, f"M = (3+beta)(1+beta)/(n(n+1+beta)) at n={n}")
        return F(n + 2) / (2 * n + 1 + beta) * \
            (M - g / ((n + 2) * (n + 1 + beta))) / den
    den = M - g / ((n + 1) * (n + beta))
    if den == 0:
        raise GeronimusDegenerate(
            n, f"M = (3+beta)(1+beta)/((n+1)(n+beta)) at n={n}")
    return -(n + 2 + beta) / F(2 * n + 1 + beta) * \
        (M - g / ((n + 1) * (n + 2 + beta))) / den


def _transformed_closed(n, params):
    """transformed_recurrence_m1 over the closed forms, each B_n taken
    wherever the formulas name it, u~_1 through moments(2).  The kernel
    has no B_(n-1) = 0 branch: this oracle keeps it, so reaching it on the
    grid fails the comparison."""
    if n == 0:
        return F(0), _base_closed(0, params)[1] + _limit_B_closed(1, params)
    bn = _base_closed(n, params)[1] + _limit_B_closed(n + 1, params) - \
        _limit_B_closed(n, params)
    if n == 1:
        mu = moments(2, params)
        b0 = _base_closed(0, params)[1] + _limit_B_closed(1, params)
        u1 = (mu.mu(2) - 2 * b0 * mu.mu(1) + b0 * b0 * mu.mu(0)) / mu.mu(0)
        return u1, bn
    b_prev = _limit_B_closed(n - 1, params)
    if b_prev == 0:
        raise GeronimusDegenerate(n, f"limit of Phi_{n - 1}/Phi_{n - 2} is 0")
    return _base_closed(n - 1, params)[0] * _limit_B_closed(n, params) / \
        b_prev, bn


def _outcome(fn, n, params):
    """The value, or the type, message and degree of the raised error."""
    try:
        return "value", fn(n, params)
    except (ZeroDivisionError, DegenerateParameters,
            GeronimusDegenerate) as exc:
        return type(exc), str(exc), getattr(exc, "n", None)


# Every beta in [-1, 1] with denominator <= 5, and the negative odd
# integers at which n+beta, n+1+beta, n+2+beta or 2n+1+beta vanishes for
# some n < 30; M from -1 to 2 with denominators <= 5, which meets the
# Geronimus degeneracies M = (3+beta)(1+beta)/(n(n+1+beta)) and the zero
# of mu_0.  The links run to n = 53, as matrix-verify --n-max 24 reads
# u~ and b~ up to index 52.
GRID_BETAS = sorted({F(a, d) for d in range(1, 6) for a in range(-d, d + 1)}
                    | {F(-k) for k in (3, 5, 7, 29, 31, 59)})
GRID_MS = [F(-1), F(-1, 5), F(0), F(1, 3), F(1), F(2)]


@pytest.mark.parametrize("kernel,closed,degrees,failures", [
    (base_recurrence_m1, _base_closed, range(30), {DegenerateParameters}),
    (limit_B, _limit_B_closed, range(1, 30),
     {GeronimusDegenerate, ZeroDivisionError}),
    (transformed_recurrence_m1, _transformed_closed, range(54),
     {DegenerateParameters, GeronimusDegenerate, ZeroDivisionError}),
], ids=["base_recurrence_m1", "limit_B", "transformed_recurrence_m1"])
def test_integer_kernel_matches_closed_form(kernel, closed, degrees,
                                            failures):
    raised = set()
    for beta in GRID_BETAS:
        for M in GRID_MS:
            params = MinusOneParams(beta=beta, M=M)
            for n in degrees:
                want = _outcome(closed, n, params)
                assert _outcome(kernel, n, params) == want, (beta, M, n)
                raised.add(want[0])
    assert raised == failures | {"value"}  # every failure is reached


def test_limit_B_zero_division_sites():
    # n+1+beta = 0 (even n) and n+2+beta = 0 (odd n): unreachable from the
    # CLI, which stops at base_recurrence_m1 first, but public API.
    for n, beta in ((2, F(-3)), (4, F(-5)), (1, F(-3)), (3, F(-5))):
        params = MinusOneParams(beta=beta, M=F(1, 2))
        with pytest.raises(ZeroDivisionError) as err:
            _limit_B_closed(n, params)
        with pytest.raises(ZeroDivisionError,
                           match=re.escape(str(err.value))):
            limit_B(n, params)


def _first_error(calls):
    """_outcome of the first call in the list that raises, else None."""
    for fn, n, params in calls:
        outcome = _outcome(fn, n, params)
        if outcome[0] != "value":
            return outcome
    return None


# beta = a/d with d <= 2 and |beta| <= 30, n = 2 .. 25: wide enough to meet
# each way a zero B_(n-1) or mu_0 can be pre-empted.
ZERO_BETAS = sorted({F(a, d) for d in (1, 2)
                     for a in range(-30 * d, 30 * d + 1)})


def test_zero_B_prev_raises_at_B_n():
    # B_(n-1)'s upper bracket M - g/((n+1)(n+beta)) (n odd) or
    # M - g/(n(n+1+beta)) (n even) is B_n's lower one, so wherever
    # limit_B(n-1) is 0, limit_B(n) raises GeronimusDegenerate at degree
    # n, and the link raises before it divides by B_(n-1).
    reasons = set()
    for beta in ZERO_BETAS:
        g = (3 + beta) * (1 + beta)
        for n in range(2, 26):
            fac = (n + 1) * (n + beta) if n % 2 else n * (n + 1 + beta)
            if fac == 0:
                continue
            params = MinusOneParams(beta=beta, M=g / fac)
            if _outcome(limit_B, n - 1, params) != ("value", 0):
                continue
            own = _outcome(limit_B, n, params)
            assert own[0] is GeronimusDegenerate and own[2] == n
            want = _first_error([(base_recurrence_m1, n, params),
                                 (limit_B, n + 1, params)]) or own
            assert _outcome(transformed_recurrence_m1, n, params) == want
            reasons.add(want[0] if want != own else "B_n")
    # Mostly B_n itself; at a few points base_recurrence_m1(n) or
    # limit_B(n + 1) raises first.
    assert reasons == {"B_n", DegenerateParameters, ZeroDivisionError}


def test_zero_mu0_raises_at_B_1():
    # mu_0 = 0 is M = (3+beta)/2, B_1's lower bracket
    # M - (3+beta)(1+beta)/(2(1+beta)) = M - (3+beta)/2: the u~_1 division
    # by mu_0 is never reached.
    reasons = set()
    for beta in ZERO_BETAS:
        if beta == -3:
            continue
        params = MinusOneParams(beta=beta, M=(3 + beta) / 2)
        assert moments(0, params).mu(0) == 0
        own = _outcome(limit_B, 1, params)
        assert own[0] in (GeronimusDegenerate, ZeroDivisionError)
        want = _first_error([(base_recurrence_m1, 1, params),
                             (limit_B, 2, params)]) or own
        assert _outcome(transformed_recurrence_m1, 1, params) == want
        reasons.add((want[0], want[2]))
    assert (GeronimusDegenerate, 1) in reasons


def _family_by_laurent(us, bs, count):
    """The monic recurrence worked in LaurentPoly arithmetic."""
    polys = [LaurentPoly.one()]
    if count > 1:
        polys.append(LaurentPoly({1: F(1), 0: -bs[0]}))
    for k in range(1, count - 1):
        polys.append(LaurentPoly.x() * polys[k] - bs[k] * polys[k]
                     - us[k] * polys[k - 1])
    return polys


@pytest.mark.parametrize("count", [0, 1, 2, 40])
def test_family_from_chain_matches_laurent_recurrence(count):
    for params in (STD, HALF, MinusOneParams(beta=F(7, 3), M=F(5, 11))):
        chain = [transformed_recurrence_m1(k, params)
                 for k in range(max(count - 1, 1))]
        us, bs = [u for u, _ in chain], [b for _, b in chain]
        got = family_from_chain(us, bs, count)
        want = _family_by_laurent(us, bs, count)
        assert got == want
        # Same dict order too: descending degree.
        assert [list(p.coeffs) for p in got] == \
            [list(p.coeffs) for p in want] == \
            [sorted(p.coeffs, reverse=True) for p in want]


# -- generated polynomials -------------------------------------------------------

def test_low_degree_polynomials():
    assert gen_poly_m1(0, STD) == LaurentPoly.one()
    assert gen_poly_m1(1, STD) == LaurentPoly({1: F(1), 0: F(-1, 3)})


def test_explicit_solutions(rng):
    for params in random_m1_params(rng, 5):
        assert gen_poly_m1(2, params) == explicit_solution(2, params)
        assert gen_poly_m1(3, params) == explicit_solution(3, params)


def test_degenerate_family_aborts():
    with pytest.raises(GeronimusDegenerate) as err:
        gen_poly_m1(2, DEGEN)
    assert err.value.n == 2


# -- the reflection operator -----------------------------------------------------

def test_monomial_action_base_cases(rng):
    assert apply_L0_monomial(LaurentPoly.one(), STD) == LaurentPoly.zero()
    for params in random_m1_params(rng, 3):
        beta = params.beta
        expected = LaurentPoly({1: lambda_tilde(1, params),
                                0: 16 * (beta + 1) * (beta + 3)})
        assert apply_L0_monomial(LaurentPoly.x(), params) == expected


def test_monomial_action_anchor():
    got = apply_L0_monomial(LaurentPoly.x(), DEGEN)
    assert got == LaurentPoly({1: F(-128), 0: F(128)})


def test_monomial_action_matches_limit_coefficients(rng):
    for params in random_m1_params(rng, 3):
        for n in range(16):
            expected = LaurentPoly(
                {n - s: limit_rep_coeff(n, s, params) for s in range(4)
                 if n - s >= 0})
            assert apply_L0_monomial(LaurentPoly.monomial(n), params) == \
                expected


def _l0_brackets_theta(n, params):
    """The θ-form of L0 x^n = b0 x^n + b1 x^(n-1) + b2 x^(n-2) + b3 x^(n-3),
    with the parity indicator θ(n) = (1 - (-1)^n)/2: an independent
    transcription of the limit table."""
    beta, M = params.beta, params.M
    t = (1 - (-1) ** n) // 2
    b0 = (-8 * M * n * (n + 2) * (n + 1 + beta)
          + 8 * n * (beta + 1) * (beta + 3)
          + t * (16 * M * n ** 3 + (24 * beta * M + 48 * M) * n ** 2
                 + (32 * M - 16 * beta ** 2 + 8 * beta ** 2 * M - 48
                    + 48 * beta * M - 64 * beta) * n
                 - 48 * beta ** 2 - 8 * beta ** 3 + 16 * beta * M
                 + 8 * beta ** 2 * M - 48 - 88 * beta))
    b1 = (8 * M * n ** 3 + (24 * M + 8 * beta * M) * n ** 2
          + (16 * M + 16 * beta * M - 8 * beta ** 2 - 32 * beta - 24) * n
          + t * (-16 * M * n ** 3 - (24 * M + 16 * beta * M) * n ** 2
                 + (64 * beta + 48 + 16 * beta ** 2 - 16 * beta * M
                    - 8 * M) * n
                 + 32 * beta + 24 + 8 * beta ** 2 + 8 * beta * M))
    b2 = (8 * M * n ** 3 - 32 * M * n
          + t * (-16 * M * n ** 3 - 8 * beta * M * n ** 2 + 40 * M * n
                 + 8 * beta * M))
    b3 = (-8 * M * n ** 3 + 32 * M * n
          + t * (16 * M * n ** 3 - 24 * M * n ** 2 - 40 * M * n + 24 * M))
    return b0, b1, b2, b3


def test_monomial_action_matches_theta_form():
    # The monomial action reads the limit table; the θ-form is a second
    # transcription of it. Both are polynomials of degree <= 3 in n on
    # each parity class, <= 3 in beta and <= 1 in M, so n < 8 on 9 betas
    # and 6 Ms settles them; brackets below degree 0 must vanish.
    for beta in GRID_BETAS[::3]:
        for M in GRID_MS:
            params = MinusOneParams(beta=beta, M=M)
            for n in range(8):
                expected = LaurentPoly.from_terms(
                    (n - s, b) for s, b in
                    enumerate(_l0_brackets_theta(n, params)) if b != 0)
                assert expected.is_proper, (beta, M, n)
                assert apply_L0_monomial(LaurentPoly.monomial(n),
                                         params) == expected, (beta, M, n)


def test_operator_form_base_cases():
    assert apply_L0_operator(LaurentPoly.one(), STD) == LaurentPoly.zero()
    assert apply_L0_operator(LaurentPoly.x(), DEGEN) == \
        LaurentPoly({1: F(-128), 0: F(128)})


def test_operator_form_on_first_eigensolution():
    # At (beta, M) = (1, 1): b~_0 = 2/(3+beta-2M) = 1, so P~_1 = x - 1.
    p1 = gen_poly_m1(1, DEGEN)
    assert p1 == LaurentPoly({1: F(1), 0: F(-1)})
    assert apply_L0_operator(p1, DEGEN) == -128 * p1


def test_dual_operator_agreement(rng):
    for params in random_m1_params(rng, 5):
        for n in range(21):
            xn = LaurentPoly.monomial(n)
            assert apply_L0_monomial(xn, params) == \
                apply_L0_operator(xn, params), (params, n)


def test_operator_rejects_laurent_input():
    with pytest.raises(ValueError):
        apply_L0_operator(LaurentPoly.monomial(-1), STD)
    with pytest.raises(ValueError):
        apply_L0_monomial(LaurentPoly.monomial(-2), STD)


@given(st.dictionaries(st.integers(0, 10),
                       st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
                       max_size=5),
       st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
       st.builds(F, st.integers(-6, 6), st.integers(1, 4)))
@settings(max_examples=60)
def test_dual_operator_property(coeffs, beta, M):
    # Both realizations are defined for every (beta, M); no Geronimus
    # existence is involved in the operator itself.
    params = MinusOneParams(beta=beta, M=M)
    p = LaurentPoly(coeffs)
    assert apply_L0_monomial(p, params) == apply_L0_operator(p, params)


# -- moments and orthogonality ----------------------------------------------------

def test_moment_values():
    seq = moments(4, STD)
    assert seq.values == [F(3, 2), F(1, 2), F(1, 2), F(1, 3), F(1, 3)]


def test_moment_pairing(rng):
    for params in random_m1_params(rng, 3):
        seq = moments(12, params)
        assert seq.mu(0) == 1 - 2 * params.M / (3 + params.beta)
        for n in range(1, 6):
            assert seq.mu(2 * n) == seq.mu(2 * n - 1)


def test_moment_degenerate_beta():
    with pytest.raises(DegenerateParameters):
        moments(2, MinusOneParams(beta=F(-3), M=F(0)))


def _poch_moments(N, params):
    """mu_0 .. mu_N with two Pochhammer symbols per even moment, the
    closed form mu_(2n) = mu_(2n-1) = (1)_n / (beta/2+3/2)_n as stated."""
    beta, M = params.beta, params.M
    if 3 + beta == 0:
        raise DegenerateParameters("(3+beta) vanishes")
    half = beta / 2 + F(3, 2)
    values = [1 - 2 * M / (3 + beta)]
    for n in range(1, (N + 1) // 2 + 1):
        den = poch(half, n)
        if den == 0:
            raise DegenerateParameters(
                f"(beta/2+3/2)_{n} vanishes at beta={beta}")
        values += [F(poch(F(1), n)) / den] * 2
    return values[:N + 1]


@pytest.mark.parametrize("beta", [F(1), F(1, 2), F(-1, 3), F(-13, 4),
                                  F(7, 3), F(29, 2), F(-5), F(-7), F(-9)])
def test_running_product_moments_match_poch_form(beta):
    # beta = -5, -7, -9 make (beta/2+3/2)_n vanish first at n = 2, 3, 4:
    # the running product raises the same message at the same N.
    params = MinusOneParams(beta=beta, M=F(-2, 7))
    try:  # each shorter closed-form sequence is a prefix of this one
        full = _poch_moments(60, params)
    except DegenerateParameters:
        full = None
    for N in range(61):
        try:
            want = full[:N + 1] if full else _poch_moments(N, params)
        except DegenerateParameters as exc:
            with pytest.raises(DegenerateParameters) as got:
                moments(N, params)
            assert str(got.value) == str(exc)
            continue
        assert moments(N, params).values == want, (beta, N)
    if beta.denominator == 1 and beta <= -5:
        n = int(-beta - 1) // 2
        with pytest.raises(DegenerateParameters,
                           match=re.escape(f"(beta/2+3/2)_{n} vanishes "
                                           f"at beta={beta}")):
            moments(2 * n - 1, params)
        assert len(moments(2 * n - 2, params).values) == 2 * n - 1


def test_inner_product_unit():
    seq = moments(4, STD)
    assert inner_product(LaurentPoly.one(), LaurentPoly.one(), seq) == F(3, 2)


def test_inner_product_needs_moments():
    seq = moments(2, STD)
    with pytest.raises(InsufficientMoments):
        inner_product(LaurentPoly.monomial(2), LaurentPoly.monomial(1), seq)


def test_p2_kills_constants(rng):
    for params in random_m1_params(rng, 4):
        seq = moments(4, params)
        assert inner_product(gen_poly_m1(2, params), LaurentPoly.one(),
                             seq) == 0


def test_gram_diagonality():
    for params in (STD, HALF):
        gram = gram_matrix(10, params)
        for i in range(11):
            for j in range(11):
                if i != j:
                    assert gram[i][j] == 0
                else:
                    assert gram[i][j] != 0


def test_gram_diagonal_norm_identity():
    params = HALF
    gram = gram_matrix(8, params)
    seq = moments(16, params)
    norm = seq.mu(0)
    assert gram[0][0] == norm
    for n in range(1, 9):
        norm *= transformed_recurrence_m1(n, params)[0]
        assert gram[n][n] == norm


def test_family_gram_matches_pairwise_inner_products(rng):
    # The full pairwise matrix is the oracle for the mirrored triangle.
    # The monomials' Gram matrix is the Hankel matrix mu_(i+j), nonzero
    # off the diagonal, so the mirror is checked away from it too.
    for degree in (5, 10):
        monomials = [LaurentPoly.monomial(k) for k in range(degree + 1)]
        for params in random_m1_params(rng, 3, need_degrees=degree):
            seq = moments(2 * degree, params)
            for family in (gen_poly_family(degree, params), monomials):
                assert family_gram(family, seq) == \
                    [[inner_product(p, r, seq) for r in family]
                     for p in family]
            assert family_gram(monomials, seq) == \
                [[seq.mu(i + j) for j in range(degree + 1)]
                 for i in range(degree + 1)]


def test_family_gram_integer_rows_of_odd_families(rng):
    # int-typed coefficients, coefficients over mixed denominators, gaps
    # in the degrees and the zero polynomial (whose denominator is the
    # lcm of nothing, 1), against the pairwise inner products.
    seq = moments(12, HALF)
    families = [
        [LaurentPoly({0: 2, 2: -3}), LaurentPoly({1: 5}), LaurentPoly.one()],
        [LaurentPoly({0: F(1, 3), 1: F(-5, 7), 3: F(2, 9)}),
         LaurentPoly({2: F(11, 4), 5: F(-1, 6)}),
         LaurentPoly({6: F(3, 10), 0: 4})],
        [LaurentPoly.zero(), LaurentPoly({1: F(1, 2)}), LaurentPoly.zero()],
        [LaurentPoly.zero()],
        [],
        [LaurentPoly({d: rand_fraction(rng, max_den=30) for d in range(k)})
         for k in range(7)],
    ]
    for family in families:
        gram = family_gram(family, seq)
        assert gram == [[inner_product(p, r, seq) for r in family]
                        for p in family]
        assert all(type(v) is F for row in gram for v in row)


def test_family_gram_needs_moments():
    # Degree 3 reads mu_6; the message names the first moment beyond the
    # stored range, as the moment-by-moment sum did.
    seq = moments(5, HALF)
    family = [LaurentPoly.one(), LaurentPoly.monomial(3), LaurentPoly.x()]
    with pytest.raises(InsufficientMoments,
                       match=re.escape("moment 6 beyond stored range 5")):
        family_gram(family, seq)
    assert family_gram(family[:1] + family[2:], seq) == \
        [[seq.mu(0), seq.mu(1)], [seq.mu(1), seq.mu(2)]]
    with pytest.raises(InsufficientMoments):
        family_gram([LaurentPoly.one()], MomentSequence([]))


def _hankel_oracle(N, params):
    """One determinant per order, each by its own elimination."""
    seq = moments(2 * N, params)
    return [_det_fraction([[seq.mu(i + j) for j in range(m + 1)]
                           for i in range(m + 1)]) for m in range(N + 1)]


def _count_fallbacks(monkeypatch):
    """Record the order of each per-order determinant hankel_dets takes."""
    orders, det = [], minus_one._det_fraction
    monkeypatch.setattr(minus_one, "_det_fraction",
                        lambda mat: orders.append(len(mat) - 1) or det(mat))
    return orders


def test_hankel_dets_match_per_order_determinants(rng, monkeypatch):
    # Random points with beta > 0 > M are positive definite, checked to
    # order 30 with no fallback taken; (1, 3/4) is indefinite; at (1, 1)
    # and (3, 2), M = (1+beta)/2 makes H_1 vanish, so the orders from 1 on
    # take the per-order fallback.
    fallbacks = _count_fallbacks(monkeypatch)
    positive = [MinusOneParams(beta=rand_fraction(rng, 1, 4),
                               M=-rand_fraction(rng, 1, 2)) for _ in range(3)]
    for params in positive:
        assert all(d > 0 for d in hankel_dets(30, params))
        assert fallbacks == []
        oracle = _hankel_oracle(30, params)
        for N in range(31):
            assert hankel_dets(N, params) == oracle[:N + 1]
    for params in positive + [MinusOneParams(beta=F(1), M=F(3, 4)),
                              DEGEN, MinusOneParams(beta=F(3), M=F(2))]:
        oracle = _hankel_oracle(8, params)
        for N in range(9):
            assert hankel_dets(N, params) == oracle[:N + 1]
    assert hankel_dets(5, DEGEN) == [F(1, 2), 0, F(-1, 72), F(-1, 2592),
                                     F(-7, 3110400), F(-1, 373248000)]


def _zero_minor_point(beta, k):
    """The M at which det H_k = 0.  mu_0 enters only the corner of H_k,
    so det H_k is affine in mu_0, and mu_0 = 1 - 2M/(3+beta)."""
    mu = moments(2 * k, MinusOneParams(beta=beta, M=F(0))).values

    def det_at(mu0):
        row = [mu0] + mu[1:]
        return _det_fraction([row[i:i + k + 1] for i in range(k + 1)])

    base, slope = det_at(F(0)), det_at(F(1)) - det_at(F(0))
    assert slope != 0
    return MinusOneParams(beta=beta, M=(1 + base / slope) * (3 + beta) / 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hankel_fallback_from_a_zero_minor_past_order_1(k, monkeypatch):
    # H_0 .. H_(k-1) are nonzero, so the Chebyshev norms run to order k-1
    # and exactly the orders from k on take the per-order fallback.
    fallbacks = _count_fallbacks(monkeypatch)
    for beta in (F(1, 2), F(7, 3), F(3), F(-1, 3)):
        params = _zero_minor_point(beta, k)
        oracle = _hankel_oracle(k + 3, params)
        assert oracle[k] == 0 and all(d != 0 for d in oracle[:k])
        for N in range(k + 4):
            fallbacks.clear()
            assert hankel_dets(N, params) == oracle[:N + 1], (beta, k, N)
            assert fallbacks == list(range(k, N + 1))
    assert _zero_minor_point(F(1), k).M == {2: F(1, 2), 3: F(1, 3),
                                            4: F(2, 9)}[k]


def test_hankel_detects_indefinite_point():
    from krallm1.minus_one import is_positive_definite
    bad = MinusOneParams(beta=F(1), M=F(3, 4))  # u~_2 < 0 at this point
    dets = hankel_dets(2, bad)
    assert dets[0] > 0 and dets[1] > 0 and dets[2] < 0
    assert not is_positive_definite(2, bad)


def test_hankel_values():
    dets = hankel_dets(2, STD)
    assert dets[0] == F(3, 2)
    # det H_m equals the product of the squared norms h_0 ... h_m
    seq = moments(8, STD)
    h, prod = seq.mu(0), seq.mu(0)
    for m in range(1, 3):
        h *= transformed_recurrence_m1(m, STD)[0]
        prod *= h
        assert dets[m] == prod


# -- weight density and quadrature -------------------------------------------------

def test_density_nonnegative():
    with working_precision(40):
        for params in (STD, HALF):
            for k in range(1, 20):
                x = mpf(k) / 10 - mpf("0.95")
                if x == 0:
                    continue
                assert weight_density(x, params) >= 0


def test_density_domain_and_integrability():
    with pytest.raises(ValueError):
        weight_density(mpf(2), STD)
    with pytest.raises(IntegrabilityError):
        weight_density(mpf("0.5"), MinusOneParams(beta=F(-2), M=F(0)))
    with pytest.raises(IntegrabilityError):
        quadrature_moment_check(0, MinusOneParams(beta=F(-1), M=F(0)))


def test_point_mass_value():
    assert point_mass(STD) == F(1, 2)  # -2M/(3+beta) at (1, -1)


def test_quadrature_matches_mu0():
    report = quadrature_moment_check(0, STD)
    assert report.ok, report.failures


def test_quadrature_low_moments_half():
    for n in (1, 2, 5):
        report = quadrature_moment_check(n, HALF)
        assert report.ok, report.failures


# -- epsilon scan -------------------------------------------------------------------

def test_scan_anchor_single_eps():
    report = epsilon_scan(1, 0, DEGEN, ["1e-3"])
    entry = report.results[0]
    assert entry.check == "limit-scan"
    value = mpf(entry.lhs)
    # within O(eps) of the limit -128
    assert abs(value + 128) < 2


def test_scan_monotone_convergence():
    report = epsilon_scan(1, 0, DEGEN, ["1e-2", "1e-3", "1e-4"])
    summary = report.results[-1]
    assert summary.check == "limit-scan-convergence"
    assert summary.status == "pass"
    devs = [mpf(r.residual) for r in report.results[:-1]]
    assert devs[0] > devs[1] > devs[2]
    # first-order approach to the limit shows up in the reported orders
    assert "orders=[" in summary.residual
    first_order = float(summary.residual.split("orders=[")[1].split(",")[0])
    assert 0.8 < first_order < 1.2


def test_scan_structural_zero_band():
    # s = 3 at n = 2 is zero on the q side and in the limit.
    report = epsilon_scan(2, 3, DEGEN, ["1e-2", "1e-3"])
    assert report.ok, report.failures
    assert limit_rep_coeff(2, 3, DEGEN) == 0


def test_scan_reaches_absent_band_values():
    # s = 3 at n = 4 has no q-side closed form; the reconstruction value
    # still scales to the limit coefficient.
    report = epsilon_scan(4, 3, MinusOneParams(beta=F(1), M=F(1)),
                          ["1e-2", "1e-3"], tol=F(1, 10))
    assert report.ok, report.failures

"""Even/odd splitting, the five-term recurrence of the renormalized even
parts, and the induced 2x2 matrix orthogonal polynomials.

This module works in mpmath floats: the renormalization sqrt(u~_1...u~_n)
is generically irrational.  Positivity of the u~ chain is required (and
checked exactly, on the Fractions) before any square root is taken.  The
five-term construction itself is generic over any positive recurrence
chain; the limit-family parameters enter only through their chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .errors import (GeronimusDegenerate, NotPositiveDefinite,
                     ResidualExceeded)
from .exact_core import (DEFAULT_PRECISION, LaurentPoly, format_float, to_mpf,
                         working_precision)
from .minus_one import (MinusOneParams, family_rows, is_positive_definite,
                        transformed_recurrence_m1)
from .report import CheckResult, VerificationReport


def split_even_odd(p: LaurentPoly):
    """Direct-sum split p = E + O with E = (p + Rp)/2, O = (p - Rp)/2."""
    rp = p.reflect()
    half = Fraction(1, 2)
    return half * (p + rp), half * (p - rp)


@dataclass
class FiveTermCoeffs:
    """Coefficients of x^2 F_n = c0 F_n + c1 F_(n-1) + ... at one index."""

    c0: mpf
    c1: mpf
    c2: mpf


def default_tolerance(precision: int) -> Fraction:
    """Residual bound of the float checks when none is given:
    max(10^-(precision-20), 1e-40), so 1e-40 from the default 60 digits on.

    Residuals of a holding identity sit near 10^-precision and grow by
    about 0.8 decades per degree (10^-(precision-11) at degree 16).
    Below 60 digits 1e-40 is out of their reach; above, a bound that
    shrank with the precision would stop a higher precision from
    letting a larger degree pass.
    """
    return max(Fraction(10) ** (20 - precision), Fraction(1, 10 ** 40))


def _chains(params: MinusOneParams, kmax: int):
    """Exact recurrence chains (u~_0..u~_kmax, b~_0..b~_kmax) with
    positivity of u~_k checked for k >= 1."""
    us, bs = [Fraction(0)], []
    for k in range(kmax + 1):
        u, b = transformed_recurrence_m1(k, params)
        bs.append(b)
        if k >= 1:
            if u <= 0:
                raise NotPositiveDefinite(k, f"u~_{k} = {u}")
            us.append(u)
    return us, bs


def _coeffs_from_chain(n: int, us, bs,
                       precision: int) -> FiveTermCoeffs:
    """c_(n,0) = u~_(n+1) + u~_n + b~_n^2,
    c_(n,1) = (b~_(n-1) + b~_n) sqrt(u~_n),
    c_(n,2) = sqrt(u~_n u~_(n-1)).

    The off-band coefficients at n = 0, 1 multiply polynomials of
    negative index and are fixed at 0 (u~_0 = 0 convention).
    """
    with working_precision(precision):
        c0 = to_mpf(us[n + 1] + (us[n] if n >= 1 else Fraction(0))
                    + bs[n] * bs[n])
        c1 = to_mpf(bs[n - 1] + bs[n]) * mp.sqrt(to_mpf(us[n])) \
            if n >= 1 else mpf(0)
        c2 = mp.sqrt(to_mpf(us[n] * us[n - 1])) if n >= 2 else mpf(0)
    return FiveTermCoeffs(c0=c0, c1=c1, c2=c2)


def _f_polys_from_chain(start: int, stop: int, us, bs, precision: int) -> list:
    """Renormalized even parts F_k = E_k / sigma_k for start <= k < stop, in
    mpf: E_k is the even-degree part of P_k, sigma_k = sqrt(u~_1)...sqrt(u~_k).
    sigma runs over every k < stop; only the window is converted."""
    out = []
    with working_precision(precision):
        sigma = mpf(1)
        for k, (num, den) in enumerate(family_rows(us, bs, stop)):
            if k >= 1:
                sigma *= mp.sqrt(to_mpf(us[k]))
            if k >= start:
                out.append(LaurentPoly({
                    d: to_mpf(Fraction(num[d], den)) / sigma
                    for d in range(k - k % 2, -1, -2)}))
    return out


def _five_term_residual(n: int, us, bs, precision: int):
    """Max coefficient deviation in the five-term identity at index n."""
    with working_precision(precision):
        pad = max(2 - n, 0)  # F_k = 0 for k < 0
        fm2, fm1, f0, fp1, fp2 = [LaurentPoly.zero()] * pad + \
            _f_polys_from_chain(n - 2 + pad, n + 3, us, bs, precision)
        c_n = _coeffs_from_chain(n, us, bs, precision)
        c_n1 = _coeffs_from_chain(n + 1, us, bs, precision)
        c_n2 = _coeffs_from_chain(n + 2, us, bs, precision)
        lhs = LaurentPoly({2: mpf(1)}) * f0
        rhs = (f0 * c_n.c0 + fm1 * c_n.c1 + fp1 * c_n1.c1
               + fm2 * c_n.c2 + fp2 * c_n2.c2)
        diff = lhs - rhs
        return max((abs(c) for c in diff.coeffs.values()), default=mpf(0)), \
            lhs, rhs


def five_term_check(n: int, params: MinusOneParams, tol=None,
                    precision: int = DEFAULT_PRECISION) -> VerificationReport:
    """Residual of x^2 F_n = c_(n,0) F_n + c_(n,1) F_(n-1) + c_(n+1,1) F_(n+1)
    + c_(n,2) F_(n-2) + c_(n+2,2) F_(n+2), as a max coefficient deviation."""
    us, bs = _chains(params, n + 3)
    with working_precision(precision):
        tol_v = to_mpf(default_tolerance(precision) if tol is None else tol)
        residual, lhs, rhs = _five_term_residual(n, us, bs, precision)
        report = VerificationReport()
        report.add(CheckResult(
            check="five-term", params=params.as_dict(), n=n,
            status="pass" if residual <= tol_v else "fail",
            lhs=str(lhs), rhs=str(rhs),
            residual=format_float(residual, 10)))
    return report


def r_nm(p: LaurentPoly, N: int, m: int) -> LaurentPoly:
    """Coefficient-slice reindexing: keep degrees congruent to m mod N,
    R_(N,m)(p)(x) = sum_k coeff_(kN+m)(p) x^k."""
    if N < 1 or not 0 <= m < N:
        raise ValueError("need N >= 1 and 0 <= m < N")
    if not p.is_proper:
        raise ValueError("coefficient slices act on proper polynomials")
    return LaurentPoly({(d - m) // N: c for d, c in p.coeffs.items()
                        if d % N == m})


def matrix_poly(n: int, params: MinusOneParams,
                precision: int = DEFAULT_PRECISION) -> list:
    """2x2 matrix polynomial whose row r is
    (R_(2,0)(F_(2n+r)), R_(2,1)(F_(2n+r)))."""
    us, bs = _chains(params, 2 * n + 1)
    fs = _f_polys_from_chain(2 * n, 2 * n + 2, us, bs, precision)
    return [[r_nm(f, 2, 0), r_nm(f, 2, 1)] for f in fs]


def d_matrix(n: int, params: MinusOneParams,
             precision: int = DEFAULT_PRECISION) -> list:
    """Lower-triangular block D_n = [[c_(2n,2), 0], [c_(2n,1), c_(2n+1,2)]]."""
    us, bs = _chains(params, 2 * n + 2)
    lo = _coeffs_from_chain(2 * n, us, bs, precision)
    hi = _coeffs_from_chain(2 * n + 1, us, bs, precision)
    return [[lo.c2, mpf(0)], [lo.c1, hi.c2]]


def e_matrix(n: int, params: MinusOneParams,
             precision: int = DEFAULT_PRECISION) -> list:
    """Symmetric block E_n = [[c_(2n,0), c_(2n+1,1)], [c_(2n+1,1), c_(2n+1,0)]]."""
    us, bs = _chains(params, 2 * n + 2)
    lo = _coeffs_from_chain(2 * n, us, bs, precision)
    hi = _coeffs_from_chain(2 * n + 1, us, bs, precision)
    return [[lo.c0, hi.c1], [hi.c1, hi.c0]]


def _mat_apply(mat: list, e: list) -> list:
    """Scalar 2x2 times matrix polynomial, entrywise Laurent arithmetic."""
    return [[e[0][c] * mat[r][0] + e[1][c] * mat[r][1] for c in range(2)]
            for r in range(2)]


def matrix_recurrence_check(n: int, params: MinusOneParams, tol=None,
                            precision: int = DEFAULT_PRECISION
                            ) -> VerificationReport:
    """Check x P_n = D_(n+1) P_(n+1) + E_n P_n + D_n^T P_(n-1) entrywise.

    D^* is the transpose (real entries).  Raises ResidualExceeded with the
    max-residual location when the tolerance is violated.
    """
    with working_precision(precision):
        tol_v = to_mpf(default_tolerance(precision) if tol is None else tol)
        p_n = matrix_poly(n, params, precision)
        p_up = matrix_poly(n + 1, params, precision)
        d_up = d_matrix(n + 1, params, precision)
        e_n = e_matrix(n, params, precision)
        x = LaurentPoly({1: mpf(1)})
        lhs = [[x * e for e in row] for row in p_n]
        rhs = _mat_apply(d_up, p_up)
        mid = _mat_apply(e_n, p_n)
        rhs = [[rhs[r][c] + mid[r][c] for c in range(2)] for r in range(2)]
        if n >= 1:
            d_n = d_matrix(n, params, precision)
            d_t = [[d_n[0][0], d_n[1][0]], [d_n[0][1], d_n[1][1]]]
            low = _mat_apply(d_t, matrix_poly(n - 1, params, precision))
            rhs = [[rhs[r][c] + low[r][c] for c in range(2)] for r in range(2)]
        residual = mpf(0)
        location = ""
        for r in range(2):
            for c in range(2):
                diff = lhs[r][c] - rhs[r][c]
                for d, coeff in diff.coeffs.items():
                    if abs(coeff) > residual:
                        residual = abs(coeff)
                        location = f"entry ({r},{c}) degree {d}"
        if residual > tol_v:
            raise ResidualExceeded(format_float(residual, 10),
                                   format_float(tol_v, 5), location)
        report = VerificationReport()
        report.add(CheckResult(
            check="matrix-recurrence", params=params.as_dict(), n=n,
            status="pass", lhs=None, rhs=None,
            residual=format_float(residual, 10)))
    return report


CANDIDATES = (
    (Fraction(1), Fraction(-1)),
    (Fraction(1, 2), Fraction(-1, 4)),
    (Fraction(3), Fraction(-2)),
    (Fraction(2), Fraction(-1)),
    (Fraction(1), Fraction(-1, 2)),
    (Fraction(1, 2), Fraction(-1)),
    (Fraction(3, 2), Fraction(-3, 4)),
)


def find_positive_definite_point(min_index: int) -> MinusOneParams:
    """Scan CANDIDATES until the moment functional is Hankel
    positive and u~_1 .. u~_min_index are all positive."""
    for beta, M in CANDIDATES:
        params = MinusOneParams(beta=beta, M=M)
        try:
            _chains(params, min_index)
            if is_positive_definite(min_index // 2 + 1, params):
                return params
        except (NotPositiveDefinite, GeronimusDegenerate):
            continue
    raise NotPositiveDefinite(
        -1, "no positive-definite candidate point found")

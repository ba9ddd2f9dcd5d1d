"""The -1 Krall-Jacobi family (q -> -1 limit of the transformed little
q-Jacobi polynomials at j = 2).

Contents: the parity-split limit coefficients of the operator table, the
third-order reflection operator L0 (its monomial action is that limit
table extended linearly, checked against the differential-difference
form), the transformed three-term recurrence, exact moments and the
orthogonality machinery, the weight-density quadrature check, and the
epsilon scan that ties the q side to the limit coefficients numerically.

Exact checks run over Fractions; the scan and quadrature use mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from mpmath import mp, mpf

from .errors import (DegenerateParameters, GeronimusDegenerate,
                     InsufficientMoments, IntegrabilityError,
                     NonPolynomialOutput)
from .exact_core import (DEFAULT_PRECISION, LaurentPoly, format_float,
                         format_rational, to_mpf, working_precision)
from .qjacobi import QJacobiParams, rep_coeff_reconstruct
from .report import CheckResult, VerificationReport

LIMIT_J = 2  # the limit family is constructed at j = 2 throughout


@dataclass(frozen=True)
class MinusOneParams:
    """Limit-family parameters (beta, M), exact rationals."""

    beta: Fraction
    M: Fraction

    def __post_init__(self):
        # Coerce so that downstream divisions stay exact.
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "M", Fraction(self.M))

    def as_dict(self) -> dict:
        return {"beta": format_rational(self.beta),
                "M": format_rational(self.M)}


def limit_rep_coeff(n: int, s: int, params: MinusOneParams):
    """Limit of A_n^(s)/eps^3 under q = -e^eps, b = -e^(beta*eps), j = 2.

    Parity-split closed forms; zero for s > 3.
    """
    beta, M = params.beta, params.M
    even = n % 2 == 0
    if s == 0:
        if even:
            return -8 * M * n * (n + 2) * (n + 1 + beta) \
                + 8 * n * (beta + 1) * (beta + 3)
        return 8 * M * (n + 1) * (n + beta) * (n + 2 + beta) \
            - 8 * (n + 2 + beta) * (beta + 1) * (beta + 3)
    if s == 1:
        if even:
            return 8 * M * n * (n + 2) * (n + 1 + beta) \
                - 8 * n * (beta + 1) * (beta + 3)
        return 8 * (beta + 1) * (beta + 3) * (n + 1) \
            - 8 * M * (n * n - 1) * (n + beta)
    if s == 2:
        if even:
            return 8 * M * n * (n + 2) * (n - 2)
        return -8 * M * (n + 1) * (n - 1) * (n + beta)
    if s == 3:
        if even:
            return -8 * M * n * (n + 2) * (n - 2)
        return 8 * M * (n + 1) * (n - 1) * (n - 3)
    return Fraction(0)


def lambda_tilde(n: int, params: MinusOneParams):
    """Eigenvalue of the limit operator; equals limit_rep_coeff(n, 0)."""
    return limit_rep_coeff(n, 0, params)


def _base_terms(n: int, params: MinusOneParams):
    """u_n as an unreduced integer pair (numerator, denominator), and b_n."""
    p, q = params.beta.as_integer_ratio()
    d1, d2 = (2 * n + 1) * q + p, (2 * n + 3) * q + p
    if d1 == 0 or d2 == 0:
        raise DegenerateParameters(
            f"(2n+1+beta)(2n+3+beta) vanishes at n={n}, beta={params.beta}")
    if n % 2 == 0:
        return -n * (n + 2) * q * q, d1 * d2, 1
    return -(n * q + p) * ((n + 2) * q + p), d1 * d2, -1


def base_recurrence_m1(n: int, params: MinusOneParams):
    """Recurrence data (u_n, b_n) of the untransformed limit family:

    even n:  u_n = -n(n+2)/((2n+1+beta)(2n+3+beta)),          b_n = 1
    odd  n:  u_n = -(n+beta)(n+2+beta)/((2n+1+beta)(2n+3+beta)), b_n = -1
    """
    num, den, b = _base_terms(n, params)
    return Fraction(num, den), Fraction(b)


def _divide_by_zero(dividend: Fraction):
    """Raise what the closed form's Fraction division by 0 raises."""
    return dividend / 0


def _limit_B_pair(n: int, params: MinusOneParams):
    """limit_B(n) as an unreduced integer pair (numerator, denominator):
    over beta = p/q, M = r/s, g = q^2 (3+beta)(1+beta), the brackets are
    (r q m e - s g)/(s q m e) above and (r q m' a - s g)/(s q m' a) below;
    a vanishing factor raises as its Fraction division would, in order."""
    if n < 1:
        raise ValueError("Geronimus ratio needs n >= 1")
    p, q = params.beta.as_integer_ratio()
    r, s = params.M.as_integer_ratio()
    g, c = (3 * q + p) * (q + p), (2 * n + 1) * q + p
    if n % 2 == 0:
        a = e = (n + 1) * q + p  # q(n+1+beta)
        m, m_below, lead, top = n + 2, n, (n + 2) * q, q * n
        where = "n(n+1+beta)"
    else:
        a, e = n * q + p, (n + 2) * q + p  # q(n+beta), q(n+2+beta)
        m, m_below, lead, top = n + 1, n + 1, -e, -a
        where = "(n+1)(n+beta)"
    if a == 0:
        _divide_by_zero(Fraction(g, q * q))
    den = r * q * m_below * a - s * g
    if den == 0:
        raise GeronimusDegenerate(
            n, f"M = (3+beta)(1+beta)/({where}) at n={n}")
    if c == 0 or e == 0:  # lead/(2n+1+beta), then g/(m e)
        _divide_by_zero(Fraction(lead, q) if c == 0 else Fraction(g, q * q))
    return top * (r * q * m * e - s * g), c * den


def limit_B(n: int, params: MinusOneParams):
    """Limit of the Geronimus ratio Phi_n/Phi_(n-1), parity-split:

    even n:  (n+2)/(2n+1+beta)
             * (M - (3+beta)(1+beta)/((n+2)(n+1+beta)))
             / (M - (3+beta)(1+beta)/(n(n+1+beta)))
    odd  n: -(n+2+beta)/(2n+1+beta)
             * (M - (3+beta)(1+beta)/((n+1)(n+2+beta)))
             / (M - (3+beta)(1+beta)/((n+1)(n+beta)))
    """
    return Fraction(*_limit_B_pair(n, params))


def transformed_recurrence_m1(n: int, params: MinusOneParams):
    """Recurrence data (u~_n, b~_n) of the transformed limit family.

    b~_0 = b_0 + B_1,  b~_n = b_n + B_(n+1) - B_n,
    u~_n = u_(n-1) B_n / B_(n-1) for n >= 2, with B_n = limit_B(n).
    u~_1 comes from the moment functional (<P~_1, P~_1>/<1, 1>): the
    q-side ratio Phi_1/Phi_0^2 carries an eps-dependent scale in the
    limit, while the moment route is exact and parameter-uniform:
    u~_1 = b~_0^2 + (1 - 2 b~_0) mu_1/mu_0, mu_1/mu_0 = 2/(3+beta-2M).
    Each term is an unreduced integer pair; each output is one Fraction."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    b = _base_terms(n, params)[2]
    up, up_d = _limit_B_pair(n + 1, params)
    cur, cur_d = _limit_B_pair(n, params) if n else (0, 1)  # no B_0 term
    bn = Fraction(b * up_d * cur_d + up * cur_d - cur * up_d, up_d * cur_d)
    if n == 0:
        return Fraction(0), bn
    # mu_0 = 0 is B_1's lower bracket M - (3+beta)/2 = 0; B_(n-1) = 0 is
    # n-1+beta = 0 or its upper bracket, B_n's lower, = 0: limit_B raised.
    if n == 1:
        p, q = params.beta.as_integer_ratio()
        r, s = params.M.as_integer_ratio()
        w = s * (3 * q + p) - 2 * r * q  # mu_1/mu_0 = 2 q s / w
        top = cur_d + cur  # b~_0 = 1 + B_1 = top/cur_d
        return Fraction(top * top * w + 2 * q * s * (cur_d - 2 * top) * cur_d,
                        w * cur_d * cur_d), bn
    prev, prev_d = _limit_B_pair(n - 1, params)
    u, u_d, _ = _base_terms(n - 1, params)
    return Fraction(u * cur * prev_d, u_d * cur_d * prev), bn


def family_rows(us, bs, count: int) -> list:
    """(numerators, denominator) of the monic P_0 .. P_(count-1) of the
    recurrence chain P_1 = x - b_0,  P_(k+1) = x P_k - b_k P_k - u_k P_(k-1).

    Fraction-free (after Bareiss): integer coefficients of P_k, lowest
    degree first, over one denominator, reduced by their gcd each step."""
    polys = [([1], 1)]
    if count > 1:
        polys.append(([-bs[0].numerator, bs[0].denominator],
                      bs[0].denominator))
    for k in range(1, count - 1):
        (cur, d_cur), (prev, d_prev), b = polys[k], polys[k - 1], bs[k]
        left, right = b.denominator * d_cur, us[k].denominator * d_prev
        den = lcm(left, right)
        x_f, b_f = den // left * b.denominator, den // left * b.numerator
        u_f = den // right * us[k].numerator
        new = [x_f * xc - b_f * c - u_f * pc  # of x P_k, P_k, P_(k-1)
               for xc, c, pc in zip([0] + cur, cur + [0], prev + [0, 0])]
        g = gcd(den, *new)
        polys.append(([v // g for v in new], den // g))
    return polys


def family_from_chain(us, bs, count: int) -> list:
    """Monic polynomials P_0 .. P_(count-1) of the recurrence chain."""
    return [LaurentPoly({d: Fraction(num[d], den)
                         for d in range(len(num) - 1, -1, -1)})
            for num, den in family_rows(us, bs, count)]


def gen_poly_family(max_n: int, params: MinusOneParams) -> list:
    """Monic transformed polynomials P~_0 .. P~_max_n by forward recurrence."""
    chain = [transformed_recurrence_m1(k, params) for k in range(max_n)]
    return family_from_chain([u for u, _ in chain], [b for _, b in chain],
                             max_n + 1)


def gen_poly_m1(n: int, params: MinusOneParams) -> LaurentPoly:
    """Single transformed polynomial P~_n of the limit family."""
    return gen_poly_family(n, params)[n]


def btilde0_closed(params: MinusOneParams):
    """Closed form of the first transformed recurrence coefficient,
    b~_0 = 2/(3+beta-2M); equals mu_1/mu_0."""
    den = 3 + params.beta - 2 * params.M
    if den == 0:
        raise DegenerateParameters("(3+beta-2M) vanishes")
    return 2 / den


def explicit_solution(n: int, params: MinusOneParams) -> LaurentPoly:
    """Explicit low-degree eigensolutions P~_2 and P~_3 in closed form.

    (The degree-1 member has no self-contained closed form here and is
    validated through b~_0 instead.)
    """
    beta, M = params.beta, params.M
    if n == 2:
        den = (5 + beta) * (2 * M - beta - 1)
        if den == 0:
            raise DegenerateParameters("(5+beta)(2M-beta-1) vanishes")
        return LaurentPoly({2: Fraction(1),
                            1: -2 * (4 * M - beta - 1) / den,
                            0: 2 * (beta + 1) / den})
    if n == 3:
        den = (7 + beta) * (-4 * M + beta + 1)
        if den == 0 or (5 + beta) == 0:
            raise DegenerateParameters(
                "(7+beta)(-4M+beta+1) or (5+beta) vanishes")
        return LaurentPoly({3: Fraction(1),
                            2: -4 * (-2 * M + 1 + beta) / den,
                            1: Fraction(-4) / (7 + beta),
                            0: 8 * (1 + beta) / ((5 + beta) * den)})
    raise ValueError("explicit solutions are stated for n = 2, 3 only")


def explicit_eigenvalue(n: int, params: MinusOneParams):
    """Explicit low-degree eigenvalues in factored closed form."""
    beta, M = params.beta, params.M
    if n == 1:
        return (beta + 1) * (beta + 3) * (16 * M - 8 * (beta + 3))
    if n == 2:
        return (beta + 3) * (16 * beta + 16 - 64 * M)
    if n == 3:
        return (3 + beta) * (5 + beta) * (32 * M - 8 - 8 * beta)
    raise ValueError("explicit eigenvalues are stated for n = 1, 2, 3 only")


# ---------------------------------------------------------------------------
# The third-order reflection operator L0: limit table and operator form
# ---------------------------------------------------------------------------

def apply_L0_monomial(p: LaurentPoly, params: MinusOneParams) -> LaurentPoly:
    """Apply L0 through its monomial action, the limit table extended
    linearly: L0 x^n = sum_(s <= min(n, 3)) limit_rep_coeff(n, s) x^(n-s)."""
    if not p.is_proper:
        raise ValueError("operator acts on proper polynomials only")
    return LaurentPoly.from_terms(
        (d - s, c * v) for d, c in p.coeffs.items()
        for s in range(min(d, 3) + 1)
        if (v := limit_rep_coeff(d, s, params)) != 0)


def _l0_coefficient_functions(params: MinusOneParams):
    """Laurent coefficient functions of the differential-difference form,
    keyed by (derivative order, reflected?).  The (0, True) entry is the
    multiplier of (1 - R)."""
    beta, M = params.beta, params.M
    c_d3R = LaurentPoly({0: -8 * M, 1: 8 * M, 2: 8 * M, 3: -8 * M})
    c_d2R = LaurentPoly({-1: -12 * M, 0: 24 * M + 4 * beta * M,
                         1: 36 * M + 8 * beta * M,
                         2: -(12 * beta * M + 48 * M)})
    c_d2 = LaurentPoly({1: 12 * M, 2: 4 * beta * M, -1: -12 * M,
                        0: -4 * beta * M})
    c_d1R = LaurentPoly({0: 24 * M + 16 * beta * M - 8 * beta ** 2
                         - 32 * beta - 24,
                         -2: 24 * M, -1: (4 * beta - 12) * M,
                         1: 8 * beta ** 2 - 36 * beta * M - 48 * M
                         - 4 * beta ** 2 * M + 32 * beta + 24})
    c_d1 = LaurentPoly({1: 4 * beta ** 2 * M + 12 * beta * M,
                        -1: -(12 + 4 * beta) * M, 0: 24 * M + 8 * beta * M})
    c_1mR = LaurentPoly({-3: 12 * M, -2: 4 * beta * M,
                         -1: 12 + 4 * beta ** 2 + 4 * beta * M + 16 * beta,
                         0: 8 * beta * M + 4 * beta ** 2 * M - 44 * beta
                         - 24 - 4 * beta ** 3 - 24 * beta ** 2})
    return c_d3R, c_d2R, c_d2, c_d1R, c_d1, c_1mR


def apply_L0_operator(p: LaurentPoly, params: MinusOneParams) -> LaurentPoly:
    """Apply L0 in its differential-difference form

        L0 = a3(x) d^3 R + a2R(x) d^2 R + a2(x) d^2
             + a1R(x) d R + a1(x) d + a0(x) (1 - R)

    with Laurent coefficient functions reaching down to 12M/x^3, worked
    inside the Laurent space.  All negative-degree contributions must
    cancel exactly; a survivor raises NonPolynomialOutput (that is an
    implementation bug, never a property of valid input).
    """
    if not p.is_proper:
        raise ValueError("operator acts on proper polynomials only")
    c_d3R, c_d2R, c_d2, c_d1R, c_d1, c_1mR = _l0_coefficient_functions(params)
    rp = p.reflect()
    d1, d1r = p.derivative(), rp.derivative()
    d2, d2r = d1.derivative(), d1r.derivative()
    d3r = d2r.derivative()
    total = (c_d3R * d3r + c_d2R * d2r + c_d2 * d2
             + c_d1R * d1r + c_d1 * d1 + c_1mR * (p - rp))
    leftovers = {d: c for d, c in total.coeffs.items() if d < 0}
    if leftovers:
        raise NonPolynomialOutput(
            f"negative-degree coefficients survive: {leftovers}")
    return total


# ---------------------------------------------------------------------------
# Moments and orthogonality
# ---------------------------------------------------------------------------

@dataclass
class MomentSequence:
    """Moments mu_0 .. mu_N of the limit family, k = 1 normalization:

    mu_0 = 1 - 2M/(3+beta),  mu_(2n) = mu_(2n-1) = (1)_n / (beta/2+3/2)_n.
    """

    values: list

    def mu(self, n: int):
        if not 0 <= n < len(self.values):
            raise InsufficientMoments(
                f"moment {n} beyond stored range {len(self.values) - 1}")
        return self.values[n]


def moments(N: int, params: MinusOneParams) -> MomentSequence:
    """Exact moment sequence mu_0 .. mu_N.  The (1)_n/(beta/2+3/2)_n are
    one running product, step n/(beta/2+1/2+n) = 2qn/(p+q+2qn), beta = p/q."""
    beta, M = params.beta, params.M
    if 3 + beta == 0:
        raise DegenerateParameters("(3+beta) vanishes")
    p, q = beta.as_integer_ratio()
    values, mu = [1 - 2 * M / (3 + beta)], Fraction(1)
    for n in range(1, (N + 1) // 2 + 1):  # mu_(2n-1) = mu_(2n)
        step = p + q + 2 * q * n  # 0 at the first n with (beta/2+3/2)_n = 0
        if step == 0:
            raise DegenerateParameters(
                f"(beta/2+3/2)_{n} vanishes at beta={beta}")
        mu *= Fraction(2 * q * n, step)
        values += [mu] * 2
    return MomentSequence(values[:N + 1])


def inner_product(p: LaurentPoly, r: LaurentPoly,
                  momseq: MomentSequence):
    """Bilinear moment functional <p, r> = sum p_i r_j mu_(i+j)."""
    if not (p.is_proper and r.is_proper):
        raise ValueError("moment functional acts on proper polynomials")
    total = Fraction(0)
    for dp, cp in p.coeffs.items():
        for dr, cr in r.coeffs.items():
            total += cp * cr * momseq.mu(dp + dr)
    return total


def family_gram(family: list, momseq: MomentSequence) -> list:
    """Gram matrix <p_i, p_j> of a family under the moment functional.

    Each p_i is taken as integer coefficients over one denominator d_i, and
    the moments it reads as integers over their lcm D.  Row i takes the
    moment vector m_i[k] = <p_i, x^k> = sum_d p_(i,d) mu_(d+k) once, then
    G[i][j] = sum_d p_(j,d) m_i[d] for j <= i, mirrored above, both sums on
    integers: O(N^3) for N polynomials of degree < N, not O(N^4) pairwise,
    and one Fraction(G[i][j], d_i d_j D) per cell.
    """
    if not all(p.is_proper for p in family):
        raise ValueError("moment functional acts on proper polynomials")
    rows, dens = [], []  # integer coefficients, lowest degree first
    for p in family:
        dens.append(lcm(*(c.denominator for c in p.coeffs.values())))
        rows.append([0] * (p.degree + 1))
        for d, c in p.coeffs.items():
            rows[-1][d] = c.numerator * (dens[-1] // c.denominator)
    size = max(2 * max(map(len, rows), default=0) - 1, 0)
    if size > len(momseq.values):
        momseq.mu(len(momseq.values))  # raises InsufficientMoments
    mus = momseq.values[:size]
    big_d = lcm(*(mu.denominator for mu in mus))
    ints = [mu.numerator * (big_d // mu.denominator) for mu in mus]
    gram = [[None] * len(family) for _ in family]
    top = -1
    for i, row in enumerate(rows):
        top = max(top, len(row) - 1)
        m_i = [sum(map(mul, row, ints[k:k + len(row)]))
               for k in range(top + 1)]
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = Fraction(
                sum(map(mul, rows[j], m_i)), dens[i] * dens[j] * big_d)
    return gram


def gram_matrix(N: int, params: MinusOneParams) -> list:
    """Exact Gram matrix of P~_0 .. P~_N under the moment functional."""
    momseq = moments(2 * N, params)
    return family_gram(gen_poly_family(N, params), momseq)


def hankel_dets(N: int, params: MinusOneParams) -> list:
    """Exact Hankel determinants det(mu_(i+j))_(0..m) for m = 0 .. N.

    All positive <=> the moment functional is positive definite.  The
    Chebyshev algorithm (Gautschi 2004, sec. 2.1) on mu_0 .. mu_2N gives
    the norms sigma_(k,k) = det H_k / det H_(k-1), so det H_m is the
    running product of the first m+1, O(N^2) in all: sigma_(0,l) = mu_l,
    sigma_(k+1,l) = sigma_(k,l+1) - a_k sigma_(k,l) - b_k sigma_(k-1,l)
    with a_k = sigma_(k,k+1)/sigma_(k,k) - sigma_(k-1,k)/sigma_(k-1,k-1)
    and b_k = sigma_(k,k)/sigma_(k-1,k-1).  From the first zero norm on
    (det H_m = 0, as H_1 at M = (1+beta)/2), each order falls back to its
    own elimination with row swaps, _det_fraction.
    """
    mu = moments(2 * N, params).values
    out, lower, row = [], [0] * len(mu), mu  # sigma_(k-1,l), sigma_(k,l)
    for k in range(N + 1):
        norm = row[k]
        if norm == 0:
            break
        out.append(norm * out[-1] if out else norm)
        if k == N:
            break
        a = row[k + 1] / norm - (lower[k] / lower[k - 1] if k else 0)
        b = norm / lower[k - 1] if k else 0
        lower, row = row, [0] * (k + 1) + [
            row[l + 1] - a * row[l] - b * lower[l]
            for l in range(k + 1, 2 * N - k)]
    return out + [_det_fraction([mu[i:i + m + 1] for i in range(m + 1)])
                  for m in range(len(out), N + 1)]


def is_positive_definite(N: int, params: MinusOneParams) -> bool:
    """True when all Hankel determinants up to order N are positive."""
    try:
        return all(d > 0 for d in hankel_dets(N, params))
    except DegenerateParameters:
        return False


def _det_fraction(mat: list):
    """Fraction-exact determinant by Gaussian elimination with pivoting."""
    m = [row[:] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    return det


# ---------------------------------------------------------------------------
# Weight density and quadrature cross-check
# ---------------------------------------------------------------------------

def weight_density(x, params: MinusOneParams,
                   precision: int = DEFAULT_PRECISION):
    """Continuous part of the orthogonality weight at x in (-1, 1):

        k~ |x| (1-x^2)^((beta-1)/2) (1+x),   k~ = (beta+1)/2

    (k = 1 normalization; the point mass at 0 is handled separately).
    """
    with working_precision(precision):
        density = _density(params)
        xv = to_mpf(x)
        if not -1 < xv < 1:
            raise ValueError("density is defined on (-1, 1)")
        return density(xv)


def _density(params: MinusOneParams):
    """x -> k~ |x| (1-x^2)^((beta-1)/2) (1+x) at the working precision."""
    beta = params.beta
    if beta <= -1:
        raise IntegrabilityError(f"weight not integrable for beta={beta}")
    ktilde = to_mpf(Fraction(beta + 1, 2))
    expo = to_mpf(beta - 1) / 2
    return lambda x: ktilde * abs(x) * (1 - x * x) ** expo * (1 + x)


def point_mass(params: MinusOneParams) -> Fraction:
    """Weight of the Dirac mass at the origin: -k~ 4M/((1+beta)(3+beta))."""
    beta, M = params.beta, params.M
    if (1 + beta) == 0 or (3 + beta) == 0:
        raise DegenerateParameters("(1+beta)(3+beta) vanishes")
    return -Fraction(beta + 1, 2) * 4 * M / ((1 + beta) * (3 + beta))


def quadrature_moment_check(n: int, params: MinusOneParams,
                            tol=Fraction(1, 10 ** 8),
                            precision: int = DEFAULT_PRECISION
                            ) -> VerificationReport:
    """Integrate density * x^n over [-1, 1] and compare with mu_n.

    The interval is split at 0 for the |x| kink; the tanh-sinh rule
    absorbs the algebraic endpoint singularity for beta < 1.  The point
    mass at 0 contributes only to n = 0.  Pass iff
    |result - mu_n| <= tol * max(1, |mu_n|).
    """
    with working_precision(precision + 10):
        density = _density(params)
        mu_n = moments(n, params).mu(n)

        def integrand(t):
            # Evaluated at whatever elevated precision the quadrature rule
            # runs at; a node rounded onto an endpoint carries negligible
            # weight and contributes zero.
            if 1 - t * t <= 0:
                return mpf(0)
            return density(t) * t ** n

        total = mp.quad(integrand, [-1, 0, 1])
        if n == 0:
            total += to_mpf(point_mass(params))
        target = to_mpf(mu_n)
        residual = abs(total - target)
        bound = to_mpf(tol) * max(mpf(1), abs(target))
        status = "pass" if residual <= bound else "fail"
        return VerificationReport([CheckResult(
            check="quadrature-moment", params=params.as_dict(), n=n,
            status=status, lhs=format_float(total, precision),
            rhs=format_rational(mu_n),
            residual=format_float(residual, 10))])


# ---------------------------------------------------------------------------
# The epsilon scan: q side -> limit coefficients
# ---------------------------------------------------------------------------

def _scan_value(n: int, s: int, params: MinusOneParams, eps_text: str,
                digits: int):
    """A_n^(s)(eps)/eps^3 from the q-side reconstruction at
    q = -e^eps, b = -e^(beta eps), j = 2, in mpf at ``digits``."""
    with working_precision(digits):
        if s > n:  # structural zero: the operator maps polys to polys
            return mpf(0)
        eps = mpf(eps_text)
        if (q := -mp.exp(eps)) == -1:
            raise DegenerateParameters(
                f"eps {eps_text}: -e^eps rounds to -1 at {digits} digits")
        qp = QJacobiParams(q=q, b=-mp.exp(to_mpf(params.beta) * eps),
                           j=LIMIT_J, M=to_mpf(params.M))
        table = rep_coeff_reconstruct(qp, n)
        return table.value(n, s) / eps ** 3


def _scan_value_stable(n: int, s: int, params: MinusOneParams, eps_text: str,
                       precision: int):
    """Evaluate the scan value with an adaptive cancellation budget.

    The eps^3 division and the q-Pochhammer cancellations near q = -1
    eat digits, so the value is recomputed at increasing precision until
    two consecutive evaluations agree to ``precision - 10`` digits.
    Returns (value, used_digits, precision_warning).
    """
    digits = precision + 20
    prev = _scan_value(n, s, params, eps_text, digits)
    for _ in range(6):
        digits += 30
        cur = _scan_value(n, s, params, eps_text, digits)
        with working_precision(digits):
            gap = abs(cur - prev)
            scale = max(mpf(1), abs(cur))
            if gap <= scale * mpf(10) ** (-(precision - 10)):
                return cur, digits, False
        prev = cur
    return prev, digits, True


def epsilon_scan(n: int, s: int, params: MinusOneParams, eps_list,
                 precision: int = DEFAULT_PRECISION,
                 tol=Fraction(1, 100)) -> VerificationReport:
    """Scan A_n^(s)(eps)/eps^3 along decreasing eps and compare with the
    limit coefficient.

    Each eps gets one report entry carrying the scanned value, the limit
    and the deviation; a trailing "convergence" entry passes iff the
    deviations are monotonically non-increasing and the final one is
    within tol * |limit| (or tol absolutely when the limit vanishes).
    Its residual field also carries the empirical convergence orders
    log(dev_i/dev_(i+1)) / log(eps_i/eps_(i+1)) for consecutive eps.
    Deviations below the requested precision floor count as zero, and a
    precision-loss warning is recorded if the cancellation budget could
    not be met.
    """
    eps_values = [str(e) for e in eps_list]
    if not eps_values:
        raise ValueError("need at least one eps")
    limit = limit_rep_coeff(n, s, params)
    report = VerificationReport()
    deviations = []
    any_warning = False
    point = dict(params.as_dict(), s=str(s))
    for eps_text in eps_values:
        value, digits, warned = _scan_value_stable(n, s, params, eps_text,
                                                   precision)
        any_warning = any_warning or warned
        with working_precision(digits):
            dev = abs(value - to_mpf(limit))
            if dev < mpf(10) ** (-(precision - 10)):
                dev = mpf(0)
        deviations.append(dev)
        report.add(CheckResult(
            check="limit-scan", params=dict(point, eps=eps_text), n=n,
            status="pass" if not warned else "fail",
            lhs=format_float(value, precision),
            rhs=format_rational(limit),
            residual=format_float(dev, 10)))
    monotone = all(deviations[i + 1] <= deviations[i]
                   for i in range(len(deviations) - 1))
    with working_precision(precision):
        bound = to_mpf(tol) * (abs(to_mpf(limit)) if limit != 0 else 1)
        converged = deviations[-1] <= bound
        orders = []
        for i in range(len(deviations) - 1):
            lo, hi = deviations[i + 1], deviations[i]
            if lo > 0 and hi > 0:
                step = mp.log(mpf(eps_values[i]) / mpf(eps_values[i + 1]))
                orders.append(format_float(mp.log(hi / lo) / step, 4))
            else:
                orders.append("exact")
    status = "pass" if (monotone and converged and not any_warning) else "fail"
    detail = "monotone" if monotone else "non-monotone"
    if orders:
        detail += "; orders=[" + ", ".join(orders) + "]"
    report.add(CheckResult(
        check="limit-scan-convergence", params=point, n=n, status=status,
        lhs=format_float(deviations[-1], 10),
        rhs=format_float(bound, 10),
        residual=detail))
    return report

"""Little q-Jacobi polynomials, their Geronimus transform at the origin,
and the q-difference operator given through its monomial-action table.

The operator that has the transformed family as eigenfunctions is never
built from its coefficient functions; it is represented entirely by the
coefficients A_n^(s) in  L x^n = sum_s A_n^(s) x^(n-s).  Two independent
routes to that table are provided: the closed forms (``rep_coeff_paper``)
and a triangular inversion of the eigenvalue equations against the
transformed family (``rep_coeff_reconstruct``).  Their agreement is the
module's central cross-check.

All functions are generic over the scalar type: exact Fractions or mpf
(the latter is what the q -> -1 scans use).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateParameters, GeronimusDegenerate, IncompleteTable
from .exact_core import LaurentPoly, format_rational, qpoch, qpochs


@dataclass(frozen=True)
class QJacobiParams:
    """Parameters (q, b, j, M) with a = q^j hard-wired.

    The classical positivity window 0 < aq < 1, b < 1/q is not enforced:
    the q -> -1 track deliberately leaves it.

    Values the closed forms share across degrees are memoized per point,
    each by the operations a fresh computation would use; an mpf is rounded
    at the precision of its first use, so use a point at one precision.
    """

    q: object
    b: object
    j: int
    M: object

    def __post_init__(self):
        if self.j < 1 or int(self.j) != self.j:
            raise DegenerateParameters("j must be a positive integer")
        if self.q == 0 or self.q == 1 or self.q == -1:
            raise DegenerateParameters("q must avoid {0, 1, -1}")
        if self.b == 0:
            raise DegenerateParameters("b must be nonzero")

    @cached_property
    def a(self):
        return self.q ** self.j

    @cached_property
    def _memo(self) -> dict:
        return {"powers": [1], "q": [1], "qj1": [1]}

    def pow(self, base: str, e: int):
        """q^e, b^e or a^e (``base`` "q", "b" or "a"), once per exponent."""
        if (base, e) not in self._memo:
            self._memo[base, e] = getattr(self, base) ** e
        return self._memo[base, e]

    def qpochs(self, x, n: int, name: str = "") -> list:
        """[(x;q)_0, ..., (x;q)_n] over the kept powers q^0, q^1, ..., each
        the one before times q.  A ``name`` ("q" for x = q, "qj1" for x =
        q^(j+1)) keeps the list as x's run, extended as n grows."""
        powers = self._memo["powers"]
        while len(powers) < n:
            powers.append(powers[-1] * self.q)
        return qpochs(x, powers[:n], self._memo.get(name))[:n + 1]

    @cached_property
    def degree_free(self) -> tuple:
        """Factors of the closed forms that no degree changes: 1-q^j,
        1-bq^(j+1), 1-q^(-j-1), a^-1 b^-1 and [(bq;q)_0 .. (bq;q)_(j+1)]."""
        pow, j = self.pow, self.j
        return (1 - pow("q", j), 1 - self.b * pow("q", j + 1),
                1 - pow("q", -j - 1), pow("a", -1) * pow("b", -1),
                self.qpochs(self.b * self.q, j + 1))

    def as_dict(self) -> dict:
        out = {}
        for key in ("q", "b", "M"):
            val = getattr(self, key)
            out[key] = format_rational(val) if isinstance(val, (Fraction, int)) \
                else str(val)
        out["j"] = str(self.j)
        return out


def _nonzero(value, name):
    if value == 0:
        raise DegenerateParameters(f"factor {name} vanishes")
    return value


def lqj_coeff(n: int, s: int, params: QJacobiParams):
    """Expansion coefficient B_n^(s) of the monic little q-Jacobi polynomial.

    B_n^(s) = b^(-s) (q^-n; q)_s (a^-1 q^-n; q)_s
              / [ (q; q)_s (a^-1 b^-1 q^-2n; q)_s ].
    """
    if not 0 <= s <= n:
        raise ValueError("need 0 <= s <= n")
    q, b, a = params.q, params.b, params.a
    num = qpoch(q ** (-n), q, s) * qpoch(a ** -1 * q ** (-n), q, s)
    den = _nonzero(qpoch(q, q, s), f"(q;q)_{s}") * _nonzero(
        qpoch(a ** -1 * b ** -1 * q ** (-2 * n), q, s),
        f"(1/(ab) q^-{2 * n};q)_{s}")
    return b ** (-s) * num / den


def lqj_poly(n: int, params: QJacobiParams) -> LaurentPoly:
    """Monic little q-Jacobi polynomial sum_s B_n^(s) x^(n-s), each of the
    four q-Pochhammer products of ``lqj_coeff`` run once up to s = n."""
    pow, qp, q_n = params.pow, params.qpochs, params.pow("q", -n)
    num_q, num_a, den_q, den_ab = qp(q_n, n), qp(pow("a", -1) * q_n, n), \
        qp(params.q, n, "q"), qp(params.degree_free[3] * pow("q", -2 * n), n)
    coeffs = {}
    for s in range(n + 1):
        num = num_q[s] * num_a[s]
        den = _nonzero(den_q[s], f"(q;q)_{s}") * \
            _nonzero(den_ab[s], f"(1/(ab) q^-{2 * n};q)_{s}")
        coeffs[n - s] = pow("b", -s) * num / den
    return LaurentPoly(coeffs)


def lqj_recurrence(n: int, params: QJacobiParams):
    """Monic three-term recurrence data (u_n, b_n) for P_(n+1) + b_n P_n
    + u_n P_(n-1) = x P_n, via u_n = A_(n-1) C_n and b_n = A_n + C_n."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    bn = _lqj_A(n, params) + _lqj_C(n, params)
    if n == 0:
        return 0 * bn, bn  # C_0 = 0, so u_0 = 0 in the scalar's own type
    un = _lqj_A(n - 1, params) * _lqj_C(n, params)
    return un, bn


def _lqj_A(n, params):
    q, b, a = params.q, params.b, params.a
    den = _nonzero(1 - a * b * q ** (2 * n + 1), f"(1-abq^{2 * n + 1})") * \
        _nonzero(1 - a * b * q ** (2 * n + 2), f"(1-abq^{2 * n + 2})")
    return q ** n * (1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1)) / den


def _lqj_C(n, params):
    q, b, a = params.q, params.b, params.a
    den = _nonzero(1 - a * b * q ** (2 * n + 1), f"(1-abq^{2 * n + 1})") * \
        _nonzero(1 - a * b * q ** (2 * n), f"(1-abq^{2 * n})")
    return a * q ** n * (1 - q ** n) * (1 - b * q ** n) / den


def qn_zero(n: int, params: QJacobiParams):
    """Second-kind function value Q_n(0; a, b) at a = q^j, closed form."""
    q, b, j = params.q, params.b, params.j
    a = params.a
    _nonzero(1 - a, "(1-a)")
    den = _nonzero(qpoch(a * b * q, q, n), f"(abq;q)_{n}") * _nonzero(
        qpoch(a * b * q ** (n + 1), q, n), f"(abq^{n + 1};q)_{n}")
    sign = 1 if (n + 1) % 2 == 0 else -1
    return (sign * a ** n * q ** (n * (n - 1) // 2)
            * (1 - a * b * q) / (1 - a)
            * qpoch(q, q, n) * qpoch(b * q, q, n) / den)


def phi(n: int, params: QJacobiParams):
    """Geronimus coefficient Phi_n = Q_n(0) + M P_n(0), closed form at a = q^j:

    Phi_n = (-1)^n q^(n(n-1)/2) (q^(j+1);q)_n / (bq^(n+j+1);q)_n
            * ( M - q^(nj) (1-bq^(j+1)) (bq;q)_j (q;q)_j
                  / [ (1-q^j) (q^(n+1);q)_j (bq^(n+1);q)_j ] ).
    """
    q, b, j, M = params.q, params.b, params.j, params.M
    pow, qp = params.pow, params.qpochs
    one_qj, one_bqj1, _, _, bqq = params.degree_free
    _nonzero(one_qj, "(1-q^j)")
    den_j = _nonzero(qp(pow("q", n + 1), j)[j], f"(q^{n + 1};q)_{j}") * \
        _nonzero(qp(b * pow("q", n + 1), j)[j], f"(bq^{n + 1};q)_{j}")
    pref_den = _nonzero(qp(b * pow("q", n + j + 1), n)[n],
                        f"(bq^{n + j + 1};q)_{n}")
    sign = 1 if n % 2 == 0 else -1
    prefactor = sign * pow("q", n * (n - 1) // 2) * \
        qp(pow("q", j + 1), n, "qj1")[n] / pref_den
    inner = M - pow("q", n * j) * one_bqj1 * bqq[j] * qp(q, j, "q")[j] / \
        (one_qj * den_j)
    return prefactor * inner


def geronimus_family(max_n: int, params: QJacobiParams):
    """(Phi_0 .. Phi_max_n, or [] at max_n = 0, and the transformed
    polynomials P~_0 .. P~_max_n), P~_n = P_n - (Phi_n/Phi_(n-1)) P_(n-1)."""
    polys = [LaurentPoly.one()]
    if max_n == 0:
        return [], polys
    phis = [phi(n, params) for n in range(max_n + 1)]
    prev = lqj_poly(0, params)
    for n in range(1, max_n + 1):
        if phis[n - 1] == 0:
            raise GeronimusDegenerate(n, f"Phi_{n - 1} = 0")
        cur = lqj_poly(n, params)
        polys.append(cur - prev * (phis[n] / phis[n - 1]))
        prev = cur
    return phis, polys


def _ratio_B(n: int, params: QJacobiParams):
    """B_n = Phi_n / Phi_(n-1); degenerate when Phi_(n-1) vanishes."""
    lo = phi(n - 1, params)
    if lo == 0:
        raise GeronimusDegenerate(n, f"Phi_{n - 1} = 0")
    return phi(n, params) / lo


def transformed_recurrence(n: int, params: QJacobiParams):
    """Recurrence data (u~_n, b~_n) of the transformed family:

    u~_1 = Phi_1/Phi_0^2,  u~_n = u_(n-1) B_n/B_(n-1)  (n >= 2),
    b~_0 = b_0 + Phi_1/Phi_0,  b~_n = b_n + B_(n+1) - B_n  (n >= 1).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n == 0:
        b0 = lqj_recurrence(0, params)[1]
        return 0 * b0, b0 + _ratio_B(1, params)
    bn = lqj_recurrence(n, params)[1] + _ratio_B(n + 1, params) - \
        (b_n := _ratio_B(n, params))
    if n == 1:
        phi0 = phi(0, params)
        if phi0 == 0:
            raise GeronimusDegenerate(1, "Phi_0 = 0")
        return phi(1, params) / phi0 ** 2, bn
    b_prev = _ratio_B(n - 1, params)
    if b_prev == 0:
        raise GeronimusDegenerate(n, f"Phi_{n - 1} = 0")
    return lqj_recurrence(n - 1, params)[0] * b_n / b_prev, bn


def transformed_chain(phis: list, recs: list) -> list:
    """transformed_recurrence(n) for n < len(recs), from Phi_0 .. Phi_len(recs)
    (all but the last nonzero) and recs[n] = lqj_recurrence(n), with each
    B_n = Phi_n/Phi_(n-1) taken once."""
    ratios = [None] + [phis[k] / phis[k - 1] for k in range(1, len(phis))]
    chain = [(0 * recs[0][1], recs[0][1] + ratios[1])] if recs else []
    for n in range(1, len(recs)):
        un = phis[1] / phis[0] ** 2 if n == 1 else \
            recs[n - 1][0] * ratios[n] / ratios[n - 1]
        chain.append((un, recs[n][1] + ratios[n + 1] - ratios[n]))
    return chain


# ---------------------------------------------------------------------------
# Representation coefficients
# ---------------------------------------------------------------------------

class _Absent:
    """Marker for table entries the closed forms do not cover."""

    def __repr__(self):
        return "ABSENT"


ABSENT = _Absent()


@dataclass
class RepCoeffTable:
    """Monomial-action coefficients A_n^(s) for 0 <= s, n <= max_n.

    ``entries[(n, s)]`` is a scalar or ABSENT.  A_n^(0) is the eigenvalue
    of the transformed polynomial of degree n.  A reconstructed table keeps
    the ``geronimus_family`` (Phi list, polynomials) it was solved against.
    """

    max_n: int
    entries: dict
    phis: list = ()
    family: list = ()

    def value(self, n: int, s: int):
        if not (0 <= n <= self.max_n and 0 <= s <= self.max_n):
            raise KeyError(f"(n={n}, s={s}) outside table bounds")
        return self.entries[(n, s)]

    def absent_pairs(self) -> list:
        return sorted(k for k, v in self.entries.items() if v is ABSENT)


def lambda_q(n: int, params: QJacobiParams):
    """Eigenvalue lambda_n = A_n^(0) of the q-difference operator."""
    q, b, j, M = params.q, params.b, params.j, params.M
    pow, qp = params.pow, params.qpochs
    *_, one_qinv, _, bqq = params.degree_free
    t1 = M * (q - 1) * pow("q", -n * (j + 1) - 1) * \
        qp(pow("q", n), j + 1)[-1] * qp(b * pow("q", n), j + 1)[-1] / \
        _nonzero(one_qinv, "(1-q^(-j-1))")
    t2 = (pow("q", -n) - 1) * (1 - b * pow("q", n + j)) * bqq[j + 1] * \
        qp(q, j - 1, "q")[-1]
    return t1 - t2


def _paper_a1(n, params):
    q, b, j, M = params.q, params.b, params.j, params.M
    qq, bqq = params.qpochs(q, j - 1, "q"), params.degree_free[4]
    return (1 - q ** (-n)) * (
        M * q ** (j * (1 - n)) * qpoch(q ** (n + 1), q, j)
        * qpoch(b * q ** n, q, j) * (1 - q ** (n - 1))
        - qq[j - 1] * bqq[j + 1] * (1 - q ** (n + j - 1)))


def _paper_a2(n, params):
    q, b, j, M = params.q, params.b, params.j, params.M
    return M * (q - 1) * q ** ((2 - n) * (j + 1) - 1) * (1 - q ** (-j)) * \
        qpoch(q ** (n - 2), q, j + 3) * qpoch(b * q ** n, q, j - 1) / \
        _nonzero(qpoch(q, q, 2), "(q;q)_2")


def rep_coeff_paper(params: QJacobiParams, max_n: int) -> RepCoeffTable:
    """Representation table from the closed forms.

    Rows cover s = 0 (eigenvalue), s = 1, s = 2, plus the structural zeros
    for s >= j+2 and for s > n (the operator maps polynomials to
    polynomials).  For j >= 2 the values at 2 < s < j+2 have no closed
    form here and are marked ABSENT; ``rep_coeff_reconstruct`` is the
    authoritative source for those.
    """
    j = params.j
    entries = {}
    for n in range(max_n + 1):
        for s in range(max_n + 1):
            if s > n or s >= j + 2:
                entries[(n, s)] = Fraction(0)
            elif s == 0:
                entries[(n, s)] = lambda_q(n, params)
            elif s == 1:
                entries[(n, s)] = _paper_a1(n, params)
            elif s == 2:
                entries[(n, s)] = _paper_a2(n, params)
            else:
                entries[(n, s)] = ABSENT
    return RepCoeffTable(max_n, entries)


def rep_coeff_reconstruct(params: QJacobiParams, max_n: int) -> RepCoeffTable:
    """Recover every A_n^(s) from the eigenvalue equations.

    Writing P~_n = sum_t B~_n^(t) x^(n-t) and matching coefficients in
    L P~_n = lambda_n P~_n gives the triangular system

        A_n^(r) = lambda_n B~_n^(r) - sum_(s=1..r) B~_n^(s) A_(n-s)^(r-s),

    solved row by row.  Entries with s > n are structural zeros.  Only
    lambda_n is taken from the closed forms, so agreement of this table
    with ``rep_coeff_paper`` on s = 1, 2 is a genuine cross-validation.
    """
    phis, family = geronimus_family(max_n, params)
    lambdas = [lambda_q(n, params) for n in range(max_n + 1)]
    entries = {}
    for n in range(max_n + 1):
        bt = {n - d: c for d, c in family[n].coeffs.items()}
        for r in range(n + 1):
            acc = lambdas[n] * bt.get(r, 0)
            for s in range(1, r + 1):
                bs = bt.get(s)
                if bs is not None:
                    acc = acc - bs * entries[(n - s, r - s)]
            entries[(n, r)] = acc
        for s in range(n + 1, max_n + 1):
            entries[(n, s)] = Fraction(0)
    return RepCoeffTable(max_n, entries, phis, family)


def apply_Lq(p: LaurentPoly, table: RepCoeffTable) -> LaurentPoly:
    """Linear extension of L x^n = sum_s A_n^(s) x^(n-s) to a polynomial."""
    if not p.is_proper:
        raise ValueError("operator acts on proper polynomials only")
    if p and p.degree > table.max_n:
        raise IncompleteTable([(p.degree, 0)])
    missing = sorted((m, s) for m in p.coeffs for s in range(m + 1)
                     if table.value(m, s) is ABSENT)
    if missing:
        raise IncompleteTable(missing)
    return LaurentPoly.from_terms(
        (m - s, c * v) for m, c in p.coeffs.items() for s in range(m + 1)
        if (v := table.value(m, s)) != 0)

"""Exact scalars and sparse Laurent polynomials.

Everything downstream works over one of two scalar types: exact
rationals (``fractions.Fraction``) for the identity checks, and mpmath
floats for the q -> -1 scans, quadrature and matrix numerics.  The
arithmetic here is generic over both; only the rationals get the
canonical-zero dropping that makes polynomial equality structural.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .errors import DegreeUnderflow

DEFAULT_PRECISION = 60

# Deepest pole the reflection-operator workspace ever needs is x**-3;
# anything below is a bug, so it is an error rather than a truncation.
MIN_DEGREE = -3


def parse_rational(text: str) -> Fraction:
    """Parse a canonical "p/q" (or bare "p") string into a Fraction."""
    return Fraction(text.strip())


def format_rational(x) -> str:
    """Canonical string form: sign on the numerator, "/q" omitted for q=1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def working_precision(digits: int):
    """Context manager setting the mpmath working precision in digits."""
    return mp.workdps(digits)


def to_mpf(x) -> mpf:
    """Convert a Fraction/int/str to an mpf at the current precision.

    mpf inputs pass through unchanged (no re-rounding).
    """
    if isinstance(x, mpf):
        return x
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def format_float(x, digits: int | None = None) -> str:
    """Deterministic decimal string for an mpf at the given precision.

    Formatting reads the value's own mantissa, so it is independent of
    the ambient working precision.
    """
    return mp.nstr(to_mpf(x), digits if digits is not None else mp.dps)


def poch(x, n: int):
    """Ordinary Pochhammer symbol x(x+1)...(x+n-1); 1 for n=0."""
    if n < 0:
        raise ValueError("Pochhammer order must be nonnegative")
    result = 1
    for k in range(n):
        result *= x + k
    return result


def qpochs(a, powers, run=None) -> list:
    """Running q-shifted factorials [(a;q)_0, ..., (a;q)_n] over ``powers``
    = [q^0, ..., q^(n-1)]; a given ``run`` [(a;q)_0, ...] grows in place."""
    run = [1] if run is None else run
    for power in powers[len(run) - 1:]:
        run.append(run[-1] * (1 - a * power))
    return run


def qpoch(a, q, n: int):
    """q-shifted factorial (a;q)_n = (1-a)(1-aq)...(1-aq^(n-1)); 1 for n=0."""
    if n < 0:
        raise ValueError("q-Pochhammer order must be nonnegative")
    result = power = 1
    for _ in range(n):
        result *= 1 - a * power
        power *= q
    return result


class LaurentPoly:
    """Sparse univariate Laurent polynomial with degrees down to -3.

    Coefficients may be Fractions (exact mode) or mpf (float mode).
    Exact zeros are never stored, so two exact polynomials are equal
    iff their coefficient maps are identical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for d, c in coeffs.items():
                if c == 0:
                    continue
                clean[int(d)] = c
        if clean and min(clean) < MIN_DEGREE:
            bad = min(clean)
            raise DegreeUnderflow(
                f"degree {bad} below the Laurent floor {MIN_DEGREE}")
        self.coeffs = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: Fraction(1)})

    @classmethod
    def x(cls):
        return cls({1: Fraction(1)})

    @classmethod
    def monomial(cls, degree: int):
        return cls({degree: Fraction(1)})

    @classmethod
    def from_terms(cls, terms):
        """Sum of the monomials c*x^d over (d, c) pairs, accumulated in
        one dictionary instead of one polynomial per term."""
        out = {}
        for d, c in terms:
            out[d] = out.get(d, 0) + c
        return cls(out)

    # -- structure ---------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    @property
    def degree(self) -> int:
        """Largest stored degree; -1 convention for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    @property
    def is_proper(self) -> bool:
        """True when all degrees are nonnegative (ordinary polynomial)."""
        return not self.coeffs or min(self.coeffs) >= 0

    def coeff(self, degree: int):
        return self.coeffs.get(degree, Fraction(0))

    @property
    def leading_coeff(self):
        return self.coeffs[self.degree] if self.coeffs else Fraction(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) - c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({d: -c for d, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out = {}
            for da, ca in self.coeffs.items():
                for db, cb in other.coeffs.items():
                    d = da + db
                    out[d] = out.get(d, 0) + ca * cb
            # Cross terms below the floor may cancel; only a surviving
            # coefficient is an underflow.
            return LaurentPoly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar):
        return LaurentPoly({d: c * scalar for d, c in self.coeffs.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not supported")
        result = LaurentPoly.one()
        for _ in range(n):
            result = result * self
        return result

    # -- calculus and reflection ---------------------------------------

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d*x^(d-1) termwise; exact."""
        if MIN_DEGREE in self.coeffs:
            raise DegreeUnderflow(
                f"derivative of degree {MIN_DEGREE} needs {MIN_DEGREE - 1}")
        return LaurentPoly({d - 1: d * c for d, c in self.coeffs.items()
                            if d != 0})

    def reflect(self) -> "LaurentPoly":
        """Reflection x -> -x: coefficient at degree d picks up (-1)^d."""
        return LaurentPoly({d: (c if d % 2 == 0 else -c)
                            for d, c in self.coeffs.items()})

    def __call__(self, x):
        """Evaluate at a scalar (x != 0 required if negative degrees exist)."""
        total = 0
        for d, c in self.coeffs.items():
            total += c * x ** d
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            c = self.coeffs[d]
            if isinstance(c, Fraction):
                cs = format_rational(c)
            else:
                cs = str(c)
            if d == 0:
                parts.append(cs)
            elif d == 1:
                parts.append(f"{cs}*x")
            else:
                parts.append(f"{cs}*x^{d}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__

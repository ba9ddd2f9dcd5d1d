"""Verification report records and their JSON serialization."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .exact_core import LaurentPoly, format_rational


@dataclass
class CheckResult:
    """One verified identity: what was checked, at which point, both sides."""

    check: str
    params: dict
    n: int | None
    status: str  # "pass" | "fail"
    lhs: str | None = None
    rhs: str | None = None
    residual: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        return asdict(self)


def exact_check(check: str, params: dict, n: int, lhs, rhs) -> CheckResult:
    """Record of the exact identity lhs == rhs over polynomials or rationals.

    Both sides print through ``str`` (polynomials) or ``format_rational``;
    the residual is "0" on a pass and lhs - rhs on a fail.
    """
    fmt = str if isinstance(lhs, LaurentPoly) else format_rational
    ok = lhs == rhs
    return CheckResult(check=check, params=params, n=n,
                       status="pass" if ok else "fail",
                       lhs=fmt(lhs), rhs=fmt(rhs),
                       residual="0" if ok else fmt(lhs - rhs))


@dataclass
class VerificationReport:
    """Ordered collection of check results with an aggregate verdict."""

    results: list = field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        self.results.extend(other.results)
        return self

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    def to_json_obj(self) -> dict:
        return {
            "status": "pass" if self.ok else "fail",
            "checks": [r.to_json_obj() for r in self.results],
        }

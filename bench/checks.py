"""Correctness gate for one CLI invocation of the benchmark.

An invocation counts as failed unless

* its exit code and top-level status are the ones its plan expects;
* its report holds exactly the expected multiset of (check, n[, s, eps])
  records for that command, n-max and eps list, each at the invoked
  point, so a change cannot get faster by dropping checks;
* every record passes, except the ones the plan names as failing, which
  must fail;
* for ``gram``, every off-diagonal entry is "0", the diagonal and every
  Hankel determinant are positive, and ``positive_definite`` is true;
* for the default seed, the report bytes hash to the digest recorded in
  ``golden.json`` (identical configurations give byte-identical reports).

The gate parses reports itself and imports nothing from the program.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from fractions import Fraction

from workloads import DEFAULT_EPS, Invocation


def expected_records(inv: Invocation) -> Counter:
    """Multiset of (check, n, s, eps) keys the report must hold."""
    n_max = inv.n_max
    upto = range(n_max + 1)
    keys = []
    if inv.command == "verify-m1":
        for check in ("dual-operator", "eigen-m1", "orthogonality",
                      "norm-identity"):
            keys += [(check, n) for n in upto]
        keys.append(("btilde0-closed-form", 0))
        keys += [("explicit-solution", n) for n in (2, 3) if n <= n_max]
        keys += [("explicit-eigenvalue", n) for n in (1, 2, 3) if n <= n_max]
    elif inv.command == "verify-q":
        keys += [("representation-agreement", n) for n in upto]
        keys += [("eigen-q", n) for n in upto]
        keys += [("transformed-recurrence", n) for n in range(1, n_max)]
        keys.append(("second-kind-seed", 1))
        keys += [("second-kind-recurrence", n) for n in range(1, n_max)]
    elif inv.command == "limit-scan":
        for n in upto:
            for s in range(4):
                keys += [("limit-scan", n, str(s), eps)
                         for eps in DEFAULT_EPS]
                keys.append(("limit-scan-convergence", n, str(s)))
    elif inv.command == "matrix-verify":
        for check in ("five-term", "matrix-structure", "matrix-recurrence"):
            keys += [(check, n) for n in upto]
    else:
        raise ValueError(f"no record layout for {inv.command!r}")
    return Counter(_pad(k) for k in keys)


def _pad(key: tuple) -> tuple:
    return key + (None,) * (4 - len(key))


def report_digest(report: bytes) -> str:
    """First 64 bits of the SHA-256 of a report, as hex."""
    return hashlib.sha256(report).hexdigest()[:16]


def check(inv: Invocation, exit_code, report: bytes,
          golden: str | None = None) -> tuple:
    """Gate one invocation; returns (reason or None, outputs counted).

    Outputs counted are check records, or Gram plus Hankel cells for
    ``gram``; they feed the checks_per_s metric.
    """
    if exit_code != inv.expect_exit:
        return f"exit code {exit_code}, expected {inv.expect_exit}", 0
    try:
        obj = json.loads(report)
    except ValueError:
        return "report is not JSON", 0
    check_report = _check_gram if inv.command == "gram" else _check_records
    reason, count = check_report(inv, obj)
    if reason is None and golden is not None \
            and report_digest(report) != golden:
        return "report bytes differ from the golden digest", 0
    return reason, count


def _check_records(inv: Invocation, obj: dict) -> tuple:
    status = "fail" if inv.failing else "pass"
    if obj.get("status") != status:
        return f"status {obj.get('status')!r}, expected {status!r}", 0
    checks = obj.get("checks", [])
    failing = {_pad(k) for k in inv.failing}
    seen = Counter()
    for rec in checks:
        params = dict(rec["params"])
        key = _pad((rec["check"], rec["n"], params.pop("s", None),
                    params.pop("eps", None)))
        seen[key] += 1
        if params != inv.record_params:
            return f"{key} carries params {params}", 0
        want = "fail" if key in failing else "pass"
        if rec["status"] != want:
            return f"{key} is {rec['status']!r}, expected {want!r}", 0
    if seen != expected_records(inv):
        missing = expected_records(inv) - seen
        extra = seen - expected_records(inv)
        return f"record set differs: missing {dict(missing)}, " \
               f"extra {dict(extra)}", 0
    return None, len(checks)


def _check_gram(inv: Invocation, obj: dict) -> tuple:
    size = inv.n_max + 1
    gram, hankel = obj.get("gram", []), obj.get("hankel", [])
    if obj.get("params") != inv.record_params:
        return f"params {obj.get('params')}", 0
    if len(gram) != size or any(len(row) != size for row in gram):
        return "Gram matrix has the wrong shape", 0
    if len(hankel) != size:
        return "wrong number of Hankel determinants", 0
    for i, row in enumerate(gram):
        for j, cell in enumerate(row):
            if i != j and cell != "0":
                return f"Gram entry ({i},{j}) = {cell}", 0
            if i == j and Fraction(cell) <= 0:
                return f"Gram diagonal ({i},{i}) = {cell}", 0
    if any(Fraction(h) <= 0 for h in hankel):
        return "a Hankel determinant is not positive", 0
    if obj.get("positive_definite") is not True:
        return "positive_definite is not true", 0
    return None, size * size + size


# A rational token: an integer or p/q not adjacent to a letter, digit or
# point, so the mantissa and exponent of a float ("1.5e-7") do not count.
_RATIONAL = re.compile(r"(?<![\w.])-?(\d+)(?:/(\d+))?(?![\w.])")


def max_rational_bits(report: bytes) -> int:
    """Bit length of the largest numerator or denominator in a report."""
    best = 0
    for match in _RATIONAL.finditer(report.decode()):
        for part in match.groups():
            if part:
                best = max(best, int(part).bit_length())
    return best

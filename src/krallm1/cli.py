"""Command-line front end: generation, verification sweeps, data export.

Exit status contract: 0 when every check passes, 1 when a check fails,
2 on degenerate-parameter errors (including Geronimus degeneracy), on a
ConfigError (a parameter flag the command would not read) and on usage
errors (a malformed or out-of-range value, an unwritable --out).
Identical configurations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import (DegenerateParameters, GeronimusDegenerate,
                     InsufficientMoments, IntegrabilityError, KrallM1Error,
                     NotPositiveDefinite)
from .exact_core import (DEFAULT_PRECISION, LaurentPoly, format_rational,
                         parse_rational)
from . import matrix_op, minus_one, qjacobi
from .minus_one import MinusOneParams
from .qjacobi import QJacobiParams
from .report import CheckResult, VerificationReport, exact_check

# Errors that mean the parameters admit no answer (exit 2), as opposed
# to a failed check (exit 1).
DEGENERATE = (GeronimusDegenerate, DegenerateParameters, NotPositiveDefinite,
              IntegrabilityError, InsufficientMoments)

# Parameter flags of the limit family (m1) and of the q side (q); --j is
# optional and defaults to 2.
FAMILY_FLAGS = {"m1": ("beta", "M"), "q": ("q", "b", "j", "M")}
PARAM_HELP = {"beta": "limit parameter beta (p/q)",
              "q": "base q (p/q, not 0/1/-1)",
              "b": "parameter b (p/q, nonzero)",
              "M": "mass parameter M (p/q)"}
# A finite decimal, the form every eps entry must take.
DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_tolerance(text: str) -> Fraction:
    """Exact tolerance from a finite, nonnegative decimal string such as
    "1e-40"."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(
            f"expects a decimal number, got {text!r}") from None
    if not value.is_finite() or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text!r}")
    return Fraction(value)


def parse_eps_list(text: str) -> list:
    """Comma-separated eps values, kept as written.

    Empty entries are skipped.  The list must be nonempty, every entry a
    nonzero finite decimal (eps = 0 is q = -1 itself), and consecutive
    entries distinct and of one sign, so that each convergence order
    log(dev_i/dev_(i+1))/log(eps_i/eps_(i+1)) is defined.
    """
    values = [e.strip() for e in text.split(",") if e.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one eps value")
    for e in values:
        if not DECIMAL.fullmatch(e) or Decimal(e) == 0:
            raise argparse.ArgumentTypeError(
                f"{e!r} is not a nonzero finite decimal")
    for a, b in zip(values, values[1:]):
        lo, hi = sorted((Decimal(a), Decimal(b)))
        if lo == hi or lo < 0 < hi:
            raise argparse.ArgumentTypeError(
                f"consecutive entries {a} and {b} must differ and share "
                "a sign")
    return values


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"expects an integer or p/q rational: {exc}") from None


def _int_at_least(low: int):
    def integer(text):  # argparse reports a ValueError as "invalid integer"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krallm1",
        description="Generate and verify the -1 Krall-Jacobi polynomial "
                    "pipeline in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, flags, *, required=None, n_max=8, tol=None):
        """Parameter flags, --n-max, --out and --format.  Only the float
        commands, which name a default ``tol``, take --precision and --tol."""
        for flag in flags:
            if flag == "j":
                p.add_argument("--j", type=int, default=None,
                               help="exponent j in a = q^j (default 2)")
                continue
            p.add_argument(f"--{flag}", type=_rational_arg,
                           required=flag in (flags if required is None
                                             else required),
                           help=PARAM_HELP[flag])
        p.add_argument("--n-max", type=_int_at_least(0), default=n_max,
                       dest="n_max",
                       help=f"largest degree exercised (default {n_max})")
        if tol is not None:
            p.add_argument("--precision", type=_int_at_least(30),
                           default=DEFAULT_PRECISION,
                           help=f"working digits, at least 30 (default "
                                f"{DEFAULT_PRECISION})")
            p.add_argument("--tol", type=parse_tolerance, default=tol,
                           help=f"tolerance as a finite, nonnegative "
                                f"decimal string (default {tol})")
        p.add_argument("--out", type=str, default=None,
                       help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gen", help="emit polynomial coefficient tables")
    p.add_argument("--family", choices=tuple(FAMILY_FLAGS), required=True)
    add_common(p, ("beta", "q", "b", "j", "M"), required=("M",))

    for name, family, text in (
            ("verify-q", "q", "q-side eigen and reconstruction agreement"),
            ("verify-m1", "m1", "limit-family operator, eigen, orthogonality "
                                "and explicit-solution suites"),
            ("moments", "m1", "exact moment table"),
            ("gram", "m1", "exact Gram matrix and Hankel determinants")):
        add_common(sub.add_parser(name, help=text), FAMILY_FLAGS[family])

    p = sub.add_parser("limit-scan",
                       help="epsilon scan of the q side against the limit "
                            "coefficients")
    add_common(p, FAMILY_FLAGS["m1"], tol="1e-2")
    p.add_argument("--eps-list", type=parse_eps_list,
                   default="1e-2,1e-3,1e-4", dest="eps_list",
                   help="comma-separated eps values, consecutive ones "
                        "distinct and of one sign")

    p = sub.add_parser("matrix-verify",
                       help="five-term and matrix three-term recurrence checks")
    add_common(p, FAMILY_FLAGS["m1"], required=(), n_max=4,
               tol="max(10^-(precision-20), 1e-40)")
    # Without --tol the checks bound residuals by
    # matrix_op.default_tolerance(--precision).
    p.set_defaults(tol=None)

    # Bare negative rationals ("-1/4") and negative decimals or eps lists
    # ("-1e-3,-1e-4") must parse as option values, not as option strings.
    negative_value = re.compile(r"^-[0-9.][0-9.eE+\-/,]*$")
    parser._negative_number_matcher = negative_value
    for child in sub.choices.values():
        child._negative_number_matcher = negative_value
    return parser


def config_from_args(args: argparse.Namespace):
    """The parameter point of a parsed command line, and why its flags do
    not fit the command (or None).

    The point is a MinusOneParams, a QJacobiParams, or None when
    matrix-verify picks its own point.  A flag the command would ignore
    is refused, never silently dropped.  A degenerate q point raises
    DegenerateParameters.
    """
    given = [k for k in ("beta", "M", "q", "b", "j")
             if getattr(args, k, None) is not None]
    family = getattr(args, "family",
                     "q" if args.command == "verify-q" else "m1")
    if args.command == "gen":
        takes = FAMILY_FLAGS[family]
        missing = [k for k in takes if k != "j" and k not in given]
        extra = [k for k in given if k not in takes]
        for verb, keys in (("requires", missing), ("does not take", extra)):
            if keys:
                flags = " ".join(f"--{k}" for k in keys)
                return None, f"gen --family {family} {verb} {flags}"
    if args.command == "matrix-verify" and len(given) < 2:
        if not given:
            return None, None
        other = "M" if given == ["beta"] else "beta"
        return None, f"matrix-verify --{given[0]} requires --{other}"
    if family == "m1":
        return MinusOneParams(beta=args.beta, M=args.M), None
    return QJacobiParams(q=args.q, b=args.b,
                         j=2 if args.j is None else args.j, M=args.M), None


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def verify_m1_suite(params: MinusOneParams, n_max: int) -> VerificationReport:
    """Dual-operator, eigen, orthogonality and explicit-solution checks."""
    report = VerificationReport()
    point = params.as_dict()
    for n in range(n_max + 1):
        xn = LaurentPoly.monomial(n)
        report.add(exact_check("dual-operator", point, n,
                               minus_one.apply_L0_monomial(xn, params),
                               minus_one.apply_L0_operator(xn, params)))
    # The links (u~_k, b~_k) for k < n_max, which the family needs, come
    # before the moments, so that a degenerate point is reported at the
    # degree where the recurrence breaks.  The last link enters only the
    # norms (and, at n_max = 0, b~_0).
    chain = [minus_one.transformed_recurrence_m1(k, params)
             for k in range(n_max)]
    family = minus_one.family_from_chain([u for u, _ in chain],
                                         [b for _, b in chain], n_max + 1)
    for n, poly in enumerate(family):
        report.add(exact_check("eigen-m1", point, n,
                               minus_one.apply_L0_operator(poly, params),
                               minus_one.lambda_tilde(n, params) * poly))
    momseq = minus_one.moments(2 * n_max, params)
    chain.append(minus_one.transformed_recurrence_m1(n_max, params))
    gram = minus_one.family_gram(family, momseq)
    running_norm = momseq.mu(0)
    for n, row in enumerate(gram):
        offenders = [m for m in range(n) if row[m] != 0]
        report.add(CheckResult(
            check="orthogonality", params=point, n=n,
            status="pass" if not offenders else "fail",
            lhs="0" if not offenders else "nonzero", rhs="0",
            residual="" if not offenders else f"pairs {offenders}"))
        if n >= 1:
            running_norm *= chain[n][0]
        report.add(exact_check("norm-identity", point, n, row[n],
                               running_norm))
    report.add(exact_check("btilde0-closed-form", point, 0, chain[0][1],
                           minus_one.btilde0_closed(params)))
    for n in range(2, min(n_max, 3) + 1):
        report.add(exact_check("explicit-solution", point, n, family[n],
                               minus_one.explicit_solution(n, params)))
    for n in range(1, min(n_max, 3) + 1):
        report.add(exact_check("explicit-eigenvalue", point, n,
                               minus_one.lambda_tilde(n, params),
                               minus_one.explicit_eigenvalue(n, params)))
    return report


def verify_q_suite(params: QJacobiParams, n_max: int) -> VerificationReport:
    """Reconstruction agreement, eigen identity and recurrence replays."""
    report = VerificationReport()
    point = params.as_dict()
    paper = qjacobi.rep_coeff_paper(params, n_max)
    recon = qjacobi.rep_coeff_reconstruct(params, n_max)
    for n in range(n_max + 1):
        mismatches = []
        for s in range(n + 1):
            expected = paper.value(n, s)
            if expected is qjacobi.ABSENT:
                continue
            got = recon.value(n, s)
            if got != expected:
                mismatches.append((s, format_rational(expected),
                                   format_rational(got)))
        report.add(CheckResult(
            check="representation-agreement", params=point, n=n,
            status="pass" if not mismatches else "fail",
            lhs=str(mismatches) if mismatches else "", rhs="", residual=""))
    family = recon.family
    for n, poly in enumerate(family):
        report.add(exact_check("eigen-q", point, n,
                               qjacobi.apply_Lq(poly, recon),
                               qjacobi.lambda_q(n, params) * poly))
    # The family's Phi list; at n_max = 0 it is empty, but Phi_0 must exist.
    phis = recon.phis or [qjacobi.phi(0, params)]
    recs = [qjacobi.lqj_recurrence(n, params) for n in range(n_max)]
    x = LaurentPoly.x()
    chain = qjacobi.transformed_chain(phis, recs)
    for n, (un, bn) in enumerate(chain[1:], 1):
        report.add(exact_check(
            "transformed-recurrence", point, n,
            family[n + 1] + bn * family[n] + un * family[n - 1],
            x * family[n]))
    # The Geronimus data obeys the same three-term recurrence as the
    # polynomials, seeded by Phi_1 = -b_0 Phi_0 - 1 under the unit weight,
    # which checks the second-kind closed form against the recurrence.
    for n, (un, bn) in enumerate(recs):
        rhs = -bn * phis[n] - (un * phis[n - 1] if n else 1)
        report.add(CheckResult(
            check="second-kind-recurrence" if n else "second-kind-seed",
            params=point, n=n or 1,
            status="pass" if phis[n + 1] == rhs else "fail",
            lhs=format_rational(phis[n + 1]), rhs=format_rational(rhs),
            residual=""))
    return report


def matrix_suite(params: MinusOneParams, n_max: int, tol,
                 precision: int) -> VerificationReport:
    """Five-term and matrix three-term residuals plus structural checks."""
    report = VerificationReport()
    point = params.as_dict()
    for n in range(n_max + 1):
        report.merge(matrix_op.five_term_check(n, params, tol=tol,
                                               precision=precision))
    for n in range(n_max + 1):
        e_n = matrix_op.e_matrix(n, params, precision)
        d_n = matrix_op.d_matrix(n, params, precision)
        structural = e_n[0][1] == e_n[1][0] and d_n[0][1] == 0
        report.add(CheckResult(
            check="matrix-structure", params=point, n=n,
            status="pass" if structural else "fail",
            lhs=None, rhs=None, residual=None))
        report.merge(matrix_op.matrix_recurrence_check(n, params, tol=tol,
                                                       precision=precision))
    return report


def limit_scan_suite(params: MinusOneParams, n_max: int, eps_list,
                     precision: int, tol) -> VerificationReport:
    report = VerificationReport()
    for n in range(n_max + 1):
        for s in range(4):
            report.merge(minus_one.epsilon_scan(
                n, s, params, eps_list, precision=precision, tol=tol))
    return report


# ---------------------------------------------------------------------------
# Table builders: (JSON object, CSV header, CSV rows)
# ---------------------------------------------------------------------------

def _gen_table(point, args):
    generate = (minus_one.gen_poly_family if args.family == "m1"
                else lambda n, p: qjacobi.geronimus_family(n, p)[1])
    rows = [(n, d, format_rational(poly.coeffs[d]))
            for n, poly in enumerate(generate(args.n_max, point))
            for d in sorted(poly.coeffs, reverse=True)]
    return ({"family": args.family, "params": point.as_dict(),
             "rows": [{"n": n, "degree": d, "coefficient": c}
                      for (n, d, c) in rows]},
            ["n", "degree", "coefficient"], rows)


def _moment_table(point, args):
    values = [format_rational(v)
              for v in minus_one.moments(args.n_max, point).values]
    return ({"params": point.as_dict(), "moments": values},
            ["n", "value"], list(enumerate(values)))


def _gram_table(point, args):
    gram = [[format_rational(v) for v in row]
            for row in minus_one.gram_matrix(args.n_max, point)]
    hankel = minus_one.hankel_dets(args.n_max, point)
    hankel_text = [format_rational(v) for v in hankel]
    rows = [["gram", i, j, v] for i, row in enumerate(gram)
            for j, v in enumerate(row)]
    rows += [["hankel", m, "", v] for m, v in enumerate(hankel_text)]
    return ({"params": point.as_dict(), "gram": gram, "hankel": hankel_text,
             "positive_definite": all(v > 0 for v in hankel)},
            ["kind", "i", "j", "value"], rows)


TABLES = {"gen": _gen_table, "moments": _moment_table, "gram": _gram_table}
SUITES = {
    "verify-m1": lambda point, args: verify_m1_suite(point, args.n_max),
    "verify-q": lambda point, args: verify_q_suite(point, args.n_max),
    "limit-scan": lambda point, args: limit_scan_suite(
        point, args.n_max, args.eps_list, args.precision, args.tol),
    "matrix-verify": lambda point, args: matrix_suite(
        point or matrix_op.find_positive_definite_point(2 * args.n_max + 4),
        args.n_max, args.tol, args.precision),
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_csv_rows(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _report_csv(report: VerificationReport) -> str:
    rows = [[r.check,
             ";".join(f"{k}={v}" for k, v in sorted(r.params.items())),
             r.n, r.status, r.lhs or "", r.rhs or "", r.residual or ""]
            for r in report.results]
    return _render_csv_rows(
        ["check", "params", "n", "status", "lhs", "rhs", "residual"], rows)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the exit status."""
    csv_format = args.format == "csv"
    try:
        point, problem = config_from_args(args)
        if problem:
            _emit(_render_json({"status": "error",
                                "error": {"type": "ConfigError",
                                          "message": problem}}), args.out)
            return 2
        if args.command in TABLES:
            obj, header, rows = TABLES[args.command](point, args)
            _emit(_render_csv_rows(header, rows) if csv_format
                  else _render_json(obj), args.out)
            return 0
        report = SUITES[args.command](point, args)
        _emit(_report_csv(report) if csv_format
              else _render_json(report.to_json_obj()), args.out)
        return 0 if report.ok else 1
    except KrallM1Error as exc:
        degenerate = isinstance(exc, DEGENERATE)
        error = {"type": type(exc).__name__, "message": str(exc)}
        error.update({key: getattr(exc, key) for key in
                      ("n", "index", "residual", "location")
                      if hasattr(exc, key)})
        _emit(_render_json({"status": "degenerate" if degenerate else "fail",
                            "error": error}), args.out)
        return 2 if degenerate else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except OSError as exc:
        if args.out is None:  # stdout itself failed, not the --out file
            raise
        parser.error(f"--out {args.out}: {exc.strerror or exc}")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generation, verification sweeps, data export.

Exit status contract: 0 when every check passes, 1 when a check fails,
2 on degenerate-parameter errors (including Geronimus degeneracy).
Identical configurations produce byte-identical report files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
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

PRECISION_ENV = "KRALLM1_PRECISION"

# Errors that mean the parameters admit no answer (exit 2), as opposed
# to a failed check (exit 1).
DEGENERATE = (GeronimusDegenerate, DegenerateParameters, NotPositiveDefinite,
              IntegrabilityError, InsufficientMoments)
COMMANDS = ("gen", "verify-q", "verify-m1", "moments", "gram", "limit-scan",
            "matrix-verify")


@dataclass
class RunConfig:
    """Validated invocation: command, parameter strings, bounds, output."""

    command: str
    params: dict
    n_max: int
    precision: int
    tol: Fraction | None
    eps_list: list
    output: str | None
    format: str
    family: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.n_max < 0:
            raise ValueError("n-max must be >= 0")
        if self.precision < 30:
            raise ValueError("precision must be >= 30 digits")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        for key, text in self.params.items():
            parse_rational(text)  # raises on malformed input


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
        raise ValueError(
            f"--tol expects a decimal number, got {text!r}") from None
    if not value.is_finite() or value < 0:
        raise ValueError(f"--tol must be finite and >= 0, got {text!r}")
    return Fraction(value)


def parse_eps_list(text: str) -> list:
    """Comma-separated eps values, kept as written.

    Empty entries are skipped.  The list must be nonempty, every entry a
    finite decimal, and consecutive entries distinct and of one sign, so
    that each convergence order log(dev_i/dev_(i+1))/log(eps_i/eps_(i+1))
    is defined.
    """
    values = [e.strip() for e in text.split(",") if e.strip()]
    if not values:
        raise argparse.ArgumentTypeError("needs at least one eps value")
    for e in values:
        if not DECIMAL.fullmatch(e):
            raise argparse.ArgumentTypeError(
                f"{e!r} is not a finite decimal")
    for a, b in zip(values, values[1:]):
        lo, hi = sorted((Decimal(a), Decimal(b)))
        if lo == hi or lo < 0 < hi:
            raise argparse.ArgumentTypeError(
                f"consecutive entries {a} and {b} must differ and share "
                "a sign")
    return values


def _rational_arg(name):
    def convert(text):
        try:
            parse_rational(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"{name} expects an integer or p/q rational: {exc}")
        return text
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krallm1",
        description="Generate and verify the -1 Krall-Jacobi polynomial "
                    "pipeline in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, flags, *, required=None, n_max=8, tol=None):
        """Parameter flags, --n-max, --out and --format.  Only the float
        commands, which pass a default ``tol``, take --precision and --tol."""
        for flag in flags:
            if flag == "j":
                p.add_argument("--j", type=int, default=None,
                               help="exponent j in a = q^j (default 2)")
                continue
            p.add_argument(f"--{flag}", type=_rational_arg(f"--{flag}"),
                           required=flag in (flags if required is None
                                             else required),
                           help=PARAM_HELP[flag])
        p.add_argument("--n-max", type=int, default=n_max, dest="n_max",
                       help=f"largest degree exercised (default {n_max})")
        if tol is not None:
            p.add_argument("--precision", type=int, default=None,
                           help=f"working digits (default "
                                f"{DEFAULT_PRECISION}, override with "
                                f"${PRECISION_ENV})")
            p.add_argument("--tol", type=str, default=tol,
                           help=f"tolerance as a decimal string "
                                f"(default {tol})")
        p.add_argument("--out", type=str, default=None,
                       help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("gen", help="emit polynomial coefficient tables")
    p.add_argument("--family", choices=tuple(FAMILY_FLAGS), required=True)
    add_common(p, ("beta", "q", "b", "j", "M"), required=("M",))

    p = sub.add_parser("verify-q",
                       help="q-side eigen and reconstruction agreement")
    add_common(p, FAMILY_FLAGS["q"])

    p = sub.add_parser("verify-m1",
                       help="limit-family operator, eigen, orthogonality and "
                            "explicit-solution suites")
    add_common(p, FAMILY_FLAGS["m1"])

    p = sub.add_parser("moments", help="exact moment table")
    add_common(p, FAMILY_FLAGS["m1"])

    p = sub.add_parser("gram", help="exact Gram matrix and Hankel determinants")
    add_common(p, FAMILY_FLAGS["m1"])

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
    add_common(p, FAMILY_FLAGS["m1"], required=(), n_max=4, tol="1e-40")

    # Bare negative rationals ("-1/4") and negative decimals or eps lists
    # ("-1e-3,-1e-4") must parse as option values, not as option strings.
    negative_value = re.compile(r"^-[0-9.][0-9.eE+\-/,]*$")
    parser._negative_number_matcher = negative_value
    for child in sub.choices.values():
        child._negative_number_matcher = negative_value
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    params = {key: str(getattr(args, key))
              for key in ("beta", "M", "q", "b", "j")
              if getattr(args, key, None) is not None}
    precision = getattr(args, "precision", None)
    if precision is None:
        precision = int(os.environ.get(PRECISION_ENV, DEFAULT_PRECISION))
    tol = getattr(args, "tol", None)
    return RunConfig(
        command=args.command,
        params=params,
        n_max=args.n_max,
        precision=precision,
        tol=parse_tolerance(tol) if tol is not None else None,
        eps_list=getattr(args, "eps_list", None) or [],
        output=args.out,
        format=args.format,
        family=getattr(args, "family", None))


def _m1_params(config: RunConfig) -> MinusOneParams:
    return MinusOneParams(beta=parse_rational(config.params["beta"]),
                          M=parse_rational(config.params["M"]))


def _q_params(config: RunConfig) -> QJacobiParams:
    return QJacobiParams(q=parse_rational(config.params["q"]),
                         b=parse_rational(config.params["b"]),
                         j=int(config.params.get("j", "2")),
                         M=parse_rational(config.params["M"]))


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
    # Built before the moments, so that a degenerate point is reported at
    # the degree where the recurrence breaks.
    family = minus_one.gen_poly_family(n_max, params)
    for n, poly in enumerate(family):
        report.add(exact_check("eigen-m1", point, n,
                               minus_one.apply_L0_operator(poly, params),
                               minus_one.lambda_tilde(n, params) * poly))
    momseq = minus_one.moments(2 * n_max, params)
    running_norm = momseq.mu(0)
    for n in range(n_max + 1):
        offenders = [m for m in range(n)
                     if minus_one.inner_product(family[n], family[m],
                                                momseq) != 0]
        report.add(CheckResult(
            check="orthogonality", params=point, n=n,
            status="pass" if not offenders else "fail",
            lhs="0" if not offenders else "nonzero",
            rhs="0",
            residual="" if not offenders else f"pairs {offenders}"))
        if n >= 1:
            running_norm *= minus_one.transformed_recurrence_m1(n, params)[0]
        report.add(exact_check(
            "norm-identity", point, n,
            minus_one.inner_product(family[n], family[n], momseq),
            running_norm))
    report.add(exact_check("btilde0-closed-form", point, 0,
                           minus_one.transformed_recurrence_m1(0, params)[1],
                           minus_one.btilde0_closed(params)))
    for n in (2, 3):
        if n <= n_max:
            report.add(exact_check("explicit-solution", point, n, family[n],
                                   minus_one.explicit_solution(n, params)))
    for n in (1, 2, 3):
        if n <= n_max:
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
            lhs="" if not mismatches else str(mismatches),
            rhs="", residual=""))
    family = qjacobi.geronimus_family(n_max, params)
    for n, poly in enumerate(family):
        report.add(exact_check("eigen-q", point, n,
                               qjacobi.apply_Lq(poly, recon),
                               qjacobi.lambda_q(n, params) * poly))
    x = LaurentPoly.x()
    for n in range(1, n_max):
        un, bn = qjacobi.transformed_recurrence(n, params)
        report.add(exact_check(
            "transformed-recurrence", point, n,
            family[n + 1] + bn * family[n] + un * family[n - 1],
            x * family[n]))
    # The Geronimus data obeys the same three-term recurrence as the
    # polynomials (with Phi_1 = -b_0 Phi_0 - 1 under the unit weight),
    # which checks the second-kind closed form against the recurrence.
    phis = [qjacobi.phi(n, params) for n in range(n_max + 1)]
    b0 = qjacobi.lqj_recurrence(0, params)[1]
    seeded = phis[1] == -b0 * phis[0] - 1
    report.add(CheckResult(
        check="second-kind-seed", params=point, n=1,
        status="pass" if seeded else "fail",
        lhs=format_rational(phis[1]),
        rhs=format_rational(-b0 * phis[0] - 1),
        residual=""))
    for n in range(1, n_max):
        un, bn = qjacobi.lqj_recurrence(n, params)
        ok = phis[n + 1] == -bn * phis[n] - un * phis[n - 1]
        report.add(CheckResult(
            check="second-kind-recurrence", params=point, n=n,
            status="pass" if ok else "fail",
            lhs=format_rational(phis[n + 1]),
            rhs=format_rational(-bn * phis[n] - un * phis[n - 1]),
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
# Table builders
# ---------------------------------------------------------------------------

def _poly_table(family, params_dict, family_name):
    rows = []
    for n, poly in enumerate(family):
        for d in sorted(poly.coeffs, reverse=True):
            rows.append((n, d, format_rational(poly.coeffs[d])))
    return {"family": family_name, "params": params_dict, "rows": rows}


def _moment_table(params: MinusOneParams, n_max: int):
    seq = minus_one.moments(n_max, params)
    return {"params": params.as_dict(),
            "moments": [format_rational(v) for v in seq.values]}


def _gram_table(params: MinusOneParams, n_max: int):
    gram = minus_one.gram_matrix(n_max, params)
    hankel = minus_one.hankel_dets(n_max, params)
    return {"params": params.as_dict(),
            "gram": [[format_rational(v) for v in row] for row in gram],
            "hankel": [format_rational(v) for v in hankel],
            "positive_definite": all(v > 0 for v in hankel)}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_csv_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _report_csv(report: VerificationReport) -> str:
    rows = []
    for r in report.results:
        point = ";".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        rows.append([r.check, point, r.n, r.status, r.lhs or "", r.rhs or "",
                     r.residual or ""])
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

def run(config: RunConfig) -> int:
    """Execute one command; returns the exit status."""
    try:
        return _dispatch(config)
    except KrallM1Error as exc:
        degenerate = isinstance(exc, DEGENERATE)
        error = {"type": type(exc).__name__, "message": str(exc)}
        error.update({key: getattr(exc, key) for key in
                      ("n", "index", "residual", "location")
                      if hasattr(exc, key)})
        _emit(_render_json({"status": "degenerate" if degenerate else "fail",
                            "error": error}), config.output)
        return 2 if degenerate else 1


def _flag_problem(config: RunConfig) -> str | None:
    """Why the parameter flags do not fit the command, or None.  A flag
    the command would ignore is refused, never silently dropped."""
    given = config.params
    if config.command == "gen":
        takes = FAMILY_FLAGS[config.family]
        missing = [k for k in takes if k != "j" and k not in given]
        extra = [k for k in given if k not in takes]
        for verb, keys in (("requires", missing), ("does not take", extra)):
            if keys:
                flags = " ".join(f"--{k}" for k in keys)
                return f"gen --family {config.family} {verb} {flags}"
    if config.command == "matrix-verify" and len(given) == 1:
        other = "M" if "beta" in given else "beta"
        return f"matrix-verify --{next(iter(given))} requires --{other}"
    return None


def _dispatch(config: RunConfig) -> int:
    problem = _flag_problem(config)
    if problem:
        _emit(_render_json({"status": "error",
                            "error": {"type": "ConfigError",
                                      "message": problem}}), config.output)
        return 2
    if config.command == "gen":
        if config.family == "m1":
            params = _m1_params(config)
            table = _poly_table(
                minus_one.gen_poly_family(config.n_max, params),
                params.as_dict(), "m1")
        else:
            params = _q_params(config)
            table = _poly_table(
                qjacobi.geronimus_family(config.n_max, params),
                params.as_dict(), "q")
        if config.format == "csv":
            _emit(_render_csv_rows(["n", "degree", "coefficient"],
                                   table["rows"]), config.output)
        else:
            table["rows"] = [
                {"n": n, "degree": d, "coefficient": c}
                for (n, d, c) in table["rows"]]
            _emit(_render_json(table), config.output)
        return 0

    if config.command == "moments":
        table = _moment_table(_m1_params(config), config.n_max)
        if config.format == "csv":
            rows = list(enumerate(table["moments"]))
            _emit(_render_csv_rows(["n", "value"], rows), config.output)
        else:
            _emit(_render_json(table), config.output)
        return 0

    if config.command == "gram":
        table = _gram_table(_m1_params(config), config.n_max)
        if config.format == "csv":
            rows = []
            for i, row in enumerate(table["gram"]):
                for j, v in enumerate(row):
                    rows.append(["gram", i, j, v])
            for m, v in enumerate(table["hankel"]):
                rows.append(["hankel", m, "", v])
            _emit(_render_csv_rows(["kind", "i", "j", "value"], rows),
                  config.output)
        else:
            _emit(_render_json(table), config.output)
        return 0

    if config.command == "verify-m1":
        report = verify_m1_suite(_m1_params(config), config.n_max)
    elif config.command == "verify-q":
        report = verify_q_suite(_q_params(config), config.n_max)
    elif config.command == "limit-scan":
        report = limit_scan_suite(_m1_params(config), config.n_max,
                                  config.eps_list, config.precision,
                                  config.tol)
    elif config.command == "matrix-verify":
        if config.params:
            params = _m1_params(config)
        else:
            params = matrix_op.find_positive_definite_point(
                2 * config.n_max + 4)
        report = matrix_suite(params, config.n_max, config.tol,
                              config.precision)
    else:  # pragma: no cover - RunConfig already validated the command
        raise ValueError(config.command)

    if config.format == "csv":
        _emit(_report_csv(report), config.output)
    else:
        _emit(_render_json(report.to_json_obj()), config.output)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(str(exc))
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

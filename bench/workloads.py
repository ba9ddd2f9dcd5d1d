"""Seeded invocation plans for the two benchmark workloads.

A plan is a sequence of rounds.  Every round of a workload holds the same
multiset of (command, n-max[, precision]) in a seeded order; only the
parameter points differ.  A run therefore measures the same size mix
however many rounds it completes, so a faster program is compared on the
same distribution.

Point ranges are chosen so that every identity the CLI checks is a
theorem there, and the verdict is known without running the program:

* limit side, beta in (0, 4) and M in (-2, 0): M < 0 keeps every
  Geronimus denominator M - (3+beta)(1+beta)/(...) away from zero, and
  the point mass -4M k~/((1+beta)(3+beta)) is positive, so the moment
  functional is Hankel-positive and every u~_k > 0;
* q side, q in (1, 4), b in (-3, 0), M > 0, j = 2: every (1 - ab q^k)
  and (b q^k; q) factor exceeds 1, and Phi_n is M plus a positive term.

No parameter point repeats inside one plan, because every CLI call pays
for a fresh process and a module-level memo must not post a gain that no
user sees.  The one exception is the point that ``matrix-verify`` picks
on its own when no point is given; those invocations differ in
(n-max, precision) and run at most once per round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
DEFAULT_EPS = ("1e-2", "1e-3", "1e-4")

# Slots of one round: (command, n-max, precision), each run once per
# round at a fresh point.  A round holds 20 invocations in four cost
# bands, cheapest first: 8 cheap slots, a 4-slot band of one command and
# size, 4 dearer slots, and a 4-slot top band of one command and size.
# A run completes whole rounds, so with R rounds the inclusive median
# (sample index 10R - 1/2) lies in the middle of the second band and the
# 90th percentile (index 18R - 9/10) in the middle of the top band, and
# each is the median of 4R like-sized invocations rather than an order
# statistic at the seam between two sizes.  Each band costs about 1.4
# times the one below it or more, so the scatter of single invocations
# seldom reorders them.
EXACT_LIMIT_SLOTS = (
    [("verify-m1", n, None) for n in (4, 6, 8, 10)]
    + [("gram", n, None) for n in (4, 8, 10, 12)]
    + [("verify-m1", 14, None)] * 4
    + [("gram", 16, None), ("verify-m1", 18, None), ("gram", 18, None),
       ("verify-m1", 22, None)]
    + [("gram", 24, None)] * 4)
# The auto-selected matrix-verify is one of the 8 cheap slots.
Q_MATRIX_SLOTS = (
    [("verify-q", n, None) for n in (12, 14, 16, 18)]
    + [("limit-scan", 4, None), ("matrix-verify", 6, 60),
       ("matrix-verify", 6, 100)]
    + [("limit-scan", 5, None)] * 4
    + [("limit-scan", 7, None), ("verify-q", 24, None),
       ("matrix-verify", 12, 60), ("matrix-verify", 12, 100)]
    + [("matrix-verify", 16, 60), ("matrix-verify", 16, 100)] * 2)
# One auto-selected matrix-verify per round, small enough for the cheap
# band; round r uses the r-th (n-max, precision) pair, so none repeats.
# A run completes fewer rounds than there are pairs.
AUTO_RUNS = tuple((n, p) for p in range(50, 101, 5) for n in (3, 4))

# The point find_positive_definite_point selects for every n-max used
# here; explicit draws avoid it.
AUTO_POINT = (("beta", "1"), ("M", "-1"))
# Acceptance criterion 6: documented red at (n, s) = (3, 1).
CRITERION_6 = (("beta", "1"), ("M", "1"))


def _rationals(lo, hi, max_den=7):
    """Sorted reduced fractions strictly inside (lo, hi), denominator <= 7."""
    out = set()
    for den in range(1, max_den + 1):
        for num in range(lo * den, hi * den + 1):
            value = Fraction(num, den)
            if lo < value < hi:
                out.add(value)
    return [str(v) for v in sorted(out)]


BETAS = _rationals(0, 4)
LIMIT_MS = _rationals(-2, 0)
QS = _rationals(1, 4)
BS = _rationals(-3, 0)
Q_MS = _rationals(0, 4)


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the verdict it must produce."""

    command: str
    n_max: int
    point: tuple = ()  # ((flag, rational string), ...); () = auto-selected
    precision: int | None = None
    failing: tuple = ()  # (check, n, s) records that must report "fail"

    @property
    def argv(self) -> list:
        argv = [self.command]
        for flag, value in self.point:
            argv += [f"--{flag}", value]
        argv += ["--n-max", str(self.n_max)]
        if self.precision is not None:
            argv += ["--precision", str(self.precision)]
        return argv

    @property
    def expect_exit(self) -> int:
        return 1 if self.failing else 0

    @property
    def record_params(self) -> dict:
        """The point every check record of the report must carry."""
        params = dict(self.point or AUTO_POINT)
        if self.command == "verify-q":
            params["j"] = "2"
        return params


class Plan:
    """Warm-up invocations plus an endless, seed-determined list of rounds.

    ``round(r)`` is the same for a given (workload, seed) in every
    process, so the worker that runs a plan and the parent that checks
    its reports agree on each invocation by (round, position).
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self._rng = random.Random(f"{workload}/{seed}")
        self._used = {AUTO_POINT, CRITERION_6}
        self._rounds = []
        self.warmups = WORKLOADS[self.workload].warmups(self)

    def round(self, r: int) -> list:
        while len(self._rounds) <= r:
            self._rounds.append(
                WORKLOADS[self.workload].round(self, len(self._rounds)))
        return self._rounds[r]

    def limit_point(self) -> tuple:
        return self._fresh(lambda: (("beta", self._rng.choice(BETAS)),
                                    ("M", self._rng.choice(LIMIT_MS))))

    def q_point(self) -> tuple:
        return self._fresh(lambda: (("q", self._rng.choice(QS)),
                                    ("b", self._rng.choice(BS)),
                                    ("M", self._rng.choice(Q_MS))))

    def _fresh(self, draw) -> tuple:
        for _ in range(10_000):
            point = draw()
            if point not in self._used:
                self._used.add(point)
                return point
        raise RuntimeError(f"{self.workload}: parameter pool exhausted")

    def shuffled(self, invocations: list) -> list:
        self._rng.shuffle(invocations)
        return invocations


def _explicit(plan: Plan, slots) -> list:
    return [Invocation(command, n, plan.q_point() if command == "verify-q"
                       else plan.limit_point(), precision=precision)
            for command, n, precision in slots]


def _exact_limit_round(plan: Plan, r: int) -> list:
    return plan.shuffled(_explicit(plan, EXACT_LIMIT_SLOTS))


def _q_matrix_round(plan: Plan, r: int) -> list:
    invs = _explicit(plan, Q_MATRIX_SLOTS)
    if r < len(AUTO_RUNS):
        n, precision = AUTO_RUNS[r]
        invs.append(Invocation("matrix-verify", n, precision=precision))
    if r == 0:
        invs.append(Invocation("limit-scan", 6, CRITERION_6,
                               failing=(("limit-scan-convergence", 3, "1"),)))
    return plan.shuffled(invs)


@dataclass(frozen=True)
class Workload:
    round: object  # (plan, r) -> list of Invocation
    warmups: object  # plan -> list of Invocation


WORKLOADS = {
    # The exact Fraction moment functional: inner_product and hankel_dets
    # take most of gram, the orthogonality loop most of verify-m1, so
    # family reuse, O(N^3) moments and Bareiss Hankel show here, while
    # qjacobi and matrix_op do no work.
    "exact-limit": Workload(
        round=_exact_limit_round,
        warmups=lambda plan: [Invocation("verify-m1", 3, plan.limit_point()),
                              Invocation("gram", 3, plan.limit_point())]),
    # The qjacobi table path and the 2x2 matrix operator, both in mpf
    # except verify-q: limit-scan rebuilds the table for every
    # (n, s, eps, digits), verify-q runs it once over Fraction with
    # reports of 0.1-0.6 MB, and matrix-verify rebuilds recurrence chains
    # per check.  The exact moment functional does no work here.  It
    # shares transformed_recurrence_m1 and LaurentPoly with exact-limit,
    # which runs them once per invocation over Fraction instead, so a
    # change that helps one and costs the other shows.  Round 0 also
    # carries the criterion-6 red check.  The q-side and matrix paths
    # share one workload so that the benchmark's time budget allows runs
    # long enough to be steady.
    "q-matrix": Workload(
        round=_q_matrix_round,
        warmups=lambda plan: [
            Invocation("limit-scan", 2, plan.limit_point()),
            Invocation("verify-q", 4, plan.q_point()),
            Invocation("matrix-verify", 3, plan.limit_point(),
                       precision=60)]),
}

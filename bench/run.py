"""Benchmark of the krallm1 CLI: time from argv to a verified report.

    python3 bench/run.py --workload {exact-limit,q-matrix}
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository; it imports the program from
``src/`` of that checkout and nothing else, and needs only the standard
library and mpmath.

Load model: one client, closed loop.  Each workload runs in one fresh,
single-threaded interpreter (``worker.py``) that calls
``krallm1.cli.main(argv)`` for every invocation of a seeded plan
(``workloads.py``) and starts the next only after the previous report
is written.  Workloads run one at a time.  The parent checks every
report with ``checks.py`` after the worker has ended.

With ``--trace 0`` the run measures whole rounds of the plan for up to
``--seconds`` (at least 100 invocations) and prints, by name and unit:

  report_s_p50   median seconds of one invocation;
  report_s_tail  the 90th percentile of the same times: the percentile
                 is fixed so that a faster program, which completes more
                 rounds, is compared at the same point, and the run
                 always holds >= 10 samples beyond it;
  checks_per_s   check records plus Gram/Hankel cells per invocation
                 second;
  peak_rss_mb    ru_maxrss of the worker interpreter;
  setup_s        median over fresh interpreters of the time to import
                 mpmath and krallm1 and build the parser;
  failed_ratio   invocations that failed the gate / attempted.  It is 0
                 whenever the run is correct, so it is printed here but
                 not declared as a bounded metric in BENCHMARK.json.

Every time above is scaled to the reference host speed of ``speed.py``:
each invocation's seconds are multiplied by the ratio of the reference
probe time to the probe time measured around it by this interpreter,
which never imports the program, so a
drift of the shared host's speed during or between runs does not read
as a change of the program.  The unscaled figures are printed beside
them and recorded in the "env " line.

With ``--trace 1`` it runs the first TRACE_ROUNDS rounds of the same
plan twice in fresh interpreters, untraced and then traced by
``tracer.py``, and prints the per-layer metrics of LAYER_METRICS plus
the tracing overhead (traced minus untraced invocation seconds).

The last line of stdout is one JSON object with the keys "correct",
"attempted", "failed" and "metrics"; the line before it, prefixed
"env ", records the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import speed
import workloads
from tracer import KEYED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "krallm1"
GOLDEN = BENCH / "golden.json"

SETUP_SAMPLES = 9  # fresh interpreters measured for setup_s, worker included
TRACE_ROUNDS = 1
TAIL_PERCENTILE = 90
TIME_LIMIT_S = 170  # every worker of one run is killed after this


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Outcome:
    """What one run measured, ready to print."""

    records: list  # worker headers plus report bytes, in run order
    failures: list  # gate messages
    metrics: dict  # name -> (value, unit)
    notes: dict = field(default_factory=dict)  # name -> text printed beside
    env: dict = field(default_factory=dict)  # extra run-environment entries


def run_worker(mode: str, workload: str, seed: int, deadline: float,
               probes: list | None = None, **options) -> tuple:
    """Run ``worker.py`` to its end; returns (records, final message).

    Each record is the worker's header dict plus "report" (bytes).
    Whenever the worker asks for a sync, a speed probe is appended to
    ``probes`` before the worker is let go on.
    """
    argv = [sys.executable, str(BENCH / "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed)]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    timer.start()
    records, final = [], None
    try:
        for line in proc.stdout:
            head = json.loads(line)
            if "len" in head:
                head["report"] = proc.stdout.read(head["len"])
                records.append(head)
            elif "sync" in head:
                probes.append(speed.probe())
                proc.stdin.write(b"\n")
                proc.stdin.flush()
            else:
                final = head
    except BrokenPipeError:  # the worker died; its status says how
        pass
    finally:
        timer.cancel()
        proc.stdout.close()
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        status = proc.wait()
    if status != 0 or final is None:
        raise BenchError(f"worker {mode} {workload} exited with {status}")
    return records, final


def gate(plan: workloads.Plan, records: list, golden: list | None) -> tuple:
    """Check every report; returns (failure messages, outputs per record)."""
    failures, outputs = [], []
    for rec in records:
        inv = plan.round(rec["round"])[rec["pos"]]
        digest = None
        if golden is not None and rec["round"] < len(golden):
            digest = golden[rec["round"]][rec["pos"]]
        reason, count = checks.check(inv, rec["exit"], rec["report"], digest)
        outputs.append(count)
        if reason:
            failures.append(f"{' '.join(inv.argv)}: {reason}")
    return failures, outputs


def _golden(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())[workload]


def _setup_sample(workload: str, seed: int, deadline: float) -> tuple:
    """(raw, scaled) set-up seconds of one fresh interpreter."""
    probes = [speed.probe()]
    setup_s = run_worker("setup", workload, seed, deadline)[1]["setup_s"]
    probes.append(speed.probe())
    middle = (probes[0][0] + probes[1][0]) / 2
    return setup_s, setup_s * speed.scale(middle, probes)


def timed_run(workload: str, seed: int, seconds: int, deadline: float):
    # Half of the set-up samples before the timed worker and half after,
    # so that they span the run rather than one moment of it.
    setup = [_setup_sample(workload, seed, deadline)
             for _ in range(SETUP_SAMPLES // 2)]
    probes = []
    records, final = run_worker("timed", workload, seed, deadline, probes,
                                seconds=seconds)
    setup.append((final["setup_s"],
                  final["setup_s"] * speed.scale(0.0, probes)))
    setup += [_setup_sample(workload, seed, deadline)
              for _ in range(SETUP_SAMPLES - len(setup))]
    plan = workloads.Plan(workload, seed)
    failures, outputs = gate(plan, records, _golden(workload, seed))
    raw = [rec["s"] for rec in records]
    times = [rec["s"] * speed.scale(rec["t0"] + rec["s"] / 2, probes)
             for rec in records]
    tail = statistics.quantiles(times, n=100, method="inclusive")[
        TAIL_PERCENTILE - 1]
    beyond = sum(t > tail for t in times)
    metrics = {
        "report_s_p50": (statistics.median(times), "s"),
        "report_s_tail": (tail, "s"),
        "checks_per_s": (sum(outputs) / sum(times), "1/s"),
        "peak_rss_mb": (final["rss_mb"], "MB"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
    }
    unscaled = {
        "report_s_p50": statistics.median(raw),
        "report_s_tail": statistics.quantiles(raw, n=100, method="inclusive")[
            TAIL_PERCENTILE - 1],
        "checks_per_s": sum(outputs) / sum(raw),
        "setup_s": statistics.median(s for s, _ in setup),
    }
    notes = {name: f"unscaled {value:.6g}" for name, value in unscaled.items()}
    notes["report_s_tail"] += (f"; p{TAIL_PERCENTILE} of {len(times)} "
                               f"samples, {beyond} beyond")
    notes["setup_s"] += f"; median of {len(setup)} fresh interpreters"
    host_speed = [speed.REF_S / p for _, p in probes]
    return Outcome(records, failures, metrics, notes,
                   {"rounds": records[-1]["round"] + 1,
                    "mpmath_backend": final["mpmath_backend"],
                    "unscaled": unscaled, "probes": len(probes),
                    "host_speed_min_median_max": [
                        min(host_speed), statistics.median(host_speed),
                        max(host_speed)]})


# Per-layer metrics: (name, unit).  Function names are qualified by the
# module that defines them; see layer_metrics() for how each is derived.
CALL_COUNTS = ("minus_one.inner_product", "minus_one.gen_poly_family",
               "qjacobi.rep_coeff_reconstruct", "exact_core.qpoch",
               "qjacobi.lqj_coeff", "qjacobi.phi", "qjacobi.geronimus_family",
               "minus_one.transformed_recurrence_m1", "matrix_op.matrix_poly")
SELF_TIMES = ("minus_one.inner_product", "minus_one.hankel_dets",
              "minus_one.apply_L0_operator", "minus_one.apply_L0_monomial",
              "qjacobi.rep_coeff_reconstruct", "minus_one.epsilon_scan",
              "exact_core.qpoch", "qjacobi.lqj_coeff",
              "qjacobi.geronimus_family", "qjacobi.rep_coeff_paper",
              "qjacobi.apply_Lq", "minus_one.transformed_recurrence_m1",
              "matrix_op.matrix_poly", "matrix_op.matrix_recurrence_check",
              "matrix_op.five_term_check",
              "matrix_op.find_positive_definite_point")
GROUPS = {
    "exact_core.laurent_mul": ("exact_core.LaurentPoly.__mul__",
                               "exact_core.LaurentPoly.__rmul__"),
    "exact_core.laurent_add": ("exact_core.LaurentPoly.__add__",
                               "exact_core.LaurentPoly.__sub__"),
    "cli.parse": ("cli.main", "cli.build_parser", "cli.config_from_args",
                  "cli.parse_tolerance"),
    "cli.render": ("cli._render_json", "cli._render_csv_rows",
                   "cli._report_csv", "cli._emit"),
}
MODULES = ("exact_core", "qjacobi", "minus_one", "matrix_op", "cli")

LAYER_METRICS = (
    [(f"{name}.calls", "count") for name in CALL_COUNTS]
    + [(f"{name}.self_s", "s") for name in SELF_TIMES]
    + [(f"{name}.distinct_ratio", "ratio") for name in KEYED]
    + [("minus_one.epsilon_scan.attempts_per_value", "ratio"),
       ("matrix_op.chain_builds", "count"),
       ("exact_core.laurent_mul.calls", "count"),
       ("exact_core.laurent_mul.self_s", "s"),
       ("exact_core.laurent_add.calls", "count"),
       ("exact_core.laurent_add.self_s", "s"),
       ("exact_core.max_rational_bits", "bits"),
       ("cli.parse.self_s", "s"),
       ("cli.render.self_s", "s"),
       ("cli.render.bytes", "bytes")]
    + [(f"{module}.self_s", "s") for module in MODULES]
    + [("trace.overhead_s", "s")])


def layer_metrics(summary: dict, records: list, overhead_s: float) -> dict:
    fns = summary["functions"]

    def calls(*names):
        return sum(fns[n]["calls"] for n in names)

    def self_s(*names):
        return sum(fns[n]["self_s"] for n in names)

    values = {}
    for name in CALL_COUNTS:
        values[f"{name}.calls"] = calls(name)
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = self_s(name)
    for name in KEYED:
        values[f"{name}.distinct_ratio"] = (
            fns[name]["distinct"] / calls(name) if calls(name) else 0.0)
    scanned = fns["minus_one.epsilon_scan"]["observed"]
    values["minus_one.epsilon_scan.attempts_per_value"] = (
        summary["eps_scan_attempts"] / scanned if scanned else 0.0)
    values["matrix_op.chain_builds"] = calls("matrix_op._chains")
    for group in ("exact_core.laurent_mul", "exact_core.laurent_add"):
        values[f"{group}.calls"] = calls(*GROUPS[group])
        values[f"{group}.self_s"] = self_s(*GROUPS[group])
    values["exact_core.max_rational_bits"] = max(
        checks.max_rational_bits(rec["report"]) for rec in records)
    values["cli.parse.self_s"] = self_s(*GROUPS["cli.parse"])
    values["cli.render.self_s"] = self_s(*GROUPS["cli.render"])
    values["cli.render.bytes"] = fns["cli._emit"]["observed"]
    for module in MODULES:
        values[f"{module}.self_s"] = self_s(
            *(n for n in fns if n.split(".")[0] == module))
    values["trace.overhead_s"] = overhead_s
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


def traced_run(workload: str, seed: int, deadline: float):
    plain, _ = run_worker("fixed", workload, seed, deadline,
                          rounds=TRACE_ROUNDS)
    records, final = run_worker("fixed", workload, seed, deadline,
                                rounds=TRACE_ROUNDS, trace=1)
    plan = workloads.Plan(workload, seed)
    failures, _ = gate(plan, records, _golden(workload, seed))
    traced_s = sum(r["s"] for r in records)
    plain_s = sum(r["s"] for r in plain)
    metrics = layer_metrics(final["trace"], records, traced_s - plain_s)
    notes = {"trace.overhead_s": f"traced {traced_s:.3f} s - untraced "
                                 f"{plain_s:.3f} s, {len(records)} calls"}
    return Outcome(records, failures, metrics, notes,
                   {"rounds": TRACE_ROUNDS, "spans": final["trace"]["spans"],
                    "mpmath_backend": final["mpmath_backend"],
                    "trace_overhead_s": traced_s - plain_s})


def _git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: no program at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    load_start = os.getloadavg()
    try:
        if args.trace:
            out = traced_run(args.workload, args.seed, deadline)
        else:
            out = timed_run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = len(out.records), len(out.failures)
    for message in out.failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} "
          f"invocations in {out.env['rounds']} rounds, {failed} failed")
    for name, (value, unit) in out.metrics.items():
        note = f"  ({out.notes[name]})" if name in out.notes else ""
        print(f"  {name:48s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_ratio':48s} {failed / attempted:14.6g}  "
          f"({failed} of {attempted})")
    env = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace, "git_sha": _git_sha(),
           "src_sha256": _source_digest(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
           "invocations": attempted, **out.env}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not out.failures, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

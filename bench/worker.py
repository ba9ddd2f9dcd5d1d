"""One fresh interpreter that runs one workload of the benchmark.

``run.py`` starts it; it is not meant to be run by hand:

    python3 bench/worker.py --workload NAME --seed N --mode MODE
                            [--seconds S] [--rounds K] [--trace 0|1]

Modes:
  setup  import the program, build its parser, report the time, exit;
  timed  closed loop, one client: after one untimed warm-up invocation per
         command, run whole rounds of the plan until at least MIN_SAMPLES
         invocations are done and another round as long as the last one
         would end after ``--seconds``;
  fixed  run exactly the first ``--rounds`` rounds, optionally traced.

Each invocation calls ``krallm1.cli.main(argv)`` with stdout captured;
its time runs from the call until the report bytes are written.  After
each one the worker writes a JSON header line {"round", "pos", "t0",
"s", "exit", "len"} and then ``len`` raw report bytes to stdout, outside
the timed region, and ends with one JSON line holding "setup_s",
"rss_mb" and, when traced, "trace".  In timed mode it also writes
{"sync": 1} before the first invocation, after the last, and between
invocations every ``speed.SYNC_S`` seconds, and then waits for a line
on stdin while the parent probes the machine's speed.  The parent
checks the reports, so this interpreter holds nothing but the program
and the load generator.
"""

import sys
import time

# A report needs at least ten samples beyond the 90th percentile.
MIN_SAMPLES = 100


def _import_program(src):
    """Import mpmath and the CLI from ``src`` and build the parser once.

    This runs first in a fresh interpreter, before the worker imports
    anything else the program also needs, so its time is the program's
    set-up time.
    """
    start = time.perf_counter()
    sys.path.insert(0, src)
    import mpmath  # noqa: F401
    from krallm1 import cli
    cli.build_parser()
    return cli, time.perf_counter() - start


def _invoke(cli, argv):
    """Run one CLI call; returns (start, seconds, exit status, report)."""
    # Imported here, not at the top: the program imports them too, and
    # the set-up time must include them.
    import contextlib
    import io
    import traceback
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        status = exc.code
    except Exception:  # a traceback is a failed invocation, not a crash
        status = "exception"
        buf.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return start, elapsed, status, buf.getvalue().encode()


def main():
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    cli, setup_s = _import_program(src)

    import argparse
    import contextlib
    import itertools
    import json
    import resource

    import mpmath.libmp

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"imported {cli.__file__}, not the program under {src}")
    out = sys.stdout.buffer

    def send(obj, payload=b""):
        out.write(json.dumps(obj).encode() + b"\n" + payload)
        out.flush()

    result = {"setup_s": setup_s, "mpmath_backend": mpmath.libmp.BACKEND}
    if args.mode == "setup":
        send(result)
        return 0

    import speed
    import workloads
    plan = workloads.Plan(args.workload, args.seed)
    for inv in plan.warmups:
        _invoke(cli, inv.argv)

    tracer = None
    with contextlib.ExitStack() as scope:
        if args.trace:
            from tracer import Tracer
            tracer = scope.enter_context(Tracer().installed())
        timed = args.mode == "timed"

        def sync():
            send({"sync": 1})
            sys.stdin.buffer.readline()
            return time.perf_counter()

        last_sync = sync() if timed else 0.0
        done = 0
        deadline = time.perf_counter() + args.seconds
        for r in itertools.count():
            round_start = time.perf_counter()
            for pos, inv in enumerate(plan.round(r)):
                if tracer is not None:
                    tracer.invocation = done
                start, elapsed, status, report = _invoke(cli, inv.argv)
                done += 1
                send({"round": r, "pos": pos, "t0": start, "s": elapsed,
                      "exit": status, "len": len(report)}, report)
                if timed and time.perf_counter() - last_sync >= speed.SYNC_S:
                    last_sync = sync()
            now = time.perf_counter()
            if not timed:
                if r + 1 >= args.rounds:
                    break
            elif done >= MIN_SAMPLES and now + (now - round_start) > deadline:
                break
        if timed:
            sync()

    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
    send(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

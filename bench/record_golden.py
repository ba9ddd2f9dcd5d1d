"""Record the golden report digests of the default seed.

    python3 bench/record_golden.py

Runs the first GOLDEN_ROUNDS rounds of every workload's default-seed
plan, checks each report with the gate, and writes a digest of each
report's bytes to ``golden.json`` by round and position.  A timed run
of the default seed then also requires byte-identical reports for every
invocation those rounds cover.  Re-record only when a change is meant
to alter report bytes, and say so with the change.
"""

import json
import sys
import time

import checks
import run
import workloads

# About twice the rounds a 55 s run completes at the commit that recorded
# them.
GOLDEN_ROUNDS = 12


def main() -> int:
    golden = {}
    for workload in workloads.WORKLOADS:
        deadline = time.monotonic() + 3600
        records, _ = run.run_worker("fixed", workload,
                                    workloads.DEFAULT_SEED, deadline,
                                    rounds=GOLDEN_ROUNDS)
        plan = workloads.Plan(workload, workloads.DEFAULT_SEED)
        failures, _ = run.gate(plan, records, None)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        rounds = [[None] * len(plan.round(r)) for r in range(GOLDEN_ROUNDS)]
        for rec in records:
            rounds[rec["round"]][rec["pos"]] = checks.report_digest(
                rec["report"])
        golden[workload] = rounds
        print(f"{workload}: {len(records)} digests")
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once at the reference seed and its full size and writes
perfbench/reference/<workload>.json.  Record on the commit whose outputs
are the contract; a change that alters outputs on purpose re-records and
says so.
"""

import json
import os
import sys

import run
import worker
from workloads import WORKLOADS


def record(name):
    workload = WORKLOADS[name]
    _, _, outcome, problem = worker.run_pass(workload, worker.REFERENCE_SEED,
                                             workload.size)
    if outcome is None or outcome.failed:
        raise SystemExit(f"{name}: reference pass failed: "
                         f"{problem or outcome.problems}")
    data = {"workload": name, "seed": worker.REFERENCE_SEED,
            "size": workload.size, "recorded_at": run.git_commit(),
            "values": outcome.values}
    os.makedirs(worker.REFERENCE_DIR, exist_ok=True)
    with open(worker.reference_path(name), "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"{name}: {outcome.units} units recorded", file=sys.stderr)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)

"""One benchmark process: import spinbath, check a reference pass, then time
passes of one workload.  Started by run.py; prints one JSON line.

The first pass runs at REFERENCE_SEED and the workload's full size and is
compared with the recorded reference; it is also the warm-up.  Measured
passes then run at the requested seed and full size while the next one
would still end within --seconds (at least three passes, or one of each):
untraced only with --trace 0, and alternating untraced and traced with
--trace 1.  Every measured pass must produce the same bytes as the first
one, traced or not.  A traced run writes its spans to
.perfbench/spans-<workload>-seed<n>-trace1.jsonl.

A fixed calibration kernel runs before the first measured pass and after
every pass.  Each pass is also reported scaled to the machine's speed at
the time: its wall time divided by the mean of the two calibrations around
it, times CALIBRATION_REFERENCE_S.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spinbath  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, ratios  # noqa: E402
from workloads import WORKLOADS, compare  # noqa: E402

REFERENCE_SEED = 1
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
# The calibration kernel's usual wall time on the machine the bounds were
# measured on (see README.md, Steadiness), so that a scaled pass time reads
# as seconds on that machine.
CALIBRATION_REFERENCE_S = 0.2


def reference_path(name):
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def run_pass(workload, seed, size, context=None):
    """(wall seconds, CPU seconds, outcome or None, problem) for one pass
    of the workload."""
    gc.collect()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with context or contextlib.nullcontext():
            outcome = workload.run(seed, **size)
        problem = None
    except Exception:
        outcome = None
        problem = traceback.format_exc().strip().splitlines()[-1]
    return (time.perf_counter() - start, time.process_time() - cpu_start,
            outcome, problem)


def calibrate():
    """Wall seconds of a fixed kernel that mixes what the workloads do:
    an interpreted loop, small symmetric eigh calls and array sorts."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(600):
        a = rng.standard_normal((16, 16))
        np.linalg.eigh(a + a.T)
    x = rng.standard_normal(200_000)
    for _ in range(60):
        np.sort(x)
    return time.perf_counter() - start


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_provenance():
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(),
            "spinbath": os.path.relpath(spinbath.__file__, ROOT)}


class Tally:
    """Units attempted and failed over a run, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, outcome, mismatches=()):
        """Count one pass; a mismatch fails every unit of the pass."""
        self.attempted += outcome.units
        self.failed += outcome.units if mismatches else outcome.failed
        self.problems += outcome.problems + list(mismatches)

    def raised(self, problem):
        """Count a pass that raised as one failed unit."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tally = Tally()

    with open(reference_path(workload.name)) as fh:
        reference = json.load(fh)
    _, _, outcome, problem = run_pass(workload, REFERENCE_SEED, workload.size)
    if outcome is None:
        tally.raised(f"reference pass raised {problem}")
    else:
        tally.record(outcome, [f"reference: {m}"
                               for m in compare(outcome, reference)])

    walls, cpus, traced_walls, tracers = [], [], [], []
    scaled, traced_scaled = [], []
    calibrate()  # warm-up
    calibrations = [calibrate()]
    first_text = None
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        tracer = Tracer() if traced else None
        seconds, cpu, outcome, problem = run_pass(workload, args.seed,
                                                  workload.size, tracer)
        if outcome is None:
            tally.raised(f"pass raised {problem}")
            break
        first_text = first_text or outcome.text
        tally.record(outcome, [] if outcome.text == first_text else [
            f"{'traced' if traced else 'untraced'} pass output differs "
            f"from the first pass"])
        calibrations.append(calibrate())
        scale = CALIBRATION_REFERENCE_S / (sum(calibrations[-2:]) / 2)
        if traced:
            traced_walls.append(seconds)
            traced_scaled.append(seconds * scale)
            tracers.append(tracer)
        else:
            walls.append(seconds)
            scaled.append(seconds * scale)
            cpus.append(cpu)
        enough = (traced_walls and walls) if args.trace \
            else len(walls) >= MIN_PASSES
        # stop when the next pass would end after the measuring time
        if enough and (time.monotonic() - start + seconds
                       + calibrations[-1] > args.seconds):
            break

    result = {"ready": READY, "walls": walls, "cpus": cpus,
              "traced_walls": traced_walls, "scaled_walls": scaled,
              "traced_scaled_walls": traced_scaled,
              "calibrations": calibrations,
              "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems[:20],
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "provenance": library_provenance()}
    if tracers:
        result.update(summarize(tracers))
        write_spans(tracers, os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{args.seed}-trace1.jsonl"))
    print(json.dumps(result))
    return 0


def summarize(tracers):
    """Per-pass means of span stats and counts over the traced passes."""
    n = len(tracers)
    spans = {name: [sum(t.stats[name][k] for t in tracers) / n
                    for k in range(3)]
             for name in tracers[0].stats}
    counts, derive_errors = Counter(), Counter()
    for t in tracers:
        counts.update(t.counts)
        derive_errors.update(t.derive_errors)
    return {"n_traced": n, "spans": spans,
            "counts": {k: v / n for k, v in counts.items()},
            "ratios": ratios(counts), "absent": tracers[0].absent,
            "derive_errors": dict(derive_errors)}


def write_spans(tracers, path):
    """Span records of every traced pass, one JSON line per span, with the
    pass index as the trace identifier."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for i, t in enumerate(tracers):
            for span_id, parent, name, start, end in t.spans:
                fh.write(json.dumps({"pass": i, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())

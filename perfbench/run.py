"""spinbath benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload echo-ensemble --seed 3 \\
        --seconds 24 --trace 0

Run from the root of a source checkout (the package is imported from
src/).  --trace 0 reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); --trace 1 reports the per-layer spans and counters of
tracer.HOOKS plus trace_overhead_frac.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it gives
every metric with its unit and error_frac.  Provenance and the full result
go to .perfbench/ in the checkout.  Exits 1 when any unit failed or an
output differed from the reference, and 2 when there is no source tree.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
# The same names as workloads.WORKLOADS; listed here so that this process
# never imports the package it times.
WORKLOADS = ("echo-ensemble", "oracle-dense", "mle-library", "yield-slices")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 4
DEADLINE_S = 170.0
# One BLAS thread: the calls are small, and a pinned count keeps runs on a
# shared machine comparable.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
PROBE = ("import sys, time; sys.path.insert(0, 'src'); import spinbath; "
         "print(time.monotonic())")


def child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def setup_sample(timeout):
    """Seconds from starting a fresh interpreter to `import spinbath`
    done."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=timeout, check=True)
    return float(done.stdout.split()[-1]) - start


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, worker_prov):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cpu": cpu_model(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_commit": git_commit(), "source_sha256": source_digest(),
            "child_env": CHILD_ENV, **worker_prov}


def per_layer_units():
    """Every --trace 1 metric and its unit, in report order."""
    from tracer import COUNT_NAMES, RATIO_NAMES, SPAN_NAMES
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s",
                      f"{name}.self_s": "s"})
    units.update({name: "count" for name in COUNT_NAMES})
    units["cce.kernel_macs"] = "computed_MAC"  # a cost model, not measured
    units.update({name: "fraction" for name in RATIO_NAMES})
    units["trace_overhead_frac"] = "fraction"
    return units


def span_metrics(result, untraced_wall):
    values = {"trace_overhead_frac":
              statistics.fmean(result["traced_scaled_walls"])
              / untraced_wall - 1.0,
              **result["ratios"]}
    for name, (calls, total, self_s) in result["spans"].items():
        values.update({f"{name}.calls": calls, f"{name}.total_s": total,
                       f"{name}.self_s": self_s})
    return {name: (values.get(name, result["counts"].get(name, 0)), unit)
            for name, unit in per_layer_units().items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "spinbath",
                                       "__init__.py")):
        print(f"error: no spinbath source tree under {ROOT}/src",
              file=sys.stderr)
        return 2

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    setup = [setup_sample(remaining()) for _ in range(SETUP_PROBES)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=remaining())
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    sys.stderr.write(done.stderr)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    setup.append(result["ready"] - spawned)
    if not result["walls"] or (args.trace and not result["traced_walls"]):
        for problem in result["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1

    # the mean pass, each scaled to the machine's speed by the calibrations
    # around it: the shared machine's speed drifts by more than a bound
    # over the minutes a set of runs takes (README.md, Steadiness)
    wall = statistics.fmean(result["scaled_walls"])
    if args.trace:
        metrics = span_metrics(result, wall)
    else:
        values = {"wall_s": wall, "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["maxrss_kb"] / 1024.0}
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    attempted, failed = result["attempted"], result["failed"]
    prov = provenance(args, result.pop("provenance"))
    report = {"provenance": prov, "setup_samples": setup,
              "error_frac": failed / attempted, "worker": result,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if result.get("absent"):
        print(f"absent hook targets: {', '.join(result['absent'])}",
              file=sys.stderr)
    if result.get("derive_errors"):
        print(f"counters not derived: {result['derive_errors']}",
              file=sys.stderr)
    print("provenance " + json.dumps(prov))
    shown = {"trace_overhead_frac": metrics["trace_overhead_frac"]} \
        if args.trace else dict(metrics)
    shown["error_frac"] = (failed / attempted, "fraction")
    print("  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in shown.items())
          + f"  ({failed}/{attempted} units failed, "
          f"{len(result['walls']) + len(result['traced_walls'])} passes)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

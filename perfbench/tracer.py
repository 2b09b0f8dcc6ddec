"""Spans and counters recorded around spinbath's public functions.

The tracer never edits the package: it swaps the public names listed in
HOOKS for timing wrappers while a trace is active and puts the originals
back on exit.  A function is replaced in its home module and in every
``spinbath.*`` module that bound the same object by name (``yields`` and
``fitting`` import ``partition_strong_weak``, ``validation`` imports
``cce_coherence`` and ``generate_bath``, ...), so calls made through any of
those bindings are seen.  A target that no longer exists is reported as
absent and skipped.

Each span records its name, start, end and parent; per name the tracer
keeps the call count, total time and self time (duration minus the time
covered by direct child spans).  Counters are derived from arguments and
return values only.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter


def _clusters_seen(tracer, args, kwargs, result, exc, children):
    sizes = Counter(len(c) for c in result)
    tracer.count("cce.clusters", len(result))
    for k, n in sizes.items():
        tracer.count(f"cce.clusters.k{k}", n)
    # kernel_macs of the enclosing cce_coherence call needs these sizes
    tracer.scratch["cluster_sizes"] = sizes


def _coherence_done(tracer, args, kwargs, result, exc, children):
    cce = args[1] if len(args) > 1 else kwargs["cce"]
    states = cce.n_bath_states if cce.bath_state_mode == "sample" else 1
    nt = len(cce.time_grid)
    sizes = tracer.scratch.pop("cluster_sizes", Counter())
    # computed, not measured: 3 * 4^k multiply-adds per cluster, state and
    # time point, the cost model of one 2^k-dimensional block propagation
    tracer.count("cce.kernel_macs",
                 sum(n * states * nt * 3 * 4**k for k, n in sizes.items()))
    meta = result.metadata
    points = meta.get("n_clusters", 0) * nt * states
    tracer.count("cce.floored_points", meta["floored_fraction"] * points)
    tracer.count("cce.cluster_points", points)


def _t2star_samples(tracer, args, kwargs, result, exc, children):
    times = result[0] if isinstance(result, tuple) else result
    tracer.count("cce.t2star_infinite",
                 sum(1 for v in times if math.isinf(v)))


def _eigh_matrices(tracer, args, kwargs, result, exc, children):
    shape = getattr(args[0] if args else kwargs["a"], "shape", ())
    tracer.count("numpy.linalg.eigh.matrices", math.prod(shape[:-2]))


def _bath_spins(tracer, args, kwargs, result, exc, children):
    tracer.count("bath.spins", len(result))


def _fit_outcome(tracer, args, kwargs, result, exc, children):
    if exc is not None or not result.converged:
        tracer.count("fitting.fit_failed", 1)


def _pdf_lookup(tracer, args, kwargs, result, exc, children):
    # a hit is a lookup that constructed no RatePDF below it
    tracer.count("mle.pdf_lookups", 1)
    if not children.get("mle.RatePDF"):
        tracer.count("mle.pdf_hits", 1)


# (span name, module, attribute path, derive).  derive(tracer, args,
# kwargs, result, exc, children) runs after the call; `children` holds the
# call counts of the span's direct child spans by name.
HOOKS = (
    ("bath.generate_bath", "spinbath.bath", "generate_bath", _bath_spins),
    ("bath.slice_bath", "spinbath.bath", "slice_bath", None),
    ("bath.keep_nearest", "spinbath.bath", "keep_nearest", None),
    ("cce.cce_coherence", "spinbath.cce", "cce_coherence", _coherence_done),
    ("cce.enumerate_clusters", "spinbath.cce", "enumerate_clusters",
     _clusters_seen),
    ("cce.cluster_contribution", "spinbath.cce", "cluster_contribution", None),
    ("cce.partition_strong_weak", "spinbath.cce", "partition_strong_weak",
     None),
    ("cce.simulate_observable", "spinbath.cce", "simulate_observable",
     _t2star_samples),
    ("hamiltonian.build_cluster_hamiltonian", "spinbath.hamiltonian",
     "build_cluster_hamiltonian", None),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh", _eigh_matrices),
    ("fitting.fit_stretched_exponential", "spinbath.fitting",
     "fit_stretched_exponential", _fit_outcome),
    ("fitting.run_sweep", "spinbath.fitting", "run_sweep", None),
    ("mle.build_library", "spinbath.mle", "build_library", None),
    ("mle.likelihood_surface", "spinbath.mle", "likelihood_surface", None),
    ("mle.estimate_density", "spinbath.mle", "estimate_density", None),
    ("mle.benchmark_error", "spinbath.mle", "benchmark_error", None),
    ("mle.RatePDF", "spinbath.mle", "RatePDF.__init__", None),
    ("mle.CoherenceLibrary.pdf", "spinbath.mle", "CoherenceLibrary.pdf",
     _pdf_lookup),
    ("yields.yield_sweep", "spinbath.yields", "yield_sweep", None),
    ("yields.visibility_ratio_2d3d", "spinbath.yields",
     "visibility_ratio_2d3d", None),
    ("validation.ensemble_echo_fit", "spinbath.validation",
     "ensemble_echo_fit", None),
    ("validation.dense_echo_reference", "spinbath.validation",
     "dense_echo_reference", None),
)

SPAN_NAMES = tuple(h[0] for h in HOOKS)
CLUSTER_SIZES = range(1, 7)
COUNT_NAMES = (
    ("cce.clusters",) + tuple(f"cce.clusters.k{k}" for k in CLUSTER_SIZES)
    + ("cce.kernel_macs", "numpy.linalg.eigh.matrices", "bath.spins",
       "cce.t2star_infinite", "fitting.fit_failed")
)
RATIO_NAMES = ("cce.floored_frac", "mle.pdf_cache_hit_ratio")


def ratios(counts):
    """The RATIO_NAMES values from summed counts (0 when nothing ran)."""
    def share(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0
    return {"cce.floored_frac": share("cce.floored_points",
                                      "cce.cluster_points"),
            "mle.pdf_cache_hit_ratio": share("mle.pdf_hits", "mle.pdf_lookups")}


def resolve(module, path):
    """(owner, attribute, original) for a hook target, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def bindings(owner, attr, original):
    """Every (namespace, attribute) that refers to the hook target: the
    owner itself and, for module-level functions, each loaded spinbath
    module that imported the same object under the same name."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for name, mod in list(sys.modules.items()):
        if mod is owner or mod is None:
            continue
        if name != "spinbath" and not name.startswith("spinbath."):
            continue
        if getattr(mod, attr, None) is original:
            found.append((mod, attr))
    return found


class Tracer:
    """Records spans and counters while active (use as a context manager).

    ``hooks`` defaults to HOOKS; tests pass their own table.
    """

    def __init__(self, hooks=HOOKS, clock=time.perf_counter):
        self.hooks = hooks
        self.clock = clock
        self.spans = []  # (id, parent id, name, start, end)
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in hooks}
        self.counts = Counter()
        self.scratch = {}
        self.absent = []
        self.derive_errors = Counter()
        self._stack = []  # [id, child seconds, child call counts]
        self._saved = []  # (namespace, attribute, original)

    def count(self, name, n):
        self.counts[name] += n

    def wrap(self, name, fn, derive=None):
        clock = self.clock
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, Counter()]
            self.spans.append(None)  # reserve the id in call order
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                self.spans[span_id] = (span_id, parent[0] if parent else None,
                                       name, start, end)
                if parent is not None:
                    parent[1] += duration
                    parent[2][name] += 1
                if derive is not None:
                    try:
                        derive(self, args, kwargs, result, exc, frame[2])
                    except Exception:
                        self.derive_errors[name] += 1

        return traced

    def __enter__(self):
        for name, module, path, derive in self.hooks:
            target = resolve(module, path)
            if target is None:
                self.absent.append(name)
                continue
            owner, attr, original = target
            wrapper = self.wrap(name, original, derive)
            for namespace, binding in bindings(owner, attr, original):
                self._saved.append((namespace, binding, original))
                setattr(namespace, binding, wrapper)
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            setattr(*self._saved.pop())
        return False

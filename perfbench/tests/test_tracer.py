"""Tracer behaviour: self time, call counts, patching and restoring."""

import itertools
import sys
import types

import pytest

import spinbath  # noqa: F401  (loads every module the hooks patch)
from tracer import HOOKS, Tracer, bindings, resolve
from workloads import WORKLOADS


@pytest.fixture
def nest():
    """A fake module: outer() calls inner() twice, inner() calls leaf()."""
    mod = types.ModuleType("fake_nest")

    def leaf():
        return 1

    def inner():
        return mod.leaf() + 1

    def outer():
        return mod.inner() + mod.inner()

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    sys.modules["fake_nest"] = mod
    yield mod
    del sys.modules["fake_nest"]


NEST_HOOKS = tuple((name, "fake_nest", name, None)
                   for name in ("outer", "inner", "leaf"))


def test_self_time_is_total_minus_children(nest):
    ticks = itertools.count()
    tracer = Tracer(hooks=NEST_HOOKS, clock=lambda: float(next(ticks)) ** 1.5)
    with tracer:
        assert nest.outer() == 4
    stats = tracer.stats
    assert [stats[n][0] for n in ("outer", "inner", "leaf")] == [1, 2, 2]
    assert stats["leaf"][2] == stats["leaf"][1]
    assert stats["inner"][2] == pytest.approx(
        stats["inner"][1] - stats["leaf"][1], abs=1e-12)
    assert stats["outer"][2] == pytest.approx(
        stats["outer"][1] - stats["inner"][1], abs=1e-12)
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, parent, name, start, end in tracer.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[3] <= start <= end <= p[4]
    assert [by_id[s[1]][2] for s in tracer.spans if s[2] == "leaf"] == \
        ["inner", "inner"]


def test_absent_targets_are_reported_not_fatal(nest):
    hooks = NEST_HOOKS + (("gone", "fake_nest", "no_such_function", None),
                          ("gone.module", "no_such_module_xyz", "f", None),
                          ("gone.method", "fake_nest", "Missing.method",
                           None))
    with Tracer(hooks=hooks) as tracer:
        nest.outer()
    assert tracer.absent == ["gone", "gone.module", "gone.method"]
    assert tracer.stats["outer"][0] == 1


def test_every_binding_is_patched_then_restored():
    targets = [resolve(module, path) for _, module, path, _ in HOOKS]
    assert all(t is not None for t in targets)
    before = [(ns, attr, original) for owner, attr, original in targets
              for ns, attr in bindings(owner, attr, original)]
    names = {(ns.__name__, attr) for ns, attr, _ in before}
    # the re-exports the tracer must follow, not only the home modules
    assert {("spinbath.yields", "partition_strong_weak"),
            ("spinbath.fitting", "partition_strong_weak"),
            ("spinbath.validation", "cce_coherence"),
            ("spinbath.validation", "generate_bath"),
            ("spinbath", "generate_bath")} <= names
    with Tracer():
        for ns, attr, original in before:
            current = ns.__dict__[attr] if isinstance(ns, type) \
                else getattr(ns, attr)
            assert current is not original, (ns, attr)
    for ns, attr, original in before:
        current = ns.__dict__[attr] if isinstance(ns, type) \
            else getattr(ns, attr)
        assert current is original, (ns, attr)


def test_wrappers_are_removed_when_the_pass_raises():
    import spinbath.bath as bath
    original = bath.generate_bath
    with pytest.raises(AttributeError):
        with Tracer():
            bath.generate_bath(None, 0)
    assert bath.generate_bath is original


def test_span_calls_match_independent_counts():
    w = WORKLOADS["yield-slices"]
    with Tracer() as tracer:
        w.run(5, **w.tiny)
    configs, vis = w.tiny["configs"], w.tiny["visibility_configs"]
    calls = {name: s[0] for name, s in tracer.stats.items()}
    assert calls["yields.yield_sweep"] == 1
    assert calls["yields.visibility_ratio_2d3d"] == 1
    assert calls["bath.generate_bath"] == configs + 2 * vis
    assert calls["bath.slice_bath"] == configs * 10
    assert 0 < calls["cce.partition_strong_weak"] <= configs * 10

    w = WORKLOADS["echo-ensemble"]
    with Tracer() as tracer:
        w.run(5, **w.tiny)
    n = 2 * w.tiny["configs"]
    for name in ("cce.cce_coherence", "cce.enumerate_clusters",
                 "bath.generate_bath", "bath.keep_nearest",
                 "fitting.fit_stretched_exponential"):
        assert tracer.stats[name][0] == n
    spins = w.tiny["spins"]
    assert tracer.counts["cce.clusters.k1"] == n * spins
    assert tracer.counts["cce.clusters.k2"] == n * spins * (spins - 1) // 2
    assert tracer.counts["cce.clusters"] == \
        tracer.counts["cce.clusters.k1"] + tracer.counts["cce.clusters.k2"]


def test_oracle_baths_always_hold_six_spins():
    # check seed 16 * 105 alone gives a 4-spin bath; the workload moves on
    w = WORKLOADS["oracle-dense"]
    with Tracer() as tracer:
        w.run(105, **w.tiny)
    # orders 2, 4 and 6 on 6 spins: 6 singles each, one 6-spin cluster
    assert tracer.counts["cce.clusters.k1"] == 18
    assert tracer.counts["cce.clusters.k6"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    w = WORKLOADS[name]
    originals = [resolve(module, path) for _, module, path, _ in HOOKS]
    plain = w.run(2, **w.tiny)
    with Tracer() as tracer:
        traced = w.run(2, **w.tiny)
    assert traced.text == plain.text
    assert not tracer.absent and not tracer.derive_errors
    assert sum(s[0] for s in tracer.stats.values()) > 0
    assert [resolve(module, path) for _, module, path, _ in HOOKS] == \
        originals

import io
import multiprocessing
import threading
import time
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath.cce as cce_module
from spinbath.bath import (
    BathConfiguration,
    BathGeometry,
    default_lateral_radius,
    generate_bath,
    keep_nearest,
    slice_bath,
)
from spinbath.cce import (
    DIVISION_FLOOR,
    HAHN_ECHO,
    MAX_CCE_SPINS,
    MAX_FULL_CLUSTER_SPINS,
    RAMSEY,
    CCEConfig,
    StrongWeakPartition,
    CoherenceCurve,
    PulseSequence,
    cce_coherence,
    cluster_contribution,
    enumerate_clusters,
    ensemble_coherence,
    partition_strong_weak,
    ramsey_product_of_cosines,
    read_curve,
    sequence_by_name,
    spawn_seed,
    write_curve,
)
from spinbath.constants import CONSTANTS, DEFAULTS
from spinbath.hamiltonian import SPIN1_M_ORDER, build_cluster_hamiltonian
from spinbath.validation import check_exact_propagation, dense_echo_reference


def small_bath(seed=0, n=4, ppm=20.0, excl=2.0):
    geom = BathGeometry(ppm, 25.0, default_lateral_radius(ppm, 25.0, 12),
                        "continuum-poisson")
    return keep_nearest(generate_bath(geom, seed, exclusion_radius=excl), n)


# --- pulse sequences ----------------------------------------------------

def test_sequence_segments():
    assert RAMSEY.segments == (1.0,)
    assert HAHN_ECHO.segments == (0.5, 0.5)


def test_sequence_by_name():
    assert sequence_by_name("hahn-echo") is HAHN_ECHO
    assert sequence_by_name("Ramsey") is RAMSEY
    with pytest.raises(ValueError):
        sequence_by_name("cpmg17")


@given(frac=st.floats(-2, 2))
@settings(max_examples=40, deadline=None)
def test_pulse_fraction_validation(frac):
    if 0.0 < frac < 1.0:
        PulseSequence(kind="x", pi_pulse_fractions=(frac,))
    else:
        with pytest.raises(ValueError):
            PulseSequence(kind="x", pi_pulse_fractions=(frac,))


def test_pulse_fractions_must_increase():
    with pytest.raises(ValueError):
        PulseSequence(kind="x", pi_pulse_fractions=(0.6, 0.4))


# --- configuration validation ------------------------------------------

def test_cce_config_validation():
    t = np.linspace(0, 1, 10)
    with pytest.raises(ValueError):
        CCEConfig(order=0, dipole_radius=1.0, n_bath_states=1, time_grid=t)
    with pytest.raises(ValueError):
        CCEConfig(order=2, dipole_radius=1.0, n_bath_states=0, time_grid=t)
    with pytest.raises(ValueError):
        CCEConfig(order=2, dipole_radius=1.0, n_bath_states=1,
                  time_grid=t[::-1])
    with pytest.raises(ValueError):
        CCEConfig(order=2, dipole_radius=1.0, n_bath_states=1, time_grid=t,
                  mode="heuristic")


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
def test_cce_config_rejects_bad_dipole_radius(radius):
    with pytest.raises(ValueError, match="dipole_radius must be positive"):
        CCEConfig(order=2, dipole_radius=radius, n_bath_states=1,
                  time_grid=np.linspace(0, 1, 10))


def test_coherence_curve_normalization_guard():
    t = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        CoherenceCurve(times=t, values=np.array([0.5, 0.2], complex))


# --- cluster enumeration -----------------------------------------------

def test_cluster_counts_complete_graph():
    cfg = small_bath(seed=1, n=5)
    for order in (1, 2, 3):
        clusters = enumerate_clusters(cfg, order, 1e9)
        expect = sum(len(list(combinations(range(5), k)))
                     for k in range(1, order + 1))
        assert len(clusters) == expect
        assert len(set(clusters)) == len(clusters)


def test_cluster_radius_disconnects():
    cfg = small_bath(seed=1, n=5)
    clusters = enumerate_clusters(cfg, 3, 1e-6)
    assert clusters == [(i,) for i in range(5)]


def connected_subsets_reference(pos, order, radius):
    """Brute force: every subset of size <= order whose members are joined
    by a breadth-first search over distance <= radius."""
    n = len(pos)
    near = np.sum((pos[:, None] - pos[None]) ** 2, axis=-1) <= radius**2
    out = []
    for k in range(1, order + 1):
        for c in combinations(range(n), k):
            reached, frontier = {c[0]}, [c[0]]
            while frontier:
                v = frontier.pop()
                for u in c:
                    if u not in reached and near[v, u]:
                        reached.add(u)
                        frontier.append(u)
            if len(reached) == k:
                out.append(c)
    return out


@pytest.mark.parametrize("seed,quantile", [(2, 0.15), (3, 0.3), (4, 0.5)])
def test_clusters_match_brute_force(seed, quantile):
    cfg = small_bath(seed=seed, n=14, ppm=40.0)
    pos = cfg.positions
    pairs = np.triu_indices(len(pos), 1)
    radius = np.quantile(np.linalg.norm(pos[pairs[0]] - pos[pairs[1]], axis=-1),
                         quantile)
    expect = connected_subsets_reference(cfg.positions, 3, radius)
    assert enumerate_clusters(cfg, 3, radius) == expect
    assert any(len(c) == 3 for c in expect)
    assert len(expect) < sum(len(list(combinations(range(14), k)))
                             for k in (1, 2, 3))


def line_bath(n, spacing=1.0):
    positions = np.zeros((n, 3))
    positions[:, 0] = spacing * (np.arange(n) + 1)
    return BathConfiguration(central_position=np.zeros(3), positions=positions,
                             jt_axes=np.zeros(n, int),
                             nuclear_m=np.full(n, 0.5),
                             geometry=BathGeometry(1.0, 1.0, 1.0), seed=0)


def test_clusters_on_long_chain_beyond_int64_keys():
    # 1500**6 > 2**63: the level keys fall back to Python integers
    n, order = 1500, 6
    clusters = enumerate_clusters(line_bath(n), order, 1.5)
    assert clusters == [tuple(range(i, i + k)) for k in range(1, order + 1)
                        for i in range(n - k + 1)]


def test_cluster_guard_at_exact_count():
    cfg = small_bath(seed=1, n=5)
    assert len(enumerate_clusters(cfg, 2, 1e9, max_clusters=15)) == 15
    with pytest.raises(RuntimeError):
        enumerate_clusters(cfg, 2, 1e9, max_clusters=14)


def test_clusters_are_connected():
    cfg = small_bath(seed=2, n=6)
    radius = 6.0
    pos = cfg.positions
    for c in enumerate_clusters(cfg, 3, radius):
        if len(c) == 1:
            continue
        # breadth-first reachability within the cluster
        reached = {c[0]}
        frontier = [c[0]]
        while frontier:
            v = frontier.pop()
            for u in c:
                if u not in reached and np.linalg.norm(pos[v] - pos[u]) <= radius:
                    reached.add(u)
                    frontier.append(u)
        assert reached == set(c)


# --- batched secular kernel against the per-time-point loop --------------

def reference_cluster_curves(H0, H1, state_bits, cluster_sets, sequence,
                             time_grid, exact=False):
    """The secular cluster kernel evaluated one time point at a time."""
    cluster_sets = np.asarray(cluster_sets, dtype=int)
    ncl, k = cluster_sets.shape
    d = 2**k
    t = np.asarray(time_grid, dtype=float)
    nt = len(t)
    E0, V0 = np.linalg.eigh(H0)
    E1, V1 = np.linalg.eigh(H1)
    M = np.einsum("cpi,cpj->cij", V1, V0)
    out = np.empty((ncl, nt), dtype=complex)
    if not exact:
        idx = cce_module._state_index(state_bits, cluster_sets, k)
        a = V0[np.arange(ncl), idx, :]
        b = V1[np.arange(ncl), idx, :]
    if sequence.kind == "Ramsey":
        if exact:
            W = (M**2) / d
            dE = E1[:, :, None] - E0[:, None, :]
            for it, tt in enumerate(t):
                out[:, it] = np.sum(W * np.exp(1j * dE * tt), axis=(1, 2))
            return out
        for it, tt in enumerate(t):
            x = a * np.exp(-1j * E0 * tt)
            y = np.einsum("cij,cj->ci", M, x)
            out[:, it] = np.sum(b * np.exp(-1j * E1 * tt).conj() * y, axis=1)
        return out
    for it, tv in enumerate(t / 2.0):
        p0 = np.exp(-1j * E0 * tv)
        p1 = np.exp(-1j * E1 * tv)
        if exact:
            X = np.einsum("cqp,cq,cqr->cpr", M, p1, M)
            X = p0[:, :, None] * X
            Y = np.einsum("cqp,cq,cqr->cpr", M, p1.conj(), M)
            Y = p0[:, :, None].conj() * Y
            out[:, it] = np.einsum("cpr,crp->c", Y, X) / d
        else:
            w = np.einsum("cji,cj->ci", M, p1 * b)
            w = np.einsum("cij,cj->ci", M, p0 * w)
            w = np.einsum("cji,cj->ci", M, p1.conj() * w)
            out[:, it] = np.sum(a * p0.conj() * w, axis=1)
    return out


def reference_telescope(l_raw, clusters):
    """Irreducible contributions one cluster at a time, with the proper
    subsets looked up in a dict; returns (ltilde, floored points)."""
    index = {c: i for i, c in enumerate(clusters)}
    ltilde = np.empty_like(l_raw)
    floored = 0
    for ci, c in enumerate(clusters):
        denom = np.ones(l_raw.shape[1], dtype=complex)
        for size in range(1, len(c)):
            for sub in combinations(c, size):
                if sub in index:
                    denom = denom * ltilde[index[sub]]
        bad = np.abs(denom) < DIVISION_FLOOR
        safe = np.where(bad, 1.0, denom)
        ltilde[ci] = np.where(bad, 1.0, l_raw[ci] / safe)
        floored += int(np.count_nonzero(bad))
    return ltilde, floored


def dense_test_bath(n=30, seed=4, ppm=50.0):
    p1 = DEFAULTS.p1("n14")
    geom = BathGeometry(ppm, 12.0, default_lateral_radius(ppm, 12.0, 1.5 * n))
    return keep_nearest(generate_bath(
        geom, seed, nuclear_projections=p1.nuclear_projections), n)


def kernel_inputs(size, n_sets=400):
    """(H0, H1, state bits, cluster sets, time grid) of up to n_sets
    random-field clusters of `size` spins of dense_test_bath()."""
    cfg = dense_test_bath()
    rng = np.random.default_rng(size)
    sets = np.array([c for c in enumerate_clusters(cfg, size, 1e9)
                     if len(c) == size][:n_sets])
    pos = cfg.positions
    rel = pos[:, None] - pos[None]
    r = np.linalg.norm(rel, axis=-1)
    np.fill_diagonal(r, np.inf)
    jzz = 5e4 / r**3
    azz = rng.normal(size=len(cfg)) * 300.0
    eps = rng.normal(size=sets.shape) * 100.0
    H0, H1 = cce_module._secular_blocks(sets, eps, azz, jzz, (0, -1))
    bits = rng.integers(0, 2, len(cfg))
    t = np.concatenate([[0.0], np.geomspace(1e-5, 0.05, 40)])
    return H0, H1, bits, sets, t


@pytest.mark.parametrize("sequence", [HAHN_ECHO, RAMSEY])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_batched_kernel_bit_identical(sequence, exact, size):
    H0, H1, bits, sets, t = kernel_inputs(size)
    new = cce_module._secular_cluster_curves(H0, H1, bits, sets, sequence, t,
                                             exact=exact)
    ref = reference_cluster_curves(H0, H1, bits, sets, sequence, t,
                                   exact=exact)
    if exact:
        # the kernel averages evolved basis states; the reference takes
        # the trace algebraically, so only rounding differs
        assert np.max(np.abs(new - ref)) <= 1e-12
    else:
        assert np.array_equal(new, ref)


@pytest.mark.parametrize("sequence", [HAHN_ECHO, RAMSEY])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_kernel_values_do_not_depend_on_worker_count(monkeypatch, sequence,
                                                     exact, size):
    # a prime cluster count is not a multiple of any chunk size above 1,
    # and small chunks give every case several of them
    H0, H1, bits, sets, t = kernel_inputs(size, n_sets=29 if size == 1 else 397)
    monkeypatch.setattr(cce_module, "_KERNEL_CHUNK", 2**10)
    curves = []
    for workers in (1, 2, 3, len(sets) + 1):
        monkeypatch.setattr(cce_module, "_WORKERS", workers)
        curves.append(cce_module._secular_cluster_curves(
            H0, H1, bits, sets, sequence, t, exact=exact))
    for other in curves[1:]:
        assert np.array_equal(other, curves[0])


def test_eigh_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(cce_module, "_WORKERS", 2)
    eigh, contract = np.linalg.eigh, cce_module._contract
    eigh_threads, kernel_threads = set(), set()

    def recorded_eigh(*args, **kwargs):
        eigh_threads.add(threading.get_ident())
        return eigh(*args, **kwargs)

    def recorded_contract(*args, **kwargs):
        kernel_threads.add(threading.get_ident())
        return contract(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    monkeypatch.setattr(cce_module, "_contract", recorded_contract)
    t = np.concatenate([[0.0], np.geomspace(1e-4, 0.05, 30)])
    cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=2, time_grid=t)
    cce_coherence(dense_test_bath(), cce, HAHN_ECHO, seed=3,
                  p1=DEFAULTS.p1("n14"))
    assert eigh_threads == {threading.get_ident()}
    # the pairs' chunks ran on the pool
    assert kernel_threads - eigh_threads


def test_kernel_worker_exception_reaches_caller(monkeypatch):
    monkeypatch.setattr(cce_module, "_WORKERS", 2)
    caller = threading.get_ident()
    contract = cce_module._contract

    def failing_off_the_caller(*args, **kwargs):
        if threading.get_ident() != caller:
            raise RuntimeError("chunk failed")
        return contract(*args, **kwargs)

    monkeypatch.setattr(cce_module, "_contract", failing_off_the_caller)
    H0, H1, bits, sets, t = kernel_inputs(2)
    with pytest.raises(RuntimeError, match="chunk failed"):
        cce_module._secular_cluster_curves(H0, H1, bits, sets, HAHN_ECHO, t)


def test_kernel_call_ends_after_every_group(monkeypatch):
    # one group fails at once while the other is still in a chunk: the
    # error reaches the caller only after that chunk has finished
    monkeypatch.setattr(cce_module, "_WORKERS", 2)
    contract = cce_module._contract
    lock = threading.Lock()
    calls = []
    slow_chunk_done = threading.Event()

    def first_fails_second_is_slow(*args, **kwargs):
        with lock:
            calls.append(None)
            n = len(calls)
        if n == 1:
            raise RuntimeError("chunk failed")
        if n == 2:
            time.sleep(0.2)
            slow_chunk_done.set()
        return contract(*args, **kwargs)

    monkeypatch.setattr(cce_module, "_contract", first_fails_second_is_slow)
    H0, H1, bits, sets, t = kernel_inputs(2)
    with pytest.raises(RuntimeError, match="chunk failed"):
        cce_module._secular_cluster_curves(H0, H1, bits, sets, HAHN_ECHO, t)
    assert slow_chunk_done.is_set()


def test_kernel_workers_use_the_callers_error_state(monkeypatch):
    monkeypatch.setattr(cce_module, "_WORKERS", 2)
    contract = cce_module._contract
    seen = []

    def recorded(*args, **kwargs):
        seen.append((threading.get_ident(), np.geterr()["over"]))
        return contract(*args, **kwargs)

    monkeypatch.setattr(cce_module, "_contract", recorded)
    H0, H1, bits, sets, t = kernel_inputs(2)
    with np.errstate(over="raise"):
        cce_module._secular_cluster_curves(H0, H1, bits, sets, HAHN_ECHO, t)
    assert threading.get_ident() not in {ident for ident, _ in seen}
    assert {state for _, state in seen} == {"raise"}


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_kernel_runs_in_a_forked_child(monkeypatch):
    monkeypatch.setattr(cce_module, "_WORKERS", 2)
    H0, H1, bits, sets, t = kernel_inputs(2)

    def curves():
        return cce_module._secular_cluster_curves(H0, H1, bits, sets,
                                                  HAHN_ECHO, t)

    expected = curves()  # starts the pool in this process
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=lambda: results.put(curves()))
    child.start()
    try:
        got = results.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("sequence", [HAHN_ECHO, RAMSEY])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_thermal_kernel_is_mean_over_basis_states(sequence, size):
    cfg = dense_test_bath(n=6)
    rng = np.random.default_rng(10 + size)
    sets = np.arange(size)[None, :]
    pos = cfg.positions
    r = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
    np.fill_diagonal(r, np.inf)
    H0, H1 = cce_module._secular_blocks(
        sets, rng.normal(size=sets.shape) * 100.0,
        rng.normal(size=len(cfg)) * 300.0, 5e4 / r**3, (0, -1))
    t = np.concatenate([[0.0], np.geomspace(1e-5, 0.05, 40)])
    thermal = cce_module._secular_cluster_curves(H0, H1, None, sets,
                                                 sequence, t, exact=True)
    acc = np.zeros(len(t), dtype=complex)
    for state in range(2**size):
        bits = np.zeros(len(cfg), dtype=int)
        bits[:size] = (state >> np.arange(size)) & 1
        acc += cce_module._secular_cluster_curves(H0, H1, bits, sets,
                                                  sequence, t)[0]
    assert np.max(np.abs(thermal[0] - acc / 2**size)) <= 1e-15


@pytest.mark.parametrize("order", [2, 3])
def test_cce_coherence_bit_identical_to_reference_path(monkeypatch, order):
    cfg = dense_test_bath()
    t = np.concatenate([[0.0], np.geomspace(1e-4, 0.05, 30)])
    cce = CCEConfig(order=order, dipole_radius=1e9, n_bath_states=2,
                    time_grid=t)
    p1 = DEFAULTS.p1("n14")
    new = cce_coherence(cfg, cce, HAHN_ECHO, seed=3, p1=p1)

    raw = []

    def recorded_reference(*args, **kwargs):
        raw.append(reference_cluster_curves(*args, **kwargs))
        return raw[-1]

    monkeypatch.setattr(cce_module, "_secular_cluster_curves",
                        recorded_reference)
    cce_coherence(cfg, cce, HAHN_ECHO, seed=3, p1=p1)
    clusters = enumerate_clusters(cfg, order, 1e9)
    per_state = np.split(np.concatenate(raw), 2)
    total = np.zeros(len(t), dtype=complex)
    for l_raw in per_state:
        ltilde, floored = reference_telescope(l_raw, clusters)
        prod = np.ones(len(t), dtype=complex)
        for row in ltilde:
            prod = prod * row
        total += prod
    assert np.array_equal(new.values, total / 2)
    assert new.metadata["floored_fraction"] == 0.0


def test_telescope_floors_like_the_loop():
    clusters = enumerate_clusters(small_bath(seed=1, n=6), 3, 1e9)
    rng = np.random.default_rng(5)
    nt = 25
    l_raw = np.exp(1j * rng.normal(size=(len(clusters), nt))) \
        * rng.uniform(0.5, 1.0, size=(len(clusters), nt))
    l_raw[:6, ::3] *= 1e-6  # singles so small that pairs hit the floor
    ltilde, floored = reference_telescope(l_raw, clusters)
    levels = cce_module._cluster_levels(clusters)
    values = np.vstack([l_raw, np.ones(nt)])
    got = cce_module._telescope(
        values, levels, cce_module._subset_tables(levels, 6, len(clusters)))
    assert floored > 0
    assert got == floored
    assert np.array_equal(values[:-1], ltilde)


def test_floored_fraction_warns(monkeypatch):
    cfg = small_bath(seed=2, n=5)
    t = np.linspace(0.0, 0.02, 6)

    def vanishing(H0, *args, **kwargs):
        out = np.zeros((len(H0), len(t)), dtype=complex)
        out[:, 0] = 1.0
        return out

    monkeypatch.setattr(cce_module, "_secular_cluster_curves", vanishing)
    cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=1, time_grid=t)
    with pytest.warns(RuntimeWarning, match="floored"):
        curve = cce_coherence(cfg, cce, HAHN_ECHO, seed=0)
    assert curve.metadata["warning"] == \
        "more than 1% of cluster contributions floored"
    assert curve.metadata["floored_fraction"] > 0.01


def test_cce_rejects_oversized_bath(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the size guard must come first")

    monkeypatch.setattr(cce_module, "enumerate_clusters", never)
    cfg = line_bath(MAX_CCE_SPINS + 1)
    cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=1,
                    time_grid=np.linspace(0.0, 0.01, 5))
    with pytest.raises(ValueError, match=str(MAX_CCE_SPINS)):
        cce_coherence(cfg, cce, HAHN_ECHO, seed=0)


# --- analytic order-1 Ramsey -------------------------------------------

def test_cce1_matches_analytic():
    t = np.linspace(0.0, 0.02, 30)
    for seed in range(5):
        cfg = small_bath(seed=seed, n=8, ppm=10.0)
        cce = CCEConfig(order=1, dipole_radius=1e9, n_bath_states=1,
                        time_grid=t, mode="secular", bath_state_mode="exact",
                        frozen_nuclear=True)
        numeric = cce_coherence(cfg, cce, RAMSEY, seed=seed).values
        analytic = ramsey_product_of_cosines(cfg, t).values
        assert np.max(np.abs(numeric - analytic)) < 1e-10


# --- dense-propagation oracle ------------------------------------------

def test_max_order_cce_matches_dense_reference():
    t = np.linspace(0.0, 0.1, 20)
    for seed in (3, 4):
        cfg = small_bath(seed=seed, n=4)
        ms, axes = cfg.nuclear_m, cfg.jt_axes
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, len(cfg))
        ref = dense_echo_reference(cfg, t, ms, axes, bits)
        # same sampled state via the engine's internal draw
        cce = CCEConfig(order=len(cfg), dipole_radius=1e9, n_bath_states=1,
                        time_grid=t, mode="full", bath_state_mode="sample",
                        frozen_nuclear=True)
        curve = cce_coherence(cfg, cce, HAHN_ECHO, seed=seed)
        # the engine draws its own state; compare instead via the full
        # cluster contribution with the explicit state
        state = 0
        for i in range(len(cfg)):
            state |= int(bits[i]) << i
        assign = [(ms[i], int(axes[i])) for i in range(len(cfg))]
        direct = cluster_contribution(cfg.positions, assign, HAHN_ECHO,
                                      state, t)
        assert np.max(np.abs(direct - ref)) < 1e-10
        assert np.max(np.abs(curve.values)) <= 1.0 + 1e-9


def test_thermal_contribution_equals_state_average():
    cfg = small_bath(seed=5, n=3)
    ms, axes = cfg.nuclear_m, cfg.jt_axes
    assign = [(ms[i], int(axes[i])) for i in range(len(cfg))]
    t = np.linspace(0.0, 0.05, 15)
    thermal = cluster_contribution(cfg.positions, assign, HAHN_ECHO, None, t)
    acc = np.zeros(len(t), complex)
    for state in range(2 ** len(cfg)):
        acc += cluster_contribution(cfg.positions, assign, HAHN_ECHO,
                                    state, t)
    acc /= 2 ** len(cfg)
    assert np.max(np.abs(thermal - acc)) < 1e-12


# --- full-mode propagator against the per-time-point loops ---------------

def reference_cluster_contribution(positions, nuclear_assignment, sequence,
                                   bath_state, time_grid, field=None, p1=None,
                                   central_position=None, rotating_frame=True,
                                   extra_z_shifts=None):
    """Full-mode cluster evolution one time point at a time, with separate
    thermal and pure-state branches and the pi pulse as a matrix."""
    field = field or DEFAULTS.field
    central = DEFAULTS.central
    p1 = p1 or DEFAULTS.p1("n15")
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    k = len(positions)
    nb = 2**k
    hmat = build_cluster_hamiltonian(positions, central, field, p1,
                                     nuclear_assignment,
                                     central_position=central_position)
    if extra_z_shifts is not None:
        bits = ((np.arange(nb)[:, None] >> (k - 1 - np.arange(k))[None, :]) & 1)
        diag = (0.5 - bits) @ np.asarray(extra_z_shifts, dtype=float)
        hmat = hmat + np.kron(np.eye(3), np.diag(diag)).astype(complex)
    evals, evecs = np.linalg.eigh(hmat)

    m0, m1 = central.qubit_levels
    i0 = SPIN1_M_ORDER.index(m0)
    i1 = SPIN1_M_ORDER.index(m1)
    if bath_state is None:
        pulse = cce_module._pi_pulse_matrix(central.qubit_levels, nb)
        t = np.asarray(time_grid, dtype=float)
        segs = sequence.segments
        W = evecs.conj().T
        psi0 = np.zeros((3 * nb, nb), dtype=complex)
        cols = np.arange(nb)
        psi0[i0 * nb + cols, cols] = 1.0 / np.sqrt(2.0)
        psi0[i1 * nb + cols, cols] = 1.0 / np.sqrt(2.0)
        out = np.empty(len(t), dtype=complex)
        for it, tt in enumerate(t):
            psi = psi0
            for s, frac in enumerate(segs):
                psi = evecs @ (np.exp(-1j * evals * (frac * tt))[:, None]
                               * (W @ psi))
                if s < len(segs) - 1:
                    psi = pulse @ psi
            c0 = psi[i0 * nb:(i0 + 1) * nb]
            c1 = psi[i1 * nb:(i1 + 1) * nb]
            out[it] = 2.0 * np.mean(np.sum(c1.conj() * c0, axis=0))
        if rotating_frame:
            e_free = {m: central.zero_field_splitting_D * m**2
                      - CONSTANTS.gamma_e * field.B_z * m for m in (m0, m1)}
            sign = 1.0
            phase_time = np.zeros_like(t)
            for s, frac in enumerate(segs):
                phase_time += sign * frac * t
                sign = -sign
            out = out * np.exp(1j * (e_free[m0] - e_free[m1]) * phase_time)
        return out
    s = int(bath_state)
    idx = 0
    for i in range(k):
        idx |= ((s >> i) & 1) << (k - 1 - i)
    bvec = np.zeros(nb, dtype=complex)
    bvec[idx] = 1.0
    psi0 = np.zeros(3 * nb, dtype=complex)
    psi0[i0 * nb:(i0 + 1) * nb] = bvec / np.sqrt(2.0)
    psi0[i1 * nb:(i1 + 1) * nb] = bvec / np.sqrt(2.0)

    pulse = cce_module._pi_pulse_matrix(central.qubit_levels, nb)
    t = np.asarray(time_grid, dtype=float)
    segs = sequence.segments
    W = evecs.conj().T

    out = np.empty(len(t), dtype=complex)
    for it, tt in enumerate(t):
        psi = psi0
        for s, frac in enumerate(segs):
            psi = evecs @ (np.exp(-1j * evals * (frac * tt)) * (W @ psi))
            if s < len(segs) - 1:
                psi = pulse @ psi
        c0 = psi[i0 * nb:(i0 + 1) * nb]
        c1 = psi[i1 * nb:(i1 + 1) * nb]
        out[it] = 2.0 * np.vdot(c1, c0)

    if rotating_frame:
        e_free = {m: central.zero_field_splitting_D * m**2
                  - CONSTANTS.gamma_e * field.B_z * m for m in (m0, m1)}
        sign = 1.0
        phase_time = np.zeros_like(t)
        for s, frac in enumerate(segs):
            phase_time += sign * frac * t
            sign = -sign
        out = out * np.exp(1j * (e_free[m0] - e_free[m1]) * phase_time)
    return out


# batching sums in another order than the loop; bound from ROADMAP item 4
PROPAGATOR_TOL = 1e-12


@pytest.mark.parametrize("sequence", [HAHN_ECHO, RAMSEY])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_propagator_matches_reference(sequence, k):
    cfg = small_bath(seed=k, n=k)
    assign = list(zip(cfg.nuclear_m.tolist(), cfg.jt_axes.tolist()))
    rng = np.random.default_rng(k)
    shifts = rng.normal(size=k) * 300.0
    t = np.linspace(0.0, 0.05, 30)
    for state in (None, 0, 2**k - 1):
        for extra in (None, shifts):
            new = cluster_contribution(cfg.positions, assign, sequence, state,
                                       t, extra_z_shifts=extra)
            ref = reference_cluster_contribution(
                cfg.positions, assign, sequence, state, t,
                extra_z_shifts=extra)
            assert np.max(np.abs(new - ref)) <= PROPAGATOR_TOL


@pytest.mark.parametrize("sequence", [HAHN_ECHO, RAMSEY])
def test_propagator_across_time_chunks(sequence):
    # thermal 5-spin clusters: 3 * 32 * 32 complex elements per time point
    k = 5
    per_chunk = cce_module._PROPAGATOR_CHUNK // (3 * 4**k)
    t = np.linspace(0.0, 0.05, per_chunk + 7)
    cfg = small_bath(seed=8, n=k)
    assign = list(zip(cfg.nuclear_m.tolist(), cfg.jt_axes.tolist()))
    new = cluster_contribution(cfg.positions, assign, sequence, None, t)
    ref = reference_cluster_contribution(cfg.positions, assign, sequence,
                                         None, t)
    assert np.max(np.abs(new - ref)) <= PROPAGATOR_TOL


# The thermal (exact) order-3 expansion diverges on these baths once pair
# contributions approach zero (|L| reaches 30 by 0.05 ms here), and its
# telescoping division then amplifies rounding; exact mode is compared
# before that.
@pytest.mark.parametrize("mode,t_max", [("sample", 0.2), ("exact", 0.01)])
@pytest.mark.parametrize("order", [2, 3])
def test_full_mode_cce_matches_reference_propagator(monkeypatch, mode, t_max,
                                                    order):
    # check 2's dilute geometry and its first 6-spin seed, 5 nearest spins
    geom = BathGeometry(5.0, 30.0, default_lateral_radius(5.0, 30.0, 12),
                        "continuum-poisson")
    cfg = keep_nearest(generate_bath(geom, 16, exclusion_radius=3.0), 5)
    t = np.linspace(0.0, t_max, 25)
    cce = CCEConfig(order=order, dipole_radius=1e9, n_bath_states=2,
                    time_grid=t, mode="full", bath_state_mode=mode)
    new = cce_coherence(cfg, cce, HAHN_ECHO, seed=4).values
    monkeypatch.setattr(cce_module, "cluster_contribution",
                        reference_cluster_contribution)
    ref = cce_coherence(cfg, cce, HAHN_ECHO, seed=4).values
    assert np.max(np.abs(new - ref)) <= PROPAGATOR_TOL


def test_full_cluster_size_guard(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the size guard must come first")

    k = MAX_FULL_CLUSTER_SPINS + 1
    cfg = line_bath(k)
    monkeypatch.setattr(cce_module, "build_cluster_hamiltonian", never)
    assign = [(0.5, 0)] * k
    with pytest.raises(ValueError, match=f"limit of {MAX_FULL_CLUSTER_SPINS}"):
        cluster_contribution(cfg.positions, assign, HAHN_ECHO, None,
                             np.linspace(0.0, 0.01, 5))
    monkeypatch.setattr(cce_module, "enumerate_clusters", never)
    cce = CCEConfig(order=12, dipole_radius=1e9, n_bath_states=1,
                    time_grid=np.linspace(0.0, 0.01, 5), mode="full")
    with pytest.raises(ValueError, match=f"clusters of {k} spins"):
        cce_coherence(cfg, cce, HAHN_ECHO, seed=0)


def test_oracle_check_in_fast_gate():
    # the benchmark's oracle pass at its reference seed: one 6-spin bath
    # (check seed 16, the first from 16 whose bath holds 6 spins), 2 states
    check = check_exact_propagation(n_baths=1, seed=16, n_states=2)
    assert check.details["max_cce6_error"] < 1e-8


def test_secular_full_agreement_weak_coupling():
    # far apart, weakly coupled: the secular approximation is accurate
    cfg = small_bath(seed=6, n=3, ppm=2.0, excl=5.0)
    t = np.linspace(0.0, 0.05, 20)
    curves = {}
    for mode in ("secular", "full"):
        cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=1,
                        time_grid=t, mode=mode, bath_state_mode="sample",
                        frozen_nuclear=True)
        curves[mode] = cce_coherence(cfg, cce, HAHN_ECHO, seed=9).values
    assert np.max(np.abs(curves["secular"] - curves["full"])) < 5e-3


# --- strong/weak partition ---------------------------------------------

def test_partition_single_spin_is_strong():
    cfg = keep_nearest(small_bath(seed=7, n=4), 1)
    part = partition_strong_weak(cfg)
    assert len(part.strong) == 1
    assert part.weak_dephasing == 0.0
    assert np.isinf(part.t2_star)


def test_partition_t2star_formula():
    cfg = small_bath(seed=8, n=10, ppm=5.0)
    part = partition_strong_weak(cfg)
    if np.isfinite(part.t2_star):
        assert part.t2_star == pytest.approx(
            np.sqrt(2.0) / part.weak_dephasing)
    strong_idx = {i for i, _ in part.strong}
    assert len(strong_idx) == len(part.strong)


def reference_partition_strong_weak(config):
    """The greedy loop that the elementwise strong test replaced."""
    az = cce_module._couplings(config)
    order = np.argsort(-np.abs(az), kind="stable")
    az_sorted = az[order]
    tail_sq = np.concatenate([np.cumsum((az_sorted**2)[::-1])[::-1], [0.0]])
    k = 0
    while k < len(az_sorted):
        a_bath = np.sqrt(tail_sq[k + 1] / 4.0)
        if np.abs(az_sorted[k]) / 2.0 >= \
                cce_module.STRONG_THRESHOLD * a_bath / np.sqrt(2.0):
            k += 1
        else:
            break
    strong = tuple((int(order[i]), float(az_sorted[i])) for i in range(k))
    a_bath = float(np.sqrt(tail_sq[k] / 4.0))
    t2s = float(np.sqrt(2.0) / a_bath) if a_bath > 0 else np.inf
    return StrongWeakPartition(strong=strong, weak_dephasing=a_bath,
                               t2_star=t2s)


def partition_baths():
    yield line_bath(0)
    yield keep_nearest(small_bath(seed=7, n=4), 1)
    # each spin 8x more strongly coupled than the next: all strong
    yield BathConfiguration(np.zeros(3), [[0.0, 0.0, 2.0**k] for k in range(5)],
                            np.zeros(5, int), np.full(5, 0.5),
                            BathGeometry(1.0, 1.0, 1.0), seed=0)
    # yield_sweep's 3 ppm master slabs, sliced as in check 7
    geom = BathGeometry(3.0, 50.0, default_lateral_radius(3.0, 50.0, 300))
    for c in range(30):
        master = generate_bath(geom, np.random.SeedSequence(5, spawn_key=(0, c)))
        for t in (0.5, 1.0, 2.0, 3.0, 4.5, 7.0, 10.0, 15.0, 25.0, 50.0):
            yield slice_bath(master, t)
    for seed in range(100):
        yield small_bath(seed=seed, n=1 + seed % 12, ppm=5.0 + seed % 40)


def test_partition_matches_greedy_loop():
    strong_counts = set()
    for cfg in partition_baths():
        part = partition_strong_weak(cfg)
        assert part == reference_partition_strong_weak(cfg)
        strong_counts.add((len(part.strong) > 0, len(part.strong) == len(cfg)))
    # no strong spin, some, all of them, and the empty bath all occur
    assert strong_counts == {(False, False), (True, False), (True, True),
                             (False, True)}


def test_empty_bath_coherence_is_unity():
    geom = BathGeometry(0.001, 2.0, 2.0, "continuum-poisson")
    cfg = generate_bath(geom, 1)
    if len(cfg) == 0:
        t = np.linspace(0, 1, 12)
        cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=1,
                        time_grid=t)
        curve = cce_coherence(cfg, cce, RAMSEY, seed=0)
        assert np.allclose(curve.values, 1.0)


# --- seeding and determinism -------------------------------------------

def test_spawn_seed_distinct_and_deterministic():
    a = spawn_seed(3, 0, 0).generate_state(2)
    b = spawn_seed(3, 0, 0).generate_state(2)
    c = spawn_seed(3, 0, 1).generate_state(2)
    d = spawn_seed(3, 1, 0).generate_state(2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_cce_coherence_deterministic():
    cfg = small_bath(seed=10, n=6, ppm=10.0)
    t = np.linspace(0.0, 0.05, 25)
    cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=3, time_grid=t)
    v1 = cce_coherence(cfg, cce, HAHN_ECHO, seed=21).values
    v2 = cce_coherence(cfg, cce, HAHN_ECHO, seed=21).values
    assert np.array_equal(v1, v2)


def test_ensemble_coherence_shape_and_normalization():
    geom = BathGeometry(10.0, 10.0, default_lateral_radius(10.0, 10.0, 12),
                        "continuum-poisson")
    t = np.concatenate([[0.0], np.geomspace(1e-4, 0.05, 20)])
    cce = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=1, time_grid=t)
    curve = ensemble_coherence(geom, 4, cce, HAHN_ECHO, seed=2)
    assert abs(curve.values[0]) == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(curve.values) <= 1.0 + 1e-9)
    assert curve.metadata["ensemble"] == 4
    assert "warning" not in curve.metadata


def test_ensemble_coherence_carries_warnings(monkeypatch):
    cce_coherence_ = cce_module.cce_coherence
    calls = []

    def first_and_third_warn(*args, **kwargs):
        curve = cce_coherence_(*args, **kwargs)
        calls.append(len(calls))
        if calls[-1] != 1:
            curve.metadata["warning"] = f"problem in call {calls[-1]}"
        return curve

    monkeypatch.setattr(cce_module, "cce_coherence", first_and_third_warn)
    geom = BathGeometry(10.0, 10.0, default_lateral_radius(10.0, 10.0, 4),
                        "continuum-poisson")
    cce = CCEConfig(order=1, dipole_radius=1e9, n_bath_states=1,
                    time_grid=np.linspace(0.0, 0.01, 5))
    curve = ensemble_coherence(geom, 3, cce, HAHN_ECHO, seed=3)
    assert curve.metadata["warning"] == \
        "2 of 3 configurations warned; first: problem in call 0"


def test_ensemble_curve_without_n_spins_writes():
    geom = BathGeometry(10.0, 10.0, default_lateral_radius(10.0, 10.0, 4),
                        "continuum-poisson")
    cce = CCEConfig(order=1, dipole_radius=1e9, n_bath_states=1,
                    time_grid=np.linspace(0.0, 0.01, 5))
    curve = ensemble_coherence(geom, 2, cce, HAHN_ECHO, seed=3)
    assert "n_spins" not in curve.metadata
    buf = io.StringIO()
    write_curve(curve, buf)
    assert "# meta ensemble 2\n" in buf.getvalue()


def test_diverging_expansion_raises():
    # exact Ramsey at order 3: irreducible factors whose denominators sit
    # just above the floor overflow, and the cluster product reaches inf/nan
    p1 = DEFAULTS.p1("n15")
    geom = BathGeometry(30.0, 8.0, default_lateral_radius(30.0, 8.0, 16))
    cfg = generate_bath(geom, 10, nuclear_projections=p1.nuclear_projections)
    cce = CCEConfig(order=3, dipole_radius=1e9, n_bath_states=1,
                    time_grid=np.linspace(0.0, 0.05, 31),
                    bath_state_mode="exact")
    with pytest.raises(ValueError, match="3 of 31 coherence values are not"):
        cce_coherence(cfg, cce, RAMSEY, seed=10, p1=p1)
    # the same bath at order 2 stays finite, but |L| far above 1 warns
    finite = CCEConfig(order=2, dipole_radius=1e9, n_bath_states=1,
                       time_grid=cce.time_grid, bath_state_mode="exact")
    with pytest.warns(RuntimeWarning, match="CCE diverging: max"):
        curve = cce_coherence(cfg, finite, RAMSEY, seed=10, p1=p1)
    assert np.all(np.isfinite(curve.values))
    assert np.max(np.abs(curve.values)) > cce_module.DIVERGENCE_MODULUS
    assert curve.metadata["warning"].startswith("CCE diverging: max |L|")


# --- serialization ------------------------------------------------------

def test_curve_round_trip():
    t = np.linspace(0.0, 0.01, 9)
    vals = np.exp(-(t / 0.004) ** 2) * np.exp(1j * 3.0 * t)
    curve = CoherenceCurve(times=t, values=vals,
                           metadata={"order": 2, "sequence": "HahnEcho"})
    buf = io.StringIO()
    write_curve(curve, buf)
    buf.seek(0)
    back = read_curve(buf)
    assert np.array_equal(back.times, curve.times)
    assert np.array_equal(back.values, curve.values)
    assert back.metadata["sequence"] == "HahnEcho"


@pytest.mark.parametrize("value", [None, [1, 2], np.array([0.5]), {"a": 1}])
def test_write_curve_rejects_non_scalar_metadata(value):
    curve = CoherenceCurve(times=np.linspace(0.0, 0.01, 3),
                           values=np.ones(3, complex),
                           metadata={"order": 2, "states": value})
    buf = io.StringIO()
    with pytest.raises(ValueError, match="'states'"):
        write_curve(curve, buf)
    assert buf.getvalue() == ""


def test_read_curve_rejects_other_files():
    with pytest.raises(ValueError):
        read_curve(io.StringIO("# spinbath sweep v1\n"))


def _curve_text():
    t = np.linspace(0.0, 0.01, 6)
    curve = CoherenceCurve(times=t, values=np.exp(-(t / 0.004) ** 2 + 2j * t),
                           metadata={"order": 2})
    buf = io.StringIO()
    write_curve(curve, buf)
    return buf.getvalue()


@given(cut=st.integers(0, len(_curve_text())))
@settings(max_examples=80, deadline=None)
def test_read_curve_truncated(cut):
    text = _curve_text()[:cut]
    try:
        curve = read_curve(io.StringIO(text))
    except ValueError:
        return
    assert len(curve.times) == len(curve.values) >= 1


@pytest.mark.parametrize("row, message", [
    ("0.002 0.5\n", "curve file line 5: expected '<float> <float> <float>'"
                    ", got '0.002 0.5'"),
    ("0.002 abc 0.1\n", "curve file line 5: expected '<float> <float> "
                        "<float>', got '0.002 abc 0.1'"),
    ("0.002 0.5 0.1 7\n", "curve file line 5: expected '<float> <float> "
                          "<float>', got '0.002 0.5 0.1 7'"),
    ("# meta seed\n", "curve file line 5: expected '# meta <key> <value>', "
                      "got '# meta seed'"),
])
def test_read_curve_names_the_malformed_line(row, message):
    text = _curve_text().splitlines(keepends=True)
    text.insert(4, row)  # after the header, one meta line and two rows
    with pytest.raises(ValueError) as info:
        read_curve(io.StringIO("".join(text)))
    assert str(info.value) == message


def test_read_curve_without_rows_names_the_line():
    with pytest.raises(ValueError, match="^curve file line 3: no data rows$"):
        read_curve(io.StringIO("# spinbath curve v1\n# meta order 2\n"
                               "# time_ms re_L im_L\n"))


def test_read_curve_keeps_spaces_in_meta_values():
    curve = CoherenceCurve(times=np.linspace(0.0, 0.01, 3),
                           values=np.ones(3, complex),
                           metadata={"warning": "2 of 3 configurations "
                                     "warned; first: CCE  diverging",
                                     "bath": "my baths/b 1.txt"})
    buf = io.StringIO()
    write_curve(curve, buf)
    back = read_curve(io.StringIO(buf.getvalue()))
    assert back.metadata == curve.metadata

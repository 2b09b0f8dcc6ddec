"""Cluster correlation expansion engine.

Coherence functions L(t) for Ramsey and Hahn-echo sequences computed as a
product of irreducible cluster contributions, with bath-state sampling.
Two Hamiltonian modes:

- "secular" (default): the central-bath coupling is reduced to
  S_z A_zz P_z and bath pairs keep the zz + flip-flop terms, so the
  Hamiltonian is block-diagonal in the central m_s and every cluster
  reduces to two bath-only blocks of dimension 2^k.  This is the
  production path.  Its kernel is batched over clusters, time points and
  bath states (a sampled product state, or all 2^k basis states, averaged,
  for the thermal trace).  Sampled values are bit-identical to evaluating
  the same expressions one time point at a time; thermal values agree
  with the closed-form trace to rounding.  The kernel's cluster chunks
  run on a thread pool sized to the CPUs the process may use; each
  cluster's arithmetic is the same on any thread, so values do not
  depend on the pool size.
- "full": complete dipolar tensors in the (2S+1) * 2^k Hilbert space,
  used for small-bath oracles and cross-checks.  Each cluster is
  diagonalized once and propagated by one path for every bath state (a
  sampled product state, or all 2^k basis states for the thermal trace)
  and every time point together; clusters are limited to
  MAX_FULL_CLUSTER_SPINS spins.  This mode runs on the calling thread.

The order-1 Ramsey closed form (a product of cosines) lives here too,
with the strong/weak partition that defines T2* = sqrt(2)/A_bath.  The
central spin is always the shipped NV centre, DEFAULTS.central.

The expansion follows Yang & Liu, PRB 78, 085315 (2008); clusters of one
size are treated as one batch, as in PyCCE (Onizhuk & Galli, Adv. Theory
Simul. 4, 2100254, 2021).
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

import numpy as np

from .bath import BathConfiguration
from .constants import CONSTANTS, DEFAULTS, FieldConfig, P1Params
from .hamiltonian import SPIN1_M_ORDER, build_cluster_hamiltonian

DIVISION_FLOOR = 1e-10
MAX_CLUSTERS = 2_000_000
# cce_coherence holds dense n x n couplings and an n x n x 3 pair-vector
# temporary (~400 MB at this size).
MAX_CCE_SPINS = 4096
# A full-mode cluster of k spins diagonalizes a 3 * 2^k complex matrix:
# 3072-dim at k = 10 (about 40 s of eigh on two cores), 12288-dim at 12.
MAX_FULL_CLUSTER_SPINS = 10
# |L| <= 1 for any bath state.  Sampled-state CCE-4 on check 2's twenty
# 6-spin baths peaks at up to 1.009, and at 1.11 on one bath whose CCE-6
# still matches dense propagation; a thermal full-mode expansion whose
# pair contributions near zero reaches 1e19.
DIVERGENCE_MODULUS = 1.01
STRONG_THRESHOLD = 2.0 * np.pi  # visibility threshold nu >= 2 pi


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


# --- pulse sequences and configuration -----------------------------------

@dataclass(frozen=True)
class PulseSequence:
    """Ideal instantaneous pi pulses on the central spin at fractions of
    the total evolution time; empty for Ramsey, [1/2] for Hahn echo."""

    kind: str
    pi_pulse_fractions: tuple = ()

    def __post_init__(self):
        fr = tuple(float(f) for f in self.pi_pulse_fractions)
        if any(not (0.0 < f < 1.0) for f in fr):
            raise ValueError("pulse fractions must lie in (0, 1)")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("pulse fractions must be strictly increasing")
        object.__setattr__(self, "pi_pulse_fractions", fr)

    @property
    def segments(self):
        """Durations of free-evolution segments as fractions of t."""
        edges = (0.0,) + self.pi_pulse_fractions + (1.0,)
        return tuple(b - a for a, b in zip(edges, edges[1:]))


RAMSEY = PulseSequence(kind="Ramsey")
HAHN_ECHO = PulseSequence(kind="HahnEcho", pi_pulse_fractions=(0.5,))


def sequence_by_name(name: str) -> PulseSequence:
    key = name.lower().replace("-", "").replace("_", "")
    if key in ("ramsey", "fid"):
        return RAMSEY
    if key in ("hahn", "hahnecho", "echo"):
        return HAHN_ECHO
    raise ValueError(f"unknown pulse sequence {name!r}")


@dataclass(frozen=True)
class CCEConfig:
    order: int
    dipole_radius: float  # nm
    n_bath_states: int
    time_grid: np.ndarray  # ms, strictly increasing from 0
    mode: str = "secular"  # or "full"
    bath_state_mode: str = "sample"  # or "exact"
    frozen_nuclear: bool = False

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float)
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.n_bath_states < 1:
            raise ValueError("n_bath_states must be >= 1")
        if not 0 < self.dipole_radius < np.inf:
            raise ValueError(f"dipole_radius must be positive and finite, "
                             f"got {self.dipole_radius!r}")
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or grid[0] < 0:
            raise ValueError("time_grid must be strictly increasing from 0")
        object.__setattr__(self, "time_grid", grid)
        if self.mode not in ("secular", "full"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bath_state_mode not in ("sample", "exact"):
            raise ValueError(f"unknown bath_state_mode {self.bath_state_mode!r}")


@dataclass(frozen=True)
class CoherenceCurve:
    times: np.ndarray
    values: np.ndarray  # complex L(t)
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t[0] == 0.0 and abs(abs(v[0]) - 1.0) > 1e-9:
            raise ValueError("|L(0)| must be 1")


def write_curve(curve: CoherenceCurve, fh):
    """Delimited text: metadata header then (time_ms, re_L, im_L) rows.
    Metadata values must be scalars (str, int or float); any other value
    raises ValueError naming its key, before anything is written."""
    scalar = (str, int, float, np.integer, np.floating)
    for key, val in curve.metadata.items():
        if not isinstance(val, scalar):
            raise ValueError(f"curve metadata {key!r} is not a scalar: "
                             f"{type(val).__name__}")
    fh.write("# spinbath curve v1\n")
    for key in sorted(curve.metadata):
        fh.write(f"# meta {key} {curve.metadata[key]}\n")
    fh.write("# time_ms re_L im_L\n")
    for t, v in zip(curve.times, curve.values):
        fh.write(f"{float(t)!r} {float(v.real)!r} {float(v.imag)!r}\n")


def read_curve(fh) -> CoherenceCurve:
    """Inverse of write_curve, with metadata values as strings.  A
    malformed line or a file without data rows raises ValueError naming
    the line."""
    from .textio import LineReader

    rd = LineReader(fh, "curve v1", "curve")
    meta = {}
    rows = list(rd.rows(float, float, float, meta=meta))
    if not rows:
        raise rd.error("no data rows")
    return CoherenceCurve(times=np.array([t for t, _, _ in rows]),
                          values=np.array([complex(re, im)
                                           for _, re, im in rows]),
                          metadata=meta)


# --- strong/weak partition and order-1 closed form ------------------------

@dataclass(frozen=True)
class StrongWeakPartition:
    strong: tuple  # of (bath spin index, A_z rad/ms)
    weak_dephasing: float  # A_bath, rad/ms
    t2_star: float  # ms, +inf when the weak set is empty


def _secular_dipolar(rel, r, axis):
    """zz part along `axis` of the dipolar coupling (rad/ms) between spins
    at displacements rel (..., 3) nm of length r."""
    cosang = (rel @ axis) / r
    return CONSTANTS.dipolar_prefactor / r**3 * (1.0 - 3.0 * cosang**2)


def _couplings(config: BathConfiguration):
    """A_z = (m1 - m0) A_zz (rad/ms) of every bath spin."""
    if len(config) == 0:
        return np.zeros(0)
    rel = config.positions - config.central_position
    m0, m1 = DEFAULTS.central.qubit_levels
    return (m1 - m0) * _secular_dipolar(rel, np.linalg.norm(rel, axis=1),
                                        DEFAULTS.central.quantization_axis)


def partition_strong_weak(config: BathConfiguration) -> StrongWeakPartition:
    """Greedy selection of strongly coupled spins in descending |A_z|.

    A spin is strong when |A_z|/2 >= 2pi * A_bath(remaining)/sqrt(2), with
    A_bath^2 = sum of A_z^2/4 over the remaining (weak) spins.  A single
    remaining spin against an empty remainder is strong (A_bath = 0).
    """
    az = _couplings(config)
    order = np.argsort(-np.abs(az), kind="stable")
    az_sorted = az[order]
    tail_sq = np.concatenate([np.cumsum((az_sorted**2)[::-1])[::-1], [0.0]])
    # spin k is strong against the spins after it; the greedy selection
    # stops at the first spin that is not
    strong_k = np.abs(az_sorted) / 2.0 >= \
        STRONG_THRESHOLD * np.sqrt(tail_sq[1:] / 4.0) / np.sqrt(2.0)
    k = len(az_sorted) if strong_k.all() else int(np.argmin(strong_k))
    strong = tuple(zip(order[:k].tolist(), az_sorted[:k].tolist()))
    a_bath = float(np.sqrt(tail_sq[k] / 4.0))
    t2s = float(np.sqrt(2.0) / a_bath) if a_bath > 0 else np.inf
    return StrongWeakPartition(strong=strong, weak_dephasing=a_bath, t2_star=t2s)


def ramsey_product_of_cosines(config: BathConfiguration,
                              time_grid) -> CoherenceCurve:
    """Order-1 Ramsey closed form for a fully mixed spin-1/2 bath:
    L(t) = prod_j cos(A_z^j t / 2) over every bath spin."""
    t = np.asarray(time_grid, dtype=float)
    az = _couplings(config)
    vals = np.prod(np.cos(az[:, None] * t[None, :] / 2.0), axis=0) \
        if len(az) else np.ones_like(t)
    return CoherenceCurve(times=t, values=vals.astype(complex),
                          metadata={"n_spins": len(az)})


# --- cluster enumeration --------------------------------------------------

# Candidate rows generated at once when growing clusters by one spin.
_GROW_CANDIDATES = 2**18


def _row_keys(rows, n):
    """Integer keys of rows of spin indices < n, increasing in
    lexicographic row order (digits in base n; Python integers when the
    keys would overflow int64)."""
    k = rows.shape[1]
    dtype = np.int64 if n**k < 2**63 else object
    return rows.astype(dtype) @ np.array([n**e for e in range(k - 1, -1, -1)],
                                         dtype=dtype)


def _sorted_unique(keys):
    # np.unique on int64 is an order of magnitude slower here (numpy 2.4)
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _adjacency(pos, radius):
    """CSR neighbour lists (indptr, indices) of the graph joining spins
    at distance <= radius."""
    from scipy.spatial import cKDTree

    n = len(pos)
    # the tree proposes pairs; the squared distance summed over x, y, z
    # against radius**2 decides, so rounding at the boundary is the same
    # as for a dense distance matrix
    pairs = cKDTree(pos).query_pairs(radius * (1.0 + 1e-9),
                                     output_type="ndarray")
    d2 = np.sum((pos[pairs[:, 0]] - pos[pairs[:, 1]]) ** 2, axis=-1)
    pairs = pairs[d2 <= radius**2]
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def _grow(rows, indptr, nbr):
    """Each row extended by each neighbour of a member outside the row,
    sorted within the new row; rows reached twice appear twice."""
    members = rows.ravel()
    cnt = indptr[members + 1] - indptr[members]
    parent = np.repeat(np.repeat(np.arange(len(rows)), rows.shape[1]), cnt)
    at = np.arange(cnt.sum()) + np.repeat(indptr[members] - np.cumsum(cnt)
                                          + cnt, cnt)
    v = nbr[at]
    base = rows[parent]
    keep = (base != v[:, None]).all(axis=1)
    grown = np.concatenate([base[keep], v[keep, None]], axis=1)
    grown.sort(axis=1)
    return grown


def enumerate_clusters(config: BathConfiguration, order, dipole_radius,
                       max_clusters=MAX_CLUSTERS):
    """All connected subsets of bath spins of size <= order under the
    pairwise-distance <= dipole_radius graph, as sorted tuples ordered by
    (size, members).

    Built level by level: the connected subsets of size k+1 are those of
    size k, each joined by one neighbour of a member.  Raises RuntimeError
    when there are more than max_clusters, before growing the next level.
    """
    n = len(config)
    if n == 0:
        return []
    if n > max_clusters:
        raise RuntimeError("cluster explosion: reduce radius or order")
    indptr, nbr = _adjacency(config.positions, dipole_radius)
    max_degree = int(np.diff(indptr).max())
    levels = [np.arange(n)[:, None]]
    total = n
    for k in range(1, order):
        rows = levels[-1]
        step = max(1, _GROW_CANDIDATES // max(1, k * max_degree))
        keys = _row_keys(np.empty((0, k + 1), dtype=np.int64), n)
        for r0 in range(0, len(rows), step):
            grown = _grow(rows[r0:r0 + step], indptr, nbr)
            keys = _sorted_unique(np.concatenate([keys, _row_keys(grown, n)]))
            if total + len(keys) > max_clusters:
                raise RuntimeError("cluster explosion: reduce radius or order")
        if len(keys) == 0:
            break
        level = np.empty((len(keys), k + 1), dtype=np.int64)
        for j in range(k, -1, -1):
            level[:, j] = keys % n
            keys = keys // n
        levels.append(level)
        total += len(level)
    return [tuple(row) for level in levels for row in level.tolist()]


def _cluster_levels(clusters):
    """(index of the first cluster, (count, k) member array) per cluster
    size k, for a cluster list ordered by size."""
    sizes = np.fromiter(map(len, clusters), dtype=int, count=len(clusters))
    starts = np.flatnonzero(np.diff(sizes, prepend=0))
    stops = np.append(starts[1:], len(clusters))
    return [(int(a), np.array(clusters[a:b], dtype=np.int64))
            for a, b in zip(starts, stops)]


def _subset_tables(levels, n, pad):
    """Per level, each cluster's proper subsets as cluster indices, in the
    telescoping order (by size, then combinations of the sorted members);
    a subset that is not a cluster points at row `pad`."""
    keys = {}
    tables = []
    for start, rows in levels:
        k = rows.shape[1]
        cols = []
        for size in range(1, k):
            first, found = keys[size]
            for pos in combinations(range(k), size):
                sub = _row_keys(rows[:, pos], n)
                at = np.searchsorted(found, sub)
                hit = found.take(at, mode="clip") == sub
                cols.append(np.where(hit, first + at, pad))
        tables.append(np.array(cols, dtype=np.int64)
                      .reshape(len(cols), len(rows)).T)
        keys[k] = (start, _row_keys(rows, n))
    return tables


# --- full-mode single-cluster propagation ---------------------------------

def _pi_pulse_matrix(qubit_levels, nbath_dim):
    m0, m1 = qubit_levels
    i0 = SPIN1_M_ORDER.index(m0)
    i1 = SPIN1_M_ORDER.index(m1)
    P = np.eye(3, dtype=complex)
    P[i0, i0] = P[i1, i1] = 0.0
    P[i0, i1] = P[i1, i0] = 1.0
    return np.kron(P, np.eye(nbath_dim, dtype=complex))


# Time points per batch of the full-mode propagator: a (3 * 2^k, time,
# bath state) block holds at most about this many complex elements.
_PROPAGATOR_CHUNK = 2**22


def _check_full_cluster_size(k):
    if k > MAX_FULL_CLUSTER_SPINS:
        raise ValueError(f"full-mode clusters of {k} spins exceed the limit "
                         f"of {MAX_FULL_CLUSTER_SPINS} spins")


def cluster_contribution(positions, nuclear_assignment, sequence: PulseSequence,
                         bath_state, time_grid, field: FieldConfig = None,
                         p1: P1Params = None, central_position=None,
                         extra_z_shifts=None):
    """Exact unitary evolution of central spin + cluster, full Hamiltonian,
    in the rotating frame of the free central spin.

    bath_state: integer basis index of the bath product state (bit b of the
    index = 0 for m=+1/2 of cluster spin b), or None for the thermal
    average over all 2^k product basis states (fully mixed bath), which
    are evolved as one batch.
    Every bath state and time point goes through one batched pass per
    free-evolution segment.  Returns complex L(t) over time_grid,
    normalized so L(0) = 1.  Clusters of more than MAX_FULL_CLUSTER_SPINS
    spins raise ValueError.
    """
    field = field or DEFAULTS.field
    central = DEFAULTS.central
    p1 = p1 or DEFAULTS.p1("n15")
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    k = len(positions)
    _check_full_cluster_size(k)
    nb = 2**k
    hmat = build_cluster_hamiltonian(positions, central, field, p1,
                                     nuclear_assignment,
                                     central_position=central_position)
    if extra_z_shifts is not None:
        # static z field from out-of-cluster bath spins on each member;
        # in the kron layout spin i occupies bit (k-1-i) of the bath index
        bits = ((np.arange(nb)[:, None] >> (k - 1 - np.arange(k))[None, :]) & 1)
        diag = (0.5 - bits) @ np.asarray(extra_z_shifts, dtype=float)
        hmat = hmat + np.kron(np.eye(3), np.diag(diag)).astype(complex)
    evals, evecs = np.linalg.eigh(hmat)

    if bath_state is None:
        bath = np.eye(nb, dtype=complex)
    else:
        # public convention: bit i of bath_state is spin i (0 = m=+1/2);
        # convert to the kron layout where spin i is bit (k-1-i)
        idx = sum(((int(bath_state) >> i) & 1) << (k - 1 - i)
                  for i in range(k))
        bath = np.zeros((nb, 1), dtype=complex)
        bath[idx] = 1.0
    m0, m1 = central.qubit_levels
    i0, i1 = SPIN1_M_ORDER.index(m0), SPIN1_M_ORDER.index(m1)
    psi0 = np.zeros((3, nb, bath.shape[1]), dtype=complex)
    psi0[i0] = psi0[i1] = bath / np.sqrt(2.0)
    psi0 = psi0.reshape(3 * nb, -1)
    # the pi pulse swaps the two qubit blocks
    pulse = np.arange(3 * nb).reshape(3, nb)
    pulse[[i0, i1]] = pulse[[i1, i0]]
    pulse = pulse.ravel()

    def apply(mat, v):  # mat acting on the first axis of v
        return (mat @ v.reshape(len(mat), -1)).reshape(v.shape)

    t = np.asarray(time_grid, dtype=float)
    W = evecs.conj().T
    x0 = (W @ psi0)[:, None, :]  # the first segment's start, at every t
    out = np.empty(len(t), dtype=complex)
    step = max(1, _PROPAGATOR_CHUNK // psi0.size)
    for a in range(0, len(t), step):
        tc = t[a:a + step]
        for s, frac in enumerate(sequence.segments):
            x = apply(W, psi[pulse]) if s else x0
            phase = np.exp(-1j * np.multiply.outer(evals, frac * tc))
            psi = apply(evecs, phase[:, :, None] * x)
        c = psi.reshape(3, nb, len(tc), -1)
        out[a:a + step] = 2.0 * np.mean(np.sum(c[i1].conj() * c[i0], axis=0),
                                        axis=-1)
    # remove the free central-spin phase (D m^2 - gamma_e B m), accumulated
    # with alternating sign over the segments; exactly 0 for Hahn echo
    e0, e1 = (central.zero_field_splitting_D * m**2
              - CONSTANTS.gamma_e * field.B_z * m for m in (m0, m1))
    signed = sum((-1.0) ** s * frac for s, frac in enumerate(sequence.segments))
    return out * np.exp(1j * (e0 - e1) * signed * t)


# --- secular-mode batched machinery ---------------------------------------

@functools.lru_cache(maxsize=None)
def _pair_data(k):
    """Per-spin P_z eigenvalues (2^k, k) of the basis states of a k-spin
    cluster, and per pair i < j the zz diagonal and the (p, q) basis
    states that a flip-flop connects."""
    d = 2**k
    bits = ((np.arange(d)[:, None] >> np.arange(k)[None, :]) & 1)
    sz = 0.5 - bits  # P_z eigenvalue of spin b in basis state
    pair_zz = {}
    pair_ff = {}
    for i in range(k):
        for j in range(i + 1, k):
            pair_zz[(i, j)] = sz[:, i] * sz[:, j]
            # basis states with bit_i=0, bit_j=1 connect to swapped
            p = np.flatnonzero((bits[:, i] == 0) & (bits[:, j] == 1))
            q = p + (1 << i) - (1 << j)
            pair_ff[(i, j)] = (p, q)
    return sz, pair_zz, pair_ff


def _secular_blocks(cluster_sets, eps_c, azz, jzz, qubit_levels):
    """Batched bath-block Hamiltonians for clusters of equal size.

    cluster_sets: (ncl, k) spin indices; eps_c: (ncl, k) per-spin z shifts
    (rad/ms) incl. hyperfine, Zeeman, and out-of-cluster mean field; azz:
    per-spin secular coupling to the central spin; jzz: (n, n) secular
    bath-bath couplings.  Returns (H0, H1) of shape (ncl, 2^k, 2^k) for
    the two qubit levels.
    """
    cluster_sets = np.asarray(cluster_sets, dtype=int)
    ncl, k = cluster_sets.shape
    d = 2**k
    sz, pair_zz, pair_ff = _pair_data(k)
    azz_c = azz[cluster_sets]
    m0, m1 = qubit_levels

    H = np.zeros((2, ncl, d, d))
    diag_eps = eps_c @ sz.T  # (ncl, d)
    diag_az = azz_c @ sz.T
    for bi, m in enumerate((m0, m1)):
        diag = diag_eps + m * diag_az
        for (i, j), zz in pair_zz.items():
            Jij = jzz[cluster_sets[:, i], cluster_sets[:, j]]  # (ncl,)
            diag = diag + Jij[:, None] * zz[None, :]
        H[bi][:, np.arange(d), np.arange(d)] = diag
        for (i, j), (p, q) in pair_ff.items():
            Jij = jzz[cluster_sets[:, i], cluster_sets[:, j]]
            H[bi][:, p, q] += -0.25 * Jij[:, None]
            H[bi][:, q, p] += -0.25 * Jij[:, None]
    return H[0], H[1]


# Clusters per kernel chunk: about this many complex elements in each
# (cluster, time, 2^k) temporary keeps the working set in cache.
_KERNEL_CHUNK = 2**14


# Threads that run the kernel's chunks, one per CPU this process may use:
# numpy's ufuncs release the GIL, and a chunk's arithmetic does not depend
# on the thread that runs it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None
_pool_lock = threading.Lock()


def _kernel_pool():
    """The kernel's thread pool, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS,
                                       thread_name_prefix="spinbath-cce")
        return _pool


def _forget_pool():
    # a forked child holds none of the parent's worker threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _contract(M, x, transpose=False):
    """y[c, t, s, i] = sum_j M[c, i, j] x[c, t, s, j] (M[c, j, i] if
    transpose), accumulated over j = 0..d-1 in order, which is how einsum
    sums at one time point.  BLAS matmul sums in another order."""
    y = np.zeros(x.shape, dtype=complex)
    for j in range(M.shape[-1]):
        y += (M[:, None, None, j, :] if transpose else M[:, None, None, :, j]) \
            * x[..., j, None]
    return y


def _secular_cluster_curves(H0, H1, state_bits, cluster_sets, sequence,
                            time_grid, exact=False):
    """L_C(t) for a batch of equal-size clusters in secular mode.

    state_bits: per-bath-spin bit (0 = m=+1/2) of the sampled product
    state, ignored when exact=True: the thermal trace is then the average
    over all 2^k basis states, each evolved as one more row of the batch.
    Returns (ncl, nt) complex.  Work is batched over (cluster, time, bath
    state) in chunks of about _KERNEL_CHUNK elements per 2^k vector; a
    sampled value is bit-identical to the same contractions done one time
    point at a time with einsum.  The eigendecompositions run on the
    calling thread and the chunks, split into at most _WORKERS contiguous
    runs, on the kernel's thread pool.
    """
    if sequence.kind not in ("Ramsey", "HahnEcho"):
        raise ValueError(f"unsupported sequence {sequence.kind!r}")
    cluster_sets = np.asarray(cluster_sets, dtype=int)
    ncl, k = cluster_sets.shape
    d = 2**k
    t = np.asarray(time_grid, dtype=float)
    E0, V0 = np.linalg.eigh(H0)
    E1, V1 = np.linalg.eigh(H1)
    M = np.einsum("cpi,cpj->cij", V1, V0)  # V1^dag V0, real orthogonal
    if exact:
        a, b = V0, V1  # row p: <p| V0 -> coeffs, for every basis state p
    else:
        idx = _state_index(state_bits, cluster_sets, k)
        a = V0[np.arange(ncl), idx, None, :]  # (ncl, 1 state, d)
        b = V1[np.arange(ncl), idx, None, :]

    out = np.empty((ncl, len(t)), dtype=complex)
    step = max(1, _KERNEL_CHUNK // (len(t) * a.shape[1] * d))

    def run(starts):
        for c0 in starts:
            s = slice(c0, c0 + step)
            m, e0, e1 = M[s], E0[s, None, None, :], E1[s, None, None, :]
            a_s, b_s = a[s, None], b[s, None]  # (c, 1 time, state, d)
            if sequence.kind == "Ramsey":
                tt = t[:, None, None]
                y = _contract(m, a_s * np.exp(-1j * e0 * tt))
                w = b_s * np.exp(-1j * e1 * tt).conj() * y
            else:
                # L = a^dag D0* M^dag D1* M D0 M^dag D1 b with D = e^{-iE tau}
                tau = t[:, None, None] / 2.0
                p0 = np.exp(-1j * e0 * tau)
                p1 = np.exp(-1j * e1 * tau)
                w = _contract(m, p1 * b_s, transpose=True)
                w = _contract(m, p0 * w)
                w = _contract(m, p1.conj() * w, transpose=True)
                w = a_s * p0.conj() * w
            out[s] = np.mean(np.sum(w, axis=-1), axis=-1)

    starts = range(0, ncl, step)
    n = len(starts)
    workers = min(_WORKERS, n)
    if workers == 1:
        run(starts)
        return out
    # contiguous runs of chunks, one per worker, each writing its own rows.
    # numpy's floating-point error state is a context variable, so each
    # group runs in a copy of the caller's context.  Every group ends
    # before the call does; then the first failed group's error is raised.
    groups = [starts[g * n // workers:(g + 1) * n // workers]
              for g in range(workers)]
    futures = [_kernel_pool().submit(contextvars.copy_context().run, run, g)
               for g in groups]
    wait(futures)
    for f in futures:
        f.result()
    return out


def _state_index(state_bits, cluster_sets, k):
    idx = np.zeros(len(cluster_sets), dtype=int)
    for b in range(k):
        idx |= state_bits[cluster_sets[:, b]] << b
    return idx


# Cluster rows per telescoping block; bounds the temporaries of a level.
_TELESCOPE_ROWS = 512


def _telescope(values, levels, subsets):
    """Irreducible contributions in place: each cluster's row of L_C(t) is
    divided by the product of its proper subsets' rows, multiplied in
    subset-table order.  values holds one row per cluster, ordered by
    size, and a last row of ones that absent subsets point at.  Points
    whose denominator is below DIVISION_FLOOR become 1; returns their
    count."""
    floored = 0
    for (start, rows), table in zip(levels, subsets):
        for r0 in range(0, len(rows), _TELESCOPE_ROWS):
            block = values[start + r0:start + min(r0 + _TELESCOPE_ROWS,
                                                  len(rows))]
            denom = np.ones_like(block)
            for col in table[r0:r0 + _TELESCOPE_ROWS].T:
                denom *= values[col]
            bad = np.abs(denom) < DIVISION_FLOOR
            denom[bad] = 1.0
            np.divide(block, denom, out=block)
            block[bad] = 1.0
            floored += int(np.count_nonzero(bad))
    return floored


# --- main CCE driver -------------------------------------------------------

def cce_coherence(config: BathConfiguration, cce: CCEConfig,
                  sequence: PulseSequence, field: FieldConfig = None,
                  seed=0, p1: P1Params = None) -> CoherenceCurve:
    """Bath-state-averaged CCE coherence function over cce.time_grid.

    In "sample" mode, n_bath_states random product states are drawn (with
    per-state random nuclear m and Jahn-Teller axis unless frozen_nuclear);
    the CCE product of irreducible contributions is formed per state and
    averaged.  In "exact" mode each cluster contribution is averaged over
    the fully mixed bath state (thermal trace: the mean over all 2^k basis
    states of the cluster) with the configuration's frozen nuclear
    assignment.  Baths of more than MAX_CCE_SPINS spins
    raise ValueError, and so do full-mode clusters that could exceed
    MAX_FULL_CLUSTER_SPINS spins and a diverging expansion: irreducible
    factors that overflow leave non-finite values in the product.  A
    finite |L| above DIVERGENCE_MODULUS, or more than 1% of floored
    cluster values, sets meta["warning"] and emits a RuntimeWarning.
    """
    n = len(config)
    if n > MAX_CCE_SPINS:
        raise ValueError(f"bath of {n} spins exceeds the CCE limit of "
                         f"{MAX_CCE_SPINS} spins")
    field = field or DEFAULTS.field
    p1 = p1 or DEFAULTS.p1("n15")
    t = cce.time_grid
    meta = {"mode": cce.mode, "bath_state_mode": cce.bath_state_mode,
            "order": cce.order, "n_bath_states": cce.n_bath_states,
            "sequence": sequence.kind, "seed": seed, "floored_fraction": 0.0}
    if n == 0:
        return CoherenceCurve(times=t, values=np.ones(len(t), complex), metadata=meta)

    if cce.mode == "full":
        _check_full_cluster_size(min(cce.order, n))
    clusters = enumerate_clusters(config, cce.order, cce.dipole_radius)
    meta["n_clusters"] = len(clusters)
    levels = _cluster_levels(clusters)
    subsets = _subset_tables(levels, n, pad=len(clusters))

    rng = np.random.default_rng(as_seed_sequence(seed))
    axis = DEFAULTS.central.quantization_axis
    projections = p1.nuclear_projections

    # per-spin secular couplings (state-independent)
    pos = config.positions
    rel = pos - config.central_position
    azz_raw = _secular_dipolar(rel, np.linalg.norm(rel, axis=1), axis)
    jzz = np.zeros((n, n))
    if n >= 2:
        rel = pos[:, None, :] - pos[None, :, :]
        r = np.linalg.norm(rel, axis=-1)
        np.fill_diagonal(r, np.inf)
        jzz = _secular_dipolar(rel, r, axis)

    def nuclear_draw():
        if cce.frozen_nuclear:
            ms, axes = config.nuclear_m, config.jt_axes
        else:
            ms = rng.choice(np.asarray(projections), size=n)
            axes = rng.integers(0, 4, n)
        return ms, axes

    def eps_of(ms, axes):
        shifts = np.array([p1.hyperfine_shift(ms[i], axes[i]) for i in range(n)])
        return shifts - CONSTANTS.gamma_e * field.B_z

    exact = cce.bath_state_mode == "exact"
    n_states = 1 if exact else cce.n_bath_states
    total = np.zeros(len(t), dtype=complex)
    floored = 0
    # one row per cluster plus a row of ones for absent subsets
    l_raw = np.ones((len(clusters) + 1, len(t)), dtype=complex)

    for _ in range(n_states):
        ms, axes = nuclear_draw()
        eps = eps_of(ms, axes)
        state_bits = None
        if not exact:
            state_bits = rng.integers(0, 2, n)

        # Out-of-cluster spins in the sampled state exert a static z field
        # on every cluster member (mean-field detuning); without it,
        # isolated resonant pairs overestimate flip-flop decay.
        if exact:
            svals = np.zeros(n)
            hmf = np.zeros(n)
        else:
            svals = 0.5 - state_bits
            hmf = jzz @ svals

        if cce.mode == "secular":
            for start, sets in levels:
                chunk = max(1, int(4e6 // (4**sets.shape[1])))
                for s0 in range(0, len(sets), chunk):
                    sl = sets[s0:s0 + chunk]
                    jc = jzz[sl[:, :, None], sl[:, None, :]]
                    sv = svals[sl]
                    eps_c = (eps + hmf)[sl] - np.einsum("cij,cj->ci", jc, sv)
                    H0, H1 = _secular_blocks(sl, eps_c, azz_raw, jzz,
                                             DEFAULTS.central.qubit_levels)
                    l_raw[start + s0:start + s0 + len(sl)] = \
                        _secular_cluster_curves(H0, H1, state_bits, sl,
                                                sequence, t, exact=exact)
        else:
            for ci, c in enumerate(clusters):
                cl = np.array(c)
                bs = None if exact else int(_state_index(state_bits, cl[None],
                                                         len(c))[0])
                l_raw[ci] = cluster_contribution(
                    pos[cl], [(ms[i], int(axes[i])) for i in c], sequence,
                    bs, t, field=field, p1=p1,
                    central_position=config.central_position,
                    extra_z_shifts=hmf[cl] - jzz[np.ix_(cl, cl)] @ svals[cl])

        floored += _telescope(l_raw, levels, subsets)
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflowing product is reported below as a divergence
            total += np.prod(l_raw[:-1], axis=0)

    values = total / n_states
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"CCE diverged: {bad} of {len(t)} coherence values "
                         f"are not finite (order {cce.order}, "
                         f"{cce.bath_state_mode} bath states)")
    meta["floored_fraction"] = floored / (n_states * len(clusters) * len(t))
    problems = []
    if meta["floored_fraction"] > 0.01:
        problems.append("more than 1% of cluster contributions floored")
    peak = float(np.max(np.abs(values)))
    if peak > DIVERGENCE_MODULUS:
        problems.append(f"CCE diverging: max |L| = {peak:.3g} exceeds "
                        f"{DIVERGENCE_MODULUS} (order {cce.order}, "
                        f"{cce.bath_state_mode} bath states)")
    if problems:
        meta["warning"] = "; ".join(problems)
        warnings.warn(meta["warning"], RuntimeWarning, stacklevel=2)
    return CoherenceCurve(times=t, values=values, metadata=meta)


# --- observable sweeps ------------------------------------------------------

def spawn_seed(root_seed, cell_index, config_index):
    """Deterministic per-configuration seed from one user seed."""
    return np.random.SeedSequence(root_seed,
                                  spawn_key=(cell_index, config_index))


def _configurations(geometry, n_configs, seed, cell_index, n_spins=None,
                    **bath_options):
    """Yield (seed sequence, configuration) for n_configs random baths.

    Configuration i is generate_bath(geometry, spawn_seed(seed, cell_index,
    i), **bath_options), cut to its n_spins nearest spins when n_spins is
    given.  Fewer than one configuration raises ValueError.
    """
    # looked up on the module at each call, so patched hooks see every call
    from . import bath

    if n_configs < 1:
        raise ValueError(f"need at least 1 configuration, got {n_configs}")
    for i in range(n_configs):
        ss = spawn_seed(seed, cell_index, i)
        config = bath.generate_bath(geometry, ss, **bath_options)
        if n_spins is not None:
            config = bath.keep_nearest(config, n_spins)
        yield ss, config


def ensemble_coherence(geometry, n_configs, cce, sequence, seed,
                       p1=None, field=None) -> CoherenceCurve:
    """Ensemble-averaged |L(t)| over random bath configurations.

    Each configuration is drawn from `geometry` and simulated with `cce`;
    the average of |L| across configurations is returned, mirroring
    ensemble (many-NV) measurements where each center sees its own static
    bath.  When any configuration's curve warns, meta["warning"] gives how
    many did and the first one's text.
    """
    p1 = p1 or DEFAULTS.p1("n15")
    t = cce.time_grid
    acc = np.zeros(len(t))
    warned = []
    for ss, config in _configurations(
            geometry, n_configs, seed, 0,
            nuclear_projections=p1.nuclear_projections):
        curve = cce_coherence(config, cce, sequence, field=field,
                              seed=ss.spawn(1)[0], p1=p1)
        acc += np.abs(curve.values)
        if "warning" in curve.metadata:
            warned.append(curve.metadata["warning"])
    acc /= n_configs
    meta = {"ensemble": n_configs, "seed": seed, "mode": cce.mode,
            "bath_state_mode": cce.bath_state_mode, "order": cce.order,
            "n_bath_states": cce.n_bath_states, "sequence": sequence.kind}
    if warned:
        meta["warning"] = (f"{len(warned)} of {n_configs} configurations "
                           f"warned; first: {warned[0]}")
    return CoherenceCurve(times=t, values=acc.astype(complex), metadata=meta)


def simulate_observable(geometry, n_configs, seed, cell_index):
    """T2* (ms) of each of n_configs random baths of `geometry`, by the
    analytic order-1 strong/weak partition (Ramsey); a bath with no weak
    spins gives inf."""
    return [partition_strong_weak(config).t2_star
            for _, config in _configurations(geometry, n_configs, seed,
                                             cell_index)]

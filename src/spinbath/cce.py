"""Cluster correlation expansion engine.

Coherence functions L(t) for Ramsey and Hahn-echo sequences computed as a
product of irreducible cluster contributions, with bath-state sampling.
Two Hamiltonian modes:

- "secular" (default): the central-bath coupling is reduced to
  S_z A_zz P_z and bath pairs keep the zz + flip-flop terms, so the
  Hamiltonian is block-diagonal in the central m_s and every cluster
  reduces to two bath-only blocks of dimension 2^k.  This is the
  production path.  Its kernel is batched over clusters and time points,
  and its results are bit-identical to evaluating the same expressions
  one time point at a time.
- "full": complete dipolar tensors in the (2S+1) * 2^k Hilbert space,
  used for small-bath oracles and cross-checks.

The analytic order-1 Ramsey path (Gaussian envelope times cosine factors
from strongly coupled spins) lives here too, with the strong/weak
partition that defines T2* = sqrt(2)/A_bath.

The expansion follows Yang & Liu, PRB 78, 085315 (2008); clusters of one
size are treated as one batch, as in PyCCE (Onizhuk & Galli, Adv. Theory
Simul. 4, 2100254, 2021).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from .bath import BathConfiguration
from .constants import CONSTANTS, DEFAULTS, FieldConfig, P1Params
from .hamiltonian import build_cluster_hamiltonian, dipolar_tensor, secular_Azz

DIVISION_FLOOR = 1e-10
MAX_CLUSTERS = 2_000_000
# cce_coherence holds dense n x n couplings and an n x n x 3 pair-vector
# temporary (~400 MB at this size).
MAX_CCE_SPINS = 4096
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
    header = fh.readline()
    if "curve v1" not in header:
        raise ValueError("not a spinbath curve v1 file")
    meta = {}
    times, values = [], []
    for line in fh:
        if line.startswith("# meta "):
            _, _, key, val = line.split(None, 3)
            meta[key] = val.strip()
        elif line.startswith("#"):
            continue
        elif line.strip():
            t, re, im = line.split()
            times.append(float(t))
            values.append(complex(float(re), float(im)))
    if not times:
        raise ValueError("curve file has no data rows")
    return CoherenceCurve(times=np.array(times),
                          values=np.array(values), metadata=meta)


# --- strong/weak partition and analytic CCE1 -----------------------------

@dataclass(frozen=True)
class StrongWeakPartition:
    strong: tuple  # of (bath spin index, A_z rad/ms)
    weak_dephasing: float  # A_bath, rad/ms
    t2_star: float  # ms, +inf when the weak set is empty


def _couplings(config: BathConfiguration, central=None):
    central = central or DEFAULTS.central
    if len(config) == 0:
        return np.zeros(0)
    rel = config.positions - config.central_position
    axis = central.quantization_axis
    r = np.linalg.norm(rel, axis=1)
    cosang = (rel @ axis) / r
    m0, m1 = central.qubit_levels
    azz = CONSTANTS.dipolar_prefactor / r**3 * (1.0 - 3.0 * cosang**2)
    return (m1 - m0) * azz


def partition_strong_weak(config: BathConfiguration,
                          central=None) -> StrongWeakPartition:
    """Greedy selection of strongly coupled spins in descending |A_z|.

    A spin is strong when |A_z|/2 >= 2pi * A_bath(remaining)/sqrt(2), with
    A_bath^2 = sum of A_z^2/4 over the remaining (weak) spins.  A single
    remaining spin against an empty remainder is strong (A_bath = 0).
    """
    az = _couplings(config, central)
    order = np.argsort(-np.abs(az), kind="stable")
    az_sorted = az[order]
    tail_sq = np.concatenate([np.cumsum((az_sorted**2)[::-1])[::-1], [0.0]])
    k = 0
    while k < len(az_sorted):
        a_bath = np.sqrt(tail_sq[k + 1] / 4.0)
        if np.abs(az_sorted[k]) / 2.0 >= STRONG_THRESHOLD * a_bath / np.sqrt(2.0):
            k += 1
        else:
            break
    strong = tuple((int(order[i]), float(az_sorted[i])) for i in range(k))
    a_bath = float(np.sqrt(tail_sq[k] / 4.0))
    t2s = float(np.sqrt(2.0) / a_bath) if a_bath > 0 else np.inf
    return StrongWeakPartition(strong=strong, weak_dephasing=a_bath, t2_star=t2s)


def ramsey_product_of_cosines(config: BathConfiguration, time_grid,
                              central=None) -> CoherenceCurve:
    """Order-1 Ramsey closed form for a fully mixed spin-1/2 bath:
    L(t) = prod_j cos(A_z^j t / 2) over every bath spin."""
    t = np.asarray(time_grid, dtype=float)
    az = _couplings(config, central)
    vals = np.prod(np.cos(az[:, None] * t[None, :] / 2.0), axis=0) \
        if len(az) else np.ones_like(t)
    return CoherenceCurve(times=t, values=vals.astype(complex),
                          metadata={"n_spins": len(az)})


def ramsey_cce1_analytic(config: BathConfiguration, time_grid,
                         central=None) -> CoherenceCurve:
    """L(t) = exp[-(t/T2*)^2] * prod_strong cos(A_z t / 2)."""
    t = np.asarray(time_grid, dtype=float)
    part = partition_strong_weak(config, central)
    if np.isfinite(part.t2_star):
        env = np.exp(-((t / part.t2_star) ** 2))
    else:
        env = np.ones_like(t)
    osc = np.ones_like(t)
    for _, az in part.strong:
        osc = osc * np.cos(az * t / 2.0)
    return CoherenceCurve(times=t, values=(env * osc).astype(complex),
                          metadata={"t2_star": part.t2_star,
                                    "n_strong": len(part.strong)})


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
    n = len(pos)
    # the tree proposes pairs; the squared distance summed over x, y, z
    # against radius**2 decides, so rounding at the boundary is the same
    # as for a dense distance matrix
    pairs = cKDTree(pos).query_pairs(abs(radius) * (1.0 + 1e-9),
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
    from .hamiltonian import SPIN1_M_ORDER
    m0, m1 = qubit_levels
    i0 = SPIN1_M_ORDER.index(m0)
    i1 = SPIN1_M_ORDER.index(m1)
    P = np.eye(3, dtype=complex)
    P[i0, i0] = P[i1, i1] = 0.0
    P[i0, i1] = P[i1, i0] = 1.0
    return np.kron(P, np.eye(nbath_dim, dtype=complex))


def cluster_contribution(positions, nuclear_assignment, sequence: PulseSequence,
                         bath_state, time_grid, field: FieldConfig = None,
                         central=None, p1: P1Params = None,
                         central_position=None, rotating_frame=True,
                         extra_z_shifts=None):
    """Exact unitary evolution of central spin + cluster, full Hamiltonian.

    bath_state: integer basis index of the bath product state (bit b of the
    index = 0 for m=+1/2 of cluster spin b), a normalized bath-state
    vector of dimension 2^k, or None for the thermal average over all 2^k
    product basis states (fully mixed bath).  Returns complex L(t) over
    time_grid, normalized so L(0) = 1.
    """
    field = field or DEFAULTS.field
    central = central or DEFAULTS.central
    p1 = p1 or DEFAULTS.p1("n15")
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    k = len(positions)
    nb = 2**k
    ham = build_cluster_hamiltonian(positions, central, field, p1,
                                    nuclear_assignment,
                                    central_position=central_position)
    hmat = ham.matrix
    if extra_z_shifts is not None:
        # static z field from out-of-cluster bath spins on each member;
        # in the kron layout spin i occupies bit (k-1-i) of the bath index
        bits = ((np.arange(nb)[:, None] >> (k - 1 - np.arange(k))[None, :]) & 1)
        diag = (0.5 - bits) @ np.asarray(extra_z_shifts, dtype=float)
        hmat = hmat + np.kron(np.eye(3), np.diag(diag)).astype(complex)
    evals, evecs = np.linalg.eigh(hmat)

    from .hamiltonian import SPIN1_M_ORDER
    m0, m1 = central.qubit_levels
    i0 = SPIN1_M_ORDER.index(m0)
    i1 = SPIN1_M_ORDER.index(m1)
    if bath_state is None:
        # thermal trace: evolve all 2^k bath basis states as one batch
        pulse = _pi_pulse_matrix(central.qubit_levels, nb)
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
    if np.isscalar(bath_state) or isinstance(bath_state, (int, np.integer)):
        # public convention: bit i of bath_state is spin i (0 = m=+1/2);
        # convert to the kron layout where spin i is bit (k-1-i)
        s = int(bath_state)
        idx = 0
        for i in range(k):
            idx |= ((s >> i) & 1) << (k - 1 - i)
        bvec = np.zeros(nb, dtype=complex)
        bvec[idx] = 1.0
    else:
        bvec = np.asarray(bath_state, dtype=complex)
    psi0 = np.zeros(3 * nb, dtype=complex)
    psi0[i0 * nb:(i0 + 1) * nb] = bvec / np.sqrt(2.0)
    psi0[i1 * nb:(i1 + 1) * nb] = bvec / np.sqrt(2.0)

    pulse = _pi_pulse_matrix(central.qubit_levels, nb)
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
        # remove the free central-spin phase (D m^2 - gamma_e B m)
        e_free = {m: central.zero_field_splitting_D * m**2
                  - CONSTANTS.gamma_e * field.B_z * m for m in (m0, m1)}
        sign = 1.0
        phase_time = np.zeros_like(t)
        for s, frac in enumerate(segs):
            phase_time += sign * frac * t
            sign = -sign
        out = out * np.exp(1j * (e_free[m0] - e_free[m1]) * phase_time)
    return out


# --- secular-mode batched machinery ---------------------------------------

def _pair_index_cache():
    cache = {}

    def get(k):
        if k not in cache:
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
            cache[k] = (sz, pair_zz, pair_ff)
        return cache[k]

    return get


_pair_data = _pair_index_cache()


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


def _contract(M, x, transpose=False):
    """y[c, t, i] = sum_j M[c, i, j] x[c, t, j] (M[c, j, i] if transpose),
    accumulated over j = 0..d-1 in order, which is how einsum sums at one
    time point.  BLAS matmul sums in another order."""
    y = np.zeros(x.shape, dtype=complex)
    for j in range(M.shape[-1]):
        y += (M[:, None, j, :] if transpose else M[:, None, :, j]) \
            * x[:, :, j, None]
    return y


def _sandwich(M, p):
    """X[c, t, i, k] = sum_q M[c, q, i] p[c, t, q] M[c, q, k], accumulated
    over q in order."""
    X = np.zeros(p.shape + p.shape[-1:], dtype=complex)
    for q in range(p.shape[-1]):
        X += M[:, None, q, :, None] * p[:, :, q, None, None] \
            * M[:, None, q, None, :]
    return X


def _trace_product(Y, X):
    """Tr(Y X) over the last two axes with einsum's arithmetic: for each
    row p of Y a sum over r started from zero, with complex products in
    plain real arithmetic (the multiply ufunc fuses multiply-adds), then
    the row sums added in order of p."""
    re = np.zeros(Y.shape[:-1])
    im = np.zeros(Y.shape[:-1])
    for r in range(Y.shape[-1]):
        yr, yi = Y[..., r].real, Y[..., r].imag
        xr, xi = X[..., r, :].real, X[..., r, :].imag
        re += yr * xr - yi * xi
        im += yr * xi + yi * xr
    out = np.zeros(Y.shape[:-2], dtype=complex)
    for p in range(Y.shape[-1]):
        out.real += re[..., p]
        out.imag += im[..., p]
    return out


def _secular_cluster_curves(H0, H1, state_bits, cluster_sets, sequence,
                            time_grid, exact=False):
    """L_C(t) for a batch of equal-size clusters in secular mode.

    state_bits: per-bath-spin bit (0 = m=+1/2) of the sampled product
    state, ignored when exact=True (thermal trace instead).
    Returns (ncl, nt) complex.  Work is batched over (cluster, time)
    in chunks of about _KERNEL_CHUNK elements per 2^k vector; each value
    is bit-identical to the same contractions done one time point at a
    time with einsum.
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
    if not exact:
        idx = _state_index(state_bits, cluster_sets, k)
        a = V0[np.arange(ncl), idx, :]  # <idx| V0 rows -> coeffs (real)
        b = V1[np.arange(ncl), idx, :]

    out = np.empty((ncl, len(t)), dtype=complex)
    step = max(1, _KERNEL_CHUNK // (len(t) * d))
    for c0 in range(0, ncl, step):
        s = slice(c0, c0 + step)
        m, e0, e1 = M[s], E0[s, None, :], E1[s, None, :]
        if sequence.kind == "Ramsey" and exact:
            # (1/d) Tr[e^{iH1 t} e^{-iH0 t}] = (1/d) sum |M_pq|^2 e^{i(E1_p-E0_q)t}
            dE = E1[s, None, :, None] - E0[s, None, None, :]
            out[s] = np.sum((m**2 / d)[:, None]
                            * np.exp(1j * dE * t[:, None, None]), axis=(2, 3))
        elif sequence.kind == "Ramsey":
            x = a[s, None, :] * np.exp(-1j * e0 * t[:, None])
            y = _contract(m, x)
            out[s] = np.sum(b[s, None, :] * np.exp(-1j * e1 * t[:, None]).conj()
                            * y, axis=-1)
        else:
            tau = t[:, None] / 2.0
            p0 = np.exp(-1j * e0 * tau)
            p1 = np.exp(-1j * e1 * tau)
            if exact:
                # Tr[D0* M^dag D1* M D0 M^dag D1 M] / d with D = e^{-iE tau}
                X = p0[..., None] * _sandwich(m, p1)  # e^{-iE0} M^T e^{-iE1} M
                Y = p0[..., None].conj() * _sandwich(m, p1.conj())
                out[s] = _trace_product(Y, X) / d
            else:
                # L = a^dag D0* M^dag D1* M D0 M^dag D1 b with D = e^{-iE tau}
                w = _contract(m, p1 * b[s, None, :], transpose=True)
                w = _contract(m, p0 * w)
                w = _contract(m, p1.conj() * w, transpose=True)
                out[s] = np.sum(a[s, None, :] * p0.conj() * w, axis=-1)
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
                  seed=0, central=None, p1: P1Params = None) -> CoherenceCurve:
    """Bath-state-averaged CCE coherence function over cce.time_grid.

    In "sample" mode, n_bath_states random product states are drawn (with
    per-state random nuclear m and Jahn-Teller axis unless frozen_nuclear);
    the CCE product of irreducible contributions is formed per state and
    averaged.  In "exact" mode each cluster contribution is averaged over
    the fully mixed bath state (thermal trace) with the configuration's
    frozen nuclear assignment.  Baths of more than MAX_CCE_SPINS spins
    raise ValueError, and so does a diverging expansion: irreducible
    factors that overflow leave non-finite values in the product.
    """
    n = len(config)
    if n > MAX_CCE_SPINS:
        raise ValueError(f"bath of {n} spins exceeds the CCE limit of "
                         f"{MAX_CCE_SPINS} spins")
    field = field or DEFAULTS.field
    central = central or DEFAULTS.central
    p1 = p1 or DEFAULTS.p1("n15")
    t = cce.time_grid
    meta = {"mode": cce.mode, "bath_state_mode": cce.bath_state_mode,
            "order": cce.order, "n_bath_states": cce.n_bath_states,
            "seed": seed, "floored_fraction": 0.0}
    if n == 0:
        return CoherenceCurve(times=t, values=np.ones(len(t), complex), metadata=meta)

    clusters = enumerate_clusters(config, cce.order, cce.dipole_radius)
    meta["n_clusters"] = len(clusters)
    levels = _cluster_levels(clusters)
    subsets = _subset_tables(levels, n, pad=len(clusters))

    rng = np.random.default_rng(as_seed_sequence(seed))
    axis = central.quantization_axis
    projections = p1.nuclear_projections

    # per-spin secular couplings (state-independent)
    azz = _couplings(config, central)  # A_z = (m1-m0) Azz
    m0, m1 = central.qubit_levels
    azz_raw = azz / (m1 - m0)
    pos = config.positions
    jzz = np.zeros((n, n))
    if n >= 2:
        rel = pos[:, None, :] - pos[None, :, :]
        r = np.linalg.norm(rel, axis=-1)
        np.fill_diagonal(r, np.inf)
        cosang = (rel @ axis) / r
        jzz = CONSTANTS.dipolar_prefactor / r**3 * (1.0 - 3.0 * cosang**2)

    def nuclear_draw():
        if cce.frozen_nuclear:
            ms = np.array([s.nuclear_m for s in config.spins])
            axes = np.array([s.jt_axis for s in config.spins], dtype=int)
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
                                             central.qubit_levels)
                    l_raw[start + s0:start + s0 + len(sl)] = \
                        _secular_cluster_curves(H0, H1, state_bits, sl,
                                                sequence, t, exact=exact)
        else:
            for ci, c in enumerate(clusters):
                assign = [(ms[i], int(axes[i])) for i in c]
                cl = np.array(c)
                extra = hmf[cl] - jzz[np.ix_(cl, cl)] @ svals[cl]
                if exact:
                    l_raw[ci] = cluster_contribution(
                        pos[list(c)], assign, sequence, None, t,
                        field=field, central=central, p1=p1,
                        central_position=config.central_position,
                        extra_z_shifts=extra)
                else:
                    bs = int(_state_index(state_bits, np.array([c]), len(c))[0])
                    l_raw[ci] = cluster_contribution(
                        pos[list(c)], assign, sequence, bs, t,
                        field=field, central=central, p1=p1,
                        central_position=config.central_position,
                        extra_z_shifts=extra)

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
    if meta["floored_fraction"] > 0.01:
        meta["warning"] = "more than 1% of cluster contributions floored"
        warnings.warn(meta["warning"], RuntimeWarning, stacklevel=2)
    return CoherenceCurve(times=t, values=values, metadata=meta)


# --- observable sweeps ------------------------------------------------------

def spawn_seed(root_seed, cell_index, config_index):
    """Deterministic per-configuration seed from one user seed."""
    ss = np.random.SeedSequence(root_seed, spawn_key=(cell_index, config_index))
    return ss


def ensemble_coherence(geometry, n_configs, cce, sequence, seed,
                       n_spins=None, central=None, p1=None, field=None,
                       cell_index=0) -> CoherenceCurve:
    """Ensemble-averaged |L(t)| over random bath configurations.

    Each configuration is drawn from `geometry` (optionally truncated to
    its n_spins nearest spins) and simulated with `cce`; the average of
    |L| across configurations is returned, mirroring ensemble (many-NV)
    measurements where each center sees its own static bath.
    """
    from .bath import generate_bath, keep_nearest

    central = central or DEFAULTS.central
    p1 = p1 or DEFAULTS.p1("n15")
    t = cce.time_grid
    acc = np.zeros(len(t))
    for i in range(n_configs):
        ss = spawn_seed(seed, cell_index, i)
        config = generate_bath(geometry, ss,
                               nuclear_projections=p1.nuclear_projections)
        if n_spins is not None:
            config = keep_nearest(config, n_spins)
        curve = cce_coherence(config, cce, sequence, field=field,
                              seed=ss.spawn(1)[0], central=central, p1=p1)
        acc += np.abs(curve.values)
    acc /= n_configs
    meta = {"ensemble": n_configs, "seed": seed, "mode": cce.mode,
            "order": cce.order, "sequence": sequence.kind}
    if n_spins is not None:
        meta["n_spins"] = n_spins
    return CoherenceCurve(times=t, values=acc.astype(complex), metadata=meta)


def simulate_observable(geometry, n_configs, cce, sequence, seed,
                        observable="t2star", central=None, p1=None,
                        field=None, nuclear_projections=None,
                        cell_index=0, return_curves=False):
    """Per-configuration coherence times for one (geometry, sequence).

    observable "t2star": analytic order-1 partition route (Ramsey).
    observable "t2": CCE curves fitted to stretched exponentials.
    Failed fits are flagged entries (NaN) rather than global aborts; a
    diverging expansion raises ValueError from cce_coherence.
    """
    from .bath import generate_bath
    from .fitting import fit_stretched_exponential

    central = central or DEFAULTS.central
    p1 = p1 or DEFAULTS.p1("n15")
    if nuclear_projections is None:
        nuclear_projections = p1.nuclear_projections
    times = []
    curves = []
    for i in range(n_configs):
        ss = spawn_seed(seed, cell_index, i)
        config = generate_bath(geometry, ss, nuclear_projections=nuclear_projections)
        if observable == "t2star":
            part = partition_strong_weak(config, central)
            times.append(part.t2_star)
            if return_curves:
                curves.append(ramsey_cce1_analytic(config, cce.time_grid, central))
        elif observable == "t2":
            curve = cce_coherence(config, cce, sequence, field=field,
                                  seed=ss.spawn(1)[0], central=central, p1=p1)
            if return_curves:
                curves.append(curve)
            try:
                fit = fit_stretched_exponential(curve)
                times.append(fit.t2 if fit.converged else np.nan)
            except ValueError:
                times.append(np.nan)
        else:
            raise ValueError(f"unknown observable {observable!r}")
    if return_curves:
        return times, curves
    return times

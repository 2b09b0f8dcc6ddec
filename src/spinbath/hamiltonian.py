"""Dipolar couplings and cluster Hamiltonian assembly.

The central spin is an NV (S=1) at the origin, quantized along its [111]
axis; bath spins
are P1 electrons (S=1/2) whose nitrogen nuclear state enters only as a
static hyperfine shift a(m, axis), part of each spin's z field.
Everything is assembled in the frame whose z axis is the central
quantization axis.

Cluster Hamiltonians live in the product basis of the Kronecker layout:
the central m_s (ordered +1, 0, -1) is the most significant digit of a
basis index and bath spin i sits at bit n-1-i of the remaining 2^n (a 0
bit is m = +1/2).  Each term (a spin-operator product times a coupling) is
nonzero only where every spin it does not act on keeps its state, and there
it is one product of local entries (0.5, 0.5i, 1/sqrt 2, i/sqrt 2 and
signs).  Those products are exact, so a per-size table of each term's
nonzeros (flat index, value), scaled by the coupling and summed in term
order with one unbuffered np.add.at, gives the bits that dense products of
Kronecker-embedded operators summed term by term give: each entry receives
the same nonzero additions in the same order, and the skipped zeros change
no sum.
"""

from __future__ import annotations

import functools

import numpy as np

from .constants import (
    CONSTANTS,
    JT_AXES,
    CentralSpinParams,
    FieldConfig,
    P1Params,
    radms_to_mhz,
)

# --- spin operators -----------------------------------------------------

# spin-1/2
SX2 = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY2 = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ2 = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# spin-1, basis ordered m_s = (+1, 0, -1)
SZ3 = np.diag([1.0, 0.0, -1.0]).astype(complex)
SX3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
SY3 = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
ID3 = np.eye(3, dtype=complex)

SPIN1_M_ORDER = (1, 0, -1)


def _frame(axis):
    """Orthonormal basis (e1, e2, e3) with e3 = axis."""
    e3 = np.asarray(axis, dtype=float)
    e3 = e3 / np.linalg.norm(e3)
    trial = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(trial, e3)) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    e1 = trial - np.dot(trial, e3) * e3
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    return np.vstack([e1, e2, e3])


# --- couplings ----------------------------------------------------------

def dipolar_tensor(r_vec):
    """Point-dipole coupling tensor (rad/ms) between two electron spins at
    displacement r_vec (nm).

    Returns (pref / r^3) * (delta_ab - 3 rhat_a rhat_b), symmetric and
    traceless, with pref = (mu0/4pi) gamma_e^2 hbar.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    if r == 0:
        raise ValueError("coincident spins")
    rhat = r_vec / r
    return (CONSTANTS.dipolar_prefactor / r**3) * \
        (np.eye(3) - 3.0 * np.outer(rhat, rhat))


def _product_nonzeros(n, factors):
    """Flat indices (row * dim + col) and values of the nonzero entries of
    the product-basis operator whose local factor at `site` is
    factors[site] (identity elsewhere); site 0 is the central spin and site
    i + 1 is bath spin i."""
    rows = cols = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for site in range(n + 1):
        op = factors.get(site, ID3 if site == 0 else ID2)
        r, c = np.nonzero(op)
        rows = (rows[:, None] * len(op) + r).ravel()
        cols = (cols[:, None] * len(op) + c).ravel()
        vals = (vals[:, None] * op[r, c]).ravel()
    return rows * (3 << n) + cols, vals


@functools.lru_cache(maxsize=8)
def _term_table(n):
    """Nonzeros of every term operator of an n-spin cluster Hamiltonian.

    Terms come in assembly order: central Sz and Sz^2; per bath spin i its
    Sz, then the central-bath products S_a P_i,b (a, b = x, y, z); then per
    pair i < j the products P_i,a P_j,b.  Returns read-only arrays (flat
    indices, values, nonzeros per term).
    """
    central = (SX3, SY3, SZ3)
    bath = (SX2, SY2, SZ2)
    terms = [{0: SZ3}, {0: SZ3 @ SZ3}]
    for i in range(n):
        terms.append({i + 1: SZ2})
        terms += [{0: a, i + 1: b} for a in central for b in bath]
    for i in range(n):
        for j in range(i + 1, n):
            terms += [{i + 1: a, j + 1: b} for a in bath for b in bath]
    parts = [_product_nonzeros(n, f) for f in terms]
    table = (np.concatenate([p[0] for p in parts]),
             np.concatenate([p[1] for p in parts]),
             np.array([len(p[0]) for p in parts]))
    for arr in table:
        arr.setflags(write=False)
    return table


def build_cluster_hamiltonian(positions, central: CentralSpinParams,
                              field: FieldConfig, z_fields):
    """Assemble the full central-spin + cluster Hamiltonian (rad/ms) as a
    dense Hermitian (3 * 2^n, 3 * 2^n) matrix.

    positions: (n, 3) bath-spin positions (nm) relative to the central
    spin at the origin; z_fields: (n,) P_z coefficient of each bath spin,
    its hyperfine shift a(m, axis) minus gamma_e B.  Hilbert space
    (2S+1) * 2^n in the quantization frame.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(positions)
    if len(z_fields) != n:
        raise ValueError("z_fields must cover every cluster member")

    R = _frame(central.quantization_axis)
    dim = 3 << n

    # one coefficient per term of _term_table(n), in its order
    coefs = np.zeros(2 + 10 * n + 9 * (n * (n - 1) // 2))
    # central spin: -gamma_e B Sz + D Sz^2
    coefs[:2] = -CONSTANTS.gamma_e * field.B_z, central.zero_field_splitting_D
    coefs[2:2 + 10 * n:10] = z_fields
    for i in range(n):
        A = dipolar_tensor(positions[i])
        coefs[3 + 10 * i:12 + 10 * i] = (R @ A @ R.T).ravel()
    k = 2 + 10 * n
    for i in range(n):
        for j in range(i + 1, n):
            J = dipolar_tensor(positions[j] - positions[i])
            coefs[k:k + 9] = (R @ J @ R.T).ravel()
            k += 9

    idx, vals, counts = _term_table(n)
    keep = coefs != 0.0
    sel = np.repeat(keep, counts)
    H = np.zeros(dim * dim, dtype=complex)
    np.add.at(H, idx[sel], np.repeat(coefs[keep], counts[keep]) * vals[sel])
    H = H.reshape(dim, dim)
    scale = max(1.0, float(np.linalg.norm(H)))
    if np.linalg.norm(H - H.conj().T) > 1e-12 * scale:
        raise AssertionError("assembled Hamiltonian is not Hermitian")
    return H


# --- P1 ESR spectroscopy ------------------------------------------------

def p1_transition_frequencies(field: FieldConfig, p1: P1Params):
    """Electron-spin-flip transition frequencies of an isolated P1.

    Exact diagonalization of the electron (S=1/2) x nucleus (2I+1) system
    per Jahn-Teller axis, with the axial hyperfine tensor tilted by the
    axis angle relative to the field.  Returns a list of
    (frequency_MHz, nuclear_m, axis_index, degeneracy_fraction), one entry
    per allowed line, sorted by frequency.

    The electron gyromagnetic ratio carries its physical (negative) sign
    here so nuclear projection labels follow the usual ESR convention;
    the rest of the package stores the magnitude only, which is
    irrelevant for dephasing dynamics.
    """
    if field.B_z <= 0:
        raise ValueError("B_z must be > 0 for ESR transition frequencies")
    I = p1.nuclear_I
    nI = int(round(2 * I + 1))
    mI = np.arange(I, -I - 1e-9, -1.0)
    # nuclear spin operators in the m basis (descending)
    Iz = np.diag(mI).astype(complex)
    Ip = np.zeros((nI, nI), dtype=complex)
    for k in range(nI - 1):
        m = mI[k + 1]
        Ip[k, k + 1] = np.sqrt(I * (I + 1) - m * (m + 1))
    Ix = 0.5 * (Ip + Ip.conj().T)
    Iy = -0.5j * (Ip - Ip.conj().T)
    Iops = (Ix, Iy, Iz)
    Sops = (SX2, SY2, SZ2)

    gamma = -CONSTANTS.gamma_e  # physical sign of the electron moment
    axis_angles = {}  # cos(beta) -> representative axis indices
    for k in range(4):
        cb = round(float(np.dot(JT_AXES[k], p1.quantization_axis)) ** 2, 9)
        axis_angles.setdefault(cb, []).append(k)

    lines = []
    for cb2, axes in axis_angles.items():
        sb2 = 1.0 - cb2
        nvec = np.array([np.sqrt(sb2), 0.0, np.sqrt(cb2)])
        Aten = p1.A_perp * np.eye(3) + (p1.A_par - p1.A_perp) * np.outer(nvec, nvec)
        dim = 2 * nI
        H = np.zeros((dim, dim), dtype=complex)
        H += -gamma * field.B_z * np.kron(SZ2, np.eye(nI))
        H += -p1.gamma_n * field.B_z * np.kron(ID2, Iz)
        for a in range(3):
            for b in range(3):
                if Aten[a, b] != 0.0:
                    H += Aten[a, b] * np.kron(Sops[a], Iops[b])
        evals, evecs = np.linalg.eigh(H)
        Sx_full = np.kron(SX2, np.eye(nI))
        Iz_full = np.kron(ID2, Iz)
        for ppp in range(dim):
            for q in range(ppp + 1, dim):
                w = abs(evecs[:, q].conj() @ Sx_full @ evecs[:, ppp]) ** 2
                if w < 0.2:  # forbidden line
                    continue
                m_q = float(np.real(evecs[:, q].conj() @ Iz_full @ evecs[:, q]))
                m_nuc = float(mI[np.argmin(np.abs(mI - m_q))])
                freq = radms_to_mhz(abs(evals[q] - evals[ppp]))
                for ax in axes:
                    lines.append((float(freq), m_nuc, ax, 1.0 / (4 * nI)))
    lines.sort(key=lambda rec: rec[0])
    return lines

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.bath import BathConfiguration, BathGeometry
from spinbath.cce import _couplings
from spinbath.constants import (
    CONSTANTS,
    DEFAULTS,
    CentralSpinParams,
    FieldConfig,
    radms_to_mhz,
)
from spinbath.hamiltonian import (
    ID2,
    ID3,
    SPIN1_M_ORDER,
    SX2,
    SX3,
    SY2,
    SY3,
    SZ2,
    SZ3,
    _frame,
    _term_table,
    build_cluster_hamiltonian,
    dipolar_tensor,
    p1_transition_frequencies,
)

vec3 = st.tuples(*(st.floats(-10, 10) for _ in range(3))).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.5)


def test_spin_half_algebra():
    sx, sy, sz = SX2, SY2, SZ2
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz)
    assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 0.75 * np.eye(2))


def test_spin_one_algebra():
    sx, sy, sz = SX3, SY3, SZ3
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz)
    assert np.allclose(sx @ sx + sy @ sy + sz @ sz, 2.0 * np.eye(3))
    assert SPIN1_M_ORDER == (1, 0, -1)


@given(r=vec3)
@settings(max_examples=50, deadline=None)
def test_dipolar_tensor_symmetric_traceless(r):
    T = dipolar_tensor(r)
    assert np.allclose(T, T.T)
    assert abs(np.trace(T)) < 1e-8 * np.abs(T).max()


def test_dipolar_tensor_scaling():
    r = np.array([0.0, 0.0, 2.0])
    assert np.allclose(dipolar_tensor(2 * r), dipolar_tensor(r) / 8.0)


def test_dipolar_on_axis_value():
    # along the separation axis: (1 - 3) pref / r^3 = -2 pref / r^3
    r = np.array([0.0, 0.0, 1.0])
    T = dipolar_tensor(r)
    assert T[2, 2] == pytest.approx(-2.0 * CONSTANTS.dipolar_prefactor)
    # 2 pi x 104 MHz magnitude at 1 nm
    assert radms_to_mhz(abs(T[2, 2])) == pytest.approx(104.08, rel=2e-4)


def test_secular_azz_angular_dependence():
    # cce._couplings is the one A_z routine: A_z = (m1 - m0) e3.T A e3,
    # with e3 the shipped central spin's [111] quantization axis
    assert DEFAULTS.central.qubit_levels == (0, -1)
    e1, _, e3 = _frame(DEFAULTS.central.quantization_axis)
    magic = np.arccos(1.0 / np.sqrt(3.0))
    pos = np.array([2.0 * e3,
                    2.0 * (np.sin(magic) * e1 + np.cos(magic) * e3),
                    [1.0, -2.0, 0.5]])
    bath = BathConfiguration(
        central_position=np.zeros(3), positions=pos, jt_axes=np.zeros(3, int),
        nuclear_m=np.full(3, 0.5),
        geometry=BathGeometry(3.0, 60.0, 60.0, "continuum-poisson"), seed=0)
    on, at_magic, tilted = _couplings(bath)
    assert abs(at_magic) < 1e-12 * abs(on)
    # qubit (0,-1): A_z = (m1-m0) Azz = -Azz; on-axis Azz < 0 so A_z > 0
    assert on == pytest.approx(2.0 * CONSTANTS.dipolar_prefactor / 8.0)
    # the full dipolar tensor projected on the axis
    assert tilted == pytest.approx(-(e3 @ dipolar_tensor(pos[2]) @ e3),
                                   rel=1e-12)


def test_cluster_hamiltonian_hermitian_and_dimension():
    pos = np.array([[1.0, 0.0, 2.0], [0.0, 2.0, -1.0]])
    ham = build_cluster_hamiltonian(
        pos, DEFAULTS.central, DEFAULTS.field, DEFAULTS.p1("n15"),
        [(0.5, 0), (-0.5, 2)])
    assert ham.shape == (12, 12)
    assert np.allclose(ham, ham.conj().T)


def _reference_hamiltonian(positions, central, field, p1, nuclear_assignment,
                           central_position=None):
    """The original assembly: every term a dense product of Kronecker-
    embedded operators, added to H in turn."""
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(positions)
    if central_position is None:
        central_position = np.zeros(3)
    central_position = np.asarray(central_position, dtype=float)
    R = _frame(central.quantization_axis)
    gamma = CONSTANTS.gamma_e
    B = field.B_z
    dim = int(np.prod([3] + [2] * n))

    def embed(op, site):
        mats = [ID3 if k == 0 else ID2 for k in range(n + 1)]
        mats[site] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    Sc = [embed(o, 0) for o in (SX3, SY3, SZ3)]
    Pb = [[embed(o, i + 1) for o in (SX2, SY2, SZ2)] for i in range(n)]
    H = np.zeros((dim, dim), dtype=complex)
    H += -gamma * B * Sc[2] + central.zero_field_splitting_D * (Sc[2] @ Sc[2])
    for i in range(n):
        m_i, axis_i = nuclear_assignment[i]
        shift = p1.hyperfine_shift(m_i, axis_i)
        H += (shift - gamma * B) * Pb[i][2]
        A = dipolar_tensor(positions[i] - central_position)
        A = R @ A @ R.T
        for a in range(3):
            for b in range(3):
                if A[a, b] != 0.0:
                    H += A[a, b] * (Sc[a] @ Pb[i][b])
    for i in range(n):
        for j in range(i + 1, n):
            J = dipolar_tensor(positions[j] - positions[i])
            J = R @ J @ R.T
            for a in range(3):
                for b in range(3):
                    if J[a, b] != 0.0:
                        H += J[a, b] * (Pb[i][a] @ Pb[j][b])
    return H


def _assignments(isotope, n):
    """Cluster assignments that together give every (nuclear m, JT axis)
    choice of the isotope to some spin."""
    p1 = DEFAULTS.p1(isotope)
    choices = [(m, k) for m in p1.nuclear_projections for k in range(4)]
    return p1, [[choices[(start + i) % len(choices)] for i in range(n)]
                for start in range(0, len(choices), n)]


TILTED_CENTRAL = CentralSpinParams(
    spin=1.0,
    zero_field_splitting_D=DEFAULTS.central.zero_field_splitting_D,
    quantization_axis=np.array([1.0, 2.0, -2.0]) / 3.0,
    qubit_levels=(0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("isotope", ["n14", "n15"])
def test_cluster_hamiltonian_matches_embedded_products(n, isotope):
    rng = np.random.default_rng(100 * n + len(isotope))
    pos = rng.uniform(-4.0, 4.0, (n, 3))
    p1, assignments = _assignments(isotope, n)
    for k, assign in enumerate(assignments):
        kwargs = {}
        central = DEFAULTS.central
        if k % 2:
            central = TILTED_CENTRAL
            kwargs["central_position"] = rng.uniform(-1.0, 1.0, 3)
        ham = build_cluster_hamiltonian(pos, central, DEFAULTS.field, p1,
                                        assign, **kwargs)
        ref = _reference_hamiltonian(pos, central, DEFAULTS.field, p1,
                                     assign, **kwargs)
        assert ham.shape == (3 * 2**n, 3 * 2**n)
        assert np.array_equal(ham, ref)


def test_term_table_is_read_only():
    for arr in _term_table(2):
        assert not arr.flags.writeable
    idx, _vals, counts = _term_table(2)
    assert counts.sum() == len(idx)
    assert len(counts) == 2 + 10 * 2 + 9


def test_p1_lines_at_operating_field():
    lines = p1_transition_frequencies(FieldConfig(B_z=311.0), DEFAULTS.p1("n15"))
    plus = sorted({round(f, 2) for f, m, _ax, _w in lines if m > 0})
    assert len(plus) == 2
    lo, hi = plus
    assert lo == pytest.approx(934.8, abs=2.0)
    assert hi == pytest.approx(953.1, abs=2.0)
    # 3:1 multiplicity: three tilted axes share the low line
    w_lo = sum(w for f, m, _ax, w in lines if m > 0 and round(f, 2) == lo)
    w_hi = sum(w for f, m, _ax, w in lines if m > 0 and round(f, 2) == hi)
    assert w_lo / w_hi == pytest.approx(3.0)


def test_p1_line_splitting_tracks_hyperfine():
    # N14 (I=1) has 2I+1 = 3 nuclear projections -> m=+1 and m=-1 lines
    # split by roughly 2 * A_eff around the Zeeman line
    lines = p1_transition_frequencies(FieldConfig(B_z=311.0), DEFAULTS.p1("n14"))
    ms = {m for _f, m, _ax, _w in lines}
    assert ms == {-1.0, 0.0, 1.0}


def test_p1_requires_field():
    with pytest.raises(ValueError):
        p1_transition_frequencies(FieldConfig(B_z=0.0), DEFAULTS.p1("n15"))

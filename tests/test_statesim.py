"""Statevector kernel: embedding, projection, norm bookkeeping, sampling."""
import numpy as np
import pytest

from vbsprep.errors import CapExceededError, ImpossibleOutcomeError, NonUnitaryError
from vbsprep.spinops import symmetrizer
from vbsprep.statesim import Statevector

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def test_zero_state():
    st = Statevector.zero(2)
    assert np.allclose(st.amps, [1, 0, 0, 0])
    assert st.tracked_norm_sq == 1.0
    st1 = Statevector.zero(1)
    assert np.allclose(st1.amps, [1, 0])


def test_cap():
    with pytest.raises(CapExceededError):
        Statevector.zero(27)


def test_cap_override(monkeypatch):
    monkeypatch.setenv("VBS_MAX_QUBITS", "4")
    with pytest.raises(CapExceededError):
        Statevector.zero(5)
    with pytest.raises(CapExceededError):
        Statevector.from_amplitudes(np.ones(32))


def test_swap_action_msb_convention():
    st = Statevector.from_amplitudes([0, 1, 0, 0])  # |01>
    st.apply_unitary(SWAP, (0, 1))
    assert np.allclose(st.amps, [0, 0, 1, 0])  # |10>


def test_minus_swap_from_symmetrizer_exponential():
    from vbsprep.spinops import exp_minus_i_pi_symmetrizer

    st = Statevector.from_amplitudes([0, 1, 0, 0])
    st.apply_unitary(exp_minus_i_pi_symmetrizer(2), (0, 1))
    assert np.allclose(st.amps, [0, 0, -1, 0])


def test_identity_leaves_state_bitwise():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    st = Statevector.from_amplitudes(v)
    st.apply_unitary(np.eye(2), (1,))
    assert np.array_equal(st.amps, v)


def test_unitarity_guard():
    st = Statevector.zero(1)
    with pytest.raises(NonUnitaryError):
        st.apply_unitary(np.array([[1, 0], [0, 0.5]]), (0,))
    st.apply_unitary(np.array([[1, 0], [0, 0.5]]), (0,), allow_nonunitary=True)


def test_unitary_preserves_norm():
    rng = np.random.default_rng(5)
    st = Statevector.from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
    st.amps /= np.linalg.norm(st.amps)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    st.apply_unitary(q, (1, 3))
    assert abs(np.vdot(st.amps, st.amps).real - 1.0) < 1e-12


def test_project_plus_state():
    st = Statevector.from_amplitudes(np.array([1, 1]) / np.sqrt(2))
    p = st.project_qubit(0, 1)
    assert abs(p - 0.5) < 1e-12
    assert abs(st.tracked_norm_sq - 0.5) < 1e-12


def test_project_branches_sum_to_one():
    rng = np.random.default_rng(8)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    st = Statevector.from_amplitudes(v / np.linalg.norm(v))
    p0 = st.outcome_probability(1, 0)
    p1 = st.outcome_probability(1, 1)
    assert abs(p0 + p1 - 1.0) < 1e-12


def test_project_singlet_partner():
    st = Statevector.from_amplitudes(SINGLET)
    p = st.project_qubit(0, 0)
    assert abs(p - 0.5) < 1e-12
    assert np.allclose(st.amps, [0, 1, 0, 0])  # partner fixed to |1>


def test_impossible_outcome():
    st = Statevector.zero(2)
    with pytest.raises(ImpossibleOutcomeError):
        st.project_qubit(0, 1)


def test_apply_nonunitary_symmetrizer_ratio():
    # single bulk site of a bond product: the double-bond ring on two sites
    st = Statevector.product_of_factors(4, [((0, 1), SINGLET), ((2, 3), SINGLET)])
    ratio = st.apply_nonunitary(symmetrizer(2), (1, 2))
    assert abs(ratio - 0.75) < 1e-12
    assert abs(st.tracked_norm_sq - 0.75) < 1e-12
    assert abs(np.vdot(st.amps, st.amps).real - 1.0) < 1e-12


def test_apply_nonunitary_three_halves_ratio():
    st = Statevector.product_of_factors(
        6, [((0, 1), SINGLET), ((2, 3), SINGLET), ((4, 5), SINGLET)]
    )
    ratio = st.apply_nonunitary(symmetrizer(3), (1, 3, 5))
    assert abs(ratio - 0.5) < 1e-12


def test_apply_nonunitary_identity():
    st = Statevector.zero(3)
    assert abs(st.apply_nonunitary(np.eye(2), (1,)) - 1.0) < 1e-12


def test_apply_nonunitary_zero_norm_is_impossible_outcome():
    st = Statevector(1, np.zeros(2, dtype=complex))
    with pytest.raises(ImpossibleOutcomeError):
        st.apply_nonunitary(np.eye(2), (0,))


def test_overlap_and_fidelity():
    a = Statevector.from_amplitudes([1, 0])
    b = Statevector.from_amplitudes([0, 1])
    assert abs(a.overlap(a) - 1.0) < 1e-12
    assert abs(a.overlap(b)) < 1e-12
    c = Statevector.from_amplitudes(np.array([1, 1j]) / np.sqrt(2))
    assert abs(c.fidelity(c) - 1.0) < 1e-12


def test_expectation_z_on_zero():
    st = Statevector.zero(1)
    z = np.diag([1.0, -1.0])
    assert abs(st.expectation(z, (0,)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        st.expectation(np.array([[0, 1], [0, 0]]), (0,))


def test_sampling_deterministic_and_binomial():
    st = Statevector.zero(1)
    counts = st.sample(100, seed=1)
    assert counts == {"0": 100}
    plus = Statevector.from_amplitudes(np.array([1, 1]) / np.sqrt(2))
    counts = plus.sample(100_000, seed=2)
    ones = counts.get("1", 0) / 100_000
    assert abs(ones - 0.5) < 3 * np.sqrt(0.25 / 100_000)
    assert plus.sample(1000, seed=3) == plus.sample(1000, seed=3)


def test_binary_dump_round_trip():
    rng = np.random.default_rng(11)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    st = Statevector.from_amplitudes(v / np.linalg.norm(v))
    raw = np.frombuffer(st.dump_binary(), dtype="<f8")
    assert np.allclose(raw[0::2] + 1j * raw[1::2], st.amps)


def _embed_by_kron(op: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Explicit permutation + kron embedding, independent of the kernel."""
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    order = list(qubits) + rest
    dim = 2**n
    perm = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        new_idx = 0
        for pos, q in enumerate(order):
            new_idx |= bits[q] << (n - 1 - pos)
        perm[new_idx, idx] = 1.0
    full = np.kron(op, np.eye(2 ** (n - k)))
    return perm.T @ full @ perm


def test_apply_unitary_matches_explicit_kron_embedding():
    rng = np.random.default_rng(17)
    n = 5
    for _ in range(20):
        k = rng.integers(1, 4)
        qubits = tuple(rng.permutation(n)[:k])
        m = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        q, _ = np.linalg.qr(m)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        st = Statevector.from_amplitudes(v)
        st.apply_unitary(q, qubits)
        expected = _embed_by_kron(q, qubits, n) @ v
        assert np.max(np.abs(st.amps - expected)) < 1e-12


def test_apply_unitary_kernel_random_widths():
    """Every width k = 1..4, unsorted qubit lists, registers of up to 8 qubits."""
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        qubits = tuple(int(q) for q in rng.permutation(n)[:k])
        m = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        u, _ = np.linalg.qr(m)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        expected = _embed_by_kron(u, qubits, n) @ v
        st = Statevector.from_amplitudes(v)
        assert np.max(np.abs(st.applied_amplitudes(u, qubits) - expected)) < 1e-12
        assert np.array_equal(st.amps, v)  # applied_amplitudes leaves the state alone
        st.apply_unitary(u, qubits)
        assert np.max(np.abs(st.amps - expected)) < 1e-12


def test_product_of_factors_orders_qubits():
    vec = np.array([1, 2], dtype=complex) / np.sqrt(5)
    st = Statevector.product_of_factors(3, [((1,), vec), ((0, 2), SINGLET)])
    t = st.amps.reshape(2, 2, 2)
    # axis 1 must carry `vec`, axes (0, 2) the singlet
    assert abs(t[0, 0, 1] - vec[0] / np.sqrt(2)) < 1e-12
    assert abs(t[0, 1, 1] - vec[1] / np.sqrt(2)) < 1e-12
    assert abs(t[1, 0, 0] + vec[0] / np.sqrt(2)) < 1e-12

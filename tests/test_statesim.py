"""Statevector kernel: embedding, projection, norm bookkeeping, sampling."""
import numpy as np
import pytest

from vbsprep import statesim
from vbsprep.errors import CapExceededError, ImpossibleOutcomeError, NonUnitaryError
from vbsprep.spinops import symmetrizer
from vbsprep.statesim import Statevector

from oracle_reference import expectation, fidelity, overlap

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


def test_amplitude_count_must_match_width():
    with pytest.raises(ValueError, match="4 amplitudes .* 3-qubit state of 8"):
        Statevector(3, np.zeros(4, dtype=complex))


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
    assert abs(overlap(a, a) - 1.0) < 1e-12
    assert abs(overlap(a, b)) < 1e-12
    c = Statevector.from_amplitudes(np.array([1, 1j]) / np.sqrt(2))
    assert abs(fidelity(c, c) - 1.0) < 1e-12


def test_overlap_of_unnormalized_states_is_the_normalized_overlap():
    rng = np.random.default_rng(41)
    v, w = (rng.normal(size=64) + 1j * rng.normal(size=64) for _ in range(2))
    expected = np.vdot(v / np.linalg.norm(v), w / np.linalg.norm(w))
    a, b = Statevector.from_amplitudes(3.7 * v), Statevector.from_amplitudes(0.02 * w)
    assert abs(overlap(a, b) - expected) < 1e-15
    assert np.array_equal(a.amps, 3.7 * v)  # the states are left as they were


def test_expectation_z_on_zero():
    st = Statevector.zero(1)
    z = np.diag([1.0, -1.0])
    assert abs(expectation(st, z, (0,)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        expectation(st, np.array([[0, 1], [0, 0]]), (0,))


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


def test_apply_unitary_with_new_qubits_equals_padding_them_first():
    """Qubits that join in |0> as a gate acts: same as inserting them, then applying."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 9))  # width after the gate
        k = int(rng.integers(1, min(n, 4) + 1))
        qubits = tuple(int(q) for q in rng.permutation(n)[:k])
        new = tuple(int(q) for q in rng.permutation(qubits)[: int(rng.integers(0, min(k, n - 1) + 1))])
        u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
        v = rng.normal(size=2 ** (n - len(new))) + 1j * rng.normal(size=2 ** (n - len(new)))
        padded = np.zeros([2] * n, dtype=complex)
        padded[tuple(0 if q in new else slice(None) for q in range(n))] = v.reshape([2] * (n - len(new)))
        st = Statevector.from_amplitudes(v).apply_unitary(u, qubits, new_qubits=new)
        assert st.n_qubits == n
        assert np.max(np.abs(st.amps - _embed_by_kron(u, qubits, n) @ padded.reshape(-1))) < 1e-12


def test_product_of_factors_orders_qubits():
    vec = np.array([1, 2], dtype=complex) / np.sqrt(5)
    st = Statevector.product_of_factors(3, [((1,), vec), ((0, 2), SINGLET)])
    t = st.amps.reshape(2, 2, 2)
    # axis 1 must carry `vec`, axes (0, 2) the singlet
    assert abs(t[0, 0, 1] - vec[0] / np.sqrt(2)) < 1e-12
    assert abs(t[0, 1, 1] - vec[1] / np.sqrt(2)) < 1e-12
    assert abs(t[1, 0, 0] + vec[0] / np.sqrt(2)) < 1e-12


def test_product_of_factors_any_factor_order():
    """Shuffled factor lists, some with descending qubit tuples: same amplitudes, C-contiguous."""
    rng = np.random.default_rng(43)
    n = 8
    factors = [((0, 5), None), ((3, 1), None), ((2,), None), ((7, 4, 6), None)]
    factors = [(qs, rng.normal(size=2 ** len(qs)) + 1j * rng.normal(size=2 ** len(qs))) for qs, _ in factors]
    expected = np.ones(2**n, dtype=complex)  # amplitude by amplitude, from the bits of each factor's qubits
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        for qs, vec in factors:
            expected[idx] *= vec[int("".join(str(bits[q]) for q in qs), 2)]
    for _ in range(6):
        shuffled = [factors[i] for i in rng.permutation(len(factors))]
        st = Statevector.product_of_factors(n, shuffled)
        assert st.amps.flags.c_contiguous
        assert np.max(np.abs(st.amps - expected)) < 1e-15
    ordered = [((0, 1, 2), rng.normal(size=8) + 0j), ((3, 4, 5, 6, 7), rng.normal(size=32) + 0j)]
    st = Statevector.product_of_factors(n, ordered)  # already in qubit order: no transpose
    assert st.amps.flags.c_contiguous
    assert not any(np.shares_memory(st.amps, vec) for _, vec in ordered)
    assert np.max(np.abs(st.amps - np.kron(ordered[0][1], ordered[1][1]))) < 1e-15


def _einsum_apply(v: np.ndarray, mat: np.ndarray, qubits, n: int) -> np.ndarray:
    """`mat` on `qubits` of an n-qubit vector by one einsum, independent of the kernel."""
    k = len(qubits)
    mat_in = [n + i for i in range(k)]  # the matrix's input indices, summed against the state's
    state_in = list(range(n))
    for q, i in zip(qubits, mat_in):
        state_in[q] = i
    mat = mat.reshape([2] * (2 * k))
    return np.einsum(mat, list(qubits) + mat_in, v.reshape([2] * n), state_in, list(range(n))).reshape(-1)


def _kernel_cases(n: int, k: int, rng):
    """Target lists on an n-qubit state: every region of a run, in and out of order, and scattered."""
    fold_lo = n - k - max(0, (statesim.FOLD_MAX_COLS >> k).bit_length() - 1)  # largest fold run: 2^k R = FOLD_MAX_COLS
    starts = {0, n - k, fold_lo, fold_lo - 1, n // 2}  # front (L=1), end (R=1), fold, matmul just past it, middle
    for lo in sorted(starts):
        run = list(range(lo, lo + k))
        yield tuple(run)
        if k > 1:
            yield tuple(run[::-1])
            yield tuple(int(q) for q in rng.permutation(run))
    if k > 1:
        yield (0,) + tuple(range(n - k + 1, n))  # scattered: a gap after the first target
        yield tuple(int(q) for q in rng.choice(n, size=k, replace=False))


@pytest.mark.parametrize("n", [17, 18])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_matches_einsum_on_runs_and_scattered_targets(n, k, monkeypatch):
    """Contiguous runs take the (L, 2^k, R) view at 2^17 and 2^18 amplitudes; scattered ones tensordot."""
    rng = np.random.default_rng(100 * n + k)
    views = []
    contract_run = statesim._contract_run
    monkeypatch.setattr(statesim, "_contract_run", lambda *a: views.append(a[2]) or contract_run(*a))
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    st = Statevector.from_amplitudes(v)
    for qubits in _kernel_cases(n, k, rng):
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        out = st.applied_amplitudes(mat, qubits)
        assert np.max(np.abs(out - _einsum_apply(v, mat, qubits, n))) < 1e-12, qubits
        assert not np.shares_memory(out, st.amps)
        assert np.array_equal(st.amps, v)  # bitwise unchanged
        viewed = max(qubits) - min(qubits) == k - 1
        assert (views == [[q - min(qubits) for q in qubits]]) == viewed, qubits
        views.clear()
    u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
    grown = Statevector.from_amplitudes(v).apply_unitary(u, tuple(range(n + 1 - k, n + 1)), new_qubits=(n,))
    padded = np.stack([v, np.zeros_like(v)], axis=1).reshape(-1)  # qubit n joins in |0>
    assert np.max(np.abs(grown.amps - _einsum_apply(padded, u, tuple(range(n + 1 - k, n + 1)), n + 1))) < 1e-12
    assert views == []  # a joining qubit always takes tensordot
    before = st.amps
    st.apply_unitary(u, tuple(range(n - k, n)))
    assert st.amps is before  # the operator writes into the state's own array
    assert np.max(np.abs(st.amps - _einsum_apply(v, u, tuple(range(n - k, n)), n))) < 1e-12


def test_operator_on_no_qubit_scales_the_state():
    v = np.arange(8) + 1j
    st = Statevector.from_amplitudes(v / np.linalg.norm(v))
    assert np.array_equal(st.applied_amplitudes(np.array([[2.0]]), []), 2 * st.amps)
    assert expectation(st, np.eye(1), []) == pytest.approx(1.0)


def _random_state(n: int, rng) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def _layouts(n: int, rng):
    """Target lists of every layout on an n-qubit state (n >= 8)."""
    yield ()  # no target: a scalar
    yield (0, 1)  # L = 1
    yield (n - 2, n - 1)  # R = 1
    yield (n - 4, n - 3)  # 2^k R = 16: the fold region
    yield (n - 5, n - 7, n - 6)  # a shuffled run
    yield (5, 4, 3, 2)  # a reversed run
    yield (n - 1, n - 3)  # scattered, a span of 3: inside one tile
    yield (n - 2, n - 1, n - 6, n - 5)  # scattered, like an lcu site and its ancilla bank
    yield (0, n - 1)  # scattered, a span of n: wider than a tile
    yield tuple(int(q) for q in rng.choice(n, size=3, replace=False))


@pytest.mark.parametrize("tile", [1 << 5, statesim.TILE])
def test_in_place_kernel_matches_einsum_on_every_layout(tile, monkeypatch):
    """Every consumer of the tiled kernel, on tiles of 32 amplitudes and of the default size."""
    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(tile)
    n = 12
    v = _random_state(n, rng)
    for qubits in _layouts(n, rng):
        k = len(qubits)
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        u, _ = np.linalg.qr(mat)
        expected = _einsum_apply(v, mat, qubits, n)
        st = Statevector.from_amplitudes(v)
        assert np.max(np.abs(st.applied_amplitudes(mat, qubits) - expected)) < 1e-12, qubits
        rows = np.moveaxis(expected.reshape([2] * n), qubits, range(k)).reshape(2**k, -1)
        weights = np.sum(np.abs(rows) ** 2, axis=1)
        applied = st.applied_amplitudes(mat, qubits)
        assert np.max(np.abs(statesim._row_weights(applied, n, qubits) - weights)) < 1e-12 * weights.sum(), qubits
        herm = mat + mat.conj().T
        assert abs(expectation(st, herm, qubits) - np.vdot(v, _einsum_apply(v, herm, qubits, n)).real) < 1e-12
        assert np.array_equal(st.amps, v)  # none of the three writes into the state
        amps = st.amps
        st.apply_unitary(u, qubits)
        # in place on a state of several tiles; a state of one tile takes the kernel's fresh output
        assert (st.amps is amps) == (v.size > tile), qubits
        assert np.max(np.abs(st.amps - _einsum_apply(v, u, qubits, n))) < 1e-12, qubits
        st = Statevector.from_amplitudes(v)
        ratio = st.apply_nonunitary_sequence([(mat, qubits)])
        assert ratio == pytest.approx(np.linalg.norm(expected) ** 2, rel=1e-12)
        assert np.max(np.abs(st.amps - expected / np.linalg.norm(expected))) < 1e-12, qubits


@pytest.mark.parametrize("method", ["apply_unitary", "apply_nonunitary_sequence", "spin_fidelity", "expectation"])
def test_operators_allocate_less_than_an_eighth_of_the_state(method):
    """On 20 qubits, each operator call takes tile-sized scratch only, whatever the target layout."""
    import tracemalloc

    n = 20
    rng = np.random.default_rng(20)
    st = Statevector.from_amplitudes(_random_state(n, rng))
    psi = rng.normal(size=(3,) * (n // 2))  # ten spin-1 sites
    for qubits in [(0, 1), (9, 10), (n - 3, n - 2), (n - 1,), (n - 2, n - 1, n - 6, n - 5), (0, n - 1)]:
        k = len(qubits)
        u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
        call = {
            "apply_unitary": lambda: st.apply_unitary(u, qubits),
            "apply_nonunitary_sequence": lambda: st.apply_nonunitary_sequence([(u, qubits), (u, qubits)]),
            "spin_fidelity": lambda: st.spin_fidelity(psi),
            "expectation": lambda: expectation(st, u + u.conj().T, qubits),
        }[method]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < st.amps.nbytes / 8, qubits


def test_normalize_once_matches_renormalizing_after_every_operator():
    """apply_nonunitary_sequence: one renormalization, the per-operator product of ratios and states."""
    rng = np.random.default_rng(9)
    for _ in range(12):
        n = int(rng.integers(3, 9))
        ops = []
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(1, 4))
            qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
            ops.append((rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)), qubits))
        v = _random_state(n, rng) * rng.uniform(0.5, 2.0)  # not normalized: the ratio divides by ||psi||^2
        step = Statevector(n, v.copy(), tracked_norm_sq=0.5)
        ratios = [step.apply_nonunitary(op, qubits) for op, qubits in ops]
        once = Statevector(n, v.copy(), tracked_norm_sq=0.5)
        ratio = once.apply_nonunitary_sequence(ops)
        assert ratio == pytest.approx(np.prod(ratios), rel=1e-12)
        assert once.tracked_norm_sq == pytest.approx(step.tracked_norm_sq, rel=1e-12)
        assert np.max(np.abs(once.amps - step.amps)) < 1e-12
        assert abs(np.linalg.norm(once.amps) - 1.0) < 1e-12
    v = _random_state(4, rng)
    st = Statevector.from_amplitudes(v)
    before = st.amps
    assert st.apply_nonunitary_sequence([]) == pytest.approx(1.0, rel=1e-15)
    assert st.amps is before  # renormalized in the state's own array
    assert np.max(np.abs(st.amps - v)) < 1e-15


def test_normalize_once_raises_on_an_annihilating_operator_or_a_zero_state():
    rng = np.random.default_rng(10)
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    ops = [(symmetrizer(2), (0, 1)), (up, (2,)), (down, (2,)), (symmetrizer(2), (2, 3))]  # annihilates in the middle
    with pytest.raises(ImpossibleOutcomeError):
        Statevector.from_amplitudes(_random_state(4, rng)).apply_nonunitary_sequence(ops)
    for operators in (ops[:1], ops[:2], []):
        with pytest.raises(ImpossibleOutcomeError):
            Statevector(4, np.zeros(16, dtype=complex)).apply_nonunitary_sequence(operators)
    tiny = np.diag([1.0, 1e-8])  # a ratio of 1e-16 on |1>, below PROB_FLOOR
    with pytest.raises(ImpossibleOutcomeError):
        Statevector.from_amplitudes([0, 1]).apply_nonunitary_sequence([(tiny, (0,))])


def test_normalize_once_keeps_at_most_one_extra_state_alive():
    """Each operator's output replaces its input: the input of the first one is not held."""
    import tracemalloc

    n = 16
    v = _random_state(n, np.random.default_rng(11))
    ops = [(symmetrizer(2), (q, q + 1)) for q in range(0, n, 2)]
    tracemalloc.start()
    try:
        st = Statevector.from_amplitudes(v)  # traced, so that freeing it counts
        start = tracemalloc.get_traced_memory()[0]
        st.apply_nonunitary_sequence(ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.25 * st.amps.nbytes  # the output of one operator, with room for small buffers


def test_project_qubit_matches_slicing_reference():
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 9):
        v = _random_state(n, rng) * 1.5  # not normalized
        for qubit in range(n):
            for outcome in (0, 1):
                st = Statevector(n, v.copy(), tracked_norm_sq=0.25)
                prob = st.project_qubit(qubit, outcome)
                t = v.reshape(2**qubit, 2, -1).copy()
                kept = np.linalg.norm(t[:, outcome]) ** 2
                t[:, 1 - outcome] = 0.0
                assert prob == pytest.approx(kept / np.linalg.norm(v) ** 2, rel=1e-15, abs=1e-15)
                assert np.max(np.abs(st.amps - t.reshape(-1) / np.sqrt(kept))) < 1e-15
                assert st.tracked_norm_sq == pytest.approx(0.25 * prob, rel=1e-15)
                assert st.outcome_probability(qubit, outcome) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ImpossibleOutcomeError):
        Statevector(2, np.zeros(4, dtype=complex)).project_qubit(1, 0)
    with pytest.raises(ValueError):
        Statevector.zero(2).project_qubit(2, 0)


@pytest.mark.parametrize("n", [1, 6, 11])
def test_row_weights_are_the_squared_row_norms(n):
    """Row k of op|psi> is where the listed qubits read k, in the order listed (`_row_weights`)."""
    rng = np.random.default_rng(13 + n)
    v = _random_state(n, rng)
    st = Statevector.from_amplitudes(v)
    cases = [(q,) for q in range(n)] + [tuple(range(n)), tuple(range(n))[::-1]]
    if n > 4:
        cases += [(0, 1, n - 2, n - 1), (n - 1, n - 2, 0, 1), (n - 4, n - 3, n - 2, n - 1), (2, 0, 4)]
    for qubits in cases:
        k = len(qubits)
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        rotated = np.moveaxis(st.applied_amplitudes(mat, qubits).reshape([2] * n), qubits, range(k))
        expected = np.sum(np.abs(rotated.reshape(2**k, -1)) ** 2, axis=1)
        applied = st.applied_amplitudes(mat, qubits)
        assert np.max(np.abs(statesim._row_weights(applied, n, qubits) - expected)) < 1e-12 * expected.sum(), qubits
        assert np.array_equal(st.amps, v)


def _project_one_by_one(st: Statevector, qubits, outcomes):
    """Reference for project_qubits: project_qubit in list order; (index, message) of a failure."""
    for index, (qubit, outcome) in enumerate(zip(qubits, outcomes)):
        try:
            st.project_qubit(qubit, outcome)
        except ImpossibleOutcomeError as exc:
            return index, str(exc)
    return None


def test_joint_projection_matches_projecting_one_by_one():
    """project_qubits: one read, one scale; the same state, probability and first failing outcome."""
    rng = np.random.default_rng(14)
    failures = 0
    for _ in range(60):
        n = int(rng.integers(1, 9))
        v = _random_state(n, rng) * 1.5  # not normalized
        if rng.random() < 0.4:  # qubit `sure` definitely |0>: expecting 1 there is impossible
            sure = int(rng.integers(n))
            v.reshape(2**sure, 2, -1)[:, 1] = 0.0
        m = int(rng.integers(1, 5))
        qubits = [int(q) for q in rng.integers(n, size=m)]  # repeats allowed, with either outcome
        outcomes = [int(o) for o in rng.integers(2, size=m)]
        step = Statevector(n, v.copy(), tracked_norm_sq=0.5)
        failed = _project_one_by_one(step, qubits, outcomes)
        joint = Statevector(n, v.copy(), tracked_norm_sq=0.5)
        if failed is not None:
            failures += 1
            with pytest.raises(ImpossibleOutcomeError) as caught:
                joint.project_qubits(qubits, outcomes)
            assert (caught.value.index, str(caught.value)) == failed
            continue
        prob = joint.project_qubits(qubits, outcomes)
        assert prob == pytest.approx(step.tracked_norm_sq / 0.5, rel=1e-12)
        assert joint.tracked_norm_sq == pytest.approx(step.tracked_norm_sq, rel=1e-12)
        assert np.max(np.abs(joint.amps - step.amps)) < 1e-12
    assert 0 < failures < 60


@pytest.mark.parametrize("tile", [1 << 5, statesim.TILE])
def test_spin_fidelity_matches_the_embedded_overlap(tile, monkeypatch):
    """|<V psi|r>|^2 / (||psi||^2 ||r||^2) on mixed site sizes, batches of rows and the fold region."""
    from vbsprep.spinops import symmetric_subspace_isometry

    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(tile)
    for shape in [(3,), (2, 2), (3, 3, 4), (2, 3, 4, 3, 2), (4, 4, 4, 4), (3,) * 7, (5, 3, 2, 3)]:
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        embedded = psi
        for d in shape:
            embedded = np.tensordot(embedded, symmetric_subspace_isometry(d - 1), axes=([0], [1]))
        embedded = embedded.reshape(-1)
        r = (0.3 - 1.1j) * embedded + 0.2 * _random_state(embedded.size.bit_length() - 1, rng)
        expected = abs(np.vdot(embedded, r)) ** 2 / (np.vdot(psi, psi).real * np.vdot(r, r).real)
        st = Statevector.from_amplitudes(r)
        assert abs(st.spin_fidelity(psi) - expected) < 1e-12, shape
        assert np.array_equal(st.amps, r)
    with pytest.raises(ValueError, match="does not fit"):
        Statevector.zero(4).spin_fidelity(np.ones((3, 3, 3)))

"""Statevector kernel: embedding, operators, norm bookkeeping, sampling."""
import math
import re

import numpy as np
import pytest

from vbsprep import statesim
from vbsprep.errors import CapExceededError, ImpossibleOutcomeError, NonUnitaryError
from vbsprep.spinops import symmetrizer
from vbsprep.statesim import Statevector, sample_indices

from oracle_reference import apply_ops, expectation, fidelity, from_amplitudes, outer_then_sequence, overlap, zero_state

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def test_cap():
    with pytest.raises(CapExceededError):  # before any amplitude is checked or allocated
        Statevector(27, np.ones(1, dtype=complex))


def test_cap_override(monkeypatch):
    monkeypatch.setenv("VBS_MAX_QUBITS", "4")
    with pytest.raises(CapExceededError):
        Statevector(5, np.ones(1, dtype=complex))
    with pytest.raises(CapExceededError):
        from_amplitudes(np.ones(32))


def test_amplitude_count_must_match_width():
    with pytest.raises(ValueError, match="4 amplitudes .* 3-qubit state of 8"):
        Statevector(3, np.zeros(4, dtype=complex))


def test_swap_action_msb_convention():
    st = from_amplitudes([0, 1, 0, 0])  # |01>
    st.apply_unitary(SWAP, (0, 1))
    assert np.allclose(st.amps, [0, 0, 1, 0])  # |10>


def test_minus_swap_from_symmetrizer_exponential():
    from vbsprep.spinops import exp_minus_i_pi_symmetrizer

    st = from_amplitudes([0, 1, 0, 0])
    st.apply_unitary(exp_minus_i_pi_symmetrizer(2), (0, 1))
    assert np.allclose(st.amps, [0, 0, -1, 0])


def test_identity_leaves_state_bitwise():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    st = from_amplitudes(v)
    st.apply_unitary(np.eye(2), (1,))
    assert np.array_equal(st.amps, v)


def test_unitarity_guard():
    st = zero_state(1)
    with pytest.raises(NonUnitaryError):
        st.apply_unitary(np.array([[1, 0], [0, 0.5]]), (0,))


def test_unitarity_guard_checks_every_call_on_a_matrix_that_can_change():
    """A non-unitary matrix raises on every call, read-only or not, and so does one changed after it passed."""
    state = zero_state(2)
    bad = np.diag([1.0, 2.0]).astype(complex)
    frozen = bad.copy()
    frozen.setflags(write=False)
    for _ in range(2):
        for mat in (bad, frozen):
            with pytest.raises(NonUnitaryError):
                state.apply_unitary(mat, (0,))
    changing = np.eye(2, dtype=complex)
    state.apply_unitary(changing, (1,))
    changing[1, 1] = 2.0
    with pytest.raises(NonUnitaryError):
        state.apply_unitary(changing, (1,))
    thawed = np.eye(2, dtype=complex)  # found unitary while read-only, then made writable and changed
    thawed.setflags(write=False)
    state.apply_unitary(thawed, (0,))
    thawed.setflags(write=True)
    thawed[0, 0] = 3.0
    with pytest.raises(NonUnitaryError):
        state.apply_unitary(thawed, (0,))


def test_unitary_preserves_norm():
    rng = np.random.default_rng(5)
    st = from_amplitudes(rng.normal(size=16) + 1j * rng.normal(size=16))
    st.amps /= np.linalg.norm(st.amps)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    st.apply_unitary(q, (1, 3))
    assert abs(np.vdot(st.amps, st.amps).real - 1.0) < 1e-12


def test_product_symmetrizer_ratio():
    # single bulk site of a bond product: the double-bond ring on two sites
    st = Statevector.product_of_factors(4, [((0, 1), SINGLET), ((2, 3), SINGLET)], [(symmetrizer(2), (1, 2))])
    assert abs(st.tracked_norm_sq - 0.75) < 1e-12
    assert abs(np.vdot(st.amps, st.amps).real - 1.0) < 1e-12


def test_product_three_halves_ratio():
    st = Statevector.product_of_factors(
        6, [((0, 1), SINGLET), ((2, 3), SINGLET), ((4, 5), SINGLET)], [(symmetrizer(3), (1, 3, 5))]
    )
    assert abs(st.tracked_norm_sq - 0.5) < 1e-12


def test_product_identity_op():
    zero = np.array([1, 0], dtype=complex)
    st = Statevector.product_of_factors(3, [((q,), zero) for q in range(3)], [(np.eye(2), (1,))])
    assert abs(st.tracked_norm_sq - 1.0) < 1e-12


def test_product_zero_norm_is_impossible_outcome():
    with pytest.raises(ImpossibleOutcomeError):
        Statevector.product_of_factors(1, [((0,), np.zeros(2, dtype=complex))], [(np.eye(2), (0,))])


def test_overlap_and_fidelity():
    a = from_amplitudes([1, 0])
    b = from_amplitudes([0, 1])
    assert abs(overlap(a, a) - 1.0) < 1e-12
    assert abs(overlap(a, b)) < 1e-12
    c = from_amplitudes(np.array([1, 1j]) / np.sqrt(2))
    assert abs(fidelity(c, c) - 1.0) < 1e-12


def test_overlap_of_unnormalized_states_is_the_normalized_overlap():
    rng = np.random.default_rng(41)
    v, w = (rng.normal(size=64) + 1j * rng.normal(size=64) for _ in range(2))
    expected = np.vdot(v / np.linalg.norm(v), w / np.linalg.norm(w))
    a, b = from_amplitudes(3.7 * v), from_amplitudes(0.02 * w)
    assert abs(overlap(a, b) - expected) < 1e-15
    assert np.array_equal(a.amps, 3.7 * v)  # the states are left as they were


def test_expectation_z_on_zero():
    st = zero_state(1)
    z = np.diag([1.0, -1.0])
    assert abs(expectation(st, z, (0,)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        expectation(st, np.array([[0, 1], [0, 0]]), (0,))


def _counts(st: Statevector, shots: int, seed: int) -> dict[str, int]:
    values, counts = np.unique(sample_indices(np.abs(st.amps) ** 2, shots, seed), return_counts=True)
    return {format(v, f"0{st.n_qubits}b"): int(c) for v, c in zip(values, counts)}


def test_sampling_deterministic_and_binomial():
    st = zero_state(1)
    counts = _counts(st, 100, seed=1)
    assert counts == {"0": 100}
    plus = from_amplitudes(np.array([1, 1]) / np.sqrt(2))
    counts = _counts(plus, 100_000, seed=2)
    ones = counts.get("1", 0) / 100_000
    assert abs(ones - 0.5) < 3 * np.sqrt(0.25 / 100_000)
    assert _counts(plus, 1000, seed=3) == _counts(plus, 1000, seed=3)


@pytest.mark.parametrize("n", [1, 6, 16])
def test_sample_indices_are_choice_bit_for_bit(n):
    """The draw returns `Generator.choice`'s indices exactly, zero amplitudes included; it consumes its array."""
    rng = np.random.default_rng(n)
    for zeros in (False, True):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        if zeros:
            v[rng.permutation(2**n)[: 2**n // 2]] = 0  # half the amplitudes, and one of two at n = 1
        p = np.abs(v) ** 2
        for seed in (0, 1, 5):
            for shots in (1, 100_000):
                expected = np.random.default_rng(seed).choice(2**n, size=shots, p=p / p.sum())
                probs = p.copy()
                drawn = sample_indices(probs, shots, seed)
                assert drawn.dtype == expected.dtype and np.array_equal(drawn, expected), (zeros, seed, shots)
                assert probs[-1] == 1.0 and np.all(np.diff(probs) >= 0)  # the cdf, built in place


def test_sampling_a_zero_or_non_finite_state_raises():
    for amps in (np.zeros(8), np.array([1, np.nan, 0, 0]), np.array([np.inf, 0])):
        with pytest.raises(ValueError):
            sample_indices(np.abs(amps) ** 2, 10, seed=1)


def _applied(st: Statevector, mat, qubits) -> np.ndarray:
    """op|psi> (not renormalized) through the kernel, on a copy: the state is unchanged."""
    tensor = st.amps.reshape([2] * st.n_qubits).copy()
    return statesim._contract(tensor, np.asarray(mat, dtype=complex), tuple(qubits)).reshape(-1)


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
        st = from_amplitudes(v)
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
        st = from_amplitudes(v)
        assert np.max(np.abs(_applied(st, u, qubits) - expected)) < 1e-12
        assert np.array_equal(st.amps, v)  # _applied leaves the state alone
        st.apply_unitary(u, qubits)
        assert np.max(np.abs(st.amps - expected)) < 1e-12


def _join_cases(rng):
    """(n, qubits, new) joins: random ones, then a new qubit at axis 0, at the last axis, in a run, three at once."""
    for _ in range(40):
        n = int(rng.integers(1, 9))  # width after the gate
        k = int(rng.integers(1, min(n, 4) + 1))
        qubits = tuple(int(q) for q in rng.permutation(n)[:k])
        yield n, qubits, tuple(int(q) for q in rng.permutation(qubits)[: int(rng.integers(0, min(k, n - 1) + 1))])
    yield 8, (0, 1, 5), (0,)
    yield 8, (7, 2), (7,)
    yield 8, (3, 4, 5), (4,)
    yield 9, (8, 1, 6, 2), (1, 6, 8)


def _check_joins_equal_padding(rng):
    for n, qubits, new in _join_cases(rng):
        k = len(qubits)
        u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
        v = rng.normal(size=2 ** (n - len(new))) + 1j * rng.normal(size=2 ** (n - len(new)))
        padded = np.zeros([2] * n, dtype=complex)
        padded[tuple(0 if q in new else slice(None) for q in range(n))] = v.reshape([2] * (n - len(new)))
        st = from_amplitudes(v).apply_unitary(u, qubits, new_qubits=new)
        assert st.n_qubits == n
        assert np.max(np.abs(st.amps - _embed_by_kron(u, qubits, n) @ padded.reshape(-1))) < 1e-12, (qubits, new)


def test_apply_unitary_with_new_qubits_equals_padding_them_first():
    """Qubits that join in |0> as a gate acts: same as inserting them, then applying."""
    _check_joins_equal_padding(np.random.default_rng(31))


def test_joins_across_several_tiles_equal_padding_them_first(monkeypatch):
    """The same joins on tiles of 32 amplitudes: grown states of 6 qubits or more span several tiles."""
    monkeypatch.setattr(statesim, "TILE", 1 << 5)
    _check_joins_equal_padding(np.random.default_rng(31))


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


def _ops_cases(rng):
    """(n, factors, ops): normalized factors listed out of order, non-unitary ops on overlapping qubits."""
    def op(k):
        return rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))

    factors = [((7, 4, 6), None), ((0, 5), None), ((2,), None), ((3, 1), None)]
    factors = [(qs, _random_state(len(qs), rng)) for qs, _ in factors]
    yield 8, factors, [(op(2), (5, 1)), (op(3), (1, 2, 3)), (op(1), (0,)), (op(2), (3, 5))]
    # an op that needs the last factor, listed first: every op waits for it
    yield 8, factors, [(op(2), (6, 0)), (op(1), (0,)), (symmetrizer(2), (1, 2))]
    yield 8, factors, [(symmetrizer(3), (2, 3, 0)), (op(4), (7, 1, 0, 4))]
    pairs = [((2 * i, 2 * i + 1), SINGLET) for i in range(5)]
    yield 10, pairs[::-1], [(symmetrizer(2), (2 * i + 1, 2 * i + 2)) for i in range(4)]


@pytest.mark.parametrize(
    "tile, widths",
    [(statesim.TILE, []), (1 << 5, [8, 8, 6, 8, 10]), (1, [5, 8, 5, 8, 4, 6, 8, 10])],
    ids=["one-tile", "multi-tile", "every-join-a-block"],
)
def test_product_of_factors_applies_ops_as_the_product_grows(tile, widths, monkeypatch):
    """Equal to the outer product then every op by tensordot, in amplitudes and ratio.

    A join whose product fits a tile is an outer product with its ops applied after; a larger one composes them
    into its block (`_joined`), whose widths are pinned.
    """
    monkeypatch.setattr(statesim, "TILE", tile)
    cases = list(_ops_cases(np.random.default_rng(47)))
    references = [outer_then_sequence(n, factors, ops) for n, factors, ops in cases]
    ratios = [ref.tracked_norm_sq for ref in references]
    seen = []  # widths of each join that composes an op: a bare factor joins as one column
    joined = statesim._joined
    monkeypatch.setattr(statesim, "_joined", lambda tensor, cols, axes, new, norms, dtype: seen.extend(
        [tensor.ndim + len(new)] * (cols.shape[1] > 1)) or joined(tensor, cols, axes, new, norms, dtype))
    for (n, factors, ops), expected, ratio in zip(cases, references, ratios):
        st = Statevector.product_of_factors(n, factors, ops)
        assert st.n_qubits == n and st.amps.flags.c_contiguous
        assert np.max(np.abs(st.amps - expected.amps)) < 1e-12
        assert st.tracked_norm_sq == pytest.approx(ratio, rel=1e-12)
    # the product grows by (0, 5), (2,), (3, 1), (7, 4, 6) and by the pairs in turn
    assert seen == widths


def test_product_of_factors_without_ops_is_the_outer_product():
    """ops=() multiplies the factors in the order of their first qubit, then transposes once, bit for bit."""
    rng = np.random.default_rng(53)
    _, factors, _ = next(_ops_cases(rng))
    full = np.array(1.0 + 0j)
    axes = []
    for qs, vec in sorted(factors):
        full = np.multiply.outer(full, vec.reshape([2] * len(qs)))
        axes.extend(qs)
    expected = np.transpose(full, [axes.index(q) for q in range(8)]).reshape(-1)
    for st in (Statevector.product_of_factors(8, factors), Statevector.product_of_factors(8, factors, ())):
        assert np.array_equal(st.amps, expected) and st.tracked_norm_sq == 1.0


def _product_cases(rng):
    """(n, factors, ops) on 17 qubits: unnormalized factors out of order, most landing mid-register.

    The ops span two factors or more; one waits behind an op that needs the
    last factor, and one is too wide for any block, so it and the op after
    it act on the whole product.
    """
    def op(k):
        return rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))

    groups = [(9, 2), (0, 14, 5), (16,), (7, 11, 3, 12), (1, 8), (4, 13, 6), (10, 15)]
    factors = [(qs, _random_state(len(qs), rng) * rng.uniform(0.5, 2.0)) for qs in groups]
    yield 17, factors, [(op(2), (2, 5)), (op(2), (8, 2)), (op(3), (13, 6, 10)), (op(2), (16, 0))]
    yield 17, factors, [(op(2), (16, 9)), (symmetrizer(2), (0, 1)), (op(1), (4,))]
    yield 17, factors, [(op(3), (0, 5, 14)), (op(6), (0, 3, 6, 9, 12, 15)), (op(2), (1, 8))]
    yield 17, factors, []


@pytest.mark.parametrize("tile", [1 << 5, 1 << 9, statesim.TILE])
def test_product_of_factors_matches_the_outer_product_then_the_sequence(tile, monkeypatch):
    """Joined through the kernel, scattered joins included: the reference's amplitudes, ratio and norm."""
    monkeypatch.setattr(statesim, "TILE", tile)
    scattered, calls = statesim._contract_scattered, []
    monkeypatch.setattr(statesim, "_contract_scattered", lambda *a: calls.append(1) or scattered(*a))
    for n, factors, ops in _product_cases(np.random.default_rng(61)):
        expected = outer_then_sequence(n, factors, ops)
        st = Statevector.product_of_factors(n, factors, ops)
        assert st.n_qubits == n and st.amps.flags.c_contiguous
        assert np.max(np.abs(st.amps - expected.amps)) < 1e-12
        assert st.tracked_norm_sq == pytest.approx(expected.tracked_norm_sq, rel=1e-12)
        if ops:
            assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12
    assert calls  # (7, 11, 3, 12) joins between live qubits


def test_product_of_factors_raises_on_an_op_that_annihilates_the_product():
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    onto_11 = np.diag([0, 0, 0, 1]).astype(complex)
    factors = [((0,), zero), ((1, 2), SINGLET), ((3,), one)]
    for ops in ([(onto_11, (3, 0))], [(np.eye(2), (2,)), (onto_11, (0, 3))], [(np.eye(64), (0, 1, 2, 3, 4, 5)), (onto_11, (3, 0))]):
        n = max(q for _, qs in ops for q in qs) + 1
        with pytest.raises(ImpossibleOutcomeError):
            Statevector.product_of_factors(n, factors + [((q,), zero) for q in range(4, n)], ops)


@pytest.mark.parametrize("tile", [1 << 5, 1 << 9, statesim.TILE])
def test_tile_norms_sum_to_the_norm_of_the_written_state(tile, monkeypatch):
    """On runs, scattered targets and joins, the squared norms `_contract` appends sum to the result's."""
    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(67)
    n = 13
    v = _random_state(n, rng)
    cases = [((3,), ()), ((4, 5), ()), ((7, 6, 8), ()), ((0, 12), ()), ((2, 9, 5), ()), ((12,), ()),
             ((13,), (13,)), ((3, 4), (4,)), ((0, 13, 6), (0, 13)), ((14, 5, 6), (5, 6))]
    for qubits, new in cases:
        k = len(qubits)
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        st, norms = from_amplitudes(v), []
        st._apply(mat, qubits, new, norms)
        assert st.n_qubits == n + len(new)
        assert len(norms) == max(1, st.amps.size // tile)
        assert math.fsum(norms) == pytest.approx(np.vdot(st.amps, st.amps).real, rel=1e-12), qubits


def test_product_of_factors_rejects_bad_ops():
    zero = np.array([1, 0], dtype=complex)
    onto_one = np.diag([0, 1]).astype(complex)  # annihilates |0>
    with pytest.raises(ImpossibleOutcomeError):
        Statevector.product_of_factors(3, [((0, 1), SINGLET), ((2,), zero)], [(onto_one, (2,))])
    for qubits in [(3,), (-1,), (0, 5)]:
        with pytest.raises(ValueError, match="bad qubit list " + re.escape(str(qubits))):
            Statevector.product_of_factors(3, [((0, 1), SINGLET), ((2,), zero)], [(np.eye(2 ** len(qubits)), qubits)])


def test_product_of_factors_checks_each_op_before_anything_is_allocated(monkeypatch):
    monkeypatch.setattr(statesim, "_joined", lambda *args: pytest.fail("a factor joined before the ops were checked"))
    factors = [((0, 1), SINGLET), ((2,), np.array([1, 0], dtype=complex))]
    with pytest.raises(ValueError, match=r"^operator dim \(2, 2\) does not match 2 qubits$"):
        Statevector.product_of_factors(3, factors, [(np.eye(4), (1, 2)), (np.eye(2), (0, 1))])
    with pytest.raises(ValueError, match=r"^bad qubit list \(0, 0\) \(new \(\)\) for 3-qubit state$"):
        Statevector.product_of_factors(3, factors, [(np.eye(4), (0, 0))])


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
    st = from_amplitudes(v)
    for qubits in _kernel_cases(n, k, rng):
        mat = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        out = _applied(st, mat, qubits)
        assert np.max(np.abs(out - _einsum_apply(v, mat, qubits, n))) < 1e-12, qubits
        assert not np.shares_memory(out, st.amps)
        assert np.array_equal(st.amps, v)  # bitwise unchanged
        viewed = max(qubits) - min(qubits) == k - 1
        assert (views == [[q - min(qubits) for q in qubits]]) == viewed, qubits
        views.clear()
    u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
    grown = from_amplitudes(v).apply_unitary(u, tuple(range(n + 1 - k, n + 1)), new_qubits=(n,))
    padded = np.stack([v, np.zeros_like(v)], axis=1).reshape(-1)  # qubit n joins in |0>
    assert np.max(np.abs(grown.amps - _einsum_apply(padded, u, tuple(range(n + 1 - k, n + 1)), n + 1))) < 1e-12
    assert views == [list(range(k))]  # a join on a contiguous run takes the view too
    views.clear()
    if k > 1:
        scattered = (n,) + tuple(range(k - 1))  # the joining qubit far from the others
        grown = from_amplitudes(v).apply_unitary(u, scattered, new_qubits=(n,))
        assert np.max(np.abs(grown.amps - _einsum_apply(padded, u, scattered, n + 1))) < 1e-12
        assert views == []  # a scattered join does not
    before = st.amps
    st.apply_unitary(u, tuple(range(n - k, n)))
    assert st.amps is before  # the operator writes into the state's own array
    assert np.max(np.abs(st.amps - _einsum_apply(v, u, tuple(range(n - k, n)), n))) < 1e-12


def _join_layouts(n: int, rng):
    """(qubits, new) joins into an n-qubit state: m = 1, 2, 3 new qubits first, in the middle and last in `qubits`.

    Each comes on a contiguous run (shuffled, at the front and at the end)
    and on scattered targets; k = m + 2, so the three places differ.
    """
    for m in (1, 2, 3):
        k = m + 2
        scattered = [0, 2] + list(range(n - k + 2, n))[::-1]  # gaps after qubits 0 and 2
        for targets in ([int(q) for q in rng.permutation(k)], list(range(n - k, n)), scattered):
            for at in (0, 1, 2):  # the new ones first, in the middle, last
                yield tuple(targets), tuple(targets[at : at + m])


@pytest.mark.parametrize("tile", [1 << 5, statesim.TILE])
def test_joins_match_einsum_on_the_zero_padded_state(tile, monkeypatch):
    """Joins of 1-3 qubits read the old state: the einsum of the padded state, on one tile and on many."""
    monkeypatch.setattr(statesim, "TILE", tile)
    views = []
    contract_run = statesim._contract_run
    monkeypatch.setattr(statesim, "_contract_run", lambda *a: views.append(a[2]) or contract_run(*a))
    rng = np.random.default_rng(tile + 3)
    n = 11
    for qubits, new in _join_layouts(n, rng):
        k = len(qubits)
        u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
        v = _random_state(n - len(new), rng)
        padded = np.zeros([2] * n, dtype=complex)
        padded[tuple(0 if q in new else slice(None) for q in range(n))] = v.reshape([2] * (n - len(new)))
        grown = from_amplitudes(v).apply_unitary(u, qubits, new_qubits=new)
        assert np.max(np.abs(grown.amps - _einsum_apply(padded.reshape(-1), u, qubits, n))) < 1e-12, (qubits, new)
        run = max(qubits) - min(qubits) == k - 1
        assert views == ([[q - min(qubits) for q in qubits]] if run else []), (qubits, new)
        views.clear()


def test_join_into_21_qubits_allocates_the_grown_state_and_a_few_tiles(monkeypatch):
    """The ring's 20 -> 21 join: the grown state, never zero-filled, and at most four tiles of scratch."""
    import tracemalloc

    zeroed = []
    zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda shape, *a, **kw: zeroed.append(np.prod(shape)) or zeros(shape, *a, **kw))
    rng = np.random.default_rng(22)
    st = from_amplitudes(_random_state(20, rng))
    u, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        st.apply_unitary(u, (19, 10, 11, 20), new_qubits=(20,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.n_qubits == 21
    assert peak - start <= st.amps.nbytes + 4 * statesim.TILE * st.amps.itemsize
    assert all(size < statesim.TILE for size in zeroed)  # no zero-filled grown state


def test_operator_on_no_qubit_scales_the_state():
    v = np.arange(8) + 1j
    st = from_amplitudes(v / np.linalg.norm(v))
    assert np.array_equal(_applied(st, np.array([[2.0]]), []), 2 * st.amps)
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
        st = from_amplitudes(v)
        assert np.max(np.abs(_applied(st, mat, qubits) - expected)) < 1e-12, qubits
        herm = mat + mat.conj().T
        assert abs(expectation(st, herm, qubits) - np.vdot(v, _einsum_apply(v, herm, qubits, n)).real) < 1e-12
        assert np.array_equal(st.amps, v)  # neither writes into the state
        amps = st.amps
        st.apply_unitary(u, qubits)
        # in place on a state of several tiles; a state of one tile takes the kernel's fresh output
        assert (st.amps is amps) == (v.size > tile), qubits
        assert np.max(np.abs(st.amps - _einsum_apply(v, u, qubits, n))) < 1e-12, qubits
        st = Statevector.product_of_factors(n, [(tuple(range(n)), v)], [(mat, qubits)])
        assert st.tracked_norm_sq == pytest.approx(np.linalg.norm(expected) ** 2, rel=1e-12)
        assert np.max(np.abs(st.amps - expected / np.linalg.norm(expected))) < 1e-12, qubits


@pytest.mark.parametrize("method", ["apply_unitary", "spin_fidelity", "expectation"])
def test_operators_allocate_less_than_an_eighth_of_the_state(method):
    """On 20 qubits, each operator call takes tile-sized scratch only, whatever the target layout."""
    import tracemalloc

    n = 20
    rng = np.random.default_rng(20)
    st = from_amplitudes(_random_state(n, rng))
    psi = rng.normal(size=(3,) * (n // 2))  # ten spin-1 sites
    for qubits in [(0, 1), (9, 10), (n - 3, n - 2), (n - 1,), (n - 2, n - 1, n - 6, n - 5), (0, n - 1)]:
        k = len(qubits)
        u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
        call = {
            "apply_unitary": lambda: st.apply_unitary(u, qubits),
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


@pytest.mark.parametrize(
    "qubits, new",
    [((18, 10, 11, 19), (19,)), ((17, 19, 18), (19,)), ((16, 17, 18, 19), (17, 18, 19))],
    ids=["scattered", "run", "three-new"],
)
def test_joins_allocate_the_grown_state_and_an_eighth(qubits, new):
    """A join into 20 qubits allocates the grown state and tile-sized scratch: no second state-sized array."""
    import tracemalloc

    n = 20
    rng = np.random.default_rng(21)
    st = from_amplitudes(_random_state(n - len(new), rng))
    k = len(qubits)
    u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        st.apply_unitary(u, qubits, new_qubits=new)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.n_qubits == n
    assert peak - start <= st.amps.nbytes * (1 + 1 / 8)


def _random_product(n: int, rng) -> list:
    """Unnormalized factors of one to three qubits over range(n), listed out of order."""
    qubits, factors = [int(q) for q in rng.permutation(n)], []
    while qubits:
        m = min(len(qubits), int(rng.integers(1, 4)))
        factors.append((tuple(qubits[:m]), _random_state(m, rng) * rng.uniform(0.5, 2.0)))
        qubits = qubits[m:]
    return factors


def test_product_ops_normalize_once_to_the_product_of_per_op_ratios(monkeypatch):
    """Ops that fit a block and ops too wide for one: one renormalization, the product of per-op ratios."""
    applied = []  # ops that fit no block act on the whole product through _apply
    apply = Statevector._apply
    monkeypatch.setattr(Statevector, "_apply", lambda self, *a: applied.append(a[1]) or apply(self, *a))
    rng = np.random.default_rng(9)
    wide = 0
    for _ in range(16):
        n = int(rng.integers(6, 11))
        factors, ops = _random_product(n, rng), []
        for _ in range(int(rng.integers(1, 6))):
            k = int(rng.integers(1, 6))
            qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
            ops.append((rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)), qubits))
        step = outer_then_sequence(n, factors)
        ratios = [apply_ops(step, [op]) for op in ops]
        st = Statevector.product_of_factors(n, factors, ops)
        assert st.tracked_norm_sq == pytest.approx(np.prod(ratios), rel=1e-12)
        assert np.max(np.abs(st.amps - step.amps)) < 1e-12
        assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12
        wide += bool(applied)
        applied.clear()
    assert 0 < wide < 16  # some products applied an op to the whole product, some composed every op into blocks


def test_product_ops_raise_on_an_annihilating_op_or_a_zero_product():
    rng = np.random.default_rng(10)
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    ops = [(symmetrizer(2), (0, 1)), (up, (2,)), (down, (2,)), (symmetrizer(2), (2, 3))]  # annihilates in the middle
    too_wide = [(np.eye(64), (0, 1, 2, 3, 4, 5))]  # fits no block: it and the ops after it act on the whole product
    factors = [((0, 1), _random_state(2, rng)), ((2, 3), _random_state(2, rng)), ((4, 5), _random_state(2, rng))]
    zeros = [(qs, np.zeros(4, dtype=complex)) for qs, _ in factors]
    for head in ([], too_wide):
        with pytest.raises(ImpossibleOutcomeError):
            Statevector.product_of_factors(6, factors, head + ops)
        for operators in (ops[:1], ops[:2]):
            with pytest.raises(ImpossibleOutcomeError):
                Statevector.product_of_factors(6, zeros, head + operators)
    tiny = np.diag([1.0, 1e-8])  # a ratio of 1e-16 on |1>, below PROB_FLOOR
    with pytest.raises(ImpossibleOutcomeError):
        Statevector.product_of_factors(1, [((0,), np.array([0, 1]))], [(tiny, (0,))])


def test_product_ops_too_wide_for_a_block_allocate_less_than_an_eighth_of_the_state(monkeypatch):
    """On 20 qubits: each op on the whole product takes tile-sized scratch; the call, the product, the state it grew from and an eighth."""
    import tracemalloc

    n = 20
    extra, peaks = [], []  # beyond the state, during each op on the whole product; the peak before each
    apply = Statevector._apply

    def traced(self, *args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        apply(self, *args)
        extra.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(Statevector, "_apply", traced)
    factors = [((q, q + 1), SINGLET) for q in range(0, n, 2)]
    ops = [(symmetrizer(2), (q, q + 1)) for q in range(1, n - 1, 2)]
    ops.insert(0, (np.eye(64), (0, 3, 6, 9, 12, 15)))  # fits no block: every op acts on the whole product
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        st = Statevector.product_of_factors(n, factors, ops)
        peak = max(peaks + [tracemalloc.get_traced_memory()[1]])
    finally:
        tracemalloc.stop()
    assert len(extra) == len(ops)
    assert max(extra) < st.amps.nbytes / 8
    assert peak - start <= st.amps.nbytes * (1 + 1 / 4 + 1 / 8)  # the last join holds the 18-qubit state it grew from


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
        st = from_amplitudes(r)
        assert abs(st.spin_fidelity(psi) - expected) < 1e-12, shape
        assert np.array_equal(st.amps, r)
    with pytest.raises(ValueError, match="does not fit"):
        zero_state(4).spin_fidelity(np.ones((3, 3, 3)))


# a state larger than a tile whose folded sites (3 and 4 values) sit between its qubit axes: 55296 amplitudes
_MIXED = (3, 2, 2, 4, 2, 2, 2, 3, 2, 2, 2, 2, 3)


@pytest.mark.parametrize("tile", [1 << 5, 1 << 15])
def test_folds_and_joins_on_mixed_axes_match_einsum(tile, monkeypatch):
    """Folds (`_fold_tiles`) and joins (run, scattered, all new) on `_MIXED`, tiles ragged, against np.einsum."""
    from vbsprep.spinops import symmetric_subspace_isometry

    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(tile)
    tensor = rng.normal(size=_MIXED) + 1j * rng.normal(size=_MIXED)
    # (2S, still in qubits) from axis lo: one site, or several with folded ones passed through
    spans = [(1, [(2, True)]), (4, [(3, True)]), (8, [(2, True)]), (10, [(2, True)]),
             (4, [(3, True), (2, False), (2, True), (2, True), (2, False)]),
             (0, [(2, False), (2, True), (3, False), (3, True), (2, False), (2, True), (2, True), (2, False)])]
    for lo, sites in spans:
        ref, axis = tensor, lo  # V^dagger on each site in qubits, by np.einsum
        for w, qubits in sites:
            if qubits:
                merged = ref.reshape(ref.shape[:axis] + (2**w,) + ref.shape[axis + w :])
                m = merged.ndim
                ref = np.einsum(merged, list(range(m)), symmetric_subspace_isometry(w), [axis, m], [*range(axis), m, *range(axis + 1, m)])
            axis += 1
        batches = [(index, out.copy()) for index, out in statesim._fold_tiles(tensor, lo, sites)]
        assert [index.start for index, _ in batches] == sorted({index.start for index, _ in batches})
        out = np.concatenate([out for _, out in batches]).reshape(ref.shape)
        assert np.max(np.abs(out - ref)) < 1e-12, (lo, sites)
        assert len(batches) > 1 or lo == 0
    for axes, new in [((2, 3), (3,)), ((6, 2, 9), (9,)), ((5, 6), (5, 6))]:
        k, n = len(axes), len(_MIXED) + len(new)
        u, _ = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))
        cols = u.reshape([2] * 2 * k)[(slice(None),) * k + tuple(slice(1 if a in new else 2) for a in axes)]
        norms = []
        out = statesim._joined(tensor, cols.reshape(2**k, -1), list(axes), list(new), norms, complex)
        grown = tensor
        for a in new:  # each new qubit in |0>
            grown = np.stack([grown, np.zeros_like(grown)], axis=a)
        ref = np.einsum(u.reshape([2] * 2 * k), [n + i for i in range(k)] + list(axes), grown, list(range(n)),
                        [n + axes.index(a) if a in axes else a for a in range(n)])
        assert out.shape == ref.shape and np.max(np.abs(out - ref)) < 1e-12, axes
        assert len(norms) > 1 and math.fsum(norms) == pytest.approx(np.vdot(ref, ref).real, rel=1e-12)


@pytest.mark.parametrize("tile", [1 << 5, 1 << 15])
def test_product_folds_each_finished_site_to_the_compressed_reference(tile, monkeypatch):
    """Symmetrized sites fold as they finish: the folded product is V^dagger of the reference product, its kept fraction 1."""
    from oracle_reference import compress, qubit_amps

    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(7)
    sites = [(0, 1), (2, 3, 4), (5, 6), (7, 8, 9), (10, 11)]
    factors = [((0, 2), _random_state(2, rng)), ((1, 5, 7), _random_state(3, rng)), ((3, 4, 6), _random_state(3, rng)),
               ((8, 10), _random_state(2, rng)), ((9, 11), _random_state(2, rng))]
    ops = [(symmetrizer(len(site)), site) for site in sites]
    st = Statevector.product_of_factors(12, factors, ops, sites)
    ref = outer_then_sequence(12, factors, ops)
    assert st.n_qubits == 12 and st._dims == (3, 4, 3, 4, 3) and st._kept == pytest.approx(1.0, abs=1e-12)
    assert st.tracked_norm_sq == pytest.approx(ref.tracked_norm_sq, rel=1e-12)
    assert np.max(np.abs(st.amps - compress(ref, st._dims).reshape(-1))) < 1e-12
    assert abs(st.spin_fidelity(compress(ref, st._dims)) - 1) < 1e-12
    # an op too wide for any block acts after the last join, so the sites it touches stay qubits: spin_fidelity folds them
    sites = [(0, 1), (2, 3), (4, 5), (6, 7)]
    factors = [((q,), _random_state(1, rng)) for q in range(8)]
    wide = np.kron(np.kron(symmetrizer(2), symmetrizer(2)), symmetrizer(2))
    ops = [(symmetrizer(2), site) for site in sites] + [(wide, tuple(range(6)))]
    st = Statevector.product_of_factors(8, factors, ops, sites)
    ref = outer_then_sequence(8, factors, ops)
    assert st._dims == (2,) * 6 + (3,) and st._kept == pytest.approx(1.0, abs=1e-12)
    assert st.tracked_norm_sq == pytest.approx(ref.tracked_norm_sq, rel=1e-12)
    assert np.max(np.abs(qubit_amps(st) - ref.amps)) < 1e-12
    assert abs(st.spin_fidelity(compress(ref, (3,) * 4)) - 1) < 1e-12

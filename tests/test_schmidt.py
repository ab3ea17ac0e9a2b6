"""Schmidt-based state preparation, island circuits, W states, permutations, LCU."""
import math

import numpy as np
import pytest

from vbsprep.errors import ConfigError
from vbsprep.ir import Circuit, CNot, cnot_count, cnot_depth
from vbsprep.schmidt import (
    island_prep_circuit,
    island_state,
    schmidt_prepare,
    u1q_gate,
)
from vbsprep.spinops import symmetrizer
from vbsprep.statesim import Statevector
from vbsprep.symmetrize import (
    block_angle,
    lcu_spin2_resources,
    lcu_symmetrization_circuit,
    permutation_swap_sequences,
    swap_sequence_matrix,
    w_state_circuit,
)

from oracle_reference import apply_ops, fidelity, from_amplitudes, post_select, prepared, simulate_circuit, w_state_vector

# Printed island amplitudes for the spin-1 case: (1/sqrt(3)) * (0,0,0,1/2,...)
ISLAND_S1_REF = np.array(
    [0, 0, 0, 0.5, 0, 0.5, -1, 0, 0, -1, 0.5, 0, 0.5, 0, 0, 0]
) / math.sqrt(3)


def test_island_state_spin1_vector():
    st = island_state(2)
    assert np.max(np.abs(st.amps - ISLAND_S1_REF)) < 1e-12


def test_island_state_norm_ratios():
    assert abs(island_state(2).tracked_norm_sq - 0.75) < 1e-12
    assert abs(island_state(3).tracked_norm_sq - 0.5) < 1e-12


@pytest.mark.parametrize("twice_s,count,depth", [(2, 7, 4), (3, 35, 19)])
def test_island_circuit_counts_and_state(twice_s, count, depth):
    circ = island_prep_circuit(twice_s)
    assert cnot_count(circ, "all_to_all") == count
    assert cnot_depth(circ, "all_to_all") == depth
    sim, _ = simulate_circuit(circ)
    assert abs(fidelity(sim, island_state(twice_s)) - 1.0) < 1e-10


@pytest.mark.parametrize("nq", [2, 3, 4, 5, 6])
def test_schmidt_prepare_random_targets(nq):
    rng = np.random.default_rng(nq)
    for _ in range(4):
        v = rng.normal(size=2**nq) + 1j * rng.normal(size=2**nq)
        circ = schmidt_prepare(v)
        sim, _ = simulate_circuit(circ)
        target = from_amplitudes(v / np.linalg.norm(v))
        assert abs(fidelity(sim, target) - 1.0) < 1e-10


def test_schmidt_product_target_skips_cnot():
    v = np.kron([1, 0], np.array([0.6, 0.8]))
    circ = schmidt_prepare(v)
    assert sum(1 for g in circ.gates if isinstance(g, CNot)) == 0
    sim, _ = simulate_circuit(circ)
    assert abs(fidelity(sim, from_amplitudes(v)) - 1.0) < 1e-12


def test_schmidt_bell_state_one_cnot():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    circ = schmidt_prepare(bell)
    assert sum(1 for g in circ.gates if isinstance(g, CNot)) == 1
    sim, _ = simulate_circuit(circ)
    assert abs(fidelity(sim, from_amplitudes(bell)) - 1.0) < 1e-12


def test_schmidt_three_qubit_cost_cap():
    rng = np.random.default_rng(9)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    circ = schmidt_prepare(v)
    assert cnot_count(circ, "all_to_all") <= 4


def test_schmidt_generic_four_qubit_bounds():
    # worst-case accounting for an arbitrary target: 9 CNOTs, depth 5
    rng = np.random.default_rng(14)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    circ = schmidt_prepare(v)
    assert cnot_count(circ, "all_to_all") <= 9
    assert cnot_depth(circ, "all_to_all") <= 5


def test_schmidt_generic_six_qubit_bounds():
    # worst-case accounting: 47 CNOTs, depth 25
    rng = np.random.default_rng(15)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    circ = schmidt_prepare(v)
    assert cnot_count(circ, "all_to_all") == 47
    assert cnot_depth(circ, "all_to_all") == 25


def test_schmidt_degenerate_target():
    with pytest.raises(ValueError):
        schmidt_prepare(np.zeros(4))


def test_u1q_gate_edge_matrices():
    import cmath

    edges = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.diag([1, -1]),
        np.diag([1, 1j]),
        np.array([[0, -1j], [1j, 0]]),
        cmath.exp(0.7j) * np.diag([1, cmath.exp(0.3j)]),
    ]
    for m in edges:
        u = u1q_gate(np.asarray(m, dtype=complex), 0).matrix()
        # equal up to global phase
        k = np.argmax(np.abs(m))
        phase = np.asarray(m).flat[k] / u.flat[k]
        assert np.max(np.abs(phase * u - m)) < 1e-12


def test_u1q_gate_reproduces_unitary_up_to_phase():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        gate = u1q_gate(q, 0)
        u = gate.matrix()
        phase = q[np.abs(q) > 0.3].flat[0] / u[np.abs(q) > 0.3].flat[0]
        assert np.max(np.abs(phase * u - q)) < 1e-10


# ---------------------------------------------------------------------------
# W states
# ---------------------------------------------------------------------------

def test_block_angle_half_is_pi_over_four():
    assert abs(block_angle(0.5) - math.pi / 4) < 1e-12


@pytest.mark.parametrize("m", list(range(2, 17)))
def test_w_state_exact(m):
    circ = w_state_circuit(m, tuple(range(m)), Circuit(m))
    sim, _ = simulate_circuit(circ)
    assert np.max(np.abs(sim.amps - w_state_vector(m))) < 1e-12


def test_w4_amplitudes_one_half():
    sim, _ = simulate_circuit(w_state_circuit(4, tuple(range(4)), Circuit(4)))
    hot = [sim.amps[1 << i] for i in range(4)]
    assert np.allclose(hot, [0.5] * 4, atol=1e-12)


def test_w24_counts():
    circ = w_state_circuit(24, tuple(range(24)), Circuit(24))
    assert cnot_count(circ, "all_to_all") == 46
    assert sum(1 for g in circ.gates if isinstance(g, CNot)) == 46


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutation_counts_n2():
    seqs = permutation_swap_sequences(2)
    assert sorted(len(s) for s in seqs) == [0, 1]


def test_permutation_counts_n3():
    seqs = permutation_swap_sequences(3)
    assert sorted(len(s) for s in seqs) == [0, 1, 1, 1, 2, 2]


def test_permutation_counts_n4():
    seqs = permutation_swap_sequences(4)
    counts = [len(s) for s in seqs]
    assert len(seqs) == 24
    assert counts.count(1) == 6 and counts.count(2) == 11 and counts.count(3) == 6
    assert sum(counts) == 46


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_average_is_symmetrizer(n):
    seqs = permutation_swap_sequences(n)
    avg = sum(swap_sequence_matrix(s, n) for s in seqs) / len(seqs)
    assert np.max(np.abs(avg - symmetrizer(n))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_permutation_matrices_form_group(n):
    mats = [swap_sequence_matrix(s, n) for s in permutation_swap_sequences(n)]
    for a in mats:
        for b in mats:
            prod = a @ b
            assert any(np.max(np.abs(prod - c)) < 1e-12 for c in mats)


def test_permutation_matrices_are_distinct_permutations():
    mats = [swap_sequence_matrix(s, 3) for s in permutation_swap_sequences(3)]
    seen = {tuple(np.argmax(m, axis=0)) for m in mats}
    assert len(seen) == 6


# ---------------------------------------------------------------------------
# LCU
# ---------------------------------------------------------------------------

def _lcu_apply(n_halves: int, input_state: Statevector):
    total = n_halves + math.factorial(n_halves)
    circ = lcu_symmetrization_circuit(n_halves, tuple(range(n_halves)), tuple(range(n_halves, total)))
    # the input on the halves; the ancillas start in |0>
    state, markers = simulate_circuit(Circuit(total, [prepared(input_state.amps, range(n_halves))] + circ.gates))
    return post_select(state, markers, range(n_halves))


@pytest.mark.parametrize("n_halves", [2, 3], ids=["2-sparse", "3-sparse"])
def test_lcu_applies_symmetrizer(n_halves):
    rng = np.random.default_rng(n_halves)
    v = rng.normal(size=2**n_halves) + 1j * rng.normal(size=2**n_halves)
    v /= np.linalg.norm(v)
    inp = from_amplitudes(v)

    oracle = from_amplitudes(v)
    ratio = apply_ops(oracle, [(symmetrizer(n_halves), tuple(range(n_halves)))])
    prob, out = _lcu_apply(n_halves, inp)
    assert abs(prob - ratio) < 1e-10
    assert abs(fidelity(out, oracle) - 1.0) < 1e-10


def test_lcu_wrong_ancilla_count():
    with pytest.raises(ConfigError):
        lcu_symmetrization_circuit(2, (0, 1), (2,))


def test_lcu_spin2_totals():
    res = lcu_spin2_resources()
    assert res["cswaps"] == 46
    assert res["select_cnots"] == 322
    assert res["prepare_cnots"] == 46
    assert res["total_cnots"] == 414

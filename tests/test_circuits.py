"""Circuit IR, builders, declared-cost accounting, Fredkin expansion."""
import numpy as np
import pytest

from vbsprep.builders import (
    fredkin_fragment,
    hadamard_test_fragment,
    pre_vbs_circuit,
    pre_vbs_oracle_state,
    probabilistic_method_circuit,
    toffoli_fragment,
    valence_bond_subcircuit,
)
from vbsprep.errors import MissingCostError
from vbsprep.ir import (
    Circuit,
    CNot,
    Measure,
    Opaque,
    U1Q,
    circuit_unitary,
    cnot_count,
    cnot_depth,
    post_select,
    simulate_circuit,
    u_h,
)
from vbsprep.lattice import assign_qubits, build_chain, build_three_link_pair
from vbsprep.spinops import SpinValue
from vbsprep.statesim import Statevector

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_valence_bond_amplitudes():
    # frozen from the 4x4 product of the four gates
    circ = valence_bond_subcircuit(0, 1)
    state, _ = simulate_circuit(circ)
    assert np.allclose(state.amps, [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-12)


def test_valence_bond_counts():
    circ = valence_bond_subcircuit(0, 1)
    assert cnot_count(circ, "all_to_all") == 1
    assert cnot_depth(circ, "all_to_all") == 1


def test_valence_bond_not_involution():
    circ = valence_bond_subcircuit(0, 1)
    u = circuit_unitary(circ)
    assert np.max(np.abs(u @ u - np.eye(4))) > 0.1


def test_pre_vbs_chain_counts():
    lat = build_chain(3, "open")
    enc = assign_qubits(lat, "hadamard_all")
    circ = pre_vbs_circuit(lat, enc)
    assert cnot_count(circ, "all_to_all") == 2
    assert cnot_depth(circ, "all_to_all") == 1


def test_pre_vbs_three_link_pair():
    lat = build_three_link_pair()
    enc = assign_qubits(lat, "hadamard_all")
    circ = pre_vbs_circuit(lat, enc)
    assert cnot_count(circ, "all_to_all") == 3
    assert cnot_depth(circ, "all_to_all") == 1
    assert circ.n_qubits == 8


def test_pre_vbs_matches_tensor_product_construction():
    for lat in (build_chain(3, "open", ("up", "down")), build_three_link_pair()):
        enc = assign_qubits(lat, "hadamard_all")
        state, _ = simulate_circuit(pre_vbs_circuit(lat, enc))
        oracle = pre_vbs_oracle_state(enc)
        assert abs(state.fidelity(oracle) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "twice_s,coupling,count",
    [(2, "all_to_all", 7), (2, "linear", 9), (3, "all_to_all", 26), (3, "linear", 39)],
)
def test_hadamard_test_declared_costs(twice_s, coupling, count):
    lat = build_chain(2, "open") if twice_s == 2 else build_three_link_pair()
    enc = assign_qubits(lat, "hadamard_all")
    frag = hadamard_test_fragment(0, enc, SpinValue(twice_s))
    assert cnot_count(frag, coupling) == count


def test_hadamard_test_postselection_equals_symmetrizer():
    from vbsprep.methods import data_state
    from vbsprep.spinops import symmetrizer

    lat = build_chain(2, "open")
    enc = assign_qubits(lat, "hadamard_all")
    base = pre_vbs_oracle_state(enc)
    circ = hadamard_test_fragment(0, enc, SpinValue(2))
    state, markers = simulate_circuit(circ, initial=base)
    prob, state = post_select(state, markers)

    oracle = base.copy()
    ratio = oracle.apply_nonunitary(symmetrizer(2), enc.site_qubits[0])
    assert abs(prob - ratio) < 1e-12
    assert abs(data_state(state, enc).fidelity(data_state(oracle, enc)) - 1.0) < 1e-10


def test_dropped_phase_gate_flips_expected_outcome():
    from vbsprep.methods import data_state
    from vbsprep.spinops import symmetrizer

    lat = build_chain(2, "open")
    enc = assign_qubits(lat, "hadamard_all")
    base = pre_vbs_oracle_state(enc)

    phased = hadamard_test_fragment(0, enc, SpinValue(2))
    plain = hadamard_test_fragment(0, enc, SpinValue(2), drop_phase_gate=True)
    assert phased.measures()[0].expect == 1
    assert plain.measures()[0].expect == 0
    assert plain.metadata["phase_gate_dropped"]

    outs = []
    for circ in (phased, plain):
        state, markers = simulate_circuit(circ, initial=base)
        prob, state = post_select(state, markers)
        outs.append((prob, data_state(state, enc)))
    assert abs(outs[0][0] - outs[1][0]) < 1e-12
    assert abs(outs[0][1].fidelity(outs[1][1]) - 1.0) < 1e-12


def test_probabilistic_depths():
    lat = build_chain(3, "open")
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(2))
    assert cnot_depth(circ, "all_to_all") == 8  # 1 + 7
    assert cnot_depth(circ, "linear") == 10  # 1 + 9

    pair = build_three_link_pair()
    enc_p = assign_qubits(pair, "hadamard_all")
    circ_p = probabilistic_method_circuit(pair, enc_p, SpinValue(3))
    assert cnot_depth(circ_p, "all_to_all") == 27  # 1 + 26

    # the simulated island circuits carry the printed depths: every full
    # island is one block counted on island_prep_circuit
    from vbsprep.methods import run_mitigated_islands

    islands_p = run_mitigated_islands(pair, SpinValue(3))["circuit"]
    assert cnot_depth(islands_p, "all_to_all") == 45  # 19 + 26
    islands_ring = run_mitigated_islands(build_chain(4, "ring"), SpinValue(2))["circuit"]
    assert cnot_depth(islands_ring, "linear") == 17  # 8 + 9


def test_probabilistic_matches_closed_form_probability():
    # ring N=3 -> 3/8; open N=2 aligned -> 1/2; anti-aligned -> 5/8
    cases = [
        (build_chain(3, "ring"), 3.0 / 8.0),
        (build_chain(2, "open", ("up", "up")), 0.5),
        (build_chain(2, "open", ("up", "down")), 5.0 / 8.0),
    ]
    for lat, expected in cases:
        enc = assign_qubits(lat, "hadamard_all")
        circ = probabilistic_method_circuit(lat, enc, SpinValue(2))
        state, markers = simulate_circuit(circ)
        prob, _ = post_select(state, markers)
        assert abs(prob - expected) < 1e-10


def test_toffoli_fragment_matrix():
    circ = Circuit(3)
    toffoli_fragment(0, 1, 2, circ)
    expected = np.eye(8, dtype=complex)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.max(np.abs(circuit_unitary(circ) - expected)) < 1e-12


def test_fredkin_is_cswap():
    circ = fredkin_fragment(0, 1, 2)
    cswap = np.eye(8, dtype=complex)
    cswap[[5, 6]] = cswap[[6, 5]]
    assert np.max(np.abs(circuit_unitary(circ) - cswap)) < 1e-12
    assert sum(1 for g in circ.gates if isinstance(g, CNot)) == 8


def test_fredkin_fixed_points():
    circ = fredkin_fragment(0, 1, 2)
    u = circuit_unitary(circ)
    # |1>|01> -> |1>|10>
    v = np.zeros(8, dtype=complex)
    v[0b101] = 1.0
    out = u @ v
    assert abs(out[0b110] - 1.0) < 1e-12
    # control 0: identity on the rest
    w = np.zeros(8, dtype=complex)
    w[0b001] = 1.0
    assert abs((u @ w)[0b001] - 1.0) < 1e-12


def test_missing_declared_cost_raises():
    gate = Opaque("mystery", (0, 1), np.eye(4), cnot_cost={"all_to_all": 3})
    circ = Circuit(2, gates=[gate])
    assert cnot_count(circ, "all_to_all") == 3
    with pytest.raises(MissingCostError):
        cnot_count(circ, "linear")


def test_depth_scheduling_is_by_qubit_overlap():
    circ = Circuit(4)
    circ.add(CNot(0, 1))
    circ.add(CNot(2, 3))  # parallel
    circ.add(CNot(1, 2))  # waits for both
    assert cnot_depth(circ, "all_to_all") == 2
    assert cnot_count(circ, "all_to_all") == 3


def test_circuit_rejects_duplicate_qubit():
    circ = Circuit(2)
    with pytest.raises(ValueError):
        circ.add(CNot(1, 1))


def test_builders_preserve_total_probability_before_projection():
    # unitarity preservation across every builder's full circuit
    from vbsprep.builders import mitigated_islands_circuit, mitigated_retry_circuit
    from vbsprep.schmidt import island_prep_circuit
    from vbsprep.symmetrize import w_state_circuit

    circuits = []
    lat = build_chain(3, "ring")
    circuits.append(probabilistic_method_circuit(lat, assign_qubits(lat, "hadamard_all"), SpinValue(2)))
    lat4 = build_chain(4, "open", ("up", "down"))
    enc4 = assign_qubits(lat4, "islands_plus_sublattice")
    circuits.append(mitigated_islands_circuit(lat4, enc4, SpinValue(2)))
    circuits.append(mitigated_retry_circuit(lat4, enc4, SpinValue(2)))
    circuits.append(island_prep_circuit(SpinValue(3)))
    circuits.append(w_state_circuit(6))
    for circ in circuits:
        state, _ = simulate_circuit(circ)
        total = float(np.vdot(state.amps, state.amps).real)
        assert abs(total - 1.0) < 1e-12


def test_circuit_json_round_trip():
    import json

    from vbsprep.ir import circuit_from_json_dict, circuit_to_json_dict

    lat = build_three_link_pair()
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(3))
    doc = json.loads(json.dumps(circuit_to_json_dict(circ)))
    again = circuit_from_json_dict(doc)
    p0, s0 = post_select(*simulate_circuit(circ))
    p1, s1 = post_select(*simulate_circuit(again))
    assert abs(p0 - p1) < 1e-12
    assert abs(s0.fidelity(s1) - 1.0) < 1e-12
    assert cnot_depth(again, "all_to_all") == cnot_depth(circ, "all_to_all")


def _random_circuit(rng, n: int, n_gates: int) -> Circuit:
    circ = Circuit(n)
    for _ in range(n_gates):
        kind = rng.integers(4)
        if kind == 0:
            a, b = (int(q) for q in rng.permutation(n)[:2])
            circ.add(CNot(a, b))
        elif kind == 1:
            theta, phi, lam = rng.uniform(-np.pi, np.pi, size=3)
            circ.add(U1Q(theta, phi, lam, int(rng.integers(n))))
        elif kind == 2:
            k = int(rng.integers(1, min(n, 5) + 1))
            m = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            u, _ = np.linalg.qr(m)
            circ.add(Opaque("random", tuple(int(q) for q in rng.permutation(n)[:k]), u))
        else:
            circ.add(Measure(int(rng.integers(n)), int(rng.integers(2))))
    return circ


def test_fused_simulation_matches_gate_by_gate_unitary():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        circ = _random_circuit(rng, n, int(rng.integers(1, 25)))
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        state, markers = simulate_circuit(circ, initial=Statevector.from_amplitudes(v))
        unitary = circuit_unitary(Circuit(n, gates=[g for g in circ.gates if not isinstance(g, Measure)]))
        assert np.max(np.abs(state.amps - unitary @ v)) < 1e-12
        assert markers == circ.measures()


def test_post_select_leaves_its_input_unchanged():
    lat = build_chain(3, "ring")
    circ = probabilistic_method_circuit(lat, assign_qubits(lat, "hadamard_all"), SpinValue(2))
    state, markers = simulate_circuit(circ)
    before = state.amps.copy()
    post_select(state, markers)
    assert np.array_equal(state.amps, before)
    assert state.tracked_norm_sq == 1.0


def test_measure_markers_collected_not_applied():
    circ = Circuit(1, gates=[u_h(0), Measure(0, expect=1)])
    state, markers = simulate_circuit(circ)
    assert len(markers) == 1
    assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-12
    prob, state = post_select(state, markers)
    assert abs(prob - 0.5) < 1e-12

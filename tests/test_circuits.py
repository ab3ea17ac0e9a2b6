"""Circuit IR, builders, declared-cost accounting, Fredkin expansion."""
import dataclasses

import numpy as np
import pytest

from vbsprep.builders import (
    fredkin_fragment,
    hadamard_test_fragment,
    pre_vbs_circuit,
    probabilistic_method_circuit,
    toffoli_fragment,
    valence_bond_subcircuit,
)
from vbsprep.errors import CapExceededError, ImpossibleOutcomeError, MissingCostError
from vbsprep.ir import (
    Circuit,
    CNot,
    Measure,
    Opaque,
    U1Q,
    _gate_matrix,
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

from oracle_reference import bond_product, fidelity

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
        oracle = bond_product(enc, enc.total_qubits)
        assert abs(fidelity(state, oracle) - 1.0) < 1e-12


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
    from vbsprep.spinops import symmetrizer

    lat = build_chain(2, "open")
    enc = assign_qubits(lat, "hadamard_all")
    base = bond_product(enc, enc.total_qubits)
    circ = hadamard_test_fragment(0, enc, SpinValue(2))
    state, markers = simulate_circuit(circ, initial=base)
    data = range(enc.n_data_qubits)
    prob, state = post_select(state, markers, data)

    oracle = base.copy()
    ratio = oracle.apply_nonunitary(symmetrizer(2), enc.site_qubits[0])
    assert abs(prob - ratio) < 1e-12
    _, oracle = post_select(oracle, [], data)  # drops the idle ancilla
    assert abs(fidelity(state, oracle) - 1.0) < 1e-10


def test_dropped_phase_gate_flips_expected_outcome():
    lat = build_chain(2, "open")
    enc = assign_qubits(lat, "hadamard_all")
    base = bond_product(enc, enc.total_qubits)

    phased = hadamard_test_fragment(0, enc, SpinValue(2))
    plain = hadamard_test_fragment(0, enc, SpinValue(2), drop_phase_gate=True)
    assert phased.measures()[0].expect == 1
    assert plain.measures()[0].expect == 0
    assert plain.metadata["phase_gate_dropped"]

    outs = []
    for circ in (phased, plain):
        state, markers = simulate_circuit(circ, initial=base)
        outs.append(post_select(state, markers, range(enc.n_data_qubits)))
    assert abs(outs[0][0] - outs[1][0]) < 1e-12
    assert abs(fidelity(outs[0][1], outs[1][1]) - 1.0) < 1e-12


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
        prob, _ = post_select(state, markers, range(enc.n_data_qubits))
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
    p0, s0 = post_select(*simulate_circuit(circ), range(enc.n_data_qubits))
    p1, s1 = post_select(*simulate_circuit(again), range(enc.n_data_qubits))
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s0, s1) - 1.0) < 1e-12
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


def _gate_by_gate(circ: Circuit, v: np.ndarray) -> tuple[Statevector, list]:
    """Unfused reference: every gate applied alone, and each marker projected
    just before the first later gate on its qubit."""
    state = Statevector.from_amplitudes(v)
    pending = []
    for g in circ.gates:
        if isinstance(g, Measure):
            pending.append(g)
            continue
        for m in [m for m in pending if m.qubit in g.qubits]:
            state.project_qubit(m.qubit, m.expect)
            pending.remove(m)
        state.apply_unitary(_gate_matrix(g), g.qubits)
    return state, pending


def test_fused_simulation_matches_gate_by_gate_unitary():
    rng = np.random.default_rng(29)
    kinds = {"reused": 0, "impossible": 0}
    for _ in range(30):
        n = int(rng.integers(2, 8))
        circ = _random_circuit(rng, n, int(rng.integers(1, 25)))
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        try:
            expected, left = _gate_by_gate(circ, v)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                simulate_circuit(circ, initial=Statevector.from_amplitudes(v))
            continue
        state, markers = simulate_circuit(circ, initial=Statevector.from_amplitudes(v))
        assert np.max(np.abs(state.amps - expected.amps)) < 1e-12
        assert abs(state.tracked_norm_sq - expected.tracked_norm_sq) < 1e-12
        assert markers == left
        kinds["reused"] += len(left) < len(circ.measures())
    assert kinds["reused"] and kinds["impossible"]  # both marker rules are exercised


def _relabelled(circ: Circuit, label, n: int) -> Circuit:
    """The same gates on an n-qubit register, qubit q moved to label[q]."""
    out = Circuit(n)
    for g in circ.gates:
        if isinstance(g, CNot):
            out.add(CNot(label[g.control], label[g.target]))
        elif isinstance(g, Opaque):
            out.add(dataclasses.replace(g, qubits=tuple(label[q] for q in g.qubits)))
        else:
            out.add(dataclasses.replace(g, qubit=label[g.qubit]))
    return out


def _first_touches(circ: Circuit) -> list[int]:
    order: list[int] = []
    for g in circ.gates:
        if not isinstance(g, Measure):
            order += [q for q in g.qubits if q not in order]
    return order


def test_simulation_from_empty_register_matches_gate_by_gate():
    # The circuits of the fused-simulation test, run from |0...0>: as given,
    # and reversed onto a wider register whose even qubits stay idle.
    rng = np.random.default_rng(29)
    circuits = []
    for _ in range(30):
        n = int(rng.integers(2, 8))
        circ = _random_circuit(rng, n, int(rng.integers(1, 25)))
        circuits += [circ, _relabelled(circ, [2 * (n - 1 - q) + 1 for q in range(n)], 2 * n + 1)]
    # qubits first touched in descending order, with idle ones in between
    circuits.append(Circuit(6, gates=[u_h(5), CNot(5, 3), Measure(3, 1), U1Q(0.3, 0.2, 0.1, 3),
                                      CNot(3, 1), Measure(5, 0)]))
    kinds = {"idle": 0, "descending": 0, "impossible": 0}
    for circ in circuits:
        touched = _first_touches(circ)
        kinds["idle"] += len(touched) < circ.n_qubits
        kinds["descending"] += len(touched) > 2 and touched == sorted(touched, reverse=True)
        zero = np.zeros(2**circ.n_qubits, dtype=complex)
        zero[0] = 1.0
        try:
            expected, left = _gate_by_gate(circ, zero)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                simulate_circuit(circ)
            continue
        state, markers = simulate_circuit(circ)
        assert state.n_qubits == circ.n_qubits
        assert np.max(np.abs(state.amps - expected.amps)) < 1e-12
        assert abs(state.tracked_norm_sq - expected.tracked_norm_sq) < 1e-12
        assert markers == left
    assert all(kinds.values()), kinds


def test_impossible_reused_marker_names_its_circuit_qubit():
    # qubits 1 and 2 are not live yet, so qubit 3 sits on axis 1 of the state
    circ = Circuit(4, gates=[U1Q(np.pi, 0.0, np.pi, 0), u_h(3), u_h(3), Measure(3, 1), CNot(3, 2)])
    with pytest.raises(ImpossibleOutcomeError, match="marker on qubit 3 "):
        simulate_circuit(circ)



def test_pending_markers_are_projected_as_one_and_name_the_first_impossible_one():
    # both markers are pending at CNot(0, 2); qubit 2 joins in |0>, so expecting 1 there is impossible
    gates = [u_h(0), CNot(0, 1), Measure(0, 1), Measure(2, 1), CNot(0, 2)]
    msg = r"^marker on qubit 2 \(state axis 2\): outcome 1 on qubit 2 has probability 0.000e\+00$"
    with pytest.raises(ImpossibleOutcomeError, match=msg):
        simulate_circuit(Circuit(3, gates=gates))
    gates[3:] = [Measure(1, 1), CNot(0, 1)]
    state, markers = simulate_circuit(Circuit(3, gates=gates))
    assert markers == [] and state.tracked_norm_sq == pytest.approx(0.5, rel=1e-15)
    assert np.max(np.abs(state.amps - np.eye(8)[4])) < 1e-15  # |11> after the projections, then CNot(0, 1)


def test_register_cap_is_checked_before_any_block(monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("a block ran on an oversized register")

    monkeypatch.setenv("VBS_MAX_QUBITS", "4")
    monkeypatch.setattr(Statevector, "apply_unitary", no_block)
    monkeypatch.setattr(Statevector, "zero", no_block)
    circ = Circuit(5, gates=[u_h(0), CNot(0, 1), u_h(3), CNot(3, 4), CNot(1, 2)])
    with pytest.raises(CapExceededError):
        simulate_circuit(circ)


def test_simulation_leaves_initial_unchanged():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    for gates in (
        [u_h(0), CNot(0, 2), Measure(2, 1), CNot(2, 1)],
        # the first operation projects a reused marker, which works in place
        [Measure(0, 1), u_h(0), CNot(0, 1)],
    ):
        initial = Statevector(3, v / np.linalg.norm(v), tracked_norm_sq=0.25)
        before = initial.amps.copy()
        state, _ = simulate_circuit(Circuit(3, gates=gates), initial=initial)
        assert np.array_equal(initial.amps, before)
        assert initial.tracked_norm_sq == 0.25
        assert state.tracked_norm_sq < 0.25  # the reused marker was projected


def _project_each(state: Statevector, markers) -> tuple[float, Statevector]:
    out = state.copy()
    for m in markers:
        out.project_qubit(m.qubit, m.expect)
    return out.tracked_norm_sq, out


def test_one_pass_post_select_matches_marker_by_marker_projection():
    rng = np.random.default_rng(41)
    kinds = {"duplicate": 0, "impossible": 0}
    for _ in range(40):
        n = int(rng.integers(1, 8))
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        if rng.random() < 0.3:  # qubit 0 definitely |0>: expecting 1 there is impossible
            v[2 ** (n - 1):] = 0.0
        state = Statevector(n, v / np.linalg.norm(v), tracked_norm_sq=float(rng.uniform(0.1, 1.0)))
        markers = [Measure(int(q), int(rng.integers(2))) for q in rng.integers(n, size=int(rng.integers(0, n + 2)))]
        if markers and rng.random() < 0.3:
            markers.append(markers[0])  # the same marker twice
        qubits = [m.qubit for m in markers]
        kinds["duplicate"] += len(set(qubits)) < len(qubits)
        keep = [q for q in range(n) if q not in qubits]
        try:
            prob_ref, ref = _project_each(state, markers)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                post_select(state, markers, keep)
            continue
        prob, out = post_select(state, markers, keep)
        assert abs(prob - prob_ref) < 1e-12
        assert abs(out.tracked_norm_sq - ref.tracked_norm_sq) < 1e-12
        expect = {m.qubit: m.expect for m in markers}
        sliced = ref.amps.reshape([2] * n)[tuple(expect.get(q, slice(None)) for q in range(n))]
        assert np.max(np.abs(out.amps - sliced.reshape(-1))) < 1e-12
    assert all(kinds.values()), kinds
    # one qubit post-selected on both outcomes
    with pytest.raises(ImpossibleOutcomeError):
        post_select(Statevector.from_amplitudes([INV_SQRT2, INV_SQRT2]), [Measure(0, 0), Measure(0, 1)], [])


def test_post_select_keeps_qubits_in_the_order_given():
    rng = np.random.default_rng(3)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = Statevector(4, v / np.linalg.norm(v))
    prob, out = post_select(state, [Measure(1, 1)], [3, 0, 2])
    sliced = state.amps.reshape(2, 2, 2, 2)[:, 1]  # axes: qubits 0, 2, 3
    assert abs(prob - np.vdot(sliced, sliced).real) < 1e-12
    assert out.n_qubits == 3
    expected = np.transpose(sliced, (2, 0, 1)).reshape(-1) / np.linalg.norm(sliced)
    assert np.max(np.abs(out.amps - expected)) < 1e-12


def test_post_select_drops_a_definite_unmarked_qubit():
    # qubit 1 is neither kept nor marked, and definitely |1>
    pair = np.array([0.6, 0.8j])
    state = Statevector.product_of_factors(3, [((0, 2), np.kron(pair, [INV_SQRT2, INV_SQRT2])), ((1,), [0, 1])])
    prob, out = post_select(state, [Measure(2, 0)], [0])
    assert abs(prob - 0.5) < 1e-12
    assert out.n_qubits == 1
    assert np.max(np.abs(out.amps - pair)) < 1e-12


def test_post_select_rejects_an_unmarked_qubit_in_superposition():
    state = Statevector(2, np.full(4, 0.5, dtype=complex))
    with pytest.raises(ValueError, match="qubit 1 is neither kept nor post-selected"):
        post_select(state, [], [0])


def test_post_select_rejects_a_bad_keep():
    state = Statevector(2, np.full(4, 0.5, dtype=complex))
    with pytest.raises(ValueError, match=r"qubits \[1\] are both kept and post-selected"):
        post_select(state, [Measure(1, 0)], [0, 1])
    for keep in ([0, 0], [0, 2]):
        with pytest.raises(ValueError, match="must list distinct qubits of the 2-qubit state"):
            post_select(state, [], keep)


def test_post_select_leaves_its_input_unchanged():
    lat = build_chain(3, "ring")
    enc = assign_qubits(lat, "hadamard_all")
    state, markers = simulate_circuit(probabilistic_method_circuit(lat, enc, SpinValue(2)))
    before = state.amps.copy()
    post_select(state, markers, range(enc.n_data_qubits))
    assert np.array_equal(state.amps, before)
    assert state.tracked_norm_sq == 1.0


def test_measure_markers_collected_not_applied():
    circ = Circuit(1, gates=[u_h(0), Measure(0, expect=1)])
    state, markers = simulate_circuit(circ)
    assert len(markers) == 1
    assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-12
    prob, state = post_select(state, markers, [])
    assert abs(prob - 0.5) < 1e-12

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
    u_h,
)
from vbsprep.lattice import assign_qubits, build_chain, build_three_link_pair
from vbsprep.schmidt import SINGLET
from vbsprep.statesim import Statevector

from oracle_reference import (
    apply_ops,
    bond_product,
    circuit_unitary_by_columns,
    fidelity,
    from_amplitudes,
    gate_by_gate,
    prepared,
    project,
    simulate_circuit,
    zero_state,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_valence_bond_amplitudes():
    # frozen from the 4x4 product of the four gates
    circ = valence_bond_subcircuit(0, 1, Circuit(2))
    state, _ = simulate_circuit(circ)
    assert np.allclose(state.amps, [0, INV_SQRT2, -INV_SQRT2, 0], atol=1e-12)


def test_valence_bond_counts():
    circ = valence_bond_subcircuit(0, 1, Circuit(2))
    assert cnot_count(circ, "all_to_all") == 1
    assert cnot_depth(circ, "all_to_all") == 1


def test_valence_bond_not_involution():
    circ = valence_bond_subcircuit(0, 1, Circuit(2))
    u = circuit_unitary(circ)
    assert np.max(np.abs(u @ u - np.eye(4))) > 0.1


def test_pre_vbs_chain_counts():
    lat = build_chain(3, "open")
    enc = assign_qubits(lat)
    circ = pre_vbs_circuit(enc, lat.n_sites)
    assert cnot_count(circ, "all_to_all") == 2
    assert cnot_depth(circ, "all_to_all") == 1


def test_pre_vbs_three_link_pair():
    lat = build_three_link_pair()
    enc = assign_qubits(lat)
    circ = pre_vbs_circuit(enc, lat.n_sites)
    assert cnot_count(circ, "all_to_all") == 3
    assert cnot_depth(circ, "all_to_all") == 1
    assert circ.n_qubits == 8


def test_pre_vbs_matches_tensor_product_construction():
    for lat in (build_chain(3, "open", ("up", "down")), build_three_link_pair()):
        enc = assign_qubits(lat)
        circ = pre_vbs_circuit(enc, lat.n_sites)
        state, _ = simulate_circuit(circ)
        oracle = bond_product(enc, circ.n_qubits)
        assert abs(fidelity(state, oracle) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "twice_s,coupling,count",
    [(2, "all_to_all", 7), (2, "linear", 9), (3, "all_to_all", 26), (3, "linear", 39)],
)
def test_hadamard_test_declared_costs(twice_s, coupling, count):
    lat = build_chain(2, "open") if twice_s == 2 else build_three_link_pair()
    enc = assign_qubits(lat)
    frag = hadamard_test_fragment(0, enc, Circuit(enc.n_data_qubits + lat.n_sites), enc.n_data_qubits)
    assert cnot_count(frag, coupling) == count


def test_hadamard_test_postselection_equals_symmetrizer():
    from vbsprep.spinops import symmetrizer

    lat = build_chain(2, "open")
    enc = assign_qubits(lat)
    test = hadamard_test_fragment(0, enc, Circuit(enc.n_data_qubits + lat.n_sites), enc.n_data_qubits)
    circ = pre_vbs_circuit(enc, lat.n_sites).extend(test.gates)
    state, markers = simulate_circuit(circ)
    data = range(enc.n_data_qubits)
    prob, state = post_select(state, markers, data)

    oracle = bond_product(enc, circ.n_qubits)
    ratio = apply_ops(oracle, [(symmetrizer(2), enc.site_qubits[0])])
    assert abs(prob - ratio) < 1e-12
    _, oracle = post_select(oracle, [], data)  # drops the idle ancilla
    assert abs(fidelity(state, oracle) - 1.0) < 1e-10


def test_probabilistic_depths():
    lat = build_chain(3, "open")
    enc = assign_qubits(lat)
    circ = probabilistic_method_circuit(enc)
    assert cnot_depth(circ, "all_to_all") == 8  # 1 + 7
    assert cnot_depth(circ, "linear") == 10  # 1 + 9

    pair = build_three_link_pair()
    enc_p = assign_qubits(pair)
    circ_p = probabilistic_method_circuit(enc_p)
    assert cnot_depth(circ_p, "all_to_all") == 27  # 1 + 26

    # the simulated island circuits carry the printed depths: every full
    # island is one block counted on island_prep_circuit
    from vbsprep.methods import run_mitigated_islands

    islands_p = run_mitigated_islands(pair)["circuit"]
    assert cnot_depth(islands_p, "all_to_all") == 45  # 19 + 26
    islands_ring = run_mitigated_islands(build_chain(4, "ring"))["circuit"]
    assert cnot_depth(islands_ring, "linear") == 17  # 8 + 9


def test_probabilistic_matches_closed_form_probability():
    # ring N=3 -> 3/8; open N=2 aligned -> 1/2; anti-aligned -> 5/8
    cases = [
        (build_chain(3, "ring"), 3.0 / 8.0),
        (build_chain(2, "open", ("up", "up")), 0.5),
        (build_chain(2, "open", ("up", "down")), 5.0 / 8.0),
    ]
    for lat, expected in cases:
        enc = assign_qubits(lat)
        circ = probabilistic_method_circuit(enc)
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


def test_circuit_unitary_matches_the_column_by_column_reference(monkeypatch):
    """One contraction over the whole register gives the unfused per-column product, with no apply_unitary call."""
    from vbsprep import ir

    rng = np.random.default_rng(41)
    circuits = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        gates = [g for g in _random_circuit(rng, n, int(rng.integers(1, 20))).gates if not isinstance(g, Measure)]
        circuits.append(Circuit(n, gates))
    opaque = Opaque("random", (3, 1), np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0])
    circuits += [
        Circuit(4, [opaque]),  # one gate on a strict subset of the register
        Circuit(3, [CNot(2, 0)]),
        Circuit(2, [CNot(1, 0)]),  # every qubit, in another order
        Circuit(2, [CNot(0, 1)]),  # the gate's own matrix
        Circuit(3),
        Circuit(0),
    ]
    expected = [circuit_unitary_by_columns(circ) for circ in circuits]
    calls = []
    apply_unitary = Statevector.apply_unitary
    monkeypatch.setattr(Statevector, "apply_unitary", lambda *args, **kwargs: calls.append(1) or apply_unitary(*args, **kwargs))
    for circ, reference in zip(circuits, expected):
        got = circuit_unitary(circ)
        assert got.shape == reference.shape and np.max(np.abs(got - reference)) < 1e-12
        assert got.flags.writeable  # a fresh array, not a gate's shared matrix
    assert not calls
    assert not np.shares_memory(circuit_unitary(circuits[-3]), ir._CNOT_MAT)
    assert np.array_equal(circuit_unitary(Circuit(3)), np.eye(8))


def test_circuit_unitary_errors(monkeypatch):
    with pytest.raises(ValueError, match="capped at 12 qubits"):
        circuit_unitary(Circuit(13))
    with pytest.raises(ValueError, match="measurement markers"):
        circuit_unitary(Circuit(2, [u_h(0), Measure(1, 0)]))
    monkeypatch.setenv("VBS_MAX_QUBITS", "3")
    with pytest.raises(CapExceededError):
        circuit_unitary(Circuit(4, [u_h(0)]))


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


def test_opaque_never_freezes_its_callers_array():
    a = np.eye(2, dtype=complex)
    gate = Opaque("x", (0,), a)
    assert a.flags.writeable and not gate.matrix.flags.writeable
    a[0, 0] = 2.0
    assert gate.matrix[0, 0] == 1.0


def test_island_blocks_share_one_matrix():
    from vbsprep.builders import mitigated_islands_circuit

    lattice = build_chain(8, "open", ("up", "up"))
    circ = mitigated_islands_circuit(assign_qubits(lattice))
    # sites 2, 4 and 6 are full islands; site 0's boundary island is a Schmidt block
    islands = [g for g in circ.gates if isinstance(g, Opaque) and g.label.removeprefix("island_site").isdigit()]
    assert [g.label for g in islands] == ["island_site2", "island_site4", "island_site6"]
    assert all(g.matrix is islands[0].matrix for g in islands)


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
    circuits.append(probabilistic_method_circuit(assign_qubits(lat)))
    lat4 = build_chain(4, "open", ("up", "down"))
    enc4 = assign_qubits(lat4)
    circuits.append(mitigated_islands_circuit(enc4))
    circuits.append(mitigated_retry_circuit(enc4))
    circuits.append(island_prep_circuit(3))
    circuits.append(w_state_circuit(6, tuple(range(6)), Circuit(6)))
    for circ in circuits:
        state, _ = simulate_circuit(circ)
        total = float(np.vdot(state.amps, state.amps).real)
        assert abs(total - 1.0) < 1e-12


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
    kinds = {"reused": 0, "impossible": 0}
    for _ in range(30):
        n = int(rng.integers(2, 8))
        circ = _random_circuit(rng, n, int(rng.integers(1, 25)))
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        try:
            expected, left = gate_by_gate(circ, v)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                simulate_circuit(Circuit(n, [prepared(v, range(n))] + circ.gates))
            continue
        state, markers = simulate_circuit(Circuit(n, [prepared(v, range(n))] + circ.gates))
        assert np.max(np.abs(state.amps - expected.amps)) < 1e-12
        assert abs(state.tracked_norm_sq - expected.tracked_norm_sq) < 1e-12
        assert markers == left
        kinds["reused"] += len(left) < len(circ.measures())
    assert kinds["reused"] and kinds["impossible"]  # reused markers and impossible outcomes both occur


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
        try:
            expected, left = gate_by_gate(circ)
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


def test_simulation_composes_each_distinct_block_once(monkeypatch):
    """Repeated site blocks are composed once per call, with the state bit for bit as composing every block."""
    from vbsprep import ir

    lattice = build_chain(4, "ring")
    circ = probabilistic_method_circuit(assign_qubits(lattice))
    keys, composed = [], []
    block_key, block_matrix = ir._block_key, ir._block_matrix
    monkeypatch.setattr(ir, "_block_key", lambda support, gates: keys.append(block_key(support, gates)) or keys[-1])
    monkeypatch.setattr(ir, "_block_matrix", lambda support, gates: composed.append(1) or block_matrix(support, gates))
    cached, markers = simulate_circuit(circ)
    assert len(composed) == len(set(keys)) < len(keys)
    monkeypatch.setattr(ir, "_block_key", lambda support, gates: object())  # no two blocks share a key
    uncached, _ = simulate_circuit(circ)
    assert len(composed) == len(set(keys)) + len(keys)
    assert np.array_equal(cached.amps, uncached.amps) and markers == circ.measures()
    # signed zeros give different matrices, so they key apart
    assert block_key([0], [U1Q(0.0, 0.0, 0.0, 0)]) != block_key([0], [U1Q(-0.0, 0.0, 0.0, 0)])


def test_simulation_checks_every_block_it_applies(monkeypatch):
    """Each application checks its block matrix for unitarity, a repeated one and an Opaque's too."""
    from vbsprep import statesim

    lattice = build_chain(4, "open")
    chain = probabilistic_method_circuit(assign_qubits(lattice))
    box = Opaque("box", (0, 1, 2, 3), np.linalg.qr(np.arange(256).reshape(16, 16) % 7 + 1j * np.eye(16))[0])
    alone = Circuit(5, [box, CNot(3, 4), box, CNot(4, 3), box])  # the box is a block of its own, three times
    for circ in (chain, alone):
        applied, checked = [], []  # they keep every matrix alive, so that ids stay unique
        apply_unitary, check = Statevector.apply_unitary, statesim._check_unitary
        monkeypatch.setattr(
            Statevector,
            "apply_unitary",
            lambda self, op, qubits, **kw: applied.append(op) or apply_unitary(self, op, qubits, **kw),
        )
        monkeypatch.setattr(statesim, "_check_unitary", lambda mat: checked.append(mat) or check(mat))
        state, _ = simulate_circuit(circ)
        distinct = {id(mat) for mat in applied}
        assert len(distinct) < len(applied)  # blocks repeat
        assert [id(mat) for mat in checked] == [id(mat) for mat in applied]
        monkeypatch.undo()
        again, _ = simulate_circuit(circ)
        assert np.array_equal(state.amps, again.amps)
    assert id(box.matrix) in distinct


def test_the_cap_is_read_on_every_call(monkeypatch):
    lattice = build_chain(4, "open")
    encoding = assign_qubits(lattice)
    circ = probabilistic_method_circuit(encoding)
    simulate_circuit(circ)
    bond_product(encoding, circ.n_qubits)  # product_of_factors
    monkeypatch.setenv("VBS_MAX_QUBITS", str(circ.n_qubits - 1))  # the next calls read the cap again
    with pytest.raises(CapExceededError):
        simulate_circuit(circ)
    with pytest.raises(CapExceededError):
        bond_product(encoding, circ.n_qubits)


def test_concurrent_simulations_are_independent(monkeypatch):
    """Simulations in several threads give the sequential result bit for bit, and leave the cap to the next call."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    lattice = build_chain(5, "ring")
    circ = probabilistic_method_circuit(assign_qubits(lattice))
    expected, markers = simulate_circuit(circ)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that the calls interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: simulate_circuit(circ), range(4 * 20), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for state, left in results:
        assert np.array_equal(state.amps, expected.amps) and left == markers
        assert state.tracked_norm_sq == expected.tracked_norm_sq
    monkeypatch.setenv("VBS_MAX_QUBITS", "5")
    with pytest.raises(CapExceededError):
        simulate_circuit(circ)


def test_impossible_reused_marker_names_its_circuit_qubit():
    # qubit 3's lone gates wait for its marker, so it joins in their block and is measured right after it:
    # the block is folded on its expected outcome, and qubit 3 never gets a state axis
    circ = Circuit(4, gates=[U1Q(np.pi, 0.0, np.pi, 0), u_h(3), u_h(3), Measure(3, 1), CNot(3, 2)])
    with pytest.raises(ImpossibleOutcomeError, match=r"markers on qubits \[3\] \(folded into a block, no state axis\)"):
        simulate_circuit(circ)


def test_reused_markers_drop_their_qubits_and_name_an_impossible_one():
    # qubit 2 has no axis when its marker comes (no gate touched it yet), so expecting 1 there is impossible
    gates = [u_h(0), CNot(0, 1), Measure(0, 1), Measure(2, 1), CNot(0, 2)]
    msg = r"^marker on qubit 2 \(no state axis\): outcome 1 on a qubit that holds 0$"
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
    circ = Circuit(5, gates=[u_h(0), CNot(0, 1), u_h(3), CNot(3, 4), CNot(1, 2)])
    with pytest.raises(CapExceededError):
        simulate_circuit(circ)


def _project_each(state: Statevector, markers) -> tuple[float, Statevector]:
    out = Statevector(state.n_qubits, state.amps.copy(), state.tracked_norm_sq)
    for m in markers:
        project(out, m.qubit, m.expect)
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
        post_select(from_amplitudes([INV_SQRT2, INV_SQRT2]), [Measure(0, 0), Measure(0, 1)], [])


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
    enc = assign_qubits(lat)
    state, markers = simulate_circuit(probabilistic_method_circuit(enc))
    before = state.amps.copy()
    post_select(state, markers, range(enc.n_data_qubits))
    assert np.array_equal(state.amps, before)
    assert state.tracked_norm_sq == 1.0


def test_post_select_plus_state():
    prob, out = post_select(from_amplitudes(np.array([1, 1]) / np.sqrt(2)), [Measure(0, 1)], [])
    assert abs(prob - 0.5) < 1e-12
    assert abs(out.tracked_norm_sq - 0.5) < 1e-12
    assert out.n_qubits == 0


def test_post_select_branches_sum_to_one():
    rng = np.random.default_rng(8)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = from_amplitudes(v / np.linalg.norm(v))
    p0, _ = post_select(state, [Measure(1, 0)], [0, 2])
    p1, _ = post_select(state, [Measure(1, 1)], [0, 2])
    assert abs(p0 + p1 - 1.0) < 1e-12


def test_post_select_impossible_outcome():
    with pytest.raises(ImpossibleOutcomeError, match=r"^markers on qubits \[0\] have joint probability 0.000e\+00$"):
        post_select(zero_state(2), [Measure(0, 1)], [1])


def test_post_select_matches_slicing_reference():
    """One marker on every qubit and outcome of unnormalized states: probability, kept slice, tracked norm."""
    rng = np.random.default_rng(12)
    for n in (1, 2, 5, 9):
        v = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)) * 1.5  # not normalized
        for qubit in range(n):
            for outcome in (0, 1):
                state = Statevector(n, v.copy(), tracked_norm_sq=0.25)
                keep = [q for q in range(n) if q != qubit]
                prob, out = post_select(state, [Measure(qubit, outcome)], keep)
                kept = v.reshape(2**qubit, 2, -1)[:, outcome].reshape(-1)
                share = np.linalg.norm(kept) ** 2 / np.linalg.norm(v) ** 2
                assert prob == pytest.approx(0.25 * share, rel=1e-15)
                assert out.tracked_norm_sq == prob
                assert np.max(np.abs(out.amps - kept / np.linalg.norm(kept))) < 1e-15
                assert np.array_equal(state.amps, v)
    with pytest.raises(ImpossibleOutcomeError):
        post_select(Statevector(2, np.zeros(4, dtype=complex)), [Measure(1, 0)], [0])


def _random_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [1, 6, 11])
def test_post_select_probabilities_are_the_squared_row_norms(n):
    """Markers reading k on the listed qubits, in the order listed, select row k of the state with those axes first."""
    rng = np.random.default_rng(13 + n)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    cases = [(q,) for q in range(n)]
    if n > 4:
        cases += [(0, 1, n - 2, n - 1), (n - 1, n - 2, 0, 1), (n - 4, n - 3, n - 2, n - 1), (2, 0, 4)]
    for qubits in cases:
        k = len(qubits)
        state = from_amplitudes(v / np.linalg.norm(v))
        state.apply_unitary(_random_unitary(rng, 2**k), qubits)
        rows = np.moveaxis(state.amps.reshape([2] * n), qubits, range(k)).reshape(2**k, -1)
        weights = np.sum(np.abs(rows) ** 2, axis=1)
        keep = [q for q in range(n) if q not in qubits]
        total = 0.0
        for row in range(2**k):
            bits = [(row >> (k - 1 - i)) & 1 for i in range(k)]
            prob, out = post_select(state, [Measure(q, b) for q, b in zip(qubits, bits)], keep)
            assert abs(prob - weights[row]) < 1e-12, (qubits, row)
            assert np.max(np.abs(out.amps - rows[row] / np.sqrt(weights[row]))) < 1e-12, (qubits, row)
            total += prob
        assert abs(total - 1.0) < 1e-12, qubits


def test_a_reused_marker_on_a_singlet_fixes_its_partner():
    # qubit 0 is post-selected on 0 before its Hadamard, and rejoins in |0>: the partner is left in |1>
    circ = Circuit(2, gates=[prepared(SINGLET, (0, 1)), Measure(0, 0), u_h(0)])
    state, markers = simulate_circuit(circ)
    assert markers == []
    assert abs(state.tracked_norm_sq - 0.5) < 1e-12
    assert np.max(np.abs(state.amps - np.array([0, 1, 0, 1]) * INV_SQRT2)) < 1e-12


def test_an_empty_circuit_simulates_to_the_zero_state():
    for n in (1, 2, 3):
        state, markers = simulate_circuit(Circuit(n, gates=[]))
        assert markers == []
        assert state.n_qubits == n
        assert np.array_equal(state.amps, zero_state(n).amps)
        assert state.tracked_norm_sq == 1.0


def test_measure_markers_collected_not_applied():
    circ = Circuit(1, gates=[u_h(0), Measure(0, expect=1)])
    state, markers = simulate_circuit(circ)
    assert len(markers) == 1
    assert abs(np.vdot(state.amps, state.amps).real - 1.0) < 1e-12
    prob, state = post_select(state, markers, [])
    assert abs(prob - 0.5) < 1e-12

"""Routing soundness, heavy-hex displacement arithmetic, QASM round trips."""
import numpy as np
import pytest

from vbsprep.builders import probabilistic_method_circuit
from vbsprep.errors import ConfigError, UnsupportedError
from vbsprep.ir import CNot, Circuit, Measure, Opaque, Swap, U1Q, cnot_depth
from vbsprep.lattice import (
    CouplingMap,
    assign_qubits,
    build_chain,
    build_three_link_pair,
    heavy_hex_patch,
    linear_coupling,
)
from vbsprep.methods import oracle_vbs_state
from vbsprep.qasm import emit_qasm
from vbsprep.routing import PAIR_DISPLACEMENT, PAIR_ROLES, displacement_block, heavy_hex_pair, route

from oracle_reference import fidelity, gate_by_gate, post_select, prepared, simulate_circuit
from qasm_reader import parse_qasm


def _run_post_selected(circ, keep):
    """The unfused reference: a routed circuit's markers are followed by Swaps, and the mitigated pair leaves a qubit idle."""
    return post_select(*gate_by_gate(circ), keep)


@pytest.mark.parametrize(
    "lattice,twice_s",
    [
        (build_chain(3, "open", ("up", "up")), 2),
        (build_chain(2, "ring"), 2),
        (build_three_link_pair(), 3),
    ],
)
def test_route_linear_preserves_semantics(lattice, twice_s):
    enc = assign_qubits(lattice)
    circ = probabilistic_method_circuit(enc)
    routed = route(circ, linear_coupling(circ.n_qubits))
    p0, s0 = _run_post_selected(circ, range(enc.n_data_qubits))
    p1, s1 = _run_post_selected(routed.circuit, routed.placement[: enc.n_data_qubits])
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s1, s0) - 1.0) < 1e-12
    # every CNOT acts on a coupled pair
    coupling = linear_coupling(circ.n_qubits)
    for g in routed.circuit.gates:
        if isinstance(g, CNot):
            assert coupling.are_coupled(g.control, g.target)
        elif isinstance(g, Opaque):
            assert coupling.connected_subset(g.qubits)


def test_route_does_not_fit():
    lat = build_chain(3, "ring")
    enc = assign_qubits(lat)
    circ = probabilistic_method_circuit(enc)
    with pytest.raises(ConfigError):
        route(circ, linear_coupling(4))


def test_displacement_block_counts():
    block = displacement_block(PAIR_DISPLACEMENT)
    assert block.declared_count("heavy_hex") == 9
    assert block.declared_depth("heavy_hex") == 9
    # permutation matrix: one 1 per column
    assert np.array_equal(np.sort(np.abs(block.matrix), axis=0)[-1], np.ones(16))


def test_heavy_hex_bare_pipeline():
    routed, encoding = heavy_hex_pair("probabilistic")
    oracle, norm = oracle_vbs_state(encoding.lattice)
    prob, state = _run_post_selected(routed.circuit, routed.placement[: encoding.n_data_qubits])
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-12
    assert abs(prob - norm) < 1e-12
    assert cnot_depth(routed.circuit, "heavy_hex") == 51  # 1 + 9 + 41
    blocks = [g for g in routed.circuit.gates if isinstance(g, Opaque) and g.label == "bond_displacement"]
    assert len(blocks) == 1
    assert sum(b.declared_count("heavy_hex") for b in blocks) == 9


def test_heavy_hex_mitigated_pipeline():
    routed, encoding = heavy_hex_pair("mitigated_islands")
    oracle, _ = oracle_vbs_state(encoding.lattice)
    prob, state = _run_post_selected(routed.circuit, routed.placement[: encoding.n_data_qubits])
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-12
    assert cnot_depth(routed.circuit, "heavy_hex") == 105  # 57 + 9 + 39


def _positions(swaps=()) -> dict[str, int]:
    """Each role's position on heavy_hex_patch(1) after `swaps`, from PAIR_ROLES."""
    roles = list(PAIR_ROLES)
    for a, b in swaps:
        roles[a], roles[b] = roles[b], roles[a]
    return {role: p for p, role in enumerate(roles)}


def test_heavy_hex_boxes_are_connected_shapes():
    final = _positions(PAIR_DISPLACEMENT)
    cm = heavy_hex_patch(1)
    line_box = [final[r] for r in ("anc_A", "A1", "A2", "A3")]
    t_box = [final[r] for r in ("B1", "B2", "B3", "anc_B")]
    assert cm.connected_subset(line_box)
    assert cm.connected_subset(t_box)
    # T shape: one qubit of degree 3 inside the box
    degrees = [sum(1 for q in t_box if cm.are_coupled(p, q)) for p in t_box]
    assert sorted(degrees) == [1, 1, 1, 3]
    degrees_line = [sum(1 for q in line_box if cm.are_coupled(p, q)) for p in line_box]
    assert sorted(degrees_line) == [1, 1, 2, 2]


def test_heavy_hex_bonds_start_coupled():
    initial = _positions()
    for a, b in (("A1", "B1"), ("A2", "B2"), ("A3", "B3")):
        assert heavy_hex_patch(1).are_coupled(initial[a], initial[b])


_U1Q_NAMES = {(0.5, 0.0, 1.0): "h", (1.0, 0.0, 1.0): "x", (0.0, 0.0, 1.0): "z"}  # (theta, phi, lam) / pi


def _gate_row(g) -> tuple:
    """A gate's kind and qubits, with an opaque block's label or a marker's outcome and creg."""
    if isinstance(g, CNot):
        return ("cx", (g.control, g.target))
    if isinstance(g, U1Q):
        return (_U1Q_NAMES[(g.theta / np.pi, g.phi / np.pi, g.lam / np.pi)], (g.qubit,))
    if isinstance(g, Measure):
        return ("measure", (g.qubit,), g.expect, g.creg)
    return ("opaque", g.qubits, g.label)


# Each pair circuit and its final placement, pinned gate for gate.
_PAIR_CIRCUITS = {
    "probabilistic": (
        [("h", (1,)), ("x", (2,)), ("cx", (1, 2)), ("z", (1,)),
         ("h", (3,)), ("x", (4,)), ("cx", (3, 4)), ("z", (3,)),
         ("h", (5,)), ("x", (6,)), ("cx", (5, 6)), ("z", (5,)),
         ("opaque", (2, 3, 4, 5), "bond_displacement"),
         ("h", (0,)), ("opaque", (0, 1, 2, 3), "ctrl_exp_sym_3"), ("h", (0,)), ("measure", (0,), 1, 0),
         ("h", (7,)), ("opaque", (7, 4, 5, 6), "ctrl_exp_sym_3"), ("h", (7,)), ("measure", (7,), 1, 1)],
        [1, 2, 3, 4, 5, 6, 0, 7],
    ),
    "mitigated_islands": (
        [("opaque", (2, 1, 4, 3, 6, 5), "island_site0"), ("opaque", (2, 3, 4, 5), "bond_displacement"),
         ("h", (7,)), ("opaque", (7, 4, 5, 6), "ctrl_exp_sym_3"), ("h", (7,)), ("measure", (7,), 1, 0)],
        [1, 2, 3, 4, 5, 6, 7],
    ),
}


@pytest.mark.parametrize("method", _PAIR_CIRCUITS)
def test_the_pair_circuits_and_placements_are_pinned(method):
    routed, _ = heavy_hex_pair(method)
    gates, placement = _PAIR_CIRCUITS[method]
    assert [_gate_row(g) for g in routed.circuit.gates] == gates
    assert routed.placement == placement
    assert routed.circuit.n_qubits == heavy_hex_patch(1).n_qubits
    box_costs = [g.declared_count("heavy_hex") for g in routed.circuit.gates if getattr(g, "label", "") == "ctrl_exp_sym_3"]
    assert box_costs == ([41, 39] if method == "probabilistic" else [39])  # the in-line box, then the T-shaped one


@pytest.mark.parametrize("method", _PAIR_CIRCUITS)
def test_the_router_runs_the_pair_circuits_on_heavy_hex_as_they_are(method):
    """Every CNOT already joins a coupled pair and every block a connected set: no SWAP, nothing moves."""
    routed, _ = heavy_hex_pair(method)
    again = route(routed.circuit, heavy_hex_patch(1))
    assert again.circuit.gates == routed.circuit.gates and len(again.circuit.gates) == len(_PAIR_CIRCUITS[method][0])
    assert again.placement == list(range(heavy_hex_patch(1).n_qubits))


# ---------------------------------------------------------------------------
# QASM
# ---------------------------------------------------------------------------

def test_valence_bond_qasm_body():
    from vbsprep.builders import valence_bond_subcircuit

    text = emit_qasm(valence_bond_subcircuit(0, 1, Circuit(2)), "structural")
    lines = [l for l in text.splitlines() if l and not l.startswith(("OPENQASM", "include", "qreg", "creg"))]
    assert len(lines) == 4  # H, X, CNOT, Z
    assert lines[2] == "cx q[0],q[1];"


def test_basis_mode_round_trip_spin1():
    lat = build_chain(2, "open", ("up", "up"))
    enc = assign_qubits(lat)
    circ = probabilistic_method_circuit(enc)
    text = emit_qasm(circ, "basis")
    assert "opaque" not in text
    parsed = parse_qasm(text)
    p0, s0 = _run_post_selected(circ, range(enc.n_data_qubits))
    p1, s1 = _run_post_selected(parsed, range(enc.n_data_qubits))
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s0, s1) - 1.0) < 1e-12


def test_structural_mode_spin32_has_4_qubit_opaque():
    lat = build_three_link_pair()
    enc = assign_qubits(lat)
    circ = probabilistic_method_circuit(enc)
    text = emit_qasm(circ, "structural")
    assert "opaque ctrl_exp_sym_3 a0, a1, a2, a3;" in text
    parsed = parse_qasm(text, opaque_matrices={
        g.label: g.matrix for g in circ.gates if isinstance(g, Opaque)
    })
    p0, s0 = _run_post_selected(circ, range(enc.n_data_qubits))
    p1, s1 = _run_post_selected(parsed, range(enc.n_data_qubits))
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s0, s1) - 1.0) < 1e-12


def test_basis_mode_rejects_unexpandable_opaque():
    from vbsprep.schmidt import island_prep_circuit

    circ = island_prep_circuit(2)
    with pytest.raises(UnsupportedError):
        emit_qasm(circ, "basis")


def test_basis_mode_has_no_toffoli_expansion():
    # no builder emits a "toffoli" block, so basis mode registers no expansion for one
    toffoli = np.eye(8)
    toffoli[[6, 7]] = toffoli[[7, 6]]
    circ = Circuit(3, gates=[Opaque("toffoli", (0, 1, 2), toffoli)])
    with pytest.raises(UnsupportedError, match="toffoli"):
        emit_qasm(circ, "basis")


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_qasm("nope")
    with pytest.raises(ConfigError):
        parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nfoo bar;')


def test_displacement_basis_expansion_simulates_identically():
    block = displacement_block(PAIR_DISPLACEMENT)
    from vbsprep.ir import Circuit
    from vbsprep.qasm import expand_opaque

    rng = np.random.default_rng(5)
    v = rng.normal(size=256) + 1j * rng.normal(size=256)
    v /= np.linalg.norm(v)
    start = prepared(v, range(8))
    direct = Circuit(8, gates=[start, block])
    expanded = Circuit(8, gates=[start, *expand_opaque(block)])
    assert sum(1 for g in expanded.gates if isinstance(g, CNot)) == 9

    s0, _ = simulate_circuit(direct)
    s1, _ = simulate_circuit(expanded)
    assert np.max(np.abs(s0.amps - s1.amps)) < 1e-12


def _early_stopping_path(coupling: CouplingMap, a: int, b: int) -> list[int]:
    """A BFS from a, neighbours in ascending order, stopped when it dequeues b."""
    prev, queue = {a: None}, [a]
    while queue:
        u = queue.pop(0)
        if u == b:
            break
        for v in sorted(coupling.neighbors(u)):
            if v not in prev:
                prev[v] = u
                queue.append(v)
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


@pytest.mark.parametrize("coupling", [linear_coupling(12), heavy_hex_patch(2)], ids=["linear12", "heavy_hex2"])
def test_shortest_path_keeps_one_tree_per_source_and_the_early_stopping_paths(coupling):
    pairs = [(a, b) for a in range(coupling.n_qubits) for b in range(coupling.n_qubits)]
    assert [coupling.shortest_path(a, b) for a, b in pairs] == [_early_stopping_path(coupling, a, b) for a, b in pairs]
    assert sorted(coupling._trees) == list(range(coupling.n_qubits))


@pytest.mark.parametrize("coupling", [linear_coupling(12), heavy_hex_patch(2)], ids=["linear12", "heavy_hex2"])
def test_distance_is_the_shortest_paths_length_less_one(coupling):
    pairs = [(a, b) for a in range(coupling.n_qubits) for b in range(coupling.n_qubits)]
    assert [coupling._distance(a, b) for a, b in pairs] == [len(coupling.shortest_path(a, b)) - 1 for a, b in pairs]


def test_component_holds_what_start_reaches_inside_the_subset():
    line, hex1 = linear_coupling(6), heavy_hex_patch(1)  # heavy_hex_patch(1): line 0..6, bridge 7 off 5
    assert line.component(0, [0, 1, 3, 4]) == {0, 1}
    assert line.component(4, [0, 1, 3, 4]) == {3, 4}
    assert line.component(2, []) == {2}
    assert hex1.component(7, [4, 5, 6, 7]) == {4, 5, 6, 7}
    assert hex1.component(7, [4, 6, 7]) == {7}


def _reference_route(circuit: Circuit, coupling: CouplingMap) -> tuple[list, list[int]]:
    """Route gate by gate, rebuilding each gate by its type; a block gathers by SWAPs toward the pair
    (outside qubit, first qubit's component) with the shortest path, ties to the smallest pair."""
    placement = list(range(circuit.n_qubits))
    occupied = {p: l for l, p in enumerate(placement)}
    gates = []

    def swap(pa, pb):
        gates.append(Swap((pa, pb)))
        occupied[pa], occupied[pb] = occupied.get(pb), occupied.get(pa)
        for p in (pa, pb):
            if occupied[p] is not None:
                placement[occupied[p]] = p

    for g in circuit.gates:
        if isinstance(g, CNot):
            while not coupling.are_coupled(placement[g.control], placement[g.target]):
                swap(*_early_stopping_path(coupling, placement[g.control], placement[g.target])[:2])
            gates.append(CNot(placement[g.control], placement[g.target]))
        elif isinstance(g, Opaque):
            while True:
                phys = [placement[q] for q in g.qubits]
                comp = {phys[0]}
                while grown := [p for p in phys if p not in comp and any(coupling.are_coupled(p, c) for c in comp)]:
                    comp.update(grown)
                if len(comp) == len(phys):
                    break
                p, c = min(((p, c) for p in phys if p not in comp for c in comp),
                           key=lambda pc: (len(_early_stopping_path(coupling, *pc)), pc))
                swap(*_early_stopping_path(coupling, p, c)[:2])
            gates.append(Opaque(g.label, tuple(placement[q] for q in g.qubits), g.matrix, g.cnot_cost, g.cnot_depth))
        elif isinstance(g, U1Q):
            gates.append(U1Q(g.theta, g.phi, g.lam, placement[g.qubit]))
        else:
            gates.append(Measure(placement[g.qubit], g.expect, g.creg))
    return gates, placement


def _random_blocks_circuit(rng, n: int) -> Circuit:
    """CNOTs, one-qubit gates, markers and 3-qubit blocks on random qubits."""
    circ = Circuit(n)
    for _ in range(24):
        kind = rng.integers(4)
        if kind == 0:
            circ.add(CNot(*(int(q) for q in rng.choice(n, 2, replace=False))))
        elif kind == 1:
            circ.add(U1Q(*rng.uniform(-np.pi, np.pi, size=3), int(rng.integers(n))))
        elif kind == 2:
            circ.add(Measure(int(rng.integers(n)), int(rng.integers(2)), int(rng.integers(4))))
        else:
            circ.add(Opaque("perm", tuple(int(q) for q in rng.choice(n, 3, replace=False)), np.eye(8)[rng.permutation(8)]))
    return circ


def _routing_cases():
    """(circuit, coupling): every route-sweep lattice onto linear (chain:4:ring last), both heavy-hex pair circuits,
    a block whose two outside qubits tie, and random blocks."""
    from vbsprep.cli import parse_lattice

    cases = []
    for spec in [f"chain:{n}:open:{flavor}" for n in range(2, 6) for flavor in ("aligned", "anti")] + ["chain:4:ring"]:
        lattice = parse_lattice(spec)
        circ = probabilistic_method_circuit(assign_qubits(lattice))
        cases.append((circ, linear_coupling(circ.n_qubits)))
    for method in ("probabilistic", "mitigated_islands"):
        cases.append((heavy_hex_pair(method)[0].circuit, heavy_hex_patch(1)))
    cases.append((Circuit(5, [Opaque("tie", (2, 0, 4), np.eye(8))]), linear_coupling(5)))  # 0 and 4 both 2 away
    rng = np.random.default_rng(26)
    cases += [(_random_blocks_circuit(rng, 12), coupling) for coupling in (linear_coupling(12), heavy_hex_patch(2))]
    return cases


def test_route_gives_the_reference_rebuilds_gates_and_placement():
    for circ, coupling in _routing_cases():
        routed = route(circ, coupling)
        assert (routed.circuit.gates, routed.placement) == _reference_route(circ, coupling)


def test_routing_runs_no_opaque_check_and_each_block_keeps_its_matrix(monkeypatch):
    from vbsprep.ir import simulate_post_selected

    cases = _routing_cases()[8:]  # from chain:4:ring on
    ring_prob = simulate_post_selected(cases[0][0], range(8))[0]  # its 8 data qubits

    def refuse(self):
        raise AssertionError(f"Opaque.__post_init__ ran on {self.label}")

    monkeypatch.setattr(Opaque, "__post_init__", refuse)
    for circ, coupling in cases:
        routed = route(circ, coupling)
        given = [g for g in circ.gates if isinstance(g, Opaque)]
        blocks = [g for g in routed.circuit.gates if isinstance(g, Opaque)]
        assert given and len(blocks) == len(given)
        assert all(b.matrix is g.matrix for b, g in zip(blocks, given))
    routed = route(*cases[0])  # the routed simulation renames each gate after a SWAP, with no check either
    assert abs(simulate_post_selected(routed.circuit, routed.placement[:8])[0] - ring_prob) < 1e-12


# chain:3:open:aligned routed onto linear makes 30 SWAPs; with the placement update of one of these skipped,
# the routed state is still the oracle's, to rounding
_HARMLESS_SKIPS = (0, 2, 7, 8)


@pytest.mark.parametrize("skipped", range(30))
def test_a_router_fault_fails_the_routed_check(skipped, monkeypatch, capsys):
    from vbsprep import routing
    from vbsprep.cli import EXIT_CHECK_FAILED, EXIT_OK, main

    calls, move = [], routing._move

    def faulty(placement, occupied, pa, pb):
        calls.append((pa, pb))
        if len(calls) != skipped + 1:  # one Swap is written, and its placement update is skipped
            move(placement, occupied, pa, pb)

    monkeypatch.setattr(routing, "_move", faulty)
    code = main(["prepare", "--spin", "2", "--lattice", "chain:3:open:aligned", "--coupling", "linear"])
    err = capsys.readouterr().err
    assert len(calls) > skipped
    assert code == (EXIT_OK if skipped in _HARMLESS_SKIPS else EXIT_CHECK_FAILED), err  # never exit 2, a config error
    cause = {1: "error: markers on qubits [7] (folded into a block",
             3: "[FAIL] routed_fidelity_vs_oracle: expected=1 actual=0.4285",
             12: "error: qubit 2 (state axis 3) is neither kept nor post-selected"}.get(skipped, "")
    assert cause in err


@pytest.mark.parametrize("spec", [f"chain:{n}:open:{flavor}" for n in range(2, 6) for flavor in ("aligned", "anti")]
                         + ["chain:4:ring"])
def test_a_swap_counts_and_emits_as_its_three_cnots(spec):
    """A routed circuit's CNOT count and depth on linear, and its QASM in both modes, are those of the same
    circuit with each Swap(a, b) written as CNot(a, b), CNot(b, a), CNot(a, b); so is a Swap's matrix."""
    from vbsprep.cli import parse_lattice
    from vbsprep.ir import circuit_unitary, cnot_count

    circ = probabilistic_method_circuit(assign_qubits(parse_lattice(spec)))
    routed = route(circ, linear_coupling(circ.n_qubits)).circuit
    assert any(isinstance(g, Swap) for g in routed.gates)
    written = Circuit(routed.n_qubits, [c for g in routed.gates
                                        for c in ([CNot(*g.qubits), CNot(*g.qubits[::-1]), CNot(*g.qubits)]
                                                  if isinstance(g, Swap) else [g])])
    for measure in (cnot_count, cnot_depth):
        assert measure(routed, "linear") == measure(written, "linear")
    for mode in ("structural", "basis"):
        assert emit_qasm(routed, mode) == emit_qasm(written, mode)
    swap = circuit_unitary(Circuit(2, [Swap((0, 1))]))
    assert np.array_equal(swap, circuit_unitary(Circuit(2, [CNot(0, 1), CNot(1, 0), CNot(0, 1)])))


def test_route_brings_a_given_swaps_qubits_onto_a_coupled_pair():
    from vbsprep.ir import simulate_post_selected, u_x

    coupling = linear_coupling(3)
    routed = route(Circuit(3, [u_x(0), Swap((0, 2))]), coupling)
    assert all(coupling.are_coupled(*g.qubits) for g in routed.circuit.gates if isinstance(g, Swap))
    _, state = simulate_post_selected(routed.circuit, [routed.placement[2]])  # only the flipped wire joins the state
    assert np.allclose(state.amps, [0, 1])  # logical qubit 2 holds the flipped |1>

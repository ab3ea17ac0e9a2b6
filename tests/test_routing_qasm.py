"""Routing soundness, heavy-hex displacement arithmetic, QASM round trips."""
import numpy as np
import pytest

from vbsprep.builders import probabilistic_method_circuit
from vbsprep.errors import ConfigError, UnsupportedError
from vbsprep.ir import CNot, Opaque, cnot_depth, post_select, simulate_circuit
from vbsprep.lattice import (
    all_to_all,
    assign_qubits,
    build_chain,
    build_three_link_pair,
    heavy_hex_patch,
    linear_coupling,
)
from vbsprep.methods import oracle_vbs_state
from vbsprep.qasm import emit_qasm, parse_qasm
from vbsprep.routing import (
    displacement_block,
    heavy_hex_pair_layout,
    heavy_hex_pair_mitigated,
    heavy_hex_pair_probabilistic,
    route,
)
from vbsprep.spinops import SpinValue

from oracle_reference import fidelity


def _run_post_selected(circ, keep):
    state, markers = simulate_circuit(circ)
    return post_select(state, markers, keep)


def test_route_all_to_all_unchanged():
    lat = build_chain(3, "ring")
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(2))
    routed = route(circ, all_to_all(enc.total_qubits))
    assert routed.circuit.gates == circ.gates
    assert routed.placement == list(range(enc.total_qubits))


@pytest.mark.parametrize(
    "lattice,twice_s",
    [
        (build_chain(3, "open", ("up", "up")), 2),
        (build_chain(2, "ring"), 2),
        (build_three_link_pair(), 3),
    ],
)
def test_route_linear_preserves_semantics(lattice, twice_s):
    enc = assign_qubits(lattice, "hadamard_all")
    circ = probabilistic_method_circuit(lattice, enc, SpinValue(twice_s))
    routed = route(circ, linear_coupling(enc.total_qubits))
    p0, s0 = _run_post_selected(circ, range(enc.n_data_qubits))
    p1, s1 = _run_post_selected(routed.circuit, routed.placement[: enc.n_data_qubits])
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s1, s0) - 1.0) < 1e-12
    # every CNOT acts on a coupled pair
    coupling = linear_coupling(enc.total_qubits)
    for g in routed.circuit.gates:
        if isinstance(g, CNot):
            assert coupling.are_coupled(g.control, g.target)
        elif isinstance(g, Opaque):
            assert coupling.connected_subset(g.qubits)


def test_route_with_custom_initial_placement():
    lat = build_chain(2, "open", ("up", "up"))
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(2))
    coupling = linear_coupling(enc.total_qubits + 2)
    placement = [5, 3, 0, 1, 6, 7]  # scatter the logical qubits
    routed = route(circ, coupling, initial_placement=placement)
    p0, s0 = _run_post_selected(circ, range(enc.n_data_qubits))
    # the physical qubits no logical qubit lands on stay |0> and are dropped
    p1, s1 = _run_post_selected(routed.circuit, routed.placement[: enc.n_data_qubits])
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s1, s0) - 1.0) < 1e-12


def test_route_does_not_fit():
    lat = build_chain(3, "ring")
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(2))
    with pytest.raises(ConfigError):
        route(circ, linear_coupling(4))


def test_displacement_block_counts():
    layout = heavy_hex_pair_layout()
    block = displacement_block(layout.displacement)
    assert block.declared_count("heavy_hex") == 9
    assert block.declared_depth("heavy_hex") == 9
    # permutation matrix: one 1 per column
    assert np.array_equal(np.sort(np.abs(block.matrix), axis=0)[-1], np.ones(16))


def test_heavy_hex_bare_pipeline():
    routed, lattice, encoding = heavy_hex_pair_probabilistic()
    oracle, norm = oracle_vbs_state(lattice, SpinValue(3))
    prob, state = _run_post_selected(routed.circuit, routed.placement[: encoding.n_data_qubits])
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-12
    assert abs(prob - norm) < 1e-12
    assert cnot_depth(routed.circuit, "heavy_hex") == 51  # 1 + 9 + 41
    blocks = [g for g in routed.circuit.gates if isinstance(g, Opaque) and g.label == "bond_displacement"]
    assert len(blocks) == 1
    assert sum(b.declared_count("heavy_hex") for b in blocks) == 9


def test_heavy_hex_mitigated_pipeline():
    routed, lattice, encoding = heavy_hex_pair_mitigated()
    oracle, _ = oracle_vbs_state(lattice, SpinValue(3))
    prob, state = _run_post_selected(routed.circuit, routed.placement[: encoding.n_data_qubits])
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-12
    assert cnot_depth(routed.circuit, "heavy_hex") == 105  # 57 + 9 + 39


def test_heavy_hex_boxes_are_connected_shapes():
    layout = heavy_hex_pair_layout()
    cm = layout.coupling
    line_box = [layout.final[r] for r in ("anc_A", "A1", "A2", "A3")]
    t_box = [layout.final[r] for r in ("B1", "B2", "B3", "anc_B")]
    assert cm.connected_subset(line_box)
    assert cm.connected_subset(t_box)
    # T shape: one qubit of degree 3 inside the box
    degrees = [sum(1 for q in t_box if cm.are_coupled(p, q)) for p in t_box]
    assert sorted(degrees) == [1, 1, 1, 3]
    degrees_line = [sum(1 for q in line_box if cm.are_coupled(p, q)) for p in line_box]
    assert sorted(degrees_line) == [1, 1, 2, 2]


def test_heavy_hex_bonds_start_coupled():
    layout = heavy_hex_pair_layout()
    for a, b in (("A1", "B1"), ("A2", "B2"), ("A3", "B3")):
        assert layout.coupling.are_coupled(layout.initial[a], layout.initial[b])


# ---------------------------------------------------------------------------
# QASM
# ---------------------------------------------------------------------------

def test_valence_bond_qasm_body():
    from vbsprep.builders import valence_bond_subcircuit

    text = emit_qasm(valence_bond_subcircuit(0, 1), "structural")
    lines = [l for l in text.splitlines() if l and not l.startswith(("OPENQASM", "include", "qreg", "creg"))]
    assert len(lines) == 4  # H, X, CNOT, Z
    assert lines[2] == "cx q[0],q[1];"


def test_basis_mode_round_trip_spin1():
    lat = build_chain(2, "open", ("up", "up"))
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(2))
    text = emit_qasm(circ, "basis")
    assert "opaque" not in text
    parsed = parse_qasm(text)
    p0, s0 = _run_post_selected(circ, range(enc.n_data_qubits))
    p1, s1 = _run_post_selected(parsed, range(enc.n_data_qubits))
    assert abs(p0 - p1) < 1e-12
    assert abs(fidelity(s0, s1) - 1.0) < 1e-12


def test_structural_mode_spin32_has_4_qubit_opaque():
    lat = build_three_link_pair()
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, SpinValue(3))
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

    circ = island_prep_circuit(SpinValue(2))
    with pytest.raises(UnsupportedError):
        emit_qasm(circ, "basis")


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_qasm("nope")
    with pytest.raises(ConfigError):
        parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nfoo bar;')


def test_displacement_basis_expansion_simulates_identically():
    layout = heavy_hex_pair_layout()
    block = displacement_block(layout.displacement)
    from vbsprep.ir import Circuit
    from vbsprep.qasm import expand_opaque

    direct = Circuit(8, gates=[block])
    expanded = Circuit(8, gates=expand_opaque(block))
    assert sum(1 for g in expanded.gates if isinstance(g, CNot)) == 9
    rng = np.random.default_rng(5)
    v = rng.normal(size=256) + 1j * rng.normal(size=256)
    v /= np.linalg.norm(v)
    from vbsprep.statesim import Statevector

    s0, _ = simulate_circuit(direct, initial=Statevector.from_amplitudes(v.copy()))
    s1, _ = simulate_circuit(expanded, initial=Statevector.from_amplitudes(v.copy()))
    assert np.max(np.abs(s0.amps - s1.amps)) < 1e-12

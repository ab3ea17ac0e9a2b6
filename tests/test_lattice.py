"""Lattice builders, coloring, qubit assignment, coupling maps."""
import json

import pytest

from vbsprep.builders import mitigated_islands_circuit, probabilistic_method_circuit
from vbsprep.errors import ConfigError, NotBipartiteError
from vbsprep.lattice import (
    CouplingMap,
    assign_qubits,
    build_chain,
    build_honeycomb_patch,
    build_three_link_pair,
    build_three_link_ring,
    heavy_hex_patch,
    lattice_from_json,
    linear_coupling,
)
from vbsprep.methods import run_mps


def test_ring_chain_structure():
    lat = build_chain(4, "ring")
    assert len(lat.links) == 4
    assert all(lat.coordination(s) == 2 for s in range(4))
    assert lat.sublattice() == ("A", "B", "A", "B")


def test_open_chain_structure():
    lat = build_chain(3, "open")
    assert len(lat.links) == 2
    assert lat.site_twice_spin(0) == 2  # one link plus the dangling end spin
    assert lat.site_twice_spin(1) == 2


def test_chain_too_small():
    with pytest.raises(ConfigError):
        build_chain(1, "open")


def test_three_link_pair():
    lat = build_three_link_pair()
    assert lat.n_sites == 2 and len(lat.links) == 3
    assert lat.coordination(0) == lat.coordination(1) == 3
    assert lat.sublattice() == ("A", "B")
    enc = assign_qubits(lat)
    assert enc.n_data_qubits == 6
    assert probabilistic_method_circuit(enc).n_qubits == 8


def test_three_link_ring_coordination():
    lat = build_three_link_ring(4)
    assert all(lat.coordination(s) == 3 for s in range(4))
    lat.sublattice()  # bipartite


def test_single_hexagon():
    lat = build_honeycomb_patch(1, 1)
    assert lat.n_sites == 6 and len(lat.links) == 6
    assert all(lat.coordination(s) == 2 for s in range(6))
    lat.sublattice()


def test_honeycomb_1x2_site_count():
    # count by explicit construction: two fused hexagons share one edge
    lat = build_honeycomb_patch(1, 2)
    assert lat.n_sites == 10
    assert len(lat.links) == 11


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_honeycomb_patches_bipartite_and_consistent(rows, cols):
    lat = build_honeycomb_patch(rows, cols)
    lat.sublattice()
    assert sum(lat.coordination(s) for s in range(lat.n_sites)) == 2 * len(lat.links)
    assert all(lat.coordination(s) <= 3 for s in range(lat.n_sites))


def test_odd_cycle_rejected():
    lat = build_chain(3, "ring")
    with pytest.raises(NotBipartiteError):
        lat.sublattice()


def test_assign_hadamard_all_counts():
    lat = build_chain(4, "open")
    enc = assign_qubits(lat)
    assert enc.n_data_qubits == 8  # 2NS with the two dangling end spins
    assert probabilistic_method_circuit(enc).n_qubits == 12  # plus one ancilla per site
    assert len(enc.boundary_qubits) == 2


def test_assign_islands_halves_ancillas():
    lat = build_chain(4, "open")
    circ = mitigated_islands_circuit(assign_qubits(lat))
    assert circ.n_qubits == 10  # 8 data + 2 ancillas on sublattice B
    assert {m.qubit for m in circ.measures()} == {8, 9}


def test_assign_islands_needs_bipartite():
    lat = build_chain(3, "ring")
    with pytest.raises(NotBipartiteError):
        mitigated_islands_circuit(assign_qubits(lat))


def test_assignment_covers_each_incidence_once():
    lat = build_honeycomb_patch(1, 2)
    enc = assign_qubits(lat)
    seen = set()
    for qa, qb in enc.link_qubits:
        assert qa not in seen and qb not in seen
        seen.update((qa, qb))
    assert seen == set(range(enc.n_data_qubits))
    for site, qs in enumerate(enc.site_qubits):
        assert len(qs) == lat.site_twice_spin(site)


def test_mps_assignment_ancilla_count():
    assert run_mps(build_chain(4, "open"))["circuit"].n_qubits == 8
    assert run_mps(build_chain(4, "ring"))["circuit"].n_qubits == 9


def test_lattice_json_round_trip():
    lat = build_three_link_pair()
    doc = json.dumps(lat.to_json_dict())
    again = lattice_from_json(doc)
    assert again.links == lat.links
    assert again.n_sites == lat.n_sites


def test_coupling_maps():
    lin = linear_coupling(5)
    assert lin.are_coupled(2, 3) and not lin.are_coupled(0, 4)
    assert lin.shortest_path(0, 3) == [0, 1, 2, 3]
    hh = heavy_hex_patch(1)
    assert hh.n_qubits == 8
    assert hh.are_coupled(5, 7)  # bridge
    assert hh.connected_subset([4, 5, 6, 7])  # the T-shaped box
    assert not hh.connected_subset([0, 2, 4])


def test_neighbors_are_the_edge_scan():
    """The adjacency built once per map lists what scanning the edges lists, ascending, and cannot be changed."""
    for coupling in (linear_coupling(9), heavy_hex_patch(2)):
        for q in range(coupling.n_qubits + 1):
            scan = sorted({b if a == q else a for a, b in coupling.edges if q in (a, b)})
            assert list(coupling.neighbors(q)) == scan
        assert isinstance(coupling.neighbors(0), tuple)
        assert coupling.neighbors(1) is coupling.neighbors(1)


def test_coupling_map_must_be_connected():
    with pytest.raises(ConfigError, match="coupling map must be connected"):
        CouplingMap(3, frozenset({(0, 1)}))


def test_coupling_map_rejects_a_self_loop(monkeypatch, capsys, tmp_path):
    """A self-loop would let the router emit a SWAP of a qubit with itself, which it appends unchecked: exit 2 instead."""
    import vbsprep.cli as cli
    from vbsprep.cli import EXIT_CONFIG, main

    with pytest.raises(ConfigError, match=r"coupling edge \(1, 1\) must join two distinct qubits"):
        CouplingMap(3, frozenset({(0, 1), (1, 1), (1, 2)}))
    line = cli.linear_coupling
    monkeypatch.setattr(cli, "linear_coupling", lambda n: CouplingMap(n, line(n).edges | {(0, 0)}))
    argv = ["prepare", "--spin", "2", "--lattice", "chain:3:open:aligned", "--coupling", "linear", "--out", str(tmp_path / "r.json")]
    assert main(argv) == EXIT_CONFIG
    assert "coupling edge (0, 0) must join two distinct qubits" in capsys.readouterr().err


def test_heavy_hex_multi_set():
    hh = heavy_hex_patch(2)
    assert hh.n_qubits == 16 + 2
    assert hh.are_coupled(14, 17)  # second set's bridge

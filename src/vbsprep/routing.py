"""Coupling-map routing: generic SWAP insertion plus the fixed heavy-hex
layout and displacement stage used by the coordination-3 preparation.

The generic router walks the gate list, moving logical qubits along
shortest paths (each inserted SWAP is expanded to 3 CNOTs) until every
CNOT acts on a coupled pair and every opaque block sits on a connected
subgraph.  It returns the final logical-to-physical placement, so callers
can post-select straight to the physical qubits that hold the data.

The heavy-hex pipeline is a declared layout: per six-qubit set the three
valence bonds start on coupled pairs, and a fixed displacement of three
SWAPs (one declared block) regroups the qubits so one site lands on an
in-line four-qubit box and the other on a T-shaped box.
"""
from __future__ import annotations

from dataclasses import dataclass

from .builders import hadamard_test_fragment, island_block, island_qubit_groups, valence_bond_subcircuit
from .errors import ConfigError
from .ir import DECLARED_COSTS, CNot, Circuit, Opaque, _renamed
from .lattice import (
    CouplingMap,
    Lattice,
    SiteEncoding,
    assign_qubits,
    build_three_link_pair,
    heavy_hex_patch,
)
from .spinops import SpinValue
from .symmetrize import swap_sequence_matrix


@dataclass
class RoutedCircuit:
    circuit: Circuit
    placement: list[int]  # logical -> physical at the end of the circuit


def _swap_cnots(a: int, b: int) -> list[CNot]:
    return [CNot(a, b), CNot(b, a), CNot(a, b)]


def _move(placement: list[int], occupied: dict, pa: int, pb: int) -> None:
    """Trade the logical qubits on physical pa and pb, in `placement` and its inverse `occupied`."""
    occupied[pa], occupied[pb] = occupied.get(pb), occupied.get(pa)
    for p in (pa, pb):
        if occupied[p] is not None:
            placement[occupied[p]] = p


def route(circuit: Circuit, coupling: CouplingMap) -> RoutedCircuit:
    """Rewrite a circuit so all multi-qubit gates respect the coupling map.

    SWAPs bring a CNOT's qubits onto a coupled pair and a block's onto a
    connected set; then the gate is renamed (`ir._renamed`) onto the
    physical qubits its logical qubits hold.  The simulation takes each SWAP
    out and renames the later gates back (`ir._Run.run`).
    """
    if circuit.n_qubits > coupling.n_qubits:
        raise ConfigError("circuit does not fit on the coupling map")
    placement = list(range(circuit.n_qubits))
    occupied = {p: l for l, p in enumerate(placement)}
    out = Circuit(coupling.n_qubits)

    def do_swap(pa: int, pb: int):  # an edge of the map (see CouplingMap), so Circuit.add's check is skipped
        out.gates.extend(_swap_cnots(pa, pb))
        _move(placement, occupied, pa, pb)

    def bring_adjacent(la: int, lb: int):
        while not coupling.are_coupled(placement[la], placement[lb]):
            path = coupling.shortest_path(placement[la], placement[lb])
            do_swap(path[0], path[1])

    def gather(logicals: tuple[int, ...]):
        while True:  # swap the nearest outside qubit toward the first one's component
            phys = [placement[l] for l in logicals]
            comp = coupling.component(phys[0], phys)
            if len(comp) == len(phys):
                return
            p, c = min(((p, c) for p in phys if p not in comp for c in comp),
                       key=lambda pc: (coupling._distance(*pc), pc))
            do_swap(*coupling.shortest_path(p, c)[:2])

    for g in circuit.gates:
        if isinstance(g, CNot):
            bring_adjacent(g.control, g.target)
        elif isinstance(g, Opaque):
            gather(g.qubits)
        out.add(_renamed(g, placement))
    return RoutedCircuit(out, placement)


# ---------------------------------------------------------------------------
# heavy-hex layout for the coordination-3 pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeavyHexPairLayout:
    """Declared placement of the three-link pair on one heavy-hex set.

    Line positions 0..6 with a bridge qubit 7 hanging off position 5.
    Initially the bonds sit on coupled pairs (1,2), (3,4), (5,6); after the
    three-swap displacement site A occupies the in-line box (1,2,3) with its
    ancilla at 0, and site B the T-shaped box (4,5,6) with its ancilla on
    the bridge.
    """

    coupling: CouplingMap
    initial: dict[str, int]
    displacement: tuple[tuple[int, int], ...]
    final: dict[str, int]


def heavy_hex_pair_layout() -> HeavyHexPairLayout:
    coupling = heavy_hex_patch(1)  # line 0..6 plus bridge qubit 7 at position 5
    initial = {
        "anc_A": 0, "A1": 1, "B1": 2, "A2": 3, "B2": 4, "A3": 5, "B3": 6, "anc_B": 7,
    }
    displacement = ((2, 3), (4, 5), (3, 4))
    final = {
        "anc_A": 0, "A1": 1, "A2": 2, "A3": 3, "B1": 4, "B2": 5, "B3": 6, "anc_B": 7,
    }
    return HeavyHexPairLayout(coupling, initial, displacement, final)


def displacement_block(swaps: tuple[tuple[int, int], ...], label: str = "bond_displacement") -> Opaque:
    """The per-set displacement as one opaque block with its declared cost."""
    qubits = tuple(sorted({q for pair in swaps for q in pair}))
    local = {q: i for i, q in enumerate(qubits)}
    mat = swap_sequence_matrix([(local[a], local[b]) for a, b in swaps], len(qubits))
    return Opaque(label, qubits, mat, **DECLARED_COSTS["displacement"])


def _pair_on_layout(method: str) -> tuple[Lattice, SiteEncoding, HeavyHexPairLayout, list[int], list[int]]:
    """The pair under `method`'s encoding, with each logical qubit's position
    on the heavy-hex set before and after the displacement."""
    lattice = build_three_link_pair()
    encoding = assign_qubits(lattice, method)
    layout = heavy_hex_pair_layout()
    roles = {"anc_B": encoding.site_ancilla(1)}
    if encoding.ancilla[0] is not None:
        roles["anc_A"] = encoding.ancilla[0]
    for k, (qa, qb) in enumerate(encoding.link_qubits):
        roles[f"A{k + 1}"], roles[f"B{k + 1}"] = qa, qb
    initial, final = [0] * encoding.total_qubits, [0] * encoding.total_qubits
    for role, logical in roles.items():
        initial[logical], final[logical] = layout.initial[role], layout.final[role]
    return lattice, encoding, layout, initial, final


def heavy_hex_pair_probabilistic() -> tuple[RoutedCircuit, Lattice, SiteEncoding]:
    """Bare probabilistic preparation of the pair, placed on the heavy-hex set."""
    lattice, encoding, layout, initial, final = _pair_on_layout("hadamard_all")
    circ = Circuit(layout.coupling.n_qubits)
    for qa, qb in encoding.link_qubits:
        valence_bond_subcircuit(initial[qa], initial[qb], circ)
    circ.add(displacement_block(layout.displacement))
    for site, box in ((0, "line"), (1, "t")):
        _add_physical_test(circ, encoding, final, site, box)
    return RoutedCircuit(circ, final), lattice, encoding


def heavy_hex_pair_mitigated() -> tuple[RoutedCircuit, Lattice, SiteEncoding]:
    """Island initialization of site A plus a T-box test on site B, heavy-hex.

    Site A's island enters as one builders.island_block on the qubits its
    bonds start on.
    """
    lattice, encoding, layout, initial, final = _pair_on_layout("islands_plus_sublattice")
    circ = Circuit(layout.coupling.n_qubits)
    (site_a,) = island_qubit_groups(lattice, encoding)
    block = island_block(lattice, encoding, site_a, SpinValue(3))
    circ.add(_renamed(block, initial))
    circ.add(displacement_block(layout.displacement))
    _add_physical_test(circ, encoding, final, 1, "t")
    return RoutedCircuit(circ, final), lattice, encoding


def _add_physical_test(circ: Circuit, encoding: SiteEncoding, placement: list[int], site: int, box: str):
    """Spin-3/2 test of `site` on its displaced physical qubits and heavy-hex box."""
    hadamard_test_fragment(
        site,
        encoding,
        SpinValue(3),
        circ,
        heavy_hex_box=box,
        site_qubits=tuple(placement[q] for q in encoding.site_qubits[site]),
        anc=placement[encoding.site_ancilla(site)],
    )

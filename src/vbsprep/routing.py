"""Coupling-map routing: generic SWAP insertion, and the placement of the
three-link pair on one heavy-hex set.

The generic router walks the gate list, moving logical qubits along
shortest paths (each inserted SWAP is one `ir.Swap`, which counts and
emits as 3 CNOTs) until every CNOT acts on a coupled pair and every
opaque block sits on a connected subgraph.  It returns the final
logical-to-physical placement, so callers can post-select straight to the
physical qubits that hold the data.

The heavy-hex placement is data: the role held at each position of the
set before the displacement (`PAIR_ROLES`, where the three valence bonds
start on coupled pairs) and the displacement's three SWAPs
(`PAIR_DISPLACEMENT`, one declared block).  The positions after it come
from applying those SWAPs with the router's own placement update
(`_move`): one site lands on an in-line four-qubit box and the other on a
T-shaped box.
"""
from __future__ import annotations

from dataclasses import dataclass

from .builders import hadamard_test_fragment, island_block, valence_bond_subcircuit
from .errors import ConfigError, UnsupportedError
from .ir import DECLARED_COSTS, CNot, Circuit, Opaque, Swap, _renamed
from .lattice import CouplingMap, SiteEncoding, assign_qubits, build_three_link_pair, heavy_hex_patch
from .symmetrize import swap_sequence_matrix


@dataclass
class RoutedCircuit:
    circuit: Circuit
    placement: list[int]  # logical -> physical at the end of the circuit


def _move(placement: list[int], occupied: dict, pa: int, pb: int) -> None:
    """Trade the logical qubits on physical pa and pb, in `placement` and its inverse `occupied`."""
    occupied[pa], occupied[pb] = occupied.get(pb), occupied.get(pa)
    for p in (pa, pb):
        if occupied[p] is not None:
            placement[occupied[p]] = p


def route(circuit: Circuit, coupling: CouplingMap) -> RoutedCircuit:
    """Rewrite a circuit so all multi-qubit gates respect the coupling map.

    Swaps bring a CNOT's qubits onto a coupled pair and a block's onto a
    connected set; then the gate is renamed (`ir._renamed`) onto the
    physical qubits its logical qubits hold.  Each declared block spans
    from its first gate to its markers as renamed, the Swaps put in for
    its later gates included.  The simulation takes each Swap out and
    renames the later gates back (`ir._Run.run`).
    """
    if circuit.n_qubits > coupling.n_qubits:
        raise ConfigError("circuit does not fit on the coupling map")
    placement = list(range(circuit.n_qubits))
    occupied = {p: l for l, p in enumerate(placement)}
    out = Circuit(coupling.n_qubits)
    at = []  # each given gate's index in `out`

    def do_swap(pa: int, pb: int):  # an edge of the map (see CouplingMap), so Circuit.add's check is skipped
        out.gates.append(Swap((pa, pb)))
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
        if isinstance(g, (CNot, Swap)):
            bring_adjacent(*g.qubits)
        elif isinstance(g, Opaque):
            gather(g.qubits)
        at.append(len(out.gates))
        out.add(_renamed(g, placement))
    out.blocks = [(at[start], at[stop - 1] + 1) for start, stop in circuit.blocks]
    return RoutedCircuit(out, placement)


# ---------------------------------------------------------------------------
# heavy-hex placement of the coordination-3 pair
# ---------------------------------------------------------------------------

# The role held at each position of heavy_hex_patch(1) (line 0..6, bridge 7 off
# position 5) before the displacement: site A's and B's ancillas, and the ends Ak
# and Bk of bond k = 1, 2, 3, which start on the coupled pair (2k - 1, 2k).
PAIR_ROLES = ("anc_A", "A1", "B1", "A2", "B2", "A3", "B3", "anc_B")
# After these SWAPs site A holds the in-line box (1, 2, 3) with its ancilla at 0,
# and site B the T-shaped box (4, 5, 6) with its ancilla on the bridge.
PAIR_DISPLACEMENT = ((2, 3), (4, 5), (3, 4))


def displacement_block(swaps: tuple[tuple[int, int], ...]) -> Opaque:
    """The per-set displacement as one opaque block with its declared cost."""
    qubits = tuple(sorted({q for pair in swaps for q in pair}))
    local = {q: i for i, q in enumerate(qubits)}
    mat = swap_sequence_matrix([(local[a], local[b]) for a, b in swaps], len(qubits))
    return Opaque("bond_displacement", qubits, mat, **DECLARED_COSTS["displacement"])


def heavy_hex_pair(method: str) -> tuple[RoutedCircuit, SiteEncoding]:
    """The three-link pair under route `method`, placed on one heavy-hex set.

    The first stage (the bonds, or site A's island block under
    mitigated_islands) acts on the PAIR_ROLES positions, then the
    displacement block, then the test of each site that has an ancilla,
    on its box.  The ancillas follow the 6 data qubits as the route's own
    builder numbers them: probabilistic tests site s on ancilla 6 + s, and
    mitigated_islands tests its one B site, site 1, on ancilla 6.  Each gate is built on logical qubits and renamed
    (`ir._renamed`) onto the positions they hold; the tests' declared blocks come with them.
    """
    if method not in ("probabilistic", "mitigated_islands"):
        raise UnsupportedError("heavy-hex placement covers probabilistic and mitigated_islands")
    encoding = assign_qubits(build_three_link_pair())
    n_data = encoding.n_data_qubits
    ancillas = {0: n_data, 1: n_data + 1} if method == "probabilistic" else {1: n_data}  # site -> its test's ancilla
    logical = {"anc_A": ancillas.get(0), "anc_B": ancillas.get(1)}
    for k, (qa, qb) in enumerate(encoding.link_qubits):
        logical[f"A{k + 1}"], logical[f"B{k + 1}"] = qa, qb
    occupied = {p: logical[role] for p, role in enumerate(PAIR_ROLES) if logical[role] is not None}
    placement = sorted(occupied, key=occupied.get)  # logical qubit -> position, as `route` keeps it
    first = Circuit(n_data + len(ancillas))
    if method == "probabilistic":
        for qa, qb in encoding.link_qubits:
            valence_bond_subcircuit(qa, qb, first)
    else:
        first.add(island_block(encoding, 0))
    circ = Circuit(heavy_hex_patch(1).n_qubits, [_renamed(g, placement) for g in first.gates])
    circ.add(displacement_block(PAIR_DISPLACEMENT))
    for pa, pb in PAIR_DISPLACEMENT:
        _move(placement, occupied, pa, pb)
    tests = Circuit(n_data + len(ancillas))
    for site, box in ((0, "line"), (1, "t")):
        if site in ancillas:
            hadamard_test_fragment(site, encoding, tests, ancillas[site], heavy_hex_box=box)
    circ.blocks = [(len(circ.gates) + start, len(circ.gates) + stop) for start, stop in tests.blocks]
    circ.gates.extend(_renamed(g, placement) for g in tests.gates)
    return RoutedCircuit(circ, placement), encoding

"""Builders for the preparation circuits: valence bonds, local symmetrization
tests, the full probabilistic circuit, and the island-based variant."""
from __future__ import annotations

import functools

import numpy as np

from .errors import UnsupportedError
from .ir import (
    DECLARED_COSTS,
    Circuit,
    CNot,
    Measure,
    Opaque,
    circuit_unitary,
    cnot_count,
    cnot_depth,
    u_h,
    u_t,
    u_tdg,
    u_x,
    u_z,
)
from .lattice import SPIN_DOWN, SiteEncoding
from .schmidt import ISLAND_SITE_SLOTS, SINGLET, island_prep_circuit, schmidt_prepare
from .spinops import exp_minus_i_pi_symmetrizer, symmetrizer
from .statesim import Statevector


def controlled(mat: np.ndarray) -> np.ndarray:
    """Control on one extra (most significant) qubit."""
    d = mat.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = mat
    return out


def valence_bond_subcircuit(q_top: int, q_bottom: int, circ: Circuit) -> Circuit:
    """H, X, CNOT, Z sequence preparing (|01> - |10>)/sqrt(2) on (q_top, q_bottom), added to `circ`."""
    if q_top == q_bottom:
        raise ValueError("valence bond needs two distinct qubits")
    circ.add(u_h(q_top))
    circ.add(u_x(q_bottom))
    circ.add(CNot(q_top, q_bottom))
    circ.add(u_z(q_top))
    return circ


def pre_vbs_circuit(encoding: SiteEncoding, n_ancillas: int) -> Circuit:
    """One valence-bond fragment per link plus boundary-spin initialization,
    on a register of the data qubits and `n_ancillas` ancillas after them."""
    circ = Circuit(encoding.n_data_qubits + n_ancillas)
    for qubit, spin in encoding.boundary_qubits:
        if spin == SPIN_DOWN:
            circ.add(u_x(qubit))
    for qa, qb in encoding.link_qubits:
        valence_bond_subcircuit(qa, qb, circ)
    return circ


def spin_ket(spin: str) -> np.ndarray:
    """|0> for a fixed spin up, |1> for a fixed spin down."""
    return np.array([0, 1] if spin == SPIN_DOWN else [1, 0], dtype=complex)


@functools.cache
def _test_block(twice_s: int) -> np.ndarray:
    """The site test's controlled exp(-i pi P_sym), read-only.

    One array serves every site, so a simulation (`ir._Run`), which keys an
    Opaque by its matrix's identity, composes a repeated test once per call.
    """
    block = controlled(exp_minus_i_pi_symmetrizer(twice_s))
    block.setflags(write=False)
    return block


def hadamard_test_fragment(
    site: int,
    encoding: SiteEncoding,
    circ: Circuit,
    anc: int,
    heavy_hex_box: str | None = None,
    creg: int | None = None,
) -> Circuit:
    """Test on ancilla `anc` whose retained branch symmetrizes the site's 2S qubits.

    The retained ancilla outcome is |1>.  For 2S=2 the controlled block is a
    phased controlled-SWAP.  The test, ending in its marker, is declared
    one of `circ`'s blocks.
    `heavy_hex_box` selects the declared heavy-hex cost variant ("t" or
    "line") for the spin-3/2 block.  The marker takes `creg`, or else the
    first free one (a scan of every gate).
    """
    qubits = encoding.site_qubits[site]
    twice_s = len(qubits)
    cost_key = f"test_2s{twice_s}" + (f"_{heavy_hex_box or 'line'}" if twice_s == 3 else "")
    if cost_key not in DECLARED_COSTS:
        raise UnsupportedError(f"no declared test costs for 2S={twice_s}")
    start = len(circ.gates)
    circ.add(u_h(anc))
    circ.add(Opaque(f"ctrl_exp_sym_{twice_s}", (anc, *qubits), _test_block(twice_s), **DECLARED_COSTS[cost_key]))
    circ.add(u_h(anc))
    circ.add(Measure(anc, expect=1, creg=circ.next_creg() if creg is None else creg))
    circ.blocks.append((start, len(circ.gates)))
    return circ


def probabilistic_method_circuit(encoding: SiteEncoding) -> Circuit:
    """Valence-bond layer followed by one parallel local test per site; site s tests on ancilla n_data_qubits + s."""
    n_sites = encoding.lattice.n_sites
    circ = pre_vbs_circuit(encoding, n_sites)
    first = circ.next_creg()
    for site in range(n_sites):
        hadamard_test_fragment(site, encoding, circ, encoding.n_data_qubits + site, creg=first + site)
    return circ


# ---------------------------------------------------------------------------
# islands variant
# ---------------------------------------------------------------------------

def island_qubit_groups(encoding: SiteEncoding) -> dict[int, tuple[int, ...]]:
    """For each A-sublattice site, the qubits of its island (site + bond partners)."""
    lattice = encoding.lattice
    colors = lattice.sublattice()
    groups: dict[int, tuple[int, ...]] = {}
    for site in range(lattice.n_sites):
        if colors[site] != "A":
            continue
        qs = set(encoding.site_qubits[site])
        for k, (a, b) in enumerate(lattice.links):
            if site == a:
                qs.add(encoding.link_qubits[k][1])
            elif site == b:
                qs.add(encoding.link_qubits[k][0])
        groups[site] = tuple(sorted(qs))
    return groups


def island_local_state(encoding: SiteEncoding, site: int, group: tuple[int, ...]) -> Statevector:
    """Island state in the group's local qubit order (bonds + symmetrized site).

    Its `tracked_norm_sq` is the symmetrizer's success probability on the
    island's bond product.
    """
    local = {q: i for i, q in enumerate(group)}
    factors = []
    for k, (a, b) in enumerate(encoding.lattice.links):
        if site in (a, b):
            qa, qb = encoding.link_qubits[k]
            factors.append(((local[qa], local[qb]), SINGLET))
    for qubit, spin in encoding.boundary_qubits:
        if qubit in local:
            factors.append(((local[qubit],), spin_ket(spin)))
    site_local = tuple(local[q] for q in encoding.site_qubits[site])
    return Statevector.product_of_factors(len(group), factors, [(symmetrizer(len(site_local)), site_local)])


@functools.cache
def _island_prep(twice_s: int) -> tuple[np.ndarray, dict]:
    """Matrix (read-only: one array serves every island block, as `_test_block`) and CNOT
    costs of island_prep_circuit; routed depths are declared."""
    prep = island_prep_circuit(twice_s)
    routed = DECLARED_COSTS[f"island_2s{twice_s}"]["cnot_depth"]
    costs = {
        "cnot_cost": {"all_to_all": cnot_count(prep, "all_to_all")},
        "cnot_depth": {"all_to_all": cnot_depth(prep, "all_to_all"), **routed},
    }
    mat = circuit_unitary(prep)
    mat.setflags(write=False)
    return mat, costs


def island_block(encoding: SiteEncoding, site: int) -> Opaque:
    """A full island (site plus its 2S bond partners) as one opaque block.

    The qubits are listed in island_state's order: each site qubit at its
    ISLAND_SITE_SLOTS slot and its bond partner at the other slot of the
    pair.  A bond listed against its singlet's orientation only flips the
    global sign.
    """
    partner = {}
    for k, (a, b) in enumerate(encoding.lattice.links):
        qa, qb = encoding.link_qubits[k]
        if site == a:
            partner[qa] = qb
        elif site == b:
            partner[qb] = qa
    twice_s = len(encoding.site_qubits[site])
    order = [0] * (2 * twice_s)
    for q, slot in zip(encoding.site_qubits[site], ISLAND_SITE_SLOTS[twice_s]):
        order[slot], order[slot ^ 1] = q, partner[q]
    mat, costs = _island_prep(twice_s)
    return Opaque(f"island_site{site}", tuple(order), mat, **costs)


def mitigated_islands_circuit(encoding: SiteEncoding) -> Circuit:
    """Deterministic island initialization on sublattice A, tests on sublattice B.

    Full islands enter as one island_block each; boundary islands, which
    miss a bond, are prepared by a generic Schmidt split.  The i-th B site
    tests on ancilla n_data_qubits + i.
    """
    b_sites = [site for site, color in enumerate(encoding.lattice.sublattice()) if color == "B"]
    circ = Circuit(encoding.n_data_qubits + len(b_sites))
    groups = island_qubit_groups(encoding)
    covered: set[int] = set()
    for site, group in sorted(groups.items()):
        twice_s = len(encoding.site_qubits[site])
        if len(group) == 2 * twice_s and twice_s in ISLAND_SITE_SLOTS:
            circ.add(island_block(encoding, site))
        else:
            target = island_local_state(encoding, site, group)
            circ.extend(schmidt_prepare(target.amps, qubits=group, label=f"island_site{site}").gates)
        covered |= set(group)
    for qubit, spin in encoding.boundary_qubits:
        if qubit not in covered and spin == SPIN_DOWN:
            circ.add(u_x(qubit))
    first = circ.next_creg()
    for i, site in enumerate(b_sites):
        hadamard_test_fragment(site, encoding, circ, encoding.n_data_qubits + i, creg=first + i)
    return circ


def mitigated_retry_circuit(encoding: SiteEncoding) -> Circuit:
    """Bond layer plus one retried test per A-sublattice site, then plain tests on B.

    A retry resets the site's island (its `island_qubit_groups` entry) and
    repeats the test; the simulator realizes it by branch resampling
    (methods.run_mitigated_retry).  The i-th B site tests on ancilla
    n_data_qubits + i; the k-th retried test borrows ancilla
    n_data_qubits + k mod (number of B sites) and returns it from the
    retained |1> to |0> for the next test.
    """
    n_data, colors = encoding.n_data_qubits, encoding.lattice.sublattice()
    a_sites = [site for site, color in enumerate(colors) if color == "A"]
    b_sites = [site for site, color in enumerate(colors) if color == "B"]
    circ = pre_vbs_circuit(encoding, len(b_sites))
    creg = circ.next_creg()
    for idx, site in enumerate(a_sites):
        anc = n_data + idx % len(b_sites)
        hadamard_test_fragment(site, encoding, circ, anc, creg=creg + idx)
        circ.add(u_x(anc))
    for i, site in enumerate(b_sites):
        hadamard_test_fragment(site, encoding, circ, n_data + i, creg=creg + len(a_sites) + i)
    return circ


# ---------------------------------------------------------------------------
# Fredkin in basis gates
# ---------------------------------------------------------------------------

def toffoli_fragment(c1: int, c2: int, t: int, circ: Circuit) -> Circuit:
    """Textbook 6-CNOT Toffoli decomposition."""
    circ.add(u_h(t))
    circ.add(CNot(c2, t))
    circ.add(u_tdg(t))
    circ.add(CNot(c1, t))
    circ.add(u_t(t))
    circ.add(CNot(c2, t))
    circ.add(u_tdg(t))
    circ.add(CNot(c1, t))
    circ.add(u_t(c2))
    circ.add(u_t(t))
    circ.add(u_h(t))
    circ.add(CNot(c1, c2))
    circ.add(u_t(c1))
    circ.add(u_tdg(c2))
    circ.add(CNot(c1, c2))
    return circ


def fredkin_fragment(control: int, a: int, b: int, circ: Circuit | None = None) -> Circuit:
    """Controlled-SWAP as CNOT + textbook Toffoli + CNOT (8 CNOTs total)."""
    if len({control, a, b}) != 3:
        raise ValueError("fredkin needs three distinct qubits")
    if circ is None:
        circ = Circuit(max(control, a, b) + 1)
    circ.add(CNot(b, a))
    toffoli_fragment(control, a, b, circ)
    circ.add(CNot(b, a))
    return circ

"""Builders for the preparation circuits: valence bonds, local symmetrization
tests, the full probabilistic circuit, and the island-based variant."""
from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, UnsupportedError
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
from .lattice import SPIN_DOWN, Lattice, SiteEncoding
from .schmidt import ISLAND_SITE_SLOTS, SINGLET, island_prep_circuit, schmidt_prepare
from .spinops import SpinValue, exp_minus_i_pi_symmetrizer, symmetrizer
from .statesim import Statevector


def controlled(mat: np.ndarray) -> np.ndarray:
    """Control on one extra (most significant) qubit."""
    d = mat.shape[0]
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = mat
    return out


def valence_bond_subcircuit(q_top: int, q_bottom: int, circ: Circuit | None = None) -> Circuit:
    """H, X, CNOT, Z sequence preparing (|01> - |10>)/sqrt(2) on (q_top, q_bottom)."""
    if q_top == q_bottom:
        raise ValueError("valence bond needs two distinct qubits")
    if circ is None:
        circ = Circuit(max(q_top, q_bottom) + 1, metadata={"builder": "valence_bond"})
    circ.add(u_h(q_top))
    circ.add(u_x(q_bottom))
    circ.add(CNot(q_top, q_bottom))
    circ.add(u_z(q_top))
    return circ


def pre_vbs_circuit(lattice: Lattice, encoding: SiteEncoding) -> Circuit:
    """One valence-bond fragment per link plus boundary-spin initialization."""
    if encoding.lattice != lattice:
        raise ConfigError("encoding was built for a different lattice")
    circ = Circuit(encoding.total_qubits, metadata={"builder": "pre_vbs", "lattice": lattice.name})
    for qubit, spin in encoding.boundary_qubits:
        if spin == SPIN_DOWN:
            circ.add(u_x(qubit))
    for qa, qb in encoding.link_qubits:
        valence_bond_subcircuit(qa, qb, circ)
    return circ


def spin_ket(spin: str) -> np.ndarray:
    """|0> for a fixed spin up, |1> for a fixed spin down."""
    return np.array([0, 1] if spin == SPIN_DOWN else [1, 0], dtype=complex)


def hadamard_test_fragment(
    site: int,
    encoding: SiteEncoding,
    s: SpinValue,
    circ: Circuit | None = None,
    heavy_hex_box: str | None = None,
    site_qubits: tuple[int, ...] | None = None,
    drop_phase_gate: bool = False,
    anc: int | None = None,
    retry_reset: tuple[int, ...] = (),
) -> Circuit:
    """One-ancilla test whose retained branch symmetrizes the site's qubits.

    The retained ancilla outcome is |1>.  For 2S=2 the controlled block is a
    phased controlled-SWAP; `drop_phase_gate` omits the phase, which flips
    the retained outcome to |0> (flag recorded in the circuit metadata).
    `heavy_hex_box` selects the declared heavy-hex cost variant ("t" or
    "line") for the spin-3/2 block; `site_qubits` and `anc` override the
    encoding's qubits (used after routing displaces qubits); `retry_reset`
    marks the test for measure-and-reset retries (see ir.Measure).
    """
    if anc is None:
        anc = encoding.site_ancilla(site)
    qubits = site_qubits if site_qubits is not None else encoding.site_qubits[site]
    if len(qubits) != s.twice_s:
        raise ConfigError(f"site {site} has {len(qubits)} qubits, expected {s.twice_s}")
    if drop_phase_gate and s.twice_s != 2:
        raise ConfigError("the phase gate can only be dropped for 2S=2")
    if circ is None:
        circ = Circuit(encoding.total_qubits, metadata={"builder": "hadamard_test"})
    cost_key = f"test_2s{s.twice_s}" + (f"_{heavy_hex_box or 'line'}" if s.twice_s == 3 else "")
    if cost_key not in DECLARED_COSTS:
        raise UnsupportedError(f"no declared test costs for 2S={s.twice_s}")
    block = controlled(exp_minus_i_pi_symmetrizer(s.twice_s).matrix)
    expect = 1
    label = f"ctrl_exp_sym_{s.twice_s}"
    if drop_phase_gate:
        block = controlled(-exp_minus_i_pi_symmetrizer(2).matrix)  # plain CSWAP
        expect = 0
        label = "ctrl_swap"
        circ.metadata["phase_gate_dropped"] = True
    circ.add(u_h(anc))
    circ.add(Opaque(label, (anc, *qubits), block, **DECLARED_COSTS[cost_key]))
    circ.add(u_h(anc))
    circ.add(Measure(anc, expect=expect, creg=circ.next_creg(), retry_reset=retry_reset))
    return circ


def probabilistic_method_circuit(lattice: Lattice, encoding: SiteEncoding, s: SpinValue) -> Circuit:
    """Valence-bond layer followed by one parallel local test per site."""
    if encoding.method != "hadamard_all":
        raise ConfigError("probabilistic method needs the hadamard_all encoding")
    circ = pre_vbs_circuit(lattice, encoding)
    circ.metadata["builder"] = "probabilistic"
    circ.metadata["expected_outcome"] = 1
    for site in range(lattice.n_sites):
        if lattice.site_twice_spin(site) != s.twice_s:
            raise ConfigError(f"site {site} carries 2S={lattice.site_twice_spin(site)}, not {s.twice_s}")
        hadamard_test_fragment(site, encoding, s, circ)
    return circ


# ---------------------------------------------------------------------------
# islands variant
# ---------------------------------------------------------------------------

def island_qubit_groups(lattice: Lattice, encoding: SiteEncoding) -> dict[int, tuple[int, ...]]:
    """For each A-sublattice site, the qubits of its island (site + bond partners)."""
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


def island_local_state(lattice: Lattice, encoding: SiteEncoding, site: int, group: tuple[int, ...]) -> Statevector:
    """Island state in the group's local qubit order (bonds + symmetrized site).

    Its `tracked_norm_sq` is the symmetrizer's success probability on the
    island's bond product.
    """
    local = {q: i for i, q in enumerate(group)}
    factors = []
    for k, (a, b) in enumerate(lattice.links):
        if site in (a, b):
            qa, qb = encoding.link_qubits[k]
            factors.append(((local[qa], local[qb]), SINGLET))
    for qubit, spin in encoding.boundary_qubits:
        if qubit in local:
            factors.append(((local[qubit],), spin_ket(spin)))
    state = Statevector.product_of_factors(len(group), factors)
    site_local = tuple(local[q] for q in encoding.site_qubits[site])
    state.apply_nonunitary(symmetrizer(len(site_local)), site_local)
    return state


@functools.cache
def _island_prep(twice_s: int) -> tuple[np.ndarray, dict]:
    """Matrix and CNOT costs of island_prep_circuit; routed depths are declared."""
    prep = island_prep_circuit(SpinValue(twice_s))
    routed = DECLARED_COSTS[f"island_2s{twice_s}"]["cnot_depth"]
    costs = {
        "cnot_cost": {"all_to_all": cnot_count(prep, "all_to_all")},
        "cnot_depth": {"all_to_all": cnot_depth(prep, "all_to_all"), **routed},
    }
    return circuit_unitary(prep), costs


def island_block(lattice: Lattice, encoding: SiteEncoding, site: int, s: SpinValue) -> Opaque:
    """A full island (site plus its 2S bond partners) as one opaque block.

    The qubits are listed in island_state's order: each site qubit at its
    ISLAND_SITE_SLOTS slot and its bond partner at the other slot of the
    pair.  A bond listed against its singlet's orientation only flips the
    global sign.
    """
    partner = {}
    for k, (a, b) in enumerate(lattice.links):
        qa, qb = encoding.link_qubits[k]
        if site == a:
            partner[qa] = qb
        elif site == b:
            partner[qb] = qa
    order = [0] * (2 * s.twice_s)
    for q, slot in zip(encoding.site_qubits[site], ISLAND_SITE_SLOTS[s.twice_s]):
        order[slot], order[slot ^ 1] = q, partner[q]
    mat, costs = _island_prep(s.twice_s)
    return Opaque(f"island_site{site}", tuple(order), mat, **costs)


def mitigated_islands_circuit(lattice: Lattice, encoding: SiteEncoding, s: SpinValue) -> Circuit:
    """Deterministic island initialization on sublattice A, tests on sublattice B.

    Full islands enter as one island_block each; boundary islands, which
    miss a bond, are prepared by a generic Schmidt split.
    """
    if encoding.method != "islands_plus_sublattice":
        raise ConfigError("islands method needs the islands_plus_sublattice encoding")
    colors = lattice.sublattice()
    circ = Circuit(encoding.total_qubits, metadata={"builder": "mitigated_islands", "lattice": lattice.name})
    groups = island_qubit_groups(lattice, encoding)
    covered: set[int] = set()
    for site, group in sorted(groups.items()):
        if len(group) == 2 * s.twice_s and s.twice_s in ISLAND_SITE_SLOTS:
            circ.add(island_block(lattice, encoding, site, s))
        else:
            target = island_local_state(lattice, encoding, site, group)
            circ.extend(schmidt_prepare(target.amps, qubits=group, label=f"island_site{site}").gates)
        covered |= set(group)
    for qubit, spin in encoding.boundary_qubits:
        if qubit not in covered and spin == SPIN_DOWN:
            circ.add(u_x(qubit))
    for site in range(lattice.n_sites):
        if colors[site] == "B":
            hadamard_test_fragment(site, encoding, s, circ)
    return circ


def mitigated_retry_circuit(lattice: Lattice, encoding: SiteEncoding, s: SpinValue) -> Circuit:
    """Bond layer plus retry-marked tests on sublattice A, plain tests on B.

    The retry markers carry the island qubits to reset between rounds; the
    simulator realizes the protocol by branch resampling.  Each retry-marked
    test returns its ancilla from the retained |1> to |0>, so the next test
    on that ancilla starts clean.
    """
    if encoding.method != "islands_plus_sublattice":
        raise ConfigError("retry method needs the islands_plus_sublattice encoding")
    colors = lattice.sublattice()
    circ = pre_vbs_circuit(lattice, encoding)
    circ.metadata["builder"] = "mitigated_retry"
    groups = island_qubit_groups(lattice, encoding)
    anc_bank = [encoding.ancilla[site] for site in range(lattice.n_sites) if colors[site] == "B"]
    for idx, (site, group) in enumerate(sorted(groups.items())):
        anc = anc_bank[idx % len(anc_bank)]
        hadamard_test_fragment(site, encoding, s, circ, anc=anc, retry_reset=group)
        circ.add(u_x(anc))
    for site in range(lattice.n_sites):
        if colors[site] == "B":
            hadamard_test_fragment(site, encoding, s, circ)
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
        circ = Circuit(max(control, a, b) + 1, metadata={"builder": "fredkin"})
    circ.add(CNot(b, a))
    toffoli_fragment(control, a, b, circ)
    circ.add(CNot(b, a))
    return circ

"""End-to-end runners for every route, and the spin-basis oracle that each
route's state must reproduce up to global phase (`Statevector.spin_fidelity`).
The retry route's product folds each finished site into one spin axis.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .builders import (
    island_local_state,
    island_qubit_groups,
    mitigated_islands_circuit,
    pre_vbs_circuit,
    probabilistic_method_circuit,
    spin_ket,
)
from .errors import CapExceededError, ConfigError, ImpossibleOutcomeError
from .ir import Circuit, simulate_post_selected
from .lattice import BOUNDARY_OPEN, BOUNDARY_RING, SPIN_DOWN, Lattice, SiteEncoding, assign_qubits
from .mpsprep import mps_circuit
from .schmidt import SINGLET
from .spinops import symmetric_subspace_isometry, symmetrizer
from .statesim import PROB_FLOOR, Statevector, max_qubits
from .symmetrize import lcu_symmetrization_circuit

def oracle_vbs_state(lattice: Lattice) -> tuple[np.ndarray, float]:
    """The VBS state in the spin basis; returns (psi, squared norm), psi normalized.

    psi has one axis of 2S+1 values k = S - m per site (2S its own qubit
    count).  Unnormalized, psi is V^dagger |bonds>, V the sites'
    `spinops.symmetric_subspace_isometry`; V V^dagger is the symmetrizers'
    product, so the squared norm is the probabilistic success probability.
    Contracted site by site with `np.tensordot` (einsum's 52 index letters
    run out on honeycomb patches), each intermediate checked against the
    cap of 2^max_qubits() amplitudes before it is allocated.
    """
    cap, singlet = max_qubits(), SINGLET.real.reshape(2, 2)  # its first qubit at the link's first site
    acc = np.ones(1)
    open_links: list[int] = []  # acc: the sites done in one axis, then a leg per link to a later site
    for site in range(lattice.n_sites):
        n = lattice.site_twice_spin(site)
        tensor = symmetric_subspace_isometry(n).T.reshape((n + 1,) + (2,) * n)
        for _ in range(lattice.boundary_slots(site)):  # an open chain's end: its last qubit is fixed
            tensor = tensor[..., int(lattice.boundary_spins[site > 0] == SPIN_DOWN)]
        legs = [k for k, link in enumerate(lattice.links) if site in link]
        closing = [i for i, k in enumerate(legs) if k in open_links]
        for i in closing:  # a link's singlet enters with its later site
            bond = singlet if lattice.links[legs[i]][1] == site else singlet.T
            tensor = np.moveaxis(np.tensordot(bond, tensor, axes=(1, 1 + i)), 0, 1 + i)
        kept = [k for k in open_links if k not in {legs[i] for i in closing}]
        opened = [k for i, k in enumerate(legs) if i not in closing]
        size = len(acc) * (n + 1) * 2 ** (len(kept) + len(opened))
        if size > 2**cap:
            raise CapExceededError(f"the spin-basis oracle of {lattice.name!r} needs {size} amplitudes "
                                   f"at site {site}, over the cap of 2^{cap} = {2**cap}")
        acc = np.tensordot(acc, tensor, axes=([1 + open_links.index(legs[i]) for i in closing], [1 + i for i in closing]))
        # (done, kept legs, k, opened legs) -> (done * k, kept legs, opened legs)
        acc = np.moveaxis(acc, 1 + len(kept), 1).reshape((-1,) + (2,) * (len(kept) + len(opened)))
        open_links = kept + opened
    psi = acc.reshape([lattice.site_twice_spin(site) + 1 for site in range(lattice.n_sites)])
    norm_sq = float(np.vdot(psi, psi))
    if norm_sq < PROB_FLOOR:
        raise ImpossibleOutcomeError("the site symmetrizers annihilate the bond product")
    return psi / math.sqrt(norm_sq), norm_sq


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def _post_selected(circ: Circuit, encoding: SiteEncoding) -> dict:
    """Simulate from the empty register, post-select every marker and keep the data qubits: a route's result.

    `ir.simulate_post_selected` post-selects each ancilla right after its
    last gate: an ancilla bank, from its first gate to its markers, is
    folded into one block and never becomes a state axis, so the register
    of every circuit route here holds only its data qubits.  The
    Monte-Carlo draw, which needs the full register before post-selection,
    runs `circuit` again for its Born probabilities (`ir.born_probabilities`).
    """
    prob, state = simulate_post_selected(circ, range(encoding.n_data_qubits))
    return {"state": state, "success_probability": prob, "circuit": circ, "encoding": encoding}


def run_probabilistic(lattice: Lattice) -> dict:
    """Full-ancilla circuit, post-selected on every marker."""
    encoding = assign_qubits(lattice)
    return _post_selected(probabilistic_method_circuit(encoding), encoding)


def run_mitigated_islands(lattice: Lattice) -> dict:
    encoding = assign_qubits(lattice)
    return _post_selected(mitigated_islands_circuit(encoding), encoding)


def run_mitigated_retry(lattice: Lattice, seed: int) -> dict:
    """Measure-reset-retry on the A sublattice's islands, then tests on the B sublattice.

    Realized as branch resampling: each A site's island is retried
    independently (reset and bond re-preparation on failure), which
    reproduces the geometric(p) round statistics; the B sites' symmetrizers
    act on the islands' product, post-selected, as it folds each finished site.
    The rounds come from `random.Random(seed)`; no report prints them.
    """
    rng = random.Random(seed)
    encoding = assign_qubits(lattice)
    colors = lattice.sublattice()
    groups = island_qubit_groups(encoding)
    rounds_used: dict[int, int] = {}
    factors = []
    covered: set[int] = set()
    for site, group in sorted(groups.items()):
        state = island_local_state(encoding, site, group)
        p_succ = state.tracked_norm_sq
        n_rounds = 1
        while rng.random() >= p_succ:
            # failed round: the island is reset and its bonds re-prepared
            n_rounds += 1
        rounds_used[site] = n_rounds
        factors.append((tuple(sorted(group)), state.amps))
        covered |= set(group)
    for qubit, spin in encoding.boundary_qubits:
        if qubit not in covered:
            factors.append(((qubit,), spin_ket(spin)))
            covered.add(qubit)
    b_sites = [encoding.site_qubits[site] for site in range(lattice.n_sites) if colors[site] == "B"]
    full = Statevector.product_of_factors(encoding.n_data_qubits, factors,
                                          [(symmetrizer(len(qs)), qs) for qs in b_sites], encoding.site_qubits)
    return {
        "state": full,
        "success_probability": full.tracked_norm_sq,
        "rounds_used": rounds_used,
        "encoding": encoding,
    }


def run_lcu(lattice: Lattice) -> dict:
    """The bond layer, then prepare/select/unprepare symmetrization at every site, post-selected.

    Every site's circuit uses one shared bank of (largest 2S)! ancillas,
    n_data_qubits and up, |0...0> before and after each site; a site of 2S
    qubits uses the first (2S)! of them.  Each site's circuit is one
    declared block, which simulate_post_selected folds into one operator on
    the site's qubits (8x8 for spin 3/2), so the bank never becomes a state
    axis and the register holds only the data qubits.
    """
    encoding = assign_qubits(lattice)
    n_data = encoding.n_data_qubits
    bank = tuple(range(n_data, n_data + math.factorial(max(map(len, encoding.site_qubits)))))
    circ = pre_vbs_circuit(encoding, len(bank))
    for qs in encoding.site_qubits:
        site = lcu_symmetrization_circuit(len(qs), qs, bank[: math.factorial(len(qs))])
        circ.blocks += [(len(circ.gates) + start, len(circ.gates) + stop) for start, stop in site.blocks]
        circ.extend(site.gates)
    return _post_selected(circ, encoding)


def run_mps(lattice: Lattice) -> dict:
    if lattice.boundary not in (BOUNDARY_OPEN, BOUNDARY_RING) or lattice.uniform_twice_spin() != 2:
        raise ConfigError("the MPS route requires a 1D chain of spin 2S=2")
    circ = mps_circuit(lattice.n_sites, lattice.boundary, lattice.boundary_spins)
    return _post_selected(circ, assign_qubits(lattice))


# Every route under one call shape, route(lattice, seed).  Each entry looks
# its runner up in this module when called, so a runner rebound here (for
# example by a tracer) is the one that runs.
ROUTES = {
    "probabilistic": lambda lattice, seed: run_probabilistic(lattice),
    "mitigated_islands": lambda lattice, seed: run_mitigated_islands(lattice),
    "mitigated_retry": lambda lattice, seed: run_mitigated_retry(lattice, seed),
    "lcu": lambda lattice, seed: run_lcu(lattice),
    "mps": lambda lattice, seed: run_mps(lattice),
}

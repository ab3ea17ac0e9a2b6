"""End-to-end preparation runners for every route, plus the spin-basis
oracle they are all checked against: every circuit route must reproduce its
output state up to global phase (`statesim.Statevector.spin_fidelity`).
"""
from __future__ import annotations

import math

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
from .ir import Circuit, post_select, simulate_circuit
from .lattice import BOUNDARY_OPEN, BOUNDARY_RING, SPIN_DOWN, Lattice, SiteEncoding, assign_qubits
from .mpsprep import mps_circuit
from .schmidt import SINGLET
from .spinops import SpinValue, symmetric_subspace_isometry, symmetrizer
from .statesim import PROB_FLOOR, Statevector, max_qubits
from .symmetrize import lcu_symmetrization_circuit

def oracle_vbs_state(lattice: Lattice, s: SpinValue) -> tuple[np.ndarray, float]:
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
    """Simulate from the empty register, post-select every marker and keep the data qubits: a route's result."""
    simulated, markers = simulate_circuit(circ)
    prob, state = post_select(simulated, markers, range(encoding.n_data_qubits))
    return {
        "state": state,
        "success_probability": prob,
        "circuit": circ,
        "encoding": encoding,
        # the state before post-selection, for Monte-Carlo sampling
        "simulated": simulated,
        "markers": markers,
    }


def run_probabilistic(lattice: Lattice, s: SpinValue) -> dict:
    """Full-ancilla circuit, post-selected on every marker."""
    encoding = assign_qubits(lattice, "hadamard_all")
    return _post_selected(probabilistic_method_circuit(lattice, encoding, s), encoding)


def run_mitigated_islands(lattice: Lattice, s: SpinValue) -> dict:
    encoding = assign_qubits(lattice, "islands_plus_sublattice")
    return _post_selected(mitigated_islands_circuit(lattice, encoding, s), encoding)


def run_mitigated_retry(lattice: Lattice, s: SpinValue, seed: int) -> dict:
    """Measure-reset-retry on the B sublattice, then tests on the A sublattice.

    Realized as branch resampling: each island is retried independently
    (reset and bond re-preparation on failure), which reproduces the
    geometric(p) round statistics; the A-sublattice step is post-selected.
    """
    rng = np.random.default_rng(seed)
    encoding = assign_qubits(lattice, "islands_plus_sublattice")
    colors = lattice.sublattice()
    groups = island_qubit_groups(lattice, encoding)
    rounds_used: dict[int, int] = {}
    factors = []
    covered: set[int] = set()
    for site, group in sorted(groups.items()):
        state = island_local_state(lattice, encoding, site, group)
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
    full = Statevector.product_of_factors(encoding.n_data_qubits, factors)
    b_sites = [encoding.site_qubits[site] for site in range(lattice.n_sites) if colors[site] == "B"]
    prob = full.apply_nonunitary_sequence([(symmetrizer(len(qs)), qs) for qs in b_sites])
    return {
        "state": full,
        "success_probability": prob,
        "rounds_used": rounds_used,
        "encoding": encoding,
    }


def run_lcu(lattice: Lattice, s: SpinValue, variant: str = "sparse") -> dict:
    """The bond layer, then prepare/select/unprepare symmetrization at every site, post-selected.

    Every site's circuit uses one shared ancilla bank, which
    simulate_circuit projects before the next site reuses it, so the
    register holds the data qubits plus one bank.
    """
    n_anc = math.factorial(s.twice_s) if variant == "sparse" else max(1, (math.factorial(s.twice_s) - 1).bit_length())
    encoding = assign_qubits(lattice, "hadamard_all")
    n_data = encoding.n_data_qubits
    ancillas = tuple(range(n_data, n_data + n_anc))
    circ = Circuit(n_data + n_anc, metadata={"builder": f"lcu_{variant}"})
    circ.extend(pre_vbs_circuit(lattice, encoding).gates)
    for site in range(lattice.n_sites):
        qs = encoding.site_qubits[site]
        circ.extend(lcu_symmetrization_circuit(len(qs), qs, ancillas, variant).gates)
    return _post_selected(circ, encoding)


def run_mps(lattice: Lattice, s: SpinValue) -> dict:
    if s.twice_s != 2:
        raise ConfigError("the MPS route requires spin 2S=2")
    if lattice.boundary not in (BOUNDARY_OPEN, BOUNDARY_RING):
        raise ConfigError("the MPS route requires a 1D chain")
    circ = mps_circuit(lattice.n_sites, lattice.boundary, lattice.boundary_spins)
    return _post_selected(circ, assign_qubits(lattice, "mps"))


# Every route under one call shape, route(lattice, s, seed).  Each entry looks
# its runner up in this module when called, so a runner rebound here (for
# example by a tracer) is the one that runs.
ROUTES = {
    "probabilistic": lambda lattice, s, seed: run_probabilistic(lattice, s),
    "mitigated_islands": lambda lattice, s, seed: run_mitigated_islands(lattice, s),
    "mitigated_retry": lambda lattice, s, seed: run_mitigated_retry(lattice, s, seed),
    "lcu": lambda lattice, s, seed: run_lcu(lattice, s, "sparse"),
    "mps": lambda lattice, s, seed: run_mps(lattice, s),
}

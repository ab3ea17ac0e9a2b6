"""End-to-end preparation runners for every route, plus the direct-operator
oracle they are all checked against.

The oracle builds the bond product state by explicit tensor products and
applies the symmetrizer matrix at every site, tracking the norm; every
circuit route must reproduce its output state up to global phase.
"""
from __future__ import annotations

import math

import numpy as np

from .builders import (
    island_local_state,
    island_qubit_groups,
    mitigated_islands_circuit,
    pre_vbs_state,
    probabilistic_method_circuit,
    spin_ket,
)
from .errors import ConfigError
from .ir import Circuit, post_select, simulate_circuit
from .lattice import BOUNDARY_OPEN, BOUNDARY_RING, Lattice, SiteEncoding, assign_qubits
from .mpsprep import mps_circuit
from .spinops import SpinValue, symmetrizer
from .statesim import Statevector
from .symmetrize import lcu_symmetrization_circuit


def oracle_vbs_state(lattice: Lattice, s: SpinValue, encoding: SiteEncoding | None = None) -> tuple[Statevector, float]:
    """Direct symmetrizer application; returns (state, squared norm).

    Works for mixed-spin lattices too: each site gets the symmetrizer of
    its own qubit count.  The state is renormalized once, after the last
    site.
    """
    if encoding is None:
        encoding = assign_qubits(lattice, "hadamard_all")
    state = pre_vbs_state(encoding, encoding.n_data_qubits)
    sites = [encoding.site_qubits[site] for site in range(lattice.n_sites)]
    norm_sq = state.apply_nonunitary_sequence([(symmetrizer(len(qs)), qs) for qs in sites])
    return state, norm_sq


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def _post_selected(circ: Circuit, encoding: SiteEncoding, initial: Statevector | None = None) -> dict:
    """Simulate, post-select every marker and keep the data qubits: a route's result."""
    simulated, markers = simulate_circuit(circ, initial)
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
    """Prepare/select/unprepare symmetrization at every site, post-selected.

    Every site's circuit uses one shared ancilla bank, which
    simulate_circuit projects before the next site reuses it, so the
    register holds the data qubits plus one bank.
    """
    n_anc = math.factorial(s.twice_s) if variant == "sparse" else max(1, (math.factorial(s.twice_s) - 1).bit_length())
    encoding = assign_qubits(lattice, "hadamard_all")
    n_data = encoding.n_data_qubits
    ancillas = tuple(range(n_data, n_data + n_anc))
    circ = Circuit(n_data + n_anc, metadata={"builder": f"lcu_{variant}"})
    for site in range(lattice.n_sites):
        qs = encoding.site_qubits[site]
        circ.extend(lcu_symmetrization_circuit(len(qs), qs, ancillas, variant).gates)
    return _post_selected(circ, encoding, initial=pre_vbs_state(encoding, circ.n_qubits))


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

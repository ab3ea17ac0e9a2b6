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
    island_bond_state,
    island_qubit_groups,
    mitigated_islands_circuit,
    pre_vbs_data_state,
    probabilistic_method_circuit,
)
from .errors import ConfigError
from .ir import Circuit, post_select, simulate_circuit
from .lattice import Lattice, SiteEncoding, assign_qubits
from .mpsprep import prepare_via_mps
from .spinops import SpinValue, symmetrizer
from .statesim import Statevector
from .symmetrize import lcu_symmetrization_circuit


def oracle_vbs_state(lattice: Lattice, s: SpinValue, encoding: SiteEncoding | None = None) -> tuple[Statevector, float]:
    """Direct symmetrizer application; returns (state, squared norm).

    Works for mixed-spin lattices too: each site gets the symmetrizer of
    its own qubit count.
    """
    if encoding is None:
        encoding = assign_qubits(lattice, "hadamard_all")
    state = pre_vbs_data_state(encoding)
    norm_sq = 1.0
    for site in range(lattice.n_sites):
        qs = encoding.site_qubits[site]
        norm_sq *= state.apply_nonunitary(symmetrizer(len(qs)), qs)
    return state, norm_sq


def data_state(full: Statevector, encoding: SiteEncoding) -> Statevector:
    """Drop ancilla qubits that are computationally definite after post-selection."""
    n_data = encoding.n_data_qubits
    t = full.amps.reshape([2] * full.n_qubits)
    for q in range(full.n_qubits - 1, n_data - 1, -1):
        sub0 = np.take(t, 0, axis=q)
        sub1 = np.take(t, 1, axis=q)
        n0, n1 = np.linalg.norm(sub0), np.linalg.norm(sub1)
        if min(n0, n1) > 1e-8 * max(n0, n1):
            raise ValueError(f"qubit {q} is still in superposition; post-select first")
        t = sub0 if n0 >= n1 else sub1
    return Statevector(n_data, t.reshape(-1).copy(), full.tracked_norm_sq)


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def run_probabilistic(lattice: Lattice, s: SpinValue) -> dict:
    """Full-ancilla circuit, post-selected on every marker."""
    encoding = assign_qubits(lattice, "hadamard_all")
    circ = probabilistic_method_circuit(lattice, encoding, s)
    simulated, markers = simulate_circuit(circ)
    prob, state = post_select(simulated, markers)
    return {
        "state": data_state(state, encoding),
        "success_probability": prob,
        "circuit": circ,
        "encoding": encoding,
        # the state before post-selection, for Monte-Carlo sampling
        "simulated": simulated,
        "markers": markers,
    }


def _bond_product_data_state(lattice: Lattice) -> tuple[Statevector, SiteEncoding]:
    encoding = assign_qubits(lattice, "hadamard_all")
    return pre_vbs_data_state(encoding), encoding


def run_probabilistic_sequential(lattice: Lattice, s: SpinValue) -> dict:
    """Ancilla-frugal path: one reused test ancilla, projected site by site.

    Locality of the tests makes the joint statistics identical to the
    all-ancillas-at-once circuit while peaking at 2NS + 1 qubits.
    """
    from .builders import controlled
    from .spinops import exp_minus_i_pi_symmetrizer

    base, encoding = _bond_product_data_state(lattice)
    n_data = encoding.n_data_qubits
    anc = n_data
    work = Statevector.product_of_factors(
        n_data + 1,
        [(tuple(range(n_data)), base.amps), ((anc,), np.array([1, 0], dtype=complex))],
    )
    prob = 1.0
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    for site in range(lattice.n_sites):
        qs = encoding.site_qubits[site]
        ctrl = controlled(exp_minus_i_pi_symmetrizer(len(qs)).matrix)
        work.apply_unitary(h, (anc,))
        work.apply_unitary(ctrl, (anc, *qs))
        work.apply_unitary(h, (anc,))
        prob *= work.project_qubit(anc, 1)
        work.apply_unitary(x, (anc,))  # reset for reuse
    t = work.amps.reshape(2**n_data, 2)[:, 0]
    return {"state": Statevector(n_data, t.copy()), "success_probability": prob, "encoding": encoding}


def run_mitigated_islands(lattice: Lattice, s: SpinValue) -> dict:
    encoding = assign_qubits(lattice, "islands_plus_sublattice")
    circ = mitigated_islands_circuit(lattice, encoding, s)
    state, markers = simulate_circuit(circ)
    prob, state = post_select(state, markers)
    return {
        "state": data_state(state, encoding),
        "success_probability": prob,
        "circuit": circ,
        "encoding": encoding,
    }


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
        fresh = island_bond_state(lattice, encoding, site, group)
        qs_local = tuple(sorted(group).index(q) for q in encoding.site_qubits[site])
        sym = symmetrizer(len(qs_local))
        n_rounds = 0
        while True:
            n_rounds += 1
            state = fresh.copy()
            p_succ = _symmetrize_probability(state, sym, qs_local)
            if rng.random() < p_succ:
                state.apply_nonunitary(sym, qs_local)
                break
            # failed round: the island is reset and its bonds re-prepared
        rounds_used[site] = n_rounds
        factors.append((tuple(sorted(group)), state.amps))
        covered |= set(group)
    for qubit, spin in encoding.boundary_qubits:
        if qubit not in covered:
            vec = np.array([0, 1], dtype=complex) if spin == "down" else np.array([1, 0], dtype=complex)
            factors.append(((qubit,), vec))
            covered.add(qubit)
    full = Statevector.product_of_factors(encoding.n_data_qubits, factors)
    prob = 1.0
    for site in range(lattice.n_sites):
        if colors[site] == "B":
            qs = encoding.site_qubits[site]
            prob *= full.apply_nonunitary(symmetrizer(len(qs)), qs)
    return {
        "state": full,
        "success_probability": prob,
        "rounds_used": rounds_used,
        "encoding": encoding,
    }


def _symmetrize_probability(state: Statevector, sym, qubits) -> float:
    work = state.copy()
    return work.apply_nonunitary(sym, qubits)


def run_lcu(lattice: Lattice, s: SpinValue, variant: str = "sparse") -> dict:
    """Prepare/select/unprepare symmetrization at every site, post-selected.

    Ancillas are reused between sites, so the register holds the data
    qubits plus one ancilla bank.
    """
    n_anc = math.factorial(s.twice_s) if variant == "sparse" else max(1, (math.factorial(s.twice_s) - 1).bit_length())
    base, encoding = _bond_product_data_state(lattice)
    n_data = encoding.n_data_qubits
    total = n_data + n_anc
    work = Statevector.product_of_factors(
        total,
        [(tuple(range(n_data)), base.amps)]
        + [((n_data + i,), np.array([1, 0], dtype=complex)) for i in range(n_anc)],
    )
    ancillas = tuple(range(n_data, total))
    prob = 1.0
    for site in range(lattice.n_sites):
        qs = encoding.site_qubits[site]
        circ = lcu_symmetrization_circuit(len(qs), qs, ancillas, variant)
        state, markers = simulate_circuit(Circuit(total, gates=circ.gates), initial=work)
        for m in markers:
            prob *= state.project_qubit(m.qubit, m.expect)
        work = state
    t = work.amps.reshape(2**n_data, -1)[:, 0]
    return {"state": Statevector(n_data, t.copy()), "success_probability": prob, "encoding": encoding}


def run_mps(lattice: Lattice, s: SpinValue, embed_scale: float | None = None) -> dict:
    if s.twice_s != 2:
        raise ConfigError("the MPS route requires spin 2S=2")
    if lattice.boundary == "open_chain":
        state, prob = prepare_via_mps(lattice.n_sites, "open", lattice.boundary_spins, embed_scale)
    elif lattice.boundary == "ring":
        state, prob = prepare_via_mps(lattice.n_sites, "ring", embed_scale=embed_scale)
    else:
        raise ConfigError("the MPS route requires a 1D chain")
    return {"state": state, "success_probability": prob, "encoding": assign_qubits(lattice, "mps")}


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

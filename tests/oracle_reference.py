"""Qubit-basis references for the spin-basis oracle and its checks.

`reference_oracle` builds the VBS state the direct way, independent of the
tensor network in `methods.oracle_vbs_state`: the bond product by explicit
tensor products, then the symmetrizer matrix at every site.  `embed` and
`compress` move a state between the spin basis (one axis of 2S+1 values per
site) and the qubit basis (a run of 2S qubits per site, in site order).
`overlap`, `fidelity` and `expectation` compare and measure qubit-basis
states.
"""
from __future__ import annotations

import numpy as np

from vbsprep import statesim
from vbsprep.builders import spin_ket
from vbsprep.lattice import SPIN_UP, Lattice, SiteEncoding, assign_qubits
from vbsprep.schmidt import SINGLET
from vbsprep.spinops import symmetric_subspace_isometry, symmetrizer
from vbsprep.statesim import Statevector


def bond_product(encoding: SiteEncoding, n_qubits: int) -> Statevector:
    """Link singlets and boundary kets on the first n_qubits qubits; every other qubit is |0>."""
    factors = [((qa, qb), SINGLET) for qa, qb in encoding.link_qubits]
    factors += [((qubit,), spin_ket(spin)) for qubit, spin in encoding.boundary_qubits]
    covered = {q for qs, _ in factors for q in qs}
    factors += [((q,), spin_ket(SPIN_UP)) for q in range(n_qubits) if q not in covered]
    return Statevector.product_of_factors(n_qubits, factors)


def reference_oracle(lattice: Lattice) -> tuple[Statevector, float]:
    """The symmetrizer of every site applied to the bond product: (normalized state, squared norm)."""
    encoding = assign_qubits(lattice, "hadamard_all")
    state = bond_product(encoding, encoding.n_data_qubits)
    sites = [encoding.site_qubits[site] for site in range(lattice.n_sites)]
    norm_sq = state.apply_nonunitary_sequence([(symmetrizer(len(qs)), qs) for qs in sites])
    return state, norm_sq


def embed(psi: np.ndarray) -> Statevector:
    """V psi: a spin-basis state in the qubit basis, V the symmetric-subspace isometry of every site."""
    full = psi
    for d in psi.shape:  # each step takes the leading site axis and appends that site's qubits
        full = np.tensordot(full, symmetric_subspace_isometry(d - 1), axes=([0], [1]))
    return Statevector.from_amplitudes(full.reshape(-1))


def compress(state: Statevector, shape) -> np.ndarray:
    """V^dagger r: a qubit-basis state on sites of 2S+1 = shape[site] values, in the spin basis."""
    full = state.amps
    for d in shape:  # each step takes the leading site's qubits and appends its spin axis
        full = np.tensordot(full.reshape(2 ** (d - 1), -1), symmetric_subspace_isometry(d - 1), axes=([0], [0]))
    return full.reshape(shape)


def overlap(a: Statevector, b: Statevector) -> complex:
    """<a|b> on the renormalized states."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    return complex(np.vdot(a.amps, b.amps) / (np.linalg.norm(a.amps) * np.linalg.norm(b.amps)))


def fidelity(a: Statevector, b: Statevector) -> float:
    return abs(overlap(a, b)) ** 2


def expectation(state: Statevector, op, qubits) -> float:
    """<op> on the listed qubits of the renormalized state, summed tile by tile through the kernel."""
    mat = statesim._as_matrix(op)
    if np.max(np.abs(mat - mat.conj().T)) > statesim.UNITARY_TOL:
        raise ValueError("expectation requires a Hermitian operator")
    qubits = tuple(qubits)
    tiles = statesim._tiles(state._tensor(mat, qubits), mat, qubits)
    return float(sum(np.vdot(tile, out) for tile, out in tiles).real) / statesim._norm_sq(state.amps)

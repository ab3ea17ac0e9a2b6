"""Uniform one-hot (W) state preparation, qubit-permutation circuits, and the
linear-combination-of-unitaries route to local symmetrization: n! ancillas in
a one-hot prepare oracle, one per qubit permutation of the site."""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .ir import DECLARED_COSTS, Circuit, CNot, Measure, Opaque, cnot_count, u_ry, u_x

_CSWAP = np.eye(8, dtype=complex)
_CSWAP[[5, 6]] = _CSWAP[[6, 5]]
_CSWAP.setflags(write=False)  # shared by every cswap block


def _cswap(control: int, a: int, b: int) -> Opaque:
    return Opaque("cswap", (control, a, b), _CSWAP, **DECLARED_COSTS["cswap"])


def block_angle(p: float) -> float:
    """Rotation parameter of the two-qubit amplitude-splitting block."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    return math.asin(math.cos(math.atan(math.sqrt((1 - p) / p))))


def w_block(p: float, control: int, target: int, circ: Circuit) -> Circuit:
    """Move weight 1-p of a |1> on `control` onto `target` (2 CNOTs)."""
    theta = block_angle(p)
    circ.add(u_ry(theta, target))
    circ.add(CNot(control, target))
    circ.add(u_ry(-theta, target))
    circ.add(CNot(target, control))
    return circ


def w_state_circuit(m: int, qubits: tuple[int, ...], circ: Circuit) -> Circuit:
    """Staircase of blocks B(1/m)...B(1/2) preparing the uniform one-hot state on `qubits`, added to `circ`."""
    if m < 2:
        raise ValueError("need at least 2 qubits")
    if len(qubits) != m:
        raise ValueError("qubit list length must equal m")
    circ.add(u_x(qubits[0]))
    for i in range(m - 1):
        w_block(1.0 / (m - i), qubits[i], qubits[i + 1], circ)
    return circ


def inverse_gates(gates) -> list:
    """Inverse of a CNOT/U1Q gate list (sufficient for the prepare oracles)."""
    out = []
    for g in reversed(list(gates)):
        if isinstance(g, CNot):
            out.append(g)
        else:
            out.append(type(g)(-g.theta, -g.lam, -g.phi, g.qubit))
    return out


# ---------------------------------------------------------------------------
# permutation circuits
# ---------------------------------------------------------------------------

def permutation_swap_sequences(n_halves: int) -> list[list[tuple[int, int]]]:
    """SWAP sequences realizing all n! qubit permutations.

    Built inductively: every permutation of n-1 qubits extends either
    unchanged or followed by one SWAP of qubit n-1 with an earlier qubit,
    which is the cheapest sequence for each permutation.
    """
    if not 1 <= n_halves <= 4:
        raise ConfigError("permutation circuits capped at 4 qubits")
    seqs: list[list[tuple[int, int]]] = [[]]
    for k in range(2, n_halves + 1):
        new: list[list[tuple[int, int]]] = []
        for base in seqs:
            new.append(list(base))
            for j in range(k - 1):
                new.append(list(base) + [(j, k - 1)])
        seqs = new
    return seqs


def permutation_operator(perm: tuple[int, ...]) -> np.ndarray:
    """Matrix sending qubit i's state to qubit perm[i], MSB-first indexing."""
    n = len(perm)
    return np.moveaxis(np.eye(2**n).reshape((2,) * 2 * n), range(n), perm).reshape(2**n, 2**n)


def swap_sequence_matrix(seq, n_halves: int) -> np.ndarray:
    mat = np.eye(2**n_halves)
    for i, j in seq:
        perm = list(range(n_halves))
        perm[i], perm[j] = perm[j], perm[i]
        mat = permutation_operator(tuple(perm)) @ mat
    return mat


# ---------------------------------------------------------------------------
# LCU symmetrization
# ---------------------------------------------------------------------------

def lcu_symmetrization_circuit(n_halves: int, site_qubits: tuple[int, ...], ancillas: tuple[int, ...]) -> Circuit:
    """Prepare / select / unprepare circuit applying the symmetrizer on
    post-selection of every ancilla in |0>.

    n! ancillas, uniform one-hot prepare oracle, each permutation's SWAPs
    controlled by its own ancilla.  The whole circuit, ending in the
    ancillas' markers, is its one block.
    """
    if len(site_qubits) != n_halves:
        raise ConfigError("site qubit count must equal n_halves")
    seqs = permutation_swap_sequences(n_halves)
    if len(ancillas) != len(seqs):
        raise ConfigError(f"{n_halves} site qubits need {len(seqs)} ancillas, got {len(ancillas)}")
    circ = Circuit(max((*site_qubits, *ancillas)) + 1)
    prep_gates = list(w_state_circuit(len(seqs), ancillas, circ).gates)
    for anc, seq in zip(ancillas, seqs):
        for i, j in seq:
            circ.add(_cswap(anc, site_qubits[i], site_qubits[j]))
    circ.extend(inverse_gates(prep_gates))
    first = circ.next_creg()
    for i, anc in enumerate(ancillas):
        circ.add(Measure(anc, expect=0, creg=first + i))
    circ.blocks.append((0, len(circ.gates)))
    return circ


def lcu_spin2_resources() -> dict:
    """CSWAP and CNOT totals counted on the sparse 4-qubit symmetrizer circuit; prepare = unprepare."""
    circ = lcu_symmetrization_circuit(4, (0, 1, 2, 3), tuple(range(4, 28)))
    cswaps = [g for g in circ.gates if isinstance(g, Opaque)]
    total = cnot_count(circ, "all_to_all")
    select = sum(g.declared_count("all_to_all") for g in cswaps)
    return {
        "cswaps": len(cswaps),
        "prepare_cnots": (total - select) // 2,
        "select_cnots": select,
        "total_cnots": total,
    }

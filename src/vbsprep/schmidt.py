"""State preparation from the Schmidt decomposition, and the island states.

A 2n-qubit target is split in half; the Schmidt coefficient vector is
prepared on one subregister (recursively), copied across with a CNOT
ladder, and the two singular-vector unitaries are applied in parallel as
opaque blocks.  Odd registers use an asymmetric split with the single
(or smaller) subregister first.  Circuits prepare the target up to global
phase.  A block carries the CNOT costs `ir.DECLARED_COSTS` lists under its
label (the island blocks), or else the generic worst case for its size.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedError
from .ir import DECLARED_COSTS, Circuit, CNot, Opaque, U1Q, u_ry
from .spinops import symmetrizer
from .statesim import Statevector

DEGENERATE_TOL = 1e-12


def u1q_params(mat: np.ndarray) -> tuple[float, float, float, complex]:
    """(theta, phi, lam, global_phase) with mat = phase * U(theta, phi, lam)."""
    a, b = mat[0, 0], mat[1, 0]
    theta = 2 * math.atan2(abs(b), abs(a))
    if abs(a) > 1e-12:
        alpha = np.angle(a)
        phi = float(np.angle(b) - alpha) if abs(b) > 1e-12 else 0.0
        lam = float(np.angle(-mat[0, 1]) - alpha) if abs(mat[0, 1]) > 1e-12 else float(
            np.angle(mat[1, 1]) - alpha - phi
        )
    else:
        alpha = float(np.angle(b))
        phi = 0.0
        lam = float(np.angle(-mat[0, 1]) - alpha)
    return theta, phi, lam, np.exp(1j * alpha)


def u1q_gate(mat: np.ndarray, qubit: int) -> U1Q:
    theta, phi, lam, _ = u1q_params(np.asarray(mat, dtype=complex))
    return U1Q(theta, phi, lam, qubit)


def _block(label: str, qubits: tuple[int, ...], mat: np.ndarray) -> Opaque:
    costs = DECLARED_COSTS.get(label, DECLARED_COSTS.get(f"schmidt_{len(qubits)}q", {}))
    return Opaque(label, qubits, mat, **costs)


def schmidt_prepare(target, *, qubits: tuple[int, ...] | None = None, label: str = "schmidt") -> Circuit:
    """Circuit preparing `target` from |0...0> via its Schmidt decomposition.

    The singular-vector blocks are labelled `label` + "_u" / "_v", and those
    of the coefficient preparation `label` + "_b_u" / "_b_v".
    """
    target = np.asarray(target, dtype=complex).reshape(-1)
    nq = target.size.bit_length() - 1
    if 2**nq != target.size:
        raise ValueError("target length must be a power of 2")
    if not 2 <= nq <= 6:
        raise UnsupportedError(f"schmidt_prepare supports 2..6 qubits, got {nq}")
    norm = np.linalg.norm(target)
    if norm < DEGENERATE_TOL:
        raise ValueError("degenerate target (norm 0)")
    target = target / norm
    qubits = tuple(range(nq)) if qubits is None else qubits
    circ = Circuit(max(qubits) + 1)
    _schmidt_into(circ, target, qubits, label)
    return circ


def _schmidt_into(circ, target, qubits, label):
    nq = len(qubits)
    left = nq // 2
    right = nq - left
    mat = target.reshape(2**left, 2**right)
    u, s, vh = np.linalg.svd(mat)
    # target = sum_k s_k u_k (x) w_k with w_k the (unconjugated) rows of vh
    v_full = vh.T

    lq, rq = qubits[:left], qubits[left:]

    # Coefficient vector on the left subregister.
    if left == 1:
        circ.add(u_ry(2 * math.atan2(s[1] if len(s) > 1 else 0.0, s[0]), lq[0]))
    else:
        coeffs = np.zeros(2**left)
        coeffs[: len(s)] = s
        _schmidt_into(circ, coeffs.astype(complex), lq, label + "_b")

    # Copy the Schmidt index across; skip for rank-1 (pure product) targets.
    rank = int(np.sum(s > DEGENERATE_TOL))
    if rank > 1:
        for i in range(left):
            circ.add(CNot(lq[i], rq[i]))

    # Left singular vectors; u1q_gate(u) takes |0> to u[:, 0] at any rank.
    if left == 1:
        circ.add(u1q_gate(u, lq[0]))
    else:
        circ.add(_block(label + "_u", lq, u))

    # Right singular vectors; pad the Schmidt index into the larger register.
    if right == left:
        v_gate = v_full
    else:
        # |k, 0..0> on the right register is column k * 2^(right-left).
        pad = 2 ** (right - left)
        perm = [-1] * 2**right
        for k in range(2**left):
            perm[k * pad] = k
        spare = iter(range(2**left, 2**right))
        perm = [p if p >= 0 else next(spare) for p in perm]
        v_gate = v_full[:, perm]
    if right == 1:
        circ.add(u1q_gate(v_gate, rq[0]))
    else:
        circ.add(_block(label + "_v", rq, v_gate))


# ---------------------------------------------------------------------------
# island states
# ---------------------------------------------------------------------------

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)

# Qubits of island_state's symmetrized site, by 2S: one qubit of each bond,
# the middle pair for 2S=2 and the odd-index triple for 2S=3.
ISLAND_SITE_SLOTS = {2: (1, 2), 3: (1, 3, 5)}


def island_state(twice_s: int) -> Statevector:
    """Normalized 2*twice_s-qubit island: 2S valence bonds, symmetrized center site.

    Bonds sit on qubit pairs (0,1), (2,3), ...; the symmetrized site holds
    one qubit of each bond, at ISLAND_SITE_SLOTS.
    """
    if twice_s not in ISLAND_SITE_SLOTS:
        raise UnsupportedError("island states implemented for 2S in {2, 3}")
    factors = [((2 * k, 2 * k + 1), SINGLET) for k in range(twice_s)]
    return Statevector.product_of_factors(2 * twice_s, factors, [(symmetrizer(twice_s), ISLAND_SITE_SLOTS[twice_s])])


def island_prep_circuit(twice_s: int) -> Circuit:
    """Deterministic island initialization via the Schmidt split down the middle; its blocks
    (island_2s2_u/_v, island_2s3_b_v/_u/_v) carry their declared costs."""
    return schmidt_prepare(island_state(twice_s).amps, label=f"island_2s{twice_s}")

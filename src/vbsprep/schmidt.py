"""State preparation from the Schmidt decomposition, and the island states.

A 2n-qubit target is split in half; the Schmidt coefficient vector is
prepared on one subregister (recursively), copied across with a CNOT
ladder, and the two singular-vector unitaries are applied in parallel as
opaque blocks.  Odd registers use an asymmetric split with the single
(or smaller) subregister first.  Circuits prepare the target up to global
phase.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import UnsupportedError
from .ir import DECLARED_COSTS, Circuit, CNot, Opaque, U1Q, u_ry
from .spinops import SpinValue, symmetrizer
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


def prepare_single_qubit(target: np.ndarray, qubit: int) -> U1Q:
    """Gate taking |0> to `target` up to global phase."""
    t0, t1 = target
    theta = 2 * math.atan2(abs(t1), abs(t0))
    phi = float(np.angle(t1) - np.angle(t0)) if abs(t1) > 1e-12 and abs(t0) > 1e-12 else (
        float(np.angle(t1)) if abs(t0) <= 1e-12 else 0.0
    )
    return U1Q(theta, phi, 0.0, qubit)


def _block(label: str, qubits: tuple[int, ...], mat: np.ndarray, costs: dict | None) -> Opaque:
    if costs is None:
        costs = DECLARED_COSTS.get(f"schmidt_{len(qubits)}q", {})
    return Opaque(label, qubits, mat, **costs)


def schmidt_prepare(
    target,
    *,
    qubits: tuple[int, ...] | None = None,
    u_cost: dict | None = None,
    v_cost: dict | None = None,
    b_inner_cost: dict | None = None,
    label: str = "schmidt",
) -> Circuit:
    """Circuit preparing `target` from |0...0> via its Schmidt decomposition.

    u_cost / v_cost / b_inner_cost override the declared CNOT costs (Opaque
    cost keyword arguments) of the singular-vector blocks; b_inner_cost
    applies to the blocks of the coefficient preparation.  Blocks without
    an override carry the generic worst-case cost.
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
    if qubits is None:
        qubits = tuple(range(nq))
    circ = Circuit(max(qubits) + 1)
    _schmidt_into(circ, target, qubits, u_cost, v_cost, b_inner_cost, label)
    return circ


def _schmidt_into(circ, target, qubits, u_cost, v_cost, b_inner_cost, label):
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
        _schmidt_into(circ, coeffs.astype(complex), lq, b_inner_cost, b_inner_cost, None, label + "_b")

    # Copy the Schmidt index across; skip for rank-1 (pure product) targets.
    rank = int(np.sum(s > DEGENERATE_TOL))
    if rank > 1:
        for i in range(left):
            circ.add(CNot(lq[i], rq[i]))

    # Left singular vectors.
    if left == 1:
        if rank > 1:
            circ.add(u1q_gate(u, lq[0]))
        else:
            circ.add(prepare_single_qubit(u[:, 0], lq[0]))
    else:
        circ.add(_block(label + "_u", lq, u, u_cost))

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
        if rank > 1:
            circ.add(u1q_gate(v_gate, rq[0]))
        else:
            circ.add(prepare_single_qubit(v_full[:, 0], rq[0]))
    else:
        circ.add(_block(label + "_v", rq, v_gate, v_cost))


# ---------------------------------------------------------------------------
# island states
# ---------------------------------------------------------------------------

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)

# Qubits of island_state's symmetrized site, by 2S: one qubit of each bond,
# the middle pair for 2S=2 and the odd-index triple for 2S=3.
ISLAND_SITE_SLOTS = {2: (1, 2), 3: (1, 3, 5)}


def island_state(s: SpinValue) -> Statevector:
    """Normalized 4S-qubit island: 2S valence bonds, symmetrized center site.

    Bonds sit on qubit pairs (0,1), (2,3), ...; the symmetrized site holds
    one qubit of each bond, at ISLAND_SITE_SLOTS.
    """
    if s.twice_s not in ISLAND_SITE_SLOTS:
        raise UnsupportedError("island states implemented for 2S in {2, 3}")
    n = 2 * s.twice_s
    factors = [((2 * k, 2 * k + 1), SINGLET) for k in range(s.twice_s)]
    return Statevector.product_of_factors(n, factors, [(symmetrizer(s.twice_s), ISLAND_SITE_SLOTS[s.twice_s])])


def island_prep_circuit(s: SpinValue) -> Circuit:
    """Deterministic island initialization via the Schmidt split down the middle."""
    target = island_state(s)
    block = f"island_2s{s.twice_s}"
    return schmidt_prepare(
        target.amps,
        u_cost=DECLARED_COSTS[block + "_u"],
        v_cost=DECLARED_COSTS[block + "_v"],
        b_inner_cost=DECLARED_COSTS.get(block + "_b"),
        label=block,
    )

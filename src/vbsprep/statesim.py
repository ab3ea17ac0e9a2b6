"""Exact statevector simulation with post-selection bookkeeping.

Qubit significance convention (used everywhere in this package):
qubit 0 is the MOST significant bit of the basis index, so the basis
state |b0 b1 ... b_{n-1}> has index sum_q b_q * 2^(n-1-q).  Equivalently,
`amps.reshape([2]*n)` puts qubit q on axis q, and a gate applied to an
ordered qubit list treats the first listed qubit as the most significant
index of its matrix.  All matrices in `spinops` are transcribed in this
convention.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import CapExceededError, ConfigError, ImpossibleOutcomeError, NonUnitaryError
from .spinops import DenseOperator

DEFAULT_MAX_QUBITS = 26
UNITARY_TOL = 1e-10
PROB_FLOOR = 1e-14


def max_qubits() -> int:
    """Simulator size cap; override with the VBS_MAX_QUBITS env var."""
    raw = os.environ.get("VBS_MAX_QUBITS")
    if not raw:
        return DEFAULT_MAX_QUBITS
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"VBS_MAX_QUBITS must be an integer, got {raw!r}") from None


def _checked_width(n_qubits: int) -> int:
    cap = max_qubits()
    if not 1 <= n_qubits <= cap:
        raise CapExceededError(f"n_qubits={n_qubits} outside [1, {cap}]")
    return n_qubits


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DenseOperator):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _contract(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """`mat` applied to the listed axes of a [2, 2, ...] tensor; axes[0] is its MSB.

    One tensordot over the target axes, then the new axes moved back in
    place and made contiguous: the result is a fresh array.
    """
    k = len(axes)
    out = np.tensordot(mat.reshape([2] * (2 * k)), tensor, axes=(range(k, 2 * k), axes))
    return np.ascontiguousarray(np.moveaxis(out, range(k), axes))


class Statevector:
    """Complex amplitude vector with a running retained-branch probability.

    `tracked_norm_sq` is the product of the probabilities of every retained
    projection branch since initialization; it equals 1 until the first
    projection or non-unitary application.
    """

    __slots__ = ("n_qubits", "amps", "tracked_norm_sq")

    def __init__(self, n_qubits: int, amps: np.ndarray, tracked_norm_sq: float = 1.0):
        self.n_qubits = _checked_width(n_qubits)
        self.amps = amps
        self.tracked_norm_sq = tracked_norm_sq

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        amps = np.zeros(2 ** _checked_width(n_qubits), dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> "Statevector":
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        n = amps.size.bit_length() - 1
        if 2**n != amps.size:
            raise ValueError("amplitude count must be a power of 2")
        return cls(n, amps.copy())

    @classmethod
    def product_of_factors(cls, n_qubits: int, factors) -> "Statevector":
        """Tensor product of local vectors given as (qubit_tuple, vector) pairs.

        The qubit tuples must partition range(n_qubits).
        """
        _checked_width(n_qubits)  # before the product is allocated
        axes: list[int] = []
        full = np.array(1.0 + 0j)
        for qubits, vec in factors:
            vec = np.asarray(vec, dtype=complex)
            k = len(qubits)
            if vec.size != 2**k:
                raise ValueError("factor dimension mismatch")
            full = np.multiply.outer(full, vec.reshape([2] * k))
            axes.extend(qubits)
        if sorted(axes) != list(range(n_qubits)):
            raise ValueError("factors must partition the qubit set")
        full = full.reshape([2] * n_qubits)
        order = [axes.index(q) for q in range(n_qubits)]
        return cls(n_qubits, np.transpose(full, order).reshape(-1).copy())

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amps.copy(), self.tracked_norm_sq)

    # -- operator application ---------------------------------------------

    def _applied(self, mat: np.ndarray, qubits) -> np.ndarray:
        # The other methods call this, not applied_amplitudes, so that a
        # per-method timer (perfbench/tracer.py) counts the kernel as theirs.
        n, k = self.n_qubits, len(qubits)
        if mat.shape != (2**k, 2**k):
            raise ValueError(f"operator dim {mat.shape} does not match {k} qubits")
        if len(set(qubits)) != k or any(not 0 <= q < n for q in qubits):
            raise ValueError(f"bad qubit list {qubits} for {n}-qubit state")
        return _contract(self.amps.reshape([2] * n), mat, qubits).reshape(-1)

    def applied_amplitudes(self, op, qubits) -> np.ndarray:
        """Amplitudes of op|psi> (not renormalized) as a fresh array; the state is unchanged."""
        return self._applied(_as_matrix(op), tuple(qubits))

    def apply_unitary(self, op, qubits, *, allow_nonunitary: bool = False) -> "Statevector":
        """Apply `op` on the listed qubits; qubits[0] is the op's MSB."""
        mat = _as_matrix(op)
        if not allow_nonunitary:
            eye = np.eye(mat.shape[0])
            if np.max(np.abs(mat.conj().T @ mat - eye)) > UNITARY_TOL:
                raise NonUnitaryError("operator is not unitary; pass allow_nonunitary=True to override")
        self.amps = self._applied(mat, tuple(qubits))
        return self

    def apply_nonunitary(self, op, qubits) -> float:
        """Apply a general operator, renormalize, return the norm-squared ratio."""
        before = float(np.vdot(self.amps, self.amps).real)
        self.amps = self._applied(_as_matrix(op), tuple(qubits))
        after = float(np.vdot(self.amps, self.amps).real)
        if after < PROB_FLOOR:
            raise ImpossibleOutcomeError("operator annihilated the state")
        ratio = after / before
        self.amps /= np.sqrt(after)
        self.tracked_norm_sq *= ratio
        return ratio

    # -- measurement -------------------------------------------------------

    def outcome_probability(self, qubit: int, outcome: int) -> float:
        t = self.amps.reshape([2] * self.n_qubits)
        sl = [slice(None)] * self.n_qubits
        sl[qubit] = outcome
        branch = t[tuple(sl)]
        total = float(np.vdot(self.amps, self.amps).real)
        return float(np.vdot(branch, branch).real) / total

    def project_qubit(self, qubit: int, outcome: int, renormalize: bool = True) -> float:
        """Project a qubit onto an outcome in place; returns the branch probability."""
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        prob = self.outcome_probability(qubit, outcome)
        if prob < PROB_FLOOR:
            raise ImpossibleOutcomeError(f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}")
        t = self.amps.reshape([2] * self.n_qubits)
        sl = [slice(None)] * self.n_qubits
        sl[qubit] = 1 - outcome
        t[tuple(sl)] = 0.0
        self.amps = t.reshape(-1)
        if renormalize:
            self.amps /= np.linalg.norm(self.amps)
            self.tracked_norm_sq *= prob
        return prob

    def reset_qubit(self, qubit: int, rng: np.random.Generator) -> int:
        """Measure a qubit (sampling the outcome) and return it to |0>."""
        p1 = self.outcome_probability(qubit, 1)
        outcome = 1 if rng.random() < p1 else 0
        self.project_qubit(qubit, outcome)
        if outcome == 1:
            self.apply_unitary(np.array([[0, 1], [1, 0]], dtype=complex), (qubit,))
        return outcome

    # -- scalar queries ------------------------------------------------------

    def overlap(self, other: "Statevector") -> complex:
        """<self|other> on the renormalized states."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        a = self.amps / np.linalg.norm(self.amps)
        b = other.amps / np.linalg.norm(other.amps)
        return complex(np.vdot(a, b))

    def fidelity(self, other: "Statevector") -> float:
        return abs(self.overlap(other)) ** 2

    def expectation(self, op, qubits) -> float:
        mat = _as_matrix(op)
        if np.max(np.abs(mat - mat.conj().T)) > UNITARY_TOL:
            raise ValueError("expectation requires a Hermitian operator")
        norm_sq = float(np.vdot(self.amps, self.amps).real)
        return float(np.vdot(self.amps, self._applied(mat, tuple(qubits))).real) / norm_sq

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amps) ** 2
        return p / p.sum()

    def sample(self, shots: int, seed: int) -> dict[str, int]:
        """Deterministic Born-rule sampling; returns bitstring -> count."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        outcomes = rng.choice(self.amps.size, size=shots, p=self.probabilities())
        values, counts = np.unique(outcomes, return_counts=True)
        n = self.n_qubits
        return {format(v, f"0{n}b"): int(c) for v, c in zip(values, counts)}

    def dump_binary(self) -> bytes:
        """Little-endian interleaved re/im float64 amplitude dump (debug aid)."""
        inter = np.empty(2 * self.amps.size)
        inter[0::2] = self.amps.real
        inter[1::2] = self.amps.imag
        return inter.astype("<f8").tobytes()

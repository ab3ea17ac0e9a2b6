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

import math
import os

import numpy as np

from .errors import CapExceededError, ConfigError, ImpossibleOutcomeError, NonUnitaryError
from .spinops import DenseOperator

DEFAULT_MAX_QUBITS = 26
UNITARY_TOL = 1e-10
PROB_FLOOR = 1e-14
# A contiguous target run is applied through an (L, 2^k, R) view of the
# state.  A run whose view rows hold at most this many amplitudes (2^k * R)
# folds into one gemm against M (x) I_R; longer rows use batched matmul,
# which loops over L small gemms and is slow when R is small.  The fold's
# flops grow with the row length: at 22 qubits it takes 27-29 ms at 32
# against matmul's 60-115 ms and 34-38 ms at 64 against 56-69 ms, but
# 54-61 ms at 128 against 45-50 ms and about 100 ms at 256 against 41-48 ms
# (BENCH_8.json, 2-core VM).  In oracle-verify, 41 of the 139 kernel calls
# on 18 qubits and more land in the fold's region; with batched matmul in
# their place its pass_s median rose from 3.49 s to 4.21 s (10 of 10 pairs).
FOLD_MAX_COLS = 64
# `_row_weights` keeps the innermost axes of the float view (5 qubits and
# re/im: 64 floats) in its einsum's output and sums them after, so that the
# einsum's inner loop never reduces only a few floats.  Reducing every
# unlisted axis in the einsum took 15 ms for qubit 21 of a 22-qubit state and
# 128 ms for the qubits (0, 1, 20, 21), against 7-10 ms for leading qubits;
# with the innermost axes kept, each takes 9-11 ms (2-core VM).
INNER_AXES = 6


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


def _norm_sq(amps: np.ndarray) -> float:
    return float(np.vdot(amps, amps).real)


def _scale(amps: np.ndarray, factor: float) -> None:
    """amps *= factor in place, through the float view: half the time of a complex division."""
    floats = amps.view(np.float64)
    floats *= factor


def _row_weights(amps: np.ndarray, n: int, qubits) -> np.ndarray:
    """w[k]: the sum of |amplitude|^2 where the listed qubits read k (qubits[0] its MSB).

    One einsum over the float view of `amps`; no state-sized temporary.
    """
    floats = amps.view(np.float64).reshape([2] * (n + 1))  # the last axis: re, im
    every = list(range(n + 1))
    out = sorted(set(qubits) | set(every[max(0, n + 1 - INNER_AXES):]))
    w = np.einsum(floats, every, floats, every, out)
    w = w.sum(axis=tuple(i for i, a in enumerate(out) if a not in qubits))
    ascending = sorted(qubits)
    return w.transpose([ascending.index(q) for q in qubits]).reshape(-1)


def _contract(tensor: np.ndarray, mat: np.ndarray, axes, new=()) -> np.ndarray:
    """`mat` applied to the listed axes of a [2, 2, ...] tensor; axes[0] is its MSB.

    The result is a fresh C-contiguous array; axes are numbered in it.  The
    axes in `new` are not in `tensor` yet: they join it in |0>, so only the
    columns of `mat` where they read 0 act.

    Two paths.  When the targets form a contiguous run of axes (in any
    order) and no axis joins, the tensor is viewed as (L, 2^k, R), L and R
    the sizes of the axes before and after the run.  The matrix, its rows
    and columns permuted into the run's order, acts on the middle axis
    without moving the tensor: by batched `matmul` when 2^k * R exceeds
    FOLD_MAX_COLS, else by one gemm against M (x) I_R.  Every other call
    takes one tensordot over the target axes, which copies the tensor into
    target-major order first; the output axes are then moved back in place
    and made contiguous.
    """
    k = len(axes)
    if k and not new and max(axes) - min(axes) == k - 1:
        lo = min(axes)
        return _contract_run(tensor, mat, [a - lo for a in axes], lo)
    mat = mat.reshape([2] * (2 * k))
    if new:
        mat = mat[(slice(None),) * k + tuple(0 if a in new else slice(None) for a in axes)]
        # an axis of `tensor` sits below its result position by the new axes before it
        axes_in = [a - sum(b < a for b in new) for a in axes if a not in new]
    else:
        axes_in = axes
    out = np.tensordot(mat, tensor, axes=(range(k, mat.ndim), axes_in))
    return np.ascontiguousarray(np.moveaxis(out, range(k), axes))


def _contract_run(tensor: np.ndarray, mat: np.ndarray, run, lo: int) -> np.ndarray:
    """`mat` on axes lo..lo+k-1 of `tensor`, where run[i] is the place of its i-th qubit."""
    k = len(run)
    if run != list(range(k)):
        order = [run.index(j) for j in range(k)]
        mat = mat.reshape([2] * (2 * k)).transpose(order + [k + i for i in order]).reshape(2**k, 2**k)
    dim = 2**k
    left = int(np.prod(tensor.shape[:lo]))
    right = tensor.size // (left * dim)
    if dim * right > FOLD_MAX_COLS:
        out = np.matmul(mat, tensor.reshape(left, dim, right))
    else:
        # M (x) I_R by broadcasting: np.kron costs about 30 us a call
        fold = (mat[:, None, :, None] * np.eye(right)[None, :, None, :]).reshape(dim * right, dim * right)
        out = tensor.reshape(left, dim * right) @ fold.T
    return out.reshape(tensor.shape)


class Statevector:
    """Complex amplitude vector with a running retained-branch probability.

    `tracked_norm_sq` is the product of the probabilities of every retained
    projection branch since initialization; it equals 1 until the first
    projection or non-unitary application.
    """

    __slots__ = ("n_qubits", "amps", "tracked_norm_sq")

    def __init__(self, n_qubits: int, amps: np.ndarray, tracked_norm_sq: float = 1.0):
        # a state of no qubit is one amplitude: what post_select returns when it keeps none
        self.n_qubits = _checked_width(n_qubits) if n_qubits else 0
        if amps.size != 2**n_qubits:
            raise ValueError(f"{amps.size} amplitudes do not make a {n_qubits}-qubit state of {2**n_qubits}")
        # the float views below need contiguous complex amplitudes; these are not copied
        self.amps = np.ascontiguousarray(amps, dtype=complex)
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

        The qubit tuples must partition range(n_qubits).  The factors are
        multiplied in the order of their first qubit, so that factors listed
        out of order cost no state-sized transpose.
        """
        _checked_width(n_qubits)  # before the product is allocated
        axes: list[int] = []
        full = np.array(1.0 + 0j)
        for qubits, vec in sorted(factors, key=lambda f: tuple(f[0])):
            vec = np.asarray(vec, dtype=complex)
            k = len(qubits)
            if vec.size != 2**k:
                raise ValueError("factor dimension mismatch")
            full = np.multiply.outer(full, vec.reshape([2] * k))
            axes.extend(qubits)
        if sorted(axes) != list(range(n_qubits)):
            raise ValueError("factors must partition the qubit set")
        if axes != list(range(n_qubits)):
            order = [axes.index(q) for q in range(n_qubits)]
            full = np.ascontiguousarray(np.transpose(full.reshape([2] * n_qubits), order))
        return cls(n_qubits, full.reshape(-1))

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amps.copy(), self.tracked_norm_sq)

    # -- operator application ---------------------------------------------

    def _applied(self, mat: np.ndarray, qubits, new=()) -> np.ndarray:
        # The other methods call this, not applied_amplitudes, so that a
        # per-method timer (perfbench/tracer.py) counts the kernel as theirs.
        n, k = self.n_qubits + len(new), len(qubits)
        if mat.shape != (2**k, 2**k):
            raise ValueError(f"operator dim {mat.shape} does not match {k} qubits")
        if len(set(qubits)) != k or any(not 0 <= q < n for q in qubits) or not set(new) <= set(qubits):
            raise ValueError(f"bad qubit list {qubits} (new {new}) for {n}-qubit state")
        return _contract(self.amps.reshape([2] * self.n_qubits), mat, qubits, new).reshape(-1)

    def applied_amplitudes(self, op, qubits) -> np.ndarray:
        """Amplitudes of op|psi> (not renormalized) as a fresh array; the state is unchanged."""
        return self._applied(_as_matrix(op), tuple(qubits))

    def apply_unitary(self, op, qubits, *, new_qubits=()) -> "Statevector":
        """Apply `op` on the listed qubits; qubits[0] is the op's MSB.

        The qubits in `new_qubits`, a subset of `qubits`, join the state in
        |0> as `op` acts, so the state grows by their count; every qubit is
        numbered in the grown state.
        """
        mat = _as_matrix(op)
        if np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) > UNITARY_TOL:
            raise NonUnitaryError("operator is not unitary; use apply_nonunitary for a general operator")
        new = tuple(new_qubits)
        n = _checked_width(self.n_qubits + len(new)) if new else self.n_qubits
        self.amps = self._applied(mat, tuple(qubits), new)
        self.n_qubits = n
        return self

    def apply_nonunitary(self, op, qubits) -> float:
        """Apply a general operator, renormalize, return the norm-squared ratio."""
        return self.apply_nonunitary_sequence([(op, qubits)])

    def apply_nonunitary_sequence(self, ops) -> float:
        """Apply general operators in turn, renormalize once, return the norm-squared ratio.

        `ops` lists (op, qubits) pairs.  The ratio ||O_m ... O_1 psi||^2 / ||psi||^2
        is the product of the ratios that renormalizing after every operator
        would give.  Below PROB_FLOOR (a zero state included) it raises
        ImpossibleOutcomeError.
        """
        before = _norm_sq(self.amps)
        fresh = False  # holding the input array instead would keep one more state alive
        for op, qubits in ops:
            self.amps = self._applied(_as_matrix(op), tuple(qubits))
            fresh = True
        after = _norm_sq(self.amps)
        ratio = after / before if before else 0.0
        if ratio < PROB_FLOOR:
            raise ImpossibleOutcomeError("operator annihilated the state")
        if not fresh:  # no operator: keep the caller's array intact
            self.amps = self.amps.copy()
        _scale(self.amps, 1 / math.sqrt(after))
        self.tracked_norm_sq *= ratio
        return ratio

    # -- measurement -------------------------------------------------------

    def outcome_probability(self, qubit: int, outcome: int) -> float:
        weights = _row_weights(self.amps, self.n_qubits, (qubit,))
        return float(weights[outcome]) / float(weights.sum())

    def project_qubit(self, qubit: int, outcome: int) -> float:
        """Project a qubit onto an outcome in place; returns the branch probability.

        One read of both branch norms; then the other branch is zeroed and
        the state scaled by a real factor.
        """
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        if not 0 <= qubit < self.n_qubits:
            raise ValueError(f"qubit {qubit} is not in the {self.n_qubits}-qubit state")
        weights = _row_weights(self.amps, self.n_qubits, (qubit,))
        kept, total = float(weights[outcome]), float(weights.sum())
        prob = kept / total if total else 0.0
        if prob < PROB_FLOOR:
            raise ImpossibleOutcomeError(f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}")
        self.amps.reshape(2**qubit, 2, -1)[:, 1 - outcome] = 0.0
        _scale(self.amps, 1 / math.sqrt(kept))
        self.tracked_norm_sq *= prob
        return prob

    # -- scalar queries ------------------------------------------------------

    def overlap(self, other: "Statevector") -> complex:
        """<self|other> on the renormalized states."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amps, other.amps) / (np.linalg.norm(self.amps) * np.linalg.norm(other.amps)))

    def fidelity(self, other: "Statevector") -> float:
        return abs(self.overlap(other)) ** 2

    def expectation(self, op, qubits) -> float:
        mat = _as_matrix(op)
        if np.max(np.abs(mat - mat.conj().T)) > UNITARY_TOL:
            raise ValueError("expectation requires a Hermitian operator")
        norm_sq = float(np.vdot(self.amps, self.amps).real)
        return float(np.vdot(self.amps, self._applied(mat, tuple(qubits))).real) / norm_sq

    def row_weights(self, op, qubits) -> np.ndarray:
        """Squared norms of the rows of op|psi>; the state is unchanged.

        Row k holds the amplitudes where the listed qubits read k (qubits[0]
        its MSB).  op|psi> lives only inside this call.
        """
        qubits = tuple(qubits)
        return _row_weights(self._applied(_as_matrix(op), qubits), self.n_qubits, qubits)

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amps) ** 2
        return p / p.sum()

    def sample_indices(self, shots: int, seed: int) -> np.ndarray:
        """Basis indices of `shots` deterministic Born-rule draws."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng = np.random.default_rng(seed)
        return rng.choice(self.amps.size, size=shots, p=self.probabilities())

    def sample(self, shots: int, seed: int) -> dict[str, int]:
        """Deterministic Born-rule sampling; returns bitstring -> count."""
        values, counts = np.unique(self.sample_indices(shots, seed), return_counts=True)
        n = self.n_qubits
        return {format(v, f"0{n}b"): int(c) for v, c in zip(values, counts)}

    def dump_binary(self) -> bytes:
        """Little-endian interleaved re/im float64 amplitude dump (debug aid)."""
        inter = np.empty(2 * self.amps.size)
        inter[0::2] = self.amps.real
        inter[1::2] = self.amps.imag
        return inter.astype("<f8").tobytes()

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

import itertools
import math
import os

import numpy as np

from .errors import CapExceededError, ConfigError, ImpossibleOutcomeError, NonUnitaryError
from .spinops import DenseOperator, symmetric_subspace_isometry

DEFAULT_MAX_QUBITS = 26
UNITARY_TOL = 1e-10
PROB_FLOOR = 1e-14
# A contiguous target run is applied through an (L, 2^k, R) view of the
# state, tile by tile.  A run whose view rows hold at most this many
# amplitudes (2^k * R) folds into one gemm per tile against M (x) I_R;
# longer rows use batched matmul, which loops over the tile's rows in small
# gemms and is slow when R is small.  The fold's flops grow with the row
# length.  Inside tiles of TILE amplitudes on 22 qubits, median of 9 calls
# (k = 2, 3, 4): the fold takes 26-41 ms at 16 against matmul's 46-193 ms,
# 29-54 ms at 32 against 92-158 ms and 43-75 ms at 64 against 69-90 ms,
# but 72-118 ms at 128 against 54-72 ms and 120-200 ms at 256 against
# 30-48 ms (BENCH_10.json, 2-core VM).
FOLD_MAX_COLS = 64
# Operators act on the state in place, one tile of at most this many
# amplitudes (512 KB, so that a tile and its scratch stay in cache) at a
# time.  The result of a tile goes to tile-sized scratch, then back into the
# tile (a state of one tile takes the scratch instead), so no operator holds a
# second state-sized array.
TILE = 1 << 15
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


def _tile_slices(shape, whole):
    """Index tuples of the tiles that cover an array of `shape`, each at most TILE entries.

    The dims in `whole` are never split.  The others are split from the
    outermost in: an inner dim is split only when it alone overflows a tile.
    Every size is a power of two, so every tile has the same shape.
    """
    if math.prod(shape) <= TILE:
        return [()]  # one tile: the whole array
    budget = max(1, TILE // math.prod(shape[d] for d in whole))
    steps = list(shape)
    for d in reversed(range(len(shape))):
        if d not in whole:
            steps[d] = min(shape[d], budget)
            budget //= steps[d]
    starts = itertools.product(*(range(0, size, step) for size, step in zip(shape, steps)))
    return (tuple(slice(start, start + step) for start, step in zip(first, steps)) for first in starts)


def _tiles(tensor: np.ndarray, mat: np.ndarray, axes):
    """`mat` on the listed axes of `tensor` (axes[0] its MSB), one tile at a time.

    The listed axes have size 2, the others any power of two.  Yields
    (tile, out) per tile: `tile` is a view into `tensor`, `out` the operator
    applied to it, in the tile's layout, in tile-sized scratch that the next
    tile may reuse (`tensor` is not written; `out` may be a strided view).
    `_contract` writes `out` back, so no operator holds a second
    state-sized array.

    A contiguous run of axes (in any order; an empty list is a run) takes
    `_contract_run`; scattered axes take `_contract_scattered`.
    """
    k = len(axes)
    if not k or max(axes) - min(axes) == k - 1:
        lo = min(axes, default=0)
        return _contract_run(tensor, mat, [a - lo for a in axes], lo)
    return _contract_scattered(tensor, mat, axes)


def _fold(mat: np.ndarray, right: int) -> np.ndarray:
    """(M (x) I_R)^T by broadcasting (np.kron costs about 30 us a call): M on the middle axis of (L, cols, R)."""
    rows, cols = mat.shape
    return (mat[:, None, :, None] * np.eye(right)[None, :, None, :]).reshape(rows * right, cols * right).T


def _contract_run(tensor: np.ndarray, mat: np.ndarray, run, lo: int):
    """Tiles of `mat` on axes lo..lo+k-1 of `tensor`, where run[i] is the place of its i-th qubit.

    The tensor is viewed as (L, 2^k, R), L and R the sizes of the axes
    before and after the run, and never moved: the matrix, its rows and
    columns permuted into the run's order, acts on the middle axis of each
    (l, 2^k, r) tile, by batched `matmul` when 2^k * R exceeds
    FOLD_MAX_COLS, else by one gemm against M (x) I_R.
    """
    k = len(run)
    if run != list(range(k)):
        order = [run.index(j) for j in range(k)]
        mat = mat.reshape([2] * (2 * k)).transpose(order + [k + i for i in order]).reshape(2**k, 2**k)
    dim = 2**k
    left = math.prod(tensor.shape[:lo])
    right = tensor.size // (left * dim)
    view = tensor.reshape(left, dim, right)
    # the fold needs whole rows in every tile: a tile smaller than a row splits R
    fold = _fold(mat, right) if dim * right <= min(FOLD_MAX_COLS, TILE) else None
    out = None
    for index in _tile_slices(view.shape, (1,)):
        tile = view[index]
        if out is None:
            out = np.empty(tile.shape, dtype=complex)
        if fold is None:
            np.matmul(mat, tile, out=out)
        else:
            np.matmul(tile.reshape(len(tile), -1), fold, out=out.reshape(len(tile), -1))
        yield tile, out


def _contract_scattered(tensor: np.ndarray, mat: np.ndarray, axes):
    """Tiles of `mat` on scattered axes of `tensor`: one tensordot per tile.

    Each run of untouched axes is one dim of the tile grid, so a tile holds
    every target axis whole and as many untouched amplitudes as fit, however
    far apart the targets lie.
    """
    k = len(axes)
    shape: list[int] = []  # the tensor with every run of untouched axes merged
    dims = {}  # target axis -> its dim in `shape`
    for a, size in enumerate(tensor.shape):
        if a in axes:
            dims[a] = len(shape)
            shape.append(size)
        elif a and a - 1 not in axes:
            shape[-1] *= size
        else:
            shape.append(size)
    targets = [dims[a] for a in axes]
    view = tensor.reshape(shape)
    mat = mat.reshape([2] * (2 * k))
    for index in _tile_slices(view.shape, targets):
        tile = view[index]
        out = np.tensordot(mat, tile, axes=(range(k, 2 * k), targets))
        yield tile, np.moveaxis(out, range(k), targets)


def _contract(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """`mat` applied to the listed axes of `tensor` (see `_tiles`); axes[0] is its MSB.

    Returns the result in `tensor`'s shape.  A tensor of several tiles is
    written in place, tile by tile: beyond `tensor` this takes one tile's
    scratch.  Of one tile, the kernel's output is already a fresh array: it
    is returned (made contiguous), `tensor` unchanged, with no copy back.
    """
    for tile, out in _tiles(tensor, mat, axes):
        if tile.size == tensor.size:
            return np.ascontiguousarray(out).reshape(tensor.shape)
        np.copyto(tile, out)
    return tensor


def _joined(tensor: np.ndarray, mat: np.ndarray, axes, new) -> np.ndarray:
    """`mat` on the listed axes, as the axes in `new` join `tensor` in |0>; a fresh array.

    Axes are numbered in the result.  Only the columns of `mat` where the
    new axes read 0 act.  One tensordot over the target axes, which copies
    the tensor into target-major order first; the output axes are then
    moved back in place and made contiguous.
    """
    k = len(axes)
    mat = mat.reshape([2] * (2 * k))[(slice(None),) * k + tuple(0 if a in new else slice(None) for a in axes)]
    # an axis of `tensor` sits below its result position by the new axes before it
    axes_in = [a - sum(b < a for b in new) for a in axes if a not in new]
    out = np.tensordot(mat, tensor, axes=(range(k, mat.ndim), axes_in))
    return np.ascontiguousarray(np.moveaxis(out, range(k), axes))


class Statevector:
    """Complex amplitude vector with a running retained-branch probability.

    `tracked_norm_sq` is the product of the probabilities of every retained
    projection branch since initialization; it equals 1 until the first
    projection or non-unitary application.

    A Statevector owns the array it is given: operators, projections and
    renormalizations write into it in place, and only a qubit joining the
    state, or an operator on a state of one tile, replaces it.  Pass a copy
    to keep the original.
    """

    __slots__ = ("n_qubits", "amps", "tracked_norm_sq")

    def __init__(self, n_qubits: int, amps: np.ndarray, tracked_norm_sq: float = 1.0):
        # a state of no qubit is one amplitude: what post_select returns when it keeps none
        self.n_qubits = _checked_width(n_qubits) if n_qubits else 0
        if amps.size != 2**n_qubits:
            raise ValueError(f"{amps.size} amplitudes do not make a {n_qubits}-qubit state of {2**n_qubits}")
        # the float views and in-place kernels need contiguous complex amplitudes; these are not copied
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

    def _tensor(self, mat: np.ndarray, qubits, new=()) -> np.ndarray:
        """The amplitudes as a [2, 2, ...] tensor, once `mat` and `qubits` are checked."""
        n, k = self.n_qubits + len(new), len(qubits)
        if mat.shape != (2**k, 2**k):
            raise ValueError(f"operator dim {mat.shape} does not match {k} qubits")
        if len(set(qubits)) != k or any(not 0 <= q < n for q in qubits) or not set(new) <= set(qubits):
            raise ValueError(f"bad qubit list {qubits} (new {new}) for {n}-qubit state")
        return self.amps.reshape([2] * self.n_qubits)

    def _apply(self, mat: np.ndarray, qubits) -> None:
        """`mat` on the listed qubits through `_contract`: in place, or rebound to its one-tile result."""
        tensor = self._tensor(mat, qubits)
        out = _contract(tensor, mat, qubits)
        if out is not tensor:
            self.amps = out.reshape(-1)

    # The public methods below do not call each other, so that a per-method
    # timer (perfbench/tracer.py) counts the kernel as theirs.

    def applied_amplitudes(self, op, qubits) -> np.ndarray:
        """Amplitudes of op|psi> (not renormalized) as a fresh array; the state is unchanged."""
        mat, qubits = _as_matrix(op), tuple(qubits)
        return _contract(self._tensor(mat, qubits).copy(), mat, qubits).reshape(-1)

    def apply_unitary(self, op, qubits, *, new_qubits=()) -> "Statevector":
        """Apply `op` on the listed qubits; qubits[0] is the op's MSB.

        In place, except on a state of one tile (see `_contract`).  The
        qubits in `new_qubits`, a subset of `qubits`, join the state in |0>
        as `op` acts, so the state grows by their count into a fresh array;
        every qubit is numbered in the grown state.
        """
        mat = _as_matrix(op)
        if np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) > UNITARY_TOL:
            raise NonUnitaryError("operator is not unitary; use apply_nonunitary for a general operator")
        qubits, new = tuple(qubits), tuple(new_qubits)
        if not new:
            self._apply(mat, qubits)
            return self
        n = _checked_width(self.n_qubits + len(new))
        self.amps = _joined(self._tensor(mat, qubits, new), mat, qubits, new).reshape(-1)
        self.n_qubits = n
        return self

    def apply_nonunitary(self, op, qubits) -> float:
        """Apply a general operator, renormalize, return the norm-squared ratio."""
        return self.apply_nonunitary_sequence([(op, qubits)])

    def apply_nonunitary_sequence(self, ops) -> float:
        """Apply general operators in turn (as `apply_unitary` does), renormalize once, return the norm-squared ratio.

        `ops` lists (op, qubits) pairs.  The ratio ||O_m ... O_1 psi||^2 / ||psi||^2
        is the product of the ratios that renormalizing after every operator
        would give.  Below PROB_FLOOR (a zero state included) it raises
        ImpossibleOutcomeError.
        """
        before = _norm_sq(self.amps)
        for op, qubits in ops:
            self._apply(_as_matrix(op), tuple(qubits))
        after = _norm_sq(self.amps)
        ratio = after / before if before else 0.0
        if ratio < PROB_FLOOR:
            raise ImpossibleOutcomeError("operator annihilated the state")
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
        return self._project((qubit,), (outcome,))

    def project_qubits(self, qubits, outcomes) -> float:
        """Project the listed qubits onto their outcomes in place, as one; returns the joint probability.

        Equals projecting them one by one in the order listed: the outcome
        whose probability, given the ones listed before it, is below
        PROB_FLOOR first raises the ImpossibleOutcomeError that
        `project_qubit` would, with `index` its place in the list.  One read
        of the weights of every branch, then the other branches are zeroed
        and the state scaled once.
        """
        return self._project(tuple(qubits), tuple(outcomes))

    def _project(self, qubits, outcomes) -> float:
        if len(qubits) != len(outcomes):
            raise ValueError("one outcome per qubit")
        for qubit, outcome in zip(qubits, outcomes):
            if outcome not in (0, 1):
                raise ValueError("outcome must be 0 or 1")
            if not 0 <= qubit < self.n_qubits:
                raise ValueError(f"qubit {qubit} is not in the {self.n_qubits}-qubit state")
        distinct = list(dict.fromkeys(qubits))
        weights = _row_weights(self.amps, self.n_qubits, distinct).reshape([2] * len(distinct))
        fixed: dict[int, int] = {}
        kept = total = float(weights.sum())
        for index, (qubit, outcome) in enumerate(zip(qubits, outcomes)):
            given = kept
            if fixed.setdefault(qubit, outcome) != outcome:
                kept = 0.0  # the qubit is already fixed on the other outcome
            else:
                kept = float(weights[tuple(fixed.get(q, slice(None)) for q in distinct)].sum())
            prob = kept / given if given else 0.0
            if prob < PROB_FLOOR:
                exc = ImpossibleOutcomeError(f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}")
                exc.index = index
                raise exc
        for qubit, outcome in fixed.items():
            self.amps.reshape(2**qubit, 2, -1)[:, 1 - outcome] = 0.0
        _scale(self.amps, 1 / math.sqrt(kept))
        prob = kept / total
        self.tracked_norm_sq *= prob
        return prob

    # -- scalar queries ------------------------------------------------------

    def spin_fidelity(self, psi: np.ndarray) -> float:
        """|<psi|V^dagger r>|^2 / (||psi||^2 ||r||^2) of this state r against a spin-basis state psi.

        psi has an axis of 2S+1 values per site, whose 2S qubits run in r in
        site order; V is `spinops.symmetric_subspace_isometry` per site, and
        ||r||^2 spans the register, so weight outside V's range lowers F.
        r is cut into rows of the trailing sites that fit a tile.  V^dagger has
        one nonzero per qubit index, so a row's index picks one row of psi and
        one Dicke coefficient; only the trailing sites are compressed, a batch
        of rows at a time, in tile-sized scratch.  Batch sums use math.fsum.
        """
        widths = [d - 1 for d in psi.shape]
        if sum(widths) != self.n_qubits:
            raise ValueError(f"spin-basis state of shape {psi.shape} does not fit a {self.n_qubits}-qubit state")
        lead, tail = len(widths), 0  # the trailing sites start at `lead` and hold `tail` qubits
        while lead and tail + widths[lead - 1] <= TILE.bit_length() - 1:
            lead -= 1
            tail += widths[lead]
        index, coef = np.zeros(1, dtype=np.intp), np.ones(1)  # psi's row and coefficient of each leading index
        for w in widths[:lead]:
            iso = symmetric_subspace_isometry(w)
            index = (index[:, None] * (w + 1) + iso.argmax(axis=1)).reshape(-1)
            coef = (coef[:, None] * iso.max(axis=1)).reshape(-1)
        rows = self.amps.reshape(len(index), -1)
        psi_rows = psi.reshape(math.prod(psi.shape[:lead]), -1)
        batch = min(len(rows), max(1, TILE >> tail))
        # V^dagger is real, so it acts on the float view (re and im alike), one gemm per trailing site
        # into alternate halves of one buffer: per site, V^dagger, its fold or None, its output (rows, 2S+1, floats after)
        steps, size, right = [], batch * 2 ** (tail + 1), 2 ** (tail + 1)
        buffer = np.empty(2 * size)
        for i, w in enumerate(widths[lead:]):
            right >>= w
            size = size // 2**w * (w + 1)
            shrink = symmetric_subspace_isometry(w).T
            out = buffer[i % 2 * len(buffer) // 2 :][:size].reshape(-1, w + 1, right)
            steps.append((shrink, _fold(shrink, right) if 2**w * right <= FOLD_MAX_COLS else None, out))
        parts, norms = [], []
        for start in range(0, len(rows), batch):
            tile = rows[start : start + batch]
            norms.append(_norm_sq(tile))
            out = tile.view(np.float64)
            for shrink, fold, scratch in steps:
                if fold is None:
                    out = np.matmul(shrink, out.reshape(len(scratch), -1, scratch.shape[2]), out=scratch)
                else:
                    out = np.matmul(out.reshape(len(scratch), -1), fold, out=scratch.reshape(len(scratch), -1))
            picked = slice(start, start + batch)
            parts.append(complex(np.vdot(psi_rows[index[picked]] * coef[picked, None], out.reshape(-1).view(complex))))
        overlap = complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
        return abs(overlap) ** 2 / (_norm_sq(psi) * math.fsum(norms))

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amps) ** 2
        p /= p.sum()  # in place: no second 2^n array
        return p

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

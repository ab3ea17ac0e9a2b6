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

import functools
import itertools
import math
import os

import numpy as np

from .errors import CapExceededError, ConfigError, ImpossibleOutcomeError, NonUnitaryError
from .spinops import symmetric_subspace_isometry

DEFAULT_MAX_QUBITS = 26
# The widest fused operator, in qubits.  ir._Run.run fuses gates into blocks
# of at most FUSE_WIDTH qubits, new ones included; only a lone gate or a
# circuit's declared ancilla-bank block may be wider.  ir._Run.run counts a
# declared block's qubits beside those its markers fold away, and
# product_of_factors a join's qubits beside the factor's new ones.
FUSE_WIDTH = 4
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
# second state-sized array.  A join reads each tile from the old state and
# writes it into the grown one, so it holds only those two.
TILE = 1 << 15


def max_qubits() -> int:
    """Simulator size cap; override with the VBS_MAX_QUBITS env var."""
    raw = os.environ.get("VBS_MAX_QUBITS")
    if not raw:
        return DEFAULT_MAX_QUBITS
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"VBS_MAX_QUBITS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ConfigError(f"VBS_MAX_QUBITS must be a positive integer, got {raw!r}")
    return cap


def _checked_width(n_qubits: int) -> int:
    cap = max_qubits()
    if not 1 <= n_qubits <= cap:
        raise CapExceededError(f"n_qubits={n_qubits} outside [1, {cap}]")
    return n_qubits


def _norm_sq(amps: np.ndarray) -> float:
    """Squared norm of a state or a tile, read in memory order (a tile's axes may be permuted); every norm is summed here."""
    flat = amps.ravel(order="K")
    return float(np.vdot(flat, flat).real)


def _scale(amps: np.ndarray, factor: float) -> None:
    """amps *= factor in place, through the float view: half the time of a complex division."""
    floats = amps.view(np.float64)
    floats *= factor


def _tile_slices(shape, whole):
    """Index tuples of the tiles that cover an array of `shape`, each at most TILE entries.

    The dims in `whole` are never split.  The others are split from the
    outermost in: an inner dim is split only when it alone overflows a tile.
    A folded site's 2S+1 values may leave the last tile of a dim shorter.
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


def _tiles(tensor: np.ndarray, mat: np.ndarray, axes, source=None):
    """`mat` on the listed axes of `source` (axes[0] its MSB), one tile at a time, in `tensor`'s layout.

    The listed axes have size 2 in `tensor`, the others 2 or 2S+1 (folded).
    `source` is `tensor` for an operator in place; a join (`_joined`) passes
    the old state, with a size-1 axis per new qubit, the grown one as
    `tensor`, and `mat` cut to its 2^(k-m) columns where the new qubits read 0.
    Yields (tile, out) per tile: `tile` is a view into `tensor`, `out` the
    operator applied to the same tile of `source`, in tile-sized scratch
    that the next tile may reuse (`tensor` is not written; `out` may be a
    strided view).  `_contract` writes `out` into `tile`, so no operator
    holds a second state-sized array.

    A contiguous run of axes (in any order; an empty list is a run) takes
    `_contract_run`; scattered axes take `_contract_scattered`.  Either
    joins only new qubits (one column) as np.multiply.outer does, bit for bit.
    """
    source = tensor if source is None else source
    k = len(axes)
    if not k or max(axes) - min(axes) == k - 1:
        lo = min(axes, default=0)
        return _contract_run(tensor, mat, [a - lo for a in axes], lo, source)
    return _contract_scattered(tensor, mat, axes, source)


def _fold(mat: np.ndarray, right: int) -> np.ndarray:
    """(M (x) I_R)^T by broadcasting (np.kron: 30 us a call), C-ordered for thin real gemms: M on the middle axis of (L, cols, R)."""
    rows, cols = mat.shape
    return (mat.T[:, None, :, None] * np.eye(right)[None, :, None, :]).reshape(cols * right, rows * right)


def _contract_run(tensor: np.ndarray, mat: np.ndarray, run, lo: int, source: np.ndarray):
    """Tiles of `mat` on axes lo..lo+k-1 of `source`, where run[i] is the place of its i-th qubit.

    `tensor` is viewed as (L, 2^k, R) and `source` as (L, cols, R), cols
    2^(k-m) in a join of m qubits, L and R the sizes of the axes before and
    after the run; neither is moved.  The matrix, permuted into the run's
    order, acts on the middle axis of each (l, cols, r) tile, by batched
    `matmul` when 2^k * R exceeds FOLD_MAX_COLS, else by one gemm against
    M (x) I_R, built anew on every call.
    """
    k = len(run)
    left = math.prod(tensor.shape[:lo])
    right = tensor.size // (left * 2**k)
    cols = [source.shape[lo + j] for j in run]  # 1 for a qubit that joins
    mat, fold = _run_operands(mat, run, cols, right)
    view, src = tensor.reshape(left, 2**k, right), source.reshape(left, -1, right)
    out = None
    for index in _tile_slices(view.shape, (1,)):
        tile, part = view[index], src[index]
        if out is None or out.shape != tile.shape:  # a shorter last tile takes its own scratch
            out = np.empty(tile.shape, dtype=complex)
        if mat.shape[1] == 1:
            np.multiply(part, mat, out=out)
        elif fold is None:
            np.matmul(mat, part, out=out)
        else:
            np.matmul(part.reshape(len(part), -1), fold, out=out.reshape(len(tile), -1))
        yield tile, out


def _run_operands(mat: np.ndarray, run, cols, right: int) -> tuple[np.ndarray, np.ndarray | None]:
    """`mat` permuted into the run's order, and its fold when 2^k * R rows fit and it has two columns or more (else None)."""
    k = len(run)
    if run != list(range(k)):
        order = [run.index(j) for j in range(k)]
        mat = mat.reshape([2] * k + cols).transpose(order + [k + i for i in order]).reshape(2**k, -1)
    # the fold needs whole rows in every tile: a tile smaller than a row splits R
    return mat, _fold(mat, right) if 2**k * right <= min(FOLD_MAX_COLS, TILE) and mat.shape[1] > 1 else None


def _contract_scattered(tensor: np.ndarray, mat: np.ndarray, axes, source: np.ndarray):
    """Tiles of `mat` on scattered axes of `source`: one tensordot per tile.

    Each run of untouched axes is one dim of the tile grid, so a tile holds
    every target axis whole and as many untouched amplitudes as fit, however
    far apart the targets lie.
    """
    k = len(axes)
    shape: list[int] = []  # the source with every run of untouched axes merged
    dims = {}  # target axis -> its dim in `shape`
    for a, size in enumerate(source.shape):
        if a in axes:
            dims[a] = len(shape)
            shape.append(size)
        elif a and a - 1 not in axes:
            shape[-1] *= size
        else:
            shape.append(size)
    targets = [dims[a] for a in axes]
    src = source.reshape(shape)
    view = tensor.reshape([2 if d in targets else size for d, size in enumerate(shape)])
    if mat.shape[1] == 1:
        col = mat.reshape([2] * k).transpose(np.argsort(targets)).reshape([2 if d in targets else 1 for d in range(len(shape))])
        yield from ((view[index], src[index] * col) for index in _tile_slices(view.shape, targets))
        return
    mat = mat.reshape([2] * k + [source.shape[a] for a in axes])
    for index in _tile_slices(view.shape, targets):
        out = np.tensordot(mat, src[index], axes=(range(k, 2 * k), targets))
        yield view[index], np.moveaxis(out, range(k), targets)


def _contract(tensor: np.ndarray, mat: np.ndarray, axes, source=None, norms=None) -> np.ndarray:
    """`mat` applied to the listed axes of `source` (default `tensor`; see `_tiles`); axes[0] is its MSB.

    Returns the result in `tensor`'s shape.  A tensor of several tiles is
    written in place, tile by tile: beyond `tensor` this takes one tile's
    scratch.  Of one tile, the kernel's output is already a fresh array: it
    is returned (made contiguous), `tensor` unchanged, with no copy back.
    A float `tensor` takes each tile's Born probabilities instead, as
    np.abs(out) ** 2 gives them, so a last write holds no complex result.
    Each tile's squared norm goes to the list `norms`, if given, as it is
    written (`_norm_sq`), so the result's norm takes no pass of its own.
    """
    for tile, out in _tiles(tensor, mat, axes, source):
        if norms is not None:
            norms.append(_norm_sq(out))
        if tile.dtype != out.dtype:
            np.square(np.abs(out, out=tile), out=tile)
        elif tile.size == tensor.size:
            return np.ascontiguousarray(out).reshape(tensor.shape)
        else:
            np.copyto(tile, out)
    return tensor


@functools.cache
def _shape_only(shape: tuple) -> np.ndarray:
    """A read-only array of `shape` that holds no amplitudes (every stride 0), for its shape."""
    return np.broadcast_to(np.zeros((), dtype=complex), shape)


def _joined(tensor: np.ndarray, cols: np.ndarray, axes, new, norms, dtype) -> np.ndarray:
    """`cols`, 2^k x 2^(k-m), on the listed axes, as the m axes in `new` join `tensor` in |0>; a fresh array of `dtype`.

    `cols` holds an operator's columns where the new qubits read 0.  Axes
    are numbered in the result.  `_contract` (`norms` as there) reads
    `tensor`, with a size-1 axis per new qubit, and writes the grown state,
    tile by tile, into an array that is never zeroed: a join holds `tensor`,
    the grown state and one tile's scratch.  A complex grown state of one
    tile is the kernel's output itself, so no array is allocated for it; a
    float one takes the Born probabilities, `new` empty or not.
    """
    sizes = iter(tensor.shape)
    source = tensor.reshape([1 if a in new else next(sizes) for a in range(tensor.ndim + len(new))])
    shape = tuple(2 if a in new else size for a, size in enumerate(source.shape))
    # of one tile, a complex array to write into only lends its shape
    grown = _shape_only(shape) if dtype is complex and math.prod(shape) <= TILE else np.empty(shape, dtype)
    return _contract(grown, cols, axes, source, norms)


def _columns(mat: np.ndarray, axes, new) -> np.ndarray:
    """`mat`'s columns where the `new` axes among `axes` read 0: 2^k x 2^(k-m)."""
    k = len(axes)
    cols = mat.reshape([2] * (2 * k))[(slice(None),) * k + tuple(slice(1 if a in new else 2) for a in axes)]
    return cols.reshape(2**k, -1)


def _fold_tiles(tensor: np.ndarray, lo: int, sites):
    """The sites from axis `lo`, as (2S, still in qubits) pairs, folded by V^dagger (V `spinops.symmetric_subspace_isometry`).

    `tensor` is viewed as rows (L, rest), L the axes before `lo`.  Yields (rows, out) per batch of the rows that fit a
    tile (or one): a slice of rows, and their folded values in scratch the next batch reuses (float views: V is real).
    """
    rows = tensor.reshape(math.prod(tensor.shape[:lo]), -1)
    batch = min(len(rows), max(1, TILE // rows.shape[1]))
    right, size, shapes = 2 * rows.shape[1], 2 * batch * rows.shape[1], []  # floats after each site, and in a batch
    for w, qubits in sites:
        right //= 2**w if qubits else w + 1
        if qubits:
            size = size // 2**w * (w + 1)
            shapes.append((w, right, size, symmetric_subspace_isometry(w).T))
    buffer = np.empty(sum(size for _, _, size, _ in shapes[:2]))  # the sites write to its two parts in turn
    steps = [(shrink, _fold(shrink, right) if 2**w * right <= FOLD_MAX_COLS else None,
              buffer[i % 2 * shapes[0][2] :][:size].reshape(-1, w + 1, right)) for i, (w, right, size, shrink) in enumerate(shapes)]
    for start in range(0, len(rows), batch):
        x = rows[start : start + batch].view(np.float64)
        n = len(x)  # a shorter last batch takes a prefix of each scratch
        for shrink, fold, scratch in steps:
            out = scratch[: len(scratch) // batch * n]
            if fold is None:
                x = np.matmul(shrink, x.reshape(len(out), -1, out.shape[2]), out=out)
            else:
                x = np.matmul(x.reshape(len(out), -1), fold, out=out.reshape(len(out), -1))
        yield slice(start, start + n), x.reshape(n, -1).view(complex)


def _check_op(mat: np.ndarray, qubits, n: int, new=()) -> None:
    """Raise ValueError unless `mat` is 2^k x 2^k on k distinct qubits of an n-qubit state, `new` among them."""
    k = len(qubits)
    if mat.shape != (2**k, 2**k):
        raise ValueError(f"operator dim {mat.shape} does not match {k} qubits")
    if len(set(qubits)) != k or any(not 0 <= q < n for q in qubits) or not set(new) <= set(qubits):
        raise ValueError(f"bad qubit list {qubits} (new {new}) for {n}-qubit state")


def _check_unitary(mat: np.ndarray) -> None:
    """Raise NonUnitaryError unless `mat` is unitary (to UNITARY_TOL)."""
    if np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) > UNITARY_TOL:
        raise NonUnitaryError("operator is not unitary")


class Statevector:
    """Complex amplitudes on axes of 2 or 2S+1 values, with a running retained-branch probability.

    A site folded by `product_of_factors` has one axis at its first qubit; each fold multiplies
    the kept fraction `_kept` by ||V^dagger r||^2 / ||r||^2 (`spin_fidelity` reads it).

    `tracked_norm_sq` is the product of the probabilities of every retained
    branch since initialization; it equals 1 until the first non-unitary
    application (or the first `ir.post_select`, which returns a new state).
    A non-unitary write sums its squared norm over the tiles it writes; a
    state is scaled once, where it is handed out normalized
    (`product_of_factors`, `ir.post_select`, and `ir`'s runs after their
    last fold).

    A state is built from its amplitudes, `Statevector(n_qubits, amps)`
    (`dims` for folded sites), or by `product_of_factors`.
    A Statevector owns the array it is given: operators and
    renormalizations write into it in place, and only a qubit joining the
    state (the grown array is written from the old one), or an operator on a
    state of one tile, replaces it.  Pass a copy to keep the original.
    """

    __slots__ = ("n_qubits", "amps", "tracked_norm_sq", "_dims", "_kept")

    def __init__(self, n_qubits: int, amps: np.ndarray, tracked_norm_sq: float = 1.0, dims=None):
        # a state of no qubit is one amplitude: what post_select returns when it keeps none
        self.n_qubits = _checked_width(n_qubits) if n_qubits else 0
        self._dims = (2,) * n_qubits if dims is None else tuple(dims)
        if amps.size != math.prod(self._dims):
            raise ValueError(f"{amps.size} amplitudes do not make a {n_qubits}-qubit state of {math.prod(self._dims)}")
        # the float views and in-place kernels need contiguous complex amplitudes; these are not copied
        self.amps = np.ascontiguousarray(amps, dtype=complex)
        self.tracked_norm_sq, self._kept = tracked_norm_sq, 1.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def product_of_factors(cls, n_qubits: int, factors, ops=(), sites=()) -> "Statevector":
        """Tensor product of local vectors given as (qubit_tuple, vector) pairs, then `ops` on it.

        The qubit tuples must partition range(n_qubits).  The factors join
        in the order of their first qubit, axes in qubit order.  `ops` lists
        (op, qubits) pairs, applied in list order, each once the product
        holds its qubits: a factor joins (`_joined`) as one block with the
        ops it makes ready (its vector times the identity on their other
        qubits, the ops composed in), so each step writes the state once; a
        product of one tile joins by an outer product and then applies them.
        An op that would give a block over FUSE_WIDTH other qubits waits,
        with those after it, for a later block; the ops that fit no block act
        in turn on the whole product, through the same kernel.

        `sites` lists runs of consecutive qubits, each a site's 2S: a site
        folds (`_fold_tiles`) after the join that leaves its qubits joined
        and no op on them waiting; an op left past the last join keeps its
        sites in qubits.
        With ops or sites the squared norm is summed over the tiles of the
        last write and the state scaled once; `tracked_norm_sq` is ||O psi||^2
        / ||psi||^2, the product of the ratios that renormalizing after every
        op would give (a fold's ratio goes to the kept fraction); below
        PROB_FLOOR (a zero product included) it raises ImpossibleOutcomeError.
        """
        _checked_width(n_qubits)  # before the product is allocated
        factors = sorted(factors, key=lambda f: tuple(f[0]))
        if sorted(q for qubits, _ in factors for q in qubits) != list(range(n_qubits)):
            raise ValueError("factors must partition the qubit set")
        ops = [(np.asarray(op, dtype=complex), tuple(qubits)) for op, qubits in ops]
        for op, qubits in ops:
            _check_op(op, qubits, n_qubits)
        waits = {tuple(s): 1 + max((i for i, (_, qs) in enumerate(ops) if set(qs) & set(s)), default=-1) for s in sites}
        amps, live, before, kept, done, scaled = np.ones((), dtype=complex), [], 1.0, 1.0, 0, bool(ops or sites)
        for qubits, vec in factors:
            vec, m = np.asarray(vec, dtype=complex), len(qubits)
            if vec.size != 2**m:
                raise ValueError("factor dimension mismatch")
            before *= _norm_sq(vec)
            live, support, ready = sorted(live + list(qubits)), list(qubits), 0
            while ready < len(ops) and set(ops[ready][1]) <= set(live) and len({*support, *ops[ready][1]}) - m <= FUSE_WIDTH:
                support += [q for q in ops[ready][1] if q not in support]
                ready += 1
            if amps.size << m <= TILE:  # one tile: the factor joins by an outer product, and its ready ops act in turn
                amps = np.moveaxis(np.multiply.outer(amps, vec.reshape([2] * m)), range(-m, 0), [live.index(q) for q in qubits])
                for op, qs in ops[:ready]:
                    amps = _contract(amps, op, [live.index(q) for q in qs])
                norms = [_norm_sq(amps)]
            else:
                k = len(support)
                block = np.multiply.outer(vec.reshape([2] * m), np.eye(2 ** (k - m)).reshape([2] * (k - m) + [-1]))
                for op, qs in ops[:ready]:
                    block = _contract(block, op, [support.index(q) for q in qs])
                norms: list[float] = []
                amps = _joined(amps, block.reshape(2**k, -1), [live.index(q) for q in support], [live.index(q) for q in qubits], norms, complex)
            ops, done = ops[ready:], done + ready
            for site in [site for site, wait in waits.items() if wait <= done and set(site) <= set(live)]:
                del waits[site]
                lo, w, folded = live.index(site[0]), len(site), []
                out = np.empty(amps.shape[:lo] + (w + 1,) + amps.shape[lo + w :], dtype=complex)
                for index, part in _fold_tiles(amps, lo, [(w, True)]):
                    out.reshape(-1, part.shape[1])[index] = part
                    folded.append(_norm_sq(part))
                ratio = math.fsum(folded) / (math.fsum(norms) or 1.0)
                amps, kept, before, norms = out, kept * ratio, before * ratio, folded
                live = [q for q in live if q not in site[1:]]  # the spin axis keeps the site's first qubit
        state = cls(n_qubits, amps.reshape(-1), dims=amps.shape)
        state._kept = kept
        for op, qubits in ops:
            norms = []
            state._apply(op, [live.index(q) for q in qubits], (), norms)
        if scaled:
            _scale(state.amps, 1 / math.sqrt(state._retain(before, norms)))
        return state

    # -- operator application ---------------------------------------------

    def _tensor(self, mat: np.ndarray, qubits, new=()) -> np.ndarray:
        """The amplitudes on their axes, once `mat` and `qubits` (axes) are checked (`_check_op`)."""
        _check_op(mat, qubits, len(self._dims) + len(new), new)
        return self.amps.reshape(self._dims)

    def _apply(self, mat: np.ndarray, qubits, new=(), norms=None) -> None:
        """`mat` on the listed qubits through `_contract` (`norms` as there), in place or into a new array; `new` ones join in |0>."""
        if new:
            n = _checked_width(self.n_qubits + len(new))
            grown = _joined(self._tensor(mat, qubits, new), _columns(mat, qubits, new), qubits, new, norms, complex)
            self.amps, self._dims, self.n_qubits = grown.reshape(-1), grown.shape, n
            return
        tensor = self._tensor(mat, qubits)
        out = _contract(tensor, mat, qubits, norms=norms)
        if out is not tensor:
            self.amps = out.reshape(-1)

    def _born(self, mat: np.ndarray, qubits, new, norms) -> np.ndarray:
        """|a|^2 in index order of the state `_apply` would write, in one float array written tile by tile; the state is unchanged."""
        _checked_width(self.n_qubits + len(new))
        return _joined(self._tensor(mat, qubits, new), _columns(mat, qubits, new), qubits, new, norms, float).reshape(-1)

    def _retain(self, before: float, norms) -> float:
        """Take after / before into `tracked_norm_sq`, after the sum of `norms`; return after (below PROB_FLOOR: raise)."""
        after = math.fsum(norms)
        ratio = after / before if before else 0.0
        if ratio < PROB_FLOOR:
            raise ImpossibleOutcomeError("operator annihilated the state")
        self.tracked_norm_sq *= ratio
        return after

    # The public methods below do not call each other, so that a per-method
    # timer (perfbench/tracer.py) counts the kernel as theirs.

    def apply_unitary(self, op, qubits, *, new_qubits=()) -> "Statevector":
        """Apply `op` on the listed qubits; qubits[0] is the op's MSB.

        In place, except on a state of one tile (see `_contract`).  The
        qubits in `new_qubits`, a subset of `qubits`, join the state in |0>
        as `op` acts, so the state grows by their count into a fresh array;
        every qubit is numbered in the grown state.  The width is checked
        before the grown array is allocated; a join then holds the old
        state, the grown one and tile-sized scratch (see `_joined`).  Every
        call checks `op` for unitarity first.
        """
        mat = np.asarray(op, dtype=complex)
        _check_unitary(mat)
        self._apply(mat, tuple(qubits), tuple(new_qubits))
        return self

    # -- scalar queries ------------------------------------------------------

    def spin_fidelity(self, psi: np.ndarray) -> float:
        """|<psi|phi>|^2 / (||psi||^2 ||phi||^2) times the kept fraction, phi this state r with every site folded.

        psi has an axis of 2S+1 values per site, whose 2S qubits run in r in
        site order, as qubits or folded.  Folding here multiplies the kept
        fraction by ||phi||^2 / ||r||^2, so on qubits F = |<psi|V^dagger r>|^2
        / (||psi||^2 ||r||^2).  `_fold_tiles` folds the trailing sites that
        fit a tile; V^dagger of a leading site has one nonzero per qubit
        index, so a row's index picks one row of psi and one coefficient.
        """
        sites, at = [], 0  # per site: its first axis, 2S, and whether it is still in qubits
        for w in (d - 1 for d in psi.shape):
            sites.append((at, w, self._dims[at : at + 1] != (w + 1,)))
            at += w if sites[-1][2] else 1
        if at != len(self._dims) or any(qubits and self._dims[a : a + w] != (2,) * w for a, w, qubits in sites):
            raise ValueError(f"spin-basis state of shape {psi.shape} does not fit a state on axes {self._dims}")
        first = next((a for a, _, _ in sites if math.prod(self._dims[a:]) <= TILE), len(self._dims))  # the rows' first axis
        lead = sum(a < first for a, _, _ in sites)
        index, coef = np.zeros(1, dtype=np.intp), np.ones(1)  # psi's row and coefficient of each leading index
        for _, w, qubits in sites[:lead]:
            iso = symmetric_subspace_isometry(w) if qubits else np.eye(w + 1)
            index = (index[:, None] * (w + 1) + iso.argmax(axis=1)).reshape(-1)
            coef = (coef[:, None] * iso.max(axis=1)).reshape(-1)
        rows, psi_rows = self.amps.reshape(len(index), -1), psi.reshape(math.prod(psi.shape[:lead]), -1)
        parts, norms = [], []
        for picked, phi in _fold_tiles(self.amps.reshape(self._dims), first, [(w, qubits) for _, w, qubits in sites[lead:]]):
            norms.append(_norm_sq(rows[picked]))
            parts.append(complex(np.vdot(psi_rows[index[picked]] * coef[picked, None], phi)))
        overlap = complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
        return abs(overlap) ** 2 / (math.fsum(map(_norm_sq, psi_rows)) * math.fsum(norms)) * self._kept


def sample_indices(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Basis indices of `shots` Born-rule draws from `probs` (|a|^2 in index order): `default_rng(seed).choice(len(probs), shots, p=probs/sum)`, bit for bit.

    `choice` searches the cdf of p for each of `shots` uniforms u in draw
    order.  The same operations build the cdf here, in place in `probs`,
    which the draw consumes, and the same u are searched in ascending order,
    so that each search starts where the last ended and the cdf is read
    front to back; a search's result does not depend on the other keys, so
    put back in shot order they are `choice`'s.  A zero or non-finite sum
    raises ValueError.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    total = probs.sum()
    if not 0 < total < math.inf:
        raise ValueError(f"cannot sample a state of squared norm {total}")
    probs /= total
    np.cumsum(probs, out=probs)
    probs /= probs[-1]
    keys = np.random.default_rng(seed).random(shots)
    order = keys.argsort()
    indices = np.empty(shots, dtype=np.intp)
    indices[order] = probs.searchsorted(keys[order], side="right")
    return indices

"""Circuit intermediate representation and CNOT resource accounting.

Gates are CNOTs, SWAPs, general single-qubit rotations U(theta, phi, lam),
opaque multi-qubit blocks carrying an exact matrix plus declared
per-coupling CNOT costs, and measurement markers with an expected
post-selection outcome.  A simulation post-selects a marker one way only:
it folds the marker into the declared block it closes (`Circuit.blocks`).

Depth accounting counts CNOTs only: single-qubit gates are free, a CNOT
occupies one layer, a SWAP three (one per CNOT of `Swap.cnots`), and an
opaque block occupies its declared depth (defaulting to its declared
count).  Gates are scheduled in list order at the earliest layer allowed
by qubit overlap, which makes counts deterministic.
"""
from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpossibleOutcomeError, MissingCostError, NonUnitaryError, VbsError
from .statesim import FUSE_WIDTH, TILE, UNITARY_TOL, Statevector, _check_unitary, _checked_width, _contract, _scale


@dataclass(frozen=True)
class CNot:
    control: int
    target: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


@dataclass(frozen=True)
class Swap:
    """SWAP of two qubits: counted and emitted as its three CNOTs, renamed past in a simulation (`_Run`)."""

    qubits: tuple[int, int]

    def cnots(self) -> list[CNot]:
        a, b = self.qubits
        return [CNot(a, b), CNot(b, a), CNot(a, b)]


@dataclass(frozen=True)
class U1Q:
    theta: float
    phi: float
    lam: float
    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
        return np.array(
            [
                [c, -cmath.exp(1j * self.lam) * s],
                [cmath.exp(1j * self.phi) * s, cmath.exp(1j * (self.phi + self.lam)) * c],
            ]
        )


@dataclass(frozen=True)
class Opaque:
    """Unitary block with declared CNOT costs instead of a gate expansion.

    cnot_cost / cnot_depth map coupling names to declared numbers; a missing
    or None entry means the cost is not declared for that coupling.
    """

    label: str
    qubits: tuple[int, ...]
    matrix: np.ndarray
    cnot_cost: dict = field(default_factory=dict)
    cnot_depth: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.flags.writeable:  # freeze an own copy, never the caller's array
            m = m.copy()
        if m.shape != (2 ** len(self.qubits),) * 2:
            raise ValueError(f"opaque {self.label}: matrix shape {m.shape} vs {len(self.qubits)} qubits")
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) > UNITARY_TOL:
            raise NonUnitaryError(f"opaque {self.label} is not unitary")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", tuple(self.qubits))
        # own copies: the declared costs come from shared tables
        object.__setattr__(self, "cnot_cost", dict(self.cnot_cost))
        object.__setattr__(self, "cnot_depth", dict(self.cnot_depth))

    def declared_count(self, coupling_name: str) -> int:
        val = self.cnot_cost.get(coupling_name)
        if val is None:
            raise MissingCostError(f"opaque {self.label!r}: no CNOT count declared for {coupling_name!r}")
        return val

    def declared_depth(self, coupling_name: str) -> int:
        val = self.cnot_depth.get(coupling_name)
        if val is None:
            val = self.cnot_cost.get(coupling_name)
        if val is None:
            raise MissingCostError(f"opaque {self.label!r}: no CNOT depth declared for {coupling_name!r}")
        return val


@dataclass(frozen=True)
class Measure:
    """Measurement marker with an expected post-selection outcome.

    A simulation folds a marker into the declared block it closes, so its
    qubit never gets a state axis there, and an ancilla can be reused after
    it is measured: it joins again at its next gate, in its outcome.  A
    marker that closes no block that fuses raises VbsError (`_Run.run`).
    born_probabilities leaves out the markers no later gate touches (the
    terminal ones) and returns them, for the Monte-Carlo draw.
    """

    qubit: int
    expect: int
    creg: int = 0

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


Gate = CNot | Swap | U1Q | Opaque | Measure


def _renamed(gate: Gate, mapping) -> Gate:
    """A copy of `gate` on `mapping[q]` for each of its qubits q: the one way a built gate changes qubits.

    No __post_init__ runs (the fields go through the instance dict): an Opaque keeps its matrix object unchecked."""
    fields = dict(gate.__dict__)
    for name in fields.keys() & {"control", "target", "qubit", "qubits"}:
        q = fields[name]
        fields[name] = mapping[q] if isinstance(q, int) else tuple(mapping[p] for p in q)
    out = object.__new__(type(gate))
    out.__dict__.update(fields)
    return out


def u_h(q: int) -> U1Q:
    return U1Q(math.pi / 2, 0.0, math.pi, q)


def u_x(q: int) -> U1Q:
    return U1Q(math.pi, 0.0, math.pi, q)


def u_z(q: int) -> U1Q:
    return U1Q(0.0, 0.0, math.pi, q)


def u_t(q: int) -> U1Q:
    return U1Q(0.0, 0.0, math.pi / 4, q)


def u_tdg(q: int) -> U1Q:
    return U1Q(0.0, 0.0, -math.pi / 4, q)


def u_ry(theta: float, q: int) -> U1Q:
    return U1Q(theta, 0.0, 0.0, q)


@dataclass
class Circuit:
    """A register's gates in order.

    `blocks` holds the (start, stop) gate span of each ancilla bank, from
    the bank's first gate to its markers, which come last: the builder that
    places the bank declares it, and a simulation fuses the span whole and
    folds the markers into it (`_Run.run`).  Every marker must close such a
    block: a simulation refuses a marker outside one, so a builder that
    leaves its bank undeclared fails, naming the marker's qubit.
    """

    n_qubits: int
    gates: list = field(default_factory=list)
    blocks: list[tuple[int, int]] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        qs = gate.qubits
        if len(set(qs)) != len(qs):
            raise ValueError(f"gate addresses a qubit twice: {qs}")
        if any(not 0 <= q < self.n_qubits for q in qs):
            raise ValueError(f"gate qubits {qs} outside register of {self.n_qubits}")
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.add(g)
        return self

    def measures(self) -> list[Measure]:
        return [g for g in self.gates if isinstance(g, Measure)]

    def next_creg(self) -> int:
        used = [g.creg for g in self.measures()]
        return max(used) + 1 if used else 0


# ---------------------------------------------------------------------------
# resource accounting
# ---------------------------------------------------------------------------

_TEST_2S3 = {"all_to_all": 26, "linear": 39}

# Declared CNOT costs of every opaque block, by block name, as the ready
# `cnot_cost` / `cnot_depth` keyword arguments of Opaque (coupling -> number).
# A depth left out equals the count.  The spin-3/2 test's heavy-hex cost
# depends on the four-qubit box it lands on: a T-shaped box is cheaper than
# an in-line box.  A full island declares only its routed depths; its
# all-to-all numbers are counted on schmidt.island_prep_circuit, whose
# optimized blocks find their costs here by label (island_2s2_u/_v,
# island_2s3_b_v/_u/_v); any other Schmidt block takes schmidt_{n}q.
DECLARED_COSTS = {
    "test_2s2": {"cnot_cost": {"all_to_all": 7, "linear": 9, "heavy_hex": 9}},
    "test_2s3_line": {"cnot_cost": {**_TEST_2S3, "heavy_hex": 41}},
    "test_2s3_t": {"cnot_cost": {**_TEST_2S3, "heavy_hex": 39}},
    "displacement": {"cnot_cost": {"heavy_hex": 9}},
    "cswap": {"cnot_cost": {"all_to_all": 7}},
    "island_2s2": {"cnot_depth": {"linear": 8}},
    "island_2s3": {"cnot_depth": {"heavy_hex": 57}},
    "island_2s2_u": {"cnot_cost": {"all_to_all": 2}},
    "island_2s2_v": {"cnot_cost": {"all_to_all": 2}},
    "island_2s3_u": {"cnot_cost": {"all_to_all": 14}},
    "island_2s3_v": {"cnot_cost": {"all_to_all": 15}},
    "island_2s3_b_v": {"cnot_cost": {"all_to_all": 2}},
    # worst case for an arbitrary Schmidt singular-vector block, by qubit count
    "schmidt_2q": {"cnot_cost": {"all_to_all": 3}},
    "schmidt_3q": {"cnot_cost": {"all_to_all": 20}},
}


def cnot_count(circuit: Circuit, coupling_name: str) -> int:
    total = 0
    for g in circuit.gates:
        if isinstance(g, CNot):
            total += 1
        elif isinstance(g, Swap):
            total += len(g.cnots())
        elif isinstance(g, Opaque):
            total += g.declared_count(coupling_name)
    return total


def cnot_depth(circuit: Circuit, coupling_name: str) -> int:
    frontier = [0] * circuit.n_qubits
    for g in circuit.gates:
        if isinstance(g, CNot):
            width = 1
        elif isinstance(g, Swap):  # its CNOTs all act on its pair, one layer each
            width = len(g.cnots())
        elif isinstance(g, Opaque):
            width = g.declared_depth(coupling_name)
        else:
            width = 0
        start = max(frontier[q] for q in g.qubits)
        for q in g.qubits:
            frontier[q] = start + width
    return max(frontier) if frontier else 0


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

_CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_SWAP_MAT = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
# shared by every simulation: read-only, so that no caller can change them
_CNOT_MAT.setflags(write=False)
_SWAP_MAT.setflags(write=False)


def _gate_matrix(g) -> np.ndarray:
    """Matrix of a unitary gate on g.qubits; qubits[0] is its MSB.

    A CNOT's, a Swap's and an Opaque's matrix are shared and read-only; a
    U1Q's is a fresh array on every call.
    """
    if isinstance(g, CNot):
        return _CNOT_MAT
    if isinstance(g, Swap):
        return _SWAP_MAT
    if isinstance(g, U1Q):
        return g.matrix()
    if isinstance(g, Opaque):
        return g.matrix
    raise TypeError(f"not a unitary gate: {g!r}")


def _block_matrix(support: list[int], gates: list, columns=None) -> np.ndarray:
    """Product of consecutive gates as one matrix on `support` (first qubit is the MSB), times `columns` if given."""
    if columns is None and len(gates) == 1 and list(gates[0].qubits) == list(support):
        return _gate_matrix(gates[0])
    m = len(support)
    pos = {q: i for i, q in enumerate(support)}
    # rows on the first m axes, columns on the last: gates act on the rows
    t = (np.eye(2**m, dtype=complex) if columns is None else columns).reshape([2] * m + [-1])
    for g in gates:
        t = _contract(t, _gate_matrix(g), [pos[q] for q in g.qubits])
    return t.reshape(2**m, -1)


def _block_key(support: list[int], gates: list) -> tuple:
    """What `_block_matrix(support, gates)` depends on: equal keys give the same matrix bit for bit.

    A gate enters as its kind, its parameters (a U1Q's angles as their bits,
    so that -0.0 and 0.0 stay apart) and its qubits' places in `support`; an
    Opaque by the identity of its matrix, which the caller keeps alive.
    """
    pos = {q: i for i, q in enumerate(support)}
    key: list = [len(support)]
    for g in gates:
        if isinstance(g, U1Q):
            params = struct.pack("3d", g.theta, g.phi, g.lam)
        else:
            params = id(g.matrix) if isinstance(g, Opaque) else None
        key.append((type(g), params, *(pos[q] for q in g.qubits)))
    return tuple(key)


def _reused_markers(gates: list) -> set[int]:
    """Indices of the markers whose qubit a later gate touches."""
    touched: set[int] = set()
    reused: set[int] = set()
    for i in range(len(gates) - 1, -1, -1):
        g = gates[i]
        if isinstance(g, Measure):
            if g.qubit in touched:
                reused.add(i)
        else:
            touched.update(g.qubits)
    return reused


class _Run:
    """One simulate_post_selected or born_probabilities call in progress.

    `gates` act on wires (`wire` maps a qubit to its wire at the end, and
    `given` a renamed gate's id to its first qubit as given), and `blocks`
    are the circuit's ancilla-bank spans in `gates`.  `state` holds
    an axis per `live` wire, in wire order (none before the first block),
    its squared norm carried in `norm_sq`: no fold scales it, `select` does.
    The latest block waits in `held` until the next block or a read of the
    state (`write`), so the last can go straight to Born probabilities (`born`).
    `value` maps a wire whose marker was folded to the outcome it holds
    until it joins again.  `composed` keeps the block matrices the call
    composed, by their `_block_key` and slice.
    """

    def __init__(self, circuit: Circuit):
        self.n = _checked_width(circuit.n_qubits)
        self.gates, self.wire, self.given = [], list(range(self.n)), {}  # `run` states the rename rule
        wire, moved, at = self.wire, False, []  # at: each given gate's index in `gates`, and the end
        for g in circuit.gates:
            at.append(len(self.gates))
            if isinstance(g, Swap):
                a, b = g.qubits
                wire[a], wire[b] = wire[b], wire[a]
                moved = True
            elif not moved or all(wire[q] == q for q in g.qubits):
                self.gates.append(g)
            else:
                self.gates.append(_renamed(g, wire))
                self.given[id(self.gates[-1])] = g.qubits[0]
        at.append(len(self.gates))
        self.blocks = [(at[start], at[stop]) for start, stop in circuit.blocks]
        self.state = Statevector(0, np.ones(1, dtype=complex))  # no qubit until the first block
        self.norm_sq = 1.0
        self.held: tuple | None = None  # (mat, axes, new axes, folded qubits) of the write that waits
        self.live: list[int] = []
        self.value: dict[int, int] = {}
        self.composed: dict[tuple, np.ndarray] = {}

    def apply(self, mat: np.ndarray, qubits, folded=()) -> None:
        """Apply `mat` on `qubits` (held, once the block held before is written); a qubit not yet live joins in |0>.

        With `folded` qubits (see apply_block) `mat` is not unitary: the
        norm ratio, after (summed over the tiles) over the carried `norm_sq`,
        is their markers' joint probability; the state is not scaled.
        """
        self.write()
        live = self.live
        new = [q for q in qubits if q not in live]
        live.extend(new)
        live.sort()
        self.held = (mat, [live.index(q) for q in qubits], [live.index(q) for q in new], folded)

    def write(self) -> None:
        """Write the held block, if any, into the state."""
        if self.held is not None and not self.held[3]:
            (mat, axes, new, _), self.held = self.held, None
            self.state.apply_unitary(mat, axes, new_qubits=new)
        elif self.held is not None:
            self.written(self.state._apply)

    def written(self, kernel):
        """`kernel(mat, axes, new, norms)` on the held block, let go: `Statevector._apply`, or `_born` for probabilities only.

        An unfolded block is checked unitary; a folding one's norm ratio goes to `norm_sq` (see `apply`).
        """
        (mat, axes, new, folded), self.held = self.held, None
        if not folded:
            _check_unitary(mat)
            return kernel(mat, axes, new, None)
        try:
            norms: list[float] = []
            out = kernel(mat, axes, new, norms)
            self.norm_sq = self.state._retain(self.norm_sq, norms)
            return out
        except ImpossibleOutcomeError as exc:
            exc.args = (f"markers on qubits {sorted(folded)} (folded into a block, no state axis): {exc}",)
            raise

    def drop(self, markers: list[Measure]) -> None:
        """Record each folded marker's outcome: its qubit holds it until it joins again."""
        for m in markers:
            if m.qubit in self.live:
                raise self.unfolded(m, "was live before its block, which cannot fold it")
        self.value.update((m.qubit, m.expect) for m in markers)

    def unfolded(self, marker: Measure, why: str) -> VbsError:
        """The error for a marker that no block folds, named by its qubit as the given circuit numbers it."""
        return VbsError(f"marker on qubit {self.given.get(id(marker), marker.qubit)} {why}")

    def apply_block(self, support: list[int], block: list, markers=()) -> None:
        """Apply the block's matrix U, composed once per call under its `_block_key` and slice.

        A qubit that is not live joins in the value it holds: 0, or the
        outcome its marker was folded on (U's columns are flipped there).  A joining
        qubit whose marker waits in `markers` is folded: only U's columns
        where it holds its value are composed, and the block acts as
        <expect|U|value> on its other qubits, so it never gets an axis.
        """
        joins = [q for q in support if q not in self.live]
        fold = _expectations(m for m in markers if m.qubit in joins)
        flips = tuple(i for i, q in enumerate(support) if q in joins and self.value.get(q))
        rows = tuple(fold.get(q) for q in support)
        key = (_block_key(support, block), flips, rows)
        if key not in self.composed:
            if flips or fold:  # only the identity's columns where folded qubits hold 0, flipped where a qubit holds 1
                k, kept = len(support), 2 ** (len(support) - len(fold))
                columns = np.zeros([2] * k + [kept], dtype=complex)
                columns[tuple(slice(None) if e is None else 0 for e in rows)] = np.eye(kept).reshape([2] * (k - len(fold)) + [kept])
                mat = _block_matrix(support, block, np.flip(columns, flips)).reshape([2] * k + [kept])
                mat = np.ascontiguousarray(mat[tuple(slice(None) if e is None else e for e in rows)]).reshape(kept, kept)
            else:
                mat = _block_matrix(support, block)
            mat.setflags(write=False)
            self.composed[key] = mat
        self.apply(self.composed[key], [q for q in support if q not in fold], {self.given.get(id(m), m.qubit) for m in markers if m.qubit in fold})

    def select(self, keep: list[int]) -> tuple[float, Statevector]:
        """Hand out the state of the `keep` wires, in the order given, scaled once by the carried norm.

        Every live wire must be kept and every kept wire live: else VbsError
        names the qubit that holds the wire at the end.
        """
        self.write()
        live = self.live
        for axis, w in enumerate(live):
            if w not in keep:  # the circuit's fault, not `keep`'s: no marker folded it
                raise VbsError(f"qubit {self.wire.index(w)} (state axis {axis}) is neither kept nor post-selected")
        for w in keep:
            if w not in live:
                raise VbsError(f"qubit {self.wire.index(w)} is kept, but no gate put it in the state")
        norm_sq, self.norm_sq = self.norm_sq, 1.0
        if norm_sq != 1.0:
            _scale(self.state.amps, 1 / math.sqrt(norm_sq))
        if keep != live:
            amps = np.transpose(self.state.amps.reshape([2] * len(live)), [live.index(w) for w in keep])
            self.state = Statevector(len(keep), amps.reshape(-1), self.state.tracked_norm_sq)
        return self.state.tracked_norm_sq, self.state

    def run(self) -> None:
        """Apply every gate, folding each marker into its declared block.

        Gates act on wires (`__init__`): each Swap(a, b) is taken out and
        wire[a], wire[b] trade places; every later gate is renamed through
        `wire` (`_renamed`, so an Opaque keeps its matrix), and an error
        names a marker's qubit as the given circuit does.  Consecutive gates
        are fused greedily into blocks of at most FUSE_WIDTH qubits, new ones
        included (a lone gate or declared block may be wider), each applied
        to the state once.  A declared block (`Circuit.blocks`: an ancilla
        bank from its first gate to its markers, which come last) fuses like
        one gate when its other qubits D number at most FUSE_WIDTH and its
        columns where the marked qubits A hold their values, 2^(|A| + 2|D|),
        fit a TILE, so one block folds the bank: a spin-3/2 lcu site and its
        bank of six become one 8x8 operator.  Every marker must close such a
        block, on a qubit that joins in it (`drop`): any other marker raises
        VbsError.  A folded qubit holds its outcome until its next gate, where
        it joins again.  A one-qubit gate on a qubit neither live nor in the
        open block waits (gates on other qubits commute with it) and joins
        the block of its qubit's next multi-qubit gate or the circuit's end.
        A block's matrix is composed once per call under its `_block_key`.
        """
        markers: list[Measure] = []
        held: dict[int, list] = {}
        support: list[int] = []
        block: list = []

        def flush() -> None:
            nonlocal markers, support, block
            if support:
                self.apply_block(support, block, markers)
            support, block = [], []
            self.drop(markers)
            markers = []

        def add(gates: list, qubits) -> None:
            nonlocal support, block
            grown = support + [q for q in qubits if q not in support]
            if len(grown) > FUSE_WIDTH and block:
                flush()
                grown = list(qubits)
            support, block = grown, block + gates

        fused = {}  # a block's start -> its last gate and its qubits in order of first touch
        for start, stop in self.blocks:
            span = self.gates[start:stop]
            marked = [g.qubit for g in span if isinstance(g, Measure)]
            qubits = list(dict.fromkeys(q for g in span for q in g.qubits))
            d = len(qubits) - len(set(marked))
            closed = all(isinstance(g, Measure) for g in span[len(span) - len(marked):])
            if closed and d <= FUSE_WIDTH and len(qubits) + d < TILE.bit_length():  # 2^(|A| + 2|D|) columns fit a tile
                fused[start] = (stop - 1, qubits)
        end = -1  # every marker closes a block that fuses: checked before any block is applied
        for i, g in enumerate(self.gates):
            if i > end and i in fused:
                end = fused[i][0]
            elif i > end and isinstance(g, Measure):
                raise self.unfolded(g, "closes no declared block that fuses (Circuit.blocks)")
        last = -1
        for i, g in enumerate(self.gates):
            if i <= last:
                continue
            last, qubits = fused.get(i, (i, g.qubits))  # a block is fused like one gate
            gates = self.gates[i : last + 1]
            if any(m.qubit in qubits for m in markers):
                flush()
            if i not in fused and len(qubits) == 1 and qubits[0] not in self.live and qubits[0] not in support:
                held.setdefault(qubits[0], []).append(g)
                continue
            add([h for q in qubits for h in held.pop(q, [])] + [h for h in gates if not isinstance(h, Measure)], qubits)
            markers += [h for h in gates if isinstance(h, Measure)]
        for q, gates in held.items():
            add(gates, [q])
        flush()


def born_probabilities(circuit: Circuit) -> tuple[np.ndarray, list[Measure]]:
    """Run the circuit from the empty register; return the whole register's Born probabilities and its terminal markers.

    The terminal markers, the ones no later gate touches, are taken out for
    the Monte-Carlo draw (`statesim.sample_indices`).  The rest runs with no
    block declared (so fused greedily), every qubit kept in order: a marker
    left in it, one reused, folds into no block and raises VbsError.  With
    no fold the carried norm is 1, and the last write goes to |a|^2 in index
    order (`Statevector._born`), so no complex register is held, unless a
    Swap taken out leaves the wires in another order (`_Run.select`
    reorders them).
    """
    terminal = {i for i, g in enumerate(circuit.gates) if isinstance(g, Measure)} - _reused_markers(circuit.gates)
    run = _Run(Circuit(circuit.n_qubits, [g for i, g in enumerate(circuit.gates) if i not in terminal]))
    run.run()
    markers = [circuit.gates[i] for i in sorted(terminal)]
    if run.wire != run.live:
        return np.square(np.abs(run.select(run.wire)[1].amps)), markers
    return run.written(run.state._born), markers


def simulate_post_selected(circuit: Circuit, keep) -> tuple[float, Statevector]:
    """Run the circuit from the empty register, post-select every marker, keep the `keep` qubits.

    Equals post-selecting the whole register, every ancilla held to the
    end (to rounding), without holding them.  Every marker, reused or not,
    is folded into its declared block (`_Run.run`), so a marked qubit has
    no state axis there, and a reused qubit joins again in its outcome;
    `tracked_norm_sq` carries the product of the probabilities.  No fold
    scales the state: `_Run.select`, with `keep`, does.  A qubit neither
    kept nor touched by a gate never joins the state.  `keep` and the
    terminal markers' outcomes are checked before any block is applied;
    `keep` is then mapped to wires.  Returns the success probability and
    the normalized `keep` qubits' state, in the order given.
    """
    run = _Run(circuit)
    reused = _reused_markers(circuit.gates)
    expect = _expectations(g for i, g in enumerate(circuit.gates) if isinstance(g, Measure) and i not in reused)
    keep = [run.wire[q] for q in _checked_keep(keep, run.n, expect)]
    touched = {q for g in circuit.gates if not isinstance(g, Measure) for q in g.qubits}
    for q, outcome in expect.items():
        if outcome and q not in touched:
            raise ImpossibleOutcomeError(f"qubit {q} is post-selected on 1, but no gate touches it")
    run.run()
    return run.select(keep)


def _expectations(markers) -> dict[int, int]:
    """Each marker's qubit -> its expected outcome; one qubit expected on both raises ImpossibleOutcomeError."""
    expect: dict[int, int] = {}
    for m in markers:
        if expect.setdefault(m.qubit, m.expect) != m.expect:
            raise ImpossibleOutcomeError(f"qubit {m.qubit} is post-selected on both outcomes")
    return expect


def _checked_keep(keep, n: int, expect: dict) -> list[int]:
    keep = list(keep)
    if len(set(keep)) != len(keep) or not set(keep) <= set(range(n)):
        raise ValueError(f"keep {keep} must list distinct qubits of the {n}-qubit state")
    both = sorted(set(keep) & set(expect))
    if both:
        raise ValueError(f"qubits {both} are both kept and post-selected")
    return keep


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of a measurement-free circuit (small registers only).

    Composes every gate into one matrix on the whole register through
    `_block_matrix`, the contraction `_Run` builds its blocks with.
    """
    n = circuit.n_qubits
    if n > 12:
        raise ValueError("circuit_unitary capped at 12 qubits")
    if n:
        _checked_width(n)
    if any(isinstance(g, Measure) for g in circuit.gates):
        raise ValueError("circuit_unitary does not support measurement markers")
    mat = _block_matrix(list(range(n)), circuit.gates)
    return mat if mat.flags.writeable else mat.copy()  # not a shared gate matrix: the caller's to keep

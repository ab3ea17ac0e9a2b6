"""Circuit intermediate representation and CNOT resource accounting.

Gates are CNOTs, general single-qubit rotations U(theta, phi, lam), opaque
multi-qubit blocks carrying an exact matrix plus declared per-coupling CNOT
costs, and measurement markers with an expected post-selection outcome.

Depth accounting counts CNOTs only: single-qubit gates are free, a CNOT
occupies one layer, and an opaque block occupies its declared depth
(defaulting to its declared count).  Gates are scheduled in list order at
the earliest layer allowed by qubit overlap, which makes counts
deterministic.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ImpossibleOutcomeError, MissingCostError, NonUnitaryError
from .statesim import PROB_FLOOR, Statevector, _checked_width, _contract

OPAQUE_UNITARY_TOL = 1e-10
FUSE_WIDTH = 4  # qubits in the widest block simulate_circuit fuses gates into


@dataclass(frozen=True)
class CNot:
    control: int
    target: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)


@dataclass(frozen=True)
class U1Q:
    theta: float
    phi: float
    lam: float
    qubit: int
    label: str = ""

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
        if m.shape != (2 ** len(self.qubits),) * 2:
            raise ValueError(f"opaque {self.label}: matrix shape {m.shape} vs {len(self.qubits)} qubits")
        if np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) > OPAQUE_UNITARY_TOL:
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

    simulate_circuit projects a marker before the first later gate that
    touches its qubit, so an ancilla can be reused after it is measured; a
    marker no later gate touches is left to post_select.

    A non-empty `retry_reset` marks the measure-and-reset protocol: on the
    unwanted outcome the listed qubits are reset, their bonds re-prepared,
    and the test repeated.  The simulator realizes this as branch
    resampling (see methods.run_mitigated_retry) rather than real-time
    feedback.
    """

    qubit: int
    expect: int
    creg: int = 0
    retry_reset: tuple[int, ...] = ()

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


Gate = CNot | U1Q | Opaque | Measure


def u_h(q: int) -> U1Q:
    return U1Q(math.pi / 2, 0.0, math.pi, q, "h")


def u_x(q: int) -> U1Q:
    return U1Q(math.pi, 0.0, math.pi, q, "x")


def u_z(q: int) -> U1Q:
    return U1Q(0.0, 0.0, math.pi, q, "z")


def u_t(q: int) -> U1Q:
    return U1Q(0.0, 0.0, math.pi / 4, q, "t")


def u_tdg(q: int) -> U1Q:
    return U1Q(0.0, 0.0, -math.pi / 4, q, "tdg")


def u_ry(theta: float, q: int) -> U1Q:
    return U1Q(theta, 0.0, 0.0, q, "ry")


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

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
# optimized singular-vector blocks are the island_2s*_{u,v,b} entries.
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
    "island_2s3_b": {"cnot_cost": {"all_to_all": 2}},
    # worst case for an arbitrary Schmidt singular-vector block, by qubit count
    "schmidt_2q": {"cnot_cost": {"all_to_all": 3}},
    "schmidt_3q": {"cnot_cost": {"all_to_all": 20}},
}


def cnot_count(circuit: Circuit, coupling_name: str) -> int:
    total = 0
    for g in circuit.gates:
        if isinstance(g, CNot):
            total += 1
        elif isinstance(g, Opaque):
            total += g.declared_count(coupling_name)
    return total


def cnot_depth(circuit: Circuit, coupling_name: str) -> int:
    frontier = [0] * circuit.n_qubits
    for g in circuit.gates:
        if isinstance(g, CNot):
            width = 1
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
_IDENTITY_1Q = np.eye(2, dtype=complex)


def _gate_matrix(g) -> np.ndarray:
    """Matrix of a unitary gate on g.qubits; qubits[0] is its MSB."""
    if isinstance(g, CNot):
        return _CNOT_MAT
    if isinstance(g, U1Q):
        return g.matrix()
    if isinstance(g, Opaque):
        return g.matrix
    raise TypeError(f"not a unitary gate: {g!r}")


def _block_matrix(support: list[int], gates: list) -> np.ndarray:
    """Product of consecutive gates as one matrix on `support` (first qubit is the MSB)."""
    if len(gates) == 1:
        return _gate_matrix(gates[0])  # its support is its own qubit order
    m = len(support)
    pos = {q: i for i, q in enumerate(support)}
    # rows on the first m axes, columns on the last: gates act on the rows
    t = np.eye(2**m, dtype=complex).reshape([2] * m + [2**m])
    for g in gates:
        t = _contract(t, _gate_matrix(g), [pos[q] for q in g.qubits])
    return t.reshape(2**m, 2**m)


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


def simulate_circuit(circuit: Circuit, initial: Statevector | None = None) -> tuple[Statevector, list[Measure]]:
    """Run the circuit; return the state and the markers left to post-select.

    Without `initial` the register starts empty: a qubit gets its |0> axis
    when the first block that touches it is applied, and the qubits no gate
    touches join at the end, so the state returned always holds the whole
    register, in qubit order.  The size cap is checked on the register
    width before anything is allocated.  `initial` is not modified: its
    amplitudes are copied at the first write.

    Consecutive gates are fused greedily into blocks of at most FUSE_WIDTH
    qubits, and each block is applied to the state once.  A marker whose
    qubit a later gate reuses is projected on its expected outcome before
    that gate: the block built so far is applied, then every such pending
    marker is projected, all in one pass, and `tracked_norm_sq` carries
    their joint probability; an impossible outcome names the first marker,
    in circuit order, whose probability given the ones before it is below
    PROB_FLOOR.  A marker that no later gate touches does not end a
    block; it is returned, unprojected, in circuit order.
    """
    n = _checked_width(circuit.n_qubits)
    if initial is not None and initial.n_qubits != n:
        raise ValueError("initial state size mismatch")
    # The state shares the caller's amplitudes until its first write, which
    # copies them: blocks and projections work in place.
    state = None if initial is None else Statevector(n, initial.amps, initial.tracked_norm_sq)
    live = [] if initial is None else list(range(n))  # the qubits with an axis, in order

    def writable() -> Statevector:
        nonlocal state
        if initial is not None and state.amps is initial.amps:
            state = state.copy()
        return state

    def apply(mat: np.ndarray, qubits) -> None:
        """Apply `mat` on `qubits`; a qubit not yet live joins the state in |0>."""
        nonlocal state
        new = [q for q in qubits if q not in live]
        live.extend(new)
        live.sort()
        if state is None:
            state, new = Statevector.zero(len(live)), []
        writable().apply_unitary(mat, [live.index(q) for q in qubits], new_qubits=[live.index(q) for q in new])

    def make_live(qubits) -> None:
        for q in qubits:
            if q not in live:
                apply(_IDENTITY_1Q, [q])

    reused = _reused_markers(circuit.gates)
    markers: list[Measure] = []
    pending: list[Measure] = []
    support: list[int] = []
    block: list = []
    for i, g in enumerate(circuit.gates):
        if isinstance(g, Measure):
            (pending if i in reused else markers).append(g)
            continue
        if any(m.qubit in g.qubits for m in pending):
            if block:
                apply(_block_matrix(support, block), support)
                support, block = [], []
            make_live([m.qubit for m in pending])
            axes = [live.index(m.qubit) for m in pending]
            try:
                writable().project_qubits(axes, [m.expect for m in pending])
            except ImpossibleOutcomeError as exc:
                m = pending[exc.index]
                exc.args = (f"marker on qubit {m.qubit} (state axis {axes[exc.index]}): {exc}",)
                raise
            pending = []
        grown = support + [q for q in g.qubits if q not in support]
        if len(grown) > FUSE_WIDTH and block:
            apply(_block_matrix(support, block), support)
            grown, block = list(g.qubits), []
        support = grown
        block.append(g)
    if block:
        apply(_block_matrix(support, block), support)
    if state is None:  # no gate at all
        return Statevector.zero(n), markers
    make_live(range(n))  # the qubits no gate touched
    return state, markers


def post_select(state: Statevector, markers, keep) -> tuple[float, Statevector]:
    """Post-select every marker on its expected outcome and keep the `keep` qubits.

    Takes the slice of `state` where every marker qubit holds its expected
    value, in one pass.  The probability is the slice's share of the norm
    times the state's `tracked_norm_sq`, so it also covers the markers
    simulate_circuit projected mid-circuit.  Any other qubit not in `keep`
    (an ancilla a SWAP moved after its projection, an idle qubit) must hold
    one definite value, and is dropped on it.  Returns the renormalized
    state of the `keep` qubits, in the order given; `state` is unchanged.
    """
    expect: dict[int, int] = {}
    for m in markers:
        if expect.setdefault(m.qubit, m.expect) != m.expect:
            raise ImpossibleOutcomeError(f"qubit {m.qubit} is post-selected on both outcomes")
    n = state.n_qubits
    keep = list(keep)
    if len(set(keep)) != len(keep) or not set(keep) <= set(range(n)):
        raise ValueError(f"keep {keep} must list distinct qubits of the {n}-qubit state")
    both = sorted(set(keep) & set(expect))
    if both:
        raise ValueError(f"qubits {both} are both kept and post-selected")
    kept = state.amps.reshape([2] * n)[tuple(expect.get(q, slice(None)) for q in range(n))]
    kept_sq = float(np.vdot(kept, kept).real)
    prob = kept_sq / float(np.vdot(state.amps, state.amps).real)
    if prob < PROB_FLOOR:
        raise ImpossibleOutcomeError(f"markers on qubits {sorted(expect)} have joint probability {prob:.3e}")
    free = [q for q in range(n) if q not in expect]  # the axes of `kept`
    where = []
    for axis, q in enumerate(free):
        if q in keep:
            where.append(slice(None))
            continue
        n0, n1 = (np.linalg.norm(kept[(slice(None),) * axis + (b,)]) for b in (0, 1))
        if min(n0, n1) > 1e-8 * max(n0, n1):
            raise ValueError(f"qubit {q} is neither kept nor post-selected, and is in superposition")
        where.append(0 if n0 >= n1 else 1)
    left = [q for q in free if q in keep]  # the axes of `kept` after dropping the others
    amps = np.transpose(kept[tuple(where)], [left.index(q) for q in keep]) / math.sqrt(kept_sq)
    norm_sq = state.tracked_norm_sq * prob
    return norm_sq, Statevector(len(keep), amps.reshape(-1), norm_sq)


def circuit_to_json_dict(circuit: Circuit) -> dict:
    """Tagged-record dump of a circuit; matrices as [re, im] entry pairs."""
    gates = []
    for g in circuit.gates:
        if isinstance(g, CNot):
            gates.append({"kind": "cnot", "control": g.control, "target": g.target})
        elif isinstance(g, U1Q):
            gates.append(
                {"kind": "u1q", "theta": g.theta, "phi": g.phi, "lam": g.lam,
                 "qubit": g.qubit, "label": g.label}
            )
        elif isinstance(g, Opaque):
            gates.append(
                {
                    "kind": "opaque",
                    "label": g.label,
                    "qubits": list(g.qubits),
                    "matrix": [[[v.real, v.imag] for v in row] for row in g.matrix],
                    "cnot_cost": dict(g.cnot_cost),
                    "cnot_depth": dict(g.cnot_depth),
                }
            )
        elif isinstance(g, Measure):
            gates.append(
                {"kind": "measure", "qubit": g.qubit, "expect": g.expect,
                 "creg": g.creg, "retry_reset": list(g.retry_reset)}
            )
        else:
            raise TypeError(f"unknown gate {g!r}")
    return {"n_qubits": circuit.n_qubits, "gates": gates, "metadata": dict(circuit.metadata)}


def circuit_from_json_dict(doc: dict) -> Circuit:
    circ = Circuit(int(doc["n_qubits"]), metadata=dict(doc.get("metadata", {})))
    for rec in doc["gates"]:
        kind = rec["kind"]
        if kind == "cnot":
            circ.add(CNot(rec["control"], rec["target"]))
        elif kind == "u1q":
            circ.add(U1Q(rec["theta"], rec["phi"], rec["lam"], rec["qubit"], rec.get("label", "")))
        elif kind == "opaque":
            mat = np.array([[complex(re, im) for re, im in row] for row in rec["matrix"]])
            circ.add(Opaque(rec["label"], tuple(rec["qubits"]), mat,
                            dict(rec.get("cnot_cost", {})), dict(rec.get("cnot_depth", {}))))
        elif kind == "measure":
            circ.add(Measure(rec["qubit"], rec["expect"], rec.get("creg", 0),
                             tuple(rec.get("retry_reset", ()))))
        else:
            raise ValueError(f"unknown gate record kind {kind!r}")
    return circ


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Full matrix of a measurement-free circuit (small registers only).

    Applies the gates one by one, unfused.
    """
    n = circuit.n_qubits
    if n > 12:
        raise ValueError("circuit_unitary capped at 12 qubits")
    dim = 2**n
    mat = np.eye(dim, dtype=complex)
    for col in range(dim):
        vec = np.zeros(dim, dtype=complex)
        vec[col] = 1.0
        sv = Statevector(n, vec)
        for g in circuit.gates:
            if isinstance(g, Measure):
                raise ValueError("circuit_unitary does not support measurement markers")
            sv.apply_unitary(_gate_matrix(g), g.qubits)
        mat[:, col] = sv.amps
    return mat

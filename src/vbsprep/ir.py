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

from .errors import MissingCostError, NonUnitaryError
from .statesim import Statevector, _contract

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


def simulate_circuit(circuit: Circuit, initial: Statevector | None = None) -> tuple[Statevector, list[Measure]]:
    """Run all unitary gates; measurement markers are collected, not applied.

    Consecutive gates are fused greedily into blocks of at most FUSE_WIDTH
    qubits, and each block is applied to the state once.  Markers do not
    end a block: none is applied here.
    """
    state = initial.copy() if initial is not None else Statevector.zero(circuit.n_qubits)
    if state.n_qubits != circuit.n_qubits:
        raise ValueError("initial state size mismatch")
    markers: list[Measure] = []
    support: list[int] = []
    block: list = []
    for g in circuit.gates:
        if isinstance(g, Measure):
            markers.append(g)
            continue
        grown = support + [q for q in g.qubits if q not in support]
        if len(grown) > FUSE_WIDTH and block:
            state.apply_unitary(_block_matrix(support, block), support)
            grown, block = list(g.qubits), []
        support = grown
        block.append(g)
    if block:
        state.apply_unitary(_block_matrix(support, block), support)
    return state, markers


def post_select(state: Statevector, markers) -> tuple[float, Statevector]:
    """Project every marker qubit on its expected outcome; joint probability.

    Projects one copy in place; `state` itself is left unchanged.
    """
    out = state.copy()
    prob = 1.0
    for m in markers:
        prob *= out.project_qubit(m.qubit, m.expect)
    return prob, out


def success_probability(state: Statevector, markers) -> float:
    """Joint probability of all markers reading their expected outcome."""
    prob, _ = post_select(state, markers)
    return prob


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

    Applies the gates one by one, unfused; tests use it as the reference
    for the gate fusion in simulate_circuit.
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

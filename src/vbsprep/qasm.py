"""OpenQASM 2.0 emission and a parser for this package's own output.

Two modes: `structural` keeps multi-qubit blocks as opaque declarations;
`basis` expands every block through its registered CNOT + u3 expansion and
fails if a block has none.  Post-selection expectations are emitted as
`// post-select c[k] == v` comments, which the bundled parser understands.
"""
from __future__ import annotations

import re

import numpy as np

from .builders import fredkin_fragment
from .errors import ConfigError, UnsupportedError
from .ir import CNot, Circuit, Measure, Opaque, U1Q, u_z

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";'


def _fmt(x: float) -> str:
    return repr(float(x))


def expand_opaque(gate: Opaque) -> list:
    """Registered basis expansions for the blocks with textbook circuits."""
    label = gate.label
    if label == "cswap":
        c, a, b = gate.qubits
        return fredkin_fragment(c, a, b).gates
    if label.startswith("ctrl_exp_sym_2"):
        anc, qa, qb = gate.qubits
        sub = Circuit(max(gate.qubits) + 1)
        sub.add(u_z(anc))
        fredkin_fragment(anc, qa, qb, sub)
        return sub.gates
    if label.startswith("bond_displacement"):
        out = []
        q = gate.qubits
        # three swaps: (q0,q1), (q2,q3), (q1,q2) in local order
        for a, b in ((q[0], q[1]), (q[2], q[3]), (q[1], q[2])):
            out.extend([CNot(a, b), CNot(b, a), CNot(a, b)])
        return out
    raise UnsupportedError(f"no registered basis expansion for opaque {label!r}")


def emit_qasm(circuit: Circuit, mode: str = "structural") -> str:
    if mode not in ("structural", "basis"):
        raise ConfigError(f"unknown QASM mode {mode!r}")
    gates: list = []
    if mode == "basis":
        for g in circuit.gates:
            if isinstance(g, Opaque):
                gates.extend(expand_opaque(g))
            else:
                gates.append(g)
    else:
        gates = list(circuit.gates)

    lines = [HEADER, f"qreg q[{circuit.n_qubits}];"]
    n_measures = sum(1 for g in gates if isinstance(g, Measure))
    if n_measures:
        lines.append(f"creg c[{n_measures}];")

    declared: dict[str, int] = {}
    for g in gates:
        if isinstance(g, Opaque) and g.label not in declared:
            declared[g.label] = len(g.qubits)
    for label, nq in declared.items():
        args = ", ".join(f"a{i}" for i in range(nq))
        lines.append(f"opaque {label} {args};")

    for g in gates:
        if isinstance(g, CNot):
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif isinstance(g, U1Q):
            lines.append(f"u3({_fmt(g.theta)},{_fmt(g.phi)},{_fmt(g.lam)}) q[{g.qubit}];")
        elif isinstance(g, Opaque):
            qs = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.label} {qs};")
        elif isinstance(g, Measure):
            lines.append(f"measure q[{g.qubit}] -> c[{g.creg}];")
            lines.append(f"// post-select c[{g.creg}] == {g.expect}")
        else:
            raise TypeError(f"unknown gate {g!r}")
    return "\n".join(lines) + "\n"


_RE_QREG = re.compile(r"qreg\s+q\[(\d+)\];")
_RE_CX = re.compile(r"cx\s+q\[(\d+)\],\s*q\[(\d+)\];")
_RE_U3 = re.compile(r"u3\(([^,]+),([^,]+),([^)]+)\)\s+q\[(\d+)\];")
_RE_MEASURE = re.compile(r"measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\];")
_RE_POST = re.compile(r"//\s*post-select\s+c\[(\d+)\]\s*==\s*(\d)")
_RE_OPAQUE_DECL = re.compile(r"opaque\s+(\w+)\s+([^;]*);")
_RE_OPAQUE_USE = re.compile(r"(\w+)\s+((?:q\[\d+\],?\s*)+);")


def parse_qasm(text: str, opaque_matrices: dict[str, np.ndarray] | None = None) -> Circuit:
    """Parse this package's own emission back into a Circuit.

    Structural-mode opaque uses need their matrices supplied via
    `opaque_matrices` to be simulatable; without them the gate list still
    parses (matrix defaults to identity so structure checks can run).
    """
    opaque_matrices = opaque_matrices or {}
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "OPENQASM 2.0;":
        raise ConfigError("missing OPENQASM 2.0 header")
    if lines[1] != 'include "qelib1.inc";':
        raise ConfigError("missing qelib1 include")

    n_qubits = None
    declared: dict[str, int] = {}
    gates: list = []
    expects: dict[int, int] = {}
    pending_measures: list[tuple[int, int]] = []

    for ln in lines[2:]:
        if m := _RE_POST.match(ln):
            expects[int(m.group(1))] = int(m.group(2))
            continue
        if ln.startswith("//"):
            continue
        if m := _RE_QREG.match(ln):
            n_qubits = int(m.group(1))
            continue
        if ln.startswith("creg"):
            continue
        if m := _RE_OPAQUE_DECL.match(ln):
            declared[m.group(1)] = len([a for a in m.group(2).split(",") if a.strip()])
            continue
        if m := _RE_CX.match(ln):
            gates.append(CNot(int(m.group(1)), int(m.group(2))))
            continue
        if m := _RE_U3.match(ln):
            th, ph, lam, q = float(m.group(1)), float(m.group(2)), float(m.group(3)), int(m.group(4))
            gates.append(U1Q(th, ph, lam, q))
            continue
        if m := _RE_MEASURE.match(ln):
            pending_measures.append((int(m.group(1)), int(m.group(2))))
            gates.append(("measure", int(m.group(1)), int(m.group(2))))
            continue
        if m := _RE_OPAQUE_USE.match(ln):
            label = m.group(1)
            qs = tuple(int(x) for x in re.findall(r"q\[(\d+)\]", m.group(2)))
            if label not in declared:
                raise ConfigError(f"use of undeclared gate {label!r}")
            if len(qs) != declared[label]:
                raise ConfigError(f"gate {label!r} arity mismatch")
            mat = opaque_matrices.get(label)
            if mat is None:
                mat = np.eye(2 ** len(qs))
            gates.append(Opaque(label, qs, mat))
            continue
        raise ConfigError(f"unparsed line: {ln!r}")

    if n_qubits is None:
        raise ConfigError("missing qreg declaration")
    circ = Circuit(n_qubits)
    for g in gates:
        if isinstance(g, tuple) and g[0] == "measure":
            _, q, creg = g
            circ.add(Measure(q, expects.get(creg, 1), creg))
        else:
            circ.add(g)
    return circ

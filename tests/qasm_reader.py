"""A reader for vbsprep's own OpenQASM 2.0 emission, so that tests can simulate emitted text.

It understands exactly what `vbsprep.qasm.emit_qasm` writes, the
`// post-select c[k] == v` comments included.
"""
from __future__ import annotations

import re

import numpy as np

from vbsprep.errors import ConfigError
from vbsprep.ir import CNot, Circuit, Measure, Opaque, U1Q


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

"""OpenQASM 2.0 emission.

Two modes: `structural` keeps multi-qubit blocks as opaque declarations;
`basis` expands every block through its registered CNOT + u3 expansion and
fails if a block has none.  Both write a SWAP as its three CNOTs.
Post-selection expectations are emitted as `// post-select c[k] == v`
comments.  The package reads no QASM back.
"""
from __future__ import annotations

from .builders import fredkin_fragment
from .errors import ConfigError, UnsupportedError
from .ir import CNot, Circuit, Measure, Opaque, Swap, U1Q, u_z

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
        q = gate.qubits
        # three swaps: (q0,q1), (q2,q3), (q1,q2) in local order
        return [c for pair in ((q[0], q[1]), (q[2], q[3]), (q[1], q[2])) for c in Swap(pair).cnots()]
    raise UnsupportedError(f"no registered basis expansion for opaque {label!r}")


def emit_qasm(circuit: Circuit, mode: str = "structural") -> str:
    if mode not in ("structural", "basis"):
        raise ConfigError(f"unknown QASM mode {mode!r}")
    gates: list = []
    for g in circuit.gates:
        if isinstance(g, Swap):
            gates.extend(g.cnots())
        elif mode == "basis" and isinstance(g, Opaque):
            gates.extend(expand_opaque(g))
        else:
            gates.append(g)

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

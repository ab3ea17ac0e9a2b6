"""Closed-form norms, Monte-Carlo estimators, table reproduction, and the
JSON report structure."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .builders import mitigated_islands_circuit, probabilistic_method_circuit
from .errors import ConfigError, UnsupportedError
from .ir import Circuit, cnot_depth
from .lattice import BOUNDARY_OPEN, BOUNDARY_RING, assign_qubits, build_chain, build_three_link_pair
from .routing import heavy_hex_pair
from .spinops import symmetric_fraction
from .statesim import sample_indices


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def vbs_norm(n_sites: int, boundary: str, boundary_spins=("up", "up")) -> float:
    """Squared norm of the symmetrized bond-product state of a spin-1 chain.

    Exact closed forms for rings and for open chains with aligned or
    anti-aligned end spins.  `boundary` is a lattice boundary name:
    BOUNDARY_RING or BOUNDARY_OPEN.
    """
    p, q = 0.75, -0.25
    if boundary == BOUNDARY_RING:
        return p**n_sites + 3 * q**n_sites
    if boundary == BOUNDARY_OPEN:
        aligned = boundary_spins[0] == boundary_spins[1]
        return p**n_sites - q**n_sites if aligned else p**n_sites + q**n_sites
    raise ConfigError(f"unknown boundary {boundary!r}")


# ---------------------------------------------------------------------------
# printed repetition table
# ---------------------------------------------------------------------------

# Values as printed in the reference repetition table (rows: spin label and
# mitigation; columns N = 10..50).  Mixed rounding spot-checked below.
PRINTED_REPETITIONS = {
    ("s1", "unmitigated"): ("18", "315", "5,600", "99,000", "1.8e6"),
    ("s1", "mitigated"): ("4", "18", "75", "315", "1,300"),
    ("s32", "unmitigated"): ("1,000", "1e6", "1e9", "1e12", "1e15"),
    ("s32", "mitigated"): ("32", "1,000", "33,000", "1e6", "3.3e7"),
}
TABLE_N_VALUES = (10, 20, 30, 40, 50)


def _sig_figs(printed: str) -> int:
    digits = printed.replace(",", "").split("e")[0].replace(".", "").lstrip("0")
    return max(1, len(digits.rstrip("0")) if digits.rstrip("0") else 1)


def _round_sf(x: float, k: int) -> float:
    if x == 0:
        return 0.0
    mag = math.floor(math.log10(abs(x)))
    return round(x, -(mag - k + 1))


def _trunc_sf(x: float, k: int) -> float:
    if x == 0:
        return 0.0
    mag = math.floor(math.log10(abs(x)))
    scale = 10.0 ** (mag - k + 1)
    return math.floor(x / scale) * scale


def printed_value(printed: str) -> float:
    return float(printed.replace(",", ""))


def matches_printed(exact: float, printed: str) -> bool:
    """True when the printed figure is the exact value rounded or truncated
    at the printed precision."""
    k = _sig_figs(printed)
    target = printed_value(printed)
    return math.isclose(_round_sf(exact, k), target, rel_tol=1e-9) or math.isclose(
        _trunc_sf(exact, k), target, rel_tol=1e-9
    )


def repetitions_table(twice_s: int) -> list[dict]:
    """Exact and printed-format repetition counts, mitigated and not."""
    if twice_s not in (2, 3):
        raise UnsupportedError("repetition table covers 2S in {2, 3}")
    p = float(symmetric_fraction(twice_s))
    key = "s1" if twice_s == 2 else "s32"
    rows = []
    for mitigated in (False, True):
        label = "mitigated" if mitigated else "unmitigated"
        for n, printed in zip(TABLE_N_VALUES, PRINTED_REPETITIONS[(key, label)]):
            exact = (1.0 / p) ** (n / 2.0 if mitigated else n)
            rows.append(
                {
                    "twice_s": twice_s,
                    "n_sites": n,
                    "mitigated": mitigated,
                    "exact": exact,
                    "printed": printed,
                    "match": matches_printed(exact, printed),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def monte_carlo_success(probs: np.ndarray, markers, expected_p: float, shots: int, seed: int) -> tuple[float, float]:
    """Empirical all-markers-pass rate and its z-score against expected_p.

    Samples and consumes `probs`, the whole register's Born probabilities
    before the terminal markers are post-selected, as `ir.born_probabilities`
    returns them with those markers, every ancilla included (a reused
    marker was post-selected as the circuit ran, so the rate is conditioned
    on it).  A route's result holds only its data qubits, so `prepare
    --shots` runs the route's circuit again for these probabilities.
    """
    if not 0 < expected_p < 1:
        raise ConfigError("expected_p must be inside (0, 1)")
    if not markers:
        raise ConfigError("circuit has no measurement markers")
    # A shot passes when its basis index has every marker's bit at the
    # expected value; of 2^n entries, qubit q is bit n-1-q (qubit 0 is the MSB).
    mask = want = 0
    clash = False  # a qubit post-selected on both outcomes: no shot passes
    for m in markers:
        bit = probs.size >> (m.qubit + 1)
        clash |= bool(mask & bit) and bool(want & bit) != bool(m.expect)
        mask |= bit
        want |= bit * m.expect
    outcomes = sample_indices(probs, shots, seed)
    hits = 0 if clash else int(np.count_nonzero((outcomes & mask) == want))
    rate = hits / shots
    sigma = math.sqrt(expected_p * (1 - expected_p) / shots)
    return rate, (rate - expected_p) / sigma


# ---------------------------------------------------------------------------
# resource summary
# ---------------------------------------------------------------------------

TABLE_I = {
    (2, "probabilistic", "all_to_all"): 8,
    (2, "probabilistic", "linear"): 10,
    (2, "mitigated_islands", "all_to_all"): 11,
    (2, "mitigated_islands", "linear"): 17,
    (3, "probabilistic", "all_to_all"): 27,
    (3, "probabilistic", "heavy_hex"): 51,
    (3, "mitigated_islands", "all_to_all"): 45,
    (3, "mitigated_islands", "heavy_hex"): 105,
}

# Stage of each opaque block in the grid circuits; every other gate belongs
# to the first stage, the bond layer or the island stage.
_BLOCK_STAGES = {
    "bond_displacement": "displacement",
    "ctrl_exp_sym_2": "local_test",
    "ctrl_exp_sym_3": "local_test",
}


def _grid_circuit(twice_s: int, method: str, coupling: str) -> Circuit:
    """The circuit a depth-grid cell measures: the route's own builder on a
    ring of four spin-1 sites or on the spin-3/2 pair (placed on heavy-hex)."""
    if coupling == "heavy_hex":
        return heavy_hex_pair(method)[0].circuit
    lattice = build_chain(4, "ring") if twice_s == 2 else build_three_link_pair()
    builder = probabilistic_method_circuit if method == "probabilistic" else mitigated_islands_circuit
    return builder(assign_qubits(lattice))


def resource_summary(twice_s: int, method: str, coupling: str) -> dict:
    """CNOT depth of a preparation method's circuit on a coupling family,
    overall and per stage."""
    key = (twice_s, method, coupling)
    if key not in TABLE_I:
        raise UnsupportedError(f"no declared composition for {key}")
    circ = _grid_circuit(twice_s, method, coupling)
    first = "bond_layer" if method == "probabilistic" else "island_stage"
    stages: dict[str, Circuit] = {}
    for g in circ.gates:
        stage = _BLOCK_STAGES.get(getattr(g, "label", None), first)
        stages.setdefault(stage, Circuit(circ.n_qubits)).gates.append(g)
    total = cnot_depth(circ, coupling)
    return {
        "twice_s": twice_s,
        "method": method,
        "coupling": coupling,
        "stages": {name: cnot_depth(sub, coupling) for name, sub in stages.items()},
        "cnot_depth": total,
        "table_value": TABLE_I[key],
        "match": total == TABLE_I[key],
    }


def table_i_grid() -> list[dict]:
    return [resource_summary(s, m, c) for (s, m, c) in sorted(TABLE_I)]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass
class Report:
    method: str
    lattice: dict
    config: dict
    analytic: dict = field(default_factory=dict)
    simulated: dict = field(default_factory=dict)
    resources: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    # check name -> what a failure points at; printed on stderr, never in the JSON
    notes: dict = field(default_factory=dict)

    SCHEMA_VERSION = 1

    def add_check(self, name: str, expected: float, actual: float, tol: float):
        self.checks.append(
            {
                "name": name,
                "expected": float(expected),
                "actual": float(actual),
                "tol": float(tol),
                "pass": bool(abs(expected - actual) <= tol),
            }
        )

    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "schema_version": self.SCHEMA_VERSION,
            "method": self.method,
            "lattice": self.lattice,
            "config": self.config,
            "analytic": self.analytic,
            "simulated": self.simulated,
            "resources": self.resources,
            "checks": self.checks,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

"""Closed-form norms and probabilities, repetition statistics, Monte-Carlo
estimators, table reproduction, and the JSON report structure."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .builders import mitigated_islands_circuit, probabilistic_method_circuit
from .errors import ConfigError, UnsupportedError
from .ir import Circuit, cnot_depth
from .lattice import assign_qubits, build_chain, build_three_link_pair
from .routing import heavy_hex_pair_mitigated, heavy_hex_pair_probabilistic
from .spinops import SpinValue, symmetric_fraction
from .statesim import Statevector

TAIL_EPS = 1e-12


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def vbs_norm(twice_s: int, n_sites: int, boundary: str, boundary_spins=("up", "up")) -> float:
    """Squared norm of the symmetrized bond-product state.

    Spin-1 chains have exact closed forms for rings and for open chains with
    aligned or anti-aligned end spins; other spins use the asymptotic p^N.
    """
    if twice_s == 2:
        p, q = 0.75, -0.25
        if boundary in ("ring", "periodic"):
            return p**n_sites + 3 * q**n_sites
        if boundary in ("open", "open_chain"):
            aligned = boundary_spins[0] == boundary_spins[1]
            return p**n_sites - q**n_sites if aligned else p**n_sites + q**n_sites
        raise ConfigError(f"unknown boundary {boundary!r}")
    if twice_s == 3:
        return 0.5**n_sites
    return asymptotic_norm(twice_s, n_sites)


def asymptotic_norm(twice_s: int, n_sites: int) -> float:
    p = float(symmetric_fraction(twice_s))
    return p**n_sites


# ---------------------------------------------------------------------------
# repetition model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepetitionModel:
    p: float
    n_sites: int
    n_islands: int
    r_values: tuple[float, ...]            # R_1 .. R_max
    cumulative: tuple[float, ...]          # P_1 .. P_max
    expected_rounds: float
    expected_repetitions_unmitigated: float
    expected_repetitions_mitigated: float


def repetition_recursion(p: float, n_sites: int, max_rounds: int = 200) -> RepetitionModel:
    """R_n = 1 + (1-p) R_{n-1} with R_1 = 1, and P_n = (p R_n)^(islands).

    Odd site counts put ceil(N/2) sites on the retried sublattice.  The
    expected number of rounds is the exact mean of the max of that many
    independent geometric(p) draws, truncated at a 1e-12 tail.
    """
    if not 0 < p < 1:
        raise ConfigError("p must be in (0, 1)")
    islands = (n_sites + 1) // 2
    r_vals, cum = [], []
    r = 1.0
    for n in range(1, max_rounds + 1):
        if n > 1:
            r = 1.0 + (1.0 - p) * r
        r_vals.append(r)
        cum.append((p * r) ** islands)
        if 1.0 - cum[-1] < TAIL_EPS:
            break
    expected = 0.0
    prev = 0.0
    for n, c in enumerate(cum, start=1):
        expected += n * (c - prev)
        prev = c
    expected += (1.0 - prev) * (len(cum) + 1)  # negligible truncated tail

    def _power(exponent: float) -> float:
        try:
            return (1.0 / p) ** exponent
        except OverflowError:
            return math.inf

    return RepetitionModel(
        p=p,
        n_sites=n_sites,
        n_islands=islands,
        r_values=tuple(r_vals),
        cumulative=tuple(cum),
        expected_rounds=expected,
        expected_repetitions_unmitigated=_power(n_sites),
        expected_repetitions_mitigated=_power(n_sites / 2.0),
    )


def geometric_max_cdf(p: float, n_rounds: int, n_islands: int) -> float:
    """Closed form (1 - (1-p)^n)^islands; must match (p R_n)^islands."""
    return (1.0 - (1.0 - p) ** n_rounds) ** n_islands


def expected_rounds_exact(p: float, n_sites: int) -> float:
    return repetition_recursion(p, n_sites, max_rounds=4000).expected_rounds


def fit_mean_rounds(p: float, n_lo: int = 10, n_hi: int = 10_000, points: int = 25) -> dict:
    """Least-squares fit of <rounds> against log N over even N in [n_lo, n_hi].

    Returns slope/intercept for both the natural-log and log10 abscissa (the
    intercept is base-independent; only the slope rescales).
    """
    ns = sorted({int(2 * round(x / 2)) for x in np.geomspace(n_lo, n_hi, points)})
    ns = [n for n in ns if n_lo <= n <= n_hi and n >= 2]
    ys = np.array([expected_rounds_exact(p, n) for n in ns])
    ln = np.log(ns)
    slope_e, icept = np.polyfit(ln, ys, 1)
    slope_10 = slope_e * math.log(10.0)
    return {
        "n_values": ns,
        "slope_ln": float(slope_e),
        "slope_log10": float(slope_10),
        "intercept": float(icept),
    }


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


def repetitions_table(twice_s: int, n_list=TABLE_N_VALUES) -> list[dict]:
    """Exact and printed-format repetition counts, mitigated and not."""
    if twice_s not in (2, 3):
        raise UnsupportedError("repetition table covers 2S in {2, 3}")
    p = float(symmetric_fraction(twice_s))
    key = "s1" if twice_s == 2 else "s32"
    rows = []
    for mitigated in (False, True):
        label = "mitigated" if mitigated else "unmitigated"
        for n, printed in zip(n_list, PRINTED_REPETITIONS[(key, label)]):
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

def monte_carlo_success(state: Statevector, markers, expected_p: float, shots: int, seed: int) -> tuple[float, float]:
    """Empirical all-markers-pass rate and its z-score against expected_p.

    Samples `state`, the simulated circuit before post-selection (as
    `ir.simulate_circuit` returns it with its markers).
    """
    if not 0 < expected_p < 1:
        raise ConfigError("expected_p must be inside (0, 1)")
    if not markers:
        raise ConfigError("circuit has no measurement markers")
    counts = state.sample(shots, seed)
    hits = 0
    for bits, c in counts.items():
        if all(int(bits[m.qubit]) == m.expect for m in markers):
            hits += c
    rate = hits / shots
    sigma = math.sqrt(expected_p * (1 - expected_p) / shots)
    return rate, (rate - expected_p) / sigma


def sublattice_retry_simulation(n_islands: int, p: float, trials: int, seed: int) -> dict[int, int]:
    """Histogram of max-over-islands geometric(p) round counts."""
    rng = np.random.default_rng(seed)
    draws = rng.geometric(p, size=(trials, n_islands))
    rounds = draws.max(axis=1)
    values, counts = np.unique(rounds, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def retry_histogram_zscores(hist: dict[int, int], p: float, n_islands: int) -> dict[int, float]:
    """Per-round z-scores of the empirical CDF against (p R_n)^islands."""
    trials = sum(hist.values())
    out = {}
    max_round = max(hist)
    cum = 0
    for n in range(1, max_round + 1):
        cum += hist.get(n, 0)
        cdf = geometric_max_cdf(p, n, n_islands)
        var = cdf * (1 - cdf) * trials
        if var < 1e-12:
            continue
        out[n] = (cum - trials * cdf) / math.sqrt(var)
    return out


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
        pipeline = heavy_hex_pair_probabilistic if method == "probabilistic" else heavy_hex_pair_mitigated
        return pipeline()[0].circuit
    lattice = build_chain(4, "ring") if twice_s == 2 else build_three_link_pair()
    if method == "probabilistic":
        return probabilistic_method_circuit(lattice, assign_qubits(lattice, "hadamard_all"), SpinValue(twice_s))
    encoding = assign_qubits(lattice, "islands_plus_sublattice")
    return mitigated_islands_circuit(lattice, encoding, SpinValue(twice_s))


def resource_summary(twice_s: int, method: str, coupling: str) -> dict:
    """CNOT depth of a preparation method's circuit on a coupling family,
    overall and per stage."""
    if method == "lcu":
        from .symmetrize import lcu_spin2_resources

        if twice_s != 4:
            raise UnsupportedError("LCU resource summary implemented for 2S=4")
        res = lcu_spin2_resources()
        res["twice_s"] = twice_s
        return res
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

"""The paper's retry-round model: expected rounds of the retried sublattice, and a sampled histogram to test it.

With every island retried until its test passes at probability p, the
number of rounds is the max over the islands of independent geometric(p)
draws.  `repetition_recursion` gives its CDF and mean, `fit_mean_rounds`
the fit of the mean against log N, and `sublattice_retry_simulation` with
`retry_histogram_zscores` a sampled check of the CDF.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from vbsprep.errors import ConfigError

TAIL_EPS = 1e-12


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

"""Norm formulas, repetition statistics, fits, tables, Monte Carlo."""
import math

import pytest

from vbsprep.analysis import (
    Report,
    matches_printed,
    monte_carlo_success,
    repetitions_table,
    resource_summary,
    table_i_grid,
    vbs_norm,
)
from vbsprep.builders import probabilistic_method_circuit
from vbsprep.errors import ConfigError, UnsupportedError
from vbsprep.ir import born_probabilities
from vbsprep.lattice import BOUNDARY_OPEN, assign_qubits, build_chain, build_three_link_pair
from vbsprep.methods import oracle_vbs_state
from vbsprep.statesim import sample_indices
from vbsprep.symmetrize import lcu_spin2_resources

from retry_model import (
    fit_mean_rounds,
    geometric_max_cdf,
    repetition_recursion,
    retry_histogram_zscores,
    sublattice_retry_simulation,
)


def test_norm_closed_forms():
    assert abs(vbs_norm(3, "ring") - 3.0 / 8.0) < 1e-15
    assert abs(vbs_norm(2, BOUNDARY_OPEN, ("up", "up")) - 0.5) < 1e-15
    assert abs(vbs_norm(2, BOUNDARY_OPEN, ("up", "down")) - 5.0 / 8.0) < 1e-15
    with pytest.raises(ConfigError, match="unknown boundary 'open'"):  # the open chain is BOUNDARY_OPEN only
        vbs_norm(2, "open")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "boundary,spins",
    [("ring", None), (BOUNDARY_OPEN, ("up", "up")), (BOUNDARY_OPEN, ("up", "down"))],
    ids=["ring-None", "open-spins1", "open-spins2"],
)
def test_norms_match_simulation(n, boundary, spins):
    lat = build_chain(n, boundary, spins or ("up", "up"))
    _, norm = oracle_vbs_state(lat)
    assert abs(norm - vbs_norm(n, boundary, spins or ("up", "up"))) < 1e-12


def test_asymptotic_norm_converges():
    # relative finite-size term decays as (1/3)^N for the ring
    exact = vbs_norm(40, "ring")
    asym = 0.75**40
    assert abs(exact - asym) / asym < 1e-4


def test_recursion_values():
    m = repetition_recursion(0.75, 4)
    assert m.r_values[0] == 1.0
    assert abs(m.r_values[1] - 1.25) < 1e-15
    assert abs(m.r_values[-1] - 4.0 / 3.0) < 1e-9
    assert abs(m.cumulative[0] - 0.75**2) < 1e-15
    assert abs(m.expected_repetitions_unmitigated - (4.0 / 3.0) ** 4) < 1e-12


def test_recursion_p_half_first_round():
    m = repetition_recursion(0.5, 20)
    assert abs(m.cumulative[0] - 2.0**-10) < 1e-18


def test_recursion_matches_geometric_max_cdf():
    m = repetition_recursion(0.6, 7)
    for n in range(1, len(m.cumulative) + 1):
        assert abs(m.cumulative[n - 1] - geometric_max_cdf(0.6, n, 4)) < 1e-12


def test_recursion_monotone():
    m = repetition_recursion(0.3, 6)
    assert all(b >= a for a, b in zip(m.r_values, m.r_values[1:]))
    assert all(b >= a for a, b in zip(m.cumulative, m.cumulative[1:]))
    assert m.r_values[-1] <= 1.0 / 0.3 + 1e-9


def test_fit_recovers_printed_coefficients_for_spin1():
    fit = fit_mean_rounds(0.75)
    assert abs(fit["slope_ln"] - 0.71) / 0.71 < 0.10
    assert abs(fit["intercept"] - 0.49) / 0.49 < 0.10
    # base 10 is not the printed base
    assert abs(fit["slope_log10"] - 0.71) / 0.71 > 0.10


def test_fit_spin32_slope():
    fit = fit_mean_rounds(0.5)
    assert abs(fit["slope_ln"] - 1.4) / 1.4 < 0.10


def test_repetition_table_all_cells():
    rows = repetitions_table(2) + repetitions_table(3)
    assert len(rows) == 20
    assert all(r["match"] for r in rows)


def test_repetition_table_spot_values():
    rows = {(r["twice_s"], r["n_sites"], r["mitigated"]): r for r in repetitions_table(2) + repetitions_table(3)}
    assert rows[(2, 10, False)]["printed"] == "18"
    assert rows[(3, 20, False)]["printed"] == "1e6"
    assert rows[(2, 40, True)]["printed"] == "315"
    assert abs(rows[(2, 40, True)]["exact"] - (4 / 3) ** 20) < 1e-9


def test_matches_printed_rounding_rules():
    assert matches_printed(17.76, "18")
    assert matches_printed(315.34, "315")
    assert matches_printed(4.21, "4")
    assert matches_printed(2**25, "3.3e7")  # truncation case
    assert not matches_printed(99.4, "18")


def test_table_i_grid():
    grid = table_i_grid()
    assert len(grid) == 8
    assert all(row["match"] for row in grid)
    cell = resource_summary(3, "mitigated_islands", "heavy_hex")
    assert cell["cnot_depth"] == 105
    assert cell["stages"] == {"island_stage": 57, "displacement": 9, "local_test": 39}


def test_resource_summary_lcu():
    """`resources` reports lcu_spin2_resources itself: resource_summary covers the TABLE_I cells alone."""
    assert lcu_spin2_resources()["total_cnots"] == 414
    for twice_s in (2, 4):
        with pytest.raises(UnsupportedError):
            resource_summary(twice_s, "lcu", "all_to_all")
    with pytest.raises(UnsupportedError):
        resource_summary(2, "probabilistic", "heavy_hex")


def test_monte_carlo_deterministic_and_calibrated():
    lat = build_chain(2, "open", ("up", "up"))
    enc = assign_qubits(lat)
    circ = probabilistic_method_circuit(enc)
    rate1, z1 = monte_carlo_success(*born_probabilities(circ), 0.5, 100_000, seed=3)
    rate2, _ = monte_carlo_success(*born_probabilities(circ), 0.5, 100_000, seed=3)
    assert rate1 == rate2
    assert abs(z1) < 3.0


def test_monte_carlo_deterministic_circuit_rate_is_one():
    from vbsprep.ir import Circuit, Measure, u_x

    circ = Circuit(1, gates=[u_x(0), Measure(0, expect=1)])
    rate, _ = monte_carlo_success(*born_probabilities(circ), 0.5, 1000, seed=1)
    assert rate == 1.0


def test_monte_carlo_three_link_single_site():
    from vbsprep.builders import hadamard_test_fragment, pre_vbs_circuit

    lat = build_three_link_pair()
    enc = assign_qubits(lat)
    circ = pre_vbs_circuit(enc, 1)  # one ancilla: born_probabilities keeps every qubit, and an idle one never joins
    hadamard_test_fragment(0, enc, circ, enc.n_data_qubits)
    rate, z = monte_carlo_success(*born_probabilities(circ), 0.5, 100_000, seed=5)
    assert abs(z) < 3.0


def test_monte_carlo_bit_masks_count_like_bitstrings():
    from vbsprep.ir import Measure

    lat = build_chain(3, "ring")
    probs, markers = born_probabilities(probabilistic_method_circuit(assign_qubits(lat)))
    n = probs.size.bit_length() - 1
    for marks in (markers, markers + markers[:1], markers + [Measure(markers[0].qubit, 1 - markers[0].expect)],
                  [Measure(0, 1), Measure(n - 1, 0)]):
        for seed in (0, 1, 7, 12345):
            draws = [format(i, f"0{n}b") for i in sample_indices(probs.copy(), 5000, seed)]
            hits = sum(all(int(bits[m.qubit]) == m.expect for m in marks) for bits in draws)
            rate, _ = monte_carlo_success(probs.copy(), marks, 0.5, 5000, seed)
            assert rate == hits / 5000, (marks, seed)


def test_retry_simulation_statistics():
    hist = sublattice_retry_simulation(n_islands=2, p=0.75, trials=10_000, seed=9)
    zs = retry_histogram_zscores(hist, 0.75, 2)
    assert all(abs(z) < 3 for z in zs.values())
    # round-1 mass close to (3/4)^2
    assert abs(hist.get(1, 0) / 10_000 - 0.75**2) < 3 * math.sqrt(0.5625 * 0.4375 / 10_000)


def test_retry_single_island_mean():
    hist = sublattice_retry_simulation(n_islands=1, p=0.5, trials=20_000, seed=4)
    mean = sum(k * v for k, v in hist.items()) / 20_000
    assert abs(mean - 2.0) < 3 * math.sqrt(2.0 / 20_000)  # geometric mean 1/p


def test_retry_mean_rounds_matches_analytic_for_twenty_sites():
    # ten islands at p = 1/2: empirical mean within 3 sigma of the exact mean
    trials = 20_000
    hist = sublattice_retry_simulation(n_islands=10, p=0.5, trials=trials, seed=6)
    mean = sum(k * v for k, v in hist.items()) / trials
    model = repetition_recursion(0.5, 20, max_rounds=200)
    second = sum(k * k * v for k, v in hist.items()) / trials
    sd = math.sqrt(max(second - mean**2, 1e-9) / trials)
    assert abs(mean - model.expected_rounds) < 3 * sd


def test_report_serialization_is_deterministic():
    def build():
        r = Report(method="x", lattice={"name": "l"}, config={"seed": 1})
        r.analytic["v"] = 0.1234567890123
        r.add_check("c", 1.0, 1.0, 1e-9)
        return r.to_json()

    assert build() == build()
    assert '"pass": true' in build()

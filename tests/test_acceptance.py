"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances are pinned here and match the module contracts: 1e-12 for exact
algebra, 1e-10 for chained simulation, 1e-12 for routing equivalence, 3
sigma for Monte-Carlo estimates.
"""
import math
import time

import numpy as np
from vbsprep.analysis import (
    fit_mean_rounds,
    geometric_max_cdf,
    matches_printed,
    monte_carlo_success,
    repetitions_table,
    resource_summary,
    retry_histogram_zscores,
    sublattice_retry_simulation,
    table_i_grid,
    vbs_norm,
)
from vbsprep.builders import probabilistic_method_circuit
from vbsprep.ir import Opaque, cnot_count, cnot_depth, post_select, simulate_circuit
from vbsprep.lattice import (
    assign_qubits,
    build_chain,
    build_honeycomb_patch,
    build_three_link_pair,
    build_three_link_ring,
    linear_coupling,
)
from vbsprep.methods import (
    oracle_vbs_state,
    run_lcu,
    run_mitigated_islands,
    run_mitigated_retry,
    run_mps,
    run_probabilistic,
)
from vbsprep.routing import heavy_hex_pair_mitigated, heavy_hex_pair_probabilistic, route
from vbsprep.schmidt import island_prep_circuit, island_state
from vbsprep.spinops import (
    SpinValue,
    aklt_two_site_projector,
    blbq_hamiltonian_term,
    exp_minus_i_pi_symmetrizer,
    symmetric_subspace_isometry,
    symmetrizer,
    symmetrizer_from_spin_projector,
)
from vbsprep.symmetrize import (
    lcu_spin2_resources,
    permutation_swap_sequences,
    w_state_circuit,
    w_state_vector,
)

from oracle_reference import embed, expectation, fidelity

S1, S32 = SpinValue(2), SpinValue(3)


def _report(k, detail=""):
    print(f"[acceptance] criterion {k}: PASS {detail}")


def test_criterion_01_symmetrizer_algebra():
    start = time.perf_counter()
    for n in (2, 3, 4):
        s = symmetrizer(n)
        assert s.is_hermitian(1e-12)
        assert s.is_idempotent(1e-12)
        assert abs(np.trace(s.matrix).real - (n + 1)) <= 1e-12
        other = symmetrizer_from_spin_projector(n)
        assert np.max(np.abs(s.matrix - other.matrix)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"({elapsed * 1e3:.0f} ms)")


def test_criterion_02_exponential_matrices():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.max(np.abs(exp_minus_i_pi_symmetrizer(2).matrix + swap)) == 0.0

    t = 1.0 / 3.0
    expected_n3 = np.array(
        [
            [-1, 0, 0, 0, 0, 0, 0, 0],
            [0, t, -2 * t, 0, -2 * t, 0, 0, 0],
            [0, -2 * t, t, 0, -2 * t, 0, 0, 0],
            [0, 0, 0, t, 0, -2 * t, -2 * t, 0],
            [0, -2 * t, -2 * t, 0, t, 0, 0, 0],
            [0, 0, 0, -2 * t, 0, t, -2 * t, 0],
            [0, 0, 0, -2 * t, 0, -2 * t, t, 0],
            [0, 0, 0, 0, 0, 0, 0, -1],
        ]
    )
    assert np.max(np.abs(exp_minus_i_pi_symmetrizer(3).matrix - expected_n3)) <= 1e-12
    _report(2)


def _ground_energy_by_exact_diagonalization_n3() -> float:
    # projector-sum Hamiltonian of the 3-site open chain, restricted to the
    # triple-symmetric subspace of the 6-qubit embedding
    term = 2 * (aklt_two_site_projector(S1).matrix - np.eye(16) / 3.0)
    h = np.kron(term, np.eye(4)) + np.kron(np.eye(4), term)
    iso = symmetric_subspace_isometry(2)
    triple = np.kron(np.kron(iso, iso), iso)
    restricted = triple.conj().T @ h @ triple
    return float(np.linalg.eigvalsh(restricted)[0])


def test_criterion_03_ground_state_verification():
    start = time.perf_counter()
    ed_energy = _ground_energy_by_exact_diagonalization_n3()
    assert abs(ed_energy - (-4.0 / 3.0)) <= 1e-10

    proj1 = aklt_two_site_projector(S1)
    term = blbq_hamiltonian_term(1.0 / 3.0)
    cases = []
    for n in range(2, 7):
        cases.append((build_chain(n, "open", ("up", "up")), S1, proj1))
        cases.append((build_chain(n, "open", ("up", "down")), S1, proj1))
        cases.append((build_chain(n, "ring"), S1, proj1))
    cases.append((build_three_link_pair(), S32, aklt_two_site_projector(S32)))

    for lattice, s, proj in cases:
        encoding = assign_qubits(lattice, "hadamard_all")
        state = embed(oracle_vbs_state(lattice, s)[0])
        for a, b in set(lattice.links):
            qs = encoding.site_qubits[a] + encoding.site_qubits[b]
            assert np.linalg.norm(state.applied_amplitudes(proj.matrix, qs)) <= 1e-10, (lattice.name, a, b)
        if s is S1 and lattice.boundary == "open_chain":
            energy = sum(
                expectation(state, term.matrix, encoding.site_qubits[a] + encoding.site_qubits[b])
                for a, b in lattice.links
            )
            assert abs(energy - (-2.0 * (lattice.n_sites - 1) / 3.0)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"({elapsed:.1f} s)")


def test_criterion_04_success_probabilities():
    cases = [
        (build_chain(3, "ring"), 3.0 / 8.0, 11),
        (build_chain(2, "open", ("up", "up")), 0.5, 12),
        (build_chain(2, "open", ("up", "down")), 5.0 / 8.0, 13),
    ]
    for lattice, expected, seed in cases:
        result = run_probabilistic(lattice, S1)
        assert abs(result["success_probability"] - expected) <= 1e-10
        # the measured probability equals the squared norm itself
        _, norm = oracle_vbs_state(lattice, S1)
        assert abs(result["success_probability"] - norm) <= 1e-10
        rate, z = monte_carlo_success(*simulate_circuit(result["circuit"]), expected, 100_000, seed)
        assert abs(z) < 3.0, (lattice.name, rate, z)
    # seed sweep: at most one 3-sigma outlier in 20 seeds
    lat = build_chain(2, "open", ("up", "up"))
    circ = run_probabilistic(lat, S1)["circuit"]
    outliers = sum(
        1 for seed in range(20) if abs(monte_carlo_success(*simulate_circuit(circ), 0.5, 10_000, seed)[1]) >= 3.0
    )
    assert outliers < 2
    _report(4)


def test_criterion_05_route_equivalence():
    matrix = [build_honeycomb_patch(1, 1)]
    for n in range(2, 7):
        matrix.append(build_chain(n, "open", ("up", "up")))
        matrix.append(build_chain(n, "open", ("up", "down")))
        matrix.append(build_chain(n, "ring"))
    for lattice in matrix:
        oracle, _ = oracle_vbs_state(lattice, S1)
        states = {
            "probabilistic": run_probabilistic(lattice, S1)["state"],
            "lcu_sparse": run_lcu(lattice, S1, "sparse")["state"],
            "lcu_dense": run_lcu(lattice, S1, "dense")["state"],
        }
        try:
            lattice.sublattice()
        except Exception:
            pass  # odd rings admit no sublattice mitigation
        else:
            states["islands"] = run_mitigated_islands(lattice, S1)["state"]
            states["retry"] = run_mitigated_retry(lattice, S1, 17)["state"]
        if lattice.boundary == "open_chain" or (lattice.boundary == "ring" and lattice.n_sites >= 3):
            states["mps"] = run_mps(lattice, S1)["state"]
        names = sorted(states)
        for i, a in enumerate(names):
            assert states[a].spin_fidelity(oracle) >= 1 - 1e-10, (lattice.name, a)
            for b in names[i + 1 :]:
                assert fidelity(states[a], states[b]) >= 1 - 1e-10, (lattice.name, a, b)

    pair = build_three_link_pair()
    oracle_p, _ = oracle_vbs_state(pair, S32)
    pair_states = {
        "probabilistic": run_probabilistic(pair, S32)["state"],
        "lcu_sparse": run_lcu(pair, S32, "sparse")["state"],
        "islands": run_mitigated_islands(pair, S32)["state"],
        "retry": run_mitigated_retry(pair, S32, 23)["state"],
    }
    names = sorted(pair_states)
    for i, a in enumerate(names):
        assert pair_states[a].spin_fidelity(oracle_p) >= 1 - 1e-10, a
        for b in names[i + 1 :]:
            assert fidelity(pair_states[a], pair_states[b]) >= 1 - 1e-10, (a, b)

    for n in (3, 4, 5):
        prob = run_mps(build_chain(n, "ring"), S1)["success_probability"]
        assert abs(prob - 0.5) <= 1e-10
    _report(5)


def test_criterion_06_island_states():
    ref = np.array([0, 0, 0, 0.5, 0, 0.5, -1, 0, 0, -1, 0.5, 0, 0.5, 0, 0, 0]) / math.sqrt(3)
    assert np.max(np.abs(island_state(S1).amps - ref)) <= 1e-12

    for s, count, depth in ((S1, 7, 4), (S32, 35, 19)):
        circ = island_prep_circuit(s)
        sim, _ = simulate_circuit(circ)
        assert fidelity(sim, island_state(s)) >= 1 - 1e-10
        assert cnot_count(circ, "all_to_all") == count
        assert cnot_depth(circ, "all_to_all") == depth
    _report(6)


def test_criterion_07_permutation_and_lcu_resources():
    seqs = permutation_swap_sequences(4)
    counts = [len(s) for s in seqs]
    assert counts.count(0) == 1 and counts.count(1) == 6
    assert counts.count(2) == 11 and counts.count(3) == 6

    res = lcu_spin2_resources()
    assert res["cswaps"] == 46
    assert res["select_cnots"] == 322
    assert res["total_cnots"] == 2 * 46 + 322 == 414

    w24 = w_state_circuit(24)
    assert cnot_count(w24, "all_to_all") == 46

    for m in range(2, 17):
        sim, _ = simulate_circuit(w_state_circuit(m))
        assert np.max(np.abs(sim.amps - w_state_vector(m))) <= 1e-12
    _report(7)


def test_criterion_08_table_reproduction():
    grid = table_i_grid()
    assert len(grid) == 8 and all(row["match"] for row in grid)

    rows = repetitions_table(2) + repetitions_table(3)
    assert len(rows) == 20 and all(r["match"] for r in rows)

    fit = fit_mean_rounds(0.75)
    assert abs(fit["slope_ln"] - 0.71) / 0.71 < 0.10
    assert abs(fit["intercept"] - 0.49) / 0.49 < 0.10
    base = "e"
    _report(8, f"(mean-rounds fit base {base}: {fit['slope_ln']:.3f} log N + {fit['intercept']:.3f})")


def test_criterion_09_retry_statistics():
    # spin-1, N=8 chain: four retried islands at p = 3/4
    hist = sublattice_retry_simulation(n_islands=4, p=0.75, trials=10_000, seed=31)
    zs = retry_histogram_zscores(hist, 0.75, 4)
    assert zs and all(abs(z) < 3.0 for z in zs.values())

    # spin-3/2 on the 4-site coordination-3 ring: two islands at p = 1/2
    lat = build_three_link_ring(4)
    assert all(lat.coordination(s) == 3 for s in range(4))
    hist = sublattice_retry_simulation(n_islands=2, p=0.5, trials=10_000, seed=37)
    zs = retry_histogram_zscores(hist, 0.5, 2)
    assert zs and all(abs(z) < 3.0 for z in zs.values())

    # the state-level retry realization follows the same geometric law
    rounds = []
    for seed in range(40):
        rounds.extend(run_mitigated_retry(build_chain(4, "ring"), S1, seed)["rounds_used"].values())
    mean = float(np.mean(rounds))
    sigma = math.sqrt((1 - 0.75) / 0.75**2 / len(rounds))
    assert abs(mean - 4.0 / 3.0) < 4 * sigma + 0.05
    _report(9)


def test_criterion_10_routing_soundness():
    # generic routing on a linear coupling
    lat = build_chain(3, "open", ("up", "up"))
    enc = assign_qubits(lat, "hadamard_all")
    circ = probabilistic_method_circuit(lat, enc, S1)
    routed = route(circ, linear_coupling(enc.total_qubits))
    s0, m0 = simulate_circuit(circ)
    p0, s0 = post_select(s0, m0, range(enc.n_data_qubits))
    s1, m1 = simulate_circuit(routed.circuit)
    p1, s1 = post_select(s1, m1, routed.placement[: enc.n_data_qubits])
    assert fidelity(s1, s0) >= 1 - 1e-12
    assert abs(p0 - p1) <= 1e-12

    # heavy-hex pipelines: displacement overhead and composite totals
    bare, lattice, encoding = heavy_hex_pair_probabilistic()
    oracle, norm = oracle_vbs_state(lattice, S32)
    sb, mb = simulate_circuit(bare.circuit)
    pb, sb = post_select(sb, mb, bare.placement[: encoding.n_data_qubits])
    assert sb.spin_fidelity(oracle) >= 1 - 1e-12
    blocks = [g for g in bare.circuit.gates if isinstance(g, Opaque) and g.label == "bond_displacement"]
    assert len(blocks) == 1
    assert all(b.declared_count("heavy_hex") == 9 for b in blocks)
    assert cnot_depth(bare.circuit, "heavy_hex") == 1 + 9 + 41 == 51

    mit, lattice2, encoding2 = heavy_hex_pair_mitigated()
    sm, mm = simulate_circuit(mit.circuit)
    pm, sm = post_select(sm, mm, mit.placement[: encoding2.n_data_qubits])
    assert sm.spin_fidelity(oracle) >= 1 - 1e-12
    assert cnot_depth(mit.circuit, "heavy_hex") == 57 + 9 + 39 == 105
    _report(10)

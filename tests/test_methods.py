"""Cross-route equivalence: every preparation route hits the oracle state."""
import numpy as np
import pytest

from vbsprep.lattice import build_chain, build_honeycomb_patch, build_three_link_pair, build_three_link_ring
from vbsprep.methods import (
    oracle_vbs_state,
    run_lcu,
    run_mitigated_islands,
    run_mitigated_retry,
    run_mps,
    run_probabilistic,
)
from vbsprep.spinops import SpinValue

from oracle_reference import bond_product, embed, fidelity, overlap, reference_oracle

S1, S32 = SpinValue(2), SpinValue(3)


def spin1_routes(lattice, seed=13):
    routes = {
        "probabilistic": run_probabilistic(lattice, S1),
        "lcu_sparse": run_lcu(lattice, S1, "sparse"),
        "lcu_dense": run_lcu(lattice, S1, "dense"),
    }
    try:
        lattice.sublattice()
        routes["islands"] = run_mitigated_islands(lattice, S1)
        routes["retry"] = run_mitigated_retry(lattice, S1, seed)
    except Exception:
        pass
    if lattice.boundary in ("open_chain", "ring") and (
        lattice.boundary == "open_chain" or lattice.n_sites >= 3
    ):
        routes["mps"] = run_mps(lattice, S1)
    return routes


@pytest.mark.parametrize(
    "lattice",
    [
        build_chain(2, "open", ("up", "up")),
        build_chain(3, "open", ("up", "down")),
        build_chain(4, "open", ("up", "up")),
        build_chain(3, "ring"),
        build_chain(4, "ring"),
    ],
    ids=["open2", "open3anti", "open4", "ring3", "ring4"],
)
def test_spin1_routes_pairwise_equivalent(lattice):
    oracle, _ = oracle_vbs_state(lattice, S1)
    routes = spin1_routes(lattice)
    states = {name: r["state"] for name, r in routes.items()}
    for name, st in states.items():
        assert abs(st.spin_fidelity(oracle) - 1.0) < 1e-10, name
    names = sorted(states)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            assert fidelity(states[a], states[b]) >= 1 - 1e-10, (a, b)


def test_spin32_multigraph_ring_retry_route():
    from vbsprep.lattice import build_three_link_ring

    lat = build_three_link_ring(4)
    oracle, _ = oracle_vbs_state(lat, S32)
    r = run_mitigated_retry(lat, S32, seed=29)
    assert abs(r["state"].spin_fidelity(oracle) - 1.0) < 1e-10
    assert set(r["rounds_used"]) == {0, 2}  # one retried island per A site


def test_spin32_pair_routes():
    pair = build_three_link_pair()
    oracle, _ = oracle_vbs_state(pair, S32)
    results = {
        "probabilistic": run_probabilistic(pair, S32),
        "lcu_sparse": run_lcu(pair, S32, "sparse"),
        "islands": run_mitigated_islands(pair, S32),
        "retry": run_mitigated_retry(pair, S32, 21),
    }
    for name, r in results.items():
        assert abs(r["state"].spin_fidelity(oracle) - 1.0) < 1e-10, name


def test_hexagon_ring_probabilistic():
    hexagon = build_honeycomb_patch(1, 1)
    oracle, norm = oracle_vbs_state(hexagon, S1)
    r = run_probabilistic(hexagon, S1)
    assert abs(r["state"].spin_fidelity(oracle) - 1.0) < 1e-10
    assert abs(r["success_probability"] - norm) < 1e-12
    # six-site ring: same closed form as the chain ring
    assert abs(norm - (0.75**6 + 3 * 0.25**6)) < 1e-12


def test_probability_equals_squared_norm_not_its_square():
    lat = build_chain(3, "ring")
    _, norm = oracle_vbs_state(lat, S1)
    r = run_probabilistic(lat, S1)
    assert abs(r["success_probability"] - norm) < 1e-12
    assert abs(r["success_probability"] - norm**2) > 0.1


def test_retry_round_counts_follow_geometric_law():
    lat = build_chain(4, "ring")
    rounds = []
    for seed in range(60):
        r = run_mitigated_retry(lat, S1, seed)
        rounds.extend(r["rounds_used"].values())
    mean = np.mean(rounds)
    # island success probability is p = 3/4, so rounds are geometric(3/4)
    sigma = np.sqrt((1 - 0.75) / 0.75**2 / len(rounds))
    assert abs(mean - 1.0 / 0.75) < 4 * sigma + 0.05


def test_mitigated_probability_is_square_root_scale():
    # post-selection is only over half the sites
    lat = build_chain(4, "ring")
    full = run_probabilistic(lat, S1)["success_probability"]
    half = run_mitigated_islands(lat, S1)["success_probability"]
    assert half > full
    assert abs(half * (9.0 / 16.0) - full) < 1e-10  # A-sites cost (3/4)^2


def test_lcu_returns_data_qubits_only():
    lat = build_chain(5, "ring")
    r = run_lcu(lat, S1)
    assert r["state"].n_qubits == 10  # data only; peak was 12


def test_lcu_scales_to_eight_sites():
    lat = build_chain(8, "ring")
    r = run_lcu(lat, S1)
    from vbsprep.analysis import vbs_norm

    assert abs(r["success_probability"] - vbs_norm(2, 8, "ring")) < 1e-10


def test_overlap_of_normalized_state_with_bond_product():
    # <vbs~|pre-vbs> equals the square root of the squared norm
    from vbsprep.lattice import assign_qubits

    lat = build_chain(3, "ring")
    enc = assign_qubits(lat, "hadamard_all")
    pre = bond_product(enc, enc.n_data_qubits)
    psi, norm = oracle_vbs_state(lat, S1)
    amplitude = overlap(embed(psi), pre)
    assert abs(abs(amplitude) - np.sqrt(3.0 / 8.0)) < 1e-12
    assert abs(norm - 3.0 / 8.0) < 1e-12


def test_mixed_spin_patch_interior_link_annihilation():
    # boundary sites of an open patch carry the smaller spin set by their
    # coordination; the interior spin-3/2 link is still annihilated
    from vbsprep.lattice import assign_qubits
    from vbsprep.spinops import aklt_two_site_projector

    lat = build_honeycomb_patch(1, 2)
    spins = {lat.site_twice_spin(s) for s in range(lat.n_sites)}
    assert spins == {2, 3}
    enc = assign_qubits(lat, "hadamard_all")
    psi, norm = oracle_vbs_state(lat, S32)
    state = embed(psi)
    assert 0 < norm < 1
    proj = aklt_two_site_projector(S32)
    interior = [
        (a, b) for a, b in lat.links if lat.coordination(a) == 3 and lat.coordination(b) == 3
    ]
    assert interior
    for a, b in interior:
        qs = enc.site_qubits[a] + enc.site_qubits[b]
        assert np.linalg.norm(state.applied_amplitudes(proj.matrix, qs)) < 1e-10


def test_retry_circuit_carries_reset_markers():
    from vbsprep.builders import mitigated_retry_circuit
    from vbsprep.ir import Measure
    from vbsprep.lattice import assign_qubits

    lat = build_chain(4, "ring")
    enc = assign_qubits(lat, "islands_plus_sublattice")
    circ = mitigated_retry_circuit(lat, enc, S1)
    retry_markers = [g for g in circ.gates if isinstance(g, Measure) and g.retry_reset]
    assert len(retry_markers) == 2  # one per retried island
    for m in retry_markers:
        assert len(m.retry_reset) == 4  # the 4S-qubit island


@pytest.mark.parametrize(
    "lattice,s",
    [
        (build_chain(4, "ring"), S1),
        (build_chain(4, "open", ("up", "down")), S1),
        (build_three_link_pair(), S32),
        (build_three_link_ring(4), S32),
    ],
    ids=["ring4", "open4anti", "pair", "ring4_s32"],
)
def test_retry_circuit_post_selected_matches_oracle(lattice, s):
    # the retry markers reuse their ancilla, so they are projected mid-circuit
    from vbsprep.builders import mitigated_retry_circuit
    from vbsprep.ir import post_select, simulate_circuit
    from vbsprep.lattice import assign_qubits

    enc = assign_qubits(lattice, "islands_plus_sublattice")
    circ = mitigated_retry_circuit(lattice, enc, s)
    prob, state = post_select(*simulate_circuit(circ), range(enc.n_data_qubits))
    oracle, norm = oracle_vbs_state(lattice, s)
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-10
    assert abs(prob - norm) < 1e-12


def _oracle_lattices():
    """Every lattice the suite runs through the oracle, a reversed and a mixed-spin `file:` lattice."""
    import json

    from vbsprep.lattice import BOUNDARY_EXPLICIT, Lattice, lattice_from_json

    chains = [build_chain(n, "open", spins) for n in range(2, 9) for spins in (("up", "up"), ("up", "down"))]
    chains += [build_chain(n, "ring") for n in range(2, 9)]
    # sites of 2S = 1, 2 and 3: a triangle with a tail and a pendant site
    mixed = lattice_from_json(json.dumps({"sites": [0, 1, 2, 3, 4], "links": [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [1, 3]]}))
    return chains + [
        build_three_link_pair(),
        build_three_link_ring(4),
        build_three_link_ring(6),
        build_honeycomb_patch(1, 1),
        build_honeycomb_patch(1, 2),
        Lattice(4, ((1, 0), (2, 1), (3, 2), (0, 3)), BOUNDARY_EXPLICIT, name="reversed"),
        mixed,
    ]


@pytest.mark.parametrize("lattice", _oracle_lattices(), ids=lambda lat: lat.name + str(lat.boundary_spins or ""))
def test_spin_basis_oracle_embeds_to_the_direct_symmetrizer_state(lattice):
    """V psi equals the symmetrized bond product, amplitude by amplitude, and the norms agree."""
    from vbsprep.analysis import vbs_norm

    psi, norm = oracle_vbs_state(lattice, S1)
    assert psi.shape == tuple(lattice.site_twice_spin(site) + 1 for site in range(lattice.n_sites))
    reference, reference_norm = reference_oracle(lattice)
    assert np.max(np.abs(embed(psi).amps - reference.amps)) < 1e-12
    assert abs(norm - reference_norm) < 1e-12 * reference_norm
    if lattice.boundary in ("open_chain", "ring"):
        boundary = "ring" if lattice.boundary == "ring" else "open"
        assert abs(norm - vbs_norm(2, lattice.n_sites, boundary, lattice.boundary_spins or ("up", "up"))) < 1e-12


@pytest.mark.parametrize("tile", [1 << 5, 1 << 15])
def test_spin_fidelity_counts_weight_outside_the_symmetric_subspace(tile, monkeypatch):
    """A route state with leaked weight: F equals the qubit-basis fidelity against the embedded oracle."""
    from vbsprep import statesim
    from vbsprep.lattice import assign_qubits

    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(tile)
    for lattice, s in [(build_chain(5, "open", ("up", "down")), S1), (build_three_link_ring(4), S32)]:
        psi, _ = oracle_vbs_state(lattice, s)
        state = run_probabilistic(lattice, s)["state"]
        n = assign_qubits(lattice).n_data_qubits
        # singlet-like leak on the first site's qubits: antisymmetric, outside its symmetric subspace
        leak = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state.amps += 0.05 * leak
        exact = fidelity(state, embed(psi))
        assert exact < 1 - 1e-3
        assert abs(state.spin_fidelity(psi) - exact) < 1e-12


def test_lcu_builds_its_bond_layer_from_the_empty_register(monkeypatch):
    """run_lcu prepends the bond layer, and simulate_circuit gets no initial state."""
    import vbsprep.methods as methods
    from vbsprep.builders import pre_vbs_circuit
    from vbsprep.lattice import assign_qubits

    initials = []
    simulate = methods.simulate_circuit
    monkeypatch.setattr(methods, "simulate_circuit", lambda circ, initial=None: initials.append(initial) or simulate(circ, initial))
    lattice = build_chain(4, "open", ("up", "down"))
    circ = run_lcu(lattice, S1)["circuit"]
    bonds = pre_vbs_circuit(lattice, assign_qubits(lattice, "hadamard_all")).gates
    assert circ.gates[: len(bonds)] == bonds
    assert initials == [None]


def test_oracle_contraction_stops_at_the_cap(monkeypatch):
    """Every intermediate of the network is checked against 2^VBS_MAX_QUBITS amplitudes before it is built."""
    from vbsprep.errors import CapExceededError

    lattice = build_honeycomb_patch(1, 2)  # mixed spins: 104,976 amplitudes
    psi, _ = oracle_vbs_state(lattice, S32)
    monkeypatch.setenv("VBS_MAX_QUBITS", str(psi.size.bit_length() - 1))
    with pytest.raises(CapExceededError, match=r"spin-basis oracle of 'honeycomb:1:2' needs \d+ amplitudes"):
        oracle_vbs_state(lattice, S32)

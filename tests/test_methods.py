"""Cross-route equivalence: every preparation route hits the oracle state."""
import numpy as np
import pytest

from vbsprep import ir, statesim
from vbsprep.lattice import Lattice, build_chain, build_honeycomb_patch, build_three_link_pair, build_three_link_ring
from vbsprep.methods import (
    ROUTES,
    oracle_vbs_state,
    run_lcu,
    run_mitigated_islands,
    run_mitigated_retry,
    run_mps,
    run_probabilistic,
)
from vbsprep.statesim import Statevector

from oracle_reference import aklt_projector_from_product, applied_norm, bond_product, embed, fidelity, overlap, reference_oracle


def spin1_routes(lattice, seed=13):
    routes = {
        "probabilistic": run_probabilistic(lattice),
        "lcu_sparse": run_lcu(lattice),
    }
    try:
        lattice.sublattice()
        routes["islands"] = run_mitigated_islands(lattice)
        routes["retry"] = run_mitigated_retry(lattice, seed)
    except Exception:
        pass
    if lattice.boundary in ("open_chain", "ring") and (
        lattice.boundary == "open_chain" or lattice.n_sites >= 3
    ):
        routes["mps"] = run_mps(lattice)
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
    oracle, _ = oracle_vbs_state(lattice)
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
    oracle, _ = oracle_vbs_state(lat)
    r = run_mitigated_retry(lat, seed=29)
    assert abs(r["state"].spin_fidelity(oracle) - 1.0) < 1e-10
    assert set(r["rounds_used"]) == {0, 2}  # one retried island per A site


def test_spin32_pair_routes():
    pair = build_three_link_pair()
    oracle, _ = oracle_vbs_state(pair)
    results = {
        "probabilistic": run_probabilistic(pair),
        "lcu_sparse": run_lcu(pair),
        "islands": run_mitigated_islands(pair),
        "retry": run_mitigated_retry(pair, 21),
    }
    for name, r in results.items():
        assert abs(r["state"].spin_fidelity(oracle) - 1.0) < 1e-10, name


def test_hexagon_ring_probabilistic():
    hexagon = build_honeycomb_patch(1, 1)
    oracle, norm = oracle_vbs_state(hexagon)
    r = run_probabilistic(hexagon)
    assert abs(r["state"].spin_fidelity(oracle) - 1.0) < 1e-10
    assert abs(r["success_probability"] - norm) < 1e-12
    # six-site ring: same closed form as the chain ring
    assert abs(norm - (0.75**6 + 3 * 0.25**6)) < 1e-12


def test_probability_equals_squared_norm_not_its_square():
    lat = build_chain(3, "ring")
    _, norm = oracle_vbs_state(lat)
    r = run_probabilistic(lat)
    assert abs(r["success_probability"] - norm) < 1e-12
    assert abs(r["success_probability"] - norm**2) > 0.1


def test_retry_round_counts_follow_geometric_law():
    lat = build_chain(4, "ring")
    rounds = []
    for seed in range(60):
        r = run_mitigated_retry(lat, seed)
        rounds.extend(r["rounds_used"].values())
    mean = np.mean(rounds)
    # island success probability is p = 3/4, so rounds are geometric(3/4)
    sigma = np.sqrt((1 - 0.75) / 0.75**2 / len(rounds))
    assert abs(mean - 1.0 / 0.75) < 4 * sigma + 0.05


def test_mitigated_probability_is_square_root_scale():
    # post-selection is only over half the sites
    lat = build_chain(4, "ring")
    full = run_probabilistic(lat)["success_probability"]
    half = run_mitigated_islands(lat)["success_probability"]
    assert half > full
    assert abs(half * (9.0 / 16.0) - full) < 1e-10  # A-sites cost (3/4)^2


def test_lcu_returns_data_qubits_only():
    lat = build_chain(5, "ring")
    r = run_lcu(lat)
    assert r["state"].n_qubits == 10  # data only; peak was 12


def test_lcu_scales_to_eight_sites():
    lat = build_chain(8, "ring")
    r = run_lcu(lat)
    from vbsprep.analysis import vbs_norm

    assert abs(r["success_probability"] - vbs_norm(8, "ring")) < 1e-10


def test_overlap_of_normalized_state_with_bond_product():
    # <vbs~|pre-vbs> equals the square root of the squared norm
    from vbsprep.lattice import assign_qubits

    lat = build_chain(3, "ring")
    enc = assign_qubits(lat)
    pre = bond_product(enc, enc.n_data_qubits)
    psi, norm = oracle_vbs_state(lat)
    amplitude = overlap(embed(psi), pre)
    assert abs(abs(amplitude) - np.sqrt(3.0 / 8.0)) < 1e-12
    assert abs(norm - 3.0 / 8.0) < 1e-12


def test_mixed_spin_patch_interior_link_annihilation():
    # boundary sites of an open patch carry the smaller spin set by their
    # coordination; the interior spin-3/2 link is still annihilated
    from vbsprep.lattice import assign_qubits

    lat = build_honeycomb_patch(1, 2)
    spins = {lat.site_twice_spin(s) for s in range(lat.n_sites)}
    assert spins == {2, 3}
    enc = assign_qubits(lat)
    psi, norm = oracle_vbs_state(lat)
    state = embed(psi)
    assert 0 < norm < 1
    proj = aklt_projector_from_product(3)
    interior = [
        (a, b) for a, b in lat.links if lat.coordination(a) == 3 and lat.coordination(b) == 3
    ]
    assert interior
    for a, b in interior:
        qs = enc.site_qubits[a] + enc.site_qubits[b]
        assert applied_norm(state, proj, qs) < 1e-10


def test_retry_circuit_tests_each_island_once_and_returns_its_ancilla():
    from vbsprep.builders import island_qubit_groups, mitigated_retry_circuit
    from vbsprep.ir import Measure, Opaque, u_x
    from vbsprep.lattice import assign_qubits

    lat = build_chain(4, "ring")
    enc = assign_qubits(lat)
    circ = mitigated_retry_circuit(enc)
    groups = island_qubit_groups(enc)
    assert len(groups) == 2  # the two A sites' islands
    tests = [g for g in circ.gates if isinstance(g, Opaque)][: len(groups)]
    # one A-island test per island, on its site's qubits, which the island holds
    assert [g.qubits[1:] for g in tests] == [enc.site_qubits[site] for site in sorted(groups)]
    assert all(set(g.qubits[1:]) <= set(groups[site]) for g, site in zip(tests, sorted(groups)))
    markers = [i for i, g in enumerate(circ.gates) if isinstance(g, Measure)][: len(groups)]
    for test, i in zip(tests, markers):
        assert circ.gates[i].qubit == test.qubits[0]
        assert circ.gates[i + 1] == u_x(test.qubits[0])  # the ancilla returns to |0> for the next test


@pytest.mark.parametrize(
    "lattice",
    [build_chain(4, "ring"), build_chain(4, "open", ("up", "down")), build_three_link_pair(), build_three_link_ring(4)],
    ids=["ring4", "open4anti", "pair", "ring4_s32"],
)
def test_retry_circuit_post_selected_matches_oracle(lattice):
    # the retry markers reuse their ancilla, so they are projected mid-circuit
    from vbsprep.builders import mitigated_retry_circuit
    from vbsprep.ir import post_select
    from vbsprep.lattice import assign_qubits

    from oracle_reference import simulate_circuit

    enc = assign_qubits(lattice)
    circ = mitigated_retry_circuit(enc)
    prob, state = post_select(*simulate_circuit(circ), range(enc.n_data_qubits))
    oracle, norm = oracle_vbs_state(lattice)
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

    psi, norm = oracle_vbs_state(lattice)
    assert psi.shape == tuple(lattice.site_twice_spin(site) + 1 for site in range(lattice.n_sites))
    reference, reference_norm = reference_oracle(lattice)
    assert np.max(np.abs(embed(psi).amps - reference.amps)) < 1e-12
    assert abs(norm - reference_norm) < 1e-12 * reference_norm
    if lattice.boundary in ("open_chain", "ring"):
        assert abs(norm - vbs_norm(lattice.n_sites, lattice.boundary, lattice.boundary_spins or ("up", "up"))) < 1e-12


@pytest.mark.parametrize("tile", [1 << 5, 1 << 15])
def test_spin_fidelity_counts_weight_outside_the_symmetric_subspace(tile, monkeypatch):
    """A route state with leaked weight: F equals the qubit-basis fidelity against the embedded oracle."""
    from vbsprep import statesim
    from vbsprep.lattice import assign_qubits

    monkeypatch.setattr(statesim, "TILE", tile)
    rng = np.random.default_rng(tile)
    for lattice in [build_chain(5, "open", ("up", "down")), build_three_link_ring(4)]:
        psi, _ = oracle_vbs_state(lattice)
        state = run_probabilistic(lattice)["state"]
        n = assign_qubits(lattice).n_data_qubits
        # singlet-like leak on the first site's qubits: antisymmetric, outside its symmetric subspace
        leak = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state.amps += 0.05 * leak
        exact = fidelity(state, embed(psi))
        assert exact < 1 - 1e-3
        assert abs(state.spin_fidelity(psi) - exact) < 1e-12


def test_lcu_builds_its_bond_layer_from_the_empty_register(monkeypatch):
    """run_lcu prepends the bond layer, and simulate_post_selected gets no initial state."""
    import vbsprep.methods as methods
    from vbsprep.builders import pre_vbs_circuit
    from vbsprep.lattice import assign_qubits

    initials = []
    simulate = methods.simulate_post_selected
    monkeypatch.setattr(
        methods, "simulate_post_selected", lambda circ, keep, initial=None: initials.append(initial) or simulate(circ, keep)
    )
    lattice = build_chain(4, "open", ("up", "down"))
    circ = run_lcu(lattice)["circuit"]
    bonds = pre_vbs_circuit(assign_qubits(lattice), 0).gates
    assert circ.gates[: len(bonds)] == bonds
    assert initials == [None]


def test_oracle_contraction_stops_at_the_cap(monkeypatch):
    """Every intermediate of the network is checked against 2^VBS_MAX_QUBITS amplitudes before it is built."""
    from vbsprep.errors import CapExceededError

    lattice = build_honeycomb_patch(1, 2)  # mixed spins: 104,976 amplitudes
    psi, _ = oracle_vbs_state(lattice)
    monkeypatch.setenv("VBS_MAX_QUBITS", str(psi.size.bit_length() - 1))
    with pytest.raises(CapExceededError, match=r"spin-basis oracle of 'honeycomb:1:2' needs \d+ amplitudes"):
        oracle_vbs_state(lattice)


# Mixed-spin lattices: each builder reads a site's 2S from its qubits.
DIAMOND = Lattice(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)), name="diamond")  # 2S = 3, 2, 3, 2
DOUBLED_SQUARE = Lattice(4, ((0, 1), (0, 1), (1, 2), (2, 3), (3, 0)), name="doubled-square")  # 3, 3, 2, 2; bipartite


@pytest.mark.parametrize("route,n_qubits", [("probabilistic", 14), ("lcu", 16)])
def test_a_mixed_spin_lattice_runs_through_the_circuit_routes(route, n_qubits):
    """lcu: one bank of 3! ancillas (10..15); a spin-1 site post-selects only the first 2! of them."""
    assert [DIAMOND.site_twice_spin(site) for site in range(4)] == [3, 2, 3, 2]
    psi, norm = oracle_vbs_state(DIAMOND)
    result = ROUTES[route](DIAMOND, 5)
    assert result["circuit"].n_qubits == n_qubits
    if route == "lcu":
        assert sorted(m.qubit for m in result["circuit"].measures()) == sorted([*range(10, 16)] * 2 + [10, 11] * 2)
    assert abs(result["state"].spin_fidelity(psi) - 1.0) <= 1e-10
    assert abs(result["success_probability"] - norm) <= 1e-12


SWEEP_LATTICES = [f"chain:{n}:open:{flavor}" for n in range(2, 6) for flavor in ("aligned", "anti")]
SWEEP_LATTICES += ["chain:4:ring", "three-link-pair", "three-link-ring:4"]


def _circuit_route_cases():
    """(lattice, route) for every circuit route each lattice runs: mps on spin-1 chains, no island route on the diamond."""
    from vbsprep.cli import parse_lattice

    for spec in SWEEP_LATTICES:
        lattice = parse_lattice(spec)
        for route in ("probabilistic", "mitigated_islands", "mitigated_retry", "lcu", "mps"):
            if route != "mps" or lattice.uniform_twice_spin() == 2:
                yield pytest.param(lattice, route, id=f"{spec}-{route}")
    yield from (pytest.param(DIAMOND, route, id=f"diamond-{route}") for route in ("probabilistic", "lcu"))


def _pinned_markers(lattice, route, n_data):
    """The qubit of each marker, in circuit order (lcu: sorted), as each builder places its ancillas after the data."""
    import math

    if route == "probabilistic":  # site s tests on n_data + s
        return [n_data + site for site in range(lattice.n_sites)]
    if route.startswith("mitigated"):  # the i-th B site tests on n_data + i; retry's k-th A site first borrows n_data + k mod |B|
        n_b = lattice.sublattice().count("B")
        borrowed = [n_data + k % n_b for k in range(lattice.n_sites - n_b)] if route == "mitigated_retry" else []
        return borrowed + [n_data + i for i in range(n_b)]
    if route == "lcu":  # a site of 2S qubits post-selects the first (2S)! of one shared bank
        return sorted(n_data + i for site in range(lattice.n_sites) for i in range(math.factorial(lattice.site_twice_spin(site))))
    return [n_data] if lattice.boundary == "ring" else []  # mps: the ring's one ancilla


@pytest.mark.parametrize("lattice,route", _circuit_route_cases())
def test_every_circuit_route_returns_the_encoding_of_its_circuit(lattice, route):
    """The circuit is the one record of its qubits: each ancilla follows the data, is used, and sits where it always has.

    The retry route resamples its rounds and builds no circuit: its case checks `mitigated_retry_circuit`.
    """
    from vbsprep.builders import mitigated_retry_circuit
    from vbsprep.ir import Measure
    from vbsprep.lattice import assign_qubits

    if route == "mitigated_retry":
        encoding = assign_qubits(lattice)
        circuit = mitigated_retry_circuit(encoding)
    else:
        result = ROUTES[route](lattice, 3)
        encoding, circuit = result["encoding"], result["circuit"]
    n_data = encoding.n_data_qubits
    assert n_data == sum(map(lattice.site_twice_spin, range(lattice.n_sites)))
    markers = [m.qubit for m in circuit.measures()]
    assert all(q >= n_data for q in markers)
    acted_on = {q for g in circuit.gates if not isinstance(g, Measure) for q in g.qubits}  # a marker alone uses no qubit
    assert set(range(n_data, circuit.n_qubits)) <= acted_on
    pinned = _pinned_markers(lattice, route, n_data)
    assert (sorted(markers) if route == "lcu" else markers) == pinned
    assert circuit.n_qubits == max(pinned, default=n_data - 1) + 1


@pytest.mark.parametrize("route", ["mitigated_islands", "mitigated_retry"])
def test_a_mixed_spin_lattice_runs_through_the_island_routes(route):
    assert [DOUBLED_SQUARE.site_twice_spin(site) for site in range(4)] == [3, 3, 2, 2]
    psi, _ = oracle_vbs_state(DOUBLED_SQUARE)
    assert abs(ROUTES[route](DOUBLED_SQUARE, 5)["state"].spin_fidelity(psi) - 1.0) <= 1e-10


def test_a_honeycomb_patch_tests_each_site_at_its_own_spin(capsys):
    """honeycomb:1:2 mixes spin-1 edge sites and spin-3/2 bulk sites; its 32-qubit circuit is built, not simulated.

    The command line still takes one --spin for every site, so there the patch exits 2.
    """
    from vbsprep.builders import probabilistic_method_circuit
    from vbsprep.cli import EXIT_CONFIG, main
    from vbsprep.ir import Opaque
    from vbsprep.lattice import assign_qubits

    lattice = build_honeycomb_patch(1, 2)
    encoding = assign_qubits(lattice)
    circ = probabilistic_method_circuit(encoding)
    assert circ.n_qubits == 32
    tests = {g.qubits[1:]: g.label for g in circ.gates if isinstance(g, Opaque)}
    assert {lattice.coordination(site) for site in range(lattice.n_sites)} == {2, 3}
    assert tests == {encoding.site_qubits[site]: f"ctrl_exp_sym_{lattice.coordination(site)}"
                     for site in range(lattice.n_sites)}
    assert main(["verify", "--spin", "3", "--lattice", "honeycomb:1:2"]) == EXIT_CONFIG
    assert "lattice has mixed local spins 2S in [2, 3]" in capsys.readouterr().err


CHAIN_11 = build_chain(11, "open", ("up", "up"))  # 22 data qubits: 64 MB in qubits, 2.8 MB folded


def test_retry_symmetrizes_each_b_site_as_the_island_product_grows(monkeypatch):
    """No B-site symmetrizer of chain:11 acts on the whole register: each finished site folds into a spin axis.

    The widest join composes the last symmetrizer, on 9 folded sites and 4 qubits: 3^9 * 2^4 < 2^19 amplitudes.
    """
    sizes = []  # amplitudes of each join that composes an op: a bare factor joins as one column
    joined = statesim._joined
    monkeypatch.setattr(statesim, "_joined", lambda tensor, cols, axes, new, norms, dtype: sizes.extend(
        [tensor.size * 2 ** len(new)] * (cols.shape[1] > 1)) or joined(tensor, cols, axes, new, norms, dtype))
    state = run_mitigated_retry(CHAIN_11, 3)["state"]
    assert state.n_qubits == 22 and state._dims == (3,) * 11 and state.amps.size == 3**11
    assert sizes[-1] == max(sizes) == 3**9 * 2**4 < 2**19


def test_retry_product_holds_the_state_and_the_partial_before_it(monkeypatch):
    """chain:11's product allocates its last join, the fold written from it and tile scratch: under 12 MB, not 64.

    The route as a whole peaks under 12 MB too.
    """
    import tracemalloc

    peaks, grown = [], []
    product, joined = Statevector.product_of_factors, statesim._joined
    monkeypatch.setattr(statesim, "_joined", lambda *a: (lambda out: grown.append(out.nbytes) or out)(joined(*a)))

    def traced(n_qubits, factors, ops=(), sites=()):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        state = product(n_qubits, factors, ops, sites)
        peaks.append((tracemalloc.get_traced_memory()[1] - start, state.amps.nbytes))
        return state

    monkeypatch.setattr(Statevector, "product_of_factors", traced)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_mitigated_retry(CHAIN_11, 3)
        route_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    peak, nbytes = peaks[-1]
    assert nbytes == 16 * 3**11
    assert peak <= grown[-1] + grown[-1] * 3 // 4 + 4 * statesim.TILE * 16
    assert max(peak, route_peak) <= 12_000_000


CHAIN_9, CHAIN_10 = build_chain(9, "open", ("up", "up")), build_chain(10, "open", ("up", "up"))


@pytest.mark.parametrize("route", ["lcu", "retry"])
def test_a_route_makes_one_state_sized_pass_to_scale_its_state(route, monkeypatch):
    """chain:9 lcu and chain:10 retry: every norm is a tile's, and the only state-sized scale is the result's.

    lcu runs through simulate_post_selected, whose last select slices nothing:
    it hands out the run's own state, so `post_select` is never called.
    """
    norms, scales, selects = [], [], []
    norm_sq, scale, post_select = statesim._norm_sq, statesim._scale, ir.post_select
    for module in (statesim, ir):
        monkeypatch.setattr(module, "_norm_sq", lambda amps: norms.append(amps.size) or norm_sq(amps))
        monkeypatch.setattr(module, "_scale", lambda amps, factor: scales.append(amps.size) or scale(amps, factor))
    monkeypatch.setattr(ir, "post_select", lambda *a: selects.append(1) or post_select(*a))
    state = run_lcu(CHAIN_9)["state"] if route == "lcu" else run_mitigated_retry(CHAIN_10, 3)["state"]
    assert state.amps.size == (2**18 if route == "lcu" else 3**10)  # the retry state is folded
    assert max(norms) <= statesim.TILE
    assert [size for size in scales if size > statesim.TILE] == [state.amps.size]
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
    assert not selects


def test_retry_product_of_chain10_holds_the_state_the_partial_and_an_eighth(monkeypatch):
    """chain:10's product allocates its folded state, the last join it is folded from and tile scratch: 4.3 MB, not 22."""
    import tracemalloc

    peaks, partials = [], []
    product, joined = Statevector.product_of_factors, statesim._joined
    monkeypatch.setattr(statesim, "_joined", lambda *a: (lambda out: partials.append(out.nbytes) or out)(joined(*a)))

    def traced(n_qubits, factors, ops=(), sites=()):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        state = product(n_qubits, factors, ops, sites)
        peaks.append((tracemalloc.get_traced_memory()[1] - start, state.amps.nbytes))
        return state

    monkeypatch.setattr(Statevector, "product_of_factors", traced)
    tracemalloc.start()
    try:
        run_mitigated_retry(CHAIN_10, 3)
    finally:
        tracemalloc.stop()
    peak, nbytes = peaks[-1]
    assert nbytes == 16 * 3**10
    assert peak <= nbytes + partials[-1] + 4 * statesim.TILE * 16


def _assert_blocks_are_banks(circuit):
    """Declared blocks are disjoint and ordered, each ends in its markers on qubits it acts on, and every marker lies in one."""
    from vbsprep.ir import Measure

    ends = [end for block in circuit.blocks for end in block]
    assert ends == sorted(ends) and all(start < stop for start, stop in circuit.blocks)
    assert 0 <= min(ends, default=0) and max(ends, default=0) <= len(circuit.gates)
    for start, stop in circuit.blocks:
        span = circuit.gates[start:stop]
        marks = [isinstance(g, Measure) for g in span]
        assert marks == sorted(marks) and marks[-1] and not marks[0]  # gates, then the markers
        assert {g.qubit for g in span if isinstance(g, Measure)} <= {q for g in span if not isinstance(g, Measure) for q in g.qubits}
    inside = {i for start, stop in circuit.blocks for i in range(start, stop)}
    assert all(i in inside for i, g in enumerate(circuit.gates) if isinstance(g, Measure))


@pytest.mark.parametrize("lattice,route", _circuit_route_cases())
def test_every_ancilla_bank_is_a_declared_block_unrouted_and_linear_routed(lattice, route):
    """Every marker is an ancilla's (qubit >= n_data_qubits, pinned above), so every marker lies in a block.

    Routed onto a line, each block spans its gates as renamed, and the simulation maps it back through the
    Swaps it takes out onto the unrouted circuit's block.
    """
    from vbsprep.builders import mitigated_retry_circuit
    from vbsprep.ir import _Run
    from vbsprep.lattice import assign_qubits, linear_coupling
    from vbsprep.routing import route as route_onto

    circuit = mitigated_retry_circuit(assign_qubits(lattice)) if route == "mitigated_retry" else ROUTES[route](lattice, 3)["circuit"]
    assert circuit.blocks or not circuit.measures()
    _assert_blocks_are_banks(circuit)
    routed = route_onto(circuit, linear_coupling(circuit.n_qubits)).circuit
    _assert_blocks_are_banks(routed)
    assert _Run(routed).blocks == circuit.blocks


@pytest.mark.parametrize("route", ["probabilistic", "mitigated_islands"])
def test_every_ancilla_bank_is_a_declared_block_on_heavy_hex(route):
    from vbsprep.routing import heavy_hex_pair

    circuit = heavy_hex_pair(route)[0].circuit
    assert len(circuit.blocks) == len(circuit.measures())  # one test per site with an ancilla
    _assert_blocks_are_banks(circuit)

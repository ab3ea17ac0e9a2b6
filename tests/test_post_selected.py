"""simulate_post_selected: each ancilla post-selected after its last gate, against the unfused whole-register reference."""
import json

import numpy as np
import pytest

from vbsprep import ir, methods
from vbsprep.builders import mitigated_retry_circuit, probabilistic_method_circuit
from vbsprep.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, main, parse_lattice, validate_config
from vbsprep.errors import ImpossibleOutcomeError, VbsError
from vbsprep.ir import Circuit, CNot, Measure, Opaque, Swap, U1Q, post_select, simulate_post_selected, u_h, u_x
from vbsprep.lattice import assign_qubits, linear_coupling
from vbsprep.methods import ROUTES
from vbsprep.routing import heavy_hex_pair, route
from vbsprep.statesim import Statevector
from vbsprep.symmetrize import inverse_gates, w_state_circuit

from oracle_reference import gate_by_gate, simulate_circuit

LATTICES = (
    [(f"chain:{n}:open:{flavor}", 2) for n in range(2, 6) for flavor in ("aligned", "anti")]
    + [("chain:4:ring", 2), ("three-link-pair", 3), ("three-link-ring:4", 3)]
)
CIRCUIT_ROUTES = ("probabilistic", "mitigated_islands", "lcu", "mps")


def _route_circuits(spec, twice_s):
    """(name, circuit, keep) of every route circuit valid on the lattice, the retry circuit included."""
    lattice = parse_lattice(spec)
    out = []
    for name in CIRCUIT_ROUTES:
        try:
            validate_config(lattice, twice_s, name)
            result = ROUTES[name](lattice, 0)
        except VbsError:
            continue
        out.append((name, result["circuit"], range(result["encoding"].n_data_qubits)))
    if "mitigated_islands" in [name for name, _, _ in out]:
        enc = assign_qubits(lattice)
        out.append(("retry_circuit", mitigated_retry_circuit(enc), range(enc.n_data_qubits)))
    if twice_s == 2:
        enc = assign_qubits(lattice)
        routed = route(out[0][1], linear_coupling(out[0][1].n_qubits))
        out.append(("linear", routed.circuit, routed.placement[: enc.n_data_qubits]))
    return out


def _assert_same(circ, keep):
    prob, state = simulate_post_selected(circ, keep)
    ref_prob, ref = post_select(*gate_by_gate(circ), keep)
    assert abs(prob - ref_prob) <= 1e-12
    assert state.n_qubits == ref.n_qubits
    assert np.max(np.abs(state.amps - ref.amps)) <= 1e-12
    assert abs(state.tracked_norm_sq - ref.tracked_norm_sq) <= 1e-12


@pytest.mark.parametrize("spec,twice_s", LATTICES, ids=[spec for spec, _ in LATTICES])
def test_post_selected_as_it_runs_equals_post_selecting_the_whole_register(spec, twice_s):
    names = []
    for name, circ, keep in _route_circuits(spec, twice_s):
        _assert_same(circ, list(keep))
        names.append(name)
    assert {"probabilistic", "mitigated_islands", "retry_circuit"} <= set(names)


@pytest.mark.parametrize("spec,twice_s", LATTICES + [("chain:7:open:aligned", 2)],
                         ids=[spec for spec, _ in LATTICES] + ["chain:7:open:aligned"])
def test_born_probabilities_are_those_of_the_whole_register(spec, twice_s):
    """|a|^2 of the tests' `simulate_circuit`, bit for bit, where the run's carried norm is 1 at its last write.

    The lcu and retry circuits fold markers, so that norm is not 1 there:
    they agree to 1e-15 relative.  chain:7 (21 qubits) is the register
    `prepare --shots` draws from in the benchmark; a linear-routed circuit
    keeps its register in another wire order, which is reordered as a state.
    """
    if spec.startswith("chain:7"):
        lattice = parse_lattice(spec)
        circuits = [("probabilistic", probabilistic_method_circuit(assign_qubits(lattice)), None)]
    else:
        circuits = _route_circuits(spec, twice_s)
    for name, circ, _ in circuits:
        probs, markers = ir.born_probabilities(circ)
        state, expected_markers = simulate_circuit(circ)
        expected = np.abs(state.amps) ** 2
        assert markers == expected_markers
        if name in ("lcu", "retry_circuit"):
            np.testing.assert_allclose(probs, expected, rtol=1e-15, atol=0)
        else:
            assert probs.dtype == expected.dtype and np.array_equal(probs, expected), name


@pytest.mark.parametrize("method", ["probabilistic", "mitigated_islands"])
def test_heavy_hex_routed_circuits_post_select_as_they_run(method):
    routed, encoding = heavy_hex_pair(method)
    _assert_same(routed.circuit, routed.placement[: encoding.n_data_qubits])


def _peak_width(monkeypatch) -> list:
    """Spy on `Statevector._apply`, which writes every block into the state, unitary or folded; holds the widest register seen."""
    peak = [0]
    apply = Statevector._apply

    def spy(self, mat, qubits, new=(), norms=None):
        peak[0] = max(peak[0], self.n_qubits + len(new))
        return apply(self, mat, qubits, new, norms)

    monkeypatch.setattr(Statevector, "_apply", spy)
    return peak


@pytest.mark.parametrize(
    "spec,twice_s,method,register,bound",
    [
        ("chain:7:open:aligned", 2, "probabilistic", 21, 14),
        ("chain:7:ring", 2, "probabilistic", 21, 14),
        ("chain:8:open:aligned", 2, "mitigated_islands", 20, 16),
        ("chain:8:open:aligned", 2, "probabilistic", 24, 16),
        ("chain:9:open:aligned", 2, "lcu", 20, 18),
        ("chain:8:open:aligned", 2, "lcu", 18, 16),
        ("three-link-pair", 3, "lcu", 12, 6),
        ("three-link-ring:4", 3, "lcu", 18, 12),
    ],
)
def test_the_register_never_holds_every_ancilla(spec, twice_s, method, register, bound, monkeypatch):
    lattice = parse_lattice(spec)
    result = ROUTES[method](lattice, 0)
    assert result["circuit"].n_qubits == register
    peak = _peak_width(monkeypatch)
    ROUTES[method](lattice, 0)
    assert peak[0] <= bound


def _impossible_drop(n_qubits: int) -> Circuit:
    """Qubit n-1 flipped to 1 in a block applied before its marker, which expects 0; then a block that ends.

    Its marker's segment would span five other qubits, more than FUSE_WIDTH, so the qubit joins the state.
    """
    last = n_qubits - 1
    return Circuit(n_qubits, [u_x(last), CNot(last, 0), CNot(1, 2), CNot(3, 4), Measure(last, 0),
                              CNot(1, 2), CNot(2, 4), CNot(0, 3)])


def _impossible_fold(n_qubits: int) -> Circuit:
    """Qubit n-1 flipped to 1, then a marker expecting 0: it joins and is measured in one block."""
    return Circuit(n_qubits, [u_x(n_qubits - 1), Measure(n_qubits - 1, 0)] + [u_h(q) for q in range(5)])


def test_a_dropped_impossible_marker_names_its_qubit():
    # qubits 0-5 are live when the block of qubits 3, 4, 1, 2 ends, so qubit 5 sits on axis 5: dropped mid-circuit
    with pytest.raises(ImpossibleOutcomeError, match=r"markers on qubits \[5\] \(state axes \[5\]\)"):
        simulate_post_selected(_impossible_drop(6), range(5))


def test_a_folded_impossible_marker_names_its_qubit(monkeypatch):
    peak = _peak_width(monkeypatch)
    with pytest.raises(ImpossibleOutcomeError, match=r"markers on qubits \[5\] \(folded into a block, no state axis\)"):
        simulate_post_selected(_impossible_fold(6), range(5))
    assert peak[0] == 3  # the block of qubits 5, 0, 1, 2, less qubit 5


def _prepare_exits_check_failed(circuit, monkeypatch, capsys) -> None:
    monkeypatch.setattr(
        methods, "probabilistic_method_circuit", lambda encoding: circuit(encoding.n_data_qubits + encoding.lattice.n_sites)
    )
    argv = ["prepare", "--spin", "2", "--lattice", "chain:2:open:aligned", "--method", "probabilistic"]
    assert main(argv) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "error: markers on qubits [5]" in err and "Traceback" not in err


def test_a_dropped_impossible_marker_exits_check_failed(monkeypatch, capsys):
    _prepare_exits_check_failed(_impossible_drop, monkeypatch, capsys)


def test_a_folded_impossible_marker_exits_check_failed(monkeypatch, capsys):
    _prepare_exits_check_failed(_impossible_fold, monkeypatch, capsys)


def test_a_register_over_the_cap_still_exits_config(monkeypatch, capsys):
    peak = _peak_width(monkeypatch)
    argv = ["prepare", "--spin", "2", "--lattice", "chain:9:open:aligned", "--method", "probabilistic"]
    assert main(argv) == EXIT_CONFIG
    assert "n_qubits=27 outside [1, 26]" in capsys.readouterr().err
    assert peak[0] == 0  # nothing was applied


def test_untouched_qubits_never_join(monkeypatch):
    peak = _peak_width(monkeypatch)
    circ = Circuit(5, [u_h(0), CNot(0, 1), u_h(1), Measure(1, 0), Measure(4, 0)])  # 2 and 3 idle, 4 only marked
    prob, state = simulate_post_selected(circ, [0])
    assert peak[0] == 1  # qubit 1 joins and is measured in one block: it is folded into it
    assert abs(prob - 0.5) < 1e-12 and np.allclose(state.amps, [2**-0.5, 2**-0.5])
    with pytest.raises(ImpossibleOutcomeError, match="qubit 4 is post-selected on 1, but no gate touches it"):
        simulate_post_selected(Circuit(5, circ.gates[:-1] + [Measure(4, 1)]), [0])
    # with no gate and nothing kept the result is the one-amplitude state
    prob, state = simulate_post_selected(Circuit(2, [Measure(1, 0)]), [])
    assert prob == 1.0 and state.n_qubits == 0 and np.array_equal(state.amps, [1])
    # a kept qubit no gate touches joins in |0>, in the order kept
    prob, state = simulate_post_selected(Circuit(3, [u_x(2)]), [2, 0])
    assert prob == 1.0 and np.allclose(state.amps, [0, 0, 1, 0], atol=1e-15)


def test_keep_and_marker_outcomes_are_checked_before_any_block(monkeypatch):
    peak = _peak_width(monkeypatch)
    circ = Circuit(3, [u_h(0), CNot(0, 1), Measure(1, 0), Measure(1, 1), u_h(2)])
    with pytest.raises(ImpossibleOutcomeError, match="qubit 1 is post-selected on both outcomes"):
        simulate_post_selected(circ, [0])
    for keep, cause in [([0, 0], "must list distinct qubits"), ([3], "must list distinct qubits"),
                        ([1], r"qubits \[1\] are both kept and post-selected")]:
        with pytest.raises(ValueError, match=cause):
            simulate_post_selected(Circuit(3, circ.gates[:3]), keep)
    assert peak[0] == 0


def test_an_unkept_qubit_in_superposition_is_named_by_its_circuit_qubit():
    # qubit 1 never joins, so qubit 2 sits on axis 1
    with pytest.raises(VbsError, match=r"^qubit 2 \(state axis 1\) is neither kept nor post-selected"):
        simulate_post_selected(Circuit(3, [u_h(2)]), [0])


def test_reused_and_repeated_markers():
    # a reused marker is projected before its qubit's next gate; a second marker on a dropped qubit agrees
    circ = Circuit(4, [u_h(0), CNot(0, 2), u_h(2), Measure(2, 0), u_h(2), CNot(2, 1), Measure(2, 1),
                       u_h(3), CNot(1, 3), u_h(0), u_h(1), u_h(3), Measure(2, 1)])
    _assert_same(circ, [0, 1, 3])


def test_a_marker_on_a_qubit_with_no_axis_is_checked_against_the_value_it_holds():
    # qubit 2 holds |0> (no gate touched it) when its reused marker expects 1
    circ = Circuit(3, [u_h(0), Measure(2, 1), CNot(0, 2)])
    with pytest.raises(ImpossibleOutcomeError, match="marker on qubit 2 "):
        simulate_post_selected(circ, [0, 1])
    with pytest.raises(ImpossibleOutcomeError, match="marker on qubit 2 "):
        simulate_circuit(circ)
    # qubit 1 is folded into the block of qubits 0-3 on outcome 0, then a second marker expects 1
    circ = Circuit(6, [u_h(0), CNot(0, 1), Measure(1, 0), CNot(2, 3), CNot(4, 5), Measure(1, 1), CNot(1, 0)])
    with pytest.raises(ImpossibleOutcomeError, match=r"marker on qubit 1 \(no state axis\): outcome 1 on a qubit that holds 0"):
        simulate_post_selected(circ, [0, 2, 3, 4, 5])
    with pytest.raises(ImpossibleOutcomeError, match="marker on qubit 1 "):
        simulate_circuit(circ)
    # the same marker expecting 0 agrees with the value held, and the qubit rejoins in |0>
    _assert_same(Circuit(6, circ.gates[:5] + [Measure(1, 0), CNot(1, 0)]), [0, 1, 2, 3, 4, 5])


def _random_post_selected_circuit(rng, n: int) -> Circuit:
    """Lone gates on fresh qubits, ancilla tests, reused markers expecting 0 and 1, and definite outcomes."""
    def lone(q):
        return U1Q(*rng.uniform(-np.pi, np.pi, size=3), q)

    gates = []
    for _ in range(int(rng.integers(2, 9))):
        a, b = (int(q) for q in rng.permutation(n)[:2])
        kind = rng.integers(5)
        if kind == 0:  # a lone gate, held until its qubit's next multi-qubit gate
            gates += [lone(a), CNot(a, b)]
        elif kind == 1:  # an ancilla test: its marker follows the only block it joins
            gates += [u_h(a), CNot(a, b), lone(a), Measure(a, int(rng.integers(2)))]
        elif kind == 2:  # a marker, reused when a later gate touches its qubit
            gates += [Measure(a, int(rng.integers(2))), lone(a)]
        elif kind == 3:  # a flip and two CNOTs that cancel: on a fresh qubit, a marker expecting 0 is impossible
            gates += [u_x(a), CNot(b, a), CNot(b, a), Measure(a, int(rng.integers(2)))]
        else:
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            gates.append(Opaque("random", (a, b), np.linalg.qr(m)[0]))
    return Circuit(n, gates)


def test_random_circuits_post_select_as_they_run(monkeypatch):
    rng = np.random.default_rng(31)
    folds = []
    apply = ir._Run.apply
    monkeypatch.setattr(ir._Run, "apply", lambda self, mat, qubits, folded=(): folds.extend([1] * bool(folded))
                        or apply(self, mat, qubits, folded))
    kinds = {"impossible": 0, "reused 0": 0, "reused 1": 0, "folded": 0}
    for _ in range(120):
        circ = _random_post_selected_circuit(rng, int(rng.integers(3, 8)))
        reused = ir._reused_markers(circ.gates)
        keep = sorted(set(range(circ.n_qubits)) - {g.qubit for i, g in enumerate(circ.gates)
                                                    if isinstance(g, Measure) and i not in reused})
        try:
            ref_prob, ref = post_select(*gate_by_gate(circ), keep)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                simulate_post_selected(circ, keep)
            continue
        before = len(folds)
        prob, state = simulate_post_selected(circ, keep)
        assert abs(prob - ref_prob) <= 1e-12
        assert np.max(np.abs(state.amps - ref.amps)) <= 1e-12
        assert abs(state.tracked_norm_sq - ref.tracked_norm_sq) <= 1e-12
        kinds["folded"] += len(folds) > before
        for i in reused:
            kinds[f"reused {circ.gates[i].expect}"] += 1
    assert all(kinds.values()), kinds


def _random_bank_circuit(rng) -> tuple[Circuit, int]:
    """Sites that swap 2-3 data qubits under a bank of 3-6 ancillas, a bank wider than FUSE_WIDTH; and the data count.

    Each site prepares its bank in the one-hot state, swaps two of its data
    qubits under each ancilla, unprepares and marks every ancilla, mostly on
    0 and sometimes on 1, and declares that span a block.  The two banks are
    reused from site to site, and a stray CNOT inside a site may widen it
    past FUSE_WIDTH data qubits.
    """
    n_data = int(rng.integers(3, 6))
    sizes = [int(rng.integers(3, 7)), int(rng.integers(3, 5))]
    banks = [tuple(range(n_data, n_data + sizes[0])), tuple(range(n_data + sizes[0], n_data + sum(sizes)))]
    n = n_data + sum(sizes)
    gates = [U1Q(*rng.uniform(-np.pi, np.pi, size=3), q) for q in range(n_data)] + [CNot(0, 1), CNot(1, 2)]
    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        start = len(gates)
        bank = banks[int(rng.integers(2))]
        site = [int(q) for q in rng.permutation(n_data)[: int(rng.integers(2, 4))]]
        prepare = w_state_circuit(len(bank), bank, Circuit(n)).gates
        gates += prepare
        for anc in bank:
            a, b = (int(q) for q in rng.permutation(site)[:2])
            gates.append(Opaque("cswap", (anc, a, b), np.eye(8)[[0, 1, 2, 3, 4, 6, 5, 7]]))
            if rng.random() < 0.1:
                a, b = (int(q) for q in rng.permutation(n_data)[:2])
                gates.append(CNot(a, b))
        gates += inverse_gates(prepare) + [Measure(anc, int(rng.random() < 0.2)) for anc in bank]
        blocks.append((start, len(gates)))
        gates += [U1Q(*rng.uniform(-np.pi, np.pi, size=3), q) for q in site]
    return Circuit(n, gates, blocks), n_data


def test_random_ancilla_banks_wider_than_a_block_post_select_as_they_run(monkeypatch):
    rng = np.random.default_rng(2022)
    peak = _peak_width(monkeypatch)
    kinds = {"impossible": 0, "folded": 0, "joined": 0, "reused on 1": 0}
    for _ in range(40):
        circ, n_data = _random_bank_circuit(rng)
        keep = list(range(n_data))
        try:
            ref_prob, ref = post_select(*gate_by_gate(circ), keep)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                simulate_post_selected(circ, keep)
            continue
        peak[0] = 0
        prob, state = simulate_post_selected(circ, keep)
        assert abs(prob - ref_prob) <= 1e-12
        assert np.max(np.abs(state.amps - ref.amps)) <= 1e-12
        assert abs(state.tracked_norm_sq - ref.tracked_norm_sq) <= 1e-12
        kinds["folded" if peak[0] <= n_data else "joined"] += 1
        kinds["reused on 1"] += any(circ.gates[i].expect for i in ir._reused_markers(circ.gates))
    assert all(kinds.values()), kinds


def test_simulate_circuit_folds_the_reused_spin_3_2_lcu_bank_as_the_reference_projects_it():
    # simulate_post_selected on this circuit is checked by the three-link-pair row of the lattice test above
    circ = ROUTES["lcu"](parse_lattice("three-link-pair"), 0)["circuit"]
    state, markers = simulate_circuit(circ)
    ref, ref_markers = gate_by_gate(circ)
    assert markers == ref_markers
    assert np.max(np.abs(state.amps - ref.amps)) <= 1e-12
    assert abs(state.tracked_norm_sq - ref.tracked_norm_sq) <= 1e-12


def test_blocks_only_steer_fusion(monkeypatch):
    """The spin-3/2 lcu circuit with its blocks cleared, fused greedily, gives the same state and probability."""
    peak = _peak_width(monkeypatch)
    circ = ROUTES["lcu"](parse_lattice("three-link-pair"), 0)["circuit"]
    prob, state = simulate_post_selected(circ, range(6))
    assert circ.blocks and peak[0] == 6  # each bank folded into its site's block
    peak[0] = 0
    bare_prob, bare = simulate_post_selected(Circuit(circ.n_qubits, circ.gates), range(6))
    assert peak[0] > 6  # the banks joined the state
    assert abs(prob - bare_prob) <= 1e-12
    assert np.max(np.abs(state.amps - bare.amps)) <= 1e-12


def test_the_spin_3_2_lcu_route_on_six_sites_holds_only_its_data_qubits(monkeypatch, capsys):
    peak = _peak_width(monkeypatch)
    assert main(["prepare", "--spin", "3", "--lattice", "three-link-ring:6", "--method", "lcu"]) == 0
    [check] = [c for c in json.loads(capsys.readouterr().out)["checks"] if c["name"] == "fidelity_vs_oracle"]
    assert abs(check["actual"] - 1) <= 1e-12
    assert peak[0] == 18


def test_each_lcu_site_pattern_composes_its_segment_once(monkeypatch):
    composed = []
    block_matrix = ir._block_matrix
    monkeypatch.setattr(ir, "_block_matrix", lambda support, gates, columns=None: composed.append(
        (len(support), 2 ** len(support) if columns is None else columns.shape[-1])) or block_matrix(support, gates, columns))
    ROUTES["lcu"](parse_lattice("three-link-ring:4"), 0)
    # four sites, one pattern: the bank of six and the site's three qubits, only the 8 columns where the bank holds 0
    assert [c for c in composed if c[0] >= 9] == [(9, 8)]


def _with_swaps(rng, circ: Circuit) -> tuple[Circuit, list[int]]:
    """`circ` routed by hand: Swaps put in at random places, most of them right after a marker (a SWAP of
    a dropped qubit), every later gate renamed to follow, each block spanning its gates as renamed; and where
    each of its qubits ends."""
    n = circ.n_qubits
    at, on = list(range(n)), list(range(n))  # qubit -> the qubit of the new circuit holding it, and back
    gates, index = [], []  # index: each given gate's index in `gates`
    for g in circ.gates:
        index.append(len(gates))
        if isinstance(g, CNot):
            gates.append(CNot(at[g.control], at[g.target]))
        elif isinstance(g, U1Q):
            gates.append(U1Q(g.theta, g.phi, g.lam, at[g.qubit]))
        elif isinstance(g, Opaque):
            gates.append(Opaque(g.label, tuple(at[q] for q in g.qubits), g.matrix))
        else:
            gates.append(Measure(at[g.qubit], g.expect))
        if rng.random() < (0.6 if isinstance(g, Measure) else 0.2):
            a = gates[-1].qubits[0] if isinstance(g, Measure) else int(rng.integers(n))
            b = int(rng.choice([q for q in range(n) if q != a]))
            gates.append(Swap((a, b)))
            on[a], on[b] = on[b], on[a]
            at[on[a]], at[on[b]] = a, b
    return Circuit(n, gates, [(index[start], index[stop - 1] + 1) for start, stop in circ.blocks]), at


def test_random_circuits_with_swaps_match_the_reference(monkeypatch):
    rng = np.random.default_rng(25)
    joined = []
    make_live = ir._Run.make_live
    monkeypatch.setattr(ir._Run, "make_live", lambda self, qubits: joined.extend(
        self.value.get(q, 0) for q in qubits if q not in self.live) or make_live(self, qubits))
    kinds = {"impossible": 0, "bank": 0, "renamed marker": 0, "kept on 1 after its SWAP": 0}
    for trial in range(160):
        if trial % 4:
            circ, at = _with_swaps(rng, _random_post_selected_circuit(rng, int(rng.integers(3, 8))))
            reused = ir._reused_markers(circ.gates)
            keep = sorted(set(range(circ.n_qubits)) - {g.qubit for i, g in enumerate(circ.gates)
                                                        if isinstance(g, Measure) and i not in reused})
        else:
            bank, n_data = _random_bank_circuit(rng)
            circ, at = _with_swaps(rng, bank)
            keep = at[:n_data]
        try:
            ref_prob, ref = post_select(*gate_by_gate(circ), keep)
        except ImpossibleOutcomeError:
            kinds["impossible"] += 1
            with pytest.raises(ImpossibleOutcomeError):
                simulate_post_selected(circ, keep)
            continue
        del joined[:]
        prob, state = simulate_post_selected(circ, keep)
        assert abs(prob - ref_prob) <= 1e-12
        assert np.max(np.abs(state.amps - ref.amps)) <= 1e-12
        assert abs(state.tracked_norm_sq - ref.tracked_norm_sq) <= 1e-12
        whole, markers = simulate_circuit(circ)
        ref_whole, ref_markers = gate_by_gate(circ)
        assert markers == ref_markers
        assert np.max(np.abs(whole.amps - ref_whole.amps)) <= 1e-12
        kinds["bank"] += trial % 4 == 0
        run = ir._Run(circ)
        kinds["renamed marker"] += any(isinstance(g, Measure) and id(g) in run.given for g in run.gates)
        kinds["kept on 1 after its SWAP"] += 1 in joined
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("gates", [
    [CNot(0, 1)] * 3,  # CNot(a, b) three times
    [CNot(0, 1), CNot(1, 0), Measure(2, 0), CNot(0, 1)],  # a triple broken by a marker
    [CNot(0, 1), CNot(1, 0), CNot(1, 0)],
    [CNot(0, 1), CNot(1, 2), CNot(0, 1)],
    [CNot(0, 1), CNot(1, 0), CNot(0, 1)],  # a SWAP written as its CNOTs: only a Swap is renamed past
])
def test_triples_that_are_not_a_swap_are_simulated_as_gates(gates):
    circ = Circuit(3, [u_h(0), U1Q(0.3, 0.2, 0.1, 1)] + gates + [CNot(2, 0)])
    run = ir._Run(circ)
    assert (run.gates, run.wire, run.given) == (circ.gates, [0, 1, 2], {})
    _assert_same(circ, [0, 1] if any(isinstance(g, Measure) for g in gates) else [0, 1, 2])


def test_a_swap_renames_every_later_gate_and_keeps_each_opaque_matrix():
    block = Opaque("random", (1, 2), np.linalg.qr(np.arange(16).reshape(4, 4) + 1j * np.eye(4))[0])
    first, last = u_h(0), u_x(1)
    run = ir._Run(Circuit(3, [first, Swap((0, 2)), CNot(2, 1), block, Measure(0, 1, 3), last]))
    gates, wire, given = run.gates, run.wire, run.given
    assert wire == [2, 1, 0]
    assert gates[0] is first and gates[4] is last  # a gate on no moved qubit is kept as it is
    assert gates[1] == CNot(0, 1)
    assert gates[2].qubits == (1, 0) and gates[2].matrix is block.matrix
    assert gates[3] == Measure(2, 1, 3) and given[id(gates[3])] == 0


@pytest.mark.parametrize("spec", [f"chain:{n}:open:{flavor}" for n in range(3, 8) for flavor in ("aligned", "anti")]
                         + ["chain:4:ring"])
def test_a_routed_circuit_peaks_at_the_unrouted_width(spec, monkeypatch):
    peak = _peak_width(monkeypatch)
    result = ROUTES["probabilistic"](parse_lattice(spec), 0)
    unrouted, peak[0] = peak[0], 0
    encoding = result["encoding"]
    routed = route(result["circuit"], linear_coupling(result["circuit"].n_qubits))
    simulate_post_selected(routed.circuit, routed.placement[: encoding.n_data_qubits])
    assert peak[0] == unrouted


def _routed_chain4():
    result = ROUTES["probabilistic"](parse_lattice("chain:4:open:anti"), 0)
    encoding = result["encoding"]
    routed = route(result["circuit"], linear_coupling(result["circuit"].n_qubits))
    return result["circuit"], routed, routed.placement[: encoding.n_data_qubits]


def test_errors_on_a_routed_circuit_name_the_qubits_it_gives():
    circ, routed, keep = _routed_chain4()
    # the third site's ancilla, marked on qubit 10, ends on qubit 8 (SWAPs moved it): marked there again, flipped
    logical = [g for g in circ.gates if isinstance(g, Measure)][2]
    marker = [g for g in routed.circuit.gates if isinstance(g, Measure)][2]
    final = routed.placement[logical.qubit]
    assert (marker.qubit, final) == (10, 8)
    flipped = Circuit(routed.circuit.n_qubits, routed.circuit.gates + [Measure(final, 1 - marker.expect)])
    with pytest.raises(ImpossibleOutcomeError, match=r"^marker on qubit 8 \(no state axis\): outcome 0 on a qubit that holds 1"):
        simulate_post_selected(flipped, keep)
    # a data qubit left out of keep is named by the qubit that holds it at the end
    with pytest.raises(VbsError, match=rf"^qubit {keep[-1]} \(state axis 7\) is neither kept"):
        simulate_post_selected(routed.circuit, keep[:-1])


def test_a_marker_a_swap_moved_onto_a_state_axis_is_named_as_given():
    # qubit 5 flipped to 1 and swapped onto qubit 6, whose marker expects 0: dropped from its axis mid-circuit
    circ = Circuit(7, [u_x(5), CNot(5, 0), CNot(1, 2), CNot(3, 4), Swap((5, 6)), Measure(6, 0),
                   CNot(1, 2), CNot(2, 4), CNot(0, 3)])
    with pytest.raises(ImpossibleOutcomeError, match=r"^markers on qubits \[6\] \(state axes \[5\]\)"):
        simulate_post_selected(circ, range(6))

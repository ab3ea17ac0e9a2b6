"""Command-line interface: configs, exit codes, report files."""
import json
from pathlib import Path

import pytest

from vbsprep.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main, parse_lattice
from vbsprep.errors import ConfigError

from oracle_reference import bond_product, compress, embed, expectation


def test_parse_lattice_mini_language():
    assert parse_lattice("chain:4:open:aligned").boundary_spins == ("up", "up")
    assert parse_lattice("chain:4:open:anti").boundary_spins == ("up", "down")
    assert parse_lattice("chain:5:ring").n_sites == 5
    assert parse_lattice("three-link-pair").n_sites == 2
    assert parse_lattice("honeycomb:1:2").n_sites == 10
    with pytest.raises(ConfigError):
        parse_lattice("torus:3")
    with pytest.raises(ConfigError):
        parse_lattice("chain:4:open:sideways")


def test_lattice_file_loading(tmp_path):
    doc = {"sites": [0, 1], "links": [[0, 1], [0, 1], [0, 1]]}
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    lat = parse_lattice(f"file:{path}")
    assert lat.coordination(0) == 3


_PAIR = {"sites": [0, 1], "links": [[0, 1]]}


@pytest.mark.parametrize(
    "doc,cause",
    [
        ({"sites": 3, "links": [[0, 1]]}, "'sites' must be a list"),
        ({**_PAIR, "boundary": "open_chain", "boundary_spins": ["up"]}, "two boundary_spins"),
        ({**_PAIR, "boundary": "open_chain", "boundary_spins": ["sideways", "up"]}, "'sideways'"),
        ({**_PAIR, "boundary": "weird"}, "'weird'"),
        ({"sites": [0, 1, 2], "links": [[0, 1, 2]]}, "exactly two sites"),
    ],
    ids=["sites-not-a-list", "one-boundary-spin", "unknown-boundary-spin", "unknown-boundary", "three-site-link"],
)
def test_malformed_lattice_file_exits_config(tmp_path, capsys, doc, cause):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc))
    assert main(["prepare", "--spin", "2", "--lattice", f"file:{path}"]) == EXIT_CONFIG
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize(
    "links,boundary,spins,order",
    [
        ([[0, 2], [2, 1], [1, 3]], "open_chain", ["up", "up"], "0-2, 2-1, 1-3"),
        ([[0, 2], [2, 1], [1, 3], [3, 0]], "ring", None, "0-2, 2-1, 1-3, 3-0"),
    ],
    ids=["open", "ring"],
)
def test_mps_rejects_links_out_of_site_order(tmp_path, capsys, links, boundary, spins, order):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"sites": [0, 1, 2, 3], "links": links, "boundary": boundary, "boundary_spins": spins}))
    assert main(["prepare", "--spin", "2", "--lattice", f"file:{path}", "--method", "mps"]) == EXIT_CONFIG
    assert f"has the links {order}" in capsys.readouterr().err
    # the same lattice in site order is accepted
    ordered = [[i, i + 1] for i in range(3)] + ([[3, 0]] if boundary == "ring" else [])
    path.write_text(json.dumps({"sites": [0, 1, 2, 3], "links": ordered, "boundary": boundary, "boundary_spins": spins}))
    assert main(["prepare", "--spin", "2", "--lattice", f"file:{path}", "--method", "mps"]) == EXIT_OK


def test_prepare_writes_passing_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "prepare", "--spin", "2", "--lattice", "chain:4:open:aligned",
            "--method", "probabilistic", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert all(c["pass"] for c in doc["checks"])
    names = {c["name"] for c in doc["checks"]}
    assert "norm_vs_closed_form" in names and "fidelity_vs_oracle" in names


def test_prepare_lcu_pair(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["prepare", "--spin", "3", "--lattice", "three-link-pair", "--method", "lcu", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    fid = next(c for c in doc["checks"] if c["name"] == "fidelity_vs_oracle")
    assert fid["actual"] == pytest.approx(1.0, abs=1e-10)


def test_invalid_method_spin_combination(capsys):
    assert main(["prepare", "--method", "mps", "--spin", "3", "--lattice", "three-link-pair"]) == EXIT_CONFIG
    # malformed lattice specs exit 2 with the expected form, not a traceback
    for spec, form in (
        ("three-link-ring", "three-link-ring:N"),
        ("honeycomb:1", "honeycomb:R:C"),
        ("chain:4", "chain:N:ring"),
        ("chain:4:ring:aligned", "chain:N:ring"),
        ("three-link-pair:2", "expected three-link-pair"),
        # fields that must be integers
        ("chain:x:ring", "'chain:x:ring': 'x' is not an integer; expected chain:N:open[:aligned|anti] or chain:N:ring"),
        ("three-link-ring:x", "'three-link-ring:x': 'x' is not an integer; expected three-link-ring:N"),
        ("honeycomb:a:1", "'honeycomb:a:1': 'a' is not an integer; expected honeycomb:R:C"),
    ):
        capsys.readouterr()
        assert main(["prepare", "--spin", "3", "--lattice", spec]) == EXIT_CONFIG, spec
        assert form in capsys.readouterr().err, spec


def test_spin_lattice_mismatch():
    assert main(["prepare", "--spin", "3", "--lattice", "chain:3:open:aligned"]) == EXIT_CONFIG


def test_reports_are_byte_identical(tmp_path):
    argv = [
        "prepare", "--spin", "2", "--lattice", "chain:3:ring",
        "--method", "probabilistic", "--shots", "2000", "--seed", "5",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_prepare_shots_samples_the_simulated_circuit(tmp_path):
    from vbsprep.analysis import monte_carlo_success
    from vbsprep.builders import probabilistic_method_circuit
    from vbsprep.ir import simulate_circuit
    from vbsprep.lattice import assign_qubits
    from vbsprep.methods import oracle_vbs_state
    from vbsprep.spinops import SpinValue

    out = tmp_path / "r.json"
    argv = ["prepare", "--spin", "2", "--lattice", "chain:3:ring", "--method", "probabilistic",
            "--shots", "2000", "--seed", "5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    lat = parse_lattice("chain:3:ring")
    circ = probabilistic_method_circuit(lat, assign_qubits(lat, "hadamard_all"), SpinValue(2))
    _, norm_sq = oracle_vbs_state(lat, SpinValue(2))
    rate, z = monte_carlo_success(*simulate_circuit(circ), norm_sq, 2000, 5)
    assert doc["simulated"]["mc_rate"] == rate
    assert doc["simulated"]["mc_z"] == z


def test_verify_open_chain(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--spin", "2", "--lattice", "chain:5:open:aligned", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    names = {c["name"]: c for c in doc["checks"]}
    assert names["open_chain_energy"]["pass"]
    assert names["projector_annihilation"]["pass"]


def test_verify_mps_ring(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "--spin", "2", "--lattice", "chain:4:ring", "--method", "mps", "--out", str(out)])
    assert code == EXIT_OK


def test_resources_grid(tmp_path):
    out = tmp_path / "res.json"
    assert main(["resources", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    depths = {(r["twice_s"], r["method"], r["coupling"]): r["cnot_depth"] for r in doc["resources"]["depth_grid"]}
    assert depths[(2, "probabilistic", "all_to_all")] == 8
    assert depths[(3, "mitigated_islands", "heavy_hex")] == 105
    assert doc["resources"]["lcu_spin2"]["total_cnots"] == 414
    assert len(doc["resources"]["repetitions"]) == 20


def test_resources_stdout_matches_golden(capsys):
    # the depth grid comes from built circuits; its report must not move
    assert main(["resources"]) == EXIT_OK
    golden = Path(__file__).parent / "data" / "resources.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_emit_qasm_basis_and_structural(tmp_path):
    basis = tmp_path / "c.qasm"
    code = main(
        ["emit-qasm", "--spin", "2", "--lattice", "chain:2:open:aligned", "--qasm-mode", "basis", "--out", str(basis)]
    )
    assert code == EXIT_OK
    text = basis.read_text()
    assert text.startswith('OPENQASM 2.0;\ninclude "qelib1.inc";')
    assert "opaque" not in text

    structural = tmp_path / "s.qasm"
    code = main(
        ["emit-qasm", "--spin", "3", "--lattice", "three-link-pair", "--qasm-mode", "structural", "--out", str(structural)]
    )
    assert code == EXIT_OK
    assert "opaque ctrl_exp_sym_3" in structural.read_text()


def test_prepare_heavy_hex_coupling(tmp_path):
    out = tmp_path / "hh.json"
    code = main(
        [
            "prepare", "--spin", "3", "--lattice", "three-link-pair",
            "--method", "mitigated_islands", "--coupling", "heavy_hex", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["resources"]["routed_cnot_depth"] == 105
    routed = next(c for c in doc["checks"] if c["name"] == "routed_fidelity_vs_oracle")
    assert routed["pass"]


def test_prepare_linear_coupling(tmp_path):
    out = tmp_path / "lin.json"
    code = main(
        ["prepare", "--spin", "2", "--lattice", "chain:3:open:aligned", "--coupling", "linear", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert any(c["name"] == "routed_fidelity_vs_oracle" and c["pass"] for c in doc["checks"])


def test_prepare_heavy_hex_unsupported_lattice():
    from vbsprep.cli import EXIT_UNSUPPORTED

    code = main(["prepare", "--spin", "2", "--lattice", "chain:3:ring", "--coupling", "heavy_hex"])
    assert code == EXIT_UNSUPPORTED


def test_env_cap_override(tmp_path, monkeypatch):
    monkeypatch.setenv("VBS_MAX_QUBITS", "6")
    # 3-site ring needs 9 qubits with ancillas; the cap makes it fail cleanly
    code = main(["prepare", "--spin", "2", "--lattice", "chain:3:ring", "--method", "probabilistic"])
    assert code in (EXIT_CONFIG, EXIT_CHECK_FAILED)


def test_env_cap_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("VBS_MAX_QUBITS", "abc")
    assert main(["prepare", "--spin", "2", "--lattice", "chain:3:ring"]) == EXIT_CONFIG
    assert "VBS_MAX_QUBITS" in capsys.readouterr().err


def _link_lattices():
    from vbsprep.lattice import BOUNDARY_EXPLICIT, Lattice, build_chain

    return [
        (build_chain(5, "open", ("up", "down")), 2),  # contiguous runs
        (Lattice(4, ((1, 0), (2, 1), (3, 2), (0, 3)), BOUNDARY_EXPLICIT, name="reversed"), 2),  # reversed runs
        (build_chain(5, "ring"), 2),  # the ring closure (4, 0): qubits (8, 9, 0, 1)
        (parse_lattice("three-link-ring:4"), 3),  # 6-qubit spin-3/2 links, double links, closure (3, 0)
    ]


@pytest.mark.parametrize("lattice,twice_s", _link_lattices(), ids=["open", "reversed", "ring", "spin32"])
def test_link_pass_matches_direct_projector_norm_and_expectation(lattice, twice_s):
    """One application per pair gives ||P psi|| and <H> of a random, non-VBS spin-basis state.

    The reference applies the qubit-basis P and H to the state's embedding,
    V psi, on the pair's qubits.
    """
    import numpy as np

    from vbsprep.cli import _link_values
    from vbsprep.lattice import assign_qubits
    from vbsprep.spinops import SpinValue, aklt_two_site_projector, blbq_hamiltonian_term

    s = SpinValue(twice_s)
    encoding = assign_qubits(lattice, "hadamard_all")
    shape = (twice_s + 1,) * lattice.n_sites
    rng = np.random.default_rng(encoding.n_data_qubits)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    st = embed(psi)
    residuals, energies = _link_values(psi, lattice, s)
    pairs = {frozenset(link) for link in lattice.links}
    assert set(residuals) == pairs
    proj = aklt_two_site_projector(s).matrix
    term = blbq_hamiltonian_term(1.0 / 3.0).matrix
    for a, b in lattice.links:
        qs = encoding.site_qubits[a] + encoding.site_qubits[b]
        direct = np.linalg.norm(st.applied_amplitudes(proj, qs))
        assert abs(residuals[frozenset((a, b))] - direct) < 1e-12 * direct, (a, b)
        if twice_s == 2:
            assert abs(energies[frozenset((a, b))] - expectation(st, term, qs)) < 1e-12, (a, b)
    assert energies if twice_s == 2 else not energies


@pytest.mark.parametrize(
    "spec,spin,passes",
    [("chain:2:ring", 2, 1), ("chain:4:open:aligned", 2, 3), ("chain:4:ring", 2, 4),
     ("three-link-pair", 3, 1), ("three-link-ring:4", 3, 4)],
)
def test_verify_reads_each_site_pair_once(spec, spin, passes, monkeypatch, tmp_path):
    import vbsprep.cli as cli
    from vbsprep.statesim import Statevector

    calls = []
    on_pair = cli._on_pair
    monkeypatch.setattr(cli, "_on_pair", lambda psi, op, a, b: calls.append((op, a, b)) or on_pair(psi, op, a, b))
    monkeypatch.setattr(Statevector, "applied_amplitudes", lambda *a: pytest.fail("verify reads links in the spin basis"))
    argv = ["verify", "--spin", str(spin), "--lattice", spec, "--method", "lcu", "--out", str(tmp_path / "v.json")]
    assert main(argv) == EXIT_OK
    # P on every pair, and H too on spin 1
    assert len(calls) == passes * (2 if spin == 2 else 1)
    assert len({frozenset((a, b)) for _, a, b in calls}) == passes
    assert len({(id(op), frozenset((a, b))) for op, a, b in calls}) == len(calls)


def _state_with_a_broken_link(lattice, s, link: int):
    """The VBS state with one bond a triplet, in the spin basis: only that link's sites can reach spin 2S."""
    import numpy as np

    from vbsprep.lattice import assign_qubits
    from vbsprep.spinops import symmetrizer

    encoding = assign_qubits(lattice, "hadamard_all")
    state = bond_product(encoding, encoding.n_data_qubits)
    state.apply_unitary(np.array([[0, 1], [1, 0]]), (encoding.link_qubits[link][0],))
    sites = [encoding.site_qubits[site] for site in range(lattice.n_sites)]
    norm_sq = state.apply_nonunitary_sequence([(symmetrizer(len(qs)), qs) for qs in sites])
    return compress(state, [len(qs) + 1 for qs in sites]), norm_sq


@pytest.mark.parametrize("link", [0, 2])
def test_failed_link_checks_name_the_worst_link(link, monkeypatch, capsys, tmp_path):
    import vbsprep.cli as cli

    monkeypatch.setattr(cli, "oracle_vbs_state", lambda lattice, s: _state_with_a_broken_link(lattice, s, link))
    out = tmp_path / "v.json"
    argv = ["verify", "--spin", "2", "--lattice", "chain:5:open:aligned", "--method", "lcu", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    lines = {line.split(":")[0]: line for line in capsys.readouterr().err.splitlines()}
    name = f"worst link {link}-{link + 1}"
    assert lines["[FAIL] projector_annihilation"].endswith(f"({name})")
    assert lines["[FAIL] open_chain_energy"].endswith(f"({name})")
    assert "worst link" not in out.read_text()


def test_passing_link_checks_print_no_link(capsys):
    assert main(["verify", "--spin", "2", "--lattice", "chain:4:open:aligned"]) == EXIT_OK
    assert "worst link" not in capsys.readouterr().err


def test_check_phase_allocates_under_an_eighth_of_a_state(monkeypatch, tmp_path):
    """The checks of a 20-qubit verify (fidelity and link pass) take less than 1/8 of a state beyond the route state."""
    import tracemalloc

    from vbsprep.statesim import Statevector

    state_bytes = 16 << 20  # chain:10 open: 20 data qubits
    seen = []
    spin_fidelity = Statevector.spin_fidelity

    def spy(st, psi):
        seen.append(tracemalloc.get_traced_memory()[0])  # the check phase starts: measure from here
        tracemalloc.reset_peak()
        return spin_fidelity(st, psi)

    monkeypatch.setattr(Statevector, "spin_fidelity", spy)
    argv = ["verify", "--spin", "2", "--lattice", "chain:10:open:aligned", "--method", "mitigated_retry",
            "--out", str(tmp_path / "v.json")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seen) == 1
    assert seen[0] <= state_bytes + (2 << 20)  # the route state, the spin-basis oracle (0.5 MB), modules loaded since
    assert peak <= seen[0] + state_bytes // 8


def _cube_graph(tmp_path) -> str:
    """The 3-regular bipartite cube graph as a `file:` lattice: 8 spin-3/2 sites, 24 data qubits."""
    links = [[a, a ^ bit] for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"name": "cube", "sites": list(range(8)), "links": links}))
    return f"file:{path}"


@pytest.mark.parametrize("lattice,spin,cap", [("honeycomb:1:1", 2, 9), ("cube", 3, 15)])
def test_oracle_over_the_cap_exits_config_naming_its_size(lattice, spin, cap, monkeypatch, capsys, tmp_path):
    """3^6 and 4^8 amplitudes against caps of 2^9 and 2^15: exit 2 before the network is built."""
    if lattice == "cube":
        lattice = _cube_graph(tmp_path)
    monkeypatch.setenv("VBS_MAX_QUBITS", str(cap))
    argv = ["verify", "--spin", str(spin), "--lattice", lattice, "--method", "mitigated_retry"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: the spin-basis oracle of" in err
    assert "amplitudes at site" in err and f"over the cap of 2^{cap}" in err
    assert "Traceback" not in err

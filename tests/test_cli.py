"""Command-line interface: configs, exit codes, report files."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vbsprep
from vbsprep.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, EXIT_UNSUPPORTED, METHODS, main, parse_lattice
from vbsprep.errors import ConfigError

from oracle_reference import applied_norm, apply_ops, bond_product, compress, embed, expectation, simulate_circuit


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
    # a ring needs only links that connect every site: doubled links make a spin-2 ring
    path.write_text(json.dumps({"sites": [0, 1, 2, 3], "links": [[i, (i + 1) % 4] for i in range(4)] * 2, "boundary": "ring"}))
    assert parse_lattice(f"file:{path}").uniform_twice_spin() == 4


_PAIR = {"sites": [0, 1], "links": [[0, 1]]}
# Each once crashed verify, or failed it on routes that are right (exit 3), or exited 2 naming no cause.
_ONCE_MISHANDLED = {
    "boundary-spins-an-int": ({**_PAIR, "boundary_spins": 5}, "'boundary_spins' must be a list"),
    "boundary-spins-a-bool": ({**_PAIR, "boundary_spins": True}, "'boundary_spins' must be a list"),
    "one-site-open-chain": ({"sites": [0], "links": [], "boundary": "open_chain", "boundary_spins": ["up", "up"]},
                            "an open chain needs at least 2 sites, got 1"),
    "no-site": ({"sites": [], "links": []}, "a lattice needs at least one site"),
    "ring-of-two-rings": ({"sites": [0, 1, 2, 3], "links": [[0, 1], [1, 0], [2, 3], [3, 2]], "boundary": "ring"},
                          "boundary 'ring' needs links that connect every site; "
                          "lattice 'file-lattice' has the links 0-1, 1-0, 2-3, 3-2"),
    "open-chain-and-a-cycle": ({"sites": list(range(6)), "links": [[0, 5], [1, 2], [2, 3], [3, 4], [4, 1]],
                                "boundary": "open_chain", "boundary_spins": ["up", "up"]},
                               "boundary 'open_chain' needs links that connect every site; "
                               "lattice 'file-lattice' has the links 0-5, 1-2, 2-3, 3-4, 4-1"),
    "boundary-spins-on-a-ring": ({"sites": [0, 1, 2, 3], "links": [[0, 1], [1, 2], [2, 3], [3, 0]], "boundary": "ring",
                                  "boundary_spins": ["x", "y"]},
                                 "boundary_spins are read only on an open chain; lattice 'file-lattice' has boundary 'ring'"),
}


@pytest.mark.parametrize(
    "doc,cause",
    [
        ({"sites": 3, "links": [[0, 1]]}, "'sites' must be a list"),
        ({**_PAIR, "boundary": "open_chain", "boundary_spins": ["up"]}, "two boundary_spins"),
        ({**_PAIR, "boundary": "open_chain", "boundary_spins": ["sideways", "up"]}, "'sideways'"),
        ({**_PAIR, "boundary": "weird"}, "'weird'"),
        ({"sites": [0, 1, 2], "links": [[0, 1, 2]]}, "exactly two sites"),
        # each was once read as the link [0, 1]
        ({"sites": [0, 1], "links": [[0, 1.7]]}, "lattice link 0 [0, 1.7] must hold integer site ids"),
        ({"sites": [0, 1], "links": [[0, 1], [0, True]]}, "lattice link 1 [0, true] must hold integer site ids"),
        ({"sites": [0, 1], "links": [[0, "1"]]}, 'lattice link 0 [0, "1"] must hold integer site ids'),
        *_ONCE_MISHANDLED.values(),
    ],
    ids=["sites-not-a-list", "one-boundary-spin", "unknown-boundary-spin", "unknown-boundary", "three-site-link",
         "float-site-id", "bool-site-id", "string-site-id", *_ONCE_MISHANDLED],
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


# A link that names no two sites: a triple, or a float, a bool or a string for a site id.
_ODD_LINK = st.one_of(st.lists(st.integers(-1, 4), min_size=3, max_size=3),
                      st.tuples(st.integers(0, 3), st.sampled_from([1.5, True, "1"])).map(list))
# Each puts every one of 4 sites on one link: a union of k of them gives every site 2S = k.
_MATCHINGS = ([[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]])


@st.composite
def _lattice_cases(draw) -> tuple[dict, int]:
    """A lattice document of 0 to 4 sites and a --spin of 1 to 3.

    Half the time the document is labelled as its links are drawn (a path
    or a cycle through the sites, or a graph where every site has k links),
    with the spin of its sites; else its label, its boundary spins and the
    spin are drawn apart, wrong types among them, so that many documents
    are mislabelled or malformed.
    """
    kind = draw(st.sampled_from(["walk", "regular", "random"]))
    if kind == "walk":  # through site 0 first and site n-1 last
        n = draw(st.integers(0, 4))
        order = [0, *draw(st.permutations(range(1, n - 1))), n - 1][:n]
        closed = n > 1 and draw(st.booleans())
        links = [[a, b] for a, b in zip(order, order[1:])] + ([[order[-1], order[0]]] if closed else [])
        spins = draw(st.sampled_from([["up", "up"], ["up", "down"], ["down", "up"]]))
        fit, twice_s = ({"boundary": "ring"} if closed else {"boundary": "open_chain", "boundary_spins": spins}), 2
    elif kind == "regular":
        n, matchings = draw(st.sampled_from([(2, [[[0, 1]]]), (4, _MATCHINGS)]))
        chosen = draw(st.lists(st.sampled_from(matchings), min_size=1, max_size=3))
        links = [link for matching in chosen for link in matching]
        fit, twice_s = {}, len(chosen)
    else:  # self-loops and missing sites among them
        n = draw(st.integers(0, 4))
        links = draw(st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)).map(list), max_size=5))
        links += draw(st.lists(_ODD_LINK, max_size=1))
        fit, twice_s = {}, draw(st.integers(1, 3))
    doc = {"sites": list(range(n)), "links": [link[::-1] if draw(st.booleans()) else link for link in links]}
    if draw(st.booleans()):
        return {**doc, **fit}, twice_s
    if draw(st.booleans()):
        doc["boundary"] = draw(st.sampled_from(["open_chain", "ring", "explicit_graph", "chain", 5, None]))
    if draw(st.booleans()):
        doc["boundary_spins"] = draw(st.sampled_from([None, ["up", "up"], ["up", "down"], ["up"], 5, True, "ud"]))
    return doc, draw(st.integers(1, 3))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(case=_lattice_cases())
@example(case=(_ONCE_MISHANDLED["boundary-spins-an-int"][0], 2))
@example(case=(_ONCE_MISHANDLED["one-site-open-chain"][0], 1))
@example(case=(_ONCE_MISHANDLED["no-site"][0], 2))
@example(case=(_ONCE_MISHANDLED["ring-of-two-rings"][0], 2))
@example(case=(_ONCE_MISHANDLED["open-chain-and-a-cycle"][0], 2))
@example(case=(_ONCE_MISHANDLED["boundary-spins-on-a-ring"][0], 2))
def test_every_lattice_file_verifies_or_exits_config_or_unsupported(tmp_path_factory, case):
    """Every route is right, so no lattice document fails a check (exit 3), and none ends in a traceback."""
    doc, spin = case
    path = tmp_path_factory.getbasetemp() / "drawn-lattice.json"
    path.write_text(json.dumps(doc))
    for method in METHODS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["verify", "--spin", str(spin), "--lattice", f"file:{path}", "--method", method])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_UNSUPPORTED), (method, err.getvalue())


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
    """The draw equals one from the whole register's state, |a|^2 of the tests' `simulate_circuit`."""
    from vbsprep.analysis import monte_carlo_success
    from vbsprep.builders import probabilistic_method_circuit
    from vbsprep.lattice import assign_qubits
    from vbsprep.methods import oracle_vbs_state

    out = tmp_path / "r.json"
    argv = ["prepare", "--spin", "2", "--lattice", "chain:3:ring", "--method", "probabilistic",
            "--shots", "2000", "--seed", "5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    lat = parse_lattice("chain:3:ring")
    circ = probabilistic_method_circuit(assign_qubits(lat))
    _, norm_sq = oracle_vbs_state(lat)
    state, markers = simulate_circuit(circ)
    rate, z = monte_carlo_success(np.abs(state.amps) ** 2, markers, norm_sq, 2000, 5)
    assert doc["simulated"]["mc_rate"] == rate
    assert doc["simulated"]["mc_z"] == z


@pytest.mark.parametrize("seed,code,rate", [(0, EXIT_OK, 0.1335), (2, EXIT_CHECK_FAILED, 0.13001)])
def test_monte_carlo_draw_on_chain7_is_pinned(seed, code, rate, tmp_path):
    """10^5 shots on the chain:7 probabilistic circuit; seed 2 lands outside 3 sigma, as about 0.27% of seeds must."""
    out = tmp_path / "r.json"
    argv = ["prepare", "--spin", "2", "--lattice", "chain:7:open:aligned", "--method", "probabilistic",
            "--shots", "100000", "--seed", str(seed), "--out", str(out)]
    assert main(argv) == code
    doc = json.loads(out.read_text())
    assert doc["simulated"]["mc_rate"] == rate
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert failed == ([] if code == EXIT_OK else ["mc_within_3_sigma"])
    if seed == 2:
        assert doc["simulated"]["mc_z"] == pytest.approx(-3.286193293965067, abs=1e-12)


def test_sampling_a_zero_state_exits_config(monkeypatch, capsys):
    """The draw's ValueError on a zero state reaches the CLI as a config error, exit 2."""
    from vbsprep import analysis

    draw = analysis.sample_indices

    def on_a_zero_state(probs, shots, seed):
        probs[:] = 0
        return draw(probs, shots, seed)

    monkeypatch.setattr(analysis, "sample_indices", on_a_zero_state)
    argv = ["prepare", "--spin", "2", "--lattice", "chain:2:open:aligned", "--method", "probabilistic", "--shots", "10"]
    assert main(argv) == EXIT_CONFIG
    assert "cannot sample a state of squared norm 0" in capsys.readouterr().err


def test_prepare_shots_on_21_qubits_never_holds_the_register(capsys):
    """chain:7's draw reads Born probabilities that the run's last write makes, so no 32 MB 2^21 complex register is held."""
    import tracemalloc

    tracemalloc.start()
    try:
        argv = ["prepare", "--spin", "2", "--lattice", "chain:7:open:aligned", "--method", "probabilistic", "--shots", "100000"]
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20  # the 8 MB 2^19 state and the 16 MB probabilities it grows into, then the draw in place


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


@pytest.mark.parametrize("spec,method,coupling,code", [
    ("chain:3:open:anti", "probabilistic", "linear", EXIT_OK),
    ("chain:3:open:aligned", "lcu", "linear", EXIT_UNSUPPORTED),
    ("three-link-pair", "mitigated_islands", "heavy_hex", EXIT_OK),
    ("chain:3:ring", "probabilistic", "heavy_hex", EXIT_UNSUPPORTED),
])
def test_verify_runs_the_routed_checks_of_prepare(spec, method, coupling, code, tmp_path):
    docs = {}
    for command in ("prepare", "verify"):
        out = tmp_path / f"{command}.json"
        spin = "3" if spec == "three-link-pair" else "2"
        argv = [command, "--spin", spin, "--lattice", spec, "--method", method, "--coupling", coupling, "--out", str(out)]
        assert main(argv) == code
        docs[command] = json.loads(out.read_text()) if code == EXIT_OK else None
    if code == EXIT_OK:
        prepare, verify = docs["prepare"], docs["verify"]
        assert verify["resources"]["routed_cnot_depth"] == prepare["resources"]["routed_cnot_depth"]
        assert verify["simulated"]["routed_fidelity_vs_oracle"] == prepare["simulated"]["routed_fidelity_vs_oracle"]
        assert [c for c in verify["checks"] if c["name"].startswith("routed_")] == \
            [c for c in prepare["checks"] if c["name"].startswith("routed_")]


def test_prepare_heavy_hex_unsupported_lattice():
    from vbsprep.cli import EXIT_UNSUPPORTED

    code = main(["prepare", "--spin", "2", "--lattice", "chain:3:ring", "--coupling", "heavy_hex"])
    assert code == EXIT_UNSUPPORTED


def test_heavy_hex_placement_knows_the_pair_by_its_links_not_its_name(tmp_path, capsys):
    """A 4-site spin-3/2 document named three-link-pair is not the pair: the placement is refused, exit 4."""
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"sites": [0, 1, 2, 3], "links": [[0, 1], [0, 1], [1, 2], [2, 3], [2, 3], [3, 0]],
                                "name": "three-link-pair"}))
    assert main(["prepare", "--spin", "3", "--lattice", f"file:{path}", "--coupling", "heavy_hex"]) == EXIT_UNSUPPORTED
    assert "heavy-hex placement is declared for the three-link pair" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["probabilistic", "mitigated_islands"])
def test_the_pair_from_a_file_routes_on_heavy_hex_under_any_name(method, tmp_path):
    path, out = tmp_path / "lat.json", tmp_path / "r.json"
    path.write_text(json.dumps({"sites": [0, 1], "links": [[0, 1], [0, 1], [0, 1]], "name": "my-pair"}))
    argv = ["prepare", "--spin", "3", "--lattice", f"file:{path}", "--method", method, "--coupling", "heavy_hex"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "routed_fidelity_vs_oracle")["pass"]


@pytest.mark.parametrize("argv,named", [
    (["emit-qasm", "--method", "mps"], "--method mps is not read"),
    (["emit-qasm", "--method", "lcu"], "--method lcu is not read"),
    (["emit-qasm", "--coupling", "linear"], "--coupling linear is not read"),
    (["prepare", "--method", "lcu", "--shots", "1000"], "--shots is read only by the probabilistic method"),
    (["verify", "--shots", "1000"], "--shots 1000 is not read by verify"),
    (["resources", "--spin", "3", "--coupling", "linear"], "--spin 3 is not read by resources"),
    (["resources", "--lattice", "chain:5:ring", "--method", "lcu", "--shots", "5", "--qasm-mode", "basis"],
     "--lattice chain:5:ring is not read by resources"),
    (["emit-qasm", "--shots", "100"], "--shots 100 is not read by emit-qasm"),
    (["prepare", "--qasm-mode", "basis"], "--qasm-mode basis is not read by prepare"),
    (["verify", "--qasm-mode", "basis"], "--qasm-mode basis is not read by verify"),
], ids=["emit-qasm-method-mps", "emit-qasm-method-lcu", "emit-qasm-coupling", "prepare-lcu-shots", "verify-shots",
        "resources-spin", "resources-lattice", "emit-qasm-shots", "prepare-qasm-mode", "verify-qasm-mode"])
def test_an_option_the_command_does_not_read_exits_unsupported(argv, named, tmp_path, capsys):
    """Each once ran as if the option were not given, and the report's config echoed it."""
    out = tmp_path / "out"
    command, *options = argv
    assert main([command, "--spin", "2", "--lattice", "chain:3:open:aligned", "--out", str(out), *options]) == EXIT_UNSUPPORTED
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "prepare --lattice chain:4:open:aligned --shots 10 --seed -1",
    "verify --lattice chain:4:open:aligned --method mitigated_retry --seed -1",
], ids=["prepare-shots", "verify-retry"])
def test_a_negative_seed_exits_config_naming_seed(argv, tmp_path, capsys):
    """The first exited 2 with numpy's "expected non-negative integer"; the second ran the rounds of --seed 1."""
    out = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out)]) == EXIT_CONFIG
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def _spy_on_the_oracle_and_the_routes(monkeypatch) -> list:
    """Every call of the oracle or of a route, by name: each returns nothing, so a run past them fails."""
    from vbsprep import cli

    ran = []
    monkeypatch.setattr(cli, "oracle_vbs_state", lambda lattice: ran.append("oracle"))
    monkeypatch.setattr(cli, "ROUTES", {name: lambda lattice, seed, name=name: ran.append(name) for name in METHODS})
    return ran


@pytest.mark.parametrize("argv,named", [
    ("verify --lattice chain:12:open:aligned --method lcu --coupling linear",
     "linear routing is wired up for the probabilistic method"),
    ("verify --lattice chain:13:open:aligned --method mitigated_retry --coupling heavy_hex",
     "heavy-hex placement is declared for the three-link pair"),
    ("prepare --lattice chain:4:ring --method mitigated_islands --coupling linear",
     "linear routing is wired up for the probabilistic method"),
    ("prepare --spin 3 --lattice three-link-ring:4 --coupling heavy_hex",
     "heavy-hex placement is declared for the three-link pair"),
], ids=["verify-lcu-linear", "verify-chain-heavy-hex", "prepare-islands-linear", "prepare-ring-heavy-hex"])
def test_an_unsupported_coupling_exits_before_the_oracle_or_the_route_runs(argv, named, monkeypatch, tmp_path, capsys):
    """Each once ran the oracle and the whole route first: the lcu one took 1.06 s and 421 MB, then exited 4."""
    ran = _spy_on_the_oracle_and_the_routes(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv.split(), "--out", str(out)]) == EXIT_UNSUPPORTED
    assert named in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


def test_a_negative_shots_exits_config_naming_shots(monkeypatch, tmp_path, capsys):
    """It once ran the route, then exited 2 with the sampler's "shots must be >= 1", which names no option."""
    ran = _spy_on_the_oracle_and_the_routes(monkeypatch)
    out = tmp_path / "out"
    assert main(["prepare", "--lattice", "chain:7:open:aligned", "--shots", "-3", "--out", str(out)]) == EXIT_CONFIG
    assert "config error: --shots must be a non-negative integer, got -3" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


def test_verify_runs_the_link_pass_on_spin_2_sites(tmp_path):
    """A 4-site ring with every link doubled has 2S = 4 sites: the link rows hold for any 2S, not only 2 and 3."""
    lattice = tmp_path / "ring.json"
    lattice.write_text(json.dumps({"sites": [0, 1, 2, 3], "links": [[i, (i + 1) % 4] for i in range(4)] * 2,
                                   "boundary": "ring"}))
    out = tmp_path / "v.json"
    argv = ["verify", "--spin", "4", "--lattice", f"file:{lattice}", "--method", "mitigated_retry", "--out", str(out)]
    assert main(argv) == EXIT_OK
    report = json.loads(out.read_text())
    check = next(c for c in report["checks"] if c["name"] == "projector_annihilation")
    assert check["pass"] and report["simulated"]["max_projector_residual"] < 1e-10


def test_main_calls_share_no_values(tmp_path, capsys):
    """The parser is built once per process; each main call still parses into fresh values."""
    from vbsprep import cli

    out = tmp_path / "first.qasm"
    assert main(["emit-qasm", "--lattice", "chain:2:open:aligned", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert main(["emit-qasm", "--lattice", "chain:2:open:aligned"]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()  # no --out this time: the program goes to stdout
    assert cli.build_parser() is cli.build_parser()
    for argv in (["prepare", "--spin", "two"], ["prepare", "--method", "nope"], []):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser.__wrapped__().parse_args(argv)  # a parser built afresh
        fresh = capsys.readouterr().err
        with pytest.raises(SystemExit) as cached_exc:
            main(argv)
        assert cached_exc.value.code == exc.value.code == EXIT_CONFIG
        assert capsys.readouterr().err == fresh


def test_env_cap_override(tmp_path, monkeypatch):
    monkeypatch.setenv("VBS_MAX_QUBITS", "6")
    # 3-site ring needs 9 qubits with ancillas; the cap makes it fail cleanly
    code = main(["prepare", "--spin", "2", "--lattice", "chain:3:ring", "--method", "probabilistic"])
    assert code in (EXIT_CONFIG, EXIT_CHECK_FAILED)


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_env_cap_not_an_integer(capsys, monkeypatch, raw):
    monkeypatch.setenv("VBS_MAX_QUBITS", raw)
    assert main(["prepare", "--spin", "2", "--lattice", "chain:3:ring"]) == EXIT_CONFIG
    assert "VBS_MAX_QUBITS" in capsys.readouterr().err


def _link_lattices():
    from vbsprep.lattice import BOUNDARY_EXPLICIT, Lattice, build_chain

    return [
        (build_chain(5, "open", ("up", "down")), 2),  # contiguous runs
        (Lattice(4, ((1, 0), (2, 1), (3, 2), (0, 3)), BOUNDARY_EXPLICIT, name="reversed"), 2),  # reversed runs
        (build_chain(5, "ring"), 2),  # the ring closure (4, 0): qubits (8, 9, 0, 1)
        (parse_lattice("three-link-ring:4"), 3),  # 6-qubit spin-3/2 links, double links, closure (3, 0)
        # the 4-cycle 0-2-1-3-0: (1, 3) and (0, 2) join axes that are neither neighbours nor the ends
        (Lattice(4, ((0, 2), (2, 1), (1, 3), (3, 0)), BOUNDARY_EXPLICIT, name="cycle"), 2),
    ]


@pytest.mark.parametrize("lattice,twice_s", _link_lattices(), ids=["open", "reversed", "ring", "spin32", "cycle"])
def test_link_pass_matches_direct_projector_norm_and_expectation(lattice, twice_s):
    """One application per pair gives ||P psi|| and <H> of a random, non-VBS spin-basis state.

    The reference applies the qubit-basis P and H to the state's embedding,
    V psi, on the pair's qubits.
    """
    import numpy as np

    from vbsprep.cli import _link_values
    from vbsprep.lattice import assign_qubits

    from oracle_reference import aklt_projector_from_product, blbq_hamiltonian_term

    encoding = assign_qubits(lattice)
    shape = (twice_s + 1,) * lattice.n_sites
    rng = np.random.default_rng(encoding.n_data_qubits)
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    st = embed(psi)
    residuals, energies = _link_values(psi, lattice)
    pairs = {frozenset(link) for link in lattice.links}
    assert set(residuals) == pairs
    proj = aklt_projector_from_product(twice_s)
    term = blbq_hamiltonian_term(1.0 / 3.0)
    for a, b in lattice.links:
        qs = encoding.site_qubits[a] + encoding.site_qubits[b]
        direct = applied_norm(st, proj, qs)
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

    calls = []
    on_pair = cli._rows_on_pair
    monkeypatch.setattr(cli, "_rows_on_pair", lambda psi, rows, a, b: calls.append((a, b)) or on_pair(psi, rows, a, b))
    argv = ["verify", "--spin", str(spin), "--lattice", spec, "--method", "lcu", "--out", str(tmp_path / "v.json")]
    assert main(argv) == EXIT_OK
    # one application per pair gives both the residual and, on spin 1, the energy
    assert len(calls) == passes
    assert len({frozenset(pair) for pair in calls}) == passes


@pytest.mark.parametrize(
    "argv,loaded",
    [("verify --lattice chain:4:open:aligned --method mitigated_retry", False),
     ("prepare --lattice chain:4:open:aligned --method probabilistic", False),
     ("prepare --lattice chain:4:open:aligned --method probabilistic --shots 10", True)],
    ids=["retry", "prepare", "shots"],
)
def test_only_the_shots_draw_imports_numpy_random(argv, loaded, tmp_path):
    """numpy imports numpy.random on first use, and only the Monte-Carlo draw uses it: a fresh interpreter tells."""
    code = (f"import sys\nimport numpy\nprint('numpy.random' in sys.modules)\nfrom vbsprep.cli import main\n"
            f"print(main({argv.split() + ['--out', str(tmp_path / 'r.json')]!r}), 'numpy.random' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(Path(vbsprep.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    eager, *out = run.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random as it loads")
    assert out == [str(EXIT_OK), str(loaded)]


def _state_with_a_broken_link(lattice, link: int):
    """The VBS state with one bond a triplet, in the spin basis: only that link's sites can reach spin 2S."""
    import numpy as np

    from vbsprep.lattice import assign_qubits
    from vbsprep.spinops import symmetrizer

    encoding = assign_qubits(lattice)
    state = bond_product(encoding, encoding.n_data_qubits)
    state.apply_unitary(np.array([[0, 1], [1, 0]]), (encoding.link_qubits[link][0],))
    sites = [encoding.site_qubits[site] for site in range(lattice.n_sites)]
    norm_sq = apply_ops(state, [(symmetrizer(len(qs)), qs) for qs in sites])
    return compress(state, [len(qs) + 1 for qs in sites]), norm_sq


@pytest.mark.parametrize("link", [0, 2])
def test_failed_link_checks_name_the_worst_link(link, monkeypatch, capsys, tmp_path):
    import vbsprep.cli as cli

    monkeypatch.setattr(cli, "oracle_vbs_state", lambda lattice: _state_with_a_broken_link(lattice, link))
    out = tmp_path / "v.json"
    argv = ["verify", "--spin", "2", "--lattice", "chain:5:open:aligned", "--method", "lcu", "--out", str(out)]
    assert main(argv) == EXIT_CHECK_FAILED
    lines = {line.split(":")[0]: line for line in capsys.readouterr().err.splitlines()}
    name = f"worst link {link}-{link + 1}"
    assert lines["[FAIL] projector_annihilation"].endswith(f"({name})")
    assert lines["[FAIL] open_chain_energy"].endswith(f"({name})")
    assert "worst link" not in out.read_text()


def test_a_b_site_op_off_the_symmetric_subspace_fails_the_route_check(monkeypatch, capsys, tmp_path):
    """chain:5's first B-site symmetrizer swapped for the projector onto |01>: that site's fold keeps half its weight."""
    import numpy as np

    import vbsprep.methods as methods
    from vbsprep.statesim import Statevector

    symmetrizer, calls, kept = methods.symmetrizer, [], []

    def first_off(n):
        calls.append(n)
        return np.diag([0.0, 1, 0, 0]) if len(calls) == 1 else symmetrizer(n)  # |01><01| on the first B site

    monkeypatch.setattr(methods, "symmetrizer", first_off)
    product = Statevector.product_of_factors
    monkeypatch.setattr(Statevector, "product_of_factors", lambda *a: (lambda st: kept.append(st._kept) or st)(product(*a)))
    argv = ["verify", "--spin", "2", "--lattice", "chain:5:open:aligned", "--method", "mitigated_retry",
            "--out", str(tmp_path / "v.json")]
    assert main(argv) == EXIT_CHECK_FAILED
    assert "[FAIL] route_fidelity" in capsys.readouterr().err
    checks = {c["name"]: c["pass"] for c in json.loads((tmp_path / "v.json").read_text())["checks"]}
    assert checks["route_fidelity"] is False and checks["projector_annihilation"] is True
    assert calls == [2, 2] and abs(kept[-1] - 0.5) < 1e-12


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
    """12 and 24 data qubits against caps of 9 and 15: exit 2 before the oracle or the route is built."""
    name, n_data = lattice, {"honeycomb:1:1": 12, "cube": 24}[lattice]
    if lattice == "cube":
        lattice = _cube_graph(tmp_path)
    monkeypatch.setenv("VBS_MAX_QUBITS", str(cap))
    argv = ["verify", "--spin", str(spin), "--lattice", lattice, "--method", "mitigated_retry"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: lattice {name!r} has {n_data} data qubits, over the cap of {cap} qubits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["prepare", "verify"])
def test_a_register_over_the_cap_exits_before_anything_is_built(command, capsys):
    """chain:20:ring holds 40 data qubits: no route could run it, so nothing grows toward the cap first."""
    import tracemalloc

    tracemalloc.start()
    try:
        assert main([command, "--lattice", "chain:20:ring"]) == EXIT_CONFIG
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert "lattice 'chain:20:ring' has 40 data qubits, over the cap of 26 qubits" in capsys.readouterr().err

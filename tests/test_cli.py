"""Command-line interface: configs, exit codes, report files."""
import json
from pathlib import Path

import pytest

from vbsprep.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main, parse_lattice
from vbsprep.errors import ConfigError


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

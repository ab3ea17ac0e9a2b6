"""MPS tensors, canonical form, disentanglers, and the sequential route."""
import dataclasses
import math

import numpy as np
import pytest

from vbsprep.errors import ConfigError, MissingCostError, UnsupportedError
from vbsprep.ir import Circuit, Opaque, cnot_count, post_select
from vbsprep.lattice import BOUNDARY_OPEN, assign_qubits, build_chain
from vbsprep.methods import oracle_vbs_state, run_mps
from vbsprep.mpsprep import (
    build_disentangler,
    complete_to_unitary,
    contract_mps,
    embed_nonunitary_periodic,
    fuse_boundary_tensor,
    left_canonicalize,
    left_normalization_defect,
    local_vbs_tensor,
    mps_circuit,
    ring_embedding_weight,
    vbs_mps,
)
from vbsprep.qasm import emit_qasm
from vbsprep.statesim import Statevector

from oracle_reference import expectation, fidelity, from_amplitudes, project, simulate_circuit
from qasm_reader import parse_qasm

R6 = 1.0 / math.sqrt(6.0)


def _reference_bulk_disentangler() -> np.ndarray:
    """A fixed completion of the bulk disentangler, kept as regression data.

    The constant `a` is pinned by orthonormality of columns 0 and 3 (the
    other constants then follow the closure relations below).
    """
    a = 2 * math.sqrt(2) / 5 + math.sqrt(3) / 30
    b = -math.sqrt(5 / 12 - a * a)
    f = (a - b / 2) / (1 / math.sqrt(12) + b / 2)
    c = -((1 + f * f + 0.25 * (1 + f) ** 2) ** -0.5)
    d = f * c
    e = -(c + d) / 2
    r23, r3, r12 = math.sqrt(2.0 / 3.0), 1 / math.sqrt(3.0), 1 / math.sqrt(12.0)
    return np.array(
        [
            [0, r23, 0, 0, 0, 0, 0, -r3],
            [-R6, 0, 0, a, a, c, 0, 0],
            [-R6, 0, 0, -r12, -r12, d, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, R6, 0, 0.5, -0.5, 0, 0, r3],
            [0, R6, 0, -0.5, 0.5, 0, 0, r3],
            [-r23, 0, 0, b, b, e, 0, 0],
        ]
    )


def test_local_tensor_entries():
    a = local_vbs_tensor()
    assert abs(a[0, 0, 1, 0] + R6) < 1e-12  # up/down, diagonal -1/sqrt(6)
    assert abs(a[1, 0, 1, 1] - R6) < 1e-12
    assert abs(a[0, 1, 0, 0] + R6) < 1e-12  # down/up matches up/down
    assert abs(a[1, 1, 0, 1] - R6) < 1e-12


def test_local_tensor_left_and_right_normalized():
    a = local_vbs_tensor()
    mat = a.reshape(-1, 2)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(2))) < 1e-12
    mat_r = np.transpose(a, (1, 2, 3, 0)).reshape(-1, 2)
    assert np.max(np.abs(mat_r.conj().T @ mat_r - np.eye(2))) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_periodic_contraction_matches_oracle(n):
    oracle, _ = oracle_vbs_state(build_chain(n, "ring"))
    state = contract_mps(vbs_mps(n, "ring"), "ring")
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-10


@pytest.mark.parametrize("spins", [("up", "up"), ("up", "down"), ("down", "up"), ("down", "down")])
def test_open_contraction_matches_oracle(spins):
    oracle, _ = oracle_vbs_state(build_chain(4, "open", spins))
    state = contract_mps(vbs_mps(4, BOUNDARY_OPEN, spins), BOUNDARY_OPEN)
    assert abs(state.spin_fidelity(oracle) - 1.0) < 1e-10


def test_left_canonicalization_idempotent_and_rank2():
    tensors = vbs_mps(5, BOUNDARY_OPEN, ("up", "up"))
    for t in tensors:
        assert left_normalization_defect(t) < 1e-12
        assert t.shape[3] <= 2
    again = left_canonicalize(tensors)
    state1 = contract_mps(tensors, BOUNDARY_OPEN)
    state2 = contract_mps(again, BOUNDARY_OPEN)
    assert abs(fidelity(state1, state2) - 1.0) < 1e-12


def test_bulk_disentangler_shapes_and_unitarity():
    tensors = vbs_mps(4, "ring")
    d = build_disentangler(tensors[1])
    assert d.shape == (8, 8)
    assert np.max(np.abs(d.conj().T @ d - np.eye(8))) < 1e-12

    open_tensors = vbs_mps(4, BOUNDARY_OPEN, ("up", "up"))
    d1 = build_disentangler(open_tensors[0])
    assert d1.shape == (4, 4)
    dn = build_disentangler(open_tensors[-1])
    assert dn.shape == (8, 8)


def test_disentangler_requires_canonical_tensor():
    with pytest.raises(ConfigError):
        build_disentangler(local_vbs_tensor() * 0.5)


def test_reference_disentangler_is_unitary_and_extends_tensor():
    ref = _reference_bulk_disentangler()
    assert np.max(np.abs(ref.conj().T @ ref - np.eye(8))) < 1e-10
    mine = build_disentangler(vbs_mps(4, "ring")[0])
    # constrained columns (dummy inputs |00>) agree exactly
    assert np.max(np.abs(ref[:, :2] - mine[:, :2])) < 1e-12


def test_completion_choice_independence():
    # preparing through the reference completion gives the same state
    oracle, _ = oracle_vbs_state(build_chain(4, "ring"))
    ref = _reference_bulk_disentangler()

    tensors = vbs_mps(4, "ring")
    vec = tensors[-1].reshape(16)
    vec = vec / np.linalg.norm(vec)
    from vbsprep.schmidt import schmidt_prepare

    sub = schmidt_prepare(vec, qubits=(5, 6, 7, 1), label="init")
    state, _ = simulate_circuit(Circuit(9, gates=sub.gates))
    state.apply_unitary(ref, (3, 4, 5))
    state.apply_unitary(ref, (0, 2, 3))
    a_tilde = fuse_boundary_tensor(tensors[0])
    weight = expectation(state, a_tilde.conj().T @ a_tilde, (0, 1))
    gate = embed_nonunitary_periodic(a_tilde, math.sqrt(0.5 / weight))
    state.apply_unitary(gate, (8, 0, 1))
    prob = project(state, 8, 0)
    reduced = from_amplitudes(state.amps.reshape(256, 2)[:, 0])
    assert abs(prob - 0.5) < 1e-10
    assert abs(reduced.spin_fidelity(oracle) - 1.0) < 1e-10


def test_complete_to_unitary_rejects_rank_deficiency():
    cols = np.zeros((4, 2))
    cols[:, 0] = [1, 0, 0, 0]
    cols[:, 1] = [1, 0, 0, 0]
    with pytest.raises(RuntimeError):
        complete_to_unitary(cols)


def _completion_inputs():
    ring = vbs_mps(4, "ring")
    open_last = vbs_mps(4, BOUNDARY_OPEN, ("up", "up"))[-1].reshape(8, 1)
    embedding = embed_nonunitary_periodic(fuse_boundary_tensor(ring[0]), math.sqrt(0.5 / ring_embedding_weight(4)))
    return {
        "bulk": ring[1].reshape(8, 2),
        "last_open": open_last / np.linalg.norm(open_last),
        "ring_embedding": embedding[:, :4].copy(),  # its isometry [n a~; c] on the ancilla's |0> inputs
    }


@pytest.mark.parametrize("shape", ["bulk", "last_open", "ring_embedding"])
def test_complete_to_unitary_keeps_the_given_columns(shape):
    cols = _completion_inputs()[shape]
    out = complete_to_unitary(cols)
    d, k = cols.shape
    assert out.shape == (d, d)
    assert out.dtype == cols.dtype and out[:, :k].tobytes() == cols.tobytes()  # bit for bit
    assert np.max(np.abs(out.conj().T @ out - np.eye(d))) < 1e-12


def test_embedding_structure_and_bounds():
    a_tilde = fuse_boundary_tensor(local_vbs_tensor())
    bound = 1 / np.linalg.norm(a_tilde, 2)  # 1 / sigma_max
    assert abs(bound - math.sqrt(1.5)) < 1e-12
    u = embed_nonunitary_periodic(a_tilde, 0.8)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12
    assert np.max(np.abs(u[:4, :4] - 0.8 * a_tilde)) < 1e-12
    with pytest.raises(ConfigError):
        embed_nonunitary_periodic(a_tilde, bound + 0.01)


def _prepared(circ: Circuit, lattice) -> tuple:
    """Post-selected 2N-qubit state of the lattice's mps circuit, and its probability."""
    prob, state = post_select(*simulate_circuit(circ), range(assign_qubits(lattice).n_data_qubits))
    return state, prob


@pytest.mark.parametrize(
    "n,spins",
    [(2, ("up", "up")), (3, ("up", "up")), (4, ("up", "down")), (5, ("down", "down")), (6, ("up", "up"))],
)
def test_prepare_open_matches_oracle(n, spins):
    oracle, _ = oracle_vbs_state(build_chain(n, "open", spins))
    result = run_mps(build_chain(n, "open", spins))
    assert result["success_probability"] == 1.0
    assert abs(result["state"].spin_fidelity(oracle) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_prepare_periodic_matches_oracle_with_half_probability(n):
    oracle, _ = oracle_vbs_state(build_chain(n, "ring"))
    result = run_mps(build_chain(n, "ring"))
    assert abs(result["success_probability"] - 0.5) < 1e-10
    assert abs(result["state"].spin_fidelity(oracle) - 1.0) < 1e-10


def test_prepare_periodic_scale_independence():
    # the embedding scale sets the ancilla probability, not the state
    circ = mps_circuit(4, "ring")
    *body, boundary, marker = circ.gates
    a_tilde = fuse_boundary_tensor(local_vbs_tensor())
    runs = []
    for scale in (0.6, 1.1):
        block = dataclasses.replace(boundary, matrix=embed_nonunitary_periodic(a_tilde, scale))
        runs.append(_prepared(Circuit(circ.n_qubits, [*body, block, marker]), build_chain(4, "ring")))
    (s1, p1), (s2, p2) = runs
    assert abs(fidelity(s1, s2) - 1.0) < 1e-10
    assert p1 == pytest.approx(0.6**2 * ring_embedding_weight(4), abs=1e-12)
    assert p2 == pytest.approx(1.1**2 * ring_embedding_weight(4), abs=1e-12)


def test_mps_circuit_range_checks():
    with pytest.raises(UnsupportedError):
        mps_circuit(7, BOUNDARY_OPEN)
    with pytest.raises(UnsupportedError):
        mps_circuit(2, "ring")
    # no boundary falls back to an open chain, and the open chain has one name, BOUNDARY_OPEN
    for boundary in ("rnig", "periodic", "open"):
        with pytest.raises(ConfigError, match=f"unknown boundary '{boundary}'"):
            mps_circuit(4, boundary)
        with pytest.raises(ConfigError, match=f"unknown boundary '{boundary}'"):
            contract_mps(vbs_mps(4, "ring"), boundary)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ring_embedding_weight_is_simulated_weight(n):
    circ = mps_circuit(n, "ring")
    *body, boundary, marker = circ.gates
    assert boundary.qubits == (2 * n, 0, 1) and marker.qubit == 2 * n and marker.expect == 0
    before, _ = simulate_circuit(Circuit(circ.n_qubits, body))
    a_tilde = fuse_boundary_tensor(local_vbs_tensor())
    simulated = expectation(before, a_tilde.conj().T @ a_tilde, (0, 1))
    assert abs(ring_embedding_weight(n) - simulated) < 1e-12
    assert abs(ring_embedding_weight(n) - (1 + 3 * (-1 / 3) ** n) / 2) < 1e-12
    assert abs(run_mps(build_chain(n, "ring"))["success_probability"] - 0.5) < 1e-12


@pytest.mark.parametrize(
    "lattice,sites", [(build_chain(4, "open", ("up", "down")), 4), (build_chain(4, "ring"), 3)], ids=["open", "ring"]
)
def test_run_mps_returns_its_circuit(lattice, sites):
    # a ring prepares its last site by a Schmidt split, not a disentangler
    result = run_mps(lattice)
    circ = result["circuit"]
    assert circ.n_qubits == {"open_chain": 8, "ring": 9}[lattice.boundary]  # the ring's one ancilla after 8 data qubits
    labels = [g.label for g in circ.gates if isinstance(g, Opaque) and g.label.startswith("mps_site")]
    assert labels == [f"mps_site{i}" for i in range(sites, 0, -1)]
    # the disentanglers declare no CNOT cost yet
    with pytest.raises(MissingCostError):
        cnot_count(circ, "all_to_all")


@pytest.mark.parametrize("lattice", [build_chain(3, "open", ("up", "up")), build_chain(3, "ring")], ids=["open", "ring"])
def test_mps_structural_qasm_round_trips(lattice):
    circ = run_mps(lattice)["circuit"]
    matrices = {g.label: g.matrix for g in circ.gates if isinstance(g, Opaque)}
    parsed = parse_qasm(emit_qasm(circ, "structural"), matrices)
    assert parsed.n_qubits == circ.n_qubits
    assert [(type(g), g.qubits) for g in parsed.gates] == [(type(g), g.qubits) for g in circ.gates]
    assert [m.expect for m in parsed.measures()] == [m.expect for m in circ.measures()]
    # every block label is unique, so the parsed circuit prepares the same state
    mine, p_mine = _prepared(circ, lattice)
    theirs, p_theirs = _prepared(parsed, lattice)
    assert abs(fidelity(mine, theirs) - 1.0) < 1e-12
    assert abs(p_mine - p_theirs) < 1e-12


def test_forward_disentangle_returns_to_zero():
    # applying the daggered preparation sequence to the prepared state
    # recovers |0...0>, confirming the retrosynthetic reading
    n = 4
    tensors = vbs_mps(n, BOUNDARY_OPEN, ("up", "up"))
    state, _ = simulate_circuit(mps_circuit(n, BOUNDARY_OPEN, ("up", "up")))
    work = Statevector(state.n_qubits, state.amps.copy())
    first = build_disentangler(tensors[0])
    work.apply_unitary(first.conj().T, (0, 1))
    for i in range(2, n):
        gate = build_disentangler(tensors[i - 1])
        work.apply_unitary(gate.conj().T, (2 * i - 3, 2 * i - 2, 2 * i - 1))
    last = build_disentangler(tensors[-1])
    work.apply_unitary(last.conj().T, (2 * n - 3, 2 * n - 2, 2 * n - 1))
    assert abs(abs(work.amps[0]) - 1.0) < 1e-10

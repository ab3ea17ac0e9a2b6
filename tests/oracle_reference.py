"""Qubit-basis references for the spin-basis oracle and its checks.

`reference_oracle` builds the VBS state the direct way, independent of the
tensor network in `methods.oracle_vbs_state`: the bond product by explicit
tensor products, then the symmetrizer matrix at every site.
`outer_then_sequence` is the unfused reference for
`Statevector.product_of_factors`, and `apply_ops` its ops: neither shares
code with the statesim kernel.  `embed` and
`compress` move a state between the spin basis (one axis of 2S+1 values per
site) and the qubit basis (a run of 2S qubits per site, in site order), and
`qubit_amps` embeds a state's folded sites back.
`overlap`, `fidelity`, `expectation` and `applied_norm` compare and
measure qubit-basis states.  `contract_mps` contracts an MPS into its
dense state.  `circuit_unitary_by_columns` is the unfused
reference for `ir.circuit_unitary`.  `simulate_circuit` returns the whole
register's state, whose Born probabilities `ir.born_probabilities` writes,
and `gate_by_gate` is its unfused reference: every gate alone, each marker
projected in place by slicing (`project`).  `post_select` slices the
terminal markers off such a state; `post_select(*gate_by_gate(c), keep)`
is the dense reference for `ir.simulate_post_selected`, and it runs any
circuit, also the ones whose markers close no declared block.
`zero_state`, `from_amplitudes` and `prepared` give a circuit its starting state.

The spin-algebra references are built another way than the package's
operators, which `spinops` reads off Hamming weights: from spin matrices.
`spin_matrices` builds them from ladder operators, and
`collective_spin_components` sums one per qubit into a site's spin
(`embed_single`).  `symmetrizer_from_spin_projector` builds
`spinops.symmetrizer` from the total-spin polynomial in
`total_spin_squared`, and `symmetrizer_from_permutations` as the average
of the n! qubit permutations, each built index by index
(`permutation_by_indices`, the reference for
`symmetrize.permutation_operator`).  `aklt_projector_from_product` builds the
two-site AKLT projector, whose rows are `spinops.link_operators`, from
the product over the lower total-spin sectors, and `two_site_spin_dot`
gives S_a . S_b.  `blbq_hamiltonian_term` is
the spin-1 bilinear-biquadratic term, the AKLT term at beta = 1/3, against
which the `verify` energies are checked.  `w_state_vector` is the
uniform one-hot state that `symmetrize.w_state_circuit` prepares.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from vbsprep import statesim
from vbsprep.builders import spin_ket
from vbsprep.errors import CapExceededError, ConfigError, ImpossibleOutcomeError
from vbsprep.ir import Circuit, Measure, Opaque, _checked_keep, _expectations, _gate_matrix, _reused_markers, simulate_post_selected
from vbsprep.lattice import BOUNDARY_OPEN, BOUNDARY_RING, SPIN_UP, Lattice, SiteEncoding, assign_qubits
from vbsprep.schmidt import SINGLET
from vbsprep.spinops import MAX_SYMMETRIZER_HALVES, _read_only, symmetric_subspace_isometry, symmetrizer
from vbsprep.statesim import PROB_FLOOR, Statevector, _norm_sq


def bond_factors(encoding: SiteEncoding, n_qubits: int) -> list:
    """(qubits, vector) pairs: link singlets and boundary kets on the first n_qubits qubits; every other qubit is |0>."""
    factors = [((qa, qb), SINGLET) for qa, qb in encoding.link_qubits]
    factors += [((qubit,), spin_ket(spin)) for qubit, spin in encoding.boundary_qubits]
    covered = {q for qs, _ in factors for q in qs}
    return factors + [((q,), spin_ket(SPIN_UP)) for q in range(n_qubits) if q not in covered]


def bond_product(encoding: SiteEncoding, n_qubits: int) -> Statevector:
    """The product of `bond_factors`, by `Statevector.product_of_factors`."""
    return Statevector.product_of_factors(n_qubits, bond_factors(encoding, n_qubits))


def apply_ops(state: Statevector, ops) -> float:
    """Every (op, qubits) pair in turn by one np.tensordot over the whole state, then one renormalization.

    Returns ||O psi||^2 / ||psi||^2, which `tracked_norm_sq` takes too.
    """
    tensor = state.amps.reshape([2] * state.n_qubits)
    before = np.vdot(tensor, tensor).real
    for op, qubits in ops:
        k = len(qubits)
        out = np.tensordot(np.reshape(op, [2] * (2 * k)), tensor, (range(k, 2 * k), qubits))
        tensor = np.moveaxis(out, range(k), qubits)
    after = np.vdot(tensor, tensor).real
    state.amps = np.ascontiguousarray(tensor).reshape(-1) / np.sqrt(after)
    state.tracked_norm_sq *= after / before
    return after / before


def outer_then_sequence(n_qubits: int, factors, ops=()) -> Statevector:
    """Reference for `Statevector.product_of_factors`: the whole product by np.multiply.outer, then one transpose
    into qubit order, then, given ops, `apply_ops` on the whole state."""
    full, axes = np.array(1.0 + 0j), []
    for qubits, vec in factors:
        full = np.multiply.outer(full, np.asarray(vec, dtype=complex).reshape([2] * len(qubits)))
        axes.extend(qubits)
    state = from_amplitudes(np.transpose(full, [axes.index(q) for q in range(n_qubits)]))
    if ops:
        apply_ops(state, ops)
    return state


def reference_oracle(lattice: Lattice) -> tuple[Statevector, float]:
    """The symmetrizer of every site applied to the bond product: (normalized state, squared norm)."""
    encoding = assign_qubits(lattice)
    n = encoding.n_data_qubits
    sites = [encoding.site_qubits[site] for site in range(lattice.n_sites)]
    state = outer_then_sequence(n, bond_factors(encoding, n), [(symmetrizer(len(qs)), qs) for qs in sites])
    return state, state.tracked_norm_sq


def embed(psi: np.ndarray) -> Statevector:
    """V psi: a spin-basis state in the qubit basis, V the symmetric-subspace isometry of every site."""
    full = psi
    for d in psi.shape:  # each step takes the leading site axis and appends that site's qubits
        full = np.tensordot(full, symmetric_subspace_isometry(d - 1), axes=([0], [1]))
    return from_amplitudes(full.reshape(-1))


def compress(state: Statevector, shape) -> np.ndarray:
    """V^dagger r: a qubit-basis state on sites of 2S+1 = shape[site] values, in the spin basis."""
    full = state.amps
    for d in shape:  # each step takes the leading site's qubits and appends its spin axis
        full = np.tensordot(full.reshape(2 ** (d - 1), -1), symmetric_subspace_isometry(d - 1), axes=([0], [0]))
    return full.reshape(shape)


def qubit_amps(state: Statevector) -> np.ndarray:
    """The amplitudes in the qubit basis: a state with folded sites is embedded back, V on each folded axis (`embed`)."""
    return state.amps if state._dims == (2,) * state.n_qubits else embed(state.amps.reshape(state._dims)).amps


def overlap(a: Statevector, b: Statevector) -> complex:
    """<a|b> on the renormalized states, in the qubit basis (`qubit_amps`)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    a, b = qubit_amps(a), qubit_amps(b)
    return complex(np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def fidelity(a: Statevector, b: Statevector) -> float:
    return abs(overlap(a, b)) ** 2


def expectation(state: Statevector, op, qubits) -> float:
    """<op> on the listed qubits of the renormalized state, summed tile by tile through the kernel."""
    mat = np.asarray(op, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > statesim.UNITARY_TOL:
        raise ValueError("expectation requires a Hermitian operator")
    qubits = tuple(qubits)
    tiles = statesim._tiles(state._tensor(mat, qubits), mat, qubits)
    return float(sum(np.vdot(tile, out) for tile, out in tiles).real) / statesim._norm_sq(state.amps)


def applied_norm(state: Statevector, op, qubits) -> float:
    """||op|psi>|| for op on the listed qubits of the state as it stands, by one tensordot over the whole state."""
    k = len(qubits)
    tensor = state.amps.reshape([2] * state.n_qubits)
    return float(np.linalg.norm(np.tensordot(np.reshape(op, [2] * (2 * k)), tensor, (range(k, 2 * k), qubits))))


def contract_mps(tensors: list[np.ndarray], boundary: str) -> Statevector:
    """Exact normalized 2N-qubit statevector of (left, 2, 2, right) tensors (BOUNDARY_RING or BOUNDARY_OPEN)."""
    if boundary not in (BOUNDARY_RING, BOUNDARY_OPEN):
        raise ConfigError(f"unknown boundary {boundary!r}")
    running = tensors[0]
    l0 = running.shape[0]
    running = running.reshape(l0, 4, -1)
    for arr in tensors[1:]:
        nxt = arr.reshape(arr.shape[0], 4, arr.shape[3])
        running = np.tensordot(running, nxt, axes=(2, 0))
        running = running.reshape(l0, -1, arr.shape[3])
    if boundary == BOUNDARY_RING:
        amps = np.trace(running, axis1=0, axis2=2)
    else:
        amps = running.reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return Statevector(2 * len(tensors), amps)


def circuit_unitary_by_columns(circuit: Circuit) -> np.ndarray:
    """Full matrix of a measurement-free circuit: every gate applied alone to each basis column in turn."""
    dim = 2**circuit.n_qubits
    mat = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        column = np.zeros(dim, dtype=complex)
        column[col] = 1.0
        state = Statevector(circuit.n_qubits, column)
        for g in circuit.gates:
            state.apply_unitary(_gate_matrix(g), g.qubits)
        mat[:, col] = state.amps
    return mat


def zero_state(n_qubits: int) -> Statevector:
    """|0...0> on n qubits."""
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


def from_amplitudes(amps) -> Statevector:
    """A qubit state holding a copy of `amps`, whose count must be a power of 2."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    n = amps.size.bit_length() - 1
    if 2**n != amps.size:
        raise ValueError("amplitude count must be a power of 2")
    return Statevector(n, amps.copy())


def prepared(v, qubits) -> Opaque:
    """A block that takes |0...0> on `qubits` to the unit vector along v: a Householder unitary whose first column is v.

    With phase = v[0] / |v[0]|, the reflection I - 2 w w^dagger / (w^dagger w),
    w = e_0 - v / phase, takes e_0 to v / phase; times phase it takes e_0 to v.
    v must not lie along e_0 (w would be 0).
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    phase = v[0] / abs(v[0]) if abs(v[0]) else 1.0
    w = -v / phase
    w[0] += 1.0
    reflection = np.eye(v.size, dtype=complex) - (2 / np.vdot(w, w).real) * np.outer(w, w.conj())
    return Opaque("prepared", tuple(qubits), phase * reflection)


def project(state: Statevector, qubit: int, outcome: int) -> float:
    """Project one qubit on an outcome in place, by slicing; returns its probability.

    The other branch is zeroed and the state renormalized; `tracked_norm_sq`
    takes the probability.  Below statesim.PROB_FLOOR it raises
    ImpossibleOutcomeError.
    """
    rows = state.amps.reshape(2**qubit, 2, -1)
    total = np.vdot(state.amps, state.amps).real
    kept = np.vdot(rows[:, outcome], rows[:, outcome]).real
    prob = kept / total if total else 0.0
    if prob < statesim.PROB_FLOOR:
        raise ImpossibleOutcomeError(f"outcome {outcome} on qubit {qubit} has probability {prob:.3e}")
    rows[:, 1 - outcome] = 0.0
    state.amps /= np.sqrt(kept)
    state.tracked_norm_sq *= prob
    return prob


def post_select(state: Statevector, markers, keep) -> tuple[float, Statevector]:
    """Post-select every marker on its expected outcome and keep the `keep` qubits.

    Takes the slice of `state` where every marker qubit holds its expected
    value, in one pass.  The probability is the slice's share of the norm
    times the state's `tracked_norm_sq`, so it also covers the reused
    markers `gate_by_gate` projected as it went.  Any other qubit not
    in `keep` (an ancilla that a SWAP moved after its reused marker, an idle qubit)
    must hold one definite value, and is dropped on it.  Returns the
    renormalized state of the `keep` qubits, in the order given; `state` is
    unchanged.
    """
    expect = _expectations(markers)
    n = state.n_qubits
    keep = _checked_keep(keep, n, expect)
    kept = state.amps.reshape([2] * n)[tuple(expect.get(q, slice(None)) for q in range(n))]
    kept_sq, total = _norm_sq(kept), _norm_sq(state.amps)
    prob = kept_sq / total if total else 0.0  # a zero state holds no outcome
    if prob < PROB_FLOOR:
        raise ImpossibleOutcomeError(f"markers on qubits {sorted(expect)} have joint probability {prob:.3e}")
    free = [q for q in range(n) if q not in expect]  # the axes of `kept`
    where = []
    for axis, q in enumerate(free):
        if q in keep:
            where.append(slice(None))
            continue
        n0, n1 = (np.linalg.norm(kept[(slice(None),) * axis + (b,)]) for b in (0, 1))
        if min(n0, n1) > 1e-8 * max(n0, n1):
            exc = ValueError(f"qubit {q} is neither kept nor post-selected, and is in superposition")
            exc.axis = q
            raise exc
        where.append(0 if n0 >= n1 else 1)
    left = [q for q in free if q in keep]  # the axes of `kept` after dropping the others
    amps = np.transpose(kept[tuple(where)], [left.index(q) for q in keep]) / math.sqrt(kept_sq)
    norm_sq = state.tracked_norm_sq * prob
    return norm_sq, Statevector(len(keep), amps.reshape(-1), norm_sq)


def simulate_circuit(circuit: Circuit) -> tuple[Statevector, list[Measure]]:
    """Run the circuit from the empty register; return the whole register's state and its terminal markers.

    The terminal markers, the ones no later gate touches, are taken out and
    returned, in circuit order, for `post_select` or the Monte-Carlo draw.
    The other gates run through `ir.simulate_post_selected` with no block
    declared, keeping every qubit in the circuit's order, as
    `ir.born_probabilities` runs them: so a reused marker, which folds into
    no block, or a qubit no gate touches raises VbsError (`gate_by_gate`
    runs those circuits).
    """
    terminal = {i for i, g in enumerate(circuit.gates) if isinstance(g, Measure)} - _reused_markers(circuit.gates)
    rest = Circuit(circuit.n_qubits, [g for i, g in enumerate(circuit.gates) if i not in terminal])
    return simulate_post_selected(rest, range(circuit.n_qubits))[1], [circuit.gates[i] for i in sorted(terminal)]


def gate_by_gate(circuit: Circuit, v=None) -> tuple[Statevector, list]:
    """Unfused reference for `simulate_circuit`: the state of the whole register and the terminal markers.

    Starts from the vector v, or from |0...0>.  Every gate is applied alone;
    each marker is projected (`project`) just before the first later gate on
    its qubit, and the markers no later gate touches are returned, in
    circuit order.
    """
    state = zero_state(circuit.n_qubits) if v is None else from_amplitudes(v)
    pending = []
    for g in circuit.gates:
        if isinstance(g, Measure):
            pending.append(g)
            continue
        for m in [m for m in pending if m.qubit in g.qubits]:
            project(state, m.qubit, m.expect)
            pending.remove(m)
        state.apply_unitary(_gate_matrix(g), g.qubits)
    return state, pending


def spin_matrices(twice_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) of spin S in the basis m = S, S-1, ..., -S via ladder operators."""
    dim = twice_s + 1
    sval = twice_s / 2
    m = sval - np.arange(dim)
    # <m+1| S+ |m> = sqrt(S(S+1) - m(m+1)); row i-1 (m+1), column i (m)
    sp = np.zeros((dim, dim))
    for i in range(1, dim):
        sp[i - 1, i] = np.sqrt(sval * (sval + 1) - m[i] * (m[i] + 1))
    sm = sp.T
    return _read_only((sp + sm) / 2), _read_only((sp - sm) / (2j)), _read_only(np.diag(m))


def embed_single(op: np.ndarray, n: int, pos: int) -> np.ndarray:
    """A 2x2 operator at qubit `pos` of an n-qubit space (pos 0 = MSB)."""
    return functools.reduce(np.kron, [op if k == pos else np.eye(2) for k in range(n)], np.ones((1, 1), dtype=complex))


@functools.cache
def collective_spin_components(n_halves: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total-spin components of n spin-1/2s as 2^n-dim matrices: a site's spin on its qubits."""
    return tuple(_read_only(sum(embed_single(op, n_halves, pos) for pos in range(n_halves))) for op in spin_matrices(1))


def two_site_spin_dot(twice_s: int) -> np.ndarray:
    """S_a . S_b on two adjacent qubit-encoded sites of spin S (4S qubits)."""
    eye = np.eye(2**twice_s)
    return _read_only(sum(np.kron(c, eye) @ np.kron(eye, c) for c in collective_spin_components(twice_s)))


MAX_TOTAL_SPIN_HALVES = 6


def total_spin_squared(n_halves: int) -> np.ndarray:
    """(S_total)^2 for n spin-1/2s, embedded in the full 2^n space."""
    if not 1 <= n_halves <= MAX_TOTAL_SPIN_HALVES:
        raise CapExceededError(f"n_halves={n_halves} outside [1, {MAX_TOTAL_SPIN_HALVES}]")
    sx, sy, sz = collective_spin_components(n_halves)
    return _read_only(sx @ sx + sy @ sy + sz @ sz)


def symmetrizer_from_spin_projector(n_halves: int) -> np.ndarray:
    """Same projector built from the total-spin polynomial.

    Product over all attainable total spins S' < n/2 of
    ((S_total)^2 - S'(S'+1)), normalized so the top-spin sector is fixed.
    """
    if not 1 <= n_halves <= MAX_SYMMETRIZER_HALVES:
        raise CapExceededError(f"n_halves={n_halves} outside [1, {MAX_SYMMETRIZER_HALVES}]")
    s2 = total_spin_squared(n_halves)
    s_max = Fraction(n_halves, 2)
    top = float(s_max * (s_max + 1))
    acc = np.eye(2**n_halves, dtype=complex)
    norm = 1.0
    sp = s_max - 1
    while sp >= 0:
        val = float(sp * (sp + 1))
        acc = acc @ (s2 - val * np.eye(2**n_halves))
        norm *= top - val
        sp -= 1
    return _read_only(acc / norm)


def permutation_by_indices(perm: tuple[int, ...]) -> np.ndarray:
    """Reference for `symmetrize.permutation_operator`: qubit i's bit of each basis index moved to qubit perm[i]."""
    n = len(perm)
    mat = np.zeros((2**n, 2**n))
    for index in range(2**n):
        moved = [0] * n
        for q in range(n):
            moved[perm[q]] = (index >> (n - 1 - q)) & 1
        mat[sum(bit << (n - 1 - q) for q, bit in enumerate(moved)), index] = 1.0
    return mat


def symmetrizer_from_permutations(n_halves: int) -> np.ndarray:
    """Same projector as the uniform average of the n! qubit permutation matrices (`permutation_by_indices`)."""
    perms = itertools.permutations(range(n_halves))
    return _read_only(sum(map(permutation_by_indices, perms)) / math.factorial(n_halves))


def aklt_projector_from_product(twice_s: int) -> np.ndarray:
    """The two-site AKLT projector of spin S onto total spin 2S, qubit-embedded (4S qubits).

    The explicit product over the lower total-spin sectors J of
    (J_total^2 - J(J+1)), normalized so the top sector is fixed.  A
    projector only after restriction to the symmetric subspace of each site.
    """
    comps = collective_spin_components(twice_s)
    dim = 2**twice_s
    eye = np.eye(dim)
    j2 = np.zeros((dim * dim, dim * dim), dtype=complex)
    for c in comps:
        t = np.kron(c, eye) + np.kron(eye, c)
        j2 += t @ t
    s_max = twice_s  # two sites of spin S add up to at most 2S
    acc = np.eye(dim * dim, dtype=complex)
    norm = 1.0
    for sp in range(s_max):
        acc = acc @ (j2 - sp * (sp + 1) * np.eye(dim * dim))
        norm *= s_max * (s_max + 1) - sp * (sp + 1)
    return _read_only(acc / norm)


def blbq_hamiltonian_term(beta: float) -> np.ndarray:
    """Bilinear-biquadratic two-site term x + beta*x^2 on two spin-1 sites."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    x = two_site_spin_dot(2)
    return _read_only(x + beta * (x @ x))


def w_state_vector(m: int) -> np.ndarray:
    vec = np.zeros(2**m, dtype=complex)
    for i in range(m):
        vec[2**i] = 1 / math.sqrt(m)
    return vec

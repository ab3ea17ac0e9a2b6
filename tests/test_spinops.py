"""Symmetrizers, the Dicke isometry and the link rows, each against a reference built from spin matrices or permutations."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from vbsprep.errors import CapExceededError
from vbsprep.spinops import (
    exp_minus_i_pi_symmetrizer,
    link_operators,
    symmetric_fraction,
    symmetric_subspace_isometry,
    symmetrizer,
)
from vbsprep.symmetrize import permutation_operator

from oracle_reference import (
    aklt_projector_from_product,
    blbq_hamiltonian_term,
    permutation_by_indices,
    spin_matrices,
    symmetrizer_from_permutations,
    symmetrizer_from_spin_projector,
    total_spin_squared,
    two_site_spin_dot,
)

TOL = 1e-12


def commutator(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 5])
def test_spin_matrices_algebra(twice_s):
    sx, sy, sz = spin_matrices(twice_s)
    s = twice_s / 2.0
    for op in (sx, sy, sz):
        assert np.max(np.abs(op - op.conj().T)) <= TOL
        assert op.shape == (twice_s + 1, twice_s + 1)
    # [Sx, Sy] = i Sz
    assert np.max(np.abs(commutator(sx, sy) - 1j * sz)) < TOL
    # Casimir S(S+1)
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(casimir - s * (s + 1) * np.eye(twice_s + 1))) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_permutation_operator_matches_its_loop(n):
    """Bit for bit: the loop over basis indices."""
    for perm in itertools.permutations(range(n)):
        ref, got = permutation_by_indices(perm), permutation_operator(perm)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_spin_half_z():
    _, _, sz = spin_matrices(1)
    assert np.allclose(sz, np.diag([0.5, -0.5]), atol=TOL)


def test_spin_one_z():
    _, _, sz = spin_matrices(2)
    assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]), atol=TOL)


def test_total_spin_squared_two_halves():
    expected = np.array(
        [[2, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]], dtype=float
    )
    assert np.max(np.abs(total_spin_squared(2) - expected)) < TOL


def test_total_spin_squared_three_halves_corners():
    m = total_spin_squared(3)
    assert abs(m[0, 0] - 15 / 4) < TOL and abs(m[7, 7] - 15 / 4) < TOL


def test_total_spin_squared_single():
    m = total_spin_squared(1)
    assert np.max(np.abs(m - 0.75 * np.eye(2))) < TOL


def test_total_spin_squared_eigenvalues_are_s_times_s_plus_1():
    for n in (2, 3, 4):
        vals = np.linalg.eigvalsh(total_spin_squared(n))
        allowed = {s * (s + 1) for s in np.arange(n / 2.0, -0.1, -1.0)}
        for v in vals:
            assert min(abs(v - a) for a in allowed) < 1e-10


def test_total_spin_cap():
    with pytest.raises(CapExceededError):
        total_spin_squared(7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrizer_is_projector_with_right_trace(n):
    s = symmetrizer(n)
    assert np.max(np.abs(s - s.conj().T)) <= TOL
    assert np.max(np.abs(s @ s - s)) <= TOL
    assert abs(np.trace(s).real - (n + 1)) < TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetrizer_constructions_agree(n):
    a = symmetrizer(n)
    b = symmetrizer_from_spin_projector(n)
    assert np.max(np.abs(a - b)) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrizer_is_the_permutation_average_bit_for_bit(n):
    """[w(i) = w(j)] / C(n, w(i)) is the n!-permutation average: w! (n - w)! / n! rounds as 1 / C(n, w)."""
    a, b = symmetrizer(n), symmetrizer_from_permutations(n)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_symmetrizer_two_halves_matrix():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]], dtype=float
    )
    assert np.max(np.abs(symmetrizer(2) - expected)) < TOL


def test_symmetrizer_three_halves_matrix():
    s = symmetrizer(3)
    third = 1.0 / 3.0
    assert abs(s[0, 0] - 1) < TOL and abs(s[7, 7] - 1) < TOL
    for i, j in ((1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)):
        assert abs(s[i, j] - third) < TOL
        assert abs(s[i, i] - third) < TOL


def test_symmetrizer_single_is_identity():
    assert np.max(np.abs(symmetrizer(1) - np.eye(2))) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exponential_is_one_minus_twice_symmetrizer(n):
    e = exp_minus_i_pi_symmetrizer(n)
    s = symmetrizer(n)
    assert np.max(np.abs(e - (np.eye(len(s)) - 2 * s))) < TOL
    assert np.max(np.abs(e.conj().T @ e - np.eye(len(e)))) <= TOL
    assert np.max(np.abs(e - e.conj().T)) <= TOL
    assert np.max(np.abs(e @ e - np.eye(len(s)))) < TOL


def test_exponential_two_halves_is_minus_swap():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.max(np.abs(exp_minus_i_pi_symmetrizer(2) + swap)) == 0.0


def test_exponential_single_is_minus_identity():
    assert np.max(np.abs(exp_minus_i_pi_symmetrizer(1) + np.eye(2))) < TOL


def test_projector_fixes_highest_weight_state():
    p = aklt_projector_from_product(2)
    v = np.zeros(16)
    v[0] = 1.0  # all four qubits up: the m=2 state of the total-spin-2 sector
    assert np.max(np.abs(p @ v - v)) < TOL


@pytest.mark.parametrize("twice_s", [2, 3])
def test_projector_eigenvalues_on_doubly_symmetric_subspace(twice_s):
    p = aklt_projector_from_product(twice_s)
    iso = symmetric_subspace_isometry(twice_s)
    pair = np.kron(iso, iso)
    restricted = pair.conj().T @ p @ pair
    vals = np.linalg.eigvalsh(restricted)
    assert all(min(abs(v), abs(v - 1)) < 1e-10 for v in vals)


def _projector_polynomial(twice_s: int) -> list[Fraction]:
    """c_0..c_2S with P = sum_k c_k (S_a . S_b)^k: the Lagrange polynomial through 1 on J = 2S and 0 on J < 2S.

    On the sector of total spin J, S_a . S_b = (J(J+1) - 2 S(S+1)) / 2.
    """
    s = Fraction(twice_s, 2)
    nodes = [(j * (j + 1) - 2 * s * (s + 1)) / 2 for j in range(twice_s + 1)]
    coeffs = [Fraction(1)]
    for node in nodes[:-1]:  # times (x - node) / (top - node)
        shifted = [Fraction(0)] + coeffs  # x * coeffs
        coeffs = [(high - node * low) / (nodes[-1] - node) for high, low in zip(shifted, coeffs + [Fraction(0)])]
    return coeffs


def test_spin_three_halves_projector_gives_the_model_couplings():
    """Dropping the constant and normalizing the bilinear term gives the spin-3/2 model's 116/243 and 16/243."""
    assert _projector_polynomial(2) == [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]
    c0, c1, c2, c3 = _projector_polynomial(3)
    assert c2 / c1 == Fraction(116, 243)
    assert c3 / c1 == Fraction(16, 243)


@pytest.mark.parametrize("twice_s", [2, 3, 4])
def test_projector_polynomial_in_spin_dot_is_the_link_rows(twice_s):
    """The Lagrange polynomial in S_a . S_b, restricted to two spin sites, equals R^T R."""
    pair = np.kron(symmetric_subspace_isometry(twice_s), symmetric_subspace_isometry(twice_s))
    x = pair.T @ two_site_spin_dot(twice_s).real @ pair
    poly = sum(float(c) * np.linalg.matrix_power(x, k) for k, c in enumerate(_projector_polynomial(twice_s)))
    rows = link_operators(twice_s)
    assert np.max(np.abs(poly - rows.T @ rows)) < TOL


def test_spin_dot_eigenvalues_on_two_spin_ones():
    # brute-force eigendecomposition restricted to the spin-1 x spin-1 sector
    x = two_site_spin_dot(2)
    iso = symmetric_subspace_isometry(2)
    pair = np.kron(iso, iso)
    vals = np.linalg.eigvalsh(pair.conj().T @ x @ pair)
    assert all(min(abs(v + 2), abs(v + 1), abs(v - 1)) < 1e-10 for v in vals)


def test_symmetrizer_eigenstructure_three_halves():
    # eigenvalue-1 space = the four exchange-symmetric states
    s = symmetrizer(3)
    sym_states = [
        np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=float),
        np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=float) / np.sqrt(3),
        np.array([0, 0, 0, 1, 0, 1, 1, 0], dtype=float) / np.sqrt(3),
        np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=float),
    ]
    for v in sym_states:
        assert np.max(np.abs(s @ v - v)) < 1e-12
    anti = np.array([0, 1, -1, 0, 0, 0, 0, 0], dtype=float) / np.sqrt(2)
    assert np.max(np.abs(s @ anti)) < 1e-12


def test_blbq_projector_identity_at_beta_one_third():
    """On two spin-1 sites (the product form is the projector only there)."""
    pair = np.kron(symmetric_subspace_isometry(2), symmetric_subspace_isometry(2))
    term = blbq_hamiltonian_term(1.0 / 3.0)
    p = aklt_projector_from_product(2)
    assert np.max(np.abs(pair.T @ (term - 2 * (p - np.eye(16) / 3)) @ pair)) < TOL


def test_blbq_beta_zero_is_bilinear():
    assert np.max(np.abs(blbq_hamiltonian_term(0.0) - two_site_spin_dot(2))) < TOL


def test_symmetric_fraction_values():
    assert symmetric_fraction(2) == Fraction(3, 4)
    assert symmetric_fraction(3) == Fraction(1, 2)
    assert symmetric_fraction(4) == Fraction(5, 16)


@pytest.mark.parametrize(
    "build",
    [
        lambda: spin_matrices(2)[0],
        lambda: spin_matrices(3)[1],
        lambda: total_spin_squared(3),
        lambda: symmetrizer(3),
        lambda: symmetrizer_from_spin_projector(3),
        lambda: exp_minus_i_pi_symmetrizer(2),
        lambda: two_site_spin_dot(2),
        lambda: aklt_projector_from_product(3),
        lambda: blbq_hamiltonian_term(0.5),
    ],
    ids=["Sx", "Sy", "S_total^2", "symmetrizer", "symmetrizer_from_spin_projector", "exp_minus_i_pi_symmetrizer",
         "two_site_spin_dot", "aklt_projector_from_product", "blbq_hamiltonian_term"],
)
def test_every_operator_is_a_read_only_complex_square_array(build):
    op = build()
    assert type(op) is np.ndarray and op.dtype == complex
    assert op.ndim == 2 and op.shape[0] == op.shape[1]
    with pytest.raises(ValueError):
        op[0, 0] = 1.0


@pytest.mark.parametrize("twice_s", [2, 3, 4])
def test_spin_basis_link_projector_is_idempotent(twice_s):
    """R, the rows of P restricted to two spin sites: R R^T = 1, R^T R = P, and on spin 1 H = 2 R^T R - 2/3."""
    rows = link_operators(twice_s)
    d = twice_s + 1
    # the top total spin 2S of two spin-S sites has 4S+1 states
    assert rows.shape == (2 * twice_s + 1, d * d)
    assert np.max(np.abs(rows @ rows.T - np.eye(2 * twice_s + 1))) < TOL
    pair = np.kron(symmetric_subspace_isometry(twice_s), symmetric_subspace_isometry(twice_s))
    assert np.max(np.abs(rows.T @ rows - pair.T @ aklt_projector_from_product(twice_s).real @ pair)) < TOL
    if twice_s == 2:
        term = pair.T @ blbq_hamiltonian_term(1.0 / 3.0) @ pair
        assert np.max(np.abs(2 * rows.T @ rows - 2.0 / 3.0 * np.eye(d * d) - term)) < TOL
    # the rows span a space symmetric under exchange of the two sites, so they read a pair in either order
    swapped = rows.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d)
    assert np.max(np.abs(swapped.T @ swapped - rows.T @ rows)) < TOL
    assert link_operators(twice_s) is link_operators(twice_s)  # built once per 2S
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0  # the cached array is read-only


@pytest.mark.parametrize("n_halves", [1, 2, 3, 4, 5])
def test_symmetric_subspace_isometry_is_the_closed_form_dicke_basis(n_halves):
    """V^dagger V = 1, V V^dagger = the symmetrizer, column k the normalized state with k ones."""
    iso = symmetric_subspace_isometry(n_halves)
    assert iso.shape == (2**n_halves, n_halves + 1)
    assert np.max(np.abs(iso.T @ iso - np.eye(n_halves + 1))) < TOL
    assert np.max(np.abs(iso @ iso.T - symmetrizer(n_halves))) < TOL
    for index, row in enumerate(iso):
        assert np.count_nonzero(row) == 1 and row.argmax() == bin(index).count("1")

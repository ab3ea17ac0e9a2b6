"""Spin matrices, symmetrizers, projectors, and their exact identities."""
import numpy as np
import pytest

from vbsprep.errors import CapExceededError, UnsupportedError
from vbsprep.spinops import (
    DenseOperator,
    SpinValue,
    aklt_projector_from_product,
    aklt_two_site_projector,
    blbq_hamiltonian_term,
    exp_minus_i_pi_symmetrizer,
    spin_matrices,
    symmetric_fraction,
    symmetric_subspace_isometry,
    symmetrizer,
    symmetrizer_from_spin_projector,
    total_spin_squared,
    two_site_spin_dot,
)

TOL = 1e-12


def commutator(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("twice_s", [1, 2, 3, 4, 5])
def test_spin_matrices_algebra(twice_s):
    sx, sy, sz = spin_matrices(SpinValue(twice_s))
    s = twice_s / 2.0
    for op in (sx, sy, sz):
        assert op.is_hermitian(TOL)
        assert op.dim == twice_s + 1
    # [Sx, Sy] = i Sz
    assert np.max(np.abs(commutator(sx.matrix, sy.matrix) - 1j * sz.matrix)) < TOL
    # Casimir S(S+1)
    casimir = sx.matrix @ sx.matrix + sy.matrix @ sy.matrix + sz.matrix @ sz.matrix
    assert np.max(np.abs(casimir - s * (s + 1) * np.eye(twice_s + 1))) < TOL


def test_spin_half_z():
    _, _, sz = spin_matrices(SpinValue(1))
    assert np.allclose(sz.matrix, np.diag([0.5, -0.5]), atol=TOL)


def test_spin_one_z():
    _, _, sz = spin_matrices(SpinValue(2))
    assert np.allclose(sz.matrix, np.diag([1.0, 0.0, -1.0]), atol=TOL)


def test_total_spin_squared_two_halves():
    expected = np.array(
        [[2, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 2]], dtype=float
    )
    assert np.max(np.abs(total_spin_squared(2).matrix - expected)) < TOL


def test_total_spin_squared_three_halves_corners():
    m = total_spin_squared(3).matrix
    assert abs(m[0, 0] - 15 / 4) < TOL and abs(m[7, 7] - 15 / 4) < TOL


def test_total_spin_squared_single():
    m = total_spin_squared(1).matrix
    assert np.max(np.abs(m - 0.75 * np.eye(2))) < TOL


def test_total_spin_squared_eigenvalues_are_s_times_s_plus_1():
    for n in (2, 3, 4):
        vals = np.linalg.eigvalsh(total_spin_squared(n).matrix)
        allowed = {s * (s + 1) for s in np.arange(n / 2.0, -0.1, -1.0)}
        for v in vals:
            assert min(abs(v - a) for a in allowed) < 1e-10


def test_total_spin_cap():
    with pytest.raises(CapExceededError):
        total_spin_squared(7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrizer_is_projector_with_right_trace(n):
    s = symmetrizer(n)
    assert s.is_hermitian(TOL)
    assert s.is_idempotent(TOL)
    assert abs(np.trace(s.matrix).real - (n + 1)) < TOL


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetrizer_constructions_agree(n):
    a = symmetrizer(n).matrix
    b = symmetrizer_from_spin_projector(n).matrix
    assert np.max(np.abs(a - b)) < TOL


def test_symmetrizer_two_halves_matrix():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]], dtype=float
    )
    assert np.max(np.abs(symmetrizer(2).matrix - expected)) < TOL


def test_symmetrizer_three_halves_matrix():
    s = symmetrizer(3).matrix
    third = 1.0 / 3.0
    assert abs(s[0, 0] - 1) < TOL and abs(s[7, 7] - 1) < TOL
    for i, j in ((1, 2), (1, 4), (2, 4), (3, 5), (3, 6), (5, 6)):
        assert abs(s[i, j] - third) < TOL
        assert abs(s[i, i] - third) < TOL


def test_symmetrizer_single_is_identity():
    assert np.max(np.abs(symmetrizer(1).matrix - np.eye(2))) < TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exponential_is_one_minus_twice_symmetrizer(n):
    e = exp_minus_i_pi_symmetrizer(n)
    s = symmetrizer(n)
    assert np.max(np.abs(e.matrix - (np.eye(s.dim) - 2 * s.matrix))) < TOL
    assert e.is_unitary(TOL)
    assert e.is_hermitian(TOL)
    assert np.max(np.abs(e.matrix @ e.matrix - np.eye(s.dim))) < TOL


def test_exponential_two_halves_is_minus_swap():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.max(np.abs(exp_minus_i_pi_symmetrizer(2).matrix + swap)) == 0.0


def test_exponential_single_is_minus_identity():
    assert np.max(np.abs(exp_minus_i_pi_symmetrizer(1).matrix + np.eye(2))) < TOL


def test_projector_fixes_highest_weight_state():
    p = aklt_two_site_projector(SpinValue(2)).matrix
    v = np.zeros(16)
    v[0] = 1.0  # all four qubits up: the m=2 state of the total-spin-2 sector
    assert np.max(np.abs(p @ v - v)) < TOL


@pytest.mark.parametrize("twice_s", [2, 3])
def test_projector_eigenvalues_on_doubly_symmetric_subspace(twice_s):
    p = aklt_two_site_projector(SpinValue(twice_s)).matrix
    iso = symmetric_subspace_isometry(twice_s)
    pair = np.kron(iso, iso)
    restricted = pair.conj().T @ p @ pair
    vals = np.linalg.eigvalsh(restricted)
    assert all(min(abs(v), abs(v - 1)) < 1e-10 for v in vals)


@pytest.mark.parametrize("twice_s", [2, 3])
def test_projector_coefficients_match_product_form(twice_s):
    # The polynomial assumes each site's Casimir takes its spin-S value, so
    # the two constructions agree on the doubly-symmetric subspace.
    poly = aklt_two_site_projector(SpinValue(twice_s)).matrix
    prod = aklt_projector_from_product(SpinValue(twice_s)).matrix
    iso = symmetric_subspace_isometry(twice_s)
    pair = np.kron(iso, iso)
    lhs = pair.conj().T @ poly @ pair
    rhs = pair.conj().T @ prod @ pair
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_projector_unsupported_spin():
    with pytest.raises(UnsupportedError):
        aklt_two_site_projector(SpinValue(4))


def test_spin_dot_eigenvalues_on_two_spin_ones():
    # brute-force eigendecomposition restricted to the spin-1 x spin-1 sector
    x = two_site_spin_dot(SpinValue(2))
    iso = symmetric_subspace_isometry(2)
    pair = np.kron(iso, iso)
    vals = np.linalg.eigvalsh(pair.conj().T @ x @ pair)
    assert all(min(abs(v + 2), abs(v + 1), abs(v - 1)) < 1e-10 for v in vals)


def test_projector_rescaled_to_unit_bilinear_gives_model_coefficients():
    # dropping the constant and normalizing the bilinear term must produce
    # the quadratic/cubic couplings 116/243 and 16/243 of the spin-3/2 model
    from fractions import Fraction

    from vbsprep.spinops import _PROJECTOR_COEFFS

    c0, c1, c2, c3 = _PROJECTOR_COEFFS[3]
    assert c2 / c1 == Fraction(116, 243)
    assert c3 / c1 == Fraction(16, 243)


def test_symmetrizer_eigenstructure_three_halves():
    # eigenvalue-1 space = the four exchange-symmetric states
    s = symmetrizer(3).matrix
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
    term = blbq_hamiltonian_term(1.0 / 3.0).matrix
    p = aklt_two_site_projector(SpinValue(2)).matrix
    assert np.max(np.abs(term - 2 * (p - np.eye(16) / 3))) < TOL


def test_blbq_beta_zero_is_bilinear():
    assert np.max(np.abs(blbq_hamiltonian_term(0.0).matrix - two_site_spin_dot(SpinValue(2)))) < TOL


def test_symmetric_fraction_values():
    from fractions import Fraction

    assert symmetric_fraction(2) == Fraction(3, 4)
    assert symmetric_fraction(3) == Fraction(1, 2)
    assert symmetric_fraction(4) == Fraction(5, 16)


def test_dense_operator_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseOperator(np.array([[np.inf, 0], [0, 1]]))


@pytest.mark.parametrize("twice_s", [2, 3])
def test_spin_basis_link_projector_is_idempotent(twice_s):
    """P and H restricted to two spin sites: P is a projector with eigenvalues 0 and 1, H = 2P - 2/3."""
    from vbsprep.spinops import link_operators

    s = SpinValue(twice_s)
    p, h = link_operators(twice_s)
    d = twice_s + 1
    assert p.shape == (d * d, d * d)
    assert np.max(np.abs(p @ p - p)) < TOL
    assert np.max(np.abs(p - p.T)) < TOL
    vals = np.linalg.eigvalsh(p)
    assert all(min(abs(v), abs(v - 1)) < TOL for v in vals)
    # the top total spin 2S of two spin-S sites has 4S+1 states
    assert round(np.trace(p)) == 2 * twice_s + 1
    pair = np.kron(symmetric_subspace_isometry(twice_s), symmetric_subspace_isometry(twice_s))
    assert np.max(np.abs(pair @ p @ pair.T - pair @ pair.T @ aklt_two_site_projector(s).matrix @ pair @ pair.T)) < TOL
    if twice_s == 2:
        assert np.max(np.abs(h - (2 * p - 2.0 / 3.0 * np.eye(d * d)))) < TOL
    else:
        assert h is None
    assert link_operators(twice_s) is link_operators(twice_s)  # built once per 2S
    with pytest.raises(ValueError):
        p[0, 0] = 1.0  # the cached arrays are read-only
    with pytest.raises(UnsupportedError):
        link_operators(4)


@pytest.mark.parametrize("n_halves", [1, 2, 3, 4, 5])
def test_symmetric_subspace_isometry_is_the_closed_form_dicke_basis(n_halves):
    """V^dagger V = 1, V V^dagger = the symmetrizer, column k the normalized state with k ones."""
    iso = symmetric_subspace_isometry(n_halves)
    assert iso.shape == (2**n_halves, n_halves + 1)
    assert np.max(np.abs(iso.T @ iso - np.eye(n_halves + 1))) < TOL
    assert np.max(np.abs(iso @ iso.T - symmetrizer(n_halves).matrix)) < TOL
    for index, row in enumerate(iso):
        assert np.count_nonzero(row) == 1 and row.argmax() == bin(index).count("1")

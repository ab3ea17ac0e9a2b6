"""Dense spin algebra: spin matrices, symmetrizers, projectors, exponentials.

All operators are exact dense matrices, read-only complex `np.ndarray`s,
except the real `symmetric_subspace_isometry` and `link_operators` and the
fresh writable arrays of `permutation_operator` and `two_site_spin_dot`.
Qubit-embedded operators follow the global convention that the first
tensor factor is the most significant bit of the basis index (see
`statesim`).  A site of spin S is encoded in 2S qubits; the site spin
operators are sums of the constituent spin-1/2 operators, whose
restriction to the exchange-symmetric subspace reproduces the spin-S
algebra.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import CapExceededError, UnsupportedError

MAX_SYMMETRIZER_HALVES = 5


def _read_only(matrix) -> np.ndarray:
    """`matrix` as a complex array that no caller can write into."""
    m = np.asarray(matrix, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class SpinValue:
    """Spin quantum number stored as 2S to keep half-integers exact."""

    twice_s: int

    def __post_init__(self):
        if self.twice_s < 1:
            raise ValueError("2S must be a positive integer")

    @property
    def s(self) -> Fraction:
        return Fraction(self.twice_s, 2)

    @property
    def multiplicity(self) -> int:
        return self.twice_s + 1

    @property
    def n_qubits(self) -> int:
        """Qubits needed for the symmetric encoding of one site."""
        return self.twice_s


# ---------------------------------------------------------------------------
# spin matrices
# ---------------------------------------------------------------------------

def spin_matrices(s: SpinValue) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sx, Sy, Sz) in the basis m = S, S-1, ..., -S via ladder operators."""
    dim = s.multiplicity
    sval = float(s.s)
    m = sval - np.arange(dim)
    sz = np.diag(m)
    # <m+1| S+ |m> = sqrt(S(S+1) - m(m+1)); row i-1 (m+1), column i (m)
    sp = np.zeros((dim, dim))
    for i in range(1, dim):
        sp[i - 1, i] = np.sqrt(sval * (sval + 1) - m[i] * (m[i] + 1))
    sm = sp.T
    sx = (sp + sm) / 2
    sy = (sp - sm) / (2j)
    return _read_only(sx), _read_only(sy), _read_only(sz)


def _embed_single(op: np.ndarray, n: int, pos: int) -> np.ndarray:
    """Embed a 2x2 operator at qubit `pos` of an n-qubit space (pos 0 = MSB)."""
    factors = [op if k == pos else np.eye(2) for k in range(n)]
    return reduce(np.kron, factors, np.ones((1, 1), dtype=complex))


@lru_cache(maxsize=None)
def _collective_spin_components(n_halves: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total-spin components of n spin-1/2s as 2^n-dim matrices."""
    comps = []
    for op in spin_matrices(SpinValue(1)):
        total = np.zeros((2**n_halves, 2**n_halves), dtype=complex)
        for pos in range(n_halves):
            total += _embed_single(op, n_halves, pos)
        comps.append(_read_only(total))
    return tuple(comps)


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------

def permutation_operator(perm: tuple[int, ...]) -> np.ndarray:
    """Matrix sending qubit i's state to qubit perm[i], MSB-first indexing."""
    n = len(perm)
    return np.moveaxis(np.eye(2**n).reshape((2,) * 2 * n), range(n), perm).reshape(2**n, 2**n)


@lru_cache(maxsize=None)
def symmetrizer(n_halves: int) -> np.ndarray:
    """Projector onto the exchange-symmetric subspace of n qubits; read-only, built once per n.

    Built as the uniform average of all n! qubit permutations.
    """
    if not 1 <= n_halves <= MAX_SYMMETRIZER_HALVES:
        raise CapExceededError(f"n_halves={n_halves} outside [1, {MAX_SYMMETRIZER_HALVES}]")
    dim = 2**n_halves
    acc = np.zeros((dim, dim))
    count = 0
    for perm in itertools.permutations(range(n_halves)):
        acc += permutation_operator(perm)
        count += 1
    return _read_only(acc / count)


def exp_minus_i_pi_symmetrizer(n_halves: int) -> np.ndarray:
    """exp(-i*pi*S) = 1 - 2*S for an idempotent S; unitary and Hermitian."""
    s = symmetrizer(n_halves)
    return _read_only(np.eye(len(s)) - 2 * s)


@lru_cache(maxsize=None)
def symmetric_subspace_isometry(n_halves: int) -> np.ndarray:
    """2^n x (n+1) isometry V onto the symmetric subspace of n qubits; read-only.

    Column k, the normalized symmetric state with k ones (m = n/2 - k), is
    1/sqrt(C(n, k)) at every index of Hamming weight k: one nonzero per row.
    """
    ones = [bin(index).count("1") for index in range(2**n_halves)]
    iso = np.zeros((2**n_halves, n_halves + 1))
    iso[range(2**n_halves), ones] = [1 / math.sqrt(math.comb(n_halves, k)) for k in ones]
    iso.setflags(write=False)
    return iso


# ---------------------------------------------------------------------------
# AKLT projectors and Hamiltonian terms
# ---------------------------------------------------------------------------

# Polynomial coefficients in x = S_n . S_n' for the two-site top-spin
# projector, from expanding N * prod_{S' < S_max} (J^2 - S'(S'+1)) with
# J^2 = 2 S_max(S_max+1) + 2x and N fixing the top sector to eigenvalue 1.
# For 2S=3 that product gives constant term 11/128 (the value that makes
# the operator idempotent on the doubly-symmetric subspace).
_PROJECTOR_COEFFS = {
    2: (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)),
    3: (Fraction(11, 128), Fraction(27, 160), Fraction(29, 360), Fraction(1, 90)),
}


def site_spin_operators(s: SpinValue) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin components of one 2S-qubit site, as sums of spin-1/2 operators."""
    return _collective_spin_components(s.n_qubits)


def two_site_spin_dot(s: SpinValue) -> np.ndarray:
    """S_n . S_n' on two adjacent qubit-encoded sites (4S qubits total)."""
    comps = site_spin_operators(s)
    dim = 2**s.n_qubits
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for c in comps:
        out += np.kron(c, eye) @ np.kron(eye, c)
    return out


def aklt_two_site_projector(s: SpinValue) -> np.ndarray:
    """Two-site projector onto the maximal total-spin sector, qubit-embedded.

    A projector only after restriction to the symmetric subspace of each
    site; elsewhere it is just the same polynomial in S_n . S_n'.
    """
    if s.twice_s not in _PROJECTOR_COEFFS:
        raise UnsupportedError(f"two-site projector implemented for 2S in {{2,3}}, got {s.twice_s}")
    coeffs = _PROJECTOR_COEFFS[s.twice_s]
    x = two_site_spin_dot(s)
    acc = float(coeffs[0]) * np.eye(x.shape[0], dtype=complex)
    xk = np.eye(x.shape[0], dtype=complex)
    for c in coeffs[1:]:
        xk = xk @ x
        acc += float(c) * xk
    return _read_only(acc)


@lru_cache(maxsize=None)
def link_operators(twice_s: int) -> np.ndarray:
    """R, the 4S+1 orthonormal rows with R^T R = (V (x) V)^dagger P (V (x) V) on two spin-S sites; read-only.

    P is `aklt_two_site_projector` and V `symmetric_subspace_isometry(2S)`;
    the rows span P's eigenvalue-1 space, the top total spin 2S of the
    pair, so ||R psi||^2 = <psi|P|psi>.  That space is symmetric under
    exchange of the two sites, so R reads a pair in either order.  P is a
    real polynomial in S_a . S_b, so R is real.
    """
    projector = aklt_two_site_projector(SpinValue(twice_s))  # raises UnsupportedError first
    iso = symmetric_subspace_isometry(twice_s)
    pair = np.kron(iso, iso)
    values, vectors = np.linalg.eigh((pair.T @ projector @ pair).real)
    rows = np.ascontiguousarray(vectors[:, values > 0.5].T)
    rows.setflags(write=False)
    return rows


def symmetric_fraction(coordination: int) -> Fraction:
    """Fraction of the 2^N local states with maximal total spin N/2."""
    if coordination < 1:
        raise ValueError("coordination must be >= 1")
    return Fraction(coordination + 1, 2**coordination)

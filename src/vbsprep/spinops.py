"""Dense spin algebra: spin matrices, symmetrizers, projectors, exponentials.

All operators are exact dense complex matrices.  Qubit-embedded operators
follow the global convention that the first tensor factor is the most
significant bit of the basis index (see `statesim`).  A site of spin S is
encoded in 2S qubits; the site spin operators are sums of the constituent
spin-1/2 operators, whose restriction to the exchange-symmetric subspace
reproduces the spin-S algebra.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, UnsupportedError

ALGEBRA_TOL = 1e-12

MAX_SYMMETRIZER_HALVES = 5
MAX_TOTAL_SPIN_HALVES = 6


@dataclass(frozen=True)
class DenseOperator:
    """Exact complex matrix acting on a set of qubits (or a spin-S space)."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        n = self.dim.bit_length() - 1
        if 2**n != self.dim:
            raise ValueError(f"dimension {self.dim} is not a power of 2")
        return n

    def is_hermitian(self, tol: float = ALGEBRA_TOL) -> bool:
        return np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol

    def is_unitary(self, tol: float = ALGEBRA_TOL) -> bool:
        eye = np.eye(self.dim)
        return np.max(np.abs(self.matrix.conj().T @ self.matrix - eye)) <= tol

    def is_idempotent(self, tol: float = ALGEBRA_TOL) -> bool:
        return np.max(np.abs(self.matrix @ self.matrix - self.matrix)) <= tol


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

def spin_matrices(s: SpinValue) -> tuple[DenseOperator, DenseOperator, DenseOperator]:
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
    return (
        DenseOperator(sx, f"Sx(2S={s.twice_s})"),
        DenseOperator(sy, f"Sy(2S={s.twice_s})"),
        DenseOperator(sz, f"Sz(2S={s.twice_s})"),
    )


def _embed_single(op: np.ndarray, n: int, pos: int) -> np.ndarray:
    """Embed a 2x2 operator at qubit `pos` of an n-qubit space (pos 0 = MSB)."""
    out = np.array([[1.0 + 0j]])
    eye = np.eye(2)
    for k in range(n):
        out = np.kron(out, op if k == pos else eye)
    return out


@lru_cache(maxsize=None)
def _collective_spin_components(n_halves: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total-spin components of n spin-1/2s as 2^n-dim matrices."""
    sx, sy, sz = (o.matrix for o in spin_matrices(SpinValue(1)))
    comps = []
    for op in (sx, sy, sz):
        total = np.zeros((2**n_halves, 2**n_halves), dtype=complex)
        for pos in range(n_halves):
            total += _embed_single(op, n_halves, pos)
        comps.append(total)
    comps = tuple(c.copy() for c in comps)
    for c in comps:
        c.setflags(write=False)
    return comps


def total_spin_squared(n_halves: int) -> DenseOperator:
    """(S_total)^2 for n spin-1/2s, embedded in the full 2^n space."""
    if not 1 <= n_halves <= MAX_TOTAL_SPIN_HALVES:
        raise CapExceededError(f"n_halves={n_halves} outside [1, {MAX_TOTAL_SPIN_HALVES}]")
    sx, sy, sz = _collective_spin_components(n_halves)
    return DenseOperator(sx @ sx + sy @ sy + sz @ sz, f"S_total^2({n_halves})")


# ---------------------------------------------------------------------------
# symmetrizers
# ---------------------------------------------------------------------------

def permutation_operator(perm: tuple[int, ...]) -> np.ndarray:
    """Matrix sending qubit i's state to qubit perm[i], MSB-first indexing."""
    n = len(perm)
    dim = 2**n
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        new_bits = [0] * n
        for i, b in enumerate(bits):
            new_bits[perm[i]] = b
        new_idx = sum(b << (n - 1 - q) for q, b in enumerate(new_bits))
        mat[new_idx, idx] = 1.0
    return mat


def symmetrizer(n_halves: int) -> DenseOperator:
    """Projector onto the exchange-symmetric subspace of n qubits.

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
    return DenseOperator(acc / count, f"symmetrizer({n_halves})")


def symmetrizer_from_spin_projector(n_halves: int) -> DenseOperator:
    """Same projector built from the total-spin polynomial.

    Product over all attainable total spins S' < n/2 of
    ((S_total)^2 - S'(S'+1)), normalized so the top-spin sector is fixed.
    """
    if not 1 <= n_halves <= MAX_SYMMETRIZER_HALVES:
        raise CapExceededError(f"n_halves={n_halves} outside [1, {MAX_SYMMETRIZER_HALVES}]")
    s2 = total_spin_squared(n_halves).matrix
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
    return DenseOperator(acc / norm, f"symmetrizer_proj({n_halves})")


def exp_minus_i_pi_symmetrizer(n_halves: int) -> DenseOperator:
    """exp(-i*pi*S) = 1 - 2*S for an idempotent S; unitary and Hermitian."""
    s = symmetrizer(n_halves)
    return DenseOperator(np.eye(s.dim) - 2 * s.matrix, f"exp(-i*pi*S({n_halves}))")


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


def aklt_two_site_projector(s: SpinValue) -> DenseOperator:
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
    return DenseOperator(acc, f"P_top(2S={s.twice_s})")


def aklt_projector_from_product(s: SpinValue) -> DenseOperator:
    """Same projector from the explicit product over lower total-spin sectors.

    Independent of the expanded polynomial coefficients; used as their oracle.
    """
    comps = site_spin_operators(s)
    dim = 2**s.n_qubits
    eye = np.eye(dim)
    j2 = np.zeros((dim * dim, dim * dim), dtype=complex)
    for c in comps:
        t = np.kron(c, eye) + np.kron(eye, c)
        j2 += t @ t
    s_max = s.twice_s  # two sites of spin S add up to at most 2S
    acc = np.eye(dim * dim, dtype=complex)
    norm = 1.0
    for sp in range(s_max):
        acc = acc @ (j2 - sp * (sp + 1) * np.eye(dim * dim))
        norm *= s_max * (s_max + 1) - sp * (sp + 1)
    return DenseOperator(acc / norm, f"P_top_product(2S={s.twice_s})")


def blbq_hamiltonian_term(beta: float) -> DenseOperator:
    """Bilinear-biquadratic two-site term x + beta*x^2 on two spin-1 sites."""
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    x = two_site_spin_dot(SpinValue(2))
    return DenseOperator(x + beta * (x @ x), f"blbq(beta={beta})")


@lru_cache(maxsize=None)
def link_operators(twice_s: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(V (x) V)^dagger O (V (x) V) on two spin-S sites, V = `symmetric_subspace_isometry(2S)`; read-only.

    Returns (p, h): O = `aklt_two_site_projector` and the AKLT term
    `blbq_hamiltonian_term(1/3)` (h None unless 2S=2).  Both are real
    polynomials in S_a . S_b, so the arrays are real.
    """
    projector = aklt_two_site_projector(SpinValue(twice_s)).matrix  # raises UnsupportedError first
    iso = symmetric_subspace_isometry(twice_s)
    pair = np.kron(iso, iso)
    p = (pair.T @ projector @ pair).real
    h = (pair.T @ blbq_hamiltonian_term(1.0 / 3.0).matrix @ pair).real if twice_s == 2 else None
    for arr in (p, h):
        if arr is not None:
            arr.setflags(write=False)
    return p, h


def symmetric_fraction(coordination: int) -> Fraction:
    """Fraction of the 2^N local states with maximal total spin N/2."""
    if coordination < 1:
        raise ValueError("coordination must be >= 1")
    return Fraction(coordination + 1, 2**coordination)

"""Dense spin operators on qubit-encoded sites, each read off Hamming weights.

A site of spin S is encoded in 2S qubits.  Its spin states are the
exchange-symmetric states of those qubits: the state with k ones
(m = S - k) is the uniform superposition of the C(2S, k) basis states of
Hamming weight k.  So every operator here is a function of the weights
w(i) of its indices: the symmetrizer, the Dicke isometry V and the link
rows R.  Two spin-S sites add up to total spin at most 2S, and that top
sector is the symmetric subspace of their 4S qubits, whose Dicke states
read in the two sites' spin bases are R's rows.

All operators are exact dense read-only matrices: complex for the
symmetrizer and its exponential, real for V and R.  Qubit-embedded
operators follow the global convention that the first tensor factor is
the most significant bit of the basis index (see `statesim`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapExceededError

MAX_SYMMETRIZER_HALVES = 5


def _read_only(matrix) -> np.ndarray:
    """`matrix` as a complex array that no caller can write into."""
    m = np.asarray(matrix, dtype=complex)
    m.setflags(write=False)
    return m


def _weights(n_halves: int) -> np.ndarray:
    """w(i), the Hamming weight of every index i of an n-qubit space."""
    return np.array([bin(index).count("1") for index in range(2**n_halves)])


@lru_cache(maxsize=None)
def symmetrizer(n_halves: int) -> np.ndarray:
    """Projector onto the exchange-symmetric subspace of n qubits; read-only, built once per n.

    [w(i) = w(j)] / C(n, w(i)): the average of the n! qubit permutations,
    of which w! (n - w)! take index j to each index i of its weight.
    """
    if not 1 <= n_halves <= MAX_SYMMETRIZER_HALVES:
        raise CapExceededError(f"n_halves={n_halves} outside [1, {MAX_SYMMETRIZER_HALVES}]")
    ones = _weights(n_halves)
    sizes = np.array([math.comb(n_halves, k) for k in ones])
    return _read_only((ones[:, None] == ones) / sizes[:, None])


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
    ones = _weights(n_halves)
    iso = np.zeros((2**n_halves, n_halves + 1))
    iso[range(2**n_halves), ones] = [1 / math.sqrt(math.comb(n_halves, k)) for k in ones]
    iso.setflags(write=False)
    return iso


@lru_cache(maxsize=None)
def link_operators(twice_s: int) -> np.ndarray:
    """R, the 4S+1 orthonormal rows with R^T R = (V (x) V)^dagger P (V (x) V) on two spin-S sites; read-only.

    P is the two-site AKLT projector onto total spin 2S, V
    `symmetric_subspace_isometry(2S)`.  Row K is the pair's Dicke state
    with K ones, whose overlap with the sites' states with a and b = K - a
    ones is R[a + b, (a, b)] = sqrt(C(2S, a) C(2S, b) / C(4S, a + b)), so
    ||R psi||^2 = <psi|P|psi>.  R[K, (a, b)] = R[K, (b, a)]: R reads a pair
    in either order.
    """
    d = twice_s + 1
    rows = np.zeros((2 * twice_s + 1, d * d))
    for a in range(d):
        for b in range(d):
            rows[a + b, a * d + b] = math.sqrt(
                math.comb(twice_s, a) * math.comb(twice_s, b) / math.comb(2 * twice_s, a + b)
            )
    rows.setflags(write=False)
    return rows


def symmetric_fraction(coordination: int) -> Fraction:
    """Fraction of the 2^N local states with maximal total spin N/2."""
    if coordination < 1:
        raise ValueError("coordination must be >= 1")
    return Fraction(coordination + 1, 2**coordination)

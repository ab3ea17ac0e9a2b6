"""Matrix-product-state route: the bond-dimension-2 tensor form of the 1D
spin-1 state, left-canonicalization, unitary disentanglers, and the
sequential preparation circuit for open and periodic chains.

Sites are numbered 1..N with qubits (L_i, R_i) = (2i-2, 2i-1).  A tensor is
stored with axes (left_bond, sigma_L, sigma_R, right_bond).  In the
preparation direction, the gate built from site i's enlarged tensor emits
the bond toward site i-1 on its first qubit and consumes the incoming bond
on its last qubit.  A site's disentangler follows from its tensor alone:
the first, bulk and last sites of a chain differ only in their bond sizes.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, UnsupportedError
from .ir import Circuit, Measure, Opaque
from .lattice import BOUNDARY_OPEN, BOUNDARY_RING
from .schmidt import schmidt_prepare

CANONICAL_TOL = 1e-12


def left_normalization_defect(tensor: np.ndarray) -> float:
    """max |A^dag A - 1|, A the (left, 2, 2, right) tensor with its right bond as columns."""
    a = tensor.reshape(-1, tensor.shape[3])
    return float(np.max(np.abs(a.conj().T @ a - np.eye(tensor.shape[3]))))


def local_vbs_tensor() -> np.ndarray:
    """Translation-invariant two-qubit-per-site tensor of the spin-1 chain."""
    a = np.zeros((2, 2, 2, 2))
    r23, r6 = math.sqrt(2.0 / 3.0), 1.0 / math.sqrt(6.0)
    a[0, 0, 0, 1] = r23       # both up
    a[0, 0, 1, 0] = -r6       # up/down
    a[1, 0, 1, 1] = r6
    a[0, 1, 0, 0] = -r6       # down/up
    a[1, 1, 0, 1] = r6
    a[1, 1, 1, 0] = -r23      # both down
    return a


def _slice_index(spin: str, side: str) -> int:
    if side == "left":
        return 0 if spin == "up" else 1
    return 1 if spin == "up" else 0


def vbs_mps(n_sites: int, boundary: str, boundary_spins=("up", "up")) -> list[np.ndarray]:
    """Left-canonical (left, 2, 2, right) tensors of the spin-1 chain state, site 1 first;
    a ring (BOUNDARY_RING) repeats local_vbs_tensor, an open chain (BOUNDARY_OPEN) is swept."""
    if n_sites < 2:
        raise ConfigError("need at least 2 sites")
    a = local_vbs_tensor()
    if boundary == BOUNDARY_RING:
        return [a] * n_sites
    if boundary != BOUNDARY_OPEN:
        raise ConfigError(f"unknown boundary {boundary!r}")
    xl = _slice_index(boundary_spins[0], "left")
    xr = _slice_index(boundary_spins[1], "right")
    tensors = [a.copy() for _ in range(n_sites)]
    tensors[0] = tensors[0][xl : xl + 1]
    tensors[-1] = tensors[-1][:, :, :, xr : xr + 1]
    return left_canonicalize(tensors)


def left_canonicalize(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Left-canonical tensors of the same state by one left-to-right SVD sweep; drops the final scalar norm."""
    out: list[np.ndarray] = []
    carry = np.eye(arrays[0].shape[0])
    for i, arr in enumerate(arrays):
        t = np.tensordot(carry, arr, axes=(1, 0))
        l, _, _, r = t.shape
        mat = t.reshape(l * 4, r)
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        keep = max(1, int(np.sum(s > CANONICAL_TOL)))
        u, s, vh = u[:, :keep], s[:keep], vh[:keep]
        out.append(u.reshape(l, 2, 2, keep))
        carry = s[:, None] * vh
    # carry is now 1x1: the overall norm (and sign), dropped to normalize.
    if carry.shape != (1, 1):
        raise RuntimeError("canonical sweep did not terminate on a scalar")
    return out


# ---------------------------------------------------------------------------
# disentanglers
# ---------------------------------------------------------------------------

def complete_to_unitary(cols: np.ndarray) -> np.ndarray:
    """Extend d x k orthonormal columns to a d x d unitary whose first k columns are `cols` itself.

    The other d - k are the leading left singular vectors of 1 - cols cols^dag;
    any completion serves, since dummy inputs select only the given columns.
    """
    d, k = cols.shape
    u, _, _ = np.linalg.svd(np.eye(d) - cols @ cols.conj().T)
    out = np.hstack([cols, u[:, : d - k]])
    if np.max(np.abs(out.conj().T @ out - np.eye(d))) > CANONICAL_TOL:
        raise RuntimeError("completion is not unitary")
    return out


def build_disentangler(tensor: np.ndarray) -> np.ndarray:
    """Unitary whose constrained input columns are the left-canonical (left, 2, 2, right)
    `tensor` with its right bond as columns (one column, an open chain's last site, normalized)."""
    if left_normalization_defect(tensor) > 1e-10:
        raise ConfigError("disentangler construction needs a left-canonical tensor")
    cols = tensor.reshape(-1, tensor.shape[3])
    return complete_to_unitary(cols / np.linalg.norm(cols) if cols.shape[1] == 1 else cols)


def fuse_boundary_tensor(arr: np.ndarray) -> np.ndarray:
    """4x4 matrix with rows (sigma_L, sigma_R) and columns (right, left)."""
    return np.transpose(arr, (1, 2, 3, 0)).reshape(4, 4)


def embed_nonunitary_periodic(a_tilde: np.ndarray, n_scale: float) -> np.ndarray:
    """Embed a 4x4 non-unitary block into an 8x8 unitary.

    The top-left quadrant of the result is n_scale * a_tilde; post-selecting
    the extra (most significant) qubit in |0> applies the block.
    """
    u, s, vh = np.linalg.svd(a_tilde)
    smax = float(np.max(s))
    if not 0 < n_scale < 1.0 / smax:
        raise ConfigError(f"embedding scale {n_scale} outside (0, {1.0 / smax:.6f})")
    c = u @ np.diag(np.sqrt(1.0 - (n_scale * s) ** 2)) @ vh
    top = np.vstack([n_scale * a_tilde, c])
    return complete_to_unitary(top)


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------

def ring_embedding_weight(n_sites: int) -> float:
    """<a~^dag a~> on (L_1, R_1) of the ring circuit just before its boundary block.

    Equals Tr(E^N) / 2, with E the 4x4 transfer matrix of local_vbs_tensor
    (eigenvalues 1, -1/3, -1/3, -1/3).
    """
    a = local_vbs_tensor()
    e = np.einsum("labr,mabs->lmrs", a, a.conj()).reshape(4, 4)
    return float(np.trace(np.linalg.matrix_power(e, n_sites)).real) / 2


def mps_circuit(n_sites: int, boundary: str, boundary_spins=("up", "up")) -> Circuit:
    """Sequential disentangler-inverse preparation (Schön et al., PRL 95, 110503, 2005).

    Site i's disentangler is the opaque block `mps_site{i}`.  An open chain
    needs no ancilla.  A ring starts from its last tensor prepared by a
    Schmidt split on (R_{N-1}, L_N, R_N, R_1) and ends with the non-unitary
    first-site tensor embedded on (ancilla, L_1, R_1), ancilla 2N measured
    for |0> (the embedding and its marker are one declared block); the
    embedding scale makes that outcome's probability 1/2.
    """
    if not 2 <= n_sites <= 6:
        raise UnsupportedError("mps_circuit supports 2..6 sites")
    periodic = boundary == BOUNDARY_RING
    if periodic and n_sites < 3:
        raise UnsupportedError("periodic preparation needs at least 3 sites")
    tensors = vbs_mps(n_sites, boundary, boundary_spins)
    circ = Circuit(2 * n_sites + periodic)

    def block_qubits(site: int) -> tuple[int, ...]:  # (R_{i-1}, L_i, R_i)
        return (2 * site - 3, 2 * site - 2, 2 * site - 1)

    def disentangler(site: int, qubits: tuple[int, ...]):
        circ.add(Opaque(f"mps_site{site}", qubits, build_disentangler(tensors[site - 1])))

    if periodic:
        vec = tensors[-1].reshape(16)
        circ.extend(schmidt_prepare(vec, qubits=(*block_qubits(n_sites), 1), label="mps_init").gates)
    else:
        disentangler(n_sites, block_qubits(n_sites))
    for i in range(n_sites - 1, 1, -1):
        # on a ring R_1 already holds the closing bond, so site 2 emits on L_1
        disentangler(i, (0, 2, 3) if periodic and i == 2 else block_qubits(i))
    if not periodic:
        disentangler(1, (0, 1))
        return circ
    anc = 2 * n_sites
    scale = math.sqrt(0.5 / ring_embedding_weight(n_sites))
    block = embed_nonunitary_periodic(fuse_boundary_tensor(tensors[0]), scale)
    circ.add(Opaque("mps_site1", (anc, 0, 1), block))
    circ.add(Measure(anc, expect=0))
    circ.blocks.append((len(circ.gates) - 2, len(circ.gates)))
    return circ

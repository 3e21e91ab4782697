"""Exact eigensolver for qubit Hamiltonians; the reference every test leans on.

Small problems, up to 2^8 amplitudes, and requests for nearly every level
take the dense complex ``eigh``. Above that the Hamiltonian is stacked into a
CSR matrix by X mask (``pauli.to_csr``), held in float64 when every
imaginary part is exactly zero (as for every molecular Hamiltonian here), and
its lowest levels come from ARPACK's Lanczos iteration (``eigsh``) started
from a fixed seeded vector, so repeated calls return the same bits. Before
anything is built, the bytes the solve would hold (``solve_bytes``) are
checked against the package's one ``pauli.BYTE_BUDGET``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..pauli import (
    AMPLITUDE_BYTES,
    NonHermitian,
    PauliSum,
    check_bytes,
    matrix_bytes,
    to_csr,
    to_matrix,
    x_masks,
)
from ..simulator import EIGH_MATRICES

LANCZOS_SEED = 20180830
DENSE_DIMENSION = 1 << 8
# A stored CSR entry: its complex value, its float64 copy when the matrix is
# real, and its column index.
CSR_ENTRY_BYTES = 16 + 8 + 8
# What a caller that knows nothing of the run suggests when a solve is refused.
SHRINK_HINT = "; shrink the problem with --reduce"


def lanczos_size(dim: int, k: int) -> int:
    """Vectors in eigsh's Lanczos basis for k levels: scipy's default ncv."""
    return min(dim, max(2 * k + 1, 20))


def takes_dense(dim: int, k: int) -> bool:
    """Dense eigh for small matrices and where the Lanczos basis would span
    the whole space anyway."""
    return dim <= DENSE_DIMENSION or lanczos_size(dim, k) >= dim


def solve_bytes(masks: int, n: int, k: int) -> int:
    """Bytes the solve of a sum with ``masks`` distinct X masks on n qubits
    holds at once: the dense eigh's ``EIGH_MATRICES``, or the CSR entries
    (all of them, as stacked before the zeros are dropped) and the Lanczos
    basis."""
    dim = 1 << n
    if takes_dense(dim, k):
        return EIGH_MATRICES * matrix_bytes(n)
    return dim * (masks * CSR_ENTRY_BYTES + lanczos_size(dim, k) * AMPLITUDE_BYTES)


def sparse_eigensolve(h: PauliSum, k: int, n: int, with_vectors: bool = False):
    """k lowest levels of h on n qubits by Lanczos on its CSR matrix, ascending;
    (values, complex vectors as columns) when ``with_vectors`` is set."""
    matrix = to_csr(h, n)
    if not matrix.data.imag.any():
        matrix = scipy.sparse.csr_array(
            (matrix.data.real.copy(), matrix.indices, matrix.indptr),
            shape=matrix.shape)
    start = np.random.default_rng(LANCZOS_SEED).standard_normal(1 << n)
    found = scipy.sparse.linalg.eigsh(matrix, k=k, which="SA", v0=start,
                                      return_eigenvectors=with_vectors)
    if not with_vectors:
        return np.sort(found)
    values, vectors = found
    order = np.argsort(values)
    return values[order], vectors[:, order].astype(complex)


def exact_eigensolve(h: PauliSum,
                     k: int = 1,
                     n_qubits: int | None = None,
                     with_vectors: bool = False,
                     hint: str = SHRINK_HINT):
    """k lowest eigenvalues of h, ascending.

    Returns the eigenvalue array, or (values, vectors-as-columns) when
    ``with_vectors`` is set. Raises TooLarge, before allocating, when the
    solve would hold more than BYTE_BUDGET; its message ends with ``hint``.
    """
    if not h.is_hermitian():
        raise NonHermitian("eigensolve requires a Hermitian sum")
    n = n_qubits if n_qubits is not None else max(h.n_qubits, 1)
    if n < h.n_qubits:
        raise ValueError(f"sum acts on {h.n_qubits} qubits, asked for {n}")
    check_bytes(solve_bytes(len(x_masks(h)), n, k),
                f"the exact solve on {n} qubits", hint)
    if not takes_dense(1 << n, k):
        return sparse_eigensolve(h, k, n, with_vectors)
    values, vectors = np.linalg.eigh(to_matrix(h, n))
    values, vectors = values[:k], vectors[:, :k]
    if with_vectors:
        return values, vectors
    return values


def ground_state(h: PauliSum, n_qubits: int | None = None,
                 hint: str = SHRINK_HINT) -> tuple[float, np.ndarray]:
    values, vectors = exact_eigensolve(h, k=1, n_qubits=n_qubits,
                                       with_vectors=True, hint=hint)
    return float(values[0]), vectors[:, 0]

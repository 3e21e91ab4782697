"""Exact eigensolver for qubit Hamiltonians; the reference every test leans on."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg

from ..pauli import (
    DENSE_QUBIT_LIMIT,
    NonHermitian,
    PauliSum,
    TooLarge,
    apply_to_statevector,
    to_matrix,
)
from ..simulator import STATEVECTOR_QUBIT_LIMIT

LANCZOS_SEED = 20180830


def exact_eigensolve(h: PauliSum,
                     k: int = 1,
                     n_qubits: int | None = None,
                     with_vectors: bool = False):
    """k lowest eigenvalues of h, ascending; dense up to 14 qubits, else Lanczos.

    Lanczos starts from a fixed seeded vector, so repeated calls return the
    same bits. Returns the eigenvalue array, or (values, vectors-as-columns)
    when ``with_vectors`` is set.
    """
    if not h.is_hermitian():
        raise NonHermitian("eigensolve requires a Hermitian sum")
    n = n_qubits if n_qubits is not None else max(h.n_qubits, 1)
    if n < h.n_qubits:
        raise ValueError(f"sum acts on {h.n_qubits} qubits, asked for {n}")
    if n <= DENSE_QUBIT_LIMIT:
        matrix = to_matrix(h, n)
        values, vectors = np.linalg.eigh(matrix)
        values, vectors = values[:k], vectors[:, :k]
    elif n <= STATEVECTOR_QUBIT_LIMIT:
        dim = 1 << n
        op = scipy.sparse.linalg.LinearOperator(
            (dim, dim), matvec=lambda v: apply_to_statevector(h, v), dtype=complex)
        start = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
        values, vectors = scipy.sparse.linalg.eigsh(op, k=k, which="SA",
                                                    v0=start)
        order = np.argsort(values)
        values, vectors = values[order], vectors[:, order]
    else:
        raise TooLarge(f"{n} qubits exceeds the sparse limit of {STATEVECTOR_QUBIT_LIMIT}")
    if with_vectors:
        return values, vectors
    return values


def ground_state(h: PauliSum, n_qubits: int | None = None) -> tuple[float, np.ndarray]:
    values, vectors = exact_eigensolve(h, k=1, n_qubits=n_qubits, with_vectors=True)
    return float(values[0]), vectors[:, 0]

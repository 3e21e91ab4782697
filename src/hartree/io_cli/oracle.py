"""Exact eigensolver for qubit Hamiltonians; the reference every test leans on.

Small problems, up to 2^8 amplitudes, and requests for nearly every level
take the dense path, ``simulator.hermitian_eigh``: float64 when every
imaginary part of the matrix is exactly zero (as for every molecular
Hamiltonian here), complex otherwise, values alone from ``eigvalsh`` and
only the k lowest pairs when vectors are asked for. Above that the
Hamiltonian is stacked into a CSR matrix by X mask (``pauli.to_csr``), held
in float64 under the same rule, and its lowest levels come from ARPACK's
Lanczos iteration (``eigsh``) started from a fixed seeded vector, so
repeated calls return the same bits. Single-vector Lanczos holds one vector
per degenerate level in exact arithmetic, so the copies of a level beyond
the first appear only through round-off; each solve is therefore checked
for levels it missed by Lanczos on H with the levels found shifted out of
the way, until none is left below the k-th. Before anything is built, the
bytes the solve would hold (``solve_bytes``) are checked against the
package's one ``pauli.BYTE_BUDGET``.
"""

from __future__ import annotations

import numpy as np

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
from ..simulator import EIGH_MATRICES, hermitian_eigh

LANCZOS_SEED = 20180830
# A level the copy check finds counts as missed when it lies this far below
# the k-th level found; a further copy of the k-th level itself is no miss.
COPY_TOLERANCE = 1e-10
# ARPACK's relative residual at which the copy check stops: 104 instead of
# 176 products on 10-qubit tapered LiH.
CHECK_TOLERANCE = 1e-8
DENSE_DIMENSION = 1 << 8
# A stored CSR entry: its complex value, its float64 copy when the matrix is
# real, and its column index.
CSR_ENTRY_BYTES = 16 + 8 + 8
# What a caller that knows nothing of the run suggests when a solve is refused.
SHRINK_HINT = "; shrink the problem with --reduce"


def lanczos_size(dim: int, k: int) -> int:
    """Vectors in eigsh's Lanczos basis for k levels: scipy's default ncv."""
    return min(dim, max(2 * k + 1, 20))


def check_size(dim: int, k: int) -> int:
    """Vectors in the copy check's Lanczos basis: what is left of the first
    basis beside the k levels' vectors and the check's start, at least 10."""
    return lanczos_size(dim, k) - k - 1


def takes_dense(dim: int, k: int) -> bool:
    """Dense eigh for small matrices and where the Lanczos basis would span
    the whole space anyway."""
    return dim <= DENSE_DIMENSION or lanczos_size(dim, k) >= dim


def solve_bytes(masks: int, n: int, k: int) -> int:
    """Bytes the solve of a sum with ``masks`` distinct X masks on n qubits
    holds at once: the dense eigh's ``EIGH_MATRICES``, or the CSR entries
    (all of them, as stacked before the zeros are dropped) and the larger
    of the Lanczos basis and the copy check's vectors (the k deflated
    levels, its start and its own basis)."""
    dim = 1 << n
    if takes_dense(dim, k):
        return EIGH_MATRICES * matrix_bytes(n)
    vectors = max(lanczos_size(dim, k), k + 1 + check_size(dim, k))
    return dim * (masks * CSR_ENTRY_BYTES + vectors * AMPLITUDE_BYTES)


def _shifted_out(matrix, vectors: np.ndarray, shift: float
                 ) -> scipy.sparse.linalg.LinearOperator:
    """H + shift * V V^H, V the columns of ``vectors``, as an operator."""
    import scipy.sparse.linalg

    adjoint = vectors.conj().T
    return scipy.sparse.linalg.LinearOperator(
        matrix.shape, dtype=matrix.dtype,
        matvec=lambda x: matrix @ x + shift * (vectors @ (adjoint @ x)))


def sparse_eigensolve(h: PauliSum, k: int, n: int, with_vectors: bool = False):
    """k lowest levels of h on n qubits by Lanczos on its CSR matrix, ascending;
    (values, complex vectors as columns) when ``with_vectors`` is set.

    The copy check runs Lanczos for the lowest level of H + shift * V V^H,
    V the k vectors found and the shift above twice the largest absolute
    row sum of H, which lifts their levels above every level of H. It
    starts from the next vector of the seeded stream made orthogonal to V:
    the first start's component on a missed copy already lies in V. It
    stops at CHECK_TOLERANCE, since its lowest Ritz value bounds the lowest
    level from above: a value below the k-th level by more than
    COPY_TOLERANCE proves a missed level. That level is then solved to full
    precision from the vector found, takes its place in sorted order, and
    the check repeats until it finds none.
    """
    import scipy.sparse
    import scipy.sparse.linalg

    matrix = to_csr(h, n)
    if not matrix.data.imag.any():
        matrix = scipy.sparse.csr_array(
            (matrix.data.real.copy(), matrix.indices, matrix.indptr),
            shape=matrix.shape)
    dim = 1 << n
    stream = np.random.default_rng(LANCZOS_SEED)
    values, vectors = scipy.sparse.linalg.eigsh(
        matrix, k=k, which="SA", v0=stream.standard_normal(dim))
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    shift = 2.0 * float(abs(matrix).sum(axis=1).max()) + 1.0
    while True:
        start = stream.standard_normal(dim)
        start = start - vectors @ (vectors.conj().T @ start)
        operator = _shifted_out(matrix, vectors, shift)
        [level], found = scipy.sparse.linalg.eigsh(
            operator, k=1, which="SA", v0=start, ncv=check_size(dim, k),
            tol=CHECK_TOLERANCE)
        if not level < values[-1] - COPY_TOLERANCE:
            break
        [level], found = scipy.sparse.linalg.eigsh(
            operator, k=1, which="SA", v0=found[:, 0], ncv=check_size(dim, k))
        at = np.searchsorted(values, level, side="right")
        values = np.insert(values, at, level)[:k]
        vectors = np.insert(vectors, [at], found, axis=1)[:, :k]
    if not with_vectors:
        return values
    return values, vectors.astype(complex)


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
    found = hermitian_eigh(to_matrix(h, n), k, with_vectors)
    if with_vectors:
        values, vectors = found
        return values, vectors.astype(complex)
    return found


def ground_state(h: PauliSum, n_qubits: int | None = None,
                 hint: str = SHRINK_HINT) -> tuple[float, np.ndarray]:
    values, vectors = exact_eigensolve(h, k=1, n_qubits=n_qubits,
                                       with_vectors=True, hint=hint)
    return float(values[0]), vectors[:, 0]

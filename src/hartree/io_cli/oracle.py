"""Exact eigensolver for qubit Hamiltonians; the reference every test leans on.

Small problems, up to 2^8 amplitudes, and requests for nearly every level
take the dense path, ``simulator.hermitian_eigh``: float64 when every
imaginary part of the matrix is exactly zero (as for every molecular
Hamiltonian here), complex otherwise, values alone from ``eigvalsh`` and
only the k lowest pairs when vectors are asked for.

Above that the register is split into symmetry blocks, each solved on its
own (Bravyi, Gambetta, Mezzacapo and Temme, arXiv:1701.08213). Every basis
index gets a label: its coset under the GF(2) span of the sum's X masks
(the index reduced by the masks' row-echelon basis), which no term can
leave, and the rounded value on that index of each diagonal ``conserved``
sum the caller passes, such as the encoded electron and spin-up numbers.
The indices of one label are a block. Its entries are the X-mask weights
of ``pauli._mask_weights``, those ``to_matrix`` holds; an entry that joins
two labels is dropped when its modulus is at most OFF_BLOCK_TOLERANCE and
is otherwise a NotSymmetric error naming its X mask. Blocks that
``takes_dense`` accepts are solved by LAPACK, blocks of one size in one
stacked ``eigvalsh`` or ``eigh`` call, in float64 when every imaginary part
is zero. Larger blocks go to Lanczos (``sparse_eigensolve``) in ascending order of their
Gershgorin lower bound, and a block whose bound lies above the k-th level
found so far cannot hold one of the k lowest, so it and those after it are
skipped. The k lowest levels are merged in (value, block) order, blocks in
label order, and their vectors are embedded in the whole register.

Lanczos (ARPACK's ``eigsh``) starts from a fixed seeded vector, so repeated
calls return the same bits. Single-vector Lanczos holds one vector per
degenerate level in exact arithmetic, so the copies of a level beyond the
first appear only through round-off; each solve is therefore checked for
levels it missed by Lanczos on H with the levels found shifted out of the
way, until none is left below the k-th. Before anything is built, the
bytes the solve would hold (``solve_bytes``) are checked against the
package's one ``pauli.BYTE_BUDGET``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..pauli import (
    AMPLITUDE_BYTES,
    TABLE_BYTES,
    NonHermitian,
    PauliSum,
    _mask_weights,
    _slots,
    check_bytes,
    matrix_bytes,
    to_matrix,
    x_masks,
)
from ..reduction import NotSymmetric
from ..simulator import EIGH_MATRICES, hermitian_eigh

LANCZOS_SEED = 20180830
# A level the copy check finds counts as missed when it lies this far below
# the k-th level found; a further copy of the k-th level itself is no miss.
COPY_TOLERANCE = 1e-10
# ARPACK's relative residual at which the copy check stops: 104 instead of
# 176 products on 10-qubit tapered LiH.
CHECK_TOLERANCE = 1e-8
DENSE_DIMENSION = 1 << 8
# The largest modulus of an entry between two blocks that the split drops;
# on the molecular registers here they are round-off, at most 3.4e-17.
OFF_BLOCK_TOLERANCE = 1e-12
# A stored sparse entry: its complex value, its float64 copy when the matrix
# is real, and its column index (int32) and the copy's.
CSR_ENTRY_BYTES = 16 + 8 + 8
# An entry of a Lanczos block as the split keeps it, beside its X mask: its
# row index and complex value.
ENTRY_BYTES = 8 + 16
# The index arrays the split holds per basis state at once, counted on the
# entry pass: block, position, the block order and row offsets, the
# Gershgorin bounds' two sums, the pass's column and target indices and
# the weights of one mask (sixteen 8-byte arrays, a few masks of bytes).
LABEL_BYTES = 16 * 8
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


def solve_bytes(masks: int, n: int, k: int, largest: int | None = None) -> int:
    """Bytes the solve of a sum with ``masks`` distinct X masks on n qubits
    holds at once, its blocks at most ``largest`` states (the whole
    register by default).

    A dense solve holds ``EIGH_MATRICES`` matrices. A split holds its index
    arrays (LABEL_BYTES a state), each state's row of its dense block or
    its kept entries (ENTRY_BYTES each), and the larger of two solves: a
    stacked LAPACK call's copies of at most TABLE_BYTES of matrices (one
    matrix at least), or the largest block's Lanczos, its entries selected
    and again as CSR, and the larger of the Lanczos basis and the copy
    check's vectors."""
    dim = 1 << n
    if takes_dense(dim, k):
        return EIGH_MATRICES * matrix_bytes(n)
    largest = dim if largest is None else largest
    width = min(largest, max(DENSE_DIMENSION, 2 * k + 1))
    row = max(width * AMPLITUDE_BYTES,
              0 if takes_dense(largest, k) else masks * ENTRY_BYTES)
    solve = (EIGH_MATRICES - 1) * max(TABLE_BYTES,
                                      width * width * AMPLITUDE_BYTES)
    if not takes_dense(largest, k):
        vectors = max(lanczos_size(largest, k),
                      k + 1 + check_size(largest, k))
        solve = max(solve, largest * (2 * masks * CSR_ENTRY_BYTES
                                      + vectors * AMPLITUDE_BYTES))
    return dim * (LABEL_BYTES + row) + solve


def _shifted_out(matrix, vectors: np.ndarray, shift: float
                 ) -> scipy.sparse.linalg.LinearOperator:
    """H + shift * V V^H, V the columns of ``vectors``, as an operator."""
    import scipy.sparse.linalg

    adjoint = vectors.conj().T
    return scipy.sparse.linalg.LinearOperator(
        matrix.shape, dtype=matrix.dtype,
        matvec=lambda x: matrix @ x + shift * (vectors @ (adjoint @ x)))


def sparse_eigensolve(matrix, k: int, with_vectors: bool = False):
    """k lowest levels of a sparse Hermitian matrix by Lanczos, ascending;
    (values, complex vectors as columns) when ``with_vectors`` is set. The
    matrix is held in float64 when every imaginary part is zero.

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

    if not matrix.data.imag.any():
        # copies of the index arrays too: scipy sorts a matrix's indices in
        # place, which would scramble the caller's matrix if they were shared
        matrix = scipy.sparse.csr_array(
            (matrix.data.real.copy(), matrix.indices.copy(),
             matrix.indptr.copy()), shape=matrix.shape)
    dim = matrix.shape[0]
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


def _echelon(masks: Sequence[int]) -> list[int]:
    """A GF(2) basis of the masks' span with distinct leading bits, the
    leading bits descending, so reducing by it in order clears each."""
    basis: list[int] = []
    for mask in masks:
        for row in basis:
            mask = min(mask, mask ^ row)
        if mask:
            basis = sorted([*basis, mask], reverse=True)
    return basis


def _labels(echelon: Sequence[int], conserved: Sequence[PauliSum],
            n: int) -> np.ndarray:
    """The block of every basis index, blocks numbered in label order: the
    rounded value of each conserved sum, then the Z2 coset."""
    index = np.arange(1 << n)
    keys = []
    for c in conserved:
        if c.x.any() or c.n_qubits > n:
            raise ValueError(f"a conserved sum must be diagonal on at most "
                             f"{n} qubits")
        value = np.zeros(1 << n)
        for z, coeff in zip(c.z.tolist(), c.coeffs.real.tolist()):
            value += np.where(np.bitwise_count(index & z) & 1, -coeff, coeff)
        keys.append(np.rint(value).astype(np.intp))
    coset = index
    for row in echelon:
        coset = np.minimum(coset, coset ^ row)
    block, _ = _slots([*keys, coset])
    return block


def _lowest(found: list[tuple], k: int) -> float:
    """The k-th lowest level among the blocks solved so far, or inf."""
    values = np.concatenate([v.ravel() for v, _, _ in found] or [[]])
    return np.partition(values, k - 1)[k - 1] if len(values) >= k else np.inf


def _block_eigensolve(h: PauliSum, k: int, n: int, with_vectors: bool,
                      conserved: Sequence[PauliSum], echelon: Sequence[int]):
    """k lowest levels of h on n qubits, block by block (module docstring),
    ``echelon`` the ``_echelon`` of its X masks; (values, complex vectors as
    columns) when ``with_vectors`` is set."""
    dim = 1 << n
    index = np.arange(dim)
    block = _labels(echelon, conserved, n)
    sizes = np.bincount(block)
    members = np.argsort(block, kind="stable")  # each block's, ascending
    starts = np.cumsum(sizes) - sizes
    position = np.empty(dim, dtype=np.intp)
    position[members] = index - np.repeat(starts, sizes)
    dense = np.array([takes_dense(size, k) for size in sizes.tolist()])
    # dense blocks laid out by size, then label, so equal sizes stack
    layout = np.argsort(sizes, kind="stable")
    layout = layout[dense[layout]]
    areas = sizes[layout] ** 2
    offset = np.zeros(len(sizes), dtype=np.intp)
    offset[layout] = np.cumsum(areas) - areas
    dense_row = dense[block]
    row = offset[block] + position * sizes[block]
    # one slot past the matrices takes the entries they do not hold
    trash = int(areas.sum())
    matrices = np.zeros(trash + 1, dtype=complex)
    sparse = ~dense_row if not dense.all() else None
    entries, spread, diagonal = [], np.zeros(dim), np.zeros(dim)
    for x, weights in _mask_weights(h, dim):
        column = index ^ x
        inside = block[column] == block
        if not inside.all():
            stray = np.abs(weights[~inside]).max()
            if stray > OFF_BLOCK_TOLERANCE:
                raise NotSymmetric(f"X mask {x:#x} joins two symmetry blocks "
                                   f"with an entry of modulus {stray:.3g}")
        matrices[np.where(inside & dense_row, row + position[column],
                          trash)] = weights
        if sparse is not None:
            kept = inside & sparse & (weights != 0)
            entries.append((x, index[kept], weights[kept]))
            if x:
                spread += np.abs(weights)
            else:
                diagonal = weights.real
    found = []  # (values (blocks, levels), their blocks, vectors or None)
    for size in np.unique(sizes[layout]).tolist():
        group = layout[sizes[layout] == size]
        first = offset[group[0]]
        stack = matrices[first:first + len(group) * size * size].reshape(
            len(group), size, size)
        per_call = max(1, TABLE_BYTES // (size * size * AMPLITUDE_BYTES))
        levels = min(k, size)
        for start in range(0, len(group), per_call):
            part = stack[start:start + per_call]
            if not part.imag.any():
                part = part.real
            blocks = group[start:start + per_call]
            if with_vectors:
                values, vectors = np.linalg.eigh(part)
                found.append((values[:, :levels], blocks,
                              vectors[:, :, :levels]))
            else:
                found.append((np.linalg.eigvalsh(part)[:, :levels], blocks,
                              None))
    if sparse is not None:
        import scipy.sparse

        bound = np.full(len(sizes), np.inf)
        np.minimum.at(bound, block[sparse], (diagonal - spread)[sparse])
        for b in np.argsort(bound, kind="stable")[:np.count_nonzero(~dense)]:
            if bound[b] > _lowest(found, k):
                break
            mine = [(x, rows[at], weights[at]) for x, rows, weights in entries
                    for at in [block[rows] == b]]
            matrix = scipy.sparse.csr_array((
                np.concatenate([weights for _, _, weights in mine]),
                (np.concatenate([position[rows] for _, rows, _ in mine]),
                 np.concatenate([position[rows ^ x] for x, rows, _ in mine]))),
                shape=(sizes[b], sizes[b]))
            del mine
            solved = sparse_eigensolve(matrix, k, with_vectors)
            values, vectors = solved if with_vectors else (solved, None)
            found.append((values[None], np.array([b]),
                          None if vectors is None else vectors[None]))
    values = np.concatenate([v.ravel() for v, _, _ in found])
    blocks = np.concatenate([np.repeat(b, v.shape[1]) for v, b, _ in found])
    pick = np.lexsort((blocks, values))[:k]
    if not with_vectors:
        return values[pick]
    bases = np.cumsum([0] + [v.size for v, _, _ in found])
    out = np.zeros((dim, len(pick)), dtype=complex)
    for j, p in enumerate(pick.tolist()):
        f = np.searchsorted(bases, p, side="right") - 1
        levels, part, vectors = found[f]
        at, level = divmod(p - bases[f], levels.shape[1])
        b = part[at]
        out[members[starts[b]:starts[b] + sizes[b]], j] = vectors[at, :, level]
    return values[pick], out


def exact_eigensolve(h: PauliSum,
                     k: int = 1,
                     n_qubits: int | None = None,
                     with_vectors: bool = False,
                     hint: str = SHRINK_HINT,
                     conserved: Sequence[PauliSum] = ()):
    """k lowest eigenvalues of h, ascending.

    Returns the eigenvalue array, or (values, vectors-as-columns) when
    ``with_vectors`` is set. Above the dense path the register splits into
    blocks by the Z2 cosets of h's X masks and the rounded values of the
    diagonal ``conserved`` sums, which must commute with h (NotSymmetric
    otherwise). Raises TooLarge, before allocating, when the solve would
    hold more than BYTE_BUDGET; its message ends with ``hint``.
    """
    if not h.is_hermitian():
        raise NonHermitian("eigensolve requires a Hermitian sum")
    n = n_qubits if n_qubits is not None else max(h.n_qubits, 1)
    if n < h.n_qubits:
        raise ValueError(f"sum acts on {h.n_qubits} qubits, asked for {n}")
    masks = x_masks(h)
    echelon = [] if takes_dense(1 << n, k) else _echelon(masks)
    check_bytes(solve_bytes(len(masks), n, k, 1 << len(echelon)),
                f"the exact solve on {n} qubits", hint)
    if not takes_dense(1 << n, k):
        return _block_eigensolve(h, k, n, with_vectors, conserved, echelon)
    found = hermitian_eigh(to_matrix(h, n), k, with_vectors)
    if with_vectors:
        values, vectors = found
        return values, vectors.astype(complex)
    return found


def ground_state(h: PauliSum, n_qubits: int | None = None,
                 hint: str = SHRINK_HINT, conserved: Sequence[PauliSum] = ()
                 ) -> tuple[float, np.ndarray]:
    values, vectors = exact_eigensolve(h, k=1, n_qubits=n_qubits,
                                       with_vectors=True, hint=hint,
                                       conserved=conserved)
    return float(values[0]), vectors[:, 0]

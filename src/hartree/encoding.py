"""Fermion-to-qubit maps: Jordan-Wigner, parity, Bravyi-Kitaev and BK-tree.

Every scheme here is linear over GF(2): the qubit register holds q = beta f
(mod 2) for occupation bits f, and every map is derived from its beta alone.
Jordan-Wigner is the identity map, parity the running-sum map, Bravyi-Kitaev
the doubling-block recursive matrix, and BK-tree the Fenwick tree map whose
root aggregates the whole register at any register size. Encoded states are
beta f; ladder operators follow from three index sets per mode j, read off
beta and its inverse:

  update set U(j): qubits above j storing partial sums that include n_j,
  flip set   F(j): qubits below j whose XOR with q_j recovers n_j,
  parity set P(j): qubits whose XOR gives the parity of modes below j.

With c_j carrying X on U(j) and j and Z on P(j), and d_j carrying Y on j
instead plus Z on the symmetric difference of P(j) and F(j), the annihilator
is (c_j + i d_j)/2 and the creator (c_j - i d_j)/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .fermion import MASK_MODES, FermionSum, IndexOutOfRange, OccupationVector
from .pauli import DROP_TOLERANCE, DimensionMismatch, PauliSum

JW = "jw"
PARITY = "parity"
BK = "bk"
BKTREE = "bktree"
VARIANTS = (JW, PARITY, BK, BKTREE)

# encode_operator multiplies out at most this many strings at once, so its
# working arrays stay bounded however long the sum.
BLOCK_PRODUCTS = 1 << 11


@dataclass(frozen=True)
class EncodingScheme:
    """One of the supported fermion-to-qubit maps on m spin-orbitals."""

    variant: str
    m: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.m < 1:
            raise ValueError("need at least one mode")


@dataclass(frozen=True, eq=False)
class BKMatrix:
    """Lower-unitriangular GF(2) matrix beta with q = beta f."""

    m: int
    beta: np.ndarray


def bk_matrix(m: int) -> BKMatrix:
    """Doubling recursion built at the next power of two, truncated to m rows.

    Each doubling step keeps two copies of the previous block on the diagonal
    and adds an all-ones bottom row across the lower-left block, so the last
    qubit of every power-of-two block stores the parity of all modes below it.
    """
    if m < 1:
        raise ValueError("need at least one mode")
    beta = np.ones((1, 1), dtype=np.uint8)
    while beta.shape[0] < m:
        k = beta.shape[0]
        doubled = np.zeros((2 * k, 2 * k), dtype=np.uint8)
        doubled[:k, :k] = beta
        doubled[k:, k:] = beta
        doubled[2 * k - 1, :k] = 1
        beta = doubled
    return BKMatrix(m, np.ascontiguousarray(beta[:m, :m]))


@dataclass(frozen=True, eq=False)
class FenwickTree:
    """Partial-sum tree over modes 0..m-1; node j aggregates modes low[j]..j."""

    m: int
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    low: tuple[int, ...]


@lru_cache(maxsize=None)
def fenwick_tree(m: int) -> FenwickTree:
    """The tree of Fen(0, m-1): connect R to floor((R+L)/2), recurse halves."""
    if m < 1:
        raise ValueError("need at least one mode")
    parent: list[int | None] = [None] * m
    children: list[list[int]] = [[] for _ in range(m)]

    def fen(left: int, right: int) -> None:
        if left == right:
            return
        mid = (left + right) // 2
        parent[mid] = right
        children[right].append(mid)
        fen(left, mid)
        fen(mid + 1, right)

    fen(0, m - 1)

    low = list(range(m))
    for j in range(m):  # children precede their parent, so one pass suffices
        for c in children[j]:
            low[j] = min(low[j], low[c])
    return FenwickTree(m, tuple(parent), tuple(tuple(c) for c in children),
                       tuple(low))


def _encoding_matrix(scheme: EncodingScheme) -> np.ndarray:
    m = scheme.m
    if scheme.variant == JW:
        return np.eye(m, dtype=np.uint8)
    if scheme.variant == PARITY:
        return np.tril(np.ones((m, m), dtype=np.uint8))
    if scheme.variant == BK:
        return bk_matrix(m).beta
    tree = fenwick_tree(m)
    beta = np.zeros((m, m), dtype=np.uint8)
    for j in range(m):
        beta[j, tree.low[j]:j + 1] = 1
    return beta


def _gf2_inverse_unitriangular(beta: np.ndarray) -> np.ndarray:
    m = beta.shape[0]
    aug = np.concatenate([beta.copy(), np.eye(m, dtype=np.uint8)], axis=1)
    for col in range(m):
        for row in range(col + 1, m):
            if aug[row, col]:
                aug[row] ^= aug[col]
    return np.ascontiguousarray(aug[:, m:])


def _row_masks(bits: np.ndarray) -> np.ndarray:
    """The uint64 mask of each row of a 0/1 array, column k at bit k."""
    return np.bitwise_or.reduce(bits.astype(np.uint64) << np.arange(
        bits.shape[-1], dtype=np.uint64), axis=-1)


@lru_cache(maxsize=None)
def _mode_images(variant: str, m: int) -> tuple[tuple[PauliSum, PauliSum], ...]:
    """Per mode j: (annihilator, creator) as two-string PauliSums of c_j and
    d_j, their masks read off beta and its GF(2) inverse: the update set
    below beta's diagonal, the flip set below the inverse's."""
    beta = _encoding_matrix(EncodingScheme(variant, m))
    inverse = _gf2_inverse_unitriangular(beta)
    own = np.uint64(1) << np.arange(m, dtype=np.uint64)
    x = own | _row_masks(np.tril(beta, -1).T)
    parity = _row_masks(np.tril(np.ones((m, m), dtype=np.uint8), -1) @ inverse % 2)
    d = parity ^ _row_masks(np.tril(inverse, -1)) ^ own
    return tuple(tuple(PauliSum.from_masks((xj, xj), (cj, dj), (0.5, 0.5j * sign),
                                           n_qubits=m) for sign in (1, -1))
                 for xj, cj, dj in zip(x, parity, d))


@lru_cache(maxsize=None)
def _image_arrays(variant: str, m: int) -> tuple[np.ndarray, ...]:
    """``_mode_images`` as (m, 2, 2) arrays [mode, dagger, string] of x and
    z masks (uint64), |x & z| (uint8) and coefficients, flattened: x at
    2 * mode + dagger, the others at string * 2m + 2 * mode + dagger. A
    mode's two images hold the same two strings in the same order, which
    differ in z alone."""
    x, z, coeffs = (np.array([[getattr(image, a) for image in pair]
                              for pair in _mode_images(variant, m)])
                    for a in ("x", "z", "coeffs"))
    return (x[..., 0].ravel(), *(np.moveaxis(a, 2, 0).ravel() for a in (
        z, np.bitwise_count(x & z), coeffs)))


# The phase i^k that pauli.mul_masks returns, for every uint8 count k:
# uint8 counts wrap modulo 256, which keeps them modulo 4.
_PHASE = np.tile(np.array([1, 1j, -1, -1j]), 64)


def _drop(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients zeroed where |c| < DROP_TOLERANCE, and the mask of
    those kept. np.hypot is the libm hypot of Python's abs(complex); np.abs
    of a complex array is not, in its last bit."""
    kept = np.hypot(c.real, c.imag) >= DROP_TOLERANCE
    return np.where(kept, c, 0.0), kept


def _multiply_out(images: tuple[np.ndarray, ...], pairs: np.ndarray,
                  coeffs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each term of one arity multiplied out factor by factor, as the
    per-product loop did: the x mask of each term, and per string and term
    its z mask, its coefficient and whether it was kept. Terms run along
    the last axis.

    A term's strings all share one x mask. A factor's image holds two
    strings that differ in z by a mask whose top bit is the factor's mode,
    so the strings of a term are the subsets of its distinct modes. A factor
    on a new mode doubles the strings. A factor on a mode seen before maps
    the string with either choice for that mode and one image string onto
    the string with the other choice and the other image string, and sums
    the two; only those two products meet, so their order does not matter.

    Each product is c1 * c2 * phase, the phase i^k counted as
    ``pauli.mul_masks`` counts it; a real c1 enters as c1 + 0j. Every c2
    (0.5 or +-0.5i) and every phase has a zero real or imaginary part, so
    each part of a product is one rounded real product, or its negation,
    plus a signed zero: numpy's complex product, which may fuse a multiply
    and an add, gives Python's bits up to the signs of zeros. The first
    factor meets the identity, whose phase is 1, which would change only
    such signs. Each sum starts from 0.0, as a PauliSum merges, which makes
    every zero +0.0; a string dropped to zero stays in its slot as a zero,
    which adds nothing to the strings it meets.
    """
    n, arity = pairs.shape[:2]
    c, kept = _drop(coeffs[None] + 0.0)
    if not arity:
        return np.zeros(n, dtype=np.uint64), np.zeros((1, n), np.uint64), \
            c, kept
    image_x, *image_strings = images
    ladder = (pairs[..., 0] << 1 | pairs[..., 1]).T.astype(np.intp)
    x2 = image_x[ladder]
    # [factor, string, term]
    ladder = ladder[:, None] + np.array([[0], [len(image_x)]])
    z2, counts2, c2 = (a[ladder] for a in image_strings)
    x = np.bitwise_xor.accumulate(x2, axis=0)
    modes = pairs[..., 0].T
    z, counts = z2[0], counts2[0]  # |x & z| of each string
    c, kept = _drop(c * c2[0] + 0.0)
    choice = [1]  # each factor's bit in the string index, or 0
    for f in range(1, arity):
        z3 = z[:, None] ^ z2[f]
        counts3 = np.bitwise_count(z3 & x[f])
        k = (counts + 2 * np.bitwise_count(z & x2[f]))[:, None] \
            + counts2[f] - counts3
        c3 = c[:, None] * c2[f] * _PHASE[k] + 0.0
        seen = modes[:f] == modes[f]
        repeats = seen.any(axis=0)
        if repeats.any():
            bit = np.array(choice)[seen.argmax(axis=0)] * repeats
            partner = np.arange(z.shape[0])[:, None] ^ bit
            # + 0.0 leaves 0.0 + c unchanged where nothing repeats
            c3[:, 0] += np.where(repeats, np.take_along_axis(
                c3[:, 1], partner, axis=0), 0.0)
            c3[:, 1] = np.where(repeats, 0.0, c3[:, 1])
        if repeats.all():  # no term has a new mode: no new strings
            z, counts, c = z3[:, 0], counts3[:, 0], c3[:, 0]
            choice.append(0)
        else:
            z, counts, c = (a.reshape(-1, n) for a in (z3, counts3, c3))
            choice = [2 * b for b in choice] + [1]
        c, kept = _drop(c)
    return x[-1], z, c, kept


def _joined_runs(sums: Sequence[FermionSum]) -> Iterator[tuple[np.ndarray, ...]]:
    """The sums' runs in order, with the sum each term belongs to; runs of
    one arity that follow each other, in one sum or across sums, joined.
    The sum's index is held in the narrowest type that fits it."""
    owner = np.min_scalar_type(len(sums))
    runs = ((pairs, coeffs, np.full(len(coeffs), k, dtype=owner))
            for k, s in enumerate(sums) for pairs, coeffs in s.runs)
    for _, group in itertools.groupby(runs, key=lambda run: run[0].shape[1]):
        yield tuple(map(np.concatenate, zip(*group)))


def encode_operator(s: FermionSum, scheme: EncodingScheme) -> PauliSum:
    """Qubit operator acting on encoded states exactly as s acts on modes.

    The sum's runs of one arity are read in order and multiplied out in
    blocks of at most BLOCK_PRODUCTS strings (``_multiply_out``),
    dropping |c| < DROP_TOLERANCE after every factor; the kept products
    then go, in term order, to the one merge, ``PauliSum.from_masks``. The
    result is the one the per-product loop over raw masks gave, bit for bit.
    Masks are uint64, so a register wider than MASK_MODES is refused before
    anything is built.
    """
    return encode_operators([s], scheme)[0]


def encode_operators(sums: Sequence[FermionSum], scheme: EncodingScheme
                     ) -> list[PauliSum]:
    """``encode_operator`` of every sum, all multiplied out in one pass.

    Runs of one arity are joined across neighbouring sums
    (``_joined_runs``), so short sums share their blocks. The kept products
    of every block are gathered with the sum each belongs to
    (``_products``); each sum's products are one stretch, which
    ``PauliSum.from_masks`` merges as it merges any list of terms, in
    product order from zero, so every image has the bits of the sum's own
    call.
    """
    m = scheme.m
    if m > MASK_MODES:
        raise IndexOutOfRange(
            f"a uint64 mask holds {MASK_MODES} modes, not {m}")
    owner, x, z, c = _products(sums, _image_arrays(scheme.variant, m))
    bounds = np.searchsorted(owner, np.arange(len(sums) + 1)).tolist()
    del owner  # before the merges, which hold their own
    return [PauliSum.from_masks(x[lo:hi], z[lo:hi], c[lo:hi], n_qubits=m)
            for lo, hi in itertools.pairwise(bounds)]


def _products(sums: Sequence[FermionSum], images: tuple[np.ndarray, ...]
              ) -> list[np.ndarray]:
    """Every kept product of the sums' terms, unmerged, terms in order, each
    term's strings in order: its sum, x mask, z mask and coefficient. The
    sums are walked in order, so the sum column never decreases. Blocks of
    at most BLOCK_PRODUCTS strings are multiplied out (``_multiply_out``)."""
    m = len(images[0]) // 2
    columns = [[], [], [], []]
    for pairs, coeffs, owners in _joined_runs(sums):
        bad = ((pairs[..., 0] >= m).any(axis=1)
               | ~np.isfinite(coeffs)).nonzero()[0]
        if bad.size:
            mode = int(pairs[bad[0], :, 0].max(initial=0))
            if mode >= m:
                raise IndexOutOfRange(f"mode {mode} outside register of {m}")
            raise ValueError(f"non-finite coefficient {coeffs[bad[0]].item()}")
        size = max(1, BLOCK_PRODUCTS >> pairs.shape[1])
        for start in range(0, len(coeffs), size):
            block = slice(start, start + size)
            x, z, c, kept = _multiply_out(images, pairs[block], coeffs[block])
            # each term's strings, terms in order
            kept = kept.T.ravel()
            strings = z.shape[0]
            key = (np.repeat(owners[block], strings)[kept],
                   np.repeat(x, strings)[kept], z.T.ravel()[kept])
            for column, part in zip(columns, (*key, c.T.ravel()[kept])):
                column.append(part)
    joined = []
    for column, dtype in zip(columns, (np.uint64,) * 3 + (complex,)):
        joined.append(np.concatenate(column) if column else np.zeros(0, dtype))
        column.clear()  # not to hold the products twice
    return joined


def encode_state(f: OccupationVector, scheme: EncodingScheme) -> OccupationVector:
    """Computational basis label of the encoded occupation vector."""
    if f.m != scheme.m:
        raise DimensionMismatch(f"state has {f.m} modes, scheme expects {scheme.m}")
    beta = _encoding_matrix(scheme)
    f_vec = np.array([f.bit(q) for q in range(scheme.m)], dtype=np.uint8)
    q_vec = (beta @ f_vec) % 2
    return OccupationVector(scheme.m, sum(1 << int(j) for j in np.flatnonzero(q_vec)))

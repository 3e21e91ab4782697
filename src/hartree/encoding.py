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

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .fermion import FermionSum, OccupationVector
from .pauli import DROP_TOLERANCE, DimensionMismatch, PauliString, PauliSum, mul_masks

JW = "jw"
PARITY = "parity"
BK = "bk"
BKTREE = "bktree"
VARIANTS = (JW, PARITY, BK, BKTREE)


class IndexOutOfRange(ConfigError):
    """A mode index does not fit the scheme's register."""


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


def _mask(indices: Iterable[int]) -> int:
    out = 0
    for k in indices:
        out |= 1 << k
    return out


@lru_cache(maxsize=None)
def _mode_images(variant: str, m: int) -> tuple[tuple[PauliSum, PauliSum], ...]:
    """Per mode: (annihilator, creator) as two-string PauliSums, built from
    the update, flip and parity sets read off beta and its GF(2) inverse."""
    beta = _encoding_matrix(EncodingScheme(variant, m))
    inverse = _gf2_inverse_unitriangular(beta)
    prefix = np.tril(np.ones((m, m), dtype=np.uint8), k=-1)
    parity_rows = (prefix @ inverse) % 2
    images = []
    for j in range(m):
        update = _mask(k for k in range(j + 1, m) if beta[k, j])
        flip = _mask(k for k in range(j) if inverse[j, k])
        parity = _mask(int(k) for k in np.flatnonzero(parity_rows[j]))
        x_mask = 1 << j | update
        c = PauliString(x_mask, parity)
        d = PauliString(x_mask, parity ^ flip ^ 1 << j)
        lower = PauliSum({c: 0.5, d: 0.5j}, n_qubits=m)
        raiser = PauliSum({c: 0.5, d: -0.5j}, n_qubits=m)
        images.append((lower, raiser))
    return tuple(images)


@lru_cache(maxsize=None)
def _raw_images(variant: str, m: int) -> tuple[tuple[tuple, tuple], ...]:
    """``_mode_images`` as (x, z, coeff) triples in term order."""
    return tuple(tuple(tuple((s.x, s.z, c) for s, c in image.items())
                       for image in pair)
                 for pair in _mode_images(variant, m))


def _merged(products: dict[tuple[int, int], complex]
            ) -> list[tuple[tuple[int, int], complex]]:
    """Products merged as a PauliSum merges them: 0.0 + complex(c), and
    |c| < DROP_TOLERANCE dropped."""
    kept = []
    for key, coeff in products.items():
        coeff = 0.0 + complex(coeff)
        if abs(coeff) >= DROP_TOLERANCE:
            kept.append((key, coeff))
    return kept


def encode_operator(s: FermionSum, scheme: EncodingScheme) -> PauliSum:
    """Qubit operator acting on encoded states exactly as s acts on modes.

    Each term is multiplied out on raw (x, z) masks, one ladder image at a
    time, dropping |c| < DROP_TOLERANCE after every factor; the terms are
    then summed in order into one PauliSum. An image holds two strings, so
    each product string collects at most two contributions per factor, and
    their sum does not depend on the order the strings are visited in.
    """
    images = _raw_images(scheme.variant, scheme.m)
    total: dict[tuple[int, int], complex] = {}
    for term in s:
        if term.max_mode() >= scheme.m:
            raise IndexOutOfRange(
                f"mode {term.max_mode()} outside register of {scheme.m}")
        if not cmath.isfinite(term.coeff):
            raise ValueError(f"non-finite coefficient {term.coeff}")
        acc = _merged({(0, 0): term.coeff})
        for p, dagger in term.factors:
            out: dict[tuple[int, int], complex] = {}
            for (x1, z1), c1 in acc:
                for x2, z2, c2 in images[p][1 if dagger else 0]:
                    phase, x3, z3 = mul_masks(x1, z1, x2, z2)
                    out[x3, z3] = out.get((x3, z3), 0.0) + c1 * c2 * phase
            acc = _merged(out)
        for key, coeff in acc:
            total[key] = total.get(key, 0.0) + coeff
    return PauliSum({PauliString(x, z): c for (x, z), c in total.items()},
                    n_qubits=scheme.m)


def encode_state(f: OccupationVector, scheme: EncodingScheme) -> OccupationVector:
    """Computational basis label of the encoded occupation vector."""
    if f.m != scheme.m:
        raise DimensionMismatch(f"state has {f.m} modes, scheme expects {scheme.m}")
    beta = _encoding_matrix(scheme)
    f_vec = np.array([f.bit(q) for q in range(scheme.m)], dtype=np.uint8)
    q_vec = (beta @ f_vec) % 2
    return OccupationVector(scheme.m, _mask(int(j) for j in np.flatnonzero(q_vec)))

"""Sparse algebra of Pauli strings and Hermitian sums.

A Pauli string is stored as a pair of bitmasks (x, z): bit q of ``x`` set means
the letter on qubit q contains an X factor, bit q of ``z`` a Z factor, both set
mean Y. Qubit 0 is the rightmost / least-significant position throughout.
Multiplication, commutation and state application then reduce to integer
bit operations with an i^k phase bookkeeping. A sum is only its arrays:
uint64 x and z masks, so at most 64 qubits, and complex coefficients.

Applying a string to a register of ``dim`` amplitudes is a gather: output
amplitude i reads input amplitude i ^ x and picks up a sign from the parity of
(i ^ x) & z. The gather index and sign vector of a string are computed once
per register width and kept in one shared cache of at most ``TABLE_BYTES``;
a sum keeps the stacked tables of all its terms on itself when they fit
under the same ceiling, weighted by the coefficients for S psi and unweighted
for reading each term's expectation. Tables larger than the ceiling are
computed per call.

A matrix realisation groups the terms by X mask: every term with mask x
lands on the entries (i, i ^ x), so each distinct mask gives one vector of
weights, which ``to_matrix`` scatters into a dense array and ``to_csr``
stacks into a sparse one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, NumericalError

DROP_TOLERANCE = 1e-12
HERMITIAN_TOLERANCE = 1e-10
# The most any one matrix, register, sweep or solve may hold at once.
BYTE_BUDGET = 1 << 30
AMPLITUDE_BYTES = np.dtype(complex).itemsize
TABLE_BYTES = 8 << 20
# One gather index and one complex sign per amplitude.
TABLE_ITEM_BYTES = np.dtype(np.intp).itemsize + AMPLITUDE_BYTES

_PHASES = np.array([1, 1j, -1, -1j])
_UNIT_PHASES = tuple(complex(p) for p in _PHASES)


class TooLarge(ConfigError):
    """A matrix, register or solve would hold more than BYTE_BUDGET."""


def check_bytes(needed: int, what: str, hint: str = "") -> None:
    """Raise TooLarge, naming the bytes, when ``what`` would hold more than
    BYTE_BUDGET at once; call it before allocating."""
    if needed > BYTE_BUDGET:
        raise TooLarge(f"{what} needs {needed} bytes ({needed / 2**30:.1f} "
                       f"GiB), over the {BYTE_BUDGET}-byte budget{hint}")


def matrix_bytes(n: int) -> int:
    """Bytes of one dense complex 2^n x 2^n matrix."""
    return AMPLITUDE_BYTES << 2 * n


class DimensionMismatch(ConfigError):
    pass


class NonHermitian(ConfigError):
    pass


class NotReal(NumericalError, ArithmeticError):
    """An expectation value kept an imaginary part."""


def _tables(x, z, dim: int, coeffs=None) -> tuple[np.ndarray, np.ndarray]:
    """Gather index i ^ x and i^|x & z|-phased signs (-1)^|(i ^ x) & z| of
    output amplitude i, times ``coeffs`` when given: P psi = phased *
    psi[idx]. Masks x and z as (terms, 1) columns give (terms, dim) rows."""
    index = np.arange(dim) ^ x
    phases = _PHASES[np.bitwise_count(x & z) & 3]
    if coeffs is not None:
        phases = coeffs * phases
    return index, phases * _PHASES[2 * (np.bitwise_count(index & z) & 1)]


class _TableCache:
    """Gather index and phased sign vector per (x, z, width), holding at most
    ``limit`` bytes of tables; the oldest entries make room for new ones."""

    def __init__(self, limit: int):
        self.limit = limit
        self.nbytes = 0
        self._entries: dict[tuple[int, int, int],
                            tuple[np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, x: int, z: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        key = (x, z, dim)
        tables = self._entries.get(key)
        if tables is not None:
            return tables
        tables = _tables(x, z, dim)
        cost = dim * TABLE_ITEM_BYTES
        if cost > self.limit:
            return tables
        with self._lock:
            if key not in self._entries:
                while self.nbytes + cost > self.limit:
                    oldest = next(iter(self._entries))
                    self._entries.pop(oldest)
                    self.nbytes -= oldest[2] * TABLE_ITEM_BYTES
                self._entries[key] = tables
                self.nbytes += cost
        return tables


STRING_TABLES = _TableCache(TABLE_BYTES)


class PauliString:
    """Immutable tensor product of single-qubit Pauli letters."""

    __slots__ = ("x", "z")

    def __init__(self, x: int = 0, z: int = 0):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    def __setattr__(self, *_):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        return cls(*_text_masks(text))

    @classmethod
    def single(cls, letter: str, qubit: int) -> "PauliString":
        return cls.from_text(f"{letter}{qubit}")

    def letter(self, qubit: int) -> str:
        bit = 1 << qubit
        return "IXZY"[bool(self.x & bit) + 2 * bool(self.z & bit)]

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def n_qubits(self) -> int:
        return (self.x | self.z).bit_length()

    @property
    def is_identity(self) -> bool:
        return not (self.x | self.z)

    def indices(self) -> list[int]:
        support = self.x | self.z
        return [q for q in range(support.bit_length()) if support >> q & 1]

    def tables(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """(gather index, i^k-phased signs) on ``dim`` amplitudes, shared."""
        if (self.x | self.z) >= dim:
            raise DimensionMismatch(f"{self} exceeds {dim}-dim state")
        return STRING_TABLES.get(self.x, self.z, dim)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Return P|psi> for a statevector of matching dimension, or for
        each row of a (rows, dim) block."""
        idx, phased = self.tables(psi.shape[-1])
        # a state's psi[idx] costs half its take(axis=-1) on a few amplitudes;
        # on a block take(axis=-1) beats psi[:, idx] at every size measured
        return phased * (psi[idx] if psi.ndim == 1 else psi.take(idx, axis=-1))

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliString) and self.x == other.x and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.z))

    def __str__(self) -> str:
        x, z = self.x, self.z
        support = x | z
        if not support:
            return "I"
        return " ".join(["IXZY"[(x >> q & 1) | (z >> q & 1) << 1] + str(q)
                         for q in range(support.bit_length())
                         if support >> q & 1])

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


def _text_masks(text: str) -> tuple[int, int]:
    """(x, z) of forms like ``"X0 Z2 Y5"``; ``"I"`` or ``""`` is the identity.
    A negative qubit is a ValueError, and so is a qubit named twice: X0 Z0
    is -i Y0, a phase no string holds."""
    x = z = 0
    text = text.strip()
    for token in ([] if text == "I" else text.split()):
        letter, qubit = token[0].upper(), int(token[1:])
        if letter not in "XYZ":
            raise ValueError(f"bad Pauli letter in {token!r}")
        if qubit < 0 or (x | z) >> qubit & 1:
            raise ValueError(f"qubit {qubit} in {text!r} is negative or named twice")
        if letter in "XY":
            x |= 1 << qubit
        if letter in "ZY":
            z |= 1 << qubit
    return x, z


# Each qubit number's rank among the 64 compared as text ("10" < "2"), and a
# token's rank, letter first (X < Y < Z), by its x + 2z bits; -1 is no token.
_TEXT_RANK = np.argsort(sorted(range(64), key=str))
_TOKEN_RANK = np.array([np.full(64, -1), _TEXT_RANK, 128 + _TEXT_RANK,
                        64 + _TEXT_RANK])


def _text_order(x: np.ndarray, z: np.ndarray, width: int) -> np.ndarray:
    """The permutation to ``sorted(key=str)`` order of strings (x, z) on
    ``width`` qubits: texts compare token by token, and a space or the end
    sorts below any letter or digit, so token ranks in qubit order do."""
    qubits = np.arange(max(1, width), dtype=np.uint64)
    letters = (x[:, None] >> qubits & 1) + 2 * (z[:, None] >> qubits & 1)
    ranks = np.take_along_axis(_TOKEN_RANK[letters, qubits], np.argsort(
        letters == 0, axis=1, kind="stable"), axis=1)
    return np.lexsort(ranks.T[::-1])


def _mask_array(masks) -> np.ndarray:
    """``masks`` as uint64. A negative mask, or one past bit 63, is a
    DimensionMismatch; masks that are not integers are a ValueError."""
    if isinstance(masks, np.ndarray) or not all(type(m) is int for m in masks):
        array = np.asarray(masks)
        if array.dtype.kind not in "iu" and array.size:
            raise ValueError(f"masks are integers, not {array.dtype}")
        negative = array.dtype.kind == "i" and (array < 0).any()
    else:  # Python ints, which np.asarray mixes to float64 about 2^63
        array, negative = masks, min(masks, default=0) < 0
    if negative:
        raise DimensionMismatch("a term has a negative mask, which names no "
                                "qubits")
    try:
        return np.asarray(array, dtype=np.uint64)
    except OverflowError:
        raise DimensionMismatch("a term names a qubit past 63, beyond the "
                                "64 a uint64 mask holds") from None


def _slots(keys: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """(slot of each row, the keys of each slot) for rows keyed by ``keys``,
    the slots in key order, from one sort."""
    # any order that sorts the keys: np.add.at, not the sort, keeps each
    # slot's rows in input order
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    del ordered, key
    first = order[new]
    slots = [key[first] for key in keys]
    slot = np.cumsum(new)
    slot -= 1
    at = np.empty_like(order)
    at[order] = slot
    return at, slots


@dataclass(frozen=True)
class PauliTerm:
    string: PauliString
    coeff: complex

    def __str__(self) -> str:
        return f"{self.coeff} * {self.string}"


def mul_masks(ax: int, az: int, bx: int, bz: int) -> tuple[complex, int, int]:
    """Symplectic product of raw masks: (phase, x, z) of a*b, the phase a power of i."""
    x3, z3 = ax ^ bx, az ^ bz
    k = ((ax & az).bit_count() + (bx & bz).bit_count() - (x3 & z3).bit_count()
         + 2 * (az & bx).bit_count())
    return _UNIT_PHASES[k % 4], x3, z3


def mul_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b as (phase, string); the phase is a power of i."""
    phase, x3, z3 = mul_masks(a.x, a.z, b.x, b.z)
    return phase, PauliString(x3, z3)


def mul_terms(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    phase, string = mul_strings(a.string, b.string)
    return PauliTerm(string, a.coeff * b.coeff * phase)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the strings commute (even number of anticommuting sites)."""
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


class PauliSum:
    """Canonical linear combination of Pauli strings: read-only uint64 mask
    arrays ``x`` and ``z`` and complex ``coeffs``; PauliStrings are made only
    when asked. Every sum comes from one merge, ``from_masks``, which puts the
    terms in the text order of their strings, ranked off the masks token by
    token (``_text_order``: letter X < Y < Z, then qubit number as digits).
    Instances are immutable; arithmetic returns new sums. Each keeps the
    stacked tables of its H*psi, and of its strings alone, per register width.
    """

    __slots__ = ("x", "z", "coeffs", "_n_qubits", "_tables", "_string_tables",
                 "_hermitian")

    def __new__(cls, terms: Mapping[PauliString, complex] | Iterable[PauliTerm] | None = None,
                n_qubits: int | None = None, tol: float = DROP_TOLERANCE) -> "PauliSum":
        pairs = list(terms.items() if isinstance(terms, Mapping) else
                     ((t.string, t.coeff) for t in terms or ()))
        return cls.from_masks([s.x for s, _ in pairs], [s.z for s, _ in pairs],
                              [c for _, c in pairs], n_qubits, tol)

    @classmethod
    def from_masks(cls, x, z, coeffs, n_qubits: int | None = None,
                   tol: float = DROP_TOLERANCE) -> "PauliSum":
        """The sum of the terms coeffs[t] * (x[t], z[t]), repeated strings
        and all: one sort slots the (x, z) keys (``_slots``), one
        ``np.add.at`` adds each slot's coefficients into np.zeros in input
        order (the bits of ``merged.get(s, 0.0) + c``), hypot(re, im) >= tol
        (Python's abs(complex) to the last bit) keeps a slot, and the kept
        strings sort by text. The three inputs must have one length and the
        masks be non-negative integers."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if not len(x) == len(z) == len(coeffs):
            raise ValueError(f"{len(x)} x masks, {len(z)} z masks and "
                             f"{len(coeffs)} coefficients; need one length")
        x, z = _mask_array(x), _mask_array(z)
        finite = np.isfinite(coeffs)
        if not finite.all():
            t = finite.argmin()
            raise ValueError("non-finite coefficient for "
                             f"{PauliString(int(x[t]), int(z[t]))}")
        at, (x, z) = _slots([x, z])
        total = np.zeros(len(x), dtype=complex)
        np.add.at(total, at, coeffs)
        del at, coeffs, finite
        kept = np.hypot(total.real, total.imag) >= tol
        x, z, total = x[kept], z[kept], total[kept]
        inferred = int(np.bitwise_or.reduce(x | z)).bit_length()
        order = _text_order(x, z, inferred)
        x, z, coeffs = x[order], z[order], total[order]
        if n_qubits is not None and n_qubits < inferred:
            raise DimensionMismatch(f"declared {n_qubits} qubits, terms need {inferred}")
        for array in (x, z, coeffs):
            array.flags.writeable = False
        out = object.__new__(cls)
        for name, value in (("x", x), ("z", z), ("coeffs", coeffs),
                            ("_n_qubits", inferred if n_qubits is None else n_qubits),
                            ("_tables", {}), ("_string_tables", {}),
                            ("_hermitian", None)):
            object.__setattr__(out, name, value)
        return out

    def __setattr__(self, *_):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def identity(cls, coeff: complex = 1.0, n_qubits: int | None = None) -> "PauliSum":
        return cls.from_masks([0], [0], [coeff], n_qubits)

    @classmethod
    def from_text(cls, entries: Mapping[str, complex] | Iterable[tuple[str, complex]],
                  n_qubits: int | None = None) -> "PauliSum":
        """Texts that name one string, as "Z0" and "z0" do, add in order."""
        pairs = list(entries.items() if isinstance(entries, Mapping) else entries)
        x, z = zip(*[_text_masks(t) for t, _ in pairs]) if pairs else ((), ())
        return cls.from_masks(x, z, [c for _, c in pairs], n_qubits)

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    def items(self) -> list[tuple[PauliString, complex]]:
        return list(zip(self.strings(), self.coeffs.tolist()))

    def coeff(self, string: PauliString | str) -> complex:
        x, z = (_text_masks(string) if isinstance(string, str)
                else (string.x, string.z))
        at = np.flatnonzero((self.x == x) & (self.z == z))
        return self.coeffs[at[0]].item() if at.size else 0.0

    def strings(self) -> list[PauliString]:
        return list(map(PauliString, self.x.tolist(), self.z.tolist()))

    def is_hermitian(self, tol: float | None = None) -> bool:
        """No coefficient's imaginary part exceeds ``tol``, by default
        HERMITIAN_TOLERANCE; the default's verdict is kept on the sum."""
        if tol is not None:
            return bool(np.all(np.abs(self.coeffs.imag) <= tol))
        if self._hermitian is None:
            object.__setattr__(self, "_hermitian",
                               self.is_hermitian(HERMITIAN_TOLERANCE))
        return self._hermitian

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[PauliTerm]:
        return (PauliTerm(s, c) for s, c in self.items())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum.from_masks(*map(np.concatenate, zip(
            (self.x, self.z, self.coeffs), (other.x, other.z, other.coeffs))),
            n_qubits=max(self._n_qubits, other._n_qubits) or None)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return PauliSum.from_masks(self.x, self.z, scalar * self.coeffs,
                                   n_qubits=self._n_qubits or None)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            a, b = (list(zip(s.x.tolist(), s.z.tolist(), s.coeffs.tolist()))
                    for s in (self, other))
            products = [(mul_masks(ax, az, bx, bz), ca * cb)
                        for ax, az, ca in a for bx, bz, cb in b]
            return PauliSum.from_masks(
                [x for (_, x, _), _ in products], [z for (_, _, z), _ in products],
                [c * phase for (phase, _, _), c in products],
                n_qubits=max(self._n_qubits, other._n_qubits) or None)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliSum) and all(map(np.array_equal, (
            self.x, self.z, self.coeffs), (other.x, other.z, other.coeffs)))

    def __str__(self) -> str:
        if not len(self):
            return "0"
        return " + ".join(f"({c:.12g}) * {s}" for s, c in self.items())


def canonicalize(s: PauliSum, tol: float = DROP_TOLERANCE) -> PauliSum:
    """Re-canonicalize with an explicit drop tolerance. Idempotent."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return PauliSum.from_masks(s.x, s.z, s.coeffs, n_qubits=s.n_qubits or None,
                               tol=tol)


def _term_tables(s: PauliSum, terms: slice | int, dim: int,
                 weighted: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``_tables`` of the terms of s in a slice, as (terms, dim) rows, or of
    term ``terms``, weighted by the coefficients or not (``PauliString.tables``)."""
    x, z = s.x[terms, None], s.z[terms, None]
    if (x | z).max(initial=0) >= dim:
        raise DimensionMismatch(f"a term of the {s.n_qubits}-qubit sum exceeds a {dim}-dim state")
    return _tables(x.astype(np.intp), z.astype(np.intp), dim,
                   s.coeffs[terms, None] if weighted else None)


def _sum_tables(s: PauliSum, dim: int, weighted: bool = True
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """``_term_tables`` of all the terms, kept on the instance; None when
    they would exceed TABLE_BYTES."""
    kept = s._tables if weighted else s._string_tables
    if dim not in kept and len(s) * dim * TABLE_ITEM_BYTES <= TABLE_BYTES:
        kept[dim] = _term_tables(s, slice(None), dim, weighted)
    return kept.get(dim)


def apply_to_statevector(s: PauliSum, psi: np.ndarray) -> np.ndarray:
    """S|psi> computed term-wise in O(terms * 2^n).

    Term t adds w_t[i] * psi[i ^ x_t] to amplitude i, in term order from
    zero. Below TABLE_BYTES the terms are gathered as one (terms, dim) block
    whose rows are summed in order; above it each term is formed per call.
    """
    dim = psi.shape[0]
    tables = _sum_tables(s, dim)
    if tables is None:
        out = np.zeros(dim, dtype=complex)
        for t in range(len(s)):
            index, weights = _term_tables(s, t, dim)
            out += weights * psi[index]
        return out
    index, weights = tables
    # Reducing over the leading axis of a C-ordered block adds whole rows one
    # after another, the same additions as the per-term loop above.
    return np.add.reduce(weights * psi[index], axis=0, initial=0j)


def string_actions(s: PauliSum, psi: np.ndarray
                   ) -> np.ndarray | Iterator[np.ndarray]:
    """P_t|psi> for every string of s in term order, coefficients left out.

    Below TABLE_BYTES all of them come from one gather on the sum's stacked
    unweighted tables, as (terms, dim) rows; above it each string is applied
    per call. Either way row t holds the bits of ``P_t.apply(psi)``.
    """
    tables = _sum_tables(s, psi.shape[0], weighted=False)
    if tables is None:
        return (phased * psi[index] for index, phased in (
            _term_tables(s, t, psi.shape[0], False) for t in range(len(s))))
    index, phased = tables
    return phased * psi[index]


def x_masks(s: PauliSum) -> list[int]:
    """The distinct X masks of s, in order of first appearance."""
    return list(dict.fromkeys(s.x.tolist()))


def _mask_weights(s: PauliSum, dim: int) -> Iterator[tuple[int, np.ndarray]]:
    """(x, weights) per distinct X mask in order of first appearance, for a
    register that holds every term: weights[i] is entry (i, i ^ x), the
    ``_term_tables`` weights of the terms with mask x added in term order
    from zero, so every entry takes the additions of a term-wise scatter.

    A group's terms are formed as one (terms, dim) block below a row holding
    the sum so far (zero at first), at most TABLE_BYTES of block at a time,
    and the block's rows are reduced in order. Each term's weight is its
    phased coefficient or its negation; the product with a +-1 sign that
    ``_term_tables`` forms differs from it only in the signs of zero parts,
    which a sum started from +0 never keeps, so the bits are the same."""
    scales = s.coeffs * _PHASES[np.bitwise_count(s.x & s.z) & 3]
    rows = max(1, TABLE_BYTES // (dim * AMPLITUDE_BYTES) - 1)
    columns = np.arange(dim, dtype=np.uint64)
    for x in x_masks(s):
        group = np.flatnonzero(s.x == x)
        idx = columns ^ x
        weights = np.zeros(dim, dtype=complex)
        for start in range(0, len(group), rows):
            part = group[start:start + rows]
            odd = np.bitwise_count(idx & s.z[part, None]) & 1 == 1
            block = np.empty((len(part) + 1, dim), dtype=complex)
            block[0] = weights
            block[1:] = np.where(odd, -scales[part, None], scales[part, None])
            weights = np.add.reduce(block, axis=0)
        yield x, weights


def to_matrix(s: PauliSum, n: int | None = None) -> np.ndarray:
    """Dense 2^n x 2^n realisation with qubit 0 as the least-significant
    factor; TooLarge when the matrix would exceed BYTE_BUDGET."""
    if n is None:
        n = s.n_qubits
    check_bytes(matrix_bytes(n), f"a dense {n}-qubit matrix")
    if n < s.n_qubits:
        raise DimensionMismatch(f"sum acts on {s.n_qubits} qubits, asked for {n}")
    dim = 1 << n
    rows = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for x, weights in _mask_weights(s, dim):
        out[rows, rows ^ x] = weights
    return out


def to_csr(s: PauliSum, n: int | None = None) -> scipy.sparse.csr_array:
    """The nonzero entries of ``to_matrix`` in CSR form: row i stores column
    i ^ x for every distinct X mask x, in order of first appearance, except
    where the mask's terms cancel to zero. All M * 2^n entries are stacked
    first and the exact zeros dropped after: a row sum that starts at +0.0
    never becomes -0.0, so a stored zero changes no matrix-vector product."""
    import scipy.sparse

    if n is None:
        n = s.n_qubits
    if n < s.n_qubits:
        raise DimensionMismatch(f"sum acts on {s.n_qubits} qubits, asked for {n}")
    dim = 1 << n
    masks = x_masks(s)
    data = np.empty((dim, len(masks)), dtype=complex)
    for j, (_, weights) in enumerate(_mask_weights(s, dim)):
        data[:, j] = weights
    indices = np.arange(dim)[:, None] ^ np.array(masks, dtype=np.intp)
    indptr = np.arange(dim + 1) * len(masks)
    matrix = scipy.sparse.csr_array((data.ravel(), indices.ravel(), indptr),
                                    shape=(dim, dim))
    matrix.eliminate_zeros()
    return matrix


def expectation(s: PauliSum, psi: np.ndarray) -> float:
    """Exact <psi|S|psi> for Hermitian S; an imaginary residue above 1e-10 raises."""
    return expectation_and_action(s, psi)[0]


def expectation_and_action(s: PauliSum, psi: np.ndarray
                           ) -> tuple[float, np.ndarray]:
    """``expectation(s, psi)``, with its checks, and the S psi it was read
    from."""
    if not s.is_hermitian():
        raise NonHermitian("expectation requires a Hermitian sum")
    if psi.shape[0] < (1 << s.n_qubits):
        raise DimensionMismatch(
            f"state has {psi.shape[0]} amplitudes, sum needs {1 << s.n_qubits}")
    action = apply_to_statevector(s, psi)
    value = np.vdot(psi, action)
    if not abs(value.imag) < 1e-10:
        raise NotReal(f"expectation {value} is not real")
    return float(value.real), action

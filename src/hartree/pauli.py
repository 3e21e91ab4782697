"""Sparse algebra of Pauli strings and Hermitian sums.

A Pauli string is stored as a pair of bitmasks (x, z): bit q of ``x`` set means
the letter on qubit q contains an X factor, bit q of ``z`` a Z factor, both set
mean Y. Qubit 0 is the rightmost / least-significant position throughout.
Multiplication, commutation and state application then reduce to integer
bit operations with an i^k phase bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

DROP_TOLERANCE = 1e-12
DENSE_QUBIT_LIMIT = 14

_PHASES = np.array([1, 1j, -1, -1j])


class TooLarge(ValueError):
    """Dense realisation requested beyond the oracle qubit ceiling."""


class DimensionMismatch(ValueError):
    pass


class NonHermitian(ValueError):
    pass


def _popcount(n: int) -> int:
    return bin(n).count("1")


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
        """Parse forms like ``"X0 Z2 Y5"``; ``"I"`` or ``""`` is the identity."""
        x = z = 0
        text = text.strip()
        if text in ("", "I"):
            return cls()
        for token in text.split():
            letter, qubit = token[0].upper(), int(token[1:])
            if letter not in "XYZ":
                raise ValueError(f"bad Pauli letter in {token!r}")
            if letter in "XY":
                x |= 1 << qubit
            if letter in "ZY":
                z |= 1 << qubit
        return cls(x, z)

    @classmethod
    def single(cls, letter: str, qubit: int) -> "PauliString":
        return cls.from_text(f"{letter}{qubit}")

    def letter(self, qubit: int) -> str:
        bit = 1 << qubit
        return "IXZY"[bool(self.x & bit) + 2 * bool(self.z & bit)]

    @property
    def weight(self) -> int:
        return _popcount(self.x | self.z)

    @property
    def n_qubits(self) -> int:
        return (self.x | self.z).bit_length()

    @property
    def is_identity(self) -> bool:
        return not (self.x | self.z)

    def indices(self) -> list[int]:
        support = self.x | self.z
        return [q for q in range(support.bit_length()) if support >> q & 1]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Return P|psi> for a statevector of matching dimension."""
        if (self.x | self.z) >= psi.shape[0]:
            raise DimensionMismatch(f"{self} exceeds {psi.shape[0]}-dim state")
        cols = np.arange(psi.shape[0], dtype=np.uint64)
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(self.z)) & 1)]
        out = np.empty_like(psi, dtype=complex)
        out[cols ^ np.uint64(self.x)] = (1j ** _popcount(self.x & self.z)) * signs * psi
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliString) and self.x == other.x and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.z))

    def __str__(self) -> str:
        if self.is_identity:
            return "I"
        return " ".join(f"{self.letter(q)}{q}" for q in self.indices())

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


IDENTITY = PauliString()


@dataclass(frozen=True)
class PauliTerm:
    string: PauliString
    coeff: complex

    def __str__(self) -> str:
        return f"{self.coeff} * {self.string}"


def mul_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b as (phase, string); the phase is a power of i."""
    x3, z3 = a.x ^ b.x, a.z ^ b.z
    k = (_popcount(a.x & a.z) + _popcount(b.x & b.z) - _popcount(x3 & z3)
         + 2 * _popcount(a.z & b.x))
    return complex(_PHASES[k % 4]), PauliString(x3, z3)


def mul_terms(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    phase, string = mul_strings(a.string, b.string)
    return PauliTerm(string, a.coeff * b.coeff * phase)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the strings commute (even number of anticommuting sites)."""
    return (_popcount(a.x & b.z) + _popcount(a.z & b.x)) % 2 == 0


class PauliSum:
    """Canonical linear combination of Pauli strings.

    Construction merges duplicates, drops |coeff| < tol and fixes a
    deterministic term order (lexicographic on the textual string form).
    Instances are immutable; arithmetic returns new sums.
    """

    __slots__ = ("_terms", "_n_qubits")

    def __init__(self,
                 terms: Mapping[PauliString, complex] | Iterable[PauliTerm] | None = None,
                 n_qubits: int | None = None,
                 tol: float = DROP_TOLERANCE):
        merged: dict[PauliString, complex] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else (
                (t.string, t.coeff) for t in terms)
            for string, coeff in items:
                coeff = complex(coeff)
                if not np.isfinite(coeff):
                    raise ValueError(f"non-finite coefficient for {string}")
                merged[string] = merged.get(string, 0.0) + coeff
        kept = {s: c for s, c in merged.items() if abs(c) >= tol}
        ordered = sorted(kept, key=str)
        object.__setattr__(self, "_terms", {s: kept[s] for s in ordered})
        inferred = max((s.n_qubits for s in kept), default=0)
        if n_qubits is not None and n_qubits < inferred:
            raise DimensionMismatch(f"declared {n_qubits} qubits, terms need {inferred}")
        object.__setattr__(self, "_n_qubits", n_qubits if n_qubits is not None else inferred)

    def __setattr__(self, *_):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def identity(cls, coeff: complex = 1.0, n_qubits: int | None = None) -> "PauliSum":
        return cls({IDENTITY: coeff}, n_qubits=n_qubits)

    @classmethod
    def from_text(cls, entries: Mapping[str, complex], n_qubits: int | None = None) -> "PauliSum":
        return cls({PauliString.from_text(t): c for t, c in entries.items()}, n_qubits=n_qubits)

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    def items(self) -> list[tuple[PauliString, complex]]:
        return list(self._terms.items())

    def coeff(self, string: PauliString | str) -> complex:
        if isinstance(string, str):
            string = PauliString.from_text(string)
        return self._terms.get(string, 0.0)

    def strings(self) -> list[PauliString]:
        return list(self._terms)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return (PauliTerm(s, c) for s, c in self._terms.items())

    def __add__(self, other: "PauliSum") -> "PauliSum":
        merged = dict(self._terms)
        for s, c in other._terms.items():
            merged[s] = merged.get(s, 0.0) + c
        return PauliSum(merged, n_qubits=max(self._n_qubits, other._n_qubits) or None)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "PauliSum":
        return PauliSum({s: scalar * c for s, c in self._terms.items()},
                        n_qubits=self._n_qubits or None)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            out: dict[PauliString, complex] = {}
            for s1, c1 in self._terms.items():
                for s2, c2 in other._terms.items():
                    phase, s3 = mul_strings(s1, s2)
                    out[s3] = out.get(s3, 0.0) + c1 * c2 * phase
            return PauliSum(out, n_qubits=max(self._n_qubits, other._n_qubits) or None)
        return self.__rmul__(other)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliSum) and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c:.12g}) * {s}" for s, c in self._terms.items())

    def to_json_terms(self) -> list[dict]:
        return [{"string": str(s), "re": c.real, "im": c.imag}
                for s, c in self._terms.items()]

    @classmethod
    def from_json_terms(cls, entries: list[dict]) -> "PauliSum":
        return cls({PauliString.from_text(e["string"]): e["re"] + 1j * e["im"]
                    for e in entries})


def canonicalize(s: PauliSum, tol: float = DROP_TOLERANCE) -> PauliSum:
    """Re-canonicalize with an explicit drop tolerance. Idempotent."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return PauliSum(dict(s.items()), n_qubits=s.n_qubits or None, tol=tol)


def apply_to_statevector(s: PauliSum, psi: np.ndarray) -> np.ndarray:
    """S|psi> computed term-wise in O(terms * 2^n)."""
    dim = psi.shape[0]
    cols = np.arange(dim, dtype=np.uint64)
    out = np.zeros(dim, dtype=complex)
    for string, coeff in s.items():
        if (string.x | string.z) >= dim:
            raise DimensionMismatch(f"term {string} exceeds {dim}-dim state")
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
        phase = coeff * 1j ** _popcount(string.x & string.z)
        # XOR with a fixed mask is a bijection, so indices never collide
        out[cols ^ np.uint64(string.x)] += phase * signs * psi
    return out


def to_matrix(s: PauliSum, n: int | None = None) -> np.ndarray:
    """Dense 2^n x 2^n realisation with qubit 0 as the least-significant factor."""
    if n is None:
        n = s.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise TooLarge(f"{n} qubits exceeds the dense limit of {DENSE_QUBIT_LIMIT}")
    if n < s.n_qubits:
        raise DimensionMismatch(f"sum acts on {s.n_qubits} qubits, asked for {n}")
    dim = 1 << n
    cols = np.arange(dim, dtype=np.uint64)
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in s.items():
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
        phase = coeff * 1j ** _popcount(string.x & string.z)
        out[cols ^ np.uint64(string.x), cols] += phase * signs
    return out


def expectation(s: PauliSum, psi: np.ndarray) -> float:
    """Exact <psi|S|psi> for Hermitian S; an imaginary residue above 1e-10 raises."""
    if not s.is_hermitian():
        raise NonHermitian("expectation requires a Hermitian sum")
    if psi.shape[0] < (1 << s.n_qubits):
        raise DimensionMismatch(
            f"state has {psi.shape[0]} amplitudes, sum needs {1 << s.n_qubits}")
    value = np.vdot(psi, apply_to_statevector(s, psi))
    if not abs(value.imag) < 1e-10:
        raise ArithmeticError(f"expectation {value} is not real")
    return float(value.real)

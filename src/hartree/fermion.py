"""Second-quantised operator algebra.

Molecular Hamiltonian assembly from integrals, fermionic normal ordering,
occupation vectors and UCC generator construction. Operators obey
{a_p, a+_q} = delta_pq, {a_p, a_q} = {a+_p, a+_q} = 0. A FermionSum is held
as arrays, read straight off the integrals for the Hamiltonian, and makes
FermionOperators only when a caller iterates it.

Spin-orbital ordering is spin-blocked by default (indices 0..M/2-1 spin-up,
M/2..M-1 spin-down); the interleaved alternative (up, down, up, down) is
supported for problems stated in that labelling. Normal form puts creation
factors left of annihilation factors with indices decreasing left to right
within each block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError

BLOCKED = "blocked"
INTERLEAVED = "interleaved"

COEFF_TOLERANCE = 1e-12
# The most modes a uint64 bit mask holds, one bit per spin-orbital or qubit.
MASK_MODES = 64


class InvalidIntegrals(ConfigError):
    """Integral tensors violate the required index symmetries."""


class IndexOutOfRange(ConfigError):
    """A mode index is negative or does not fit the scheme's register."""


def spin_of(index: int, m: int, ordering: str = BLOCKED) -> int:
    """0 for spin-up, 1 for spin-down."""
    if ordering == BLOCKED:
        return 0 if index < m // 2 else 1
    if ordering == INTERLEAVED:
        return index % 2
    raise ValueError(f"unknown ordering {ordering!r}")


def spatial_of(index: int, m: int, ordering: str = BLOCKED) -> int:
    if ordering == BLOCKED:
        return index % (m // 2)
    if ordering == INTERLEAVED:
        return index // 2
    raise ValueError(f"unknown ordering {ordering!r}")


@dataclass(frozen=True)
class MolecularIntegrals:
    """Spin-orbital integrals defining a molecular problem, in Hartree.

    ``h_two[p, q, r, s]`` multiplies a+_p a+_q a_r a_s in the Hamiltonian
    (physicists' index order).
    """

    m: int
    n_electrons: int
    n_up: int
    core_energy: float
    h_one: np.ndarray
    h_two: np.ndarray
    ordering: str = BLOCKED

    def __post_init__(self):
        if self.h_one.shape != (self.m, self.m):
            raise InvalidIntegrals("h_one shape mismatch")
        if self.h_two.shape != (self.m,) * 4:
            raise InvalidIntegrals("h_two shape mismatch")

    @property
    def n_down(self) -> int:
        return self.n_electrons - self.n_up

    def validate(self, tol: float = 1e-8) -> None:
        if not np.allclose(self.h_one, self.h_one.conj().T, atol=tol):
            raise InvalidIntegrals("h_one is not Hermitian")
        if not np.allclose(self.h_two, self.h_two.transpose(1, 0, 3, 2), atol=tol):
            raise InvalidIntegrals("h_pqrs != h_qpsr")
        if not np.allclose(self.h_two, self.h_two.conj().transpose(3, 2, 1, 0), atol=tol):
            raise InvalidIntegrals("h_pqrs != conj(h_srqp)")
        spins = np.array([spin_of(p, self.m, self.ordering) for p in range(self.m)])
        mixing = spins[:, None] != spins[None, :]
        if np.max(np.abs(self.h_one[mixing]), initial=0.0) > tol:
            raise InvalidIntegrals("one-body block mixes spins")


@dataclass(frozen=True)
class OccupationVector:
    """Bits f_{M-1}...f_0, one per spin-orbital."""

    m: int
    mask: int

    @classmethod
    def from_string(cls, bits: str) -> "OccupationVector":
        return cls(len(bits), int(bits, 2))

    @classmethod
    def from_occupied(cls, occupied: Iterable[int], m: int) -> "OccupationVector":
        mask = 0
        for p in occupied:
            if p >= m:
                raise ValueError(f"orbital {p} outside 0..{m - 1}")
            mask |= 1 << p
        return cls(m, mask)

    def bit(self, p: int) -> int:
        return self.mask >> p & 1

    def occupied(self) -> list[int]:
        return [p for p in range(self.m) if self.bit(p)]

    @property
    def n_electrons(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return format(self.mask, f"0{self.m}b")


@dataclass(frozen=True)
class FermionOperator:
    """Single product of ladder factors with a coefficient.

    ``factors`` is applied right-to-left to kets; each entry is
    (mode index, dagger flag).
    """

    factors: tuple[tuple[int, bool], ...]
    coeff: complex = 1.0

    def __str__(self) -> str:
        if not self.factors:
            return f"{self.coeff} * 1"
        ops = " ".join(f"a{'+' if d else '-'}_{p}" for p, d in self.factors)
        return f"{self.coeff} * {ops}"


class FermionSum:
    """Linear combination of ladder-operator products: the terms in order,
    in runs of one arity, each a (terms, arity, 2) uint64 array of (mode,
    dagger) per factor and its coefficients. Iteration makes the terms."""

    __slots__ = ("runs",)

    def __init__(self, runs: Iterable[tuple[np.ndarray, np.ndarray]] = ()):
        checked = []
        for pairs, coeffs in runs:
            if pairs.dtype.kind != "u" and (pairs[..., 0] < 0).any():
                raise IndexOutOfRange(f"mode {pairs[..., 0].min()} is negative")
            if len(coeffs):
                checked.append((pairs.astype(np.uint64, copy=False), coeffs))
        self.runs = tuple(checked)

    @classmethod
    def single(cls, spec: Sequence[tuple[int, bool]], coeff: complex = 1.0) -> "FermionSum":
        return cls([(_factor_array([spec], len(spec)),
                     np.array([complex(coeff)]))])

    def adjoint(self) -> "FermionSum":
        return FermionSum((pairs[:, ::-1] ^ np.uint64([0, 1]), coeffs.conj())
                          for pairs, coeffs in self.runs)

    def max_mode(self) -> int:
        return max((int(pairs[..., 0].max()) for pairs, _ in self.runs
                    if pairs.shape[1]), default=-1)

    @property
    def terms(self) -> list[FermionOperator]:
        return list(self)

    def __add__(self, other: "FermionSum") -> "FermionSum":
        return FermionSum(self.runs + other.runs)

    def __sub__(self, other: "FermionSum") -> "FermionSum":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "FermionSum":
        # Python's products: numpy's may fuse a multiply and an add
        return FermionSum((pairs, np.array([scalar * c for c in c_run.tolist()]))
                          for pairs, c_run in self.runs)

    def __len__(self) -> int:
        return sum(len(coeffs) for _, coeffs in self.runs)

    def __iter__(self) -> Iterator[FermionOperator]:
        for pairs, coeffs in self.runs:
            for factors, c in zip(pairs.tolist(), coeffs.tolist()):
                yield FermionOperator(tuple((p, bool(d)) for p, d in factors), c)

    def __str__(self) -> str:
        return " + ".join(map(str, self)) or "0"


def _factor_array(factors: list, arity: int) -> np.ndarray:
    """The (terms, arity, 2) int64 array of each term's (mode, dagger)
    factors. A mode outside int64 raises IndexOutOfRange here, where numpy's
    cast would raise OverflowError."""
    for term in factors:
        for p, _ in term:
            if not 0 <= p < 1 << 63:
                raise IndexOutOfRange(f"mode {p} is negative" if p < 0 else
                                      f"mode {p} does not fit a 64-bit index")
    return np.array(factors, dtype=np.int64).reshape(len(factors), arity, 2)


def arity_runs(terms: Iterable[FermionOperator]) -> FermionSum:
    """The sum of ``terms`` in order: each run of one arity read into its
    factor array and its coefficients, in the coefficients' own dtype."""
    runs = []
    for arity, run in itertools.groupby(terms, key=lambda t: len(t.factors)):
        run = list(run)
        runs.append((_factor_array([t.factors for t in run], arity),
                     np.array([t.coeff for t in run])))
    return FermionSum(runs)


def normal_order(s: FermionSum, tol: float = COEFF_TOLERANCE) -> FermionSum:
    """Canonical form via the anticommutation relations; operator equality kept.

    Creation factors end up left of annihilation factors, indices decreasing
    left to right within each block; duplicate products merge and repeated
    ladder operators annihilate the term.
    """
    merged: dict[tuple, complex] = {}
    stack = [(t.coeff, list(t.factors)) for t in s]
    while stack:
        coeff, factors = stack.pop()
        for i in range(len(factors) - 1):
            (p, dp), (q, dq) = factors[i], factors[i + 1]
            if not dp and dq:
                swapped = factors[:i] + [(q, dq), (p, dp)] + factors[i + 2:]
                stack.append((-coeff, swapped))
                if p == q:
                    stack.append((coeff, factors[:i] + factors[i + 2:]))
                break
            if dp == dq:
                if p == q:
                    break  # nilpotent: a a or a+ a+ on the same mode
                if p < q:
                    swapped = factors[:i] + [(q, dq), (p, dp)] + factors[i + 2:]
                    stack.append((-coeff, swapped))
                    break
        else:
            key = tuple(factors)
            merged[key] = merged.get(key, 0.0) + coeff
    return arity_runs(FermionOperator(k, c) for k, c in sorted(merged.items())
                      if abs(c) > tol)


def molecular_term_runs(ints: MolecularIntegrals
                        ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The terms of H = core + sum h_pq a+_p a_q + 1/2 sum h_pqrs a+_p a+_q
    a_r a_s read straight from the integral arrays, in build order: the
    core, then one-body, then two-body terms, each index tuple in row-major
    order and only where |coefficient| > COEFF_TOLERANCE. One run per arity
    present, as a FermionSum holds its runs: the (terms, arity, 2) uint64
    array of (mode, dagger) per factor and the coefficients, kept in the
    integrals' own dtype."""
    ints.validate()
    runs = []
    if abs(ints.core_energy) > COEFF_TOLERANCE:
        runs.append((np.zeros((1, 0, 2), dtype=np.uint64),
                     np.array([ints.core_energy])))
    for tensor, scale, daggers in ((ints.h_one, None, (1, 0)),
                                   (ints.h_two, 0.5, (1, 1, 0, 0))):
        index = np.argwhere(np.abs(tensor) > COEFF_TOLERANCE)
        if not len(index):
            continue
        coeffs = tensor[tuple(index.T)]
        pairs = np.empty(index.shape + (2,), dtype=np.uint64)
        pairs[..., 0] = index
        pairs[..., 1] = daggers
        runs.append((pairs, coeffs if scale is None else scale * coeffs))
    return runs


def build_molecular_hamiltonian(ints: MolecularIntegrals) -> FermionSum:
    """H = sum h_pq a+_p a_q + 1/2 sum h_pqrs a+_p a+_q a_r a_s + core, over
    the runs of ``molecular_term_runs``."""
    return FermionSum(molecular_term_runs(ints))


def number_operator(modes: Iterable[int]) -> FermionSum:
    return arity_runs(FermionOperator(((p, True), (p, False)), 1.0) for p in modes)


def hf_occupation(ints: MolecularIntegrals) -> OccupationVector:
    """Lowest-index orbitals filled per spin, respecting the ordering flag."""
    occupied = []
    n_spatial = ints.m // 2
    for k in range(ints.n_up):
        occupied.append(k if ints.ordering == BLOCKED else 2 * k)
    for k in range(ints.n_down):
        occupied.append(n_spatial + k if ints.ordering == BLOCKED else 2 * k + 1)
    return OccupationVector.from_occupied(occupied, ints.m)


def hf_energy(ints: MolecularIntegrals) -> float:
    """Mean-field energy of the Aufbau determinant, evaluated directly."""
    occ = hf_occupation(ints).occupied()
    energy = ints.core_energy + sum(ints.h_one[p, p].real for p in occ)
    for p in occ:
        for q in occ:
            if p != q:
                energy += 0.5 * (ints.h_two[p, q, q, p] - ints.h_two[p, q, p, q]).real
    return float(energy)


@dataclass(frozen=True)
class UccGenerator:
    label: str
    generator: FermionSum = field(repr=False)


def uccsd_generators(m: int,
                     occ: Iterable[int],
                     virt: Iterable[int],
                     spin_conserving: bool = True,
                     spins: Sequence[int] | None = None,
                     ordering: str = BLOCKED) -> list[UccGenerator]:
    """Anti-Hermitian single and double excitation generators T_k - T_k+.

    One generator per distinct single a+_v a_o and double a+_v a+_w a_p a_o
    excitation (strict pair enumeration, so no duplicates arise under
    anticommutation), held as one run of two terms, T and T+. ``spins``
    assigns 0/1 per mode; by default it follows the ordering rule for ``m``
    modes.
    """
    occ = sorted(occ)
    virt = sorted(virt)
    if set(occ) & set(virt):
        raise ValueError("occupied and virtual sets overlap")
    if spins is None:
        spins = [spin_of(p, m, ordering) for p in range(m)]

    singles = [(o, v) for o in occ for v in virt
               if not spin_conserving or spins[o] == spins[v]]
    doubles = [(o1, o2, v1, v2) for o1, o2 in itertools.combinations(occ, 2)
               for v1, v2 in itertools.combinations(virt, 2)
               if not spin_conserving
               or spins[v1] + spins[v2] == spins[o1] + spins[o2]]
    labels = [f"s:{o}->{v}" for o, v in singles] + [
        f"d:{o1},{o2}->{v1},{v2}" for o1, o2, v1, v2 in doubles]
    runs = [*_t_minus_adjoint([[(v, 1), (o, 0)] for o, v in singles], 2),
            *_t_minus_adjoint([[(v2, 1), (v1, 1), (o2, 0), (o1, 0)]
                               for o1, o2, v1, v2 in doubles], 4)]
    return [UccGenerator(label, FermionSum([(pairs, _T_MINUS_ADJOINT)]))
            for label, pairs in zip(labels, runs)]


# The coefficients of T and T+ in T - T+, the bits of FermionSum's own
# ``t - t.adjoint()``: 1+0j, and -1.0 * (1-0j) = -1+0j.
_T_MINUS_ADJOINT = np.array([1 + 0j, -1 + 0j])
_T_MINUS_ADJOINT.flags.writeable = False


def _t_minus_adjoint(excitations: list[list], arity: int) -> np.ndarray:
    """The factors of T and T+ for each excitation T: a read-only uint64
    [excitation, term, factor, (mode, dagger)] array, every mode checked as
    ``_factor_array`` checks it."""
    terms = [term for t in excitations
             for term in (t, [(p, 1 - dagger) for p, dagger in reversed(t)])]
    pairs = _factor_array(terms, arity).reshape(-1, 2, arity, 2).astype(
        np.uint64)
    pairs.flags.writeable = False
    return pairs

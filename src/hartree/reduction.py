"""Resource reduction: natural-orbital active spaces and symmetry tapering.

The orbital side works on spin-summed one-particle density matrices over
spatial orbitals: diagonalise to get natural-orbital occupation numbers,
rotate the integrals into that basis, then freeze near-doubly-occupied
orbitals into an effective core and delete near-empty virtuals. The qubit
side removes the two register positions that store conserved parities
(total electron count and spin-up count) under the parity, Bravyi-Kitaev
and BK-tree maps with spin-blocked ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .encoding import BK, BKTREE, PARITY, EncodingScheme
from .fermion import (
    BLOCKED,
    MASK_MODES,
    FermionOperator,
    MolecularIntegrals,
    arity_runs,
    build_molecular_hamiltonian,
)
from .errors import ConfigError
from .pauli import AMPLITUDE_BYTES, PauliString, PauliSum, check_bytes
from .simulator import EIGH_MATRICES

DEFAULT_LOWER_NOON = 1e-4
DEFAULT_UPPER_NOON = 1.99


class NotSymmetric(ConfigError):
    """Matrix or operator lacks the symmetry the operation relies on."""


class EmptyActiveSpace(ConfigError):
    """Threshold choice would discard every orbital."""


class InconsistentSpace(ConfigError):
    """Active-space bookkeeping does not match the integrals."""


@dataclass(frozen=True, eq=False)
class OneRDM:
    """Spin-summed one-particle density matrix over spatial orbitals."""

    rho: np.ndarray

    def validate(self, tol: float = 1e-6) -> None:
        if not np.allclose(self.rho, self.rho.T, atol=1e-8):
            raise NotSymmetric("density matrix is not symmetric")
        values = np.linalg.eigvalsh((self.rho + self.rho.T) / 2)
        if values[0] < -tol or values[-1] > 2 + tol:
            raise ValueError(f"occupancies outside [0, 2]: {values}")


@dataclass(frozen=True)
class ActiveSpace:
    """Spatial-orbital partition produced by occupation-number thresholds."""

    frozen_occupied: tuple[int, ...]
    removed_virtual: tuple[int, ...]
    retained: tuple[int, ...]
    core_shift: float = 0.0


@dataclass(frozen=True)
class SymmetrySector:
    """Eigenvalues taken by the two conserved-parity Z operators."""

    z_total: int
    z_up: int

    def __post_init__(self):
        if self.z_total not in (-1, 1) or self.z_up not in (-1, 1):
            raise ValueError("sector eigenvalues must be +1 or -1")


def sector_for(n_electrons: int, n_up: int) -> SymmetrySector:
    """Parities of the electron counts fix the two tapered eigenvalues."""
    return SymmetrySector(z_total=1 - 2 * (n_electrons % 2),
                          z_up=1 - 2 * (n_up % 2))


def diagonalize_1rdm(rdm: OneRDM | np.ndarray,
                     tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Occupation numbers sorted descending plus the orthogonal rotation.

    Columns of the rotation are natural orbitals; ties keep the order the
    symmetric eigensolver produced, and each column's largest entry is made
    positive so the output is deterministic.
    """
    rho = rdm.rho if isinstance(rdm, OneRDM) else np.asarray(rdm, dtype=float)
    if not np.allclose(rho, rho.T, atol=tol):
        raise NotSymmetric("density matrix is not symmetric")
    values, vectors = np.linalg.eigh((rho + rho.T) / 2)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    for c in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, c]))
        if vectors[lead, c] < 0:
            vectors[:, c] = -vectors[:, c]
    return values, vectors


def select_active_space(noons,
                        lower: float = DEFAULT_LOWER_NOON,
                        upper: float = DEFAULT_UPPER_NOON) -> ActiveSpace:
    """Freeze occupancies above ``upper``, drop those below ``lower``."""
    if not 0 <= lower < upper <= 2:
        raise ValueError("need 0 <= lower < upper <= 2")
    frozen, removed, retained = [], [], []
    for i, value in enumerate(noons):
        if value > upper:
            frozen.append(i)
        elif value < lower:
            removed.append(i)
        else:
            retained.append(i)
    if not retained:
        raise EmptyActiveSpace("thresholds leave no active orbitals")
    return ActiveSpace(tuple(frozen), tuple(removed), tuple(retained))


def rotate_spatial(ints: MolecularIntegrals, rotation: np.ndarray) -> MolecularIntegrals:
    """Change of single-particle basis by an orthogonal spatial rotation."""
    if ints.ordering != BLOCKED:
        raise InconsistentSpace("spin-blocked integrals required")
    ns = ints.m // 2
    if rotation.shape != (ns, ns):
        raise InconsistentSpace(f"rotation must be {ns}x{ns}")
    u = np.zeros((ints.m, ints.m))
    u[:ns, :ns] = rotation
    u[ns:, ns:] = rotation
    h_one = u.conj().T @ ints.h_one @ u
    h_two = np.einsum("ap,bq,cr,ds,abcd->pqrs",
                      u.conj(), u.conj(), u, u, ints.h_two, optimize=True)
    return replace(ints, h_one=h_one, h_two=h_two)


def freeze_reduce(ints: MolecularIntegrals, space: ActiveSpace) -> MolecularIntegrals:
    """Integrals over retained orbitals, frozen pairs folded into the core.

    A frozen spatial orbital contributes its pair energy to the constant term
    and a Coulomb-minus-exchange mean field to the remaining one-body block;
    removed virtuals are simply deleted.
    """
    if ints.ordering != BLOCKED:
        raise InconsistentSpace("spin-blocked integrals required")
    ns = ints.m // 2
    frozen = sorted(space.frozen_occupied)
    removed = sorted(space.removed_virtual)
    retained = list(space.retained)
    groups = [set(frozen), set(removed), set(retained)]
    if (sum(len(g) for g in groups) != ns
            or set().union(*groups) != set(range(ns))):
        raise InconsistentSpace("orbital sets must partition the spatial orbitals")
    if not retained:
        raise InconsistentSpace("no retained orbitals")
    if len(frozen) > min(ints.n_up, ints.n_down):
        raise InconsistentSpace("cannot freeze more pairs than occupied orbitals")

    frozen_spin = [f for f in frozen] + [f + ns for f in frozen]
    core = ints.core_energy
    for f in frozen_spin:
        core += ints.h_one[f, f].real
    for f in frozen_spin:
        for g in frozen_spin:
            if f != g:
                core += 0.5 * (ints.h_two[f, g, g, f] - ints.h_two[f, g, f, g]).real

    h_one = ints.h_one.copy()
    for f in frozen_spin:
        h_one = h_one + ints.h_two[:, f, f, :] - ints.h_two[:, f, :, f]

    keep = retained + [r + ns for r in retained]
    grid = np.ix_(keep, keep)
    return MolecularIntegrals(
        m=2 * len(retained),
        n_electrons=ints.n_electrons - 2 * len(frozen),
        n_up=ints.n_up - len(frozen),
        core_energy=float(core),
        h_one=h_one[grid],
        h_two=ints.h_two[np.ix_(keep, keep, keep, keep)],
        ordering=BLOCKED,
    )


def sector_determinants(m: int, n_up: int, n_down: int) -> list[int]:
    """All occupation masks with the given per-spin electron counts (blocked)."""
    ns = m // 2
    ups = [sum(1 << i for i in combo)
           for combo in itertools.combinations(range(ns), n_up)]
    downs = [sum(1 << (i + ns) for i in combo)
             for combo in itertools.combinations(range(ns), n_down)]
    return sorted(u | d for u in ups for d in downs)


def _ladder(modes: np.ndarray, creates: np.ndarray) -> list[tuple]:
    """Per factor, rightmost first: its mode's bit, the bits below it, and
    what the factor needs at that bit (the bit to annihilate, 0 to create).
    The last axis of ``modes`` and ``creates`` holds the factors left to
    right."""
    bits = np.uint64(1) << modes
    need = np.where(creates, np.uint64(0), bits)
    return [(bits[..., f], bits[..., f] - np.uint64(1), need[..., f])
            for f in reversed(range(modes.shape[-1]))]


def _apply(ladder: list[tuple], masks) -> tuple[np.ndarray, ...]:
    """(image, odd, alive) of determinant ``masks`` under ladder products,
    as ``fermion.apply_to_occupation`` applies one: a factor on the wrong
    occupation kills the product, and each contributes the sign
    (-1)^(occupations below its mode). Shapes broadcast."""
    image = masks
    counts = np.zeros(np.shape(masks), dtype=np.uint8)
    alive = np.ones(np.shape(masks), dtype=bool)
    for bit, below, need in ladder:
        alive = alive & ((image & bit) == need)
        # uint8 counts wrap modulo 256, which keeps their parity
        counts = counts + np.bitwise_count(image & below)
        image = image ^ bit
    return image, counts & 1 == 1, alive


def _rows(masks: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Sector position of each image, or -1 where it leaves the sector."""
    rows = np.searchsorted(masks, images)
    return np.where(masks.take(rows, mode="clip") == images, rows, -1)


def _outside(term, mask: int, ints: MolecularIntegrals) -> InconsistentSpace:
    return InconsistentSpace(
        f"term {term} maps determinant {mask:0{ints.m}b} outside the "
        f"({ints.n_up}, {ints.n_down}) sector")


def _term_runs(terms: list) -> list[tuple]:
    """The terms in build order, cut into runs of one arity: (position of
    the run's first term, its ladder, its coefficients)."""
    return [(first, _ladder(pairs[..., 0], pairs[..., 1] == 1), coeffs)
            for first, pairs, coeffs in arity_runs(terms)]


def _sector_matrix(ints: MolecularIntegrals, masks: list[int]) -> np.ndarray:
    """Each column applies every Hamiltonian term to its determinant at
    once; each entry adds its amplitudes in term order."""
    terms = build_molecular_hamiltonian(ints).terms
    sector = np.array(masks, dtype=np.uint64)
    matrix = np.zeros((len(masks), len(masks)), dtype=complex)
    runs = _term_runs(terms)
    for column, mask in enumerate(sector):
        for first, ladder, coeffs in runs:
            image, odd, alive = _apply(ladder, np.full(len(coeffs), mask))
            hit = np.flatnonzero(alive)
            rows = _rows(sector, image[hit])
            if rows.min(initial=0) < 0:
                raise _outside(terms[first + hit[np.argmin(rows)]],
                               masks[column], ints)
            amplitudes = np.where(odd[hit], -coeffs[hit], coeffs[hit])
            np.add.at(matrix, (rows, column), amplitudes)
    return matrix


def fci_sector_ground(ints: MolecularIntegrals
                      ) -> tuple[float, np.ndarray, list[int]]:
    """Exact ground state in the fixed (n_up, n_down) determinant sector;
    TooLarge, before the matrix is built, when EIGH_MATRICES matrices of
    its size (it, eigh's vectors and workspace) would exceed BYTE_BUDGET."""
    if ints.ordering != BLOCKED:
        raise InconsistentSpace("spin-blocked integrals required")
    if ints.m > MASK_MODES:
        raise InconsistentSpace(
            f"a uint64 determinant mask holds {MASK_MODES} spin-orbitals, "
            f"not {ints.m}")
    masks = sector_determinants(ints.m, ints.n_up, ints.n_down)
    dim = len(masks)
    check_bytes(EIGH_MATRICES * dim * dim * AMPLITUDE_BYTES,
                f"the {dim}-determinant sector matrix")
    values, vectors = np.linalg.eigh(_sector_matrix(ints, masks))
    return float(values[0]), vectors[:, 0], masks


def spin_summed_1rdm(ints: MolecularIntegrals,
                     ground: tuple[np.ndarray, list[int]] | None = None) -> OneRDM:
    """rho[i][j] = sum over spin of <a+_i a_j> in the sector ground state.

    All 2·ns² operators a+_(i+s) a_(j+s) act on all determinants at once;
    each entry adds spin block s = 0 over every determinant, then s = ns.
    """
    if ground is None:
        _, amplitudes, masks = fci_sector_ground(ints)
    else:
        amplitudes, masks = ground
    ns = ints.m // 2
    ops = [FermionOperator(((i + s, True), (j + s, False)))
           for i in range(ns) for j in range(ns) for s in (0, ns)]
    [(_, ladder, _)] = _term_runs(ops)
    sector = np.array(masks, dtype=np.uint64)
    image, odd, alive = (a.T for a in _apply(ladder, sector[:, None]))
    alive &= np.abs(amplitudes) >= 1e-14
    op, k = np.nonzero(alive)
    rows = _rows(sector, image[op, k])
    if rows.min(initial=0) < 0:
        bad = np.argmin(rows)
        raise _outside(ops[op[bad]], masks[k[bad]], ints)
    phases = np.where(odd[op, k], -1.0, 1.0)
    rho = np.zeros((ns, ns))
    np.add.at(rho.reshape(-1), op // 2,
              (np.conj(amplitudes[rows]) * phases * amplitudes[k]).real)
    out = OneRDM(rho)
    out.validate()
    return out


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Reduced integrals plus the bookkeeping that produced them."""

    integrals: MolecularIntegrals
    space: ActiveSpace
    noons: np.ndarray
    rotation: np.ndarray


def reduce_problem(ints: MolecularIntegrals,
                   lower: float = DEFAULT_LOWER_NOON,
                   upper: float = DEFAULT_UPPER_NOON) -> ReductionResult:
    """Full orbital-reduction chain: 1-RDM, rotate, threshold, freeze."""
    rdm = spin_summed_1rdm(ints)
    noons, rotation = diagonalize_1rdm(rdm)
    rotated = rotate_spatial(ints, rotation)
    space = select_active_space(noons, lower, upper)
    reduced = freeze_reduce(rotated, space)
    space = replace(space, core_shift=float(reduced.core_energy - ints.core_energy))
    return ReductionResult(reduced, space, noons, rotation)


def _drop_bit(mask: int, position: int) -> int:
    lower = mask & ((1 << position) - 1)
    return lower | (mask >> position + 1) << position


def taper_two_qubits(h: PauliSum, scheme: EncodingScheme,
                     sector: SymmetrySector) -> PauliSum:
    """Replace the two conserved-parity qubits by their sector eigenvalues.

    Qubit M-1 stores total electron parity and qubit M/2-1 the spin-up
    parity under the supported schemes with spin-blocked ordering; both are
    acted on only by I or Z in a symmetry-respecting Hamiltonian, so each Z
    becomes a sign and the registers shrink by two with a descending shift.
    """
    m = scheme.m
    if m < 2 or m % 2:
        raise ValueError("tapering needs an even register")
    if scheme.variant == BK and m & (m - 1):
        raise ValueError("standard BK tapering needs a power-of-two register")
    if scheme.variant not in (PARITY, BK, BKTREE):
        raise ValueError(f"scheme {scheme.variant!r} has no parity qubits to taper")
    if h.n_qubits > m:
        raise ValueError(f"operator acts on {h.n_qubits} qubits, scheme has {m}")
    top, mid = m - 1, m // 2 - 1
    out: dict[PauliString, complex] = {}
    for string, coeff in h.items():
        for qubit in (top, mid):
            if string.x >> qubit & 1:
                raise NotSymmetric(
                    f"term {string} acts on tapered qubit {qubit} with X or Y")
        if string.z >> top & 1:
            coeff = coeff * sector.z_total
        if string.z >> mid & 1:
            coeff = coeff * sector.z_up
        x = _drop_bit(_drop_bit(string.x, top), mid)
        z = _drop_bit(_drop_bit(string.z, top), mid)
        new = PauliString(x, z)
        out[new] = out.get(new, 0.0) + coeff
    return PauliSum(out, n_qubits=m - 2)

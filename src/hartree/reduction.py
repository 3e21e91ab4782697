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
    FermionSum,
    MolecularIntegrals,
    molecular_term_runs,
)
from .errors import ConfigError
from .pauli import (
    AMPLITUDE_BYTES,
    TABLE_BYTES,
    PauliString,
    PauliSum,
    check_bytes,
)
from .simulator import EIGH_MATRICES, hermitian_eigh

DEFAULT_LOWER_NOON = 1e-4
DEFAULT_UPPER_NOON = 1.99
# The sector matrix is built in blocks of terms whose entries, a matrix
# position and an amplitude each, take about this many bytes.
SECTOR_BLOCK_BYTES = TABLE_BYTES >> 5


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


def _factor_bits(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of each factor in a (..., arity, 2) array of (mode, dagger): its
    mode's bit, and what it needs at that bit (the bit to annihilate, 0 to
    create)."""
    bits = np.uint64(1) << pairs[..., 0]
    return bits, np.where(pairs[..., 1] == 1, np.uint64(0), bits)


def _ladder(pairs: np.ndarray, on=True) -> list[tuple]:
    """Per factor of ``pairs``, rightmost first: ``_factor_bits`` and the
    bits below the factor's mode. A factor where ``on`` is False gets bit,
    below and need 0, which ``_apply`` passes over."""
    bits, need = _factor_bits(pairs)
    zero = np.uint64(0)
    below = np.where(on, bits - np.uint64(1), zero)
    bits, need = np.where(on, bits, zero), np.where(on, need, zero)
    return [(bits[..., f], below[..., f], need[..., f])
            for f in reversed(range(pairs.shape[-2]))]


def _apply(ladder: list[tuple], masks) -> tuple[np.ndarray, ...]:
    """(image, odd, alive) of determinant ``masks`` under ladder products,
    as ``apply_to_occupation`` in ``tests/conftest.py`` applies one: a
    factor on the wrong occupation kills the product, and each contributes
    the sign (-1)^(occupations below its mode). Shapes broadcast."""
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


def _outside(pairs: np.ndarray, coeffs: np.ndarray, term: int, mask: int,
             ints: MolecularIntegrals) -> InconsistentSpace:
    operator = FermionSum([(pairs[term:term + 1], coeffs[term:term + 1])])
    return InconsistentSpace(
        f"term {operator} maps determinant {mask:0{ints.m}b} outside the "
        f"({ints.n_up}, {ints.n_down}) sector")


@dataclass(frozen=True, eq=False)
class _SpinPart:
    """A run's factors on one spin, applied to that spin's strings once per
    distinct sequence of them. ``which[t]`` is term t's sequence; per
    sequence, ``count`` live strings from ``start`` in the flat ``cell``
    (its (row, column) part of a matrix position) and ``odd`` arrays, the
    first live string's rank, and whether its images leave the string
    list, as a sequence that changes the spin's electron count does."""

    which: np.ndarray
    start: np.ndarray
    count: np.ndarray
    cell: np.ndarray
    odd: np.ndarray
    first: np.ndarray
    moves: np.ndarray


def _spin_part(pairs: np.ndarray, on: np.ndarray, strings: np.ndarray,
               row: int, column: int) -> _SpinPart:
    """``_SpinPart`` of the factors of ``pairs`` where ``on`` holds, on
    ``strings`` (sorted masks); a live string's cell is row * (rank of its
    image) + column * (its own rank)."""
    # Each term's sequence packed into one uint64 key, 8 bits a factor (its
    # mode, below 64, and dagger, plus one): an arity of at most 8, which
    # the molecular runs' 0, 2 and 4 keep.
    code = (pairs[..., 0] << np.uint64(1) | pairs[..., 1]) + np.uint64(1)
    place = (np.cumsum(on, axis=1) - on).astype(np.uint64) << np.uint64(3)
    key = np.bitwise_or.reduce(np.where(on, code << place, np.uint64(0)),
                               axis=1)
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    image, odd, alive = _apply(_ladder(pairs[first, None], on[first, None]),
                               strings[None])
    images = _rows(strings, image)
    sequence, rank = np.nonzero(alive)
    count = alive.sum(axis=1)
    return _SpinPart(which, np.cumsum(count) - count, count,
                     row * images[sequence, rank] + column * rank,
                     odd[sequence, rank], alive.argmax(axis=1),
                     (alive & (images < 0)).any(axis=1))


def _counted(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each c of ``counts``, one after another."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts,
                                                               counts)


def _sector_matrix(ints: MolecularIntegrals, masks: list[int]) -> np.ndarray:
    """The Hamiltonian's terms applied to the sector's spin strings.

    Under BLOCKED ordering the determinant in column rank(beta) * n_alpha +
    rank(alpha) is a pair of spin strings (``sector_determinants``). A
    run's factors on one spin act on that spin's strings alone, so each
    distinct sequence of them is applied once, to all of that spin's
    strings (``_spin_part``). A term's entries are the outer product of its
    live alpha and beta strings, and its sign is the two strings' parities
    and a constant of the term: the alpha electrons each beta factor
    passes, n_up plus or minus the alpha factors applied before it.

    Entries are emitted run by run and term by term, in blocks of terms
    whose entries (matrix position and amplitude) take about
    SECTOR_BLOCK_BYTES, one term's more at most. One ``np.add.at`` a block
    adds each cell's amplitudes in (run, term) order from +0.0, as a
    column-by-column loop over the terms does. The matrix takes the
    coefficients' dtype, float64 for real integrals, whose real part holds
    the same bits as a complex build. Of the terms that map a determinant
    outside the sector, those that change a spin's electron count, the
    first in (column, run, term) order is named.
    """
    runs = molecular_term_runs(ints)
    ns, dim = ints.m // 2, len(masks)
    sector = np.array(masks, dtype=np.uint64)
    low = np.uint64((1 << ns) - 1)
    alphas, betas = np.unique(sector & low), np.unique(sector & ~low)
    n_alpha = len(alphas)
    dtype = np.result_type(float, *(coeffs for _, coeffs in runs))
    matrix = np.zeros((dim, dim), dtype=dtype)
    if not dim:
        return matrix
    parts, leaks = [], []
    for run, (pairs, coeffs) in enumerate(runs):
        up = pairs[..., 0] < np.uint64(ns)
        alpha = _spin_part(pairs, up, alphas, dim, 1)
        beta = _spin_part(pairs, ~up, betas, n_alpha * dim, n_alpha)
        a, b = alpha.which, beta.which
        leaking = ((alpha.moves[a] | beta.moves[b]) & (alpha.count[a] > 0)
                   & (beta.count[b] > 0)).nonzero()[0]
        if leaking.size:
            columns = (beta.first[b] * n_alpha + alpha.first[a])[leaking]
            leaks.append((columns.min(), run, leaking[columns.argmin()]))
        # the alpha electrons below each beta factor, odd or even: n_up,
        # and one more or less for each alpha factor to its right
        after = np.cumsum(up[:, ::-1], axis=1)[:, ::-1] - up
        crossing = (~up * (ints.n_up + after)).sum(axis=1) % 2 == 1
        parts.append((alpha, beta, crossing, coeffs))
    if leaks:
        column, run, term = min(leaks)
        raise _outside(*runs[run], term, masks[column], ints)
    flat = matrix.reshape(-1)
    entry_bytes = np.dtype(np.intp).itemsize + matrix.itemsize
    budget = max(1, SECTOR_BLOCK_BYTES // entry_bytes)
    for alpha, beta, crossing, coeffs in parts:
        n_alpha_live = alpha.count[alpha.which]
        n_beta_live = beta.count[beta.which]
        ends = np.cumsum(n_alpha_live * n_beta_live)
        cuts = np.searchsorted(ends, np.arange(budget, ends[-1], budget)) + 1
        for lo, hi in itertools.pairwise([0, *np.unique(cuts).tolist(),
                                          len(ends)]):
            # each term's live beta strings, then each one's alpha strings
            term = np.repeat(np.arange(lo, hi), n_beta_live[lo:hi])
            j = beta.start[beta.which[term]] + _counted(n_beta_live[lo:hi])
            width = n_alpha_live[term]
            i = np.repeat(alpha.start[alpha.which[term]], width) \
                + _counted(width)
            sign = np.repeat(beta.odd[j] ^ crossing[term], width) \
                ^ alpha.odd[i]
            amplitude = np.repeat(coeffs[term], width)
            np.add.at(flat, np.repeat(beta.cell[j], width) + alpha.cell[i],
                      np.where(sign, -amplitude, amplitude))
    return matrix


def fci_sector_ground(ints: MolecularIntegrals
                      ) -> tuple[float, np.ndarray, list[int]]:
    """Exact ground state in the fixed (n_up, n_down) determinant sector:
    (energy, amplitudes, masks). Only the lowest pair is asked of LAPACK,
    in real arithmetic for real integrals (``hermitian_eigh``). TooLarge,
    before the matrix is built, when EIGH_MATRICES complex matrices of its
    size (it, eigh's vectors and workspace), an upper bound for the real
    solve, would exceed BYTE_BUDGET."""
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
    values, vectors = hermitian_eigh(_sector_matrix(ints, masks), k=1)
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
    # a+_(i+s) a_(j+s) for i, j over the spatial orbitals, then s = 0, ns
    i, j, s = np.meshgrid(np.arange(ns), np.arange(ns), (0, ns),
                          indexing="ij")
    pairs = np.empty((2 * ns * ns, 2, 2), dtype=np.uint64)
    pairs[:, 0, 0], pairs[:, 1, 0] = (i + s).ravel(), (j + s).ravel()
    pairs[..., 1] = (1, 0)
    sector = np.array(masks, dtype=np.uint64)
    image, odd, alive = (a.T for a in _apply(_ladder(pairs), sector[:, None]))
    alive &= np.abs(amplitudes) >= 1e-14
    op, k = np.nonzero(alive)
    rows = _rows(sector, image[op, k])
    if rows.min(initial=0) < 0:
        bad = np.argmin(rows)
        raise _outside(pairs, np.ones(len(pairs)), op[bad], masks[k[bad]],
                       ints)
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


def _drop_bit(masks: np.ndarray, position: int) -> np.ndarray:
    lower = masks & np.uint64((1 << position) - 1)
    return lower | masks >> np.uint64(position + 1) << np.uint64(position)


def taper_two_qubits(h: PauliSum, scheme: EncodingScheme,
                     sector: SymmetrySector) -> PauliSum:
    """Replace the two conserved-parity qubits by their sector eigenvalues.

    Qubit M-1 stores total electron parity and qubit M/2-1 the spin-up
    parity under the supported schemes with spin-blocked ordering; both are
    acted on only by I or Z in a symmetry-respecting Hamiltonian, so each Z
    becomes a sign and the registers shrink by two with a descending shift.
    The sum's X and Z mask arrays are tapered and merged again
    (``PauliSum.from_masks``): where tapered strings meet, their coefficients
    are added in term order from zero.
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
    if m > MASK_MODES:
        raise ValueError(f"a uint64 mask holds {MASK_MODES} qubits, not {m}")
    top, mid = m - 1, m // 2 - 1
    flipped = np.flatnonzero(h.x & np.uint64(1 << top | 1 << mid))
    if flipped.size:
        x, z = int(h.x[flipped[0]]), int(h.z[flipped[0]])
        raise NotSymmetric(f"term {PauliString(x, z)} acts on tapered qubit "
                           f"{top if x >> top & 1 else mid} with X or Y")
    coeffs = h.coeffs
    for qubit, sign in ((top, sector.z_total), (mid, sector.z_up)):
        coeffs = np.where((h.z & np.uint64(1 << qubit)) != 0, coeffs * sign,
                          coeffs)
    x, z = (_drop_bit(_drop_bit(masks, top), mid) for masks in (h.x, h.z))
    return PauliSum.from_masks(x, z, coeffs, n_qubits=m - 2)

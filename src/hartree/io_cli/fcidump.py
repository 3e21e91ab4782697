"""FCIDUMP reading and writing.

The format: a namelist header (&FCI NORB=..., NELEC=..., MS2=..., ... &END)
followed by records ``value i j k l`` with 1-based spatial indices in
chemists' notation (ij|kl). Records with k = l = 0 carry the one-body matrix,
the all-zero record carries the core energy. Two-body values are expanded to
all eight permutations (ij|kl) = (ji|kl) = (ij|lk) = ... on read, one-body
values to both (ij) and (ji). Every value must be finite, and a repeated
entry must agree with its first value within 1e-10.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..fermion import BLOCKED, MolecularIntegrals, spatial_of, spin_of
from ..pauli import check_bytes

# Bytes held per two-body entry (tracemalloc): the float64 values and a bool
# of which were read while parsing, the float64 tensor when expanding.
PARSE_ENTRY_BYTES = 9
EXPAND_ENTRY_BYTES = 8


class ParseError(ConfigError):
    pass


class SymmetryViolation(ConfigError):
    pass


@dataclass(frozen=True)
class SpatialIntegrals:
    """Spatial-orbital integrals as stored in an FCIDUMP file."""

    norb: int
    nelec: int
    ms2: int
    core_energy: float
    t: np.ndarray  # one-body, norb x norb
    v: np.ndarray  # two-body chemists' (ij|kl), norb^4


def _entry(index: tuple[int, ...]) -> str:
    """An integral's name in FCIDUMP's 1-based notation, from its 0-based
    index: the core energy, h(i,j) or (ij|kl)."""
    if not index:
        return "the core energy"
    i, j, *kl = (p + 1 for p in index)
    if not kl:
        return f"h({i},{j})"
    return f"({i}{j}|{kl[0]}{kl[1]})"


def parse_fcidump_spatial(text: str) -> SpatialIntegrals:
    header_match = re.search(r"&FCI(.*?)(?:&END|/)", text, re.DOTALL | re.IGNORECASE)
    if not header_match:
        raise ParseError("missing &FCI ... &END header")
    header = header_match.group(1)

    def field(name: str) -> int:
        m = re.search(rf"{name}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if not m:
            raise ParseError(f"header lacks {name}")
        return int(m.group(1))

    norb, nelec, ms2 = field("NORB"), field("NELEC"), field("MS2")
    if norb < 1 or nelec < 0:
        raise ParseError("bad NORB/NELEC")
    n_up, odd = divmod(nelec + ms2, 2)
    if odd or not (0 <= n_up <= norb and 0 <= nelec - n_up <= norb):
        raise ParseError(
            f"NORB={norb}, NELEC={nelec}, MS2={ms2} fit no determinant: "
            f"NELEC + MS2 must be even, |MS2| at most NELEC and each spin "
            f"count (NELEC +- MS2)/2 at most NORB")

    check_bytes(PARSE_ENTRY_BYTES * norb ** 4,
                f"the NORB={norb} two-body tensor")
    core, t, v = np.zeros(()), np.zeros((norb,) * 2), np.zeros((norb,) * 4)
    core_set, t_set, v_set = (np.zeros(a.shape, dtype=bool) for a in (core, t, v))

    body_start = text.index(header_match.group(0)) + len(header_match.group(0))
    preceding_lines = text[:body_start].count("\n")
    for offset, line in enumerate(text[body_start:].splitlines()):
        line_no = preceding_lines + offset + 1
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise ParseError(f"line {line_no}: expected 'value i j k l'")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        if not math.isfinite(value):
            raise ParseError(f"line {line_no}: non-finite value")
        if min(i, j, k, l) < 0 or max(i, j, k, l) > norb:
            raise ParseError(f"line {line_no}: index outside 1..{norb}")
        if i == j == k == l == 0:
            values, seen, indices = core, core_set, [()]
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise ParseError(f"line {line_no}: bad one-body record")
            values, seen, indices = t, t_set, [(i - 1, j - 1), (j - 1, i - 1)]
        else:
            if min(i, j, k, l) == 0:
                raise ParseError(f"line {line_no}: bad two-body record")
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            values, seen = v, v_set
            indices = [(w, x, y, z)
                       for p, q in ((a, b), (b, a)) for r, s in ((c, d), (d, c))
                       for (w, x), (y, z) in (((p, q), (r, s)), ((r, s), (p, q)))]
        for index in indices:
            if seen[index] and abs(values[index] - value) > 1e-10:
                raise SymmetryViolation(
                    f"line {line_no}: conflicting value for {_entry(index)}")
            values[index] = value
            seen[index] = True
    return SpatialIntegrals(norb, nelec, ms2, float(core), t, v)


def to_spin_orbitals(spatial: SpatialIntegrals, ordering: str = BLOCKED) -> MolecularIntegrals:
    """Expand spatial integrals over spin-orbitals.

    The two-body amplitude multiplying a+_p a+_q a_r a_s is
    (P S|Q R) delta(spin_p, spin_s) delta(spin_q, spin_r) with capital letters
    the spatial parts.
    """
    m = 2 * spatial.norb
    check_bytes(EXPAND_ENTRY_BYTES * m ** 4,
                f"the {m}-spin-orbital two-body tensor")
    spin_idx = np.array([spin_of(p, m, ordering) for p in range(m)])
    spatial_idx = np.array([spatial_of(p, m, ordering) for p in range(m)])

    same_spin = spin_idx[:, None] == spin_idx[None, :]
    h_one = spatial.t[np.ix_(spatial_idx, spatial_idx)] * same_spin

    # h_two[p, q, r, s] = (P S | Q R) * delta(sp, ss) * delta(sq, sr)
    v_pqrs = spatial.v.transpose(0, 2, 3, 1)  # (PS|QR) -> index order P,Q,R,S
    h_two = v_pqrs[np.ix_(spatial_idx, spatial_idx, spatial_idx, spatial_idx)]
    h_two *= same_spin[:, None, None, :]
    h_two *= same_spin[None, :, :, None]

    n_up = (spatial.nelec + spatial.ms2) // 2
    return MolecularIntegrals(
        m=m, n_electrons=spatial.nelec, n_up=n_up, core_energy=spatial.core_energy,
        h_one=h_one, h_two=h_two, ordering=ordering)


def parse_fcidump(text: str, ordering: str = BLOCKED) -> MolecularIntegrals:
    """Read an FCIDUMP and expand to spin-blocked spin-orbital integrals."""
    return to_spin_orbitals(parse_fcidump_spatial(text), ordering)


def emit_fcidump(spatial: SpatialIntegrals, tol: float = 1e-12) -> str:
    n = spatial.norb
    lines = [f"&FCI NORB={n:3d},NELEC={spatial.nelec:3d},MS2={spatial.ms2:2d},",
             " ORBSYM=" + ",".join(["1"] * n) + ",",
             " ISYM=1,",
             "&END"]
    for i in range(n):
        for j in range(i + 1):
            ij = i * (i + 1) // 2 + j
            for k in range(i + 1):
                for l in range(k + 1):
                    if k * (k + 1) // 2 + l > ij:
                        continue
                    val = spatial.v[i, j, k, l]
                    if abs(val) > tol:
                        lines.append(f"{val: 23.16E} {i + 1:4d} {j + 1:4d} {k + 1:4d} {l + 1:4d}")
    for i in range(n):
        for j in range(i + 1):
            if abs(spatial.t[i, j]) > tol:
                lines.append(f"{spatial.t[i, j]: 23.16E} {i + 1:4d} {j + 1:4d} {0:4d} {0:4d}")
    lines.append(f"{spatial.core_energy: 23.16E} {0:4d} {0:4d} {0:4d} {0:4d}")
    return "\n".join(lines) + "\n"

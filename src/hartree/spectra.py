"""Excited-state methods: deflation, folded spectrum, subspace expansion.

Deflation adds an overlap penalty against a known ground state so the first
excited state becomes the minimizer. The folded operator (H - alpha I)^2
turns the eigenstate nearest alpha into the new ground state. Subspace
expansion measures the Hamiltonian and overlap matrices over operator images
of a reference state and solves the generalized eigenproblem by canonical
orthogonalization.

Ground-state overlaps are computed as exact inner products on the simulator;
on hardware the same quantity is obtained with a destructive SWAP test.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .encoding import EncodingScheme, encode_operators
from .errors import NumericalError
from .fermion import FermionSum
from .pauli import PauliString, PauliSum, apply_to_statevector
from .simulator import StateVector, default_window

S_CUTOFF = 1e-8
HERMITICITY_TOLERANCE = 1e-9
PSD_TOLERANCE = -1e-10


class AlphaTooSmall(UserWarning):
    """The shift is below the spectral-width heuristic."""


class DegenerateSubspace(NumericalError):
    """Every overlap-matrix eigenvalue fell below the cutoff."""


def _amplitudes(state: StateVector | np.ndarray) -> np.ndarray:
    return state.amplitudes if isinstance(state, StateVector) else np.asarray(state)


def default_alpha(h: PauliSum) -> float:
    """Twice the spectral-range estimate from coefficient-sum bounds."""
    window = default_window(h)
    return 2.0 * window.span


@dataclass(frozen=True)
class DeflatedObjective:
    """Callable <psi|H|psi> + alpha |<ground|psi>|^2."""

    h: PauliSum
    ground: StateVector
    alpha: float

    def __call__(self, state: StateVector | np.ndarray) -> float:
        psi = _amplitudes(state)
        energy = np.vdot(psi, apply_to_statevector(self.h, psi)).real
        overlap = np.vdot(self.ground.amplitudes, psi)
        return energy + self.alpha * abs(overlap) ** 2


def deflated_hamiltonian(h: PauliSum, ground: StateVector,
                         alpha: float) -> DeflatedObjective:
    """Objective whose minimum is the first excited energy for large alpha."""
    width = default_window(h).span
    if alpha < width:
        warnings.warn(
            f"shift {alpha:.3g} is below the spectral-width estimate "
            f"{width:.3g}; the penalized ground state may still win",
            AlphaTooSmall, stacklevel=2)
    return DeflatedObjective(h, ground, alpha)


def folded_hamiltonian(h: PauliSum, alpha: float) -> PauliSum:
    """(H - alpha I)^2, expanded and canonicalized."""
    shifted = h - PauliSum.identity(alpha)
    return shifted * shifted


# ---------------------------------------------------------------- subspace


@dataclass(frozen=True)
class SubspaceProblem:
    """Hamiltonian and overlap matrices over an operator expansion."""

    h_mat: np.ndarray
    s_mat: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        for name, mat in (("h_mat", self.h_mat), ("s_mat", self.s_mat)):
            if mat.shape != (len(self.labels), len(self.labels)):
                raise ValueError(f"{name} shape does not match the labels")
            if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOLERANCE:
                raise ValueError(f"{name} is not Hermitian")
        if np.linalg.eigvalsh(self.s_mat).min() < PSD_TOLERANCE:
            raise ValueError("overlap matrix is not positive semidefinite")


def subspace_problem(state: StateVector, h: PauliSum,
                     operators: Sequence[PauliSum],
                     labels: Sequence[str] | None = None) -> SubspaceProblem:
    """Exact H_ij = <psi|O_i+ H O_j|psi> and S_ij = <psi|O_i+ O_j|psi>."""
    if not operators:
        raise ValueError("expansion must be nonempty")
    if labels is None:
        labels = [f"op{k}" for k in range(len(operators))]
    psi = state.amplitudes
    images = [apply_to_statevector(op, psi) for op in operators]
    h_images = [apply_to_statevector(h, phi) for phi in images]
    dim = len(operators)
    h_mat = np.empty((dim, dim), dtype=complex)
    s_mat = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            h_mat[i, j] = np.vdot(images[i], h_images[j])
            s_mat[i, j] = np.vdot(images[i], images[j])
    h_mat = (h_mat + h_mat.conj().T) / 2.0
    s_mat = (s_mat + s_mat.conj().T) / 2.0
    return SubspaceProblem(h_mat, s_mat, tuple(labels))


def solve_subspace(problem: SubspaceProblem,
                   s_cutoff: float = S_CUTOFF) -> list[float]:
    """HC = SCE by canonical orthogonalization, eigenvalues ascending."""
    s_eigs, s_vecs = np.linalg.eigh(problem.s_mat)
    kept = s_eigs >= s_cutoff
    if not kept.any():
        raise DegenerateSubspace(
            f"all overlap eigenvalues fall below {s_cutoff:g}")
    transform = s_vecs[:, kept] / np.sqrt(s_eigs[kept])
    reduced = transform.conj().T @ problem.h_mat @ transform
    values = np.linalg.eigvalsh((reduced + reduced.conj().T) / 2.0)
    return [float(v) for v in values]


def qse_solve(state: StateVector, h: PauliSum,
              expansion: Sequence[PauliString],
              s_cutoff: float = S_CUTOFF) -> list[float]:
    """Subspace expansion over Pauli strings; requires the identity string."""
    if not expansion:
        raise ValueError("expansion must be nonempty")
    if not any(s.is_identity for s in expansion):
        raise ValueError("expansion must include the identity string")
    operators = [PauliSum({s: 1.0}) for s in expansion]
    labels = [str(s) for s in expansion]
    problem = subspace_problem(state, h, operators, labels)
    return solve_subspace(problem, s_cutoff)


def excitation_expansion(scheme: EncodingScheme
                         ) -> tuple[list[PauliSum], list[str]]:
    """Identity plus all encoded single excitations a+_i a_j."""
    pairs = [(i, j) for i in range(scheme.m) for j in range(scheme.m)
             if i != j]
    operators = encode_operators([FermionSum.single([(i, True), (j, False)])
                                  for i, j in pairs], scheme)
    return ([PauliSum.identity(1.0), *operators],
            ["I", *(f"a+{i} a{j}" for i, j in pairs)])

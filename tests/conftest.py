"""Shared test helpers: independent dense oracles and fixture loading."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from hartree.pauli import PauliString, PauliSum

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "hartree" / "fixtures"


def kron_string_matrix(string: PauliString, n: int) -> np.ndarray:
    """Oracle: build the dense matrix letter-by-letter with np.kron.

    Qubit 0 is the least-significant tensor factor, so it sits rightmost in
    the kron chain.
    """
    out = np.array([[1.0 + 0j]])
    for q in range(n - 1, -1, -1):
        out = np.kron(out, PAULI_MATRICES[string.letter(q)])
    return out


def kron_sum_matrix(s: PauliSum, n: int) -> np.ndarray:
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in s.items():
        out += coeff * kron_string_matrix(string, n)
    return out


LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def jw_mode_matrix(p: int, m: int, dagger: bool) -> np.ndarray:
    """Oracle: a_p (or a+_p) on m modes as Q_p x Z_{p-1} ... Z_0 via np.kron."""
    q = LOWERING.conj().T if dagger else LOWERING
    out = np.array([[1.0 + 0j]])
    for k in range(m - 1, -1, -1):
        if k == p:
            factor = q
        elif k < p:
            factor = PAULI_MATRICES["Z"]
        else:
            factor = PAULI_MATRICES["I"]
        out = np.kron(out, factor)
    return out


def fermion_matrix(fsum, m: int) -> np.ndarray:
    """Oracle: dense matrix of a FermionSum under the kron-built JW map."""
    dim = 1 << m
    out = np.zeros((dim, dim), dtype=complex)
    for term in fsum:
        acc = np.eye(dim, dtype=complex)
        for p, dagger in term.factors:
            acc = acc @ jw_mode_matrix(p, m, dagger)
        out += term.coeff * acc
    return out


def random_pauli_string(rng: np.random.Generator, n: int) -> PauliString:
    letters = rng.choice(list("IXYZ"), size=n)
    text = " ".join(f"{letter}{q}" for q, letter in enumerate(letters) if letter != "I")
    return PauliString.from_text(text or "I")


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)


# ------------------------------------------- per-gate kernels, kept as oracles
#
# The statevector kernels as they ran before circuits were compiled: every
# call re-derives the moved axes, the Pauli index and sign vector, and
# scatters rather than gathers. The compiled kernels must match them bit for
# bit.

_PHASES = np.array([1, 1j, -1, -1j])
_SQRT_HALF = 1.0 / math.sqrt(2.0)
_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]],
                  dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
_AXES = {"rx": _FIXED["x"], "ry": _FIXED["y"], "rz": _FIXED["z"]}
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and identical IEEE bits, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint64), b.view(np.uint64))


def scatter_apply(string: PauliString, psi: np.ndarray) -> np.ndarray:
    cols = np.arange(psi.shape[0], dtype=np.uint64)
    signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
    out = np.empty_like(psi, dtype=complex)
    out[cols ^ np.uint64(string.x)] = \
        (1j ** bin(string.x & string.z).count("1")) * signs * psi
    return out


def scatter_apply_sum(s: PauliSum, psi: np.ndarray) -> np.ndarray:
    dim = psi.shape[0]
    cols = np.arange(dim, dtype=np.uint64)
    out = np.zeros(dim, dtype=complex)
    for string, coeff in s.items():
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
        phase = coeff * 1j ** bin(string.x & string.z).count("1")
        out[cols ^ np.uint64(string.x)] += phase * signs * psi
    return out


def scatter_to_matrix(s: PauliSum, n: int) -> np.ndarray:
    dim = 1 << n
    cols = np.arange(dim, dtype=np.uint64)
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in s.items():
        signs = _PHASES[2 * (np.bitwise_count(cols & np.uint64(string.z)) & 1)]
        phase = coeff * 1j ** bin(string.x & string.z).count("1")
        out[cols ^ np.uint64(string.x), cols] += phase * signs
    return out


def _apply_single(amps, n, q, u):
    axis = n - 1 - q
    moved = np.moveaxis(amps.reshape((2,) * n), axis, 0)
    out = (u @ moved.reshape(2, -1)).reshape(moved.shape)
    return np.moveaxis(out, 0, axis).reshape(-1)


def _apply_pair(amps, n, q_hi, q_lo, u):
    hi, lo = n - 1 - q_hi, n - 1 - q_lo
    moved = np.moveaxis(amps.reshape((2,) * n), (hi, lo), (0, 1))
    out = (u @ moved.reshape(4, -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (hi, lo)).reshape(-1)


def pauli_exp_amps(amps, string: PauliString, phi: float) -> np.ndarray:
    if string.is_identity:
        return np.exp(1j * phi) * amps
    return math.cos(phi) * amps + 1j * math.sin(phi) * scatter_apply(string, amps)


def _rotation(axis, angle):
    half = angle / 2.0
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * axis


def per_gate_apply(amps: np.ndarray, n: int, gate, theta=None) -> np.ndarray:
    """One gate on raw amplitudes by the per-call kernels."""
    if gate.kind in _FIXED:
        return _apply_single(amps, n, gate.targets[0], _FIXED[gate.kind])
    if gate.kind in _AXES:
        u = _rotation(_AXES[gate.kind], gate.resolve_angle(theta))
        return _apply_single(amps, n, gate.targets[0], u)
    if gate.kind in ("cnot", "cz"):
        control, target = gate.targets
        return _apply_pair(amps, n, control, target,
                           _CNOT if gate.kind == "cnot" else _CZ)
    evolved = pauli_exp_amps(amps, gate.string, gate.resolve_angle(theta))
    if gate.kind == "exp":
        return evolved
    mask = (np.arange(1 << n) >> gate.targets[0]) & 1 == 1
    return np.where(mask, evolved, amps)


def per_gate_inverse(gate, theta):
    """The gate undoing ``gate`` at ``theta``, as the gradient sweep built it."""
    from hartree.simulator import Gate

    if gate.kind in ("x", "y", "z", "h", "cnot", "cz"):
        return gate
    if gate.kind == "t":
        return Gate("rz", gate.targets, angle=-math.pi / 4)
    return Gate(gate.kind, gate.targets, angle=-gate.resolve_angle(theta),
                string=gate.string)

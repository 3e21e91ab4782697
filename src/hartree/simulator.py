"""Statevector circuit simulation with stochastic Pauli noise.

Amplitudes are indexed with qubit 0 as the least-significant bit, matching the
Pauli-mask convention. Circuits are lists of small gate records whose rotation
angles resolve against an external parameter vector, so the same circuit can be
re-run at many parameter points. Noise is per-gate stochastic Pauli insertion;
averaging trajectories reproduces the uniform depolarizing channel, for which a
dense density-matrix oracle is provided at small width. Phase estimation is
simulated with an explicit ancilla register and an inverse Fourier transform.

Rotation gates follow the convention R_O(theta) = exp(-i theta O / 2). Pauli
exponential gates apply exp(i phi P) with the caller supplying the sign of phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np
import scipy.linalg

from .pauli import (
    DENSE_QUBIT_LIMIT,
    NonHermitian,
    PauliString,
    PauliSum,
    expectation,
    to_matrix,
)

STATEVECTOR_QUBIT_LIMIT = 24
DENSITY_QUBIT_LIMIT = 4
NORM_TOLERANCE = 1e-10
OVERLAP_FLOOR = 1e-14

SQRT_HALF = 1.0 / math.sqrt(2.0)

FIXED_SINGLE = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
}
ROTATION_AXES = {"rx": FIXED_SINGLE["x"], "ry": FIXED_SINGLE["y"], "rz": FIXED_SINGLE["z"]}

# Basis order |control target> = 00, 01, 10, 11.
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(complex)


class BadTarget(ValueError):
    """Gate addresses a qubit outside the register or repeats a target."""


class TooManyQubits(ValueError):
    """Requested register exceeds a simulation ceiling."""


class ZeroOverlap(ValueError):
    """Imaginary-time propagation annihilated the state."""


def make_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(seed)


def split_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Independent child streams; trajectories drawn from them are parallel-safe."""
    return rng.spawn(count)


# ----------------------------------------------------------------- statevector


@dataclass
class StateVector:
    """Dense complex amplitudes over 2^n computational basis states."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self):
        if self.n > STATEVECTOR_QUBIT_LIMIT:
            raise TooManyQubits(
                f"{self.n} qubits exceeds the statevector limit of "
                f"{STATEVECTOR_QUBIT_LIMIT}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError(
                f"expected {1 << self.n} amplitudes, got {self.amplitudes.shape}")

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        return cls.basis(n, 0)

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        if not 0 <= index < (1 << n):
            raise ValueError(f"basis index {index} out of range for {n} qubits")
        amps = np.zeros(1 << n, dtype=complex)
        amps[index] = 1.0
        return cls(amps, n)

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes.copy(), self.n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def renormalized(self) -> "StateVector":
        norm = self.norm()
        if norm < OVERLAP_FLOOR:
            raise ZeroOverlap("state norm collapsed below the floor")
        return StateVector(self.amplitudes / norm, self.n)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def expectation(self, h: PauliSum) -> float:
        return expectation(h, self.amplitudes)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


# ----------------------------------------------------------------------- gates


@dataclass(frozen=True)
class Gate:
    """One circuit element.

    ``slot`` indexes the external parameter vector; ``angle`` is a fixed value
    used when ``slot`` is None. The effective rotation angle is scale * value.
    ``string`` holds the Pauli operator of exponential gates; for ``cexp`` the
    first target is the control and must lie outside the string's support.
    """

    kind: str
    targets: tuple[int, ...]
    slot: int | None = None
    angle: float | None = None
    scale: float = 1.0
    string: PauliString | None = None

    def resolve_angle(self, theta: Sequence[float] | None) -> float:
        if self.slot is not None:
            if theta is None or self.slot >= len(theta):
                raise ValueError(f"gate needs parameter slot {self.slot}")
            return self.scale * float(theta[self.slot])
        if self.angle is None:
            raise ValueError(f"{self.kind} gate has neither slot nor angle")
        return self.scale * self.angle

    def support(self) -> tuple[int, ...]:
        touched = set(self.targets)
        if self.string is not None:
            touched.update(self.string.indices())
        return tuple(sorted(touched))


@dataclass
class Circuit:
    """Ordered gate list over a fixed-width register."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        if len(set(gate.targets)) != len(gate.targets):
            raise BadTarget(f"repeated target in {gate.targets}")
        for q in gate.support():
            if not 0 <= q < self.n_qubits:
                raise BadTarget(f"target {q} outside register of {self.n_qubits}")
        if gate.kind == "cexp" and gate.string is not None:
            if gate.targets[0] in gate.string.indices():
                raise BadTarget("control qubit overlaps the exponential's support")
        self.gates.append(gate)
        return self

    def x(self, q: int) -> "Circuit":
        return self.add(Gate("x", (q,)))

    def y(self, q: int) -> "Circuit":
        return self.add(Gate("y", (q,)))

    def z(self, q: int) -> "Circuit":
        return self.add(Gate("z", (q,)))

    def h(self, q: int) -> "Circuit":
        return self.add(Gate("h", (q,)))

    def t(self, q: int) -> "Circuit":
        return self.add(Gate("t", (q,)))

    def rx(self, q: int, slot: int | None = None, angle: float | None = None,
           scale: float = 1.0) -> "Circuit":
        return self.add(Gate("rx", (q,), slot, angle, scale))

    def ry(self, q: int, slot: int | None = None, angle: float | None = None,
           scale: float = 1.0) -> "Circuit":
        return self.add(Gate("ry", (q,), slot, angle, scale))

    def rz(self, q: int, slot: int | None = None, angle: float | None = None,
           scale: float = 1.0) -> "Circuit":
        return self.add(Gate("rz", (q,), slot, angle, scale))

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.add(Gate("cnot", (control, target)))

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add(Gate("cz", (control, target)))

    def exp(self, string: PauliString, slot: int | None = None,
            angle: float | None = None, scale: float = 1.0) -> "Circuit":
        return self.add(Gate("exp", (), slot, angle, scale, string))

    def cexp(self, control: int, string: PauliString, slot: int | None = None,
             angle: float | None = None, scale: float = 1.0) -> "Circuit":
        return self.add(Gate("cexp", (control,), slot, angle, scale, string))

    @property
    def n_params(self) -> int:
        slots = {g.slot for g in self.gates if g.slot is not None}
        if not slots:
            return 0
        if slots != set(range(max(slots) + 1)):
            raise ValueError(f"parameter slots not dense: {sorted(slots)}")
        return max(slots) + 1


# ------------------------------------------------------------ raw kernel moves


def _apply_single(amps: np.ndarray, n: int, q: int, u: np.ndarray) -> np.ndarray:
    axis = n - 1 - q
    moved = np.moveaxis(amps.reshape((2,) * n), axis, 0)
    out = (u @ moved.reshape(2, -1)).reshape(moved.shape)
    return np.moveaxis(out, 0, axis).reshape(-1)


def _apply_pair(amps: np.ndarray, n: int, q_hi: int, q_lo: int,
                u: np.ndarray) -> np.ndarray:
    """4x4 unitary on (q_hi, q_lo) in the basis |b_hi b_lo> = 00,01,10,11."""
    hi, lo = n - 1 - q_hi, n - 1 - q_lo
    moved = np.moveaxis(amps.reshape((2,) * n), (hi, lo), (0, 1))
    out = (u @ moved.reshape(4, -1)).reshape(moved.shape)
    return np.moveaxis(out, (0, 1), (hi, lo)).reshape(-1)


def _pauli_exp_amps(amps: np.ndarray, string: PauliString, phi: float) -> np.ndarray:
    if string.is_identity:
        return np.exp(1j * phi) * amps
    return math.cos(phi) * amps + 1j * math.sin(phi) * string.apply(amps)


def _control_mask(n: int, control: int) -> np.ndarray:
    return (np.arange(1 << n) >> control) & 1 == 1


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    half = angle / 2.0
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * axis


def apply_gate(psi: StateVector, gate: Gate,
               theta: Sequence[float] | None = None) -> StateVector:
    """Return the state after one gate; ``psi`` is not modified."""
    for q in gate.support():
        if not 0 <= q < psi.n:
            raise BadTarget(f"target {q} outside register of {psi.n}")
    amps, n = psi.amplitudes, psi.n
    if gate.kind in FIXED_SINGLE:
        out = _apply_single(amps, n, gate.targets[0], FIXED_SINGLE[gate.kind])
    elif gate.kind in ROTATION_AXES:
        u = _rotation(ROTATION_AXES[gate.kind], gate.resolve_angle(theta))
        out = _apply_single(amps, n, gate.targets[0], u)
    elif gate.kind == "cnot":
        control, target = gate.targets
        if control == target:
            raise BadTarget("control equals target")
        out = _apply_pair(amps, n, control, target, CNOT_MATRIX)
    elif gate.kind == "cz":
        control, target = gate.targets
        if control == target:
            raise BadTarget("control equals target")
        out = _apply_pair(amps, n, control, target, CZ_MATRIX)
    elif gate.kind == "exp":
        out = _pauli_exp_amps(amps, gate.string, gate.resolve_angle(theta))
    elif gate.kind == "cexp":
        control = gate.targets[0]
        if control in gate.string.indices():
            raise BadTarget("control qubit overlaps the exponential's support")
        evolved = _pauli_exp_amps(amps, gate.string, gate.resolve_angle(theta))
        out = np.where(_control_mask(n, control), evolved, amps)
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return StateVector(out, n)


def apply_pauli_exponential(psi: StateVector, string: PauliString,
                            phi: float) -> StateVector:
    """exp(i phi P)|psi>, exact: cos(phi) I + i sin(phi) P."""
    if string.n_qubits > psi.n:
        raise BadTarget(f"{string} exceeds register of {psi.n}")
    return StateVector(_pauli_exp_amps(psi.amplitudes, string, phi), psi.n)


def run_circuit(circuit: Circuit, theta: Sequence[float] | None = None,
                psi0: StateVector | None = None) -> StateVector:
    """Noiseless execution starting from |0...0> or a supplied state."""
    psi = StateVector.zero(circuit.n_qubits) if psi0 is None else psi0.copy()
    for gate in circuit.gates:
        psi = apply_gate(psi, gate, theta)
    return psi


def gate_unitary(gate: Gate, n: int,
                 theta: Sequence[float] | None = None) -> np.ndarray:
    """Dense 2^n x 2^n realisation, column by column. Oracle-scale widths only."""
    if n > DENSE_QUBIT_LIMIT:
        raise TooManyQubits(f"{n} qubits exceeds the dense limit")
    dim = 1 << n
    out = np.empty((dim, dim), dtype=complex)
    for j in range(dim):
        out[:, j] = apply_gate(StateVector.basis(n, j), gate, theta).amplitudes
    return out


# ------------------------------------------------------------- time evolution


def trotter_evolve(psi: StateVector, h: PauliSum, t: float,
                   steps: int) -> StateVector:
    """First-order product formula for exp(-iHt) in canonical term order."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not h.is_hermitian():
        raise NonHermitian("evolution generator must be Hermitian")
    if h.n_qubits > psi.n:
        raise BadTarget(f"generator acts on {h.n_qubits} qubits, state has {psi.n}")
    dt = t / steps
    amps = psi.amplitudes
    terms = list(h.items())
    for _ in range(steps):
        for string, coeff in terms:
            amps = _pauli_exp_amps(amps, string, -coeff.real * dt)
    return StateVector(amps, psi.n)


def adiabatic_prepare(h0: PauliSum, hs: PauliSum, total_time: float,
                      steps: int, psi0: StateVector) -> StateVector:
    """Piecewise-constant sweep along H(s) = (1-s) H0 + s Hs."""
    if total_time == 0 or steps == 0:
        return psi0.copy()
    dt = total_time / steps
    psi = psi0
    for k in range(steps):
        s = (k + 0.5) / steps
        psi = trotter_evolve(psi, (1.0 - s) * h0 + s * hs, dt, 1)
    return psi


def imaginary_time_evolve(psi: StateVector, h: PauliSum, tau: float,
                          steps: int) -> StateVector:
    """Normalized exp(-H tau)|psi> via a dense step propagator."""
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not h.is_hermitian():
        raise NonHermitian("imaginary-time generator must be Hermitian")
    if psi.n > DENSE_QUBIT_LIMIT:
        raise TooManyQubits(f"{psi.n} qubits exceeds the dense limit")
    propagator = scipy.linalg.expm(-to_matrix(h, psi.n) * (tau / steps))
    amps = psi.amplitudes
    for _ in range(steps):
        amps = propagator @ amps
        norm = np.linalg.norm(amps)
        if norm < OVERLAP_FLOOR:
            raise ZeroOverlap("propagated state has no weight left")
        amps = amps / norm
    return StateVector(amps, psi.n)


# -------------------------------------------------------------------- sampling


@dataclass(frozen=True)
class ShotEstimate:
    """Sample mean of a Hamiltonian average with its standard error."""

    mean: float
    std_error: float
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.std_error < 0:
            raise ValueError("standard error cannot be negative")


def sample_expectation(psi: StateVector, h: PauliSum, shots_per_term: int,
                       rng: np.random.Generator) -> ShotEstimate:
    """Per-term projective measurement statistics combined linearly.

    Each non-identity term is measured in its own rotated basis; a bitstring
    sample maps to an eigenvalue +-1 with P(+1) = (1 + <P>)/2, so the counts
    are drawn from the exactly equivalent binomial law.
    """
    if shots_per_term < 1:
        raise ValueError("shots_per_term must be at least 1")
    if not h.is_hermitian():
        raise NonHermitian("sampling requires a Hermitian sum")
    amps = psi.amplitudes
    mean = 0.0
    variance = 0.0
    for string, coeff in h.items():
        weight = coeff.real
        if string.is_identity:
            mean += weight
            continue
        exact = np.vdot(amps, string.apply(amps)).real
        p_plus = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
        ups = int(rng.binomial(shots_per_term, p_plus))
        term_mean = 2.0 * ups / shots_per_term - 1.0
        mean += weight * term_mean
        if shots_per_term > 1:
            sample_var = ((1.0 - term_mean ** 2)
                          * shots_per_term / (shots_per_term - 1))
            variance += weight ** 2 * sample_var / shots_per_term
    return ShotEstimate(mean, math.sqrt(variance), shots_per_term)


# ----------------------------------------------------------------------- noise


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate depolarizing strengths keyed by gate arity."""

    p1: float = 0.0
    p2: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError("error probabilities must lie in [0, 1]")

    def rate_for(self, arity: int) -> float:
        return self.p1 if arity == 1 else self.p2


def _error_string(support: tuple[int, ...], code: int) -> PauliString:
    """Pauli number ``code`` of the 4^k on ``support``, two bits a qubit."""
    x = z = 0
    for q in support:
        digit = code & 3
        code >>= 2
        if digit in (1, 3):
            x |= 1 << q
        if digit in (2, 3):
            z |= 1 << q
    return PauliString(x, z)


def trajectory_states(circuit: Circuit, theta: Sequence[float] | None,
                      kicks: Sequence[Sequence[tuple[int, PauliString]]],
                      psi0: StateVector | None = None
                      ) -> Iterator[tuple[list[int], StateVector]]:
    """Final state of every trajectory, given its kicks in circuit order.

    A kick (g, P) applies the Pauli P right after gate g. One noiseless
    sweep runs the circuit; a trajectory branches off it at the gate of its
    first kick and runs the rest of the circuit on its own, and all
    error-free trajectories share the sweep's final state. Yields
    (trajectory indices, state) once per distinct final state.
    """
    branching: dict[int | None, list[int]] = {}
    for k, events in enumerate(kicks):
        branching.setdefault(events[0][0] if events else None, []).append(k)
    gates = circuit.gates
    psi = StateVector.zero(circuit.n_qubits) if psi0 is None else psi0
    for first, gate in enumerate(gates):
        psi = apply_gate(psi, gate, theta)
        for k in branching.get(first, ()):
            branch, at = psi, first
            for index, error in kicks[k]:
                for later in gates[at + 1:index + 1]:
                    branch = apply_gate(branch, later, theta)
                at = index
                branch = StateVector(error.apply(branch.amplitudes), psi.n)
            for later in gates[at + 1:]:
                branch = apply_gate(branch, later, theta)
            yield [k], branch
    if None in branching:
        yield branching[None], psi


def noisy_states(circuit: Circuit, theta: Sequence[float] | None,
                 noise: NoiseModel, streams: Sequence[np.random.Generator],
                 psi0: StateVector | None = None
                 ) -> Iterator[tuple[list[int], StateVector]]:
    """Depolarized trajectories, one per stream, with normalized final states.

    Per noisy gate a stream draws a uniform number and, on a hit, one of the
    4^k - 1 non-identity Paulis on the gate's k support qubits.
    """
    noisy = [(index, support, rate) for index, gate in enumerate(circuit.gates)
             if (rate := noise.rate_for(len(support := gate.support()))) > 0]
    kicks = [[(index, _error_string(support,
                                    int(rng.integers(1, 4 ** len(support)))))
              for index, support, rate in noisy if rng.random() < rate]
             for rng in streams]
    for members, psi in trajectory_states(circuit, theta, kicks, psi0):
        yield members, psi.renormalized()


def run_noisy_trajectory(circuit: Circuit, theta: Sequence[float] | None,
                         noise: NoiseModel, rng: np.random.Generator,
                         psi0: StateVector | None = None) -> StateVector:
    """One stochastic-unravelling sample of the depolarized circuit."""
    ((_, psi),) = noisy_states(circuit, theta, noise, [rng], psi0)
    return psi


def density_matrix_reference(circuit: Circuit,
                             theta: Sequence[float] | None,
                             noise: NoiseModel,
                             psi0: StateVector | None = None) -> np.ndarray:
    """Exact depolarizing-channel evolution; the trajectory average's oracle."""
    n = circuit.n_qubits
    if n > DENSITY_QUBIT_LIMIT:
        raise TooManyQubits(
            f"{n} qubits exceeds the density-matrix limit of {DENSITY_QUBIT_LIMIT}")
    start = StateVector.zero(n) if psi0 is None else psi0
    rho = np.outer(start.amplitudes, start.amplitudes.conj())
    for gate in circuit.gates:
        u = gate_unitary(gate, n, theta)
        rho = u @ rho @ u.conj().T
        support = gate.support()
        rate = noise.rate_for(len(support))
        if rate > 0.0:
            kicked = np.zeros_like(rho)
            count = 4 ** len(support) - 1
            for code in range(1, count + 1):
                string = PauliSum({_error_string(support, code): 1.0})
                p_mat = to_matrix(string, n)
                kicked += p_mat @ rho @ p_mat.conj().T
            rho = (1.0 - rate) * rho + (rate / count) * kicked
    return rho


def expectation_from_density(rho: np.ndarray, h: PauliSum) -> float:
    n = int(round(math.log2(rho.shape[0])))
    value = np.trace(to_matrix(h, n) @ rho)
    return float(value.real)


# ------------------------------------------------------------ phase estimation


@dataclass(frozen=True)
class EnergyWindow:
    """Affine map [lower, upper) -> [0, 1) applied before phase readout."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.upper > self.lower:
            raise ValueError("window must have positive width")

    @property
    def span(self) -> float:
        return self.upper - self.lower

    def to_phase(self, energy: float) -> float:
        return (energy - self.lower) / self.span

    def to_energy(self, phase: float) -> float:
        return self.lower + self.span * phase


def default_window(h: PauliSum) -> EnergyWindow:
    """Gershgorin-style bound: identity coefficient plus the 1-norm of the rest."""
    center = h.coeff(PauliString()).real
    radius = sum(abs(c) for s, c in h.items() if not s.is_identity)
    if radius == 0.0:
        return EnergyWindow(center - 0.5, center + 0.5)
    return EnergyWindow(center - radius, center + radius + 1e-9 * radius)


def qpe_distribution(psi: StateVector, h: PauliSum, n_ancilla: int,
                     trotter_steps: int = 0,
                     window: EnergyWindow | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla readout distribution: (energy estimate per bin, probability).

    ``trotter_steps`` = 0 selects the exact dense controlled evolution;
    positive values Trotterize each controlled power with that many steps.
    """
    if not h.is_hermitian():
        raise NonHermitian("phase estimation requires a Hermitian sum")
    if n_ancilla < 1:
        raise ValueError("need at least one ancilla")
    n_sys = psi.n
    if n_sys + n_ancilla > STATEVECTOR_QUBIT_LIMIT:
        raise TooManyQubits("joint register exceeds the statevector limit")
    if window is None:
        window = default_window(h)
    scaled = (h - PauliSum.identity(window.lower, n_qubits=n_sys)) * (1.0 / window.span)

    dim_a, dim_s = 1 << n_ancilla, 1 << n_sys
    # Rows index the ancilla register; Hadamards put it in the uniform state.
    joint = np.tile(psi.amplitudes / math.sqrt(dim_a), (dim_a, 1))
    row_bits = np.arange(dim_a)

    if trotter_steps == 0:
        if n_sys > DENSE_QUBIT_LIMIT:
            raise TooManyQubits("exact controlled evolution needs a dense matrix")
        phases, vectors = np.linalg.eigh(to_matrix(scaled, n_sys))
        for k in range(n_ancilla):
            turn = np.exp(-2j * math.pi * phases * (1 << k))
            power = (vectors * turn) @ vectors.conj().T
            selected = (row_bits >> k) & 1 == 1
            joint[selected] = joint[selected] @ power.T
    else:
        terms = list(scaled.items())
        for k in range(n_ancilla):
            selected = (row_bits >> k) & 1 == 1
            angle_scale = -2.0 * math.pi * (1 << k) / trotter_steps
            # Low-bit Pauli masks act identically on every ancilla row, so the
            # selected block evolves as one flat array.
            flat = joint[selected].reshape(-1)
            for _ in range(trotter_steps):
                for string, coeff in terms:
                    flat = _pauli_exp_amps(flat, string, angle_scale * coeff.real)
            joint[selected] = flat.reshape(-1, dim_s)

    x = np.arange(dim_a)
    fourier = np.exp(-2j * math.pi * np.outer(x, x) / dim_a) / math.sqrt(dim_a)
    transformed = fourier @ joint
    probabilities = np.sum(np.abs(transformed) ** 2, axis=1)
    probabilities = probabilities / probabilities.sum()
    read_phases = ((dim_a - x) % dim_a) / dim_a
    energies = window.to_energy(read_phases)
    return energies, probabilities


def qpe_sample(psi: StateVector, h: PauliSum, n_ancilla: int,
               trotter_steps: int, rng: np.random.Generator,
               window: EnergyWindow | None = None) -> float:
    """One ancilla measurement converted back to an energy estimate."""
    energies, probabilities = qpe_distribution(
        psi, h, n_ancilla, trotter_steps, window)
    index = int(rng.choice(len(probabilities), p=probabilities))
    return float(energies[index])

"""Variational eigensolver: ansatz builders, gradients, optimizers.

Four ansatz families are provided. The coupled-cluster builder exponentiates
encoded anti-Hermitian excitation generators with one parameter per generator
and a single product step by default. The hardware-efficient builder layers
Ry/Rz rotations with entangler ladders. The Hamiltonian-variational builder
evolves under the diagonal / hopping / exchange groups of the molecular
Hamiltonian in a symmetrized order. The low-depth-circuit builder applies an
initial Rz layer and cycles of five two-qubit Pauli rotations over alternating
neighbor pairs.

Gradients are computed analytically on the statevector with a reverse sweep
that evaluates two modified-circuit inner products per parametrized gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .encoding import EncodingScheme, encode_operator, encode_state
from .fermion import FermionSum, OccupationVector, normal_order
from .mitigation import noisy_expectation
from .pauli import PauliString, PauliSum, apply_to_statevector, canonicalize
from .simulator import (
    Circuit,
    Gate,
    NoiseModel,
    ShotEstimate,
    StateVector,
    apply_gate,
    make_rng,
    run_circuit,
    sample_expectation,
    split_rng,
)

COEFF_TOLERANCE = 1e-10
DEFAULT_TRAJECTORIES = 512
INITIAL_SPREAD = 0.01
CONVERGENCE_STREAK = 10

UCCSD = "uccsd"
HARDWARE_EFFICIENT = "hardware-efficient"
HAMILTONIAN_VARIATIONAL = "hamiltonian-variational"
LDCA = "ldca"

NELDER_MEAD = "nelder-mead"
SPSA = "spsa"
GRADIENT_DESCENT = "gradient-descent"
METHODS = (NELDER_MEAD, SPSA, GRADIENT_DESCENT)


class NotAntiHermitian(ValueError):
    """A cluster generator failed the G + G* = 0 check."""


class PartitionIncomplete(ValueError):
    """Supplied Hamiltonian groups do not add up to the full operator."""


class UnsupportedGate(ValueError):
    """A parametrized gate outside the differentiable set."""


# ---------------------------------------------------------------------- ansatz


@dataclass
class Ansatz:
    """A parametrized circuit over a fixed, parameter-free reference prep."""

    circuit: Circuit
    reference_prep: list[Gate]
    family: str

    def __post_init__(self):
        for gate in self.reference_prep:
            if gate.slot is not None:
                raise ValueError("reference preparation must be parameter-free")

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits

    @property
    def n_params(self) -> int:
        return self.circuit.n_params

    def combined(self) -> Circuit:
        return Circuit(self.n_qubits, list(self.reference_prep) + self.circuit.gates)

    def state(self, theta: Sequence[float]) -> StateVector:
        if len(theta) != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {len(theta)}")
        return run_circuit(self.combined(), theta)


def preparation_gates(occupation: OccupationVector,
                      scheme: EncodingScheme) -> list[Gate]:
    """X gates writing the encoded occupation bitstring onto |0...0>."""
    encoded = encode_state(occupation, scheme)
    return [Gate("x", (q,)) for q in encoded.occupied()]


def _imaginary_parts(image: PauliSum) -> list[tuple[PauliString, float]]:
    pairs = []
    for string, coeff in image.items():
        if abs(coeff.real) > COEFF_TOLERANCE:
            raise NotAntiHermitian(
                f"term {string} has a real coefficient {coeff.real:.3e}")
        if abs(coeff.imag) > COEFF_TOLERANCE:
            pairs.append((string, coeff.imag))
    return pairs


def build_uccsd(generators: Iterable[FermionSum | object],
                scheme: EncodingScheme,
                reference: OccupationVector,
                trotter_steps: int = 1) -> Ansatz:
    """exp(theta_k G_k) per generator, product-expanded in canonical term order."""
    if trotter_steps < 1:
        raise ValueError("trotter_steps must be at least 1")
    resolved: list[FermionSum] = [getattr(g, "generator", g) for g in generators]
    for sum_ in resolved:
        remainder = normal_order(sum_ + sum_.adjoint())
        if any(abs(term.coeff) > COEFF_TOLERANCE for term in remainder):
            raise NotAntiHermitian("generator plus its adjoint is not zero")
    images = [_imaginary_parts(encode_operator(g, scheme)) for g in resolved]
    circuit = Circuit(scheme.m)
    for _ in range(trotter_steps):
        for slot, pairs in enumerate(images):
            for string, weight in pairs:
                circuit.exp(string, slot=slot, scale=weight / trotter_steps)
    return Ansatz(circuit, preparation_gates(reference, scheme), UCCSD)


def build_hardware_efficient(n: int, layers: int,
                             entangler: str = "cnot") -> Ansatz:
    """Alternating Ry/Rz layers and entangler ladders; 2n(layers+1) parameters."""
    if layers < 1:
        raise ValueError("need at least one layer")
    if entangler not in ("cnot", "cz"):
        raise ValueError(f"unknown entangler {entangler!r}")
    circuit = Circuit(n)
    slot = 0

    def rotation_layer():
        nonlocal slot
        for q in range(n):
            circuit.ry(q, slot=slot)
            circuit.rz(q, slot=slot + 1)
            slot += 2

    rotation_layer()
    for _ in range(layers):
        for q in range(n - 1):
            if entangler == "cnot":
                circuit.cnot(q, q + 1)
            else:
                circuit.cz(q, q + 1)
        rotation_layer()
    return Ansatz(circuit, [], HARDWARE_EFFICIENT)


def partition_hamiltonian(s: FermionSum
                          ) -> tuple[FermionSum, FermionSum, FermionSum]:
    """Split normal-ordered terms into diagonal, hopping and exchange groups.

    A term is diagonal when its creation and annihilation index sets agree
    (pure number-operator products), a hopping term when they share all but
    one index (a single net excitation, possibly density-assisted), and an
    exchange term otherwise.
    """
    diagonal, hopping, exchange = [], [], []
    for term in normal_order(s):
        created = {mode for mode, dagger in term.factors if dagger}
        destroyed = {mode for mode, dagger in term.factors if not dagger}
        if created == destroyed:
            diagonal.append(term)
        elif len(created & destroyed) == len(created) - 1:
            hopping.append(term)
        else:
            exchange.append(term)
    return FermionSum(diagonal), FermionSum(hopping), FermionSum(exchange)


@dataclass(frozen=True)
class HamiltonianParts:
    """Encoded diagonal / hopping / exchange groups of a fermionic operator."""

    diagonal: PauliSum
    hopping: PauliSum
    exchange: PauliSum

    @classmethod
    def from_fermion(cls, s: FermionSum,
                     scheme: EncodingScheme) -> "HamiltonianParts":
        diagonal, hopping, exchange = partition_hamiltonian(s)
        return cls(encode_operator(diagonal, scheme),
                   encode_operator(hopping, scheme),
                   encode_operator(exchange, scheme))

    def total(self) -> PauliSum:
        return self.diagonal + self.hopping + self.exchange


def build_hamiltonian_variational(parts: HamiltonianParts, steps: int,
                                  reference_prep: list[Gate],
                                  full: PauliSum | None = None) -> Ansatz:
    """Per step: U_ex(t/2) U_h(t/2) U_d(t) U_h(t/2) U_ex(t/2); 3 parameters/step.

    Each U_i is a first-order product for exp(i t H_i) in canonical term
    order. Passing the full Hamiltonian enables a completeness check of the
    three groups.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if full is not None:
        residue = canonicalize(parts.total() - full)
        if any(abs(c) > COEFF_TOLERANCE for _, c in residue.items()):
            raise PartitionIncomplete("groups do not sum to the full Hamiltonian")
    n = parts.total().n_qubits
    for gate in reference_prep:
        n = max(n, max(gate.support(), default=0) + 1)
    circuit = Circuit(n)

    def terms_of(group: PauliSum) -> list[tuple[PauliString, float]]:
        kept = [(string, coeff.real) for string, coeff in group.items()
                if abs(coeff) > COEFF_TOLERANCE]
        # a vanishing group still owns its parameter slot
        return kept or [(PauliString(0, 0), 0.0)]

    diagonal = terms_of(parts.diagonal)
    hopping = terms_of(parts.hopping)
    exchange = terms_of(parts.exchange)

    def evolve(group: list[tuple[PauliString, float]], slot: int, factor: float):
        for string, weight in group:
            circuit.exp(string, slot=slot, scale=factor * weight)

    for step in range(steps):
        slot_d, slot_h, slot_ex = 3 * step, 3 * step + 1, 3 * step + 2
        evolve(exchange, slot_ex, 0.5)
        evolve(hopping, slot_h, 0.5)
        evolve(diagonal, slot_d, 1.0)
        evolve(hopping, slot_h, 0.5)
        evolve(exchange, slot_ex, 0.5)
    return Ansatz(circuit, list(reference_prep), HAMILTONIAN_VARIATIONAL)


def build_ldca(n: int, cycles: int) -> Ansatz:
    """Initial Rz layer, then K = R(-YX) R(XY) R(ZZ) R(-YY) R(XX) over pairs.

    K blocks cover even neighbor pairs then odd neighbor pairs each cycle,
    every rotation carrying its own parameter. The first named factor acts
    last, so the circuit order is XX, -YY, ZZ, XY, -YX, with R(+-AB) =
    exp(+-i theta A_alpha B_beta) on the pair (alpha, beta).
    """
    if n < 2:
        raise ValueError("need at least two qubits")
    if cycles < 1:
        raise ValueError("need at least one cycle")
    circuit = Circuit(n)
    slot = 0
    for q in range(n):
        circuit.rz(q, slot=slot)
        slot += 1
    pair_pattern = [("X", "X", 1.0), ("Y", "Y", -1.0), ("Z", "Z", 1.0),
                    ("X", "Y", 1.0), ("Y", "X", -1.0)]
    even_pairs = [(q, q + 1) for q in range(0, n - 1, 2)]
    odd_pairs = [(q, q + 1) for q in range(1, n - 1, 2)]
    for _ in range(cycles):
        for alpha, beta in even_pairs + odd_pairs:
            for first, second, sign in pair_pattern:
                string = PauliString.from_text(f"{first}{alpha} {second}{beta}")
                circuit.exp(string, slot=slot, scale=sign)
                slot += 1
    return Ansatz(circuit, [], LDCA)


def initial_parameters(ansatz: Ansatz, seed: int | None = None) -> np.ndarray:
    """Zeros for reference-anchored families, a small seeded spread otherwise."""
    if ansatz.family in (UCCSD, HAMILTONIAN_VARIATIONAL):
        return np.zeros(ansatz.n_params)
    rng = make_rng(seed)
    return rng.uniform(-INITIAL_SPREAD, INITIAL_SPREAD, size=ansatz.n_params)


# -------------------------------------------------------------- energy/grad


def estimate_energy(ansatz: Ansatz, theta: Sequence[float], h: PauliSum,
                    shots: int | None = None,
                    noise: NoiseModel | None = None,
                    rng: np.random.Generator | None = None,
                    trajectories: int = DEFAULT_TRAJECTORIES) -> ShotEstimate:
    """Ansatz energy: exact expectation, shot sampling, or noisy trajectories.

    With a noise model the estimate averages per-trajectory expectations
    (exact or sampled per trajectory) and reports the empirical standard
    error of that average.
    """
    if shots is not None and rng is None:
        raise ValueError("shot sampling needs a random generator")
    if noise is None:
        psi = ansatz.state(theta)
        if shots is None:
            return ShotEstimate(psi.expectation(h), 0.0, 1)
        return sample_expectation(psi, h, shots, rng)
    if rng is None:
        rng = make_rng(noise.seed)
    return noisy_expectation(ansatz.combined(), theta, h, noise, rng,
                             trajectories, shots)


_ROTATION_LETTERS = {"rx": "X", "ry": "Y", "rz": "Z"}


def _gate_generator(gate: Gate) -> tuple[float, PauliString]:
    """(weight, P) with dU/dtheta = i * weight * P * U for a parametrized gate."""
    if gate.kind == "exp":
        return gate.scale, gate.string
    if gate.kind in _ROTATION_LETTERS:
        letter = _ROTATION_LETTERS[gate.kind]
        return -gate.scale / 2.0, PauliString.single(letter, gate.targets[0])
    raise UnsupportedGate(f"cannot differentiate a parametrized {gate.kind} gate")


def _inverse_gate(gate: Gate, theta: Sequence[float] | None) -> Gate:
    if gate.kind in ("x", "y", "z", "h", "cnot", "cz"):
        return gate
    if gate.kind == "t":
        # T and Rz(pi/4) differ by a global phase shared by both sweep states
        return Gate("rz", gate.targets, angle=-math.pi / 4)
    if gate.kind in ("rx", "ry", "rz", "exp", "cexp"):
        return Gate(gate.kind, gate.targets, angle=-gate.resolve_angle(theta),
                    string=gate.string)
    raise UnsupportedGate(f"cannot invert gate kind {gate.kind!r}")


def analytic_gradient(ansatz: Ansatz, theta: Sequence[float],
                      h: PauliSum) -> np.ndarray:
    """Exact dE/dtheta by a reverse sweep over the circuit.

    The sweep holds <lambda| = <psi_final| H U_N ... U_{g+1} alongside the
    stored forward state after gate g and reads off
    2 Re <lambda| i w_g P_g |psi_g> at each parametrized gate. Occurrences
    sharing a parameter slot accumulate into one derivative entry.
    """
    gates = ansatz.combined().gates
    psi = StateVector.zero(ansatz.n_qubits)
    states = [psi]
    for gate in gates:
        psi = apply_gate(psi, gate, theta)
        states.append(psi)
    gradient = np.zeros(ansatz.n_params)
    lam = StateVector(apply_to_statevector(h, states[-1].amplitudes),
                      ansatz.n_qubits)
    for position in range(len(gates) - 1, -1, -1):
        gate = gates[position]
        if gate.slot is not None:
            weight, string = _gate_generator(gate)
            bracket = np.vdot(lam.amplitudes,
                              string.apply(states[position + 1].amplitudes))
            gradient[gate.slot] += 2.0 * (1j * weight * bracket).real
        lam = apply_gate(lam, _inverse_gate(gate, theta), None)
    return gradient


def penalty_hamiltonian(h: PauliSum,
                        constraints: Iterable[tuple[PauliSum, float, float]]
                        ) -> PauliSum:
    """H + sum_j beta_j (Q_j - q_j I)^2, expanded and canonicalized."""
    out = h
    for operator, target, beta in constraints:
        if beta <= 0:
            raise ValueError("penalty weights must be positive")
        if not operator.is_hermitian():
            raise ValueError("constraint operators must be Hermitian")
        shifted = operator - PauliSum.identity(target)
        out = out + beta * (shifted * shifted)
    return canonicalize(out)


# ------------------------------------------------------------------ optimizers


@dataclass(frozen=True)
class OptimizerConfig:
    """Classical optimizer selection and budget."""

    method: str = NELDER_MEAD
    max_evals: int = 2000
    tolerance: float = 1e-8
    seed: int | None = None
    spsa_a: float = 0.1
    spsa_c: float = 0.1
    learning_rate: float = 0.2

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")


@dataclass
class VqeResult:
    """Optimization outcome: best point, trace, and convergence status."""

    best_params: np.ndarray
    best_energy: float
    trace: list[tuple[float, int]]
    shots_used: int
    converged: bool


class _Objective:
    """Counts evaluations and keeps the running best point."""

    def __init__(self, ansatz: Ansatz, h: PauliSum, shots: int | None,
                 noise: NoiseModel | None, rng: np.random.Generator | None,
                 config: OptimizerConfig, trajectories: int):
        self.ansatz, self.h = ansatz, h
        self.shots, self.noise, self.rng = shots, noise, rng
        self.trajectories = trajectories
        self.max_evals = config.max_evals
        self.tolerance = config.tolerance
        self.terms = len(list(h.items()))
        self.evals = 0
        self.shots_used = 0
        self.best_energy = math.inf
        self.best_params: np.ndarray | None = None
        self.trace: list[tuple[float, int]] = []

    def exhausted(self) -> bool:
        return self.evals >= self.max_evals

    def __call__(self, theta: np.ndarray) -> float:
        estimate = estimate_energy(self.ansatz, theta, self.h,
                                   shots=self.shots, noise=self.noise,
                                   rng=self.rng,
                                   trajectories=self.trajectories)
        self.evals += 1
        if self.shots is not None:
            self.shots_used += self.shots * self.terms
        if estimate.mean < self.best_energy:
            self.best_energy = estimate.mean
            self.best_params = np.array(theta, dtype=float)
        return estimate.mean

    def record(self, energy: float):
        self.trace.append((energy, self.evals))

    def converged_streak(self) -> bool:
        if len(self.trace) < CONVERGENCE_STREAK + 1:
            return False
        recent = [e for e, _ in self.trace[-(CONVERGENCE_STREAK + 1):]]
        return all(abs(recent[k + 1] - recent[k]) < self.tolerance
                   for k in range(CONVERGENCE_STREAK))


def optimize(ansatz: Ansatz, h: PauliSum, config: OptimizerConfig,
             shots: int | None = None, noise: NoiseModel | None = None,
             rng: np.random.Generator | None = None,
             initial: Sequence[float] | None = None,
             trajectories: int = DEFAULT_TRAJECTORIES) -> VqeResult:
    """Minimize the ansatz energy with the configured classical method.

    Exhausting max_evals is soft: the best point seen so far is returned
    with converged set to False. Identical configuration and seed reproduce
    the result exactly when no external generator is passed. With a noise
    model every evaluation averages ``trajectories`` noisy trajectories.
    """
    master = make_rng(config.seed) if rng is None else rng
    init_rng, sample_rng, search_rng = split_rng(master, 3)
    theta0 = np.array(initial, dtype=float) if initial is not None else \
        initial_parameters(ansatz, seed=int(init_rng.integers(2 ** 31)))
    objective = _Objective(ansatz, h, shots, noise,
                           sample_rng if (shots is not None or noise is not None)
                           else None, config, trajectories)

    if config.method == NELDER_MEAD:
        _nelder_mead(objective, theta0, config)
    elif config.method == SPSA:
        _spsa(objective, theta0, config, search_rng)
    else:
        _gradient_descent(objective, theta0, config)

    converged = (objective.converged_streak() or not objective.exhausted()) \
        and objective.best_params is not None
    return VqeResult(objective.best_params, objective.best_energy,
                     objective.trace, objective.shots_used, converged)


def _nelder_mead(objective: _Objective, theta0: np.ndarray,
                 config: OptimizerConfig):
    import scipy.optimize

    def wrapped(theta):
        value = objective(theta)
        objective.record(value)
        return value

    if theta0.size == 0:
        wrapped(theta0)
        return
    scipy.optimize.minimize(
        wrapped, theta0, method="Nelder-Mead",
        options={"maxfev": config.max_evals, "fatol": config.tolerance,
                 "xatol": 1e-8, "adaptive": True})


def _spsa(objective: _Objective, theta0: np.ndarray, config: OptimizerConfig,
          rng: np.random.Generator):
    theta = theta0.copy()
    stability = max(1.0, 0.1 * config.max_evals)
    k = 0
    while objective.evals + 2 <= config.max_evals:
        k += 1
        step = config.spsa_a / (k + stability) ** 0.602
        poke = config.spsa_c / k ** 0.101
        delta = rng.choice([-1.0, 1.0], size=theta.shape)
        plus = objective(theta + poke * delta)
        minus = objective(theta - poke * delta)
        gradient = (plus - minus) / (2.0 * poke) * delta
        theta = theta - step * gradient
        objective.record(min(plus, minus))
    if not objective.exhausted():
        objective.record(objective(theta))


def _gradient_descent(objective: _Objective, theta0: np.ndarray,
                      config: OptimizerConfig):
    theta = theta0.copy()
    while not objective.exhausted():
        value = objective(theta)
        objective.record(value)
        if objective.converged_streak():
            break
        gradient = analytic_gradient(objective.ansatz, theta, objective.h)
        theta = theta - config.learning_rate * gradient

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
that un-computes the state beside H psi and reads one inner product per
parametrized gate, or one product per run of commuting exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .encoding import EncodingScheme, encode_operators, encode_state
from .errors import ConfigError
from .fermion import FermionSum, OccupationVector, arity_runs, normal_order
from .mitigation import DEFAULT_TRAJECTORIES, noisy_expectation
from .pauli import (
    PauliString,
    PauliSum,
    apply_to_statevector,
    check_bytes,
    expectation_and_action,
)
from .simulator import (
    Circuit,
    REGISTER_BYTES,
    CommutingRun,
    CompiledCircuit,
    Gate,
    NoiseModel,
    ShotEstimate,
    StateVector,
    make_rng,
    sample_expectation,
    split_rng,
)

COEFF_TOLERANCE = 1e-10
INITIAL_SPREAD = 0.01
CONVERGENCE_STREAK = 10
# A sampled Nelder-Mead search starts from theta0 plus this step (rad) along
# each axis: scipy's own 0.00025 moves H2's energy by at most 9e-5 Ha, a
# tenth of one estimate's standard error at 10^4 shots.
SIMPLEX_STEP = 0.1
# ... and stops once its vertices' energies lie within this many standard
# errors of the estimate at theta0.
NOISE_FLOOR = 3.0
# Registers the gradient sweep holds, whatever the gate count: psi, lambda,
# a kernel's working arrays, and the per-term tables and products of H psi
# (tracemalloc, no table cache: 2.2 registers on 644-gate LiH, 2.0 at 16-18
# qubits).
GRADIENT_REGISTERS = 3

UCCSD = "uccsd"
HARDWARE_EFFICIENT = "hardware-efficient"
HAMILTONIAN_VARIATIONAL = "hamiltonian-variational"
LDCA = "ldca"

NELDER_MEAD = "nelder-mead"
SPSA = "spsa"
GRADIENT_DESCENT = "gradient-descent"
L_BFGS = "l-bfgs"
METHODS = (NELDER_MEAD, SPSA, GRADIENT_DESCENT, L_BFGS)


class NotAntiHermitian(ConfigError):
    """A cluster generator whose qubit image has a real coefficient."""


class InexactEnergies(ConfigError):
    """A line-search optimizer asked to run on sampled or noisy energies."""


class PartitionIncomplete(ConfigError):
    """Supplied Hamiltonian groups do not add up to the full operator."""


class UnsupportedGate(ConfigError):
    """A parametrized gate outside the differentiable set."""


# ---------------------------------------------------------------------- ansatz


@dataclass
class Ansatz:
    """A parametrized circuit over a fixed, parameter-free reference prep."""

    circuit: Circuit
    reference_prep: list[Gate]
    family: str
    _compiled: CompiledCircuit | None = field(default=None, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        for gate in self.reference_prep:
            if gate.slot is not None:
                raise ValueError("reference preparation must be parameter-free")

    @property
    def n_qubits(self) -> int:
        return self.circuit.n_qubits

    @property
    def n_params(self) -> int:
        return self.compiled().n_params

    def combined(self) -> Circuit:
        return Circuit(self.n_qubits, list(self.reference_prep) + self.circuit.gates)

    def compiled(self) -> CompiledCircuit:
        """The combined circuit, compiled on first use and again only if
        its gates or width have changed since."""
        gates = (*self.reference_prep, *self.circuit.gates)
        if (self._compiled is None or self._compiled.n != self.n_qubits
                or self._compiled.gates != gates):
            self._compiled = CompiledCircuit(gates, self.n_qubits)
        return self._compiled

    def state(self, theta: Sequence[float]) -> StateVector:
        compiled = self.compiled()
        if len(theta) != compiled.n_params:
            raise ValueError(f"expected {compiled.n_params} parameters, got {len(theta)}")
        zero = StateVector.zero(self.n_qubits)
        return StateVector(compiled.run(theta, zero.amplitudes), zero.n)


def preparation_gates(occupation: OccupationVector,
                      scheme: EncodingScheme) -> list[Gate]:
    """X gates writing the encoded occupation bitstring onto |0...0>."""
    encoded = encode_state(occupation, scheme)
    return [Gate("x", (q,)) for q in encoded.occupied()]


def _imaginary_parts(image: PauliSum) -> list[tuple[PauliString, float]]:
    """(P, Im c) per image term; a real part means G + G* is not zero."""
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
    images = [_imaginary_parts(image) for image in encode_operators(
        [getattr(g, "generator", g) for g in generators], scheme)]
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
    return arity_runs(diagonal), arity_runs(hopping), arity_runs(exchange)


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
        return cls(*encode_operators([diagonal, hopping, exchange], scheme))

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
        residue = parts.total() - full
        if (np.hypot(residue.coeffs.real, residue.coeffs.imag) > COEFF_TOLERANCE).any():
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
    if (shots is not None or noise is not None) and rng is None:
        raise ValueError("shot sampling and noise need a random generator")
    if noise is None:
        psi = ansatz.state(theta)
        if shots is None:
            return ShotEstimate(psi.expectation(h), 0.0, 1)
        return sample_expectation(psi, h, shots, rng)
    return noisy_expectation(ansatz.compiled(), theta, h, noise, rng,
                             trajectories, shots)


def analytic_gradient(ansatz: Ansatz, theta: Sequence[float], h: PauliSum,
                      with_energy: bool = False
                      ) -> np.ndarray | tuple[float, np.ndarray]:
    """Exact dE/dtheta by a reverse sweep over the circuit's kernels.

    The circuit runs once to psi_N, and lambda = H psi_N. Walking the
    kernels backwards, the sweep reads 2 Re <lambda| i w_g P_g |psi_g> at
    each parametrized gate g, then undoes the gate on both lambda and psi,
    so only those two registers are held (Jones & Gacon, arXiv:2009.02823).
    Every string of a run of commuting exp gates commutes with the whole
    run, so all of its brackets are read at the run's end from one product,
    S^T (conj(lambda) * P_0 psi), and the run is undone at -Phi in one
    step. Occurrences sharing a parameter slot accumulate into one
    derivative entry. Raises TooLarge before any register is allocated when
    GRADIENT_REGISTERS of them exceed BYTE_BUDGET.

    ``with_energy`` returns ``(energy, gradient)``, the energy read as
    <psi_N|lambda> under ``expectation``'s checks: the same bits as the
    exact-mode ``estimate_energy``, without a second run of the circuit.
    """
    check_bytes(GRADIENT_REGISTERS * (REGISTER_BYTES << ansatz.n_qubits),
                f"the gradient sweep on {ansatz.n_qubits} qubits")
    compiled = ansatz.compiled()
    psi = ansatz.state(theta).amplitudes
    if with_energy:
        energy, lam = expectation_and_action(h, psi)
    else:
        lam = apply_to_statevector(h, psi)
    gradient = np.zeros(ansatz.n_params)
    for span in reversed(compiled.spans):
        if isinstance(span, CommutingRun):
            brackets = span.brackets(lam, psi)
            np.add.at(gradient, span.slots,
                      2.0 * (1j * span.scales * brackets).real)
            back = -span.angles(theta)
            lam, psi = span.evolve(lam, back), span.evolve(psi, back)
            continue
        gate, generator = compiled.gates[span], compiled.generators[span]
        if gate.slot is not None:
            if generator is None:
                raise UnsupportedGate(f"cannot differentiate a parametrized {gate.kind} gate")
            weight, string = generator
            bracket = np.vdot(lam, string.apply(psi))
            gradient[gate.slot] += 2.0 * (1j * weight * bracket).real
        lam = compiled.undo(span, theta, lam)
        psi = compiled.undo(span, theta, psi)
    return (energy, gradient) if with_energy else gradient


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
    return out


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
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and positive")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must not be negative")


@dataclass
class VqeResult:
    """Optimization outcome: best point, trace, and convergence status.

    With shots, ``best_energy`` is a fresh estimate at ``best_params``, not
    the lowest draw of the search, and ``shots_used`` counts every
    measured term's shots of every estimate, that one included.
    """

    best_params: np.ndarray
    best_energy: float
    trace: list[tuple[float, int]]
    shots_used: int
    converged: bool

    @property
    def evaluations(self) -> int:
        """Objective evaluations made, as the last trace entry counts them."""
        return int(self.trace[-1][1]) if self.trace else 0


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
        measured = np.count_nonzero(h.x | h.z)
        self.shots_per_estimate = 0 if shots is None else \
            shots * measured * (1 if noise is None else trajectories)
        self.evals = 0
        self.shots_used = 0
        self.best_energy = math.inf
        self.best_params: np.ndarray | None = None
        self.trace: list[tuple[float, int]] = []

    def exhausted(self) -> bool:
        return self.evals >= self.max_evals

    def __call__(self, theta: np.ndarray) -> float:
        return self.estimate(theta).mean

    def estimate(self, theta: np.ndarray) -> ShotEstimate:
        """One counted evaluation, with its standard error."""
        estimate = estimate_energy(self.ansatz, theta, self.h,
                                   shots=self.shots, noise=self.noise,
                                   rng=self.rng,
                                   trajectories=self.trajectories)
        self._counted(theta, estimate.mean)
        return estimate

    def with_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """One evaluation and the exact gradient at theta; in exact mode
        both come from one gradient sweep."""
        if self.shots is None and self.noise is None:
            energy, gradient = analytic_gradient(self.ansatz, theta, self.h,
                                                 with_energy=True)
            return self._counted(theta, energy), gradient
        return self(theta), analytic_gradient(self.ansatz, theta, self.h)

    def _counted(self, theta: np.ndarray, energy: float) -> float:
        self.evals += 1
        self.shots_used += self.shots_per_estimate
        if energy < self.best_energy:
            self.best_energy = energy
            self.best_params = np.array(theta, dtype=float)
        return energy

    def record(self, energy: float):
        self.trace.append((energy, self.evals))

    def converged_streak(self) -> bool:
        if len(self.trace) < CONVERGENCE_STREAK + 1:
            return False
        recent = [e for e, _ in self.trace[-(CONVERGENCE_STREAK + 1):]]
        return all(abs(recent[k + 1] - recent[k]) < self.tolerance
                   for k in range(CONVERGENCE_STREAK))


def check_exact_energies(config: OptimizerConfig, shots: int | None,
                         noise: NoiseModel | None) -> None:
    """InexactEnergies when L-BFGS would see sampled or noisy energies: its
    line search compares them as if they were exact."""
    if config.method == L_BFGS and (shots is not None or noise is not None):
        raise InexactEnergies("l-bfgs needs exact energies for its line "
                              "search; drop the shots and the noise")


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
    L-BFGS runs in exact mode only, and is converged only when scipy's
    L-BFGS-B reports success. Gradient descent whose first gradient is
    exactly zero never moves, and is not converged. With shots the reported
    energy is a fresh estimate at the best point, from a stream of its own.
    An ansatz without parameters is evaluated and recorded once, whatever
    the method, and is converged.
    """
    check_exact_energies(config, shots, noise)
    master = make_rng(config.seed) if rng is None else rng
    init_rng, sample_rng, search_rng, fresh_rng = split_rng(master, 4)
    theta0 = np.array(initial, dtype=float) if initial is not None else \
        initial_parameters(ansatz, seed=int(init_rng.integers(2 ** 31)))
    objective = _Objective(ansatz, h, shots, noise,
                           sample_rng if (shots is not None or noise is not None)
                           else None, config, trajectories)

    if theta0.size == 0:
        objective.record(objective(theta0))
        converged = True
    elif config.method == L_BFGS:
        converged = _lbfgs(objective, theta0, config)
    else:
        moved = True
        if config.method == NELDER_MEAD:
            _nelder_mead(objective, theta0, config)
        elif config.method == SPSA:
            _spsa(objective, theta0, config, search_rng)
        else:
            moved = _gradient_descent(objective, theta0, config)
        converged = moved and (objective.converged_streak()
                               or not objective.exhausted())
    converged = converged and objective.best_params is not None
    energy, shots_used = objective.best_energy, objective.shots_used
    if shots is not None and objective.best_params is not None:
        energy = estimate_energy(ansatz, objective.best_params, h, shots,
                                 noise, fresh_rng, trajectories).mean
        shots_used += objective.shots_per_estimate
    return VqeResult(objective.best_params, energy, objective.trace,
                     shots_used, converged)


def _nelder_mead(objective: _Objective, theta0: np.ndarray,
                 config: OptimizerConfig):
    """scipy's adaptive Nelder-Mead. On sampled energies the first simplex
    steps SIMPLEX_STEP along each axis, and the search stops once the
    vertices' energies span less than NOISE_FLOOR standard errors of the
    estimate at theta0; that estimate is the first vertex's evaluation, not
    an extra draw."""
    import scipy.optimize

    first = []  # an energy already drawn at theta0, for scipy's first call

    def wrapped(theta):
        value = first.pop() if first else objective(theta)
        objective.record(value)
        return value

    options = {"maxfev": config.max_evals, "fatol": config.tolerance,
               "xatol": 1e-8, "adaptive": True}
    if objective.shots is not None:
        start = objective.estimate(theta0)
        first.append(start.mean)
        options.update(
            fatol=max(config.tolerance, NOISE_FLOOR * start.std_error),
            xatol=math.inf,
            initial_simplex=np.vstack([theta0, theta0 + SIMPLEX_STEP
                                       * np.eye(theta0.size)]))
    scipy.optimize.minimize(wrapped, theta0, method="Nelder-Mead",
                            options=options)


def _lbfgs(objective: _Objective, theta0: np.ndarray,
           config: OptimizerConfig) -> bool:
    """L-BFGS-B on the fused energy-and-gradient sweep (Liu & Nocedal 1989);
    True only when it reports success.

    scipy checks ``maxfun`` between iterations, so a line search could
    overrun it; the wrapper stops the search instead, at exactly
    ``max_evals`` evaluations.
    """
    import scipy.optimize

    def wrapped(theta):
        if objective.exhausted():
            raise StopIteration
        value, gradient = objective.with_gradient(theta)
        objective.record(value)
        return value, gradient

    try:
        result = scipy.optimize.minimize(
            wrapped, theta0, jac=True, method="L-BFGS-B", tol=config.tolerance,
            options={"maxfun": config.max_evals, "maxiter": config.max_evals})
    except StopIteration:
        return False
    return bool(result.success)


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
                      config: OptimizerConfig) -> bool:
    """Fixed-rate descent; False when the first gradient is exactly zero
    (Hamiltonian variational at theta = 0), so the search never moved."""
    theta = theta0.copy()
    moved = True
    while not objective.exhausted():
        value, gradient = objective.with_gradient(theta)
        objective.record(value)
        if objective.evals == 1:
            moved = bool(gradient.any())
        if objective.converged_streak():
            break
        theta = theta - config.learning_rate * gradient
    return moved

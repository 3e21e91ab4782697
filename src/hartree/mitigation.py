"""Error mitigation: extrapolation, quasi-probability cancellation, parity checks.

Zero-noise extrapolation scales the stochastic insertion probability by
lambda (exact in simulation, unlike hardware gate-stretching) and fits the
estimates back to lambda = 0 with a linear or exponential model.

Probabilistic cancellation inverts per-qubit depolarizing noise: after each
gate every support qubit is independently depolarized, and the inverse
channel is realized by sampling Pauli insertions with quasi-probability
weights whose parities flip the sign of the recorded expectation. For
single-qubit gates this channel coincides with the trajectory simulator's;
for wider gates the per-qubit convention is what the inverse listing assumes.

Stabiliser post-selection extracts conserved parities onto ancillas through
ideal CNOT fans, discards shots whose ancilla readout disagrees with the
expected eigenvalue, and averages the retained trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .pauli import PauliString, PauliSum
from .simulator import (
    Circuit,
    Gate,
    NoiseModel,
    ShotEstimate,
    StateVector,
    apply_gate,
    noisy_states,
    sample_expectation,
    split_rng,
    trajectory_states,
)

MATCH_TOLERANCE = 1e-12
DEFAULT_TRAJECTORIES = 2000

NUMBER = "number"
SPIN_UP = "spin-up"
SPIN_DOWN = "spin-down"
CHECK_KINDS = (NUMBER, SPIN_UP, SPIN_DOWN)

_LETTERS = ("I", "X", "Y", "Z")


class SignInconsistent(ValueError):
    """Exponential fit undefined: estimates change sign or vanish."""


class InvalidProbability(ValueError):
    """Depolarizing probability outside [0, 1)."""


class AllShotsRejected(RuntimeError):
    """Every shot failed a stabiliser check."""


# ------------------------------------------------------------- extrapolation


@dataclass(frozen=True)
class NoiseScaledSeries:
    """Estimates at increasing noise-scale factors, the first at lambda = 1."""

    points: tuple[tuple[float, ShotEstimate], ...]

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple((float(lam), est) for lam, est in self.points))
        if len(self.points) < 2:
            raise ValueError("need at least two noise scales")
        scales = [lam for lam, _ in self.points]
        if scales[0] != 1.0:
            raise ValueError("the first scale must be 1")
        if any(b <= a for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must be strictly increasing")


def scaled_noise(noise: NoiseModel, lam: float) -> NoiseModel:
    """Noise model with both insertion probabilities multiplied by lam."""
    if lam < 1.0:
        raise ValueError("scale factors must be at least 1")
    if max(noise.p1, noise.p2) * lam > 1.0:
        raise ValueError(f"scale {lam} pushes an insertion probability past 1")
    return NoiseModel(noise.p1 * lam, noise.p2 * lam, noise.seed)


def noisy_expectation(circuit: Circuit, theta: Sequence[float] | None,
                      h: PauliSum, noise: NoiseModel,
                      rng: np.random.Generator,
                      trajectories: int = DEFAULT_TRAJECTORIES,
                      shots: int | None = None) -> ShotEstimate:
    """Trajectory-averaged expectation with its empirical standard error;
    ``shots`` samples each trajectory's terms on its own stream instead."""
    streams = split_rng(rng, trajectories)
    means = np.empty(trajectories)
    for members, psi in noisy_states(circuit, theta, noise, streams):
        if shots is None:
            means[members] = psi.expectation(h)
        else:
            for k in members:
                means[k] = sample_expectation(psi, h, shots, streams[k]).mean
    spread = float(means.std(ddof=1)) if trajectories > 1 else 0.0
    return ShotEstimate(float(means.mean()), spread / math.sqrt(trajectories),
                        shots if shots is not None else trajectories)


def noise_scaled_series(circuit: Circuit, theta: Sequence[float] | None,
                        h: PauliSum, noise: NoiseModel,
                        scales: Sequence[float], rng: np.random.Generator,
                        trajectories: int = DEFAULT_TRAJECTORIES
                        ) -> NoiseScaledSeries:
    """Measure the observable at each noise scale with split generators."""
    points = []
    for lam, stream in zip(scales, split_rng(rng, len(scales))):
        estimate = noisy_expectation(circuit, theta, h,
                                     scaled_noise(noise, lam), stream,
                                     trajectories)
        points.append((float(lam), estimate))
    return NoiseScaledSeries(tuple(points))


def _intercept_weights(scales: np.ndarray) -> np.ndarray:
    """Least-squares weights w with intercept = sum_k w_k y_k."""
    design = np.column_stack([np.ones_like(scales), scales])
    pseudo = np.linalg.pinv(design)
    return pseudo[0]


def extrapolate_linear(series: NoiseScaledSeries) -> ShotEstimate:
    """Straight-line fit through the points, evaluated at zero noise."""
    scales = np.array([lam for lam, _ in series.points])
    means = np.array([est.mean for _, est in series.points])
    errors = np.array([est.std_error for _, est in series.points])
    weights = _intercept_weights(scales)
    mitigated = float(weights @ means)
    spread = float(np.sqrt(np.sum((weights * errors) ** 2)))
    shots = sum(est.shots for _, est in series.points)
    return ShotEstimate(mitigated, spread, shots)


def extrapolate_exponential(series: NoiseScaledSeries) -> ShotEstimate:
    """Fit A e^(-b lambda) on log-magnitudes and return A with the shared sign."""
    scales = np.array([lam for lam, _ in series.points])
    means = np.array([est.mean for _, est in series.points])
    errors = np.array([est.std_error for _, est in series.points])
    if np.any(means == 0.0) or len({np.sign(m) for m in means}) != 1:
        raise SignInconsistent("estimates must be nonzero and share a sign")
    sign = np.sign(means[0])
    weights = _intercept_weights(scales)
    log_amplitude = float(weights @ np.log(np.abs(means)))
    amplitude = math.exp(log_amplitude)
    spread = amplitude * float(np.sqrt(np.sum((weights * errors / means) ** 2)))
    shots = sum(est.shots for _, est in series.points)
    return ShotEstimate(float(sign * amplitude), spread, shots)


# ---------------------------------------------------- probabilistic cancelling


@dataclass(frozen=True)
class QuasiProbDecomposition:
    """Quasi-probability realization of an inverse depolarizing channel."""

    gamma: float
    entries: tuple[tuple[str, float, int], ...]
    p: float
    arity: int

    def __post_init__(self):
        if self.gamma < 1.0 - MATCH_TOLERANCE:
            raise ValueError("overhead must be at least 1")
        total = sum(prob for _, prob, _ in self.entries)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("insertion probabilities must sum to 1")
        if any(parity not in (-1, 1) for _, _, parity in self.entries):
            raise ValueError("parities must be +1 or -1")


def _commutation_sign(a: str, b: str) -> int:
    if a == "I" or b == "I" or a == b:
        return 1
    return -1


def pec_decompose_depolarizing(p: float, arity: int) -> QuasiProbDecomposition:
    """Inverse-channel sampling weights for per-qubit depolarizing strength p.

    Each support qubit is assumed independently depolarized: with probability
    p it is replaced by the maximally mixed state (a uniform I/X/Y/Z kick).
    The inverse-map conjugation coefficients are solved from the 4^arity
    Pauli-transfer system; magnitudes become probabilities and signs parities.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidProbability(f"need 0 <= p < 1, got {p}")
    if arity not in (1, 2):
        raise ValueError("only one- and two-qubit decompositions are supported")
    labels = ["".join(parts) for parts in product(_LETTERS, repeat=arity)]
    factor = 1.0 - p
    transfer = np.array([factor ** sum(c != "I" for c in q) for q in labels])
    sign_matrix = np.array([[math.prod(_commutation_sign(pa, qa)
                                       for pa, qa in zip(pauli, q))
                             for pauli in labels] for q in labels], dtype=float)
    coefficients = np.linalg.solve(sign_matrix, 1.0 / transfer)
    gamma = float(np.sum(np.abs(coefficients)))
    entries = tuple(
        (label, float(abs(c)) / gamma, 1 if c >= 0 else -1)
        for label, c in zip(labels, coefficients))
    return QuasiProbDecomposition(gamma, entries, p, arity)


def decomposition_for_noise(noise: NoiseModel, arities: Sequence[int]
                            ) -> dict[int, QuasiProbDecomposition]:
    """Matching decompositions; insertion rate r maps to p = 4r/3 per qubit."""
    return {arity: pec_decompose_depolarizing(4.0 * noise.rate_for(arity) / 3.0,
                                              arity)
            for arity in set(arities)}


def _insertion_string(letters: str, support: Sequence[int]) -> PauliString | None:
    terms = [f"{letter}{q}" for letter, q in zip(letters, support)
             if letter != "I"]
    if not terms:
        return None
    return PauliString.from_text(" ".join(terms))


def pec_estimate(circuit: Circuit, theta: Sequence[float] | None,
                 observable: PauliSum, noise: NoiseModel,
                 decompositions: dict[int, QuasiProbDecomposition],
                 samples: int, rng: np.random.Generator) -> ShotEstimate:
    """Quasi-probability cancellation of per-qubit depolarizing noise.

    Per sample, every gate is followed by the noise draw and one insertion
    drawn from its decomposition; the recorded value is the exact observable
    expectation times the product of insertion parities. The mitigated mean
    is gamma_total times the sample mean, and the standard error inherits the
    same factor.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    supports = [g.support() for g in circuit.gates]
    gamma_total = 1.0
    for arity in map(len, supports):
        if arity == 0:
            continue
        if arity > 2:
            raise ValueError("cancellation covers one- and two-qubit gates only")
        if arity not in decompositions:
            raise ValueError(f"no decomposition supplied for arity {arity}")
        expected = 4.0 * noise.rate_for(arity) / 3.0
        if abs(decompositions[arity].p - expected) > MATCH_TOLERANCE:
            raise ValueError(
                f"decomposition strength {decompositions[arity].p} does not "
                f"match the noise model (expected {expected})")
        gamma_total *= decompositions[arity].gamma
    probabilities = {a: np.array([prob for _, prob, _ in d.entries])
                     for a, d in decompositions.items()}

    def draw(stream: np.random.Generator):
        kicks, parity = [], 1
        for index, support in enumerate(supports):
            arity = len(support)
            if arity == 0:
                continue
            rate = noise.rate_for(arity)
            for q in support:
                if rate > 0.0 and stream.random() < rate:
                    letter = _LETTERS[1 + stream.integers(3)]
                    kicks.append((index, PauliString.single(letter, q)))
            decomp = decompositions[arity]
            choice = stream.choice(len(decomp.entries), p=probabilities[arity])
            letters, _, entry_parity = decomp.entries[choice]
            insertion = _insertion_string(letters, support)
            if insertion is not None:
                kicks.append((index, insertion))
            parity *= entry_parity
        return kicks, parity

    kicks, parities = zip(*map(draw, split_rng(rng, samples)))
    values = np.array(parities, dtype=float)
    for members, psi in trajectory_states(circuit, theta, kicks):
        values[members] *= psi.expectation(observable)
    spread = float(values.std(ddof=1)) if samples > 1 else 0.0
    return ShotEstimate(gamma_total * float(values.mean()),
                        gamma_total * spread / math.sqrt(samples), samples)


# --------------------------------------------------------------- stabilisers


@dataclass(frozen=True)
class StabiliserCheck:
    """A conserved-parity test: qubits whose joint parity must equal expected."""

    parity_qubits: tuple[int, ...]
    expected: int
    kind: str

    def __post_init__(self):
        if self.expected not in (0, 1):
            raise ValueError("expected parity bit must be 0 or 1")
        if self.kind not in CHECK_KINDS:
            raise ValueError(f"unknown check kind {self.kind!r}")
        if not self.parity_qubits:
            raise ValueError("need at least one parity qubit")


def occupation_checks(m: int, n_electrons: int, n_up: int
                      ) -> list[StabiliserCheck]:
    """Number and spin-up parity checks for an occupation-basis register.

    Assumes the identity mode-to-qubit map with the spin-up block on qubits
    0 .. m/2-1, as in the blocked occupation-number encoding.
    """
    if m % 2 != 0:
        raise ValueError("need an even number of modes")
    return [
        StabiliserCheck(tuple(range(m)), n_electrons % 2, NUMBER),
        StabiliserCheck(tuple(range(m // 2)), n_up % 2, SPIN_UP),
    ]


def stabiliser_postselect(circuit: Circuit, theta: Sequence[float] | None,
                          h: PauliSum, checks: Sequence[StabiliserCheck],
                          noise: NoiseModel, shots: int,
                          rng: np.random.Generator
                          ) -> tuple[ShotEstimate, float]:
    """Discard trajectories whose extracted parities disagree with the checks.

    Each shot runs one noisy trajectory, then extracts every check's parity
    onto its own ancilla through an ideal CNOT fan and samples the ancilla
    register. Matching shots contribute their exact observable expectation;
    the retained fraction reports the sampling cost.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if not checks:
        raise ValueError("need at least one check")
    n = circuit.n_qubits
    ancillas = len(checks)
    for check in checks:
        if any(not 0 <= q < n for q in check.parity_qubits):
            raise ValueError("check touches a qubit outside the register")
    target = sum(check.expected << k for k, check in enumerate(checks))
    dim_s = 1 << n
    streams = split_rng(rng, shots)
    values = np.empty(shots)
    accepted = np.zeros(shots, dtype=bool)
    for members, psi in noisy_states(circuit, theta, noise, streams):
        joint = np.zeros((1 << ancillas) * dim_s, dtype=complex)
        joint[:dim_s] = psi.amplitudes
        state = StateVector(joint, n + ancillas)
        for k, check in enumerate(checks):
            for q in check.parity_qubits:
                state = apply_gate(state, Gate("cnot", (q, n + k)))
        blocks = state.amplitudes.reshape(1 << ancillas, dim_s)
        weights = np.sum(np.abs(blocks) ** 2, axis=1)
        probabilities = weights / weights.sum()
        passed = [k for k in members if target ==
                  streams[k].choice(1 << ancillas, p=probabilities)]
        if passed:
            collapsed = blocks[target] / math.sqrt(weights[target])
            values[passed] = StateVector(collapsed, n).expectation(h)
            accepted[passed] = True
    kept = values[accepted]
    if not kept.size:
        raise AllShotsRejected(f"all {shots} shots failed the parity checks")
    spread = float(kept.std(ddof=1)) if len(kept) > 1 else 0.0
    estimate = ShotEstimate(float(kept.mean()),
                            spread / math.sqrt(len(kept)), len(kept))
    return estimate, len(kept) / shots

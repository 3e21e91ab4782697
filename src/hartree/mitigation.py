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

Stabiliser post-selection reads each conserved parity off the basis index
as an ideal parity measurement would, discards shots whose readout disagrees
with the expected eigenvalue, and averages the retained trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .pauli import PauliString, PauliSum, commutes
from .simulator import (
    Circuit,
    CompiledCircuit,
    NoiseModel,
    ShotEstimate,
    StateVector,
    compile_circuit,
    kick_lists,
    noisy_states,
    sample_means,
    split_rng,
)

MATCH_TOLERANCE = 1e-12
DEFAULT_TRAJECTORIES = 512

NUMBER = "number"
SPIN_UP = "spin-up"
SPIN_DOWN = "spin-down"
CHECK_KINDS = (NUMBER, SPIN_UP, SPIN_DOWN)

_LETTERS = ("I", "X", "Y", "Z")


class SignInconsistent(NumericalError):
    """Exponential fit undefined: estimates change sign or vanish."""


class InvalidProbability(ConfigError):
    """Depolarizing probability outside [0, 1)."""


class AllShotsRejected(NumericalError):
    """Every shot failed a stabiliser check."""


# ------------------------------------------------------------- extrapolation


@dataclass(frozen=True)
class NoiseScaledSeries:
    """Estimates at increasing noise-scale factors, the first at lambda = 1."""

    points: tuple[tuple[float, ShotEstimate], ...]

    def __post_init__(self):
        object.__setattr__(self, "points",
                           tuple((float(lam), est) for lam, est in self.points))
        check_scales([lam for lam, _ in self.points])


def check_scales(scales: Sequence[float],
                 noise: NoiseModel | None = None) -> None:
    """ValueError unless there are at least two scales, the first is 1 and
    they strictly increase; with ``noise``, also unless the largest keeps
    every insertion probability at most 1."""
    if len(scales) < 2:
        raise ValueError("need at least two noise scales")
    if scales[0] != 1.0:
        raise ValueError("the first scale must be 1")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    if noise is not None:
        scaled_noise(noise, scales[-1])


def scaled_noise(noise: NoiseModel, lam: float) -> NoiseModel:
    """Noise model with both insertion probabilities multiplied by lam."""
    if lam < 1.0:
        raise ValueError("scale factors must be at least 1")
    if max(noise.p1, noise.p2) * lam > 1.0:
        raise ValueError(f"scale {lam} pushes an insertion probability past 1")
    return NoiseModel(noise.p1 * lam, noise.p2 * lam)


def _mean_estimate(values: np.ndarray, scale: float = 1.0,
                   shots: int | None = None) -> ShotEstimate:
    """scale times the sample mean, with scale times its standard error
    std(ddof=1) / sqrt(n), or 0 for one sample; ``shots`` defaults to n."""
    n = len(values)
    spread = float(values.std(ddof=1)) if n > 1 else 0.0
    return ShotEstimate(scale * float(values.mean()),
                        scale * spread / math.sqrt(n),
                        n if shots is None else shots)


def noisy_expectation(circuit: Circuit | CompiledCircuit,
                      theta: Sequence[float] | None,
                      h: PauliSum, noise: NoiseModel,
                      rng: np.random.Generator,
                      trajectories: int = DEFAULT_TRAJECTORIES,
                      shots: int | None = None) -> ShotEstimate:
    """Trajectory-averaged expectation with its empirical standard error;
    ``shots`` samples each trajectory's terms instead. Trajectories, then
    shots, draw from ``rng``: the shots of trajectories that share a final
    state are drawn as one (terms, trajectories) block. A compiled circuit
    is run as it is."""
    means = np.empty(trajectories)
    for members, psi in noisy_states(circuit, theta, noise, rng,
                                     trajectories):
        if shots is None:
            means[members] = psi.expectation(h)
        else:
            means[members] = sample_means(psi, h, shots, rng, len(members))
    return _mean_estimate(means, shots=shots)


def noise_scaled_series(circuit: Circuit | CompiledCircuit,
                        theta: Sequence[float] | None,
                        h: PauliSum, noise: NoiseModel,
                        scales: Sequence[float], rng: np.random.Generator,
                        trajectories: int = DEFAULT_TRAJECTORIES
                        ) -> NoiseScaledSeries:
    """Measure the observable at each noise scale with split generators,
    the circuit compiled once for all of them."""
    circuit = compile_circuit(circuit)
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


def _fit_inputs(series: NoiseScaledSeries
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Intercept weights, means, standard errors and total shots of a series."""
    scales = np.array([lam for lam, _ in series.points])
    means = np.array([est.mean for _, est in series.points])
    errors = np.array([est.std_error for _, est in series.points])
    shots = sum(est.shots for _, est in series.points)
    return _intercept_weights(scales), means, errors, shots


def extrapolate_linear(series: NoiseScaledSeries) -> ShotEstimate:
    """Straight-line fit through the points, evaluated at zero noise."""
    weights, means, errors, shots = _fit_inputs(series)
    mitigated = float(weights @ means)
    spread = float(np.sqrt(np.sum((weights * errors) ** 2)))
    return ShotEstimate(mitigated, spread, shots)


def extrapolate_exponential(series: NoiseScaledSeries) -> ShotEstimate:
    """Fit A e^(-b lambda) on log-magnitudes and return A with the shared sign."""
    weights, means, errors, shots = _fit_inputs(series)
    if np.any(means == 0.0) or len({np.sign(m) for m in means}) != 1:
        raise SignInconsistent("estimates must be nonzero and share a sign")
    sign = np.sign(means[0])
    log_amplitude = float(weights @ np.log(np.abs(means)))
    amplitude = math.exp(log_amplitude)
    spread = amplitude * float(np.sqrt(np.sum((weights * errors / means) ** 2)))
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


def _insertion_string(letters: str, support: Sequence[int]) -> PauliString:
    return PauliString.from_text(" ".join(
        f"{letter}{q}" for letter, q in zip(letters, support) if letter != "I"))


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
    strings = [_insertion_string(label, range(arity)) for label in labels]
    factor = 1.0 - p
    transfer = np.array([factor ** q.weight for q in strings])
    sign_matrix = np.array([[1 if commutes(pauli, q) else -1
                             for pauli in strings] for q in strings],
                           dtype=float)
    coefficients = np.linalg.solve(sign_matrix, 1.0 / transfer)
    gamma = float(np.sum(np.abs(coefficients)))
    entries = tuple(
        (label, float(abs(c)) / gamma, 1 if c >= 0 else -1)
        for label, c in zip(labels, coefficients))
    return QuasiProbDecomposition(gamma, entries, p, arity)


def decomposition_for_noise(noise: NoiseModel, arities: Sequence[int]
                            ) -> dict[int, QuasiProbDecomposition]:
    """Matching decompositions; insertion rate r maps to p = 4r/3 per qubit,
    and a rate whose p reaches 1, where no inverse exists, is refused."""
    decompositions = {}
    for arity in set(arities):
        p = 4.0 * noise.rate_for(arity) / 3.0
        if p >= 1.0:
            raise InvalidProbability(f"the {arity}-qubit rate {noise.rate_for(arity)} "
                                     f"gives 4r/3 = {p}; PEC needs it below 1")
        decompositions[arity] = pec_decompose_depolarizing(p, arity)
    return decompositions


def _choice_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The table Generator.choice(n, p=probabilities) inverts one random()
    against: searchsorted(cdf, u, side="right") is its draw, as
    bisect_right(cdf, u) would be."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


def _pec_kicks(supports: Sequence[tuple[int, ...]], noise: NoiseModel,
              decompositions: dict[int, QuasiProbDecomposition],
              rng: np.random.Generator, samples: int
              ) -> tuple[list[Sequence[tuple[int, PauliString]]], np.ndarray]:
    """Every sample's kicks, in circuit order, and its insertion parity.

    Per sample, every gate with support is followed by its per-qubit noise
    kicks and then one insertion drawn from its arity's decomposition. The
    draws come from ``rng`` as three blocks: a (samples, q) block of noise
    uniforms, one per support qubit of each noisy gate in circuit order, hit
    below the gate's rate; one ``integers(3)`` call for the X, Y or Z letter
    of every hit in row-major order; and a (samples, gates) block of
    insertion uniforms, one per gate with support, each inverted against its
    arity's cumulative table.
    """
    gates = [(index, support)
             for index, support in enumerate(supports) if support]
    noisy = [(index, q, rate) for index, support in gates
             if (rate := noise.rate_for(len(support))) > 0.0 for q in support]
    noise_rows, noise_columns = np.nonzero(
        rng.random((samples, len(noisy))) < np.array([r for *_, r in noisy]))
    letters = rng.integers(3, size=len(noise_columns))
    uniforms = rng.random((samples, len(gates)))

    choices = np.empty((samples, len(gates)), dtype=np.intp)
    parities = np.ones(samples)
    for arity, decomposition in decompositions.items():
        columns = [g for g, (_, support) in enumerate(gates)
                   if len(support) == arity]
        cdf = _choice_cdf(np.array([prob for _, prob, _ in
                                    decomposition.entries]))
        choices[:, columns] = np.searchsorted(cdf, uniforms[:, columns],
                                              side="right")
        signs = np.array([parity for _, _, parity in decomposition.entries])
        parities *= signs[choices[:, columns]].prod(axis=1)
    # pec_decompose_depolarizing lists the identity, which kicks nothing,
    # as entry 0.
    insertion_rows, insertion_columns = np.nonzero(choices)

    events = [(noisy[c][0], PauliString.single(_LETTERS[1 + letter],
                                               noisy[c][1]))
              for c, letter in zip(noise_columns.tolist(), letters.tolist())]
    for g, choice in zip(insertion_columns.tolist(),
                         choices[insertion_rows, insertion_columns].tolist()):
        index, support = gates[g]
        label = decompositions[len(support)].entries[choice][0]
        events.append((index, _insertion_string(label, support)))
    # A stable sort by (sample, gate) keeps each gate's noise kicks, listed
    # first and in support order, ahead of its insertion.
    rows = np.concatenate([noise_rows, insertion_rows])
    gate_of = np.array([index for index, _ in events], dtype=np.intp)
    order = np.argsort(rows * len(supports) + gate_of, kind="stable")
    return kick_lists(rows[order].tolist(), [events[at] for at in order],
                      samples), parities


def pec_estimate(circuit: Circuit | CompiledCircuit,
                 theta: Sequence[float] | None,
                 observable: PauliSum, noise: NoiseModel, samples: int,
                 rng: np.random.Generator
                 ) -> tuple[ShotEstimate, dict[int, QuasiProbDecomposition]]:
    """Quasi-probability cancellation of per-qubit depolarizing noise.

    Per sample, every gate is followed by the noise draw and one insertion
    drawn from its arity's inverse channel, derived from ``noise``
    (``_pec_kicks`` draws them all from ``rng`` in three blocks); the
    recorded value is the exact observable expectation times the product of
    insertion parities. The mitigated mean is gamma_total times the sample
    mean, and the standard error inherits the same factor. Returns the
    estimate and the decompositions keyed by arity.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    compiled = compile_circuit(circuit)
    arities = [len(support) for support in compiled.supports if support]
    decompositions = decomposition_for_noise(noise, arities)
    gamma_total = math.prod(decompositions[arity].gamma for arity in arities)
    kicks, values = _pec_kicks(compiled.supports, noise, decompositions, rng,
                              samples)
    for members, psi in compiled.trajectories(theta, kicks):
        values[members] *= psi.expectation(observable)
    return _mean_estimate(values, gamma_total), decompositions


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


def stabiliser_postselect(circuit: Circuit | CompiledCircuit,
                          theta: Sequence[float] | None,
                          h: PauliSum, checks: Sequence[StabiliserCheck],
                          noise: NoiseModel, shots: int,
                          rng: np.random.Generator
                          ) -> tuple[ShotEstimate, float]:
    """Discard trajectories whose extracted parities disagree with the checks.

    Each shot runs one noisy trajectory, then measures every check's parity
    ideally: bit k of basis state i's readout is the parity of i on check
    k's qubits, and one readout is drawn with the weight of its block of
    amplitudes. Matching shots contribute their exact observable
    expectation; the retained fraction reports the sampling cost.

    All shots draw from ``rng``: first every trajectory's errors as one
    block (``noisy_states``), then, per group of shots that share a final
    state, their readouts as one ``rng.choice`` block.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if not checks:
        raise ValueError("need at least one check")
    circuit = compile_circuit(circuit)
    n = circuit.n
    for check in checks:
        if any(not 0 <= q < n for q in check.parity_qubits):
            raise ValueError("check touches a qubit outside the register")
    target = sum(check.expected << k for k, check in enumerate(checks))
    basis = np.arange(1 << n)
    readout = np.zeros(1 << n, dtype=np.intp)
    for k, check in enumerate(checks):
        parity = sum(basis >> q & 1 for q in check.parity_qubits) & 1
        readout |= parity << k
    values = np.empty(shots)
    accepted = np.zeros(shots, dtype=bool)
    for members, psi in noisy_states(circuit, theta, noise, rng, shots):
        blocks = np.zeros((1 << len(checks), 1 << n), dtype=complex)
        blocks[readout, basis] = psi.amplitudes
        weights = np.sum(np.abs(blocks) ** 2, axis=1)
        probabilities = weights / weights.sum()
        readouts = rng.choice(1 << len(checks), size=len(members),
                              p=probabilities)
        passed = np.array(members)[readouts == target]
        if passed.size:
            collapsed = blocks[target] / math.sqrt(weights[target])
            values[passed] = StateVector(collapsed, n).expectation(h)
            accepted[passed] = True
    kept = values[accepted]
    if not kept.size:
        raise AllShotsRejected(f"all {shots} shots failed the parity checks")
    return _mean_estimate(kept), len(kept) / shots

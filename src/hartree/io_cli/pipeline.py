"""End-to-end molecular runs: ingest, reduce, encode, taper, solve, emit.

A RunConfig names the problem and one solve method; run_pipeline executes
the stages in order, logging the size of every intermediate (orbitals,
qubits, Pauli terms, parameters) and returning a JSON-ready document. The
same config always produces byte-identical output: stochastic methods must
carry a seed, and nothing time- or host-dependent enters the document.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..encoding import JW, VARIANTS, EncodingScheme, encode_operator
from ..fermion import (
    FermionSum,
    MolecularIntegrals,
    build_molecular_hamiltonian,
    hf_energy,
    hf_occupation,
    uccsd_generators,
)
from ..mitigation import (
    decomposition_for_noise,
    extrapolate_exponential,
    extrapolate_linear,
    noise_scaled_series,
    noisy_expectation,
    occupation_checks,
    pec_estimate,
    stabiliser_postselect,
)
from ..pauli import PauliString, PauliSum
from ..reduction import (
    DEFAULT_LOWER_NOON,
    DEFAULT_UPPER_NOON,
    reduce_problem,
    sector_for,
    taper_two_qubits,
)
from ..simulator import (
    NoiseModel,
    ShotEstimate,
    StateVector,
    default_window,
    make_rng,
    qpe_distribution,
    split_rng,
)
from ..spectra import qse_solve
from ..vqe import (
    HAMILTONIAN_VARIATIONAL,
    HARDWARE_EFFICIENT,
    LDCA,
    SPSA,
    UCCSD,
    Ansatz,
    HamiltonianParts,
    OptimizerConfig,
    build_hamiltonian_variational,
    build_hardware_efficient,
    build_ldca,
    build_uccsd,
    optimize,
    preparation_gates,
)
from .fixtures import FIXTURES, H2_CURVE, load_problem
from .oracle import exact_eigensolve, ground_state

EXACT = "exact"
VQE = "vqe"
QPE = "qpe"
SPECTRUM = "spectrum"
MITIGATE = "mitigate"
METHODS = (EXACT, VQE, QPE, SPECTRUM, MITIGATE)

LINEAR = "linear"
EXPONENTIAL = "exponential"
PEC = "pec"
POSTSELECT = "postselect"
TECHNIQUES = (LINEAR, EXPONENTIAL, PEC, POSTSELECT)

ANSATZ_FAMILIES = (UCCSD, HARDWARE_EFFICIENT, HAMILTONIAN_VARIATIONAL, LDCA)
CURVE_METHODS = ("hf", "fci", VQE)


class StageFailure(RuntimeError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, error: Exception):
        self.stage = stage
        self.error = error
        super().__init__(f"{stage}: {error}")


@dataclass(frozen=True)
class RunConfig:
    """One pipeline invocation: problem source, transformations, solver."""

    fixture: str | None = None
    fcidump_path: str | None = None
    encoding: str = JW
    taper: bool = False
    reduce: bool = False
    noon_lower: float = DEFAULT_LOWER_NOON
    noon_upper: float = DEFAULT_UPPER_NOON
    method: str = EXACT
    ansatz: str = UCCSD
    layers: int = 1
    optimizer: OptimizerConfig = OptimizerConfig()
    shots: int | None = None
    noise_p1: float = 0.0
    noise_p2: float = 0.0
    trajectories: int = 512
    n_ancilla: int = 8
    qpe_trotter: int = 0
    qpe_samples: int = 0
    k: int = 4
    technique: str = LINEAR
    scales: tuple[float, ...] = (1.0, 2.0, 3.0)
    samples: int = 2000
    seed: int | None = None
    out: str | None = None

    def __post_init__(self):
        if (self.fixture is None) == (self.fcidump_path is None):
            raise ValueError("pass exactly one of fixture / fcidump_path")
        if self.fixture is not None and self.fixture not in FIXTURES:
            raise ValueError(f"unknown fixture {self.fixture!r}")
        if self.fcidump_path is not None and not Path(self.fcidump_path).is_file():
            raise ValueError(f"no such FCIDUMP file: {self.fcidump_path}")
        if self.encoding not in VARIANTS:
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.ansatz not in ANSATZ_FAMILIES:
            raise ValueError(f"unknown ansatz family {self.ansatz!r}")
        if self.technique not in TECHNIQUES:
            raise ValueError(f"unknown technique {self.technique!r}")
        for name in ("layers", "trajectories", "n_ancilla", "k", "samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be positive when given")
        for name in ("noise_p1", "noise_p2"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        object.__setattr__(self, "scales",
                           tuple(float(s) for s in self.scales))
        if self.seed is None and self._is_stochastic():
            raise ValueError("stochastic runs need an explicit seed")

    def _is_stochastic(self) -> bool:
        if self.shots is not None or self.noise_p1 > 0 or self.noise_p2 > 0:
            return True
        if self.method == MITIGATE or self.qpe_samples > 0:
            return True
        if self.method == VQE and (self.optimizer.method == SPSA
                                   or self.ansatz in (HARDWARE_EFFICIENT, LDCA)):
            return True
        return False

    def noise_model(self) -> NoiseModel | None:
        if self.noise_p1 == 0.0 and self.noise_p2 == 0.0:
            return None
        return NoiseModel(self.noise_p1, self.noise_p2)


def config_document(config: RunConfig) -> dict:
    """JSON-ready echo of the configuration."""
    document = asdict(config)
    document["scales"] = list(config.scales)
    return document


def document_json(document: Mapping) -> str:
    """Canonical serialization: sorted keys, fixed separators, newline end."""
    return json.dumps(document, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def _run_stage(stage: str, action: Callable):
    try:
        return action()
    except StageFailure:
        raise
    except Exception as error:
        raise StageFailure(stage, error) from error


def _estimate_document(estimate: ShotEstimate) -> dict:
    return {"mean": float(estimate.mean),
            "std_error": float(estimate.std_error),
            "shots": int(estimate.shots)}


def _build_ansatz(config: RunConfig, ints: MolecularIntegrals,
                  scheme: EncodingScheme, ferm: FermionSum,
                  n_solve: int) -> Ansatz:
    if config.taper and config.ansatz != HARDWARE_EFFICIENT:
        raise ValueError("tapered registers support the hardware-efficient "
                         "family only; rerun without --taper or with "
                         f"ansatz={HARDWARE_EFFICIENT!r}")
    if config.ansatz == UCCSD:
        reference = hf_occupation(ints)
        occupied = reference.occupied()
        virtual = [p for p in range(ints.m) if p not in occupied]
        generators = uccsd_generators(ints.m, occupied, virtual)
        return build_uccsd(generators, scheme, reference,
                           trotter_steps=config.layers)
    if config.ansatz == HARDWARE_EFFICIENT:
        return build_hardware_efficient(n_solve, config.layers)
    if config.ansatz == HAMILTONIAN_VARIATIONAL:
        parts = HamiltonianParts.from_fermion(ferm, scheme)
        prep = preparation_gates(hf_occupation(ints), scheme)
        return build_hamiltonian_variational(parts, config.layers, prep)
    return build_ldca(n_solve, config.layers)


def _solve_exact(config: RunConfig, h: PauliSum, n: int) -> dict:
    k = min(config.k, 1 << n)
    values = exact_eigensolve(h, k=k, n_qubits=n)
    return {"method": EXACT,
            "energies": [float(v) for v in values],
            "ground": float(values[0])}


def _solve_vqe(config: RunConfig, ints: MolecularIntegrals,
               scheme: EncodingScheme, ferm: FermionSum, h: PauliSum,
               n: int, record: Callable) -> dict:
    ansatz = _build_ansatz(config, ints, scheme, ferm, n)
    record("ansatz", family=config.ansatz, parameters=ansatz.n_params,
           gates=len(ansatz.combined().gates))
    result = optimize(ansatz, h, config.optimizer, shots=config.shots,
                      noise=config.noise_model(), rng=make_rng(config.seed),
                      trajectories=config.trajectories)
    oracle = float(exact_eigensolve(h, k=1, n_qubits=n)[0])
    return {"method": VQE,
            "family": config.ansatz,
            "energy": float(result.best_energy),
            "oracle_ground": oracle,
            "error_to_oracle": float(result.best_energy - oracle),
            "converged": bool(result.converged),
            "evaluations": int(result.trace[-1][1]) if result.trace else 0,
            "shots_used": int(result.shots_used),
            "parameters": [float(v) for v in result.best_params],
            "trace": [[float(e), int(c)] for e, c in result.trace]}


def _solve_qpe(config: RunConfig, h: PauliSum, n: int) -> dict:
    energy0, vector = ground_state(h, n_qubits=n)
    window = default_window(h)
    energies, probabilities = qpe_distribution(
        StateVector(vector, n), h, config.n_ancilla,
        trotter_steps=config.qpe_trotter, window=window)
    modal = float(energies[int(np.argmax(probabilities))])
    document = {"method": QPE,
                "ancillas": config.n_ancilla,
                "oracle_ground": float(energy0),
                "modal_energy": modal,
                "bin_width": float(window.span / (1 << config.n_ancilla)),
                "window": {"lower": float(window.lower),
                           "upper": float(window.upper)}}
    if config.qpe_samples > 0:
        rng = make_rng(config.seed)
        drawn = rng.choice(len(energies), size=config.qpe_samples,
                           p=probabilities)
        values, counts = np.unique(drawn, return_counts=True)
        document["samples"] = int(config.qpe_samples)
        document["sample_modal_energy"] = float(
            energies[int(values[int(np.argmax(counts))])])
        document["sample_mean_energy"] = float(np.mean(energies[drawn]))
    return document


def _per_qubit_expansion(n: int) -> list[PauliString]:
    strings = [PauliString()]
    for q in range(n):
        strings.extend(PauliString.single(letter, q) for letter in "XYZ")
    return strings


def _solve_spectrum(config: RunConfig, h: PauliSum, n: int) -> dict:
    k = min(config.k, 1 << n)
    exact = exact_eigensolve(h, k=k, n_qubits=n)
    _, vector = ground_state(h, n_qubits=n)
    subspace = qse_solve(StateVector(vector, n), h, _per_qubit_expansion(n))
    return {"method": SPECTRUM,
            "exact": [float(v) for v in exact],
            "subspace": [float(v) for v in subspace[:k]],
            "expansion_size": 1 + 3 * n}


def _solve_mitigate(config: RunConfig, ints: MolecularIntegrals,
                    scheme: EncodingScheme, ferm: FermionSum, h: PauliSum,
                    n: int, record: Callable) -> dict:
    if config.technique == PEC and config.ansatz != HARDWARE_EFFICIENT:
        raise ValueError("probabilistic cancellation covers one- and "
                         "two-qubit gates; use the hardware-efficient ansatz")
    if config.technique == POSTSELECT:
        if config.encoding != JW or config.taper:
            raise ValueError("parity post-selection expects the untapered "
                             "occupation-number register")
        if config.ansatz not in (UCCSD, HAMILTONIAN_VARIATIONAL):
            raise ValueError("parity post-selection needs a particle-"
                             "conserving ansatz")
    noise = config.noise_model()
    if noise is None:
        raise ValueError("mitigation needs a nonzero noise model")

    ansatz = _build_ansatz(config, ints, scheme, ferm, n)
    record("ansatz", family=config.ansatz, parameters=ansatz.n_params,
           gates=len(ansatz.combined().gates))
    master = make_rng(config.seed)
    optimizer_rng, raw_rng, technique_rng = split_rng(master, 3)
    tuning = optimize(ansatz, h, config.optimizer, rng=optimizer_rng)
    theta = tuning.best_params
    circuit = ansatz.combined()
    oracle = float(tuning.best_energy)

    document = {"method": MITIGATE, "technique": config.technique,
                "oracle": oracle}
    if config.technique in (LINEAR, EXPONENTIAL):
        series = noise_scaled_series(circuit, theta, h, noise,
                                     config.scales, technique_rng,
                                     trajectories=config.trajectories)
        fit = (extrapolate_linear if config.technique == LINEAR
               else extrapolate_exponential)
        document["scales"] = list(config.scales)
        document["raw"] = _estimate_document(series.points[0][1])
        document["mitigated"] = _estimate_document(fit(series))
    elif config.technique == PEC:
        raw = noisy_expectation(circuit, theta, h, noise, raw_rng,
                                trajectories=config.trajectories)
        arities = sorted({len(g.support()) for g in circuit.gates
                          if g.support()})
        decompositions = decomposition_for_noise(noise, arities)
        mitigated = pec_estimate(circuit, theta, h, noise, decompositions,
                                 config.samples, technique_rng)
        document["raw"] = _estimate_document(raw)
        document["mitigated"] = _estimate_document(mitigated)
        document["gamma"] = {str(a): float(d.gamma)
                             for a, d in sorted(decompositions.items())}
    else:
        raw = noisy_expectation(circuit, theta, h, noise, raw_rng,
                                trajectories=config.samples)
        checks = occupation_checks(ints.m, ints.n_electrons, ints.n_up)
        mitigated, retained = stabiliser_postselect(
            circuit, theta, h, checks, noise, config.samples, technique_rng)
        document["raw"] = _estimate_document(raw)
        document["mitigated"] = _estimate_document(mitigated)
        document["retained_fraction"] = float(retained)
        document["checks"] = [{"kind": c.kind, "qubits": list(c.parity_qubits),
                               "expected": c.expected} for c in checks]
    document["raw_error"] = abs(document["raw"]["mean"] - oracle)
    document["mitigated_error"] = abs(document["mitigated"]["mean"] - oracle)
    return document


def run_pipeline(config: RunConfig) -> dict:
    """Execute every configured stage and return the result document."""
    stages: list[dict] = []

    def record(stage: str, **counts):
        stages.append({"stage": stage, **counts})

    ints = _run_stage("ingest", lambda: load_problem(config.fixture,
                                                     config.fcidump_path))
    record("ingest", spin_orbitals=ints.m, electrons=ints.n_electrons,
           spin_up=ints.n_up, core_energy=float(ints.core_energy))

    if config.reduce:
        reduction = _run_stage("active-space", lambda: reduce_problem(
            ints, config.noon_lower, config.noon_upper))
        ints = reduction.integrals
        record("active-space", spin_orbitals=ints.m,
               frozen_occupied=list(reduction.space.frozen_occupied),
               removed_virtual=list(reduction.space.removed_virtual),
               noons=[float(v) for v in reduction.noons])

    def encode():
        scheme = EncodingScheme(config.encoding, ints.m)
        ferm = build_molecular_hamiltonian(ints)
        return scheme, ferm, encode_operator(ferm, scheme)

    scheme, ferm, h = _run_stage("encode", encode)
    record("encode", encoding=config.encoding, qubits=scheme.m,
           fermion_terms=len(ferm), pauli_terms=len(h))

    h_solve, n_solve = h, scheme.m
    if config.taper:
        h_solve = _run_stage("taper", lambda: taper_two_qubits(
            h, scheme, sector_for(ints.n_electrons, ints.n_up)))
        n_solve = scheme.m - 2
        record("taper", qubits=n_solve, pauli_terms=len(h_solve))

    def solve():
        if config.method == EXACT:
            return _solve_exact(config, h_solve, n_solve)
        if config.method == VQE:
            return _solve_vqe(config, ints, scheme, ferm, h_solve, n_solve,
                              record)
        if config.method == QPE:
            return _solve_qpe(config, h_solve, n_solve)
        if config.method == SPECTRUM:
            return _solve_spectrum(config, h_solve, n_solve)
        return _solve_mitigate(config, ints, scheme, ferm, h_solve, n_solve,
                               record)

    result = _run_stage("solve", solve)
    document = {"config": config_document(config), "stages": stages,
                "result": result}
    if config.out is not None:
        _run_stage("emit", lambda: Path(config.out).write_text(
            document_json(document)))
    return document


# ------------------------------------------------------------------- curves


@dataclass(frozen=True)
class CurveResult:
    """Energy-versus-bond-length rows, one per (method, geometry)."""

    rows: tuple[tuple[float, str, float, dict], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(
            (float(r), str(m), float(e), dict(meta))
            for r, m, e, meta in self.rows))
        last: dict[str, float] = {}
        for length, method, _, _ in self.rows:
            if method in last and length <= last[method]:
                raise ValueError(
                    f"bond lengths must strictly increase per method "
                    f"({method!r} at {length})")
            last[method] = length

    def methods(self) -> list[str]:
        seen = dict.fromkeys(method for _, method, _, _ in self.rows)
        return list(seen)

    def series(self, method: str) -> list[tuple[float, float]]:
        return [(length, energy) for length, m, energy, _ in self.rows
                if m == method]

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["bond_length", "method", "energy", "metadata"])
        for length, method, energy, metadata in self.rows:
            writer.writerow([repr(length), method, repr(energy),
                             json.dumps(metadata, sort_keys=True)])
        return buffer.getvalue()


def dissociation_curve(methods: Sequence[str] = ("hf", "fci"),
                       points: Sequence[tuple[float, str]] | None = None,
                       encoding: str = JW,
                       optimizer: OptimizerConfig | None = None,
                       seed: int | None = None) -> CurveResult:
    """Energies across geometries for each method over fixture points.

    ``points`` pairs a bond length in Ångström with a fixture name; the
    default sweeps the shipped H2 minimal-basis series. Methods: "hf"
    (mean-field reference), "fci" (dense oracle), "vqe" (exact-mode UCCSD).
    """
    for method in methods:
        if method not in CURVE_METHODS:
            raise ValueError(f"unknown curve method {method!r}")
    if points is None:
        points = H2_CURVE
    if optimizer is None:
        optimizer = OptimizerConfig(seed=seed)
    rows = []
    for method in methods:
        for length, fixture in points:
            ints = load_problem(fixture)
            metadata = {"fixture": fixture, "spin_orbitals": ints.m}
            if method == "hf":
                energy = hf_energy(ints)
            else:
                scheme = EncodingScheme(encoding, ints.m)
                h = encode_operator(build_molecular_hamiltonian(ints), scheme)
                metadata["pauli_terms"] = len(h)
                if method == "fci":
                    energy = float(exact_eigensolve(h, k=1,
                                                    n_qubits=scheme.m)[0])
                else:
                    occupied = hf_occupation(ints).occupied()
                    virtual = [p for p in range(ints.m)
                               if p not in occupied]
                    ansatz = build_uccsd(
                        uccsd_generators(ints.m, occupied, virtual), scheme,
                        hf_occupation(ints))
                    result = optimize(ansatz, h, optimizer,
                                      rng=make_rng(seed))
                    energy = float(result.best_energy)
                    metadata["converged"] = bool(result.converged)
            rows.append((length, method, float(energy), metadata))
    return CurveResult(tuple(rows))

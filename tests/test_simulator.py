"""Statevector simulation: gates, evolution, sampling, noise, QPE."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

from conftest import random_state
from hartree.encoding import JW, PARITY, EncodingScheme, encode_operator
from hartree.fermion import build_molecular_hamiltonian
from hartree.io_cli import load_fixture
from hartree.pauli import NonHermitian, PauliString, PauliSum, to_matrix
from hartree.reduction import sector_for, taper_two_qubits
from hartree.simulator import (
    BadTarget,
    Circuit,
    EnergyWindow,
    Gate,
    NoiseModel,
    StateVector,
    TooManyQubits,
    ZeroOverlap,
    adiabatic_prepare,
    apply_gate,
    apply_pauli_exponential,
    default_window,
    density_matrix_reference,
    expectation_from_density,
    gate_unitary,
    imaginary_time_evolve,
    make_rng,
    noisy_states,
    qpe_distribution,
    qpe_sample,
    run_circuit,
    run_noisy_trajectory,
    sample_expectation,
    split_rng,
    trajectory_states,
    trotter_evolve,
)

H2_FCI_ENERGY = -1.137270

SINGLE = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
}


def embedded(u: np.ndarray, q: int, n: int) -> np.ndarray:
    """Kronecker embedding with qubit 0 as the least-significant factor."""
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(u, out) if k == q else np.kron(np.eye(2), out)
    return out


def tapered_h2() -> PauliSum:
    ints = load_fixture("h2_sto3g_0.7414")
    scheme = EncodingScheme(PARITY, 4)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    return taper_two_qubits(h, scheme, sector_for(ints.n_electrons, ints.n_up))


# ----------------------------------------------------------------------- gates


def test_hadamard_makes_equal_superposition():
    psi = run_circuit(Circuit(1).h(0))
    assert np.allclose(psi.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)])


def test_hadamard_cnot_makes_bell_pair():
    psi = run_circuit(Circuit(2).h(0).cnot(0, 1))
    assert np.allclose(psi.amplitudes,
                       [math.sqrt(0.5), 0.0, 0.0, math.sqrt(0.5)])


def test_rz_full_turn_is_global_minus():
    before = run_circuit(Circuit(1).h(0))
    after = apply_gate(before, Gate("rz", (0,), angle=2 * math.pi))
    assert np.allclose(after.amplitudes, -before.amplitudes)
    assert np.allclose(after.probabilities(), before.probabilities())


def test_fixed_gates_match_kron_oracle(rng):
    psi = random_state(rng, 3)
    for kind, u in SINGLE.items():
        for q in range(3):
            got = apply_gate(StateVector(psi, 3), Gate(kind, (q,))).amplitudes
            assert np.allclose(got, embedded(u, q, 3) @ psi, atol=1e-12), (kind, q)


def test_rotations_match_matrix_exponentials(rng):
    psi = random_state(rng, 2)
    for kind, axis in (("rx", SINGLE["x"]), ("ry", SINGLE["y"]), ("rz", SINGLE["z"])):
        for _ in range(5):
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            q = int(rng.integers(0, 2))
            got = apply_gate(StateVector(psi, 2),
                             Gate(kind, (q,), angle=angle)).amplitudes
            want = embedded(scipy.linalg.expm(-0.5j * angle * axis), q, 2) @ psi
            assert np.allclose(got, want, atol=1e-12)


def test_cnot_truth_table_on_embedded_pair():
    # control 2, target 0 inside a 3-qubit register
    for j in range(8):
        got = apply_gate(StateVector.basis(3, j), Gate("cnot", (2, 0))).amplitudes
        want = j ^ 1 if (j >> 2) & 1 else j
        assert got[want] == pytest.approx(1.0)


def test_cz_is_symmetric_phase():
    for j in range(4):
        got = apply_gate(StateVector.basis(2, j), Gate("cz", (0, 1))).amplitudes
        sign = -1.0 if j == 3 else 1.0
        assert got[j] == pytest.approx(sign)
    forward = gate_unitary(Gate("cz", (0, 1)), 2)
    backward = gate_unitary(Gate("cz", (1, 0)), 2)
    assert np.allclose(forward, backward)


def test_bad_targets_rejected():
    with pytest.raises(BadTarget):
        Circuit(2).x(2)
    with pytest.raises(BadTarget):
        Circuit(2).cnot(1, 1)
    with pytest.raises(BadTarget):
        apply_gate(StateVector.zero(1), Gate("h", (3,)))
    with pytest.raises(BadTarget):
        Circuit(3).cexp(0, PauliString.from_text("X0 Z1"))


# --------------------------------------------------------- Pauli exponentials


def test_exponential_at_zero_is_identity(rng):
    psi = random_state(rng, 3)
    got = apply_pauli_exponential(StateVector(psi, 3),
                                  PauliString.from_text("X0 Z2"), 0.0)
    assert np.allclose(got.amplitudes, psi)


def test_exponential_z_half_pi_is_global_phase():
    got = apply_pauli_exponential(StateVector.zero(1),
                                  PauliString.from_text("Z0"), math.pi / 2)
    assert got.amplitudes[0] == pytest.approx(1j)
    assert got.probabilities()[0] == pytest.approx(1.0)


def test_exponential_matches_dense_exponential(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        psi = random_state(rng, n)
        string = PauliString(int(rng.integers(0, 1 << n)),
                             int(rng.integers(0, 1 << n)))
        phi = float(rng.uniform(-3, 3))
        got = apply_pauli_exponential(StateVector(psi, n), string, phi)
        dense = scipy.linalg.expm(
            1j * phi * to_matrix(PauliSum({string: 1.0}), n))
        assert np.max(np.abs(got.amplitudes - dense @ psi)) < 1e-12


def test_single_excitation_exponential_reaches_h2_ground():
    ints = load_fixture("h2_sto3g_0.7414", ordering="interleaved")
    h = encode_operator(build_molecular_hamiltonian(ints), EncodingScheme(JW, 4))
    generator = PauliString.from_text("Y0 X1 X2 X3")
    reference = StateVector.basis(4, 0b0011)

    def energy(theta: float) -> float:
        return apply_pauli_exponential(reference, generator, -theta).expectation(h)

    result = minimize_scalar(energy, bounds=(-1.0, 1.0), method="bounded",
                             options={"xatol": 1e-12})
    exact = np.linalg.eigvalsh(to_matrix(h, 4))[0]
    assert result.fun == pytest.approx(exact, abs=1e-9)
    assert result.fun == pytest.approx(H2_FCI_ENERGY, abs=1e-6)
    state = apply_pauli_exponential(reference, generator, -result.x).amplitudes
    assert state[0b0011].real == pytest.approx(0.9939, abs=5e-3)
    assert state[0b1100].real == pytest.approx(-0.1106, abs=5e-3)
    assert np.max(np.abs(np.delete(state, [0b0011, 0b1100]))) < 1e-12


# ----------------------------------------------------------- circuits, params


def test_parameter_slots_resolve_with_scale():
    circuit = Circuit(1).rx(0, slot=0).rz(0, slot=1, scale=0.5)
    assert circuit.n_params == 2
    got = run_circuit(circuit, [0.3, 0.8])
    want = run_circuit(Circuit(1).rx(0, angle=0.3).rz(0, angle=0.4))
    assert np.allclose(got.amplitudes, want.amplitudes)


def test_missing_parameters_raise():
    circuit = Circuit(1).rx(0, slot=0)
    with pytest.raises(ValueError):
        run_circuit(circuit)
    with pytest.raises(ValueError):
        Gate("rx", (0,)).resolve_angle(None)


def test_sparse_slots_rejected():
    circuit = Circuit(1).rx(0, slot=0).ry(0, slot=2)
    with pytest.raises(ValueError):
        circuit.n_params


def test_random_circuits_preserve_norm(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        circuit = Circuit(n)
        for _ in range(15):
            kind = rng.choice(["x", "h", "t", "rx", "ry", "rz", "cnot", "exp"])
            if kind == "cnot" and n < 2:
                kind = "z"
            if kind == "cnot":
                pair = rng.choice(n, size=2, replace=False)
                circuit.cnot(int(pair[0]), int(pair[1]))
            elif kind in ("rx", "ry", "rz"):
                circuit.add(Gate(kind, (int(rng.integers(0, n)),),
                                 angle=float(rng.uniform(-3, 3))))
            elif kind == "exp":
                circuit.exp(PauliString(int(rng.integers(1, 1 << n)),
                                        int(rng.integers(0, 1 << n))),
                            angle=float(rng.uniform(-3, 3)))
            else:
                circuit.add(Gate(kind, (int(rng.integers(0, n)),)))
        psi = run_circuit(circuit, psi0=StateVector(random_state(rng, n), n))
        assert abs(psi.norm() - 1.0) < 1e-10


# --------------------------------------------------------------------- Trotter


def test_trotter_single_term_exact():
    h = PauliSum.from_text({"X0 Z1": 0.7})
    exact = scipy.linalg.expm(-1j * 2.0 * to_matrix(h, 2))
    psi0 = run_circuit(Circuit(2).h(0).t(1))
    for steps in (1, 3):
        got = trotter_evolve(psi0, h, 2.0, steps)
        assert np.max(np.abs(got.amplitudes - exact @ psi0.amplitudes)) < 1e-12


def test_trotter_commuting_terms_exact_in_one_step():
    h = PauliSum.from_text({"Z0": 0.4, "Z1": -0.9, "Z0 Z1": 0.3, "I": 0.2})
    exact = scipy.linalg.expm(-1j * 1.7 * to_matrix(h, 2))
    psi0 = run_circuit(Circuit(2).h(0).h(1))
    got = trotter_evolve(psi0, h, 1.7, 1)
    assert np.max(np.abs(got.amplitudes - exact @ psi0.amplitudes)) < 1e-12


def test_trotter_first_order_error_slope():
    h = PauliSum.from_text({"X0": 1.0, "Z0": 1.0})
    exact = scipy.linalg.expm(-1j * to_matrix(h, 1)) @ np.array([1.0, 0.0])
    counts = np.array([4, 8, 16, 32, 64, 128])
    errors = []
    for steps in counts:
        got = trotter_evolve(StateVector.zero(1), h, 1.0, int(steps))
        errors.append(np.linalg.norm(got.amplitudes - exact))
    slope = np.polyfit(np.log(counts), np.log(errors), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_trotter_conserves_generator_energy_for_commuting_terms():
    h = PauliSum.from_text({"Z0": 0.8, "Z0 Z1": -0.5})
    psi = run_circuit(Circuit(2).h(0).h(1))
    start = psi.expectation(h)
    evolved = trotter_evolve(psi, h, 5.0, 7)
    assert abs(evolved.expectation(h) - start) < 1e-8


def test_trotter_validation():
    h = PauliSum.from_text({"X0": 1.0})
    with pytest.raises(ValueError):
        trotter_evolve(StateVector.zero(1), h, 1.0, 0)
    with pytest.raises(NonHermitian):
        trotter_evolve(StateVector.zero(1), PauliSum.from_text({"X0": 1j}), 1.0, 1)


# ------------------------------------------------------------------- adiabatic


def test_adiabatic_fixed_point_when_endpoints_equal():
    h = PauliSum.from_text({"Z0": 1.0, "Z0 Z1": 0.5})
    psi0 = StateVector.basis(2, 3)
    final = adiabatic_prepare(h, h, 20.0, 100, psi0)
    assert abs(abs(final.overlap(psi0)) - 1.0) < 1e-8


def test_adiabatic_zero_time_is_identity(rng):
    psi0 = StateVector(random_state(rng, 2), 2)
    h0 = PauliSum.from_text({"Z0": 1.0})
    hs = PauliSum.from_text({"X0": 1.0, "X1": 0.3})
    final = adiabatic_prepare(h0, hs, 0.0, 100, psi0)
    assert np.allclose(final.amplitudes, psi0.amplitudes)


def test_adiabatic_sweep_prepares_h2_ground():
    h = tapered_h2()
    h0 = PauliSum.from_text({"Z0": 1.0, "Z1": -1.0})
    final = adiabatic_prepare(h0, h, 50.0, 500, StateVector.basis(2, 1))
    _, vectors = np.linalg.eigh(to_matrix(h, 2))
    overlap = abs(np.vdot(vectors[:, 0], final.amplitudes)) ** 2
    assert overlap > 0.99


# -------------------------------------------------------------------- sampling


def test_sampling_deterministic_outcome_has_zero_error():
    estimate = sample_expectation(StateVector.zero(1),
                                  PauliSum.from_text({"Z0": 1.0}),
                                  500, make_rng(0))
    assert estimate.mean == 1.0
    assert estimate.std_error == 0.0
    assert estimate.shots == 500


def test_sampling_symmetric_observable_is_centered():
    estimate = sample_expectation(StateVector.zero(1),
                                  PauliSum.from_text({"X0": 1.0}),
                                  10_000, make_rng(3))
    assert abs(estimate.mean) <= 3.0 / math.sqrt(10_000)


def test_sampling_h2_ground_within_three_sigma_and_error_halves():
    ints = load_fixture("h2_sto3g_0.7414")
    h = encode_operator(build_molecular_hamiltonian(ints), EncodingScheme(JW, 4))
    values, vectors = np.linalg.eigh(to_matrix(h, 4))
    ground = StateVector(vectors[:, 0], 4)
    coarse = sample_expectation(ground, h, 2500, make_rng(11))
    fine = sample_expectation(ground, h, 10_000, make_rng(12))
    assert abs(fine.mean - values[0]) < 3.0 * fine.std_error
    ratio = fine.std_error / coarse.std_error
    assert 0.4 <= ratio <= 0.6


def test_sampling_grand_mean_is_unbiased(rng):
    psi = StateVector(random_state(rng, 1), 1)
    h = PauliSum.from_text({"X0": 0.7, "Z0": -0.4})
    exact = psi.expectation(h)
    rng = make_rng(99)
    estimates = np.array(
        [sample_expectation(psi, h, 100, rng).mean for _ in range(200)])
    grand_se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - exact) < 4.0 * grand_se


def test_sampling_validation():
    psi = StateVector.zero(1)
    with pytest.raises(ValueError):
        sample_expectation(psi, PauliSum.from_text({"Z0": 1.0}), 0, make_rng(0))
    with pytest.raises(NonHermitian):
        sample_expectation(psi, PauliSum.from_text({"Z0": 1j}), 10, make_rng(0))


# ----------------------------------------------------------------------- noise


def test_zero_noise_reduces_to_pure_circuit():
    circuit = Circuit(2).h(0).cnot(0, 1).rx(1, angle=0.4)
    clean = run_circuit(circuit)
    noisy = run_noisy_trajectory(circuit, None, NoiseModel(), make_rng(0))
    assert np.allclose(noisy.amplitudes, clean.amplitudes)


def test_full_single_qubit_noise_flips_bloch_sign():
    # X then a uniform XYZ kick sends the Bloch vector z -> -z/3: <Z> = +1/3.
    circuit = Circuit(1).x(0)
    z = PauliSum.from_text({"Z0": 1.0})
    rho = density_matrix_reference(circuit, None, NoiseModel(p1=1.0))
    assert expectation_from_density(rho, z) == pytest.approx(1.0 / 3.0, abs=1e-12)
    streams = split_rng(make_rng(20260816), 10_000)
    values = np.array([
        run_noisy_trajectory(circuit, None, NoiseModel(p1=1.0), g).expectation(z)
        for g in streams])
    sigma = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - 1.0 / 3.0) < 3.0 * sigma


def test_trajectory_average_matches_density_oracle():
    circuit = Circuit(2).h(0).cnot(0, 1).rx(1, angle=0.7).t(0).cz(0, 1)
    noise = NoiseModel(p1=0.1, p2=0.15)
    observable = PauliSum.from_text({"Z0": 1.0, "Z0 Z1": 0.5, "X1": 0.25})
    target = expectation_from_density(
        density_matrix_reference(circuit, None, noise), observable)
    streams = split_rng(make_rng(20260816), 10_000)
    values = np.array([
        run_noisy_trajectory(circuit, None, noise, g).expectation(observable)
        for g in streams])
    sigma = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - target) < 3.0 * sigma


def test_fixed_seed_reproduces_everything():
    circuit = Circuit(2).h(0).cnot(0, 1).ry(0, angle=1.1)
    noise = NoiseModel(p1=0.3, p2=0.4)
    first = run_noisy_trajectory(circuit, None, noise, make_rng(17))
    second = run_noisy_trajectory(circuit, None, noise, make_rng(17))
    assert np.array_equal(first.amplitudes, second.amplitudes)
    h = PauliSum.from_text({"X0": 1.0, "Z1": 0.5})
    psi = run_circuit(circuit)
    assert sample_expectation(psi, h, 300, make_rng(4)) == \
        sample_expectation(psi, h, 300, make_rng(4))


def per_gate_trajectory(circuit, theta, noise, rng, psi0=None):
    """Reference: evolve gate by gate, drawing each gate's error as it runs."""
    psi = StateVector.zero(circuit.n_qubits) if psi0 is None else psi0.copy()
    for gate in circuit.gates:
        psi = apply_gate(psi, gate, theta)
        support = gate.support()
        rate = noise.rate_for(len(support))
        if rate > 0.0 and rng.random() < rate:
            code = int(rng.integers(1, 4 ** len(support)))
            x = z = 0
            for q in support:
                digit, code = code & 3, code >> 2
                x |= (digit in (1, 3)) << q
                z |= (digit in (2, 3)) << q
            psi = StateVector(PauliString(x, z).apply(psi.amplitudes), psi.n)
    return psi.renormalized()


def mixed_circuit() -> Circuit:
    return (Circuit(3).h(0).cnot(0, 1).rx(2, slot=0).t(1)
            .exp(PauliString.from_text("X0 Y1 Z2"), slot=1).cz(1, 2)
            .cexp(2, PauliString.from_text("Y0"), angle=0.4).ry(0, angle=-0.9))


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 1.0])
@pytest.mark.parametrize("start", [None, "random"])
def test_trajectory_engine_matches_per_gate_loop_bit_for_bit(p, start):
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    noise = NoiseModel(p1=p, p2=p)
    psi0 = None if start is None else \
        StateVector(random_state(make_rng(99), 3), 3)
    for seed in (1, 2, 3):
        streams = split_rng(make_rng(seed), 40)
        finals = {}
        for members, psi in noisy_states(circuit, theta, noise, streams, psi0):
            finals.update(dict.fromkeys(members, psi.amplitudes))
        assert sorted(finals) == list(range(40))
        for k, reference in enumerate(split_rng(make_rng(seed), 40)):
            expected = per_gate_trajectory(circuit, theta, noise, reference,
                                           psi0)
            assert np.array_equal(finals[k], expected.amplitudes)
            # Later draws from the stream, as reductions make, match too.
            assert streams[k].bit_generator.state == \
                reference.bit_generator.state
        single = run_noisy_trajectory(circuit, theta, noise,
                                      make_rng(seed), psi0)
        expected = per_gate_trajectory(circuit, theta, noise, make_rng(seed),
                                       psi0)
        assert np.array_equal(single.amplitudes, expected.amplitudes)


def test_trajectory_engine_applies_kicks_in_order():
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    kicks = [(1, PauliString.from_text("X0")), (1, PauliString.from_text("Z1")),
             (4, PauliString.from_text("Y2")), (7, PauliString.from_text("X1"))]
    psi = StateVector.zero(3)
    for index, gate in enumerate(circuit.gates):
        psi = apply_gate(psi, gate, theta)
        for at, error in kicks:
            if at == index:
                psi = StateVector(error.apply(psi.amplitudes), 3)
    groups = list(trajectory_states(circuit, theta, [kicks, []]))
    assert [members for members, _ in groups] == [[0], [1]]
    assert np.array_equal(groups[0][1].amplitudes, psi.amplitudes)
    assert np.array_equal(groups[1][1].amplitudes,
                          run_circuit(circuit, theta).amplitudes)


def test_error_free_share_is_binomial():
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    noise = NoiseModel(p1=0.02, p2=0.05)
    trials = 4000
    groups = list(noisy_states(circuit, theta, noise,
                               split_rng(make_rng(20261018), trials)))
    assert sorted(k for members, _ in groups for k in members) == \
        list(range(trials))
    # Every trajectory with an error ends in a state of its own; the
    # error-free ones share the last.
    assert all(len(members) == 1 for members, _ in groups[:-1])
    error_free = len(groups[-1][0])
    p_free = math.prod(1.0 - noise.rate_for(len(g.support()))
                       for g in circuit.gates)
    sigma = math.sqrt(trials * p_free * (1.0 - p_free))
    assert abs(error_free - trials * p_free) < 4.0 * sigma


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p1=1.5)
    with pytest.raises(ValueError):
        NoiseModel(p2=-0.1)


def test_density_oracle_pure_case_and_ceiling():
    circuit = Circuit(2).h(0).cnot(0, 1).t(1)
    rho = density_matrix_reference(circuit, None, NoiseModel())
    psi = run_circuit(circuit).amplitudes
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)
    with pytest.raises(TooManyQubits):
        density_matrix_reference(Circuit(5).x(0), None, NoiseModel())


def test_split_rng_streams_are_independent_and_stable():
    a, b = split_rng(make_rng(8), 2)
    draws_a, draws_b = a.random(4), b.random(4)
    assert not np.allclose(draws_a, draws_b)
    c, d = split_rng(make_rng(8), 2)
    assert np.array_equal(draws_a, c.random(4))
    assert np.array_equal(draws_b, d.random(4))


# ------------------------------------------------------------ phase estimation


def test_qpe_reads_exact_dyadic_phase():
    z = PauliSum.from_text({"Z0": 1.0})
    window = EnergyWindow(-1.0, 3.0)  # E=+1 -> phase 1/2, E=-1 -> phase 0
    sample = qpe_sample(StateVector.basis(1, 0), z, 1, 0, make_rng(0), window)
    assert sample == pytest.approx(1.0, abs=1e-12)
    energies, probs = qpe_distribution(StateVector.basis(1, 1), z, 2, 0, window)
    assert probs[np.isclose(energies, -1.0)].sum() == pytest.approx(1.0, abs=1e-12)


def test_qpe_single_ancilla_phase_half_reads_one():
    z = PauliSum.from_text({"Z0": 1.0})
    window = EnergyWindow(-1.0, 3.0)
    energies, probs = qpe_distribution(StateVector.basis(1, 0), z, 1, 0, window)
    assert np.allclose(probs, [0.0, 1.0], atol=1e-12)
    assert energies[1] == pytest.approx(1.0)


def test_qpe_superposition_splits_by_weight():
    z = PauliSum.from_text({"Z0": 1.0})
    window = EnergyWindow(-1.0, 3.0)
    amps = np.array([math.sqrt(0.25), math.sqrt(0.75)], dtype=complex)
    energies, probs = qpe_distribution(StateVector(amps, 1), z, 3, 0, window)
    assert probs[np.isclose(energies, 1.0)].sum() == pytest.approx(0.25, abs=1e-12)
    assert probs[np.isclose(energies, -1.0)].sum() == pytest.approx(0.75, abs=1e-12)


def test_qpe_trotterized_backend_agrees_when_terms_commute():
    h = PauliSum.from_text({"Z0": 0.4, "Z0 Z1": 0.3})
    window = EnergyWindow(-1.0, 1.0)
    psi = run_circuit(Circuit(2).h(0))
    exact = qpe_distribution(psi, h, 4, 0, window)
    trotter = qpe_distribution(psi, h, 4, 1, window)
    assert np.allclose(exact[1], trotter[1], atol=1e-12)


def test_qpe_h2_modal_bin_hits_ground_energy():
    h = tapered_h2()
    window = default_window(h)
    ground = np.linalg.eigvalsh(to_matrix(h, 2))[0]
    energies, probs = qpe_distribution(StateVector.basis(2, 1), h, 10, 0, window)
    modal = energies[np.argmax(probs)]
    assert abs(window.to_phase(modal) - window.to_phase(ground)) <= 2 ** -10
    samples = [qpe_sample(StateVector.basis(2, 1), h, 6, 0, make_rng(s), window)
               for s in range(20)]
    assert abs(np.median(samples) - ground) < window.span * 2 ** -6


def test_qpe_validation():
    z = PauliSum.from_text({"Z0": 1.0})
    with pytest.raises(ValueError):
        qpe_distribution(StateVector.zero(1), z, 0, 0)
    with pytest.raises(NonHermitian):
        qpe_distribution(StateVector.zero(1), PauliSum.from_text({"Z0": 1j}), 2, 0)
    with pytest.raises(TooManyQubits):
        qpe_distribution(StateVector.zero(16), PauliSum.identity(1.0, 16), 10, 0)
    with pytest.raises(ValueError):
        EnergyWindow(1.0, 1.0)


def test_default_window_contains_spectrum():
    h = tapered_h2()
    window = default_window(h)
    values = np.linalg.eigvalsh(to_matrix(h, 2))
    assert window.lower <= values[0] and values[-1] < window.upper


# -------------------------------------------------------------- imaginary time


def test_imaginary_time_ground_state_is_fixed_point():
    psi = StateVector.basis(1, 1)  # ground of Z0
    out = imaginary_time_evolve(psi, PauliSum.from_text({"Z0": 1.0}), 3.0, 5)
    assert abs(abs(out.overlap(psi)) - 1.0) < 1e-12


def test_imaginary_time_projects_onto_minimum():
    plus = StateVector(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2), 1)
    out = imaginary_time_evolve(plus, PauliSum.from_text({"Z0": 1.0}), 20.0, 10)
    assert abs(out.amplitudes[1]) == pytest.approx(1.0, abs=1e-8)


def test_imaginary_time_h2_hf_converges_to_fci():
    ints = load_fixture("h2_sto3g_0.7414")
    h = encode_operator(build_molecular_hamiltonian(ints), EncodingScheme(JW, 4))
    hf = StateVector.basis(4, 0b0101)
    out = imaginary_time_evolve(hf, h, 10.0, 20)
    assert out.expectation(h) == pytest.approx(H2_FCI_ENERGY, abs=1e-6)


def test_imaginary_time_norm_floor():
    psi = StateVector.zero(1)  # +1 eigenstate decays as exp(-tau)
    with pytest.raises(ZeroOverlap):
        imaginary_time_evolve(psi, PauliSum.from_text({"Z0": 1.0}), 40.0, 1)


# ------------------------------------------------------------------ registers


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), 1)
    with pytest.raises(TooManyQubits):
        StateVector.zero(25)
    with pytest.raises(ValueError):
        StateVector.basis(2, 4)

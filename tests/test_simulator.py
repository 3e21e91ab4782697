"""Statevector simulation: gates, evolution, sampling, noise, QPE."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize_scalar

from conftest import (
    dense_fourier_readout,
    density_matrix_reference,
    expectation_from_density,
    expm_imaginary_time,
    gate_unitary,
    kron_string_matrix,
    matrix_gate_apply,
    per_gate_apply,
    per_gate_inverse,
    per_gate_trajectory,
    per_term_sample_expectation,
    per_term_sample_means,
    per_term_trotter_register,
    power_matrix_qpe,
    random_pauli_string,
    random_state,
    same_bits,
    scatter_apply,
    trajectory_replays,
)
from hartree import simulator
from hartree.encoding import JW, PARITY, EncodingScheme, encode_operator
from hartree.fermion import build_molecular_hamiltonian
from hartree.io_cli import load_fixture
from hartree.pauli import (
    BYTE_BUDGET,
    NonHermitian,
    PauliString,
    PauliSum,
    TooLarge,
    matrix_bytes,
    to_matrix,
)
from hartree.reduction import sector_for, taper_two_qubits
from hartree.simulator import (
    EIGH_MATRICES,
    REGISTER_BYTES,
    BadTarget,
    Circuit,
    CompiledCircuit,
    EnergyWindow,
    Gate,
    NoiseModel,
    StateVector,
    ZeroOverlap,
    adiabatic_prepare,
    apply_gate,
    compile_circuit,
    default_window,
    depolarizing_kicks,
    imaginary_time_evolve,
    make_rng,
    noisy_states,
    qpe_bytes,
    qpe_distribution,
    qpe_sample,
    run_circuit,
    run_noisy_trajectory,
    sample_expectation,
    sample_means,
    split_rng,
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


# ------------------------------------------------------ compiled vs per-gate


def every_gate(n: int, rng: np.random.Generator) -> list[Gate]:
    """Every gate kind on every target position of an n-qubit register."""
    gates = []
    for q in range(n):
        gates += [Gate(kind, (q,)) for kind in ("x", "y", "z", "h", "t")]
        for kind in ("rx", "ry", "rz"):
            gates += [Gate(kind, (q,), slot=0, scale=-0.7),
                      Gate(kind, (q,), angle=float(rng.uniform(-3, 3)))]
    for a in range(n):
        gates += [Gate(kind, (a, b)) for b in range(n) if b != a
                  for kind in ("cnot", "cz")]
    gates.append(Gate("exp", (), angle=0.37, string=PauliString()))
    for _ in range(4):
        string = PauliString(int(rng.integers(1, 1 << n)),
                             int(rng.integers(0, 1 << n)))
        gates.append(Gate("exp", (), slot=0, scale=1.3, string=string))
    for control in range(n):
        others = ((1 << n) - 1) ^ (1 << control)
        string = PauliString(int(rng.integers(0, 1 << n)) & others,
                             int(rng.integers(0, 1 << n)) & others)
        gates.append(Gate("cexp", (control,), slot=0, scale=0.6, string=string))
    return gates


@pytest.mark.parametrize("n", range(1, 7))
def test_compiled_gates_match_per_gate_kernels_bit_for_bit(n):
    rng = make_rng(700 + n)
    psi = random_state(rng, n)
    before = psi.copy()
    theta = [0.83]
    for gate in every_gate(n, rng):
        want = per_gate_apply(psi, n, gate, theta)
        assert same_bits(apply_gate(StateVector(psi, n), gate, theta).amplitudes,
                         want), gate
        compiled = CompiledCircuit([gate], n)
        assert same_bits(compiled.run(theta, psi), want), gate
        undone = per_gate_apply(psi, n, per_gate_inverse(gate, theta))
        assert same_bits(compiled.undo(0, theta, psi), undone), gate
    assert same_bits(psi, before)


@pytest.mark.parametrize("n", range(1, 4))
def test_generators_of_every_gate_kind(n):
    """Slotted rotations and exponentials carry (w, P) with dU/dtheta =
    i w P U, checked by central differences; every other gate has None."""
    rng = make_rng(600 + n)
    psi = random_state(rng, n)
    letters = {"rx": "X", "ry": "Y", "rz": "Z"}
    for gate in every_gate(n, rng):
        compiled = CompiledCircuit([gate], n)
        (generator,) = compiled.generators
        if gate.slot is None or gate.kind not in (*letters, "exp"):
            assert generator is None, gate
            continue
        weight, string = generator
        if gate.kind == "exp":
            assert (weight, string) == (gate.scale, gate.string), gate
        else:
            assert weight == -gate.scale / 2, gate
            assert string == PauliString.single(letters[gate.kind],
                                                gate.targets[0]), gate
        theta, step = 0.83, 1e-6
        slope = (compiled.run([theta + step], psi)
                 - compiled.run([theta - step], psi)) / (2 * step)
        derivative = 1j * weight * string.apply(compiled.run([theta], psi))
        assert np.max(np.abs(slope - derivative)) < 1e-8, gate


@pytest.mark.parametrize("n", range(1, 7))
def test_undo_inverts_every_gate_kind(n):
    rng = make_rng(900 + n)
    psi = random_state(rng, n)
    theta = [0.83]
    for gate in every_gate(n, rng):
        compiled = CompiledCircuit([gate], n)
        back = compiled.undo(0, theta, compiled.run(theta, psi))
        assert np.max(np.abs(back - psi)) <= 1e-15, gate
        assert abs(np.vdot(psi, back) - 1.0) <= 1e-15, gate


@pytest.mark.parametrize("n", range(1, 7))
def test_gates_match_the_dense_matrix_kernels(n):
    rng = make_rng(800 + n)
    psi = random_state(rng, n)
    theta = [0.83]
    for gate in every_gate(n, rng):
        if gate.kind in ("exp", "cexp"):
            continue
        got = CompiledCircuit([gate], n).run(theta, psi)
        want = matrix_gate_apply(psi, n, gate, theta)
        assert np.max(np.abs(got - want)) <= 1e-15, gate
        if gate.kind in ("x", "y", "z", "cnot", "cz"):
            assert same_bits(got, want), gate


def test_gate_unitary_columns_are_the_per_gate_images():
    rng = make_rng(41)
    for gate in every_gate(3, rng)[::5]:
        unitary = gate_unitary(gate, 3, [0.4])
        for j in range(8):
            column = per_gate_apply(StateVector.basis(3, j).amplitudes, 3,
                                    gate, [0.4])
            assert same_bits(unitary[:, j], column), gate


def test_compiled_trajectories_match_per_gate_kernels_bit_for_bit():
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    rng = make_rng(8)
    kicks = []
    for _ in range(40):
        at = sorted(int(g) for g in rng.integers(0, len(circuit.gates),
                                                  size=rng.integers(0, 4)))
        kicks.append([(g, PauliString(int(rng.integers(0, 8)),
                                      int(rng.integers(0, 8)))) for g in at])
    psi0 = random_state(make_rng(99), 3)
    finals = {}
    for members, psi in compile_circuit(circuit).trajectories(
            theta, kicks, StateVector(psi0, 3)):
        finals.update(dict.fromkeys(members, psi.amplitudes))
    for k, events in enumerate(kicks):
        amps = psi0
        for index, gate in enumerate(circuit.gates):
            amps = per_gate_apply(amps, 3, gate, theta)
            for at, error in events:
                if at == index:
                    amps = scatter_apply(error, amps)
        assert same_bits(finals[k], amps), k


def test_circuit_run_matches_per_gate_loop_bit_for_bit():
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    amps = StateVector.zero(3).amplitudes
    for gate in circuit.gates:
        amps = per_gate_apply(amps, 3, gate, theta)
    assert same_bits(run_circuit(circuit, theta).amplitudes, amps)
    compiled = compile_circuit(circuit)
    assert compiled.supports == tuple(g.support() for g in circuit.gates)
    assert same_bits(compiled.run(theta, StateVector.zero(3).amplitudes), amps)


@pytest.mark.parametrize("gate", [
    Gate("h", (3,)),
    Gate("rx", (-1,), angle=0.2),
    Gate("cnot", (1, 1)),
    Gate("cz", (0, 5)),
    Gate("exp", (), angle=0.1, string=PauliString.from_text("X0 Y4")),
    Gate("cexp", (1,), angle=0.1, string=PauliString.from_text("X0 Z1")),
], ids=["outside", "negative", "repeated", "pair-outside", "exp-outside",
        "control-in-support"])
def test_compile_rejects_bad_targets(gate):
    with pytest.raises(BadTarget):
        CompiledCircuit([Gate("h", (0,)), gate], 3)


def test_compile_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown gate kind"):
        CompiledCircuit([Gate("swap", (0, 1))], 2)


# --------------------------------------------------------- Pauli exponentials


def test_exponential_at_zero_is_identity(rng):
    psi = random_state(rng, 3)
    got = apply_gate(StateVector(psi, 3),
                     Gate("exp", (), angle=0.0,
                          string=PauliString.from_text("X0 Z2")))
    assert np.allclose(got.amplitudes, psi)


def test_exponential_z_half_pi_is_global_phase():
    got = apply_gate(StateVector.zero(1),
                     Gate("exp", (), angle=math.pi / 2,
                          string=PauliString.from_text("Z0")))
    assert got.amplitudes[0] == pytest.approx(1j)
    assert got.probabilities()[0] == pytest.approx(1.0)


def test_exponential_matches_dense_exponential(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        psi = random_state(rng, n)
        string = PauliString(int(rng.integers(0, 1 << n)),
                             int(rng.integers(0, 1 << n)))
        phi = float(rng.uniform(-3, 3))
        got = apply_gate(StateVector(psi, n),
                         Gate("exp", (), angle=phi, string=string))
        dense = scipy.linalg.expm(
            1j * phi * to_matrix(PauliSum({string: 1.0}), n))
        assert np.max(np.abs(got.amplitudes - dense @ psi)) < 1e-12


def test_exponential_kernel_gathers_registers_and_blocks_alike(rng):
    # The kernel gathers along the last axis, so a register and each row of
    # a (rows, 2^n) block both get cos(phi) I + i sin(phi) P, bit for bit.
    for _ in range(20):
        n = int(rng.integers(1, 6))
        string = random_pauli_string(rng, n)
        phi = float(rng.uniform(-3, 3))
        kernel = simulator._exp_kernel(string, 1 << n)
        dense = (math.cos(phi) * np.eye(1 << n)
                 + 1j * math.sin(phi) * kron_string_matrix(string, n))
        block = np.stack([random_state(rng, n) for _ in range(3)])
        for psi, row in zip(block, kernel(block, phi)):
            single = kernel(psi, phi)
            assert same_bits(single, row)
            assert np.max(np.abs(single - dense @ psi)) < 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_every_gate_kernel_acts_on_each_row_of_a_block_bit_for_bit(n):
    # The trajectory engine runs every gate kind on a (rows, 2^n) block.
    rng = make_rng(900 + n)
    block = np.stack([random_state(rng, n) for _ in range(3)])
    before = block.copy()
    for gate in every_gate(n, rng):
        compiled = CompiledCircuit([gate], n)
        rows = compiled.run([0.83], block)
        assert rows.shape == block.shape, gate
        for psi, row in zip(block, rows):
            assert same_bits(row, compiled.run([0.83], psi)), gate
    assert same_bits(block, before)
    for string in (random_pauli_string(rng, n) for _ in range(5)):
        for psi, row in zip(block, string.apply(block)):
            assert same_bits(row, string.apply(psi)), string


def test_single_excitation_exponential_reaches_h2_ground():
    ints = load_fixture("h2_sto3g_0.7414", ordering="interleaved")
    h = encode_operator(build_molecular_hamiltonian(ints), EncodingScheme(JW, 4))
    generator = PauliString.from_text("Y0 X1 X2 X3")
    reference = StateVector.basis(4, 0b0011)

    def energy(theta: float) -> float:
        return apply_gate(reference, Gate("exp", (), angle=-theta,
                                          string=generator)).expectation(h)

    result = minimize_scalar(energy, bounds=(-1.0, 1.0), method="bounded",
                             options={"xatol": 1e-12})
    exact = np.linalg.eigvalsh(to_matrix(h, 4))[0]
    assert result.fun == pytest.approx(exact, abs=1e-9)
    assert result.fun == pytest.approx(H2_FCI_ENERGY, abs=1e-6)
    state = apply_gate(reference, Gate("exp", (), angle=-result.x,
                                       string=generator)).amplitudes
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


@pytest.mark.parametrize("shots", [1, 7, 300])
def test_sample_means_match_sample_expectation_on_the_same_counts(shots):
    # Replay each run's counts into sample_expectation: run k's mean must
    # be its mean bit for bit, and the stream must end where it would.
    psi = StateVector(random_state(make_rng(5), 3), 3)
    h = PauliSum.from_text({"I": -0.4, "Z0": 0.7, "X1 Y2": 0.3,
                            "Z0 Z1 Z2": -1.1, "Y0": 0.05})
    stream, reference = make_rng(11), make_rng(11)
    means = sample_means(psi, h, shots, stream, 25)
    terms = [string for string in h.strings() if not string.is_identity]
    assert means.shape == (25,)
    blocks = []
    for string in terms:
        exact = np.vdot(psi.amplitudes, string.apply(psi.amplitudes)).real
        p_plus = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
        blocks.append(reference.binomial(shots, p_plus, size=25))
    assert stream.bit_generator.state == reference.bit_generator.state

    class Counts:
        """Hands out run k's counts, one per probability asked for."""

        def __init__(self, column):
            self.column = list(column)

        def binomial(self, n, p):
            return np.array([self.column.pop(0) for _ in p])

    for k in range(25):
        replay = Counts(block[k] for block in blocks)
        expected = sample_expectation(psi, h, shots, replay)
        assert not replay.column
        assert same_bits(np.array([means[k]]), np.array([expected.mean]))


def sampled_hamiltonians():
    """H2's JW Hamiltonian, and sums whose identity term comes first, last
    or not at all, with a sum of the identity alone."""
    h2 = encode_operator(build_molecular_hamiltonian(
        load_fixture("h2_sto3g_0.7414")), EncodingScheme(JW, 4))
    return [h2,
            PauliSum.from_text({"I": -0.4, "Z0": 0.7, "X1 Y2": 0.3,
                                "Z0 Z1 Z2": -1.1, "Y0": 0.05}),
            PauliSum.from_text({"X0 X1": 0.2, "Z3": -0.9, "Y2 Z3": 0.6}),
            PauliSum.identity(-0.7, n_qubits=2)]


@pytest.mark.parametrize("shots", [1, 7, 10_000])
def test_sampled_estimates_match_the_per_term_loop_bit_for_bit(shots):
    for k, h in enumerate(sampled_hamiltonians()):
        n = max(h.n_qubits, 1)
        for seed in range(20):
            psi = StateVector(random_state(make_rng(100 * k + seed), n), n)
            stream, reference = make_rng(seed), make_rng(seed)
            estimate = sample_expectation(psi, h, shots, stream)
            mean, std_error = per_term_sample_expectation(psi, h, shots,
                                                          reference)
            assert (estimate.mean, estimate.std_error) == (mean, std_error)
            assert stream.bit_generator.state == reference.bit_generator.state
            means = sample_means(psi, h, shots, stream, 9)
            assert same_bits(means, per_term_sample_means(psi, h, shots,
                                                          reference, 9))
            assert stream.bit_generator.state == reference.bit_generator.state


def test_sampling_above_the_table_ceiling_applies_each_term(monkeypatch):
    # A ceiling below one term's tables: every string is applied per call.
    import hartree.pauli as pauli

    monkeypatch.setattr(pauli, "TABLE_BYTES", 16)
    h = sampled_hamiltonians()[0]
    psi = StateVector(random_state(make_rng(3), 4), 4)
    estimate = sample_expectation(psi, h, 1000, make_rng(5))
    assert h._string_tables == {}
    assert (estimate.mean, estimate.std_error) == \
        per_term_sample_expectation(psi, h, 1000, make_rng(5))


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


def test_identity_exponential_takes_no_noise():
    # exp(i phi I) is a global phase: no insertion follows it, in the
    # trajectories or in the density-matrix oracle.
    circuit = (Circuit(2).exp(PauliString(), angle=0.4).h(0).cnot(0, 1)
               .exp(PauliString(), angle=-1.3).rx(1, angle=0.7))
    noise = NoiseModel(p1=0.1, p2=0.15)
    assert noise.rate_for(0) == 0.0
    observable = PauliSum.from_text({"Z0": 1.0, "Z0 Z1": 0.5, "X1": 0.25})
    target = expectation_from_density(
        density_matrix_reference(circuit, None, noise), observable)
    streams = split_rng(make_rng(20261018), 4000)
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
    supports = compile_circuit(circuit).supports
    for seed in (1, 2, 3):
        stream = make_rng(seed)
        finals = {}
        for members, psi in noisy_states(circuit, theta, noise, stream, 40,
                                         psi0):
            finals.update(dict.fromkeys(members, psi.amplitudes))
        assert sorted(finals) == list(range(40))
        kicks = depolarizing_kicks(supports, noise, make_rng(seed), 40)
        reference = make_rng(seed)
        replays = trajectory_replays(circuit, noise, reference, 40)
        for k, replay in enumerate(replays):
            expected_kicks, expected = per_gate_trajectory(
                circuit, theta, noise, replay, psi0)
            assert replay.exhausted
            assert list(kicks[k]) == expected_kicks
            assert np.array_equal(finals[k], expected.amplitudes)
        # Later draws from the stream, as reductions make, match too.
        assert stream.bit_generator.state == reference.bit_generator.state
        single = run_noisy_trajectory(circuit, theta, noise,
                                      make_rng(seed), psi0)
        (replay,) = trajectory_replays(circuit, noise, make_rng(seed), 1)
        _, expected = per_gate_trajectory(circuit, theta, noise, replay, psi0)
        assert np.array_equal(single.amplitudes, expected.amplitudes)


def test_error_free_trajectories_share_one_empty_kick_list():
    supports = compile_circuit(mixed_circuit()).supports
    kicks = depolarizing_kicks(supports, NoiseModel(p1=0.05, p2=0.05),
                               make_rng(4), 200)
    empty = [events for events in kicks if not events]
    assert empty and all(events is empty[0] for events in empty)
    assert any(len(events) > 1 for events in kicks)
    for events in kicks:
        gates = [index for index, _ in events]
        assert gates == sorted(gates)


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
    groups = list(compile_circuit(circuit).trajectories(theta, [kicks, []]))
    assert [members for members, _ in groups] == [[0], [1]]
    assert np.array_equal(groups[0][1].amplitudes, psi.amplitudes)
    assert np.array_equal(groups[1][1].amplitudes,
                          run_circuit(circuit, theta).amplitudes)


def per_gate_final(circuit, theta, events, psi0):
    """One trajectory's final amplitudes by the per-call formulas, each
    kick scattered right after its gate."""
    amps = psi0
    for index, gate in enumerate(circuit.gates):
        amps = per_gate_apply(amps, circuit.n_qubits, gate, theta)
        for at, error in events:
            if at == index:
                amps = scatter_apply(error, amps)
    return amps


def yield_order(kicks):
    """The kicked trajectories one by one, by (first-kick gate, index),
    then the error-free ones as one group."""
    kicked = sorted((events[0][0], k) for k, events in enumerate(kicks)
                    if events)
    free = [k for k, events in enumerate(kicks) if not events]
    return [[k] for _, k in kicked] + ([free] if free else [])


def block_rows(monkeypatch, rows: int, n: int) -> None:
    """Bound each trajectory block to ``rows`` rows of n qubits."""
    monkeypatch.setattr(simulator, "TRAJECTORY_BLOCK_BYTES",
                        rows * (np.dtype(complex).itemsize << n))


def random_kicks(circuit, rng, count):
    """``count`` kick lists of 0-3 kicks each, in circuit order, ties and
    repeated gates included."""
    kicks = []
    for _ in range(count):
        at = sorted(int(g) for g in rng.integers(0, len(circuit.gates),
                                                  size=rng.integers(0, 4)))
        kicks.append([(g, PauliString(int(rng.integers(0, 8)),
                                      int(rng.integers(0, 8)))) for g in at])
    return kicks


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_small_trajectory_blocks_keep_bits_and_yield_order(rows, monkeypatch):
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    kicks = random_kicks(circuit, make_rng(8), 40)
    psi0 = random_state(make_rng(99), 3)
    compiled = compile_circuit(circuit)
    whole = list(compiled.trajectories(theta, kicks, StateVector(psi0, 3)))
    block_rows(monkeypatch, rows, 3)
    groups = list(compiled.trajectories(theta, kicks, StateVector(psi0, 3)))
    assert [members for members, _ in groups] == yield_order(kicks) == \
        [members for members, _ in whole]
    for (members, psi), (_, reference) in zip(groups, whole):
        assert same_bits(psi.amplitudes, reference.amplitudes), members
        assert same_bits(psi.amplitudes, per_gate_final(
            circuit, theta, kicks[members[0]], psi0)), members
    # The kicked states sit in blocks of at most ``rows`` rows each.
    kicked = sum(1 for events in kicks if events)
    assert len({id(psi.amplitudes.base) for _, psi in whole[:-1]}) == 1
    assert len({id(psi.amplitudes.base) for _, psi in groups[:-1]}) == \
        -(-kicked // rows)


@pytest.mark.parametrize("rows", [1, 2])
def test_yielded_states_survive_later_blocks(rows, monkeypatch):
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    kicks = random_kicks(circuit, make_rng(12), 30)
    block_rows(monkeypatch, rows, 3)
    seen = [(psi.amplitudes, psi.amplitudes.copy()) for _, psi in
            compile_circuit(circuit).trajectories(theta, kicks)]
    assert len(seen) == len(yield_order(kicks))
    for kept, copy in seen:
        assert same_bits(kept, copy)


@pytest.mark.parametrize("rows", [1, 2, None])
def test_yield_order_with_kicks_at_the_first_and_last_gates(rows,
                                                            monkeypatch):
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    last = len(circuit.gates) - 1
    text = PauliString.from_text
    kicks = [[(last, text("X0"))],
             [],
             [(0, text("Z1")), (0, text("X2")), (last, text("Y0"))],
             [(3, text("Y1")), (3, text("Z1"))],
             [(0, text("X0"))],
             [(last, text("Z2")), (last, text("X1"))],
             []]
    psi0 = random_state(make_rng(5), 3)
    if rows is not None:
        block_rows(monkeypatch, rows, 3)
    groups = list(compile_circuit(circuit).trajectories(
        theta, kicks, StateVector(psi0, 3)))
    assert [members for members, _ in groups] == \
        [[2], [4], [3], [0], [5], [1, 6]] == yield_order(kicks)
    for members, psi in groups:
        assert same_bits(psi.amplitudes, per_gate_final(
            circuit, theta, kicks[members[0]], psi0)), members


def test_error_free_share_is_binomial():
    circuit, theta = mixed_circuit(), [0.3, -0.7]
    noise = NoiseModel(p1=0.02, p2=0.05)
    trials = 4000
    groups = list(noisy_states(circuit, theta, noise, make_rng(20261018),
                               trials))
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
    with pytest.raises(TooLarge):
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


@pytest.mark.parametrize("tapered", [True, False])
@pytest.mark.parametrize("steps", [1, 3])
def test_qpe_trotter_steps_match_per_term_loop_bit_for_bit(tapered, steps,
                                                          monkeypatch):
    if tapered:
        h, n = tapered_h2(), 2
    else:
        h = encode_operator(build_molecular_hamiltonian(
            load_fixture("h2_sto3g_0.7414")), EncodingScheme(JW, 4))
        n = 4
    psi = StateVector(random_state(make_rng(5), n), n)
    window = default_window(h)
    registers, fft = [], np.fft.fft

    def keep_register(joint, *args, **kwargs):
        registers.append(joint.copy())
        return fft(joint, *args, **kwargs)
    monkeypatch.setattr(np.fft, "fft", keep_register)
    for n_ancilla in (1, 5):
        energies, probabilities = qpe_distribution(psi, h, n_ancilla, steps,
                                                   window)
        register = per_term_trotter_register(psi, h, n_ancilla, steps, window)
        assert same_bits(registers.pop(), register)
        oracle = dense_fourier_readout(register, window)
        assert same_bits(energies, oracle[0])
        assert np.abs(probabilities - oracle[1]).max() <= 1e-13


@pytest.mark.parametrize("tapered", [True, False])
def test_exact_qpe_matches_power_matrix_oracle(tapered):
    if tapered:
        h, n = tapered_h2(), 2
    else:
        h = encode_operator(build_molecular_hamiltonian(
            load_fixture("h2_631g_0.7414")), EncodingScheme(JW, 8))
        n = 8
    psi = StateVector(random_state(make_rng(7), n), n)
    window = default_window(h)
    for n_ancilla in (1, 4, 10):
        energies, probabilities = qpe_distribution(psi, h, n_ancilla, 0,
                                                   window)
        oracle = power_matrix_qpe(psi, h, n_ancilla, window)
        assert same_bits(energies, oracle[0])
        assert np.abs(probabilities - oracle[1]).max() <= 1e-13
        assert np.argmax(probabilities) == np.argmax(oracle[1])


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
    with pytest.raises(TooLarge):
        qpe_distribution(StateVector.zero(16), PauliSum.identity(1.0, 16), 10, 0)
    with pytest.raises(ValueError):
        EnergyWindow(1.0, 1.0)


def refuse(*_args, **_kwargs):
    raise AssertionError("a guarded array was allocated")


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qpe_byte_figure_counts_registers_and_eigenbasis():
    registers = 4 * 2 ** 18
    assert qpe_bytes(2, 16, 3) == 16 * registers
    assert qpe_bytes(2, 16, 0) == 16 * (registers + 3 * 2 ** 4)
    # The largest register the benchmark runs is far under the budget.
    assert qpe_bytes(6, 8, 0) < BYTE_BUDGET // 100


@pytest.mark.parametrize("n_sys, n_ancilla, steps",
                         [(4, 10, 0), (8, 6, 0), (4, 10, 2), (2, 12, 1)])
def test_qpe_peak_stays_under_its_byte_figure(n_sys, n_ancilla, steps):
    h = PauliSum({PauliString((5 * k + 3) % (1 << n_sys), k % (1 << n_sys)):
                  0.1 * (k + 1) for k in range(8)}, n_qubits=n_sys)
    psi = StateVector(random_state(make_rng(3), n_sys), n_sys)
    window = default_window(h)
    qpe_distribution(psi, h, 1, steps, window)  # Pauli tables cached
    peak = traced_peak(lambda: qpe_distribution(psi, h, n_ancilla, steps,
                                                window))
    assert peak <= qpe_bytes(n_sys, n_ancilla, steps)


def test_exact_qpe_at_four_plus_ten_qubits_peaks_under_one_mebibyte():
    h = encode_operator(build_molecular_hamiltonian(
        load_fixture("h2_sto3g_0.7414")), EncodingScheme(JW, 4))
    psi = StateVector(random_state(make_rng(3), 4), 4)
    assert traced_peak(lambda: qpe_distribution(psi, h, 10, 0)) < 1 << 20


def test_qpe_guard_refuses_before_building(monkeypatch):
    monkeypatch.setattr(simulator, "to_matrix", refuse)
    monkeypatch.setattr(np, "outer", refuse)
    monkeypatch.setattr(np, "tile", refuse)
    with pytest.raises(TooLarge, match=f"needs {qpe_bytes(16, 10, 0)} bytes"):
        qpe_distribution(StateVector.zero(16), PauliSum.identity(1.0, 16), 10, 0)
    z = PauliSum.from_text({"Z0": 1.0, "Z1": 0.5})
    for steps in (0, 2):
        with pytest.raises(TooLarge,
                           match=f"needs {qpe_bytes(2, 26, steps)} bytes"):
            qpe_distribution(StateVector.zero(2), z, 26, steps)


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


def test_imaginary_time_matches_expm_oracle():
    ints = load_fixture("h2_sto3g_0.7414")
    h = encode_operator(build_molecular_hamiltonian(ints), EncodingScheme(JW, 4))
    psi = StateVector(random_state(make_rng(2), 4), 4)
    for tau, steps in ((0.3, 1), (2.0, 5), (10.0, 20)):
        got = imaginary_time_evolve(psi, h, tau, steps).amplitudes
        assert np.abs(got - expm_imaginary_time(psi, h, tau, steps)).max() \
            <= 1e-12


def test_imaginary_time_guard_refuses_before_building(monkeypatch):
    assert EIGH_MATRICES * matrix_bytes(12) <= BYTE_BUDGET
    monkeypatch.setattr(simulator, "to_matrix", refuse)
    needed = EIGH_MATRICES * matrix_bytes(13)
    with pytest.raises(TooLarge, match=f"needs {needed} bytes"):
        imaginary_time_evolve(StateVector.zero(13),
                              PauliSum.from_text({"Z0": 1.0}), 1.0, 1)


def test_gate_unitary_guard_refuses_before_building(monkeypatch):
    monkeypatch.setattr(simulator, "CompiledCircuit", refuse)
    monkeypatch.setattr(np, "empty", refuse)
    needed = matrix_bytes(13) + 2 * (REGISTER_BYTES << 13)
    with pytest.raises(TooLarge, match=f"needs {needed} bytes"):
        gate_unitary(Gate("h", (0,)), 13)


# ------------------------------------------------------------------ registers


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), 1)
    with pytest.raises(TooLarge):
        StateVector.zero(25)
    with pytest.raises(ValueError):
        StateVector.basis(2, 4)


def test_register_figure_keeps_24_qubits_and_refuses_25():
    assert REGISTER_BYTES == 3 * 16
    assert REGISTER_BYTES << 24 <= BYTE_BUDGET < REGISTER_BYTES << 25


def test_register_guards_allocate_nothing(monkeypatch):
    unbuilt = np.empty(0, dtype=complex)
    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(TooLarge, match=f"needs {REGISTER_BYTES << 25} bytes"):
        StateVector.zero(25)
    with pytest.raises(TooLarge, match=f"needs {REGISTER_BYTES << 30} bytes"):
        StateVector(unbuilt, 30)

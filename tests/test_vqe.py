"""Ansatz builders, analytic gradients, and the classical optimizers."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_compiles,
    per_gate_apply,
    per_gate_gradient,
    per_gate_run,
    plain_nelder_mead,
    random_pauli_string,
    random_state,
    same_bits,
    stored_state_gradient,
    two_call_descent,
)
from hartree import simulator, vqe
from hartree.encoding import JW, PARITY, EncodingScheme, encode_operator, encode_state
from hartree.fermion import (
    FermionSum,
    build_molecular_hamiltonian,
    hf_energy,
    hf_occupation,
    number_operator,
    uccsd_generators,
)
from hartree.io_cli import H2_EQUILIBRIUM, load_fixture
from hartree.io_cli.cli import main
from hartree.mitigation import noisy_expectation
from hartree.pauli import (
    NonHermitian,
    PauliString,
    PauliSum,
    TooLarge,
    canonicalize,
    commutes,
    to_matrix,
)
from hartree.reduction import reduce_problem, sector_for, taper_two_qubits
from hartree.simulator import (
    RUN_RANK,
    Circuit,
    CommutingRun,
    CompiledCircuit,
    Gate,
    NonCommutingRun,
    NoiseModel,
    StateVector,
    make_rng,
    split_rng,
)
from hartree.vqe import (
    GRADIENT_DESCENT,
    GRADIENT_REGISTERS,
    HAMILTONIAN_VARIATIONAL,
    HARDWARE_EFFICIENT,
    L_BFGS,
    LDCA,
    NELDER_MEAD,
    NOISE_FLOOR,
    SIMPLEX_STEP,
    SPSA,
    UCCSD,
    Ansatz,
    HamiltonianParts,
    InexactEnergies,
    NotAntiHermitian,
    OptimizerConfig,
    PartitionIncomplete,
    UnsupportedGate,
    analytic_gradient,
    build_hamiltonian_variational,
    build_hardware_efficient,
    build_ldca,
    build_uccsd,
    estimate_energy,
    initial_parameters,
    optimize,
    partition_hamiltonian,
    penalty_hamiltonian,
    preparation_gates,
)

CHEMICAL_ACCURACY = 1.6e-3


@pytest.fixture(scope="module")
def h2():
    ints = load_fixture("h2_sto3g_0.7414")
    scheme = EncodingScheme(JW, 4)
    ferm = build_molecular_hamiltonian(ints)
    h = encode_operator(ferm, scheme)
    fci = float(np.linalg.eigvalsh(to_matrix(h, 4))[0])
    return ints, scheme, ferm, h, fci


@pytest.fixture(scope="module")
def h2_tapered(h2):
    ints, _, ferm, _, _ = h2
    scheme = EncodingScheme(PARITY, 4)
    full = encode_operator(ferm, scheme)
    reduced = taper_two_qubits(full, scheme,
                               sector_for(ints.n_electrons, ints.n_up))
    fci = float(np.linalg.eigvalsh(to_matrix(reduced, 2))[0])
    return reduced, fci


@pytest.fixture(scope="module")
def h2_uccsd(h2):
    ints, scheme, _, _, _ = h2
    hf = hf_occupation(ints)
    gens = uccsd_generators(4, hf.occupied(),
                            [p for p in range(4) if p not in hf.occupied()])
    return build_uccsd(gens, scheme, hf)


def jw_uccsd(fixture: str) -> tuple[Ansatz, PauliSum]:
    """UCCSD over the Hartree-Fock reference of a fixture, with its JW
    Hamiltonian."""
    ints = load_fixture(fixture)
    scheme = EncodingScheme(JW, ints.m)
    reference = hf_occupation(ints)
    occupied = reference.occupied()
    virtual = [p for p in range(ints.m) if p not in occupied]
    ansatz = build_uccsd(uccsd_generators(ints.m, occupied, virtual),
                         scheme, reference)
    return ansatz, encode_operator(build_molecular_hamiltonian(ints), scheme)


def toy_rx_ansatz() -> Ansatz:
    circuit = Circuit(1)
    circuit.rx(0, slot=0)
    return Ansatz(circuit, [], HARDWARE_EFFICIENT)


# ------------------------------------------------------------------- builders


class TestUccsd:
    def test_one_parameter_per_generator(self, h2_uccsd):
        assert h2_uccsd.n_params == 3
        assert h2_uccsd.family == UCCSD

    def test_theta_zero_prepares_reference(self, h2, h2_uccsd):
        ints, scheme, _, _, _ = h2
        psi = h2_uccsd.state(np.zeros(3))
        encoded = encode_state(hf_occupation(ints), scheme)
        index = sum(1 << q for q in encoded.occupied())
        expected = np.zeros(16)
        expected[index] = 1.0
        assert np.allclose(psi.amplitudes, expected, atol=1e-12)

    def test_theta_zero_energy_is_mean_field(self, h2, h2_uccsd):
        ints, _, _, h, _ = h2
        e0 = estimate_energy(h2_uccsd, np.zeros(3), h).mean
        assert e0 == pytest.approx(hf_energy(ints), abs=1e-10)

    def test_rejects_non_anti_hermitian_generator(self, h2):
        _, scheme, _, _, _ = h2
        bare = FermionSum.single([(1, True), (0, False)])
        with pytest.raises(NotAntiHermitian):
            build_uccsd([bare], scheme, hf_occupation(load_fixture("h2_sto3g_0.7414")))

    def test_rejects_hermitian_generator(self, h2):
        _, scheme, _, _, _ = h2
        bare = FermionSum.single([(1, True), (0, False)])
        with pytest.raises(NotAntiHermitian, match="real coefficient"):
            build_uccsd([bare + bare.adjoint()], scheme,
                        hf_occupation(load_fixture("h2_sto3g_0.7414")))

    def test_extra_product_steps_match_single_step(self, h2):
        # strings within one generator's image commute, so the split is exact
        ints, scheme, _, _, _ = h2
        hf = hf_occupation(ints)
        double = [g for g in uccsd_generators(4, hf.occupied(), [1, 3])
                  if g.label.startswith("d:")]
        assert len(double) == 1
        base = build_uccsd(double, scheme, hf)
        split = build_uccsd(double, scheme, hf, trotter_steps=3)
        assert len(split.circuit.gates) == 3 * len(base.circuit.gates)
        theta = np.array([0.37])
        assert np.allclose(split.state(theta).amplitudes,
                           base.state(theta).amplitudes, atol=1e-12)

    def test_rejects_bad_step_count(self, h2, h2_uccsd):
        ints, scheme, _, _, _ = h2
        with pytest.raises(ValueError):
            build_uccsd([], scheme, hf_occupation(ints), trotter_steps=0)

    def test_reaches_exact_ground_energy(self, h2, h2_uccsd):
        _, _, _, h, fci = h2
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=2000,
                                 tolerance=1e-12, seed=7)
        result = optimize(h2_uccsd, h, config)
        assert result.converged
        assert result.best_energy == pytest.approx(fci, abs=1e-8)

    def test_shot_mode_estimate_at_optimum(self, h2, h2_uccsd):
        _, _, _, h, fci = h2
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=2000,
                                 tolerance=1e-12, seed=7)
        best = optimize(h2_uccsd, h, config).best_params
        estimate = estimate_energy(h2_uccsd, best, h, shots=10 ** 4,
                                   rng=make_rng(20260816))
        assert abs(estimate.mean - fci) < CHEMICAL_ACCURACY
        assert estimate.std_error > 0


class TestHardwareEfficient:
    def test_parameter_count(self):
        assert build_hardware_efficient(4, 2).n_params == 24
        assert build_hardware_efficient(1, 1).n_params == 4
        assert build_hardware_efficient(3, 3).n_params == 24

    def test_entangler_selection(self):
        kinds_cnot = {g.kind for g in build_hardware_efficient(3, 1).circuit.gates}
        kinds_cz = {g.kind for g in
                    build_hardware_efficient(3, 1, entangler="cz").circuit.gates}
        assert "cnot" in kinds_cnot and "cz" not in kinds_cnot
        assert "cz" in kinds_cz and "cnot" not in kinds_cz

    def test_validation(self):
        with pytest.raises(ValueError):
            build_hardware_efficient(3, 0)
        with pytest.raises(ValueError):
            build_hardware_efficient(3, 1, entangler="swap")

    @pytest.mark.parametrize("entangler", ["cnot", "cz"])
    def test_zero_parameters_fix_the_all_zeros_state(self, entangler):
        ansatz = build_hardware_efficient(3, 2, entangler=entangler)
        psi = ansatz.state(np.zeros(ansatz.n_params))
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected, atol=1e-12)

    def test_single_qubit_form_reaches_arbitrary_states(self):
        rng = make_rng(5)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        target = raw / np.linalg.norm(raw)
        bloch = {
            "X0": np.vdot(target, np.array([target[1], target[0]])).real,
            "Y0": np.vdot(target, np.array([-1j * target[1], 1j * target[0]])).real,
            "Z0": (abs(target[0]) ** 2 - abs(target[1]) ** 2),
        }
        h = canonicalize(PauliSum.identity(-0.5) - 0.5 * PauliSum.from_text(
            {k: v for k, v in bloch.items()}))
        ansatz = build_hardware_efficient(1, 1)
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=2000,
                                 tolerance=1e-14, seed=3)
        result = optimize(ansatz, h, config)
        # -<psi| t><t |psi> reaches -1 exactly when the state is reached
        assert result.best_energy == pytest.approx(-1.0, abs=1e-8)

    def test_tapered_two_qubit_ground(self, h2_tapered):
        reduced, fci = h2_tapered
        ansatz = build_hardware_efficient(2, 2)
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=4000,
                                 tolerance=1e-12, seed=5)
        result = optimize(ansatz, reduced, config)
        assert result.best_energy == pytest.approx(fci, abs=1e-8)


class TestHamiltonianVariational:
    def test_partition_groups_structure(self, h2):
        _, _, ferm, _, _ = h2
        diagonal, hopping, exchange = partition_hamiltonian(ferm)
        for term in diagonal:
            created = {m for m, dagger in term.factors if dagger}
            destroyed = {m for m, dagger in term.factors if not dagger}
            assert created == destroyed
        assert not list(hopping)
        assert len(list(exchange)) == 4

    def test_parts_sum_to_full_operator(self, h2):
        _, scheme, ferm, h, _ = h2
        parts = HamiltonianParts.from_fermion(ferm, scheme)
        residue = canonicalize(parts.total() - h)
        assert all(abs(c) < 1e-12 for _, c in residue.items())

    def test_three_parameters_per_step(self, h2):
        ints, scheme, ferm, h, _ = h2
        parts = HamiltonianParts.from_fermion(ferm, scheme)
        prep = preparation_gates(hf_occupation(ints), scheme)
        for steps in (1, 2, 3):
            assert build_hamiltonian_variational(parts, steps, prep).n_params \
                == 3 * steps

    def test_incomplete_partition_rejected(self, h2):
        _, scheme, ferm, h, _ = h2
        parts = HamiltonianParts.from_fermion(ferm, scheme)
        gutted = HamiltonianParts(parts.diagonal, parts.hopping,
                                  PauliSum.identity(0.0))
        with pytest.raises(PartitionIncomplete):
            build_hamiltonian_variational(gutted, 1, [], full=h)

    def test_theta_zero_is_reference(self, h2):
        ints, scheme, ferm, _, _ = h2
        parts = HamiltonianParts.from_fermion(ferm, scheme)
        prep = preparation_gates(hf_occupation(ints), scheme)
        ansatz = build_hamiltonian_variational(parts, 2, prep)
        psi = ansatz.state(np.zeros(6))
        encoded = encode_state(hf_occupation(ints), scheme)
        index = sum(1 << q for q in encoded.occupied())
        assert abs(psi.amplitudes[index]) == pytest.approx(1.0, abs=1e-12)

    def test_two_steps_reach_exact_ground(self, h2):
        ints, scheme, ferm, h, fci = h2
        parts = HamiltonianParts.from_fermion(ferm, scheme)
        prep = preparation_gates(hf_occupation(ints), scheme)
        ansatz = build_hamiltonian_variational(parts, 2, prep, full=h)
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=3000,
                                 tolerance=1e-12, seed=11)
        result = optimize(ansatz, h, config)
        assert result.best_energy == pytest.approx(fci, abs=1e-6)
        assert ansatz.family == HAMILTONIAN_VARIATIONAL


class TestLdca:
    def test_parameter_count_four_qubits_one_cycle(self):
        ansatz = build_ldca(4, 1)
        assert ansatz.n_params == 19
        assert ansatz.family == LDCA

    def test_gate_pattern(self):
        ansatz = build_ldca(4, 1)
        gates = ansatz.circuit.gates
        assert [g.kind for g in gates[:4]] == ["rz"] * 4
        block = gates[4:9]
        assert [str(g.string) for g in block] == \
            ["X0 X1", "Y0 Y1", "Z0 Z1", "X0 Y1", "Y0 X1"]
        assert [g.scale for g in block] == [1.0, -1.0, 1.0, 1.0, -1.0]
        pair_heads = [min(g.string.indices()) for g in gates[4::5]]
        assert pair_heads == [0, 2, 1]

    def test_every_rotation_owns_a_parameter(self):
        ansatz = build_ldca(6, 2)
        slots = [g.slot for g in ansatz.circuit.gates]
        assert slots == list(range(len(slots)))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_ldca(1, 1)
        with pytest.raises(ValueError):
            build_ldca(4, 0)

    def test_two_cycles_reach_chemical_accuracy(self, h2):
        _, _, _, h, fci = h2
        ansatz = build_ldca(4, 2)
        config = OptimizerConfig(method=GRADIENT_DESCENT, max_evals=1500,
                                 tolerance=1e-9, learning_rate=0.1, seed=1)
        result = optimize(ansatz, h, config)
        assert result.best_energy - fci < CHEMICAL_ACCURACY


# ------------------------------------------------------------------ gradients


class TestGradient:
    def test_single_rotation_toy_case(self):
        ansatz = toy_rx_ansatz()
        h = PauliSum.from_text({"Y0": 1.0})
        gradient = analytic_gradient(ansatz, [0.0], h)
        assert gradient[0] == pytest.approx(-1.0, abs=1e-12)
        for theta in (0.3, 1.1, -0.7):
            energy = estimate_energy(ansatz, [theta], h).mean
            assert energy == pytest.approx(-np.sin(theta), abs=1e-12)
            slope = analytic_gradient(ansatz, [theta], h)[0]
            assert slope == pytest.approx(-np.cos(theta), abs=1e-12)

    @pytest.mark.parametrize("family", [UCCSD, HARDWARE_EFFICIENT,
                                        HAMILTONIAN_VARIATIONAL, LDCA])
    def test_matches_central_differences(self, family, h2, h2_uccsd):
        ints, scheme, ferm, h, _ = h2
        if family == UCCSD:
            ansatz = h2_uccsd
        elif family == HARDWARE_EFFICIENT:
            ansatz = build_hardware_efficient(4, 2)
        elif family == HAMILTONIAN_VARIATIONAL:
            parts = HamiltonianParts.from_fermion(ferm, scheme)
            ansatz = build_hamiltonian_variational(
                parts, 2, preparation_gates(hf_occupation(ints), scheme))
        else:
            ansatz = build_ldca(4, 1)
        rng = make_rng(hash(family) % 2 ** 31)
        step = 1e-5
        for _ in range(5):
            theta = rng.uniform(-1.0, 1.0, ansatz.n_params)
            exact = analytic_gradient(ansatz, theta, h)
            numeric = np.zeros_like(exact)
            for k in range(len(theta)):
                plus, minus = theta.copy(), theta.copy()
                plus[k] += step
                minus[k] -= step
                numeric[k] = (estimate_energy(ansatz, plus, h).mean
                              - estimate_energy(ansatz, minus, h).mean) / (2 * step)
            assert np.max(np.abs(exact - numeric)) < 1e-6

    def test_shared_slot_occurrences_accumulate(self):
        circuit = Circuit(1)
        circuit.rx(0, slot=0)
        circuit.rx(0, slot=0)
        ansatz = Ansatz(circuit, [], HARDWARE_EFFICIENT)
        h = PauliSum.from_text({"Z0": 1.0})
        theta = 0.4
        slope = analytic_gradient(ansatz, [theta], h)[0]
        # E = cos(2 theta), so dE/dtheta = -2 sin(2 theta)
        assert slope == pytest.approx(-2.0 * np.sin(2 * theta), abs=1e-12)

    def test_state_counts_the_slots_once_per_compile(self, monkeypatch):
        circuit = Circuit(2).ry(0, slot=0).cnot(0, 1).rx(1, slot=1)
        ansatz = Ansatz(circuit, [Gate("x", (1,))], HARDWARE_EFFICIENT)
        first = ansatz.state([0.2, -0.4])
        monkeypatch.setattr(simulator, "_slot_count", lambda gates: 1 / 0)
        assert ansatz.n_params == 2
        assert np.array_equal(ansatz.state([0.2, -0.4]).amplitudes,
                              first.amplitudes)
        with pytest.raises(ValueError, match="expected 2 parameters"):
            ansatz.state([0.2])

    def test_state_refuses_slots_that_are_not_dense(self):
        circuit = Circuit(2).ry(0, slot=0).rx(1, slot=2)
        ansatz = Ansatz(circuit, [], HARDWARE_EFFICIENT)
        for _ in range(2):  # a refused count is not kept
            with pytest.raises(ValueError, match="slots not dense: \\[0, 2\\]"):
                ansatz.state([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="slots not dense"):
            estimate_energy(ansatz, [0.1, 0.2, 0.3],
                            PauliSum.from_text({"Z0": 1.0}))

    def test_unsupported_parametrized_gate(self):
        circuit = Circuit(1)
        circuit.add(Gate("t", (0,), slot=0))
        ansatz = Ansatz(circuit, [], HARDWARE_EFFICIENT)
        with pytest.raises(UnsupportedGate):
            analytic_gradient(ansatz, [0.1], PauliSum.from_text({"Z0": 1.0}))

    def test_slotted_controlled_exponential_is_unsupported(self):
        circuit = Circuit(2)
        circuit.cexp(0, PauliString.single("X", 1), slot=0)
        ansatz = Ansatz(circuit, [], HARDWARE_EFFICIENT)
        with pytest.raises(UnsupportedGate, match="parametrized cexp"):
            analytic_gradient(ansatz, [0.1], PauliSum.from_text({"Z1": 1.0}))

    def test_cc_pvdz_uccsd_passes_the_register_guard(self, monkeypatch):
        ansatz, h = jw_uccsd("h2_ccpvdz_0.75")

        class Reached(Exception):
            pass

        def stop(*_args):
            raise Reached

        monkeypatch.setattr(CompiledCircuit, "run", stop)
        assert (len(ansatz.compiled().gates), ansatz.n_qubits) == (686, 20)
        with pytest.raises(Reached):
            analytic_gradient(ansatz, np.zeros(ansatz.n_params), h)

    def test_registers_over_the_budget_refused_before_allocation(
            self, monkeypatch):
        ansatz = build_hardware_efficient(23, 1)

        def refuse(*_args):
            raise AssertionError("the gradient allocated a register")

        monkeypatch.setattr(StateVector, "zero", refuse)
        monkeypatch.setattr(CompiledCircuit, "run", refuse)
        needed = GRADIENT_REGISTERS * (3 * 16 << 23)
        with pytest.raises(TooLarge, match=f"needs {needed} bytes"):
            analytic_gradient(ansatz, np.zeros(ansatz.n_params),
                              PauliSum.identity(1.0, 23))

    def test_reference_prep_must_be_fixed(self):
        with pytest.raises(ValueError):
            Ansatz(Circuit(1), [Gate("rx", (0,), slot=0)], HARDWARE_EFFICIENT)


# -------------------------------------------------------------------- penalty


def all_families(h2) -> list[Ansatz]:
    ints, scheme, ferm, _, _ = h2
    hf = hf_occupation(ints)
    occupied = hf.occupied()
    virtual = [p for p in range(4) if p not in occupied]
    prep = preparation_gates(hf, scheme)
    return [build_uccsd(uccsd_generators(4, occupied, virtual), scheme, hf),
            build_hardware_efficient(4, 2),
            build_hardware_efficient(3, 1, entangler="cz"),
            build_hamiltonian_variational(
                HamiltonianParts.from_fermion(ferm, scheme), 2, prep),
            build_ldca(4, 1)]


def has_runs(ansatz: Ansatz) -> bool:
    return any(isinstance(span, CommutingRun)
               for span in ansatz.compiled().spans)


class TestCompiledAnsatz:
    def test_states_match_the_per_gate_loop_bit_for_bit(self, h2):
        # Bit for bit where every kernel is one gate's; a run of commuting
        # exp gates sums its angles first, so there the bound is 1e-14.
        for ansatz in all_families(h2):
            theta = make_rng(3).uniform(-1, 1, size=ansatz.n_params)
            amps = StateVector.zero(ansatz.n_qubits).amplitudes
            for gate in ansatz.combined().gates:
                amps = per_gate_apply(amps, ansatz.n_qubits, gate, theta)
            got = ansatz.state(theta).amplitudes
            if has_runs(ansatz):
                assert np.max(np.abs(got - amps)) <= 1e-14, ansatz.family
            else:
                assert same_bits(got, amps), ansatz.family

    def test_gradients_match_the_stored_state_sweep(self, h2):
        _, _, _, h, _ = h2
        for ansatz in all_families(h2):
            theta = make_rng(4).uniform(-1, 1, size=ansatz.n_params)
            # the three-qubit ansatz is scored on the terms that fit it
            n = ansatz.n_qubits
            sub = PauliSum({s: c for s, c in h.items() if s.n_qubits <= n})
            assert np.max(np.abs(analytic_gradient(ansatz, theta, sub)
                                 - stored_state_gradient(ansatz, theta, sub))
                          ) < 1e-12, ansatz.family

    def test_fixed_gates_between_parameters_match_the_stored_state_sweep(self):
        # T is undone by T dagger and a fixed cexp by its negated angle
        circuit = Circuit(3)
        circuit.ry(0, slot=0).t(0).h(1).rx(1, slot=1).cnot(0, 1)
        circuit.exp(PauliString.from_text("X0 Y2"), slot=2, scale=0.5)
        circuit.t(2).cz(1, 2)
        circuit.cexp(0, PauliString.from_text("Y1 Z2"), angle=0.37)
        circuit.rz(2, slot=0, scale=-1.5).t(1)
        circuit.exp(PauliString.from_text("Z0 X1"), slot=3)
        circuit.h(2).cexp(2, PauliString.from_text("X0"), angle=-0.81)
        circuit.ry(1, slot=1)
        ansatz = Ansatz(circuit, [Gate("x", (2,))], HARDWARE_EFFICIENT)
        h = PauliSum.from_text({"Z0 Z1": 0.7, "X1 X2": -0.4, "Y0": 0.3,
                                "Z2": 0.2, "I": -1.1})
        step = 1e-5
        for seed in range(3):
            theta = make_rng(seed).uniform(-2, 2, size=ansatz.n_params)
            exact = analytic_gradient(ansatz, theta, h)
            assert np.max(np.abs(exact - stored_state_gradient(ansatz, theta, h))
                          ) < 1e-12
            for k in range(len(theta)):
                plus, minus = theta.copy(), theta.copy()
                plus[k] += step
                minus[k] -= step
                numeric = (estimate_energy(ansatz, plus, h).mean
                           - estimate_energy(ansatz, minus, h).mean) / (2 * step)
                assert abs(exact[k] - numeric) < 1e-6

    def test_lih_uccsd_gradient_peaks_under_ten_mib(self):
        ansatz, h = jw_uccsd("lih_sto3g_1.45")
        assert (len(ansatz.compiled().gates), ansatz.n_qubits) == (644, 12)
        theta = make_rng(5).uniform(-0.5, 0.5, size=ansatz.n_params)
        tracemalloc.start()
        try:
            gradient = analytic_gradient(ansatz, theta, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the shared Pauli-table cache may grow by its 8 MiB ceiling; one
        # stored state per gate would add 40 MiB
        assert peak <= 10 << 20
        assert np.max(np.abs(gradient - stored_state_gradient(ansatz, theta, h))
                      ) < 1e-12

    def test_compiled_once_and_again_after_a_change(self):
        ansatz = toy_rx_ansatz()
        compiled = ansatz.compiled()
        ansatz.state([0.2])
        assert ansatz.compiled() is compiled
        ansatz.circuit.rz(0, angle=0.5)
        assert ansatz.compiled() is not compiled
        amps = StateVector.zero(1).amplitudes
        for gate in ansatz.circuit.gates:
            amps = per_gate_apply(amps, 1, gate, [0.2])
        assert same_bits(ansatz.state([0.2]).amplitudes, amps)


# --------------------------------------------------------- commuting runs


def family_problems(h2) -> dict[str, tuple[Ansatz, PauliSum]]:
    ints, scheme, ferm, h, _ = h2
    hf = hf_occupation(ints)
    occupied = hf.occupied()
    virtual = [p for p in range(4) if p not in occupied]
    generators = uccsd_generators(4, occupied, virtual)
    prep = preparation_gates(hf, scheme)
    parts = HamiltonianParts.from_fermion(ferm, scheme)
    return {
        "uccsd": (build_uccsd(generators, scheme, hf), h),
        "uccsd-2-steps": (build_uccsd(generators, scheme, hf,
                                      trotter_steps=2), h),
        "hamiltonian-variational": (
            build_hamiltonian_variational(parts, 2, prep), h),
        "ldca": (build_ldca(4, 2), h),
        "hardware-efficient": (build_hardware_efficient(4, 2), h),
        "uccsd-reduced-lih": reduced_lih_uccsd(),
    }


def exp_gates(draws, n: int) -> list[Gate]:
    """Slotted and fixed exp gates from (x, z, slot, scale) draws, slots
    renumbered densely in order of first use."""
    slots: dict[int, int] = {}
    gates = []
    for x, z, slot, scale in draws:
        string = PauliString(x & ((1 << n) - 1), z & ((1 << n) - 1))
        if slot is None:
            gates.append(Gate("exp", (), angle=scale, string=string))
        else:
            gates.append(Gate("exp", (), slot=slots.setdefault(
                slot, len(slots)), scale=scale, string=string))
    return gates


# X masks from a small set, so neighbours often share one; z masks often
# equal or zero, so identity strings and x = 0 diagonal runs occur.
_EXP_DRAWS = st.lists(st.tuples(
    st.sampled_from((0, 0, 3, 5)),
    st.one_of(st.just(0), st.integers(0, 15)),
    st.one_of(st.none(), st.integers(0, 3), st.integers(0, 3)),
    st.floats(-2.0, 2.0, allow_nan=False)), min_size=1, max_size=14)


class TestCommutingRuns:
    """Runs of commuting exp gates against the per-gate kernels."""

    @pytest.fixture(scope="class")
    def problems(self, h2):
        return family_problems(h2)

    @pytest.mark.parametrize("name", ["uccsd", "uccsd-2-steps",
                                      "hamiltonian-variational", "ldca",
                                      "hardware-efficient",
                                      "uccsd-reduced-lih"])
    def test_every_family_stays_within_the_bounds(self, problems, name):
        ansatz, h = problems[name]
        gates, n = ansatz.combined().gates, ansatz.n_qubits
        for seed in range(3):
            theta = make_rng(seed).uniform(-1, 1, size=ansatz.n_params)
            want = per_gate_run(gates, n, theta,
                                StateVector.zero(n).amplitudes)
            assert np.max(np.abs(ansatz.state(theta).amplitudes - want)
                          ) <= 1e-14
            assert np.max(np.abs(analytic_gradient(ansatz, theta, h)
                                 - per_gate_gradient(ansatz, theta, h))
                          ) <= 1e-12

    def test_kernel_counts_of_the_benchmark_ansatze(self, problems):
        counts = {name: (len(ansatz.compiled().gates),
                         len(ansatz.compiled().spans))
                  for name, (ansatz, _) in problems.items()}
        assert counts == {"uccsd": (14, 5), "uccsd-2-steps": (26, 8),
                          "hamiltonian-variational": (44, 7),
                          "ldca": (34, 22),
                          "hardware-efficient": (30, 30),
                          "uccsd-reduced-lih": (86, 17)}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), _EXP_DRAWS, st.integers(0, 2 ** 31))
    def test_random_exp_sequences_match_the_per_gate_kernels(self, n, draws,
                                                              seed):
        gates = exp_gates(draws, n)
        ansatz = Ansatz(Circuit(n, gates), [], HARDWARE_EFFICIENT)
        rng = make_rng(seed)
        theta = rng.uniform(-2, 2, size=ansatz.n_params)
        psi = random_state(rng, n)
        compiled = ansatz.compiled()
        assert np.max(np.abs(compiled.run(theta, psi)
                             - per_gate_run(gates, n, theta, psi))) <= 1e-14
        h = PauliSum({random_pauli_string(rng, n): rng.normal()
                      for _ in range(4)}, n_qubits=n)
        assert np.max(np.abs(analytic_gradient(ansatz, theta, h)
                             - per_gate_gradient(ansatz, theta, h)),
                      initial=0.0) <= 1e-12
        covered = []
        for span in compiled.spans:
            if isinstance(span, int):
                covered.append(span)
                continue
            run = gates[span.start:span.stop]
            assert len(run) > 1 and all(g.slot is not None for g in run)
            covered.extend(range(span.start, span.stop))
            first = run[0].string
            idx, phased = first.tables(1 << n)
            signs = span.rows[span.row_of]
            for k, gate in enumerate(run):
                assert gate.string.x == first.x
                assert commutes(gate.string, first)
                # S[j, k] = phased_k[j] / phased_0[j], every entry +-1
                assert np.array_equal(signs[:, k] * phased,
                                      gate.string.tables(1 << n)[1])
        assert covered == list(range(len(gates)))

    def test_neighbours_that_could_join_are_in_one_run(self):
        gates = exp_gates([(3, 0, 0, 0.5), (3, 3, 1, -1.0), (3, 1, 0, 0.3),
                           (0, 0, 2, 1.0), (0, 1, 2, 0.7), (0, 3, 1, 0.1),
                           (3, 1, None, 0.4), (3, 0, 1, 0.2)], 2)
        spans = CompiledCircuit(gates, 2).spans
        # X0 X1 and Y0 Y1 commute, Y0 X1 does not; I, Z0 and Z0 Z1 make a
        # diagonal run; a fixed-angle gate and the gate after it stand alone
        assert [(s.start, s.stop) if isinstance(s, CommutingRun) else s
                for s in spans] == [(0, 2), 2, (3, 6), 6, 7]

    def test_rank_past_the_cap_starts_a_new_run(self):
        n = RUN_RANK + 3
        gates = exp_gates([(0, 1 << q, q, 0.1 * (q + 1))
                           for q in range(n)], n)
        spans = CompiledCircuit(gates, n).spans
        # Z_q Z_0 for q = 1, 2, ... are independent: the first run holds
        # RUN_RANK of them beside Z_0
        assert [(s.start, s.stop) for s in spans] == \
            [(0, RUN_RANK + 1), (RUN_RANK + 1, n)]

    def test_strings_that_do_not_commute_are_refused(self):
        x0, y0, z0 = (PauliString.single(letter, 0) for letter in "XYZ")
        for pair in ((x0, y0), (x0, z0)):
            with pytest.raises(NonCommutingRun):
                CommutingRun([Gate("exp", (), slot=0, string=s)
                              for s in pair], 0, 1)

    def test_sign_tables_are_built_on_the_first_run_under_the_budget(
            self, problems, monkeypatch):
        import hartree.pauli as pauli

        ansatz, _ = problems["uccsd-reduced-lih"]
        gates, n = ansatz.combined().gates, ansatz.n_qubits
        needed = sum(span.nbytes for span in CompiledCircuit(gates, n).spans
                     if isinstance(span, CommutingRun))
        compiled = CompiledCircuit(gates, n)
        assert "spans" not in vars(compiled)  # compiling groups nothing
        monkeypatch.setattr(pauli, "BYTE_BUDGET", needed - 1)
        zero = StateVector.zero(n).amplitudes
        with pytest.raises(TooLarge, match=f"sign tables .* needs {needed}"):
            compiled.run(np.zeros(ansatz.n_params), zero)
        monkeypatch.setattr(pauli, "BYTE_BUDGET", needed)
        compiled.run(np.zeros(ansatz.n_params), zero)
        assert all(span.row_of is not None for span in compiled.spans
                   if isinstance(span, CommutingRun))


class TestPenalty:
    def test_z_minus_identity_squared(self):
        h = PauliSum.from_text({"X0": 1.0})
        out = penalty_hamiltonian(h, [(PauliSum.from_text({"Z0": 1.0}), 1.0, 1.0)])
        assert out.coeff("") == pytest.approx(2.0)
        assert out.coeff("Z0") == pytest.approx(-2.0)
        assert out.coeff("X0") == pytest.approx(1.0)

    def test_in_sector_energies_unchanged(self, h2, h2_uccsd):
        ints, scheme, _, h, _ = h2
        charge = encode_operator(number_operator(range(4)), scheme)
        penalized = penalty_hamiltonian(h, [(charge, float(ints.n_electrons), 5.0)])
        rng = make_rng(8)
        for _ in range(5):
            theta = rng.uniform(-0.5, 0.5, 3)
            bare = estimate_energy(h2_uccsd, theta, h).mean
            shifted = estimate_energy(h2_uccsd, theta, penalized).mean
            assert abs(bare - shifted) < 1e-10

    def test_out_of_sector_energies_rise(self, h2):
        _, scheme, _, h, _ = h2
        charge = encode_operator(number_operator(range(4)), scheme)
        penalized = penalty_hamiltonian(h, [(charge, 2.0, 5.0)])
        vacuum = build_hardware_efficient(4, 1)
        theta = np.zeros(vacuum.n_params)
        bare = estimate_energy(vacuum, theta, h).mean
        shifted = estimate_energy(vacuum, theta, penalized).mean
        assert shifted == pytest.approx(bare + 5.0 * 4.0, abs=1e-10)

    def test_validation(self):
        h = PauliSum.from_text({"Z0": 1.0})
        with pytest.raises(ValueError):
            penalty_hamiltonian(h, [(PauliSum.from_text({"Z0": 1.0}), 0.0, -1.0)])
        skew = PauliSum.from_text({"X0": 1j})
        with pytest.raises(ValueError):
            penalty_hamiltonian(h, [(skew, 0.0, 1.0)])


# ----------------------------------------------------------------- optimizers


class TestOptimizers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="newton")
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_evals=0)
        for tolerance in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite and positive"):
                OptimizerConfig(tolerance=tolerance)
        with pytest.raises(ValueError, match="seed must not be negative"):
            OptimizerConfig(seed=-1)
        assert OptimizerConfig(seed=0).seed == 0

    def test_simplex_solves_single_rotation(self):
        ansatz = toy_rx_ansatz()
        h = PauliSum.from_text({"Z0": 1.0})
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=500,
                                 tolerance=1e-12)
        result = optimize(ansatz, h, config, initial=[1.0])
        assert result.converged
        assert result.best_energy == pytest.approx(-1.0, abs=1e-9)
        assert result.best_params[0] == pytest.approx(np.pi, abs=1e-4)

    def test_perturbation_search_solves_single_rotation(self):
        ansatz = toy_rx_ansatz()
        h = PauliSum.from_text({"Z0": 1.0})
        config = OptimizerConfig(method=SPSA, max_evals=2000, seed=1,
                                 spsa_a=0.5, spsa_c=0.1)
        result = optimize(ansatz, h, config, initial=[1.0])
        assert result.best_energy == pytest.approx(-1.0, abs=1e-3)

    def test_descent_solves_cluster_ansatz(self, h2, h2_uccsd):
        _, _, _, h, fci = h2
        config = OptimizerConfig(method=GRADIENT_DESCENT, max_evals=400,
                                 tolerance=1e-10, learning_rate=0.3, seed=0)
        result = optimize(h2_uccsd, h, config)
        assert result.converged
        assert result.best_energy == pytest.approx(fci, abs=1e-8)

    def test_budget_exhaustion_is_soft(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=5,
                                 tolerance=1e-12, seed=0)
        result = optimize(h2_uccsd, h, config)
        assert not result.converged
        assert result.best_params is not None
        assert np.isfinite(result.best_energy)

    def test_quasi_newton_stops_at_exactly_its_cap(self, h2, monkeypatch):
        # scipy's own maxfun=5 lets this line search run to 8 evaluations.
        ansatz = build_hardware_efficient(4, 1)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return analytic_gradient(*args, **kwargs)

        monkeypatch.setattr(vqe, "analytic_gradient", counted)
        result = optimize(ansatz, h2[3],
                          OptimizerConfig(method=L_BFGS, max_evals=5),
                          initial=initial_parameters(ansatz, seed=5))
        assert len(calls) == result.evaluations == 5
        assert not result.converged
        assert result.best_energy == min(e for e, _ in result.trace)

    def test_quasi_newton_converges_only_on_success(self, h2, monkeypatch):
        # An uphill gradient ends the line search abnormally, under the cap.
        ansatz = build_hardware_efficient(4, 1)

        def uphill(*args, **kwargs):
            energy, gradient = analytic_gradient(*args, **kwargs)
            return energy, -gradient

        monkeypatch.setattr(vqe, "analytic_gradient", uphill)
        result = optimize(ansatz, h2[3],
                          OptimizerConfig(method=L_BFGS, max_evals=300),
                          initial=initial_parameters(ansatz, seed=5))
        assert result.evaluations < 300
        assert not result.converged

    @pytest.mark.parametrize("kwargs", [{"shots": 100},
                                        {"noise": NoiseModel(1e-3, 1e-3)}])
    def test_quasi_newton_refuses_inexact_energies(self, h2, h2_uccsd,
                                                   kwargs):
        with pytest.raises(InexactEnergies, match="needs exact energies"):
            optimize(h2_uccsd, h2[3], OptimizerConfig(method=L_BFGS),
                     rng=make_rng(1), **kwargs)

    @pytest.mark.parametrize("method", [NELDER_MEAD, L_BFGS, SPSA,
                                        GRADIENT_DESCENT])
    def test_an_empty_ansatz_is_evaluated_once(self, method):
        ansatz = Ansatz(Circuit(1), [], HARDWARE_EFFICIENT)
        h = PauliSum.from_text({"Z0": 1.0})
        result = optimize(ansatz, h, OptimizerConfig(method=method))
        assert result.evaluations == 1
        assert result.trace == [(1.0, 1)]
        assert result.best_energy == 1.0
        assert result.converged

    def test_best_energy_is_trace_minimum(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        for method, kwargs in ((NELDER_MEAD, {}), (SPSA, {"spsa_a": 0.4}),
                               (GRADIENT_DESCENT, {"learning_rate": 0.2}),
                               (L_BFGS, {})):
            config = OptimizerConfig(method=method, max_evals=120,
                                     tolerance=1e-12, seed=2, **kwargs)
            result = optimize(h2_uccsd, h, config)
            energies = [e for e, _ in result.trace]
            assert result.best_energy == pytest.approx(min(energies), abs=1e-12)
            counts = [n for _, n in result.trace]
            assert counts == sorted(counts)
            assert counts[-1] <= 120

    def test_exact_mode_respects_variational_bound(self, h2, h2_uccsd):
        _, _, _, h, fci = h2
        config = OptimizerConfig(method=NELDER_MEAD, max_evals=600,
                                 tolerance=1e-12, seed=4)
        result = optimize(h2_uccsd, h, config)
        assert all(e >= fci - 1e-9 for e, _ in result.trace)

    def test_seeded_runs_reproduce_exactly(self, h2_tapered):
        reduced, _ = h2_tapered
        ansatz = build_hardware_efficient(2, 2)
        config = OptimizerConfig(method=SPSA, max_evals=400, seed=9)
        first = optimize(ansatz, reduced, config, shots=64)
        second = optimize(ansatz, reduced, config, shots=64)
        assert first.best_energy == second.best_energy
        assert np.array_equal(first.best_params, second.best_params)
        assert first.trace == second.trace
        assert first.shots_used == second.shots_used > 0

    def test_initial_parameters_by_family(self, h2_uccsd):
        assert np.array_equal(initial_parameters(h2_uccsd), np.zeros(3))
        spread = initial_parameters(build_hardware_efficient(3, 1), seed=1)
        assert spread.shape == (12,)
        assert np.all(np.abs(spread) <= 0.01)
        assert np.any(spread != 0)


def reduced_lih_uccsd() -> tuple[Ansatz, PauliSum]:
    """UCCSD on the frozen-orbital LiH problem, as the CLI's --reduce builds
    it, with its JW Hamiltonian."""
    ints = reduce_problem(load_fixture("lih_sto3g_1.45")).integrals
    scheme = EncodingScheme(JW, ints.m)
    reference = hf_occupation(ints)
    occupied = reference.occupied()
    virtual = [p for p in range(ints.m) if p not in occupied]
    ansatz = build_uccsd(uccsd_generators(ints.m, occupied, virtual),
                         scheme, reference)
    return ansatz, encode_operator(build_molecular_hamiltonian(ints), scheme)


class TestFusedDescentStep:
    """Exact-mode descent reads each step's energy off the gradient sweep."""

    @pytest.fixture(scope="class")
    def problems(self, h2, h2_uccsd):
        h = h2[3]
        efficient = build_hardware_efficient(4, 1)
        lih, lih_h = reduced_lih_uccsd()
        return {"uccsd-h2": (h2_uccsd, h, np.zeros(3)),
                "hardware-efficient-h2": (
                    efficient, h, initial_parameters(efficient, seed=5)),
                "uccsd-reduced-lih": (lih, lih_h, np.zeros(lih.n_params))}

    @pytest.mark.parametrize("name", ["uccsd-h2", "hardware-efficient-h2",
                                      "uccsd-reduced-lih"])
    def test_descent_matches_the_two_call_loop_bit_for_bit(self, problems,
                                                           name):
        ansatz, h, theta0 = problems[name]
        config = OptimizerConfig(method=GRADIENT_DESCENT, max_evals=300)
        result = optimize(ansatz, h, config, initial=theta0)
        trace, best_params, best_energy = two_call_descent(ansatz, h, config,
                                                           theta0)
        assert result.trace == trace
        assert same_bits(result.best_params, best_params)
        assert result.best_energy == best_energy

    def test_noisy_descent_keeps_the_two_call_loop(self, h2, h2_uccsd):
        h, noise = h2[3], NoiseModel(0.01, 0.01)
        config = OptimizerConfig(method=GRADIENT_DESCENT, max_evals=4)
        result = optimize(h2_uccsd, h, config, noise=noise, rng=make_rng(7),
                          initial=np.zeros(3), trajectories=8)
        stream = split_rng(make_rng(7), 3)[1]
        trace, best_params, best_energy = two_call_descent(
            h2_uccsd, h, config, np.zeros(3), noise=noise, rng=stream,
            trajectories=8)
        assert result.trace == trace
        assert same_bits(result.best_params, best_params)
        assert result.best_energy == best_energy

    @pytest.mark.parametrize("name", ["uccsd-h2", "hardware-efficient-h2",
                                      "uccsd-reduced-lih"])
    def test_sweep_energy_is_the_estimate_bit_for_bit(self, problems, name):
        ansatz, h, theta0 = problems[name]
        theta = theta0 + make_rng(3).uniform(-0.5, 0.5, size=theta0.shape)
        energy, gradient = analytic_gradient(ansatz, theta, h,
                                             with_energy=True)
        assert energy == estimate_energy(ansatz, theta, h).mean
        assert same_bits(gradient, analytic_gradient(ansatz, theta, h))

    def test_sweep_energy_keeps_the_hermiticity_check(self, h2_uccsd):
        skew = PauliSum.from_text({"Z0": 1.0, "X1": 0.5j})
        with pytest.raises(NonHermitian):
            analytic_gradient(h2_uccsd, np.zeros(3), skew, with_energy=True)


class CountingRng:
    """A generator that tallies the trials of every binomial draw it makes
    (the shots drawn) and hands every other call to the generator it
    wraps."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.trials = rng, 0

    def binomial(self, n, p, size=None):
        counts = self.rng.binomial(n, p, size)
        self.trials += int(np.broadcast_to(n, np.shape(counts)).sum())
        return counts

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestSampledSearch:
    """Nelder-Mead on shot-sampled energies starts from a simplex the noise
    cannot hide and stops at the noise floor; every sampled method reports
    a fresh estimate at its best point and counts the shots it draws."""

    SHOTS = 10 ** 4

    @pytest.fixture(scope="class")
    def battery(self, h2, h2_uccsd):
        """(evaluations, exact energy at the returned theta, reported
        energy) of the default sampled search at seeds 0-199."""
        h = h2[3]
        runs = []
        for seed in range(200):
            result = optimize(h2_uccsd, h, OptimizerConfig(),
                              shots=self.SHOTS, rng=make_rng(seed))
            exact = estimate_energy(h2_uccsd, result.best_params, h).mean
            runs.append((result.evaluations, exact, result.best_energy))
        return runs

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_cli_search_leaves_hartree_fock(self, h2, h2_uccsd, tmp_path,
                                            seed):
        h = h2[3]
        out = tmp_path / "vqe.json"
        assert main(["vqe", "--fixture", H2_EQUILIBRIUM, "--shots",
                     str(self.SHOTS), "--seed", str(seed), "--out",
                     str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        hartree_fock = estimate_energy(h2_uccsd, np.zeros(3), h).mean
        exact = estimate_energy(h2_uccsd, result["parameters"], h).mean
        assert exact < hartree_fock - 15e-3
        assert result["converged"]
        assert result["evaluations"] < OptimizerConfig().max_evals

    def test_battery_reaches_chemical_accuracy_without_the_budget(
            self, h2, h2_uccsd, battery):
        fci = h2[4]
        hartree_fock = estimate_energy(h2_uccsd, np.zeros(3), h2[3]).mean
        seeds = battery[:100]
        assert all(exact < hartree_fock - 1e-3 for _, exact, _ in seeds)
        assert sum(exact - fci < CHEMICAL_ACCURACY
                   for _, exact, _ in seeds) >= 70
        assert max(evals for evals, _, _ in seeds) \
            < OptimizerConfig().max_evals

    def test_reported_energy_is_unbiased(self, battery):
        bias = np.array([reported - exact for _, exact, reported in battery])
        error = bias.std(ddof=1) / np.sqrt(bias.size)
        assert abs(bias.mean()) < 4 * error

    def test_first_simplex_steps_along_each_axis(self, h2, h2_uccsd,
                                                 monkeypatch):
        seen = []

        def spy(ansatz, theta, *args, **kwargs):
            seen.append(np.array(theta, dtype=float))
            return estimate_energy(ansatz, theta, *args, **kwargs)

        monkeypatch.setattr(vqe, "estimate_energy", spy)
        theta0 = np.array([0.3, -0.2, 0.05])
        result = optimize(h2_uccsd, h2[3], OptimizerConfig(),
                          shots=self.SHOTS, rng=make_rng(3), initial=theta0)
        # theta0 is drawn once; the last estimate is the fresh one
        assert len(seen) == result.evaluations + 1
        for got, vertex in zip(seen, np.vstack([np.zeros(3), np.eye(3)])):
            assert same_bits(got, theta0 + SIMPLEX_STEP * vertex)
        assert same_bits(seen[-1], result.best_params)

    def test_stop_sits_at_the_noise_floor_of_the_first_vertex(
            self, h2, h2_uccsd, monkeypatch):
        import scipy.optimize

        options = []

        def spy(*args, **kwargs):
            options.append(kwargs["options"])
            return minimize(*args, **kwargs)

        minimize = scipy.optimize.minimize
        monkeypatch.setattr(scipy.optimize, "minimize", spy)
        optimize(h2_uccsd, h2[3], OptimizerConfig(), shots=self.SHOTS,
                 rng=make_rng(3))
        first = estimate_energy(h2_uccsd, np.zeros(3), h2[3],
                                shots=self.SHOTS,
                                rng=split_rng(make_rng(3), 4)[1])
        (used,) = options
        assert used["fatol"] == NOISE_FLOOR * first.std_error
        assert used["xatol"] == np.inf

    @pytest.mark.parametrize("method", [NELDER_MEAD, SPSA, GRADIENT_DESCENT])
    def test_reported_energy_is_a_fresh_estimate_from_the_fourth_stream(
            self, h2, h2_uccsd, method):
        h = h2[3]
        result = optimize(h2_uccsd, h,
                          OptimizerConfig(method=method, max_evals=30),
                          shots=self.SHOTS, rng=make_rng(5))
        fresh = estimate_energy(h2_uccsd, result.best_params, h,
                                shots=self.SHOTS,
                                rng=split_rng(make_rng(5), 4)[3])
        assert result.best_energy == fresh.mean
        assert result.evaluations == result.trace[-1][1] <= 30

    def test_fourth_stream_keeps_the_first_three(self):
        for four, three in zip(split_rng(make_rng(5), 4),
                               split_rng(make_rng(5), 3)):
            assert same_bits(four.random(8), three.random(8))

    @pytest.mark.parametrize("method, noise", [
        (NELDER_MEAD, None), (SPSA, None), (GRADIENT_DESCENT, None),
        (NELDER_MEAD, NoiseModel(1e-3, 1e-3))], ids=["nelder-mead", "spsa",
                                                     "descent", "noisy"])
    def test_shots_used_counts_the_shots_drawn(self, h2, h2_uccsd,
                                               monkeypatch, method, noise):
        streams = []

        def counted(rng, count):
            streams.extend(CountingRng(r) for r in split_rng(rng, count))
            return streams[-count:]

        monkeypatch.setattr(vqe, "split_rng", counted)
        result = optimize(h2_uccsd, h2[3],
                          OptimizerConfig(method=method, max_evals=12),
                          shots=100, noise=noise, rng=make_rng(2),
                          trajectories=8)
        assert result.shots_used == sum(s.trials for s in streams)
        # 14 measured terms (the identity is not), the fresh estimate too
        per_estimate = 14 * 100 * (1 if noise is None else 8)
        assert result.shots_used == per_estimate * (result.evaluations + 1)

    @pytest.mark.parametrize("name", ["uccsd", "hardware-efficient", "noisy"])
    def test_nelder_mead_without_shots_keeps_its_trace_bit_for_bit(
            self, h2, h2_uccsd, name):
        h = h2[3]
        ansatz, theta0, noise = h2_uccsd, np.zeros(3), None
        if name == "hardware-efficient":
            ansatz = build_hardware_efficient(4, 1)
            theta0 = initial_parameters(ansatz, seed=5)
        elif name == "noisy":
            noise = NoiseModel(1e-3, 1e-3)
        config = OptimizerConfig(max_evals=300 if noise is None else 12)
        result = optimize(ansatz, h, config, noise=noise, rng=make_rng(7),
                          initial=theta0, trajectories=8)
        trace, best_params, best_energy = plain_nelder_mead(
            ansatz, h, config, theta0, noise=noise,
            rng=split_rng(make_rng(7), 3)[1], trajectories=8)
        assert result.trace == trace
        assert same_bits(result.best_params, best_params)
        assert result.best_energy == best_energy
        assert result.shots_used == 0

    def test_descent_that_never_moves_is_not_converged(self, tmp_path):
        # Hamiltonian variational's gradient at theta = 0 is exactly zero
        out = tmp_path / "vqe.json"
        assert main(["vqe", "--fixture", H2_EQUILIBRIUM, "--ansatz",
                     "hamiltonian-variational", "--optimizer",
                     "gradient-descent", "--seed", "3", "--out",
                     str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["parameters"] == [0.0, 0.0, 0.0]
        assert result["evaluations"] < OptimizerConfig().max_evals
        assert not result["converged"]


class TestEstimateEnergy:
    def test_exact_mode_reports_zero_spread(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        estimate = estimate_energy(h2_uccsd, np.zeros(3), h)
        assert estimate.std_error == 0.0
        assert estimate.shots == 1

    def test_shots_need_a_generator(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        with pytest.raises(ValueError):
            estimate_energy(h2_uccsd, np.zeros(3), h, shots=100)

    def test_noise_needs_a_generator(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        with pytest.raises(ValueError, match="random generator"):
            estimate_energy(h2_uccsd, np.zeros(3), h,
                            noise=NoiseModel(0.01, 0.01), trajectories=8)

    def test_zero_rate_noise_matches_exact(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        exact = estimate_energy(h2_uccsd, np.zeros(3), h).mean
        noisy = estimate_energy(h2_uccsd, np.zeros(3), h,
                                noise=NoiseModel(0.0, 0.0),
                                rng=make_rng(1), trajectories=8)
        assert noisy.mean == pytest.approx(exact, abs=1e-12)
        assert noisy.std_error == 0.0

    def test_noisy_estimate_reports_spread(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        noisy = estimate_energy(h2_uccsd, np.zeros(3), h,
                                noise=NoiseModel(0.02, 0.02),
                                rng=make_rng(1), trajectories=64)
        assert noisy.std_error > 0
        assert noisy.shots == 64

    def test_a_noisy_evaluation_reuses_the_compiled_ansatz(
            self, h2, h2_uccsd, monkeypatch):
        _, _, _, h, _ = h2
        theta = np.full(h2_uccsd.n_params, 0.1)  # compiles the ansatz
        noise = NoiseModel(0.02, 0.02)
        built = count_compiles(monkeypatch)
        first = estimate_energy(h2_uccsd, theta, h, noise=noise,
                                rng=make_rng(3), trajectories=64)
        assert built == []
        fresh = noisy_expectation(h2_uccsd.combined(), theta, h, noise,
                                  make_rng(3), 64)
        assert len(built) == 1
        assert (first.mean, first.std_error) == (fresh.mean, fresh.std_error)

    def test_parameter_length_checked(self, h2, h2_uccsd):
        _, _, _, h, _ = h2
        with pytest.raises(ValueError):
            estimate_energy(h2_uccsd, np.zeros(2), h)

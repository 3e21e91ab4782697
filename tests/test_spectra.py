"""Deflation, folded-spectrum, and subspace-expansion methods."""

import numpy as np
import pytest
import scipy.optimize

from conftest import same_sum_bits
from hartree.encoding import (
    JW,
    PARITY,
    VARIANTS,
    EncodingScheme,
    encode_operator,
)
from hartree.fermion import FermionSum, build_molecular_hamiltonian
from hartree.io_cli import load_fixture
from hartree.pauli import PauliString, PauliSum, to_matrix
from hartree.reduction import sector_for, taper_two_qubits
from hartree.simulator import StateVector, make_rng
from hartree.spectra import (
    AlphaTooSmall,
    DegenerateSubspace,
    SubspaceProblem,
    default_alpha,
    deflated_hamiltonian,
    excitation_expansion,
    folded_hamiltonian,
    qse_solve,
    solve_subspace,
    subspace_problem,
)
from hartree.vqe import build_hardware_efficient

CHEMICAL_ACCURACY = 1.6e-3

IDENTITY = PauliString(0, 0)
PER_QUBIT_2 = [IDENTITY] + [PauliString.single(letter, q)
                            for q in range(2) for letter in "XYZ"]


@pytest.fixture(scope="module")
def tapered_h2():
    ints = load_fixture("h2_sto3g_0.7414")
    scheme = EncodingScheme(PARITY, 4)
    h = taper_two_qubits(
        encode_operator(build_molecular_hamiltonian(ints), scheme),
        scheme, sector_for(ints.n_electrons, ints.n_up))
    evals, evecs = np.linalg.eigh(to_matrix(h, 2))
    return h, evals, evecs


def random_unit(rng, dim):
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return raw / np.linalg.norm(raw)


class TestDeflation:
    def test_orthogonal_state_sees_plain_energy(self, tapered_h2):
        h, evals, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        objective = deflated_hamiltonian(h, ground, default_alpha(h))
        excited = StateVector(evecs[:, 2].astype(complex), 2)
        assert objective(excited) == pytest.approx(evals[2], abs=1e-12)

    def test_ground_state_pays_full_penalty(self, tapered_h2):
        h, evals, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        alpha = default_alpha(h)
        objective = deflated_hamiltonian(h, ground, alpha)
        assert objective(ground) == pytest.approx(evals[0] + alpha, abs=1e-10)

    def test_small_shift_warns(self, tapered_h2):
        h, _, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        with pytest.warns(AlphaTooSmall):
            deflated_hamiltonian(h, ground, 0.01)

    def test_dense_minimum_is_first_excited(self, tapered_h2):
        h, evals, evecs = tapered_h2
        alpha = default_alpha(h)
        dense = to_matrix(h, 2) + alpha * np.outer(evecs[:, 0],
                                                   evecs[:, 0].conj())
        assert np.linalg.eigvalsh(dense)[0] == pytest.approx(evals[1],
                                                             abs=1e-10)

    def test_random_operators_dense_minimum(self):
        rng = make_rng(12)
        for _ in range(5):
            coeffs = {text: rng.normal() for text in
                      ("", "Z0", "X0 X1", "Y0 Z1", "Z0 Z1", "X1")}
            h = PauliSum.from_text(coeffs)
            evals, evecs = np.linalg.eigh(to_matrix(h, 2))
            alpha = default_alpha(h)
            dense = to_matrix(h, 2) + alpha * np.outer(evecs[:, 0],
                                                       evecs[:, 0].conj())
            assert np.linalg.eigvalsh(dense)[0] == pytest.approx(
                evals[1], abs=1e-10)

    def test_variational_search_finds_first_excited(self, tapered_h2):
        h, evals, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        objective = deflated_hamiltonian(h, ground, default_alpha(h))
        ansatz = build_hardware_efficient(2, 2)
        rng = make_rng(1)
        result = scipy.optimize.minimize(
            lambda theta: objective(ansatz.state(theta)),
            rng.uniform(-0.1, 0.1, ansatz.n_params), method="Nelder-Mead",
            options={"maxfev": 4000, "fatol": 1e-12, "xatol": 1e-8,
                     "adaptive": True})
        assert abs(result.fun - evals[1]) < CHEMICAL_ACCURACY


class TestFolded:
    def test_single_z_example(self):
        folded = folded_hamiltonian(PauliSum.from_text({"Z0": 1.0}), 1.0)
        assert folded.coeff("") == pytest.approx(2.0)
        assert folded.coeff("Z0") == pytest.approx(-2.0)
        assert len(folded.items()) == 2

    def test_matches_dense_square(self, tapered_h2):
        h, evals, _ = tapered_h2
        alpha = 0.5 * (evals[0] + evals[2])
        dense = to_matrix(h, 2) - alpha * np.eye(4)
        assert np.allclose(to_matrix(folded_hamiltonian(h, alpha), 2),
                           dense @ dense, atol=1e-12)

    def test_zero_minimum_exactly_at_eigenvalues(self, tapered_h2):
        h, evals, _ = tapered_h2
        for value in evals:
            folded = folded_hamiltonian(h, float(value))
            assert np.linalg.eigvalsh(to_matrix(folded, 2))[0] == \
                pytest.approx(0.0, abs=1e-10)

    def test_positive_minimum_between_eigenvalues(self, tapered_h2):
        h, evals, _ = tapered_h2
        alpha = 0.5 * (evals[0] + evals[1])
        folded = folded_hamiltonian(h, alpha)
        assert np.linalg.eigvalsh(to_matrix(folded, 2))[0] > 1e-3

    def test_expectation_never_negative(self, tapered_h2):
        h, evals, _ = tapered_h2
        folded = folded_hamiltonian(h, 0.3)
        rng = make_rng(5)
        for _ in range(10):
            psi = StateVector(random_unit(rng, 4), 2)
            assert psi.expectation(folded) >= -1e-10

    def test_term_count_bound(self, tapered_h2):
        h, _, _ = tapered_h2
        folded = folded_hamiltonian(h, 0.7)
        original = len(h.items())
        assert len(folded.items()) <= (original + 1) ** 2

    def test_variational_search_targets_middle_eigenstate(self, tapered_h2):
        h, evals, _ = tapered_h2
        alpha = 0.5 * (evals[0] + evals[2])
        folded = folded_hamiltonian(h, alpha)
        ansatz = build_hardware_efficient(2, 2)
        rng = make_rng(1)
        result = scipy.optimize.minimize(
            lambda theta: ansatz.state(theta).expectation(folded),
            rng.uniform(-0.1, 0.1, ansatz.n_params), method="Nelder-Mead",
            options={"maxfev": 6000, "fatol": 1e-14, "xatol": 1e-9,
                     "adaptive": True})
        energy = ansatz.state(result.x).expectation(h)
        assert abs(energy - evals[1]) < CHEMICAL_ACCURACY


class TestSubspaceExpansion:
    def test_identity_alone_gives_rayleigh_quotient(self, tapered_h2):
        h, _, _ = tapered_h2
        psi = StateVector(random_unit(make_rng(7), 4), 2)
        values = qse_solve(psi, h, [IDENTITY])
        assert len(values) == 1
        assert values[0] == pytest.approx(psi.expectation(h), abs=1e-12)

    def test_full_expansion_recovers_spectrum(self, tapered_h2):
        h, evals, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        full = [PauliString(x, z) for x in range(4) for z in range(4)]
        values = qse_solve(ground, h, full)
        assert np.max(np.abs(np.array(values) - evals)) < 1e-8

    def test_per_qubit_expansion_reaches_chemical_accuracy(self, tapered_h2):
        h, evals, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        values = qse_solve(ground, h, PER_QUBIT_2)
        assert abs(values[0] - evals[0]) < CHEMICAL_ACCURACY
        assert np.max(np.abs(np.array(values) - evals)) < CHEMICAL_ACCURACY

    def test_repairs_an_imperfect_reference(self, tapered_h2):
        h, evals, evecs = tapered_h2
        rng = make_rng(7)
        corrupted = evecs[:, 0].astype(complex) \
            + 0.05 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        psi = StateVector(corrupted / np.linalg.norm(corrupted), 2)
        raw_error = psi.expectation(h) - evals[0]
        values = qse_solve(psi, h, PER_QUBIT_2)
        assert raw_error > 1e-3
        assert abs(values[0] - evals[0]) < 1e-8

    def test_values_stay_inside_oracle_range(self, tapered_h2):
        h, evals, _ = tapered_h2
        rng = make_rng(3)
        for _ in range(5):
            psi = StateVector(random_unit(rng, 4), 2)
            values = qse_solve(psi, h, PER_QUBIT_2)
            assert min(values) >= evals[0] - 1e-8
            assert max(values) <= evals[-1] + 1e-8

    def test_larger_expansions_never_raise_the_minimum(self, tapered_h2):
        h, _, _ = tapered_h2
        psi = StateVector(random_unit(make_rng(9), 4), 2)
        nested = [
            [IDENTITY],
            [IDENTITY, PauliString.single("X", 0)],
            [IDENTITY, PauliString.single("X", 0), PauliString.single("Y", 1)],
            PER_QUBIT_2,
        ]
        previous = np.inf
        for expansion in nested:
            lowest = qse_solve(psi, h, expansion)[0]
            assert lowest <= previous + 1e-10
            previous = lowest

    def test_validation(self, tapered_h2):
        h, _, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        with pytest.raises(ValueError):
            qse_solve(ground, h, [])
        with pytest.raises(ValueError):
            qse_solve(ground, h, [PauliString.single("X", 0)])

    def test_degenerate_subspace_raises(self, tapered_h2):
        h, _, evecs = tapered_h2
        ground = StateVector(evecs[:, 0].astype(complex), 2)
        with pytest.raises(DegenerateSubspace):
            qse_solve(ground, h, PER_QUBIT_2, s_cutoff=100.0)

    def test_problem_validation(self):
        eye = np.eye(2, dtype=complex)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            SubspaceProblem(skew, eye, ("a", "b"))
        with pytest.raises(ValueError):
            SubspaceProblem(eye, -eye, ("a", "b"))
        with pytest.raises(ValueError):
            SubspaceProblem(eye, eye, ("a",))

    def test_excitation_expansion_recovers_ground(self):
        ints = load_fixture("h2_sto3g_0.7414")
        scheme = EncodingScheme(JW, 4)
        h = encode_operator(build_molecular_hamiltonian(ints), scheme)
        evals, evecs = np.linalg.eigh(to_matrix(h, 4))
        ground = StateVector(evecs[:, 0].astype(complex), 4)
        operators, labels = excitation_expansion(scheme)
        assert labels[0] == "I"
        assert len(operators) == 1 + 4 * 3
        problem = subspace_problem(ground, h, operators, labels)
        values = solve_subspace(problem)
        assert values[0] == pytest.approx(evals[0], abs=1e-8)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_excitation_images_keep_their_own_bits(self, variant):
        # All m(m-1) excitations come from one encoder call.
        scheme = EncodingScheme(variant, 6)
        operators, labels = excitation_expansion(scheme)
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        assert labels == ["I", *(f"a+{i} a{j}" for i, j in pairs)]
        for operator, (i, j) in zip(operators[1:], pairs, strict=True):
            assert same_sum_bits(operator, encode_operator(
                FermionSum.single([(i, True), (j, False)]), scheme))

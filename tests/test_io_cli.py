"""FCIDUMP parsing, exact oracles, pipeline runs, curves, and the CLI."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import hartree
from conftest import complex_eigh, random_pauli_string
from hartree.encoding import JW, PARITY, VARIANTS, EncodingScheme, encode_operator
from hartree.errors import ConfigError, HartreeError, NumericalError
from hartree.fermion import FermionOperator, build_molecular_hamiltonian
from hartree.io_cli import (
    H2_CURVE,
    H2_EQUILIBRIUM,
    CurveResult,
    ParseError,
    RunConfig,
    StageFailure,
    SymmetryViolation,
    dissociation_curve,
    document_json,
    emit_fcidump,
    exact_eigensolve,
    fixture_text,
    ground_state,
    list_fixtures,
    load_fixture,
    load_problem,
    parse_fcidump,
    parse_fcidump_spatial,
    run_pipeline,
)
from hartree.io_cli import oracle, pipeline
from hartree.io_cli.cli import exit_code_for, main
from hartree.io_cli.fcidump import (
    EXPAND_ENTRY_BYTES,
    PARSE_ENTRY_BYTES,
    SpatialIntegrals,
    to_spin_orbitals,
)
from hartree.mitigation import SignInconsistent
from hartree.pauli import (
    BYTE_BUDGET,
    PauliString,
    PauliSum,
    TooLarge,
    to_csr,
    to_matrix,
    x_masks,
)
from hartree.reduction import reduce_problem, sector_for, taper_two_qubits
from hartree.simulator import ZeroOverlap, hermitian_eigh, qpe_bytes
from hartree.spectra import AlphaTooSmall, DegenerateSubspace
from hartree.vqe import SPSA, OptimizerConfig

# Golden values from the dense oracle on the shipped fixtures, frozen after
# first computation.
H2_GROUND = -1.1372701754095447
H2_CORE = 0.7137540450419448
LIH_ACTIVE_GROUND = -7.880762952570256
HF_MINIMUM = -1.1166843901187666

CORE_ONLY = """&FCI NORB=2,NELEC=2,MS2=0,
&END
 0.75 0 0 0 0
"""


def h2_hamiltonian():
    ints = load_fixture(H2_EQUILIBRIUM)
    scheme = EncodingScheme("jw", ints.m)
    return encode_operator(build_molecular_hamiltonian(ints), scheme)


class TestParsing:
    def test_core_only_file_has_zero_integrals(self):
        ints = parse_fcidump(CORE_ONLY)
        assert ints.m == 4
        assert ints.n_electrons == 2
        assert ints.core_energy == 0.75
        assert not ints.h_one.any()
        assert not ints.h_two.any()

    def test_missing_header_is_parse_error(self):
        with pytest.raises(ParseError, match="header"):
            parse_fcidump("1.0 1 1 0 0\n")

    def test_index_past_norb_is_parse_error(self):
        text = CORE_ONLY + " 1.0 3 1 0 0\n"
        with pytest.raises(ParseError, match="index outside"):
            parse_fcidump(text)

    def test_parse_error_names_the_line(self):
        text = CORE_ONLY + " 1.0 3 1 0 0\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_fcidump(text)

    def test_malformed_record_is_parse_error(self):
        with pytest.raises(ParseError, match="value i j k l"):
            parse_fcidump(CORE_ONLY + " 1.0 1 1\n")

    def test_conflicting_duplicate_is_symmetry_violation(self):
        text = CORE_ONLY + " 1.0 1 2 1 1\n 2.0 2 1 1 1\n"
        with pytest.raises(SymmetryViolation):
            parse_fcidump(text)

    @pytest.mark.parametrize("records, where", [
        (" 0.1 1 2 0 0\n 0.3 2 1 0 0\n", r"line 5: .* h\(2,1\)"),
        (" -1.25 1 1 0 0\n -1.0 1 1 0 0\n", r"line 5: .* h\(1,1\)"),
        (" 5.0 0 0 0 0\n", "line 4: .* the core energy"),
    ], ids=["one-body-pair", "one-body-repeat", "core-repeat"])
    def test_conflicting_one_body_or_core_is_symmetry_violation(self, records,
                                                                where):
        with pytest.raises(SymmetryViolation, match=where):
            parse_fcidump_spatial(CORE_ONLY + records)

    @pytest.mark.parametrize("record", [
        " nan 1 1 1 1", " NaN 1 2 0 0", " inf 0 0 0 0", " -1.0D999 2 2 1 1",
    ], ids=["nan-two-body", "nan-one-body", "inf-core", "overflow"])
    def test_non_finite_value_is_parse_error(self, record):
        with pytest.raises(ParseError, match="line 4: non-finite value"):
            parse_fcidump_spatial(CORE_ONLY + record + "\n")

    def test_agreeing_duplicates_parse(self):
        records = (" 0.75 0 0 0 0\n 0.2 1 2 0 0\n 0.2 2 1 0 0\n"
                   " 0.4 1 1 2 2\n 0.4 2 2 1 1\n")
        spatial = parse_fcidump_spatial(CORE_ONLY + records)
        assert spatial.core_energy == 0.75
        assert spatial.t[0, 1] == spatial.t[1, 0] == 0.2
        assert spatial.v[0, 0, 1, 1] == spatial.v[1, 1, 0, 0] == 0.4

    def test_conflicting_file_exits_2_naming_the_line(self, tmp_path, capsys):
        text = fixture_text(H2_EQUILIBRIUM)
        path = tmp_path / "h2.fcidump"
        path.write_text(text + " 5.0 0 0 0 0\n")
        assert main(["exact", "--fcidump", str(path)]) == 2
        line = len(text.splitlines()) + 1
        assert f"line {line}: conflicting value for the core energy" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("name", [H2_EQUILIBRIUM, "lih_sto3g_1.45"])
    def test_emit_parse_round_trip(self, name):
        first = parse_fcidump_spatial(fixture_text(name))
        second = parse_fcidump_spatial(emit_fcidump(first))
        assert second.norb == first.norb
        assert second.nelec == first.nelec
        assert second.ms2 == first.ms2
        assert abs(second.core_energy - first.core_energy) < 1e-12
        assert np.max(np.abs(second.t - first.t)) < 1e-12
        assert np.max(np.abs(second.v - first.v)) < 1e-12

    def test_shipped_fixtures_all_load(self):
        names = list_fixtures()
        assert H2_EQUILIBRIUM in names
        assert "lih_sto3g_1.45" in names
        assert len({fixture for _, fixture in H2_CURVE} - set(names)) == 0
        ints = load_fixture("lih_sto3g_1.45")
        assert (ints.m, ints.n_electrons, ints.n_up) == (12, 4, 2)
        for name in names:
            parse_fcidump_spatial(fixture_text(name))

    @pytest.mark.parametrize("header", [
        "NORB=2,NELEC=2,MS2=1",  # NELEC + MS2 odd
        "NORB=2,NELEC=2,MS2=4",  # |MS2| above NELEC
        "NORB=2,NELEC=6,MS2=0",  # NELEC above 2 NORB
        "NORB=2,NELEC=3,MS2=3",  # three up electrons in two orbitals
    ], ids=["odd", "ms2-above-nelec", "nelec-above-2norb", "spin-above-norb"])
    def test_header_no_determinant_fits_exits_2(self, header, tmp_path,
                                                 capsys):
        text = f"&FCI {header},\n&END\n 0.75 0 0 0 0\n"
        with pytest.raises(ParseError, match="NORB=2.*NELEC.*MS2"):
            parse_fcidump_spatial(text)
        path = tmp_path / "impossible.fcidump"
        path.write_text(text)
        assert main(["exact", "--fcidump", str(path), "--reduce"]) == 2
        assert "fit no determinant" in capsys.readouterr().err

    def test_spatial_tensor_over_the_budget_refused_before_allocating(
            self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the parser allocated its tensors")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(TooLarge, match=f"needs {PARSE_ENTRY_BYTES * 120 ** 4} bytes"):
            parse_fcidump_spatial("&FCI NORB=120,NELEC=2,MS2=0,\n&END\n")

    def test_spin_orbital_tensor_over_the_budget_refused_before_allocating(self):
        # Broadcast views stand in for the 100-orbital tensors, which fit
        # the budget; their 200-spin-orbital expansion does not.
        spatial = SpatialIntegrals(100, 2, 0, 0.0, np.broadcast_to(0.0, (100,) * 2),
                                   np.broadcast_to(0.0, (100,) * 4))
        with pytest.raises(TooLarge, match=f"needs {EXPAND_ENTRY_BYTES * 200 ** 4} bytes"):
            to_spin_orbitals(spatial)

    @pytest.mark.parametrize("norb", [100, 120])
    def test_oversized_fcidump_exits_2(self, norb, tmp_path, capsys):
        path = tmp_path / "large.fcidump"
        path.write_text(f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n 0.75 0 0 0 0\n")
        assert main(["exact", "--fcidump", str(path)]) == 2
        assert "two-body tensor needs" in capsys.readouterr().err

    def test_load_problem_wants_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            load_problem()
        path = tmp_path / "h2.fcidump"
        path.write_text(fixture_text(H2_EQUILIBRIUM))
        with pytest.raises(ValueError, match="exactly one"):
            load_problem(H2_EQUILIBRIUM, str(path))
        from_file = load_problem(fcidump_path=str(path))
        assert from_file.m == 4
        assert abs(from_file.core_energy - H2_CORE) < 1e-12


class TestOracle:
    def test_single_z_eigenvalues(self):
        values = exact_eigensolve(PauliSum.from_text({"Z0": 1.0}, 1), k=2)
        assert np.allclose(values, [-1.0, 1.0], atol=1e-12)

    def test_x_plus_z_eigenvalues(self):
        h = PauliSum.from_text({"X0": 1.0, "Z0": 1.0}, 1)
        root2 = float(np.sqrt(2.0))
        assert np.allclose(exact_eigensolve(h, k=2), [-root2, root2],
                           atol=1e-12)

    def test_eigenvalues_come_out_ascending(self):
        values = exact_eigensolve(h2_hamiltonian(), k=6)
        assert len(values) == 6
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_h2_ground_energy_matches_golden_value(self):
        assert abs(exact_eigensolve(h2_hamiltonian(), k=1)[0] - H2_GROUND) < 1e-10

    def test_h2_ground_is_a_two_determinant_state(self):
        energy, vector = ground_state(h2_hamiltonian(), n_qubits=4)
        assert abs(energy - H2_GROUND) < 1e-10
        order = np.argsort(-np.abs(vector))
        # Dominant determinants: both spins in spatial orbital 0 (index 5)
        # and both in orbital 1 (index 10), with opposite relative sign.
        assert set(order[:2]) == {5, 10}
        assert abs(abs(vector[5]) - 0.993615) < 1e-6
        assert abs(abs(vector[10]) - 0.112827) < 1e-6
        assert abs(abs(vector[5]) - 0.9939) < 5e-3
        assert abs(abs(vector[10]) - 0.1106) < 5e-3
        assert np.real(vector[5] * np.conj(vector[10])) < 0
        assert np.max(np.abs(vector[order[2:]])) < 1e-10

    def test_sparse_path_above_the_dense_limit(self):
        h = PauliSum.from_text({f"Z{q}": 1.0 for q in range(15)}, n_qubits=15)
        assert abs(exact_eigensolve(h, k=1)[0] - (-15.0)) < 1e-8

    def test_lanczos_start_is_fixed(self):
        h = PauliSum.from_text({"Z0 Z1": 1.0, "X0": 0.6, "Y13 Y14": 0.3,
                                "Z14": -0.4, "X7 X8": 0.2}, n_qubits=15)
        first = exact_eigensolve(h, k=2)
        # ARPACK's own start vector comes from a generator that every call
        # without one advances.
        other = scipy.sparse.random(300, 300, density=0.05, random_state=1)
        scipy.sparse.linalg.eigsh(other + other.T, k=2, which="SA")
        second = exact_eigensolve(h, k=2)
        assert np.array_equal(first.view(np.uint64), second.view(np.uint64))

    def test_too_many_qubits_rejected(self):
        h = PauliSum.from_text({"Z0": 1.0}, n_qubits=25)
        with pytest.raises(TooLarge):
            exact_eigensolve(h, k=1, n_qubits=25)


def encoded(fixture: str, variant: str = JW, reduce: bool = False,
            taper: bool = False) -> PauliSum:
    ints = load_fixture(fixture)
    if reduce:
        ints = reduce_problem(ints).integrals
    scheme = EncodingScheme(variant, ints.m)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    if taper:
        h = taper_two_qubits(h, scheme, sector_for(ints.n_electrons, ints.n_up))
    return h


# Every problem on at most 10 qubits: each fixture of up to 10 modes and the
# LiH active space in all four encodings, and LiH, full and active, tapered in
# the parity encoding.
SMALL_PROBLEMS = [
    *[(name, variant, False, False) for name in list_fixtures()
      if load_fixture(name).m <= 10 for variant in VARIANTS],
    *[("lih_sto3g_1.45", variant, True, False) for variant in VARIANTS],
    ("lih_sto3g_1.45", PARITY, True, True),
    ("lih_sto3g_1.45", PARITY, False, True),
]


def odd_y_sum(n: int, rng: np.random.Generator) -> PauliSum:
    """A Hermitian sum with real coefficients whose matrix is not real."""
    entries = {random_pauli_string(rng, n): rng.normal() for _ in range(24)}
    entries[PauliString.from_text("Y0 X3")] = 0.7
    return PauliSum(entries, n_qubits=n)


def assert_eigenpairs(h: PauliSum, values, vectors):
    matrix = to_matrix(h)
    assert vectors.dtype == np.complex128
    for value, vector in zip(values, vectors.T):
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-12
        assert np.linalg.norm(matrix @ vector - value * vector) <= 1e-10


# Every problem on at most 8 qubits: each fixture of up to 8 modes and the
# two 8-mode active spaces of the documents, in all four encodings, and
# tapered in the three that have parity qubits to taper.
DENSE_PROBLEMS = [
    (name, variant, reduce, taper)
    for name, reduce in [*((name, False) for name in list_fixtures()
                           if load_fixture(name).m <= 8),
                         ("lih_sto3g_1.45", True), ("h2_631g_0.7414", True)]
    for variant in VARIANTS
    for taper in ((False,) if variant == JW else (False, True))
]


class TestDenseOracle:
    @pytest.mark.parametrize("name,variant,reduce,taper", DENSE_PROBLEMS)
    def test_real_solves_match_the_complex_eigh(self, name, variant, reduce,
                                                taper):
        h = encoded(name, variant, reduce, taper)
        matrix = to_matrix(h)
        assert not matrix.imag.any()
        levels, vectors = complex_eigh(matrix)
        for k in (len(levels), 4):
            values = exact_eigensolve(h, k=k)
            assert np.max(np.abs(values - levels[:k])) < 1e-12
        values, lowest = exact_eigensolve(h, k=4, with_vectors=True)
        assert np.max(np.abs(values - levels[:4])) < 1e-12
        assert abs(abs(np.vdot(vectors[:, 0], lowest[:, 0])) - 1.0) < 1e-12
        assert_eigenpairs(h, values, lowest)

    def test_matrix_with_an_imaginary_part_takes_the_complex_path(
            self, rng, monkeypatch):
        seen = []
        for module, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
            solve = getattr(module, name)

            def spy(matrix, *args, solve=solve, **options):
                seen.append(matrix.dtype)
                return solve(matrix, *args, **options)

            monkeypatch.setattr(module, name, spy)
        odd = to_matrix(odd_y_sum(6, rng))
        assert odd.imag.any()
        levels, vectors = complex_eigh(odd)
        assert np.max(np.abs(hermitian_eigh(odd, with_vectors=False)
                             - levels)) < 1e-12
        values, lowest = hermitian_eigh(odd, k=3)
        assert np.max(np.abs(values - levels[:3])) < 1e-12
        assert abs(abs(np.vdot(vectors[:, 0], lowest[:, 0])) - 1.0) < 1e-12
        assert lowest.dtype == np.complex128
        assert hermitian_eigh(to_matrix(h2_hamiltonian()), k=1)[1].dtype \
            == np.float64
        assert seen == [np.complex128, np.complex128, np.float64]


class TestSparseOracle:
    @pytest.mark.parametrize("name,variant,reduce,taper", SMALL_PROBLEMS)
    def test_lanczos_matches_dense_eigh(self, name, variant, reduce, taper):
        h = encoded(name, variant, reduce, taper)
        values = oracle.sparse_eigensolve(h, 4, h.n_qubits)
        dense = np.linalg.eigvalsh(to_matrix(h))[:4]
        assert np.max(np.abs(values - dense)) < 1e-12

    def test_twelve_qubit_lih_matches_dense_real_eigvalsh(self):
        h = encoded("lih_sto3g_1.45")
        values = exact_eigensolve(h, k=4)
        matrix = to_matrix(h)
        assert not matrix.imag.any()
        dense = np.linalg.eigvalsh(matrix.real)[:4]
        assert np.max(np.abs(values - dense)) < 1e-12
        assert abs(values[2] - values[1]) < 1e-12  # the doubly degenerate level

    def test_real_and_complex_matrices_take_their_own_dtype(self, rng,
                                                           monkeypatch):
        seen = []
        eigsh = scipy.sparse.linalg.eigsh

        def spy(matrix, **options):
            seen[-1].append(matrix.dtype)
            return eigsh(matrix, **options)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
        molecular = encoded("lih_sto3g_1.45", PARITY, taper=True)
        odd = odd_y_sum(9, rng)
        for h in (molecular, odd):
            seen.append([])
            values, vectors = exact_eigensolve(h, k=3, with_vectors=True)
            dense = np.linalg.eigvalsh(to_matrix(h))[:3]
            assert np.max(np.abs(values - dense)) < 1e-12
            assert_eigenpairs(h, values, vectors)
        # Every Lanczos run of a solve, the copy check's included, takes
        # the dtype of that solve's matrix.
        for calls, dtype in zip(seen, (np.float64, np.complex128), strict=True):
            assert calls and all(call == dtype for call in calls)

    def test_lanczos_keeps_every_copy_of_a_threefold_level(self, tmp_path):
        # Single-vector Lanczos reaches the copies of -7.75661 beyond the
        # first only through round-off; the copy check must find all three.
        out = tmp_path / "exact.json"
        assert main(["exact", "--fixture", "lih_sto3g_1.45", "--encoding",
                     "jw", "--k", "6", "--out", str(out)]) == 0
        energies = json.loads(out.read_text())["result"]["energies"]
        dense = np.linalg.eigvalsh(
            to_csr(encoded("lih_sto3g_1.45")).real.toarray())
        assert np.max(np.abs(np.array(energies) - dense[:6])) < 1e-12
        assert np.ptp(dense[3:6]) < 1e-12 < dense[6] - dense[5]

    def test_every_level_above_the_dense_dimension(self, rng):
        h = odd_y_sum(9, rng)
        values, vectors = exact_eigensolve(h, k=512, with_vectors=True)
        assert np.array_equal(values, np.linalg.eigh(to_matrix(h))[0])
        assert_eigenpairs(h, values[::64], vectors[:, ::64])

    def test_dense_vectors_are_unit_eigenvectors(self):
        h = h2_hamiltonian()
        values, vectors = exact_eigensolve(h, k=4, with_vectors=True)
        assert_eigenpairs(h, values, vectors)

    def test_csr_of_tapered_lih_stores_no_zero(self):
        h = encoded("lih_sto3g_1.45", PARITY, taper=True)
        csr = to_csr(h)
        assert len(x_masks(h)) << h.n_qubits == 86016
        assert csr.nnz == 29920
        assert np.all(csr.data != 0)

    def test_byte_figure_counts_entries_and_lanczos_basis(self):
        dim = 1 << 20
        csr_bytes = dim * 534 * oracle.CSR_ENTRY_BYTES
        basis_bytes = 20 * dim * oracle.AMPLITUDE_BYTES
        assert oracle.solve_bytes(534, 20, 1) == csr_bytes + basis_bytes
        assert oracle.solve_bytes(534, 20, 1) > BYTE_BUDGET
        assert oracle.solve_bytes(84, 12, 4) < BYTE_BUDGET
        assert oracle.solve_bytes(1, 8, 1) == 3 * 256 * 256 * 16

    def test_byte_guard_refuses_before_building(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the oracle built a matrix")

        monkeypatch.setattr(oracle, "to_csr", refuse)
        monkeypatch.setattr(oracle, "to_matrix", refuse)
        h = PauliSum.from_text({f"X{q}": 1.0 for q in range(22)}, n_qubits=22)
        needed = oracle.solve_bytes(len(x_masks(h)), 22, 1)
        with pytest.raises(TooLarge, match=f"needs {needed} bytes.*--reduce"):
            exact_eigensolve(h)


class TestRunConfig:
    def test_exactly_one_source(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig()
        path = tmp_path / "h2.fcidump"
        path.write_text(fixture_text(H2_EQUILIBRIUM))
        with pytest.raises(ValueError, match="exactly one"):
            RunConfig(fixture=H2_EQUILIBRIUM, fcidump_path=str(path))

    def test_unknown_fixture_rejected(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            RunConfig(fixture="neon_sto3g")

    def test_missing_fcidump_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no such FCIDUMP"):
            RunConfig(fcidump_path=str(tmp_path / "absent.fcidump"))

    @pytest.mark.parametrize("field,value,message", [
        ("encoding", "gray", "unknown encoding"),
        ("method", "dmrg", "unknown method"),
        ("ansatz", "adapt", "unknown ansatz"),
        ("technique", "virtual-distillation", "unknown technique"),
        ("layers", 0, "must be positive"),
        ("k", 0, "must be positive"),
        ("samples", -3, "must be positive"),
        ("shots", 0, "shots must be positive"),
        ("noise_p1", 1.5, "must lie in"),
        ("noise_p2", -0.1, "must lie in"),
        ("seed", -1, "seed must not be negative"),
    ])
    def test_bad_field_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(fixture=H2_EQUILIBRIUM, **{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"shots": 100},
        {"noise_p1": 1e-3},
        {"method": "mitigate"},
        {"method": "qpe", "qpe_samples": 10},
        {"method": "vqe", "optimizer": OptimizerConfig(method=SPSA)},
        {"method": "vqe", "ansatz": "hardware-efficient"},
    ])
    def test_stochastic_modes_demand_a_seed(self, kwargs):
        with pytest.raises(ValueError, match="need an explicit seed"):
            RunConfig(fixture=H2_EQUILIBRIUM, **kwargs)
        RunConfig(fixture=H2_EQUILIBRIUM, seed=1, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"shots": 100},
                                        {"noise_p2": 1e-3}])
    def test_quasi_newton_refuses_inexact_energies(self, kwargs):
        with pytest.raises(ValueError, match="needs exact energies"):
            RunConfig(fixture=H2_EQUILIBRIUM, method="vqe", seed=1,
                      optimizer=OptimizerConfig(method="l-bfgs"), **kwargs)

    def test_exact_mode_needs_no_seed(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM)
        assert config.seed is None
        assert config.noise_model() is None

    def test_scales_coerced_to_floats(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, scales=(1, 2, 3))
        assert config.scales == (1.0, 2.0, 3.0)
        assert all(isinstance(s, float) for s in config.scales)

    @pytest.mark.parametrize("scales,message", [
        ((2.0, 3.0), "first scale must be 1"),
        ((1.0, 3.0, 2.0), "strictly increasing"),
        ((1.0, 1.0), "strictly increasing"),
        ((1.0,), "at least two"),
        ((1.0, 2.0, 400.0), "past 1"),
    ])
    @pytest.mark.parametrize("technique", ["linear", "exponential"])
    def test_extrapolation_scales_checked(self, technique, scales, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(fixture=H2_EQUILIBRIUM, method="mitigate",
                      technique=technique, scales=scales, noise_p1=0.01,
                      seed=1)

    def test_scales_unchecked_where_unused(self):
        RunConfig(fixture=H2_EQUILIBRIUM, method="mitigate", technique="pec",
                  scales=(2.0, 3.0), noise_p1=0.01, seed=1)
        RunConfig(fixture=H2_EQUILIBRIUM, method="vqe", noise_p1=0.5, seed=1)

    def test_noise_model_carries_both_rates(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, noise_p1=1e-3,
                           noise_p2=2e-3, seed=4)
        noise = config.noise_model()
        assert noise.rate_for(1) == 1e-3
        assert noise.rate_for(2) == 2e-3


class TestPipeline:
    def test_exact_run_logs_every_stage(self):
        document = run_pipeline(RunConfig(fixture=H2_EQUILIBRIUM))
        ingest, encode = document["stages"]
        assert ingest["stage"] == "ingest"
        assert (ingest["spin_orbitals"], ingest["electrons"],
                ingest["spin_up"]) == (4, 2, 1)
        assert abs(ingest["core_energy"] - H2_CORE) < 1e-12
        assert encode["stage"] == "encode"
        assert encode["qubits"] == 4
        assert encode["fermion_terms"] == 37
        assert encode["pauli_terms"] == 15
        result = document["result"]
        assert abs(result["ground"] - H2_GROUND) < 1e-10
        assert result["energies"] == sorted(result["energies"])
        assert document["config"]["fixture"] == H2_EQUILIBRIUM

    def test_taper_drops_exactly_two_qubits(self):
        document = run_pipeline(RunConfig(fixture=H2_EQUILIBRIUM,
                                          encoding="parity", taper=True))
        taper = document["stages"][-1]
        assert taper["stage"] == "taper"
        assert taper["qubits"] == document["stages"][1]["qubits"] - 2
        assert abs(document["result"]["ground"] - H2_GROUND) < 1e-10

    def test_lih_reduction_chain(self):
        document = run_pipeline(RunConfig(fixture="lih_sto3g_1.45",
                                          encoding="parity", reduce=True,
                                          taper=True, k=1))
        by_name = {s["stage"]: s for s in document["stages"]}
        assert by_name["ingest"]["spin_orbitals"] == 12
        assert by_name["active-space"]["spin_orbitals"] == 8
        assert by_name["encode"]["qubits"] == 8
        assert by_name["encode"]["pauli_terms"] == 105
        assert by_name["taper"]["qubits"] == 6
        assert by_name["taper"]["pauli_terms"] == 95
        assert abs(document["result"]["ground"] - LIH_ACTIVE_GROUND) < 1e-10

    @pytest.mark.parametrize("fixture, options", [
        ("lih_sto3g_1.45", {"encoding": "parity", "taper": True}),
        ("h2_631g_0.7414", {}),
        ("h2_ccpvdz_0.75", {}),
    ])
    def test_encode_stage_builds_no_fermion_operator(self, monkeypatch,
                                                     fixture, options):
        stages, built = [], []
        init, run_stage = FermionOperator.__init__, pipeline._run_stage

        def counted_init(self, *args, **kwargs):
            built.extend(stages[-1:])
            init(self, *args, **kwargs)

        def named_stage(stage, action):
            stages.append(stage)
            try:
                return run_stage(stage, action)
            finally:
                stages.pop()

        monkeypatch.setattr(FermionOperator, "__init__", counted_init)
        monkeypatch.setattr(pipeline, "_run_stage", named_stage)
        document = run_pipeline(RunConfig(fixture=fixture, method="encode",
                                          **options))
        assert built.count("encode") == 0
        # the count sees the operators that iterating a sum makes
        n_terms = document["stages"][1]["fermion_terms"]
        pipeline._run_stage("encode", lambda: list(
            build_molecular_hamiltonian(load_fixture(fixture))))
        assert built.count("encode") == n_terms > 0

    def test_vqe_run_matches_the_oracle(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, method="vqe",
                           optimizer=OptimizerConfig(seed=11))
        document = run_pipeline(config)
        ansatz = document["stages"][-1]
        assert ansatz["stage"] == "ansatz"
        assert ansatz["parameters"] == 3
        result = document["result"]
        assert abs(result["error_to_oracle"]) < 1e-6
        assert abs(result["oracle_ground"] - H2_GROUND) < 1e-10
        assert result["converged"]
        assert len(result["parameters"]) == 3
        assert min(e for e, _ in result["trace"]) == result["energy"]

    def test_noisy_vqe_honours_trajectories(self):
        def run(trajectories: int) -> str:
            config = RunConfig(fixture=H2_EQUILIBRIUM, method="vqe",
                               noise_p1=1e-3, noise_p2=1e-3,
                               trajectories=trajectories, seed=5,
                               optimizer=OptimizerConfig(max_evals=3, seed=5))
            return document_json(run_pipeline(config))

        default, fewer = run(512), run(64)
        assert json.loads(default)["result"]["trace"] != \
            json.loads(fewer)["result"]["trace"]
        assert default == run(512)

    def test_spectrum_subspace_matches_exact(self):
        document = run_pipeline(RunConfig(fixture=H2_EQUILIBRIUM,
                                          encoding="parity", taper=True,
                                          method="spectrum"))
        result = document["result"]
        assert result["expansion_size"] == 7
        assert np.allclose(result["subspace"], result["exact"], atol=1e-8)

    def test_qpe_modal_energy_lands_in_the_ground_bin(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, encoding="parity",
                           taper=True, method="qpe", n_ancilla=10,
                           qpe_samples=200, seed=3)
        result = run_pipeline(config)["result"]
        assert abs(result["modal_energy"] - result["oracle_ground"]) \
            <= result["bin_width"]
        assert abs(result["sample_modal_energy"] - result["modal_energy"]) \
            <= result["bin_width"]
        assert result["samples"] == 200

    def test_identical_configs_give_byte_identical_json(self):
        def run() -> str:
            config = RunConfig(fixture=H2_EQUILIBRIUM, encoding="parity",
                               taper=True, method="qpe", n_ancilla=6,
                               qpe_samples=64, seed=9)
            return document_json(run_pipeline(config))

        first, second = run(), run()
        assert first == second
        assert json.loads(first)["result"]["samples"] == 64

    def test_document_json_is_canonical(self):
        document = run_pipeline(RunConfig(fixture=H2_EQUILIBRIUM, k=1))
        text = document_json(document)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(document_json(document))

    def test_out_writes_the_same_document(self, tmp_path):
        out = tmp_path / "h2.json"
        document = run_pipeline(RunConfig(fixture=H2_EQUILIBRIUM, k=1,
                                          out=str(out)))
        assert out.read_text() == document_json(document)

    def test_ingest_failure_is_stage_tagged(self, tmp_path):
        path = tmp_path / "broken.fcidump"
        path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 1.0 9 1 0 0\n")
        with pytest.raises(StageFailure) as info:
            run_pipeline(RunConfig(fcidump_path=str(path)))
        assert info.value.stage == "ingest"
        assert isinstance(info.value.error, ParseError)
        assert str(info.value).startswith("ingest:")

    def test_taper_restricts_the_ansatz_family(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, encoding="parity",
                           taper=True, method="vqe",
                           optimizer=OptimizerConfig(seed=2), seed=2)
        with pytest.raises(StageFailure) as info:
            run_pipeline(config)
        assert info.value.stage == "solve"
        assert "hardware-efficient" in str(info.value.error)

    @pytest.mark.parametrize("kwargs,message", [
        ({"technique": "pec"}, "hardware-efficient"),
        ({"technique": "postselect", "encoding": "parity"}, "untapered"),
        ({"technique": "postselect", "ansatz": "ldca"}, "particle"),
    ])
    def test_mitigation_pairing_rules(self, kwargs, message):
        config = RunConfig(fixture=H2_EQUILIBRIUM, method="mitigate",
                           noise_p1=1e-3, seed=1, **kwargs)
        with pytest.raises(StageFailure, match=message) as info:
            run_pipeline(config)
        assert info.value.stage == "solve"

    def test_pec_refusal_names_both_qualifying_families(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, method="mitigate",
                           technique="pec", noise_p1=1e-3, seed=1)
        with pytest.raises(StageFailure,
                           match="hardware-efficient or ldca ansatz"):
            run_pipeline(config)

    def test_mitigation_demands_noise(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, method="mitigate", seed=1)
        with pytest.raises(StageFailure, match="nonzero noise"):
            run_pipeline(config)


class TestCurve:
    def test_rows_are_coerced_and_ordered(self):
        result = CurveResult(((0.5, "hf", -1.0, {}), (1, "hf", -1.1, {}),
                              (0.5, "fci", -1.05, {"a": 1})))
        assert result.rows[1][0] == 1.0
        assert isinstance(result.rows[1][0], float)
        assert result.methods() == ["hf", "fci"]
        assert result.series("hf") == [(0.5, -1.0), (1.0, -1.1)]

    def test_lengths_must_increase_per_method(self):
        with pytest.raises(ValueError, match="strictly increase"):
            CurveResult(((0.5, "hf", -1.0, {}), (0.5, "hf", -1.1, {})))
        with pytest.raises(ValueError, match="strictly increase"):
            CurveResult(((0.9, "hf", -1.0, {}), (0.5, "hf", -1.1, {})))

    def test_csv_shape_and_round_trip(self):
        result = CurveResult(((0.5, "hf", -1.0625, {"fixture": "x"}),))
        lines = result.to_csv().splitlines()
        assert lines[0] == "bond_length,method,energy,metadata"
        length, method, energy, metadata = lines[1].split(",", maxsplit=3)
        assert float(length) == 0.5
        assert method == "hf"
        assert float(energy) == -1.0625
        assert json.loads(metadata.replace('""', '"').strip('"')) \
            == {"fixture": "x"}

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown curve method"):
            dissociation_curve(methods=("hf", "ccsd"))

    def test_h2_curves_have_a_single_interior_minimum(self):
        result = dissociation_curve(methods=("hf", "fci"))
        lengths = [r for r, _ in H2_CURVE]
        for method, floor in (("hf", HF_MINIMUM), ("fci", H2_GROUND)):
            series = result.series(method)
            assert [r for r, _ in series] == lengths
            energies = [e for _, e in series]
            low = int(np.argmin(energies))
            assert lengths[low] == 0.7414
            assert abs(energies[low] - floor) < 1e-10
            assert all(a > b for a, b in zip(energies[:low],
                                             energies[1:low + 1]))
            assert all(a < b for a, b in zip(energies[low:], energies[low + 1:]))

    def test_vqe_curve_tracks_fci(self):
        points = [H2_CURVE[0], H2_CURVE[3]]
        result = dissociation_curve(methods=("vqe", "fci"), points=points,
                                    seed=3)
        for (length, vqe_e), (_, fci_e) in zip(result.series("vqe"),
                                               result.series("fci")):
            assert abs(vqe_e - fci_e) < 1e-6
        for _, _, _, metadata in result.rows:
            assert metadata["pauli_terms"] == 15
            if "converged" in metadata:
                assert metadata["converged"]


class TestCli:
    def test_encode_prints_the_document(self, capsys):
        assert main(["encode", "--fixture", H2_EQUILIBRIUM]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["method"] == "encode"
        assert document["config"]["k"] == 1
        assert document["stages"][1]["pauli_terms"] == 15

    def test_encode_reports_the_register_without_solving(self, capsys):
        start = time.perf_counter()
        assert main(["encode", "--fixture", "h2_ccpvdz_0.75"]) == 0
        assert time.perf_counter() - start < 10.0
        result = json.loads(capsys.readouterr().out)["result"]
        ints = load_fixture("h2_ccpvdz_0.75")
        h = encode_operator(build_molecular_hamiltonian(ints),
                            EncodingScheme(JW, ints.m))
        assert result == {"method": "encode", "qubits": 20,
                          "pauli_terms": len(h)}

    def test_exact_reports_the_ground_energy(self, capsys):
        assert main(["exact", "--fixture", H2_EQUILIBRIUM, "--k", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert abs(document["result"]["ground"] - H2_GROUND) < 1e-10
        assert len(document["result"]["energies"]) == 2

    def test_vqe_subcommand_wires_the_optimizer(self, capsys):
        assert main(["vqe", "--fixture", H2_EQUILIBRIUM, "--seed", "7"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["optimizer"]["seed"] == 7
        assert abs(document["result"]["error_to_oracle"]) < 1e-6

    def test_vqe_by_quasi_newton_reaches_the_ground(self, capsys):
        assert main(["vqe", "--fixture", H2_EQUILIBRIUM, "--optimizer",
                     "l-bfgs"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert abs(result["error_to_oracle"]) < 1e-8  # perfbench's EXACT_TOL

    @pytest.mark.parametrize("optimizer", ["nelder-mead", "l-bfgs", "spsa",
                                           "gradient-descent"])
    def test_vqe_without_excitations_evaluates_once(self, optimizer,
                                                    tmp_path, capsys):
        # Four electrons fill H2's four spin-orbitals: UCCSD has no
        # excitation, so the search has no parameters.
        text = fixture_text(H2_EQUILIBRIUM).replace("NELEC=  2", "NELEC=  4")
        path = tmp_path / "h2_filled.fcidump"
        path.write_text(text)
        assert main(["vqe", "--fcidump", str(path), "--optimizer", optimizer,
                     "--seed", "1"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["parameters"] == []
        assert result["evaluations"] == 1
        assert len(result["trace"]) == 1
        assert result["converged"]

    @pytest.mark.parametrize("argv", [
        ["exact", "--fixture", H2_EQUILIBRIUM],
        ["vqe", "--fixture", H2_EQUILIBRIUM],
        ["mitigate", "--fixture", H2_EQUILIBRIUM],
        ["curve", "--method", "hf"],
        ["curve", "--method", "fci"],
    ], ids=["exact", "vqe", "mitigate", "curve-hf", "curve-fci"])
    def test_negative_seed_exits_2_before_ingest(self, argv, monkeypatch,
                                                 capsys):
        calls = []
        monkeypatch.setattr(pipeline, "load_problem",
                            lambda *args, **kwargs: calls.append(args))
        assert main([*argv, "--seed", "-1"]) == 2
        assert calls == []
        assert "error: seed must not be negative" in capsys.readouterr().err

    def test_vqe_by_quasi_newton_with_shots_exits_2(self, capsys):
        assert main(["vqe", "--fixture", H2_EQUILIBRIUM, "--optimizer",
                     "l-bfgs", "--shots", "100", "--seed", "1"]) == 2
        assert "needs exact energies" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--shots", "100"]],
                             ids=["exact", "shots"])
    def test_vqe_repeats_byte_for_byte_in_one_process(self, tmp_path, extra):
        # The document echoes --out, so both runs write the same path.
        out = tmp_path / "vqe.json"
        argv = ["vqe", "--fixture", H2_EQUILIBRIUM, *extra, "--seed", "7",
                "--out", str(out)]
        texts = []
        for _ in range(2):
            assert main(argv) == 0
            texts.append(out.read_bytes())
            out.unlink()
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("argv", [
        ["vqe", "--fixture", H2_EQUILIBRIUM, "--ansatz",
         "hamiltonian-variational", "--noise-p1", "1e-3", "--noise-p2",
         "1e-3", "--max-evals", "4", "--seed", "1"],
        ["mitigate", "--fixture", H2_EQUILIBRIUM, "--ansatz",
         "hamiltonian-variational", "--seed", "1"],
    ], ids=["vqe", "mitigate"])
    def test_noisy_hamiltonian_variational_runs(self, argv, capsys):
        # The ansatz carries identity-string exponentials (global phases),
        # which take no noise.
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        energy = result["energy"] if argv[0] == "vqe" \
            else result["mitigated"]["mean"]
        assert abs(energy - H2_GROUND) < 0.1

    def test_pec_takes_any_ansatz_of_one_and_two_qubit_gates(self, capsys):
        argv = ["mitigate", "--fixture", H2_EQUILIBRIUM, "--technique", "pec",
                "--ansatz", "ldca", "--seed", "1"]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert sorted(result["gamma"]) == ["1", "2"]

    def test_out_silences_stdout(self, capsys, tmp_path):
        out = tmp_path / "doc.json"
        code = main(["exact", "--fixture", H2_EQUILIBRIUM, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert abs(json.loads(out.read_text())["result"]["ground"]
                   - H2_GROUND) < 1e-10

    def test_curve_csv_on_stdout(self, capsys):
        assert main(["curve", "--method", "hf"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "bond_length,method,energy,metadata"
        assert len(lines) == 1 + len(H2_CURVE)

    def test_curve_out_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert main(["curve", "--method", "hf", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text().splitlines()[0] \
            == "bond_length,method,energy,metadata"

    @pytest.mark.parametrize("argv", [
        ["exact"],
        ["exact", "--fixture", "neon_sto3g"],
        ["exact", "--fcidump", "/nonexistent/path.fcidump"],
        ["vqe", "--fixture", H2_EQUILIBRIUM, "--shots", "100"],
        ["mitigate", "--fixture", H2_EQUILIBRIUM, "--seed", "1",
         "--scales", "1,two,3"],
        ["exact", "--no-such-flag"],
        ["vqe", "--fixture", H2_EQUILIBRIUM, "--tolerance", "nan"],
        ["vqe", "--fixture", H2_EQUILIBRIUM, "--tolerance", "inf"],
    ])
    def test_usage_problems_exit_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

    def test_bad_scales_exit_2_before_tuning(self, monkeypatch, capsys):
        def tuned(*args, **kwargs):
            raise AssertionError("reached the tuning")

        monkeypatch.setattr(pipeline, "optimize", tuned)
        assert main(["mitigate", "--fixture", H2_EQUILIBRIUM, "--seed", "1",
                     "--noise-p1", "0.001", "--scales", "2,3"]) == 2
        err = capsys.readouterr().err
        assert "first scale must be 1" in err and "tuning" not in err

    @pytest.mark.parametrize("option,arity", [("--noise-p1", 1),
                                              ("--noise-p2", 2)])
    def test_pec_rate_without_inverse_exits_2_before_tuning(
            self, option, arity, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(pipeline, "optimize",
                            lambda *args, **kwargs: calls.append(args))
        assert main(["mitigate", "--fixture", H2_EQUILIBRIUM, "--technique",
                     "pec", "--ansatz", "hardware-efficient", option, "0.75",
                     "--seed", "2"]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: solve: ")
        assert f"the {arity}-qubit rate 0.75 gives 4r/3 = 1.0" in err

    def test_parse_failure_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.fcidump"
        path.write_text("not an fcidump\n")
        assert main(["exact", "--fcidump", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, capsys):
        argv = ["mitigate", "--fixture", H2_EQUILIBRIUM,
                "--technique", "postselect", "--noise-p1", "0.9",
                "--noise-p2", "0.9", "--samples", "1", "--seed", "1"]
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value,field", [
        ("--samples", "-3", "qpe_samples"),
        ("--trotter-steps", "-1", "qpe_trotter"),
    ])
    def test_negative_qpe_options_exit_2_naming_the_field(self, option, value,
                                                          field, capsys):
        argv = ["qpe", "--fixture", H2_EQUILIBRIUM, "--ancillas", "4",
                "--seed", "1", option, value]
        assert main(argv) == 2
        assert f"error: {field} must not be negative" in capsys.readouterr().err

    def test_twenty_qubit_exact_exits_2_naming_bytes_and_reduce(self, capsys):
        start = time.perf_counter()
        assert main(["exact", "--fixture", "h2_ccpvdz_0.75"]) == 2
        assert time.perf_counter() - start < 10.0
        message = capsys.readouterr().err
        assert "bytes" in message and "--reduce" in message

    def test_reduced_exact_too_large_names_the_step_not_taken(self, capsys):
        assert main(["exact", "--fixture", "h2_ccpvdz_0.75", "--reduce"]) == 2
        message = capsys.readouterr().err
        assert "bytes" in message and "--taper" in message
        assert "with --reduce" not in message

    def test_out_directory_exits_2(self, tmp_path, capsys):
        argv = ["exact", "--fixture", H2_EQUILIBRIUM, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "error: emit:" in capsys.readouterr().err

    def test_twenty_six_ancilla_qpe_exits_2_naming_the_bytes(self, capsys):
        start = time.perf_counter()
        assert main(["qpe", "--fixture", H2_EQUILIBRIUM, "--encoding",
                     "parity", "--taper", "--ancillas", "26"]) == 2
        assert time.perf_counter() - start < 5.0
        assert f"needs {qpe_bytes(2, 26, 0)} bytes" in capsys.readouterr().err

    def test_sixteen_ancilla_qpe_exits_0_one_bin_from_the_ground(self,
                                                                capsys):
        assert main(["qpe", "--fixture", H2_EQUILIBRIUM, "--encoding",
                     "parity", "--taper", "--ancillas", "16"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["ancillas"] == 16
        assert abs(result["modal_energy"] - result["oracle_ground"]) \
            <= result["bin_width"]

    def test_every_package_error_exits_with_its_base_code(self):
        found = set()
        for info in pkgutil.walk_packages(hartree.__path__, "hartree."):
            module = importlib.import_module(info.name)
            found.update(value for value in vars(module).values()
                         if isinstance(value, type)
                         and issubclass(value, BaseException)
                         and value.__module__ == module.__name__)
        found -= {StageFailure, AlphaTooSmall, HartreeError}
        assert len(found) >= 20
        for error_class in found:
            assert issubclass(error_class, HartreeError), error_class
            configuration = issubclass(error_class, ConfigError)
            assert configuration != issubclass(error_class, NumericalError)
            code = 2 if configuration else 3
            error = error_class("x")
            assert exit_code_for(error) == code, error_class
            assert exit_code_for(StageFailure("solve", error)) == code

    def test_exit_codes_by_error_type(self):
        assert exit_code_for(ValueError("x")) == 2
        assert exit_code_for(ParseError("x")) == 2
        assert exit_code_for(SymmetryViolation("x")) == 2
        assert exit_code_for(StageFailure("solve", np.linalg.LinAlgError("x"))) == 3
        assert exit_code_for(StageFailure("ingest", ParseError("x"))) == 2
        assert exit_code_for(RuntimeError("x")) == 3
        assert exit_code_for(StageFailure("solve", RuntimeError("x"))) == 3
        assert exit_code_for(SignInconsistent("x")) == 3
        assert exit_code_for(ZeroOverlap("x")) == 3
        assert exit_code_for(DegenerateSubspace("x")) == 3
        assert exit_code_for(StageFailure("solve", SignInconsistent("x"))) == 3


class TestMitigateTuning:
    """``mitigate`` tunes its ansatz noiselessly before it mitigates, and
    the document says how the tuning went."""

    PEC = dict(fixture=H2_EQUILIBRIUM, method="mitigate", technique="pec",
               ansatz="hardware-efficient", samples=1000, noise_p1=1e-3,
               noise_p2=1e-3, seed=11)

    def test_mitigate_defaults_to_capped_lbfgs(self):
        config = RunConfig(**self.PEC)
        assert config.optimizer == pipeline.MITIGATE_TUNER
        assert (config.optimizer.method, config.optimizer.max_evals) == (
            "l-bfgs", 300)
        assert RunConfig(fixture=H2_EQUILIBRIUM,
                         method="vqe").optimizer == OptimizerConfig()

    def test_cli_mitigate_reports_its_tuning(self, capsys):
        assert main(["mitigate", "--fixture", H2_EQUILIBRIUM,
                     "--seed", "1"]) == 0
        document = json.loads(capsys.readouterr().out)
        optimizer = document["config"]["optimizer"]
        assert (optimizer["method"], optimizer["max_evals"]) == (
            "l-bfgs", 300)
        assert document["result"]["tuning"] == {"evaluations": 6,
                                                "converged": True}

    def test_oracle_ground_is_the_exact_ground(self):
        result = run_pipeline(RunConfig(**{**self.PEC, "technique": "linear",
                                           "ansatz": "uccsd",
                                           "seed": 2}))["result"]
        assert abs(result["oracle_ground"] - H2_GROUND) < 1e-10
        assert result["oracle"] >= result["oracle_ground"] - 1e-10

    def test_cut_off_tuning_reports_not_converged(self):
        cut = OptimizerConfig(method="gradient-descent", max_evals=5)
        result = run_pipeline(RunConfig(**self.PEC,
                                        optimizer=cut))["result"]
        assert result["tuning"] == {"evaluations": 5, "converged": False}
        assert result["oracle"] - result["oracle_ground"] > 0.1

    def test_cut_off_quasi_newton_reports_not_converged(self):
        cut = OptimizerConfig(method="l-bfgs", max_evals=5)
        result = run_pipeline(RunConfig(**self.PEC,
                                        optimizer=cut))["result"]
        assert result["tuning"] == {"evaluations": 5, "converged": False}

    # The doc-digest seeds, then the seeds perfbench's noise workload hands
    # mitigate-pec in its first three passes at workload seed 23.
    @pytest.mark.parametrize("seed", [3, 11, 29, 2141379151, 1506599001,
                                      899466980])
    def test_quasi_newton_tunes_no_worse_than_descent(self, seed):
        def gap(method):
            optimizer = OptimizerConfig(method=method, max_evals=300)
            result = run_pipeline(RunConfig(**{**self.PEC, "seed": seed},
                                            optimizer=optimizer))["result"]
            return result["oracle"] - result["oracle_ground"]

        assert gap("l-bfgs") <= gap("gradient-descent") + 1e-10

    def test_nelder_mead_reproduces_the_earlier_tuner_bit_for_bit(self):
        # The numbers this job gave while Nelder-Mead at 2000 evaluations
        # was mitigate's tuner. The noiseless oracle and tuning keep those
        # bits; raw and mitigated are this tuned state's estimates under
        # one random stream per estimate.
        result = run_pipeline(RunConfig(**self.PEC,
                                        optimizer=OptimizerConfig()))["result"]
        assert result["oracle"] == -0.48018843299320113
        assert result["raw"] == {"mean": -0.47831121601679716,
                                 "std_error": 0.0018966290340987097,
                                 "shots": 512}
        assert result["mitigated"] == {"mean": -0.4827764003580498,
                                       "std_error": 0.003988175805583651,
                                       "shots": 1000}
        assert result["tuning"] == {"evaluations": 2000, "converged": False}

    def test_oversized_ground_solve_refuses_before_tuning(self, monkeypatch,
                                                          capsys):
        def refused(*args, **kwargs):
            raise TooLarge("the exact solve needs too many bytes")

        def tuned(*args, **kwargs):
            raise AssertionError("reached the tuning")

        monkeypatch.setattr(pipeline, "exact_eigensolve", refused)
        monkeypatch.setattr(pipeline, "optimize", tuned)
        assert main(["mitigate", "--fixture", H2_EQUILIBRIUM,
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert "too many bytes" in err and "tuning" not in err


SCIPY_SUBMODULES = ("scipy.sparse", "scipy.linalg", "scipy.optimize")
SRC = Path(hartree.__file__).resolve().parents[1]


def scipy_after(code: str) -> tuple[object, list[str]]:
    """Run ``code`` in a fresh interpreter importing this hartree; the value
    it leaves in ``result`` and the scipy submodules it loaded."""
    report = (f"\nimport sys\nprint(repr((result, [m for m in "
              f"{SCIPY_SUBMODULES!r} if m in sys.modules])))")
    done = subprocess.run([sys.executable, "-c", code + report],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout.splitlines()[-1])


def import_time_imports(tree: ast.Module):
    """The import statements a module runs when imported: those outside
    function bodies."""
    queue = list(tree.body)
    for node in queue:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        queue.extend(ast.iter_child_nodes(node))


def is_scipy(node: ast.Import | ast.ImportFrom) -> bool:
    names = ([node.module or ""] if isinstance(node, ast.ImportFrom)
             else [alias.name for alias in node.names])
    return any(name.split(".")[0] == "scipy" for name in names)


class TestStartup:
    def test_importing_the_cli_loads_no_scipy_submodule(self):
        # A subprocess: this test module itself imports scipy.
        assert scipy_after("import hartree.io_cli\n"
                           "import hartree.io_cli.cli\nresult = None") \
            == (None, [])

    @pytest.mark.parametrize("argv, loads", [
        pytest.param(["encode", "--fixture", H2_EQUILIBRIUM], (), id="encode"),
        pytest.param(["exact", "--fixture", H2_EQUILIBRIUM, "--k", "4"], (),
                     id="exact-dense"),
        pytest.param(["spectrum", "--fixture", H2_EQUILIBRIUM, "--encoding",
                      "parity", "--taper"], (), id="spectrum"),
        pytest.param(["curve", "--method", "hf", "--method", "fci"], (),
                     id="curve"),
        # Lanczos above the dense limit.
        pytest.param(["exact", "--fixture", "lih_sto3g_1.45", "--encoding",
                      "parity", "--taper", "--k", "4"], ("scipy.sparse",),
                     id="exact-lanczos"),
        # The noiseless L-BFGS tuning before every mitigation.
        pytest.param(["mitigate", "--fixture", H2_EQUILIBRIUM, "--technique",
                      "exponential", "--noise-p1", "1e-3", "--noise-p2", "1e-3",
                      "--trajectories", "200", "--seed", "7"],
                     ("scipy.optimize",), id="mitigate"),
    ])
    def test_a_command_loads_only_the_scipy_it_calls(self, argv, loads,
                                                     tmp_path):
        argv = argv + ["--out", str(tmp_path / "out")]
        code, loaded = scipy_after("from hartree.io_cli import cli\n"
                                   f"result = cli.main({argv!r})")
        assert code == 0
        assert set(loaded) >= set(loads)
        assert loads or loaded == []

    def test_no_module_imports_scipy_at_import_time(self):
        found = [f"{path.relative_to(SRC)}:{node.lineno}"
                 for path in sorted((SRC / "hartree").rglob("*.py"))
                 for node in import_time_imports(ast.parse(path.read_text()))
                 if is_scipy(node)]
        assert not found, ("scipy imported at module level, move it into "
                           "the function that calls it: " + ", ".join(found))

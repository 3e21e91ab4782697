"""FCIDUMP parsing, exact oracles, pipeline runs, curves, and the CLI."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from hartree.encoding import EncodingScheme, encode_operator
from hartree.fermion import build_molecular_hamiltonian
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
from hartree.io_cli.cli import exit_code_for, main
from hartree.mitigation import SignInconsistent
from hartree.pauli import PauliSum, TooLarge
from hartree.simulator import ZeroOverlap
from hartree.spectra import DegenerateSubspace
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

    def test_too_many_qubits_rejected(self):
        h = PauliSum.from_text({"Z0": 1.0}, n_qubits=25)
        with pytest.raises(TooLarge):
            exact_eigensolve(h, k=1, n_qubits=25)


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

    def test_exact_mode_needs_no_seed(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM)
        assert config.seed is None
        assert config.noise_model() is None

    def test_scales_coerced_to_floats(self):
        config = RunConfig(fixture=H2_EQUILIBRIUM, scales=(1, 2, 3))
        assert config.scales == (1.0, 2.0, 3.0)
        assert all(isinstance(s, float) for s in config.scales)

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
        assert document["config"]["method"] == "exact"
        assert document["config"]["k"] == 1
        assert document["stages"][1]["pauli_terms"] == 15

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
    ])
    def test_usage_problems_exit_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()

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

    def test_exit_codes_by_error_type(self):
        assert exit_code_for(ValueError("x")) == 2
        assert exit_code_for(ParseError("x")) == 2
        assert exit_code_for(StageFailure("ingest", ParseError("x"))) == 2
        assert exit_code_for(RuntimeError("x")) == 3
        assert exit_code_for(StageFailure("solve", RuntimeError("x"))) == 3
        assert exit_code_for(SignInconsistent("x")) == 3
        assert exit_code_for(ZeroOverlap("x")) == 3
        assert exit_code_for(DegenerateSubspace("x")) == 3
        assert exit_code_for(StageFailure("solve", SignInconsistent("x"))) == 3

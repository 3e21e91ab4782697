"""Extrapolation, probabilistic cancellation, and stabiliser post-selection."""

import math
from bisect import bisect_right

import numpy as np
import pytest

from conftest import (
    count_compiles,
    density_matrix_reference,
    expectation_from_density,
    fan_postselect,
    letter_product_coefficients,
    pec_replays,
    pec_with_decompositions,
    per_gate_pec_draw,
    per_term_sample_means,
    same_bits,
    series_extrapolate_exponential,
    series_extrapolate_linear,
)
from hartree.encoding import JW, EncodingScheme, encode_operator
from hartree.fermion import (
    build_molecular_hamiltonian,
    hf_occupation,
    uccsd_generators,
)
from hartree.io_cli import load_fixture
from hartree.mitigation import (
    NUMBER,
    SPIN_DOWN,
    SPIN_UP,
    AllShotsRejected,
    InvalidProbability,
    NoiseScaledSeries,
    QuasiProbDecomposition,
    SignInconsistent,
    StabiliserCheck,
    _choice_cdf,
    _mean_estimate,
    _pec_kicks,
    decomposition_for_noise,
    extrapolate_exponential,
    extrapolate_linear,
    noise_scaled_series,
    noisy_expectation,
    occupation_checks,
    pec_decompose_depolarizing,
    pec_estimate,
    scaled_noise,
    stabiliser_postselect,
)
from hartree.pauli import PauliString, PauliSum
from hartree.simulator import (
    Circuit,
    NoiseModel,
    ShotEstimate,
    compile_circuit,
    make_rng,
    run_circuit,
    sample_means,
)
from hartree.vqe import OptimizerConfig, build_uccsd, optimize


@pytest.fixture(scope="module")
def h2_vqe():
    ints = load_fixture("h2_sto3g_0.7414")
    scheme = EncodingScheme(JW, 4)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    hf = hf_occupation(ints)
    gens = uccsd_generators(4, hf.occupied(),
                            [p for p in range(4) if p not in hf.occupied()])
    ansatz = build_uccsd(gens, scheme, hf)
    result = optimize(ansatz, h, OptimizerConfig(seed=7))
    deep = build_uccsd(gens, scheme, hf, trotter_steps=3)
    return ints, h, ansatz, deep, result.best_params, result.best_energy


def estimate(mean: float, std_error: float = 0.01) -> ShotEstimate:
    return ShotEstimate(mean, std_error, 100)


class TestSeries:
    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="two"):
            NoiseScaledSeries([(1.0, estimate(0.5))])

    def test_first_scale_must_be_one(self):
        with pytest.raises(ValueError, match="first"):
            NoiseScaledSeries([(2.0, estimate(0.5)), (3.0, estimate(0.4))])

    def test_scales_strictly_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            NoiseScaledSeries([(1.0, estimate(0.5)), (1.0, estimate(0.4))])

    def test_points_coerced_to_floats(self):
        series = NoiseScaledSeries([(1, estimate(0.5)), (2, estimate(0.4))])
        assert series.points[1][0] == 2.0
        assert isinstance(series.points[1][0], float)

    def test_scaled_noise_multiplies_both_rates(self):
        scaled = scaled_noise(NoiseModel(p1=1e-3, p2=2e-3), 2.5)
        assert scaled.p1 == pytest.approx(2.5e-3)
        assert scaled.p2 == pytest.approx(5e-3)

    def test_scaled_noise_rejects_shrinking(self):
        with pytest.raises(ValueError, match="at least 1"):
            scaled_noise(NoiseModel(p1=1e-3), 0.5)

    def test_scaled_noise_rejects_overflow(self):
        with pytest.raises(ValueError, match="past 1"):
            scaled_noise(NoiseModel(p1=0.6), 2.0)

    def test_a_three_scale_series_compiles_once(self, h2_vqe, monkeypatch):
        _, h, ansatz, _, theta, _ = h2_vqe
        circuit = ansatz.combined()
        noise = NoiseModel(1e-2, 1e-2)
        built = count_compiles(monkeypatch)
        series = noise_scaled_series(circuit, theta, h, noise,
                                     (1.0, 2.0, 3.0), make_rng(4),
                                     trajectories=32)
        assert len(built) == 1
        compiled = compile_circuit(circuit)
        again = noise_scaled_series(compiled, theta, h, noise,
                                    (1.0, 2.0, 3.0), make_rng(4),
                                    trajectories=32)
        assert len(built) == 2  # the compile above, none in the series
        for (_, first), (_, second) in zip(series.points, again.points):
            assert (first.mean, first.std_error) == (second.mean,
                                                     second.std_error)

    def test_noiseless_expectation_has_no_spread(self):
        circuit = Circuit(1).rx(0, angle=np.pi / 3)
        z = PauliSum.from_text({"Z0": 1.0}, 1)
        est = noisy_expectation(circuit, None, z, NoiseModel(), make_rng(0),
                                trajectories=8)
        assert est.mean == pytest.approx(0.5, abs=1e-12)
        assert est.std_error == 0.0
        assert est.shots == 8

    def test_noiseless_shots_share_one_binomial_block(self):
        circuit = Circuit(1).rx(0, angle=0.9)
        h = PauliSum.from_text({"Z0": 1.0, "X0": -0.5, "I": 0.25}, 1)
        est = noisy_expectation(circuit, None, h, NoiseModel(), make_rng(3),
                                trajectories=50, shots=40)
        means = sample_means(run_circuit(circuit).renormalized(), h, 40,
                             make_rng(3), 50)
        assert est == _mean_estimate(means, shots=40)
        assert est.shots == 40

    def test_noisy_shots_match_the_per_term_loop_bit_for_bit(
            self, h2_vqe, monkeypatch):
        import hartree.mitigation as mitigation

        _, h, ansatz, _, theta, _ = h2_vqe
        noise = NoiseModel(p1=0.02, p2=0.03)
        got = noisy_expectation(ansatz.combined(), theta, h, noise,
                                make_rng(5), trajectories=64, shots=100)
        monkeypatch.setattr(mitigation, "sample_means", per_term_sample_means)
        want = noisy_expectation(ansatz.combined(), theta, h, noise,
                                 make_rng(5), trajectories=64, shots=100)
        assert same_bits(np.array([got.mean, got.std_error]),
                         np.array([want.mean, want.std_error]))

    def test_series_builder_records_requested_scales(self, h2_vqe):
        _, h, ansatz, _, theta, _ = h2_vqe
        series = noise_scaled_series(ansatz.combined(), theta, h,
                                     NoiseModel(p1=1e-3, p2=1e-3),
                                     [1.0, 1.5, 2.0], make_rng(0),
                                     trajectories=20)
        assert [lam for lam, _ in series.points] == [1.0, 1.5, 2.0]
        assert all(est.shots == 20 for _, est in series.points)


class TestLinearExtrapolation:
    def test_constant_series(self):
        series = NoiseScaledSeries([(1.0, estimate(0.42)),
                                    (2.0, estimate(0.42)),
                                    (3.0, estimate(0.42))])
        assert extrapolate_linear(series).mean == pytest.approx(0.42, abs=1e-12)

    def test_two_point_closed_form(self):
        lam = 2.5
        y1, ylam = 0.7, 0.55
        series = NoiseScaledSeries([(1.0, estimate(y1)), (lam, estimate(ylam))])
        expected = (lam * y1 - ylam) / (lam - 1.0)
        assert extrapolate_linear(series).mean == pytest.approx(expected,
                                                                abs=1e-12)

    def test_exact_on_linear_decay(self):
        intercept, slope = 1.3, -0.2
        series = NoiseScaledSeries(
            [(lam, estimate(intercept + slope * lam)) for lam in (1.0, 2.0, 3.0)])
        assert extrapolate_linear(series).mean == pytest.approx(intercept,
                                                                abs=1e-12)

    def test_error_propagation_weights(self):
        sigmas = (0.01, 0.02, 0.03)
        series = NoiseScaledSeries(
            [(lam, ShotEstimate(0.5, sig, 10))
             for lam, sig in zip((1.0, 2.0, 3.0), sigmas)])
        est = extrapolate_linear(series)
        weights = (4 / 3, 1 / 3, -2 / 3)
        expected = math.sqrt(sum((w * s) ** 2 for w, s in zip(weights, sigmas)))
        assert est.std_error == pytest.approx(expected, rel=1e-9)
        assert est.shots == 30

    def test_h2_error_reduced_at_least_threefold(self, h2_vqe):
        _, h, ansatz, _, theta, exact = h2_vqe
        series = noise_scaled_series(ansatz.combined(), theta, h,
                                     NoiseModel(p1=1e-3, p2=1e-3),
                                     [1.0, 2.0, 3.0], make_rng(7),
                                     trajectories=10_000)
        raw_error = abs(series.points[0][1].mean - exact)
        mitigated_error = abs(extrapolate_linear(series).mean - exact)
        assert raw_error >= 3.0 * mitigated_error


class TestExponentialExtrapolation:
    def test_exact_exponential_inverts(self):
        series = NoiseScaledSeries(
            [(lam, estimate(0.8 * math.exp(-0.5 * lam))) for lam in (1.0, 2.0)])
        assert extrapolate_exponential(series).mean == pytest.approx(0.8,
                                                                     abs=1e-12)

    def test_constant_series(self):
        series = NoiseScaledSeries([(1.0, estimate(0.42)),
                                    (2.0, estimate(0.42))])
        assert extrapolate_exponential(series).mean == pytest.approx(0.42,
                                                                     abs=1e-12)

    def test_negative_series_keeps_sign(self):
        series = NoiseScaledSeries(
            [(lam, estimate(-1.1 * math.exp(-0.3 * lam)))
             for lam in (1.0, 2.0, 3.0)])
        assert extrapolate_exponential(series).mean == pytest.approx(-1.1,
                                                                     abs=1e-12)

    def test_two_point_closed_form(self):
        lam = 3.0
        y1, ylam = 0.9, 0.6
        series = NoiseScaledSeries([(1.0, estimate(y1)), (lam, estimate(ylam))])
        expected = y1 ** (lam / (lam - 1.0)) * ylam ** (-1.0 / (lam - 1.0))
        assert extrapolate_exponential(series).mean == pytest.approx(expected,
                                                                     abs=1e-12)

    def test_mixed_signs_rejected(self):
        series = NoiseScaledSeries([(1.0, estimate(0.5)),
                                    (2.0, estimate(-0.5))])
        with pytest.raises(SignInconsistent):
            extrapolate_exponential(series)

    def test_zero_estimate_rejected(self):
        series = NoiseScaledSeries([(1.0, estimate(0.5)), (2.0, estimate(0.0))])
        with pytest.raises(SignInconsistent):
            extrapolate_exponential(series)

    def test_spread_scales_with_point_spread(self):
        points = [(lam, 0.8 * math.exp(-0.2 * lam)) for lam in (1.0, 2.0, 3.0)]
        narrow = NoiseScaledSeries(
            [(lam, ShotEstimate(y, 0.01, 10)) for lam, y in points])
        wide = NoiseScaledSeries(
            [(lam, ShotEstimate(y, 0.02, 10)) for lam, y in points])
        assert extrapolate_exponential(wide).std_error == pytest.approx(
            2.0 * extrapolate_exponential(narrow).std_error, rel=1e-9)

    def test_deep_circuit_beats_linear_on_most_seeds(self, h2_vqe):
        _, h, _, deep, theta, exact = h2_vqe
        noise = NoiseModel(p1=2e-3, p2=2e-3)
        circuit = deep.combined()
        wins = 0
        for seed in range(1, 11):
            series = noise_scaled_series(circuit, theta, h, noise,
                                         [1.0, 3.0, 5.0], make_rng(seed),
                                         trajectories=1200)
            linear_error = abs(extrapolate_linear(series).mean - exact)
            exponential_error = abs(extrapolate_exponential(series).mean - exact)
            wins += exponential_error < linear_error
        assert wins >= 7


@pytest.mark.parametrize("seed", range(20))
def test_fits_match_restated_bodies_bit_for_bit(seed):
    rng = make_rng(seed)
    count = int(rng.integers(2, 6))
    scales = np.concatenate(
        [[1.0], 1.0 + np.cumsum(rng.uniform(0.1, 2.0, count - 1))])
    sign = rng.choice([-1.0, 1.0])
    series = NoiseScaledSeries(
        [(lam, ShotEstimate(sign * rng.uniform(0.05, 2.0), rng.uniform(0, 0.1),
                            int(rng.integers(1, 5000)))) for lam in scales])
    for fit, oracle in ((extrapolate_linear, series_extrapolate_linear),
                        (extrapolate_exponential,
                         series_extrapolate_exponential)):
        est = fit(series)
        mean, spread, shots = oracle(series)
        assert same_bits(np.array([est.mean, est.std_error]),
                         np.array([mean, spread]))
        assert est.shots == shots


class TestPecDecomposition:
    def test_noiseless_is_trivial(self):
        decomp = pec_decompose_depolarizing(0.0, 1)
        assert decomp.gamma == pytest.approx(1.0, abs=1e-12)
        probs = {label: prob for label, prob, _ in decomp.entries}
        assert probs["I"] == pytest.approx(1.0, abs=1e-12)

    def test_closed_forms_at_p_point_one(self):
        decomp = pec_decompose_depolarizing(0.1, 1)
        assert decomp.gamma == pytest.approx(2.1 / 1.8, abs=1e-12)
        entries = {label: (prob, parity)
                   for label, prob, parity in decomp.entries}
        assert entries["I"][0] == pytest.approx(3.9 / 4.2, abs=1e-12)
        assert entries["I"][1] == 1
        for letter in "XYZ":
            assert entries[letter][0] == pytest.approx(0.1 / 4.2, abs=1e-12)
            assert entries[letter][1] == -1
        assert round(decomp.gamma, 4) == 1.1667
        assert round(entries["I"][0], 4) == 0.9286
        assert round(entries["X"][0], 5) == 0.02381

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.3, 0.7])
    def test_single_qubit_normalization(self, p):
        decomp = pec_decompose_depolarizing(p, 1)
        probs = {label: prob for label, prob, _ in decomp.entries}
        assert probs["I"] + 3 * probs["X"] == pytest.approx(1.0, abs=1e-12)
        assert probs["X"] == pytest.approx(probs["Y"], abs=1e-15)
        assert probs["X"] == pytest.approx(probs["Z"], abs=1e-15)

    def test_two_qubit_parity_classes(self):
        decomp = pec_decompose_depolarizing(0.1, 2)
        single = pec_decompose_depolarizing(0.1, 1)
        assert decomp.gamma == pytest.approx(single.gamma ** 2, rel=1e-10)
        by_class: dict[tuple[int, int], list[float]] = {}
        for label, prob, parity in decomp.entries:
            weight = sum(letter != "I" for letter in label)
            by_class.setdefault((weight, parity), []).append(prob)
        assert sorted(by_class) == [(0, 1), (1, -1), (2, 1)]
        assert len(by_class[(1, -1)]) == 6
        assert len(by_class[(2, 1)]) == 9

    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.3])
    def test_composition_with_forward_channel_is_identity(self, p, arity):
        decomp = pec_decompose_depolarizing(p, arity)
        letters = "IXYZ"
        labels = ([a + b for a in letters for b in letters]
                  if arity == 2 else list(letters))
        for pauli in labels:
            weight = sum(letter != "I" for letter in pauli)
            forward = (1.0 - p) ** weight
            inverse = 0.0
            for label, prob, parity in decomp.entries:
                sign = 1
                for inserted, measured in zip(label, pauli):
                    if inserted != "I" and measured != "I" and inserted != measured:
                        sign = -sign
                inverse += parity * prob * decomp.gamma * sign
            assert abs(inverse * forward - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0.01, 0.2, 0.5])
    def test_overhead_exceeds_one_under_noise(self, p):
        assert pec_decompose_depolarizing(p, 1).gamma > 1.0
        assert pec_decompose_depolarizing(p, 2).gamma > 1.0

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            pec_decompose_depolarizing(-0.1, 1)
        with pytest.raises(InvalidProbability):
            pec_decompose_depolarizing(1.0, 1)

    def test_unsupported_arity(self):
        with pytest.raises(ValueError, match="two-qubit"):
            pec_decompose_depolarizing(0.1, 3)

    def test_entry_probabilities_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            QuasiProbDecomposition(1.5, (("I", 0.7, 1), ("X", 0.1, -1)),
                                   0.1, 1)

    def test_matches_noise_model_conversion(self):
        noise = NoiseModel(p1=0.03, p2=0.06)
        decomps = decomposition_for_noise(noise, [1, 2, 2])
        assert set(decomps) == {1, 2}
        assert decomps[1].p == pytest.approx(0.04, abs=1e-15)
        assert decomps[2].p == pytest.approx(0.08, abs=1e-15)


    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("p", [0.004, 0.3])
    def test_cdf_draws_replay_generator_choice(self, p, arity):
        probabilities = np.array(
            [prob for _, prob, _ in pec_decompose_depolarizing(p, arity).entries])
        cdf = _choice_cdf(probabilities)
        for seed in range(200):
            ours, oracle = make_rng(seed), make_rng(seed)
            for _ in range(50):
                assert bisect_right(cdf, ours.random()) == \
                    oracle.choice(len(probabilities), p=probabilities)
            assert ours.bit_generator.state == oracle.bit_generator.state


    @pytest.mark.parametrize("arity", [1, 2])
    @pytest.mark.parametrize("p", [0.0, 0.004, 0.1, 0.5, 0.9])
    def test_commutation_signs_match_letter_products_bit_for_bit(self, p,
                                                                 arity):
        labels, coefficients = letter_product_coefficients(p, arity)
        decomp = pec_decompose_depolarizing(p, arity)
        gamma = float(np.sum(np.abs(coefficients)))
        assert [label for label, _, _ in decomp.entries] == labels
        assert same_bits(
            np.array([decomp.gamma, *(prob for _, prob, _ in decomp.entries)]),
            np.array([gamma, *(float(abs(c)) / gamma for c in coefficients)]))
        assert [parity for _, _, parity in decomp.entries] == \
            [1 if c >= 0 else -1 for c in coefficients]


def pec_circuit(arity: int) -> Circuit:
    if arity == 1:
        return Circuit(1).rx(0, angle=np.pi / 3).ry(0, angle=0.4)
    return Circuit(2).ry(0, angle=0.7).cnot(0, 1).rx(1, angle=-0.3).cz(0, 1)


class TestPecEstimate:
    def test_noiseless_trivial_decomposition(self):
        circuit = Circuit(1).rx(0, angle=np.pi / 3)
        z = PauliSum.from_text({"Z0": 1.0}, 1)
        noise = NoiseModel()
        est, _ = pec_estimate(circuit, None, z, noise, 16, make_rng(0))
        assert est.mean == pytest.approx(0.5, abs=1e-12)
        assert est.std_error == 0.0
        assert est.shots == 16

    def test_recovers_noiseless_value_within_three_sigma(self):
        circuit = Circuit(1).rx(0, angle=np.pi / 3)
        z = PauliSum.from_text({"Z0": 1.0}, 1)
        noise = NoiseModel(p1=0.05)
        rho = density_matrix_reference(circuit, None, noise)
        unmitigated = expectation_from_density(rho, z)
        assert unmitigated == pytest.approx((1 - 4 * 0.05 / 3) * 0.5, abs=1e-12)
        est, _ = pec_estimate(circuit, None, z, noise, 4000, make_rng(1))
        assert abs(est.mean - 0.5) <= 3.0 * est.std_error
        assert abs(est.mean - 0.5) < abs(unmitigated - 0.5)

    def test_variance_inflation_tracks_squared_overhead(self):
        circuit = Circuit(1).x(0).x(0)
        z = PauliSum.from_text({"Z0": 1.0}, 1)
        noise = NoiseModel(p1=0.15)
        decomps = decomposition_for_noise(noise, [1])
        gamma_total = decomps[1].gamma ** 2
        est, _ = pec_estimate(circuit, None, z, noise, 4000, make_rng(1))
        observed = est.std_error ** 2 * est.shots
        predicted = gamma_total ** 2 - 1.0
        assert observed == pytest.approx(predicted, rel=0.3)
        assert est.mean == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("arity", [1, 2])
    def test_matches_caller_built_decompositions_bit_for_bit(self, arity,
                                                             seed):
        circuit = pec_circuit(arity)
        z = PauliSum.from_text({"Z0": 1.0}, 1) if arity == 1 else \
            PauliSum.from_text({"Z0 Z1": 1.0, "X1": 0.5}, 2)
        noise = NoiseModel(p1=0.02, p2=0.03)
        est, decompositions = pec_estimate(circuit, None, z, noise, 500,
                                           make_rng(seed))
        supplied = decomposition_for_noise(
            noise, [len(gate.support()) for gate in circuit.gates])
        assert decompositions == supplied
        oracle = pec_with_decompositions(circuit, None, z, noise, supplied,
                                         500, make_rng(seed))
        assert same_bits(np.array([est.mean, est.std_error]),
                         np.array([oracle.mean, oracle.std_error]))
        assert est.shots == oracle.shots

    @pytest.mark.parametrize("rates", [(0.02, 0.03), (0.2, 0.3), (0.05, 0.0),
                                       (0.0, 0.05)])
    @pytest.mark.parametrize("arity", [1, 2])
    def test_block_draws_match_the_per_gate_draw_bit_for_bit(self, arity,
                                                             rates):
        circuit = pec_circuit(arity)
        noise = NoiseModel(*rates)
        supports = compile_circuit(circuit).supports
        decompositions = decomposition_for_noise(
            noise, [len(support) for support in supports])
        for seed in (1, 2, 3):
            stream, reference = make_rng(seed), make_rng(seed)
            kicks, parities = _pec_kicks(supports, noise, decompositions,
                                        stream, 300)
            replays = pec_replays(supports, noise, reference, 300)
            for k, replay in enumerate(replays):
                expected_kicks, parity = per_gate_pec_draw(
                    supports, noise, decompositions, replay)
                assert replay.exhausted
                assert list(kicks[k]) == expected_kicks
                assert parities[k] == parity
            assert stream.bit_generator.state == \
                reference.bit_generator.state

    def test_rejects_three_qubit_gates(self):
        circuit = Circuit(3).exp(PauliString.from_text("X0 X1 X2"), angle=0.2)
        z = PauliSum.from_text({"Z0": 1.0}, 3)
        with pytest.raises(ValueError, match="two-qubit"):
            pec_estimate(circuit, None, z, NoiseModel(p1=0.01, p2=0.01), 4,
                         make_rng(0))

    def test_requires_samples(self):
        circuit = Circuit(1).x(0)
        z = PauliSum.from_text({"Z0": 1.0}, 1)
        with pytest.raises(ValueError, match="sample"):
            pec_estimate(circuit, None, z, NoiseModel(), 0, make_rng(0))


class TestStabiliser:
    def test_check_validation(self):
        with pytest.raises(ValueError, match="0 or 1"):
            StabiliserCheck((0, 1), 2, NUMBER)
        with pytest.raises(ValueError, match="kind"):
            StabiliserCheck((0, 1), 0, "charge")
        with pytest.raises(ValueError, match="parity qubit"):
            StabiliserCheck((), 0, NUMBER)

    def test_occupation_checks_structure(self):
        checks = occupation_checks(4, 2, 1)
        assert checks[0] == StabiliserCheck((0, 1, 2, 3), 0, NUMBER)
        assert checks[1] == StabiliserCheck((0, 1), 1, SPIN_UP)
        with pytest.raises(ValueError, match="even"):
            occupation_checks(3, 1, 1)

    def test_noiseless_run_keeps_every_shot(self, h2_vqe):
        ints, h, ansatz, _, theta, exact = h2_vqe
        checks = occupation_checks(4, ints.n_electrons, ints.n_up)
        checks.append(StabiliserCheck((2, 3), (ints.n_electrons
                                               - ints.n_up) % 2, SPIN_DOWN))
        est, fraction = stabiliser_postselect(ansatz.combined(), theta, h,
                                              checks, NoiseModel(), 40,
                                              make_rng(5))
        assert fraction == 1.0
        assert est.mean == pytest.approx(exact, abs=1e-10)
        assert est.shots == 40

    def test_injected_flip_always_rejected(self, h2_vqe):
        ints, h, ansatz, _, theta, _ = h2_vqe
        checks = occupation_checks(4, ints.n_electrons, ints.n_up)
        corrupted = Circuit(4, list(ansatz.combined().gates)).x(0)
        with pytest.raises(AllShotsRejected):
            stabiliser_postselect(corrupted, theta, h, checks, NoiseModel(),
                                  20, make_rng(3))

    def test_check_outside_register_rejected(self, h2_vqe):
        _, h, ansatz, _, theta, _ = h2_vqe
        bad = [StabiliserCheck((0, 7), 0, NUMBER)]
        with pytest.raises(ValueError, match="outside"):
            stabiliser_postselect(ansatz.combined(), theta, h, bad,
                                  NoiseModel(), 4, make_rng(0))

    def test_requires_shots_and_checks(self, h2_vqe):
        ints, h, ansatz, _, theta, _ = h2_vqe
        checks = occupation_checks(4, ints.n_electrons, ints.n_up)
        with pytest.raises(ValueError, match="shot"):
            stabiliser_postselect(ansatz.combined(), theta, h, checks,
                                  NoiseModel(), 0, make_rng(0))
        with pytest.raises(ValueError, match="check"):
            stabiliser_postselect(ansatz.combined(), theta, h, [],
                                  NoiseModel(), 4, make_rng(0))

    @pytest.mark.parametrize("p", [0.0, 2e-3, 0.05, 0.3])
    @pytest.mark.parametrize("extra", [None, "spin-down", "repeated"])
    def test_parity_readout_matches_cnot_fan_bit_for_bit(self, h2_vqe, p,
                                                         extra):
        ints, h, ansatz, _, theta, _ = h2_vqe
        checks = occupation_checks(4, ints.n_electrons, ints.n_up)
        if extra == "spin-down":
            checks.append(StabiliserCheck(
                (2, 3), (ints.n_electrons - ints.n_up) % 2, SPIN_DOWN))
        elif extra == "repeated":  # qubit 1 drops out: the parity of 0 and 2
            checks.append(StabiliserCheck((0, 1, 2, 1), 0, NUMBER))
        circuit, noise = ansatz.combined(), NoiseModel(p1=p, p2=p)
        for seed in (1, 2, 3):
            est, fraction = stabiliser_postselect(circuit, theta, h, checks,
                                                  noise, 200, make_rng(seed))
            mean, error, kept, retained = fan_postselect(
                circuit, theta, h, checks, noise, 200, make_rng(seed))
            assert same_bits(np.array([est.mean, est.std_error, fraction]),
                             np.array([mean, error, retained]))
            assert est.shots == kept

    def test_postselection_beats_raw_on_most_seeds(self, h2_vqe):
        ints, h, ansatz, _, theta, exact = h2_vqe
        checks = occupation_checks(4, ints.n_electrons, ints.n_up)
        noise = NoiseModel(p1=2e-3, p2=2e-3)
        circuit = ansatz.combined()
        wins = 0
        for seed in range(1, 11):
            est, fraction = stabiliser_postselect(circuit, theta, h, checks,
                                                  noise, 300, make_rng(seed))
            raw = noisy_expectation(circuit, theta, h, noise,
                                    make_rng(1000 + seed), trajectories=300)
            assert 0.0 < fraction <= 1.0
            wins += abs(est.mean - exact) < abs(raw.mean - exact)
        assert wins >= 8

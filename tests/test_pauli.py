import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartree.pauli import (
    DimensionMismatch,
    NonHermitian,
    PauliString,
    PauliSum,
    PauliTerm,
    TooLarge,
    apply_to_statevector,
    canonicalize,
    commutes,
    expectation,
    mul_strings,
    mul_terms,
    to_matrix,
)

from conftest import kron_string_matrix, kron_sum_matrix, random_pauli_string, random_state


def term(text: str, coeff: complex = 1.0) -> PauliTerm:
    return PauliTerm(PauliString.from_text(text), coeff)


class TestMulTerms:
    def test_x_times_y_is_iz(self):
        out = mul_terms(term("X0"), term("Y0"))
        assert out.string == PauliString.from_text("Z0")
        assert out.coeff == 1j

    def test_involution(self):
        out = mul_terms(term("X0"), term("X0"))
        assert out.string.is_identity
        assert out.coeff == 1

    def test_z_squared_cancels(self):
        out = mul_terms(term("Z1 Z0"), term("Z0"))
        assert out.string == PauliString.from_text("Z1")
        assert out.coeff == 1

    def test_single_qubit_table_against_oracle(self):
        for a, b in itertools.product("IXYZ", repeat=2):
            got = mul_terms(term(f"{a}0" if a != "I" else "I"),
                            term(f"{b}0" if b != "I" else "I"))
            want = kron_string_matrix(PauliString.from_text(f"{a}0" if a != "I" else "I"), 1) @ \
                kron_string_matrix(PauliString.from_text(f"{b}0" if b != "I" else "I"), 1)
            np.testing.assert_allclose(
                got.coeff * kron_string_matrix(got.string, 1), want, atol=1e-15)

    def test_associative_and_anticommuting_on_same_qubit(self):
        singles = [term("X0"), term("Y0"), term("Z0")]
        for a, b in itertools.product(singles, repeat=2):
            if a.string != b.string:
                ab = mul_terms(a, b)
                ba = mul_terms(b, a)
                assert ab.string == ba.string
                assert ab.coeff == -ba.coeff
        for a, b, c in itertools.product(singles, repeat=3):
            left = mul_terms(mul_terms(a, b), c)
            right = mul_terms(a, mul_terms(b, c))
            assert left == right


class TestCanonicalize:
    def test_merge(self):
        s = PauliSum([term("X0"), term("X0")])
        assert s.coeff("X0") == 2

    def test_drop(self):
        s = canonicalize(PauliSum({PauliString.from_text("X0"): 1e-15}, tol=0), 1e-12)
        assert len(s) == 0

    def test_ordering_identity_first(self):
        s = PauliSum.from_text({"Z0": 1.0, "I": 0.5})
        assert [str(p) for p in s.strings()] == ["I", "Z0"]

    def test_idempotent(self):
        s = PauliSum.from_text({"X0 Z2": 1.2, "Y1": -0.25j, "I": 3.0})
        assert canonicalize(canonicalize(s)) == canonicalize(s)


class TestCommutes:
    def test_x_z_anticommute(self):
        assert not commutes(PauliString.from_text("X0"), PauliString.from_text("Z0"))

    def test_double_overlap_commutes(self):
        assert commutes(PauliString.from_text("X0 X1"), PauliString.from_text("Z0 Z1"))

    def test_disjoint_support_commutes(self):
        assert commutes(PauliString.from_text("X0"), PauliString.from_text("Z1"))

    def test_matches_matrix_commutator(self, rng):
        for _ in range(50):
            a = random_pauli_string(rng, 3)
            b = random_pauli_string(rng, 3)
            ma, mb = kron_string_matrix(a, 3), kron_string_matrix(b, 3)
            vanishes = np.allclose(ma @ mb - mb @ ma, 0)
            assert commutes(a, b) == vanishes


class TestToMatrix:
    def test_z_matrix(self):
        np.testing.assert_array_equal(
            to_matrix(PauliSum.from_text({"Z0": 1.0}), 1), np.diag([1.0 + 0j, -1.0]))

    def test_scaled_identity(self):
        np.testing.assert_allclose(
            to_matrix(PauliSum.identity(0.5 - 0.25j), 2), (0.5 - 0.25j) * np.eye(4))

    def test_xx_antidiagonal(self):
        m = to_matrix(PauliSum.from_text({"X0 X1": 1.0}), 2)
        np.testing.assert_array_equal(m, np.fliplr(np.eye(4)))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            to_matrix(PauliSum.from_text({"Z0": 1.0}), 15)

    def test_matches_kron_oracle(self, rng):
        for _ in range(25):
            s = PauliSum({random_pauli_string(rng, 4): rng.normal() + 1j * rng.normal()
                          for _ in range(4)})
            np.testing.assert_allclose(to_matrix(s, 4), kron_sum_matrix(s, 4), atol=1e-12)

    def test_product_homomorphism(self, rng):
        for _ in range(20):
            a = PauliTerm(random_pauli_string(rng, 4), rng.normal())
            b = PauliTerm(random_pauli_string(rng, 4), rng.normal())
            ab = mul_terms(a, b)
            left = (a.coeff * kron_string_matrix(a.string, 4)) @ \
                (b.coeff * kron_string_matrix(b.string, 4))
            right = ab.coeff * kron_string_matrix(ab.string, 4)
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(PauliSum.from_text({"Z0": 1.0}), np.array([1.0, 0.0])) == 1.0

    def test_z_on_plus(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert abs(expectation(PauliSum.from_text({"Z0": 1.0}), plus)) < 1e-12

    def test_bell_xx(self):
        bell = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        assert abs(expectation(PauliSum.from_text({"X0 X1": 1.0}), bell) - 1.0) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitian):
            expectation(PauliSum.from_text({"X0": 1j}), np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(PauliSum.from_text({"Z3": 1.0}), np.array([1.0, 0.0]))

    def test_imaginary_residue_raises(self):
        # 5e-11 passes the Hermiticity tolerance; a norm of 10 lifts the
        # residue of <psi|S|psi> to 5e-9, past the realness bound.
        s = PauliSum.from_text({"Z0": 1.0 + 5e-11j})
        with pytest.raises(ArithmeticError):
            expectation(s, np.array([10.0, 0.0]))

    def test_matches_dense_oracle(self, rng):
        for n in (2, 5, 8):
            s = PauliSum({random_pauli_string(rng, n): rng.normal() for _ in range(6)})
            psi = random_state(rng, n)
            dense = np.vdot(psi, kron_sum_matrix(s, n) @ psi).real
            assert abs(expectation(s, psi) - dense) < 1e-10

    def test_apply_matches_dense(self, rng):
        s = PauliSum({random_pauli_string(rng, 3): rng.normal() + 1j * rng.normal()
                      for _ in range(5)})
        psi = random_state(rng, 3)
        np.testing.assert_allclose(
            apply_to_statevector(s, psi), kron_sum_matrix(s, 3) @ psi, atol=1e-12)


pauli_text = st.lists(
    st.tuples(st.sampled_from("XYZ"), st.integers(0, 5)), max_size=5).map(
        lambda pairs: " ".join(f"{letter}{q}" for letter, q in
                               {q: (letter, q) for letter, q in pairs}.values()) or "I")


@given(st.dictionaries(pauli_text, st.complex_numbers(max_magnitude=10, allow_nan=False),
                       max_size=6))
@settings(max_examples=150, deadline=None)
def test_canonicalize_idempotent_property(entries):
    s = PauliSum.from_text(entries)
    assert canonicalize(s) == s


@given(st.tuples(pauli_text, pauli_text))
@settings(max_examples=150, deadline=None)
def test_commutes_symmetric_property(pair):
    a, b = (PauliString.from_text(t) for t in pair)
    assert commutes(a, b) == commutes(b, a)
    phase_ab, s_ab = mul_strings(a, b)
    phase_ba, s_ba = mul_strings(b, a)
    assert s_ab == s_ba
    assert (phase_ab == phase_ba) == commutes(a, b)


def test_textual_round_trip():
    s = PauliSum.from_text({"X0 Z2 Y5": 1.5 - 0.5j, "I": 2.0})
    again = PauliSum.from_json_terms(s.to_json_terms())
    assert again == s
    assert str(PauliString.from_text("X0 Z2 Y5")) == "X0 Z2 Y5"

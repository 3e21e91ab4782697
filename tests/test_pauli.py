import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartree import pauli
from hartree.encoding import JW, EncodingScheme, encode_operator
from hartree.errors import ConfigError
from hartree.fermion import build_molecular_hamiltonian
from hartree.io_cli import load_fixture
from hartree.io_cli.cli import exit_code_for
from hartree.pauli import (
    BYTE_BUDGET,
    DROP_TOLERANCE,
    STRING_TABLES,
    TABLE_BYTES,
    TABLE_ITEM_BYTES,
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
    matrix_bytes,
    mul_strings,
    mul_terms,
    to_matrix,
    x_masks,
)

from conftest import (
    dict_pauli_sum,
    kron_string_matrix,
    kron_sum_matrix,
    random_pauli_string,
    random_state,
    same_bits,
    scatter_apply,
    scatter_apply_sum,
    scatter_to_matrix,
    to_csr,
)


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

    def test_byte_figure_is_one_dense_complex_matrix(self):
        assert matrix_bytes(3) == 8 * 8 * 16
        assert matrix_bytes(13) == BYTE_BUDGET < matrix_bytes(14)

    def test_fourteen_qubits_refused_before_allocating(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("to_matrix allocated its matrix")

        s = PauliSum.from_text({"Z0": 1.0})
        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(TooLarge, match=f"needs {4 ** 14 * 16} bytes"):
            to_matrix(s, 14)

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

    @pytest.mark.parametrize("imag, loose, tight", [(1e-8, 1e-6, 1e-9),
                                                    (1e-12, 1e-10, 1e-13)])
    def test_explicit_tolerance_never_reads_the_kept_verdict(self, imag,
                                                             loose, tight):
        s = PauliSum.from_text({"Z0": 1.0 + imag * 1j, "X1": 0.5})
        default = imag <= pauli.HERMITIAN_TOLERANCE
        for _ in range(2):  # before and after the verdict is kept
            assert s.is_hermitian() is default
            assert s.is_hermitian(loose) is True
            assert s.is_hermitian(tight) is False
            assert s.is_hermitian(pauli.HERMITIAN_TOLERANCE) is default
        assert s._hermitian is default

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


@given(st.dictionaries(pauli_text, st.complex_numbers(max_magnitude=10, allow_nan=False),
                       max_size=8),
       st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_apply_matches_the_scatter_loop_bit_for_bit(entries, extra, seed):
    s = PauliSum.from_text(entries)
    n = max(s.n_qubits, 1) + extra  # a register wider than the sum needs
    parts = np.random.default_rng(seed).normal(size=(2, 1 << n))
    psi = parts[0] + 1j * parts[1]
    assert same_bits(apply_to_statevector(s, psi), scatter_apply_sum(s, psi))
    for string in s.strings():
        assert same_bits(string.apply(psi), scatter_apply(string, psi))
    assert same_bits(to_matrix(s, n), scatter_to_matrix(s, n))


odd_y_text = pauli_text.filter(lambda text: text.count("Y") % 2 == 1)


@given(st.dictionaries(pauli_text, st.complex_numbers(max_magnitude=10, allow_nan=False),
                       max_size=8),
       odd_y_text, st.complex_numbers(min_magnitude=0.1, max_magnitude=10),
       st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_mask_grouped_matrices_match_the_scatter_loop_bit_for_bit(
        entries, odd_y, coeff, extra):
    # An odd number of Y letters puts the coefficient on the imaginary axis.
    s = PauliSum.from_text({**entries, odd_y: coeff})
    n = max(s.n_qubits, 1) + extra  # a register wider than the sum needs
    expected = scatter_to_matrix(s, n)
    assert same_bits(to_matrix(s, n), expected)
    csr = to_csr(s, n)
    assert csr.nnz == np.count_nonzero(expected) <= len(x_masks(s)) << n
    assert same_bits(csr.toarray(), expected)


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_mask_group_split_across_blocks_keeps_its_bits(rows, rng,
                                                        monkeypatch):
    # Sixteen terms share X mask 0b0010; a block of `rows` terms at a time
    # carries the sum so far into the next block's first row.
    entries = {PauliString(0b0010, z): complex(*rng.normal(size=2))
               for z in range(16)}
    entries[PauliString(0b0101, 0b0001)] = 0.5
    s = PauliSum(entries, n_qubits=4)
    monkeypatch.setattr(pauli, "TABLE_BYTES",
                        (rows + 1) * 16 * pauli.AMPLITUDE_BYTES)
    expected = scatter_to_matrix(s, 4)
    assert same_bits(to_matrix(s, 4), expected)
    assert same_bits(to_csr(s, 4).toarray(), expected)


def test_csr_drops_the_entries_that_cancel():
    # Under each X mask the Z0 term cancels the I and X1 Z0 cancels X1 on
    # the rows with qubit 0 set, so half of the stacked entries are zero.
    s = PauliSum.from_text({"I": 0.5, "Z0": 0.5, "X1": 0.25, "X1 Z0": 0.25,
                            "Y0 Y2": 1.0})
    csr = to_csr(s, 3)
    assert csr.nnz == 16 < len(x_masks(s)) << 3
    assert np.all(csr.data != 0)
    assert same_bits(csr.toarray(), to_matrix(s, 3))


class TestTables:
    def test_warm_tables_give_the_cold_bits(self, rng):
        entries = {"X0 Y2": 0.3 - 0.1j, "Z1": -1.2, "Y0 X1 Z3": 0.25j, "I": 0.7}
        psi = random_state(rng, 4)
        cold = apply_to_statevector(PauliSum.from_text(entries), psi)
        s = PauliSum.from_text(entries)
        first, warm = apply_to_statevector(s, psi), apply_to_statevector(s, psi)
        assert same_bits(first, cold) and same_bits(warm, cold)
        assert same_bits(cold, scatter_apply_sum(s, psi))

    def test_per_call_path_gives_the_tabled_bits(self, rng, monkeypatch):
        s = PauliSum.from_text({"X0 Y2": 0.3 - 0.1j, "Z1 X3": -1.2, "I": 0.7})
        psi = random_state(rng, 5)
        tabled = apply_to_statevector(s, psi)
        monkeypatch.setattr(pauli, "TABLE_BYTES", 0)
        fresh = PauliSum.from_text({"X0 Y2": 0.3 - 0.1j, "Z1 X3": -1.2, "I": 0.7})
        assert same_bits(apply_to_statevector(fresh, psi), tabled)
        assert fresh._tables == {}

    def test_register_above_the_ceiling_is_computed_per_call(self, rng):
        n = 16
        s = PauliSum.from_text({f"X{q} Z{q + 1}": 0.1 * (q + 1) for q in range(6)},
                               n_qubits=n)
        assert len(s) * (1 << n) * TABLE_ITEM_BYTES > TABLE_BYTES
        psi = random_state(rng, n)
        cached, nbytes = len(STRING_TABLES), STRING_TABLES.nbytes
        got = apply_to_statevector(s, psi)
        assert s._tables == {}
        assert (len(STRING_TABLES), STRING_TABLES.nbytes) == (cached, nbytes)
        assert same_bits(got, scatter_apply_sum(s, psi))

    def test_tables_below_the_ceiling_are_kept(self, rng):
        s = PauliSum.from_text({"X0 Z1": 0.5, "Y1": -0.25})
        apply_to_statevector(s, random_state(rng, 3))
        index, weights = s._tables[8]
        assert index.shape == weights.shape == (2, 8)

    def test_string_cache_evicts_the_oldest_under_its_limit(self):
        cache = pauli._TableCache(limit=3 * 16 * TABLE_ITEM_BYTES)
        for q in range(4):
            cache.get(1 << q, 0, 16)
        assert len(cache) == 3 and cache.nbytes == cache.limit
        assert [key[0] for key in cache._entries] == [2, 4, 8]
        idx, phased = cache.get(1, 1, 1 << 10)
        assert idx.shape == phased.shape == (1 << 10,)
        assert len(cache) == 3 and cache.nbytes == cache.limit
        assert same_bits(phased * np.arange(1024.0)[idx],
                         scatter_apply(PauliString(1, 1), np.arange(1024.0)))

    def test_string_tables_reject_a_narrow_register(self):
        with pytest.raises(DimensionMismatch):
            PauliString.from_text("X3").apply(np.ones(8))


@pytest.mark.parametrize("text, qubit", [
    ("X0 Z0", 0), ("X0 X0", 0), ("Z3 Y1 X3", 3), ("X-1", -1), ("Y2 Z-4", -4),
])
def test_text_naming_a_qubit_twice_or_a_negative_one_is_refused(text, qubit):
    # X0 Z0 would be -i Y0 and X0 X0 the identity: no string holds either.
    with pytest.raises(ValueError, match=f"qubit {qubit} in "):
        PauliString.from_text(text)
    with pytest.raises(ValueError, match=f"qubit {qubit} in "):
        PauliSum.from_text({text: 1.0})


@given(st.integers(0, 2 ** 70 - 1), st.integers(0, 2 ** 70 - 1))
@settings(max_examples=200, deadline=None)
def test_text_round_trip_property(x, z):
    string = PauliString(x, z)
    assert PauliString.from_text(str(string)) == string


# Magnitudes at the drop tolerance, on the axes, where |c| is exact, and at
# any angle, where Python's abs(complex) and np.abs may round apart.
EDGE = st.sampled_from([DROP_TOLERANCE * (1 + k * 2.0 ** -52) for k in (-1, 0, 1)])
coefficients = st.one_of(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    EDGE.flatmap(lambda r: st.sampled_from(
        [complex(r, 0.0), complex(0.0, -r), complex(-r, -0.0)])),
    st.builds(lambda r, angle: complex(r * math.cos(angle), r * math.sin(angle)),
              EDGE, st.floats(0.0, 2 * math.pi)))


# What a cancelled slot is left holding: exactly 0, or less than the
# tolerance on an axis or at an angle.
RESIDUES = st.sampled_from([0.0, 0.5 * DROP_TOLERANCE,
                            complex(0.0, -DROP_TOLERANCE * (1 - 2.0 ** -52)),
                            DROP_TOLERANCE * (0.6 - 0.7j)])


@st.composite
def mask_terms(draw):
    """(width, [((x, z), coeff)]): a few strings of up to 64 qubits drawn
    over and over, the first with bit 63 set when asked, and, when asked,
    each term followed by its negation; then a few slots cancelled to what
    ``RESIDUES`` holds."""
    n = draw(st.integers(1, 64))
    mask = st.integers(0, (1 << n) - 1)
    pool = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=4))
    if draw(st.booleans()):
        n, top = 64, draw(st.sampled_from([(1, 0), (0, 1), (1, 1)]))
        pool[0] = tuple(m | bit << 63 for m, bit in zip(pool[0], top))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coefficients),
                          max_size=12))
    if draw(st.booleans()):
        terms = [t for key, c in terms for t in ((key, c), (key, -c))]
    for key, residue in draw(st.lists(st.tuples(st.sampled_from(pool),
                                                RESIDUES), max_size=2)):
        total = 0.0  # the slot so far, added as the merge adds it
        for k, c in terms:
            if k == key:
                total = total + complex(c)
        terms += [(key, -total), (key, residue)]
    return n, terms


@given(mask_terms(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mask_merge_matches_the_dict_merge_bit_for_bit(drawn, declared):
    n, terms = drawn
    n_qubits = n if declared else None
    x, z, coeffs, width = dict_pauli_sum(
        [PauliTerm(PauliString(*key), c) for key, c in terms], n_qubits)
    masks = [key for key, _ in terms]
    arrays = ([k[0] for k in masks], [k[1] for k in masks],
              [c for _, c in terms])
    for s in (PauliSum.from_masks(*arrays, n_qubits=n_qubits),
              PauliSum([PauliTerm(PauliString(*key), c) for key, c in terms],
                       n_qubits=n_qubits)):
        assert s.n_qubits == width
        assert same_bits(s.x, x) and same_bits(s.z, z)
        assert same_bits(s.coeffs, coeffs)


def test_merge_drops_at_the_tolerance_as_abs_complex_does():
    # On the circle |c| = DROP_TOLERANCE, np.abs rounds apart from Python's
    # abs(complex) for some angles; the merge keeps what abs(c) >= tol keeps.
    angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    coeffs = DROP_TOLERANCE * (np.cos(angles) + 1j * np.sin(angles))
    terms = [PauliTerm(PauliString(q, 0), c) for q, c in enumerate(coeffs)]
    x, z, kept, width = dict_pauli_sum(terms)
    s = PauliSum.from_masks(range(64), [0] * 64, coeffs)
    assert 0 < len(kept) < 64
    assert same_bits(s.x, x) and same_bits(s.coeffs, kept)


@st.composite
def sparse_strings(draw):
    """20 to 60 distinct strings of at most 3 letters on 1 to 64 qubits (a
    narrow register holds fewer), so "X1 Z3" meets "X10" and "X10" "X2"."""
    n = draw(st.integers(1, 64))
    letter = st.tuples(st.integers(0, n - 1), st.integers(1, 3))

    def masks(tokens):
        letters = dict(tokens)  # one letter a qubit: no carry past bit 63
        return (sum((code & 1) << q for q, code in letters.items()),
                sum((code >> 1) << q for q, code in letters.items()))

    return draw(st.lists(st.lists(letter, max_size=3).map(masks),
                         min_size=min(20, 4 ** n // 2), max_size=60,
                         unique=True))


@given(sparse_strings(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_text_order_matches_sorted_text(keys, shuffle):
    x, z = (np.array(column, dtype=np.uint64) for column in zip(*keys))
    texts = [str(PauliString(*key)) for key in keys]
    width = int(np.bitwise_or.reduce(x | z)).bit_length()
    assert [texts[t] for t in pauli._text_order(x, z, width)] == sorted(texts)
    shuffle.shuffle(keys)
    s = PauliSum.from_masks([k[0] for k in keys], [k[1] for k in keys],
                            np.ones(len(keys)))
    assert [str(p) for p in s.strings()] == sorted(texts)


def test_text_order_puts_qubit_numbers_in_digit_order():
    texts = ["I", "X1 Z3", "X10", "X2", "Y0", "Z63"]
    s = PauliSum.from_text({t: 1.0 for t in reversed(texts)})
    assert [str(p) for p in s.strings()] == texts
    assert pauli._text_order(s.x, s.z, 64).tolist() == list(range(len(texts)))


def test_a_sum_holds_only_its_arrays():
    assert set(PauliSum.__slots__) == {"x", "z", "coeffs", "_n_qubits",
                                       "_tables", "_string_tables",
                                       "_hermitian"}


def test_building_the_lih_sum_makes_and_renders_no_string(monkeypatch):
    ints = load_fixture("lih_sto3g_1.45")
    h, scheme = build_molecular_hamiltonian(ints), EncodingScheme(JW, ints.m)
    calls = []

    def counted(name):
        original = getattr(PauliString, name)

        def method(self, *args):
            calls.append(name)
            return original(self, *args)
        return method

    for name in ("__init__", "__str__"):
        monkeypatch.setattr(PauliString, name, counted(name))
    s = encode_operator(h, scheme)
    assert len(s) == 631 and calls == []
    assert len(s + s) == 631 and len(s * 2.0) == 631 and calls == []
    assert len(PauliSum.from_text({"X0 Z1": 1.0, "Y2": 0.5})
               * PauliSum.identity(2.0)) == 2 and calls == []


@pytest.mark.parametrize("build", [
    lambda: PauliSum.from_text({"X64": 1.0}),
    lambda: PauliSum({PauliString(0, 1 << 64): 1.0}),
    lambda: PauliSum.from_masks([1 << 70], [0], [1.0]),
], ids=["from_text", "mapping", "from_masks"])
def test_a_qubit_past_63_is_a_config_error_naming_the_mask(build):
    with pytest.raises(ConfigError, match="64 a uint64 mask holds"):
        build()


@pytest.mark.parametrize("x, z, coeffs", [
    ([1], [0, 3], [1.0]),
    ([1, 2], [0, 0], [1.0]),
    ([1, 2], [0], [float("nan"), 1.0]),
    (np.array([-1, 3]), [0], [1.0, 1.0]),
], ids=["z-longer", "one-coeff", "before-nan", "before-negative"])
def test_unequal_lengths_are_refused_naming_all_three(x, z, coeffs):
    with pytest.raises(ValueError, match=f"{len(x)} x masks, {len(z)} z masks "
                       f"and {len(coeffs)} coefficients") as caught:
        PauliSum.from_masks(x, z, coeffs)
    assert exit_code_for(caught.value) == 2


@pytest.mark.parametrize("x, z", [
    (np.array([-1]), [0]),
    ([-1], [0]),
    ([1], np.array([0, -(1 << 40)])[1:]),
    ([3, -(1 << 63)], [0, 0]),
], ids=["int64-array", "python-int", "z-array-view", "int64-min"])
def test_a_negative_mask_is_refused_as_negative(x, z):
    with pytest.raises(DimensionMismatch, match="negative") as caught:
        PauliSum.from_masks(x, z, np.ones(len(z)))
    assert exit_code_for(caught.value) == 2


@pytest.mark.parametrize("x, z", [
    ([1.5], [0]),
    (np.array([2.0]), [0]),
    ([1], [True]),
    ([1], np.array(["1"])),
], ids=["python-float", "float-array", "bool", "text"])
def test_masks_that_are_not_integers_are_refused(x, z):
    with pytest.raises(ValueError, match="masks are integers") as caught:
        PauliSum.from_masks(x, z, [1.0])
    assert exit_code_for(caught.value) == 2


@pytest.mark.parametrize("x, z", [([], []), ((), ()), (np.zeros(0), np.zeros(0))],
                         ids=["list", "tuple", "float-array"])
def test_empty_masks_of_any_type_make_the_empty_sum(x, z):
    s = PauliSum.from_masks(x, z, [], n_qubits=3)
    assert len(s) == 0 and s.n_qubits == 3
    assert s.x.dtype == s.z.dtype == np.uint64


def test_the_first_non_finite_coefficient_in_input_order_is_named():
    # X1 sorts after X0, but its coefficient comes first.
    with pytest.raises(ValueError, match="non-finite coefficient for X1$"):
        PauliSum.from_masks([2, 1, 2], [0, 0, 0],
                            [float("nan"), float("inf"), 1.0])


def test_repeated_texts_add_in_input_order():
    s = PauliSum.from_text({"Z0": 0.1, "z0": 0.2, "X1 Z0": 1.0, "Z0  X1": -1.0})
    assert len(s) == 1 and s.coeff("Z0") == 0.1 + 0.2


"""Encoding maps: matrices, trees, operator images and state images."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dict_slot_encode_operators,
    kron_sum_matrix,
    per_factor_encode,
    per_index_molecular_hamiltonian,
    same_bits,
    same_sum_bits,
    tree_encode_mask,
    tree_mode_images,
)
from hartree.encoding import (
    BK,
    BKTREE,
    JW,
    PARITY,
    VARIANTS,
    BKMatrix,
    EncodingScheme,
    FenwickTree,
    IndexOutOfRange,
    _mode_images,
    bk_matrix,
    encode_operator,
    encode_operators,
    encode_state,
    fenwick_tree,
)
from hartree.fermion import (
    FermionOperator,
    FermionSum,
    OccupationVector,
    apply_to_occupation,
    arity_runs,
    build_molecular_hamiltonian,
    hf_occupation,
    number_operator,
    uccsd_generators,
)
from hartree.io_cli import list_fixtures, load_fixture
from hartree.io_cli.cli import exit_code_for
from hartree.pauli import (
    DROP_TOLERANCE,
    DimensionMismatch,
    PauliSum,
    _slots,
    apply_to_statevector,
    to_matrix,
)
from hartree.reduction import sector_for, taper_two_qubits

BETA_8 = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 1],
], dtype=np.uint8)


def basis_vector(mask: int, m: int) -> np.ndarray:
    v = np.zeros(1 << m, dtype=complex)
    v[mask] = 1.0
    return v


# -------------------------------------------------------------------- matrices


def test_bk_matrix_single_mode():
    assert bk_matrix(1).beta.tolist() == [[1]]


def test_bk_matrix_eight_modes():
    assert np.array_equal(bk_matrix(8).beta, BETA_8)


def test_bk_matrix_truncates_to_first_rows():
    m3 = bk_matrix(3).beta
    m4 = bk_matrix(4).beta
    assert np.array_equal(m3, m4[:3, :3])
    assert np.array_equal(m4, BETA_8[:4, :4])


def test_bk_matrix_is_lower_unitriangular():
    for m in (1, 2, 5, 8, 12, 16):
        beta = bk_matrix(m).beta
        assert np.array_equal(np.triu(beta, k=1), np.zeros((m, m)))
        assert np.array_equal(np.diag(beta), np.ones(m))


# ----------------------------------------------------------------- Fenwick tree


def test_fenwick_tree_eight_modes():
    tree = fenwick_tree(8)
    expected_children = {7: (3, 5, 6), 3: (1, 2), 1: (0,), 5: (4,),
                         0: (), 2: (), 4: (), 6: ()}
    assert {j: tree.children[j] for j in range(8)} == expected_children
    assert tree.parent[7] is None
    assert tree.parent[3] == 7 and tree.parent[5] == 7 and tree.parent[6] == 7
    assert tree.parent[1] == 3 and tree.parent[2] == 3
    assert tree.parent[0] == 1 and tree.parent[4] == 5


def test_fenwick_tree_two_modes():
    tree = fenwick_tree(2)
    assert tree.children == ((), (0,))
    assert tree.parent == (1, None)


def test_fenwick_tree_aggregate_nodes_for_18_modes():
    tree = fenwick_tree(18)
    assert tree.low[17] == 0
    assert tree.low[8] == 0
    scheme = EncodingScheme(BKTREE, 18)
    rng = np.random.default_rng(7)
    for _ in range(20):
        mask = int(rng.integers(0, 1 << 18))
        f = OccupationVector(18, mask)
        q = encode_state(f, scheme)
        assert q.bit(17) == sum(f.bit(i) for i in range(18)) % 2
        assert q.bit(8) == sum(f.bit(i) for i in range(9)) % 2


def test_root_and_half_node_aggregate_for_even_sizes():
    for m in (2, 4, 6, 8, 12, 14, 18, 20):
        tree = fenwick_tree(m)
        assert tree.low[m - 1] == 0
        assert tree.low[m // 2 - 1] == 0


# -------------------------------------------------------------- operator images


def test_jw_annihilator_is_lowering_with_z_chain():
    scheme = EncodingScheme(JW, 3)
    image = encode_operator(FermionSum.single([(2, False)]), scheme)
    assert image == PauliSum.from_text({"X2 Z1 Z0": 0.5, "Y2 Z1 Z0": 0.5j},
                                       n_qubits=3)


def test_jw_number_operator_is_projector():
    scheme = EncodingScheme(JW, 3)
    image = encode_operator(number_operator([1]), scheme)
    assert image == PauliSum.from_text({"I": 0.5, "Z1": -0.5}, n_qubits=3)


def test_parity_operator_images_three_modes():
    scheme = EncodingScheme(PARITY, 3)
    a_0 = encode_operator(FermionSum.single([(0, False)]), scheme)
    a_1 = encode_operator(FermionSum.single([(1, False)]), scheme)
    a_2 = encode_operator(FermionSum.single([(2, False)]), scheme)
    assert a_0 == PauliSum.from_text({"X2 X1 X0": 0.5, "X2 X1 Y0": 0.5j}, n_qubits=3)
    assert a_1 == PauliSum.from_text({"X2 X1 Z0": 0.5, "X2 Y1": 0.5j}, n_qubits=3)
    assert a_2 == PauliSum.from_text({"X2 Z1": 0.5, "Y2": 0.5j}, n_qubits=3)


def test_parity_number_operator_uses_adjacent_pair():
    scheme = EncodingScheme(PARITY, 3)
    image = encode_operator(number_operator([2]), scheme)
    assert image == PauliSum.from_text({"I": 0.5, "Z2 Z1": -0.5}, n_qubits=3)
    image0 = encode_operator(number_operator([0]), scheme)
    assert image0 == PauliSum.from_text({"I": 0.5, "Z0": -0.5}, n_qubits=3)


def test_creator_image_is_adjoint_of_annihilator_image():
    for variant in VARIANTS:
        scheme = EncodingScheme(variant, 4)
        for p in range(4):
            lower = encode_operator(FermionSum.single([(p, False)]), scheme)
            raiser = encode_operator(FermionSum.single([(p, True)]), scheme)
            a = to_matrix(lower, 4)
            assert np.allclose(a.conj().T, to_matrix(raiser, 4), atol=1e-14)


def test_mode_index_beyond_register_rejected():
    with pytest.raises(IndexOutOfRange):
        encode_operator(FermionSum.single([(5, False)]), EncodingScheme(JW, 3))


# ----------------------------------------------------------------- state images


def test_parity_state_map_three_modes():
    scheme = EncodingScheme(PARITY, 3)
    pairs = {"001": "111", "010": "110", "100": "100"}
    for f_bits, q_bits in pairs.items():
        out = encode_state(OccupationVector.from_string(f_bits), scheme)
        assert str(out) == q_bits


def test_jw_state_map_is_identity():
    scheme = EncodingScheme(JW, 5)
    for mask in (0, 1, 7, 19, 31):
        assert encode_state(OccupationVector(5, mask), scheme).mask == mask


def test_bktree_state_map_18_modes():
    f = OccupationVector.from_occupied([0, 9], 18)
    q = str(encode_state(f, EncodingScheme(BKTREE, 18)))
    assert q == "000010111100010111"
    reduced = q[1:9] + q[10:]  # drop the two aggregate qubits 17 and 8
    assert reduced == "0001011100010111"


@pytest.mark.parametrize("m", range(1, 25))
def test_bktree_images_and_states_match_tree_walks_bit_for_bit(m):
    for ours, walked in zip(_mode_images(BKTREE, m), tree_mode_images(m)):
        for image, oracle in zip(ours, walked):
            assert [(s.x, s.z) for s in image.strings()] == \
                [(s.x, s.z) for s in oracle.strings()]
            assert same_bits(np.array([c for _, c in image.items()]),
                             np.array([c for _, c in oracle.items()]))
    scheme = EncodingScheme(BKTREE, m)
    masks = range(1 << m) if m <= 10 else \
        np.random.default_rng(m).integers(0, 1 << m, size=1024)
    for mask in map(int, masks):
        assert encode_state(OccupationVector(m, mask), scheme).mask == \
            tree_encode_mask(mask, m)


def test_state_maps_are_bijections():
    for variant in VARIANTS:
        scheme = EncodingScheme(variant, 4)
        images = {encode_state(OccupationVector(4, mask), scheme).mask
                  for mask in range(16)}
        assert images == set(range(16))


def test_state_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        encode_state(OccupationVector(3, 1), EncodingScheme(JW, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.sampled_from(VARIANTS))
def test_encoded_state_matches_matrix_map(mask, variant):
    m = 8
    scheme = EncodingScheme(variant, m)
    beta = bk_matrix(m).beta if variant == BK else None
    q = encode_state(OccupationVector(m, mask), scheme)
    if variant == JW:
        assert q.mask == mask
    elif variant == PARITY:
        bits = [(mask >> k) & 1 for k in range(m)]
        expected = [sum(bits[:p + 1]) % 2 for p in range(m)]
        assert [q.bit(p) for p in range(m)] == expected
    elif variant == BK:
        f_vec = np.array([(mask >> k) & 1 for k in range(m)], dtype=np.uint8)
        expected = (beta @ f_vec) % 2
        assert [q.bit(p) for p in range(m)] == expected.tolist()


# ---------------------------------------------------- the consistency anchor


@pytest.mark.parametrize("variant", VARIANTS)
def test_encoded_operators_act_as_ladder_operators(variant):
    for m in range(1, 6):
        scheme = EncodingScheme(variant, m)
        for p in range(m):
            for dagger in (False, True):
                op = FermionOperator(((p, dagger),))
                image = encode_operator(arity_runs([op]), scheme)
                for mask in range(1 << m):
                    f = OccupationVector(m, mask)
                    vec = basis_vector(encode_state(f, scheme).mask, m)
                    moved = apply_to_statevector(image, vec)
                    result = apply_to_occupation(op, f)
                    if result is None:
                        assert np.allclose(moved, 0.0, atol=1e-12)
                    else:
                        phase, g = result
                        expected = phase * basis_vector(
                            encode_state(g, scheme).mask, m)
                        assert np.allclose(moved, expected, atol=1e-12)


def test_encoded_anticommutation_relations():
    m = 5
    eye = np.eye(1 << m)
    for variant in VARIANTS:
        scheme = EncodingScheme(variant, m)
        lowers = [to_matrix(encode_operator(FermionSum.single([(p, False)]), scheme), m)
                  for p in range(m)]
        raisers = [a.conj().T for a in lowers]
        for p in range(m):
            for q in range(m):
                assert np.max(np.abs(lowers[p] @ lowers[q]
                                     + lowers[q] @ lowers[p])) < 1e-12
                anti = lowers[p] @ raisers[q] + raisers[q] @ lowers[p]
                target = eye if p == q else 0.0 * eye
                assert np.max(np.abs(anti - target)) < 1e-12


def random_number_conserving_sum(rng: np.random.Generator, m: int) -> FermionSum:
    terms = []
    for _ in range(4):
        if rng.random() < 0.5:
            p, q = rng.integers(0, m, size=2)
            factors = [(int(p), True), (int(q), False)]
        else:
            p, q, r, s = rng.integers(0, m, size=4)
            factors = [(int(p), True), (int(q), True), (int(r), False), (int(s), False)]
        terms.append(FermionOperator(tuple(factors),
                                     complex(rng.normal(), rng.normal())))
    s = arity_runs(terms)
    return s + s.adjoint()


def test_all_encodings_share_a_spectrum(rng):
    m = 4
    for _ in range(10):
        s = random_number_conserving_sum(rng, m)
        spectra = []
        for variant in VARIANTS:
            matrix = to_matrix(encode_operator(s, EncodingScheme(variant, m)), m)
            spectra.append(np.linalg.eigvalsh(matrix))
        for other in spectra[1:]:
            assert np.max(np.abs(other - spectra[0])) < 1e-10


# ------------------------------------------------------------------ weights


def test_jw_weight_grows_linearly():
    m = 16
    for p in range(m):
        image = encode_operator(FermionSum.single([(p, False)]), EncodingScheme(JW, m))
        assert {s.weight for s in image.strings()} == {p + 1}


def test_bk_weight_beats_jw_weight_for_high_modes():
    m = 16
    for p in range(8, m):
        image = encode_operator(FermionSum.single([(p, False)]), EncodingScheme(BK, m))
        bk_weight = max(s.weight for s in image.strings())
        assert bk_weight <= p + 1


# ------------------------------------------------- molecular Hamiltonian image


H2_JW_PATTERN = {
    "I",
    "Z0", "Z1", "Z2", "Z3",
    "Z0 Z1", "Z0 Z2", "Z1 Z2", "Z0 Z3", "Z1 Z3", "Z2 Z3",
    "X0 X1 Y2 Y3", "X0 Y1 Y2 X3", "Y0 X1 X2 Y3", "Y0 Y1 X2 X3",
}


def test_h2_fixture_jw_image_matches_known_pattern():
    # The reference pattern belongs to the interleaved labelling, where the
    # reference determinant is |0011>.
    ints = load_fixture("h2_sto3g_0.7414", ordering="interleaved")
    h = build_molecular_hamiltonian(ints)
    image = encode_operator(h, EncodingScheme(JW, ints.m))
    assert {str(s) for s in image.strings()} == H2_JW_PATTERN
    assert image.is_hermitian()
    eigenvalues = np.linalg.eigvalsh(to_matrix(image, ints.m))
    assert eigenvalues[0] == pytest.approx(-1.137270, abs=1e-6)


def test_h2_fixture_jw_image_blocked_shape():
    # Re-labelling the modes keeps the diagonal part and turns the four-qubit
    # flip terms into the even-Y strings on the up/down pairs.
    ints = load_fixture("h2_sto3g_0.7414")
    image = encode_operator(build_molecular_hamiltonian(ints),
                            EncodingScheme(JW, ints.m))
    produced = {str(s) for s in image.strings()}
    assert len(produced) == 15
    diagonal = {s for s in H2_JW_PATTERN if set(s) <= set("IZ0123 ")}
    assert diagonal < produced
    assert produced - diagonal == {"X0 X1 X2 X3", "X0 X1 Y2 Y3",
                                   "Y0 Y1 X2 X3", "Y0 Y1 Y2 Y3"}


def test_h2_fixture_spectrum_identical_across_encodings():
    ints = load_fixture("h2_sto3g_0.7414")
    h = build_molecular_hamiltonian(ints)
    reference = None
    for variant in VARIANTS:
        image = encode_operator(h, EncodingScheme(variant, ints.m))
        values = np.linalg.eigvalsh(to_matrix(image, ints.m))
        if reference is None:
            reference = values
        assert np.max(np.abs(values - reference)) < 1e-10


def test_hamiltonian_commutes_with_encoded_number_operator():
    ints = load_fixture("h2_sto3g_0.7414")
    h = build_molecular_hamiltonian(ints)
    for variant in VARIANTS:
        scheme = EncodingScheme(variant, ints.m)
        h_img = encode_operator(h, scheme)
        n_img = encode_operator(number_operator(range(ints.m)), scheme)
        up_img = encode_operator(number_operator(range(ints.m // 2)), scheme)
        for other in (n_img, up_img):
            commutator = h_img * other - other * h_img
            assert all(abs(c) < 1e-10 for _, c in commutator.items())


# ------------------------------------ raw products against the per-factor sums

# Coefficients of every scale, and tiny ones that sit at DROP_TOLERANCE * 2^k,
# so a product of k ladder images (each halving) lands on either side of the
# per-factor drop.
_PARTS = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.builds(lambda k, f: DROP_TOLERANCE * 2.0 ** k * f,
              st.integers(0, 4), st.sampled_from((-1.0, 0.999, 1.0, 1.001))),
    st.just(0.0))
_TERMS = st.lists(
    st.tuples(st.lists(st.tuples(st.integers(0, 5), st.booleans()),
                       max_size=4),
              st.builds(complex, _PARTS, _PARTS)),
    max_size=8)


@settings(max_examples=200, deadline=None)
@given(_TERMS, st.sampled_from(VARIANTS))
def test_raw_products_match_per_factor_sums_bit_for_bit(terms, variant):
    s = arity_runs(FermionOperator(tuple(factors), coeff)
                   for factors, coeff in terms)
    scheme = EncodingScheme(variant, 6)
    assert same_sum_bits(encode_operator(s, scheme),
                         per_factor_encode(s, scheme))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list_fixtures())
def test_fixture_images_match_per_factor_sums_bit_for_bit(name, variant):
    ints = load_fixture(name)
    h = build_molecular_hamiltonian(ints)
    scheme = EncodingScheme(variant, ints.m)
    assert same_sum_bits(encode_operator(h, scheme),
                         per_factor_encode(h, scheme))


@pytest.mark.parametrize("variant", VARIANTS)
def test_uccsd_generator_images_match_per_factor_sums_bit_for_bit(variant):
    # Anti-Hermitian generators encode to imaginary coefficients.
    scheme = EncodingScheme(variant, 8)
    # Modes 0-3 are spin up and 4-7 spin down, so only excitations that
    # flip spin move electrons from one block to the other.
    generators = uccsd_generators(8, range(4), range(4, 8),
                                  spin_conserving=False)
    assert len(generators) == 52  # 16 singles and 36 doubles
    for generator in generators:
        assert same_sum_bits(encode_operator(generator.generator, scheme),
                             per_factor_encode(generator.generator, scheme))


# Terms of arity 0 to 4 interleaved, so runs of one arity are short and
# follow one another, on a wide register; half the modes come from a small
# set so that repeated modes, and so merged strings, are common.
_WIDE_MODES = st.one_of(st.integers(0, 23), st.sampled_from((0, 1, 22, 23)))
_WIDE_TERMS = st.lists(
    st.tuples(st.lists(st.tuples(_WIDE_MODES, st.booleans()), max_size=4),
              st.builds(complex, _PARTS, _PARTS)),
    max_size=12)


@settings(max_examples=100, deadline=None)
@given(_WIDE_TERMS, _WIDE_TERMS, st.sampled_from(("list", "sum", "adjoint")),
       st.sampled_from(VARIANTS))
def test_mixed_arity_runs_match_per_factor_sums_bit_for_bit(terms, more, built,
                                                            variant):
    # A sum read from a term list, or made from two by + or by adjoint and -
    # on the runs.
    s, t = (arity_runs(FermionOperator(tuple(factors), coeff)
                       for factors, coeff in spec) for spec in (terms, more))
    s = {"list": s, "sum": s + t, "adjoint": s.adjoint() - t}[built]
    scheme = EncodingScheme(variant, 24)
    assert same_sum_bits(encode_operator(s, scheme),
                         per_factor_encode(s, scheme))


def _top_bit_sum() -> FermionSum:
    """Mixed arities on modes 62 and 63 of a 64-mode register."""
    spec = [
        ((), 0.25),
        (((63, True), (62, False)), 0.5),
        (((63, True), (63, False)), -1.25),
        (((63, True), (62, True), (1, False), (0, False)), 0.125 + 0.5j),
        (((62, True),), 0.75j),
        (((62, True), (63, True), (63, False), (62, False)), 2.0),
        (((0, True), (62, False)), -0.5),
        (((63, False), (31, True), (63, True), (32, False)), 1.5 - 0.25j),
    ]
    return arity_runs(FermionOperator(factors, coeff)
                      for factors, coeff in spec)


@pytest.mark.parametrize("variant", VARIANTS)
def test_top_modes_of_a_64_mode_register_match_bit_for_bit(variant):
    scheme = EncodingScheme(variant, 64)
    image = encode_operator(_top_bit_sum(), scheme)
    assert same_sum_bits(image, per_factor_encode(_top_bit_sum(), scheme))
    assert any(string.x >> 63 or string.z >> 63 for string in image.strings())


def test_register_wider_than_64_modes_refused_before_building(monkeypatch):
    import hartree.encoding as encoding

    def refuse(*_):
        raise AssertionError("the encoder built its ladder images")

    monkeypatch.setattr(encoding, "_image_arrays", refuse)
    with pytest.raises(IndexOutOfRange, match="64 modes, not 65"):
        encode_operator(FermionSum.single([(0, True), (0, False)]),
                        EncodingScheme(JW, 65))


def test_small_blocks_keep_the_sums_bits(monkeypatch):
    # Blocks of a few terms: every string's total is added across many
    # blocks, still in term order.
    import hartree.encoding as encoding

    monkeypatch.setattr(encoding, "BLOCK_PRODUCTS", 1 << 5)
    h = build_molecular_hamiltonian(load_fixture("h2_631g_0.7414"))
    for variant in VARIANTS:
        scheme = EncodingScheme(variant, 8)
        assert same_sum_bits(encode_operator(h, scheme),
                             per_factor_encode(h, scheme))


@pytest.mark.parametrize("variant", VARIANTS)
def test_uccsd_excitations_match_per_factor_sums_bit_for_bit(variant):
    scheme = EncodingScheme(variant, 8)
    generators = uccsd_generators(8, [0, 1, 4, 5], [2, 3, 6, 7])
    assert len(generators) == 26  # 8 singles and 18 doubles
    for generator in generators:
        assert same_sum_bits(encode_operator(generator.generator, scheme),
                             per_factor_encode(generator.generator, scheme))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["h2_sto3g_0.7414", "lih_sto3g_1.45"])
def test_generators_encoded_in_one_call_keep_their_own_bits(name, variant):
    ints = load_fixture(name)
    occupied = hf_occupation(ints).occupied()
    virtual = [p for p in range(ints.m) if p not in occupied]
    generators = [g.generator for g in
                  uccsd_generators(ints.m, occupied, virtual)]
    scheme = EncodingScheme(variant, ints.m)
    images = encode_operators(generators, scheme)
    assert len(images) == len(generators)
    for generator, image in zip(generators, images):
        assert same_sum_bits(image, encode_operator(generator, scheme))
        assert same_sum_bits(image, per_factor_encode(generator, scheme))


@settings(max_examples=100, deadline=None)
@given(st.lists(_TERMS, max_size=5), st.sampled_from(VARIANTS))
def test_sums_encoded_in_one_call_keep_their_own_bits(sums, variant):
    # Sums share strings and runs of one arity cross from one sum into the
    # next; an empty sum keeps its place.
    sums = [arity_runs(FermionOperator(tuple(factors), coeff)
                       for factors, coeff in terms) for terms in sums]
    scheme = EncodingScheme(variant, 6)
    images = encode_operators(sums, scheme)
    assert len(images) == len(sums)
    for s, image in zip(sums, images):
        assert same_sum_bits(image, per_factor_encode(s, scheme))


@pytest.mark.parametrize("name,limit", [("lih_sto3g_1.45", 2 * 0.53),
                                        ("h2_ccpvdz_0.75", 2 * 3.2)])
def test_working_memory_stays_bounded(name, limit):
    # Limits: twice the peak of the per-product loop, in MiB (tracemalloc).
    import tracemalloc

    ints = load_fixture(name)
    h = build_molecular_hamiltonian(ints)
    scheme = EncodingScheme(PARITY, ints.m)
    encode_operator(h, scheme)  # the ladder images are cached
    tracemalloc.start()
    try:
        encode_operator(h, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit * 2 ** 20


@pytest.mark.parametrize("bad,error,named", [
    (FermionOperator(((9, True),), 1.0), IndexOutOfRange, "mode 9"),
    (FermionOperator(((0, True), (1, False)), float("inf")), ValueError,
     "non-finite coefficient inf"),
])
def test_the_first_bad_term_in_order_is_named(bad, error, named):
    # The later bad terms share a run with one of the first ones.
    later = [FermionOperator(((8, True), (0, False)), 1.0),
             FermionOperator(((1, True),), float("nan"))]
    s = arity_runs([FermionOperator((), 1.0), bad, *later])
    with pytest.raises(error, match=named):
        encode_operator(s, EncodingScheme(JW, 4))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list_fixtures())
def test_molecular_runs_encode_as_the_object_path_bit_for_bit(name, variant):
    # The object path: one FermionOperator per integral index, read back
    # into runs with complex coefficients, as the encoder once read every
    # term, then encoded (and tapered where the scheme has parity qubits).
    ints = load_fixture(name)
    scheme = EncodingScheme(variant, ints.m)
    image = encode_operator(build_molecular_hamiltonian(ints), scheme)
    oracle = encode_operator(FermionSum(
        (pairs, coeffs.astype(complex)) for pairs, coeffs
        in per_index_molecular_hamiltonian(ints).runs), scheme)
    assert same_sum_bits(image, oracle)
    if variant != JW and not (variant == BK and ints.m & (ints.m - 1)):
        sector = sector_for(ints.n_electrons, ints.n_up)
        assert same_sum_bits(taper_two_qubits(image, scheme, sector),
                             taper_two_qubits(oracle, scheme, sector))


def test_a_negative_mode_is_out_of_range_in_every_constructor():
    with pytest.raises(IndexOutOfRange, match="mode -1 is negative"):
        FermionSum.single([(-1, True), (0, False)])
    with pytest.raises(IndexOutOfRange, match="mode -2 is negative"):
        arity_runs([FermionOperator(((0, True), (-2, False)), 1.0)])
    with pytest.raises(IndexOutOfRange, match="mode -3 is negative"):
        FermionSum([(np.array([[[-3, 1]]]), np.ones(1))])
    with pytest.raises(IndexOutOfRange, match="mode -1 is negative") as caught:
        encode_operator(FermionSum.single([(-1, True), (0, False)]),
                        EncodingScheme(JW, 4))
    assert exit_code_for(caught.value) == 2


@pytest.mark.parametrize("mode, named", [(1 << 63, "does not fit"),
                                         (1 << 64, "does not fit"),
                                         (-(1 << 63) - 1, "is negative")])
def test_a_mode_beyond_int64_is_out_of_range_in_every_constructor(mode, named):
    for make in (lambda: FermionSum.single([(mode, True), (0, False)]),
                 lambda: arity_runs([FermionOperator(((0, True), (mode, False)),
                                                     1.0)])):
        with pytest.raises(IndexOutOfRange, match=f"mode {mode} {named}") as caught:
            make()
        assert exit_code_for(caught.value) == 2
    assert FermionSum.single([((1 << 63) - 1, True)]).max_mode() == (1 << 63) - 1


# ------------------------------------ sort slotting against the dict slotting


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", list_fixtures())
def test_sorted_slots_give_the_dict_slots_bits(name, variant):
    ints = load_fixture(name)
    h = build_molecular_hamiltonian(ints)
    scheme = EncodingScheme(variant, ints.m)
    image = encode_operator(h, scheme)
    [oracle] = dict_slot_encode_operators([h], scheme)
    assert same_sum_bits(image, oracle)
    if variant != JW and not (variant == BK and ints.m & (ints.m - 1)):
        sector = sector_for(ints.n_electrons, ints.n_up)
        assert same_sum_bits(taper_two_qubits(image, scheme, sector),
                             taper_two_qubits(oracle, scheme, sector))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["lih_sto3g_1.45", "h2_ccpvdz_0.75"])
def test_uccsd_sums_keep_the_dict_slots_bits(name, variant):
    # The generators build_uccsd encodes in one call, one sum each.
    ints = load_fixture(name)
    occupied = hf_occupation(ints).occupied()
    virtual = [p for p in range(ints.m) if p not in occupied]
    generators = [g.generator for g in
                  uccsd_generators(ints.m, occupied, virtual)]
    scheme = EncodingScheme(variant, ints.m)
    images = encode_operators(generators, scheme)
    oracles = dict_slot_encode_operators(generators, scheme)
    assert len(images) == len(oracles) == len(generators)
    assert all(map(same_sum_bits, images, oracles))


@pytest.mark.parametrize("variant", VARIANTS)
def test_sums_whose_products_all_cancel_encode_to_nothing(variant):
    t = FermionSum.single([(3, True), (1, True), (2, False), (0, False)],
                          0.25 - 0.5j)
    cancelled = t - t
    scheme = EncodingScheme(variant, 4)
    sums = [cancelled, number_operator(range(4)), FermionSum(), cancelled]
    images = encode_operators(sums, scheme)
    assert [len(image) for image in images] == [0, len(images[1]), 0, 0]
    assert all(image.n_qubits == 4 for image in images)
    assert all(map(same_sum_bits, images,
                   dict_slot_encode_operators(sums, scheme)))
    assert encode_operators([], scheme) == []


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m", [31, 32, 64])
def test_top_modes_of_wide_registers_keep_the_dict_slots_bits(m, variant):
    # The masks' top bits in use, alone and with a second sum.
    top = m - 1
    spec = [((), 0.25), (((top, True), (top - 1, False)), 0.5),
            (((top, True), (top - 1, True), (1, False), (0, False)), 0.125j),
            (((top - 1, True), (top, True), (top, False), (top - 1, False)),
             2.0),
            (((0, True), (top, False)), -0.5)]
    s = arity_runs(FermionOperator(factors, coeff) for factors, coeff in spec)
    scheme = EncodingScheme(variant, m)
    for sums in ([s], [s, s.adjoint()]):
        images = encode_operators(sums, scheme)
        assert all(map(same_sum_bits, images,
                       dict_slot_encode_operators(sums, scheme)))
        assert same_sum_bits(images[0], per_factor_encode(s, scheme))


_KEYS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40)


@settings(max_examples=100, deadline=None)
@given(_KEYS)
def test_slots_are_the_distinct_keys_in_order(keys):
    distinct = sorted(set(keys))
    pairs = np.array(keys, dtype=np.uint64).reshape(-1, 2)
    columns = [pairs[:, 0].copy(), pairs[:, 1].copy()]
    at, slots = _slots(columns)
    assert at.tolist() == [distinct.index(key) for key in keys]
    assert columns == []
    assert list(zip(*(a.tolist() for a in slots))) == distinct


def test_non_finite_coefficient_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        encode_operator(FermionSum.single([(0, True)], float("nan")),
                        EncodingScheme(JW, 2))

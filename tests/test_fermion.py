"""Second-quantised algebra: normal ordering, occupation action, Hamiltonians."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_DIR,
    ListFermionSum,
    apply_to_occupation,
    fermion_matrix,
    jw_mode_matrix,
    per_index_molecular_hamiltonian,
    same_bits,
    same_sum_bits,
    same_terms,
    sums_equal,
)
from hartree.encoding import VARIANTS, EncodingScheme, encode_operators
from hartree.fermion import (
    BLOCKED,
    INTERLEAVED,
    FermionOperator,
    FermionSum,
    IndexOutOfRange,
    InvalidIntegrals,
    MolecularIntegrals,
    OccupationVector,
    arity_runs,
    build_molecular_hamiltonian,
    hf_energy,
    hf_occupation,
    molecular_term_runs,
    normal_order,
    number_operator,
    uccsd_generators,
)
from hartree.io_cli import load_fixture

H2_FCI_ENERGY = -1.137270
H2_HF_ENERGY = -1.116684


def basis_vector(mask: int, m: int) -> np.ndarray:
    v = np.zeros(1 << m, dtype=complex)
    v[mask] = 1.0
    return v


# ---------------------------------------------------------------- oracle sanity


def test_mode_matrix_anticommutation():
    m = 3
    eye = np.eye(1 << m)
    for p in range(m):
        for q in range(m):
            a_p = jw_mode_matrix(p, m, dagger=False)
            a_q = jw_mode_matrix(q, m, dagger=False)
            adag_q = jw_mode_matrix(q, m, dagger=True)
            assert np.allclose(a_p @ a_q + a_q @ a_p, 0.0, atol=1e-14)
            expected = eye if p == q else np.zeros_like(eye)
            assert np.allclose(a_p @ adag_q + adag_q @ a_p, expected, atol=1e-14)


# ------------------------------------------------------------- occupation action


def test_creation_phase_counts_lower_bits():
    op = FermionOperator(((1, True),))
    result = apply_to_occupation(op, OccupationVector.from_string("001"))
    assert result is not None
    phase, out = result
    assert phase == -1
    assert str(out) == "011"


def test_annihilating_empty_mode_returns_none():
    op = FermionOperator(((0, False),))
    assert apply_to_occupation(op, OccupationVector.from_string("000")) is None


def test_number_operator_counts_occupation():
    op = FermionOperator(((1, True), (1, False)))
    result = apply_to_occupation(op, OccupationVector.from_string("011"))
    assert result is not None
    phase, out = result
    assert phase == 1
    assert str(out) == "011"


def test_apply_matches_matrix_action(rng):
    m = 4
    for _ in range(50):
        n_factors = rng.integers(1, 4)
        spec = [(int(rng.integers(0, m)), bool(rng.integers(0, 2)))
                for _ in range(n_factors)]
        op = FermionOperator(tuple(spec))
        matrix = fermion_matrix(arity_runs([op]), m)
        for mask in range(1 << m):
            column = matrix @ basis_vector(mask, m)
            result = apply_to_occupation(op, OccupationVector(m, mask))
            if result is None:
                assert np.allclose(column, 0.0, atol=1e-14)
            else:
                phase, out = result
                assert np.allclose(column, phase * basis_vector(out.mask, m),
                                   atol=1e-14)


# ----------------------------------------------------------------- normal order


def test_normal_order_contracts_same_mode_pair():
    s = FermionSum.single([(0, False), (0, True)])
    expected = arity_runs([
        FermionOperator((), 1.0),
        FermionOperator(((0, True), (0, False)), -1.0),
    ])
    assert sums_equal(normal_order(s), expected)
    assert {t.factors for t in normal_order(s)} == {(), ((0, True), (0, False))}


def test_normal_order_swaps_annihilators():
    s = FermionSum.single([(0, False), (1, False)])
    out = normal_order(s)
    assert len(out) == 1
    assert out.terms[0].factors == ((1, False), (0, False))
    assert out.terms[0].coeff == -1.0


def test_normal_order_nilpotency():
    s = FermionSum.single([(0, True), (0, True)])
    assert len(normal_order(s)) == 0


def test_normal_order_is_idempotent_and_sorted():
    s = arity_runs([
        FermionOperator(((0, False), (2, True), (1, True)), 2.0),
        FermionOperator(((1, True), (0, False)), -0.5j),
    ])
    once = normal_order(s)
    twice = normal_order(once)
    assert [(t.factors, t.coeff) for t in once] == [(t.factors, t.coeff) for t in twice]
    for term in once:
        daggers = [p for p, d in term.factors if d]
        lowers = [p for p, d in term.factors if not d]
        assert term.factors == tuple([(p, True) for p in daggers]
                                     + [(p, False) for p in lowers])
        assert daggers == sorted(daggers, reverse=True)
        assert lowers == sorted(lowers, reverse=True)


@st.composite
def fermion_sums(draw):
    n_terms = draw(st.integers(1, 3))
    terms = []
    for _ in range(n_terms):
        n_factors = draw(st.integers(0, 4))
        factors = tuple(
            (draw(st.integers(0, 3)), draw(st.booleans()))
            for _ in range(n_factors))
        coeff = complex(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
        terms.append(FermionOperator(factors, coeff))
    return arity_runs(terms)


@settings(max_examples=60, deadline=None)
@given(fermion_sums())
def test_normal_order_preserves_operator_matrix(s):
    m = 4
    assert np.allclose(fermion_matrix(s, m), fermion_matrix(normal_order(s), m),
                       atol=1e-12)


# ------------------------------------------------------- Hamiltonian assembly


def _empty_integrals(m: int, **overrides) -> MolecularIntegrals:
    base = dict(m=m, n_electrons=2, n_up=1, core_energy=0.0,
                h_one=np.zeros((m, m)), h_two=np.zeros((m,) * 4))
    base.update(overrides)
    return MolecularIntegrals(**base)


def test_single_diagonal_integral_becomes_number_term():
    eps = 0.25
    h_one = np.zeros((2, 2))
    h_one[0, 0] = eps
    ints = _empty_integrals(2, h_one=h_one)
    h = build_molecular_hamiltonian(ints)
    assert sums_equal(h, arity_runs([FermionOperator(((0, True), (0, False)), eps)]))


def test_non_hermitian_one_body_rejected():
    h_one = np.zeros((2, 2))
    h_one[0, 1] = 0.1
    with pytest.raises(InvalidIntegrals):
        build_molecular_hamiltonian(_empty_integrals(2, h_one=h_one))


def test_two_body_symmetry_violation_rejected():
    h_two = np.zeros((2,) * 4)
    h_two[0, 1, 1, 0] = 0.5
    with pytest.raises(InvalidIntegrals):
        build_molecular_hamiltonian(_empty_integrals(2, h_two=h_two))


def test_spin_mixing_one_body_rejected():
    h_one = np.full((2, 2), 0.3)
    with pytest.raises(InvalidIntegrals):
        build_molecular_hamiltonian(_empty_integrals(2, h_one=h_one))


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidIntegrals):
        _empty_integrals(2, h_one=np.zeros((3, 3)))


def _complex_integrals(m: int, seed: int) -> MolecularIntegrals:
    """Random complex integrals with every required symmetry, no core."""
    rng = np.random.default_rng(seed)
    ns = m // 2
    block = rng.normal(size=(ns, ns)) + 1j * rng.normal(size=(ns, ns))
    h_one = np.zeros((m, m), dtype=complex)
    h_one[:ns, :ns] = h_one[ns:, ns:] = block + block.conj().T
    h_two = rng.normal(size=(m,) * 4) + 1j * rng.normal(size=(m,) * 4)
    h_two = h_two + h_two.transpose(1, 0, 3, 2)
    h_two = h_two + h_two.conj().transpose(3, 2, 1, 0)
    h_two[np.abs(h_two) < 1.0] = 0.0
    return MolecularIntegrals(m, 2, 1, 0.0, h_one, h_two)


@pytest.mark.parametrize("fixture", sorted(
    path.stem for path in FIXTURE_DIR.glob("*.fcidump")) + ["complex"])
def test_molecular_hamiltonian_matches_the_per_index_loop_bit_for_bit(
        fixture):
    ints = (_complex_integrals(4, 7) if fixture == "complex"
            else load_fixture(fixture))
    built = build_molecular_hamiltonian(ints).terms
    oracle = per_index_molecular_hamiltonian(ints).terms
    assert [t.factors for t in built] == [t.factors for t in oracle]
    assert [str(t) for t in built] == [str(t) for t in oracle]
    assert same_bits(np.array([t.coeff for t in built], dtype=complex),
                     np.array([t.coeff for t in oracle], dtype=complex))
    runs = molecular_term_runs(ints)
    oracle_runs = arity_runs(oracle).runs
    assert len(runs) == len(oracle_runs)
    for (pairs, coeffs), (oracle_pairs, oracle_coeffs) in zip(
            runs, oracle_runs):
        assert np.array_equal(pairs, oracle_pairs)
        assert pairs.dtype == oracle_pairs.dtype
        assert same_bits(coeffs.astype(complex),
                         oracle_coeffs.astype(complex))


# Minimal-basis H2 in interleaved labelling (0=bonding up, 1=bonding down,
# 2=antibonding up, 3=antibonding down) contains exactly the number operators,
# the density-density pairs, and two kinds of four-index exchange products.
H2_QUARTIC_PRODUCTS = [
    ((0, True), (1, True), (1, False), (0, False)),
    ((2, True), (3, True), (3, False), (2, False)),
    ((0, True), (3, True), (3, False), (0, False)),
    ((1, True), (2, True), (2, False), (1, False)),
    ((0, True), (2, True), (2, False), (0, False)),
    ((1, True), (3, True), (3, False), (1, False)),
    ((0, True), (1, True), (3, False), (2, False)),
    ((2, True), (3, True), (1, False), (0, False)),
    ((0, True), (3, True), (1, False), (2, False)),
    ((2, True), (1, True), (3, False), (0, False)),
]


def test_h2_hamiltonian_term_structure():
    ints = load_fixture("h2_sto3g_0.7414", ordering=INTERLEAVED)
    h = normal_order(build_molecular_hamiltonian(ints))
    by_rank = {}
    for term in h:
        by_rank.setdefault(len(term.factors), set()).add(term.factors)
    assert set(by_rank) == {0, 2, 4}
    assert by_rank[2] == {((p, True), (p, False)) for p in range(4)}
    expected_quartics = set()
    for factors in H2_QUARTIC_PRODUCTS:
        normalized = normal_order(arity_runs([FermionOperator(factors)]))
        assert len(normalized) == 1
        expected_quartics.add(normalized.terms[0].factors)
    assert by_rank[4] == expected_quartics


def test_h2_ground_state_energy_from_fixture():
    ints = load_fixture("h2_sto3g_0.7414")
    h = build_molecular_hamiltonian(ints)
    matrix = fermion_matrix(h, ints.m)
    assert np.allclose(matrix, matrix.conj().T, atol=1e-10)
    ground = np.linalg.eigvalsh(matrix)[0]
    assert ground == pytest.approx(H2_FCI_ENERGY, abs=1e-6)
    assert ground == pytest.approx(-1.1373, abs=5e-5)


def test_h2_energy_identical_in_both_orderings():
    e = []
    for ordering in (BLOCKED, INTERLEAVED):
        ints = load_fixture("h2_sto3g_0.7414", ordering=ordering)
        matrix = fermion_matrix(build_molecular_hamiltonian(ints), ints.m)
        e.append(np.linalg.eigvalsh(matrix))
    assert np.allclose(e[0], e[1], atol=1e-10)


def test_hf_occupation_and_energy():
    blocked = load_fixture("h2_sto3g_0.7414", ordering=BLOCKED)
    interleaved = load_fixture("h2_sto3g_0.7414", ordering=INTERLEAVED)
    assert str(hf_occupation(blocked)) == "0101"
    assert str(hf_occupation(interleaved)) == "0011"
    assert hf_energy(blocked) == pytest.approx(H2_HF_ENERGY, abs=1e-6)
    assert hf_energy(interleaved) == pytest.approx(H2_HF_ENERGY, abs=1e-6)
    for ints in (blocked, interleaved):
        h = build_molecular_hamiltonian(ints)
        vec = basis_vector(hf_occupation(ints).mask, ints.m)
        energy = (vec.conj() @ fermion_matrix(h, ints.m) @ vec).real
        assert energy == pytest.approx(hf_energy(ints), abs=1e-10)


def test_hamiltonian_commutes_with_number_operators():
    ints = load_fixture("h2_sto3g_0.7414")
    h = fermion_matrix(build_molecular_hamiltonian(ints), ints.m)
    n_total = fermion_matrix(number_operator(range(ints.m)), ints.m)
    n_up = fermion_matrix(number_operator(range(ints.m // 2)), ints.m)
    assert np.max(np.abs(h @ n_total - n_total @ h)) < 1e-10
    assert np.max(np.abs(h @ n_up - n_up @ h)) < 1e-10


# --------------------------------------------------------------- UCC generators


def test_uccsd_h2_generators_match_reference_set():
    gens = uccsd_generators(4, occ=[0, 1], virt=[2, 3], spins=[0, 1, 0, 1])
    assert len(gens) == 3
    expected = [
        FermionSum.single([(2, True), (0, False)]),
        FermionSum.single([(3, True), (1, False)]),
        FermionSum.single([(3, True), (2, True), (1, False), (0, False)]),
    ]
    produced = [g.generator for g in gens]
    for target in expected:
        anti = target - target.adjoint()
        assert any(sums_equal(g, anti) for g in produced)


def test_uccsd_empty_occupied_set():
    assert uccsd_generators(4, occ=[], virt=[2, 3]) == []


def test_uccsd_rejects_overlapping_sets():
    with pytest.raises(ValueError):
        uccsd_generators(4, occ=[0, 1], virt=[1, 2])


def test_uccsd_generators_are_anti_hermitian():
    gens = uccsd_generators(4, occ=[0, 1], virt=[2, 3], spins=[0, 1, 0, 1])
    for g in gens:
        matrix = fermion_matrix(g.generator, 4)
        assert np.max(np.abs(matrix + matrix.conj().T)) < 1e-12


def test_uccsd_count_matches_exhaustive_enumeration():
    # Reduced LiH problem: 8 spin-blocked orbitals, one up and one down electron.
    m, occ, virt = 8, [0, 4], [1, 2, 3, 5, 6, 7]
    gens = uccsd_generators(m, occ=occ, virt=virt, ordering=BLOCKED)

    n_up_matrix = fermion_matrix(number_operator(range(m // 2)), m)
    n_total_matrix = fermion_matrix(number_operator(range(m)), m)

    def conserves(matrix: np.ndarray) -> bool:
        return (np.max(np.abs(matrix @ n_up_matrix - n_up_matrix @ matrix)) < 1e-10
                and np.max(np.abs(matrix @ n_total_matrix
                                  - n_total_matrix @ matrix)) < 1e-10)

    expected = 0
    for o in occ:
        for v in virt:
            matrix = fermion_matrix(FermionSum.single([(v, True), (o, False)]), m)
            if conserves(matrix):
                expected += 1
    for o1, o2 in itertools.combinations(occ, 2):
        for v1, v2 in itertools.combinations(virt, 2):
            matrix = fermion_matrix(
                FermionSum.single([(v2, True), (v1, True), (o2, False), (o1, False)]), m)
            if conserves(matrix):
                expected += 1
    assert expected == 15
    assert len(gens) == expected

    matrices = [fermion_matrix(g.generator, m) for g in gens]
    for i, j in itertools.combinations(range(len(matrices)), 2):
        assert np.max(np.abs(matrices[i] - matrices[j])) > 1e-9


def excitation(label: str) -> FermionSum:
    """T of a generator's label, s:o->v or d:o1,o2->v1,v2."""
    occupied, virtual = (list(map(int, side.split(","))) for side in
                         label[2:].split("->"))
    return FermionSum.single([(v, True) for v in reversed(virtual)]
                             + [(o, False) for o in reversed(occupied)])


@pytest.mark.parametrize("name", ["lih_sto3g_1.45", "h2_ccpvdz_0.75"])
def test_generators_are_one_run_with_the_bits_of_t_minus_its_adjoint(name):
    ints = load_fixture(name)
    occupied = hf_occupation(ints).occupied()
    virtual = [p for p in range(ints.m) if p not in occupied]
    generators = uccsd_generators(ints.m, occupied, virtual)
    assert generators
    built = []
    for g in generators:
        t = excitation(g.label)
        built.append(t - t.adjoint())
        [(pairs, coeffs)] = g.generator.runs
        assert pairs.shape[0] == 2
        assert same_terms(g.generator, built[-1])
    for variant in VARIANTS:
        scheme = EncodingScheme(variant, ints.m)
        assert all(map(same_sum_bits, encode_operators(
            [g.generator for g in generators], scheme),
            encode_operators(built, scheme)))


def test_generator_modes_are_checked_as_single_terms_are():
    with pytest.raises(IndexOutOfRange, match="mode -1 is negative"):
        uccsd_generators(4, occ=[-1], virt=[1], spins=[0, 0, 0, 0])


# ------------------------------ run-backed sums against the operator list

_COEFFS = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
_OPERATORS = st.lists(st.builds(
    FermionOperator,
    st.lists(st.tuples(st.integers(0, 11), st.booleans()),
             max_size=4).map(tuple),
    _COEFFS), max_size=6)


@settings(max_examples=200, deadline=None)
@given(_OPERATORS, _OPERATORS, st.one_of(st.floats(-3.0, 3.0), _COEFFS))
def test_run_algebra_matches_the_operator_list_bit_for_bit(first, second,
                                                           scalar):
    a, b = arity_runs(first), FermionSum()
    for term in second:  # one run per term
        b = b + FermionSum.single(term.factors, term.coeff)
    list_a, list_b = ListFermionSum(first), ListFermionSum(second)
    cases = [
        (a, list_a), (b, list_b), (a + b, list_a + list_b),
        (a - b, list_a - list_b), (scalar * a, scalar * list_a),
        (a.adjoint(), list_a.adjoint()),
        ((b - scalar * a).adjoint(), (list_b - scalar * list_a).adjoint()),
    ]
    for built, oracle in cases:
        assert same_terms(built, oracle)
        assert same_terms(built.terms, oracle)
        assert len(built) == len(oracle)
        assert built.max_mode() == oracle.max_mode()
        assert str(built) == str(oracle)

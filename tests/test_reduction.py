"""Active-space reduction and conserved-parity qubit tapering."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURE_DIR,
    column_block_sector_matrix,
    complex_eigh,
    fermion_matrix,
    per_determinant_1rdm,
    per_determinant_fci_matrix,
    per_term_taper,
    same_bits,
    same_sum_bits,
)
from hartree import reduction
from hartree.encoding import BK, BKTREE, JW, PARITY, EncodingScheme, encode_operator
from hartree.fermion import (
    MolecularIntegrals,
    build_molecular_hamiltonian,
    molecular_term_runs,
)
from hartree.io_cli import list_fixtures, load_fixture
from hartree.io_cli.cli import exit_code_for
from hartree.pauli import PauliSum, TooLarge, to_matrix
from hartree.reduction import (
    ActiveSpace,
    EmptyActiveSpace,
    InconsistentSpace,
    NotSymmetric,
    OneRDM,
    SymmetrySector,
    diagonalize_1rdm,
    fci_sector_ground,
    freeze_reduce,
    reduce_problem,
    rotate_spatial,
    sector_determinants,
    sector_for,
    select_active_space,
    spin_summed_1rdm,
    taper_two_qubits,
)

LIH_FULL_FCI = -7.880982310462
LIH_REDUCED_FCI = -7.880762952570

# Six-orbital correlated 1-RDM for a two-heavy-center hydride (4-decimal print).
LIH_RDM = np.array([
    [1.9999, -0.0005, 0.0006, 0.0000, 0.0000, -0.0010],
    [-0.0005, 1.9598, 0.0668, 0.0000, 0.0000, 0.0084],
    [0.0006, 0.0668, 0.0097, 0.0000, 0.0000, -0.0138],
    [0.0000, 0.0000, 0.0000, 0.0017, 0.0000, 0.0000],
    [0.0000, 0.0000, 0.0000, 0.0000, 0.0017, 0.0000],
    [-0.0010, 0.0084, -0.0138, 0.0000, 0.0000, 0.0273],
])
LIH_NOONS = [1.99992, 1.96206, 0.03454, 0.00171, 0.00171, 0.00005]

# Ten-orbital 1-RDM of the double-zeta two-electron problem (5-decimal print).
CCPVDZ_RDM = np.array([
    [1.96578, 0, -0.01174, 0, 0, 0, -0.00844, 0, 0, 0],
    [0, 0.01052, 0, 0.01032, 0, 0, 0, 0, 0, -0.00174],
    [-0.01174, 0, 0.00553, 0, 0, 0, -0.00179, 0, 0, 0],
    [0, 0.01032, 0, 0.01031, 0, 0, 0, 0, 0, -0.00183],
    [0, 0, 0, 0, 0.00314, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0.00314, 0, 0, 0, 0],
    [-0.00844, 0, -0.00179, 0, 0, 0, 0.00088, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0.00016, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0.00016, 0],
    [0, -0.00174, 0, -0.00183, 0, 0, 0, 0, 0, 0.00038],
])
CCPVDZ_NOONS = sorted([1.96588, 0.00611, 0.02104, 0.00020, 0.00001,
                       0.00314, 0.00314, 0.00016, 0.00016, 0.00016],
                      reverse=True)


# ------------------------------------------------------------- diagonalisation


def test_diagonalize_reference_hydride_rdm():
    noons, rotation = diagonalize_1rdm(OneRDM(LIH_RDM))
    assert np.max(np.abs(noons - np.array(LIH_NOONS))) < 1e-4
    assert np.allclose(rotation.T @ LIH_RDM @ rotation, np.diag(noons), atol=1e-10)


def test_diagonalize_double_zeta_rdm():
    noons, _ = diagonalize_1rdm(CCPVDZ_RDM)
    assert np.max(np.abs(noons - np.array(CCPVDZ_NOONS))) < 1e-5
    assert noons[-1] == pytest.approx(1e-5, abs=5e-6)


def test_diagonalize_sorted_diagonal_is_identity():
    noons, rotation = diagonalize_1rdm(np.diag([1.5, 0.5]))
    assert np.allclose(noons, [1.5, 0.5])
    assert np.allclose(rotation, np.eye(2))


def test_diagonalize_unsorted_diagonal_sorts_descending():
    noons, rotation = diagonalize_1rdm(np.diag([0.5, 1.5]))
    assert np.allclose(noons, [1.5, 0.5])
    assert np.allclose(rotation.T @ np.diag([0.5, 1.5]) @ rotation,
                       np.diag(noons), atol=1e-12)


def test_diagonalize_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric):
        diagonalize_1rdm(np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_diagonalize_reconstruction_properties(rng):
    for n in (2, 4, 7):
        for _ in range(5):
            basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
            rdm = basis @ np.diag(rng.uniform(0, 2, size=n)) @ basis.T
            noons, rotation = diagonalize_1rdm(rdm)
            assert np.all(np.diff(noons) <= 1e-12)
            assert np.max(np.abs(rotation.T @ rotation - np.eye(n))) < 1e-10
            assert np.max(np.abs(rotation @ np.diag(noons) @ rotation.T - rdm)) < 1e-10


def test_one_rdm_validation_rejects_overfilled_orbitals():
    with pytest.raises(ValueError):
        OneRDM(np.diag([2.5, 0.5])).validate()


# ------------------------------------------------------------ space selection


def test_select_space_for_hydride_noons():
    space = select_active_space(LIH_NOONS, lower=1e-4, upper=1.99)
    assert space.frozen_occupied == (0,)
    assert space.removed_virtual == (5,)
    assert space.retained == (1, 2, 3, 4)


def test_select_space_keeps_half_filled_orbitals():
    space = select_active_space([1.0, 1.0, 1.0])
    assert space.frozen_occupied == ()
    assert space.removed_virtual == ()
    assert space.retained == (0, 1, 2)


def test_select_space_for_double_zeta_noons():
    space = select_active_space(CCPVDZ_NOONS, lower=1e-4, upper=1.99)
    assert space.frozen_occupied == ()
    assert space.removed_virtual == (9,)
    assert len(space.retained) == 9  # 18 spin-orbitals survive


def test_select_space_can_empty_out():
    with pytest.raises(EmptyActiveSpace):
        select_active_space([1.9999, 0.00001], lower=1e-4, upper=1.99)


def test_select_space_threshold_validation():
    with pytest.raises(ValueError):
        select_active_space([1.0], lower=0.5, upper=0.4)


# -------------------------------------------------------------- freeze_reduce


def embed_with_decoupled_orbital(ints: MolecularIntegrals) -> MolecularIntegrals:
    """Add one spatial orbital with every integral touching it set to zero."""
    ns = ints.m // 2
    new_ns = ns + 1
    spin_map = {p: p if p < ns else p + 1 for p in range(ints.m)}
    h_one = np.zeros((2 * new_ns,) * 2)
    h_two = np.zeros((2 * new_ns,) * 4)
    for p in range(ints.m):
        for q in range(ints.m):
            h_one[spin_map[p], spin_map[q]] = ints.h_one[p, q]
    for p in range(ints.m):
        for q in range(ints.m):
            for r in range(ints.m):
                for s in range(ints.m):
                    h_two[spin_map[p], spin_map[q], spin_map[r], spin_map[s]] = \
                        ints.h_two[p, q, r, s]
    return MolecularIntegrals(2 * new_ns, ints.n_electrons, ints.n_up,
                              ints.core_energy, h_one, h_two)


def test_freeze_reduce_identity_when_nothing_selected():
    ints = load_fixture("h2_sto3g_0.7414")
    out = freeze_reduce(ints, ActiveSpace((), (), (0, 1)))
    assert out.m == ints.m
    assert out.n_electrons == ints.n_electrons
    assert out.core_energy == pytest.approx(ints.core_energy, abs=1e-14)
    assert np.allclose(out.h_one, ints.h_one, atol=1e-14)
    assert np.allclose(out.h_two, ints.h_two, atol=1e-14)


def test_removing_decoupled_virtual_preserves_spectrum():
    ints = load_fixture("h2_sto3g_0.7414")
    embedded = embed_with_decoupled_orbital(ints)
    reduced = freeze_reduce(embedded, ActiveSpace((), (2,), (0, 1)))
    assert np.allclose(reduced.h_one, ints.h_one, atol=1e-14)
    assert np.allclose(reduced.h_two, ints.h_two, atol=1e-14)
    full = np.linalg.eigvalsh(fermion_matrix(build_molecular_hamiltonian(embedded), 6))
    small = np.linalg.eigvalsh(fermion_matrix(build_molecular_hamiltonian(reduced), 4))
    assert full[0] == pytest.approx(small[0], abs=1e-10)
    for value in small:
        assert np.min(np.abs(full - value)) < 1e-10


def test_freeze_reduce_validates_partition():
    ints = load_fixture("h2_sto3g_0.7414")
    with pytest.raises(InconsistentSpace):
        freeze_reduce(ints, ActiveSpace((0,), (0,), (1,)))
    with pytest.raises(InconsistentSpace):
        freeze_reduce(ints, ActiveSpace((), (), (0,)))
    with pytest.raises(InconsistentSpace):
        freeze_reduce(ints, ActiveSpace((0, 1), (), ()))


def test_rotation_leaves_spectrum_invariant(rng):
    ints = load_fixture("h2_sto3g_0.7414")
    basis, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    rotated = rotate_spatial(ints, basis)
    rotated.validate()
    before = np.linalg.eigvalsh(fermion_matrix(build_molecular_hamiltonian(ints), 4))
    after = np.linalg.eigvalsh(fermion_matrix(build_molecular_hamiltonian(rotated), 4))
    assert np.max(np.abs(before - after)) < 1e-10


# --------------------------------------------------------- sector diagonalise


def test_sector_determinants_counts():
    assert len(sector_determinants(4, 1, 1)) == 4
    assert len(sector_determinants(12, 2, 2)) == 225
    masks = sector_determinants(4, 1, 1)
    assert all(bin(mask).count("1") == 2 for mask in masks)


def test_sector_ground_matches_dense_diagonalization():
    ints = load_fixture("h2_sto3g_0.7414")
    energy, amplitudes, masks = fci_sector_ground(ints)
    dense = np.linalg.eigvalsh(fermion_matrix(build_molecular_hamiltonian(ints), 4))
    assert energy == pytest.approx(dense[0], abs=1e-10)
    assert np.linalg.norm(amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_sector_ground_of_no_terms_is_zero():
    m = 4
    ints = MolecularIntegrals(m, 2, 1, 0.0, np.zeros((m, m)),
                              np.zeros((m,) * 4))
    energy, _, masks = fci_sector_ground(ints)
    assert energy == 0.0
    assert len(masks) == 4


def test_sector_guard_refuses_before_building(monkeypatch):
    # Fourteen spatial orbitals with two electrons of each spin: 91^2
    # determinants, 3.1 GiB for the matrix, eigh's vectors and its workspace.
    m = 28
    ints = MolecularIntegrals(m, 4, 2, 0.0, np.zeros((m, m)),
                              np.zeros((m,) * 4))

    def refuse(*_args):
        raise AssertionError("the sector matrix was built")

    monkeypatch.setattr(reduction, "molecular_term_runs", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(TooLarge, match=f"needs {3 * 8281 ** 2 * 16} bytes"):
        fci_sector_ground(ints)


def sector_input(name: str) -> MolecularIntegrals:
    """A fixture, or with ``-reduced`` its natural-orbital active space
    (rotated basis, frozen-core one-body terms)."""
    if name.endswith("-reduced"):
        return reduce_problem(load_fixture(name.removesuffix("-reduced"))
                              ).integrals
    return load_fixture(name)


@pytest.mark.parametrize("fixture", ["h2_sto3g_0.7414", "h2_631g_0.7414",
                                     "lih_sto3g_1.45", "h2_ccpvdz_0.75",
                                     "lih_sto3g_1.45-reduced"])
def test_sector_loops_match_per_determinant_oracles_bit_for_bit(fixture,
                                                               monkeypatch):
    ints = sector_input(fixture)
    build, matrices = reduction._sector_matrix, []

    def recording_build(*args):
        matrices.append(build(*args))
        return matrices[-1].copy()

    monkeypatch.setattr(reduction, "_sector_matrix", recording_build)
    _, amplitudes, masks = fci_sector_ground(ints)
    monkeypatch.undo()
    matrix, oracle_masks = per_determinant_fci_matrix(ints)
    assert masks == oracle_masks
    # Real integrals build a float64 matrix: the oracle's real part, bit for
    # bit, with every imaginary part zero.
    assert not matrix.imag.any()
    assert same_bits(matrices[0], matrix.real)
    rdm = spin_summed_1rdm(ints, (amplitudes, masks))
    assert same_bits(rdm.rho, per_determinant_1rdm(ints, amplitudes, masks))


@pytest.mark.parametrize("fixture", [*list_fixtures(),
                                     "lih_sto3g_1.45-reduced"])
def test_real_sector_solve_matches_the_complex_eigh(fixture):
    ints = sector_input(fixture)
    energy, amplitudes, masks = fci_sector_ground(ints)
    levels, vectors = complex_eigh(reduction._sector_matrix(ints, masks))
    assert abs(energy - levels[0]) < 1e-12
    assert abs(abs(np.vdot(vectors[:, 0], amplitudes)) - 1.0) < 1e-12
    rho = spin_summed_1rdm(ints, (amplitudes, masks)).rho
    oracle = spin_summed_1rdm(ints, (vectors[:, 0], masks)).rho
    assert np.max(np.abs(rho - oracle)) < 1e-12


# tracemalloc peaks of the per-determinant loop, one term and one
# OccupationVector at a time, that the array form replaced
PER_DETERMINANT_PEAK_MIB = {"lih_sto3g_1.45": 1.69, "h2_ccpvdz_0.75": 3.52}


@pytest.mark.parametrize("fixture", sorted(PER_DETERMINANT_PEAK_MIB))
def test_sector_matrix_holds_no_terms_by_determinants_grid(fixture):
    ints = load_fixture(fixture)
    fci_sector_ground(ints)
    tracemalloc.start()
    try:
        fci_sector_ground(ints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (terms x determinants) grid of images peaked at 9.2 MiB on LiH
    assert peak <= 1.5 * PER_DETERMINANT_PEAK_MIB[fixture] * 2 ** 20


def test_term_leaving_the_sector_is_inconsistent():
    # Valid integrals whose two-body terms move an electron between spins:
    # a+_0 a+_1 a-_2 a-_1 takes determinant 0110 to 0011, two up electrons.
    h_two = np.zeros((4,) * 4)
    for index in [(0, 1, 2, 1), (1, 0, 1, 2), (1, 2, 1, 0), (2, 1, 0, 1)]:
        h_two[index] = 0.1
    ints = MolecularIntegrals(4, 2, 1, 0.0, -np.eye(4), h_two)
    ints.validate()
    with pytest.raises(InconsistentSpace,
                       match=r"term 0\.05 \* a\+_0 a\+_1 a-_2 a-_1 maps "
                             r"determinant 0110 outside the \(1, 1\) sector"
                       ) as caught:
        fci_sector_ground(ints)
    assert exit_code_for(caught.value) == 2


@pytest.mark.parametrize("fixture", ["lih_sto3g_1.45", "h2_ccpvdz_0.75"])
@pytest.mark.parametrize("width", [1, 7])
def test_sector_matrix_column_blocks_give_the_same_bits(fixture, width,
                                                        monkeypatch):
    ints = load_fixture(fixture)
    masks = sector_determinants(ints.m, ints.n_up, ints.n_down)
    default = reduction._sector_matrix(ints, masks)
    n_terms = sum(len(coeffs) for _, coeffs in molecular_term_runs(ints))
    monkeypatch.setattr(reduction, "SECTOR_BLOCK_BYTES", width * 8 * n_terms)
    assert same_bits(reduction._sector_matrix(ints, masks), default)


@pytest.mark.parametrize("block_bytes", [None, 1])
def test_first_term_leaving_the_sector_in_column_order_is_named(block_bytes,
                                                                monkeypatch):
    # Terms 4 and 7, 0.15 * a+_0 a+_1 a-_3 a-_0 and its swap, take
    # determinant 1001 (column 2) out of the (1, 1) sector; terms 9 and 11,
    # 0.05 * a+_2 a+_3 a-_2 a-_0 and its swap, take 0101 (column 0) out.
    h_two = np.zeros((4,) * 4)
    for (p, q, r, s), value in (((3, 2, 0, 2), 0.1), ((1, 0, 0, 3), 0.3)):
        for index in [(p, q, r, s), (q, p, s, r), (s, r, q, p), (r, s, p, q)]:
            h_two[index] = value
    ints = MolecularIntegrals(4, 2, 1, 0.0, -np.eye(4), h_two)
    ints.validate()
    if block_bytes is not None:
        monkeypatch.setattr(reduction, "SECTOR_BLOCK_BYTES", block_bytes)
    with pytest.raises(InconsistentSpace) as caught:
        fci_sector_ground(ints)
    assert str(caught.value) == (
        "term 0.05 * a+_2 a+_3 a-_2 a-_0 maps determinant 0101 outside the "
        "(1, 1) sector")


@pytest.mark.parametrize("fixture", [*list_fixtures(),
                                     "lih_sto3g_1.45-reduced"])
def test_spin_string_build_matches_the_column_blocks_bit_for_bit(fixture):
    ints = sector_input(fixture)
    masks = sector_determinants(ints.m, ints.n_up, ints.n_down)
    assert same_bits(reduction._sector_matrix(ints, masks),
                     column_block_sector_matrix(ints, masks))


def random_spin_blocked_integrals(ns: int, n_up: int, n_down: int,
                                  seed: int, complex_valued: bool,
                                  two_body: str) -> MolecularIntegrals:
    """Valid Hermitian integrals on 2 * ns spin-blocked modes, about half
    their entries zero. The one-body block keeps each spin. The two-body
    terms a+_p a+_q a_r a_s are Coulomb-like (p and s of one spin, q and r
    of one spin), keep each spin's count in any order of their factors
    ("counts"), or are any at all, electrons moved between spins too."""
    rng = np.random.default_rng(seed)
    m = 2 * ns

    def draw(shape):
        values = rng.normal(size=shape) * (rng.random(shape) < 0.5)
        if complex_valued:
            values = values + 1j * rng.normal(size=shape) * (rng.random(shape)
                                                            < 0.5)
        return values

    spin = np.arange(m) >= ns
    h_one = draw((m, m)) * (spin[:, None] == spin[None, :])
    h_one = h_one + h_one.conj().T
    p, q, r, s = (spin.reshape(np.roll((-1, 1, 1, 1), k)).astype(int)
                  for k in range(4))
    # each mask is kept by both index symmetries below
    keep = {"coulomb": (p == s) & (q == r), "counts": p + q == r + s,
            "any": True}[two_body]
    a = draw((m,) * 4) * keep
    a = a + a.transpose(1, 0, 3, 2)
    h_two = a + a.conj().transpose(3, 2, 1, 0)
    return MolecularIntegrals(m, n_up + n_down, n_up, rng.normal(), h_one,
                              h_two)


@st.composite
def sector_problems(draw):
    ns = draw(st.integers(1, 3))
    return (ns, draw(st.integers(0, ns)), draw(st.integers(0, ns)),
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()),
            draw(st.sampled_from(("coulomb", "counts", "any"))))


@settings(max_examples=150, deadline=None)
@given(sector_problems(), st.sampled_from((None, 1, 200)))
def test_spin_strings_build_the_column_blocks_matrix_bit_for_bit(problem,
                                                                 block_bytes):
    # Real and complex integrals, every electron count from empty to a full
    # shell of each spin, two-body terms whose factors take the spins in
    # every order, and terms that move electrons between spins: the same
    # bits, or the same leaking term named.
    ints = random_spin_blocked_integrals(*problem)
    masks = sector_determinants(ints.m, ints.n_up, ints.n_down)
    try:
        oracle = column_block_sector_matrix(ints, masks)
    except InconsistentSpace as leak:
        oracle = leak
    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(reduction, "SECTOR_BLOCK_BYTES", block_bytes)
        if isinstance(oracle, InconsistentSpace):
            with pytest.raises(InconsistentSpace) as caught:
                reduction._sector_matrix(ints, masks)
            assert str(caught.value) == str(oracle)
        else:
            assert same_bits(reduction._sector_matrix(ints, masks), oracle)


def test_sector_masks_hold_at_most_64_spin_orbitals():
    m = 66
    ints = MolecularIntegrals(m, 2, 1, 0.0, np.zeros((m, m)),
                              np.broadcast_to(0.0, (m,) * 4))
    with pytest.raises(InconsistentSpace, match="holds 64 spin-orbitals, not 66"):
        fci_sector_ground(ints)


def test_fixture_rdm_is_physical():
    ints = load_fixture("h2_sto3g_0.7414")
    rdm = spin_summed_1rdm(ints)
    assert np.trace(rdm.rho) == pytest.approx(ints.n_electrons, abs=1e-10)
    rdm.validate()


# --------------------------------------------------- end-to-end orbital chain


def test_hydride_reduction_chain_hits_paper_accuracy():
    ints = load_fixture("lih_sto3g_1.45")
    full_energy, _, _ = fci_sector_ground(ints)
    assert full_energy == pytest.approx(LIH_FULL_FCI, abs=1e-6)

    result = reduce_problem(ints)
    assert result.space.frozen_occupied == (0,)
    assert result.space.removed_virtual == (5,)
    assert result.space.retained == (1, 2, 3, 4)
    assert result.integrals.m == 8
    assert result.integrals.n_electrons == 2
    assert result.integrals.n_up == 1

    reduced_energy, _, _ = fci_sector_ground(result.integrals)
    assert reduced_energy == pytest.approx(LIH_REDUCED_FCI, abs=1e-6)
    gap = reduced_energy - full_energy
    assert gap == pytest.approx(2.194e-4, abs=1e-5)
    assert gap < 2.5e-4  # the advertised two-tenths of a milliHartree


# -------------------------------------------------------------------- tapering


def test_sector_from_electron_counts():
    assert sector_for(2, 1) == SymmetrySector(z_total=1, z_up=-1)
    assert sector_for(3, 2) == SymmetrySector(z_total=-1, z_up=1)
    with pytest.raises(ValueError):
        SymmetrySector(z_total=0, z_up=1)


def test_taper_identity_only():
    h = PauliSum.identity(0.75, n_qubits=4)
    out = taper_two_qubits(h, EncodingScheme(PARITY, 4), sector_for(2, 1))
    assert out.n_qubits == 2
    assert out.coeff("I") == pytest.approx(0.75)


def test_taper_requires_z_only_terms():
    h = PauliSum.from_text({"X3": 1.0}, n_qubits=4)
    with pytest.raises(NotSymmetric):
        taper_two_qubits(h, EncodingScheme(PARITY, 4), sector_for(2, 1))


def test_taper_scheme_validation():
    h = PauliSum.identity(1.0, n_qubits=4)
    with pytest.raises(ValueError):
        taper_two_qubits(h, EncodingScheme(JW, 4), sector_for(2, 1))
    with pytest.raises(ValueError):
        taper_two_qubits(PauliSum.identity(1.0, n_qubits=6),
                         EncodingScheme(BK, 6), sector_for(2, 1))
    with pytest.raises(ValueError):
        taper_two_qubits(PauliSum.identity(1.0, n_qubits=3),
                         EncodingScheme(PARITY, 3), sector_for(2, 1))


def test_minimal_h2_parity_taper_preserves_sector_ground():
    ints = load_fixture("h2_sto3g_0.7414")
    scheme = EncodingScheme(PARITY, 4)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    tapered = taper_two_qubits(h, scheme, sector_for(ints.n_electrons, ints.n_up))
    assert tapered.n_qubits == 2
    ground = np.linalg.eigvalsh(to_matrix(tapered, 2))[0]
    sector_energy, _, _ = fci_sector_ground(ints)
    assert abs(ground - sector_energy) < 1e-10


def test_double_zeta_h2_tapered_qubits_are_3_and_7():
    ints = load_fixture("h2_631g_0.7414")
    scheme = EncodingScheme(BK, 8)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    z_only = [q for q in range(8)
              if all(s.letter(q) in "IZ" for s in h.strings())]
    assert z_only == [3, 7]
    tapered = taper_two_qubits(h, scheme, sector_for(ints.n_electrons, ints.n_up))
    assert tapered.n_qubits == 6
    ground = np.linalg.eigvalsh(to_matrix(tapered, 6))[0]
    sector_energy, _, _ = fci_sector_ground(ints)
    assert abs(ground - sector_energy) < 1e-10


@pytest.mark.parametrize("variant", [PARITY, BK, BKTREE])
def test_taper_matches_projected_spectrum_in_every_sector(variant):
    ints = load_fixture("h2_631g_0.7414")
    scheme = EncodingScheme(variant, 8)
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    dense = to_matrix(h, 8)
    for z_total in (1, -1):
        for z_up in (1, -1):
            sector = SymmetrySector(z_total, z_up)
            tapered = taper_two_qubits(h, scheme, sector)
            got = np.linalg.eigvalsh(to_matrix(tapered, 6))
            want_top = 0 if z_total == 1 else 1
            want_mid = 0 if z_up == 1 else 1
            keep = [i for i in range(1 << 8)
                    if (i >> 7 & 1) == want_top and (i >> 3 & 1) == want_mid]
            reference = np.linalg.eigvalsh(dense[np.ix_(keep, keep)])
            assert np.max(np.abs(got - reference)) < 1e-10


def test_physical_sector_holds_the_global_ground_state():
    names = [f"h2_sto3g_{r:.4f}" for r in
             (0.35, 0.50, 0.65, 0.7414, 0.75, 0.90, 1.10, 1.50)]
    names.append("h2_631g_0.7414")
    for name in names:
        ints = load_fixture(name)
        scheme = EncodingScheme(PARITY, ints.m)
        h = encode_operator(build_molecular_hamiltonian(ints), scheme)
        full_min = np.linalg.eigvalsh(to_matrix(h, ints.m))[0]
        tapered = taper_two_qubits(h, scheme,
                                   sector_for(ints.n_electrons, ints.n_up))
        sector_min = np.linalg.eigvalsh(to_matrix(tapered, ints.m - 2))[0]
        assert abs(full_min - sector_min) < 1e-10


SECTORS = [SymmetrySector(z_total, z_up)
           for z_total in (1, -1) for z_up in (1, -1)]


@pytest.mark.parametrize("variant", [PARITY, BK, BKTREE])
@pytest.mark.parametrize("fixture", sorted(
    path.stem for path in FIXTURE_DIR.glob("*.fcidump"))
    + ["lih_sto3g_1.45-reduced"])
def test_taper_matches_the_per_term_loop_bit_for_bit(fixture, variant):
    ints = sector_input(fixture)
    scheme = EncodingScheme(variant, ints.m)
    if variant == BK and ints.m & (ints.m - 1):
        with pytest.raises(ValueError, match="power-of-two"):
            taper_two_qubits(PauliSum.identity(1.0, n_qubits=ints.m), scheme,
                             SECTORS[0])
        return
    h = encode_operator(build_molecular_hamiltonian(ints), scheme)
    for sector in SECTORS:
        assert same_sum_bits(taper_two_qubits(h, scheme, sector),
                             per_term_taper(h, scheme, sector))


@pytest.mark.parametrize("terms, qubit", [
    ({"Z0": 1.0, "X1 Z2": 0.5, "Y3": 0.25, "X1 X3": 0.125}, 3),
    ({"Z0": 1.0, "X1 Z2": 0.5, "Y3": 0.25}, 1),
])
def test_taper_names_the_first_term_on_a_tapered_qubit(terms, qubit):
    h = PauliSum.from_text(terms, n_qubits=4)
    scheme = EncodingScheme(PARITY, 4)
    with pytest.raises(NotSymmetric) as oracle:
        per_term_taper(h, scheme, sector_for(2, 1))
    with pytest.raises(NotSymmetric, match=f"tapered qubit {qubit} ") as caught:
        taper_two_qubits(h, scheme, sector_for(2, 1))
    assert str(caught.value) == str(oracle.value)


def test_taper_masks_hold_at_most_64_qubits():
    with pytest.raises(ValueError, match="holds 64 qubits, not 66"):
        taper_two_qubits(PauliSum.identity(1.0, n_qubits=66),
                         EncodingScheme(PARITY, 66), sector_for(2, 1))

"""Classification of finite-group representations.

The Frobenius-Schur and averaging oracles here are deliberate re-derivations
as plain Python loops; the library must reproduce them.
"""

import importlib.util
import json
import os
import re
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from threefold import representations
from threefold.errors import (
    InternalInconsistencyError,
    ParseError,
    PreconditionError,
    ReducibleError,
    ValidationError,
)
from threefold.groups import (
    cyclic_group,
    cyclic_rep,
    d4_group,
    d4_rotation_rep,
    q8_group,
    q8_spinor_rep,
    s3_group,
    s3_sign_rep,
    s3_standard_rep,
    standard_fixtures,
    trivial_rep,
)
from threefold.hilbert import MAX_SIZE
from threefold.representations import (
    FiniteGroup,
    FiniteGroupRep,
    InvariantBilinearForm,
    RepKind,
    average_bilinear,
    classify,
    commutant_dimension,
    dump_rep_file,
    fs_indicator_finite,
    intertwiner_dimension,
    invariant_bilinear_form,
    load_rep_file,
    structure_map,
    structure_map_from_form,
)
from threefold.scalars import _norms
from threefold.structures import AntilinearMap
from threefold.su2 import classify_spin, invariant_form_spin, su2_spin_rep

from util import (
    associative_by_loop,
    binary_icosahedral,
    conjugate_rep,
    dicyclic,
    direct_sum,
    dual_rep,
    einsum_average_bilinear,
    elementary_seeds,
    frobenius_group,
    homomorphism_defects,
    is_unitary_within,
    j_square_scalar_defect,
    random_unit_quaternion,
    random_unitary_complex,
    real_form_basis,
    seed_loop_form,
    solution_space_dimension,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_fs(group, matrices):
    total = 0.0
    for g in range(group.order):
        g_squared = int(group.table[g, g])
        total += float(np.trace(matrices[g_squared]).real)
    return total / group.order


def brute_force_average(matrices, seed):
    total = np.zeros_like(np.asarray(seed, dtype=complex))
    for u in matrices:
        total = total + u.T @ np.asarray(seed, dtype=complex) @ u
    return total / len(matrices)


@pytest.fixture(scope="module")
def fixtures():
    return standard_fixtures()


@pytest.fixture
def rng():
    return np.random.default_rng(23)


# ---------------------------------------------------------------------------
# Frobenius-Schur indicator
# ---------------------------------------------------------------------------

def test_z3_nontrivial_character_sums_to_zero():
    omega = np.exp(2j * np.pi / 3.0)
    oracle = (1.0 + omega**2 + omega**4) / 3.0
    assert abs(oracle) < 1e-14
    rep = cyclic_rep(cyclic_group(3), 1)
    assert abs(fs_indicator_finite(rep) - oracle.real) < 1e-12


def test_q8_spinor_indicator_is_minus_one():
    group = q8_group()
    rep = q8_spinor_rep(group)
    oracle = brute_force_fs(group, rep.matrices)
    assert oracle == pytest.approx(-1.0, abs=1e-12)
    assert fs_indicator_finite(rep) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name,rep_name,expected",
    [
        ("z3", "chi1", 0.0),
        ("z5", "chi1", 0.0),
        ("s3", "standard", 1.0),
        ("s3", "sign", 1.0),
        ("q8", "spinor", -1.0),
        ("d4", "rotation", 1.0),
    ],
)
def test_indicator_matches_brute_force(fixtures, name, rep_name, expected):
    group, reps = fixtures[name]
    rep = dict(reps)[rep_name]
    oracle = brute_force_fs(group, rep.matrices)
    assert oracle == pytest.approx(expected, abs=1e-10)
    assert fs_indicator_finite(rep) == pytest.approx(oracle, abs=1e-12)


def test_indicator_is_additive_over_direct_sums(fixtures):
    _, s3_reps = fixtures["s3"]
    _, q8_reps = fixtures["q8"]
    standard = dict(s3_reps)["standard"]
    sign = dict(s3_reps)["sign"]
    both = direct_sum(standard, sign)
    assert fs_indicator_finite(both) == pytest.approx(
        fs_indicator_finite(standard) + fs_indicator_finite(sign), abs=1e-12
    )


def test_indicator_is_conjugation_invariant(fixtures, rng):
    _, reps = fixtures["q8"]
    rep = dict(reps)["spinor"]
    u = random_unitary_complex(2, rng)
    rotated = conjugate_rep(rep, u)
    assert fs_indicator_finite(rotated) == pytest.approx(
        fs_indicator_finite(rep), abs=1e-10
    )


# ---------------------------------------------------------------------------
# commutants and intertwiners
# ---------------------------------------------------------------------------

def test_irreducibles_have_one_dimensional_commutant(fixtures):
    for name, (_, reps) in fixtures.items():
        for rep_name, rep in reps:
            assert commutant_dimension(rep) == 1, (name, rep_name)


def test_direct_sum_commutants(fixtures):
    _, reps = fixtures["s3"]
    standard = dict(reps)["standard"]
    sign = dict(reps)["sign"]
    assert commutant_dimension(direct_sum(standard, sign)) == 2
    assert commutant_dimension(direct_sum(standard, standard)) == 4


def test_dual_intertwiner_dimension(fixtures):
    z3 = dict(fixtures["z3"][1])
    q8 = dict(fixtures["q8"][1])
    assert intertwiner_dimension(z3["chi1"], dual_rep(z3["chi1"])) == 0
    assert intertwiner_dimension(q8["spinor"], dual_rep(q8["spinor"])) == 1


def _assert_character_dimensions_match_the_solution_space(reps):
    for a in reps:
        assert commutant_dimension(a) == solution_space_dimension(a, a)
        for b in reps + [dual_rep(a)]:
            assert intertwiner_dimension(a, b) == solution_space_dimension(a, b)


@pytest.mark.parametrize("name", ["z3", "z5", "s3", "q8", "d4"])
def test_character_dimensions_match_the_solution_space_on_fixtures(fixtures, name):
    _assert_character_dimensions_match_the_solution_space([rep for _, rep in fixtures[name][1]])


def test_character_dimensions_match_the_solution_space_on_direct_sums(fixtures):
    reps = dict(fixtures["s3"][1])
    standard, sign = reps["standard"], reps["sign"]
    sums = [direct_sum(standard, sign), direct_sum(standard, standard)]
    assert [solution_space_dimension(r, r) for r in sums] == [2, 4]
    _assert_character_dimensions_match_the_solution_space(sums + [standard, sign])


@pytest.mark.parametrize("name", ["s3", "q8", "d4"])
def test_character_dimensions_match_the_solution_space_after_haar_conjugation(
    fixtures, rng, name
):
    group, reps = fixtures[name]
    rotated = [conjugate_rep(rep, random_unitary_complex(rep.dim, rng)) for _, rep in reps]
    summed = direct_sum(rotated[-1], rotated[-1])
    summed = conjugate_rep(summed, random_unitary_complex(summed.dim, rng))
    _assert_character_dimensions_match_the_solution_space(rotated + [summed])


class _DuckRep:
    """Only the attributes the character sums read, with no validation."""

    def __init__(self, group, characters):
        self.group = group
        self.characters = np.asarray(characters, dtype=complex)


def test_non_integer_character_pairing_is_an_inconsistency():
    z2 = cyclic_group(2)
    # chi = (1, 0.5) is no character: <chi, chi> = 0.625
    duck = _DuckRep(z2, [1.0, 0.5])
    with pytest.raises(InternalInconsistencyError):
        commutant_dimension(duck)
    with pytest.raises(InternalInconsistencyError):
        intertwiner_dimension(duck, trivial_rep(z2))


def test_non_integer_character_pairing_carries_its_defect_and_bound():
    # <chi, chi> = 0.625 for chi = (1, 0.5) on Z2: 0.375 from the nearest integer
    duck = _DuckRep(cyclic_group(2), [1.0, 0.5])
    with pytest.raises(InternalInconsistencyError) as err:
        commutant_dimension(duck)
    assert err.value.defect == pytest.approx(0.375)
    assert err.value.tol == representations._CHARACTER_TOL


def test_character_pairing_at_its_bound():
    # (1/1) conj(1) 1e-8 is 1e-8 from 0: accepted at the bound, refused one ulp past it
    assert representations._character_pairing(np.array([1.0]), np.array([1e-8])) == 0
    past = np.nextafter(1e-8, 1)
    with pytest.raises(InternalInconsistencyError, match="not an integer") as err:
        representations._character_pairing(np.array([1.0]), np.array([past]))
    assert (err.value.defect, err.value.tol) == (past, 1e-8)


# ---------------------------------------------------------------------------
# the binary icosahedral group 2I and spin j restricted to it
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_i():
    return binary_icosahedral()


def _restricted_spin(two_i, j):
    group, elements = two_i
    return FiniteGroupRep(group, np.array(su2_spin_rep(j, elements)))


def test_binary_icosahedral_group_has_order_120(two_i):
    group, elements = two_i
    assert group.order == len(elements) == 120


@pytest.mark.parametrize("twice_j", range(6))
def test_spin_restricted_to_2i_alternates_real_and_quaternionic(two_i, twice_j):
    rep = _restricted_spin(two_i, twice_j / 2)
    assert commutant_dimension(rep) == solution_space_dimension(rep, rep) == 1
    expected = RepKind.REAL if twice_j % 2 == 0 else RepKind.QUATERNIONIC
    assert classify(rep) is expected


@pytest.mark.parametrize("j,commutant", [(3, 2), (6, 4)])
def test_spin_restricted_to_2i_is_reducible_at_j_3_and_6(two_i, j, commutant):
    rep = _restricted_spin(two_i, j)
    assert commutant_dimension(rep) == solution_space_dimension(rep, rep) == commutant
    with pytest.raises(ReducibleError) as err:
        classify(rep)
    assert err.value.commutant == commutant


# ---------------------------------------------------------------------------
# invariant bilinear forms and structure maps
# ---------------------------------------------------------------------------

def test_averaging_matches_brute_force(fixtures, rng):
    _, reps = fixtures["q8"]
    rep = dict(reps)["spinor"]
    seed = rng.standard_normal((2, 2))
    assert np.allclose(
        average_bilinear(rep, seed), brute_force_average(rep.matrices, seed), atol=1e-13
    )


def test_averaging_matches_the_einsum_oracle(fixtures, rng):
    # every fixture rep, Dic_15, and d = 8 sums of Dic_15 irreps in a random basis
    reps = [rep for _, named in fixtures.values() for _, rep in named]
    irreps = dicyclic(15)[1]
    reps += irreps
    for _ in range(3):
        picked = [irreps[k] for k in rng.choice(len(irreps), size=4)]
        summed = direct_sum(direct_sum(picked[0], picked[1]), direct_sum(picked[2], picked[3]))
        reps.append(conjugate_rep(summed, random_unitary_complex(8, rng)))
    assert {rep.dim for rep in reps} >= {1, 2, 8}
    for rep in reps:
        d = rep.dim
        for seed in (np.eye(d)[::-1], rng.standard_normal((d, d)),
                     rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))):
            got = average_bilinear(rep, seed)
            want = einsum_average_bilinear(rep, seed)
            assert got.shape == (d, d)
            assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(seed)


def test_complex_characters_admit_no_invariant_form(fixtures):
    for name in ("z3", "z5"):
        rep = dict(fixtures[name][1])["chi1"]
        assert invariant_bilinear_form(rep) is None


# (p, q) of the Frobenius groups Z_p x| Z_q: complex irreps of d = 7 and 15,
# real ones of d = 4, 6 and 22
FROBENIUS = ((29, 7), (31, 15), (13, 4), (13, 6), (23, 22))


@pytest.fixture(scope="module")
def frobenius():
    return {pq: frobenius_group(*pq) for pq in FROBENIUS}


@pytest.fixture(scope="module")
def seeded_dicyclic():
    """Every rep of the Dic_15 and Dic_31 files of benchmarks/dicyclic.py at seed 1, built in memory."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "dicyclic.py"
    spec = importlib.util.spec_from_file_location("dicyclic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reps = []
    for n in (15, 31):
        table, named, _ = module.build(n, np.random.default_rng([1, n]))
        group = FiniteGroup(table)
        reps += [FiniteGroupRep(group, matrices) for _, matrices in named]
    return reps


def test_frobenius_irreps_are_complex_exactly_for_odd_q(frobenius):
    for (p, q), (group, reps) in frobenius.items():
        assert group.order == p * q and len(reps) == (p - 1) // q
        for rep in reps:
            assert rep.dim == q and commutant_dimension(rep) == 1
            kind = RepKind.COMPLEX if q % 2 else RepKind.REAL
            assert classify(rep) is kind
            assert abs(fs_indicator_finite(rep) - kind.value) <= 1e-12


@pytest.mark.parametrize("budget", [1, 2**7, representations._BLOCK_ENTRIES])
def test_block_averages_match_the_einsum_oracle_on_every_seed(fixtures, seeded_dicyclic, monkeypatch, budget):
    # every norm read as 0 keeps no seed, so every block is formed.  A budget
    # of 1 puts one seed in each block; 2^7 splits each row of the d = 8 sum
    # of Dic_n irreps into four blocks of two seeds and keeps the d = 2 reps
    # in one block; 2^14 forms every rep here in one block
    reps = [rep for _, named in fixtures.values() for _, rep in named] + seeded_dicyclic
    assert {rep.dim for rep in reps} == {1, 2, 8}
    blocks = []

    def recording_norms(averages, item_ndim):
        blocks.append(averages.copy())
        return np.zeros(averages.shape[:2])

    monkeypatch.setattr(representations, "_BLOCK_ENTRIES", budget)
    monkeypatch.setattr(representations, "_norms", recording_norms)
    for rep in reps:
        blocks.clear()
        d = rep.dim
        assert invariant_bilinear_form(rep) is None
        assert max(block.size for block in blocks) <= max(budget, d * d)
        got = np.concatenate([block.reshape(-1, d, d) for block in blocks])
        want = np.array([einsum_average_bilinear(rep, seed) for seed in elementary_seeds(d)])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_form_is_the_seed_loops_first_survivor(fixtures, seeded_dicyclic, frobenius, monkeypatch):
    # the seed the blocks keep is the loop's; its form matches the loop's
    # average to 2^-50 per entry (4.4e-16 was the largest seen, on Dic_31)
    reps = [rep for _, named in fixtures.values() for _, rep in named] + seeded_dicyclic
    reps += [rep for _, irreps in frobenius.values() for rep in irreps]
    kept = []

    def recording_norms(x, item_ndim=None):
        norms = _norms(x, item_ndim)
        if np.ndim(x) == 4:  # a block of seed averages, not the symmetry test
            kept.append(norms.ravel())
        return norms

    monkeypatch.setattr(representations, "_norms", recording_norms)
    nones = 0
    for rep in reps:
        kept.clear()
        form, oracle = invariant_bilinear_form(rep), seed_loop_form(rep)
        assert (form is None) == (oracle is None)
        if form is None:
            nones += 1
            continue
        index, average = oracle
        assert sum(map(len, kept[:-1])) + np.argmax(kept[-1] > representations._FORM_TOL) == index
        assert np.abs(form.matrix - average).max() <= 2.0**-50
    assert nones == 1 + 1 + 2 + 2 + 4 + 2  # z3, z5, Dic_15, Dic_31, Z_29 x| Z_7 and Z_31 x| Z_15


def test_form_search_peaks_at_a_stated_multiple_of_its_block_budget():
    budget = 16 * representations._BLOCK_ENTRIES  # bytes
    # the trivial group's identity rep at d = MAX_SIZE keeps its first seed,
    # whose block is that seed's d^2 entries, 16 budgets.  The peak was 8.0
    # d^2 entries (128 budgets), most of it the kept form and the
    # temporaries of its symmetry test; the seed loop peaked at 8.5 d^2
    identity = FiniteGroupRep(FiniteGroup([[0]]), np.eye(MAX_SIZE)[None])
    # 64 copies of a complex character of Z_3 keep no seed and form all 4,096
    # in blocks of 4; the peak was 2.0 budgets
    z3 = cyclic_group(3)
    copies = FiniteGroupRep(z3, cyclic_rep(z3, 1).matrices[:, :1, :1] * np.eye(64))
    for rep, keeps, bound in ((identity, True, 132 * budget), (copies, False, 3 * budget)):
        tracemalloc.start()
        try:
            form = invariant_bilinear_form(rep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (form is not None) == keeps
        assert peak <= bound


def test_q8_form_is_the_symplectic_one(fixtures):
    rep = dict(fixtures["q8"][1])["spinor"]
    form = invariant_bilinear_form(rep)
    assert form is not None and not form.symmetric
    target = np.array([[0.0, 1.0], [-1.0, 0.0]])
    ratio = form.matrix[0, 1]
    assert abs(ratio) > 1e-12
    assert np.allclose(form.matrix, ratio * target, atol=1e-12)


def test_q8_symmetric_seeds_all_die(fixtures):
    rep = dict(fixtures["q8"][1])["spinor"]
    eye = np.eye(2)
    sym_seeds = [
        np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i]) for i in range(2) for j in range(i, 2)
    ]
    for seed in sym_seeds:
        assert np.linalg.norm(average_bilinear(rep, seed)) < 1e-10


def test_s3_standard_form_is_symmetric(fixtures):
    rep = dict(fixtures["s3"][1])["standard"]
    form = invariant_bilinear_form(rep)
    assert form is not None and form.symmetric
    anti_seed = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.linalg.norm(average_bilinear(rep, anti_seed)) < 1e-10


def test_structure_map_signs(fixtures):
    q8 = dict(fixtures["q8"][1])["spinor"]
    form = invariant_bilinear_form(q8)
    j, sign = structure_map(q8, form)
    assert sign == -1
    assert np.allclose(j.square(), -np.eye(2), atol=1e-9)
    assert is_unitary_within(j, 1e-9)
    assert max(j.commutation_defect(u) for u in q8.matrices) < 1e-9

    s3 = dict(fixtures["s3"][1])["standard"]
    form = invariant_bilinear_form(s3)
    j, sign = structure_map(s3, form)
    assert sign == +1
    assert np.allclose(j.square(), np.eye(2), atol=1e-9)


def test_real_structure_fixed_points_give_a_real_form(fixtures):
    rep = dict(fixtures["s3"][1])["standard"]
    j, sign = structure_map(rep, invariant_bilinear_form(rep))
    assert sign == +1
    basis = real_form_basis(j)
    assert basis.shape[1] == 2
    # the fixed vectors stay fixed and the rep acts real-linearly on them
    for col in basis.T:
        assert np.allclose(j(col), col, atol=1e-9)


def _structure_map_corpus(fixtures, rng):
    """(unitaries, form matrix) pairs: fixture and Dic_15 reps with a form, and su2 samples."""
    reps = [rep for _, named in fixtures.values() for _, rep in named]
    reps += [conjugate_rep(rep, random_unitary_complex(2, rng)) for rep in dicyclic(15)[1]]
    corpus = []
    for rep in reps:
        form = invariant_bilinear_form(rep)
        if form is not None:
            corpus.append((rep.matrices, form.matrix))
    for twice_j in range(1, 8):
        samples = [random_unit_quaternion(rng) for _ in range(8)]
        j = twice_j / 2
        corpus.append((np.array(su2_spin_rep(j, samples)), invariant_form_spin(j)))
    return corpus


def test_stacked_commutation_defect_matches_the_per_matrix_loop(fixtures, rng):
    for unitaries, form_matrix in _structure_map_corpus(fixtures, rng):
        j, _ = structure_map_from_form(form_matrix, unitaries)
        # the structure map commutes (rounding-level defects); a random antiunitary does not
        for jmap in (j, AntilinearMap(random_unitary_complex(j.n, rng))):
            stacked = jmap.commutation_defect(unitaries)
            loop = np.array([jmap.commutation_defect(u) for u in unitaries])
            assert stacked.shape == (len(unitaries),)
            assert np.array_equal(stacked, loop)
        assert isinstance(j.commutation_defect(unitaries[0]), float)


def test_structure_map_commutation_failure_carries_the_worst_defect(fixtures, rng):
    q8 = dict(fixtures["q8"][1])["spinor"]
    form = invariant_bilinear_form(q8)
    j, _ = structure_map(q8, form)
    # a generic unitary has a phase, and J e^(i t) = e^(-i t) J
    unitaries = np.concatenate([q8.matrices, random_unitary_complex(2, rng)[None]])
    with pytest.raises(InternalInconsistencyError, match="does not commute") as err:
        structure_map_from_form(form.matrix, unitaries)
    worst = max(j.commutation_defect(u) for u in unitaries)
    assert err.value.defect == pytest.approx(worst, rel=1e-12)
    assert err.value.tol == 1e-9 * np.sqrt(2.0)
    assert err.value.defect > err.value.tol


def test_structure_map_from_a_nan_form_is_refused_by_its_first_check():
    with pytest.raises(InternalInconsistencyError, match="J\\^2 is not real") as err:
        structure_map_from_form(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)[None])
    # c is NaN and max(1, NaN) is 1: the bound stays finite
    assert np.isnan(err.value.defect) and err.value.tol == 1e-9


def test_commutation_at_its_bound_is_accepted_and_past_it_refused(fixtures, monkeypatch):
    # J misses only rho(5) of the Q8 spinor, by a planted defect, against 1e-9 sqrt(2)
    q8 = dict(fixtures["q8"][1])["spinor"]
    bound = 1e-9 * np.sqrt(2.0)

    def plant(defect):
        monkeypatch.setattr(AntilinearMap, "commutation_defect",
                            lambda self, t: np.where(np.arange(len(t)) == 5, defect, 0.0))

    plant(bound)
    assert classify(q8) is RepKind.QUATERNIONIC
    past = np.nextafter(bound, 1.0)
    plant(past)
    with pytest.raises(InternalInconsistencyError, match="does not commute with operator 5 ") as err:
        classify(q8)
    assert (err.value.defect, err.value.tol) == (past, bound)


def test_structure_map_refuses_a_nan_operator():
    # g = 1 gives J = complex conjugation, which commutes with every real operator
    operators = np.array([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]])
    with pytest.raises(InternalInconsistencyError, match="does not commute") as err:
        structure_map_from_form(np.eye(2), operators)
    assert np.isnan(err.value.defect) and err.value.tol == 1e-9 * np.sqrt(2.0)


def test_structure_map_from_a_form_that_is_no_invariant_refuses_it():
    eye = np.eye(2)[None]
    # J^2 = diag(1, 4) is no scalar: c = 5/2, and J = diag(1, 2) / sqrt(5/2)
    # has J* J - 1 = diag(-0.6, 0.6)
    with pytest.raises(InternalInconsistencyError, match="not antiunitary") as err:
        structure_map_from_form(np.diag([1.0, 2.0]), eye)
    assert err.value.defect == pytest.approx(0.6 * np.sqrt(2.0), rel=1e-12)
    assert err.value.tol == 1e-9 * np.sqrt(2.0)
    # J^2 = 0
    with pytest.raises(InternalInconsistencyError, match="J_raw\\^2 = 0"):
        structure_map_from_form(np.array([[0.0, 1.0], [0.0, 0.0]]), eye)
    # J^2 = 1 from a J that is not antiunitary
    with pytest.raises(InternalInconsistencyError, match="not antiunitary"):
        structure_map_from_form(np.array([[1.0, 0.0], [1.0, -1.0]]), eye)
    # J = (1 + d X) / 10 with X = [[0, 1], [-1, 0]] passes the scalar test on
    # J^2 = (1 - d^2 + 2 d X) / 100 and, after rescaling by 1/sqrt(|c|), the
    # antiunitarity test (J* J - 1 is of order d^2), but its square misses 1
    # by 2 sqrt(2) d / (1 - d^2)
    d = 1e-8
    x = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(InternalInconsistencyError, match="square is not") as err:
        structure_map_from_form(0.1 * (np.eye(2) - d * x), eye)
    assert err.value.defect == pytest.approx(2.0 * np.sqrt(2.0) * d, rel=1e-6)
    assert err.value.tol == 1e-9 * 2


# (form, error class, message, defect, tol): forms whose singular values
# spread by 1e9 or more, each refused by structure_map_from_form
DEGENERATE_FORMS = [
    # J_raw^2 = diag(1, 0), c = 1/2: J = diag(sqrt 2, 0) has J* J - 1 = diag(1, -1),
    # defect sqrt(2) against hilbert's 1e-9 sqrt(2)
    (np.diag([1.0, 0.0]), InternalInconsistencyError, "not antiunitary", np.sqrt(2.0), 1e-9 * np.sqrt(2.0)),
    (np.diag([1.0, 1e-9]), InternalInconsistencyError, "not antiunitary", np.sqrt(2.0),
     1e-9 * np.sqrt(2.0)),
    # J_raw^2 = 0 exactly: no bound is involved
    (np.array([[0.0, 1.0], [0.0, 0.0]]), InternalInconsistencyError, "J_raw\\^2 = 0", None, None),
    # J_raw^2 = 1, but J^* J - 1 = diag(1e9 - 1, 1e-9 - 1) against hilbert's 1e-9 sqrt(2)
    (np.array([[0.0, 10**4.5], [10**-4.5, 0.0]]), InternalInconsistencyError, "not antiunitary",
     np.hypot(1e9 - 1.0, 1.0 - 1e-9), 1e-9 * np.sqrt(2.0)),
]


def test_identity_refusal_carries_its_defect_and_bound():
    with pytest.raises(ValidationError, match="identity") as err:
        FiniteGroupRep(FiniteGroup(np.array([[0]])), [[[2.0]]])
    assert (err.value.defect, err.value.tol) == (1.0, representations._HOM_TOL)


def test_identity_and_homomorphism_defects_at_the_bound_are_accepted_and_past_it_refused():
    # rho(e) = 1 + t i on Z_1: the identity defect is t and rho(e)^2 - rho(e) is
    # t i exactly; the modulus rounds to 1 and the Gram defect to 0
    group, bound = FiniteGroup(np.array([[0]])), representations._HOM_TOL
    FiniteGroupRep(group, [[[1.0 + 1j * bound]]])
    past = np.nextafter(bound, 1.0)
    with pytest.raises(ValidationError, match="identity") as err:
        FiniteGroupRep(group, [[[1.0 + 1j * past]]])
    assert (err.value.defect, err.value.tol) == (past, bound)


def test_indicator_at_its_bound_is_complex_and_past_it_refused():
    bound = representations._INDICATOR_TOL
    assert representations._two_route_kind(bound, None, None) == (RepKind.COMPLEX, None)
    past = np.nextafter(bound, 1.0)
    with pytest.raises(InternalInconsistencyError, match="Frobenius-Schur") as err:
        representations._two_route_kind(past, None, None)
    assert (err.value.defect, err.value.tol) == (past, bound)


def test_symmetry_refusal_carries_the_smaller_defect_and_its_bound():
    # |g - g^T|_F = sqrt(2) and |g + g^T|_F = sqrt(10), against 1e-8 |g|_F = 1e-8 sqrt(3)
    with pytest.raises(InternalInconsistencyError, match="neither") as err:
        InvariantBilinearForm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert err.value.defect == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert err.value.tol == pytest.approx(1e-8 * np.sqrt(3.0), rel=1e-15)
    # the zero form is both, within a bound of 0
    with pytest.raises(InternalInconsistencyError, match="neither") as err:
        InvariantBilinearForm(np.zeros((2, 2)))
    assert (err.value.defect, err.value.tol) == (0.0, 0.0)


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (0, 0)], ids=str)
def test_a_form_that_is_no_nonempty_square_matrix_is_refused(shape):
    # refused before _is_symmetric, whose arithmetic and InternalInconsistencyError assume such a matrix
    with pytest.raises(ValidationError, match=re.escape(f"nonempty square matrix, got shape {shape}")):
        InvariantBilinearForm(np.ones(shape))


def test_non_real_structure_square_refusal_carries_its_defect_and_bound(monkeypatch):
    # J_raw^2 scaled by 1 + 1e-3 i is still a scalar, c = 1 + 1e-3 i, but not a real one
    square = AntilinearMap.square
    monkeypatch.setattr(AntilinearMap, "square", lambda self: (1.0 + 1e-3j) * square(self))
    with pytest.raises(InternalInconsistencyError, match="not real") as err:
        structure_map_from_form(np.eye(2), np.eye(2)[None])
    assert err.value.defect == pytest.approx(1e-3, rel=1e-12)
    assert err.value.tol == pytest.approx(1e-9 * abs(1.0 + 1e-3j), rel=1e-15)


def test_forms_that_cannot_classify_are_refused():
    with pytest.raises(InternalInconsistencyError, match="neither"):
        InvariantBilinearForm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    for form, error, message, defect, tol in DEGENERATE_FORMS:
        with pytest.raises(error, match=message) as err:
            structure_map_from_form(form, np.eye(2)[None])
        assert type(err.value) is error
        if defect is None:
            assert (err.value.defect, err.value.tol) == (None, None)
        else:
            assert err.value.defect == pytest.approx(defect, rel=1e-12)
            assert err.value.tol == pytest.approx(tol, rel=1e-15)


def _seeded_forms(rng):
    """Symmetric, antisymmetric and general forms at d = 1 to 6, some with spread singular values.

    Each is U diag(s) U^T, U (s_k [[0, 1], [-1, 0]] blocks) U^T or U diag(s) V
    for Haar-random U and V, with s spread by up to the given factor, then
    perturbed by a relative eps and scaled by a random complex factor.
    """
    for d in (1, 2, 3, 4, 6):
        for shape in ("symmetric", "antisymmetric", "general"):
            if shape == "antisymmetric" and d % 2:
                continue
            for spread in (1.0, 1e3, 1e12):
                for eps in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-5):
                    u = random_unitary_complex(d, rng)
                    s = spread ** -rng.random(d)
                    if shape == "general":
                        g = u @ np.diag(s) @ random_unitary_complex(d, rng)
                    elif shape == "symmetric":
                        g = u @ np.diag(s) @ u.T
                    else:
                        g = u @ np.kron(np.diag(s[: d // 2]), [[0.0, 1.0], [-1.0, 0.0]]) @ u.T
                    noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    g = g + eps * np.linalg.norm(g) * noise / np.linalg.norm(noise)
                    yield g * 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.random())


def test_every_accepted_form_has_a_scalar_j_raw_square(fixtures, rng):
    # structure_map_from_form checks J^2 = +-1 and no longer J_raw^2 = c 1,
    # which the first implies at the bound 1e-9 max(1, |c|) d
    cases = [(g, np.eye(len(g))[None]) for g in _seeded_forms(np.random.default_rng(34))]
    cases += [(form, unitaries) for unitaries, form in _structure_map_corpus(fixtures, rng)]
    accepted = nonzero = 0
    for form, operators in cases:
        try:
            structure_map_from_form(form, operators)
        except InternalInconsistencyError:
            continue
        defect, c = j_square_scalar_defect(form)
        assert defect <= 1e-9 * max(1.0, abs(c)) * len(form)
        accepted += 1
        nonzero += defect > 0.0
    # not vacuous: of the 234 seeded forms, 72 were accepted (36 with a
    # defect above 0, the rest at d = 1 or exact) and 162 refused
    assert nonzero >= 30 and len(cases) - accepted >= 150


def test_each_form_is_tested_for_symmetry_once_and_each_structure_map_squared_once(
        fixtures, monkeypatch):
    calls = {"symmetry": 0, "square": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(representations, "_is_symmetric",
                        counted("symmetry", representations._is_symmetric))
    monkeypatch.setattr(AntilinearMap, "square", counted("square", AntilinearMap.square))
    for _, named in fixtures.values():
        for _, rep in named:
            calls.update(symmetry=0, square=0)
            forms = int(classify(rep) is not RepKind.COMPLEX)
            assert calls == {"symmetry": forms, "square": forms}
    for twice_j in range(12):
        calls.update(symmetry=0, square=0)
        classify_spin(twice_j / 2)
        assert calls == {"symmetry": 1, "square": 1}


def test_structure_map_commutes_after_unitary_rotation(fixtures, rng):
    # the whole J pipeline is basis independent
    rep = dict(fixtures["q8"][1])["spinor"]
    rotated = conjugate_rep(rep, random_unitary_complex(2, rng))
    form = invariant_bilinear_form(rotated)
    j, sign = structure_map(rotated, form)
    assert sign == -1
    assert max(j.commutation_defect(u) for u in rotated.matrices) < 1e-9


# ---------------------------------------------------------------------------
# classify: both routes, and the error paths
# ---------------------------------------------------------------------------

EXPECTED_KINDS = {
    ("z3", "trivial"): RepKind.REAL,
    ("z3", "chi1"): RepKind.COMPLEX,
    ("z5", "chi1"): RepKind.COMPLEX,
    ("s3", "standard"): RepKind.REAL,
    ("s3", "sign"): RepKind.REAL,
    ("q8", "spinor"): RepKind.QUATERNIONIC,
    ("d4", "rotation"): RepKind.REAL,
}


@pytest.mark.parametrize("key", sorted(EXPECTED_KINDS, key=str))
def test_classify_fixture_corpus(fixtures, key):
    name, rep_name = key
    rep = dict(fixtures[name][1])[rep_name]
    assert classify(rep) is EXPECTED_KINDS[key]


def test_classify_rejects_reducible(fixtures):
    _, reps = fixtures["s3"]
    rep = direct_sum(dict(reps)["standard"], dict(reps)["sign"])
    with pytest.raises(PreconditionError):
        classify(rep)


def test_classify_survives_change_of_basis(fixtures, rng):
    rep = dict(fixtures["q8"][1])["spinor"]
    rotated = conjugate_rep(rep, random_unitary_complex(2, rng))
    assert classify(rotated) is RepKind.QUATERNIONIC


# ---------------------------------------------------------------------------
# route disagreement: each route made wrong in turn must raise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("key", sorted(EXPECTED_KINDS, key=str))
def test_classify_refuses_an_indicator_naming_another_kind(fixtures, key, monkeypatch):
    name, rep_name = key
    rep = dict(fixtures[name][1])[rep_name]
    true_value = fs_indicator_finite(rep)
    for value in (-1.0, 0.0, 1.0, 0.5, np.nan):
        if value == round(true_value):
            continue
        monkeypatch.setattr(representations, "fs_indicator_finite", lambda rep: value)
        with pytest.raises(InternalInconsistencyError):
            classify(rep)


@pytest.mark.parametrize("key", sorted(EXPECTED_KINDS, key=str))
def test_classify_refuses_a_form_against_the_dual_intertwiner_dimension(fixtures, key, monkeypatch):
    # a form where the characters say there is none, and none where they say there is one
    name, rep_name = key
    rep = dict(fixtures[name][1])[rep_name]
    wrong = None if EXPECTED_KINDS[key] is not RepKind.COMPLEX else invariant_bilinear_form(
        trivial_rep(rep.group))
    monkeypatch.setattr(representations, "invariant_bilinear_form", lambda rep: wrong)
    with pytest.raises(InternalInconsistencyError, match="dual-intertwiner dimension"):
        classify(rep)


@pytest.mark.parametrize("key", [k for k, kind in EXPECTED_KINDS.items() if kind is not RepKind.COMPLEX])
def test_classify_refuses_a_structure_sign_against_the_form_symmetry(fixtures, key, monkeypatch):
    # J_raw^2 negated, so the structure map comes out squaring to the other
    # sign while every other structure-map check still holds; the indicator
    # is flipped too, so the two routes still name the same kind
    name, rep_name = key
    rep = dict(fixtures[name][1])[rep_name]
    square = AntilinearMap.square
    monkeypatch.setattr(AntilinearMap, "square", lambda self: -square(self))
    indicator = fs_indicator_finite
    monkeypatch.setattr(representations, "fs_indicator_finite", lambda rep: -indicator(rep))
    with pytest.raises(InternalInconsistencyError, match="squares to"):
        classify(rep)


# ---------------------------------------------------------------------------
# validation and file round-trips
# ---------------------------------------------------------------------------

def test_group_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroup(np.array([[0, 1], [0, 1]]))  # no inverses / not a group
    with pytest.raises(ValidationError):
        FiniteGroup(np.array([[0, 1], [1, 2]]))  # out of range
    # a left-identity-only magma must be rejected by associativity or identity
    with pytest.raises(ValidationError):
        FiniteGroup(np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]]))
    # a cast to int would truncate 1.7 to Z_2, warn on NaN, parse strings and
    # read the bool table as a group with identity 1; the file loader refuses
    # all of these, and so does the constructor, with no warning
    for table in (np.array([[0, 1.7], [1.2, 0]]), np.array([[0.0, 1.0], [1.0, np.nan]]),
                  np.array([["0", "1"], ["1", "0"]]), np.array([[True, False], [False, True]]),
                  [[0.0, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValidationError, match="entries must be integers"):
            FiniteGroup(table)
    # integers of any width stay accepted, as ints
    for table in ([[0, 1], [1, 0]], *(np.array([[0, 1], [1, 0]], dtype=t) for t in (np.int32, np.uint8))):
        group = FiniteGroup(table)
        assert group.table.dtype == int
        assert np.array_equal(group.table, cyclic_group(2).table)


def test_an_empty_group_table_is_refused():
    # table.min() raised numpy's ValueError on a zero-size table
    with pytest.raises(ValidationError, match="at least one element"):
        FiniteGroup(np.zeros((0, 0), dtype=int))


def test_a_bool_matrix_stack_is_refused():
    # cast to complex, [[True]], [[True]] was the trivial rep of Z_2
    with pytest.raises(ValidationError, match="entries must be numbers"):
        FiniteGroupRep(cyclic_group(2), np.ones((2, 1, 1), dtype=bool))


def test_a_numeric_string_matrix_stack_is_refused():
    # cast to complex, [["1"]], [["1"]] was the trivial rep of Z_2
    with pytest.raises(ValidationError, match="entries must be numbers"):
        FiniteGroupRep(cyclic_group(2), np.array([[["1"]], [["1"]]]))


def test_a_zero_dimensional_rep_is_refused():
    # the modulus check raised numpy's ValueError on a zero-size max
    with pytest.raises(ValidationError, match="dimension must be at least 1"):
        FiniteGroupRep(cyclic_group(2), np.zeros((2, 0, 0), dtype=complex))


def test_rep_validation_catches_non_unitary():
    z2 = cyclic_group(2)
    bad = np.array([np.eye(1), [[2.0]]], dtype=complex)
    with pytest.raises(ValidationError):
        FiniteGroupRep(z2, bad)


def test_unitarity_refusal_names_the_first_failing_element():
    z4 = cyclic_group(4)
    bad = np.array([np.eye(1), [[1j]], [[2.0]], [[0.5j]]], dtype=complex)
    with pytest.raises(ValidationError, match="element 2 is not unitary"):
        FiniteGroupRep(z4, bad)
    with pytest.raises(ValidationError, match="element 3 is not unitary"):
        FiniteGroupRep(z4, bad[[0, 1, 1, 3]])
    nan = bad[[0, 1, 2, 3]]
    nan[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="element 1 is not unitary"):
        FiniteGroupRep(z4, nan)


# a Latin square with identity 0 in which every element is its own inverse:
# it passes every other check, but the only group of order 5 is Z5, where
# only 0 is its own inverse
_LOOP5 = np.array(
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
)


def test_associativity_is_checked_on_a_loop_with_identity_and_inverses():
    with pytest.raises(ValidationError, match="not associative"):
        FiniteGroup(_LOOP5)


def _direct_product(a, b):
    """Table of the pairs (x, y), numbered x |b| + y, multiplied entrywise."""
    a, b = np.asarray(a), np.asarray(b)
    m = len(b)
    return (a[:, None, :, None] * m + b[None, :, None, :]).reshape(len(a) * m, len(a) * m)


def _swapped(table):
    """The table with two entries of one row exchanged, away from the identity 0.

    Identity and inverses survive, but two columns are no longer
    permutations, so the table is not a group's.
    """
    table = np.array(table)
    table[1, 2], table[1, 3] = table[1, 3], table[1, 2]
    assert 0 not in (table[1, 2], table[1, 3])
    return table


def _associativity_corpus():
    tables = {name: group.table for name, (group, _) in standard_fixtures().items()}
    for n in (15, 31, 127):
        tables[f"dic{n}"] = dicyclic(n)[0].table
    z2, z3 = cyclic_group(2).table, cyclic_group(3).table
    tables["loop5"] = _LOOP5
    tables["loop5 x z2"] = _direct_product(_LOOP5, z2)
    tables["loop5 x z3"] = _direct_product(_LOOP5, z3)
    tables["q8 x z3"] = _direct_product(tables["q8"], z3)
    tables["swapped q8"] = _swapped(tables["q8"])
    tables["swapped dic15"] = _swapped(tables["dic15"])
    return tables


ASSOCIATIVITY_CORPUS = _associativity_corpus()


@pytest.mark.parametrize("name", list(ASSOCIATIVITY_CORPUS))
def test_associativity_on_generators_agrees_with_the_loop(name):
    table = ASSOCIATIVITY_CORPUS[name]
    try:
        FiniteGroup(table)
        accepted = True
    except ValidationError as err:
        assert "not associative" in str(err)  # every other check passes on the corpus
        accepted = False
    assert accepted == associative_by_loop(table)
    assert accepted == (not name.startswith(("loop5", "swapped")))


@pytest.mark.parametrize("name", ["dic127", "q8 x z3", "z5"])
def test_associativity_is_checked_on_at_most_log2_order_generators(name):
    # each new generator at least doubles the subgroup reached, so Light's
    # test costs O(|G|^2 log |G|) and not the loop's O(|G|^3)
    table = np.asarray(ASSOCIATIVITY_CORPUS[name], dtype=np.int32)
    generators = representations._generators(table, 0)
    assert 1 <= len(generators) <= np.log2(len(table))


def test_validation_memory_grows_like_the_table_not_its_cube():
    # a whole-table check holds 2 |G|^3 int64 and 2 |G|^2 d^2 complex
    # numbers, each over 100 MB at this size
    n, d = 256, 8
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    matrices = np.exp(2j * np.pi * np.outer(idx, np.arange(d)) / n)[:, :, None] * np.eye(d)
    tracemalloc.start()
    try:
        group = FiniteGroup(table)
        _, group_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        FiniteGroupRep(group, matrices)
        _, rep_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group_peak < 16 * n * n * 8
    assert rep_peak < 16 * n * d * d * 16


def test_rep_validation_catches_non_homomorphism():
    z4 = cyclic_group(4)
    mats = np.array([np.eye(1), [[1j]], [[1.0]], [[-1j]]], dtype=complex)
    with pytest.raises(ValidationError):
        FiniteGroupRep(z4, mats)  # squares to +1 at element 2, should be -1


def test_validation_errors_carry_the_measured_defect():
    z4 = cyclic_group(4)
    bad = np.array([np.eye(1), [[1j]], [[2.0]], [[0.5j]]], dtype=complex)
    with pytest.raises(ValidationError, match="element 2 is not unitary") as err:
        FiniteGroupRep(z4, bad)
    assert (err.value.defect, err.value.tol) == (1.0, 1e-10)  # |2| - 1
    mats = np.array([np.eye(1), [[1j]], [[1.0]], [[-1j]]], dtype=complex)
    with pytest.raises(ValidationError, match="homomorphism") as err:
        FiniteGroupRep(z4, mats)
    assert (err.value.defect, err.value.tol) == (2.0, 1e-10)  # i i - 1


@pytest.mark.parametrize("entries,worst", [
    # moduli 1.5 and 2 above 1: defects 0.5 and 1.0 against 1e-10
    ([1.5j, -1.0, -2j], 1.0),
    # moduli 0.9 and 0.5, within 1: Gram defects 0.19 and 0.75 against 1e-10
    ([0.9j, -1.0, -0.5j], 0.75),
], ids=["modulus", "gram"])
def test_unitarity_refusal_names_the_worst_element_not_the_first(entries, worst):
    # on Z_4 elements 1 and 3 both fail; element 3 fails by more
    mats = np.array([[[1.0]]] + [[[z]] for z in entries], dtype=complex)
    with pytest.raises(ValidationError, match="element 3 is not unitary") as err:
        FiniteGroupRep(cyclic_group(4), mats)
    assert err.value.defect == pytest.approx(worst, rel=1e-15)
    assert err.value.tol == 1e-10


def test_modulus_at_its_bound_is_accepted_and_past_it_refused():
    # rho(g) = [[0, m], [1/m, 0]] + 1_14 on Z_2, d = 16: the largest m with
    # m - 1 <= 1e-10 passes the modulus check and then the unitary rule
    # (about 2.8e-10 against 1e-10 sqrt(16)); the next float is refused by
    # the modulus check, with defect m - 1, although the unitary rule would
    # still pass it
    m = 1.0 + 1e-10
    while m - 1.0 > 1e-10:
        m = np.nextafter(m, 0.0)
    while np.nextafter(m, 2.0) - 1.0 <= 1e-10:
        m = np.nextafter(m, 2.0)

    def rep(m):
        flip = np.eye(16, dtype=complex)
        flip[:2, :2] = [[0.0, m], [1.0 / m, 0.0]]
        return FiniteGroupRep(cyclic_group(2), [np.eye(16), flip])

    assert rep(m).dim == 16
    past = np.nextafter(m, 2.0)
    with pytest.raises(ValidationError, match="element 1 is not unitary") as err:
        rep(past)
    assert (err.value.defect, err.value.tol) == (past - 1.0, 1e-10)


def _shifted_cyclic(n, d, shift):
    """Z_n with label k standing for k + shift, and characters 1..d on the diagonal.

    The identity is label -shift mod n.
    """
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :] + shift) % n
    angles = 2 * np.pi * np.outer(idx + shift, np.arange(1, d + 1)) / n
    return FiniteGroup(table), np.exp(1j * angles)[:, :, None] * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_blocked_homomorphism_check_catches_one_rotated_phase(d):
    # a phase of 1e-9 keeps rho(g) unitary, so only the homomorphism check can
    # fail; the identity sits at label n/2, away from every rotated label
    n = 256
    group, matrices = _shifted_cyclic(n, d, n // 2)
    assert homomorphism_defects(group, matrices).max() <= 1e-10
    FiniteGroupRep(group, matrices)
    block = max(1, representations._BLOCK_ENTRIES // (n * d * d))
    assert n // block >= 4
    for g in sorted({0, block - 1, block, n - 1}):
        rotated = matrices.copy()
        rotated[g] *= np.exp(1e-9j)
        with pytest.raises(ValidationError, match="homomorphism") as err:
            FiniteGroupRep(group, rotated)
        per_g = homomorphism_defects(group, rotated)
        lo = np.flatnonzero(per_g > 1e-10)[0] // block * block
        assert err.value.defect == pytest.approx(per_g[lo : lo + block].max(), rel=1e-12)
        # |e^(i t) - 1| = t for the pairs (g, h) and (h, h^-1 g), and 2 t for (g, g)
        assert 0.99e-9 < err.value.defect < 2.01e-9
        assert err.value.tol == 1e-10


@pytest.mark.parametrize("d", [1, 2, 8])
def test_blocked_homomorphism_check_agrees_with_the_per_g_oracle(d):
    # conjugated by a Haar unitary, so every rho(g) is dense and a mix-up of
    # the row and column of rho(g h) in the block layout would show
    n = 192
    group, diagonal = _shifted_cyclic(n, d, 5)
    u = random_unitary_complex(d, np.random.default_rng(d))
    matrices = u @ diagonal @ u.conj().T
    block = max(1, representations._BLOCK_ENTRIES // (n * d * d))
    assert n // block >= 2
    # a phase of t puts the pair (g, g) 2 t off and the others t at most: 0.45e-10
    # stays within the bound but near it, 0.8e-10 and 1e-9 do not
    for g in (0, n - 1):
        for t in (0.0, 0.45e-10, 0.8e-10, 1e-9):
            rotated = matrices.copy()
            rotated[g] *= np.exp(1j * t)
            per_g = homomorphism_defects(group, rotated)
            if per_g.max() <= 1e-10:
                FiniteGroupRep(group, rotated)
                continue
            with pytest.raises(ValidationError, match="homomorphism") as err:
                FiniteGroupRep(group, rotated)
            lo = np.flatnonzero(per_g > 1e-10)[0] // block * block
            assert err.value.defect == pytest.approx(per_g[lo : lo + block].max(), rel=0, abs=1e-15)
            assert err.value.tol == 1e-10
            assert t > 0.5e-10


def test_homomorphism_oracle_accepts_the_corpus(fixtures):
    # every rep the blocked check accepted also passes the per-g loop
    reps = dicyclic(15)[1] + [rep for _, named in fixtures.values() for _, rep in named]
    for rep in reps:
        assert homomorphism_defects(rep.group, rep.matrices).max() <= 1e-10


def test_rep_file_roundtrip(tmp_path, fixtures):
    group, reps = fixtures["q8"]
    path = tmp_path / "q8.json"
    dump_rep_file(path, group, reps, name="q8")
    loaded_group, loaded = load_rep_file(path)
    assert loaded_group.order == group.order
    assert np.array_equal(loaded_group.table, group.table)
    assert [name for name, _ in loaded] == [name for name, _ in reps]
    for (_, a), (_, b) in zip(loaded, reps):
        assert np.allclose(a.matrices, b.matrices, atol=0.0)


@pytest.mark.parametrize("name", ["z3", "z5", "s3", "q8", "d4"])
def test_each_shipped_fixture_is_its_generators_file(tmp_path, fixtures, name):
    # fixtures/<name>.json is dump_rep_file of groups.standard_fixtures()[name], byte for byte
    group, reps = fixtures[name]
    path = tmp_path / f"{name}.json"
    dump_rep_file(path, group, reps, name=name)
    shipped = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    assert path.read_bytes() == shipped.read_bytes()
    assert sorted(fixtures) == sorted(other.stem for other in shipped.parent.glob("*.json"))


def _spoiled(path, value):
    """[[[1.0, 0.0], [0.5, -0.5]], [[0.0, 1.0], [2.0, 3.0]]] (shape (2, 2, 2)) with ``value`` at ``path``."""
    doc = [[[1.0, 0.0], [0.5, -0.5]], [[0.0, 1.0], [2.0, 3.0]]]
    if not path:
        return value
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    parent[path[-1]] = value
    return doc


JSON_ARRAY_CASES = {
    "bool at depth 0": (_spoiled((), True), ParseError),
    "bool at depth 1": (_spoiled((1,), True), ParseError),
    "bool at depth 2": (_spoiled((1, 0), False), ParseError),
    "bool leaf": (_spoiled((1, 0, 1), True), ParseError),
    "string leaf": (_spoiled((0, 1, 0), "1.0"), ParseError),
    "null leaf": (_spoiled((0, 1, 0), None), ParseError),
    "object row": (_spoiled((0,), {"0": 1.0}), ParseError),
    "ragged at level 0": (_spoiled((), [[[1.0, 0.0], [0.0, 1.0]]]), ValidationError),
    "ragged at level 1": (_spoiled((1,), [[0.0, 1.0]]), ValidationError),
    "ragged at level 2": (_spoiled((0, 1), [0.5, -0.5, 0.0]), ValidationError),
    "empty row at level 2": (_spoiled((1, 1), []), ValidationError),
    # the types of a level are checked before its lengths
    "bool beside a ragged row": ([[[1.0, 0.0]], True], ParseError),
    "int beyond a float": (_spoiled((0, 0, 0), 10**400), ValidationError),
}


@pytest.mark.parametrize("case", sorted(JSON_ARRAY_CASES))
def test_json_array_refusals(case):
    doc, error = JSON_ARRAY_CASES[case]
    with pytest.raises(error):
        representations._json_array(doc, (2, 2, 2), "x")


def test_json_array_reads_ints_and_floats_and_refuses_an_int64_overflow():
    doc = _spoiled((1, 1, 1), 3)
    assert representations._json_array(doc, (2, 2, 2), "x").tolist() == doc
    assert representations._json_array([[0, 1], [1, 0]], (2, 2), "mult", integer=True).dtype == int
    with pytest.raises(ParseError, match="integers"):
        representations._json_array([[0, 1.0], [1, 0]], (2, 2), "mult", integer=True)
    for big in (2**63, -(2**63) - 1, 10**30):
        with pytest.raises(ValidationError, match="out of range"):
            representations._json_array([[0, big], [1, 0]], (2, 2), "mult", integer=True)
    assert representations._json_array([[0, 2**63 - 1]], (1, 2), "mult", integer=True)[0, 1] == 2**63 - 1


def test_rep_file_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"order": 2,\n "mult": [[0, 1], [1, 0]\n}')
    with pytest.raises(ParseError) as err:
        load_rep_file(path)
    assert err.value.line is not None


def test_rep_file_missing_keys(tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"order": 2}))
    with pytest.raises(ParseError):
        load_rep_file(path)


def test_rep_file_bad_matrix_shape(tmp_path):
    one = [[[1.0, 0.0]]]
    # 1x1 matrices for dim 2; then one matrix too few and one too many for order 2
    for dim, matrices in ((2, [one, one]), (1, [one]), (1, [one, one, one])):
        doc = {
            "order": 2,
            "mult": [[0, 1], [1, 0]],
            "reps": [{"name": "broken", "dim": dim, "matrices": matrices}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="expected shape"):
            load_rep_file(path)


def test_rep_file_name_must_be_a_string(tmp_path):
    path = tmp_path / "named.json"
    rep = {"name": "r", "dim": 1, "matrices": [[[[1.0, 0.0]]]]}
    path.write_text(json.dumps({"order": 1, "mult": [[0]], "name": "g", "reps": [rep]}))
    group, [(name, _)] = load_rep_file(path)
    assert (group.name, name) == ("g", "r")
    for doc in ({"order": 1, "mult": [[0]], "name": 7},
                {"order": 1, "mult": [[0]], "reps": [{**rep, "name": ["r"]}]}):
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="name must be a string"):
            load_rep_file(path)


@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
@pytest.mark.parametrize("value", [1e308, -1e300, np.inf, np.nan], ids=str)
def test_rep_file_entry_above_modulus_one_is_refused_before_the_gram_product(tmp_path, value, part):
    # the Gram product of such a matrix would overflow (a RuntimeWarning,
    # which the test configuration turns into an error)
    fixture = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "q8.json")
    with open(fixture, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["reps"][1]["matrices"][1][0][0][part] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    if not np.isfinite(value):
        assert ("Infinity" if value == np.inf else "NaN") in path.read_text()
    with pytest.raises(ValidationError, match="element 1 is not unitary") as err:
        load_rep_file(path)
    modulus = abs(value)
    assert err.value.tol == 1e-10
    assert err.value.defect == modulus - 1.0 or np.isnan(value)


def test_rep_file_load_peaks_at_a_small_multiple_of_its_size(tmp_path):
    # each entry's matrices become an array as soon as the entry is parsed,
    # so the nested lists of the whole file are never alive at once
    group, reps = dicyclic(31)
    rng = np.random.default_rng(5)
    reps = [conjugate_rep(rep, random_unitary_complex(2, rng)) for rep in reps]
    doc = {
        "order": group.order,
        "mult": group.table.tolist(),
        "reps": [
            {"name": f"rho{m}", "dim": 2,
             "matrices": np.stack([rep.matrices.real, rep.matrices.imag], axis=-1).tolist()}
            for m, rep in enumerate(reps, 1)
        ],
    }
    path = tmp_path / "dic31.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        _, loaded = load_rep_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 30
    assert peak <= 4 * os.path.getsize(path)


def test_rep_file_above_the_byte_bound_is_refused_unread(tmp_path, monkeypatch):
    path = tmp_path / "sparse.json"
    with open(path, "wb") as fh:
        fh.truncate(representations.MAX_FILE_BYTES + 1)

    def no_open(*args, **kwargs):
        raise AssertionError("the file was opened")

    monkeypatch.setattr(representations, "open", no_open, raising=False)
    with pytest.raises(PreconditionError, match="file size") as err:
        load_rep_file(path)
    assert err.value.defect == representations.MAX_FILE_BYTES + 1
    assert err.value.tol == representations.MAX_FILE_BYTES


def test_rep_file_from_a_pipe_is_read_to_one_character_past_the_bound(tmp_path):
    # a pipe reports size 0 to os.stat, so its read is bounded instead
    path = tmp_path / "fifo.json"
    os.mkfifo(path)
    chunk = b" " * 2**20

    def write():
        try:
            with open(path, "wb") as fh:
                for _ in range(representations.MAX_FILE_BYTES // len(chunk) + 1):
                    fh.write(chunk)
        except BrokenPipeError:
            pass  # the reader stopped at the bound

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        with pytest.raises(PreconditionError, match="file size") as err:
            load_rep_file(path)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert err.value.defect == representations.MAX_FILE_BYTES + 1


def test_rep_file_grown_past_its_stat_size_is_read_to_one_character_past_the_bound(
        tmp_path, monkeypatch):
    # st_size under-reports, as for a file that grows between the stat and the
    # read: the read must still stop at the bound, not take the whole file
    path = tmp_path / "grown.json"
    with open(path, "wb") as fh:
        fh.truncate(4 * representations.MAX_FILE_BYTES)
    monkeypatch.setattr(representations, "os", SimpleNamespace(stat=lambda _: SimpleNamespace(st_size=1024)))
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="file size") as err:
            load_rep_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.defect == representations.MAX_FILE_BYTES + 1
    assert peak < 3 * representations.MAX_FILE_BYTES


def test_rep_file_bound_counts_bytes_not_characters(tmp_path, monkeypatch):
    # four-byte UTF-8 characters: the bytes exceed the bound, the characters do not
    path = tmp_path / "wide.json"
    path.write_text("\U0001F600" * (representations.MAX_FILE_BYTES // 4 + 1), encoding="utf-8")
    monkeypatch.setattr(representations, "os", SimpleNamespace(stat=lambda _: SimpleNamespace(st_size=1024)))
    with pytest.raises(PreconditionError, match="file size") as err:
        load_rep_file(path)
    assert err.value.defect == representations.MAX_FILE_BYTES + 1


def test_rep_file_dim_above_the_size_bound_is_refused_before_its_array(tmp_path, monkeypatch):
    d = MAX_SIZE + 1
    identity = [[[1.0 if i == k else 0.0, 0.0] for k in range(d)] for i in range(d)]
    doc = {"order": 1, "mult": [[0]], "reps": [{"name": "big", "dim": d, "matrices": [identity]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    shapes = []
    walk = representations._json_array

    def recording_walk(value, shape, *args, **kwargs):
        shapes.append(shape)
        return walk(value, shape, *args, **kwargs)

    monkeypatch.setattr(representations, "_json_array", recording_walk)
    with pytest.raises(PreconditionError, match=f"dim {d}") as err:
        load_rep_file(path)
    assert (err.value.defect, err.value.tol) == (d, MAX_SIZE)
    assert shapes == [(1, 1)]  # the table only

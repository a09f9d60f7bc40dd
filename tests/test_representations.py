"""Classification of finite-group representations.

The Frobenius-Schur and averaging oracles here are deliberate re-derivations
as plain Python loops; the library must reproduce them.
"""

import json
import tracemalloc

import numpy as np
import pytest

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
from threefold.representations import (
    FiniteGroup,
    FiniteGroupRep,
    RepKind,
    average_bilinear,
    classify,
    commutant_dimension,
    conjugate_rep,
    direct_sum,
    dual_rep,
    dump_rep_file,
    fs_indicator_finite,
    intertwiner_dimension,
    invariant_bilinear_form,
    load_rep_file,
    structure_map,
)
from threefold.structures import real_form_basis
from threefold.su2 import su2_spin_rep

from util import binary_icosahedral, random_unitary_complex, solution_space_dimension


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

    def __init__(self, group, matrices):
        self.group = group
        self.matrices = np.asarray(matrices, dtype=complex)


def test_non_integer_character_pairing_is_an_inconsistency():
    z2 = cyclic_group(2)
    # chi = (1, 0.5) is no character: <chi, chi> = 0.625
    duck = _DuckRep(z2, [[[1.0]], [[0.5]]])
    with pytest.raises(InternalInconsistencyError):
        commutant_dimension(duck)
    with pytest.raises(InternalInconsistencyError):
        intertwiner_dimension(duck, trivial_rep(z2))


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


def test_complex_characters_admit_no_invariant_form(fixtures):
    for name in ("z3", "z5"):
        rep = dict(fixtures[name][1])["chi1"]
        assert invariant_bilinear_form(rep) is None


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
    assert j.is_antiunitary(1e-9)
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


def test_associativity_is_checked_on_a_loop_with_identity_and_inverses():
    # a Latin square with identity 0 in which every element is its own
    # inverse: it passes every other check, but the only group of order 5
    # is Z5, where only 0 is its own inverse
    loop = np.array(
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    )
    with pytest.raises(ValidationError, match="not associative"):
        FiniteGroup(loop)


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
    doc = {
        "order": 2,
        "mult": [[0, 1], [1, 0]],
        "reps": [{"name": "broken", "dim": 2, "matrices": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_rep_file(path)

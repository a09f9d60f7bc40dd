"""Invariance tests: the verdicts are properties of a representation, not of its encoding.

A representation file fixes an element order and a basis; the kind, the
dimension and the commutant do not depend on either, and neither does the
Frobenius-Schur indicator beyond rounding.  Five relations that need no
oracle are checked on the five shipped fixtures and on seeded Dic_15 and
Dic_31 files from ``benchmarks/dicyclic.py`` (read from its file, not
imported as a module):

* the group's elements relabelled by a random permutation, the identity
  included, and the relabelled group and representations written to a file
  and read back;
* rho replaced by U rho U* for a Haar-random unitary U;
* rho replaced by its conjugate, which has the same kind and indicator and
  is isomorphic to rho exactly when rho is not complex;
* rho replaced by rho (x) chi for each real one-dimensional chi, every
  homomorphism G -> {+1, -1}: <rho chi, rho chi> = <rho, rho> and
  chi(g^2) = 1, so the kind and the indicator stay;
* the file's representations written in reverse order, which gives the
  ``classify`` items in that order, bit for bit.

Kinds, dims and commutants must agree exactly; ``fs`` is held to 1e-12,
the bound fs_indicator_finite's docstring gives for a change of element
order.

One more relation is on scale: at 2^k x, for k from -1000 to 1000 and at
the two largest k that leave x finite, an operation homogeneous in x
returns 2^k times its value at x, bit for bit (+-inf past the largest
float): the norms, ``push``, the commutation and anticommutation defects
of an antilinear map (for a J of entries 0 and +-1, and for any J, where
J T itself passes the largest float), ``structure_defect``, ``split_iA``,
the obstruction witness's defect and threshold, ``cone_margin`` of hH:3
elements, and ``symmetric_spectrum_check``'s eigenvalues and two defects
over R and H (both scale by a power of two before LAPACK can rescale by
another factor).
``structure_map_from_form`` is homogeneous of degree 0: the J and sign of
2^k g are g's, bit for bit.  Unitarity and ``pull``'s image
test, with its floor max(1, |t|), are not scale-invariant by design and
are left out.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from threefold.cli import main
from threefold.errors import ReducibleError
from threefold.hilbert import KMatrix
from threefold.jordan import JordanElement, cone_margin, parse_kind, random_element
from threefold.representations import (
    FiniteGroup,
    FiniteGroupRep,
    RepKind,
    classify,
    commutant_dimension,
    dump_rep_file,
    fs_indicator_finite,
    intertwiner_dimension,
    invariant_bilinear_form,
    load_rep_file,
    structure_map_from_form,
)
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, Quaternion
from threefold.spectra import quaternionic_obstruction_witness, split_iA, symmetric_spectrum_check
from threefold.structures import (
    AntilinearMap,
    complexify,
    quaternify,
    quaternify_real,
    structure_defect,
    underlying_complex,
    underlying_real,
    underlying_real_quat,
)

from util import random_kmatrix, random_skew_adjoint, random_unitary_complex

ROOT = Path(__file__).resolve().parent.parent
SEED = 1105
FS_TOL = 1e-12  # fs_indicator_finite: independent of element order beyond 1e-12
SOURCES = ("z3", "z5", "s3", "q8", "d4", "dic15", "dic31")


def _load_dicyclic():
    spec = importlib.util.spec_from_file_location("dicyclic", ROOT / "benchmarks" / "dicyclic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each source's file path: the shipped fixtures and seeded Dic_15 and Dic_31 files."""
    paths = {name: ROOT / "fixtures" / f"{name}.json" for name in SOURCES[:-2]}
    directory, dicyclic = tmp_path_factory.mktemp("invariance"), _load_dicyclic()
    for n in (15, 31):
        paths[f"dic{n}"] = directory / f"dic{n}.json"
        dicyclic.write_rep_file(paths[f"dic{n}"], n, SEED)
    return paths


def _verdict(rep):
    """(kind, dim, commutant, fs): a RepKind, or "reducible" with the commutant measured."""
    try:
        kind = classify(rep)
    except ReducibleError as err:
        kind = "reducible"
        assert err.commutant == commutant_dimension(rep) > 1
    return kind, rep.dim, commutant_dimension(rep), fs_indicator_finite(rep)


def _assert_same_verdicts(before, after):
    assert list(before) == list(after)
    for name, (kind, dim, commutant, fs) in before.items():
        kind_after, dim_after, commutant_after, fs_after = after[name]
        assert (kind_after, dim_after, commutant_after) == (kind, dim, commutant), name
        assert abs(fs_after - fs) <= FS_TOL, name


def _verdicts(reps):
    return {name: _verdict(rep) for name, rep in reps}


def _rng(source, relation):
    return np.random.default_rng([SEED, SOURCES.index(source), relation])


@pytest.mark.parametrize("source", SOURCES)
def test_a_relabelled_group_and_file_give_the_same_verdicts(source, files, tmp_path):
    group, reps = load_rep_file(files[source])
    # new label of old element g is perm[g]: table'[perm g, perm h] = perm[table[g, h]]
    perm = _rng(source, 0).permutation(group.order)
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    relabelled = FiniteGroup(table, name=group.name)
    assert relabelled.identity == perm[group.identity]
    moved = []
    for name, rep in reps:
        matrices = np.empty_like(rep.matrices)
        matrices[perm] = rep.matrices
        moved.append((name, FiniteGroupRep(relabelled, matrices)))
    path = tmp_path / "relabelled.json"
    dump_rep_file(path, relabelled, moved)
    _, read_back = load_rep_file(path)
    _assert_same_verdicts(_verdicts(reps), _verdicts(read_back))


@pytest.mark.parametrize("source", SOURCES)
def test_a_haar_change_of_basis_gives_the_same_verdicts(source, files):
    group, reps = load_rep_file(files[source])
    rng = _rng(source, 1)
    changed = []
    for name, rep in reps:
        u = random_unitary_complex(rep.dim, rng)
        changed.append((name, FiniteGroupRep(group, u @ rep.matrices @ u.conj().T)))
    _assert_same_verdicts(_verdicts(reps), _verdicts(changed))


@pytest.mark.parametrize("source", SOURCES)
def test_the_conjugate_gives_the_same_verdicts(source, files):
    group, reps = load_rep_file(files[source])
    conjugates = [(name, FiniteGroupRep(group, rep.matrices.conj())) for name, rep in reps]
    before = _verdicts(reps)
    _assert_same_verdicts(before, _verdicts(conjugates))
    # an irreducible is isomorphic to its conjugate exactly when it is not complex
    for (name, rep), (_, conjugate) in zip(reps, conjugates):
        if isinstance(before[name][0], RepKind):
            assert intertwiner_dimension(rep, conjugate) == (before[name][0] is not RepKind.COMPLEX)


def _real_characters(group):
    """Every homomorphism G -> {+1, -1}, as float arrays; the trivial one first.

    A greedy generating set, and each choice of signs on it spread over the
    group by a search from the identity; a choice that is no homomorphism is dropped.
    """
    table, identity = group.table, group.identity
    generators, reached = [], {identity}
    for g in range(group.order):
        if g not in reached:
            generators.append(g)
            reached = set(_spread(table, identity, generators, [1.0] * len(generators)))
    characters = []
    for signs in itertools.product((1.0, -1.0), repeat=len(generators)):
        values = _spread(table, identity, generators, signs)
        chi = np.array([values[g] for g in range(group.order)])
        if np.array_equal(chi[table], np.outer(chi, chi)):
            characters.append(chi)
    return characters


def _spread(table, identity, generators, signs):
    """``{g: sign}`` over the subgroup the generators reach, with chi(g s) = chi(g) chi(s)."""
    values, frontier = {identity: 1.0}, [identity]
    while frontier:
        g = frontier.pop()
        for s, sign in zip(generators, signs):
            h = int(table[g, s])
            if h not in values:
                values[h] = values[g] * sign
                frontier.append(h)
    return values


@pytest.mark.parametrize("source", SOURCES)
def test_a_real_one_dimensional_twist_gives_the_same_verdicts(source, files):
    group, reps = load_rep_file(files[source])
    characters = _real_characters(group)
    # Z_3 and Z_5 have odd order, so only the trivial chi; the others have more
    assert len(characters) == {"z3": 1, "z5": 1, "s3": 2, "q8": 4, "d4": 4}.get(source, 2)
    before = _verdicts(reps)
    for chi in characters:
        twisted = [(name, FiniteGroupRep(group, chi[:, None, None] * rep.matrices)) for name, rep in reps]
        _assert_same_verdicts(before, _verdicts(twisted))


def _classify_items(path, capsys):
    assert main(["--json", "classify", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["items"]


@pytest.mark.parametrize("source", SOURCES)
def test_reps_written_in_reverse_order_give_the_same_items_in_that_order(source, files, tmp_path, capsys):
    group, reps = load_rep_file(files[source])
    path = tmp_path / "reversed.json"
    dump_rep_file(path, group, reps[::-1])
    assert _classify_items(path, capsys) == _classify_items(files[source], capsys)[::-1]


# ---------------------------------------------------------------------------
# scale: x -> 2^k x
# ---------------------------------------------------------------------------

# "top" is the largest k at which 2^k x is finite, "top - 1" the one below it
TOPS = ("top", "top - 1")
SCALES = (-1000, -600, 0, 600, 1000) + TOPS
CONVERSIONS = (
    (complexify, REALS),
    (underlying_real, COMPLEXES),
    (underlying_complex, QUATERNIONS),
    (quaternify, COMPLEXES),
    (underlying_real_quat, QUATERNIONS),
    (quaternify_real, REALS),
)


def _k(k, coeffs):
    """``k`` itself, or the k that a name in TOPS gives for these coefficients."""
    if k not in TOPS:
        return k
    # the largest entry is in [2^(e-1), 2^e), so 2^k times it is finite for k <= 1024 - e
    return 1024 - np.frexp(np.abs(coeffs).max())[1] - TOPS.index(k)


def _ldexp(x, k):
    """2^k x exactly, +-inf without a warning where that passes the largest float."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, k)


def _scaled(x, k):
    return KMatrix(x.system, np.ldexp(x.coeffs, k))


@pytest.mark.parametrize("k", SCALES)
def test_norms_scale_exactly_by_a_power_of_two(k):
    # past 2^500 or below 2^-500 the squares overflow or underflow, and the
    # one norm rescales by an exact power of two
    rng = np.random.default_rng([SEED, 1])
    m = random_kmatrix(QUATERNIONS, 4, 4, rng)
    km = _k(k, m.coeffs)
    assert _scaled(m, km).norm() == _ldexp(m.norm(), km)
    a = random_element(parse_kind("hH:3"), rng)
    ka = _k(k, a.data)
    assert JordanElement(a.kind, np.ldexp(a.data, ka)).norm() == _ldexp(a.norm(), ka)
    q = Quaternion.from_array(rng.standard_normal(4))
    kq = _k(k, q.coeffs)
    assert Quaternion.from_array(np.ldexp(q.coeffs, kq)).norm() == _ldexp(q.norm(), kq)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("make,system", CONVERSIONS, ids=[make.__name__ for make, _ in CONVERSIONS])
def test_push_scales_exactly_by_a_power_of_two(make, system, k):
    conv, s = make(3), random_kmatrix(system, 3, 3, np.random.default_rng([SEED, 2]))
    k = _k(k, s.coeffs)
    assert np.array_equal(conv.push(_scaled(s, k)).coeffs, np.ldexp(conv.push(s).coeffs, k))


@pytest.mark.parametrize("k", SCALES)
def test_the_witness_scales_exactly_by_a_power_of_two(k):
    s = random_skew_adjoint(QUATERNIONS, 6, np.random.default_rng([SEED, 3]))
    k = _k(k, s.coeffs)
    base, report = quaternionic_obstruction_witness(s), quaternionic_obstruction_witness(_scaled(s, k))
    assert report.found and np.array_equal(report.vector.coeffs, base.vector.coeffs)
    assert (report.defect, report.threshold) == (_ldexp(base.defect, k), _ldexp(base.threshold, k))


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("seed", range(5))
def test_cone_margin_scales_exactly_by_a_power_of_two(seed, k):
    # LAPACK rescales a matrix past about 2^+-480 by a factor that is not a
    # power of two: without cone_margin's own exact scaling first, these
    # margins moved by up to 4 ulps.  At the top k a margin past the largest
    # float reads -inf, without a warning
    a = random_element(parse_kind("hH:3"), np.random.default_rng([SEED, 4, seed]))
    k = _k(k, a.data)
    assert cone_margin(JordanElement(a.kind, np.ldexp(a.data, k))) == _ldexp(cone_margin(a), k)


def _ldexp_complex(z, k):
    """2^k z exactly for a complex array, read as its float pairs."""
    return np.ldexp(np.ascontiguousarray(z).view(float), k).view(complex)


@pytest.mark.parametrize("k", SCALES)
def test_commutation_defects_scale_exactly_by_a_power_of_two(k):
    # J of the quaternionic conversion to C, entries 0 and +-1: J T and T J
    # move entries only.  At the top k this stack's J T - T J overflowed an
    # entry, which warned; its defect is inf
    j = underlying_complex(3).j
    rng = np.random.default_rng([SEED, 5, 5])
    stack = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    k = _k(k, stack.view(float))
    scaled = _ldexp_complex(stack, k)
    assert np.array_equal(j.commutation_defect(scaled), _ldexp(j.commutation_defect(stack), k))
    assert j.anticommutation_defect(scaled[0]) == _ldexp(j.anticommutation_defect(stack[0]), k)


def test_the_commutation_defects_of_a_large_j_are_exact():
    # J T and T J pass the largest float although J T - T J is 0: the
    # products overflowed inside the matmul, and both defects read NaN
    j, t = AntilinearMap(np.full((2, 2), 1e200)), np.full((2, 2), 1e200)
    assert (j.commutation_defect(t), j.anticommutation_defect(t)) == (0.0, np.inf)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("j_scale", [-600, 600])
def test_commutation_defects_of_any_j_scale_exactly_by_a_power_of_two(j_scale, k):
    # a J that is not normalized, at 2^-600 and 2^600: from 2^600 J and
    # 2^1000 T on, J T passes the largest float before the difference does
    rng = np.random.default_rng([SEED, 5, 6])
    j, stack = (rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6)) for _ in range(2))
    base = AntilinearMap(j[0])
    scaled_j = AntilinearMap(_ldexp_complex(j[0], j_scale))
    k = _k(k, stack.view(float))
    scaled = _ldexp_complex(stack, k)
    assert np.array_equal(scaled_j.commutation_defect(scaled), _ldexp(base.commutation_defect(stack), j_scale + k))
    assert scaled_j.anticommutation_defect(scaled[0]) == _ldexp(base.anticommutation_defect(stack[0]), j_scale + k)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("make,system", CONVERSIONS, ids=[make.__name__ for make, _ in CONVERSIONS])
def test_structure_defect_scales_exactly_by_a_power_of_two(make, system, k):
    conv = make(3)
    t = random_kmatrix(conv.target, conv.dim_out, conv.dim_out, np.random.default_rng([SEED, 6]))
    k = _k(k, t.coeffs)
    assert structure_defect(conv, _scaled(t, k)) == _ldexp(structure_defect(conv, t), k)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("system", [REALS, QUATERNIONS], ids=["R", "H"])
def test_the_spectrum_check_scales_exactly_by_a_power_of_two(system, seed, k):
    # LAPACK rescales a matrix past about 2^+-480 by a factor that is not a
    # power of two, and the check scales A by 2^-e first.  At the top k over
    # H the largest eigenvalues read +-inf, and w + w[::-1] was inf - inf
    s = random_skew_adjoint(system, 6, np.random.default_rng([SEED, 8, seed]))
    k = _k(k, s.coeffs)
    base, report = symmetric_spectrum_check(s), symmetric_spectrum_check(_scaled(s, k))
    assert np.array_equal(report.eigenvalues, _ldexp(base.eigenvalues, k))
    assert report.pairing_defect == _ldexp(base.pairing_defect, k)
    assert report.eigenvector_defect == _ldexp(base.eigenvector_defect, k)


@pytest.mark.parametrize("k", SCALES)
def test_split_ia_scales_exactly_by_a_power_of_two(k):
    s = random_skew_adjoint(COMPLEXES, 4, np.random.default_rng([SEED, 7]))
    k = _k(k, s.coeffs)
    assert np.array_equal(split_iA(_scaled(s, k)).coeffs, np.ldexp(split_iA(s).coeffs, k))


@pytest.mark.parametrize("k", SCALES)
def test_the_structure_map_of_a_scaled_form_is_the_forms(files, k):
    # the Q8 spinor form: J_raw^2 underflowed to 0 at 2^-600 g (a "nilpotent"
    # refusal) and overflowed at 2^600 g, and g is now scaled by a power of
    # two first.  (A form with an entry that 2^k makes subnormal loses bits
    # there, and its J may differ in the last place.)
    rep = dict(load_rep_file(files["q8"])[1])["spinor"]
    g = invariant_bilinear_form(rep).matrix
    j, sign = structure_map_from_form(g, rep.matrices)
    k = _k(k, np.ascontiguousarray(g).view(float))
    j_scaled, sign_scaled = structure_map_from_form(_ldexp_complex(g, k), rep.matrices)
    assert sign_scaled == sign and np.array_equal(j_scaled.matrix.view(float), j.matrix.view(float))

"""Invariance tests: the verdicts are properties of a representation, not of its encoding.

A representation file fixes an element order and a basis; the kind, the
dimension and the commutant do not depend on either, and neither does the
Frobenius-Schur indicator beyond rounding.  Three relations that need no
oracle are checked on the five shipped fixtures and on a seeded Dic_15 file
from ``benchmarks/dicyclic.py`` (read from its file, not imported as a
module):

* the group's elements relabelled by a random permutation, the identity
  included, and the relabelled group and representations written to a file
  and read back;
* rho replaced by U rho U* for a Haar-random unitary U;
* rho replaced by its conjugate, which has the same kind and indicator and
  is isomorphic to rho exactly when rho is not complex.

Kinds, dims and commutants must agree exactly; ``fs`` is held to 1e-12,
the bound fs_indicator_finite's docstring gives for a change of element
order.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from threefold.errors import ReducibleError
from threefold.representations import (
    FiniteGroup,
    FiniteGroupRep,
    RepKind,
    classify,
    commutant_dimension,
    dump_rep_file,
    fs_indicator_finite,
    intertwiner_dimension,
    load_rep_file,
)

from util import random_unitary_complex

ROOT = Path(__file__).resolve().parent.parent
SEED = 1105
FS_TOL = 1e-12  # fs_indicator_finite: independent of element order beyond 1e-12
SOURCES = ("z3", "z5", "s3", "q8", "d4", "dic15")


def _load_dicyclic():
    spec = importlib.util.spec_from_file_location("dicyclic", ROOT / "benchmarks" / "dicyclic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each source's file path: the shipped fixtures and a seeded Dic_15 file."""
    paths = {name: ROOT / "fixtures" / f"{name}.json" for name in SOURCES[:-1]}
    paths["dic15"] = tmp_path_factory.mktemp("invariance") / "dic15.json"
    _load_dicyclic().write_rep_file(paths["dic15"], 15, SEED)
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

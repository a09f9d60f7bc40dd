"""The number contract: every caller's array enters through ``hilbert._numbers``,
every caller's scalar through ``scalars._lift``.

A seeded differential test over the dtypes a caller can hand in.  Each public
constructor and reader of an array either builds or raises a ThreefoldError,
never a numpy exception and never a warning (warnings are errors here).  It
builds exactly when the contract admits the dtype: integer dtypes where
integers are due, integer and float ones where reals are, and those and
complex ones where complex numbers are.  What it builds from an admitted
dtype equals what it builds from the same values cast to the dtype it reads,
so nothing is read differently for its dtype.  A scalar reader takes a real
number (a complex one too where the field has it) and refuses a bool, a
string or anything else with a ThreefoldError or scalars' TypeError.
``FiniteGroupRep`` accepts exactly what ``load_rep_file`` accepts for the
same matrices, written in the file format.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from threefold.errors import ThreefoldError, ValidationError
from threefold.groups import cyclic_group, s3_group, s3_standard_rep
from threefold.hilbert import KMatrix, KVector, scalar_to_coeffs
from threefold.jordan import JordanElement, from_coords, hermitian_kind, spin_kind, unit
from threefold.representations import (
    FiniteGroup,
    FiniteGroupRep,
    InvariantBilinearForm,
    dump_rep_file,
    load_rep_file,
    structure_map_from_form,
)
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, Octonion, Quaternion, complex_part, conj, mul
from threefold.spectra import exp_group
from threefold.structures import AntilinearMap
from threefold.su2 import spin_matrix, twice_spin
from util import identity, random_skew_adjoint

DTYPES = ["bool", "int8", "int64", "uint8", "float32", "float64", "complex64", "complex128", "<U1",
          "None", "Fraction"]
DRAWS = 4


def _cast(values, dtype):
    """The real array ``values`` as ``dtype``: "None" and "Fraction" are object arrays of None or of each value."""
    if dtype in ("None", "Fraction"):
        out = np.empty(values.shape, dtype=object)
        for index, v in np.ndenumerate(values):
            out[index] = None if dtype == "None" else Fraction(v)
        return out
    return values.astype(dtype)


def _value(result):
    """The array a built object holds (a structure map's J), for comparison."""
    if isinstance(result, tuple):
        return _value(result[0])
    for name in ("coeffs", "data", "matrices", "matrix", "table"):
        if hasattr(result, name):
            return getattr(result, name)
    return np.asarray(result)


def _small(rng, *shape):
    return rng.integers(-2, 3, size=shape)


def _symmetric(rng):
    """A stack of 0 to 2 symmetric n x n real matrices as (k, n, n, 1) coefficients, n >= 1."""
    n = rng.integers(1, 4)
    a = rng.integers(-2, 3, size=(rng.integers(3), n, n, 1))
    return a + a.swapaxes(1, 2)


# name: (reader, the dtype it reads, values(rng) of any shape it takes,
# empty shapes included, every one valid in that dtype)
ANY_SHAPE = {
    "KVector": (lambda a: KVector(COMPLEXES, a), float, lambda rng: _small(rng, rng.integers(4), 2)),
    "KMatrix": (lambda a: KMatrix(QUATERNIONS, a), float,
                lambda rng: _small(rng, rng.integers(4), rng.integers(4), 4)),
    "KMatrix.from_real": (KMatrix.from_real, float, lambda rng: _small(rng, rng.integers(4), rng.integers(4))),
    "KMatrix.from_complex": (KMatrix.from_complex, complex,
                             lambda rng: _small(rng, rng.integers(4), rng.integers(4))),
    "AntilinearMap": (AntilinearMap, complex, lambda rng: _small(rng, *[rng.integers(4)] * 2)),
    "JordanElement spin": (lambda a: JordanElement(spin_kind(2), a), float,
                           lambda rng: _small(rng, *[rng.integers(3)] * rng.integers(2), 3)),
    "JordanElement hermitian": (lambda a: JordanElement(hermitian_kind(1, a.shape[-2]), a), float, _symmetric),
    "JordanElement.scale": (lambda a: unit(spin_kind(2)).scale(a), float,
                            lambda rng: _small(rng, *[rng.integers(4)] * rng.integers(2))),
    "from_coords": (lambda a: from_coords(spin_kind(2), a), float,
                    lambda rng: _small(rng, *[rng.integers(3)] * rng.integers(2), 3)),
}

_Z2_TRIVIAL = np.ones((2, 1, 1), dtype=int)

# name: (reader, the dtype it reads, a valid value, an empty value)
FIXED = {
    "FiniteGroup": (FiniteGroup, int, cyclic_group(3).table, np.zeros((0, 0), dtype=int)),
    "FiniteGroupRep": (lambda a: FiniteGroupRep(cyclic_group(2), a), complex, _Z2_TRIVIAL,
                       np.zeros((2, 0, 0), dtype=int)),
    "InvariantBilinearForm": (InvariantBilinearForm, complex, np.array([[1, 2], [2, 1]]),
                              np.zeros((0, 0), dtype=int)),
    "structure_map_from_form form": (lambda a: structure_map_from_form(a, _Z2_TRIVIAL), complex,
                                     np.eye(1, dtype=int), np.zeros((0, 0), dtype=int)),
    "structure_map_from_form operators": (lambda a: structure_map_from_form(np.eye(1), a), complex,
                                          _Z2_TRIVIAL, np.zeros((0, 1, 1), dtype=int)),
    "spin_matrix": (lambda a: spin_matrix(a, 1.5), complex, np.eye(2, dtype=int), np.zeros((0, 0), dtype=int)),
}

_KINDS = {int: "iu", float: "iuf", complex: "iufc"}


def _read(reader, arr):
    """``reader(arr)``, or the ThreefoldError it raises; any other exception propagates."""
    try:
        return reader(arr)
    except ThreefoldError as err:
        return err


def _check_contract(reader, reads, values, dtype):
    """Assert that ``reader`` builds from ``values`` as ``dtype`` exactly when the contract admits it."""
    arr = _cast(values, dtype)
    result = _read(reader, arr)
    if arr.dtype.kind in _KINDS[reads]:
        assert not isinstance(result, ThreefoldError), result
        # read the same as the values already in the dtype read
        assert np.array_equal(_value(result), _value(reader(arr.astype(reads))))
    else:
        assert isinstance(result, ValidationError) and str(result).endswith(f"got dtype {arr.dtype}")


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ANY_SHAPE)
def test_a_reader_of_any_shape_builds_exactly_what_the_contract_admits(name, dtype):
    reader, reads, draw = ANY_SHAPE[name]
    rng = np.random.default_rng([53, list(ANY_SHAPE).index(name), DTYPES.index(dtype)])
    for _ in range(DRAWS):
        _check_contract(reader, reads, draw(rng), dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", FIXED)
def test_a_validating_reader_builds_exactly_what_the_contract_admits(name, dtype):
    reader, reads, valid, empty = FIXED[name]
    _check_contract(reader, reads, valid, dtype)
    # an empty value builds or is refused, with the package's error
    _read(reader, _cast(empty, dtype))


# every array reader, each handed a ragged nested list of the depth it reads
RAGGED_READERS = {name: reader for name, (reader, *_) in {**ANY_SHAPE, **FIXED}.items()}
RAGGED_READERS["JordanElement hermitian"] = lambda a: JordanElement(hermitian_kind(1, 2), a)
RAGGED = {"depth 2": [[1, 0], [1]], "depth 3": [[[1.0]], [[1.0], [2.0]]]}


@pytest.mark.parametrize("ragged", RAGGED)
@pytest.mark.parametrize("name", RAGGED_READERS)
def test_a_ragged_nested_list_is_refused_by_every_array_reader(name, ragged):
    with pytest.raises(ValidationError, match="must be a rectangular array, got a ragged nested sequence"):
        RAGGED_READERS[name](RAGGED[ragged])


# one scalar of each dtype, a Python bool and a Python str beside the numpy ones
SCALARS = {
    "bool": True, "numpy-bool": np.bool_(True), "int8": np.int8(2), "int64": np.int64(2),
    "uint8": np.uint8(2), "float32": np.float32(0.5), "float64": np.float64(0.5),
    "complex64": np.complex64(0.5j), "complex128": np.complex128(0.5j), "str": "1",
    "<U1": np.str_("1"), "None": None, "Fraction": Fraction(1, 2),
}

_S = random_skew_adjoint(QUATERNIONS, 2, np.random.default_rng(53))

# name: (reader, whether it takes a complex scalar)
SCALAR_READERS = {
    "Quaternion": (Quaternion, False),
    "Octonion": (lambda x: Octonion(1.0, x), False),
    "Quaternion arithmetic": (lambda x: Quaternion(1.0, 2.0, 3.0, 4.0) * x - x, True),
    "mul": (lambda x: mul(x, Quaternion(0.0, 1.0)), True),
    "conj": (conj, True),
    "complex_part": (complex_part, True),
    "scalar_to_coeffs R": (lambda x: scalar_to_coeffs(REALS, x), False),
    "KVector.times C": (lambda x: KVector(COMPLEXES, [[1.0, 2.0]]).times(x), True),
    "KVector.times H": (lambda x: KVector(QUATERNIONS, [[1.0, 2.0, 3.0, 4.0]]).times(x), True),
    "KMatrix.scale": (lambda x: identity(COMPLEXES, 2).scale(x), False),
    "twice_spin": (twice_spin, False),
    "exp_group": (lambda x: exp_group(_S, x), False),
}


@pytest.mark.parametrize("scalar", SCALARS)
@pytest.mark.parametrize("name", SCALAR_READERS)
def test_a_scalar_reader_reads_each_number_in_its_own_field(name, scalar):
    reader, takes_complex = SCALAR_READERS[name]
    x = SCALARS[scalar]
    is_number = not isinstance(x, (bool, np.bool_, str)) and x is not None
    is_real = is_number and not np.iscomplexobj(x)
    try:
        result = reader(x)
    except (ThreefoldError, TypeError):
        assert not (is_real or (is_number and takes_complex))
        return
    assert is_real or (is_number and takes_complex)
    # the value read is the float, or the complex, of the number: no part dropped
    same = reader(float(x) if is_real else complex(x))
    assert np.array_equal(_value(result), _value(same))


# the matrix stacks of the file comparison: S3's standard rep has entries
# +-sqrt(3)/2, which float32 and the integer casts move off the unitary group
_STACKS = {
    "Z2 trivial": (cyclic_group(2), _Z2_TRIVIAL),
    "Z2 sign": (cyclic_group(2), np.array([1, -1]).reshape(2, 1, 1)),
    "S3 standard": (s3_group(), s3_standard_rep(s3_group()).matrices.real),
    "Z2 empty": (cyclic_group(2), np.zeros((2, 0, 0))),
}


def _leaf_pair(x):
    """An entry as the file's [re, im] pair, each leaf as the caller's own Python value."""
    return [x.real, x.imag] if isinstance(x, complex) else [x, 0]


def _write_rep(path, group, matrices):
    """The file load_rep_file reads for ``matrices``; a leaf JSON has no value for is written as a string."""
    doc = {
        "order": group.order,
        "mult": group.table.tolist(),
        "reps": [{"name": "rho", "dim": matrices.shape[1],
                  "matrices": [[[_leaf_pair(x) for x in row] for row in m] for m in matrices.tolist()]}],
    }
    path.write_text(json.dumps(doc, default=str))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("stack", _STACKS)
def test_the_constructor_accepts_exactly_what_the_file_loader_accepts(stack, dtype, tmp_path):
    group, values = _STACKS[stack]
    matrices = _cast(values, dtype)
    built = _read(lambda a: FiniteGroupRep(group, a), matrices)
    _write_rep(tmp_path / "rep.json", group, matrices)
    loaded = _read(load_rep_file, tmp_path / "rep.json")
    assert isinstance(built, ThreefoldError) == isinstance(loaded, ThreefoldError), (built, loaded)
    if not isinstance(built, ThreefoldError):
        assert np.array_equal(built.matrices, loaded[1][0][1].matrices)
        dump_rep_file(tmp_path / "dumped.json", group, [("rho", built)])
        assert np.array_equal(load_rep_file(tmp_path / "dumped.json")[1][0][1].matrices, built.matrices)

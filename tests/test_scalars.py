"""Division algebra arithmetic: frozen hand values, algebraic laws and the one norm."""

import math

import numpy as np
import pytest

from threefold.hilbert import KMatrix, KVector
from threefold.scalars import (
    COMPLEXES,
    FANO_LINES,
    QUATERNIONS,
    Octonion,
    Quaternion,
    _norms,
    complex_part,
    conj,
    inv,
    mul,
    mul_table,
    norm,
)

from util import is_close

ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def oct_unit(i):
    coeffs = np.zeros(8)
    coeffs[i] = 1.0
    return Octonion.from_array(coeffs)


def random_quaternion(rng):
    return Quaternion.from_array(rng.standard_normal(4))


def random_octonion(rng):
    return Octonion.from_array(rng.standard_normal(8))


# ---------------------------------------------------------------------------
# frozen hand values
# ---------------------------------------------------------------------------

def test_quaternion_units_multiply_cyclically():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE


def test_octonion_first_line():
    assert oct_unit(1) * oct_unit(2) == oct_unit(4)
    assert oct_unit(2) * oct_unit(1) == -oct_unit(4)


@pytest.mark.parametrize("line", FANO_LINES)
def test_octonion_fano_lines_are_oriented_cyclically(line):
    a, b, c = line
    assert oct_unit(a) * oct_unit(b) == oct_unit(c)
    assert oct_unit(b) * oct_unit(c) == oct_unit(a)
    assert oct_unit(c) * oct_unit(a) == oct_unit(b)
    assert oct_unit(b) * oct_unit(a) == -oct_unit(c)


def test_octonion_imaginary_units_square_to_minus_one():
    for i in range(1, 8):
        assert oct_unit(i) * oct_unit(i) == -oct_unit(0)


def test_norm_of_one_plus_i_plus_j_plus_k():
    assert norm(Quaternion(1.0, 1.0, 1.0, 1.0)) == pytest.approx(2.0, abs=1e-15)


def test_inverse_of_j():
    assert inv(J) == -J


def test_inverse_of_complex_scalar():
    assert inv(2 + 2j) == pytest.approx(0.25 - 0.25j, abs=1e-15)


def test_complex_part_of_quaternion():
    q = Quaternion(3.0, 4.0, 5.0, 6.0)
    assert complex_part(q) == pytest.approx(3.0 + 4.0j, abs=1e-15)


def test_complex_part_of_complex_and_real_numbers():
    assert complex_part(3.0 - 4.0j) == 3.0 - 4.0j
    z = complex_part(2.5)
    assert type(z) is complex and z == 2.5 + 0.0j


@pytest.mark.parametrize("cls", [Quaternion, Octonion])
def test_hypercomplex_sum_difference_and_mixed_number_operands(cls):
    x = cls(1.0, 2.0, 3.0, 4.0)
    y = cls(0.5, -1.0, 0.0, 2.0)
    assert x + y == cls(1.5, 1.0, 3.0, 6.0)
    assert x - y == cls(0.5, 3.0, 3.0, 2.0)
    assert 2 + x == x + 2.0 == cls(3.0, 2.0, 3.0, 4.0)
    assert 1 - x == cls(0.0, -2.0, -3.0, -4.0)
    assert 2.0 * x == x * 2 == cls(2.0, 4.0, 6.0, 8.0)
    # a complex number is the element a + b e1
    assert x + (1 + 1j) == cls(2.0, 3.0, 3.0, 4.0)
    assert 1j * cls(1.0) == cls(0.0, 1.0)
    with pytest.raises(TypeError):
        x - "1"


@pytest.mark.parametrize("cls", [Quaternion, Octonion])
def test_hypercomplex_division_is_product_with_the_inverse(cls):
    x = cls(1.0, 2.0, 3.0, 4.0)
    y = cls(0.0, 0.0, 2.0)
    assert is_close(x / y, x * inv(y), tol=0.0)
    assert is_close(x / 2, cls(0.5, 1.0, 1.5, 2.0), tol=0.0)
    assert is_close((x / y) * y, x, tol=1e-12)


@pytest.mark.parametrize("cls", [Quaternion, Octonion])
def test_equal_hypercomplex_values_hash_alike(cls):
    x, y = cls(1.0, -2.0), cls(1.0, -2.0)
    assert x is not y and hash(x) == hash(y)
    assert len({x, y, cls(1.0, 2.0)}) == 2


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        inv(Quaternion())
    with pytest.raises(ZeroDivisionError):
        inv(Octonion())
    with pytest.raises(ZeroDivisionError):
        inv(0.0)


def test_noncommutativity_witness():
    assert I * J != J * I


def test_nonassociativity_witness():
    e1, e2, e3 = oct_unit(1), oct_unit(2), oct_unit(3)
    assert (e1 * e2) * e3 != e1 * (e2 * e3)
    assert ((e1 * e2) * e3) == -(e1 * (e2 * e3))


# ---------------------------------------------------------------------------
# algebraic laws on random samples
# ---------------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.mark.parametrize("sampler", [random_quaternion, random_octonion])
def test_norm_is_multiplicative(rng, sampler):
    for _ in range(1000):
        x, y = sampler(rng), sampler(rng)
        assert abs(norm(mul(x, y)) - norm(x) * norm(y)) < 1e-12


@pytest.mark.parametrize("sampler", [random_quaternion, random_octonion])
def test_conjugation_is_an_anti_homomorphism(rng, sampler):
    for _ in range(200):
        x, y = sampler(rng), sampler(rng)
        assert is_close(conj(mul(x, y)), mul(conj(y), conj(x)), tol=1e-12)
        assert conj(conj(x)) == x


@pytest.mark.parametrize("sampler", [random_quaternion, random_octonion])
def test_x_times_conj_x_is_norm_squared(rng, sampler):
    for _ in range(200):
        x = sampler(rng)
        n2 = norm(x) ** 2
        prod = mul(x, conj(x))
        unit = type(x)(1.0)
        assert is_close(prod, unit * n2, tol=1e-12 * max(1.0, n2))


def test_octonion_alternativity(rng):
    for _ in range(500):
        x, y = random_octonion(rng), random_octonion(rng)
        left = mul(x, mul(x, y))
        right = mul(mul(x, x), y)
        assert is_close(left, right, tol=1e-12 * max(1.0, norm(x) ** 2 * norm(y)))
        left = mul(mul(y, x), x)
        right = mul(y, mul(x, x))
        assert is_close(left, right, tol=1e-12 * max(1.0, norm(x) ** 2 * norm(y)))


@pytest.mark.parametrize("sampler", [random_quaternion, random_octonion])
def test_inverse_really_inverts(rng, sampler):
    for _ in range(100):
        x = sampler(rng)
        if norm(x) < 1e-3:
            continue
        unit = type(x)(1.0)
        assert is_close(mul(x, inv(x)), unit, tol=1e-10)
        assert is_close(mul(inv(x), x), unit, tol=1e-10)


def test_complex_arithmetic_agrees_with_python(rng):
    for _ in range(100):
        x = complex(rng.standard_normal(), rng.standard_normal())
        y = complex(rng.standard_normal(), rng.standard_normal())
        assert mul(x, y) == x * y
        assert conj(x) == x.conjugate()
        assert norm(x) == pytest.approx(abs(x), abs=1e-15)


def test_structure_tables_are_locked():
    # identity row/column and the signature of squares, all four algebras
    for dim in (1, 2, 4, 8):
        t = mul_table(dim)
        assert t.shape == (dim, dim, dim)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            assert np.array_equal(np.einsum("a,b,abc->c", np.eye(dim)[0], e, t), e)
            assert np.array_equal(np.einsum("a,b,abc->c", e, np.eye(dim)[0], t), e)
        for j in range(1, dim):
            e = np.zeros(dim)
            e[j] = 1.0
            sq = np.einsum("a,b,abc->c", e, e, t)
            assert np.array_equal(sq, -np.eye(dim)[0])


# ---------------------------------------------------------------------------
# the one norm: exact under power-of-two scaling, np.linalg.norm's bits in range
# ---------------------------------------------------------------------------

# each normed value: its coefficient shape, its build from those coefficients
# and its norm, per item for the complex stack
NORMED = {
    "KMatrix": ((3, 3, 4), lambda c: KMatrix(QUATERNIONS, c), lambda x: x.norm()),
    "KVector": ((5, 2), lambda c: KVector(COMPLEXES, c), lambda x: x.norm()),
    "Quaternion": ((4,), Quaternion.from_array, lambda x: x.norm()),
    "Octonion": ((8,), Octonion.from_array, lambda x: x.norm()),
    "complex stack": ((6, 3, 3, 2), lambda c: c.view(complex)[..., 0], lambda z: _norms(z, 2)),
}


@pytest.mark.parametrize("power", [600, -700])
@pytest.mark.parametrize("name", NORMED)
def test_norm_scales_exactly_by_a_power_of_two(name, power, rng):
    # |x|^2 overflows at 2^600 and underflows to 0 at 2^-700
    shape, build, norm_of = NORMED[name]
    coeffs = rng.standard_normal(shape)
    scale = 2.0**power
    assert np.array_equal(norm_of(build(coeffs * scale)), scale * norm_of(build(coeffs)))


@pytest.mark.parametrize("name", NORMED)
def test_norm_in_the_normal_range_is_numpys_bit_for_bit(name, rng):
    shape, build, norm_of = NORMED[name]
    for exponent in (-100, 0, 100):
        coeffs = rng.standard_normal(shape) * 10.0**exponent
        items = coeffs.reshape(-1, *shape[-3:]) if name == "complex stack" else [coeffs]
        want = [np.linalg.norm(item) for item in items]
        assert np.array_equal(np.ravel(norm_of(build(coeffs))), want)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", NORMED)
def test_a_non_finite_entry_gives_a_non_finite_norm_without_a_warning(name, value, rng):
    # NaN stays NaN, an infinite entry gives inf; the other items of a stack keep their norms
    shape, build, norm_of = NORMED[name]
    coeffs = rng.standard_normal(shape)
    clean = np.ravel(norm_of(build(coeffs)))
    coeffs.reshape(-1)[0] = value
    got = np.ravel(norm_of(build(coeffs)))
    assert np.array_equal(got[:1], [abs(value)], equal_nan=True)
    assert np.array_equal(got[1:], clean[1:])


@pytest.mark.parametrize("scale", [1e-200, 1e200], ids=str)
@pytest.mark.parametrize("cls", [Quaternion, Octonion])
def test_norm_and_inverse_hold_across_the_float_range(cls, scale, rng):
    # |x|^2 underflows to 0 at 1e-200 and overflows at 1e200
    x = cls(scale, scale)
    want = math.hypot(scale, scale)
    assert abs(x.norm() - want) <= math.ulp(want)
    for x in (x, cls.from_array(rng.standard_normal(cls._dim) * scale)):
        assert np.abs((x * x.inverse()).coeffs - cls(1.0).coeffs).max() <= 1e-15

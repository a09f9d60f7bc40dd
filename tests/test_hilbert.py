"""Right-module linear algebra over R, C, H."""

import numpy as np
import pytest

from threefold.errors import PreconditionError, ShapeError
from threefold.hilbert import (
    KMatrix,
    KVector,
    _holds,
    _kproduct,
    _require_within,
    adjoint,
    eigh_complex,
    inner,
    is_unitary,
    scalar_from_coeffs,
    scalar_to_coeffs,
)
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, Quaternion, mul_table
from util import gram_schmidt, is_close, kvector, naive_kproduct

I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)

SYSTEMS = [REALS, COMPLEXES, QUATERNIONS]


def random_vector(system, n, rng):
    return KVector(system, rng.standard_normal((n, system.dim)))


def random_matrix(system, rows, cols, rng):
    return KMatrix(system, rng.standard_normal((rows, cols, system.dim)))


def random_scalar(system, rng):
    return scalar_from_coeffs(system, rng.standard_normal(system.dim))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ---------------------------------------------------------------------------
# frozen hand values
# ---------------------------------------------------------------------------

def test_inner_product_of_j_and_k():
    v = kvector(QUATERNIONS, [J])
    w = kvector(QUATERNIONS, [K])
    # conj(j) k = -j k = -i
    assert inner(v, w) == -I


def test_inner_shape_mismatch():
    v = kvector(REALS, [1.0, 2.0])
    w = kvector(REALS, [1.0])
    with pytest.raises(ShapeError):
        inner(v, w)


def test_adjoint_of_quaternionic_matrix():
    t = KMatrix.from_scalar_rows(QUATERNIONS, [[0.0, J], [0.0, 0.0]])
    expected = KMatrix.from_scalar_rows(QUATERNIONS, [[0.0, 0.0], [-J, 0.0]])
    assert is_close(t.adjoint(), expected, tol=0.0)


def test_gram_schmidt_two_step_example():
    for system in SYSTEMS:
        vs = [
            kvector(system, [1.0, 0.0]),
            kvector(system, [1.0, 1.0]),
        ]
        e = gram_schmidt(vs)
        assert is_close(e[0], kvector(system, [1.0, 0.0]), tol=1e-12)
        assert is_close(e[1], kvector(system, [0.0, 1.0]), tol=1e-12)


def test_gram_schmidt_normalizes_complex_vector():
    v = kvector(COMPLEXES, [1.0, 1j])
    (e,) = gram_schmidt([v])
    s = 1.0 / np.sqrt(2.0)
    assert is_close(e, kvector(COMPLEXES, [s, s * 1j]), tol=1e-12)


def test_gram_schmidt_rank_deficient():
    vs = [
        kvector(COMPLEXES, [1.0, 1j]),
        kvector(COMPLEXES, [2.0, 2j]),
    ]
    with pytest.raises(ValueError, match="linearly dependent"):
        gram_schmidt(vs)


def test_eigh_diagonal():
    a = KMatrix.from_complex(np.diag([3.0, 1.0]).astype(complex))
    w, _ = eigh_complex(a)
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)


def test_eigh_sigma_x():
    a = KMatrix.from_complex(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    w, v = eigh_complex(a)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    assert is_unitary(v)


def test_eigh_rejects_non_self_adjoint():
    a = KMatrix.from_complex(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(PreconditionError):
        eigh_complex(a)
    b = KMatrix.from_real(np.eye(2))
    with pytest.raises(PreconditionError):
        eigh_complex(b)


def test_the_guard_refuses_a_huge_defect_warning_free():
    # 1e308 / 1e-10 overflows: the worst element's excess is inf, with no
    # RuntimeWarning (the test configuration turns warnings into errors)
    with pytest.raises(PreconditionError, match="defect 1e\\+308, tol 1e-10") as err:
        _require_within(1e308, 1e-10, PreconditionError, "defect {defect:g}, tol {tol:g}")
    assert (err.value.defect, err.value.tol) == (1e308, 1e-10)
    # and an excess that overflows to inf is the worst of finite ones
    with pytest.raises(PreconditionError, match="element 1 ") as err:
        _require_within(np.array([1e300, 1e308, 1.0]), np.array([1.0, 1e-10, 1e-10]),
                        PreconditionError, "element {index} ")
    assert (err.value.defect, err.value.tol) == (1e308, 1e-10)


# ---------------------------------------------------------------------------
# the containers' shared methods and the complex layout
# ---------------------------------------------------------------------------

def _vector(system, rng):
    return random_vector(system, 3, rng)


def _matrix(system, rng):
    return random_matrix(system, 3, 2, rng)


CONTAINERS = pytest.mark.parametrize("make", [_vector, _matrix], ids=["KVector", "KMatrix"])


@CONTAINERS
@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_container_sum_difference_negation_and_norm(make, system, rng):
    x, y = make(system, rng), make(system, rng)
    for got, want in ((x + y, x.coeffs + y.coeffs), (x - y, x.coeffs - y.coeffs), (-x, -x.coeffs)):
        assert type(got) is type(x) and got.system == system
        assert np.array_equal(got.coeffs, want)
    assert x.norm() == float(np.linalg.norm(x.coeffs))
    assert (x - x).norm() == 0.0


@CONTAINERS
def test_container_is_close_compares_system_shape_and_entries(make, rng):
    x = make(COMPLEXES, rng)
    nudged = type(x)(COMPLEXES, x.coeffs + 1e-11)
    assert is_close(x, nudged) and not is_close(x, nudged, tol=1e-12)
    assert not is_close(x, type(x)(QUATERNIONS, np.zeros(x.coeffs.shape[:-1] + (4,))))
    assert not is_close(x, type(x)(COMPLEXES, np.zeros((4,) + x.coeffs.shape[1:])))


@CONTAINERS
def test_container_arithmetic_refuses_mixed_operands(make, rng):
    x = make(REALS, rng)
    with pytest.raises(ShapeError, match="mixed scalar systems"):
        x + make(COMPLEXES, rng)
    with pytest.raises(ShapeError, match="shape mismatch"):
        x - type(x)(REALS, np.zeros((4,) + x.coeffs.shape[1:]))


@CONTAINERS
def test_containers_are_immutable(make, rng):
    x = make(REALS, rng)
    for name in ("system", "coeffs", "other"):
        with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
            setattr(x, name, None)
    with pytest.raises(ValueError):
        x.coeffs[0] = 1.0


@pytest.mark.parametrize("cls, shape", [(KMatrix, (2, 2, 1)), (KVector, (2, 1))],
                         ids=["KMatrix", "KVector"])
def test_constructor_copies_the_callers_array(cls, shape):
    a = np.zeros(shape)
    x = cls(REALS, a)
    assert x.coeffs is not a and not np.shares_memory(x.coeffs, a)
    a[0, 0] = 5.0  # still the caller's to write
    assert x.coeffs[0, 0] == 0.0


def test_from_real_does_not_share_a_view_of_the_callers_array():
    a = np.eye(2)
    t = KMatrix.from_real(a)
    a[0, 0] = 5.0
    assert t.coeffs[0, 0, 0] == 1.0 and not np.shares_memory(t.coeffs, a)


def test_vector_entries_and_repr():
    v = kvector(QUATERNIONS, [J, 2.0])
    assert v.entry(0) == J and v.entry(1) == Quaternion(2.0)
    assert repr(v) == "KVector(H, [Quaternion(0, 0, 1, 0), Quaternion(2, 0, 0, 0)])"
    assert repr(KMatrix.zeros(COMPLEXES, 2, 3)) == "KMatrix(C, 2x3)"


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
def test_matrix_times_vector_is_apply(system, rng):
    t, v = random_matrix(system, 3, 2, rng), random_vector(system, 2, rng)
    got = t @ v
    assert type(got) is KVector and np.array_equal(got.coeffs, t.apply(v).coeffs)


def test_to_complex_keeps_signed_zeros_and_infinities():
    # 0 + inf i read as re + 1j * im would be nan + inf i, with a RuntimeWarning
    coeffs = np.array([[[0.0, np.inf], [-np.inf, -0.0]], [[-0.0, 1.0], [np.inf, -np.inf]]])
    t = KMatrix(COMPLEXES, coeffs)
    z = t.to_complex()
    want = np.array([[complex(0.0, np.inf), complex(-np.inf, -0.0)],
                     [complex(-0.0, 1.0), complex(np.inf, -np.inf)]])
    assert z.tobytes() == want.tobytes()
    assert z.flags.writeable and not np.shares_memory(z, t.coeffs)
    assert KMatrix.from_complex(z).coeffs.tobytes() == coeffs.tobytes()


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_from_complex_refuses_an_array_that_is_not_2d(shape):
    with pytest.raises(ShapeError):
        KMatrix.from_complex(np.zeros(shape, dtype=complex))


def test_from_complex_copies_its_input():
    z = np.eye(2, dtype=complex)
    t = KMatrix.from_complex(z)
    z[0, 0] = 5.0
    assert t.entry(0, 0) == 1.0


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("system", SYSTEMS)
def test_right_module_law(system, rng):
    for _ in range(50):
        v = random_vector(system, 4, rng)
        x, y = random_scalar(system, rng), random_scalar(system, rng)
        from threefold.scalars import mul

        assert is_close(v.times(x).times(y), v.times(mul(x, y)), tol=1e-10)


@pytest.mark.parametrize("system", SYSTEMS)
def test_operators_commute_with_right_scalars(system, rng):
    for _ in range(50):
        t = random_matrix(system, 3, 3, rng)
        v = random_vector(system, 3, rng)
        x = random_scalar(system, rng)
        assert is_close(t.apply(v.times(x)), t.apply(v).times(x), tol=1e-9)


@pytest.mark.parametrize("system", SYSTEMS)
def test_inner_product_sesquilinearity(system, rng):
    from threefold.scalars import conj, mul

    for _ in range(50):
        u = random_vector(system, 5, rng)
        v = random_vector(system, 5, rng)
        x = random_scalar(system, rng)
        # right linearity in the second slot
        lhs = inner(u, v.times(x))
        rhs = mul(inner(u, v), x)
        assert _scalar_close(lhs, rhs)
        # conjugate linearity in the first slot
        lhs = inner(u.times(x), v)
        rhs = mul(conj(x), inner(u, v))
        assert _scalar_close(lhs, rhs)
        # hermitian symmetry
        assert _scalar_close(inner(u, v), conj(inner(v, u)))


def _scalar_close(a, b, tol=1e-10):
    if isinstance(a, Quaternion):
        return is_close(a, b, tol)
    return abs(a - b) < tol


@pytest.mark.parametrize("system", SYSTEMS)
def test_adjoint_is_an_involutive_anti_homomorphism(system, rng):
    for _ in range(20):
        a = random_matrix(system, 3, 4, rng)
        b = random_matrix(system, 4, 2, rng)
        assert is_close(a.adjoint().adjoint(), a, tol=0.0)
        assert is_close((a @ b).adjoint(), b.adjoint() @ a.adjoint(), tol=1e-10)


@pytest.mark.parametrize("system", SYSTEMS)
def test_adjoint_moves_across_inner_product(system, rng):
    from threefold.scalars import conj

    for _ in range(30):
        t = random_matrix(system, 4, 4, rng)
        v = random_vector(system, 4, rng)
        w = random_vector(system, 4, rng)
        assert _scalar_close(inner(t.apply(v), w), inner(v, t.adjoint().apply(w)))


@pytest.mark.parametrize("system", SYSTEMS)
def test_predicates(system, rng):
    x = random_matrix(system, 3, 3, rng)
    h = x + x.adjoint()
    s = x - x.adjoint()
    assert _holds(h.coeffs, "self-adjoint")
    assert _holds(s.coeffs, "skew-adjoint")
    assert not _holds(s.coeffs, "self-adjoint") or s.norm() < 1e-12
    u = KMatrix.identity(system, 3)
    assert is_unitary(u)


def test_unit_quaternion_diagonal_is_unitary(rng):
    q = Quaternion.from_array(rng.standard_normal(4))
    q = Quaternion.from_array(np.array(q.coeffs) / q.norm())
    u = KMatrix.from_scalar_rows(QUATERNIONS, [[q, 0.0], [0.0, q]])
    assert is_unitary(u)


@pytest.mark.parametrize("system", SYSTEMS)
def test_gram_schmidt_orthonormalizes(system, rng):
    vs = [random_vector(system, 5, rng) for _ in range(4)]
    es = gram_schmidt(vs)
    for i, u in enumerate(es):
        for j, w in enumerate(es):
            expected = 1.0 if i == j else 0.0
            got = inner(u, w)
            if isinstance(got, Quaternion):
                assert is_close(got, Quaternion(expected), tol=1e-10)
            else:
                assert abs(got - expected) < 1e-10


def test_gram_schmidt_output_spans_input(rng):
    # every input vector is a right-combination of the output frame
    vs = [random_vector(QUATERNIONS, 4, rng) for _ in range(3)]
    es = gram_schmidt(vs)
    for v in vs:
        recon = KVector.zeros(QUATERNIONS, 4)
        for e in es:
            recon = recon + e.times(inner(e, v))
        assert is_close(recon, v, tol=1e-9)


def test_eigh_synthetic_reconstruction(rng):
    for n in (2, 3, 5, 8):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(z)
        d = np.sort(rng.standard_normal(n))
        a = u @ np.diag(d) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
        am = KMatrix.from_complex(a)
        w, v = eigh_complex(am)
        assert np.all(np.diff(w) >= -1e-12)
        assert np.allclose(w, d, atol=1e-9)
        vc = v.to_complex()
        recon = vc @ np.diag(w) @ vc.conj().T
        assert np.linalg.norm(recon - a) < 1e-9 * max(1.0, np.linalg.norm(a))
        assert is_unitary(v)


# ---------------------------------------------------------------------------
# the product kernel against the structure-table einsum
# ---------------------------------------------------------------------------

# (rows, inner, cols): square, rectangular, 1x1, 0-row and 0-inner operands
KERNEL_SHAPES = [(5, 5, 5), (3, 4, 2), (1, 1, 1), (0, 3, 2), (3, 0, 2)]


def _assert_matches_oracle(got, a, b, table):
    expected = naive_kproduct(a, b, table)
    assert got.shape == expected.shape
    tol = 1e-13 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b))
    assert np.all(np.abs(got - expected) <= tol)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
def test_kproduct_matches_the_einsum(dim, shape, rng):
    n, m, p = shape
    table = mul_table(dim)
    for _ in range(5):
        a = rng.standard_normal((n, m, dim))
        b = rng.standard_normal((m, p, dim))
        _assert_matches_oracle(_kproduct(a, b, table), a, b, table)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_stacked_kproduct_equals_the_2d_calls(dim, rng):
    # leading axes on both operands, then on one side only (broadcast)
    table = mul_table(dim)
    a = rng.standard_normal((3, 2, 4, 5, dim))
    b = rng.standard_normal((3, 2, 5, 2, dim))
    out = _kproduct(a, b, table)
    assert out.shape == (3, 2, 4, 2, dim)
    for i in np.ndindex(3, 2):
        assert np.array_equal(out[i], _kproduct(a[i], b[i], table))
    one_a, one_b = a[0, 0], b[0, 0]
    stacked_left = _kproduct(a, one_b, table)
    stacked_right = _kproduct(one_a, b, table)
    for i in np.ndindex(3, 2):
        assert np.array_equal(stacked_left[i], _kproduct(a[i], one_b, table))
        assert np.array_equal(stacked_right[i], _kproduct(one_a, b[i], table))


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
def test_apply_inner_and_times_match_the_einsum(system, shape, rng):
    n, m, _ = shape
    table = system.table
    for _ in range(5):
        t = random_matrix(system, n, m, rng)
        v = random_vector(system, m, rng)
        w = random_vector(system, m, rng)
        x = rng.standard_normal(system.dim)
        _assert_matches_oracle(t.apply(v).coeffs[:, None, :], t.coeffs, v.coeffs[:, None, :], table)
        got = scalar_to_coeffs(system, inner(v, w))
        conj_v = (v.coeffs * system.signs)[None]
        _assert_matches_oracle(got[None, None, :], conj_v, w.coeffs[:, None, :], table)
        scalar = scalar_from_coeffs(system, x)
        _assert_matches_oracle(
            v.times(scalar).coeffs[:, None, :], v.coeffs[:, None, :], x[None, None, :], table
        )

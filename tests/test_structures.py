"""The six scalar-system conversions and their structure maps."""

import tracemalloc

import numpy as np
import pytest

from threefold.errors import PreconditionError, ShapeError
from threefold.hilbert import KMatrix, KVector, _as_complex, inner
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, Quaternion
from threefold.structures import (
    AntilinearMap,
    RepKind,
    _complex_form,
    classify_tensor,
    complexify,
    quaternify,
    quaternify_real,
    structure_defect,
    tensor_antilinear,
    underlying_complex,
    underlying_real,
    underlying_real_quat,
)

from util import (
    HAND_LAYOUTS,
    dense_structure_defect,
    identity,
    is_close,
    is_unitary_within,
    left_multiplication_triple,
    random_kmatrix,
    random_kvector,
    real_form_basis,
    slice_complex_adjunct,
    zeros,
)

J_Q = Quaternion(0.0, 0.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


ALL_CONVERSIONS = [
    (complexify, REALS, 3),
    (underlying_real, COMPLEXES, 3),
    (underlying_complex, QUATERNIONS, 3),
    (quaternify, COMPLEXES, 3),
    (underlying_real_quat, QUATERNIONS, 3),
    (quaternify_real, REALS, 3),
]
# tests are named after the public factories, which are the conversion classes themselves
FACTORY_IDS = {
    complexify: "complexify",
    underlying_real: "underlying_real",
    underlying_complex: "underlying_complex",
    quaternify: "quaternify",
    underlying_real_quat: "underlying_real_quat",
    quaternify_real: "quaternify_real",
}


# ---------------------------------------------------------------------------
# frozen small cases
# ---------------------------------------------------------------------------

def test_underlying_real_of_multiplication_by_i():
    conv = underlying_real(1)
    t = KMatrix.from_complex(np.array([[1j]]))
    expected = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(conv.push(t).to_real(), expected)
    assert np.array_equal(conv.j.to_real(), expected)


def test_underlying_complex_structure_map_on_h1():
    conv = underlying_complex(1)
    # J(z1, z2) = (-conj z2, conj z1)
    assert np.array_equal(conv.j.matrix, np.array([[0.0, -1.0], [1.0, 0.0]]))
    v = np.array([2.0 + 1.0j, 3.0 - 4.0j])
    out = conv.j(v)
    assert np.allclose(out, [-(3.0 + 4.0j), 2.0 - 1.0j])


def test_underlying_complex_push_of_right_mult_j_matches_structure():
    conv = underlying_complex(1)
    t = KMatrix.from_scalar_rows(QUATERNIONS, [[J_Q]])
    assert np.allclose(conv.push(t).to_complex(), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_quaternify_structure_is_left_multiplication_by_i():
    conv = quaternify(2)
    assert conv.j.entry(0, 0) == Quaternion(0.0, 1.0)
    assert conv.j.entry(1, 1) == Quaternion(0.0, 1.0)
    assert is_close(conv.j @ conv.j, -identity(QUATERNIONS, 2), tol=0.0)


def test_quaternify_real_pair_products():
    conv = quaternify_real(2)
    prod = conv.j @ conv.k
    # jk = i entrywise
    assert prod.entry(0, 0) == Quaternion(0.0, 1.0)
    assert is_close(conv.j @ conv.k, -(conv.k @ conv.j), tol=0.0)


def test_dimension_laws():
    assert underlying_real(5).dim_out == 10
    assert underlying_complex(5).dim_out == 10
    assert underlying_real_quat(5).dim_out == 20
    assert complexify(5).dim_out == 5
    assert quaternify(5).dim_out == 5
    assert quaternify_real(5).dim_out == 5


# ---------------------------------------------------------------------------
# functor laws, uniformly over all six conversions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_push_is_an_algebra_homomorphism(make, system, n, rng):
    conv = make(n)
    for _ in range(10):
        a = random_kmatrix(system, n, n, rng)
        b = random_kmatrix(system, n, n, rng)
        assert is_close(conv.push(a @ b), conv.push(a) @ conv.push(b), tol=1e-10)
        assert is_close(conv.push(a.adjoint()), conv.push(a).adjoint(), tol=1e-10)
    eye_in = identity(system, n)
    assert is_close(conv.push(eye_in), identity(conv.push(eye_in).system, conv.push(eye_in).rows), tol=0.0)


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_push_acts_like_the_original_on_vectors(make, system, n, rng):
    conv = make(n)
    for _ in range(10):
        t = random_kmatrix(system, n, n, rng)
        v = random_kvector(system, n, rng)
        assert is_close(
            conv.push(t).apply(conv.push_vector(v)), conv.push_vector(t.apply(v)), tol=1e-10
        )


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_push_is_faithful(make, system, n, rng):
    conv = make(n)
    a = random_kmatrix(system, n, n, rng)
    b = random_kmatrix(system, n, n, rng)
    assert not np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(conv.push(a).coeffs, conv.push(b).coeffs)


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_pull_inverts_push(make, system, n, rng):
    conv = make(n)
    t = random_kmatrix(system, n, n, rng)
    assert is_close(conv.pull(conv.push(t)), t, tol=1e-12)


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_pull_inverts_push_on_a_zero_by_zero_operator(make, system, n):
    conv = make(0)
    s = zeros(system, 0, 0)
    assert conv.pull(conv.push(s)).coeffs.shape == (0, 0, system.dim)


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_pull_rejects_operators_off_the_image(make, system, n, rng):
    conv = make(n)
    out_system = conv.push(identity(system, n)).system
    bad = None
    # an operator violating the structure commutation cannot be pulled back
    for _ in range(20):
        cand = random_kmatrix(out_system, conv.dim_out, conv.dim_out, rng)
        try:
            conv.pull(cand)
        except PreconditionError:
            bad = cand
            break
    assert bad is not None


def test_pull_refusal_carries_its_defect_and_bound():
    # diag(1, 2) projects to 1.5 times the identity, 0.5 sqrt(2) away
    t = KMatrix.from_complex(np.diag([1.0, 2.0]))
    with pytest.raises(PreconditionError, match="defect 7.07e-01") as err:
        underlying_complex(1).pull(t)
    assert err.value.defect == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert err.value.tol == pytest.approx(1e-10 * np.sqrt(5.0), rel=1e-12)


def test_pull_image_test_at_its_bound():
    # [[0.5 + 1e-10 i]] is 1e-10 from push(0.5), exactly the bound 1e-10 max(1, |t|):
    # accepted at the bound, refused one ulp past it
    assert complexify(1).pull(KMatrix.from_complex([[0.5 + 1e-10j]])).coeffs.tolist() == [[[0.5]]]
    past = np.nextafter(1e-10, 1.0)
    with pytest.raises(PreconditionError, match="not in the image") as err:
        complexify(1).pull(KMatrix.from_complex([[complex(0.5, past)]]))
    assert (err.value.defect, err.value.tol) == (past, 1e-10)


def test_pull_holds_a_huge_operator_to_its_relative_bound(rng):
    # |t|^2 overflows at 1e160; the bound 1e-10 |t| stays finite and refuses a
    # move of 1e-5 |t| out of the image
    conv = underlying_complex(2)
    pushed = conv.push(random_kmatrix(QUATERNIONS, 2, 2, rng))
    off = unit_off_image(conv, QUATERNIONS, 2, rng)
    t = (pushed + off.scale(1e-5 * pushed.norm())).scale(1e160)
    with pytest.raises(PreconditionError, match="not in the image") as err:
        conv.pull(t)
    assert err.value.tol == 1e-10 * t.norm() and np.isfinite(err.value.tol)
    assert err.value.defect == pytest.approx(1e155 * pushed.norm(), rel=1e-9)


@pytest.mark.parametrize("k", [1021, 1022])
def test_pull_decides_the_image_test_of_a_huge_operator_as_at_its_unit_scale(k):
    # at 2^1022 every entry is finite but |t| is inf: the product with the
    # blocks overflowed and warned, and a bound of 1e-10 |t| would pass
    # anything.  The test is decided on t scaled back by a power of two:
    # the in-image t is accepted and recovered exactly, and the t moved 1e-5
    # |t| out of the image is refused with finite values in the same ratio
    conv, rng = underlying_complex(2), np.random.default_rng(3)
    s = random_kmatrix(QUATERNIONS, 2, 2, rng)
    pushed = conv.push(s)
    moved = pushed + unit_off_image(conv, QUATERNIONS, 2, rng).scale(1e-5 * pushed.norm())
    with pytest.raises(PreconditionError, match="not in the image") as unit_scale:
        conv.pull(moved)
    t = KMatrix(pushed.system, np.ldexp(pushed.coeffs, k))
    assert (t.norm() == np.inf) == (k == 1022)
    assert np.array_equal(conv.pull(t).coeffs, np.ldexp(s.coeffs, k))
    with pytest.raises(PreconditionError, match="not in the image") as err:
        conv.pull(KMatrix(moved.system, np.ldexp(moved.coeffs, k)))
    assert np.isfinite(err.value.defect) and np.isfinite(err.value.tol)
    assert err.value.defect / err.value.tol == unit_scale.value.defect / unit_scale.value.tol


def test_pull_of_a_tiny_operator_is_held_to_the_absolute_floor(rng):
    # |t|^2 is subnormal at 1e-160 (np.linalg.norm loses five digits there), and
    # the bound is 1e-10 max(1, |t|) = 1e-10: a move of 1e-5 |t| out of the
    # image lies far inside it and is accepted
    conv = underlying_complex(2)
    s = random_kmatrix(QUATERNIONS, 2, 2, rng)
    pushed = conv.push(s)
    off = unit_off_image(conv, QUATERNIONS, 2, rng)
    t = (pushed + off.scale(1e-5 * pushed.norm())).scale(1e-160)
    assert t.norm() == pytest.approx(1e-160 * pushed.norm(), rel=1e-9, abs=0.0)
    assert is_close(conv.pull(t).scale(1e160), s, tol=1e-12)


def test_pull_refuses_a_nan_operator():
    t = KMatrix.from_complex(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError, match="not in the image") as err:
        complexify(2).pull(t)
    # max(1, NaN) is 1: the bound stays finite
    assert np.isnan(err.value.defect) and err.value.tol == 1e-10


def test_pull_refuses_an_infinite_operator():
    # |t| is inf here because an entry is, and no power of two brings it back:
    # refused before the product, with no warning and the bound's finite floor
    t = KMatrix.from_complex(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError, match="not in the image") as err:
        complexify(2).pull(t)
    assert np.isnan(err.value.defect) and err.value.tol == 1e-10


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_pull_refuses_a_non_finite_entry_without_a_warning(make, system, n, value, rng):
    # one coefficient of an in-image operator made non-finite; the suite turns
    # a warning from the projection product into a failure
    conv = make(n)
    pushed = conv.push(random_kmatrix(system, n, n, rng))
    coeffs = pushed.coeffs.copy()
    coeffs[n - 1, 0, -1] = value
    with pytest.raises(PreconditionError, match="an entry is not finite") as err:
        conv.pull(KMatrix(pushed.system, coeffs))
    assert np.isnan(err.value.defect) and err.value.tol == 1e-10


def unit_off_image(conv, system, n, rng):
    """A unit operator orthogonal to the image of push, by least squares over a basis."""
    size = n * n * system.dim
    images = np.column_stack([
        conv.push(KMatrix(system, e.reshape(n, n, system.dim))).coeffs.ravel()
        for e in np.eye(size)
    ])
    target = conv.push(identity(system, n))
    r = rng.standard_normal(images.shape[0])
    off = r - images @ np.linalg.lstsq(images, r, rcond=None)[0]
    return KMatrix(target.system, (off / np.linalg.norm(off)).reshape(target.coeffs.shape))


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_pull_tolerance_is_relative_to_the_operand(make, system, n, rng):
    # accepted: a large operand, alone and with a 1e-12 relative off-image part
    # (about 1e-5 in absolute terms); refused: a 1e-8 relative off-image part
    conv = make(n)
    s = random_kmatrix(system, n, n, rng)
    off = unit_off_image(conv, system, n, rng)
    big = s.scale(1e6)
    pushed_big = conv.push(big)
    assert is_close(conv.pull(pushed_big), big, tol=1e-6)
    nudge = 1e-12 * pushed_big.norm()
    assert is_close(conv.pull(pushed_big + off.scale(nudge)), big, tol=1e-6 + nudge)
    pushed = conv.push(s)
    with pytest.raises(PreconditionError):
        conv.pull(pushed + off.scale(1e-8 * pushed.norm()))


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_push_preserves_unitarity(make, system, n, rng):
    conv = make(n)
    x = random_kmatrix(system, n, n, rng)
    s = x - x.adjoint()
    # Cayley transform of a skew-adjoint matrix is unitary; build it via
    # the complex or real form to avoid needing a quaternionic inverse here.
    if system == QUATERNIONS:
        c2 = underlying_complex(n)
        z = c2.push(s).to_complex()
        u = np.linalg.solve(np.eye(2 * n) - z, np.eye(2 * n) + z)
        um = c2.pull(KMatrix.from_complex(u))
    elif system == COMPLEXES:
        z = s.to_complex()
        u = np.linalg.solve(np.eye(n) - z, np.eye(n) + z)
        um = KMatrix.from_complex(u)
    else:
        z = s.to_real()
        u = np.linalg.solve(np.eye(n) - z, np.eye(n) + z)
        um = KMatrix.from_real(u)
    assert is_unitary_within(um, 1e-8)
    assert is_unitary_within(conv.push(um), 1e-8)


# ---------------------------------------------------------------------------
# structure maps commute with every pushed operator
# ---------------------------------------------------------------------------

def _structure_maps(conv):
    return [conv.j, conv.k] if hasattr(conv, "k") else [conv.j]


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=FACTORY_IDS.get)
def test_structure_maps_commute_with_pushforwards(make, system, n, rng):
    conv = make(n)
    for _ in range(10):
        t = conv.push(random_kmatrix(system, n, n, rng))
        for m in _structure_maps(conv):
            if isinstance(m, AntilinearMap):
                assert m.commutation_defect(t.to_complex()) < 1e-10 * max(1.0, t.norm())
            else:
                assert is_close(m @ t, t @ m, tol=1e-10 * max(1.0, t.norm()))


# (conversion, sign of J^2, number of structure maps): the two pair
# conversions carry J and K with J^2 = K^2 = -1
STRUCTURE_RELATIONS = [
    (complexify, +1, 1),
    (underlying_real, -1, 1),
    (underlying_complex, -1, 1),
    (quaternify, -1, 1),
    (underlying_real_quat, -1, 2),
    (quaternify_real, -1, 2),
]


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "make,sign,count", STRUCTURE_RELATIONS, ids=[FACTORY_IDS[m] for m, _, _ in STRUCTURE_RELATIONS]
)
def test_structure_map_relations_hold_exactly(make, sign, count, n):
    # the maps are built from the entries 0 and +-1, so every relation is exact
    maps = _structure_maps(make(n))
    assert len(maps) == count
    for m in maps:
        if isinstance(m, AntilinearMap):
            # J^2 = M conj(M); J is antiunitary when M is unitary
            eye = np.eye(m.n)
            assert np.array_equal(m.matrix @ np.conj(m.matrix), sign * eye)
            assert np.array_equal(m.matrix.conj().T @ m.matrix, eye)
            assert np.array_equal(m.matrix @ m.matrix.conj().T, eye)
            assert sign == +1 or m.n % 2 == 0
        else:
            eye = identity(m.system, m.rows).coeffs
            assert np.array_equal((m @ m).coeffs, sign * eye)
            assert np.array_equal((m.adjoint() @ m).coeffs, eye)
            assert np.array_equal((m @ m.adjoint()).coeffs, eye)
    if count == 2:
        j, k = maps
        assert np.array_equal((j @ k).coeffs, -(k @ j).coeffs)


# ---------------------------------------------------------------------------
# the block tables against the hand-written layouts of tests/util.py
# ---------------------------------------------------------------------------

MAKERS = [make for make, _, _ in ALL_CONVERSIONS]
MAKER_IDS = [FACTORY_IDS[make] for make in MAKERS]


def _same(got, want):
    if isinstance(want, AntilinearMap):
        return isinstance(got, AntilinearMap) and np.array_equal(got.matrix, want.matrix)
    return type(got) is type(want) and got.system == want.system and np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("make,system,_", ALL_CONVERSIONS, ids=MAKER_IDS)
def test_block_tables_match_the_hand_written_layouts(make, system, _, n, rng):
    conv = make(n)
    hand = HAND_LAYOUTS[conv.label](n)
    t = random_kmatrix(system, n, n, rng)
    v = random_kvector(system, n, rng)
    pushed = conv.push(t)
    assert _same(pushed, hand.push(t))
    assert _same(conv.push_vector(v), hand.push_vector(v))
    assert _same(conv.pull(pushed), hand.pull(pushed))
    assert np.array_equal(conv.pull(pushed).coeffs, t.coeffs)
    maps, hand_maps = _structure_maps(conv), hand.maps()
    assert len(maps) == len(hand_maps)
    assert all(_same(m, h) for m, h in zip(maps, hand_maps))
    off = unit_off_image(conv, system, n, rng)
    with pytest.raises(PreconditionError):
        conv.pull(pushed + off.scale(1e-6 * max(1.0, pushed.norm())))


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
def test_blocks_are_orthogonal_with_squared_norm_r(make):
    # the condition under which pull, the projection (1/r) <block, blocks[a]>, inverts push
    blocks = make(1).blocks
    gram = np.tensordot(blocks, blocks, axes=([1, 2, 3], [1, 2, 3]))
    assert np.array_equal(gram, blocks.shape[1] * np.eye(len(blocks)))


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids="RCH")
def test_complex_adjunct_matches_the_slice_built_layout(system, n, rng):
    # the complex form of a stack: the real matrices, the complex array, or
    # the hand-sliced adjunct, and each matrix pushed to C by its conversion
    stack = rng.standard_normal((3, n, n, system.dim))
    form = _complex_form(stack)
    if system is COMPLEXES:
        assert np.array_equal(form, _as_complex(stack))
        return
    oracle = stack[..., 0] if system is REALS else slice_complex_adjunct(stack)
    assert form.shape == oracle.shape and np.array_equal(form, oracle)
    conv = (complexify if system is REALS else underlying_complex)(n)
    assert np.array_equal(form, [_as_complex(conv.push(KMatrix(system, t)).coeffs) for t in stack])


@pytest.mark.parametrize("make,system,n", ALL_CONVERSIONS, ids=MAKER_IDS)
def test_structure_defect_by_blocks_matches_the_dense_maps(make, system, n, rng):
    conv = make(n)
    pushed = conv.push(random_kmatrix(system, n, n, rng))
    assert structure_defect(conv, pushed) == 0.0 == dense_structure_defect(conv, pushed)
    other = random_kmatrix(pushed.system, conv.dim_out, conv.dim_out, rng)
    defect = structure_defect(conv, other)
    assert defect > 0.1
    assert defect == pytest.approx(dense_structure_defect(conv, other), rel=1e-12)


def test_conversions_hold_only_their_blocks():
    # the dense structure maps are built on request, not by the constructor:
    # at the size bound they would take 116 MiB for the six conversions
    tracemalloc.start()
    try:
        conversions = [make(512) for make in MAKERS]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**20
    assert [hasattr(c, "k") for c in conversions] == [False] * 4 + [True] * 2
    for conv in conversions:
        assert not hasattr(conv, "jk") and not hasattr(conv, "")


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
def test_each_conversion_binds_its_methods_itself(make):
    # the per-layer tracer of benchmarks/layers.py wraps a method in the
    # namespace of the class that defines it, so none may be inherited
    assert {"__init__", "push", "push_vector", "pull"} <= set(vars(type(make(1))))


def test_underlying_complex_inner_product_compatibility(rng):
    conv = underlying_complex(4)
    for _ in range(20):
        v = random_kvector(QUATERNIONS, 4, rng)
        w = random_kvector(QUATERNIONS, 4, rng)
        quat = inner(v, w)
        cplx = inner(conv.push_vector(v), conv.push_vector(w))
        assert abs(quat.complex_part() - cplx) < 1e-12


def test_underlying_real_inner_product_compatibility(rng):
    conv = underlying_real(4)
    for _ in range(20):
        v = random_kvector(COMPLEXES, 4, rng)
        w = random_kvector(COMPLEXES, 4, rng)
        assert abs(inner(v, w).real - inner(conv.push_vector(v), conv.push_vector(w))) < 1e-12


# ---------------------------------------------------------------------------
# composite consistency: H^n -> C^2n -> R^4n equals H^n -> R^4n up to a
# signed permutation of coordinates
# ---------------------------------------------------------------------------

def _signed_permutation(n):
    p = np.eye(4 * n)
    for m in range(n):
        p[4 * m + 3, 4 * m + 3] = -1.0
    return p


def test_composite_realification_matches_direct(rng):
    n = 2
    via_c = underlying_complex(n)
    then_r = underlying_real(2 * n)
    direct = underlying_real_quat(n)
    p = _signed_permutation(n)
    for _ in range(10):
        t = random_kmatrix(QUATERNIONS, n, n, rng)
        composite = then_r.push(via_c.push(t)).to_real()
        assert np.allclose(p @ composite @ p, direct.push(t).to_real(), atol=1e-12)


def test_composite_carries_structure_maps_to_structure_maps():
    n = 2
    via_c = underlying_complex(n)
    then_r = underlying_real(2 * n)
    direct = underlying_real_quat(n)
    p = _signed_permutation(n)
    # right multiplication by j is the antilinear J upstairs; realified it is
    # realify(M) @ diag(1,-1,...) (conjugation realifies to the sign flip)
    conj_real = np.kron(np.eye(2 * n), np.diag([1.0, -1.0]))
    m_real = then_r.push(KMatrix.from_complex(via_c.j.matrix)).to_real()
    j_composite = m_real @ conj_real
    assert np.allclose(p @ j_composite @ p, direct.j.to_real(), atol=1e-12)
    # right multiplication by k is J after multiplication by the scalar i
    i_real = then_r.j.to_real()
    k_composite = j_composite @ i_real
    assert np.allclose(p @ k_composite @ p, direct.k.to_real(), atol=1e-12)


# ---------------------------------------------------------------------------
# fixed points, quaternion actions, tensor rule
# ---------------------------------------------------------------------------

def test_real_form_of_complexification_has_real_dimension_n():
    for n in (1, 2, 5):
        conv = complexify(n)
        basis = real_form_basis(conv.j)
        assert basis.shape[1] == n
        for col in basis.T:
            assert np.allclose(conv.j(col), col, atol=1e-9)


def test_real_form_of_a_rotated_real_structure(rng):
    # conjugate the standard structure by a random unitary; dimension persists
    from util import random_unitary_complex

    n = 4
    u = random_unitary_complex(n, rng)
    j = AntilinearMap(u @ u.T)  # (U J0 U^-1) with J0 = conj has matrix U U^T
    assert np.allclose(j.square(), np.eye(n), atol=1e-12) and is_unitary_within(j, 1e-12)
    basis = real_form_basis(j)
    assert basis.shape[1] == n
    for col in basis.T:
        assert np.allclose(j(col), col, atol=1e-9)


def test_left_multiplication_triple_satisfies_quaternion_relations():
    n = 2
    i_mat, j_map, k_map = left_multiplication_triple(underlying_complex(1).j)
    eye = np.eye(n)
    assert np.allclose(i_mat @ i_mat, -eye, atol=1e-12)
    assert np.allclose(j_map.square(), -eye, atol=1e-12)
    assert np.allclose(k_map.square(), -eye, atol=1e-12)
    # I J = K and J I = -K (composition applies the right factor first)
    ij = j_map.before_linear(i_mat)
    ji = j_map.after_linear(i_mat)
    assert np.allclose(ij.matrix, k_map.matrix, atol=1e-12)
    assert np.allclose(ji.matrix, -k_map.matrix, atol=1e-12)
    # J K = I
    assert np.allclose(j_map.compose_antilinear(k_map), i_mat, atol=1e-12)


# each operand method of a J on C^2, handed an operand sized for C^3
WRONG_SIZE = {
    "__call__": lambda j: j(np.ones(3)),
    "after_linear": lambda j: j.after_linear(np.eye(3)),
    "before_linear": lambda j: j.before_linear(np.eye(3)),
    "compose_antilinear": lambda j: j.compose_antilinear(AntilinearMap(np.eye(3))),
    "commutation_defect": lambda j: j.commutation_defect(np.eye(3)[None]),
    "anticommutation_defect": lambda j: j.anticommutation_defect(np.eye(3)),
}


@pytest.mark.parametrize("method", WRONG_SIZE)
def test_an_antilinear_operand_of_the_wrong_size_is_refused(method):
    # the constructor's error class, raised before a matmul could raise numpy's ValueError
    with pytest.raises(ShapeError, match="C\\^2|2x2"):
        WRONG_SIZE[method](AntilinearMap(np.eye(2)))


@pytest.mark.parametrize("s1", [+1, -1])
@pytest.mark.parametrize("s2", [+1, -1])
def test_tensor_structure_signs_multiply(s1, s2, rng):
    def structure_with_sign(s, n):
        if s == +1:
            return AntilinearMap(np.eye(n))
        return AntilinearMap(np.kron(np.eye(n // 2), [[0.0, -1.0], [1.0, 0.0]]))

    j1 = structure_with_sign(s1, 2)
    j2 = structure_with_sign(s2, 2)
    j = tensor_antilinear(j1, j2)
    assert np.allclose(j.square(), s1 * s2 * np.eye(4), atol=0.0)
    assert is_unitary_within(j, 1e-12)


def test_classify_tensor_table():
    r, c, q = RepKind.REAL, RepKind.COMPLEX, RepKind.QUATERNIONIC
    table = {
        (r, r): r,
        (r, c): c,
        (r, q): q,
        (c, r): c,
        (c, c): c,
        (c, q): c,
        (q, r): q,
        (q, c): c,
        (q, q): r,
    }
    for (k1, k2), expected in table.items():
        assert classify_tensor(k1, k2) is expected
    assert (r.value, c.value, q.value) == (1, 0, -1)


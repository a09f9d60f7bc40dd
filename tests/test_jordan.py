"""Jordan algebras: products, traces, cones, states, the h_2 coincidences.

Trace oracle: the library's trace is the real diagonal sum on matrix kinds
and 2t on spin factors; here it is held to rank/dim times the trace of the
left-multiplication operator L_a, built from Jordan products over the
coordinate basis.
"""

import numpy as np
import pytest

from threefold import jordan
from threefold.errors import (
    InternalInconsistencyError,
    ShapeError,
    UnsupportedError,
    ValidationError,
)
from threefold.jordan import (
    JordanElement,
    JordanKind,
    JordanState,
    check_jordan_identity,
    cone_margin,
    dual_cone_margin,
    from_coords,
    h2_spin_isomorphism,
    hermitian_kind,
    is_positive,
    jordan_product,
    max_ignorance,
    parse_kind,
    random_element,
    random_positive,
    spin_kind,
    state_eval,
    trace,
    trace_inner,
    unit,
)
from threefold.scalars import conj_signs, mul_table
from util import coordinate_basis, coords, is_close, naive_kproduct

ALL_KINDS = [
    hermitian_kind(1, 3),
    hermitian_kind(2, 3),
    hermitian_kind(4, 3),
    hermitian_kind(8, 3),
    hermitian_kind(2, 4),
    spin_kind(0),
    spin_kind(3),
    spin_kind(9),
]

EIGEN_KINDS = [k for k in ALL_KINDS if not (k.family == "hermitian" and k.scalar_dim == 8)]


def diagonal_sum(a):
    return float(sum(a.data[i, i, 0] for i in range(a.kind.n)))


def operator_trace(a):
    """Trace of L_a : b -> a o b on the real coordinate space."""
    basis = coordinate_basis(a.kind)
    return float(sum(coords(jordan_product(a, e))[k] for k, e in enumerate(basis)))


@pytest.fixture
def rng():
    return np.random.default_rng(31)


# ---------------------------------------------------------------------------
# kinds and elements
# ---------------------------------------------------------------------------

def test_kind_labels_roundtrip():
    for kind in ALL_KINDS:
        assert parse_kind(kind.label) == kind


def test_kind_validation():
    with pytest.raises(ValidationError):
        hermitian_kind(8, 4)
    with pytest.raises(ValidationError):
        hermitian_kind(3, 2)
    with pytest.raises(ValidationError):
        spin_kind(-1)
    with pytest.raises(ValidationError):
        parse_kind("banana:3")
    with pytest.raises(ValidationError):
        parse_kind("hC")
    # str.isdigit takes the superscript digits that int() refuses
    for label in ("hC:²", "spin:³"):
        with pytest.raises(ValidationError, match="cannot parse Jordan kind"):
            parse_kind(label)
    # a size reads as int() reads it, the rule of the CLI's --dim
    assert parse_kind("hC:٣") == hermitian_kind(2, 3)
    # int() would truncate 2.5 and 3.7, and raise ValueError on NaN, and
    # operator.index(True) is 1 (hermitian_kind(True, 3) was hR:3); a numpy
    # integer stays accepted, as an int
    for make in (lambda x: hermitian_kind(x, 3), lambda x: hermitian_kind(2, x), spin_kind,
                 lambda x: JordanKind("hermitian", x, 2)):
        for size in (2.5, 3.7, float("nan"), True, False, np.True_):
            with pytest.raises(ValidationError, match="must be an integer"):
                make(size)
        kind = make(np.int32(2))
        assert kind == make(2) and (type(kind.n), type(kind.scalar_dim)) == (int, int)


def test_kind_dimensions():
    assert hermitian_kind(2, 2).dim == 4
    assert hermitian_kind(8, 3).dim == 27
    assert spin_kind(9).dim == 10
    assert hermitian_kind(8, 3).rank == 3
    assert spin_kind(9).rank == 2


def test_elements_are_hermitian_by_storage(rng):
    a = random_element(hermitian_kind(4, 3), rng)
    assert np.array_equal(a.data[2, 1], a.data[1, 2] * np.array([1, -1, -1, -1]))
    assert a.data[1, 1, 1:].max() == 0.0
    with pytest.raises(ValueError):
        a.data[0, 0, 0] = 5.0


def test_non_hermitian_input_is_rejected():
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 0] = 1.0
    bad[1, 0, 0] = -1.0  # real part must be symmetric
    with pytest.raises(ValidationError):
        JordanElement(hermitian_kind(2, 2), bad)


def test_coords_roundtrip(rng):
    for kind in ALL_KINDS:
        a = random_element(kind, rng)
        again = from_coords(kind, coords(a))
        assert is_close(again, a, 1e-14)


def test_from_complex_accessors():
    sigma1 = JordanElement.from_complex([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sigma1.as_complex_matrix(), [[0, 1], [1, 0]])
    # the constructor's copy keeps a Fortran layout, whose (re, im) pairs are not adjacent
    fortran = JordanElement(sigma1.kind, np.asfortranarray(sigma1.data))
    assert np.array_equal(fortran.as_complex_matrix(), sigma1.as_complex_matrix())
    with pytest.raises(ValidationError):
        JordanElement.from_complex([[0.0, 1.0], [2.0, 0.0]])


def test_as_complex_matrix_keeps_signed_zeros_and_infinities():
    # coordinates (d_0, d_1, re a_01, im a_01); the lower entry is the conjugate
    a = from_coords(hermitian_kind(2, 2), [-0.0, np.inf, 0.0, np.inf])
    z = a.as_complex_matrix()
    want = np.array([[complex(-0.0, 0.0), complex(0.0, np.inf)],
                     [complex(0.0, -np.inf), complex(np.inf, 0.0)]])
    assert z.tobytes() == want.tobytes()
    assert z.flags.writeable and not np.shares_memory(z, a.data)


def test_rejection_reports_defect_and_bound():
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 0] = 1.0
    bad[1, 0, 0] = -1.0  # T - T* holds 2 and -2 off the diagonal, so the defect is 2 sqrt(2)
    with pytest.raises(ValidationError) as err:
        JordanElement(hermitian_kind(2, 2), bad)
    assert err.value.defect == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)
    assert err.value.tol == 1e-10 * np.linalg.norm(bad)  # relative to |data|_F = sqrt(2)
    plain = ValidationError("no measured defect")
    assert plain.defect is None and plain.tol is None


# ---------------------------------------------------------------------------
# exactness of closed operations
# ---------------------------------------------------------------------------

def assert_exact(element, *inputs):
    """Hermitian bit for bit, read-only, and sharing no memory with ``inputs``.

    Hermitian here means equal to its own hermitization, rebuilt below from
    the upper triangle with a zero imaginary diagonal.  array_equal
    identifies 0.0 with -0.0, which negation leaves on that diagonal.
    """
    data = element.data
    kind = element.kind
    if kind.family == "hermitian":
        rows, cols = np.triu_indices(kind.n, 1)
        diagonal = np.arange(kind.n)
        rebuilt = np.array(data)
        rebuilt[diagonal, diagonal, 1:] = 0.0
        rebuilt[cols, rows] = data[rows, cols] * conj_signs(kind.scalar_dim)
        assert np.array_equal(data, rebuilt)
        assert np.array_equal(data, jordan._hermitized(data, kind.n, kind.scalar_dim))
    assert not data.flags.writeable
    for other in inputs:
        assert not np.shares_memory(data, other)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_closed_operations_are_exact_read_only_and_fresh(kind, rng):
    for _ in range(5):
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        s = rng.standard_normal()
        assert_exact(jordan_product(a, b), a.data, b.data)
        assert_exact(jordan_product(a, a), a.data)
        assert_exact(a + b, a.data, b.data)
        assert_exact(a - b, a.data, b.data)
        assert_exact(-a, a.data)
        assert_exact(a.scale(s), a.data)
        assert_exact(a.scale(1.0), a.data)
        v = rng.standard_normal(kind.dim)
        assert_exact(from_coords(kind, v), v)
        assert_exact(random_positive(kind, rng))
    assert_exact(unit(kind), unit(kind).data)


def test_from_coords_copies_a_spin_vector():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    a = from_coords(spin_kind(3), v)
    v[0] = 99.0
    assert np.array_equal(a.data, [1.0, 2.0, 3.0, 4.0])


def test_closed_operations_skip_the_public_constructor(monkeypatch, rng):
    calls = []
    checked = JordanElement.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        checked(self, *args, **kwargs)

    monkeypatch.setattr(JordanElement, "__init__", counting)
    for kind in ALL_KINDS:
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        jordan_product(a, b)
        a + b
        a - b
        -a
        a.scale(2.0)
        unit(kind)
        random_positive(kind, rng)
        from_coords(kind, coords(a))
    for d in (1, 2, 4, 8):
        iso = h2_spin_isomorphism(d)
        x = random_element(iso.source, rng)
        y = random_element(iso.target, rng)
        assert_exact(iso(x), x.data)
        assert_exact(iso.inverse(y), y.data)
    assert calls == []
    JordanElement(a.kind, a.data)
    assert calls == [a.kind]


def test_product_check_still_fires(monkeypatch, rng):
    kind = hermitian_kind(2, 3)
    a = random_element(kind, rng)
    b = random_element(kind, rng)

    def upper_only(x, y, table):
        out = np.zeros_like(x)
        out[0, 1, 0] = 1.0  # no mirror entry below the diagonal
        return out

    monkeypatch.setattr(jordan, "_kproduct", upper_only)
    with pytest.raises(ValidationError) as err:
        jordan_product(a, b)
    assert err.value.defect == pytest.approx(np.sqrt(2.0), rel=1e-15)  # 1 above, -1 below
    # relative to |a|_F |b|_F, the scale of the product's rounding
    assert err.value.tol == pytest.approx(1e-10 * a.norm() * b.norm(), rel=1e-12)
    assert "not self-adjoint" in str(err.value)


# ---------------------------------------------------------------------------
# stacks: every operation acts per element, bit for bit
# ---------------------------------------------------------------------------

STACK = (2, 3)


def _stack(elements):
    """The elements as one (2, 3) stack, through the checked constructor."""
    data = np.stack([e.data for e in elements])
    return JordanElement(elements[0].kind, data.reshape(STACK + data.shape[1:]))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_stacked_operations_equal_the_per_element_results(kind, rng):
    size = int(np.prod(STACK))
    singles_a = [random_element(kind, rng) for _ in range(size)]
    singles_b = [random_element(kind, rng) for _ in range(size)]
    a, b = _stack(singles_a), _stack(singles_b)
    factors = rng.standard_normal(STACK)
    product, broadcast = jordan_product(a, b), jordan_product(singles_a[0], b)
    residual, norms, traces = check_jordan_identity(a, b), a.norm(), trace(a)
    margins = cone_margin(a) if kind in EIGEN_KINDS else None
    for k, i in enumerate(np.ndindex(STACK)):
        x, y = singles_a[k], singles_b[k]
        assert np.array_equal(product.data[i], jordan_product(x, y).data)
        assert np.array_equal(broadcast.data[i], jordan_product(singles_a[0], y).data)
        assert np.array_equal((a + b).data[i], (x + y).data)
        assert np.array_equal((a - b).data[i], (x - y).data)
        assert np.array_equal(a.scale(factors).data[i], x.scale(factors[i]).data)
        assert np.array_equal(from_coords(kind, coords(a)).data[i], x.data)
        assert residual[i] == check_jordan_identity(x, y)
        assert norms[i] == x.norm()
        assert traces[i] == trace(x)
        if margins is not None:
            assert margins[i] == cone_margin(x)
    assert isinstance(trace(singles_a[0]), float) and isinstance(singles_a[0].norm(), float)
    assert traces.shape == norms.shape == residual.shape == STACK


def test_stacks_of_different_shapes_do_not_mix(rng):
    kind = hermitian_kind(2, 2)
    a = from_coords(kind, rng.standard_normal((3, kind.dim)))
    b = from_coords(kind, rng.standard_normal((4, kind.dim)))
    with pytest.raises(ShapeError, match="do not broadcast"):
        jordan_product(a, b)
    with pytest.raises(ShapeError):
        JordanElement(kind, np.zeros((3, 2, 2)))
    with pytest.raises(ShapeError, match="one element"):
        dual_cone_margin(a, 3, np.random.default_rng(0))
    with pytest.raises(ShapeError, match="one element"):
        JordanState(a)


def test_product_check_names_the_spoiled_element(monkeypatch, rng):
    kind = hermitian_kind(2, 3)
    a = from_coords(kind, rng.standard_normal((4, kind.dim)))
    b = from_coords(kind, rng.standard_normal((4, kind.dim)))
    kernel = jordan._kproduct

    def spoil_one(x, y, table):
        out = kernel(x, y, table)
        out[2, 0, 1, 0] += 3.0  # upper entry of element 2 only, its mirror untouched
        return out

    table = mul_table(kind.scalar_dim)
    data = 0.5 * (spoil_one(a.data, b.data, table) + spoil_one(b.data, a.data, table))[2]
    defect = np.linalg.norm(data - data.swapaxes(0, 1) * conj_signs(kind.scalar_dim))
    bound = 1e-10 * np.linalg.norm(a.data[2]) * np.linalg.norm(b.data[2])
    monkeypatch.setattr(jordan, "_kproduct", spoil_one)
    with pytest.raises(ValidationError, match="not self-adjoint") as err:
        jordan_product(a, b)
    assert err.value.defect == pytest.approx(defect, rel=1e-12)
    assert err.value.tol == pytest.approx(bound, rel=1e-12)


def test_unpaired_adjunct_spectrum_in_one_element_raises(monkeypatch, rng):
    kind = hermitian_kind(4, 3)
    a = from_coords(kind, rng.standard_normal((4, kind.dim)))
    cone_margin(a)  # paired as built
    adjunct = jordan._complex_form

    def split_one(data):
        out = adjunct(data)
        out[1, 0, 0] += 2.0  # hermitian still, but no longer commuting with J
        return out

    monkeypatch.setattr(jordan, "_complex_form", split_one)
    with pytest.raises(InternalInconsistencyError, match="pairs") as err:
        cone_margin(a)
    assert err.value.defect > err.value.tol > 0.0


def test_a_nan_adjunct_spectrum_is_refused(monkeypatch):
    # eigvalsh of a NaN matrix returns finite values, so the NaN is put in the spectrum
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([np.nan, 1.0, 2.0, 2.0]))
    with pytest.raises(InternalInconsistencyError, match="pairs") as err:
        jordan._paired_eigenvalues(np.zeros((2, 2, 4)))
    # the bound scales with the spectral radius, NaN here too
    assert np.isnan(err.value.defect) and np.isnan(err.value.tol)


def test_blocks_cover_the_count_within_the_entry_budget(monkeypatch):
    kind = hermitian_kind(4, 3)
    monkeypatch.setattr(jordan, "_BLOCK_ENTRIES", 7 * 36)
    assert list(jordan._blocks(kind, 30)) == [7, 7, 7, 7, 2]
    big = hermitian_kind(4, 16)
    assert list(jordan._blocks(big, 3)) == [1, 1, 1]  # one sample when a sample is over budget


# ---------------------------------------------------------------------------
# the product
# ---------------------------------------------------------------------------

def test_pauli_product_vanishes():
    sigma1 = JordanElement.from_complex([[0, 1], [1, 0]])
    sigma3 = JordanElement.from_complex([[1, 0], [0, -1]])
    assert jordan_product(sigma1, sigma3).norm() == 0.0


def test_spin_factor_product_formula():
    a = JordanElement(spin_kind(3), [1.0, 0.0, 0.0, 1.0])
    b = JordanElement(spin_kind(3), [0.0, 1.0, 0.0, 1.0])
    out = jordan_product(a, b)
    assert np.allclose(out.data, [1.0, 1.0, 0.0, 1.0], atol=0.0)


def test_unit_law(rng):
    for kind in ALL_KINDS:
        a = random_element(kind, rng)
        assert is_close(jordan_product(a, unit(kind)), a, 1e-14)


def test_kind_mismatch_raises(rng):
    a = random_element(hermitian_kind(2, 3), rng)
    b = random_element(hermitian_kind(2, 4), rng)
    with pytest.raises(ShapeError):
        jordan_product(a, b)


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.family == "hermitian"], ids=str)
def test_product_matches_the_einsum(kind, rng):
    table = mul_table(kind.scalar_dim)
    for _ in range(5):
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        expected = 0.5 * (naive_kproduct(a.data, b.data, table) + naive_kproduct(b.data, a.data, table))
        tol = 1e-13 * (1.0 + a.norm() * b.norm())
        assert np.abs(jordan_product(a, b).data - expected).max() <= tol


def test_commutativity_is_exact(rng):
    for kind in ALL_KINDS:
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        assert np.array_equal(jordan_product(a, b).data, jordan_product(b, a).data)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_jordan_identity(kind, rng):
    for _ in range(20):
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        scale = max(1.0, a.norm() ** 3 * b.norm())
        assert check_jordan_identity(a, b) < 1e-9 * scale
    a = random_element(kind, rng)
    assert check_jordan_identity(a, a) < 1e-12 * max(1.0, a.norm() ** 4)


def test_spin_factor_identity_is_tight(rng):
    kind = spin_kind(9)
    for _ in range(20):
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        assert check_jordan_identity(a, b) < 1e-12 * max(1.0, a.norm() ** 3 * b.norm())


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_power_associativity(kind, rng):
    a = random_element(kind, rng)
    sq = jordan_product(a, a)
    lhs = jordan_product(sq, sq)
    rhs = jordan_product(a, jordan_product(a, sq))
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, a.norm() ** 4)


# ---------------------------------------------------------------------------
# trace and the trace form
# ---------------------------------------------------------------------------

def test_trace_matches_diagonal_sum(rng):
    for kind in ALL_KINDS:
        if kind.family != "hermitian":
            continue
        a = random_element(kind, rng)
        assert trace(a) == pytest.approx(diagonal_sum(a), abs=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_trace_is_the_normalized_operator_trace(kind, rng):
    for a in (unit(kind), random_element(kind, rng)):
        expected = kind.rank / kind.dim * operator_trace(a)
        assert trace(a) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_trace_on_spin_factor_is_2t(rng):
    a = random_element(spin_kind(5), rng)
    assert trace(a) == pytest.approx(2.0 * a.t, abs=1e-12)


def test_trace_of_unit_is_rank():
    assert trace(unit(hermitian_kind(2, 2))) == 2.0
    assert trace(unit(hermitian_kind(8, 3))) == 3.0
    assert trace(unit(spin_kind(9))) == 2.0


def test_trace_form_is_symmetric_and_positive(rng):
    for kind in ALL_KINDS:
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        assert trace_inner(a, b) == pytest.approx(trace_inner(b, a), abs=1e-12 * max(1.0, a.norm() * b.norm()))
        assert trace_inner(a, a) > 0.0
    zero = from_coords(kind, np.zeros(kind.dim))
    assert trace_inner(zero, zero) == 0.0


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def test_unit_is_positive():
    for kind in EIGEN_KINDS:
        assert is_positive(unit(kind))


def test_sigma3_is_not_positive():
    sigma3 = JordanElement.from_complex([[1, 0], [0, -1]])
    assert not is_positive(sigma3)
    assert cone_margin(sigma3) == pytest.approx(-1.0, abs=1e-12)


def test_lightcone_inequalities():
    assert is_positive(JordanElement(spin_kind(3), [0.6, 0.0, 0.0, 1.0]))
    assert not is_positive(JordanElement(spin_kind(3), [1.2, 0.0, 0.0, 1.0]))
    assert not is_positive(JordanElement(spin_kind(3), [0.0, 0.0, 0.0, -1.0]))


def test_quaternionic_positivity_via_adjunct():
    # [[2, j], [-j, 2]] has eigenvalues 1 and 3
    data = np.zeros((2, 2, 4))
    data[0, 0, 0] = data[1, 1, 0] = 2.0
    data[0, 1, 2] = 1.0
    data[1, 0, 2] = -1.0
    a = JordanElement(hermitian_kind(4, 2), data)
    assert is_positive(a)
    assert cone_margin(a) == pytest.approx(1.0, abs=1e-10)
    wide = a - unit(a.kind).scale(1.5)
    assert not is_positive(wide)


def test_octonionic_positivity_is_unsupported(rng):
    with pytest.raises(UnsupportedError):
        is_positive(random_element(hermitian_kind(8, 3), rng))


def test_boundary_has_zero_margin():
    edge = JordanElement(hermitian_kind(1, 2), np.diag([1.0, 0.0])[:, :, None])
    assert cone_margin(edge) == pytest.approx(0.0, abs=1e-12)
    assert not is_positive(edge)


# the maximal-ignorance state's coordinates with one made NaN or +inf: index
# 0 is a diagonal entry (x_0 on spin factors), index -1 an off-diagonal
# coefficient (t on spin factors)
NON_FINITE_KINDS = [hermitian_kind(1, 2), hermitian_kind(2, 2), hermitian_kind(4, 2), spin_kind(2)]


def _non_finite(kind, index, value):
    v = coords(max_ignorance(kind).element)
    v[index] = value
    return from_coords(kind, v)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("index", [0, -1], ids=["diagonal", "off-diagonal"])
@pytest.mark.parametrize("kind", NON_FINITE_KINDS, ids=str)
def test_a_non_finite_element_has_margin_nan_and_is_no_state(kind, index, value):
    a = _non_finite(kind, index, value)
    assert np.isnan(cone_margin(a))
    assert not is_positive(a, tol=-1.0)
    with pytest.raises(ValidationError) as err:
        JordanState(a)
    assert not np.isfinite(err.value.defect) and err.value.tol == jordan._STATE_TOL
    if np.isnan(value):
        assert np.isnan(err.value.defect)


@pytest.mark.parametrize("kind", NON_FINITE_KINDS, ids=str)
def test_a_non_finite_element_leaves_the_other_margins_of_its_stack_alone(kind, rng):
    v = rng.standard_normal((3, kind.dim))
    v[1, -1] = np.nan
    margins = cone_margin(from_coords(kind, v))
    assert np.isnan(margins[1])
    assert margins[[0, 2]].tolist() == [cone_margin(from_coords(kind, v[i])) for i in (0, 2)]


@pytest.mark.parametrize("seed", [0, 3, 4, 8, 9])
def test_cone_margin_of_an_element_scaled_by_2_to_the_1021(seed):
    # the margin is near -1e308, a float; a pair's mean a + b overflowed and
    # warned (warnings fail the tests).  LAPACK would rescale a matrix this
    # large by a factor that is not a power of two; cone_margin scales it by
    # an exact power of two first, so the margin scales exactly
    a = random_element(parse_kind("hH:3"), np.random.default_rng(seed))
    margin, expected = cone_margin(a.scale(2.0**1021)), np.ldexp(cone_margin(a), 1021)
    assert np.isfinite(expected) and abs(expected) > 2.0**1022
    assert margin == expected


def test_cone_is_pointed(rng):
    for kind in EIGEN_KINDS:
        for _ in range(5):
            a = random_element(kind, rng)
            assert not (is_positive(a) and is_positive(-a))


def test_congruence_preserves_positivity(rng):
    # homogeneity witness: a -> g a g* maps the cone into itself
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = random_positive(hermitian_kind(2, 3), rng)
        moved = JordanElement.from_complex(g @ a.as_complex_matrix() @ g.conj().T)
        assert is_positive(moved)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_max_ignorance_is_half_identity():
    rho = max_ignorance(hermitian_kind(2, 2))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 0] = 0.5
    assert np.array_equal(rho.element.data, expected)


def test_max_ignorance_spin_factor():
    rho = max_ignorance(spin_kind(4))
    assert np.array_equal(rho.element.data, [0, 0, 0, 0, 0.5])


def test_state_validation():
    with pytest.raises(ValidationError):
        JordanState(JordanElement.from_complex(np.diag([1.0, 1.0])))  # trace 2
    with pytest.raises(ValidationError):
        JordanState(JordanElement.from_complex(np.diag([1.5, -0.5])))  # not positive


def test_state_refusals_carry_their_defects_and_bound():
    with pytest.raises(ValidationError, match="trace") as err:
        JordanState(JordanElement.from_complex(np.diag([1.0, 1.0])))
    assert (err.value.defect, err.value.tol) == (1.0, jordan._STATE_TOL)
    # least eigenvalue -0.5: 0.5 below the cone
    with pytest.raises(ValidationError, match="positive") as err:
        JordanState(JordanElement.from_complex(np.diag([1.5, -0.5])))
    assert err.value.defect == pytest.approx(0.5, rel=1e-12)
    assert err.value.tol == jordan._STATE_TOL


@pytest.mark.parametrize("kind,coords", [
    (hermitian_kind(1, 2), [np.nan, 0.0, 0.0]),
    (spin_kind(2), [0.0, 0.0, np.nan]),
], ids=["hR:2", "spin:2"])
def test_a_state_of_nan_trace_is_refused(kind, coords):
    with pytest.raises(ValidationError, match="trace") as err:
        JordanState(from_coords(kind, coords))
    assert np.isnan(err.value.defect) and err.value.tol == jordan._STATE_TOL


def test_a_state_of_huge_trace_is_refused_warning_free():
    # the trace defect 1e308 over its bound 1e-10 overflows the guard's ratio:
    # the excess is inf, with no RuntimeWarning (warnings fail the tests)
    with pytest.raises(ValidationError, match="state trace is 1e\\+308") as err:
        JordanState(from_coords(hermitian_kind(1, 2), [1e308, 0.0, 0.0]))
    assert (err.value.defect, err.value.tol) == (1e308, jordan._STATE_TOL)


def test_a_state_of_nan_cone_margin_is_refused():
    # trace 2t = 1, and t - |x| is NaN
    with pytest.raises(ValidationError, match="positive") as err:
        JordanState(from_coords(spin_kind(2), [np.nan, 0.0, 0.5]))
    assert np.isnan(err.value.defect) and err.value.tol == jordan._STATE_TOL


def test_state_eval_basics(rng):
    for kind in ALL_KINDS:
        rho = max_ignorance(kind)
        assert state_eval(rho, unit(kind)) == pytest.approx(1.0, abs=1e-12)
        a = random_element(kind, rng)
        b = random_element(kind, rng)
        lhs = state_eval(rho, a + b.scale(2.0))
        rhs = state_eval(rho, a) + 2.0 * state_eval(rho, b)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, a.norm() + b.norm()))


def test_max_ignorance_evaluates_to_normalized_trace(rng):
    for kind in ALL_KINDS:
        rho = max_ignorance(kind)
        one = unit(kind)
        for _ in range(5):
            a = random_element(kind, rng)
            expected = trace(a) / trace(one)
            assert abs(state_eval(rho, a) - expected) < 1e-12 * max(1.0, abs(expected))


def test_positive_observables_have_positive_expectations(rng):
    rho = max_ignorance(hermitian_kind(2, 3))
    for _ in range(5):
        assert state_eval(rho, random_positive(rho.kind, rng)) > 0.0


# ---------------------------------------------------------------------------
# dual cone
# ---------------------------------------------------------------------------

def test_unit_has_positive_dual_margin():
    assert dual_cone_margin(unit(hermitian_kind(2, 2)), 50, np.random.default_rng(0)) > 0.0


def test_sigma3_fails_against_explicit_probe():
    sigma3 = JordanElement.from_complex([[1, 0], [0, -1]])
    probe = JordanElement.from_complex(np.diag([0.01, 1.0]))
    assert trace_inner(sigma3, probe) == pytest.approx(-0.99, abs=1e-12)
    assert dual_cone_margin(sigma3, 50, np.random.default_rng(0)) < 0.0


@pytest.mark.parametrize("block", [1000, 7])
def test_dual_margin_from_a_count_equals_the_explicit_probes(block, monkeypatch, rng):
    for kind in (hermitian_kind(4, 2), spin_kind(3)):
        entries = int(np.prod(unit(kind).data.shape))
        monkeypatch.setattr(jordan, "_BLOCK_ENTRIES", block * entries)
        a = random_element(kind, rng)
        probe_rng = np.random.default_rng(5)
        probes = [random_positive(kind, probe_rng) for _ in range(30)]
        assert dual_cone_margin(a, 30, np.random.default_rng(5)) == min(trace_inner(a, b) for b in probes)


def test_a_nan_pairing_in_a_later_block_is_the_dual_margin(monkeypatch):
    kind = spin_kind(3)
    monkeypatch.setattr(jordan, "_BLOCK_ENTRIES", 2 * kind.dim)
    pairing, calls = jordan.trace_inner, []

    def nan_in_the_second_block(a, b):
        calls.append(None)
        return pairing(a, b) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(jordan, "trace_inner", nan_in_the_second_block)
    assert np.isnan(dual_cone_margin(unit(kind), 6, np.random.default_rng(0)))
    assert len(calls) == 3


def test_self_duality_spot_check(rng):
    for kind in (hermitian_kind(2, 2), spin_kind(3)):
        a = random_positive(kind, rng)
        assert dual_cone_margin(a, 200, np.random.default_rng(5)) > 0.0


# ---------------------------------------------------------------------------
# h_2(K) as a spin factor
# ---------------------------------------------------------------------------

def test_h2_isomorphism_unit_and_sigma1():
    iso = h2_spin_isomorphism(2)
    assert np.array_equal(iso(unit(iso.source)).data, [0, 0, 0, 1.0])
    sigma1 = JordanElement.from_complex([[0, 1], [1, 0]])
    assert np.array_equal(iso(sigma1).data, [0, 1.0, 0, 0])


@pytest.mark.parametrize("scalar_dim", [1, 2, 4, 8])
def test_h2_isomorphism_is_a_jordan_homomorphism(scalar_dim, rng):
    iso = h2_spin_isomorphism(scalar_dim)
    assert iso.target == spin_kind(1 + scalar_dim)
    for _ in range(25):
        a = random_element(iso.source, rng)
        b = random_element(iso.source, rng)
        lhs = iso(jordan_product(a, b))
        rhs = jordan_product(iso(a), iso(b))
        assert (lhs - rhs).norm() < 1e-10 * max(1.0, a.norm() * b.norm())
        assert is_close(iso.inverse(iso(a)), a, 1e-13)
        assert is_close(iso(iso.inverse(iso(b))), iso(b), 1e-13)


@pytest.mark.parametrize("scalar_dim", [1, 2, 4])
def test_h2_isomorphism_preserves_the_cone_margin(scalar_dim, rng):
    # both sides are the least eigenvalue: of the matrix, and t - |x| of its spin image
    iso = h2_spin_isomorphism(scalar_dim)
    for _ in range(25):
        a = random_element(iso.source, rng)
        assert abs(cone_margin(iso(a)) - cone_margin(a)) <= 1e-12 * max(1.0, a.norm())


def test_h2_isomorphism_rejects_bad_input(rng):
    iso = h2_spin_isomorphism(4)
    with pytest.raises(ShapeError):
        iso(random_element(hermitian_kind(2, 3), rng))
    with pytest.raises(ShapeError):
        iso.inverse(random_element(spin_kind(3), rng))
    for scalar in (3, "C"):
        with pytest.raises(UnsupportedError):
            h2_spin_isomorphism(scalar)


@pytest.mark.parametrize("scalar_dim", [1, 2, 4, 8])
def test_h2_isomorphism_refuses_a_stack_in_both_directions(scalar_dim, rng):
    iso = h2_spin_isomorphism(scalar_dim)
    a = from_coords(iso.source, rng.standard_normal((3, iso.source.dim)))
    b = from_coords(iso.target, rng.standard_normal((3, iso.target.dim)))
    with pytest.raises(ShapeError, match="takes one element, got a stack"):
        iso(a)
    with pytest.raises(ShapeError, match="takes one element, got a stack"):
        iso.inverse(b)

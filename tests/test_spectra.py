"""One-parameter groups, the S = iA split, and spectrum symmetry."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from threefold import cli, spectra
from threefold.errors import (
    InternalInconsistencyError,
    PreconditionError,
    ShapeError,
    UnsupportedError,
)
from threefold.hilbert import MAX_SIZE, KMatrix, KVector, eigh_complex
from threefold.scalars import COMPLEXES, QUATERNION_UNITS, QUATERNIONS, REALS, Quaternion
from threefold.spectra import (
    exp_group,
    quaternionic_obstruction_witness,
    split_iA,
    symmetric_spectrum_check,
)
from threefold.structures import complexify, underlying_complex

from util import identity, is_close, is_unitary_within, random_skew_adjoint, zeros


@pytest.fixture
def rng():
    return np.random.default_rng(37)


def skew_rotation(theta):
    return KMatrix.from_real([[0.0, -theta], [theta, 0.0]])


# ---------------------------------------------------------------------------
# exp_group
# ---------------------------------------------------------------------------

def test_exp_of_zero_is_identity():
    for system in (REALS, COMPLEXES, QUATERNIONS):
        z = zeros(system, 3, 3)
        assert is_close(exp_group(z, 1.7), identity(system, 3), 1e-14)


def test_rotation_closed_form():
    theta = 0.8
    u = exp_group(skew_rotation(theta), 1.0)
    expected = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    assert np.allclose(u.to_real(), expected, atol=1e-13)


def test_group_law_all_systems(rng):
    for system, n in ((REALS, 4), (COMPLEXES, 3), (QUATERNIONS, 2)):
        s = random_skew_adjoint(system, n, rng)
        for _ in range(3):
            t1, t2 = rng.uniform(-2, 2, size=2)
            lhs = exp_group(s, t1 + t2)
            rhs = exp_group(s, t1) @ exp_group(s, t2)
            assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_inverse_at_negative_time(rng):
    s = random_skew_adjoint(QUATERNIONS, 3, rng)
    t = 0.9
    eye = identity(QUATERNIONS, 3)
    assert is_close(exp_group(s, t) @ exp_group(s, -t), eye, 1e-9)


def test_exponential_is_unitary(rng):
    for system in (REALS, COMPLEXES, QUATERNIONS):
        s = random_skew_adjoint(system, 3, rng)
        assert is_unitary_within(exp_group(s, 0.6), 1e-9)


def test_derivative_finite_difference(rng):
    s = random_skew_adjoint(COMPLEXES, 3, rng)

    def defect(h):
        diff = (exp_group(s, h) - exp_group(s, -h)).scale(1.0 / (2.0 * h))
        return (diff - s).norm()

    d3, d4 = defect(1e-3), defect(1e-4)
    assert d3 < 1e-4
    # quadratic decay: shrinking h tenfold divides the defect by about 100
    assert 30.0 < d3 / d4 < 300.0


@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids=lambda s: s.tag)
@pytest.mark.parametrize("n", [1, 3, 32])
def test_exp_matches_scipy_expm(system, n, rng):
    # scipy's scaling-and-squaring expm is the oracle; quaternionic operators
    # are compared on their underlying complex form
    conv = underlying_complex(n)
    s = random_skew_adjoint(system, n, rng)
    for t in (0.0, 0.7, -0.7, 5.0):
        u = exp_group(s, t)
        if system is REALS:
            got, want = u.to_real(), expm(t * s.to_real())
        elif system is COMPLEXES:
            got, want = u.to_complex(), expm(t * s.to_complex())
        else:
            got, want = conv.push(u).to_complex(), expm(t * conv.push(s).to_complex())
        assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + abs(t) * s.norm())


@pytest.mark.parametrize("system", [REALS, QUATERNIONS], ids=lambda s: s.tag)
@pytest.mark.parametrize("scale, t", [(1e6, 1.0), (1.0, 1e6)])
def test_exp_of_a_large_generator_is_not_refused(system, scale, t, rng):
    # |tS|_F = 1e6 leaves rounding of about 1e-9 outside S's system, which the
    # projection back drops; an image test relative to max(1, |U|_F) would
    # refuse most of these draws
    n = 4
    conv = underlying_complex(n) if system is QUATERNIONS else complexify(n)
    for _ in range(8):
        s = random_skew_adjoint(system, n, rng)
        s = s.scale(scale / s.norm())
        u = exp_group(s, t)
        assert u.system is system and is_unitary_within(u, 1e-9)
        want = expm(t * conv.push(s).to_complex())
        assert np.linalg.norm(conv.push(u).to_complex() - want) <= 1e-12 * abs(t) * s.norm()


@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids=lambda s: s.tag)
def test_exp_refuses_a_generator_that_is_not_skew(system, rng):
    s = random_skew_adjoint(system, 3, rng)
    with pytest.raises(PreconditionError):
        exp_group(s + identity(system, 3).scale(1e-6 * s.norm()), 0.5)


def test_real_exp_is_real_without_warning(rng):
    s = random_skew_adjoint(REALS, 5, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = exp_group(s, 1.3)
    assert u.system is REALS
    assert u.coeffs.dtype == np.float64
    assert u.coeffs.shape == (5, 5, 1)


def test_group_validation(rng):
    with pytest.raises(PreconditionError):
        exp_group(identity(REALS, 2), 1.0)
    with pytest.raises(ShapeError):
        exp_group(zeros(REALS, 2, 3), 1.0)


@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids=lambda s: s.tag)
def test_exp_of_a_zero_by_zero_generator_is_zero_by_zero(system):
    u = exp_group(zeros(system, 0, 0), 0.5)
    assert u.system is system and u.coeffs.shape == (0, 0, system.dim)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids=lambda s: s.tag)
def test_exp_refuses_a_non_finite_t_without_a_warning(system, t, rng):
    with pytest.raises(PreconditionError, match="finite t"):
        exp_group(random_skew_adjoint(system, 3, rng), t)


# float() read "1" and True as t = 1; a complex t raised float()'s TypeError
@pytest.mark.parametrize("t", ["1", True, np.bool_(True), 1j, np.complex64(1)],
                         ids=["str", "bool", "numpy-bool", "complex", "numpy-complex"])
def test_exp_refuses_a_t_that_is_not_a_real_number(t, rng):
    with pytest.raises(PreconditionError, match="t must be a real number"):
        exp_group(random_skew_adjoint(REALS, 3, rng), t)


@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids=lambda s: s.tag)
def test_exp_refuses_a_t_whose_product_with_s_passes_the_largest_float(system):
    # t = 1e308 warned "overflow encountered in multiply" at 1j * t * m, m the
    # complex form of S, and a t just within |t| max|m| <= the largest float
    # still warned "invalid value" once |t m|_F passed it.  The refusal comes
    # before any product, with |t| as defect and the largest |t| as tol
    s = random_skew_adjoint(system, 3, np.random.default_rng(4100)).scale(8.0)
    with pytest.raises(PreconditionError, match="past the largest float") as refused:
        exp_group(s, 1e308)
    bound = refused.value.tol
    assert refused.value.defect == 1e308 and np.isfinite(bound)
    # tol |m|_F is the largest float, to rounding; taken at a quarter so nothing overflows
    m_norm = np.sqrt(2.0) * s.norm() if system is QUATERNIONS else s.norm()
    assert abs(bound / 4 * m_norm / (np.finfo(float).max / 4) - 1.0) <= 1e-15
    # finite, with no warning; past |tS|_F of about 1e6 the projection back to
    # S's system drops rounding of order eps |tS|_F, so U need not be unitary
    for t in (bound, -bound):
        u = exp_group(s, t)
        assert u.system is system and np.isfinite(u.coeffs).all()
    with pytest.raises(PreconditionError, match="past the largest float") as refused:
        exp_group(s, np.nextafter(bound, np.inf))
    assert refused.value.tol == bound


@pytest.mark.parametrize("system", [REALS, COMPLEXES, QUATERNIONS], ids=lambda s: s.tag)
def test_exp_of_a_generator_whose_norm_passes_the_largest_float(system):
    # |S|_F is inf at the largest k that keeps S finite, but |t| |S|_F is a
    # float: the bound is taken exactly, and exp(t 2^-k S 2^k) is exp(t S) bit
    # for bit
    s = random_skew_adjoint(system, 3, np.random.default_rng(4101))
    k = 1024 - np.frexp(np.abs(s.coeffs).max())[1]
    big = KMatrix(system, np.ldexp(s.coeffs, k))
    assert big.norm() == np.inf
    # t 2^-k stays a normal float, so that it keeps every bit of t
    assert np.array_equal(exp_group(big, np.ldexp(100.7, -k)).coeffs, exp_group(s, 100.7).coeffs)
    with pytest.raises(PreconditionError, match="past the largest float") as refused:
        exp_group(big, 1.0)
    assert refused.value.defect == 1.0 and 0.0 < refused.value.tol < 1.0


# ---------------------------------------------------------------------------
# split_iA
# ---------------------------------------------------------------------------

def test_split_one_by_one():
    s = KMatrix.from_complex([[1j]])
    assert np.allclose(split_iA(s).to_complex(), [[1.0]])


def test_split_i_sigma3():
    s = KMatrix.from_complex([[1j, 0], [0, -1j]])
    assert np.allclose(split_iA(s).to_complex(), [[1.0, 0.0], [0.0, -1.0]])


def test_split_reconstructs_exactly(rng):
    s = random_skew_adjoint(COMPLEXES, 4, rng)
    a = split_iA(s)
    back = KMatrix.from_complex(1j * a.to_complex())
    assert np.array_equal(back.coeffs, s.coeffs)


def test_split_rejects_real_and_quaternionic(rng):
    with pytest.raises(UnsupportedError):
        split_iA(random_skew_adjoint(REALS, 2, rng))
    with pytest.raises(UnsupportedError):
        split_iA(random_skew_adjoint(QUATERNIONS, 2, rng))
    with pytest.raises(PreconditionError):
        split_iA(identity(COMPLEXES, 2))


# ---------------------------------------------------------------------------
# the quaternionic obstruction
# ---------------------------------------------------------------------------

def test_witness_for_right_multiplication_generator():
    s = KMatrix.from_scalar_rows(QUATERNIONS, [[Quaternion(0, 1, 0, 0)]])
    report = quaternionic_obstruction_witness(s)
    assert report.found
    assert report.defect > report.threshold
    # the defect of A(v) = S(v) i against right j-multiplication is 2 |S(v)|
    assert report.defect == pytest.approx(2.0 * s.apply(report.vector).norm(), abs=1e-12)


def test_witness_for_random_generators(rng):
    for n in (1, 2, 4):
        s = random_skew_adjoint(QUATERNIONS, n, rng)
        report = quaternionic_obstruction_witness(s)
        assert report.found
        assert report.defect > 0.1 * s.norm() * report.vector.norm()


def test_a_nan_witness_defect_is_refused(monkeypatch):
    # a lower bound: a NaN defect is no witness (the skew-adjoint check, which
    # would refuse this S first, is skipped)
    monkeypatch.setattr(spectra, "_require_skew", lambda s: None)
    s = KMatrix(QUATERNIONS, np.full((2, 2, 4), np.nan))
    with pytest.raises(InternalInconsistencyError, match="no obstruction vector") as err:
        quaternionic_obstruction_witness(s)
    assert np.isnan(err.value.defect) and np.isnan(err.value.tol)


@pytest.mark.parametrize("n", [1, MAX_SIZE])
def test_witness_at_the_size_bounds(n):
    # the threshold 0.1 |S|_F |v| / sqrt(n) scales like the attainable
    # defect 2 |S v|, so a nonzero generator is witnessed at every size
    s = random_skew_adjoint(QUATERNIONS, n, np.random.default_rng(n))
    report = quaternionic_obstruction_witness(s)
    assert report.found
    assert report.defect > report.threshold
    assert report.threshold == pytest.approx(0.1 * s.norm() * report.vector.norm() / np.sqrt(n))
    assert report.defect == pytest.approx(2.0 * s.apply(report.vector).norm(), rel=1e-12)


def basis_loop_defects(s):
    """Oracle: |A(e_k j) - A(e_k) j| for each standard basis vector e_k, one vector at a time."""
    unit_i, unit_j = QUATERNION_UNITS["i"], QUATERNION_UNITS["j"]
    defects = []
    for k in range(s.rows):
        v = KVector.basis(QUATERNIONS, s.rows, k)
        lhs = s.apply(v.times(unit_j)).times(unit_i)
        rhs = s.apply(v).times(unit_i).times(unit_j)
        defects.append((lhs - rhs).norm())
    return np.array(defects)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64, MAX_SIZE])
def test_basis_witness_matches_the_closed_form(n, rng):
    s = random_skew_adjoint(QUATERNIONS, n, rng)
    report = quaternionic_obstruction_witness(s)
    defects = basis_loop_defects(s)
    # A(v j) - A(v) j = -2 S(v) k, so each basis defect is 2 |S e_k|, twice column k's norm
    columns = np.array([KVector(QUATERNIONS, s.coeffs[:, k]).norm() for k in range(n)])
    assert np.allclose(defects, 2.0 * columns, rtol=1e-15, atol=0.0)
    best = int(np.argmax(defects))
    assert np.array_equal(report.vector.coeffs, KVector.basis(QUATERNIONS, n, best).coeffs)
    assert report.defect == pytest.approx(defects[best], rel=1e-15)
    assert report.threshold == pytest.approx(0.1 * s.norm() / np.sqrt(n), rel=1e-15)
    # some |S e_k| >= |S|_F / sqrt(n): the best clears the threshold twentyfold
    assert report.defect >= 20.0 * (1.0 - 1e-12) * report.threshold


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300], ids=str)
def test_witness_of_a_generator_whose_squared_norm_leaves_the_float_range(scale):
    # |S|_F^2 overflows (or underflows to 0) at these scales; the norms are the
    # package's one norm, so the witness is that of the unscaled S, scaled,
    # with no warning (warnings fail the tests)
    s = random_skew_adjoint(QUATERNIONS, 3, np.random.default_rng(8))
    base = quaternionic_obstruction_witness(s)
    report = quaternionic_obstruction_witness(KMatrix(QUATERNIONS, s.coeffs * scale))
    assert report.found
    assert np.array_equal(report.vector.coeffs, base.vector.coeffs)
    assert report.defect == pytest.approx(base.defect * scale, rel=1e-14)
    assert report.threshold == pytest.approx(base.threshold * scale, rel=1e-14)


def test_witness_whose_defect_passes_the_largest_float_is_inf():
    # |S|_F = 1.2e308 sqrt(2) is a float, but the defect 2 |S e_k| = 2.4e308 is
    # not: it is inf, against a finite threshold, with no warning
    coeffs = np.zeros((2, 2, 4))
    coeffs[0, 1, 0], coeffs[1, 0, 0] = 1.2e308, -1.2e308
    report = quaternionic_obstruction_witness(KMatrix(QUATERNIONS, coeffs))
    assert report.found and report.defect == np.inf
    assert report.threshold == pytest.approx(0.1 * 1.2e308, rel=1e-15)


def test_witness_of_a_generator_whose_norm_passes_the_largest_float():
    # |S|_F = 2.4e308 is inf, and so was the threshold, so the witness raised
    # InternalInconsistencyError; the search now runs on S 2^-1024 and
    # reports its defect and threshold times 2^1024
    a = 1.2e308
    coeffs = np.zeros((2, 2, 4))
    coeffs[0, 1, :2], coeffs[1, 0, :2] = (a, a), (-a, a)
    report = quaternionic_obstruction_witness(KMatrix(QUATERNIONS, coeffs))
    base = quaternionic_obstruction_witness(KMatrix(QUATERNIONS, np.ldexp(coeffs, -1024)))
    assert report.found and np.array_equal(report.vector.coeffs, base.vector.coeffs)
    # 2 |S e_0| = 2 sqrt(2) a is past the largest float; 0.1 |S|_F / sqrt(2) is not
    assert report.defect == np.inf
    assert report.threshold == np.ldexp(base.threshold, 1024) == pytest.approx(0.1 * np.sqrt(2.0) * a, rel=1e-15)


@pytest.mark.parametrize("k", [900, 1020])
def test_witness_of_a_scaled_generator_is_the_scaled_witness(k):
    # at 2^1020 the entries are near 1e307 and |S|_F is inf; at both scales
    # the report is that of S, times 2^k exactly
    s = random_skew_adjoint(QUATERNIONS, 6, np.random.default_rng(0))
    base = quaternionic_obstruction_witness(s)
    scaled = KMatrix(QUATERNIONS, np.ldexp(s.coeffs, k))
    assert (scaled.norm() == np.inf) == (k == 1020)
    report = quaternionic_obstruction_witness(scaled)
    assert report.found and np.array_equal(report.vector.coeffs, base.vector.coeffs)
    assert (report.defect, report.threshold) == (np.ldexp(base.defect, k), np.ldexp(base.threshold, k))


def test_witness_memory_is_bounded_at_the_size_bound():
    # a few (n, n, 4) arrays of right multiples of S, 8 MB each at n = 512
    s = random_skew_adjoint(QUATERNIONS, MAX_SIZE, np.random.default_rng(3))
    tracemalloc.start()
    try:
        report = quaternionic_obstruction_witness(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.found
    assert peak <= 30e6


def test_witness_reports_the_first_basis_vector_of_largest_defect():
    # S = diag(10 i, 10 i, 0) has two basis vectors of defect 20; with a
    # heavier third column, that one is reported
    coeffs = np.zeros((3, 3, 4))
    coeffs[0, 0, 1] = coeffs[1, 1, 1] = 10.0
    report = quaternionic_obstruction_witness(KMatrix(QUATERNIONS, coeffs))
    assert np.array_equal(report.vector.coeffs, KVector.basis(QUATERNIONS, 3, 0).coeffs)
    assert report.defect == 20.0
    coeffs[2, 2, 1] = 11.0
    report = quaternionic_obstruction_witness(KMatrix(QUATERNIONS, coeffs))
    assert np.array_equal(report.vector.coeffs, KVector.basis(QUATERNIONS, 3, 2).coeffs)
    assert report.defect == 22.0


def test_zero_generator_has_no_witness():
    report = quaternionic_obstruction_witness(zeros(QUATERNIONS, 2, 2))
    assert not report.found
    assert report.vector is None


def test_witness_rejects_wrong_inputs(rng):
    with pytest.raises(UnsupportedError):
        quaternionic_obstruction_witness(random_skew_adjoint(COMPLEXES, 2, rng))
    with pytest.raises(PreconditionError):
        quaternionic_obstruction_witness(identity(QUATERNIONS, 2))


# ---------------------------------------------------------------------------
# spectrum symmetry
# ---------------------------------------------------------------------------

def test_real_rotation_spectrum():
    report = symmetric_spectrum_check(skew_rotation(1.0))
    assert np.allclose(report.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert report.pairing_defect < 1e-12
    assert report.eigenvector_defect < 1e-10


def test_zero_generator_spectrum():
    report = symmetric_spectrum_check(zeros(REALS, 3, 3))
    assert np.allclose(report.eigenvalues, 0.0)


def test_quaternionic_unit_spectrum():
    s = KMatrix.from_scalar_rows(QUATERNIONS, [[Quaternion(0, 1, 0, 0)]])
    report = symmetric_spectrum_check(s)
    assert np.allclose(report.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_spectrum_symmetry_randomized(rng):
    for n in range(2, 9):
        s = random_skew_adjoint(REALS, n, rng)
        report = symmetric_spectrum_check(s)
        assert report.pairing_defect < 1e-8 * max(1.0, s.norm())
    for n in range(1, 5):
        s = random_skew_adjoint(QUATERNIONS, n, rng)
        report = symmetric_spectrum_check(s)
        assert report.pairing_defect < 1e-8 * max(1.0, s.norm())
        assert report.eigenvector_defect < 1e-8 * max(1.0, s.norm())


def test_spectrum_check_preconditions(rng):
    # a complex generator splits as S = iA; nothing forces its spectrum to be symmetric
    with pytest.raises(UnsupportedError):
        symmetric_spectrum_check(random_skew_adjoint(COMPLEXES, 2, rng))
    for system in (REALS, QUATERNIONS):
        with pytest.raises(ShapeError):
            symmetric_spectrum_check(zeros(system, 2, 3))
        with pytest.raises(PreconditionError):
            symmetric_spectrum_check(identity(system, 2))


def eigenvector_residuals(a, w, v, jmap):
    """Oracle: |A u_k + w_k u_k| for u_k = J v_k, one column of v at a time."""
    residuals = []
    for k in range(len(w)):
        u = jmap(v[:, k])
        residuals.append(np.linalg.norm(a @ u + w[k] * u))
    return np.array(residuals)


def _spectrum_corpus(rng):
    """(generator, its conversion to C): real and quaternionic generators of several sizes."""
    corpus = []
    for system, convert, sizes in ((REALS, complexify, (1, 2, 5, 16)),
                                   (QUATERNIONS, underlying_complex, (1, 3, 8))):
        for n in sizes:
            corpus.append((random_skew_adjoint(system, n, rng), convert(n)))
    return corpus


def test_stacked_eigenvector_check_matches_the_per_column_loop(rng):
    for s, conv in _spectrum_corpus(rng):
        report = symmetric_spectrum_check(s)
        pushed = conv.push(s)
        a = split_iA(pushed)
        w, v = eigh_complex(a)
        loop = eigenvector_residuals(a.to_complex(), w, v.to_complex(), conv.j)
        assert abs(report.eigenvector_defect - loop.max()) <= 1e-12 * max(1.0, pushed.norm())


@pytest.mark.parametrize("column", [0, -1])
def test_eigenvector_failure_carries_the_worst_residual(monkeypatch, rng, column):
    # one eigenvector replaced by a basis vector: J of it is no eigenvector
    # for the negated value, which the report must carry above the CLI's bound
    s, conv = _spectrum_corpus(rng)[2]
    pushed = conv.push(s)
    a = split_iA(pushed)
    eigh = np.linalg.eigh

    def one_vector_replaced(x):
        w, v = eigh(x)
        v[:, column] = np.eye(len(w))[:, 0]
        return w, v

    # the check's one eigendecomposition, of the matrix it is given (A scaled by 2^-e)
    w, basis = one_vector_replaced(a.to_complex())
    monkeypatch.setattr(spectra.np.linalg, "eigh", one_vector_replaced)
    report = symmetric_spectrum_check(s)
    loop = eigenvector_residuals(a.to_complex(), w, basis, conv.j)
    assert np.argmax(loop) == column % len(w)
    assert report.eigenvector_defect == pytest.approx(loop.max(), rel=1e-12)
    assert report.eigenvector_defect > 1e-8 * max(1.0, pushed.norm())


def test_quaternionic_defects_are_held_relative_to_the_generator_given(monkeypatch, rng, capsys):
    # the complex form of a quaternionic S has norm sqrt(2) |S|_F; the CLI
    # holds both defects to tol max(1, |S|_F) of S itself.  Eigenvectors 0 and 1 of the
    # complex form are rotated into each other by theta, which leaves the
    # eigenvalues alone and moves J of the rotated vector 0 off its eigenspace
    # by sin(theta) |w_0 - w_1|, between the bound and sqrt(2) times it
    s = random_skew_adjoint(QUATERNIONS, 3, rng)
    conv = underlying_complex(3)
    m = spectra._complex_form(s.coeffs)
    bound = 1e-8 * max(1.0, s.norm())
    w, v = np.linalg.eigh(-1j * m)
    injected = 1.2 * bound
    theta = np.arcsin(injected / abs(w[0] - w[1]))
    rotated = v.copy()
    rotated[:, 0] = np.cos(theta) * v[:, 0] + np.sin(theta) * v[:, 1]
    rotated[:, 1] = -np.sin(theta) * v[:, 0] + np.cos(theta) * v[:, 1]
    a = (rotated * w) @ rotated.conj().T
    monkeypatch.setattr(spectra, "_complex_form", lambda _: 1j * a)
    report = symmetric_spectrum_check(s)
    assert report.eigenvector_defect == pytest.approx(injected, rel=1e-6)
    assert report.eigenvector_defect > bound
    # a bound relative to the complex form's norm would have accepted it
    assert report.eigenvector_defect < 1e-8 * max(1.0, conv.push(s).norm())
    # the CLI's trial holds it to the same bound and fails
    monkeypatch.setattr(cli, "_random_skew", lambda system, n, rng: s)
    code = cli.main(["--json", "spectrum", "--dim", "3", "--trials", "1"])
    out, err = capsys.readouterr()
    trial = json.loads(out)["items"][0]
    assert (code, err, trial["pass"]) == (1, "", False)
    assert trial["eigenvector_defect"] == report.eigenvector_defect


def test_pairing_failure_carries_its_defect(monkeypatch):
    # the complex form of S = i given as i diag(1, 3): A = diag(1, 3) is not paired
    s = KMatrix.from_scalar_rows(QUATERNIONS, [[Quaternion(0, 1, 0, 0)]])
    monkeypatch.setattr(spectra, "_complex_form", lambda _: 1j * np.diag([1.0, 3.0]))
    report = symmetric_spectrum_check(s)
    assert report.pairing_defect == 4.0
    assert report.pairing_defect > 1e-8 * max(1.0, s.norm())


def test_missing_obstruction_carries_the_best_defect_and_threshold(monkeypatch):
    # the defect 2 |S v| is below 10 |S|_F |v| for every v at n = 1
    s = KMatrix.from_scalar_rows(QUATERNIONS, [[Quaternion(0, 1, 0, 0)]])
    monkeypatch.setattr(spectra, "_WITNESS_REL_THRESHOLD", 10.0)
    with pytest.raises(InternalInconsistencyError, match="no obstruction") as err:
        quaternionic_obstruction_witness(s)
    assert err.value.defect == pytest.approx(2.0)
    assert err.value.tol == pytest.approx(10.0)

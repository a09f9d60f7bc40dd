"""The one rule of each operator property: self-adjoint, skew-adjoint and unitary.

Every check of these properties goes through hilbert's predicate family,
which holds a defect relative to the operand.  The tests here plant defects
at known multiples of the bound, scale the operand over 24 orders of
magnitude, and pin the cases an absolute or a floored bound got wrong.
"""

import warnings

import numpy as np
import pytest

from threefold.errors import PreconditionError, ValidationError
from threefold.groups import cyclic_group
from threefold.hilbert import KMatrix, _holds, eigh_complex, is_unitary
from threefold.jordan import JordanElement, from_coords, hermitian_kind, jordan_product, parse_kind
from threefold.representations import FiniteGroupRep
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, conj_signs
from threefold.spectra import exp_group, split_iA, symmetric_spectrum_check
from threefold.structures import AntilinearMap

from util import identity, zeros

SYSTEMS = [REALS, COMPLEXES, QUATERNIONS]
SCALES = [1e-12, 1e-6, 1.0, 1e6, 1e12]


@pytest.fixture
def rng():
    return np.random.default_rng(2011)


def _star(coeffs):
    """The conjugate transpose of an (..., n, n, d) coefficient stack, written out for the oracle."""
    return np.swapaxes(coeffs, -3, -2) * conj_signs(coeffs.shape[-1])


def _unit_pair(shape, rng):
    """A self-adjoint H and a skew-adjoint K of unit Frobenius norm, as coefficient arrays.

    H and K are orthogonal in the real inner product of coefficients, so
    |H + e K|_F = sqrt(1 + e^2) and the self-adjoint defect of H + e K is 2 e.
    """
    x, y = rng.standard_normal((2, *shape))
    h, k = x + _star(x), y - _star(y)
    return h / np.linalg.norm(h), k / np.linalg.norm(k)


def _planted(base, off, ratio):
    """base + e off whose defect is ``ratio`` times the bound 1e-10 |base + e off|_F (to 1e-20)."""
    return base + ratio * 5e-11 * off


def _verdict(call):
    """True if ``call`` returns; False if it raises, after checking the error carries its figures."""
    try:
        call()
    except (PreconditionError, ValidationError) as err:
        assert err.defect > err.tol >= 0.0
        return False
    return True


# ---------------------------------------------------------------------------
# the measured faults of the absolute and the per-route rules
# ---------------------------------------------------------------------------

def _hermitian(n, scale, rng):
    x = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return 0.5 * (x + x.conj().T)


def test_a_large_self_adjoint_product_is_accepted(rng):
    a, b = _hermitian(16, 100.0, rng), _hermitian(16, 100.0, rng)
    x = a @ b @ a  # self-adjoint in exact arithmetic
    # the rounding is far above an absolute 1e-10 and far below 1e-10 |x|_F
    assert 1e-10 < np.abs(x - x.conj().T).max() < 1e-15 * np.linalg.norm(x)
    t = KMatrix.from_complex(x)
    assert _holds(t.coeffs, "self-adjoint")
    w, v = eigh_complex(t)
    assert np.linalg.norm(x @ v.to_complex() - v.to_complex() * w) < 1e-12 * np.linalg.norm(x)


def test_a_small_matrix_that_is_not_self_adjoint_is_refused():
    t = KMatrix.from_complex(1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    assert not _holds(t.coeffs, "self-adjoint")
    with pytest.raises(PreconditionError, match="not self-adjoint") as err:
        eigh_complex(t)
    assert err.value.defect == pytest.approx(np.sqrt(2.0) * 1e-11, rel=1e-15)
    assert err.value.tol == pytest.approx(1e-21, rel=1e-15)


def test_a_near_cancelling_jordan_product_multiplies(rng):
    # a o b nearly cancels, so its rounding, of order eps |a|_F |b|_F, is
    # large against |a o b|_F: a bound relative to the result refused 49 of 50
    kind = hermitian_kind(2, 4)
    sigma_x = np.zeros((4, 4), dtype=complex)
    sigma_x[0, 1] = sigma_x[1, 0] = 1.0
    sigma_y = np.zeros((4, 4), dtype=complex)
    sigma_y[0, 1], sigma_y[1, 0] = -1j, 1j
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        x = 1e4 * q @ sigma_x @ q.conj().T
        y = 1e4 * q @ (sigma_y + 1e-8 * _hermitian(4, 1.0, rng)) @ q.conj().T
        a, b = JordanElement.from_complex(x), JordanElement.from_complex(y)
        got = jordan_product(a, b).as_complex_matrix()
        assert np.linalg.norm(got - 0.5 * (x @ y + y @ x)) <= 1e-14 * a.norm() * b.norm()


def _large_skew(system, rng, shift):
    """A skew-adjoint S of norm 1e6 plus ``shift`` times the identity."""
    y = rng.standard_normal((6, 6, system.dim))
    k = y - _star(y)
    s = 1e6 * k / np.linalg.norm(k)
    s[np.arange(6), np.arange(6), 0] += shift
    return KMatrix(system, s)


@pytest.mark.parametrize("shift, holds", [(1e-6, True), (1e-3, False)])
def test_every_route_gives_one_verdict_on_a_generator(shift, holds, rng):
    # |S + S*|_F = 2 shift sqrt(6) against the bound 1e-10 |S|_F ~ 1e-4
    complex_s = _large_skew(COMPLEXES, rng, shift)
    real_s = _large_skew(REALS, rng, shift)
    routes = [
        (lambda s: exp_group(s, 1.0), complex_s),
        (split_iA, complex_s),
        (lambda s: exp_group(s, 1.0), real_s),
        (symmetric_spectrum_check, real_s),
    ]
    assert [_verdict(lambda: route(s)) for route, s in routes] == [holds] * len(routes)
    if not holds:
        for route, s in routes:
            with pytest.raises(PreconditionError, match="not skew-adjoint") as err:
                route(s)
            assert err.value.defect == pytest.approx(2e-3 * np.sqrt(6.0), rel=1e-6)
            assert err.value.tol == pytest.approx(1e-10 * s.norm(), rel=1e-15)


# ---------------------------------------------------------------------------
# one verdict at every scale
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.tag)
@pytest.mark.parametrize("ratio, holds", [(0.5, True), (2.0, False)])
def test_adjoint_verdicts_do_not_depend_on_the_scale(system, ratio, holds, rng):
    h, k = _unit_pair((4, 4, system.dim), rng)
    for c in SCALES:
        t = KMatrix(system, c * _planted(h, k, ratio))
        s = KMatrix(system, c * _planted(k, h, ratio))
        assert _holds(t.coeffs, "self-adjoint") is holds
        assert _holds(s.coeffs, "skew-adjoint") is holds
        assert _verdict(lambda: exp_group(s, 1.0)) is holds
        if system is COMPLEXES:
            assert _verdict(lambda: eigh_complex(t)) is holds


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.tag)
@pytest.mark.parametrize("ratio, holds", [(0.5, True), (2.0, False)])
def test_unitary_verdict_at_a_planted_defect(system, ratio, holds, rng):
    # c U is unitary only at c = 1, so the unitary bound is fixed at
    # 1e-10 sqrt(n), the norm of every unitary; (1 + e) U has the defect
    # ((1 + e)^2 - 1) sqrt(n), about 2 e sqrt(n)
    _, k = _unit_pair((4, 4, system.dim), rng)
    u = exp_group(KMatrix(system, k), 1.0)
    t = u.scale(1.0 + ratio * 5e-11)
    assert is_unitary(t) is holds
    assert is_unitary(u.scale(1.0 - ratio * 5e-11)) is holds
    if system is COMPLEXES:
        assert AntilinearMap(t.to_complex()).is_antiunitary() is holds


@pytest.mark.parametrize("label", ["hR:3", "hC:3", "hH:3", "hO:3"])
def test_a_jordan_stack_holds_each_element_to_its_own_scale(label, rng):
    kind = parse_kind(label)
    h, k = _unit_pair((3, 3, kind.scalar_dim), rng)
    scales = np.array(SCALES)[:, None, None, None]
    JordanElement(kind, scales * _planted(h, k, 0.5))
    for i, c in enumerate(SCALES):
        ratios = np.full((len(SCALES), 1, 1, 1), 0.5)
        ratios[i] = 2.0
        data = scales * (h + ratios * 5e-11 * k)
        with pytest.raises(ValidationError, match="not self-adjoint") as err:
            JordanElement(kind, data)
        assert err.value.defect == pytest.approx(2e-10 * c, rel=1e-4)
        assert err.value.tol == pytest.approx(1e-10 * np.linalg.norm(data[i]), rel=1e-12)


def test_a_jordan_product_holds_each_element_to_its_own_scale(rng):
    kind = hermitian_kind(4, 3)
    a = from_coords(kind, rng.standard_normal((len(SCALES), kind.dim)) * np.array(SCALES)[:, None])
    b = from_coords(kind, rng.standard_normal((len(SCALES), kind.dim)))
    jordan_product(a, b)  # rounding of order eps |a|_F |b|_F at every scale


@pytest.mark.parametrize("n", [1, 3])
def test_the_checks_leave_their_operand_alone(n, rng):
    # at n = 1 the transpose of a stack is laid out as the stack itself
    kind = hermitian_kind(2, n)
    data = from_coords(kind, rng.standard_normal((4, kind.dim))).data.copy()
    before = data.copy()
    JordanElement(kind, data)
    assert data.tobytes() == before.tobytes()
    phases = np.exp(2j * np.pi * np.arange(3) / 3)[:, None, None] * np.eye(n)
    rep = FiniteGroupRep(cyclic_group(3), phases)
    assert np.array_equal(rep.matrices, phases)
    assert AntilinearMap(phases[1]).is_antiunitary()


# ---------------------------------------------------------------------------
# NaN and zero
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.tag)
def test_one_nan_entry_is_refused(system, rng):
    h, k = _unit_pair((3, 3, system.dim), rng)
    for coeffs, prop in ((h, "self-adjoint"), (k, "skew-adjoint")):
        coeffs = coeffs.copy()
        coeffs[0, 2, 0] = np.nan
        assert not _holds(KMatrix(system, coeffs).coeffs, prop)
    u = identity(system, 3).coeffs.copy()
    u[1, 1, 0] = np.nan
    assert not is_unitary(KMatrix(system, u))
    data = np.stack([h, h])
    data[1, 1, 1, 0] = np.nan
    with pytest.raises(ValidationError, match="not self-adjoint") as err:
        JordanElement(hermitian_kind(system.dim, 3), data)
    assert np.isnan(err.value.defect)
    with pytest.raises(PreconditionError) as err:
        eigh_complex(KMatrix.from_complex(np.array([[1.0, np.nan], [0.0, 1.0]])))
    assert np.isnan(err.value.defect)


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.tag)
@pytest.mark.parametrize("entry", [(0, 0), (0, 2)], ids=["diagonal", "off-diagonal"])
def test_an_infinite_entry_is_refused(system, entry):
    # its defect is infinite or NaN, and so is |T|_F: inf <= 1e-10 inf must not pass
    # (inf - inf makes it NaN); the refusal comes without a RuntimeWarning
    t = np.zeros((3, 3, system.dim))
    t[1, 1, 0] = 1.0
    t[(*entry, 0)] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sign in (1.0, -1.0):
            assert not _holds(KMatrix(system, sign * t).coeffs, "self-adjoint")
            assert not _holds(KMatrix(system, sign * t).coeffs, "skew-adjoint")
            assert not is_unitary(KMatrix(system, sign * t))
            with pytest.raises(ValidationError, match="not self-adjoint"):
                JordanElement(hermitian_kind(system.dim, 3), sign * t)


@pytest.mark.parametrize("entry", [1e154, 1e200, np.finfo(float).max])
def test_a_huge_entry_is_not_unitary_and_raises_no_overflow_warning(entry):
    # the Gram product, or the norm of its defect, passes the largest float
    t = np.diag([entry, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_unitary(KMatrix.from_real(t))
        assert not AntilinearMap(t.astype(complex)).is_antiunitary()
        assert not AntilinearMap(1j * t).is_antiunitary()


@pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.tag)
def test_the_zero_matrix_passes_without_a_warning(system, rng):
    zero = zeros(system, 3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _holds(zero.coeffs, "self-adjoint") and _holds(zero.coeffs, "skew-adjoint")
        exp_group(zero, 1.0)
        kind = hermitian_kind(system.dim, 3)
        JordanElement(kind, np.zeros((2, 3, 3, system.dim)))
        # a zero element beside a spoiled one: the error names the spoiled one
        h, k = _unit_pair((3, 3, system.dim), rng)
        data = np.stack([np.zeros_like(h), _planted(h, k, 2.0)])
        with pytest.raises(ValidationError) as err:
            JordanElement(kind, data)
        assert err.value.defect > err.value.tol > 0.0
        zero_element = JordanElement(kind, np.zeros((3, 3, system.dim)))
        jordan_product(zero_element, zero_element)
    if system is COMPLEXES:
        w, _ = eigh_complex(zero)
        assert not w.any()

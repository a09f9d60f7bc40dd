"""Spin-j representations: characters, the exact indicator, time reversal.

The closed-form character sin((2j+1)phi)/sin(phi), the diagonal weight
matrix diag(j, j-1, ..., -j) and the symmetric tensor power of C^2 (in
``util``) serve as independent oracles for the recursive character (the
private ``_character`` of 2j) and the |j, m> construction; scipy's Simpson
rule is the oracle for the exact trapezoid rule of the indicator.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson, trapezoid
from scipy.linalg import expm

from threefold.errors import InternalInconsistencyError, PreconditionError, ShapeError
from threefold.scalars import QUATERNION_UNITS, Quaternion
from threefold.structures import AntilinearMap, RepKind, classify_tensor, tensor_antilinear
import threefold.su2
from threefold.su2 import (
    MAX_TWICE_SPIN,
    PAULI,
    SpinClassification,
    angular_momentum_z,
    classify_spin,
    fs_indicator_su2,
    invariant_form_spin,
    spin_matrix,
    su2_matrix,
    su2_spin_rep,
    time_reversal_check,
    twice_spin,
)
from util import (
    form_invariance_defects,
    is_unitary_within,
    polarized_flip_form,
    random_unit_quaternion,
    random_unitary_complex,
    sampled_expectation_flip,
    sampled_spin_defects,
    symmetric_basis,
    tensor_angular_momentum_z,
    tensor_invariant_form,
    tensor_spin_matrix,
)

HALF_SPINS = [k / 2.0 for k in range(0, 11)]


def character(j, phi):
    # the recursive character the indicator sums, which takes the integer 2j
    return threefold.su2._character(twice_spin(j), phi)


@pytest.fixture
def rng():
    return np.random.default_rng(29)


# ---------------------------------------------------------------------------
# the quaternion picture of SU(2)
# ---------------------------------------------------------------------------

def test_su2_matrix_of_units():
    one, i, j, k = (QUATERNION_UNITS[n] for n in ("1", "i", "j", "k"))
    assert np.allclose(su2_matrix(one), np.eye(2))
    assert np.allclose(su2_matrix(i), -1j * PAULI[1])
    assert np.allclose(su2_matrix(j), -1j * PAULI[2])
    assert np.allclose(su2_matrix(k), -1j * PAULI[3])


def test_su2_matrix_is_a_homomorphism(rng):
    for _ in range(50):
        p = random_unit_quaternion(rng)
        q = random_unit_quaternion(rng)
        assert np.allclose(su2_matrix(p * q), su2_matrix(p) @ su2_matrix(q), atol=1e-12)


def test_su2_matrix_is_special_unitary(rng):
    for _ in range(20):
        u = su2_matrix(random_unit_quaternion(rng))
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 8))
def test_symmetric_basis_is_orthonormal(n):
    b = symmetric_basis(n)
    assert b.shape == (2**n, n + 1)
    assert np.allclose(b.T @ b, np.eye(n + 1), atol=1e-13)


def test_spin_half_is_the_defining_rep(rng):
    u = su2_matrix(random_unit_quaternion(rng))
    assert np.allclose(spin_matrix(u, 0.5), u, atol=1e-14)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_spin_matrices_form_a_homomorphism(rng, j):
    p = random_unit_quaternion(rng)
    q = random_unit_quaternion(rng)
    lhs = spin_matrix(su2_matrix(p * q), j)
    rhs = spin_matrix(su2_matrix(p), j) @ spin_matrix(su2_matrix(q), j)
    assert lhs.shape == (int(2 * j) + 1, int(2 * j) + 1)
    assert np.allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("u", [np.eye(3), np.ones(2), np.ones((2, 2, 2))], ids=["3x3", "vector", "stack"])
def test_spin_matrix_refuses_a_u_that_is_not_2x2(u):
    with pytest.raises(ShapeError, match="u must be 2x2"):
        spin_matrix(u, 1.0)


def test_spin_matrices_are_unitary(rng):
    for j in (1.0, 2.5):
        u = spin_matrix(su2_matrix(random_unit_quaternion(rng)), j)
        assert np.allclose(u.conj().T @ u, np.eye(int(2 * j) + 1), atol=1e-12)


@pytest.mark.parametrize("twice_j", range(0, 9))
def test_spin_j_matches_the_tensor_power_oracle(rng, twice_j):
    # u = +-1 has no rotation axis: inside the one stacked eigh it is masked
    # to (+-1)^(2j) 1, and the rotations beside it are untouched
    j = twice_j / 2.0
    qs = [random_unit_quaternion(rng) for _ in range(4)]
    qs[1:1] = [Quaternion(1.0), Quaternion(-1.0), QUATERNION_UNITS["k"]]
    stack = su2_spin_rep(j, qs)
    assert stack.shape == (len(qs), twice_j + 1, twice_j + 1)
    for q, m in zip(qs, stack):
        oracle = tensor_spin_matrix(su2_matrix(q), twice_j)
        single = spin_matrix(su2_matrix(q), j)
        assert np.abs(single - oracle).max() < 1e-12
        assert np.abs(m - oracle).max() < 1e-12
        assert np.abs(m - single).max() < 1e-12
    assert su2_spin_rep(j, []).shape == (0, twice_j + 1, twice_j + 1)
    assert np.abs(invariant_form_spin(j) - tensor_invariant_form(twice_j)).max() < 1e-12
    assert np.abs(angular_momentum_z(j) - tensor_angular_momentum_z(twice_j)).max() < 1e-12


@pytest.mark.parametrize("j", [20.0, 20.5, 50.0])
def test_large_spin_is_a_unitary_form_preserving_homomorphism(rng, j):
    d = int(2 * j) + 1
    form = invariant_form_spin(j)
    p = random_unit_quaternion(rng)
    q = random_unit_quaternion(rng)
    up, uq = spin_matrix(su2_matrix(p), j), spin_matrix(su2_matrix(q), j)
    assert np.allclose(spin_matrix(su2_matrix(p * q), j), up @ uq, atol=1e-12)
    assert np.allclose(up.conj().T @ up, np.eye(d), atol=1e-12)
    assert np.allclose(up.T @ form @ up, form, atol=1e-12)


def test_su2_spin_rep_matches_spin_matrix(rng):
    qs = [random_unit_quaternion(rng) for _ in range(3)]
    mats = su2_spin_rep(1.5, qs)
    for q, m in zip(qs, mats):
        assert np.allclose(m, spin_matrix(su2_matrix(q), 1.5), atol=1e-13)


@pytest.mark.parametrize("call,defect,tol", [
    # i 1 is unitary with det -1 and reads off the zero quaternion, sqrt(2) away
    (lambda: spin_matrix(1j * np.eye(2), 0.5), np.sqrt(2.0), 1e-10 * np.sqrt(2.0)),
    # diag(1, 2), whose quaternion would read off as 1.5: |u* u - 1|_F = 3
    (lambda: spin_matrix(np.diag([1.0, 2.0]), 0.5), 3.0, 1e-10 * np.sqrt(2.0)),
    # the quaternion 2 has the matrix 2 1: | |q|^2 - 1 | = 3, q as a 1x1 matrix over H
    (lambda: su2_spin_rep(0.5, [Quaternion(1.0), Quaternion(2.0)]), 3.0, 1e-10),
    (lambda: spin_matrix(np.full((2, 2), np.nan), 1.0), np.nan, 1e-10 * np.sqrt(2.0)),
    (lambda: su2_spin_rep(1.0, [Quaternion(np.nan)]), np.nan, 1e-10),
    # an infinite entry: the unitary rule's defect is NaN, with no warning
    (lambda: spin_matrix(np.diag([np.inf, -np.inf]), 1.0), np.nan, 1e-10 * np.sqrt(2.0)),
    (lambda: su2_spin_rep(1.0, [Quaternion(np.inf)]), np.nan, 1e-10),
], ids=["det-minus-1", "not-unitary", "not-a-unit", "nan-matrix", "nan-quaternion", "inf-matrix",
        "inf-quaternion"])
def test_input_outside_su2_is_refused(call, defect, tol):
    with pytest.raises(PreconditionError, match="not unitary|not in SU|not a unit") as err:
        call()
    np.testing.assert_equal((err.value.defect, err.value.tol), (defect, tol))


def test_haar_samples_pass_the_su2_checks(rng):
    # su2_matrix of a Haar-random unit quaternion is unitary and reads back
    # its own quaternion, far inside 1e-10 sqrt(2)
    qs = [random_unit_quaternion(rng) for _ in range(200)]
    stack = su2_spin_rep(1.5, qs)
    for q, m in zip(qs, stack):
        assert np.abs(spin_matrix(su2_matrix(q), 1.5) - m).max() < 1e-12


# ---------------------------------------------------------------------------
# characters and the indicator integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", HALF_SPINS)
def test_character_matches_closed_form(j):
    phi = np.linspace(0.1, np.pi - 0.1, 37)
    oracle = np.sin((2 * j + 1) * phi) / np.sin(phi)
    assert np.allclose(character(j, phi), oracle, atol=1e-10)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_character_at_identity_is_the_dimension(j):
    assert character(j, 0.0) == pytest.approx(2 * j + 1, abs=1e-12)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_character_matches_matrix_trace(rng, j):
    phi = float(rng.uniform(0.2, 3.0))
    q = Quaternion(np.cos(phi), np.sin(phi), 0.0, 0.0)
    trace = np.trace(spin_matrix(su2_matrix(q), j))
    assert abs(trace.imag) < 1e-10
    assert character(j, phi) == pytest.approx(trace.real, abs=1e-10)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_indicator_quadrature_hits_the_exact_sign(j):
    expected = 1.0 if (2 * j) % 2 == 0 else -1.0
    assert abs(fs_indicator_su2(j) - expected) < 1e-11


def test_exact_indicator_matches_scipy_simpson_for_every_supported_spin():
    # the oracle: scipy's composite Simpson rule on a 2001-node grid, itself
    # within about 2e-12 of the exact sign up to j = 200
    theta = np.linspace(0.0, np.pi, 2001)
    weight = np.sin(theta) ** 2
    for twice in range(MAX_TWICE_SPIN + 1):
        j = twice / 2.0
        fs = fs_indicator_su2(j)
        reference = 2.0 / np.pi * simpson(character(j, 2.0 * theta) * weight, x=theta)
        assert abs(fs - reference) <= 1e-11
        assert abs(fs - (-1.0) ** twice) <= 1e-11


@pytest.mark.parametrize("j", [0.0, 2.5, 7.0, 50.5, 200.0])
def test_simpson_weights_match_scipy(j):
    # On its own N + 1 nodes (N = 2j + 2) the rule is scipy's trapezoid, ends
    # included.  Simpson on 2N intervals is (4 T_2N - T_N) / 3 of two exact
    # trapezoid sums, so scipy's simpson there gives the same integral.
    intervals = int(2 * j) + 2
    for nodes, rule, tol in ((intervals + 1, trapezoid, 1e-14), (2 * intervals + 1, simpson, 1e-11)):
        theta = np.linspace(0.0, np.pi, nodes)
        integrand = character(j, 2.0 * theta) * np.sin(theta) ** 2
        assert abs(fs_indicator_su2(j) - 2.0 / np.pi * rule(integrand, x=theta)) < tol


def _trapezoid(j, intervals):
    # the interior nodes of the trapezoid rule for (2/pi) Integral_0^pi chi_j(2 theta) sin^2 theta
    theta = np.arange(1, intervals) * (np.pi / intervals)
    return 2.0 / intervals * np.sum(character(j, 2.0 * theta) * np.sin(theta) ** 2)


@pytest.mark.parametrize("twice", range(12))
def test_one_interval_fewer_than_2j_plus_2_is_not_exact(twice):
    # with N = 2j + 1 the top frequency 4j + 2 = 2N of the integrand aliases
    # onto the constant and shifts the sum by exactly -1
    j, exact = twice / 2.0, (-1.0) ** twice
    assert _trapezoid(j, twice + 2) == fs_indicator_su2(j)
    assert _trapezoid(j, twice + 1) - exact == pytest.approx(-1.0, abs=1e-12)


def test_spin_must_be_a_half_integer():
    with pytest.raises(PreconditionError):
        fs_indicator_su2(0.3)


# ---------------------------------------------------------------------------
# invariant forms
# ---------------------------------------------------------------------------

def test_spin_half_form_is_the_symplectic_matrix():
    assert np.allclose(invariant_form_spin(0.5), [[0.0, 1.0], [-1.0, 0.0]], atol=0.0)


def test_spin_one_form_frozen_value():
    expected = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(invariant_form_spin(1.0), expected, atol=1e-14)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_form_parity_and_invariance(rng, j):
    form = invariant_form_spin(j)
    parity = (-1.0) ** int(2 * j)
    assert np.allclose(form.T, parity * form, atol=1e-12)
    for _ in range(4):
        u = spin_matrix(su2_matrix(random_unit_quaternion(rng)), j)
        assert np.allclose(u.T @ form @ u, form, atol=1e-9)


# ---------------------------------------------------------------------------
# classification: integer spins real, half-integer spins quaternionic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", HALF_SPINS)
def test_classify_spin(j):
    result = classify_spin(j)
    integer = (2 * j) % 2 == 0
    assert result.kind is (RepKind.REAL if integer else RepKind.QUATERNIONIC)
    assert result.kind.value == (1 if integer else -1)
    assert abs(result.fs - result.kind.value) < 1e-6
    d = int(2 * j) + 1
    assert np.allclose(
        result.structure.square(), result.kind.value * np.eye(d), atol=1e-9
    )
    assert is_unitary_within(result.structure, 1e-9)


# ---------------------------------------------------------------------------
# route disagreement: each route made wrong in turn must raise
# ---------------------------------------------------------------------------

def test_classify_spin_refuses_a_form_that_is_not_invariant(monkeypatch):
    # the identity on spin 1 is not invariant: J_x^T 1 + 1 J_x = 2 J_x != 0;
    # J is complex conjugation, which misses i J_x and i J_z by the same 2 |J_x|_F
    monkeypatch.setattr(threefold.su2, "invariant_form_spin", lambda j: np.eye(3))
    with pytest.raises(InternalInconsistencyError, match="does not commute with operator [01]") as err:
        classify_spin(1)
    assert err.value.tol == 1e-9 * np.sqrt(3.0)
    assert err.value.defect > err.value.tol


def test_classify_spin_refuses_a_form_invariant_only_under_z_rotations(monkeypatch):
    # the antidiagonal with one sign flipped pairs |1, m> with |1, -m>, so
    # every rotation about z keeps it; J_x or J_y must catch it
    monkeypatch.setattr(threefold.su2, "invariant_form_spin", lambda j: np.fliplr(np.eye(3)))
    with pytest.raises(InternalInconsistencyError, match="does not commute with operator [01]") as err:
        classify_spin(1)
    assert err.value.defect > err.value.tol


def test_classify_spin_refuses_a_nan_generator_and_names_it(monkeypatch):
    generators = threefold.su2._spin_generators

    def nan_in_j_y(n):
        out = generators(n)
        out[1, 0, 1] = np.nan
        return out

    monkeypatch.setattr(threefold.su2, "_spin_generators", nan_in_j_y)
    with pytest.raises(InternalInconsistencyError, match="operator 1") as err:
        classify_spin(1)
    assert np.isnan(err.value.defect) and err.value.tol == 1e-9 * np.sqrt(3.0)


@pytest.mark.parametrize("j", [1.0, 1.5])
def test_commutation_defect_is_the_form_invariance_defect_over_sqrt_c(j, rng):
    # the invariance check classify_spin leaves to the commutation check:
    # ||J_k^T g + g J_k||_F is sqrt|c| ||J (i J_k) - (i J_k) J||_F for
    # J = conj(g)^T / sqrt|c|, on forms that are invariant and that are not
    d = int(2 * j) + 1
    generators = threefold.su2._spin_generators(d - 1)
    forms = [invariant_form_spin(j), np.eye(d), np.fliplr(np.eye(d)),
             rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
    for form in forms:
        raw = AntilinearMap(form.conj().T)
        c = np.trace(raw.square()) / d
        commutation = raw.scale(1.0 / np.sqrt(abs(c))).commutation_defect(1j * generators)
        invariance = form_invariance_defects(form, generators)
        np.testing.assert_allclose(invariance, np.sqrt(abs(c)) * commutation, rtol=1e-12, atol=0.0)
    # only the planted spin form is invariant
    assert [form_invariance_defects(form, generators).max() > 0.0 for form in forms] == [
        False, True, True, True]


def test_commutation_at_its_bound_is_accepted_and_past_it_refused(monkeypatch):
    # J misses only i J_z, by a planted defect, against 1e-9 sqrt(3) on spin 1
    bound = 1e-9 * np.sqrt(3.0)
    monkeypatch.setattr(AntilinearMap, "commutation_defect", lambda self, t: np.array([0.0, 0.0, bound]))
    assert classify_spin(1).kind is RepKind.REAL
    past = np.nextafter(bound, 1.0)
    monkeypatch.setattr(AntilinearMap, "commutation_defect", lambda self, t: np.array([0.0, 0.0, past]))
    with pytest.raises(InternalInconsistencyError, match="does not commute with operator 2 ") as err:
        classify_spin(1)
    assert (err.value.defect, err.value.tol) == (past, bound)


TWICE_SPINS_UP_TO_THE_BOUND = list(range(0, 41)) + [101, 256, MAX_TWICE_SPIN - 1, MAX_TWICE_SPIN]


@pytest.mark.parametrize("twice_j", TWICE_SPINS_UP_TO_THE_BOUND)
def test_generator_defects_are_exactly_zero(twice_j):
    # on J_x, J_y and J_z: the form's invariance (the oracle) and J's
    # commutation (the check classify_spin makes)
    j = twice_j / 2.0
    generators = threefold.su2._spin_generators(twice_j)
    form = invariant_form_spin(j)
    invariance = generators.swapaxes(1, 2) @ form + form @ generators
    assert np.abs(invariance).max() == 0.0
    assert np.max(classify_spin(j).structure.commutation_defect(1j * generators)) == 0.0


@pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 2.5, 7.0])
def test_generators_exponentiate_to_the_spin_matrices_of_axis_rotations(j):
    # exp(-i theta J_k) is the spin-j matrix of the rotation by theta about
    # axis k, the unit quaternion cos(theta / 2) + sin(theta / 2) e_k
    theta = 0.7
    for axis, generator in enumerate(threefold.su2._spin_generators(twice_spin(j)), start=1):
        coeffs = np.zeros(4)
        coeffs[0], coeffs[axis] = np.cos(theta / 2), np.sin(theta / 2)
        want = spin_matrix(su2_matrix(Quaternion.from_array(coeffs)), j)
        assert np.allclose(expm(-1j * theta * generator), want, atol=1e-12)


@pytest.mark.parametrize("j", [k / 2.0 for k in range(0, 21)] + [200.0])
def test_sampled_spin_matrices_keep_the_form_and_commute_with_j(j):
    # the oracle: the generator checks imply invariance and commutation on
    # every group element, so seeded Haar samples pass the same bounds
    d = int(2 * j) + 1
    invariance, commutation = sampled_spin_defects(classify_spin(j))
    assert invariance <= 1e-9 * max(1.0, np.sqrt(d))
    assert commutation <= 1e-9 * d


def _flip_quadrature(monkeypatch):
    quadrature = threefold.su2.fs_indicator_su2
    monkeypatch.setattr(threefold.su2, "fs_indicator_su2", lambda j: -quadrature(j))


def _flip_structure_sign(monkeypatch):
    # J_raw^2 negated, so the structure map comes out squaring to the other
    # sign while every other structure-map check still holds
    square = AntilinearMap.square
    monkeypatch.setattr(AntilinearMap, "square", lambda self: -square(self))


@pytest.mark.parametrize("j", [0.0, 1.0, 1.5])
def test_classify_spin_refuses_a_flipped_indicator(j, monkeypatch):
    _flip_quadrature(monkeypatch)
    with pytest.raises(InternalInconsistencyError, match="indicator route says"):
        classify_spin(j)


@pytest.mark.parametrize("value", [np.nan, 0.5, 0.0])
def test_classify_spin_refuses_an_indicator_off_every_kind(value, monkeypatch):
    monkeypatch.setattr(threefold.su2, "fs_indicator_su2", lambda j: value)
    with pytest.raises(InternalInconsistencyError) as err:
        classify_spin(1.0)
    if value == 0.5:
        assert (err.value.defect, err.value.tol) == (0.5, 1e-8)


@pytest.mark.parametrize("j", [0.0, 1.0, 1.5])
def test_classify_spin_refuses_a_structure_sign_against_the_form_symmetry(j, monkeypatch):
    # the indicator flipped too, so the two routes still name the same kind:
    # only the form's symmetry tells that J^2 has the wrong sign
    _flip_quadrature(monkeypatch)
    _flip_structure_sign(monkeypatch)
    with pytest.raises(InternalInconsistencyError, match="squares to"):
        classify_spin(j)


@pytest.mark.parametrize("j", [1.0, 1.5])
def test_classify_spin_refuses_a_kind_against_the_spin_parity(j, monkeypatch):
    decide = threefold.su2._two_route_kind

    def swapped(*args):
        kind, structure = decide(*args)
        return RepKind.REAL if kind is RepKind.QUATERNIONIC else RepKind.QUATERNIONIC, structure

    monkeypatch.setattr(threefold.su2, "_two_route_kind", swapped)
    with pytest.raises(InternalInconsistencyError, match="parity"):
        classify_spin(j)


def test_spin_refusal_carries_twice_the_spin_and_the_bound():
    with pytest.raises(PreconditionError) as refused:
        classify_spin((MAX_TWICE_SPIN + 1) / 2.0)
    assert (refused.value.defect, refused.value.tol) == (MAX_TWICE_SPIN + 1, MAX_TWICE_SPIN)


@pytest.mark.parametrize("j", [np.inf, -np.inf, np.nan])
def test_non_finite_spins_are_refused(j):
    with pytest.raises(PreconditionError):
        classify_spin(j)
    with pytest.raises(PreconditionError):
        twice_spin(j)


def test_an_off_half_integer_spin_refusal_carries_its_defect_and_bound():
    # 2j = 0.6 is 0.4 from the nearest integer, 1
    with pytest.raises(PreconditionError, match="half-integer") as err:
        twice_spin(0.3)
    assert err.value.defect == pytest.approx(0.4, rel=1e-12)
    assert err.value.tol == 1e-12
    # a negative or non-finite spin has no distance to measure
    for j in (-1.0, np.inf, np.nan):
        with pytest.raises(PreconditionError) as err:
            twice_spin(j)
        assert (err.value.defect, err.value.tol) == (None, None)


@pytest.mark.parametrize("j", [1e308, -1e308, np.float64(1e308)])
def test_spins_whose_double_overflows_are_refused(j):
    with pytest.raises(PreconditionError):
        twice_spin(j)


@pytest.mark.parametrize("j", [0.0, 0.5, 7.0, MAX_TWICE_SPIN / 2.0])
def test_twice_spin_accepts_supported_spins(j):
    assert twice_spin(j) == int(2 * j)


def test_classify_spin_refuses_spins_above_the_bound():
    assert classify_spin(MAX_TWICE_SPIN / 2.0).kind is RepKind.REAL
    with pytest.raises(PreconditionError):
        classify_spin((MAX_TWICE_SPIN + 1) / 2.0)


ONE = Quaternion(1.0)
SPIN_ENTRIES = {
    "spin_matrix": lambda j: spin_matrix(PAULI[0], j),
    "su2_spin_rep": lambda j: su2_spin_rep(j, [ONE]),
    "fs_indicator_su2": fs_indicator_su2,
    "invariant_form_spin": invariant_form_spin,
    "angular_momentum_z": angular_momentum_z,
    "classify_spin": classify_spin,
    # past the bound there is no classification: one carrying that j, whose
    # structure map is never read
    "time_reversal_check": lambda j: time_reversal_check(
        classify_spin(j) if 2 * j <= MAX_TWICE_SPIN else SpinClassification(j, 1.0, RepKind.REAL, None)),
}


def _traced_refusal(call, j):
    """The PreconditionError of call(j) and the traced peak, in bytes, up to it."""
    tracemalloc.start()
    try:
        call(j)
    except PreconditionError as err:
        return err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    raise AssertionError(f"spin {j} was accepted")


@pytest.mark.parametrize("name", SPIN_ENTRIES)
def test_every_public_spin_function_refuses_a_spin_past_the_bound_before_building(name):
    past = (MAX_TWICE_SPIN + 1) / 2.0
    refusal, peak = _traced_refusal(SPIN_ENTRIES[name], past)
    assert (refusal.defect, refusal.tol) == (MAX_TWICE_SPIN + 1, MAX_TWICE_SPIN)
    # within 1 kB of twice_spin's own refusal: one row of 2j + 1 floats,
    # 3.2 kB, would not fit
    assert peak < _traced_refusal(twice_spin, past)[1] + 1024
    SPIN_ENTRIES[name](MAX_TWICE_SPIN / 2.0)


def test_each_call_checks_its_spin_once(monkeypatch):
    # classify_spin: its own twice_spin and those of the public
    # fs_indicator_su2 and invariant_form_spin it calls; time_reversal_check:
    # angular_momentum_z's, and U(2 pi) = (-1)^(2j)
    errors = []
    guard = threefold.su2._require_within

    def counted(defects, bounds, error, *args, **fields):
        errors.append(error)
        return guard(defects, bounds, error, *args, **fields)

    monkeypatch.setattr(threefold.su2, "_require_within", counted)
    classification = classify_spin(3.5)
    assert errors == [PreconditionError] * 3
    time_reversal_check(classification)
    assert errors == [PreconditionError] * 4 + [InternalInconsistencyError]


def test_classified_structures_obey_the_tensor_sign_rule():
    # the structure map of j x j' restricted to any summand squares to the
    # product of the two signs, so summand kinds follow the two-letter table
    for j1, j2 in ((0.5, 0.5), (0.5, 1.0), (1.5, 1.0)):
        k1 = classify_spin(j1).kind
        k2 = classify_spin(j2).kind
        for twice_l in range(int(2 * abs(j1 - j2)), int(2 * (j1 + j2)) + 1, 2):
            summand = classify_spin(twice_l / 2.0).kind
            assert summand is classify_tensor(k1, k2)


def test_tensor_of_spin_structures_squares_to_sign_product():
    a = classify_spin(0.5).structure
    b = classify_spin(1.0).structure
    combined = tensor_antilinear(a, b)
    assert np.allclose(combined.square(), -np.eye(6), atol=1e-9)


# ---------------------------------------------------------------------------
# angular momentum and time reversal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("j", HALF_SPINS)
def test_angular_momentum_z_is_the_weight_diagonal(j):
    oracle = np.diag([j - k for k in range(int(2 * j) + 1)])
    a = angular_momentum_z(j)
    assert np.allclose(a, oracle, atol=1e-12)
    assert np.allclose(a, a.conj().T, atol=1e-12)


@pytest.mark.parametrize("j", HALF_SPINS)
def test_time_reversal_flips_angular_momentum(j):
    result = classify_spin(j)
    report = time_reversal_check(result)
    assert report.anticommutation_defect < 1e-8
    assert report.expectation_flip_defect < 1e-8
    assert report.rotation_2pi_phase == (1 if (2 * j) % 2 == 0 else -1)
    assert result.kind.value == report.rotation_2pi_phase


def test_time_reversal_refuses_a_nan_rotation(monkeypatch):
    result = classify_spin(0.5)
    monkeypatch.setattr(threefold.su2, "_spin_stack", lambda coeffs, n: np.full((1, 2, 2), np.nan))
    with pytest.raises(InternalInconsistencyError, match="rotation by 2 pi") as err:
        time_reversal_check(result)
    assert np.isnan(err.value.defect) and err.value.tol == 1e-9 * 2


# the 2j at which J had an entry one ulp off +-1 while c = tr(J_raw^2) / d was
# taken in numpy's complex division, where (49+0j) / 49 is 1 - 2^-53
ONCE_INEXACT_TWICE_SPINS = [48, 97, 102, 106, 160, 186, 195, 196, 205, 213,
                            236, 238, 248, 252, 321, 346, 373, 388, 391, 393]


@pytest.mark.parametrize("j", HALF_SPINS + [24.0, 48.5, 97.0, 127.5, 194.0, 196.5, MAX_TWICE_SPIN / 2.0])
def test_closed_form_time_reversal_has_exactly_zero_defects(j):
    # J is a signed permutation (c is divided exactly, its real and imaginary
    # parts apart) and J_z an integer or half-integer diagonal, so J
    # anticommutes with J_z, and M* J_z M = -J_z, exactly
    report = time_reversal_check(classify_spin(j))
    assert (report.anticommutation_defect, report.expectation_flip_defect) == (0.0, 0.0)


def test_the_structure_map_entries_are_exactly_0_or_plus_minus_1():
    for twice in ONCE_INEXACT_TWICE_SPINS:
        assert np.isin(classify_spin(twice / 2.0).structure.matrix, (0.0, 1.0, -1.0)).all(), twice


def _perturbed(jmap, rng, size=0.3):
    # J followed by the unitary exp(i size H) for a random Hermitian H of unit norm
    d = jmap.n
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h += h.conj().T
    w, v = np.linalg.eigh(h / np.linalg.norm(h))
    return AntilinearMap((v * np.exp(1j * size * w)) @ v.conj().T @ jmap.matrix)


@pytest.mark.parametrize("j", [k / 2.0 for k in range(0, 21)])
def test_exact_flip_lies_between_the_sampled_flip_and_the_anticommutation_defect(j, rng):
    # sampled <= exact: the report's flip is the supremum over every unit
    # state, the spectral norm of the flip's Hermitian form; exact <=
    # anticommutation: that norm is at most the Frobenius norm, which is the
    # anticommutation defect for a unitary M
    classification = classify_spin(j)
    a = angular_momentum_z(j)
    slack = 1e-12 * max(1.0, j)
    # the true J, J followed by a planted unitary near 1, and a random antiunitary
    planted = _perturbed(classification.structure, rng)
    other = AntilinearMap(random_unitary_complex(len(a), rng))
    for jmap in (classification.structure, planted, other):
        report = time_reversal_check(replace(classification, structure=jmap))
        sampled = sampled_expectation_flip(jmap, a, seed=4)
        supremum = np.linalg.norm(polarized_flip_form(jmap, a), 2)
        assert report.expectation_flip_defect == pytest.approx(supremum, rel=1e-12, abs=slack)
        assert sampled <= report.expectation_flip_defect + slack
        assert report.expectation_flip_defect <= report.anticommutation_defect + slack
        if j > 0.0 and jmap is not classification.structure:
            # either map moves J off time reversal, so every route sees it
            assert sampled > 0.01


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 7.0])
def test_rotation_check_fails_when_spin_matrices_are_wrong(j, monkeypatch):
    # every eigenvalue of the rotation generator scaled by 1.1 puts U(pi)^2
    # off the phase (-1)^(2j)
    classification = classify_spin(j)
    eigh = np.linalg.eigh

    def scaled(a):
        w, v = eigh(a)
        return 1.1 * w, v

    monkeypatch.setattr(threefold.su2.np.linalg, "eigh", scaled)
    with pytest.raises(InternalInconsistencyError, match="rotation by 2 pi") as err:
        time_reversal_check(classification)
    assert err.value.tol == 1e-9 * (2 * j + 1)
    assert err.value.defect > err.value.tol

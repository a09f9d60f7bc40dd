"""Spin-j representations: characters, indicator quadrature, time reversal.

The closed-form character sin((2j+1)phi)/sin(phi), the diagonal weight
matrix diag(j, j-1, ..., -j) and the symmetric tensor power of C^2 (in
``util``) serve as independent oracles for the recursive character and the
|j, m> construction.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson

from threefold.errors import InternalInconsistencyError, PreconditionError
from threefold.scalars import QUATERNION_UNITS, Quaternion
from threefold.structures import AntilinearMap, RepKind, classify_tensor, tensor_antilinear
import threefold.su2
from threefold.su2 import (
    MAX_NODES,
    MAX_TWICE_SPIN,
    PAULI,
    angular_momentum_z,
    character,
    classify_spin,
    fs_indicator_su2,
    invariant_form_spin,
    random_unit_quaternion,
    spin_matrix,
    su2_matrix,
    su2_spin_rep,
    time_reversal_check,
    twice_spin,
)
from util import (
    random_unitary_complex,
    symmetric_basis,
    tensor_angular_momentum_z,
    tensor_invariant_form,
    tensor_spin_matrix,
)

HALF_SPINS = [k / 2.0 for k in range(0, 11)]


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


def test_spin_matrices_are_unitary(rng):
    for j in (1.0, 2.5):
        u = spin_matrix(su2_matrix(random_unit_quaternion(rng)), j)
        assert np.allclose(u.conj().T @ u, np.eye(int(2 * j) + 1), atol=1e-12)


@pytest.mark.parametrize("twice_j", range(0, 9))
def test_spin_j_matches_the_tensor_power_oracle(rng, twice_j):
    j = twice_j / 2.0
    qs = [random_unit_quaternion(rng) for _ in range(4)]
    for q, m in zip(qs, su2_spin_rep(j, qs)):
        oracle = tensor_spin_matrix(su2_matrix(q), twice_j)
        assert np.abs(spin_matrix(su2_matrix(q), j) - oracle).max() < 1e-12
        assert np.abs(m - oracle).max() < 1e-12
    for q in (Quaternion(1.0), Quaternion(-1.0), QUATERNION_UNITS["k"]):
        oracle = tensor_spin_matrix(su2_matrix(q), twice_j)
        assert np.abs(spin_matrix(su2_matrix(q), j) - oracle).max() < 1e-12
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
    assert abs(fs_indicator_su2(j) - expected) < 1e-6


def test_indicator_quadrature_converges():
    coarse = fs_indicator_su2(3.0, nodes=201)
    fine = fs_indicator_su2(3.0, nodes=2001)
    assert abs(fine - 1.0) < abs(coarse - 1.0) + 1e-12
    with pytest.raises(PreconditionError):
        fs_indicator_su2(1.0, nodes=200)


def test_node_count_above_the_bound_is_refused_before_any_array_is_built(monkeypatch):
    assert abs(fs_indicator_su2(0.0, nodes=MAX_NODES) - 1.0) < 1e-12

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the node-count check")

    monkeypatch.setattr(threefold.su2, "np", NoNumpy())
    with pytest.raises(PreconditionError, match=str(MAX_NODES)):
        fs_indicator_su2(0.0, nodes=MAX_NODES + 2)


@pytest.mark.parametrize("j", [0.0, 2.5, 7.0, 50.5, 200.0])
def test_simpson_weights_match_scipy(j):
    theta = np.linspace(0.0, np.pi, 2001)
    integrand = character(j, 2.0 * theta) * np.sin(theta) ** 2
    reference = 2.0 / np.pi * simpson(integrand, x=theta)
    assert abs(fs_indicator_su2(j) - reference) < 1e-14


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
    assert result.j_square_sign == (1 if integer else -1)
    assert abs(result.fs - result.j_square_sign) < 1e-6
    d = int(2 * j) + 1
    assert np.allclose(
        result.structure.square(), result.j_square_sign * np.eye(d), atol=1e-9
    )
    assert result.structure.is_antiunitary(1e-9)


# ---------------------------------------------------------------------------
# route disagreement: each route made wrong in turn must raise
# ---------------------------------------------------------------------------

def _flip_quadrature(monkeypatch):
    quadrature = threefold.su2.fs_indicator_su2
    monkeypatch.setattr(threefold.su2, "fs_indicator_su2", lambda j, nodes: -quadrature(j, nodes))


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
    monkeypatch.setattr(threefold.su2, "fs_indicator_su2", lambda j, nodes: value)
    with pytest.raises(InternalInconsistencyError) as err:
        classify_spin(1.0)
    if value == 0.5:
        assert (err.value.defect, err.value.tol) == (0.5, 1e-6)


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
        kind, structure, sign = decide(*args)
        return RepKind.REAL if kind is RepKind.QUATERNIONIC else RepKind.QUATERNIONIC, structure, -sign

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


@pytest.mark.parametrize("j", [1e308, -1e308, np.float64(1e308)])
def test_spins_whose_double_overflows_are_refused(j):
    with pytest.raises(PreconditionError):
        twice_spin(j)


@pytest.mark.parametrize("j", [0.0, 0.5, 7.0, MAX_TWICE_SPIN / 2.0])
def test_twice_spin_accepts_supported_spins(j):
    assert twice_spin(j) == int(2 * j)


def test_node_count_refusal_carries_the_count_and_the_bound():
    with pytest.raises(PreconditionError) as refused:
        fs_indicator_su2(0.0, nodes=MAX_NODES + 2)
    assert (refused.value.defect, refused.value.tol) == (MAX_NODES + 2, MAX_NODES)


def test_classify_spin_refuses_spins_above_the_bound():
    assert classify_spin(MAX_TWICE_SPIN / 2.0).kind is RepKind.REAL
    with pytest.raises(PreconditionError):
        classify_spin((MAX_TWICE_SPIN + 1) / 2.0)


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
    report = time_reversal_check(classify_spin(j))
    assert report.anticommutation_defect < 1e-8
    assert report.expectation_flip_defect < 1e-8
    assert report.rotation_2pi_phase == (1 if (2 * j) % 2 == 0 else -1)
    assert report.j_square_sign == report.rotation_2pi_phase


def trial_loop_flip(jmap, j, seed, trials):
    """Oracle: max |<Jv, A Jv> + <v, A v>| over seeded unit vectors, one trial at a time."""
    rng = np.random.default_rng(seed)
    a = np.diag([j - k for k in range(int(2 * j) + 1)])
    flip = 0.0
    for _ in range(trials):
        v = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        v /= np.linalg.norm(v)
        flip = max(flip, abs(np.vdot(jmap(v), a @ jmap(v)) + np.vdot(v, a @ v)))
    return flip


@pytest.mark.parametrize("j", [0.5, 2.0, 5.5])
def test_stacked_expectation_flip_matches_the_trial_loop(j, rng):
    classification = classify_spin(j)
    report = time_reversal_check(classification, seed=4)
    loop = trial_loop_flip(classification.structure, j, seed=4, trials=20)
    assert abs(report.expectation_flip_defect - loop) <= 1e-12 * j
    # a random antiunitary flips nothing, so its defects are of order j
    other = AntilinearMap(random_unitary_complex(int(2 * j) + 1, rng))
    report = time_reversal_check(replace(classification, structure=other), seed=4)
    loop = trial_loop_flip(other, j, seed=4, trials=20)
    assert report.expectation_flip_defect == pytest.approx(loop, rel=1e-12)


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
    with pytest.raises(InternalInconsistencyError, match="rotation by 2 pi"):
        time_reversal_check(classification)

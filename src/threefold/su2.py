"""Spin-j representations of SU(2) and their time-reversal structure.

SU(2) is the group of unit quaternions; its defining 2x2 matrices come from
the left action on H viewed as C^2:

    a + b i + c j + d k  ->  a s0 - i (b s1 + c s2 + d s3)

(Pauli matrices s1, s2, s3).  Spin j is built directly in the standard
basis |j, j-k> (column k, k = 0..2j) with Condon-Shortley phases: J_z is
diag(j - k), the ladder operators J_+- have the closed-form entries
sqrt((j -+ m)(j +- m + 1)), and the spin-j matrix of a rotation by theta
about the axis n is exp(-i theta n.J).  Time and memory per spin are
O(j^3) and O(j^2).  The symmetric part of the 2j-fold tensor power of C^2
spans the same basis in the same order; the tests keep that construction
as the oracle for every matrix built here.

Every irreducible is self-dual: integer spin is real (J^2 = +1, bosonic),
half-integer spin is quaternionic (J^2 = -1, fermionic), and the
Frobenius-Schur integral

    (2/pi) Integral_0^pi chi_j(2 theta) sin^2 theta  d theta

computes the same sign; a trapezoid rule with 2j + 2 intervals evaluates it
exactly.  ``classify_spin`` runs both routes through the routine
``representations.classify`` uses, which checks J^2 against the form's
symmetry, that J commutes with the generators i J_k (the one check that the
form is invariant) and that both routes name the same kind.
The ``su2`` verb's pass reads only the two defects of time_reversal_check
(J against J_z, and the flip of expectations); every other check raises.
Each public function checks j once with ``twice_spin``, before it builds an
array, and the private builders take the integer 2j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, PreconditionError, ShapeError
from .hilbert import _complex_coeffs, _property_defects, _require_within
from .representations import InvariantBilinearForm, _two_route_kind
from .scalars import Quaternion, _norms
from .structures import AntilinearMap, RepKind

__all__ = [
    "PAULI",
    "MAX_TWICE_SPIN",
    "twice_spin",
    "su2_matrix",
    "spin_matrix",
    "su2_spin_rep",
    "fs_indicator_su2",
    "invariant_form_spin",
    "classify_spin",
    "SpinClassification",
    "angular_momentum_z",
    "time_reversal_check",
    "TimeReversalReport",
]

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# Largest 2j that every public function here accepts (j <= 200): up to there
# the exact trapezoid rule reproduces the indicator to about 3e-12.
MAX_TWICE_SPIN = 400

# twice_spin: absolute distance of 2j from the nearest integer
_HALF_INTEGER_TOL = 1e-12

# U(pi)^2 = (-1)^(2j) 1 in time_reversal_check: relative to the dimension
# 2j + 1, on the Frobenius norm of the difference
_ROTATION_TOL = 1e-9

# the unit quaternion (i + 2j + 3k) / sqrt(14): the rotation by pi about a
# generic axis, so its spin matrix goes through the eigendecomposition
_HALF_TURN = np.array([0.0, 1.0, 2.0, 3.0]) / np.sqrt(14.0)


def twice_spin(j):
    """2j as an int for a spin j in 0, 1/2, ..., MAX_TWICE_SPIN / 2; else PreconditionError.

    j is doubled as a Python float, so that j = 1e308 gives inf instead of an
    OverflowError in round or a numpy overflow warning.  A j that rounds to
    a negative 2j, or none, is refused with no defect; any other j off the
    half-integers through the guard, with |2j - round(2j)| and its bound;
    a half-integer above the maximum with 2j and MAX_TWICE_SPIN.
    """
    twice = 2.0 * float(j)
    n = int(round(twice)) if np.isfinite(twice) else -1
    message = "spin must be a nonnegative half-integer, got {j}"
    if n < 0:
        raise PreconditionError(message.format(j=j))
    _require_within(abs(twice - n), _HALF_INTEGER_TOL, PreconditionError, message, j=j)
    if n > MAX_TWICE_SPIN:
        raise PreconditionError(
            f"spin {j} is above the supported maximum {MAX_TWICE_SPIN / 2:g}", n, MAX_TWICE_SPIN
        )
    return n


def su2_matrix(q):
    """SU(2) matrix of a unit quaternion (left multiplication on H = C^2)."""
    a, b, c, d = q.coeffs
    return a * PAULI[0] - 1j * (b * PAULI[1] + c * PAULI[2] + d * PAULI[3])


def _spin_stack(coeffs, n):
    """Spin-n/2 matrices (k, n + 1, n + 1) of the unit quaternions in the (k, 4) ``coeffs``.

    Quaternion a + b i + c j + d k is the rotation by theta = 2 atan2(|(b, c, d)|, a)
    about the axis e = (b, c, d) / |(b, c, d)|, so its spin-n/2 matrix is
    exp(-i theta e.J), read off the eigendecomposition of the Hermitian e.J:
    one stacked eigh for the whole stack.  With no axis, a = +-1 and the
    result is a^n times the identity; such rows take the zero generator
    in the stack and are overwritten after it.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 4)
    a, s = coeffs[:, 0], _norms(coeffs[:, 1:], 1)
    no_axis = s == 0.0
    s[no_axis] = 1.0
    theta = 2.0 * np.arctan2(s, a)
    axes = coeffs[:, 1:] / s[:, None]
    # e.J = e_x J_x + e_y J_y + e_z J_z, one row per element
    w, v = np.linalg.eigh((axes @ _spin_generators(n).reshape(3, -1)).reshape(-1, n + 1, n + 1))
    # v exp(-i theta w) v^*, conjugating v in place: three stacks alive at most
    rotated = v * np.exp(-1j * theta[:, None] * w)[:, None, :]
    out = rotated @ np.conjugate(v, out=v).swapaxes(-1, -2)
    out[no_axis] = (a[no_axis] ** n)[:, None, None] * np.eye(n + 1)
    return out


def spin_matrix(u, j):
    """Spin-j matrix of a 2x2 special unitary u = a s0 - i (b s1 + c s2 + d s3).

    The one-element case of su2_spin_rep: the rotation by theta about e read
    off u's quaternion (a, b, c, d).  ShapeError unless u is 2x2;
    PreconditionError unless u is unitary by hilbert's rule, |u* u - 1|_F <=
    1e-10 sqrt(2), and then equal within that bound to su2_matrix of the
    quaternion read off, so det u = 1.
    """
    n = twice_spin(j)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ShapeError(f"u must be 2x2, not of shape {u.shape}")
    defect, bound = _property_defects(_complex_coeffs(u), "unitary")
    message = "u is not {what} (defect {defect:.2e} > {tol:.2e})"
    _require_within(defect, bound, PreconditionError, message, what="unitary")
    q = Quaternion(0.5 * (u[0, 0] + u[1, 1]).real, -0.5 * (u[0, 1] + u[1, 0]).imag,
                   0.5 * (u[1, 0] - u[0, 1]).real, 0.5 * (u[1, 1] - u[0, 0]).imag)
    _require_within(_norms(u - su2_matrix(q)), bound, PreconditionError, message, what="in SU(2)")
    return _spin_stack(q.coeffs, n)[0]


def su2_spin_rep(j, quaternions):
    """Spin-j matrices, stacked (k, 2j + 1, 2j + 1), for a sequence of k unit quaternions.

    PreconditionError unless every quaternion's 2x2 matrix is unitary by
    hilbert's rule.  That matrix times its adjoint is |q|^2 1, so the rule is
    held on q as a 1x1 matrix over H, | |q|^2 - 1 | <= 1e-10: the same verdict.
    """
    n = twice_spin(j)
    coeffs = np.array([q.coeffs for q in quaternions], dtype=float).reshape(-1, 4)
    _require_within(*_property_defects(coeffs[:, None, None], "unitary"), PreconditionError,
                    "quaternion {index} is not a unit (defect {defect:.2e} > {tol:.2e})")
    return _spin_stack(coeffs, n)


def _character(n, phi):
    """Character of spin n / 2 at half-angle phi: the trace of the rotation by 2 phi.

    Spin 1/2 has eigenvalues e^{+-i phi} there, so chi_{1/2}(phi) = 2 cos(phi).

    Evaluated by the product recurrence chi_{j+1/2} = chi_{1/2} chi_j -
    chi_{j-1/2}, which is finite at phi = 0 and pi where the closed form
    sin((2j+1) phi) / sin(phi) degenerates to 0/0.
    """
    phi = np.asarray(phi, dtype=float)
    prev = np.ones_like(phi)
    if n == 0:
        return prev
    half = 2.0 * np.cos(phi)
    cur = half.copy()
    for _ in range(n - 1):
        prev, cur = cur, half * cur - prev
    return cur


def fs_indicator_su2(j):
    """Frobenius-Schur indicator of spin j by an exact trapezoid rule on the Weyl integral.

    Exact value is +1 for integer j, -1 for half-integer j.  The integrand
    chi_j(2 theta) sin^2 theta is a cosine polynomial of degree 4j + 2, and
    the N-interval trapezoid rule on [0, pi] integrates cos(k theta) exactly
    for 0 <= k < 2N, so N = 2j + 2 intervals give the integral up to
    rounding.  sin^2 theta vanishes at theta = 0 and pi, so the sum runs
    over theta = l pi / N for l = 1, ..., N - 1.
    """
    n = twice_spin(j)
    intervals = n + 2
    theta = np.arange(1, intervals) * (np.pi / intervals)
    integrand = _character(n, 2.0 * theta) * np.sin(theta) ** 2
    return float(2.0 / intervals * integrand.sum())


def invariant_form_spin(j):
    """The (up to scale unique) SU(2)-invariant bilinear form on spin j.

    Antidiagonal with entry (-1)^k at (k, 2j - k): it pairs |j, m> with
    |j, -m> and is the spin-j part of the 2j-th tensor power of the 2x2
    form [[0, 1], [-1, 0]].  Symmetric for integer j, antisymmetric for
    half-integer j.
    """
    n = twice_spin(j)
    return np.fliplr(np.diag((-1.0) ** np.arange(n + 1)))


@dataclass(frozen=True)
class SpinClassification:
    j: float
    fs: float
    kind: RepKind
    structure: AntilinearMap


def classify_spin(j):
    """Classify spin j by Frobenius-Schur indicator and by structure map; both must agree.

    ``j`` must pass twice_spin.  The routine representations.classify shares
    holds the indicator to the finite groups' bound and checks J^2 against
    the form's symmetry and the routes against each other.  SU(2) is
    connected, so the exp(-i t J_k) generate it: J commutes with every
    element iff it commutes with each i J_k, for k = x, y, z, which
    structure_map_from_form checks on the three generators in closed form,
    where each defect is exactly 0.  That defect is |J_k^T g + g J_k|_F for
    the form g (|c| = 1 here), so it is also the check that g is invariant;
    a refusal names the operator index 0, 1 or 2 for J_x, J_y or J_z.  The
    kind must be real for integer j and quaternionic otherwise.
    """
    n = twice_spin(j)
    fs = fs_indicator_su2(j)
    form = InvariantBilinearForm(invariant_form_spin(j))
    kind, structure = _two_route_kind(fs, form, 1j * _spin_generators(n))
    if kind is not RepKind((-1) ** n):
        raise InternalInconsistencyError(f"spin {j:g} is classified {kind} against its parity")
    return SpinClassification(j=float(j), fs=fs, kind=kind, structure=structure)


def angular_momentum_z(j):
    """The self-adjoint generator A = -i dD(i s3 / 2): J_z = diag(j - k) on |j, j - k>."""
    return _angular_momentum_z(twice_spin(j))


def _angular_momentum_z(n):
    return np.diag(0.5 * n - np.arange(n + 1))


def _spin_generators(n):
    """J_x, J_y and J_z of spin n / 2, stacked (3, n + 1, n + 1), with J_+- = J_x +- i J_y."""
    # J_+ |j, m> = sqrt((j - m)(j + m + 1)) |j, m + 1>, i.e. sqrt(k (2j - k + 1)) at (k - 1, k)
    k = np.arange(1, n + 1)
    half_band = 0.5 * np.sqrt(k * (n - k + 1.0))
    out = np.zeros((3, n + 1, n + 1), dtype=complex)
    out[0, k - 1, k] = out[0, k, k - 1] = half_band
    out[1, k - 1, k], out[1, k, k - 1] = -1j * half_band, 1j * half_band
    out[2] = _angular_momentum_z(n)
    return out


@dataclass(frozen=True)
class TimeReversalReport:
    anticommutation_defect: float
    expectation_flip_defect: float
    rotation_2pi_phase: int


def time_reversal_check(classification):
    """Time reversal on a classified spin: J anticommutes with J_z and flips expectations.

    ``classification`` is the ``classify_spin`` result whose structure map J
    is checked.  With M the matrix of J (J v = M conj(v)) and A = J_z, the
    flip <Jv, A Jv> + <v, A v> is <v, B v> for the Hermitian
    B = A + conj(M* A M), so its supremum over unit states v is B's largest
    |eigenvalue|; for a unitary M that is at most |B|_F, the anticommutation
    defect.  Also checks U(pi)^2 = (-1)^(2j) for a rotation U(pi) by pi and
    reports U(pi)^2's phase.  j is checked once, by angular_momentum_z.
    """
    a = angular_momentum_z(classification.j)
    jmap = classification.structure
    anticommute = jmap.anticommutation_defect(a)
    m = jmap.matrix
    flip = np.abs(np.linalg.eigvalsh(a + np.conj(m.conj().T @ a @ m))).max()
    d = a.shape[0]

    half_turn = _spin_stack(_HALF_TURN, d - 1)[0]
    full_turn = half_turn @ half_turn
    _require_within(_norms(full_turn - (-1.0) ** (d - 1) * np.eye(d)), _ROTATION_TOL * d,
                    InternalInconsistencyError, "rotation by 2 pi is not the expected phase")

    return TimeReversalReport(
        anticommutation_defect=float(anticommute),
        expectation_flip_defect=float(flip),
        rotation_2pi_phase=int(round(np.trace(full_turn).real / d)),
    )

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

computes the same sign by Weyl quadrature.  ``classify_spin`` runs both
routes through the routine ``representations.classify`` uses, which checks
J^2 against the form's symmetry and that both routes name the same kind.
The ``su2`` verb's pass reads only the two defects of time_reversal_check
(J against J_z, and the flip of expectations); every other check raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import InternalInconsistencyError, PreconditionError
from .representations import _two_route_kind
from .structures import AntilinearMap, RepKind

__all__ = [
    "PAULI",
    "MAX_TWICE_SPIN",
    "MAX_NODES",
    "twice_spin",
    "su2_matrix",
    "random_unit_quaternion",
    "spin_matrix",
    "su2_spin_rep",
    "character",
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

# Largest 2j that classify_spin accepts (j <= 200): the default 2001-node
# quadrature still reproduces the indicator to about 2e-12 there.
MAX_TWICE_SPIN = 400

# Largest quadrature node count fs_indicator_su2 accepts.  At this bound the
# quadrature peaks at 46 MiB (tracemalloc) and takes 1.9 s at j = 200 on a
# 2-vCPU Xeon (numpy 2.4); its arrays grow linearly in the node count.
MAX_NODES = 1_000_001

# Haar-random SU(2) elements classify_spin checks the invariant form and the
# structure map against
_FORM_SAMPLES = 8

# _twice: absolute distance of 2j from the nearest integer
_HALF_INTEGER_TOL = 1e-12

# classify_spin's quadrature indicator: absolute distance from -1, 0 or +1
_INDICATOR_TOL = 1e-6

# form invariance u^T g u = g in classify_spin: relative to max(1, |g|_F)
_INVARIANCE_TOL = 1e-9

# random unit vectors the expectation flip of time_reversal_check is taken on
_FLIP_TRIALS = 20

# U(pi)^2 = (-1)^(2j) 1 in time_reversal_check: relative to the dimension
# 2j + 1, on the Frobenius norm of the difference
_ROTATION_TOL = 1e-9

# su2_matrix of the unit quaternion (i + 2j + 3k) / sqrt(14): the rotation by
# pi about a generic axis, so its spin matrix goes through the eigendecomposition
_HALF_TURN = -1j * (PAULI[1] + 2.0 * PAULI[2] + 3.0 * PAULI[3]) / np.sqrt(14.0)


def _twice(j):
    # 2j as an int; PreconditionError unless j is a finite nonnegative half-integer.
    # Doubled as a Python float, so that j = 1e308 gives inf instead of an
    # OverflowError in round or a numpy overflow warning
    twice = 2.0 * float(j)
    t = int(round(twice)) if np.isfinite(twice) else -1
    if t < 0 or abs(twice - t) > _HALF_INTEGER_TOL:
        raise PreconditionError(f"spin must be a nonnegative half-integer, got {j}")
    return t


def twice_spin(j):
    """2j for a spin classify_spin accepts; PreconditionError, with 2j and the bound past it."""
    n = _twice(j)
    if n > MAX_TWICE_SPIN:
        raise PreconditionError(
            f"spin {j} is above the supported maximum {MAX_TWICE_SPIN / 2:g}", n, MAX_TWICE_SPIN
        )
    return n


def su2_matrix(q):
    """SU(2) matrix of a unit quaternion (left multiplication on H = C^2)."""
    a, b, c, d = q.coeffs
    return a * PAULI[0] - 1j * (b * PAULI[1] + c * PAULI[2] + d * PAULI[3])


def random_unit_quaternion(rng):
    from .scalars import Quaternion

    v = rng.standard_normal(4)
    return Quaternion.from_array(v / np.linalg.norm(v))


def spin_matrix(u, j):
    """Spin-j matrix of a 2x2 special unitary u = a s0 - i (b s1 + c s2 + d s3).

    u is the rotation by theta = 2 atan2(|(b, c, d)|, a) about the axis
    n = (b, c, d) / |(b, c, d)|, so its spin-j matrix is exp(-i theta n.J),
    read off one eigendecomposition of the Hermitian n.J.  With no axis,
    u = a = +-1 and the result is a^(2j) times the identity.
    """
    n = _twice(j)
    u = np.asarray(u, dtype=complex)
    a = 0.5 * (u[0, 0] + u[1, 1]).real
    b = -0.5 * (u[0, 1] + u[1, 0]).imag
    c = 0.5 * (u[1, 0] - u[0, 1]).real
    d = 0.5 * (u[1, 1] - u[0, 0]).imag
    s = np.sqrt(b * b + c * c + d * d)
    if s == 0.0:
        return a**n * np.eye(n + 1, dtype=complex)
    theta = 2.0 * np.arctan2(s, a)
    # n.J = n_z J_z + upper + upper^H with upper = (n_x - i n_y) J_+ / 2, and
    # J_+ |j, m> = sqrt((j - m)(j + m + 1)) |j, m + 1>, i.e. sqrt(k (2j - k + 1)) at (k - 1, k)
    k = np.arange(1, n + 1)
    upper = np.diag(0.5 * complex(b, -c) / s * np.sqrt(k * (n - k + 1.0)), 1)
    generator = d / s * angular_momentum_z(j) + upper + upper.conj().T
    w, v = np.linalg.eigh(generator)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def su2_spin_rep(j, quaternions):
    """Spin-j matrices for a sequence of unit quaternions."""
    return [spin_matrix(su2_matrix(q), j) for q in quaternions]


def character(j, phi):
    """Spin-j character at rotation angle phi (eigenvalues e^{+-i phi}).

    Evaluated by the product recurrence chi_{j+1/2} = chi_{1/2} chi_j -
    chi_{j-1/2}, which is finite at phi = 0 and pi where the closed form
    sin((2j+1) phi) / sin(phi) degenerates to 0/0.
    """
    phi = np.asarray(phi, dtype=float)
    t = _twice(j)
    prev = np.ones_like(phi)
    if t == 0:
        return prev
    half = 2.0 * np.cos(phi)
    cur = half.copy()
    for _ in range(t - 1):
        prev, cur = cur, half * cur - prev
    return cur


def fs_indicator_su2(j, nodes=2001):
    """Frobenius-Schur indicator of spin j by Weyl-measure Simpson quadrature.

    Exact value is +1 for integer j, -1 for half-integer j; the composite
    Simpson rule h/3 [1, 4, 2, 4, ..., 2, 4, 1] with the default 2001 nodes
    reproduces it to well under 1e-6.  Node counts above MAX_NODES raise
    PreconditionError before any array is built.
    """
    if nodes < 3 or nodes % 2 == 0:
        raise PreconditionError("Simpson quadrature needs an odd node count >= 3")
    if nodes > MAX_NODES:
        raise PreconditionError(
            f"{nodes} quadrature nodes are above the largest supported count {MAX_NODES}",
            nodes,
            MAX_NODES,
        )
    theta = np.linspace(0.0, np.pi, nodes)
    integrand = character(j, 2.0 * theta) * np.sin(theta) ** 2
    weights = np.full(nodes, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    h = np.pi / (nodes - 1)
    return float(2.0 / np.pi * h / 3.0 * (weights @ integrand))


def invariant_form_spin(j):
    """The (up to scale unique) SU(2)-invariant bilinear form on spin j.

    Antidiagonal with entry (-1)^k at (k, 2j - k): it pairs |j, m> with
    |j, -m> and is the spin-j part of the 2j-th tensor power of the 2x2
    form [[0, 1], [-1, 0]].  Symmetric for integer j, antisymmetric for
    half-integer j.
    """
    n = _twice(j)
    return np.fliplr(np.diag((-1.0) ** np.arange(n + 1)))


@dataclass(frozen=True)
class SpinClassification:
    j: float
    fs: float
    kind: RepKind
    j_square_sign: int
    structure: AntilinearMap


def classify_spin(j, nodes=2001, seed=0):
    """Classify spin j by indicator quadrature and by structure map; both must agree.

    ``j`` must pass twice_spin.  The routine representations.classify shares
    holds the quadrature indicator to _INDICATOR_TOL and checks J^2 against
    the form's symmetry and the routes against each other.  The form and J
    are checked on _FORM_SAMPLES seeded Haar-random elements, and the kind
    must be real for integer j and quaternionic otherwise.
    """
    n = twice_spin(j)
    # first, so that a node count past MAX_NODES is refused before any array is built
    fs = fs_indicator_su2(j, nodes)
    form = invariant_form_spin(j)
    rng = default_rng(seed)
    sampled = su2_spin_rep(j, [random_unit_quaternion(rng) for _ in range(_FORM_SAMPLES)])
    for u in sampled:
        defect = np.linalg.norm(u.T @ form @ u - form)
        if defect > _INVARIANCE_TOL * max(1.0, np.linalg.norm(form)):
            raise InternalInconsistencyError(f"form is not invariant (defect {defect:.2e})")
    kind, structure, sign = _two_route_kind(fs, _INDICATOR_TOL, form, sampled)
    if kind is not (RepKind.REAL if n % 2 == 0 else RepKind.QUATERNIONIC):
        raise InternalInconsistencyError(f"spin {j:g} is classified {kind} against its parity")
    return SpinClassification(j=float(j), fs=fs, kind=kind, j_square_sign=sign, structure=structure)


def angular_momentum_z(j):
    """The self-adjoint generator A = -i dD(i s3 / 2): J_z = diag(j - k) on |j, j - k>."""
    n = _twice(j)
    return np.diag(0.5 * n - np.arange(n + 1))


@dataclass(frozen=True)
class TimeReversalReport:
    j: float
    j_square_sign: int
    anticommutation_defect: float
    expectation_flip_defect: float
    rotation_2pi_phase: int


def time_reversal_check(classification, seed=0):
    """Time reversal on a classified spin: J anticommutes with J_z and flips expectations.

    ``classification`` is the ``classify_spin`` result whose structure map J
    is checked, the flip on _FLIP_TRIALS seeded random vectors.  Also checks
    U(pi)^2 = (-1)^(2j) for a rotation U(pi) by pi and reports that phase.
    """
    j = classification.j
    rng = default_rng(seed)
    a = angular_momentum_z(j)
    jmap = classification.structure
    anticommute = jmap.anticommutation_defect(a)

    # column k of v is trial k: its real part drawn before its imaginary part
    d = a.shape[0]
    draws = rng.standard_normal((_FLIP_TRIALS, 2, d))
    v = (draws[:, 0] + 1j * draws[:, 1]).T
    v /= np.linalg.norm(v, axis=0)
    jv = jmap(v)
    # <Jv, A Jv> + <v, A v> per column
    flips = np.sum(jv.conj() * (a @ jv) + v.conj() * (a @ v), axis=0)
    flip = float(np.abs(flips).max())

    half_turn = spin_matrix(_HALF_TURN, j)
    expected = (-1.0) ** _twice(j)
    if np.linalg.norm(half_turn @ half_turn - expected * np.eye(d)) > _ROTATION_TOL * d:
        raise InternalInconsistencyError("rotation by 2 pi is not the expected phase")

    return TimeReversalReport(
        j=float(j),
        j_square_sign=classification.j_square_sign,
        anticommutation_defect=float(anticommute),
        expectation_flip_defect=float(flip),
        rotation_2pi_phase=int(round(expected)),
    )

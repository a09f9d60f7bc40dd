"""Conversions between real, complex and quaternionic Hilbert spaces.

A complex Hilbert space is secretly real exactly when it carries an
antiunitary J with J^2 = +1, and secretly quaternionic exactly when it
carries an antiunitary J with J^2 = -1.  Dually, a real space can be
complexified and a complex space quaternified, and the converted space
remembers where it came from through a structure map (or a pair of them).
This module implements all six conversions as explicit pushforwards on
vectors and operators, together with the structure maps and the tensor
rule for combining them.

Every conversion object has ``dim_in``/``dim_out``, ``push`` (operators),
``push_vector``, ``pull`` (the inverse of ``push`` on its image) and a
``label`` naming the converted space; the advertised structure maps commute
with every pushed operator.

The structure maps are the plain attributes ``j`` (an :class:`AntilinearMap`
on the two complex conversions, a ``KMatrix`` on the others) and, on the two
pair conversions, ``k``.  Each is built in closed form from the entries 0 and
+-1, so J^2 = +-1 (or J^2 = K^2 = -1), (anti)unitarity and JK = -KJ hold
exactly; the tests assert these relations rather than every construction.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import PreconditionError, ShapeError
from .hilbert import KMatrix, KVector
from .scalars import COMPLEXES, QUATERNIONS, REALS, mul_table

__all__ = [
    "RepKind",
    "KIND_SIGN",
    "SIGN_KIND",
    "AntilinearMap",
    "complexify",
    "underlying_real",
    "underlying_complex",
    "quaternify",
    "underlying_real_quat",
    "quaternify_real",
    "tensor_antilinear",
    "classify_tensor",
    "real_form_basis",
    "left_multiplication_triple",
]

_VALIDATE_TOL = 1e-10


class RepKind(Enum):
    """The three possible symmetry kinds of an irreducible object."""

    REAL = "real"
    COMPLEX = "complex"
    QUATERNIONIC = "quaternionic"

    def __str__(self):
        return self.value


KIND_SIGN = {RepKind.REAL: 1, RepKind.COMPLEX: 0, RepKind.QUATERNIONIC: -1}
SIGN_KIND = {v: k for k, v in KIND_SIGN.items()}


class AntilinearMap:
    """Antilinear operator on C^n, stored as v -> M conj(v)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ShapeError("antilinear map needs a square matrix")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("AntilinearMap is immutable")

    @property
    def n(self):
        return self.matrix.shape[0]

    def __call__(self, v):
        return self.matrix @ np.conj(np.asarray(v, dtype=complex))

    def square(self):
        """The linear map J o J, i.e. M conj(M)."""
        return self.matrix @ np.conj(self.matrix)

    def compose_antilinear(self, other):
        """Linear matrix of self o other."""
        return self.matrix @ np.conj(other.matrix)

    def after_linear(self, t):
        """Antilinear matrix of self o T (apply T first)."""
        return AntilinearMap(self.matrix @ np.conj(t))

    def before_linear(self, t):
        """Antilinear matrix of T o self (apply self first)."""
        return AntilinearMap(np.asarray(t, dtype=complex) @ self.matrix)

    def scale(self, t):
        return AntilinearMap(self.matrix * t)

    def is_antiunitary(self, tol=_VALIDATE_TOL):
        m = self.matrix
        return bool(np.allclose(m.conj().T @ m, np.eye(self.n), rtol=0.0, atol=tol))

    def commutation_defect(self, t):
        """Frobenius norm || J T - T J || for a linear operator T.

        ``t`` may also be a stack of shape (k, n, n); then one norm per
        matrix comes back as an array of length k.  A single matrix gives a
        float.
        """
        t = np.asarray(t, dtype=complex)
        diff = self.matrix @ np.conj(t) - t @ self.matrix
        if t.ndim == 2:
            return float(np.linalg.norm(diff))
        return np.linalg.norm(diff, axis=(-2, -1))

    def anticommutation_defect(self, t):
        """|| J T + T J || for a linear operator T."""
        t = np.asarray(t, dtype=complex)
        return float(np.linalg.norm(self.matrix @ np.conj(t) + t @ self.matrix))

    def __repr__(self):
        return f"AntilinearMap(n={self.n})"


# ---------------------------------------------------------------------------
# helpers shared by the conversions
# ---------------------------------------------------------------------------

def _complex_to_real_blocks(t):
    """Entrywise a+bi -> [[a,-b],[b,a]] with interleaved (re, im) ordering."""
    n, m = t.shape
    out = np.zeros((2 * n, 2 * m))
    out[0::2, 0::2] = t.real
    out[0::2, 1::2] = -t.imag
    out[1::2, 0::2] = t.imag
    out[1::2, 1::2] = t.real
    return out


def _quat_split(coeffs):
    """Split q = z1 + j z2 entrywise: z1 = a + b i, z2 = c - d i."""
    z1 = coeffs[..., 0] + 1j * coeffs[..., 1]
    z2 = coeffs[..., 2] - 1j * coeffs[..., 3]
    return z1, z2


def _complex_adjunct(coeffs):
    """Complex matrices of quaternionic ones: (..., n, m, 4) coefficients to (..., 2n, 2m).

    Entry q = z1 + j z2 becomes the 2x2 block [[z1, -conj z2], [z2, conj z1]].
    """
    a, b = _quat_split(coeffs)
    n, m = a.shape[-2:]
    out = np.zeros((*a.shape[:-2], 2 * n, 2 * m), dtype=complex)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = -np.conj(b)
    out[..., 1::2, 0::2] = b
    out[..., 1::2, 1::2] = np.conj(a)
    return out


def _quat_join(z1, z2):
    coeffs = np.stack([z1.real, z1.imag, z2.real, -z2.imag], axis=-1)
    return coeffs


def _epsilon_blocks(n):
    """Block-diagonal [[0,-1],[1,0]] of total size 2n."""
    return np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))


def _right_mult_matrix(unit_index, table):
    """Real matrix of x -> x e_u on the coefficient basis."""
    return table[:, unit_index, :].T


def _pull(conversion, t, s):
    """Return the projection s of t if it pushes back onto t, else refuse t.

    The one image test of every conversion: t is refused when
    ||push(s) - t|| > 1e-10 max(1, ||t||), a tolerance relative to t's norm.
    """
    defect = (conversion.push(s) - t).norm()
    if defect > _VALIDATE_TOL * max(1.0, t.norm()):
        raise PreconditionError(
            f"operator is not in the image of {conversion.label} (defect {defect:.2e})"
        )
    return s


# ---------------------------------------------------------------------------
# the six conversions
# ---------------------------------------------------------------------------

class Complexification:
    """R^n viewed as C^n; remembers realness via J = entrywise conjugation."""

    label = "real_as_complex"

    def __init__(self, n):
        self.n = n
        self.dim_in = n
        self.dim_out = n
        self.j = AntilinearMap(np.eye(n))

    def push_vector(self, v):
        _expect(v, REALS, self.n)
        return KVector.from_scalars(COMPLEXES, [complex(x, 0.0) for x in v.coeffs[:, 0]])

    def push(self, t):
        _expect(t, REALS, self.n, matrix=True)
        return KMatrix.from_complex(t.to_real().astype(complex))

    def pull(self, t):
        _expect(t, COMPLEXES, self.n, matrix=True)
        return _pull(self, t, KMatrix.from_real(t.coeffs[:, :, 0]))


class RealificationOfComplex:
    """C^n viewed as R^2n with interleaved (re, im) coordinates.

    The forgotten multiplication by i survives as the unitary J with
    J^2 = -1; pushed operators are exactly the real operators commuting
    with J.
    """

    label = "complex_as_real"

    def __init__(self, n):
        self.n = n
        self.dim_in = n
        self.dim_out = 2 * n
        self.j = KMatrix.from_real(_epsilon_blocks(n))

    def push_vector(self, v):
        _expect(v, COMPLEXES, self.n)
        out = np.zeros(2 * self.n)
        out[0::2] = v.coeffs[:, 0]
        out[1::2] = v.coeffs[:, 1]
        return KVector(REALS, out[:, None])

    def push(self, t):
        _expect(t, COMPLEXES, self.n, matrix=True)
        return KMatrix.from_real(_complex_to_real_blocks(t.to_complex()))

    def pull(self, t):
        _expect(t, REALS, self.dim_out, matrix=True)
        arr = t.to_real()
        return _pull(self, t, KMatrix.from_complex(arr[0::2, 0::2] + 1j * arr[1::2, 0::2]))


class ComplexFormOfQuaternionic:
    """H^n viewed as C^2n by splitting q = z1 + j z2 (z1 = a+bi, z2 = c-di).

    Coordinates interleave (z1, z2) per quaternionic coordinate.  Right
    multiplication by j survives as the antiunitary J with J^2 = -1, and
    the complex inner product is the complex part of the quaternionic one.
    """

    label = "quaternionic_as_complex"

    def __init__(self, n):
        self.n = n
        self.dim_in = n
        self.dim_out = 2 * n
        self.j = AntilinearMap(_epsilon_blocks(n))

    def push_vector(self, v):
        _expect(v, QUATERNIONS, self.n)
        z1, z2 = _quat_split(v.coeffs)
        out = np.zeros(2 * self.n, dtype=complex)
        out[0::2] = z1
        out[1::2] = z2
        re_im = np.stack([out.real, out.imag], axis=-1)
        return KVector(COMPLEXES, re_im)

    def push(self, t):
        _expect(t, QUATERNIONS, self.n, matrix=True)
        return KMatrix.from_complex(_complex_adjunct(t.coeffs))

    def pull(self, t):
        _expect(t, COMPLEXES, self.dim_out, matrix=True)
        arr = t.to_complex()
        return _pull(self, t, KMatrix(QUATERNIONS, _quat_join(arr[0::2, 0::2], arr[1::2, 0::2])))


class QuaternificationOfComplex:
    """C^n viewed inside H^n via the standard embedding of C (i goes to i).

    Left multiplication by the quaternion i is quaternion-linear (scalars
    act on the right) and survives as the unitary J with J^2 = -1.
    """

    label = "complex_as_quaternionic"

    def __init__(self, n):
        self.n = n
        self.dim_in = n
        self.dim_out = n
        self.j = _diag_unit(n, 1)

    def push_vector(self, v):
        _expect(v, COMPLEXES, self.n)
        coeffs = np.zeros((self.n, 4))
        coeffs[:, :2] = v.coeffs
        return KVector(QUATERNIONS, coeffs)

    def push(self, t):
        _expect(t, COMPLEXES, self.n, matrix=True)
        coeffs = np.zeros((t.rows, t.cols, 4))
        coeffs[:, :, :2] = t.coeffs
        return KMatrix(QUATERNIONS, coeffs)

    def pull(self, t):
        _expect(t, QUATERNIONS, self.n, matrix=True)
        return _pull(self, t, KMatrix(COMPLEXES, t.coeffs[:, :, :2]))


class RealificationOfQuaternionic:
    """H^n viewed as R^4n with interleaved (1, i, j, k) coefficients.

    Right multiplications by j and k survive as the unitary pair J, K with
    J^2 = K^2 = -1 and JK = -KJ.
    """

    label = "quaternionic_as_real"

    def __init__(self, n):
        self.n = n
        self.dim_in = n
        self.dim_out = 4 * n
        table = mul_table(4)
        self.j = KMatrix.from_real(np.kron(np.eye(n), _right_mult_matrix(2, table)))
        self.k = KMatrix.from_real(np.kron(np.eye(n), _right_mult_matrix(3, table)))

    def push_vector(self, v):
        _expect(v, QUATERNIONS, self.n)
        return KVector(REALS, v.coeffs.reshape(-1)[:, None])

    def push(self, t):
        _expect(t, QUATERNIONS, self.n, matrix=True)
        blocks = np.einsum("ija,abc->icjb", t.coeffs, mul_table(4))
        return KMatrix.from_real(blocks.reshape(4 * t.rows, 4 * t.cols))

    def pull(self, t):
        _expect(t, REALS, self.dim_out, matrix=True)
        blocks = t.to_real().reshape(self.n, 4, self.n, 4)
        coeffs = np.einsum("icjb,abc->ija", blocks, mul_table(4)) / 4.0
        return _pull(self, t, KMatrix(QUATERNIONS, coeffs))


class QuaternificationOfReal:
    """R^n viewed inside H^n; left multiplications by j and k give the pair."""

    label = "real_as_quaternionic"

    def __init__(self, n):
        self.n = n
        self.dim_in = n
        self.dim_out = n
        self.j = _diag_unit(n, 2)
        self.k = _diag_unit(n, 3)

    def push_vector(self, v):
        _expect(v, REALS, self.n)
        coeffs = np.zeros((self.n, 4))
        coeffs[:, 0] = v.coeffs[:, 0]
        return KVector(QUATERNIONS, coeffs)

    def push(self, t):
        _expect(t, REALS, self.n, matrix=True)
        coeffs = np.zeros((t.rows, t.cols, 4))
        coeffs[:, :, 0] = t.coeffs[:, :, 0]
        return KMatrix(QUATERNIONS, coeffs)

    def pull(self, t):
        _expect(t, QUATERNIONS, self.n, matrix=True)
        return _pull(self, t, KMatrix.from_real(t.coeffs[:, :, 0]))


def _diag_unit(n, unit_index):
    coeffs = np.zeros((n, n, 4))
    idx = np.arange(n)
    coeffs[idx, idx, unit_index] = 1.0
    return KMatrix(QUATERNIONS, coeffs)


def _expect(x, system, n, matrix=False):
    if x.system != system:
        raise ShapeError(f"expected a {system!r} operand, got {x.system!r}")
    size = x.rows if matrix else x.n
    if size != n or (matrix and x.cols != n):
        raise ShapeError(f"expected size {n}, got {size}")


def complexify(n):
    """R^n -> C^n with a real structure (J = conjugation, J^2 = +1)."""
    return Complexification(n)


def underlying_real(n):
    """C^n -> R^2n with a unitary complex structure J, J^2 = -1."""
    return RealificationOfComplex(n)


def underlying_complex(n):
    """H^n -> C^2n with a quaternionic structure (antiunitary J, J^2 = -1)."""
    return ComplexFormOfQuaternionic(n)


def quaternify(n):
    """C^n -> H^n with unitary J = left multiplication by i, J^2 = -1."""
    return QuaternificationOfComplex(n)


def underlying_real_quat(n):
    """H^n -> R^4n with a unitary pair J, K (right multiplications by j, k)."""
    return RealificationOfQuaternionic(n)


def quaternify_real(n):
    """R^n -> H^n with a unitary pair J, K (left multiplications by j, k)."""
    return QuaternificationOfReal(n)


# ---------------------------------------------------------------------------
# tensor rule and derived gadgets
# ---------------------------------------------------------------------------

def tensor_antilinear(j1, j2):
    """Structure map J1 (x) J2 on the tensor product; squares multiply."""
    return AntilinearMap(np.kron(j1.matrix, j2.matrix))


def classify_tensor(kind1, kind2):
    """Kind of a tensor product: signs +1/0/-1 multiply.

    real x real = real, real x quaternionic = quaternionic,
    quaternionic x quaternionic = real, and anything with complex is complex.
    """
    return SIGN_KIND[KIND_SIGN[kind1] * KIND_SIGN[kind2]]


def real_form_basis(j, tol=1e-9):
    """Orthonormal basis of the fixed-point set {x : Jx = x} of a real structure.

    The fixed points form a real-linear subspace of C^n of real dimension n;
    returned as the columns of an (n, n) complex array, orthonormal for the
    real part of the inner product.
    """
    m = j.matrix
    n = j.n
    p, q = m.real, m.imag
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = p
    big[:n, n:] = q
    big[n:, :n] = q
    big[n:, n:] = -p
    _, s, vt = np.linalg.svd(big - np.eye(2 * n))
    null = vt[s < tol].T
    vecs = null[:n, :] + 1j * null[n:, :]
    return vecs


def left_multiplication_triple(j):
    """From an antilinear J with J^2 = -1 build the quaternion action (I, J, K = I o J) on C^n.

    Returns ``(i_mat, j_map, k_map)`` where ``i_mat`` is the linear matrix of
    multiplication by i and ``j_map``, ``k_map`` are antilinear; together they
    satisfy the quaternion relations I^2 = J^2 = K^2 = -1, IJ = K = -JI,
    JK = I, KI = J (composition order: XY means apply Y first).
    """
    i_mat = 1j * np.eye(j.n)
    k_map = j.before_linear(i_mat)
    return i_mat, j, k_map

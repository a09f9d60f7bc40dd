"""Finite-dimensional Hilbert spaces over R, C or H.

Vectors are columns over one scalar system; scalars act on the *right*
(quaternionic quantum mechanics needs right modules so that operators,
which act on the left, commute with scalars).  Storage is uniform: an
entry is a real coefficient vector of length ``system.dim``, so a vector
is an ``(n, dim)`` float64 array and a matrix ``(rows, cols, dim)``.
Every product -- matrix times matrix, matrix times vector, vector times
scalar and the inner product -- goes through one kernel, :func:`_kproduct`.
It first contracts the right operand's coefficients with the algebra's
structure table from :mod:`threefold.scalars`, then does one BLAS matmul,
the same way for R, C, H and O.

The standard inner product is ``<v, w> = sum_i conj(v_i) w_i``, conjugate
linear in the first slot and K-linear (on the right) in the second.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, RankDeficientError, ShapeError
from .scalars import COMPLEXES, REALS, Quaternion

__all__ = [
    "KVector",
    "KMatrix",
    "inner",
    "adjoint",
    "is_self_adjoint",
    "is_skew_adjoint",
    "is_unitary",
    "gram_schmidt",
    "eigh_complex",
    "scalar_from_coeffs",
    "scalar_to_coeffs",
    "DEFAULT_TOL",
    "MAX_SIZE",
]

# absolute, per real coefficient: the bound of is_self_adjoint and
# is_skew_adjoint, and the default of is_close and is_unitary
DEFAULT_TOL = 1e-10

# gram_schmidt's linear-dependence test: relative to the largest input norm
_RANK_TOL = 1e-10

# Largest matrix size the CLI accepts.  The kernel's largest temporary is the
# table-contracted right operand, m * p * d^2 float64 entries: 32 MiB at
# m = p = 512 over H (d = 4).  The functors verb peaks at 242 MB resident at
# n = 512 (ru_maxrss; numpy 2.4, x86-64): about six real 4n x 4n matrices of
# 32 MiB each, plus the interpreter and numpy.
MAX_SIZE = 512


def _kproduct(a, b, table):
    """Entry products summed over the inner index: sum_j a[..., i, j] b[..., j, k].

    ``a`` is (..., n, m, d), ``b`` is (..., m, p, d) and ``table`` the
    (d, d, d) structure tensor.  The leading stack axes of ``a`` and ``b``
    broadcast against each other as in numpy's matmul, and each slice of the
    result equals the 2-D call on the matching slices bit for bit: the 2-D
    call is this code with no leading axes.  Contracting ``b`` with the table
    first gives right[j, a, k, c] = sum_b b[j, k, b] table[a, b, c] at
    m p d^3 cost, already laid out as a ((j, a), (k, c)) matrix; one BLAS
    matmul of ``a``, read as an (i, (j, a)) matrix, with it then does the
    d^2 n m p multiply-adds.  Returns an (..., n, p, d) array.
    """
    n, m, d = a.shape[-3:]
    p = b.shape[-2]
    right = b.reshape(*b.shape[:-3], m, 1, p, d) @ table
    out = a.reshape(*a.shape[:-3], n, m * d) @ right.reshape(*b.shape[:-3], m * d, p * d)
    return out.reshape(*out.shape[:-2], n, p, d)


def scalar_to_coeffs(system, x):
    """Real coefficient vector of a scalar in the given system."""
    if isinstance(x, Quaternion):
        if system.tag != "H":
            raise ShapeError("quaternion scalar in a non-quaternionic system")
        return np.array(x.coeffs)
    if isinstance(x, complex) and not isinstance(x, (int, float)):
        if system.dim < 2:
            raise ShapeError("complex scalar in a real system")
        out = np.zeros(system.dim)
        out[0], out[1] = x.real, x.imag
        return out
    out = np.zeros(system.dim)
    out[0] = float(x)
    return out


def scalar_from_coeffs(system, coeffs):
    """Inverse of :func:`scalar_to_coeffs`: float, complex or Quaternion."""
    if system.tag == "R":
        return float(coeffs[0])
    if system.tag == "C":
        return complex(coeffs[0], coeffs[1])
    return Quaternion.from_array(coeffs)


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class KVector:
    """Column vector over a scalar system; ``coeffs`` has shape (n, dim)."""

    __slots__ = ("system", "coeffs")

    def __init__(self, system, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[1] != system.dim:
            raise ShapeError(f"expected (n, {system.dim}) coefficients, got {coeffs.shape}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("KVector is immutable")

    @classmethod
    def from_scalars(cls, system, scalars):
        return cls(system, np.array([scalar_to_coeffs(system, x) for x in scalars]))

    @classmethod
    def zeros(cls, system, n):
        return cls(system, np.zeros((n, system.dim)))

    @classmethod
    def basis(cls, system, n, i):
        coeffs = np.zeros((n, system.dim))
        coeffs[i, 0] = 1.0
        return cls(system, coeffs)

    @property
    def n(self):
        return self.coeffs.shape[0]

    def entry(self, i):
        return scalar_from_coeffs(self.system, self.coeffs[i])

    def to_scalars(self):
        return [self.entry(i) for i in range(self.n)]

    def __add__(self, other):
        _check_same(self, other)
        return KVector(self.system, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return KVector(self.system, self.coeffs - other.coeffs)

    def __neg__(self):
        return KVector(self.system, -self.coeffs)

    def times(self, x):
        """Right scalar multiple v * x."""
        xc = scalar_to_coeffs(self.system, x)
        out = _kproduct(self.coeffs[:, None, :], xc[None, None, :], self.system.table)
        return KVector(self.system, out[:, 0, :])

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def is_close(self, other, tol=DEFAULT_TOL):
        return (
            self.system == other.system
            and self.coeffs.shape == other.coeffs.shape
            and bool(np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol))
        )

    def __repr__(self):
        return f"KVector({self.system!r}, {self.to_scalars()!r})"


class KMatrix:
    """Rectangular matrix over a scalar system; ``coeffs`` has shape (rows, cols, dim).

    Acts on vectors on the left, ``(T v)_i = sum_j T_ij v_j``, with the
    entry product taken in the scalar algebra.
    """

    __slots__ = ("system", "coeffs")

    def __init__(self, system, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[2] != system.dim:
            raise ShapeError(
                f"expected (rows, cols, {system.dim}) coefficients, got {coeffs.shape}"
            )
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("KMatrix is immutable")

    @classmethod
    def from_scalar_rows(cls, system, rows):
        data = [[scalar_to_coeffs(system, x) for x in row] for row in rows]
        return cls(system, np.array(data))

    @classmethod
    def identity(cls, system, n):
        coeffs = np.zeros((n, n, system.dim))
        coeffs[np.arange(n), np.arange(n), 0] = 1.0
        return cls(system, coeffs)

    @classmethod
    def zeros(cls, system, rows, cols):
        return cls(system, np.zeros((rows, cols, system.dim)))

    @classmethod
    def from_real(cls, arr):
        return cls(REALS, np.asarray(arr, dtype=float)[:, :, None])

    @classmethod
    def from_complex(cls, arr):
        arr = np.asarray(arr, dtype=complex)
        return cls(COMPLEXES, np.stack([arr.real, arr.imag], axis=-1))

    @property
    def rows(self):
        return self.coeffs.shape[0]

    @property
    def cols(self):
        return self.coeffs.shape[1]

    def entry(self, i, j):
        return scalar_from_coeffs(self.system, self.coeffs[i, j])

    def to_real(self):
        if self.system.tag != "R":
            raise ShapeError("to_real needs a real matrix")
        return np.array(self.coeffs[:, :, 0])

    def to_complex(self):
        if self.system.tag != "C":
            raise ShapeError("to_complex needs a complex matrix")
        return self.coeffs[:, :, 0] + 1j * self.coeffs[:, :, 1]

    def __add__(self, other):
        _check_same(self, other)
        return KMatrix(self.system, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return KMatrix(self.system, self.coeffs - other.coeffs)

    def __neg__(self):
        return KMatrix(self.system, -self.coeffs)

    def scale(self, t):
        """Real scalar multiple (reals are central in every system)."""
        return KMatrix(self.system, float(t) * self.coeffs)

    def __matmul__(self, other):
        if isinstance(other, KVector):
            return self.apply(other)
        _check_system(self, other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return KMatrix(self.system, _kproduct(self.coeffs, other.coeffs, self.system.table))

    def apply(self, v):
        _check_system(self, v)
        if self.cols != v.n:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to length-{v.n} vector")
        out = _kproduct(self.coeffs, v.coeffs[:, None, :], self.system.table)
        return KVector(self.system, out[:, 0, :])

    def adjoint(self):
        """Conjugate transpose: (T*)_ij = conj(T_ji)."""
        return KMatrix(
            self.system,
            np.transpose(self.coeffs, (1, 0, 2)) * self.system.signs,
        )

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def is_close(self, other, tol=DEFAULT_TOL):
        return (
            self.system == other.system
            and self.coeffs.shape == other.coeffs.shape
            and bool(np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol))
        )

    def __repr__(self):
        return f"KMatrix({self.system!r}, {self.rows}x{self.cols})"


def _check_system(a, b):
    if a.system != b.system:
        raise ShapeError(f"mixed scalar systems {a.system!r} and {b.system!r}")


def _check_same(a, b):
    _check_system(a, b)
    if a.coeffs.shape != b.coeffs.shape:
        raise ShapeError(f"shape mismatch {a.coeffs.shape} vs {b.coeffs.shape}")


def inner(v, w):
    """Standard inner product sum_i conj(v_i) w_i.

    Conjugate linear in ``v``, right K-linear in ``w``; returns a scalar of
    the common system (float, complex or Quaternion).
    """
    _check_system(v, w)
    if v.n != w.n:
        raise ShapeError(f"length mismatch {v.n} vs {w.n}")
    sys = v.system
    out = _kproduct((v.coeffs * sys.signs)[None], w.coeffs[:, None, :], sys.table)
    return scalar_from_coeffs(sys, out[0, 0])


def adjoint(t):
    return t.adjoint()


def is_self_adjoint(t):
    return t.rows == t.cols and t.is_close(t.adjoint())


def is_skew_adjoint(t):
    return t.rows == t.cols and t.is_close(-t.adjoint())


def is_unitary(t, tol=DEFAULT_TOL):
    if t.rows != t.cols:
        return False
    eye = KMatrix.identity(t.system, t.rows)
    return (t @ t.adjoint()).is_close(eye, tol) and (t.adjoint() @ t).is_close(eye, tol)


def gram_schmidt(vectors):
    """Orthonormalize with scalar coefficients on the right.

    Modified Gram-Schmidt with one reorthogonalization pass.  Raises
    RankDeficientError when the input is linearly dependent to _RANK_TOL.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    scale = max(v.norm() for v in vectors)
    if scale == 0.0:
        raise RankDeficientError("zero input")
    out = []
    for v in vectors:
        e = v
        for _ in range(2):
            for u in out:
                e = e - u.times(inner(u, e))
        r = e.norm()
        if r < _RANK_TOL * scale:
            raise RankDeficientError("linearly dependent input")
        out.append(e.times(1.0 / r))
    return out


def eigh_complex(a):
    """Eigen-decomposition of a self-adjoint complex matrix.

    Returns ``(eigenvalues, V)`` with real eigenvalues ascending and V a
    unitary complex KMatrix whose columns are eigenvectors, so that
    ``A V = V diag(eigenvalues)``.  Only complex input is supported here;
    quaternionic self-adjoint matrices are handled through their complex
    form (see :mod:`threefold.structures`).  ``a`` must pass is_self_adjoint.
    """
    if a.system.tag != "C":
        raise PreconditionError("eigh_complex needs a complex matrix")
    if not is_self_adjoint(a):
        raise PreconditionError("eigh_complex needs a self-adjoint matrix")
    w, v = np.linalg.eigh(a.to_complex())
    return w, KMatrix.from_complex(v)

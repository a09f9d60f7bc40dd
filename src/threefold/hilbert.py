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

This module owns the storage layout.  A complex array and its ``(..., 2)``
coefficients convert one way only, through :func:`_as_complex` (the pairs
read in place) and its inverse :func:`_complex_coeffs`.  Both reinterpret
memory and do no arithmetic, so -0.0 and infinite parts come through
unchanged; every other module imports them from here.

Every self-adjoint, skew-adjoint and unitary check in the package goes
through one rule here, relative to the operand: :func:`_property_defects`.
A check that refuses a defect above its bound raises through one guard,
:func:`_require_within`: a NaN defect fails, and the error carries
``defect`` and ``tol``.  Only the obstruction witness's lower bound and
``_is_symmetric``'s two-sided decision keep their own form.

Every caller's number is read one way.  An array enters through
:func:`_numbers`: as int from an integer dtype, as float from an integer or
float one, as complex from any of those or a complex one; any other dtype
(bool, string, object, complex where reals are due) is a ValidationError,
and so is a ragged nested sequence.
A scalar enters through ``scalars._lift``: a real number, Python or numpy,
as a float, any other number as a complex, a hypercomplex value as it is,
and a bool, a string or anything else is a TypeError.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, ShapeError, ValidationError
from .scalars import COMPLEXES, REALS, Quaternion, _Immutable, _lift, _norms, conj_signs, mul_table

__all__ = [
    "KVector",
    "KMatrix",
    "inner",
    "adjoint",
    "is_unitary",
    "eigh_complex",
    "scalar_from_coeffs",
    "scalar_to_coeffs",
    "MAX_SIZE",
]

# the one rule of each operator property, relative to the operand (see
# _property_defects): self- and skew-adjoint to this times |T|_F, unitary to
# this times sqrt(n)
_PROPERTY_TOL = 1e-10

_FLOAT_MAX = np.finfo(float).max

# Largest matrix size the CLI accepts.  The kernel's largest temporary is the
# table-contracted right operand, m * p * d^2 float64 entries: 32 MiB at
# m = p = 512 over H (d = 4).  The functors verb peaks at 242 MB resident at
# n = 512 (ru_maxrss; numpy 2.4, x86-64): about six real 4n x 4n matrices of
# 32 MiB each, plus the interpreter and numpy.
MAX_SIZE = 512

# Entries in each temporary of a blocked loop, so that its memory does not
# grow with the loop's length: float64 entries of the Jordan element stacks
# (the blocks jordan._blockwise plans for the CLI suite and dual_cone_margin;
# the kernel's largest temporary is dim times that), and complex entries
# (2^18 bytes) of the blocked homomorphism check and of
# invariant_bilinear_form's seed blocks.  Jordan: in a sweep
# over 2^10..2^18 with thousands of samples of hO:3, hC:6, hH:16 and
# spin:200, 2^14 was the fastest on each; larger blocks only cost memory.
# Representations: against 2^12, 2^13, 2^15 and 2^16 it was fastest or
# within 2% at d = 1, 2 and 8 for |G| = 124 and 508 and at d = 1 for
# |G| = 512 (0.54 ms per dimension-2 rep of Dic_31 against 0.63 ms at 2^13),
# and classify on Dic_31 ran 85 ms against 96 ms at 2^13 (2-vCPU Xeon,
# numpy 2.4, glibc).  Those runs had freed a larger block first, as
# load_rep_file frees the file's text; until a process has, glibc maps and
# faults in each block above 128 KiB afresh, and there 2^13 is twice as fast
# at |G| = 124.
_BLOCK_ENTRIES = 2**14


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


def _as_complex(coeffs):
    """The complex array of (..., 2) float coefficients; read in place when C-contiguous."""
    return np.ascontiguousarray(coeffs).view(complex)[..., 0]


def _complex_coeffs(z):
    """Inverse of :func:`_as_complex`: a new (..., 2) float array of the complex array ``z``."""
    return np.array(z, dtype=complex, order="C")[..., None].view(float)


def scalar_to_coeffs(system, x):
    """Real coefficient vector of a scalar, read by ``scalars._lift``; ShapeError outside the system."""
    x = _lift(x)
    if isinstance(x, Quaternion) and system.tag == "H":
        return np.array(x.coeffs)
    if not isinstance(x, (float, complex)) or (isinstance(x, complex) and system.dim < 2):
        raise ShapeError(f"{type(x).__name__} scalar in the system {system!r}")
    return np.array([x.real, x.imag, 0.0, 0.0][: system.dim])


def scalar_from_coeffs(system, coeffs):
    """Inverse of :func:`scalar_to_coeffs`: float, complex or Quaternion."""
    if system.tag == "R":
        return float(coeffs[0])
    if system.tag == "C":
        return complex(coeffs[0], coeffs[1])
    return Quaternion.from_array(coeffs)


def _numbers(x, dtype, what="entries"):
    """The caller's array ``x`` as int, float or complex ``dtype`` by the number contract above."""
    try:
        x = np.asarray(x)
    except ValueError:  # numpy's refusal of a ragged nested sequence
        raise ValidationError(f"{what} must be a rectangular array, got a ragged nested sequence") from None
    kinds, name = {int: ("iu", "integers"), float: ("iuf", "real numbers"), complex: ("iufc", "numbers")}[dtype]
    if x.dtype.kind not in kinds:
        raise ValidationError(f"{what} must be {name}, got dtype {x.dtype}")
    return x.astype(dtype, copy=False)


def _real(x, error, what):
    """``x`` read by ``scalars._lift`` as a float; ``error`` for a bool, a string or a complex ``x``."""
    try:
        if isinstance(real := _lift(x), float):
            return real
    except TypeError:
        pass
    raise error(f"{what} must be a real number, got {x!r}")


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


class _Coefficients(_Immutable):
    """What KVector and KMatrix share: immutable coefficients over one system.

    Sums, differences and negation act entrywise and build the operand's own
    class.  Each subclass defines ``__init__`` (its shape check) and its
    products in its own namespace, where the per-layer tracer
    (``benchmarks/layers.py``) wraps them.
    """

    __slots__ = ("system", "coeffs")

    @classmethod
    def _trusted(cls, system, coeffs):
        """Take over a new array of the right shape, skipping __init__'s copy and shape check."""
        out = object.__new__(cls)
        object.__setattr__(out, "system", system)
        object.__setattr__(out, "coeffs", _freeze(coeffs))
        return out

    def __add__(self, other):
        _check_same(self, other)
        return self._trusted(self.system, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return self._trusted(self.system, self.coeffs - other.coeffs)

    def __neg__(self):
        return self._trusted(self.system, -self.coeffs)

    def norm(self):
        """Frobenius norm of the coefficients, by the package's one norm (``scalars._norms``)."""
        return float(_norms(self.coeffs))


class KVector(_Coefficients):
    """Column vector over a scalar system; ``coeffs`` has shape (n, dim)."""

    __slots__ = ()

    def __init__(self, system, coeffs):
        coeffs = np.array(_numbers(coeffs, float, "coefficients"), order="C")  # never the caller's array
        if coeffs.ndim != 2 or coeffs.shape[1] != system.dim:
            raise ShapeError(f"expected (n, {system.dim}) coefficients, got {coeffs.shape}")
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    @classmethod
    def basis(cls, system, n, i):
        coeffs = np.zeros((n, system.dim))
        coeffs[i, 0] = 1.0
        return cls._trusted(system, coeffs)

    @property
    def n(self):
        return self.coeffs.shape[0]

    def entry(self, i):
        return scalar_from_coeffs(self.system, self.coeffs[i])

    def to_scalars(self):
        return [self.entry(i) for i in range(self.n)]

    def times(self, x):
        """Right scalar multiple v * x."""
        xc = scalar_to_coeffs(self.system, x)
        out = _kproduct(self.coeffs[:, None, :], xc[None, None, :], self.system.table)
        return KVector._trusted(self.system, out[:, 0, :])

    def __repr__(self):
        return f"KVector({self.system!r}, {self.to_scalars()!r})"


class KMatrix(_Coefficients):
    """Rectangular matrix over a scalar system; ``coeffs`` has shape (rows, cols, dim).

    Acts on vectors on the left, ``(T v)_i = sum_j T_ij v_j``, with the
    entry product taken in the scalar algebra.
    """

    __slots__ = ()

    def __init__(self, system, coeffs):
        coeffs = np.array(_numbers(coeffs, float, "coefficients"), order="C")  # never the caller's array
        if coeffs.ndim != 3 or coeffs.shape[2] != system.dim:
            raise ShapeError(
                f"expected (rows, cols, {system.dim}) coefficients, got {coeffs.shape}"
            )
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    @classmethod
    def from_scalar_rows(cls, system, rows):
        return cls(system, [[scalar_to_coeffs(system, x) for x in row] for row in rows])

    @classmethod
    def from_real(cls, arr):
        return cls(REALS, _numbers(arr, float)[..., None])

    @classmethod
    def from_complex(cls, arr):
        coeffs = _complex_coeffs(_numbers(arr, complex))  # a new array: no second copy in __init__
        if coeffs.ndim != 3:
            raise ShapeError(f"expected (rows, cols, 2) coefficients, got {coeffs.shape}")
        return cls._trusted(COMPLEXES, coeffs)

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
        return _as_complex(self.coeffs).copy()

    def scale(self, t):
        """Real scalar multiple (reals are central in every system); ValidationError for any other t."""
        return KMatrix._trusted(self.system, _real(t, ValidationError, "a scale factor") * self.coeffs)

    def __matmul__(self, other):
        if isinstance(other, KVector):
            return self.apply(other)
        _check_system(self, other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return KMatrix._trusted(self.system, _kproduct(self.coeffs, other.coeffs, self.system.table))

    def apply(self, v):
        _check_system(self, v)
        if self.cols != v.n:
            raise ShapeError(f"cannot apply {self.rows}x{self.cols} to length-{v.n} vector")
        out = _kproduct(self.coeffs, v.coeffs[:, None, :], self.system.table)
        return KVector._trusted(self.system, out[:, 0, :])

    def adjoint(self):
        """Conjugate transpose: (T*)_ij = conj(T_ji)."""
        return KMatrix._trusted(self.system, self.coeffs.transpose(1, 0, 2) * self.system.signs)

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


def _property_defects(coeffs, prop, tol=_PROPERTY_TOL, scale=None):
    """``(defect, bound)`` per square matrix of a stack (..., n, n, d) over R, C, H or O.

    "self-adjoint" is |T - T*|_F and "skew-adjoint" |T + T*|_F, each against
    tol |T|_F, the scale of T's rounding; ``scale`` replaces |T|_F where the
    caller knows that scale better (a product's is |a|_F |b|_F).  "unitary"
    is |T*T - 1|_F against tol sqrt(n), the norm of every unitary.  A complex
    array enters as ``_complex_coeffs(z)``.
    """
    n, d = coeffs.shape[-2:]
    # a C-ordered copy of the transpose (always a copy: at n = 1 it is the
    # operand's own layout), conjugated and combined in place, is 20-30%
    # faster on small stacks than ufuncs on the transposed view
    star = np.swapaxes(coeffs, -3, -2).copy()
    star *= conj_signs(d)
    # an infinite or huge entry makes the defect infinite or NaN (inf - inf, or
    # a Gram product past the largest float): a finite bound refuses it, so
    # the overflow and the invalid subtraction are not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if prop == "unitary":
            gram = _kproduct(star, coeffs, mul_table(d))
            gram[..., np.arange(n), np.arange(n), 0] -= 1.0
            return _norms(gram, 3), tol * np.sqrt(n)
        (np.subtract if prop == "self-adjoint" else np.add)(coeffs, star, out=star)
        bound = np.minimum(tol * (_norms(coeffs, 3) if scale is None else scale), _FLOAT_MAX)
        return _norms(star, 3), bound


def _within(defects, bounds):
    """True when every defect is within its bound; a NaN defect fails."""
    return bool(np.all(defects <= bounds))


def _holds(coeffs, prop):
    """True when every matrix of the stack has ``prop``; a NaN defect fails."""
    return _within(*_property_defects(coeffs, prop))


def _worst(defects, bounds):
    """(defect, bound, index) of the element whose defect exceeds its bound by the largest factor.

    ``index`` is its flat index.  NaN exceeds most (the first NaN wins); an
    element within its bound (0 <= 0 too) exceeds nothing; overflow gives inf, warning-free.
    """
    defects, bounds = (np.ravel(x) for x in np.broadcast_arrays(defects, bounds))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        excess = np.where(defects <= bounds, 0.0, defects / bounds)
    k = int(np.argmax(excess))
    return float(defects[k]), float(bounds[k]), k


def _require_within(defects, bounds, error, message, **fields):
    """``error(message, defect, tol)`` of the :func:`_worst` element unless all are within bounds.

    A NaN defect fails.  ``message`` is a str.format template of ``defect``,
    ``tol``, ``index`` (the element's flat index, 0 for a scalar) and
    ``fields``, filled in only on failure.
    """
    if not _within(defects, bounds):
        defect, tol, index = _worst(defects, bounds)
        raise error(message.format(defect=defect, tol=tol, index=index, **fields), defect, tol)


def _require_property(coeffs, prop, error, what, scale=None):
    """ShapeError unless square; ``error`` from :func:`_require_within` unless all hold."""
    if coeffs.shape[-3] != coeffs.shape[-2]:
        raise ShapeError(f"{what} must be square, not {coeffs.shape[-3]}x{coeffs.shape[-2]}")
    _require_within(*_property_defects(coeffs, prop, scale=scale), error,
                    "{what} is not {prop} (defect {defect:.2e} > {tol:.2e})", what=what, prop=prop)


def is_unitary(t):
    return t.rows == t.cols and _holds(t.coeffs, "unitary")


def eigh_complex(a):
    """Eigen-decomposition of a self-adjoint complex matrix.

    Returns ``(eigenvalues, V)`` with real eigenvalues ascending and V a
    unitary complex KMatrix whose columns are eigenvectors, so that
    ``A V = V diag(eigenvalues)``.  Only complex input is supported here;
    quaternionic self-adjoint matrices are handled through their complex
    form (see :mod:`threefold.structures`).  ``a`` must be square (else
    ShapeError) and be self-adjoint, |A - A*|_F <= 1e-10 |A|_F (else
    PreconditionError with that defect and bound).
    """
    if a.system.tag != "C":
        raise PreconditionError("eigh_complex needs a complex matrix")
    _require_property(a.coeffs, "self-adjoint", PreconditionError, "eigh_complex's matrix")
    w, v = np.linalg.eigh(a.to_complex())
    return w, KMatrix.from_complex(v)

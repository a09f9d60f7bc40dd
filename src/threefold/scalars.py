"""Arithmetic in the normed division algebras R, C, H, O.

Multiplication is table-driven: for each algebra a structure tensor
``T[a, b, c]`` holds the coefficient of basis unit ``e_c`` in ``e_a * e_b``,
so a product of two coefficient vectors is a single einsum.  The same
tensors drive matrix arithmetic in :mod:`threefold.hilbert`, whose one
kernel contracts the right operand's coefficients with the table first and
then does one BLAS matmul.

Basis conventions:

* quaternions ``1, i, j, k`` with ``i j = k`` (cyclic),
* octonions ``1, e1, ..., e7`` with the oriented lines
  ``{1,2,4}, {2,3,5}, {3,4,6}, {4,5,7}, {5,6,1}, {6,7,2}, {7,1,3}``,
  i.e. ``e_i e_{i+1} = e_{i+3}`` with indices mod 7.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarSystem",
    "REALS",
    "COMPLEXES",
    "QUATERNIONS",
    "SYSTEMS",
    "Quaternion",
    "Octonion",
    "FANO_LINES",
    "mul_table",
    "conj_signs",
    "mul",
    "conj",
    "norm",
    "inv",
    "complex_part",
]

# Oriented Fano lines: (a, b, c) means e_a e_b = e_c, cyclically.
FANO_LINES = tuple((i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8))


def _table_from_lines(dim, lines):
    t = np.zeros((dim, dim, dim))
    t[0, 0, 0] = 1.0
    for j in range(1, dim):
        t[0, j, j] = 1.0
        t[j, 0, j] = 1.0
        t[j, j, 0] = -1.0
    for line in lines:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            t[a, b, c] = 1.0
            t[b, a, c] = -1.0
    t.flags.writeable = False
    return t

_MUL_TABLE = {
    1: _table_from_lines(1, []),
    2: _table_from_lines(2, []),
    4: _table_from_lines(4, [(1, 2, 3)]),
    8: _table_from_lines(8, FANO_LINES),
}

_CONJ_SIGNS = {}
for _d in (1, 2, 4, 8):
    _s = -np.ones(_d)
    _s[0] = 1.0
    _s.flags.writeable = False
    _CONJ_SIGNS[_d] = _s


def mul_table(dim):
    """Structure tensor of the dimension-``dim`` algebra (dim in 1, 2, 4, 8)."""
    return _MUL_TABLE[dim]


def conj_signs(dim):
    """Sign vector s with conj(x) = s * x componentwise."""
    return _CONJ_SIGNS[dim]


@np.errstate(over="ignore")
def _norms(x, item_ndim=None):
    """Frobenius norm of each trailing ``item_ndim``-axis block of ``x`` (None: of all of ``x``).

    The package's one norm; a complex array is read as its float pairs.  Per
    item it is sqrt(v @ v) as a (1, k) @ (k, 1) matmul, numpy's BLAS dot as
    in np.linalg.norm: a stack equals the single call, and a real item in
    range np.linalg.norm, bit for bit.  Outside [2^-500, 2^500] the item is
    taken again on a copy scaled exactly by 2^-e, e the exponent of its
    largest entry, so x 2^k has norm |x| 2^k, only a norm past the largest
    float is inf, NaN stays NaN, and nothing warns.  One item gives a float.
    """
    x = np.ascontiguousarray(x).view(float) if np.iscomplexobj(x) else np.asarray(x)
    # -1 is refused on an empty array
    flat = x.reshape(*x.shape[: 0 if item_ndim is None else x.ndim - item_ndim], -1 if x.size else 0)
    out = np.sqrt(_dots(flat, flat))
    # outside the range the square overflowed, underflowed or lost bits to
    # subnormals; an all-zero array's norms are all 0 and need no second look
    far = (out < 2.0**-500) | (out > 2.0**500)
    if far.any() and flat.any():
        scaled, exponent = _unit_scaled(flat, 1)
        out = np.where(far, np.ldexp(np.sqrt(_dots(scaled, scaled)), exponent), out)
    return out[()]


def _unit_scaled(x, item_ndim=None):
    """``(x 2^-e, e)``, each trailing ``item_ndim``-axis block of ``x`` (None: all of ``x``) scaled by its own 2^-e.

    The package's one exact rescaling; a complex array is read as its float
    pairs.  e is the exponent of the item's largest |entry|, which 2^-e puts
    in [0.5, 1); an all-zero item, or one with an inf or NaN entry, has e = 0.
    Short of subnormals the scaling is exact, so a result computed on x 2^-e
    and scaled back by 2^e is x's without its overflow or underflow.
    """
    is_complex = np.iscomplexobj(x)
    parts = np.ascontiguousarray(x).view(float) if is_complex else np.asarray(x)
    axes = tuple(range(-(parts.ndim if item_ndim is None else item_ndim), 0))
    exponent = np.frexp(np.abs(parts).max(axis=axes, initial=0.0))[1]
    scaled = np.ldexp(parts, -exponent.reshape(exponent.shape + (1,) * len(axes)))
    return scaled.view(complex) if is_complex else scaled, exponent


def _dots(x, y):
    """x . y over the last axis, per stacked vector, as a (1, k) @ (k, 1) matmul."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _mul_coeffs(x, y):
    return np.einsum("a,b,abc->c", x, y, _MUL_TABLE[len(x)])


@dataclass(frozen=True)
class ScalarSystem:
    """One of the three associative scalar systems matrices are written over.

    ``tag`` is "R", "C" or "H"; ``dim`` is the dimension over the reals
    (1, 2 or 4).  Octonions are a valid algebra here (see :class:`Octonion`)
    but not a valid matrix scalar system, since matrix algebra needs
    associativity.
    """

    tag: str
    dim: int

    @property
    def table(self):
        return _MUL_TABLE[self.dim]

    @property
    def signs(self):
        return _CONJ_SIGNS[self.dim]

    def __repr__(self):
        return self.tag


REALS = ScalarSystem("R", 1)
COMPLEXES = ScalarSystem("C", 2)
QUATERNIONS = ScalarSystem("H", 4)
SYSTEMS = {"R": REALS, "C": COMPLEXES, "H": QUATERNIONS}


def _lift(x):
    """A caller's scalar read by the number contract of :mod:`threefold.hilbert`; TypeError if none."""
    if isinstance(x, _Hypercomplex):
        return x
    if isinstance(x, bool) or not isinstance(x, numbers.Number):  # np.bool_ is no Number
        raise TypeError(f"not a scalar: {type(x).__name__}")
    return float(x) if isinstance(x, numbers.Real) else complex(x)


class _Immutable:
    """Base of the value classes: setting an attribute raises; constructors use ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _operators(combine):
    """The forward and reflected operator of ``combine`` on coefficients; NotImplemented if ``_coerce`` fails."""
    def forward(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else type(self).from_array(combine(self.coeffs, other.coeffs))

    def reflected(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else type(self).from_array(combine(other.coeffs, self.coeffs))

    return forward, reflected


class _Hypercomplex(_Immutable):
    """Shared implementation for Quaternion and Octonion."""

    __slots__ = ("coeffs",)
    _dim = None

    def __init__(self, *coeffs):
        coeffs = [_lift(c) for c in coeffs]
        if not all(type(c) is float for c in coeffs):
            raise TypeError(f"{type(self).__name__} takes real coefficients, got {coeffs}")
        arr = np.zeros(self._dim)
        arr[: len(coeffs)] = coeffs
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (cls._dim,):
            raise ValueError(f"expected {cls._dim} coefficients, got {arr.shape}")
        out = cls.__new__(cls)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(out, "coeffs", arr)
        return out

    def _coerce(self, other):
        try:
            other = _lift(other)
        except TypeError:
            return None
        if isinstance(other, float) or (isinstance(other, complex) and self._dim >= 2):
            return type(self)(other.real, other.imag)
        return other if isinstance(other, type(self)) else None

    __add__, __radd__ = _operators(np.add)
    __sub__, __rsub__ = _operators(np.subtract)
    __mul__, __rmul__ = _operators(_mul_coeffs)

    def __neg__(self):
        return type(self).from_array(-self.coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self * other.inverse()

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def conjugate(self):
        return type(self).from_array(self.coeffs * _CONJ_SIGNS[self._dim])

    def norm(self):
        return float(_norms(self.coeffs))

    __abs__ = norm

    def inverse(self):
        """conj(q) / |q| / |q|: never |q|^2, so every q whose inverse is a float has one."""
        r = float(_norms(self.coeffs))
        if r == 0.0:
            raise ZeroDivisionError(f"{type(self).__name__} zero has no inverse")
        return type(self).from_array(self.coeffs * _CONJ_SIGNS[self._dim] / r / r)


class Quaternion(_Hypercomplex):
    """Quaternion a + b i + c j + d k with float64 coefficients."""

    __slots__ = ()
    _dim = 4

    def complex_part(self):
        """Co(a + b i + c j + d k) = a + b i."""
        return complex(self.coeffs[0], self.coeffs[1])

    def __repr__(self):
        a, b, c, d = self.coeffs
        return f"Quaternion({a:g}, {b:g}, {c:g}, {d:g})"


class Octonion(_Hypercomplex):
    """Octonion a0 + a1 e1 + ... + a7 e7 (Fano-line multiplication)."""

    __slots__ = ()
    _dim = 8

    def __repr__(self):
        inner = ", ".join(f"{x:g}" for x in self.coeffs)
        return f"Octonion({inner})"


QUATERNION_UNITS = {
    "1": Quaternion(1.0),
    "i": Quaternion(0.0, 1.0),
    "j": Quaternion(0.0, 0.0, 1.0),
    "k": Quaternion(0.0, 0.0, 0.0, 1.0),
}


def mul(x, y):
    """Product in whichever division algebra both operands live in."""
    # a float's or a complex's __mul__ returns NotImplemented on a hypercomplex
    # right operand, so Python calls that operand's __rmul__
    return _lift(x) * _lift(y)


def conj(x):
    """Conjugation; fixes reals, negates every imaginary unit."""
    return _lift(x).conjugate()


def norm(x):
    """Euclidean norm of the coefficient vector; multiplicative, |xy| = |x||y|."""
    return abs(_lift(x))


def inv(x):
    """Multiplicative inverse conj(x) / |x|^2; zero raises ZeroDivisionError."""
    x = _lift(x)
    return x.inverse() if isinstance(x, _Hypercomplex) else 1.0 / x


def complex_part(x):
    """Projection onto the complex subalgebra spanned by 1 and the first unit."""
    x = _lift(x)
    if isinstance(x, Quaternion):
        return x.complex_part()
    return complex(x)

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

The conversions are data.  Each class names its ``source`` and ``target``
scalar systems and holds ``blocks``, of shape (d_in, r, r, d_out): the r x r
block over the target that each unit of the source becomes.  ``push``
replaces every entry by the sum of its coefficients times these blocks
(:func:`_embed`), and ``push_vector`` is the first block column of that.
In all six conversions the blocks are orthogonal with squared norm r, so
``pull`` is a projection: coefficient a of a source entry is
(1/r) <block, blocks[a]>, followed by one image test (:func:`_projection`).

The structure maps are held only as the r x r blocks B in the class's
``structure``: J (and K on the two pair conversions) is kron(1_n, B), and
every use in the package goes through B: :func:`structure_defect` measures
how far an operator is from commuting with J, and :func:`_structure_times`
applies J to the columns of a matrix.  The attributes ``j`` and ``k`` build
the dense map on each request, an :class:`AntilinearMap` exactly when the
target is C and a ``KMatrix`` otherwise.  Every block entry is 0 or +-1, so
pushes are exact and J^2 = +-1 (or J^2 = K^2 = -1), (anti)unitarity and
JK = -KJ hold exactly; the tests assert these relations, not each build.

Each class binds ``__init__``, ``push``, ``push_vector``, ``pull`` and
``__getattr__`` (the dense maps) in its own namespace instead of inheriting
them from a base class: the per-layer tracer (``benchmarks/layers.py``)
wraps a method where its class defines it, one conversion at a time.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import PreconditionError, ShapeError
from .hilbert import KMatrix, KVector, _as_complex, _complex_coeffs, _holds, _kproduct, _require_within
from .scalars import COMPLEXES, QUATERNIONS, REALS, _norms, _unit_scaled, mul_table

__all__ = [
    "RepKind",
    "AntilinearMap",
    "complexify",
    "underlying_real",
    "underlying_complex",
    "quaternify",
    "underlying_real_quat",
    "quaternify_real",
    "structure_defect",
    "tensor_antilinear",
    "classify_tensor",
]

# pull's image test: relative to max(1, |t|_F)
_VALIDATE_TOL = 1e-10


class RepKind(Enum):
    """The three kinds of an irreducible, each valued by its Frobenius-Schur indicator.

    The value +1, 0 or -1 is also the sign of J^2 on a self-dual irreducible.
    """

    REAL = 1
    COMPLEX = 0
    QUATERNIONIC = -1

    def __str__(self):
        return self.name.lower()


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

    def is_antiunitary(self):
        """v -> M conj(v) is antiunitary iff M is unitary: hilbert's rule."""
        return _holds(_complex_coeffs(self.matrix), "unitary")

    def commutation_defect(self, t):
        """Frobenius norm || J T - T J || for a linear operator T.

        ``t`` may also be a stack of shape (k, n, n); then one norm per
        matrix comes back as an array of length k.  A single matrix gives a
        float.
        """
        return self._defects(t, np.subtract)

    def anticommutation_defect(self, t):
        """|| J T + T J || for a linear operator T."""
        return float(self._defects(t, np.add))

    def _defects(self, t, combine):
        """The norm of combine(J T, T J) per matrix of t.

        Where that is not finite (a product or the difference overflowed), it
        is taken again on J and T each scaled exactly by 2^-e
        (``scalars._unit_scaled``) and scaled back by 2^(e_J + e_T): only a
        defect past the largest float is inf, and nothing warns.
        """
        t = np.asarray(t, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _norms(combine(self.matrix @ np.conj(t), t @ self.matrix), 2)
            if not np.isfinite(out).all():
                (j, e_j), (t, e_t) = _unit_scaled(self.matrix), _unit_scaled(t, 2)
                rescaled = np.ldexp(_norms(combine(j @ np.conj(t), t @ j), 2), e_j + e_t)
                out = np.where(np.isfinite(out), out, rescaled)[()]
        return out

    def __repr__(self):
        return f"AntilinearMap(n={self.n})"


# ---------------------------------------------------------------------------
# the six conversions as data
# ---------------------------------------------------------------------------

def _embed(coeffs, blocks):
    """Replace each entry x of a matrix by its block sum_a x_a blocks[a].

    ``coeffs`` is (..., n, m, d_in) and ``blocks`` (d_in, r, r, d_out);
    returns the (..., n r, m r, d_out) coefficients over the target.
    """
    d_in, r, _, d = blocks.shape
    *lead, n, m, _ = coeffs.shape
    out = (coeffs.reshape(-1, d_in) @ blocks.reshape(d_in, -1)).reshape(*lead, n, m, r, r, d)
    return out.swapaxes(-4, -3).reshape(*lead, n * r, m * r, d)


_EPSILON = np.array([[0.0, -1.0], [1.0, 0.0]])
_UNITS = np.eye(4)  # the quaternions 1, i, j, k as coefficient vectors
# entry c, b of _LEFT[a] (of _RIGHT[a]) is the e_c coefficient of e_a e_b (of e_b e_a)
_LEFT = mul_table(4).transpose(0, 2, 1)[..., None]
_RIGHT = mul_table(4).transpose(1, 2, 0)[..., None]
# q = z1 + j z2 with z1 = a + bi, z2 = c - di becomes [[z1, -conj z2], [z2, conj z1]]
_ADJUNCT = _complex_coeffs([np.eye(2), np.diag([1j, -1j]), _EPSILON, [[0.0, -1j], [-1j, 0.0]]])


def _complex_form(coeffs):
    """The one route from (..., n, m, d) coefficients over R, C or H to complex matrices: the real ones,
    the complex array read in place, or the (..., 2n, 2m) adjunct that ComplexFormOfQuaternionic pushes to."""
    if coeffs.shape[-1] == 1:
        return coeffs[..., 0]
    return _as_complex(coeffs if coeffs.shape[-1] == 2 else _embed(coeffs, _ADJUNCT))


def _init(self, n):
    self.n = self.dim_in = n
    self.dim_out = n * self.blocks.shape[1]


def _dense_structure_map(self, name):
    """The attribute ``j`` (or ``k``): kron(1_n, B) for its block B, built on each request."""
    maps = dict(zip("jk", self.structure))
    if name not in maps:
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
    m = _embed(np.eye(self.n)[:, :, None], maps[name][None])
    return AntilinearMap(_as_complex(m)) if self.target is COMPLEXES else KMatrix(self.target, m)


def _push(self, t):
    _expect(t, self.source, self.n, matrix=True)
    return KMatrix._trusted(self.target, _embed(t.coeffs, self.blocks))


def _push_vector(self, v):
    _expect(v, self.source, self.n)
    return KVector._trusted(self.target, _embed(v.coeffs[:, None], self.blocks)[:, 0])


def _projection(conversion, t, image_test):
    """Coefficient a of each source entry is (1/r) <block, blocks[a]>; then the image test if asked.

    The one image test of every conversion, which ``pull`` asks for, refuses t
    unless ||push(s) - t|| <= 1e-10 max(1, ||t||), relative to t's norm, with
    that defect and bound (a NaN defect is refused).  A t with an infinite or
    NaN entry is refused before the product, with the defect NaN that
    push(s) - t has there and the bound's floor 1e-10, and nothing warns.
    Where every entry is finite but ||t|| is not, the test is decided on t
    scaled by 2^(1-e), e the exponent of its largest entry: exact, with that
    entry in [1, 2) so the floor of 1 plays no part, and a refusal carries
    the scaled, finite values.  The blocks are divided by r (a power of two)
    before the product, so no finite t overflows it.  The stacked copy of t
    stays alive through the test: under glibc malloc, freeing it first raised
    the peak RSS of ``functors --dim 512`` from 241.5 to 257.5 MB.
    """
    _expect(t, conversion.target, conversion.dim_out, matrix=True)
    if image_test and not np.isfinite(t.coeffs).all():
        raise PreconditionError(
            f"operator is not in the image of {conversion.label}: an entry is not finite", np.nan, _VALIDATE_TOL)
    # every size named, so that n = 0 reshapes too
    n, (d_in, r, _, d_out) = conversion.n, conversion.blocks.shape
    stack = t.coeffs.reshape(n, r, n, r, d_out).swapaxes(1, 2).reshape(n * n, r * r * d_out)
    coeffs = (stack @ (conversion.blocks.reshape(d_in, -1).T / r)).reshape(n, n, d_in)
    s = KMatrix._trusted(conversion.source, coeffs)
    if image_test:
        norm = t.norm()
        if norm == np.inf:
            _projection(conversion, KMatrix._trusted(t.system, 2.0 * _unit_scaled(t.coeffs)[0]), image_test=True)
        else:
            _require_within((conversion.push(s) - t).norm(), _VALIDATE_TOL * max(1.0, norm),
                            PreconditionError, "operator is not in the image of {label} (defect {defect:.2e})",
                            label=conversion.label)
    return s


def _project(self, t):
    return _projection(self, t, image_test=True)


def _expect(x, system, n, matrix=False):
    if x.system != system:
        raise ShapeError(f"expected a {system!r} operand, got {x.system!r}")
    size = x.rows if matrix else x.n
    if size != n or (matrix and x.cols != n):
        raise ShapeError(f"expected size {n}, got {size}")


def _structure_times(b, t, target):
    """J T as (n, r, m, d) coefficients, for J = kron(1_n, B) and T's (n r, m, d) ones.

    It is B times T's r-row bands laid side by side, which are conjugated when
    J is antilinear (a complex target): a product with B, never with J itself.
    """
    r, (rows, m, d) = b.shape[0], t.shape
    bands = t.reshape(rows // r, r, m, d).swapaxes(0, 1).reshape(r, -1, d)
    if target is COMPLEXES:
        bands = bands * target.signs
    return _kproduct(b, bands, target.table).reshape(r, rows // r, m, d).swapaxes(0, 1)


def structure_defect(conversion, pushed):
    """Largest Frobenius norm ||J T - T J|| over the structure maps J of a conversion.

    ``pushed`` is T on the converted space (else ShapeError).  J T comes from
    :func:`_structure_times`; T J is T's rows, cut into r-wide pieces, times B.
    """
    t, target = pushed.coeffs, conversion.target
    _expect(pushed, target, conversion.dim_out, matrix=True)
    pieces = t.reshape(-1, conversion.blocks.shape[1], t.shape[-1])
    defects = []
    for b in conversion.structure:
        diff = _structure_times(b, t, target)
        with np.errstate(over="ignore"):  # a difference past the largest float: its defect is inf
            diff -= _kproduct(pieces, b, target.table).reshape(diff.shape)
        defects.append(_norms(diff))
        del diff  # before the next map's products, to bound peak memory
    return float(max(defects))


# bound in each class's own namespace (see the module docstring)
_METHODS = _init, _push, _push_vector, _project, _dense_structure_map


class Complexification:
    """R^n viewed as C^n.

    Realness survives as the real structure J = entrywise conjugation,
    antiunitary with J^2 = +1.
    """

    label = "real_as_complex"
    source, target = REALS, COMPLEXES
    blocks = _complex_coeffs([[[1.0]]])
    structure = (_complex_coeffs([[1.0]]),)
    __init__, push, push_vector, pull, __getattr__ = _METHODS


class RealificationOfComplex:
    """C^n viewed as R^2n with interleaved (re, im) coordinates.

    The forgotten multiplication by i survives as the unitary J with
    J^2 = -1; pushed operators are exactly the real operators commuting
    with J.
    """

    label = "complex_as_real"
    source, target = COMPLEXES, REALS
    blocks = np.stack([np.eye(2), _EPSILON])[..., None]
    structure = (_EPSILON[..., None],)
    __init__, push, push_vector, pull, __getattr__ = _METHODS


class ComplexFormOfQuaternionic:
    """H^n viewed as C^2n by splitting q = z1 + j z2 (z1 = a+bi, z2 = c-di).

    Coordinates interleave (z1, z2) per quaternionic coordinate.  Right
    multiplication by j survives as the antiunitary J with J^2 = -1, and
    the complex inner product is the complex part of the quaternionic one.
    """

    label = "quaternionic_as_complex"
    source, target = QUATERNIONS, COMPLEXES
    blocks = _ADJUNCT
    structure = (_complex_coeffs(_EPSILON),)
    __init__, push, push_vector, pull, __getattr__ = _METHODS


class QuaternificationOfComplex:
    """C^n viewed inside H^n via the standard embedding of C (i goes to i).

    Left multiplication by the quaternion i is quaternion-linear (scalars
    act on the right) and survives as the unitary J with J^2 = -1.
    """

    label = "complex_as_quaternionic"
    source, target = COMPLEXES, QUATERNIONS
    blocks = _UNITS[:2, None, None]
    structure = (_UNITS[1][None, None],)
    __init__, push, push_vector, pull, __getattr__ = _METHODS


class RealificationOfQuaternionic:
    """H^n viewed as R^4n with interleaved (1, i, j, k) coefficients.

    Right multiplications by j and k survive as the unitary pair J, K with
    J^2 = K^2 = -1 and JK = -KJ.
    """

    label = "quaternionic_as_real"
    source, target = QUATERNIONS, REALS
    blocks = _LEFT
    structure = (_RIGHT[2], _RIGHT[3])
    __init__, push, push_vector, pull, __getattr__ = _METHODS


class QuaternificationOfReal:
    """R^n viewed inside H^n.

    Left multiplications by j and k survive as the unitary pair J, K with
    J^2 = K^2 = -1 and JK = -KJ.
    """

    label = "real_as_quaternionic"
    source, target = REALS, QUATERNIONS
    blocks = _UNITS[:1, None, None]
    structure = (_UNITS[2][None, None], _UNITS[3][None, None])
    __init__, push, push_vector, pull, __getattr__ = _METHODS


# the public factory names: each builds its conversion from n
complexify = Complexification
underlying_real = RealificationOfComplex
underlying_complex = ComplexFormOfQuaternionic
quaternify = QuaternificationOfComplex
underlying_real_quat = RealificationOfQuaternionic
quaternify_real = QuaternificationOfReal


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
    return RepKind(kind1.value * kind2.value)


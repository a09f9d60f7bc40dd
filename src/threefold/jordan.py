"""Formally real Jordan algebras: hermitian matrices and spin factors.

The simple finite-dimensional formally real Jordan algebras are the
hermitian matrix algebras h_n(R), h_n(C), h_n(H), the exceptional h_3(O),
and the spin factors R^n + R.  This module represents their elements
concretely, forms the symmetrized product a o b = (ab + ba)/2, and builds
the state machinery on top of the trace form: positivity, unit-trace
states, the maximal-ignorance state, and dual-cone sampling.

Conventions:
  - an element holds one algebra element or a stack of them, all of one
    kind: ``data`` has shape (*batch, n, n, dim) or (*batch, n + 1).  The
    product, +, -, ``scale`` (by a number or by one factor per element),
    ``from_coords``, ``trace``, ``cone_margin`` and ``norm`` act per
    element, broadcast stack axes as numpy does, and give on a stack the
    same bits as on each element alone.  A scalar-valued function
    returns a float for one element and an array of shape ``batch`` for a
    stack.  The product's self-adjoint check and the quaternionic margin's
    pairing check hold each element to its own bound.  States and the h_2
    isomorphisms take single elements;
  - hermitian elements store an (n, n, dim) coefficient array over the
    scalar system, self-adjoint exactly by storage: each lower-triangle
    entry is the conjugate of its upper-triangle mirror and the diagonal is
    real.  The lower triangle is rebuilt from the upper, and the defect
    checked, only in the public constructor and in the Jordan product, by
    hilbert's rule: |a - a*|_F at most 1e-10 |a|_F per element in the
    constructor, and 1e-10 |a|_F |b|_F, the scale of its rounding, in the
    product.
    The other closed operations (+, -, negation, scale) keep exactness
    without a rebuild: conjugation only flips coefficient signs, a sign
    flip is exact in floating point, so the sum, difference or real
    multiple of two mirrored entries is again mirrored bit for bit.
    ``from_coords``, ``unit`` and the spin-factor product write both
    triangles from the same values;
  - spin-factor elements store the flat vector (x_1, ..., x_n, t);
  - trace(a) is the real diagonal sum on matrix kinds and 2t on spin
    factors, so trace(1) equals the rank (n for matrix kinds, 2 for spin
    factors).  It equals rank/dim times the trace of the left-multiplication
    operator b -> a o b on the real vector space; the tests check that
    identity on every kind.

Octonionic hermitian kinds are limited to 2x2 (for the spin-factor
isomorphism) and the exceptional 3x3; no eigen-theory is attempted for
them, so positivity checks raise UnsupportedError there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InternalInconsistencyError,
    PreconditionError,
    ShapeError,
    UnsupportedError,
    ValidationError,
)
from .hilbert import _BLOCK_ENTRIES, _as_complex, _complex_coeffs, _kproduct, _require_property, _require_within
from .scalars import _dots, _norms, _unit_scaled, conj_signs, mul_table
from .structures import _complex_form

__all__ = [
    "JordanKind",
    "JordanElement",
    "JordanState",
    "hermitian_kind",
    "spin_kind",
    "parse_kind",
    "unit",
    "from_coords",
    "random_element",
    "random_positive",
    "jordan_product",
    "check_jordan_identity",
    "trace",
    "trace_inner",
    "cone_margin",
    "is_positive",
    "state_eval",
    "max_ignorance",
    "dual_cone_margin",
    "h2_spin_isomorphism",
    "H2SpinIsomorphism",
]

_HERMITIAN_TAGS = {"hR": 1, "hC": 2, "hH": 4, "hO": 8}
_DIM_TAGS = {dim: tag for tag, dim in _HERMITIAN_TAGS.items()}

# JordanState: absolute on |tr(rho) - 1| and on the cone margin below 0
# (a state has unit trace, so its scale is 1)
_STATE_TOL = 1e-10

# agreement of the paired eigenvalues of a quaternionic element's complex
# adjunct: relative to max(1, its spectral radius) per element
_PAIRING_TOL = 1e-8


@dataclass(frozen=True)
class JordanKind:
    """One algebra from the classification: a hermitian matrix kind or a spin factor."""

    family: str
    n: int
    scalar_dim: int = 0

    def __post_init__(self):
        for name in ("n", "scalar_dim"):
            value = getattr(self, name)
            try:  # an int or a numpy integer: no float, which int() would truncate, and no bool
                if isinstance(value, bool):  # operator.index(True) is 1
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.family == "hermitian":
            if self.scalar_dim not in (1, 2, 4, 8):
                raise ValidationError(f"scalar dimension must be 1, 2, 4 or 8, got {self.scalar_dim}")
            if self.n < 1:
                raise ValidationError("matrix size must be at least 1")
            if self.scalar_dim == 8 and self.n not in (2, 3):
                raise ValidationError("octonionic hermitian kinds exist only at sizes 2 and 3")
        elif self.family == "spin":
            if self.n < 0:
                raise ValidationError("spin factor needs a nonnegative vector dimension")
            if self.scalar_dim != 0:
                raise ValidationError("spin factors carry no scalar system")
        else:
            raise ValidationError(f"unknown Jordan family {self.family!r}")

    @property
    def dim(self):
        """Real vector-space dimension of the algebra."""
        if self.family == "spin":
            return self.n + 1
        return self.n + self.scalar_dim * self.n * (self.n - 1) // 2

    @property
    def rank(self):
        return self.n if self.family == "hermitian" else 2

    @property
    def label(self):
        if self.family == "spin":
            return f"spin:{self.n}"
        return f"{_DIM_TAGS[self.scalar_dim]}:{self.n}"

    def __repr__(self):
        return self.label


def hermitian_kind(scalar_dim, n):
    """Hermitian n x n matrices over the scalars of real dimension 1, 2, 4 or 8."""
    return JordanKind("hermitian", n, scalar_dim)


def spin_kind(n):
    """Spin factor R^n + R."""
    return JordanKind("spin", n)


def parse_kind(text):
    """Parse a kind label such as 'hC:3' or 'spin:9'."""
    head, _, tail = text.partition(":")
    try:  # the rule of the CLI's integer options; an empty tail (no ':') fails too
        n = int(tail)
    except ValueError:
        raise ValidationError(f"cannot parse Jordan kind {text!r}") from None
    if head == "spin":
        return spin_kind(n)
    if head in _HERMITIAN_TAGS:
        return hermitian_kind(_HERMITIAN_TAGS[head], n)
    raise ValidationError(f"unknown Jordan family {head!r}")


@lru_cache(maxsize=64)
def _triangle(n):
    """(arange(n), triu_indices(n, 1)): the diagonal and strict upper triangle, read-only."""
    idx = np.arange(n)
    rows, cols = np.triu_indices(n, 1)
    for arr in (idx, rows, cols):
        arr.flags.writeable = False
    return idx, (rows, cols)


def _element_shape(kind):
    if kind.family == "spin":
        return (kind.n + 1,)
    return (kind.n, kind.n, kind.scalar_dim)


def _blocks(kind, count):
    """Yield the sizes of the blocks that ``count`` samples of ``kind`` are processed in."""
    size = max(1, _BLOCK_ENTRIES // int(np.prod(_element_shape(kind))))
    for start in range(0, count, size):
        yield min(size, count - start)


def _blockwise(kind, count, measure):
    """``measure(size)`` on each block of ``count`` samples of ``kind``, in one array."""
    return np.array([measure(size) for size in _blocks(kind, count)])


def _per_element(values):
    """A float for one element, the array itself for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _hermitized(data, n, scalar_dim):
    out = np.array(data, dtype=float)
    idx, (rows, cols) = _triangle(n)
    out[..., idx, idx, 1:] = 0.0
    out[..., cols, rows, :] = out[..., rows, cols, :] * conj_signs(scalar_dim)
    return out


class JordanElement:
    """An algebra element, or a stack of them; hermitian by storage for matrix kinds."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        data = np.asarray(data, dtype=float)
        shape = _element_shape(kind)
        if data.shape[max(0, data.ndim - len(shape)):] != shape:
            raise ShapeError(f"expected (..., {', '.join(map(str, shape))}) for {kind}, got {data.shape}")
        if kind.family == "spin":
            clean = np.array(data)
        else:
            _require_property(data, "self-adjoint", ValidationError, "hermitian data")
            clean = _hermitized(data, kind.n, kind.scalar_dim)
        clean.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", clean)

    @classmethod
    def _trusted(cls, kind, data):
        """Take ownership of a fresh float array that is already exact; no copy, no check."""
        data.flags.writeable = False
        element = object.__new__(cls)
        object.__setattr__(element, "kind", kind)
        object.__setattr__(element, "data", data)
        return element

    def __setattr__(self, name, value):
        raise AttributeError("JordanElement is immutable")

    @classmethod
    def from_complex(cls, matrix):
        coeffs = _complex_coeffs(matrix)
        return cls(hermitian_kind(2, coeffs.shape[0]), coeffs)

    @property
    def x(self):
        if self.kind.family != "spin":
            raise ShapeError("x is a spin-factor field")
        return self.data[..., :-1]

    @property
    def t(self):
        if self.kind.family != "spin":
            raise ShapeError("t is a spin-factor field")
        return _per_element(self.data[..., -1])

    def as_complex_matrix(self):
        if self.kind != hermitian_kind(2, self.kind.n):
            raise ShapeError("as_complex_matrix needs an hC kind")
        return _as_complex(self.data).copy()

    def scale(self, s):
        """Real multiple; ``s`` is a number, or an array of one factor per stacked element."""
        s = np.asarray(s, dtype=float)
        factor = s.reshape(s.shape + (1,) * len(_element_shape(self.kind)))
        return JordanElement._trusted(self.kind, factor * self.data)

    def __add__(self, other):
        _check_same_kind(self, other)
        return JordanElement._trusted(self.kind, self.data + other.data)

    def __sub__(self, other):
        _check_same_kind(self, other)
        return JordanElement._trusted(self.kind, self.data - other.data)

    def __neg__(self):
        return JordanElement._trusted(self.kind, -self.data)

    def norm(self):
        return _per_element(_norms(self.data, len(_element_shape(self.kind))))

    def __repr__(self):
        batch = self.data.shape[: self.data.ndim - len(_element_shape(self.kind))]
        if batch:
            return f"JordanElement({self.kind}, stack={batch})"
        return f"JordanElement({self.kind}, norm={self.norm():.3g})"


def _require_one(a, what):
    if a.data.ndim != len(_element_shape(a.kind)):
        raise ShapeError(f"{what} takes one element, got a stack of shape {a.data.shape}")


def _check_same_kind(a, b):
    if a.kind != b.kind:
        raise ShapeError(f"kind mismatch: {a.kind} vs {b.kind}")
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"stacks of shape {a.data.shape} and {b.data.shape} do not broadcast") from None


def unit(kind):
    if kind.family == "spin":
        data = np.zeros(kind.n + 1)
        data[-1] = 1.0
        return JordanElement._trusted(kind, data)
    data = np.zeros((kind.n, kind.n, kind.scalar_dim))
    idx, _ = _triangle(kind.n)
    data[idx, idx, 0] = 1.0
    return JordanElement._trusted(kind, data)


def from_coords(kind, v):
    """The element with real coordinates ``v``; a (*batch, dim) array gives a stack.

    The coordinates are the diagonal entries, then the upper-triangle
    coefficient blocks; on spin factors, the flat vector (x, t).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim < 1 or v.shape[-1] != kind.dim:
        raise ShapeError(f"expected {kind.dim} coordinates for {kind}, got {v.shape}")
    if kind.family == "spin":
        return JordanElement._trusted(kind, np.array(v))
    n, d = kind.n, kind.scalar_dim
    batch = v.shape[:-1]
    data = np.zeros((*batch, n, n, d))
    idx, (rows, cols) = _triangle(n)
    data[..., idx, idx, 0] = v[..., :n]
    data[..., rows, cols, :] = v[..., n:].reshape(*batch, -1, d)
    data[..., cols, rows, :] = data[..., rows, cols, :] * conj_signs(d)
    return JordanElement._trusted(kind, data)


def random_element(kind, rng):
    return from_coords(kind, rng.standard_normal(kind.dim))


def random_positive(kind, rng):
    """A strictly positive element: a Jordan square pushed into the open cone."""
    return _positive_from(kind, rng.standard_normal(kind.dim))


def _positive_from(kind, v):
    """Strictly positive elements from coordinates ``v``: Jordan squares pushed into the open cone."""
    a = from_coords(kind, v)
    square = jordan_product(a, a)
    return square + unit(kind).scale(0.05 * (1.0 + square.norm()))


def jordan_product(a, b):
    """a o b = (ab + ba) / 2; on spin factors (tx' + t'x, x.x' + tt').

    Acts per element on stacks; the stack axes of ``a`` and ``b`` broadcast.
    """
    _check_same_kind(a, b)
    kind = a.kind
    if kind.family == "spin":
        x, t = a.data[..., :-1], a.data[..., -1]
        y, s = b.data[..., :-1], b.data[..., -1]
        vector = s[..., None] * x + t[..., None] * y
        return JordanElement._trusted(
            kind, np.concatenate([vector, (_dots(x, y) + t * s)[..., None]], axis=-1)
        )
    # ab and ba in separate kernel calls, so a o b and b o a agree bit for bit;
    # the sum is hermitian only up to rounding of order eps |a|_F |b|_F (not
    # eps |a o b|_F, which cancellation can make far smaller), so it is
    # checked against that scale and rebuilt
    table = mul_table(kind.scalar_dim)
    ab = _kproduct(a.data, b.data, table)
    ba = _kproduct(b.data, a.data, table)
    data = 0.5 * (ab + ba)
    scale = _norms(a.data, 3) * _norms(b.data, 3)
    _require_property(data, "self-adjoint", ValidationError, "a o b", scale)
    return JordanElement._trusted(kind, _hermitized(data, kind.n, kind.scalar_dim))


def check_jordan_identity(a, b):
    """Residual of (a^2 o b) o a = a^2 o (b o a); per element on stacks."""
    return _identity_residual(jordan_product(a, a), a, b)


def _identity_residual(square, a, b):
    """check_jordan_identity with the square a o a already formed."""
    lhs = jordan_product(jordan_product(square, b), a)
    rhs = jordan_product(square, jordan_product(b, a))
    return (lhs - rhs).norm()


def trace(a):
    """The real diagonal sum on matrix kinds, 2t on spin factors; trace(1) = rank."""
    if a.kind.family == "spin":
        return _per_element(2.0 * a.data[..., -1])
    idx, _ = _triangle(a.kind.n)
    return _per_element(a.data[..., idx, idx, 0].sum(axis=-1))


def trace_inner(a, b):
    """The trace form <a, b> = trace(a o b); an inner product by formal reality."""
    return trace(jordan_product(a, b))


def _paired_eigenvalues(data):
    """Eigenvalues of quaternionic hermitian matrices (..., n, n, 4), each once.

    Each shows up twice in the complex adjunct; every element's pairs must
    agree to _PAIRING_TOL times max(1, its spectral radius), taken on the
    element as cone_margin scales it (largest entry in [0.5, 1)).  A pair's
    value is 0.5 a + 0.5 b: the bits of their mean wherever a + b is a normal
    float, and no overflow where a + b passes the largest float.
    """
    w = np.linalg.eigvalsh(_complex_form(data))
    pairs = w.reshape(*w.shape[:-1], -1, 2)
    _require_within(np.abs(pairs[..., 1] - pairs[..., 0]).max(axis=-1),
                    _PAIRING_TOL * np.maximum(1.0, np.abs(w).max(axis=-1)),
                    InternalInconsistencyError, "adjunct eigenvalues did not come in pairs")
    return 0.5 * pairs[..., 0] + 0.5 * pairs[..., 1]


def cone_margin(a):
    """The least eigenvalue of a, positive exactly inside the positive cone.

    Matrix kinds: via ``structures._complex_form``, the adjunct for H with its
    doubled spectrum deduplicated.  Spin factors: t - |x|, the lesser of the
    eigenvalues t +- |x|, so h2_spin_isomorphism preserves it.  An element
    with a NaN or infinite coordinate has margin NaN; a margin past the
    largest float is -inf or inf, without a warning.  Octonionic kinds are
    unsupported.
    """
    kind = a.kind
    if kind.family == "hermitian" and kind.scalar_dim == 8:
        raise UnsupportedError("no eigen-theory for octonionic hermitian matrices")
    data, rank = a.data, len(_element_shape(kind))
    finite = np.isfinite(data).all(axis=tuple(range(-rank, 0)))
    if not finite.all():
        # eigvalsh reads a non-finite block as a finite spectrum or raises
        # LinAlgError, and t - |x| can subtract inf from inf: such elements
        # are zeroed here and their margin set to NaN below
        data = np.where(finite.reshape(finite.shape + (1,) * rank), data, 0.0)
    # a margin past the largest float reads +-inf, as _norms reads a norm there
    with np.errstate(over="ignore"):
        if kind.family == "spin":
            margin = data[..., -1] - _norms(data[..., :-1], 1)
        else:
            # LAPACK rescales a matrix whose largest entry is past about 2^+-480 by
            # a factor that is not a power of two; scaled by 2^-e first, e the
            # exponent of that entry, the margin of 2^k a is 2^k times a's exactly
            data, exponent = _unit_scaled(data, rank)
            if kind.scalar_dim == 4:
                margin = _paired_eigenvalues(data).min(axis=-1)
            else:
                margin = np.linalg.eigvalsh(_complex_form(data)).min(axis=-1)
            margin = np.ldexp(margin, exponent)
    return _per_element(np.where(finite, margin, np.nan))


def is_positive(a, tol=1e-10):
    """Whether a lies strictly inside the positive cone; a bool array on stacks."""
    return cone_margin(a) > tol


@dataclass(frozen=True)
class JordanState:
    """A positive unit-trace element; the algebra's notion of a mixed state.

    Positivity, a least eigenvalue (cone_margin) of at least -1e-10, is
    verified where eigen-theory exists; for octonionic kinds only the unit
    trace is checked.
    """

    element: JordanElement

    def __post_init__(self):
        _require_one(self.element, "JordanState")
        t = trace(self.element)
        _require_within(abs(t - 1.0), _STATE_TOL, ValidationError, "state trace is {t}, not 1", t=t)
        kind = self.element.kind
        if not (kind.family == "hermitian" and kind.scalar_dim == 8):
            _require_within(-cone_margin(self.element), _STATE_TOL,
                            ValidationError, "state is not positive semidefinite")

    @property
    def kind(self):
        return self.element.kind


def state_eval(rho, a):
    """Expectation <a> = trace(rho o a) in the JordanState rho."""
    _check_same_kind(rho.element, a)
    return trace_inner(rho.element, a)


def max_ignorance(kind):
    """The state rho_0 = 1/trace(1) * 1."""
    one = unit(kind)
    return JordanState(one.scale(1.0 / trace(one)))


def dual_cone_margin(a, samples, rng):
    """min over positive b of <a, b>; negative values witness a outside the cone.

    ``samples`` is the count of random positive elements b, drawn from the
    generator ``rng`` as random_positive draws them and evaluated in stacked
    blocks.  ``a`` is one element.
    """
    _require_one(a, "dual_cone_margin")
    if samples < 1:
        raise PreconditionError("need at least one sample")
    kind = a.kind

    def probe(size):
        return np.min(trace_inner(a, _positive_from(kind, rng.standard_normal((size, kind.dim)))))

    # np.min, unlike min, keeps a NaN from any block
    return float(np.min(_blockwise(kind, int(samples), probe)))


class H2SpinIsomorphism:
    """The isomorphism h_2(K) = spin factor R^(1+dim K) + R.

    Forward map: [[t + x0, z*], [z, t - x0]] -> ((x0, coeffs of z), t).
    """

    __slots__ = ("source", "target")

    def __init__(self, scalar_dim):
        object.__setattr__(self, "source", hermitian_kind(scalar_dim, 2))
        object.__setattr__(self, "target", spin_kind(1 + scalar_dim))

    def __setattr__(self, name, value):
        raise AttributeError("H2SpinIsomorphism is immutable")

    def __call__(self, a):
        if a.kind != self.source:
            raise ShapeError(f"expected an element of {self.source}, got {a.kind}")
        _require_one(a, "H2SpinIsomorphism")
        t = 0.5 * (a.data[0, 0, 0] + a.data[1, 1, 0])
        x0 = 0.5 * (a.data[0, 0, 0] - a.data[1, 1, 0])
        return from_coords(self.target, np.concatenate([[x0], a.data[1, 0, :], [t]]))

    def inverse(self, b):
        if b.kind != self.target:
            raise ShapeError(f"expected an element of {self.target}, got {b.kind}")
        _require_one(b, "H2SpinIsomorphism.inverse")
        x0, z, t = b.data[0], b.data[1:-1], b.data[-1]
        # the diagonal, then the upper-triangle entry conj z (from_coords mirrors it to z)
        return from_coords(self.source, np.concatenate([[t + x0, t - x0], z * conj_signs(self.source.scalar_dim)]))

    def __repr__(self):
        return f"H2SpinIsomorphism({self.source} -> {self.target})"


def h2_spin_isomorphism(scalar):
    """Isomorphism of h_2 over R, C, H or O, named by the real dimension 1, 2, 4 or 8."""
    if scalar not in (1, 2, 4, 8):
        raise UnsupportedError(f"no division algebra of dimension {scalar!r}: pick 1, 2, 4 or 8")
    return H2SpinIsomorphism(int(scalar))

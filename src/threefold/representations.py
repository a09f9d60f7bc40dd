"""Finite group representations and their real/complex/quaternionic kind.

An irreducible unitary representation is classified two independent ways:

* the Frobenius-Schur indicator ``(1/|G|) sum_g chi(g^2)``, which lands
  on +1, 0 or -1, and
* the invariant bilinear form obtained by group-averaging elementary seed
  forms; when a nonzero form survives it is purely symmetric or purely
  antisymmetric, and the antilinear structure map J it induces through
  ``g(v, w) = <J v, w>`` squares (after rescaling) to +1 or -1.

``classify`` runs both routes, and one routine (shared with
``su2.classify_spin``) decides the kind: it holds the indicator to its
bound, checks the sign of J^2 against the form's symmetry (tested once,
when the form is built) and insists both routes name the same kind.  The
commutant and self-duality come from the characters chi(g) = tr rho(g)
(Serre, 2.3): dim of the commutant is (1/|G|) sum_g |chi(g)|^2, and an
irreducible is self-dual iff (1/|G|) sum_g chi(g)^2 is 1 (else 0),
cross-checked against the form route.  Files (JSON) round-trip through
load_rep_file / dump_rep_file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    InternalInconsistencyError,
    ParseError,
    PreconditionError,
    ReducibleError,
    ThreefoldError,
    ValidationError,
)
from .hilbert import (
    _BLOCK_ENTRIES, MAX_SIZE, _as_complex, _complex_coeffs, _numbers, _property_defects, _require_within,
)
from .scalars import _Immutable, _norms, _unit_scaled
from .structures import AntilinearMap, RepKind

__all__ = [
    "FiniteGroup",
    "FiniteGroupRep",
    "InvariantBilinearForm",
    "RepKind",
    "fs_indicator_finite",
    "commutant_dimension",
    "intertwiner_dimension",
    "average_bilinear",
    "invariant_bilinear_form",
    "structure_map",
    "structure_map_from_form",
    "classify",
    "load_rep_file",
    "dump_rep_file",
]

# absolute, per entry: rho(e) = 1, the modulus pre-check and the homomorphism
# law (unitarity is hilbert's rule)
_HOM_TOL = 1e-10
# absolute on the Frobenius norm of a seed's group average (each seed has norm 1)
_FORM_TOL = 1e-10
# relative to the Frobenius norm of the invariant form
_SYMMETRY_REL_TOL = 1e-8
# the character inner products of _character_pairing: absolute distance of
# (1/|G|) sum_g conj(chi_a(g)) chi_b(g) from the nearest integer
_CHARACTER_TOL = 1e-8
# classify's Frobenius-Schur indicator: absolute distance from -1, 0 or +1
_INDICATOR_TOL = 1e-8
# the structure-map checks: relative, times max(1, |c|) for Im c, where
# c = tr(J_raw^2) / d, times d for |J^2 - sign 1|_F and times sqrt(d) for
# commutation; the relative factor of hilbert's unitary rule for antiunitarity
_STRUCTURE_TOL = 1e-9

# largest group order load_rep_file accepts.  Validating the table takes
# O(|G|^2 log |G|) time (Light's associativity test on a generating set):
# about 6 ms at this bound on a 2-vCPU Xeon.  The bound guards the
# representations: each one's homomorphism check reads |G|^2 d^2 entries
# (about 3 ms per character of Z_512 and 6 ms per dimension-2 rep of
# Dic_127, |G| = 508), and the file grows alike.
MAX_ORDER = 512

# largest representation file load_rep_file reads, in bytes; a larger one is
# refused before it is opened.  Dic_127 (order 508, the largest dicyclic
# group within MAX_ORDER) takes 13.8 MiB at seed 1 of benchmarks/dicyclic.py.
# The tracemalloc peak of loading is 2.1 (Dic_127) to 2.9 (Dic_31) times the
# file size: the text, one entry's parsed lists and the arrays built so far.
# That implies about 48 MiB at this bound; classify on Dic_127 peaks at 65 MB
# resident and takes about 2 s (numpy 2.4, x86-64, 2-vCPU Xeon).  The
# slowest file measured within the bound is 3,059 trivial characters of Z_512
# in compact JSON (16.0 MiB): classify takes about 8 s at 97 MB at one BLAS
# thread (OPENBLAS_NUM_THREADS=1), about 7 s of it loading, nearly all of that
# in the homomorphism checks.
MAX_FILE_BYTES = 16 * 2**20


def _generators(table, identity):
    """A generating set of the table, found greedily.

    The first element not yet reached becomes a generator, and the reached
    set is closed under the product, squaring it until it stops growing.  In
    a group of order n that is the subgroup the generators span, so at most
    log2(n) generators are needed.
    """
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[identity] = True
    generators = []
    while not reached.all():
        generators.append(int(reached.argmin()))
        reached[generators[-1]] = True
        members = np.flatnonzero(reached)
        while True:
            reached[table[np.ix_(members, members)]] = True
            grown = np.flatnonzero(reached)
            if grown.size == members.size:
                break
            members = grown
    return generators


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[g, h]`` is the index of the product g h, an integer.  The table is
    fully validated (closure, identity, inverses, associativity) at construction.
    """

    table: np.ndarray
    identity: int = field(init=False, default=0)
    inverse: np.ndarray = field(init=False, default=None)
    name: str = ""

    def __post_init__(self):
        table = _numbers(self.table, int, "multiplication table entries")
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValidationError("multiplication table must be square")
        n = table.shape[0]
        if n < 1:  # as load_rep_file's positive order; min and max would raise on it
            raise ValidationError("a group has at least one element")
        if table.min() < 0 or table.max() >= n:
            raise ValidationError("table entries out of range")
        idx = np.arange(n)
        found = np.flatnonzero((table == idx).all(axis=1) & (table.T == idx).all(axis=1))
        if not found.size:
            raise ValidationError("no identity element")
        identity = int(found[0])
        hits = table == identity
        inverse = hits.argmax(axis=1)
        bad = np.flatnonzero((hits.sum(axis=1) != 1) | (table[inverse, idx] != identity))
        if bad.size:
            raise ValidationError(f"element {bad[0]} has no two-sided inverse")
        # Light's test: the s with (x s) y == x (s y) for all x, y contain the
        # identity and are closed under the product, so the table is
        # associative iff every generator passes.  Exact integer equality;
        # int32 gathers run ~4x faster than int64 ones.
        small = table.astype(np.int32)
        for s in _generators(small, identity):
            if not np.array_equal(small[small[:, s]], small[:, small[s]]):
                raise ValidationError("multiplication table is not associative")
        table = table.copy()
        table.flags.writeable = False
        inverse.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverse", inverse)

    @property
    def order(self):
        return self.table.shape[0]

    def inv(self, g):
        return int(self.inverse[g])

    def squares(self):
        """Index array g -> g*g."""
        return np.diagonal(self.table)


class FiniteGroupRep(_Immutable):
    """Unitary representation: one complex d x d matrix per group element.

    Unitarity and the homomorphism property are validated at construction,
    so downstream code can rely on both, each refusal a ValidationError with
    its defect and bound.  rho(e) = 1 and the homomorphism law hold entrywise
    to the absolute 1e-10; the law's ``defect`` is the largest entry of
    rho(g) rho(h) - rho(g h) over the first failing block of g's.  An entry
    of modulus m with m - 1 above 1e-10 (or NaN) is refused before the Gram
    product, with ``defect`` m - 1; then hilbert's unitary rule holds each
    rho(g), |rho(g)^* rho(g) - 1|_F <= 1e-10 sqrt(d).  Both name the worst g.
    Each block of g's is one matmul against all rho(h), with temporaries near
    256 KB whatever |G| and d.

    ``characters`` (chi(g) = tr rho(g), one per element) and ``indicator``
    (the Frobenius-Schur indicator, see fs_indicator_finite) are computed
    once here; every character sum and classify read them.
    """

    __slots__ = ("group", "matrices", "characters", "indicator")

    def __init__(self, group, matrices):
        matrices = _numbers(matrices, complex, "representation matrix entries")
        if matrices.ndim != 3 or matrices.shape[0] != group.order:
            raise ValidationError("need one square matrix per group element")
        if matrices.shape[1] != matrices.shape[2]:
            raise ValidationError("representation matrices must be square")
        d = matrices.shape[1]
        if d < 1:  # as load_rep_file's positive dim; the checks below reduce over entries
            raise ValidationError("representation dimension must be at least 1")
        _require_within(np.abs(matrices[group.identity] - np.eye(d)).max(), _HOM_TOL,
                        ValidationError, "identity element is not represented by the identity")
        # every entry of a unitary matrix has modulus at most 1; one of modulus
        # m > 1 (or NaN) puts the Gram defect at m^2 - 1 or more, so it is
        # refused before the Gram product could overflow
        not_unitary = "matrix for element {index} is not unitary"
        _require_within(np.abs(matrices).max(axis=(1, 2)) - 1.0, _HOM_TOL, ValidationError, not_unitary)
        _require_within(*_property_defects(_complex_coeffs(matrices), "unitary"), ValidationError,
                        not_unitary)
        # rho(g) rho(h) == rho(g h) for a block of g's at a time.  With
        # x[i, g, k] = rho(g)[i, k], the block's x[:, lo:hi] read as a (d b, d)
        # matrix times all rho(h) side by side (x read as (d, n d)) is one
        # matmul whose result reads as [i, g, h, j]; so does the one take of
        # rho(g h)[i, j] = x[i, table[g, h], j], with no transposed copy
        n = group.order
        x = matrices.transpose(1, 0, 2).copy()
        row = x.reshape(d, n * d)
        block = max(1, _BLOCK_ENTRIES // (n * d * d))
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            products = x[:, lo:hi].reshape(d * (hi - lo), d) @ row
            products -= np.take(x, group.table[lo:hi], axis=1).reshape(products.shape)
            # |z| <= sqrt(2) max(|Re z|, |Im z|) < 1.5 max(|Re z|, |Im z|): a
            # block whose real and imaginary parts are all that far within the
            # bound passes without the modulus of each entry
            parts = products.view(float)
            if 1.5 * max(parts.max(), -parts.min()) <= _HOM_TOL:
                continue
            _require_within(np.abs(products).max(), _HOM_TOL, ValidationError,
                            "matrices do not satisfy the homomorphism property")
        matrices = matrices.copy()
        matrices.flags.writeable = False
        # at d = 1 the characters are the entries themselves: a view, not a
        # second array as large as the matrices
        characters = matrices[:, 0, 0] if d == 1 else np.trace(matrices, axis1=1, axis2=2)
        characters.flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "characters", characters)
        object.__setattr__(self, "indicator", float(np.mean(characters[group.squares()]).real))

    @property
    def dim(self):
        return self.matrices.shape[1]


@dataclass(frozen=True)
class InvariantBilinearForm:
    """Invariant bilinear form: a read-only complex ``matrix`` and whether it is ``symmetric``.

    _is_symmetric decides ``symmetric`` once, here; structure_map_from_form
    refuses a degenerate form.
    """

    matrix: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        m = np.array(_numbers(self.matrix, complex, "form entries"))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValidationError(f"an invariant form must be a nonempty square matrix, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "symmetric", _is_symmetric(m))


def fs_indicator_finite(rep):
    """Frobenius-Schur indicator (1/|G|) sum_g chi(g^2), as computed when rep was built.

    +1, 0, -1 for real, complex, quaternionic irreducibles.  The mean is a
    numpy pairwise sum, so the result does not depend on element order
    beyond 1e-12.
    """
    return rep.indicator


def _character_pairing(chi_a, chi_b):
    """(1/|G|) sum_g conj(chi_a(g)) chi_b(g), an integer unless the inputs are no characters."""
    value = np.vdot(chi_a, chi_b) / len(chi_a)
    nearest = np.rint(value.real)
    _require_within(abs(value - nearest), _CHARACTER_TOL, InternalInconsistencyError,
                    "character inner product {value} is not an integer", value=value)
    return int(nearest)


def commutant_dimension(rep):
    """Complex dimension of {T : T rho(g) = rho(g) T for all g}: <chi, chi>; 1 iff irreducible."""
    return _character_pairing(rep.characters, rep.characters)


def intertwiner_dimension(rep_a, rep_b):
    """Complex dimension of {T : T rho_a(g) = rho_b(g) T for all g}: <chi_a, chi_b>."""
    if rep_a.group is not rep_b.group and not np.array_equal(
        rep_a.group.table, rep_b.group.table
    ):
        raise PreconditionError("representations of different groups")
    return _character_pairing(rep_a.characters, rep_b.characters)


def average_bilinear(rep, seed):
    """Group average (1/|G|) sum_g rho(g)^T seed rho(g); invariant by construction.

    Two products: t(g) = seed rho(g) for every g in one stacked matmul, then
    the sum over g and the row index j of rho(g)_ji t(g)_jl as one
    (d, |G| d) @ (|G| d, d) matmul.
    """
    d = rep.dim
    t = _numbers(seed, complex, "seed entries") @ rep.matrices
    return rep.matrices.reshape(-1, d).T @ t.reshape(-1, d) / rep.group.order


def invariant_bilinear_form(rep):
    """Invariant bilinear form by seed averaging, or None when none exists.

    Seeds are the d^2 elementary matrices E_ij in row-major order; the first
    average above _FORM_TOL is kept, and None (for an irreducible, the
    complex case) means none is.  E_ij averages to block (i, j) of
    M^T M / |G|, M the (|G|, d^2) matrix stack, formed for a block of seeds
    at a time in one matmul of at most _BLOCK_ENTRIES entries (or d^2).
    """
    d, n = rep.dim, rep.group.order
    stack = rep.matrices.reshape(n, d * d)
    rows, cols = max(1, _BLOCK_ENTRIES // d**3), max(1, _BLOCK_ENTRIES // d**2)
    for i in range(0, d, rows):
        for j in range(0, d, cols):
            block = stack[:, i * d:(i + rows) * d].T @ stack[:, j * d:(j + cols) * d] / n
            averages = block.reshape(-1, d, block.shape[1] // d, d).swapaxes(1, 2)
            survivors = np.argwhere(_norms(averages, 2) > _FORM_TOL)
            if survivors.size:
                return InvariantBilinearForm(averages[tuple(survivors[0])])
    return None


def _is_symmetric(form_matrix):
    """True for a symmetric form, False for an antisymmetric one, to _SYMMETRY_REL_TOL."""
    bound = float(_SYMMETRY_REL_TOL * _norms(form_matrix))
    off_symmetric, off_antisymmetric = _norms([form_matrix - form_matrix.T, form_matrix + form_matrix.T], 2)
    symmetric = off_symmetric <= bound
    if symmetric == (off_antisymmetric <= bound):
        raise InternalInconsistencyError(
            "invariant form is neither cleanly symmetric nor cleanly antisymmetric",
            float(min(off_symmetric, off_antisymmetric)), bound,
        )
    return bool(symmetric)


def structure_map_from_form(form_matrix, operators):
    """Antilinear J with g(v, w) = <J v, w>, rescaled so J^2 = +1 or -1.

    ``operators`` is a (k, d, d) stack of the operators J must commute with:
    every rho(g) of a finite group, or the Lie-algebra elements i J_k that
    generate the connected SU(2).  Returns ``(J, sign)``.  J_raw is J before
    rescaling; c = tr(J_raw^2) / d must be real within _STRUCTURE_TOL
    max(1, |c|) and not 0.  J = J_raw / sqrt|c| must be antiunitary
    (hilbert's rule, relative factor _STRUCTURE_TOL), and J^2 = J_raw^2 / |c|
    must be sign 1 within _STRUCTURE_TOL d, which puts J_raw^2 within
    _STRUCTURE_TOL max(1, |c|) d of c 1: J_raw^2 - c 1 is traceless, so no
    longer than J_raw^2 - Re(c) 1 = |c| (J^2 - sign 1).  J must
    commute with each operator within _STRUCTURE_TOL sqrt(d), relative to
    |J|_F = sqrt(d) and absolute whatever the operator's norm; the refusal
    names the worst operator's index.  The commutation defect on i J_k is
    |J_k^T g + g J_k|_F / sqrt|c|, and on a unitary rho(h) it is
    |rho(h)^T g rho(h) - g|_F / sqrt|c|, so it is also the one check that g
    is invariant.  Every failure raises InternalInconsistencyError (an
    empty form, ValidationError): a nondegenerate invariant form passes every
    check, and a degenerate one fails one.

    Where J_raw^2 would leave the float range (g's largest entry outside
    [2^-500, 2^500]), g is first scaled into [0.5, 1) by a power of two, so
    that 2^k g gives g's J and sign bit for bit; a refusal there carries the
    scaled form's values.
    """
    g_mat = _numbers(form_matrix, complex, "form entries")
    if not g_mat.size:  # c = tr(J_raw^2) / d has no value at d = 0
        raise ValidationError("an invariant form needs dimension at least 1")
    if not 2.0**-500 <= np.abs(_complex_coeffs(g_mat)).max(initial=0.0) <= 2.0**500:
        g_mat = _unit_scaled(g_mat)[0]
    raw = AntilinearMap(g_mat.conj().T)
    square = raw.square()
    d = square.shape[0]
    tr = np.trace(square)
    c = complex(tr.real / d, tr.imag / d)  # exact where numpy's complex (49+0j) / 49 is 1 - 2^-53
    _require_within(abs(c.imag), _STRUCTURE_TOL * max(1.0, abs(c)), InternalInconsistencyError,
                    "J^2 is not real")
    c = c.real
    if c == 0.0:
        raise InternalInconsistencyError("form induces a nilpotent structure map: J_raw^2 = 0")
    sign = 1 if c > 0 else -1
    j = raw.scale(1.0 / np.sqrt(abs(c)))
    _require_within(*_property_defects(_complex_coeffs(j.matrix), "unitary", _STRUCTURE_TOL),
                    InternalInconsistencyError, "rescaled structure map is not antiunitary")
    _require_within(_norms(square / abs(c) - sign * np.eye(d)), _STRUCTURE_TOL * d,
                    InternalInconsistencyError, "structure map square is not +/-1")
    _require_within(j.commutation_defect(operators), _STRUCTURE_TOL * np.sqrt(d),
                    InternalInconsistencyError,
                    "structure map does not commute with operator {index} ({defect:.2e})")
    return j, sign


def _two_route_kind(indicator, form, operators):
    """``(kind, J)`` named by both routes; InternalInconsistencyError unless they agree.

    Route 1 is a Frobenius-Schur indicator, held to _INDICATOR_TOL from a
    kind's value.  Route 2 is an InvariantBilinearForm, None for the complex
    kind (J None); J from structure_map_from_form must commute with each of
    ``operators`` (every rho(g) of a finite group, or the i J_k of su(2)) and
    must square to +1 on a symmetric form, -1 on an antisymmetric.
    """
    indicator_kind = min(RepKind, key=lambda kind: abs(indicator - kind.value))
    _require_within(abs(indicator - indicator_kind.value), _INDICATOR_TOL, InternalInconsistencyError,
                    "Frobenius-Schur indicator {indicator} is not within {tol:g} of -1, 0 or +1",
                    indicator=indicator)
    j, form_kind = None, RepKind.COMPLEX
    if form is not None:
        j, sign = structure_map_from_form(form.matrix, operators)
        if sign != (1 if form.symmetric else -1):
            symmetry = "symmetric" if form.symmetric else "antisymmetric"
            raise InternalInconsistencyError(f"structure map squares to {sign:+d} on a {symmetry} form")
        form_kind = RepKind(sign)
    if indicator_kind is not form_kind:
        raise InternalInconsistencyError(
            f"indicator route says {indicator_kind}, form route says {form_kind}"
        )
    return form_kind, j


def structure_map(rep, form):
    """Structure map of a finite-group invariant form; see structure_map_from_form."""
    return structure_map_from_form(form.matrix, rep.matrices)


def classify(rep):
    """Kind of an irreducible unitary representation, by two independent routes.

    Route 1 is the Frobenius-Schur indicator, held to _INDICATOR_TOL; route
    2 is the invariant bilinear form, which must exist exactly when the
    dual-intertwiner dimension is 1.  _two_route_kind, which su2.classify_spin
    shares, compares them.  A disagreement raises InternalInconsistencyError;
    reducible input raises ReducibleError (a PreconditionError) carrying the
    commutant dimension.
    """
    commutant = commutant_dimension(rep)
    if commutant != 1:
        raise ReducibleError(commutant)
    fs = fs_indicator_finite(rep)
    form = invariant_bilinear_form(rep)
    # the dual has character conj(chi), so dim Hom(rho, rho*) = (1/|G|) sum_g conj(chi(g)^2)
    self_dual_dim = _character_pairing(rep.characters, rep.characters.conj())
    if self_dual_dim != (form is not None):
        found = "an" if form is not None else "no"
        raise InternalInconsistencyError(
            f"dual-intertwiner dimension {self_dual_dim} with {found} invariant form"
        )
    return _two_route_kind(fs, form, rep.matrices)[0]


# ---------------------------------------------------------------------------
# representation files
# ---------------------------------------------------------------------------

def _json_array(value, shape, what, integer=False):
    """Nested JSON lists of exactly ``shape`` as an int or float array.

    Leaves must be JSON integers (or, unless ``integer``, numbers); a bool
    is neither, although Python counts it as an int.  A wrong length raises
    ValidationError, any other malformed value ParseError.
    """
    level = [value]
    for n in shape:
        # each level's types and lengths as sets, and its flattening, run at C speed
        if set(map(type, level)) - {list}:
            raise ParseError(f"{what} must be nested lists of shape {shape}")
        if set(map(len, level)) - {n}:
            raise ValidationError(f"{what}: expected shape {shape}")
        level = list(chain.from_iterable(level))
    if set(map(type, level)) - ({int} if integer else {int, float}):
        raise ParseError(f"{what} entries must be {'integers' if integer else 'numbers'}")
    try:
        return np.array(level, dtype=int if integer else float).reshape(shape)
    except OverflowError as exc:
        raise ValidationError(f"{what} has an entry out of range") from exc


def _require_file_size(size):
    if size > MAX_FILE_BYTES:
        raise PreconditionError(
            f"file size {size} bytes is above the largest supported size {MAX_FILE_BYTES}",
            size, MAX_FILE_BYTES,
        )


def _name(entry, what):
    """An object's ``name`` in the file, "" when absent; ParseError unless a string."""
    name = entry.get("name", "")
    if not isinstance(name, str):
        raise ParseError(f"{what} name must be a string")
    return name


def _complex_array(value, shape, what):
    return _as_complex(_json_array(value, shape, what))


def _rep_arrays(entry):
    """json.loads object_hook: turn a rep entry's matrices into one complex array.

    It runs as soon as the entry is parsed, so only one entry's nested lists
    are alive at a time.  The entry's own (len, dim, dim, 2) shape is used;
    an entry with a dim outside 1..MAX_SIZE or with malformed matrices is
    left as parsed, for load_rep_file to refuse in file order.
    """
    d, matrices = entry.get("dim"), entry.get("matrices")
    if type(d) is int and 1 <= d <= MAX_SIZE and type(matrices) is list:
        try:
            entry["matrices"] = _complex_array(matrices, (len(matrices), d, d, 2), "")
        except ThreefoldError:
            pass
    return entry


def load_rep_file(path):
    """Read a JSON representation file.

    Schema: ``{"order": n, "mult": [[...]], "name": str, "reps": [{"name":
    str, "dim": d, "matrices": [[[[re, im], ...]]]}]}`` with matrices listed
    in element order; the group's name is optional.  Returns ``(group,
    [(name, rep), ...])``.  A file that is not UTF-8 text, malformed or too
    deeply nested JSON or a value of the wrong type (a name that is not a
    string among them) raises ParseError (with position for malformed
    JSON); a wrong shape, a bad table or a non-representation raises
    ValidationError.  A file above MAX_FILE_BYTES raises PreconditionError
    before it is read, an order above MAX_ORDER before the table is built,
    and a dim above hilbert.MAX_SIZE before that representation's array is
    built.  Each representation's array is built while the JSON is parsed,
    so those arrays are bounded by MAX_FILE_BYTES, not by MAX_ORDER.
    """
    size = os.stat(path).st_size
    _require_file_size(size)
    with open(path, "rb") as fh:
        # reads stop one byte past the bound, as a pipe reports size 0 and a
        # file may grow after the stat.  A read of n allocates n bytes first,
        # so each asks for 64 KiB past the stat size, not the bound; it
        # returns fewer bytes than asked only at the end of the file.  Only
        # the list holds the pieces, so deleting it frees them before parsing
        pieces, count = [], 0
        while count <= MAX_FILE_BYTES:
            want = min(size + 2**16, MAX_FILE_BYTES + 1 - count)
            pieces.append(fh.read(want))
            count += len(pieces[-1])
            if len(pieces[-1]) < want:
                break
    _require_file_size(count)
    try:
        # joining a single piece returns it uncopied
        text = b"".join(pieces).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text ({exc.reason})") from exc
    del pieces
    try:
        doc = json.loads(text, object_hook=_rep_arrays)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("JSON is nested too deeply") from exc
    del text
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("order", "mult"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    order = doc["order"]
    if type(order) is not int or order < 1:
        raise ParseError("order must be a positive integer")
    if order > MAX_ORDER:
        raise PreconditionError(
            f"group order {order} is above the largest supported order {MAX_ORDER}", order, MAX_ORDER
        )
    table = _json_array(doc["mult"], (order, order), "mult", integer=True)
    group = FiniteGroup(table, name=_name(doc, "group"))
    entries = doc.get("reps", [])
    if not isinstance(entries, list):
        raise ParseError("reps must be a list")
    reps = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ParseError("each representation entry must be an object")
        for key in ("name", "dim", "matrices"):
            if key not in entry:
                raise ParseError(f"representation entry missing key {key!r}")
        name, d, matrices = _name(entry, "representation"), entry["dim"], entry["matrices"]
        if type(d) is not int or d < 1:
            raise ParseError(f"representation {name!r}: dim must be a positive integer")
        if d > MAX_SIZE:
            raise PreconditionError(
                f"representation {name!r}: dim {d} is above the largest supported size {MAX_SIZE}",
                d, MAX_SIZE,
            )
        shape, what = (order, d, d, 2), f"representation {name!r} matrices"
        if not isinstance(matrices, np.ndarray):
            # left as parsed by _rep_arrays: this walk raises the error in it
            matrices = _complex_array(matrices, shape, what)
        elif len(matrices) != order:
            raise ValidationError(f"{what}: expected shape {shape}")
        reps.append((name, FiniteGroupRep(group, matrices)))
    return group, reps


def dump_rep_file(path, group, named_reps, name=""):
    """Write a representation file; inverse of :func:`load_rep_file`."""
    doc = {
        "order": int(group.order),
        "name": name or group.name,
        "mult": [[int(x) for x in row] for row in group.table],
        "reps": [
            {
                "name": rep_name,
                "dim": int(rep.dim),
                "matrices": _complex_coeffs(rep.matrices).tolist(),
            }
            for rep_name, rep in named_reps
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

"""Finite group representations and their real/complex/quaternionic kind.

An irreducible unitary representation is classified two independent ways:

* the Frobenius-Schur indicator ``(1/|G|) sum_g chi(g^2)``, which lands
  on +1, 0 or -1, and
* the invariant bilinear form obtained by group-averaging elementary seed
  forms; when a nonzero form survives it is purely symmetric or purely
  antisymmetric, and the antilinear structure map J it induces through
  ``g(v, w) = <J v, w>`` squares (after rescaling) to +1 or -1.

``classify`` runs both routes and insists they agree.  The commutant and
self-duality come from the characters chi(g) = tr rho(g) (Serre, 2.3):
dim of the commutant is (1/|G|) sum_g |chi(g)|^2, and an irreducible is
self-dual iff (1/|G|) sum_g chi(g)^2 is 1 (else 0), cross-checked against
the form route.  Files (JSON) round-trip through load_rep_file /
dump_rep_file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFormError,
    InternalInconsistencyError,
    ParseError,
    PreconditionError,
    ReducibleError,
    ValidationError,
)
from .structures import SIGN_KIND, AntilinearMap, RepKind

__all__ = [
    "FiniteGroup",
    "FiniteGroupRep",
    "InvariantBilinearForm",
    "RepKind",
    "fs_indicator_finite",
    "commutant_dimension",
    "intertwiner_dimension",
    "dual_rep",
    "direct_sum",
    "conjugate_rep",
    "average_bilinear",
    "invariant_bilinear_form",
    "structure_map",
    "structure_map_from_form",
    "classify",
    "load_rep_file",
    "dump_rep_file",
]

_HOM_TOL = 1e-10
_FORM_TOL = 1e-10
_SYMMETRY_REL_TOL = 1e-8
_NONDEGENERATE_REL_TOL = 1e-8

# largest group order load_rep_file accepts.  The associativity check is
# O(|G|^3) time: about 1.1 s at this bound and 11 s at |G| = 1000 on a
# 2-vCPU Xeon.
MAX_ORDER = 512


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[g, h]`` is the index of the product g h.  The table is fully
    validated (closure, identity, inverses, associativity) at construction.
    """

    table: np.ndarray
    identity: int = field(init=False, default=0)
    inverse: np.ndarray = field(init=False, default=None)
    name: str = ""

    def __post_init__(self):
        table = np.asarray(self.table, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValidationError("multiplication table must be square")
        n = table.shape[0]
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
        # (g h) k == g (h k), one g at a time in O(|G|^2) memory; int32 gathers run ~4x faster
        small = table.astype(np.int32)
        for g in range(n):
            if not np.array_equal(small[small[g]], small[g][small]):
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


class FiniteGroupRep:
    """Unitary representation: one complex d x d matrix per group element.

    Unitarity and the homomorphism property are validated at construction
    (tolerance 1e-10), so downstream code can rely on both.
    """

    __slots__ = ("group", "matrices")

    def __init__(self, group, matrices):
        matrices = np.asarray(matrices, dtype=complex)
        if matrices.ndim != 3 or matrices.shape[0] != group.order:
            raise ValidationError("need one square matrix per group element")
        if matrices.shape[1] != matrices.shape[2]:
            raise ValidationError("representation matrices must be square")
        d = matrices.shape[1]
        eye = np.eye(d)
        if not np.allclose(matrices[group.identity], eye, rtol=0.0, atol=_HOM_TOL):
            raise ValidationError("identity element is not represented by the identity")
        gram = np.swapaxes(matrices, 1, 2).conj() @ matrices
        bad = np.flatnonzero(~np.all(np.abs(gram - eye) <= _HOM_TOL, axis=(1, 2)))
        if bad.size:
            raise ValidationError(f"matrix for element {bad[0]} is not unitary")
        # rho(g) rho(h) == rho(g h) one g at a time, as one matmul with all rho(h) side by side
        n = group.order
        row = matrices.transpose(1, 0, 2).reshape(d, n * d)
        for g in range(n):
            products = (matrices[g] @ row).reshape(d, n, d).transpose(1, 0, 2)
            if not np.all(np.abs(products - matrices[group.table[g]]) <= _HOM_TOL):
                raise ValidationError("matrices do not satisfy the homomorphism property")
        matrices = matrices.copy()
        matrices.flags.writeable = False
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrices", matrices)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroupRep is immutable")

    @property
    def dim(self):
        return self.matrices.shape[1]


@dataclass(frozen=True)
class InvariantBilinearForm:
    """Nondegenerate invariant bilinear form, purely (anti)symmetric."""

    matrix: np.ndarray
    symmetric: bool

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= _NONDEGENERATE_REL_TOL * sv[0]:
            raise DegenerateFormError(
                f"form is numerically degenerate (sv ratio {sv[-1] / sv[0]:.2e})"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _characters(rep):
    """chi(g) = tr rho(g), one per group element."""
    return np.trace(rep.matrices, axis1=1, axis2=2)


def fs_indicator_finite(rep):
    """Frobenius-Schur indicator (1/|G|) sum_g chi(g^2).

    +1, 0, -1 for real, complex, quaternionic irreducibles.  The mean is a
    numpy pairwise sum, so the result does not depend on element order
    beyond 1e-12.
    """
    return float(np.mean(_characters(rep)[rep.group.squares()]).real)


def _character_pairing(chi_a, chi_b):
    """(1/|G|) sum_g conj(chi_a(g)) chi_b(g), an integer unless the inputs are no characters."""
    value = np.vdot(chi_a, chi_b) / len(chi_a)
    nearest = np.rint(value.real)
    if not abs(value - nearest) <= 1e-8:
        raise InternalInconsistencyError(f"character inner product {value} is not an integer")
    return int(nearest)


def commutant_dimension(rep):
    """Complex dimension of {T : T rho(g) = rho(g) T for all g}: <chi, chi>; 1 iff irreducible."""
    chi = _characters(rep)
    return _character_pairing(chi, chi)


def intertwiner_dimension(rep_a, rep_b):
    """Complex dimension of {T : T rho_a(g) = rho_b(g) T for all g}: <chi_a, chi_b>."""
    if rep_a.group is not rep_b.group and not np.array_equal(
        rep_a.group.table, rep_b.group.table
    ):
        raise PreconditionError("representations of different groups")
    return _character_pairing(_characters(rep_a), _characters(rep_b))


def dual_rep(rep):
    """The dual representation; for unitary matrices this is entrywise conjugation."""
    return FiniteGroupRep(rep.group, np.conj(rep.matrices))


def direct_sum(rep_a, rep_b):
    da, db = rep_a.dim, rep_b.dim
    n = rep_a.group.order
    out = np.zeros((n, da + db, da + db), dtype=complex)
    out[:, :da, :da] = rep_a.matrices
    out[:, da:, da:] = rep_b.matrices
    return FiniteGroupRep(rep_a.group, out)


def conjugate_rep(rep, u):
    """Equivalent representation u rho u^-1 for a unitary u."""
    u = np.asarray(u, dtype=complex)
    return FiniteGroupRep(rep.group, np.einsum("ij,gjk,kl->gil", u, rep.matrices, u.conj().T))


def average_bilinear(rep, seed):
    """Group average (1/|G|) sum_g rho(g)^T seed rho(g); invariant by construction."""
    seed = np.asarray(seed, dtype=complex)
    terms = np.einsum("gji,jk,gkl->gil", rep.matrices, seed, rep.matrices)
    return terms.mean(axis=0)


def _elementary_seeds(d):
    for i in range(d):
        for j in range(d):
            seed = np.zeros((d, d))
            seed[i, j] = 1.0
            yield seed


def invariant_bilinear_form(rep, tol=_FORM_TOL):
    """Invariant bilinear form by seed averaging, or None when none exists.

    Seeds are the d^2 elementary matrices in row-major order; the first
    surviving average is kept.  None is returned only when every seed
    averages to (numerically) zero, which for an irreducible representation
    means the complex case.
    """
    best = None
    for seed in _elementary_seeds(rep.dim):
        avg = average_bilinear(rep, seed)
        if np.linalg.norm(avg) > tol:
            best = avg
            break
    if best is None:
        return None
    sym_defect = np.linalg.norm(best - best.T)
    anti_defect = np.linalg.norm(best + best.T)
    scale = np.linalg.norm(best)
    if sym_defect <= _SYMMETRY_REL_TOL * scale and anti_defect > _SYMMETRY_REL_TOL * scale:
        symmetric = True
    elif anti_defect <= _SYMMETRY_REL_TOL * scale and sym_defect > _SYMMETRY_REL_TOL * scale:
        symmetric = False
    else:
        raise InternalInconsistencyError(
            "invariant form is neither cleanly symmetric nor cleanly antisymmetric"
        )
    return InvariantBilinearForm(best, symmetric)


def structure_map_from_form(form_matrix, unitaries, tol=1e-9):
    """Antilinear J with g(v, w) = <J v, w>, rescaled so J^2 = +1 or -1.

    ``unitaries`` is any collection of representing matrices J must commute
    with (for a finite group, all of them; for a compact group, a sample).
    Returns ``(J, sign)``.  J is verified to be antiunitary, to commute with
    every given unitary, and to square to the claimed sign, all within
    ``tol``; violations raise InternalInconsistencyError since an invariant
    nondegenerate form guarantees them.
    """
    g_mat = np.asarray(form_matrix, dtype=complex)
    raw = AntilinearMap(g_mat.conj().T)
    square = raw.square()
    d = square.shape[0]
    c = np.trace(square) / d
    if np.linalg.norm(square - c * np.eye(d)) > tol * max(1.0, abs(c)) * d:
        raise InternalInconsistencyError("J^2 is not a scalar; form is not irreducible-invariant")
    if abs(c.imag) > tol * max(1.0, abs(c)):
        raise InternalInconsistencyError("J^2 is not real")
    c = c.real
    if c == 0.0:
        raise DegenerateFormError("form induces a nilpotent structure map")
    sign = 1 if c > 0 else -1
    j = raw.scale(1.0 / np.sqrt(abs(c)))
    if not j.is_antiunitary(tol):
        raise InternalInconsistencyError("rescaled structure map is not antiunitary")
    if np.linalg.norm(j.square() - sign * np.eye(d)) > tol * d:
        raise InternalInconsistencyError("structure map square is not +/-1")
    worst = max(j.commutation_defect(u) for u in unitaries)
    if worst > tol * d:
        raise InternalInconsistencyError(
            f"structure map does not commute with the representation ({worst:.2e})"
        )
    return j, sign


def structure_map(rep, form, tol=1e-9):
    """Structure map of a finite-group invariant form; see structure_map_from_form."""
    return structure_map_from_form(form.matrix, rep.matrices, tol)


def classify(rep, tol=1e-9):
    """Kind of an irreducible unitary representation, by two independent routes.

    Route 1 is the Frobenius-Schur indicator; route 2 builds the invariant
    bilinear form (or finds none) and extracts the structure map.  The two
    must agree, and the dual-intertwiner dimension must be consistent,
    otherwise InternalInconsistencyError is raised.  Reducible input raises
    ReducibleError (a PreconditionError) carrying the commutant dimension.
    """
    commutant = commutant_dimension(rep)
    if commutant != 1:
        raise ReducibleError(commutant)
    fs = fs_indicator_finite(rep)
    fs_sign = int(round(fs))
    if abs(fs - fs_sign) > 1e-8 or fs_sign not in (-1, 0, 1):
        raise InternalInconsistencyError(f"Frobenius-Schur indicator {fs} is not in {{-1,0,1}}")
    fs_kind = SIGN_KIND[fs_sign]

    form = invariant_bilinear_form(rep)
    # the dual has character conj(chi), so dim Hom(rho, rho*) = (1/|G|) sum_g conj(chi(g)^2)
    chi = _characters(rep)
    self_dual_dim = _character_pairing(chi, chi.conj())
    if form is None:
        if self_dual_dim != 0:
            raise InternalInconsistencyError(
                "no invariant form but the representation is self-dual"
            )
        form_kind = RepKind.COMPLEX
    else:
        if self_dual_dim != 1:
            raise InternalInconsistencyError(
                "invariant form exists but dual-intertwiner dimension is not 1"
            )
        _, sign = structure_map(rep, form, tol)
        expected_sign = 1 if form.symmetric else -1
        if sign != expected_sign:
            raise InternalInconsistencyError(
                "form symmetry and structure-map sign disagree"
            )
        form_kind = SIGN_KIND[sign]

    if fs_kind is not form_kind:
        raise InternalInconsistencyError(
            f"indicator route says {fs_kind}, form route says {form_kind}"
        )
    return fs_kind


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
        if not all(isinstance(row, list) for row in level):
            raise ParseError(f"{what} must be nested lists of shape {shape}")
        if any(len(row) != n for row in level):
            raise ValidationError(f"{what}: expected shape {shape}")
        level = [x for row in level for x in row]
    types = (int,) if integer else (int, float)
    if not all(type(x) in types for x in level):
        raise ParseError(f"{what} entries must be {'integers' if integer else 'numbers'}")
    try:
        return np.array(level, dtype=int if integer else float).reshape(shape)
    except OverflowError as exc:
        raise ValidationError(f"{what} has an entry out of range") from exc


def load_rep_file(path):
    """Read a JSON representation file.

    Schema: ``{"order": n, "mult": [[...]], "reps": [{"name": str,
    "dim": d, "matrices": [[[[re, im], ...]]]}]}`` with matrices listed in
    element order.  Returns ``(group, [(name, rep), ...])``.  Malformed JSON
    or a value of the wrong type raises ParseError (with position for
    JSON); a wrong shape, a bad table or a non-representation raises
    ValidationError; an order above MAX_ORDER raises PreconditionError
    before any array is built.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
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
            f"group order {order} is above the largest supported order {MAX_ORDER}"
        )
    table = _json_array(doc["mult"], (order, order), "mult", integer=True)
    group = FiniteGroup(table, name=str(doc.get("name", "")))
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
        name, d = str(entry["name"]), entry["dim"]
        if type(d) is not int or d < 1:
            raise ParseError(f"representation {name!r}: dim must be a positive integer")
        raw = _json_array(entry["matrices"], (order, d, d, 2), f"representation {name!r} matrices")
        reps.append((name, FiniteGroupRep(group, raw[..., 0] + 1j * raw[..., 1])))
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
                "matrices": [
                    [
                        [[float(z.real), float(z.imag)] for z in row]
                        for row in rep.matrices[g]
                    ]
                    for g in range(group.order)
                ],
            }
            for rep_name, rep in named_reps
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")

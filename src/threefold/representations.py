"""Finite group representations and their real/complex/quaternionic kind.

An irreducible unitary representation is classified two independent ways:

* the Frobenius-Schur indicator ``(1/|G|) sum_g tr rho(g^2)``, which lands
  on +1, 0 or -1, and
* the invariant bilinear form obtained by group-averaging elementary seed
  forms; when a nonzero form survives it is purely symmetric or purely
  antisymmetric, and the antilinear structure map J it induces through
  ``g(v, w) = <J v, w>`` squares (after rescaling) to +1 or -1.

``classify`` runs both routes and insists they agree.  Representation
files (JSON) round-trip through :func:`load_rep_file` / :func:`dump_rep_file`.
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
        identity = None
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
                identity = e
                break
        if identity is None:
            raise ValidationError("no identity element")
        inverse = np.full(n, -1)
        for g in range(n):
            hits = np.where(table[g] == identity)[0]
            if len(hits) != 1 or table[hits[0], g] != identity:
                raise ValidationError(f"element {g} has no two-sided inverse")
            inverse[g] = hits[0]
        # associativity: (g h) k == g (h k) for all triples
        if not np.array_equal(table[table, :], table[:, table]):
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

    def mul(self, g, h):
        return int(self.table[g, h])

    def inv(self, g):
        return int(self.inverse[g])

    def squares(self):
        """Index array g -> g*g."""
        n = self.order
        return self.table[np.arange(n), np.arange(n)]


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
        for g in range(group.order):
            u = matrices[g]
            if not np.allclose(u.conj().T @ u, eye, rtol=0.0, atol=_HOM_TOL):
                raise ValidationError(f"matrix for element {g} is not unitary")
        prod = np.einsum("gij,hjk->ghik", matrices, matrices)
        if not np.allclose(prod, matrices[group.table], rtol=0.0, atol=_HOM_TOL):
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

    def matrix(self, g):
        return self.matrices[g]


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


def fs_indicator_finite(rep):
    """Frobenius-Schur indicator (1/|G|) sum_g tr rho(g^2).

    +1, 0, -1 for real, complex, quaternionic irreducibles.  The mean is a
    numpy pairwise sum, so the result does not depend on element order
    beyond 1e-12.
    """
    traces = np.trace(rep.matrices[rep.group.squares()], axis1=1, axis2=2)
    value = np.mean(traces)
    return float(value.real)


def _solution_space_dim(blocks, tol=1e-8):
    stacked = np.concatenate(blocks, axis=0)
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return stacked.shape[1]
    return int(np.sum(sv <= tol * sv[0]))


def commutant_dimension(rep, tol=1e-8):
    """Complex dimension of {T : T rho(g) = rho(g) T for all g}; 1 iff irreducible."""
    d = rep.dim
    eye = np.eye(d)
    blocks = [
        np.kron(rep.matrices[g], eye) - np.kron(eye, rep.matrices[g].T)
        for g in range(rep.group.order)
    ]
    return _solution_space_dim(blocks, tol)


def intertwiner_dimension(rep_a, rep_b, tol=1e-8):
    """Complex dimension of {T : T rho_a(g) = rho_b(g) T for all g}."""
    if rep_a.group is not rep_b.group and not np.array_equal(
        rep_a.group.table, rep_b.group.table
    ):
        raise PreconditionError("representations of different groups")
    da, db = rep_a.dim, rep_b.dim
    blocks = [
        np.kron(np.eye(db), rep_a.matrices[g].T) - np.kron(rep_b.matrices[g], np.eye(da))
        for g in range(rep_a.group.order)
    ]
    return _solution_space_dim(blocks, tol)


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
    self_dual_dim = intertwiner_dimension(rep, dual_rep(rep))
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

def load_rep_file(path):
    """Read a JSON representation file.

    Schema: ``{"order": n, "mult": [[...]], "reps": [{"name": str,
    "dim": d, "matrices": [[[[re, im], ...]]]}]}`` with matrices listed in
    element order.  Returns ``(group, [(name, rep), ...])``.  Malformed JSON
    raises ParseError with position; a bad table or non-representation
    raises ValidationError.
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
    mult = doc["mult"]
    if not isinstance(order, int) or not isinstance(mult, list):
        raise ParseError("order must be an integer and mult a table")
    if len(mult) != order:
        raise ValidationError(f"mult table has {len(mult)} rows, order is {order}")
    group = FiniteGroup(np.array(mult, dtype=int), name=str(doc.get("name", "")))
    reps = []
    for entry in doc.get("reps", []):
        for key in ("name", "dim", "matrices"):
            if key not in entry:
                raise ParseError(f"representation entry missing key {key!r}")
        d = entry["dim"]
        raw = np.array(entry["matrices"], dtype=float)
        if raw.shape != (order, d, d, 2):
            raise ValidationError(
                f"representation {entry['name']!r}: expected shape "
                f"{(order, d, d, 2)}, got {raw.shape}"
            )
        matrices = raw[..., 0] + 1j * raw[..., 1]
        reps.append((str(entry["name"]), FiniteGroupRep(group, matrices)))
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

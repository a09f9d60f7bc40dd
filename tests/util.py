"""Shared random generators, reference constructions and comparisons for the test suite."""

import argparse
from functools import reduce
from itertools import combinations
from math import comb

import numpy as np
from numpy.random import default_rng

from threefold.cli import (
    cmd_classify,
    cmd_functors,
    cmd_jordan,
    cmd_spectrum,
    cmd_su2,
    cmd_tensor_table,
)
from threefold.hilbert import (
    KMatrix, KVector, _complex_coeffs, _property_defects, inner, scalar_from_coeffs, scalar_to_coeffs,
)
from threefold.jordan import (
    JordanElement,
    check_jordan_identity,
    cone_margin,
    dual_cone_margin,
    from_coords,
    is_positive,
    jordan_product,
    max_ignorance,
    parse_kind,
    random_element,
    random_positive,
    state_eval,
    trace,
    trace_inner,
    unit,
)
from threefold.representations import _FORM_TOL, FiniteGroup, FiniteGroupRep, average_bilinear
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, Quaternion, _norms, mul_table
from threefold.structures import AntilinearMap
from threefold.su2 import invariant_form_spin, su2_spin_rep


def naive_kproduct(a, b, table):
    """sum_j a[i, j] b[j, k] with entry products read straight off the structure table.

    The three-operand einsum costs n m p d^3 and never reaches BLAS; it is
    the oracle for the kernel in threefold.hilbert.
    """
    return np.einsum("ija,jkb,abc->ikc", a, b, table)


# gram_schmidt's linear-dependence test: relative to the largest input norm
_RANK_TOL = 1e-10


def gram_schmidt(vectors):
    """Orthonormalize with scalar coefficients on the right: an oracle for frames.

    Modified Gram-Schmidt with one reorthogonalization pass.  Raises
    ValueError when the input is linearly dependent to _RANK_TOL.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    scale = max(v.norm() for v in vectors)
    if scale == 0.0:
        raise ValueError("zero input")
    out = []
    for v in vectors:
        e = v
        for _ in range(2):
            for u in out:
                e = e - u.times(inner(u, e))
        r = e.norm()
        if r < _RANK_TOL * scale:
            raise ValueError("linearly dependent input")
        out.append(e.times(1.0 / r))
    return out


def kvector(system, scalars):
    """The K-vector with the given entries (floats, complex numbers or Quaternions)."""
    return KVector(system, [scalar_to_coeffs(system, x) for x in scalars])


def identity(system, n):
    """The n x n identity K-matrix."""
    coeffs = np.zeros((n, n, system.dim))
    coeffs[np.arange(n), np.arange(n), 0] = 1.0
    return KMatrix(system, coeffs)


def zeros(system, *shape):
    """The zero K-vector of length n, ``zeros(system, n)``, or K-matrix, ``zeros(system, rows, cols)``."""
    return (KVector if len(shape) == 1 else KMatrix)(system, np.zeros((*shape, system.dim)))


def is_close(a, b, tol=None):
    """The tests' closeness of two K-matrices, K-vectors, scalars or Jordan elements.

    K-matrices and K-vectors: absolute per real coefficient, default 1e-10,
    and never across systems or shapes.  Quaternions and octonions: absolute
    per coefficient, default 1e-12; a number ``b`` is read in ``a``'s
    algebra.  Jordan elements: the norm of the difference, default 1e-10.
    """
    if isinstance(a, JordanElement):
        return (a - b).norm() <= (1e-10 if tol is None else tol)
    if isinstance(a, (KMatrix, KVector)):
        if a.system != b.system or a.coeffs.shape != b.coeffs.shape:
            return False
        tol = 1e-10 if tol is None else tol
    else:
        if isinstance(b, (int, float, complex)):
            b = type(a)(b.real, b.imag)
        if not isinstance(b, type(a)):
            return False
        tol = 1e-12 if tol is None else tol
    return bool(np.allclose(a.coeffs, b.coeffs, rtol=0.0, atol=tol))


def is_unitary_within(t, tol):
    """hilbert's unitary rule with relative factor ``tol``: |T*T - 1|_F <= tol sqrt(n).

    ``t`` is a K-matrix, or an AntilinearMap, which is antiunitary when its
    matrix is unitary.
    """
    coeffs = _complex_coeffs(t.matrix) if isinstance(t, AntilinearMap) else t.coeffs
    defect, bound = _property_defects(coeffs, "unitary", tol)
    return bool(defect <= bound)


def random_kvector(system, n, rng):
    return KVector(system, rng.standard_normal((n, system.dim)))


def random_kmatrix(system, rows, cols, rng):
    return KMatrix(system, rng.standard_normal((rows, cols, system.dim)))


def random_scalar(system, rng):
    return scalar_from_coeffs(system, rng.standard_normal(system.dim))


def random_self_adjoint(system, n, rng):
    x = random_kmatrix(system, n, n, rng)
    return x + x.adjoint()


def random_skew_adjoint(system, n, rng):
    x = random_kmatrix(system, n, n, rng)
    return x - x.adjoint()


def random_unitary_complex(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_quaternion(rng):
    """A Haar-random element of SU(2) as a unit quaternion."""
    v = rng.standard_normal(4)
    return Quaternion.from_array(v / np.linalg.norm(v))


def expectation_flips(jmap, a, v):
    """<Jv, A Jv> + <v, A v> for each column v of ``v``."""
    jv = jmap(v)
    return np.sum(jv.conj() * (a @ jv) + v.conj() * (a @ v), axis=0)


def sampled_expectation_flip(jmap, a, seed=0, trials=20):
    """max |<Jv, A Jv> + <v, A v>| over ``trials`` seeded unit vectors v.

    A lower bound on the supremum over all unit states that
    threefold.su2.time_reversal_check reports.  Column k of v is trial k,
    its real part drawn before its imaginary part.
    """
    draws = default_rng(seed).standard_normal((trials, 2, len(a)))
    v = (draws[:, 0] + 1j * draws[:, 1]).T
    v /= np.linalg.norm(v, axis=0)
    return float(np.abs(expectation_flips(jmap, a, v)).max())


def polarized_flip_form(jmap, a):
    """The Hermitian B with <v, B v> = <Jv, A Jv> + <v, A v>, read off the flips by polarization.

    B_kl = (q(1) - q(-1) - i q(i) + i q(-i)) / 4, with q(c) the flip of e_k + c e_l.
    """
    d = len(a)
    eye = np.eye(d)

    def q(c):
        # column k d + l is e_k + c e_l
        v = (eye[:, :, None] + c * eye[:, None, :]).reshape(d, d * d)
        return expectation_flips(jmap, a, v).reshape(d, d)

    return (q(1) - q(-1) - 1j * (q(1j) - q(-1j))) / 4


def sampled_spin_defects(classification, seed=0, samples=8):
    """Largest ||u^T g u - g||_F and ||J u - u J||_F over seeded Haar-random spin matrices u.

    g is invariant_form_spin and J the structure map of ``classification``,
    a classify_spin result.  The oracle for classify_spin's checks on the
    su(2) generators: SU(2) is connected, so forms and maps that pass there
    hold on every group element.
    """
    j = classification.j
    rng = default_rng(seed)
    sampled = su2_spin_rep(j, [random_unit_quaternion(rng) for _ in range(samples)])
    form = invariant_form_spin(j)
    invariance = np.linalg.norm(sampled.swapaxes(1, 2) @ form @ sampled - form, axis=(1, 2))
    return float(invariance.max()), float(classification.structure.commutation_defect(sampled).max())


def form_invariance_defects(form, generators):
    """||J_k^T g + g J_k||_F per generator J_k of a (k, d, d) stack: g's invariance under su(2).

    The oracle for the invariance that structure_map_from_form reads off J's
    commutation with the i J_k: both vanish together, and for
    J = conj(g)^T / sqrt|c| the one is sqrt|c| times the other.
    """
    return np.array([np.linalg.norm(gen.T @ form + form @ gen) for gen in generators])


def j_square_scalar_defect(form):
    """``(|J_raw^2 - c 1|_F, c)`` with c = tr(J_raw^2) / d, for the J_raw of a form g.

    J_raw v = conj(g)^T conj(v) is the antilinear map with g(v, w) = <J_raw v, w>,
    before any rescaling; its square is built column by column, J_raw applied
    twice to each basis vector.  The oracle for the scalar check that
    structure_map_from_form's J^2 = +-1 check implies: on every form it
    accepts this is within 1e-9 max(1, |c|) d.
    """
    form = np.asarray(form, dtype=complex)
    d = len(form)

    def raw(v):
        return form.conj().T @ np.conj(v)

    square = np.column_stack([raw(raw(e)) for e in np.eye(d)])
    c = np.trace(square) / d
    return float(np.linalg.norm(square - c * np.eye(d))), c


# ---------------------------------------------------------------------------
# spin j as the symmetric part of the 2j-th tensor power of C^2: the oracle
# for the |j, m> construction in threefold.su2 (cost 2^(2j), so small j only)
# ---------------------------------------------------------------------------

_EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symmetric_basis(n):
    """Orthonormal basis of the symmetric subspace of (C^2)^(x n).

    Column k spreads the monomial with k factors of e2 over its C(n, k)
    arrangements; shape (2^n, n+1), real entries.  The first tensor factor
    is the most significant index (numpy kron convention).
    """
    b = np.zeros((2**n, n + 1))
    if n == 0:
        b[0, 0] = 1.0
        return b
    for k in range(n + 1):
        weight = 1.0 / np.sqrt(comb(n, k))
        for positions in combinations(range(n), k):
            index = sum(1 << (n - 1 - p) for p in positions)
            b[index, k] = weight
    return b


def tensor_power(u, n):
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    return reduce(np.kron, [u] * n)


def tensor_spin_matrix(u, twice_j):
    """Spin-j matrix of a 2x2 matrix, compressed from its 2j-th tensor power."""
    b = symmetric_basis(twice_j)
    return b.T @ tensor_power(np.asarray(u, dtype=complex), twice_j) @ b


def tensor_invariant_form(twice_j):
    """The 2x2 SL(2)-invariant form [[0,1],[-1,0]] raised to spin j."""
    b = symmetric_basis(twice_j)
    return b.T @ tensor_power(_EPSILON, twice_j) @ b


def tensor_angular_momentum_z(twice_j):
    """J_z = -i dD(i s3 / 2) as the Leibniz sum of s3 / 2 over the tensor factors."""
    n = twice_j
    b = symmetric_basis(n)
    if n == 0:
        return np.zeros((1, 1), dtype=complex)
    x = 0.5j * np.diag([1.0, -1.0])
    total = np.zeros((2**n, 2**n), dtype=complex)
    for pos in range(n):
        factors = [np.eye(2, dtype=complex)] * n
        factors[pos] = x
        total += reduce(np.kron, factors)
    return -1j * (b.T @ total @ b)


# ---------------------------------------------------------------------------
# finite groups: the intertwiner space solved as a linear system, the oracle
# for the character sums in threefold.representations; the homomorphism
# defect one g at a time, the oracle for the blocked check; (g h) k == g (h k)
# one g at a time, the oracle for Light's test on generators; the seed
# average as one einsum, the oracle for average_bilinear, and the loop over
# elementary seeds, the oracle for invariant_bilinear_form's blocks; the
# dual, direct sum and change of basis that build test reps from known ones;
# and the binary icosahedral, dicyclic and Frobenius groups as corpora
# beyond the shipped fixtures
# ---------------------------------------------------------------------------

def associative_by_loop(table):
    """(g h) k == g (h k) for every g, h, k, one g at a time in O(|G|^2) memory."""
    table = np.asarray(table)
    return all(np.array_equal(table[table[g]], table[g][table]) for g in range(len(table)))


def homomorphism_defects(group, matrices):
    """max_h |rho(g) rho(h) - rho(g h)| (largest entry), one g at a time.

    Returns one value per g.  Each g is one (d, d) @ (d, |G| d) matmul
    against all rho(h) side by side.
    """
    matrices = np.asarray(matrices, dtype=complex)
    n, d = matrices.shape[:2]
    row = matrices.transpose(1, 0, 2).reshape(d, n * d)
    out = np.empty(n)
    for g in range(n):
        products = (matrices[g] @ row).reshape(d, n, d).transpose(1, 0, 2)
        out[g] = np.abs(products - matrices[group.table[g]]).max()
    return out


def einsum_average_bilinear(rep, seed):
    """(1/|G|) sum_g rho(g)^T seed rho(g) as one three-operand einsum."""
    seed = np.asarray(seed, dtype=complex)
    return np.einsum("gji,jk,gkl->gil", rep.matrices, seed, rep.matrices).mean(axis=0)


def elementary_seeds(d):
    """The d^2 elementary matrices E_ij in row-major order."""
    for i in range(d):
        for j in range(d):
            seed = np.zeros((d, d))
            seed[i, j] = 1.0
            yield seed


def seed_loop_form(rep):
    """``(index, average)`` of the first elementary seed whose average survives, else None.

    One average_bilinear call per seed, in row-major order, and the same
    survival test: the oracle for the blocked products of
    invariant_bilinear_form.
    """
    for index, seed in enumerate(elementary_seeds(rep.dim)):
        average = average_bilinear(rep, seed)
        if _norms(average) > _FORM_TOL:
            return index, average
    return None


def dual_rep(rep):
    """The dual representation; for unitary matrices this is entrywise conjugation."""
    return FiniteGroupRep(rep.group, np.conj(rep.matrices))


def direct_sum(rep_a, rep_b):
    """rho_a + rho_b, block diagonal."""
    da, db = rep_a.dim, rep_b.dim
    out = np.zeros((rep_a.group.order, da + db, da + db), dtype=complex)
    out[:, :da, :da] = rep_a.matrices
    out[:, da:, da:] = rep_b.matrices
    return FiniteGroupRep(rep_a.group, out)


def conjugate_rep(rep, u):
    """Equivalent representation u rho u^-1 for a unitary u."""
    u = np.asarray(u, dtype=complex)
    return FiniteGroupRep(rep.group, np.einsum("ij,gjk,kl->gil", u, rep.matrices, u.conj().T))


def solution_space_dimension(rep_a, rep_b, tol=1e-8):
    """dim {T : T rho_a(g) = rho_b(g) T for all g}, by SVD of the stacked conditions.

    Row-major vec(T) turns each condition into the d_a d_b x d_a d_b block
    kron(1, rho_a(g)^T) - kron(rho_b(g), 1); the dimension is the number
    of singular values of the |G| blocks stacked that are at most ``tol``
    times the largest.  Cost O(|G| d^6).  With rep_b = rep_a this is the
    commutant.
    """
    da, db = rep_a.dim, rep_b.dim
    blocks = [
        np.kron(np.eye(db), rep_a.matrices[g].T) - np.kron(rep_b.matrices[g], np.eye(da))
        for g in range(rep_a.group.order)
    ]
    sv = np.linalg.svd(np.concatenate(blocks, axis=0), compute_uv=False)
    if sv[0] == 0.0:
        return da * db
    return int(np.sum(sv <= tol * sv[0]))


def binary_icosahedral():
    """2I: the 120 unit quaternions generated by (1+i+j+k)/2 and (1 + phi i + j/phi)/2.

    Closes the two generators under the Quaternion product, keying each
    element by its coefficients rounded to 9 places (every coefficient is
    0, +-1/2, +-1, +-phi/2 or +-1/(2 phi)).  Returns ``(group, elements)``
    with ``elements[g]`` the quaternion of element g; element 0 is 1.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    generators = [Quaternion(0.5, 0.5, 0.5, 0.5), Quaternion(0.5, phi / 2.0, 0.5 / phi)]

    def key(q):
        return tuple(np.round(q.coeffs, 9))

    elements = [Quaternion(1.0)]
    index = {key(elements[0]): 0}
    for p in elements:  # grows while it is walked: a breadth-first closure
        for s in generators:
            q = p * s
            if key(q) not in index:
                index[key(q)] = len(elements)
                elements.append(q)
    table = np.array([[index[key(p * q)] for q in elements] for p in elements])
    return FiniteGroup(table, name="2I"), elements


def dicyclic(n):
    """Dic_n = <a, x | a^(2n) = 1, x^2 = a^n, x a x^-1 = a^-1> (order 4n) and its 2-dim irreps.

    Element k + 2n e stands for a^k x^e.  Returns ``(group, reps)`` with
    ``reps[m - 1]`` the irrep a -> diag(z^m, z^-m), x -> [[0, (-1)^m], [1, 0]]
    for z = exp(i pi / n) and m = 1, ..., n - 1: quaternionic for odd m, real
    for even m.
    """
    g = np.arange(4 * n)
    k, e = g % (2 * n), g // (2 * n)
    power = k[:, None] + np.where(e[:, None] == 0, k, -k) + n * (e[:, None] & e)
    group = FiniteGroup(power % (2 * n) + 2 * n * (e[:, None] ^ e), name=f"dic{n}")
    reps = []
    for m in range(1, n):
        a_k = np.zeros((4 * n, 2, 2), dtype=complex)
        a_k[:, 0, 0] = np.exp(1j * np.pi * m * k / n)
        a_k[:, 1, 1] = a_k[:, 0, 0].conj()
        x = np.array([[0.0, (-1.0) ** m], [1.0, 0.0]])
        reps.append(FiniteGroupRep(group, np.where(e[:, None, None] == 1, a_k @ x, a_k)))
    return group, reps


def frobenius_group(p, q):
    """F(p, q) = Z_p x| Z_q (p prime, q | p - 1) and its q-dim irreps induced from Z_p's characters.

    y x y^-1 = x^r for r = s^((p - 1)/q), s the least primitive root mod p,
    so r has order q.  Element a + p b stands for x^a y^b, and
    (x^a y^b)(x^c y^e) = x^(a + r^b c) y^(b + e).  The character
    psi_k(x) = z^k (z = exp(2 pi i / p)) induces rho(x^a y^b) = D^a P^b with
    D = diag(z^(k r^m)) and P e_m = e_(m-1), m mod q; each orbit k <r> of
    Z_p^x gives one irrep, (p - 1)/q in all (Serre, Linear Representations of
    Finite Groups, 8.2).  Its dual is induced from psi_-k, so it is complex
    exactly when -1 is not in <r>, that is when q is odd; for even q,
    sum_m E_(m, m + q/2) is a symmetric invariant form and it is real.
    Returns ``(group, reps)``, reps in increasing order of their least k.
    """
    s = next(s for s in range(2, p) if len({pow(s, e, p) for e in range(1, p)}) == p - 1)
    powers = np.array([pow(s, (p - 1) // q * m, p) for m in range(q)])
    g = np.arange(p * q)
    a, b = g % p, g // p
    group = FiniteGroup((a[:, None] + powers[b][:, None] * a) % p + p * ((b[:, None] + b) % q),
                        name=f"F({p},{q})")
    seen, reps, m = set(), [], np.arange(q)
    for k in range(1, p):
        if k in seen:
            continue
        seen.update(k * powers % p)
        # entry (m, m + b) of D^a P^b is z^(k r^m a)
        matrices = np.zeros((p * q, q, q), dtype=complex)
        exponents = k * powers * a[:, None] % p
        matrices[g[:, None], m, (m + b[:, None]) % q] = np.exp(2j * np.pi * exponents / p)
        reps.append(FiniteGroupRep(group, matrices))
    return group, reps


# ---------------------------------------------------------------------------
# Jordan coordinates read back from an element, the inverse of from_coords;
# and the jordan verb one sample at a time: the oracle for the stacked suite
# in threefold.cli, which must give the same items bit for bit
# ---------------------------------------------------------------------------

def coords(a):
    """Real coordinates: diagonal entries, then upper-triangle coefficient blocks."""
    if a.kind.family == "spin":
        return np.array(a.data)
    n = a.kind.n
    rows, cols = np.triu_indices(n, 1)
    upper = a.data[..., rows, cols, :].reshape(*a.data.shape[:-3], -1)
    return np.concatenate([a.data[..., np.arange(n), np.arange(n), 0], upper], axis=-1)


def coordinate_basis(kind):
    """The elements whose coordinates are the standard basis vectors."""
    return [from_coords(kind, row) for row in np.eye(kind.dim)]


def _unit_sample(kind, rng):
    v = rng.standard_normal(kind.dim)
    return from_coords(kind, v / np.linalg.norm(v))


def jordan_suite_loop(args):
    """The jordan verb's items for ``args`` (algebra, seed, samples), per sample."""
    kind = parse_kind(args.algebra)
    rng = default_rng(args.seed)
    samples = args.samples
    items = []

    identity_max = 0.0
    power_max = 0.0
    reality_min = np.inf
    symmetry_max = 0.0
    for _ in range(samples):
        a = _unit_sample(kind, rng)
        b = _unit_sample(kind, rng)
        identity_max = max(identity_max, check_jordan_identity(a, b))
        sq = jordan_product(a, a)
        power = (jordan_product(sq, sq) - jordan_product(a, jordan_product(a, sq))).norm()
        power_max = max(power_max, power)
        reality_min = min(reality_min, trace(sq))
        # <b, a> by the pairing sum b.data a.data, twice that on spin factors
        swapped = (2.0 if kind.family == "spin" else 1.0) * (b.data.reshape(-1) @ a.data.reshape(-1))
        symmetry_max = max(symmetry_max, abs(trace_inner(a, b) - swapped))
    items.append({"label": "jordan_identity_max", "value": identity_max, "pass": identity_max <= 1e-9})
    items.append({"label": "power_associativity_max", "value": power_max, "pass": power_max <= 1e-10})
    items.append({"label": "formal_reality_min", "value": reality_min, "pass": reality_min > 0.0})
    items.append({"label": "trace_symmetry_max", "value": symmetry_max, "pass": symmetry_max <= 1e-12})

    one = unit(kind)
    ed = trace(one)
    items.append({"label": "unit_trace", "value": ed, "pass": ed == float(kind.rank)})

    rho = max_ignorance(kind)
    eval_max = 0.0
    for _ in range(min(samples, 25)):
        a = _unit_sample(kind, rng)
        eval_max = max(eval_max, abs(state_eval(rho, a) - trace(a) / ed))
    items.append({"label": "max_ignorance_eval_max", "value": eval_max, "pass": eval_max <= 1e-12})

    supports_margin = not (kind.family == "hermitian" and kind.scalar_dim == 8)
    if supports_margin:
        squares_ok = True
        for _ in range(min(samples, 50)):
            a = _unit_sample(kind, rng)
            squares_ok = squares_ok and cone_margin(jordan_product(a, a)) >= -1e-9
        items.append({"label": "squares_in_cone", "value": float(squares_ok), "pass": squares_ok})
        margin = dual_cone_margin(random_positive(kind, rng), min(samples, 100), default_rng(args.seed + 1))
        items.append({"label": "dual_cone_margin", "value": margin, "pass": margin > 0.0})
    if kind.family == "spin":
        agree = True
        for _ in range(min(samples, 50)):
            a = random_element(kind, rng)
            direct = a.t > 0.0 and a.t * a.t - float(a.x @ a.x) > 0.0
            agree = agree and (is_positive(a, tol=0.0) == direct)
        items.append({"label": "lightcone_agreement", "value": float(agree), "pass": agree})
    if kind.label == "hC:2":
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 0] = 0.5
        dev = float(np.abs(rho.element.data - expected).max())
        items.append({"label": "max_ignorance_is_half_identity", "value": dev, "pass": dev == 0.0})

    return items


# ---------------------------------------------------------------------------
# the six conversions written out by hand with strided slices: the oracle for
# the block tables that drive push, push_vector, pull and the structure maps
# in threefold.structures.  Keyed by conversion label; each class takes n and
# has push, push_vector, pull (the first block column, with no image test)
# and maps (the structure maps, J and then K).
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


def _quat_join(z1, z2):
    return np.stack([z1.real, z1.imag, z2.real, -z2.imag], axis=-1)


def slice_complex_adjunct(coeffs):
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


def _epsilon_blocks(n):
    """Block-diagonal [[0,-1],[1,0]] of total size 2n."""
    return np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))


def _diag_unit(n, unit_index):
    coeffs = np.zeros((n, n, 4))
    idx = np.arange(n)
    coeffs[idx, idx, unit_index] = 1.0
    return KMatrix(QUATERNIONS, coeffs)


def _right_mult_matrix(unit_index):
    """Real matrix of x -> x e_u on the quaternion coefficient basis."""
    return mul_table(4)[:, unit_index, :].T


class _HandComplexification:
    def __init__(self, n):
        self.n = n

    def maps(self):
        return [AntilinearMap(np.eye(self.n))]

    def push_vector(self, v):
        return kvector(COMPLEXES, [complex(x, 0.0) for x in v.coeffs[:, 0]])

    def push(self, t):
        return KMatrix.from_complex(t.to_real().astype(complex))

    def pull(self, t):
        return KMatrix.from_real(t.coeffs[:, :, 0])


class _HandRealificationOfComplex:
    def __init__(self, n):
        self.n = n

    def maps(self):
        return [KMatrix.from_real(_epsilon_blocks(self.n))]

    def push_vector(self, v):
        out = np.zeros(2 * self.n)
        out[0::2] = v.coeffs[:, 0]
        out[1::2] = v.coeffs[:, 1]
        return KVector(REALS, out[:, None])

    def push(self, t):
        return KMatrix.from_real(_complex_to_real_blocks(t.to_complex()))

    def pull(self, t):
        arr = t.to_real()
        return KMatrix.from_complex(arr[0::2, 0::2] + 1j * arr[1::2, 0::2])


class _HandComplexFormOfQuaternionic:
    def __init__(self, n):
        self.n = n

    def maps(self):
        return [AntilinearMap(_epsilon_blocks(self.n))]

    def push_vector(self, v):
        z1, z2 = _quat_split(v.coeffs)
        out = np.zeros(2 * self.n, dtype=complex)
        out[0::2] = z1
        out[1::2] = z2
        return KVector(COMPLEXES, np.stack([out.real, out.imag], axis=-1))

    def push(self, t):
        return KMatrix.from_complex(slice_complex_adjunct(t.coeffs))

    def pull(self, t):
        arr = t.to_complex()
        return KMatrix(QUATERNIONS, _quat_join(arr[0::2, 0::2], arr[1::2, 0::2]))


class _HandQuaternificationOfComplex:
    def __init__(self, n):
        self.n = n

    def maps(self):
        return [_diag_unit(self.n, 1)]

    def push_vector(self, v):
        coeffs = np.zeros((self.n, 4))
        coeffs[:, :2] = v.coeffs
        return KVector(QUATERNIONS, coeffs)

    def push(self, t):
        coeffs = np.zeros((t.rows, t.cols, 4))
        coeffs[:, :, :2] = t.coeffs
        return KMatrix(QUATERNIONS, coeffs)

    def pull(self, t):
        return KMatrix(COMPLEXES, t.coeffs[:, :, :2])


class _HandRealificationOfQuaternionic:
    def __init__(self, n):
        self.n = n

    def maps(self):
        return [KMatrix.from_real(np.kron(np.eye(self.n), _right_mult_matrix(u))) for u in (2, 3)]

    def push_vector(self, v):
        return KVector(REALS, v.coeffs.reshape(-1)[:, None])

    def push(self, t):
        blocks = np.einsum("ija,abc->icjb", t.coeffs, mul_table(4))
        return KMatrix.from_real(blocks.reshape(4 * t.rows, 4 * t.cols))

    def pull(self, t):
        blocks = t.to_real().reshape(self.n, 4, self.n, 4)
        return KMatrix(QUATERNIONS, np.einsum("icjb,abc->ija", blocks, mul_table(4)) / 4.0)


class _HandQuaternificationOfReal:
    def __init__(self, n):
        self.n = n

    def maps(self):
        return [_diag_unit(self.n, 2), _diag_unit(self.n, 3)]

    def push_vector(self, v):
        coeffs = np.zeros((self.n, 4))
        coeffs[:, 0] = v.coeffs[:, 0]
        return KVector(QUATERNIONS, coeffs)

    def push(self, t):
        coeffs = np.zeros((t.rows, t.cols, 4))
        coeffs[:, :, 0] = t.coeffs[:, :, 0]
        return KMatrix(QUATERNIONS, coeffs)

    def pull(self, t):
        return KMatrix.from_real(t.coeffs[:, :, 0])


HAND_LAYOUTS = {
    "real_as_complex": _HandComplexification,
    "complex_as_real": _HandRealificationOfComplex,
    "quaternionic_as_complex": _HandComplexFormOfQuaternionic,
    "complex_as_quaternionic": _HandQuaternificationOfComplex,
    "quaternionic_as_real": _HandRealificationOfQuaternionic,
    "real_as_quaternionic": _HandQuaternificationOfReal,
}


def dense_structure_defect(conversion, pushed):
    """max ||J T - T J|| over the structure maps, with J as a dense matrix."""
    defects = []
    for m in [conversion.j, conversion.k] if hasattr(conversion, "k") else [conversion.j]:
        if isinstance(m, AntilinearMap):
            defects.append(float(m.commutation_defect(pushed.to_complex())))
        else:
            defects.append((m @ pushed - pushed @ m).norm())
    return max(defects)


# ---------------------------------------------------------------------------
# the extra structure of a complex space made visible: the real form fixed by
# a J with J^2 = +1, and the quaternion action (i, J, K) of a J with J^2 = -1
# ---------------------------------------------------------------------------

# real_form_basis: absolute on the singular values of J - 1 as a real
# 2n x 2n matrix (J is antiunitary, so their scale is at most 2)
_FIXED_POINT_TOL = 1e-9


def real_form_basis(j):
    """Orthonormal basis of the fixed-point set {x : Jx = x} of a real structure.

    The fixed points form a real-linear subspace of C^n of real dimension n;
    returned as the columns of an (n, n) complex array, orthonormal for the
    real part of the inner product.  Singular values of J - 1 below
    _FIXED_POINT_TOL count as zero.
    """
    p, q, n = j.matrix.real, j.matrix.imag, j.n
    _, s, vt = np.linalg.svd(np.block([[p, q], [q, -p]]) - np.eye(2 * n))
    null = vt[s < _FIXED_POINT_TOL].T
    return null[:n, :] + 1j * null[n:, :]


def left_multiplication_triple(j):
    """From an antilinear J with J^2 = -1 build the quaternion action (I, J, K = I o J) on C^n.

    Returns ``(i_mat, j_map, k_map)`` where ``i_mat`` is the linear matrix of
    multiplication by i and ``j_map``, ``k_map`` are antilinear; together they
    satisfy the quaternion relations I^2 = J^2 = K^2 = -1, IJ = K = -JI,
    JK = I, KI = J (composition order: XY means apply Y first).
    """
    i_mat = 1j * np.eye(j.n)
    return i_mat, j, j.before_linear(i_mat)


# ---------------------------------------------------------------------------
# the command line as an argparse parser with one subparser per verb: the
# oracle for the table-driven parser in threefold.cli, which must accept the
# same argvs with the same values and refuse the same argvs
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="threefold",
        description="Classification suites for real, complex and quaternionic structure.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    # accepted after the subcommand too; SUPPRESS keeps the subparser from
    # clobbering a value already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("classify", help="classify representations from a group file")
    p.add_argument("file", help="JSON file with a multiplication table and representations")
    p.set_defaults(func=cmd_classify)

    p = add_parser("su2", help="spin-j indicator and time-reversal table, both defects held to 0")
    p.add_argument("--j", type=float, default=None, help="a single spin")
    p.add_argument("--max-j", type=float, default=5.0, help="run j = 0, 1/2, ..., max-j")
    p.set_defaults(func=cmd_su2)

    p = add_parser("jordan", help="Jordan algebra law/state suite")
    p.add_argument("--algebra", required=True, help="hR:n, hC:n, hH:n, hO:3 or spin:n")
    p.add_argument("--samples", type=int, default=100, help="random sample count")
    p.set_defaults(func=cmd_jordan)

    p = add_parser("tensor-table", help="kind multiplication table with verified signs")
    p.set_defaults(func=cmd_tensor_table)

    p = add_parser("functors", help="scalar-conversion functor laws")
    p.add_argument("--dim", type=int, default=3, help="source dimension")
    p.add_argument("--tol", type=float, default=1e-8, help="bound on each defect")
    p.set_defaults(func=cmd_functors)

    p = add_parser("spectrum", help="spectrum symmetry on random generators")
    p.add_argument("--system", default="H", help="R, C or H")
    p.add_argument("--dim", type=int, default=3, help="matrix size")
    p.add_argument("--trials", type=int, default=5, help="number of random generators")
    p.add_argument("--tol", type=float, default=1e-8, help="bound on each defect")
    p.set_defaults(func=cmd_spectrum)
    return parser

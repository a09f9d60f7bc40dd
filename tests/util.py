"""Shared random generators and reference constructions for the test suite."""

from functools import reduce
from itertools import combinations
from math import comb

import numpy as np

from threefold.hilbert import KMatrix, KVector, scalar_from_coeffs
from threefold.representations import FiniteGroup
from threefold.scalars import Quaternion


def naive_kproduct(a, b, table):
    """sum_j a[i, j] b[j, k] with entry products read straight off the structure table.

    The three-operand einsum costs n m p d^3 and never reaches BLAS; it is
    the oracle for the kernel in threefold.hilbert.
    """
    return np.einsum("ija,jkb,abc->ikc", a, b, table)


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
# for the character sums in threefold.representations, and the binary
# icosahedral group 2I as a corpus beyond the shipped fixtures
# ---------------------------------------------------------------------------

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

"""Shared random generators and reference constructions for the test suite."""

from functools import reduce
from itertools import combinations
from math import comb

import numpy as np

from threefold.hilbert import KMatrix, KVector, scalar_from_coeffs


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

"""Small concrete groups and unitary representations used as fixtures.

All constructions go through FiniteGroup / FiniteGroupRep, so the tables
and matrices are fully validated.  Element orderings are documented per
group since representation files list matrices in element order.
"""

from __future__ import annotations

import operator
from itertools import permutations

import numpy as np

from .representations import FiniteGroup, FiniteGroupRep
from .scalars import Quaternion
from .su2 import su2_matrix

__all__ = [
    "cyclic_group",
    "cyclic_rep",
    "s3_group",
    "s3_standard_rep",
    "s3_sign_rep",
    "q8_group",
    "q8_spinor_rep",
    "d4_group",
    "d4_rotation_rep",
    "trivial_rep",
    "standard_fixtures",
]


def _table(elements, product, key):
    """The table whose entry a, b indexes product(elements[a], elements[b]), told apart by ``key``."""
    index = {key(g): i for i, g in enumerate(elements)}
    return np.array([[index[key(product(p, q))] for q in elements] for p in elements])


def trivial_rep(group):
    return FiniteGroupRep(group, np.ones((group.order, 1, 1), dtype=complex))


def cyclic_group(n):
    """Z_n with elements 0..n-1 and addition mod n."""
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z{n}")


def cyclic_rep(group, k):
    """One-dimensional character g -> exp(2 pi i k g / n)."""
    n = group.order
    phases = np.exp(2j * np.pi * k * np.arange(n) / n)
    return FiniteGroupRep(group, phases.reshape(n, 1, 1))


# S3: permutations of (0, 1, 2) in lexicographic order; product p*q acts
# by q first, then p.
_S3_ELEMENTS = list(permutations(range(3)))


def s3_group():
    return FiniteGroup(_table(_S3_ELEMENTS, lambda p, q: tuple(p[i] for i in q), tuple), name="S3")


def s3_sign_rep(group):
    signs = []
    for p in _S3_ELEMENTS:
        inversions = sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
        signs.append((-1.0) ** inversions)
    return FiniteGroupRep(group, np.array(signs, dtype=complex).reshape(-1, 1, 1))


def s3_standard_rep(group):
    """The 2-dimensional irreducible: permutation action on the sum-zero plane."""
    basis = np.array(
        [
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [0.0, -2.0 / np.sqrt(6.0)],
        ]
    )
    mats = []
    for p in _S3_ELEMENTS:
        perm = np.zeros((3, 3))
        for j in range(3):
            perm[p[j], j] = 1.0
        mats.append(basis.T @ perm @ basis)
    return FiniteGroupRep(group, np.array(mats, dtype=complex))


# Q8: quaternion units in the order 1, -1, i, -i, j, -j, k, -k.
_Q8_ELEMENTS = [
    Quaternion(1.0),
    Quaternion(-1.0),
    Quaternion(0.0, 1.0),
    Quaternion(0.0, -1.0),
    Quaternion(0.0, 0.0, 1.0),
    Quaternion(0.0, 0.0, -1.0),
    Quaternion(0.0, 0.0, 0.0, 1.0),
    Quaternion(0.0, 0.0, 0.0, -1.0),
]


def q8_group():
    return FiniteGroup(_table(_Q8_ELEMENTS, operator.mul, lambda q: tuple(q.coeffs)), name="Q8")


def q8_spinor_rep(group):
    """The 2-dimensional irreducible, through the unit-quaternion SU(2) matrices."""
    return FiniteGroupRep(group, np.array([su2_matrix(q) for q in _Q8_ELEMENTS]))


# D4: symmetries of the square; element a + 4 b is r^a s^b with r the
# quarter turn and s the reflection, so s r = r^-1 s.
def _d4_product(g, h):
    # g = a1 + 4 b1, h = a2 + 4 b2: r^a1 s^b1 r^a2 s^b2 = r^(a1 +- a2) s^(b1 + b2), - where b1 = 1
    return (g + (h if g < 4 else -h)) % 4 + 4 * ((g // 4 + h // 4) % 2)


def d4_group():
    return FiniteGroup(_table(range(8), _d4_product, int), name="D4")


def d4_rotation_rep(group):
    """The 2-dimensional irreducible: quarter turn and axis flip, real matrices."""
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    s = np.array([[1.0, 0.0], [0.0, -1.0]])
    mats = [
        np.linalg.matrix_power(r, a) @ np.linalg.matrix_power(s, b)
        for b in range(2)
        for a in range(4)
    ]
    return FiniteGroupRep(group, np.array(mats, dtype=complex))


def standard_fixtures():
    """The shipped fixture corpus: name -> (group, [(rep name, rep), ...])."""
    z3 = cyclic_group(3)
    z5 = cyclic_group(5)
    s3 = s3_group()
    q8 = q8_group()
    d4 = d4_group()
    return {
        "z3": (z3, [("trivial", trivial_rep(z3)), ("chi1", cyclic_rep(z3, 1))]),
        "z5": (z5, [("trivial", trivial_rep(z5)), ("chi1", cyclic_rep(z5, 1))]),
        "s3": (
            s3,
            [
                ("trivial", trivial_rep(s3)),
                ("sign", s3_sign_rep(s3)),
                ("standard", s3_standard_rep(s3)),
            ],
        ),
        "q8": (q8, [("trivial", trivial_rep(q8)), ("spinor", q8_spinor_rep(q8))]),
        "d4": (d4, [("trivial", trivial_rep(d4)), ("rotation", d4_rotation_rep(d4))]),
    }

"""Seeded representation files for dicyclic groups, with closed-form answers.

Dic_n = <a, x | a^(2n) = 1, x^2 = a^n, x a x^-1 = a^-1> has order 4n.  Element
``k + 2n*e`` stands for a^k x^e (0 <= k < 2n, e in {0, 1}), so index 0 is the
identity.

Every expected answer here comes from closed forms, never from ``threefold``:

* rho_m (1 <= m <= n-1): a -> diag(z^m, z^-m) with z = exp(i pi / n),
  x -> [[0, (-1)^m], [1, 0]].  Irreducible; its Frobenius-Schur indicator is
  (-1)^m, because (a^k)^2 = a^(2k) has trace summing to 0 over k and
  (a^k x)^2 = a^n has trace 2 (-1)^m.  Odd m is quaternionic, even m real.
* the four 1-dim characters a -> eps, x -> eta with eps = +-1 and
  eta^2 = eps^n.  For odd n the two with eps = -1 have eta = +-i: complex.
* rho_1 + rho_2 + rho_3 + rho_4: reducible, commutant dimension 4 (four
  distinct irreducibles), indicator -1 + 1 - 1 + 1 = 0.

The 2-dim irreps and the sum are conjugated by seeded Haar-random unitaries,
so the files do not expose the diagonal basis.
"""

from __future__ import annotations

import json

import numpy as np

SUM_PARTS = (1, 2, 3, 4)
SUM_NAME = "rho1+rho2+rho3+rho4"


def multiplication_table(n):
    """Dic_n table: ``table[g, h]`` is the index of g h."""
    order = 4 * n
    table = np.empty((order, order), dtype=int)
    for g in range(order):
        k, e = g % (2 * n), g // (2 * n)
        for h in range(order):
            l, f = h % (2 * n), h // (2 * n)
            # x a^l = a^-l x and x^2 = a^n
            power = k + (l if e == 0 else -l) + (n if e == 1 and f == 1 else 0)
            table[g, h] = power % (2 * n) + 2 * n * (e ^ f)
    return table


def irrep(n, m):
    """Matrices of rho_m, one per element, shape (4n, 2, 2)."""
    order = 4 * n
    zeta = np.exp(1j * np.pi * m / n)
    x = np.array([[0.0, (-1.0) ** m], [1.0, 0.0]], dtype=complex)
    out = np.empty((order, 2, 2), dtype=complex)
    for g in range(order):
        k, e = g % (2 * n), g // (2 * n)
        a_k = np.diag([zeta**k, zeta ** (-k)])
        out[g] = a_k @ x if e else a_k
    return out


def characters(n):
    """The four 1-dim characters as (name, matrices, kind) for odd n."""
    if n % 2 == 0:
        raise ValueError("the closed forms here assume odd n")
    order = 4 * n
    out = []
    for name, eps, eta in (
        ("chi_trivial", 1.0, 1.0),
        ("chi_x_sign", 1.0, -1.0),
        ("chi_plus_i", -1.0, 1j),
        ("chi_minus_i", -1.0, -1j),
    ):
        values = np.array(
            [eps ** (g % (2 * n)) * eta ** (g // (2 * n)) for g in range(order)], dtype=complex
        )
        kind = "real" if eps == 1.0 else "complex"
        out.append((name, values.reshape(order, 1, 1), kind))
    return out


def haar_unitary(rng, d):
    """Haar-random d x d unitary: QR of a complex Gaussian with the phase fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def _conjugated(matrices, u):
    return np.einsum("ij,gjk,kl->gil", u, matrices, u.conj().T)


def build(n, rng):
    """Group table, named reps and the expected answer for each name.

    Expected entries hold ``kind`` (real / complex / quaternionic /
    reducible), ``dim``, ``j_square`` (+1, -1, or None), ``fs`` and
    ``commutant``.
    """
    if n % 2 == 0 or n - 1 < max(SUM_PARTS):
        raise ValueError("need odd n >= 5")
    reps = []
    expected = {}
    for name, matrices, kind in characters(n):
        reps.append((name, matrices))
        expected[name] = {
            "kind": kind,
            "dim": 1,
            "j_square": 1 if kind == "real" else None,
            "fs": 1.0 if kind == "real" else 0.0,
            "commutant": 1,
        }
    for m in range(1, n):
        name = f"rho{m}"
        reps.append((name, _conjugated(irrep(n, m), haar_unitary(rng, 2))))
        sign = -1 if m % 2 else 1
        expected[name] = {
            "kind": "quaternionic" if sign < 0 else "real",
            "dim": 2,
            "j_square": sign,
            "fs": float(sign),
            "commutant": 1,
        }
    order = 4 * n
    total = np.zeros((order, 2 * len(SUM_PARTS), 2 * len(SUM_PARTS)), dtype=complex)
    for slot, m in enumerate(SUM_PARTS):
        total[:, 2 * slot : 2 * slot + 2, 2 * slot : 2 * slot + 2] = irrep(n, m)
    reps.append((SUM_NAME, _conjugated(total, haar_unitary(rng, total.shape[1]))))
    expected[SUM_NAME] = {
        "kind": "reducible",
        "dim": total.shape[1],
        "j_square": None,
        "fs": float(sum((-1) ** m for m in SUM_PARTS)),
        "commutant": len(SUM_PARTS),
    }
    return multiplication_table(n), reps, expected


def write_rep_file(path, n, seed):
    """Write Dic_n reps in the ``load_rep_file`` schema; return the expected table."""
    table, reps, expected = build(n, np.random.default_rng([seed, n]))
    doc = {
        "order": int(table.shape[0]),
        "name": f"dic{n}",
        "mult": table.tolist(),
        "reps": [
            {
                "name": name,
                "dim": int(matrices.shape[1]),
                "matrices": np.stack([matrices.real, matrices.imag], axis=-1).tolist(),
            }
            for name, matrices in reps
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return expected

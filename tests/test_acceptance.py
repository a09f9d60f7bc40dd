"""Acceptance gate: one check per headline claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines; every tolerance is pinned here and matches the library's
documented contracts.
"""

import time

import numpy as np
import pytest

from threefold.groups import standard_fixtures
from threefold.hilbert import KMatrix
from threefold.jordan import (
    check_jordan_identity,
    from_coords,
    h2_spin_isomorphism,
    hermitian_kind,
    jordan_product,
    max_ignorance,
    random_element,
    spin_kind,
    state_eval,
    trace,
    trace_inner,
    unit,
)
from threefold.representations import (
    RepKind,
    average_bilinear,
    classify,
    fs_indicator_finite,
    invariant_bilinear_form,
    structure_map,
)
from threefold.scalars import COMPLEXES, QUATERNIONS, REALS, Octonion, Quaternion, mul_table
from threefold.structures import (
    AntilinearMap,
    classify_tensor,
    complexify,
    quaternify,
    quaternify_real,
    tensor_antilinear,
    underlying_complex,
    underlying_real,
    underlying_real_quat,
)
from threefold.spectra import symmetric_spectrum_check
from threefold.su2 import classify_spin, fs_indicator_su2, su2_spin_rep

from util import random_skew_adjoint, random_unit_quaternion


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def _fixture_irreducibles():
    for group_name, (_, reps) in standard_fixtures().items():
        for rep_name, rep in reps:
            yield f"{group_name}/{rep_name}", rep


def test_criterion_01_su2_threefold_table():
    start = time.perf_counter()
    worst = 0.0
    agree = True
    for twice in range(0, 11):
        j = twice / 2.0
        expected = 1.0 if twice % 2 == 0 else -1.0
        fs = fs_indicator_su2(j)
        worst = max(worst, abs(fs - expected))
        result = classify_spin(j)
        wanted = RepKind.REAL if twice % 2 == 0 else RepKind.QUATERNIONIC
        agree = agree and result.kind is wanted and result.kind.value == int(expected)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and agree and elapsed < 5.0
    _report(1, "spin-j indicator table", ok,
            f"max |fs - sign| = {worst:.2e}, structure route agrees = {agree}, {elapsed:.2f}s")


def test_criterion_02_finite_group_corpus():
    fixtures = standard_fixtures()

    def oracle(group, matrices):
        # independent brute-force Haar sum, predates the engine
        total = 0.0
        for g in range(group.order):
            total += float(np.trace(matrices[int(group.table[g, g])]).real)
        return total / group.order

    expected = {
        ("q8", "spinor"): -1.0,
        ("s3", "standard"): 1.0,
        ("z3", "chi1"): 0.0,
        ("z5", "chi1"): 0.0,
    }
    worst = 0.0
    forms_ok = True
    for (group_name, rep_name), value in expected.items():
        group, reps = fixtures[group_name]
        rep = dict(reps)[rep_name]
        fs = fs_indicator_finite(rep)
        worst = max(worst, abs(fs - value), abs(fs - oracle(group, rep.matrices)))
        form = invariant_bilinear_form(rep)
        if value == 0.0:
            forms_ok = forms_ok and form is None
        else:
            forms_ok = forms_ok and form is not None
            _, sign = structure_map(rep, form)
            forms_ok = forms_ok and sign == int(value)
    ok = worst < 1e-10 and forms_ok
    _report(2, "finite-group indicator corpus", ok,
            f"max indicator error = {worst:.2e}, forms and signs consistent = {forms_ok}")


def test_criterion_03_dual_route_consistency():
    worst_losing = 0.0
    agree = True
    for label, rep in _fixture_irreducibles():
        fs = fs_indicator_finite(rep)
        fs_kind = {1: RepKind.REAL, 0: RepKind.COMPLEX, -1: RepKind.QUATERNIONIC}[int(round(fs))]
        form = invariant_bilinear_form(rep)
        if form is None:
            form_kind = RepKind.COMPLEX
        else:
            form_kind = RepKind.REAL if form.symmetric else RepKind.QUATERNIONIC
        agree = agree and fs_kind is form_kind and classify(rep) is fs_kind
        # the losing symmetry class has to average away entirely
        d = rep.dim
        eye = np.eye(d)
        sym = [np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i]) for i in range(d) for j in range(i, d)]
        anti = [np.outer(eye[i], eye[j]) - np.outer(eye[j], eye[i]) for i in range(d) for j in range(i + 1, d)]
        losing = sym + anti if form is None else (anti if form.symmetric else sym)
        for seed in losing:
            worst_losing = max(worst_losing, float(np.linalg.norm(average_bilinear(rep, seed))))
    ok = agree and worst_losing < 1e-10
    _report(3, "indicator vs form-route agreement", ok,
            f"routes agree = {agree}, losing-class average max = {worst_losing:.2e}")


def test_criterion_04_structure_map_contract():
    rng = np.random.default_rng(41)
    worst = 0.0
    signs_ok = True
    produced = []
    for label, rep in _fixture_irreducibles():
        form = invariant_bilinear_form(rep)
        if form is None:
            continue
        j, sign = structure_map(rep, form)
        produced.append((j, sign, rep.matrices, form.symmetric))
    for twice in range(0, 7):
        j_spin = twice / 2.0
        result = classify_spin(j_spin)
        sampled = su2_spin_rep(j_spin, [random_unit_quaternion(rng) for _ in range(6)])
        form = None
        produced.append((result.structure, result.kind.value, sampled, twice % 2 == 0))
    for jmap, sign, unitaries, symmetric in produced:
        d = jmap.n
        signs_ok = signs_ok and sign == (1 if symmetric else -1)
        worst = max(worst, float(np.linalg.norm(jmap.square() - sign * np.eye(d))))
        for u in unitaries:
            worst = max(worst, float(jmap.commutation_defect(u)))
        for _ in range(5):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            worst = max(worst, abs(np.vdot(jmap(v), jmap(w)) - np.vdot(w, v)))
    ok = worst < 1e-9 and signs_ok
    _report(4, "structure-map contract", ok,
            f"{len(produced)} maps, worst defect = {worst:.2e}, signs match symmetry = {signs_ok}")


def test_criterion_05_tensor_signs_and_table():
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    models = {1: AntilinearMap(np.eye(2, dtype=complex)), -1: AntilinearMap(eps)}
    exact = True
    for s1, j1 in models.items():
        for s2, j2 in models.items():
            square = tensor_antilinear(j1, j2).square()
            exact = exact and np.array_equal(square, s1 * s2 * np.eye(4, dtype=complex))
    # the Frobenius-Schur indicator of each kind, written out apart from RepKind's values
    sign = {RepKind.REAL: 1, RepKind.COMPLEX: 0, RepKind.QUATERNIONIC: -1}
    table_ok = all(
        classify_tensor(a, b) is {v: k for k, v in sign.items()}[sign[a] * sign[b]]
        for a in RepKind
        for b in RepKind
    )
    ok = exact and table_ok
    _report(5, "tensor sign rule", ok,
            f"four (+-1, +-1) squares exact = {exact}, nine-entry table reproduced = {table_ok}")


JORDAN_KINDS = (
    [hermitian_kind(d, 3) for d in (1, 2, 4, 8)]
    + [hermitian_kind(2, 4)]
    + [spin_kind(n) for n in range(10)]
)


def test_criterion_06_jordan_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(43)
    worst = 0.0
    reality_min = np.inf
    for kind in JORDAN_KINDS:
        for _ in range(100):
            va, vb = rng.standard_normal((2, kind.dim))
            a = from_coords(kind, va / np.linalg.norm(va))
            b = from_coords(kind, vb / np.linalg.norm(vb))
            worst = max(worst, check_jordan_identity(a, b))
            reality_min = min(reality_min, trace_inner(a, a), trace_inner(b, b))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and reality_min > 0.0 and elapsed < 10.0
    _report(6, "Jordan identity and formal reality", ok,
            f"15 kinds x 100 pairs, max residual = {worst:.2e}, "
            f"min <a,a> = {reality_min:.2e}, {elapsed:.2f}s")


def test_criterion_07_h2_isomorphisms():
    rng = np.random.default_rng(47)
    worst = 0.0
    for scalar_dim in (1, 2, 4, 8):
        iso = h2_spin_isomorphism(scalar_dim)
        for _ in range(100):
            a = random_element(iso.source, rng)
            b = random_element(iso.source, rng)
            scale = max(1.0, a.norm() * b.norm())
            defect = (iso(jordan_product(a, b)) - jordan_product(iso(a), iso(b))).norm()
            worst = max(worst, defect / scale)
    ok = worst < 1e-10
    _report(7, "h2 = spin factor isomorphisms", ok,
            f"4 scalars x 100 pairs, max homomorphism residual = {worst:.2e}")


def test_criterion_08_state_machinery():
    rho = max_ignorance(hermitian_kind(2, 2))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 0] = 0.5
    exact = np.array_equal(rho.element.data, expected)
    rng = np.random.default_rng(53)
    worst = 0.0
    for kind in JORDAN_KINDS + [hermitian_kind(2, 2)]:
        ignorance = max_ignorance(kind)
        tr_one = trace(unit(kind))
        for _ in range(20):
            a = random_element(kind, rng)
            defect = abs(state_eval(ignorance, a) - trace(a) / tr_one)
            worst = max(worst, defect / max(1.0, abs(trace(a) / tr_one)))
    ok = exact and worst < 1e-12
    _report(8, "maximal-ignorance state", ok,
            f"h2(C) state exactly diag(1/2, 1/2) = {exact}, max <a>_0 defect = {worst:.2e}")


def test_criterion_09_spectrum_symmetry():
    rng = np.random.default_rng(59)
    worst_pair = 0.0
    worst_vec = 0.0
    count = 0
    for k in range(64):
        n = 2 + (k % 7)
        report = symmetric_spectrum_check(random_skew_adjoint(REALS, n, rng))
        worst_pair = max(worst_pair, report.pairing_defect)
        worst_vec = max(worst_vec, report.eigenvector_defect)
        count += 1
    for k in range(36):
        n = 1 + (k % 4)
        report = symmetric_spectrum_check(random_skew_adjoint(QUATERNIONS, n, rng))
        worst_pair = max(worst_pair, report.pairing_defect)
        worst_vec = max(worst_vec, report.eigenvector_defect)
        count += 1
    ok = count == 100 and worst_pair < 1e-8 and worst_vec < 1e-8
    _report(9, "spectrum symmetric about zero", ok,
            f"{count} generators, max pairing defect = {worst_pair:.2e}, "
            f"max eigenvector defect = {worst_vec:.2e}")


def test_criterion_10_functor_laws():
    rng = np.random.default_rng(61)
    n = 3
    conversions = [
        (complexify(n), REALS, n),
        (underlying_real(n), COMPLEXES, 2 * n),
        (underlying_complex(n), QUATERNIONS, 2 * n),
        (quaternify(n), COMPLEXES, n),
        (underlying_real_quat(n), QUATERNIONS, 4 * n),
        (quaternify_real(n), REALS, n),
    ]
    dims_ok = True
    worst = 0.0
    faithful = True
    for conv, system, dim_out in conversions:
        dims_ok = dims_ok and conv.dim_out == dim_out
        for _ in range(5):
            s = KMatrix(system, rng.standard_normal((n, n, system.dim)))
            t = KMatrix(system, rng.standard_normal((n, n, system.dim)))
            scale = max(1.0, s.norm() * t.norm())
            worst = max(worst, (conv.push(s @ t) - conv.push(s) @ conv.push(t)).norm() / scale)
            worst = max(worst, (conv.push(s.adjoint()) - conv.push(s).adjoint()).norm() / scale)
            faithful = faithful and (conv.push(s) - conv.push(t)).norm() > 1e-8 * (s - t).norm()
        j = getattr(conv, "j")
        pushed = conv.push(KMatrix(system, rng.standard_normal((n, n, system.dim))))
        if isinstance(j, AntilinearMap):
            worst = max(worst, float(j.commutation_defect(pushed.to_complex())) / max(1.0, pushed.norm()))
        else:
            worst = max(worst, (j @ pushed - pushed @ j).norm() / max(1.0, pushed.norm()))
    ok = dims_ok and worst < 1e-10 and faithful
    _report(10, "conversion functor laws", ok,
            f"dimension laws = {dims_ok}, worst law defect = {worst:.2e}, faithful = {faithful}")


def test_criterion_11_division_algebra_laws():
    rng = np.random.default_rng(67)
    worst = 0.0
    for dim in (1, 2, 4, 8):
        table = mul_table(dim)
        for _ in range(1000):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            xy = np.einsum("a,b,abc->c", x, y, table)
            worst = max(worst, abs(np.linalg.norm(xy) - np.linalg.norm(x) * np.linalg.norm(y))
                        / max(1.0, np.linalg.norm(x) * np.linalg.norm(y)))
    octo = mul_table(8)
    alt = 0.0
    for _ in range(1000):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        xx = np.einsum("a,b,abc->c", x, x, octo)
        xy = np.einsum("a,b,abc->c", x, y, octo)
        lhs = np.einsum("a,b,abc->c", xx, y, octo)
        rhs = np.einsum("a,b,abc->c", x, xy, octo)
        alt = max(alt, float(np.linalg.norm(lhs - rhs)) / max(1.0, np.linalg.norm(x) ** 2 * np.linalg.norm(y)))

    e1, e2, e3 = (Octonion.from_array(np.eye(8)[k]) for k in (1, 2, 3))
    nonassoc = ((e1 * e2) * e3 - e1 * (e2 * e3)).norm() > 1.0
    qi = Quaternion(0, 1, 0, 0)
    qj = Quaternion(0, 0, 1, 0)
    noncomm = (qi * qj - qj * qi).norm() > 1.0
    ok = worst < 1e-12 and alt < 1e-12 and nonassoc and noncomm
    _report(11, "division algebra laws", ok,
            f"max norm-law defect = {worst:.2e}, max alternativity defect = {alt:.2e}, "
            f"witnesses exist = {nonassoc and noncomm}")

"""The workloads: fixed lists of ``threefold`` argv, each with its expected answer.

Every expected value is derived here from closed forms or from the CLI's
documented item labels, never by calling ``threefold``.  A check raises
``Mismatch`` on the first difference.  Why each workload exists is in
``NOTES.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import dicyclic

KINDS = ("real", "complex", "quaternionic")
KIND_SIGN = {"real": 1, "complex": 0, "quaternionic": -1}
SIGN_KIND = {sign: kind for kind, sign in KIND_SIGN.items()}


class Mismatch(Exception):
    """The program's answer differs from the expected one."""


@dataclass(frozen=True)
class Case:
    argv: tuple  # verb and its arguments; the harness adds --json and --seed
    check: Callable[[dict], None]


def _require(condition, message):
    if not condition:
        raise Mismatch(message)


def _items(report, command, labels):
    _require(report.get("command") == command, f"command is {report.get('command')!r}")
    _require(report.get("pass") is True, "report pass is not true")
    items = report.get("items", [])
    got = [item.get("label") for item in items]
    _require(got == list(labels), f"labels {got} != {list(labels)}")
    for item in items:
        _require(item.get("pass") is True, f"{item['label']}: pass is not true")
    return items


def _fields(item, **expected):
    for key, value in expected.items():
        _require(item.get(key) == value, f"{item['label']}: {key}={item.get(key)!r}, want {value!r}")


def _close(item, key, value, tol):
    got = item.get(key)
    _require(isinstance(got, (int, float)) and abs(got - value) <= tol,
             f"{item['label']}: {key}={got!r}, want {value} within {tol}")


# ---------------------------------------------------------------------------
# per-verb expectations
# ---------------------------------------------------------------------------

def su2_case(max_j):
    twice_values = range(int(round(2 * max_j)) + 1)

    def check(report):
        items = _items(report, "su2", [f"j={t / 2:g}" for t in twice_values])
        for twice, item in zip(twice_values, items):
            sign = 1 if twice % 2 == 0 else -1  # J^2 = (-1)^(2j), and so is the 2 pi phase
            _fields(item, dim=twice + 1, kind=SIGN_KIND[sign], j_square=sign, rotation_2pi_phase=sign)
            _close(item, "fs", sign, 1e-6)

    return Case(("su2", "--max-j", f"{max_j:g}"), check)


def tensor_table_case():
    def check(report):
        pairs = [(left, right) for left in KINDS for right in KINDS]
        items = _items(report, "tensor-table", [f"{l} (x) {r}" for l, r in pairs])
        for (left, right), item in zip(pairs, items):
            sign = KIND_SIGN[left] * KIND_SIGN[right]
            _fields(item, result=SIGN_KIND[sign])
            if KIND_SIGN[left] and KIND_SIGN[right]:
                _fields(item, constructed_sign=sign)

    return Case(("tensor-table",), check)


def irreducible(kind, dim):
    """Expected classify item of an irreducible representation of the given kind."""
    sign = KIND_SIGN[kind]
    return {"kind": kind, "dim": dim, "j_square": sign or None, "fs": float(sign), "commutant": 1}


def classify_case(path, expected):
    def check(report):
        items = _items(report, "classify", expected)
        for item in items:
            want = expected[item["label"]]
            _fields(item, kind=want["kind"], dim=want["dim"], commutant=want["commutant"])
            if want["kind"] != "reducible":
                _fields(item, j_square=want["j_square"])
            _close(item, "fs", want["fs"], 1e-8)

    return Case(("classify", path), check)


# the shipped corpus: characters of Z_n are complex except the trivial one;
# S3 and D4 have only real irreps; the Q8 spinor is the quaternion units
FIXTURES = {
    "z3": {"trivial": irreducible("real", 1), "chi1": irreducible("complex", 1)},
    "z5": {"trivial": irreducible("real", 1), "chi1": irreducible("complex", 1)},
    "s3": {"trivial": irreducible("real", 1), "sign": irreducible("real", 1),
           "standard": irreducible("real", 2)},
    "q8": {"trivial": irreducible("real", 1), "spinor": irreducible("quaternionic", 2)},
    "d4": {"trivial": irreducible("real", 1), "rotation": irreducible("real", 2)},
}


def jordan_case(algebra, samples=None):
    family, _, size = algebra.partition(":")
    n = int(size)
    labels = ["jordan_identity_max", "power_associativity_max", "formal_reality_min",
              "trace_symmetry_max", "unit_trace", "max_ignorance_eval_max"]
    if family != "hO":
        labels += ["squares_in_cone", "dual_cone_margin"]
    if family == "spin":
        labels.append("lightcone_agreement")
    if algebra == "hC:2":
        labels.append("max_ignorance_is_half_identity")
    rank = 2 if family == "spin" else n

    def check(report):
        items = _items(report, "jordan", labels)
        _fields(items[labels.index("unit_trace")], value=float(rank))

    argv = ("jordan", "--algebra", algebra)
    return Case(argv + (("--samples", str(samples)) if samples else ()), check)


# conversion label -> output dimension per input dimension
FUNCTOR_DIMS = {
    "real_as_complex": 1,
    "complex_as_real": 2,
    "quaternionic_as_complex": 2,
    "complex_as_quaternionic": 1,
    "quaternionic_as_real": 4,
    "real_as_quaternionic": 1,
}


def functors_case(n):
    def check(report):
        items = _items(report, "functors", FUNCTOR_DIMS)
        for item in items:
            _fields(item, dim_in=n, dim_out=FUNCTOR_DIMS[item["label"]] * n)

    return Case(("functors", "--dim", str(n)), check)


def spectrum_case(system, n, trials=None):
    count = trials or 5
    labels = [f"trial_{k}" for k in range(count)] + (["obstruction_witness"] if system == "H" else [])
    size = 2 * n if system == "H" else n  # H is checked on its complex adjunct

    def check(report):
        items = _items(report, "spectrum", labels)
        for item in items[:count]:
            w = item.get("eigenvalues", [])
            _require(len(w) == size, f"{item['label']}: {len(w)} eigenvalues, want {size}")
            if system != "C":  # real and quaternionic spectra pair c with -c
                scale = max([1.0] + [abs(x) for x in w])
                worst = max(abs(a + b) for a, b in zip(w, reversed(w)))
                _require(worst <= 1e-6 * scale, f"{item['label']}: spectrum not symmetric ({worst:.2e})")

    argv = ("spectrum", "--system", system, "--dim", str(n))
    return Case(argv + (("--trials", str(trials)) if trials else ()), check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cli_small(seed, workdir):
    return (
        [tensor_table_case()]
        + [classify_case(f"fixtures/{name}.json", FIXTURES[name]) for name in sorted(FIXTURES)]
        + [functors_case(3)]
        + [spectrum_case(system, 3) for system in "RCH"]
        + [su2_case(3)]
        + [jordan_case(algebra) for algebra in ("spin:9", "hC:2", "hH:2")]
    )


def kernel_scaled(seed, workdir):
    return [
        jordan_case("hH:6", 20),
        jordan_case("hC:6", 20),
        jordan_case("hO:3"),
        functors_case(32),
        spectrum_case("H", 32, 20),
    ]


# dicyclic groups Dic_n with n odd, orders 4n near 60 and 124
DICYCLIC_N = (15, 31)


def classify_scaled(seed, workdir):
    cases = [su2_case(5.5)]
    for n in DICYCLIC_N:
        path = os.path.join(workdir, f"dic{n}.json")
        cases.append(classify_case(path, dicyclic.write_rep_file(path, n, seed)))
    return cases


@dataclass(frozen=True)
class Workload:
    build: Callable  # (seed, workdir) -> list of Case; runs outside any timed region
    # wall time of one untraced pass on the 2-core reference machine when this
    # benchmark was added; it only turns --seconds into a fixed pass count
    nominal_pass_s: float


WORKLOADS = {
    "cli-small": Workload(cli_small, 13.5),
    "kernel-scaled": Workload(kernel_scaled, 11.0),
    "classify-scaled": Workload(classify_scaled, 7.5),
}

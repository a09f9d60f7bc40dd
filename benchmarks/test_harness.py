"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import math
import os
import signal
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dicyclic  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from threefold.representations import FiniteGroup, FiniteGroupRep, load_rep_file  # noqa: E402


# ---------------------------------------------------------------------------
# invocation_tail_s percentile rule
# ---------------------------------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 33)]  # 32 samples
    value, percentile, count = run.tail(values[::-1])
    assert (value, percentile, count) == (22.0, 68.75, 32)
    assert sum(v > value for v in values) == 10


def test_tail_at_eleven_samples_is_the_smallest():
    value, percentile, _ = run.tail([5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_without_enough_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_failures_sort_beyond_the_tail():
    assert run.tail([1.0] * 20 + [math.inf] * 10)[0] == 1.0
    assert run.tail([1.0] * 20 + [math.inf] * 11)[0] == math.inf


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _span(name, start, end, parent, key=None, count=0):
    return [name, start, end, parent, key, count]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0.0, 10.0, -1),  # root
        _span(1, 1.0, 4.0, 0),    # child
        _span(2, 2.0, 3.0, 1),    # grandchild
        _span(1, 5.0, 9.0, 0),    # second child
    ]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_from_nested_spans():
    names = ["jordan.trace", "jordan.product", "representations.classify",
             "representations.commutant", "representations.form"]
    spans = [
        _span(0, 0.0, 4.0, -1, key="hC:2"),
        *[_span(1, 0.5 + k, 1.0 + k, 0) for k in range(4)],   # four products inside the trace
        _span(1, 5.0, 6.0, -1),                              # a product outside any trace
        _span(3, 7.0, 8.0, -1, key=11),                      # commutant before classify
        _span(2, 8.0, 10.0, -1, key=11),
        _span(3, 8.5, 9.0, 7, key=11),                       # commutant inside classify
        _span(4, 9.0, 9.5, 7, count=3),                      # form with three seed averages
        _span(3, 11.0, 12.0, -1, key=12),                    # a rep never classified
    ]
    totals = layers.LayerTotals()
    totals.add(names, spans)
    assert totals.calls["jordan.product"] == 5
    assert totals.self_s["jordan.trace"] == pytest.approx(2.0)
    assert totals.self_s["representations.classify"] == pytest.approx(1.0)
    metrics = layers.layer_metrics(totals, passes=1)
    assert metrics["jordan.products_per_trace"] == 4.0
    assert metrics["representations.commutant_per_rep"] == 2.0
    assert metrics["representations.form.seeds_per_form"] == 3.0
    assert set(metrics) | {"cli.cpu_s", "trace.overhead_s", "import.total_s", "import.scipy_s",
                           "import.threefold_self_s", "import.modules"} == set(layers.PER_LAYER_UNITS)


def test_traced_child_wraps_from_import_bindings():
    inv = run.invoke(workloads.tensor_table_case(), 0, ROOT, 60.0, trace=True)
    assert inv.failure is None
    totals = layers.LayerTotals()
    totals.add(inv.record["names"], inv.record["spans"])
    assert totals.calls["cli.main"] == 1 and totals.calls["cli.glue"] == 1
    # cli calls tensor_antilinear through its own `from .structures import` binding
    assert totals.calls["structures.antilinear"] >= 4


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   scipy._lib",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:        30 |         80 |   scipy.linalg",
        "import time:        20 |        200 | scipy",
        "import time:        40 |         40 |   threefold.scalars",
        "import time:        10 |        250 | threefold",
        "PERFBENCH_READY",
        "import time:      9999 |       9999 | late",
    ])
    got = layers.parse_importtime(text)
    assert got == {"import.total_s": 250e-6, "import.scipy_s": 200e-6,
                   "import.threefold_self_s": 50e-6, "import.modules": 6.0}


# ---------------------------------------------------------------------------
# invocations: expected answers, timeouts, signals
# ---------------------------------------------------------------------------

def _classify_z3(kind_of_chi1):
    expected = {"trivial": workloads.irreducible("real", 1),
                "chi1": workloads.irreducible(kind_of_chi1, 1)}
    return workloads.classify_case("fixtures/z3.json", expected)


def test_wrong_expected_answer_raises_fail_ratio():
    right = run.invoke(_classify_z3("complex"), 0, ROOT, 60.0)
    wrong = run.invoke(_classify_z3("real"), 0, ROOT, 60.0)
    assert right.failure is None
    assert wrong.failure.startswith("mismatch")
    p = run.Pass(invocations=[right, wrong], wall_s=1.0, complete=True)
    values, _ = run.end_to_end([p])
    assert values["fail_ratio"] == 0.5
    assert values["invocation_tail_s"] == run.INVOCATION_TIMEOUT_S  # the failure sorts last


def test_failures_without_timing_never_read_faster():
    dead = run.Invocation(argv=("tensor-table",), wall_s=0.1, returncode=1, rss_mb=1.0, cpu_s=0.1,
                          failure="exit code 1")
    values, _ = run.end_to_end([run.Pass(invocations=[dead], wall_s=0.1, complete=True)])
    assert values["setup_s"] == values["invocation_p50_s"] == run.INVOCATION_TIMEOUT_S
    assert values["compute_s"] == run.INVOCATION_TIMEOUT_S
    assert values["fail_ratio"] == 1.0 and values["invocations_per_s"] == 0.0


def test_timeout_is_a_failure():
    inv = run.invoke(workloads.tensor_table_case(), 0, ROOT, 0.05)
    assert inv.failure.startswith("timeout")
    assert inv.returncode == -signal.SIGKILL


def test_death_by_signal_is_reaped_with_its_status():
    cmd = [sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"]
    done = run.spawn(cmd, 30.0, ROOT)
    assert done.returncode == -signal.SIGKILL and not done.timed_out
    assert done.usage.ru_maxrss > 0


# ---------------------------------------------------------------------------
# Dic_n generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [5, 15])
def test_dicyclic_reps_pass_threefold_validation(n):
    table, reps, expected = dicyclic.build(n, np.random.default_rng(0))
    group = FiniteGroup(table)  # closure, identity, inverses, associativity
    a, x = 1, 2 * n
    assert group.order == 4 * n
    assert table[x, x] == n  # x^2 = a^n
    assert table[table[x, a], group.inv(x)] == group.inv(a)  # x a x^-1 = a^-1
    for name, matrices in reps:
        rep = FiniteGroupRep(group, matrices)  # unitarity and homomorphism
        assert rep.dim == expected[name]["dim"]
    kinds = [expected[name]["kind"] for name, _ in reps]
    assert kinds.count("complex") == 2
    assert kinds.count("reducible") == 1
    assert kinds.count("quaternionic") == n // 2  # odd m in 1..n-1


def test_dicyclic_file_loads_and_is_seeded(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    expected = dicyclic.write_rep_file(first, 5, seed=3)
    dicyclic.write_rep_file(second, 5, seed=3)
    assert first.read_bytes() == second.read_bytes()
    group, reps = load_rep_file(first)
    assert [name for name, _ in reps] == list(expected)
    assert group.order == 20

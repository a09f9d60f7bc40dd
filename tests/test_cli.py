"""Command-line interface: verbs, report schema, exit codes, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import threefold.cli
import threefold.errors
import threefold.jordan
import threefold.representations
import threefold.su2
from threefold.cli import EXIT_CLOSED_STDOUT, VERBS, UsageError, main, parse_args
from threefold.errors import PreconditionError
from threefold.groups import standard_fixtures
from threefold.hilbert import MAX_SIZE
from threefold.representations import (
    MAX_FILE_BYTES,
    MAX_ORDER,
    commutant_dimension,
    direct_sum,
    dump_rep_file,
    load_rep_file,
)
from threefold.su2 import MAX_NODES, classify_spin
from util import build_parser, jordan_suite_loop

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# fixtures stay in sync with the builders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["z3", "z5", "s3", "q8", "d4"])
def test_fixture_files_match_builders(name):
    group, reps = standard_fixtures()[name]
    loaded_group, loaded = load_rep_file(FIXTURES / f"{name}.json")
    assert np.array_equal(loaded_group.table, group.table)
    assert [n for n, _ in loaded] == [n for n, _ in reps]
    for (_, a), (_, b) in zip(loaded, reps):
        assert np.array_equal(a.matrices, b.matrices)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_q8(capsys):
    code, report, _ = run_json(capsys, "classify", str(FIXTURES / "q8.json"))
    assert code == 0
    assert report["command"] == "classify"
    assert report["pass"] is True
    by_name = {item["label"]: item for item in report["items"]}
    assert by_name["spinor"]["kind"] == "quaternionic"
    assert by_name["spinor"]["j_square"] == -1
    assert by_name["spinor"]["fs"] == pytest.approx(-1.0, abs=1e-10)
    assert by_name["trivial"]["kind"] == "real"


def test_classify_z3_human_output(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "z3.json"))
    assert code == 0
    assert "complex" in out
    assert "fs=0.000000" in out
    assert out.strip().endswith("PASS")


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", str(FIXTURES / "nope.json"))
    assert code == 2
    assert "error" in err


def test_classify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 2


_Z2 = [[0, 1], [1, 0]]
_ONE = [[[1.0, 0.0]]]


def _rep_doc(matrices, dim=1):
    return {"order": 2, "mult": _Z2, "reps": [{"name": "r", "dim": dim, "matrices": matrices}]}


MALFORMED = {
    "ragged mult": {"order": 2, "mult": [[0, 1], [1]]},
    "ragged matrices": _rep_doc([_ONE, [[[1.0, 0.0], [0.0, 0.0]]]]),
    "ragged matrix entry": _rep_doc([_ONE, [[[1.0]]]]),
    "string in mult": {"order": 2, "mult": [[0, "1"], [1, 0]]},
    "float in mult": {"order": 2, "mult": [[0, 1.7], [1.2, 0]]},
    "huge int in mult": {"order": 2, "mult": [[0, 10**30], [1, 0]]},
    "bool order": {"order": True, "mult": [[0]]},
    "zero order": {"order": 0, "mult": []},
    "order above the bound": {"order": MAX_ORDER + 1, "mult": []},
    "reps not a list": {"order": 2, "mult": _Z2, "reps": {"r": 1}},
    "rep entry not an object": {"order": 2, "mult": _Z2, "reps": [5]},
    "string dim": _rep_doc([_ONE, _ONE], dim="1"),
    "bool in matrices": _rep_doc([_ONE, [[[True, 0.0]]]]),
    "string in matrices": _rep_doc([_ONE, [[["1.0", 0.0]]]]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_rep_file_is_an_input_error(tmp_path, capsys, case):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(MALFORMED[case]))
    code, out, err = run(capsys, "--json", "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_deeply_nested_rep_file_is_an_input_error(tmp_path, capsys):
    # json.dumps cannot write this nesting; json.loads overflows the recursion limit on it
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"order": 2, "mult": ' + "[" * depth + "]" * depth + "}")
    code, out, err = run(capsys, "--json", "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_utf8_rep_file_is_an_input_error(tmp_path, capsys):
    # a UTF-16 byte-order mark is not valid UTF-8
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"order": 1, "mult": [[0]]}'.encode("utf-16-le"))
    code, out, err = run(capsys, "--json", "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_rep_file_above_the_byte_bound_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "sparse.json"
    with open(path, "wb") as fh:
        fh.truncate(MAX_FILE_BYTES + 1)
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: file size") and "Traceback" not in err


def test_order_above_the_bound_is_refused_before_any_array_is_built(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"order": MAX_ORDER + 1, "mult": [[0]]}))

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the order check")

    monkeypatch.setattr(threefold.representations, "np", NoNumpy())
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert str(MAX_ORDER) in err


def test_order_refusal_carries_the_order_and_the_bound(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"order": MAX_ORDER + 1, "mult": [[0]]}))
    with pytest.raises(PreconditionError) as refused:
        load_rep_file(path)
    assert (refused.value.defect, refused.value.tol) == (MAX_ORDER + 1, MAX_ORDER)


def test_classify_computes_each_commutant_once(tmp_path, capsys, monkeypatch):
    group, reps = standard_fixtures()["s3"]
    named = dict(reps)
    path = tmp_path / "s3_with_sum.json"
    summed = direct_sum(named["standard"], named["sign"])
    dump_rep_file(path, group, reps + [("standard+sign", summed)])
    calls = []

    def counted(rep, *args, **kwargs):
        calls.append(id(rep))
        return commutant_dimension(rep, *args, **kwargs)

    monkeypatch.setattr(threefold.representations, "commutant_dimension", counted)
    code, report, _ = run_json(capsys, "classify", str(path))
    assert code == 0
    assert len(calls) == len(set(calls)) == len(report["items"]) == 4
    reducible = report["items"][-1]
    assert list(reducible) == ["label", "dim", "commutant", "fs", "kind", "pass"]
    assert (reducible["kind"], reducible["commutant"]) == ("reducible", 2)


# ---------------------------------------------------------------------------
# su2
# ---------------------------------------------------------------------------

def test_su2_single_spin(capsys):
    code, report, _ = run_json(capsys, "su2", "--j", "1.5")
    assert code == 0
    (item,) = report["items"]
    assert item["kind"] == "quaternionic"
    assert abs(item["fs"] + 1.0) < 1e-6
    assert item["j_square"] == -1
    assert item["rotation_2pi_phase"] == -1


def test_su2_table_alternates(capsys):
    code, report, _ = run_json(capsys, "su2", "--max-j", "1.5")
    assert code == 0
    kinds = [item["kind"] for item in report["items"]]
    assert kinds == ["real", "quaternionic", "real", "quaternionic"]


def test_su2_rejects_non_half_integer(capsys):
    code, _, err = run(capsys, "su2", "--j", "0.3")
    assert code == 2


def test_su2_spin_seven(capsys):
    code, report, _ = run_json(capsys, "su2", "--j", "7")
    assert code == 0
    (item,) = report["items"]
    assert (item["kind"], item["j_square"], item["dim"]) == ("real", 1, 15)


def test_su2_table_up_to_spin_fifty(capsys):
    code, report, _ = run_json(capsys, "su2", "--max-j", "50")
    assert code == 0
    assert len(report["items"]) == 101
    assert all(item["pass"] for item in report["items"])


@pytest.mark.parametrize("argv", [("--j", "200.5"), ("--max-j", "1000"), ("--j", "inf"),
                                  ("--j", "nan"), ("--max-j", "201"), ("--max-j=-inf",),
                                  ("--j", "1e308"), ("--max-j", "1e308")])
def test_su2_refuses_unsupported_spins_before_computing(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(threefold.cli, "classify_spin", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "su2", *argv)
    assert code == 2
    assert calls == []
    assert err.startswith("error:")
    code, out, err = run(capsys, "--json", "su2", *argv)
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error: spin ") and "Traceback" not in err


def test_su2_refuses_node_counts_above_the_bound(capsys):
    code, out, err = run(capsys, "--json", "su2", "--j", "0", "--points", str(MAX_NODES + 2))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(MAX_NODES) in err and "Traceback" not in err


def test_su2_classifies_each_spin_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify_spin(*args, **kwargs)

    monkeypatch.setattr(threefold.su2, "classify_spin", counted)
    monkeypatch.setattr(threefold.cli, "classify_spin", counted)
    code, _, _ = run(capsys, "su2", "--max-j", "1")
    assert code == 0
    assert len(calls) == 3


def test_su2_coarse_quadrature_fails_loudly(capsys):
    code, _, err = run(capsys, "su2", "--j", "2", "--points", "11")
    assert code == 1
    assert "inconsistency" in err


@pytest.mark.parametrize("field", ["anticommutation_defect", "expectation_flip_defect"])
def test_su2_pass_is_the_two_time_reversal_defects_against_tol(capsys, monkeypatch, field):
    check = threefold.su2.time_reversal_check

    def spoiled(classification, seed):
        report = check(classification, seed=seed)
        return replace(report, **{field: 2e-8}) if classification.j == 1.0 else report

    monkeypatch.setattr(threefold.cli, "time_reversal_check", spoiled)
    code, report, _ = run_json(capsys, "su2", "--max-j", "1.5")
    assert code == 1 and report["pass"] is False
    assert [item["pass"] for item in report["items"]] == [True, True, False, True]
    code, report, _ = run_json(capsys, "--tol", "3e-8", "su2", "--max-j", "1.5")
    assert code == 0 and report["pass"] is True


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["bare", "json"])
def test_su2_with_a_flipped_quadrature_reports_one_inconsistency(capsys, monkeypatch, flags):
    quadrature = threefold.su2.fs_indicator_su2
    monkeypatch.setattr(threefold.su2, "fs_indicator_su2", lambda j, nodes: -quadrature(j, nodes))
    code, out, err = run(capsys, *flags, "su2", "--j", "1")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("inconsistency: ")
    assert "indicator route says" in err


# ---------------------------------------------------------------------------
# jordan
# ---------------------------------------------------------------------------

def test_jordan_exceptional_algebra(capsys):
    code, report, _ = run_json(capsys, "jordan", "--algebra", "hO:3", "--samples", "25")
    assert code == 0
    by_label = {item["label"]: item for item in report["items"]}
    assert by_label["jordan_identity_max"]["value"] < 1e-9
    assert by_label["formal_reality_min"]["value"] > 0.0
    assert "squares_in_cone" not in by_label  # no octonionic eigen-theory


def test_jordan_spin_factor(capsys):
    code, report, _ = run_json(capsys, "jordan", "--algebra", "spin:9", "--samples", "30")
    assert code == 0
    by_label = {item["label"]: item for item in report["items"]}
    assert by_label["lightcone_agreement"]["value"] == 1.0
    assert by_label["unit_trace"]["value"] == 2.0


def test_jordan_hc2_includes_state_check(capsys):
    code, report, _ = run_json(capsys, "jordan", "--algebra", "hC:2", "--samples", "10")
    assert code == 0
    labels = [item["label"] for item in report["items"]]
    assert "max_ignorance_is_half_identity" in labels


# the kinds, seeds and sample counts on which the stacked suite is held to the loop
LOOP_ORACLE_KINDS = ["hR:1", "hR:3", "hC:1", "hC:2", "hC:6", "hH:1", "hH:2", "hH:6", "hO:3",
                     "spin:0", "spin:9"]


def _jordan_args(algebra, seed, samples):
    return SimpleNamespace(algebra=algebra, seed=seed, samples=samples)


@pytest.mark.parametrize("algebra", LOOP_ORACLE_KINDS)
def test_stacked_jordan_suite_equals_the_loop(algebra, monkeypatch):
    for seed in (0, 1, 7):
        for samples in (1, 20, 100):
            args = _jordan_args(algebra, seed, samples)
            assert threefold.cli.cmd_jordan(args) == jordan_suite_loop(args)
    # blocks of 7 samples and a remainder: the block seams change no item
    entries = threefold.jordan.unit(threefold.jordan.parse_kind(algebra)).data.size
    monkeypatch.setattr(threefold.jordan, "_BLOCK_ENTRIES", 7 * entries)
    args = _jordan_args(algebra, 1, 100)
    assert threefold.cli.cmd_jordan(args) == jordan_suite_loop(args)


def test_jordan_peak_memory_does_not_grow_with_samples():
    kind = threefold.jordan.parse_kind("hH:16")
    block = next(threefold.jordan._blocks(kind, 10**9))

    def peak(samples):
        tracemalloc.start()
        try:
            passed, _ = threefold.cli.cmd_jordan(_jordan_args("hH:16", 0, samples))
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passed
        return top

    peak(block)  # fills the lru caches, which would count against the first run only
    assert peak(4 * block) <= 1.25 * peak(block)


def test_jordan_rejects_large_octonionic(capsys):
    code, _, err = run(capsys, "jordan", "--algebra", "hO:4")
    assert code == 2
    code, _, err = run(capsys, "jordan", "--algebra", "nonsense:2")
    assert code == 2


def test_jordan_refusal_of_small_octonionic_names_the_supported_size(capsys):
    code, _, err = run(capsys, "jordan", "--algebra", "hO:2")
    assert code == 2
    assert "hO:3" in err
    assert "up to" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("jordan", "--algebra", "hO:3", "--samples", "0"),
        ("spectrum", "--system", "C", "--trials", "-1"),
        ("functors", "--dim", "-1"),
        ("spectrum", "--dim", "-2"),
    ],
    ids=["jordan-samples-0", "spectrum-trials-neg", "functors-dim-neg", "spectrum-dim-neg"],
)
def test_sizes_and_counts_below_one_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 2
    assert out == ""
    assert "must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--tol", "inf", "spectrum", "--system", "H"),
        ("--tol", "nan", "su2", "--max-j", "1"),
        ("--tol", "-1", "functors"),
        ("--tol", "0", "functors"),
    ],
    ids=["tol-inf", "tol-nan", "tol-neg", "tol-zero"],
)
def test_nonfinite_or_nonpositive_tol_is_a_usage_error(argv, capsys, monkeypatch):
    def verb(args):
        raise AssertionError("a verb ran with an unusable --tol")

    for name in ("cmd_spectrum", "cmd_su2", "cmd_functors"):
        monkeypatch.setattr(threefold.cli, name, verb)
    code, out, err = run(capsys, "--json", *argv)
    assert code == 2
    assert out == ""
    assert "--tol must be a positive finite number" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "fixtures/z3.json"),
        ("su2",),
        ("jordan", "--algebra", "hC:2"),
        ("tensor-table",),
        ("functors",),
        ("spectrum",),
    ],
    ids=["classify", "su2", "jordan", "tensor-table", "functors", "spectrum"],
)
def test_negative_seed_is_a_usage_error(argv, capsys, monkeypatch):
    def verb(args):
        raise AssertionError("a verb ran with a negative --seed")

    for name in ("cmd_classify", "cmd_su2", "cmd_jordan", "cmd_tensor_table", "cmd_functors",
                 "cmd_spectrum"):
        monkeypatch.setattr(threefold.cli, name, verb)
    code, out, err = run(capsys, "--json", "--seed", "-1", *argv)
    assert code == 2
    assert out == ""
    assert "--seed must be a nonnegative integer, got -1" in err


class _Untouchable:
    """Stands in for numpy in the CLI module: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the size was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--system", "H", "--dim", "20000"),
        ("functors", "--dim", "20000"),
        ("jordan", "--algebra", "hH:5000"),
        ("jordan", "--algebra", "spin:5000"),
        ("functors", "--dim", str(MAX_SIZE + 1)),
        ("spectrum", "--system", "R", "--dim", str(MAX_SIZE + 1)),
    ],
    ids=["spectrum-H-20000", "functors-20000", "jordan-hH-5000", "jordan-spin-5000",
         "functors-above-bound", "spectrum-R-above-bound"],
)
def test_oversized_inputs_are_refused_before_any_array_is_built(argv, capsys, monkeypatch):
    monkeypatch.setattr(threefold.cli, "np", _Untouchable())
    code, out, err = run(capsys, "--json", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"largest supported size {MAX_SIZE}" in err


def test_size_refusal_carries_the_size_and_the_bound():
    args = SimpleNamespace(dim=MAX_SIZE + 1, seed=0, tol=1e-8)
    with pytest.raises(PreconditionError) as refused:
        threefold.cli.cmd_functors(args)
    assert (refused.value.defect, refused.value.tol) == (MAX_SIZE + 1, MAX_SIZE)


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize(
    "argv, first_step",
    [
        (("functors", "--dim", str(MAX_SIZE)), "complexify"),
        (("spectrum", "--system", "H", "--dim", str(MAX_SIZE)), "_random_skew"),
        (("jordan", "--algebra", f"hH:{MAX_SIZE}"), "_unit_sample"),
    ],
    ids=["functors", "spectrum", "jordan"],
)
def test_the_bound_itself_is_accepted(argv, first_step, monkeypatch):
    # the first step after the argument checks is stubbed out: reaching it
    # shows the size was accepted, without computing at that size
    monkeypatch.setattr(threefold.cli, first_step, _reached)
    with pytest.raises(_Reached):
        main(list(argv))


# ---------------------------------------------------------------------------
# tensor-table, functors, spectrum
# ---------------------------------------------------------------------------

def test_tensor_table(capsys):
    code, report, _ = run_json(capsys, "tensor-table")
    assert code == 0
    cells = {item["label"]: item for item in report["items"]}
    assert len(cells) == 9
    assert cells["quaternionic (x) quaternionic"]["result"] == "real"
    assert cells["quaternionic (x) quaternionic"]["constructed_sign"] == 1
    assert cells["real (x) complex"]["result"] == "complex"


def test_functors_dimension_laws(capsys):
    code, report, _ = run_json(capsys, "functors", "--dim", "3")
    assert code == 0
    dims = {item["label"]: item["dim_out"] for item in report["items"]}
    assert dims["complex_as_real"] == 6
    assert dims["quaternionic_as_complex"] == 6
    assert dims["quaternionic_as_real"] == 12


def test_spectrum_quaternionic(capsys):
    code, report, _ = run_json(capsys, "spectrum", "--system", "H", "--dim", "2", "--trials", "3")
    assert code == 0
    trials = [item for item in report["items"] if item["label"].startswith("trial")]
    for item in trials:
        w = item["eigenvalues"]
        assert w == sorted(w)
        assert item["pairing_defect"] < 1e-8 or item["pass"]
    assert report["items"][-1]["label"] == "obstruction_witness"


def test_spectrum_complex_has_no_pairing(capsys):
    code, report, _ = run_json(capsys, "spectrum", "--system", "C", "--dim", "3", "--trials", "2")
    assert code == 0
    assert "group_law_defect" in report["items"][0]
    assert "pairing_defect" not in report["items"][0]


def test_spectrum_rejects_unknown_system(capsys):
    code, _, err = run(capsys, "spectrum", "--system", "X")
    assert code == 2


# ---------------------------------------------------------------------------
# report contract
# ---------------------------------------------------------------------------

def test_json_reports_are_deterministic(capsys):
    _, first, _ = run_json(capsys, "--seed", "3", "spectrum", "--system", "R", "--dim", "4")
    _, second, _ = run_json(capsys, "--seed", "3", "spectrum", "--system", "R", "--dim", "4")
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert json.dumps(first) == json.dumps(second)


def test_different_seeds_differ(capsys):
    _, first, _ = run_json(capsys, "--seed", "3", "spectrum", "--system", "R", "--dim", "4")
    _, second, _ = run_json(capsys, "--seed", "4", "spectrum", "--system", "R", "--dim", "4")
    assert first["items"][0]["eigenvalues"] != second["items"][0]["eigenvalues"]


def test_report_schema(capsys):
    code, report, _ = run_json(capsys, "tensor-table")
    assert set(report) == {"command", "pass", "items", "elapsed_ms"}
    assert isinstance(report["elapsed_ms"], int)
    assert isinstance(report["items"], list)


def test_global_flags_accepted_after_subcommand(capsys):
    _, leading, _ = run(capsys, "--json", "--seed", "3", "su2", "--j", "1")
    _, trailing, _ = run(capsys, "su2", "--j", "1", "--json", "--seed", "3")
    leading = json.loads(leading)
    trailing = json.loads(trailing)
    leading.pop("elapsed_ms")
    trailing.pop("elapsed_ms")
    assert leading == trailing


# ---------------------------------------------------------------------------
# the command line against the argparse parser it replaced
# ---------------------------------------------------------------------------

def _readme_argvs():
    lines = (ROOT / "README.md").read_text().splitlines()
    return [line.split("#")[0].split()[1:] for line in lines if line.startswith("threefold ")]


# what the three benchmark workloads run, after run.py's "--json --seed N"
_WORKLOAD_ARGVS = [
    "tensor-table", "functors --dim 3", "su2 --max-j 3", "su2 --max-j 5.5",
    "jordan --algebra spin:9", "jordan --algebra hC:2", "jordan --algebra hH:2",
    "jordan --algebra hH:6 --samples 20", "jordan --algebra hC:6 --samples 20",
    "jordan --algebra hO:3", "functors --dim 32", "spectrum --system H --dim 32 --trials 20",
    "classify work/dic15.json", "classify work/dic31.json",
] + [f"classify fixtures/{name}.json" for name in ("d4", "q8", "s3", "z3", "z5")] + [
    f"spectrum --system {system} --dim 3" for system in "RCH"
]

# words split on spaces, except where a word holds a space or is empty
PARSER_CORPUS = [("--json --seed 1 " + argv).split() for argv in _WORKLOAD_ARGVS] + _readme_argvs() + [
    argv.split() if isinstance(argv, str) else argv for argv in [
        # --opt=value, prefixes, globals after the verb, the last value winning
        "su2 --j=1.5", "--seed=3 jordan --algebra=hC:2 --samples=7",
        "spectrum --system=R --dim=4 --trials=2", "--tol=1e-6 functors --dim=2",
        "--js --se 2 su2 --max 1 --po 11", "jordan --alg hC:2 --sa 5", "jordan --alg=spin:3",
        "spectrum --sy C --tr 2 --di 3 --to 1e-6", "su2 --j 1 --m 2", "su2 --js", "--s 4 tensor-table",
        "su2 --j 1 --json --seed 3", "tensor-table --tol 1e-3 --seed 2", "--seed 1 functors --seed 2",
        "classify fixtures/q8.json --json", "classify --json fixtures/q8.json", "--json --json tensor-table",
        # negative numbers and odd values are values
        "--seed -1 su2", "su2 --j -0.5", "su2 --j -.5", "functors --dim -1", "spectrum --trials -1",
        "classify -1", "jordan --algebra -", "--tol=-inf su2", "--tol nan su2", "--tol inf su2",
        "functors --dim 1_0", ["functors", "--dim", " 3 "], ["classify", "a b.json"],
        ["classify", "-a b.json"], ["classify", ""],
        # unknown verbs and options
        [], "--json", "--seed 3", "nosuchverb", "--json nosuchverb", "su", "tensor",
        "su2 --bogus", "--bogus su2", "su2 --bogus=1", "su2 -x", "tensor-table --dim 3",
        "--points 5 su2", "--json=1 su2", "su2 --json=", "-hx", "--seed=",
        # missing or malformed values
        "su2 --points", "--seed", "jordan --algebra", "su2 --j --json", "su2 --j 1 --j",
        "jordan --algebra --samples 3", "su2 --points abc", "functors --dim 1e3",
        "functors --dim 3.0", "--seed x tensor-table", "su2 --j abc", "--tol abc su2",
        "--tol -inf su2", "--tol -1e-3 functors", "su2 --j=1=2",
        # missing or extra positionals, ambiguous prefixes
        "jordan", "jordan --samples 5", "classify", "classify --json", "classify a b",
        "su2 extra", "tensor-table x", "jordan --algebra hC:2 --s 5", "spectrum --t 3",
        "spectrum --s R",
        # help, and an error that comes before it
        "-h", "--help", "su2 -h", "jordan -h", "classify -h", "--json tensor-table --he",
        "-h nosuchverb", "su2 --bogus -h", "nosuchverb -h", "su2 --points abc -h",
    ]
]


def _argparse_outcome(argv, capsys):
    """argparse's namespace as a dict, or its exit code."""
    try:
        namespace = build_parser().parse_args(argv)
    except SystemExit as exit:
        capsys.readouterr()
        return exit.code
    values = vars(namespace)
    values["func"] = values["func"].__name__
    return values


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=[" ".join(argv) or "<empty>" for argv in PARSER_CORPUS])
def test_table_parser_agrees_with_argparse(argv, capsys, monkeypatch):
    def verb(args):
        raise AssertionError("a verb ran on an argv that argparse refuses")

    for func, *_ in VERBS.values():
        monkeypatch.setattr(threefold.cli, func, verb)
    expected = _argparse_outcome(argv, capsys)
    if expected == 0:  # help
        assert parse_args(argv) is None
        assert capsys.readouterr().out.startswith("usage: threefold")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: threefold")
    elif expected == 2:
        with pytest.raises(UsageError):
            parse_args(argv)
        for args in (argv, ["--json", *argv]):
            code, out, err = run(capsys, *args)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "Traceback" not in err
    else:
        args = parse_args(argv)
        assert VERBS[args.command][0] == expected.pop("func")
        # repr tells 3 from 3.0 and finds nan equal to nan
        assert {k: repr(v) for k, v in vars(args).items()} == {k: repr(v) for k, v in expected.items()}


def test_double_dash_ends_the_options():
    assert parse_args(["classify", "--", "-x.json"]).file == "-x.json"
    with pytest.raises(UsageError, match="unrecognized arguments: --j 1"):
        parse_args(["su2", "--", "--j", "1"])


def test_help_lists_every_verb_and_argument():
    whole = threefold.cli.help_text()
    for verb, (_, _, positionals, options) in VERBS.items():
        assert f"  {verb}" in whole
        text = threefold.cli.help_text(verb)
        assert text.startswith(f"usage: threefold {verb}")
        for name, *_ in positionals:
            assert name.upper() in text
        for name, *_ in options + threefold.cli.GLOBAL_OPTIONS:
            assert f"--{name}" in text


# ---------------------------------------------------------------------------
# one error path: every package error leaves main with its stated exit code
# ---------------------------------------------------------------------------

# InternalInconsistencyError and DegenerateFormError are self-consistency
# failures (exit 1); every other package error and OSError is exit 2
ERROR_CLASSES = sorted(
    (cls for cls in vars(threefold.errors).values()
     if isinstance(cls, type) and issubclass(cls, threefold.errors.ThreefoldError)),
    key=lambda cls: cls.__name__,
) + [UsageError, OSError]
SELF_CONSISTENCY = (threefold.errors.InternalInconsistencyError, threefold.errors.DegenerateFormError)


def test_every_package_error_derives_from_one_base():
    errors = threefold.errors
    assert len(ERROR_CLASSES) == 12
    for cls in ERROR_CLASSES[:-1]:
        assert issubclass(cls, errors.ThreefoldError)
        if cls not in (errors.ThreefoldError, UsageError):
            assert issubclass(cls, (ValueError, AssertionError, NotImplementedError))
        if cls not in (errors.ParseError, errors.ReducibleError):
            err = cls("boom", 1.0, 0.5)
            assert (err.message, str(err), err.defect, err.tol) == ("boom", "boom", 1.0, 0.5)
    err = errors.ParseError("bad", 3, 7)
    assert (err.message, err.line, err.column, err.defect) == ("bad (line 3, column 7)", 3, 7, None)
    err = errors.ReducibleError(4)
    assert (err.commutant, err.defect, err.tol) == (4, None, None)


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["bare", "json"])
@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_class_exits_with_its_code_and_no_traceback(cls, flags, capsys, monkeypatch):
    def raiser(args):
        raise cls(3) if cls is threefold.errors.ReducibleError else cls("boom")

    monkeypatch.setattr(threefold.cli, "cmd_tensor_table", raiser)
    code, out, err = run(capsys, *flags, "tensor-table")
    expected = (1, "inconsistency: ") if issubclass(cls, SELF_CONSISTENCY) else (2, "error: ")
    assert code == expected[0]
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(expected[1])
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["bare", "json"])
def test_closed_stdout_exits_with_its_code_and_no_traceback(flags):
    # the report (over 100 KB) outgrows the pipe's buffer, so the command is
    # still writing when the reader closes the pipe after the first bytes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [*flags, "spectrum", "--system", "R", "--dim", "64", "--trials", "80"]
    proc = subprocess.Popen([sys.executable, "-m", "threefold.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    finally:
        proc.wait(timeout=120)
        proc.stderr.close()
    assert proc.returncode == EXIT_CLOSED_STDOUT == 141
    assert err == ""


# one short run of each verb; a verb missing here fails its case with a KeyError
CLOSED_STDOUT_ARGVS = {
    "classify": ["classify", "fixtures/s3.json"],
    "su2": ["su2", "--max-j", "1"],
    "jordan": ["jordan", "--algebra", "spin:3"],
    "tensor-table": ["tensor-table"],
    "functors": ["functors", "--dim", "2"],
    "spectrum": ["spectrum", "--dim", "2"],
}


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["bare", "json"])
@pytest.mark.parametrize("verb", list(VERBS))
def test_stdout_closed_before_the_first_write_exits_141_for_every_verb(verb, flags):
    # the read end is closed before the command starts, so its first write
    # fails however short the report is
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "threefold.cli", *flags, *CLOSED_STDOUT_ARGVS[verb]],
                              cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CLOSED_STDOUT
    assert proc.stderr == b""

"""Command-line interface: verbs, report schema, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

import threefold.cli
import threefold.representations
import threefold.su2
from threefold.cli import main
from threefold.groups import standard_fixtures
from threefold.hilbert import MAX_SIZE
from threefold.representations import (
    MAX_ORDER,
    commutant_dimension,
    direct_sum,
    dump_rep_file,
    load_rep_file,
)
from threefold.su2 import classify_spin

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


@pytest.mark.parametrize("argv", [("--j", "200.5"), ("--max-j", "1000"), ("--j", "inf")])
def test_su2_refuses_unsupported_spins_before_computing(capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(threefold.cli, "classify_spin", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "su2", *argv)
    assert code == 2
    assert calls == []
    assert err.startswith("error:")


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

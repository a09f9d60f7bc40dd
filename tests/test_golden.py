"""The CLI still prints the golden corpus, tests/golden/corpus.json.

``tests/golden/generate.py`` wrote the corpus and holds its argv list: the
benchmark workloads at ``--json --seed 1``, CI's multi-block jordan runs,
and CI's help and usage errors.  Each argv runs here in process, from the
repository root, under the suite's warnings-as-errors.

Exit codes, stderr, the text of a stdout without a report, and every
label, kind, verdict, string and integer of a report compare exactly, as do
the report's keys and their order.  A float compares bit for bit where the
code promises it so (``EXACT_KEYS`` and ``EXACT_LABELS``); every other float
within ``REL`` times max(1, |expected|).  The CLI's samples and operands are
of unit scale, so that holds a defect at rounding level to REL absolute and
a larger value to REL of itself.  README promises byte-identical output only
under one BLAS library and thread count, and the bound leaves room for
another.
"""

import importlib.util
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

CORPUS = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))

REL = 1e-9

# the report floats promised bit for bit: su2's two time-reversal defects are
# exactly 0 at every spin (J is a signed permutation), jordan holds its unit
# trace and the hC:2 maximal-ignorance state to a bound of 0, and its two
# verdicts over many samples are reported as 1.0 or 0.0
EXACT_KEYS = {"su2": {"time_reversal_defect", "expectation_flip_defect"}}
EXACT_LABELS = {"jordan": {"unit_trace", "max_ignorance_is_half_identity", "squares_in_cone",
                           "lightcone_agreement"}}


def _same(want, got, exact):
    if type(want) is not type(got):
        return False
    if isinstance(want, list):
        return len(want) == len(got) and all(_same(w, g, exact) for w, g in zip(want, got))
    if not isinstance(want, float):
        return want == got
    if exact:
        return struct.pack("<d", want) == struct.pack("<d", got)
    return want == got or (math.isnan(want) and math.isnan(got)) or abs(got - want) <= REL * max(1.0, abs(want))


def mismatches(want, got):
    """Where report ``got`` differs from the golden report ``want``, as a list of paths."""
    if list(want) != list(got):
        return [f"keys {list(got)} != {list(want)}"]
    found = [key for key in want if key != "items" and not _same(want[key], got[key], True)]
    if len(want["items"]) != len(got["items"]):
        return found + [f"{len(got['items'])} items != {len(want['items'])}"]
    command = want["command"]
    for index, (w_item, g_item) in enumerate(zip(want["items"], got["items"])):
        if list(w_item) != list(g_item):
            found.append(f"items[{index}] keys {list(g_item)} != {list(w_item)}")
            continue
        exact_item = w_item["label"] in EXACT_LABELS.get(command, ())
        for key, value in w_item.items():
            exact = exact_item or key in EXACT_KEYS.get(command, ())
            if not _same(value, g_item[key], exact):
                found.append(f"items[{index}] ({w_item['label']}) {key}: {g_item[key]!r} != {value!r}")
    return found


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    generate.write_inputs(str(tmp))
    return str(tmp)


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(entry["argv"]) for entry in CORPUS])
def test_the_cli_prints_the_golden_corpus(entry, inputs, monkeypatch):
    monkeypatch.chdir(generate.ROOT)
    got = generate.run(tuple(entry["argv"]), inputs)
    assert (got["exit"], got["stderr"]) == (entry["exit"], entry["stderr"])
    if "report" in entry:
        assert mismatches(entry["report"], got["report"]) == []
    else:
        assert got["stdout"] == entry["stdout"]


def test_the_corpus_holds_the_generators_argv(inputs):
    assert [tuple(entry["argv"]) for entry in CORPUS] == generate.argvs(inputs)


def _report(command, label):
    for entry in CORPUS:
        report = entry.get("report")
        if report and report["command"] == command and any(i["label"] == label for i in report["items"]):
            return report
    raise LookupError(label)


def _changed(report, label, key, change):
    copy = json.loads(json.dumps(report))
    item = next(item for item in copy["items"] if item["label"] == label)
    item[key] = change(item[key])
    return copy


def test_a_renamed_label_fails():
    report = _report("jordan", "trace_symmetry_max")
    assert mismatches(report, _changed(report, "trace_symmetry_max", "label", lambda _: "trace_symmetry"))


@pytest.mark.parametrize("command, label, key", [
    ("su2", "j=1.5", "time_reversal_defect"),
    ("su2", "j=2", "expectation_flip_defect"),
    ("jordan", "unit_trace", "value"),
    ("jordan", "squares_in_cone", "value"),
])
def test_a_one_ulp_change_to_a_bit_exact_float_fails(command, label, key):
    report = _report(command, label)
    for direction in (-np.inf, np.inf):
        changed = _changed(report, label, key, lambda v: float(np.nextafter(v, direction)))
        assert mismatches(report, changed)


def test_a_float_without_that_promise_is_held_to_the_stated_bound():
    report = _report("jordan", "dual_cone_margin")
    value = next(i["value"] for i in report["items"] if i["label"] == "dual_cone_margin")
    bound = REL * max(1.0, abs(value))
    assert not mismatches(report, _changed(report, "dual_cone_margin", "value", lambda v: v + 0.5 * bound))
    assert mismatches(report, _changed(report, "dual_cone_margin", "value", lambda v: v + 2.0 * bound))

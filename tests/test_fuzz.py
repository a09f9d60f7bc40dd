"""Seeded mutation fuzzing of the command line: every case ends in exit 0, 1 or 2.

The inputs are the shipped fixtures and a Dic_15 file from
``benchmarks/dicyclic.py``, each damaged by one mutation, plus random
command lines that start no large computation.  Every case runs through
``threefold.cli.main`` in process.  It must return 0, 1 or 2 without raising
(and, under the suite's ``filterwarnings = error``, without a warning).  A
report ends its stdout; otherwise stdout is empty and stderr holds one line:
``error: ...`` for exit 2, ``inconsistency: ...`` for exit 1.

The generator is seeded, so every run tries the same cases.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from threefold.cli import GLOBAL_OPTIONS, VERBS, UsageError, main, parse_args

ROOT = Path(__file__).resolve().parent.parent
FUZZ_SEED = 1101
FIXTURES = ("z3", "z5", "s3", "q8", "d4")
REPORT_KEYS = {"command", "pass", "items", "elapsed_ms"}

# one mutation per case; each returns the damaged file text
MUTATIONS = ("nan", "inf", "huge", "bool", "bad_kind", "delete_key", "duplicate_key",
             "ragged", "swap", "truncate", "rotate")
WRONG_VALUES = ("x", None, {}, [], [[1]], -1, 0, 2**40, 0.5, [0.0, 0.0])

# option values as (valid, malformed or just past a bound); none starts a
# large computation
VALUES = {
    "j": (("0", "0.5", "1", "2.5"), ("-1", "0.3", "nan", "inf", "1e308", "x", "")),
    "max-j": (("0", "1", "1.5"), ("-0.5", "201", "nan", "x")),
    "algebra": (("hR:2", "hC:2", "hH:2", "hO:3", "spin:3"),
                ("hO:4", "hR:0", "hX:2", "spin", "hR:513", "spin:-1", "")),
    "samples": (("1", "3"), ("0", "-1", "x")),
    "dim": (("1", "2", "3"), ("0", "-2", "513", "x")),
    "system": (("R", "C", "H"), ("X", "h", "")),
    "trials": (("1", "2"), ("0", "x")),
    "seed": (("0", "7"), ("-1", "x", "1e3")),
    "tol": (("1e-8", "0.5"), ("0", "-1", "inf", "nan", "x")),
    "file": (("fixtures/z3.json", "fixtures/q8.json"), ("fixtures/nosuch.json", "fixtures", "")),
}
JUNK_WORDS = ("--nosuch", "extra", "--", "-x", "--js", "--json=1", "--dim")


def _pick(rng, seq):
    return seq[rng.integers(len(seq))]


def _path_to(rng, doc, stop=0.0):
    """Keys of a random node of ``doc``: a leaf, or with chance ``stop`` per level an inner node."""
    path, node = [], doc
    while isinstance(node, (list, dict)) and node and rng.random() >= stop:
        key = _pick(rng, list(node)) if isinstance(node, dict) else int(rng.integers(len(node)))
        path.append(key)
        node = node[key]
    return path


def _replaced(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _reps(doc):
    return [r for r in doc.get("reps", []) if isinstance(r, dict) and r.get("matrices")]


def mutate(rng, text, mutation):
    """``text`` (a rep file) with one ``mutation`` applied."""
    doc = json.loads(text)
    if mutation in ("nan", "inf", "huge", "bool"):
        sign = _pick(rng, (1.0, -1.0))
        value = {"nan": float("nan"), "inf": sign * float("inf"), "huge": sign * 1e308,
                 "bool": bool(rng.integers(2))}[mutation]
        doc = _replaced(doc, _path_to(rng, doc), value)
    elif mutation == "bad_kind":
        doc = _replaced(doc, _path_to(rng, doc, stop=0.3), _pick(rng, WRONG_VALUES))
    elif mutation == "delete_key":
        owner = _pick(rng, [doc] + doc["reps"])
        del owner[_pick(rng, list(owner))]
    elif mutation == "duplicate_key":
        # json keeps the last of two equal keys, so the first one written is the damage
        key = _pick(rng, list(doc))
        other = doc[_pick(rng, list(doc))]
        return "{" + f"{json.dumps(key)}: {json.dumps(other)}, " + json.dumps(doc)[1:]
    elif mutation == "ragged":
        rows = _pick(rng, [doc["mult"]] + [r["matrices"][0] for r in _reps(doc)])
        row = _pick(rng, rows)
        row.pop(int(rng.integers(len(row))))
    elif mutation == "swap":
        table = doc["mult"]
        (a, b), (c, d) = rng.integers(len(table), size=(2, 2)).tolist()
        table[a][b], table[c][d] = table[c][d], table[a][b]
    elif mutation == "truncate":
        return text[: int(rng.integers(len(text)))]
    elif mutation == "rotate":
        rep = _pick(rng, _reps(doc))
        g = int(rng.integers(len(rep["matrices"])))
        m = np.array(rep["matrices"][g])
        rotated = (m[..., 0] + 1j * m[..., 1]) * np.exp(1e-9j)
        rep["matrices"][g] = np.stack([rotated.real, rotated.imag], axis=-1).tolist()
    return json.dumps(doc)


def _value(rng, name):
    # a valid value three times in four
    return _pick(rng, VALUES[name][rng.random() < 0.25])


def random_argv(rng):
    """A command line over the six verbs and the global options, in random order."""
    verb = _pick(rng, list(VERBS))
    _, _, positionals, options = VERBS[verb]
    groups = [[verb] + [_value(rng, name) for name, _ in positionals if rng.random() < 0.9]]
    for name, kind, _, _ in options + GLOBAL_OPTIONS:
        if rng.random() < 0.5:
            continue
        if kind is bool:
            groups.append([f"--{name}"])
        elif rng.random() < 0.2:
            groups.append([f"--{name}={_value(rng, name)}"])
        else:
            groups.append([f"--{name}", _value(rng, name)])
    if rng.random() < 0.1:
        groups.append([_pick(rng, JUNK_WORDS)])
    order = rng.permutation(len(groups))
    return [word for i in order for word in groups[i]]


def check_case(argv, code, out, err):
    try:
        as_json = parse_args(argv).json
    except UsageError:
        as_json = False
    where = f"argv {argv}: exit {code}, stdout {out[:200]!r}, stderr {err[:200]!r}"
    assert code in (0, 1, 2), where
    if out:
        assert code in (0, 1) and err == "", where
        if as_json:
            report = json.loads(out)
            assert set(report) == REPORT_KEYS, where
            assert report["pass"] is (code == 0), where
        else:
            assert out.splitlines()[-1] == ("PASS" if code == 0 else "FAIL"), where
    else:
        lines = err.splitlines()
        assert len(lines) == 1, where
        assert lines[0].startswith("error: " if code == 2 else "inconsistency: "), where


def run_case(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    check_case(argv, code, out.out, out.err)
    return code


def fuzz_file(capsys, tmp_path, source, cases, seed):
    rng = np.random.default_rng([FUZZ_SEED, seed])
    text = Path(source).read_text(encoding="utf-8")
    codes = set()
    for case in range(cases):
        mutation = MUTATIONS[case % len(MUTATIONS)]
        path = tmp_path / f"{case}-{mutation}.json"
        path.write_text(mutate(rng, text, mutation), encoding="utf-8")
        argv = ["classify", str(path)]
        if rng.random() < 0.75:
            argv.insert(int(rng.integers(3)), "--json")
        codes.add(run_case(capsys, argv))
    return codes


@pytest.mark.parametrize("name", FIXTURES)
def test_mutated_fixture_exits_0_1_or_2_with_a_report_or_one_error_line(name, capsys, tmp_path):
    codes = fuzz_file(capsys, tmp_path, ROOT / "fixtures" / f"{name}.json", 44, FIXTURES.index(name) + 1)
    # the mutations reach past the loader: some files still classify
    assert 2 in codes and codes & {0, 1}


def test_mutated_dicyclic_file_exits_0_1_or_2_with_a_report_or_one_error_line(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("dicyclic", ROOT / "benchmarks" / "dicyclic.py")
    dicyclic = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(dicyclic)
    source = tmp_path / "dic15.json"
    dicyclic.write_rep_file(source, 15, 1)
    codes = fuzz_file(capsys, tmp_path, source, 22, 15)
    assert 2 in codes and codes & {0, 1}


def test_random_command_line_exits_0_1_or_2_with_a_report_or_one_error_line(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    rng = np.random.default_rng([FUZZ_SEED, 0])
    codes = [run_case(capsys, random_argv(rng)) for _ in range(80)]
    assert 0 in codes and 2 in codes

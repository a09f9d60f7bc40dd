"""The golden CLI corpus: a fixed argv list and what the CLI prints for each.

Run from the repository root after a change that moves a report on purpose:

    PYTHONPATH=src python tests/golden/generate.py

It rewrites ``tests/golden/corpus.json`` with each argv's exit code, its
stderr, and its stdout: the ``--json`` report without ``elapsed_ms``, or the
text as printed where the argv has no report (help and usage errors).
``tests/test_golden.py`` runs the same argv in process and compares.

The argv are the benchmark workloads' at ``--json --seed 1`` (the Dic_15 and
Dic_31 files written by ``benchmarks/dicyclic.py`` at seed 1), the jordan
runs of CI's size-bound step that span many sample blocks, and CI's help
and usage-error command lines.  An argv word or output that names a file in
the temporary directory holds ``{tmp}`` in its place.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "corpus.json"
TMP = "{tmp}"

sys.path.insert(0, str(ROOT / "benchmarks"))
import dicyclic  # noqa: E402
import workloads  # noqa: E402

from threefold.cli import main  # noqa: E402

REPORT = ("--json", "--seed", "1")

# the size-bound step's jordan argv; its size-512 argv take seconds each and stay in CI
MULTI_BLOCK = (
    ("jordan", "--algebra", "hO:3", "--samples", "5000"),
    ("jordan", "--algebra", "spin:200", "--samples", "5000"),
    ("jordan", "--algebra", "hH:16", "--samples", "500"),
)

HELP = (("-h",),) + tuple((verb, "-h") for verb in
                          ("classify", "su2", "jordan", "tensor-table", "functors", "spectrum"))

USAGE_ERRORS = (
    ("nosuchverb",), ("tensor-table", "--tol", "1e-3"), ("su2", "--tol", "1e-3"),
    ("classify", "fixtures/z3.json", "--tol", "1e-3"), ("jordan",), ("jordan", "--algebra", "hC:²"),
    ("classify", "does-not-exist.json"),
    ("--tol", "inf", "tensor-table"), ("su2", "--tol", "inf"), ("--seed", "-1", "tensor-table"),
    ("su2", "--j", "inf"), ("su2", "--max-j", "201"),
    ("classify", f"{TMP}/oversize.json"), ("classify", f"{TMP}/dim513.json"),
    ("classify", f"{TMP}/huge.json"), ("classify", f"{TMP}/infinite.json"),
    ("classify", f"{TMP}/nan.json"), ("classify", f"{TMP}/named.json"),
    ("classify", f"{TMP}/identity1e308.json"),
    ("--tol", "1e-3", "su2"), ("--dim", "3", "functors"),
)


def write_inputs(tmp):
    """Write the files the argv name under ``tmp``: the Dic_n files and CI's bad classify inputs."""
    for n in workloads.DICYCLIC_N:
        dicyclic.write_rep_file(os.path.join(tmp, f"dic{n}.json"), n, 1)
    with open(os.path.join(tmp, "oversize.json"), "wb") as fh:
        fh.truncate(16 * 2**20 + 1)  # one byte over representations.MAX_FILE_BYTES, sparse
    for name, doc in (
        ("dim513", {"order": 1, "mult": [[0]], "reps": [{"name": "big", "dim": 513, "matrices": []}]}),
        ("identity1e308", {"order": 1, "mult": [[0]],
                           "reps": [{"name": "x", "dim": 1, "matrices": [[[[1e308, 0]]]]}]}),
    ):
        with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    # fixtures/q8.json with one entry set to 1e308, Infinity or NaN, or a rep named [1]
    for name, key, value in (("huge", "entry", 1e308), ("infinite", "entry", float("inf")),
                             ("nan", "entry", float("nan")), ("named", "name", [1])):
        with open(ROOT / "fixtures" / "q8.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        if key == "name":
            doc["reps"][0]["name"] = value
        else:
            doc["reps"][1]["matrices"][1][0][0][0] = value
        with open(os.path.join(tmp, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def argvs(tmp):
    """Every argv of the corpus, in order, with ``{tmp}`` for the directory ``tmp``."""
    cases = []
    for workload in workloads.WORKLOADS.values():  # classify-scaled writes its Dic_n files
        cases += [REPORT + case.argv for case in workload.build(1, tmp)]
    cases = [tuple(word.replace(tmp + os.sep, f"{TMP}/") for word in argv) for argv in cases]
    return cases + [REPORT + argv for argv in MULTI_BLOCK] + list(HELP) + list(USAGE_ERRORS)


def run(argv, tmp):
    """Run one argv in process from the repository root; return its corpus entry."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([word.replace(TMP, tmp) for word in argv])
    entry = {"argv": list(argv), "exit": code, "stderr": stderr.getvalue().replace(tmp, TMP)}
    text = stdout.getvalue().replace(tmp, TMP)
    if "--json" in argv and text:
        report = json.loads(text)
        del report["elapsed_ms"]
        entry["report"] = report
    else:
        entry["stdout"] = text
    return entry


def build():
    """The corpus as the working tree prints it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        os.chdir(ROOT)
        try:
            return [run(argv, tmp) for argv in argvs(tmp)]
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    corpus = build()
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(corpus)} argv to {CORPUS.relative_to(ROOT)}")

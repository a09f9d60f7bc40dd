"""Import hygiene: the runtime needs numpy alone, and main() imports nothing.

Each check runs in a fresh interpreter, so modules already loaded by pytest
or by other tests cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one small invocation of every verb
VERB_ARGVS = [
    ["tensor-table"],
    ["classify", "fixtures/s3.json"],
    ["functors", "--dim", "3"],
    ["spectrum", "--system", "R", "--dim", "3"],
    ["spectrum", "--system", "C", "--dim", "3"],
    ["spectrum", "--system", "H", "--dim", "3"],
    ["su2", "--max-j", "1"],
    ["jordan", "--algebra", "spin:3"],
    ["jordan", "--algebra", "hC:2"],
    ["-h"],
] + [[verb, "-h"] for verb in ("classify", "su2", "jordan", "tensor-table", "functors", "spectrum")]


def run_fresh(code):
    """Run ``code`` in a new interpreter with src/ on the path; return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    loaded = run_fresh(
        "import json, sys\n"
        "import threefold\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    assert loaded == []


def test_cli_import_loads_no_argument_parsing_library():
    # the command line is read from the verb table; argparse would bring
    # gettext and locale with it
    loaded = run_fresh(
        "import json, sys\n"
        "import threefold.cli\n"
        "print(json.dumps(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules)))\n"
    )
    assert loaded == []


def test_main_imports_no_module_for_any_verb():
    added = run_fresh(
        "import contextlib, io, json, sys\n"
        "import threefold.cli\n"
        f"argvs = {VERB_ARGVS!r}\n"
        "added = {}\n"
        "for argv in argvs:\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = threefold.cli.main(argv)\n"
        "    added[' '.join(argv)] = [code, sorted(set(sys.modules) - before)]\n"
        "print(json.dumps(added))\n"
    )
    assert added == {" ".join(argv): [0, []] for argv in VERB_ARGVS}

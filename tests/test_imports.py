"""Import hygiene: the runtime needs numpy alone, the package resolves its
public names on first use, and main() imports nothing.

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


# the public names by defining module, as the package exported them when it
# imported every module eagerly: the oracle for the lazy table in __init__
EXPORTS = {
    "scalars": ["COMPLEXES", "QUATERNIONS", "REALS", "Octonion", "Quaternion", "ScalarSystem"],
    "hilbert": ["KMatrix", "KVector"],
    "structures": ["AntilinearMap", "RepKind", "classify_tensor", "complexify", "quaternify",
                   "quaternify_real", "tensor_antilinear", "underlying_complex",
                   "underlying_real", "underlying_real_quat"],
    "representations": ["FiniteGroup", "FiniteGroupRep", "classify", "fs_indicator_finite",
                        "invariant_bilinear_form", "structure_map"],
    "su2": ["classify_spin", "fs_indicator_su2", "time_reversal_check"],
    "jordan": ["JordanElement", "JordanState", "h2_spin_isomorphism", "hermitian_kind",
               "jordan_product", "max_ignorance", "spin_kind"],
    "spectra": ["OneParamGroup", "exp_group", "quaternionic_obstruction_witness", "split_iA",
                "symmetric_spectrum_check"],
}
CLI_MODULES = ["threefold", "threefold.cli", "threefold.errors", "threefold.hilbert",
               "threefold.jordan", "threefold.representations", "threefold.scalars",
               "threefold.spectra", "threefold.structures", "threefold.su2"]

# prints the threefold modules and whether numpy is loaded
LOADED = (
    "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'threefold'),"
    " 'numpy' in sys.modules]))\n"
)


def test_package_import_loads_no_submodule_and_no_numpy():
    assert run_fresh("import json, sys\nimport threefold\n" + LOADED) == [["threefold"], False]


def test_one_public_name_loads_only_its_module():
    loaded = run_fresh("import json, sys\nfrom threefold import Quaternion\n" + LOADED)
    assert loaded == [["threefold", "threefold.scalars"], True]


def test_cli_import_loads_every_module_its_verbs_use():
    assert run_fresh("import json, sys\nimport threefold.cli\n" + LOADED) == [CLI_MODULES, True]


def test_public_names_resolve_to_their_defining_modules():
    report = run_fresh(
        "import importlib, json, threefold\n"
        "listed = dir(threefold)\n"
        f"exports = {EXPORTS!r}\n"
        "same = {name: getattr(threefold, name) is getattr(importlib.import_module("
        "'threefold.' + module), name) for module, names in exports.items() for name in names}\n"
        "home = {name: getattr(threefold, name).__module__ for name in threefold.__all__"
        " if callable(getattr(threefold, name))}\n"
        "kept = sorted(name for name in threefold.__all__ if name in vars(threefold))\n"
        "print(json.dumps([sorted(threefold.__all__), listed, same, home, kept,"
        " threefold.su2.classify_spin is threefold.classify_spin]))\n"
    )
    names, listed, same, home, kept, submodule = report
    assert names == sorted(n for ns in EXPORTS.values() for n in ns) and len(names) == 39
    assert set(names) <= set(listed)
    assert same == dict.fromkeys(names, True)
    owner = {name: f"threefold.{module}" for module, ns in EXPORTS.items() for name in ns}
    assert home == {name: owner[name] for name in home}
    # a resolved name is kept in the package namespace
    assert kept == names
    assert submodule


def test_unknown_name_raises_attribute_error():
    report = run_fresh(
        "import json, threefold\n"
        "out = []\n"
        "for name in ('nosuch', 'MAX_SIZE', '_kproduct'):\n"
        "    try:\n"
        "        getattr(threefold, name)\n"
        "    except AttributeError as err:\n"
        "        out.append(str(err))\n"
        "try:\n"
        "    from threefold import nosuch\n"
        "except ImportError:\n"
        "    out.append('ImportError')\n"
        "print(json.dumps(out))\n"
    )
    assert report == [f"module 'threefold' has no attribute {name!r}"
                      for name in ("nosuch", "MAX_SIZE", "_kproduct")] + ["ImportError"]


def test_import_loads_no_scipy():
    # `import threefold` alone loads nothing, so every module is named here
    loaded = run_fresh(
        "import json, sys\n"
        "from threefold import *\n"
        "import threefold.cli, threefold.groups\n"
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

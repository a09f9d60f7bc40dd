"""Command-line front end: classification and verification suites.

Verbs:
  classify FILE     classify every representation in a group file
  su2               spin-j table: Frobenius-Schur indicator vs structure maps
  jordan            Jordan-algebra law and state-machinery suite
  tensor-table      the 3x3 kind multiplication table, verified
  functors          scalar-conversion functor laws on random operators
  spectrum          symmetric-spectrum checks on random generators

Every verb emits a report; with --json the report is the single JSON object
{"command", "pass", "items", "elapsed_ms"}.  Identical inputs and seed give
byte-identical JSON except for elapsed_ms, under the same BLAS library and
thread count.  Exit codes: 0 all checks pass, 1 a check failed or a
self-consistency error, 2 any other package error (usage, input,
precondition) or an OSError (see threefold.errors), and
EXIT_CLOSED_STDOUT = 141 when stdout was closed before the report was
written.

An item's pass that holds a value to a bound comes from hilbert._within,
inclusive, a NaN failing; su2 holds its two time-reversal defects to 0.

The command line is read by parse_args from one table, VERBS (with
GLOBAL_OPTIONS), which also writes the -h text.  --tol is an option of the
two verbs that hold defects to it: functors and spectrum.  A malformed
command line raises UsageError, which leaves through main like every other
input error: "error: ..." on stderr, nothing on stdout, exit code 2.  -h
prints help and main returns 0.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from types import SimpleNamespace

import numpy as np
from numpy.random import default_rng

from .errors import (
    InternalInconsistencyError,
    PreconditionError,
    ReducibleError,
    ThreefoldError,
    ValidationError,
)
from .hilbert import MAX_SIZE, KMatrix, _within, eigh_complex
from .jordan import (
    _blockwise,
    _identity_residual,
    cone_margin,
    dual_cone_margin,
    from_coords,
    is_positive,
    jordan_product,
    max_ignorance,
    parse_kind,
    random_positive,
    state_eval,
    trace,
    trace_inner,
    unit,
)
from .representations import (
    RepKind,
    classify,
    fs_indicator_finite,
    load_rep_file,
)
from .scalars import COMPLEXES, QUATERNIONS, SYSTEMS, _dots, _norms
from .spectra import exp_group, quaternionic_obstruction_witness, split_iA, symmetric_spectrum_check
from .structures import (
    classify_tensor,
    complexify,
    quaternify,
    quaternify_real,
    structure_defect,
    tensor_antilinear,
    underlying_complex,
    underlying_real,
    underlying_real_quat,
)
from .su2 import classify_spin, time_reversal_check, twice_spin

__all__ = ["main"]

# exit code when stdout is closed before the report is written, as by
# `| head`: 128 + SIGPIPE, what a shell shows for a program SIGPIPE ended
EXIT_CLOSED_STDOUT = 141


class UsageError(ThreefoldError):
    """The command line is malformed."""


def _require_positive(args, *names):
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise UsageError(f"--{name} must be at least 1, got {value}")


def _require_size(label, n):
    # refused before any array is built, so an oversized request exits 2
    # instead of dying in numpy with a MemoryError or an OOM kill
    if n > MAX_SIZE:
        raise PreconditionError(f"{label} is above the largest supported size {MAX_SIZE}", n, MAX_SIZE)


def _fmt(value):
    if isinstance(value, float):
        rounded = round(value, 6)
        if rounded == 0.0:
            rounded = 0.0  # avoid displaying -0.000000
        return f"{rounded:.6f}"
    return str(value)


def _print_items(items):
    for item in items:
        fields = " ".join(
            f"{k}={_fmt(v)}" for k, v in item.items() if k not in ("label", "pass")
        )
        status = "ok" if item["pass"] else "FAIL"
        print(f"{item['label']}: {fields} [{status}]")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args):
    group, reps = load_rep_file(args.file)
    items = []
    for name, rep in reps:
        item = {"label": name, "dim": int(rep.dim), "commutant": 1, "fs": fs_indicator_finite(rep)}
        try:
            # classify raises InternalInconsistencyError when its two routes disagree
            kind = classify(rep)
        except ReducibleError as err:
            item["commutant"] = int(err.commutant)
            item["kind"] = "reducible"
        else:
            item["kind"] = str(kind)
            item["j_square"] = kind.value or None
        item["pass"] = True
        items.append(item)
    return items


# ---------------------------------------------------------------------------
# su2
# ---------------------------------------------------------------------------

def cmd_su2(args):
    # refused before any spin runs
    top = twice_spin(args.max_j if args.j is None else args.j)
    twice_values = range(top + 1) if args.j is None else [top]
    items = []
    for twice in twice_values:
        j = twice / 2.0
        result = classify_spin(j)
        # classify_spin and time_reversal_check raise on every other check
        reversal = time_reversal_check(result)
        defects = np.array([reversal.anticommutation_defect, reversal.expectation_flip_defect])
        items.append(
            {
                "label": f"j={j:g}",
                "dim": twice + 1,
                "fs": float(result.fs),
                "kind": str(result.kind),
                "j_square": result.kind.value,
                "time_reversal_defect": float(reversal.anticommutation_defect),
                "expectation_flip_defect": float(reversal.expectation_flip_defect),
                "rotation_2pi_phase": int(reversal.rotation_2pi_phase),
                "pass": _within(defects, 0.0),
            }
        )
    return items


# ---------------------------------------------------------------------------
# jordan
# ---------------------------------------------------------------------------

# cmd_jordan's bounds, all absolute: its samples are unit vectors (the
# light-cone check's are not, and it compares signs only)
_IDENTITY_TOL = 1e-9  # |(a^2 o b) o a - a^2 o (b o a)|
_POWER_TOL = 1e-10  # |a^2 o a^2 - a o (a o a^2)|
_SYMMETRY_TOL = 1e-12  # |<a, b> - <b, a>|
_EVAL_TOL = 1e-12  # |<a> in the maximal-ignorance state - trace(a) / trace(1)|
_SQUARE_MIN = -1e-9  # the cone margin of a^2, positive up to rounding, is at least it
# formal reality, trace(a^2), and the dual cone margin are at least it: > 0 on every float
_POSITIVE_MIN = np.nextafter(0.0, 1.0)


def _unit_sample(kind, rng, shape):
    """Coordinate vectors uniform on the unit sphere, one per index of ``shape``.

    One draw of shape (*shape, dim) is the same stream as that many draws of
    dim values in a row.
    """
    v = rng.standard_normal((*shape, kind.dim))
    return v / _norms(v, 1)[..., None]


def cmd_jordan(args):
    try:
        kind = parse_kind(args.algebra)
    except ValidationError as err:
        raise UsageError(str(err))
    if kind.family == "hermitian" and kind.scalar_dim == 8 and kind.n != 3:
        raise UsageError("the octonionic hermitian suite runs only on hO:3")
    _require_size(kind.label, kind.n)
    _require_positive(args, "samples")
    rng = default_rng(args.seed)
    samples = args.samples
    items = []

    # each check runs in blocks of stacked samples (jordan._blockwise), is per
    # sample, and is reduced over the blocks once: np.max and np.min, unlike
    # max and min, keep a NaN from any block
    def laws(count):
        pairs = _unit_sample(kind, rng, (count, 2))
        a, b = from_coords(kind, pairs[:, 0]), from_coords(kind, pairs[:, 1])
        sq = jordan_product(a, a)
        power = (jordan_product(sq, sq) - jordan_product(a, jordan_product(a, sq))).norm()
        # <b, a> by the closed-form pairing, the sum of b.data a.data (twice
        # that on spin factors): a second Jordan product b o a would repeat
        # the bits of a o b
        swapped = _dots(b.data.reshape(count, -1), a.data.reshape(count, -1))
        if kind.family == "spin":
            swapped *= 2.0
        symmetry = np.abs(trace_inner(a, b) - swapped)
        return np.max(_identity_residual(sq, a, b)), np.max(power), np.min(trace(sq)), np.max(symmetry)

    identity, power, reality, symmetry = _blockwise(kind, samples, laws).T
    identity_max, power_max, symmetry_max = (float(np.max(v)) for v in (identity, power, symmetry))
    reality_min = float(np.min(reality))
    for label, value, ok in (
        ("jordan_identity_max", identity_max, _within(identity_max, _IDENTITY_TOL)),
        ("power_associativity_max", power_max, _within(power_max, _POWER_TOL)),
        ("formal_reality_min", reality_min, _within(-reality_min, -_POSITIVE_MIN)),
        ("trace_symmetry_max", symmetry_max, _within(symmetry_max, _SYMMETRY_TOL)),
    ):
        items.append({"label": label, "value": value, "pass": ok})

    one = unit(kind)
    ed = trace(one)
    items.append({"label": "unit_trace", "value": ed, "pass": _within(abs(ed - kind.rank), 0.0)})

    rho = max_ignorance(kind)

    def evaluation(count):
        a = from_coords(kind, _unit_sample(kind, rng, (count,)))
        return np.max(np.abs(state_eval(rho, a) - trace(a) / ed))

    eval_max = float(np.max(_blockwise(kind, min(samples, 25), evaluation)))
    items.append({"label": "max_ignorance_eval_max", "value": eval_max, "pass": _within(eval_max, _EVAL_TOL)})

    if not (kind.family == "hermitian" and kind.scalar_dim == 8):  # no cone margin on octonions
        def squares(count):
            a = from_coords(kind, _unit_sample(kind, rng, (count,)))
            return _within(-cone_margin(jordan_product(a, a)), -_SQUARE_MIN)

        squares_ok = bool(np.all(_blockwise(kind, min(samples, 50), squares)))
        items.append({"label": "squares_in_cone", "value": float(squares_ok), "pass": squares_ok})
        margin = dual_cone_margin(random_positive(kind, rng), min(samples, 100), default_rng(args.seed + 1))
        items.append({"label": "dual_cone_margin", "value": margin, "pass": _within(-margin, -_POSITIVE_MIN)})
    if kind.family == "spin":
        def light_cone(count):
            a = from_coords(kind, rng.standard_normal((count, kind.dim)))
            x, t = a.x, a.t
            # the light cone read off directly, against the library's cone margin
            direct = (t > 0.0) & (t * t - _dots(x, x) > 0.0)
            return np.all(is_positive(a, tol=0.0) == direct)

        agree = bool(np.all(_blockwise(kind, min(samples, 50), light_cone)))
        items.append({"label": "lightcone_agreement", "value": float(agree), "pass": agree})
    if kind.label == "hC:2":
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = expected[1, 1, 0] = 0.5
        dev = float(np.abs(rho.element.data - expected).max())
        items.append({"label": "max_ignorance_is_half_identity", "value": dev, "pass": _within(dev, 0.0)})

    return items


# ---------------------------------------------------------------------------
# tensor-table
# ---------------------------------------------------------------------------

def cmd_tensor_table(args):
    # the real structure of R -> C and the quaternionic structure of H -> C
    model = {RepKind.REAL: complexify(1).j, RepKind.QUATERNIONIC: underlying_complex(1).j}
    items = []
    for left in RepKind:
        for right in RepKind:
            result = classify_tensor(left, right)
            item = {"label": f"{left} (x) {right}", "result": str(result), "pass": True}
            if left in model and right in model:
                square = tensor_antilinear(model[left], model[right]).square()
                item["constructed_sign"] = int(round(square[0, 0].real))
                item["pass"] = _within(np.abs(square - result.value * np.eye(len(square))), 0.0)
            items.append(item)
    return items


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

def cmd_functors(args):
    _require_positive(args, "dim")
    _require_size(f"--dim {args.dim}", args.dim)
    n = args.dim
    conversions = [make(n) for make in (complexify, underlying_real, underlying_complex, quaternify,
                                        underlying_real_quat, quaternify_real)]
    rng = default_rng(args.seed)
    items = []
    for conv in conversions:
        system = conv.source
        # new arrays, taken over without the copy KMatrix() makes (20 MB more peak at n = 512)
        s = KMatrix._trusted(system, rng.standard_normal((n, n, system.dim)))
        t = KMatrix._trusted(system, rng.standard_normal((n, n, system.dim)))
        ps, pt = conv.push(s), conv.push(t)
        scale = max(1.0, s.norm() * t.norm())
        hom = (conv.push(s @ t) - ps @ pt).norm() / scale
        dagger = (conv.push(s.adjoint()) - ps.adjoint()).norm() / max(1.0, s.norm())
        roundtrip = (conv.pull(ps) - s).norm() / max(1.0, s.norm())
        commute = structure_defect(conv, ps) / max(1.0, s.norm())
        items.append(
            {
                "label": conv.label,
                "dim_in": int(conv.dim_in),
                "dim_out": int(conv.dim_out),
                "homomorphism_defect": hom,
                "dagger_defect": dagger,
                "roundtrip_defect": roundtrip,
                "structure_defect": commute,
                "pass": _within(np.array([hom, dagger, roundtrip, commute]), args.tol),
            }
        )
    return items


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def _random_skew(system, n, rng):
    x = KMatrix._trusted(system, rng.standard_normal((n, n, system.dim)))
    return x - x.adjoint()


def cmd_spectrum(args):
    if args.system not in SYSTEMS:
        raise UsageError(f"unknown system {args.system!r}; pick R, C or H")
    system = SYSTEMS[args.system]
    _require_positive(args, "dim", "trials")
    _require_size(f"--dim {args.dim}", args.dim)
    n = args.dim
    rng = default_rng(args.seed)
    items = []
    for trial in range(args.trials):
        s = _random_skew(system, n, rng)
        if system is COMPLEXES:
            w, _ = eigh_complex(split_iA(s))
            t1, t2 = rng.uniform(-1.0, 1.0, size=2)
            law = (exp_group(s, t1 + t2) - exp_group(s, t1) @ exp_group(s, t2)).norm()
            checks = {"group_law_defect": float(law)}
        else:
            report = symmetric_spectrum_check(s)
            w = report.eigenvalues
            checks = {"pairing_defect": report.pairing_defect,
                      "eigenvector_defect": report.eigenvector_defect}
        # every defect of a trial is held to --tol max(1, |S|_F)
        ok = _within(np.array(list(checks.values())), args.tol * max(1.0, s.norm()))
        items.append({"label": f"trial_{trial}", "eigenvalues": [float(x) for x in w], **checks, "pass": ok})
    if system is QUATERNIONS:
        witness = quaternionic_obstruction_witness(_random_skew(system, n, rng))
        items.append({"label": "obstruction_witness", "defect": float(witness.defect),
                      "threshold": float(witness.threshold), "pass": witness.found})
    return items


# ---------------------------------------------------------------------------
# command line: one table drives both parsing and -h
# ---------------------------------------------------------------------------

_DESCRIPTION = "Classification suites for real, complex and quaternionic structure."

REQUIRED = object()  # the default of an option that must be given

# an option is (name, type, default, help); a bool option is a flag and takes
# no value.  These are accepted before or after the verb.
GLOBAL_OPTIONS = (
    ("json", bool, False, "emit a JSON report"),
    ("seed", int, 0, "seed for randomized suites"),
)


# the --tol option of the two verbs that read it
_TOL_OPTION = ("tol", float, 1e-8, "bound on each defect, relative to max(1, |S|_F)")


# type None marks the help request; -h is its short spelling
_HELP = ("help", None, None, "show this help and exit")

# verb -> (name of its cmd_* function, help, positionals as (name, help),
# options).  main looks the function up by name when the verb runs, so a
# wrapper set on this module's attribute is the one called.
VERBS = {
    "classify": ("cmd_classify", "classify representations from a group file",
                 (("file", "JSON file with a multiplication table and representations"),), ()),
    "su2": ("cmd_su2", "spin-j indicator and time-reversal table, both defects held to 0", (), (
        ("j", float, None, "a single spin"),
        ("max-j", float, 5.0, "run j = 0, 1/2, ..., max-j"),
    )),
    "jordan": ("cmd_jordan", "Jordan algebra law/state suite", (), (
        ("algebra", str, REQUIRED, "hR:n, hC:n, hH:n, hO:3 or spin:n"),
        ("samples", int, 100, "random sample count"),
    )),
    "tensor-table": ("cmd_tensor_table", "kind multiplication table with verified signs", (), ()),
    "functors": ("cmd_functors", "scalar-conversion functor laws", (), (
        ("dim", int, 3, "source dimension"),
        _TOL_OPTION,
    )),
    "spectrum": ("cmd_spectrum", "spectrum symmetry on random generators", (), (
        ("system", str, "H", "R, C or H"),
        ("dim", int, 3, "matrix size"),
        ("trials", int, 5, "number of random generators"),
        _TOL_OPTION,
    )),
}

# a word that starts with '-' but reads as a negative number is a value
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _dest(name):
    return name.replace("-", "_")


def _metavar(name):
    return _dest(name).upper()


def _option(word, options):
    """What ``word`` is among ``options``: None for a value or positional,
    else (option, the value after '=' or None), with option None for a word
    shaped like an option that names none of them.

    A long option is named by its full name or any unique prefix of it.
    """
    if not word.startswith("-") or word == "-":
        return None
    if word.startswith("--"):
        head, eq, value = word.partition("=")
        matches = [o for o in options if "--" + o[0] == head]
        matches = matches or [o for o in options if ("--" + o[0]).startswith(head)]
        if len(matches) > 1:
            names = ", ".join("--" + o[0] for o in matches)
            raise UsageError(f"ambiguous option {head}: could be {names}")
        if matches:
            return matches[0], value if eq else None
    elif word.startswith("-h"):
        return _HELP, word[2:] or None
    if _NEGATIVE_NUMBER.match(word) or " " in word:
        return None
    return None, None


def parse_args(argv):
    """Read ``argv`` against GLOBAL_OPTIONS and VERBS into a namespace.

    The global options come before or after the verb; the verb's own
    positionals and options come after it, and an option word before the
    verb that names no global option is refused by that word.  An option's
    value is the next word or follows '='; '--' ends the options.  -h or
    --help prints the help of the command, or of the verb after it, and
    returns None.  Any other malformed argv raises UsageError.
    """
    values = {_dest(name): default for name, _, default, _ in GLOBAL_OPTIONS}
    options = (_HELP,) + GLOBAL_OPTIONS
    verb = None
    unfilled = []  # the verb's positionals not yet given
    extra = []
    words = iter(argv)
    options_done = False
    for word in words:
        if word == "--" and not options_done:
            options_done = True
            continue
        found = None if options_done else _option(word, options)
        if found is None:
            if verb is None:
                if extra:
                    raise UsageError(
                        f"{extra[0]!r} is not an option before the verb; verb options go after the verb"
                    )
                if word not in VERBS:
                    raise UsageError(f"unknown verb {word!r}; pick one of {', '.join(VERBS)}")
                verb = word
                _, _, positionals, verb_options = VERBS[verb]
                unfilled = [name for name, _ in positionals]
                options += verb_options
                values.update((_dest(name), default) for name, _, default, _ in verb_options)
            elif unfilled:
                values[unfilled.pop(0)] = word
            else:
                extra.append(word)
            continue
        option, value = found
        if option is None:
            extra.append(word)
            continue
        name, kind, _, _ = option
        if kind in (bool, None):
            if value is not None:
                raise UsageError(f"--{name} takes no value, got {value!r}")
            if kind is None:
                print(help_text(verb))
                return None
            values[_dest(name)] = True
            continue
        if value is None:
            value = next(words, None)
            if value is None or value == "--" or _option(value, options) is not None:
                raise UsageError(f"--{name} needs a value")
        try:
            values[_dest(name)] = kind(value)
        except ValueError:
            raise UsageError(f"--{name} takes {kind.__name__} values, got {value!r}") from None
    if verb is None:
        raise UsageError(f"a verb is required: one of {', '.join(VERBS)}")
    missing = [_metavar(name) for name in unfilled]
    missing += [f"--{name}" for name, _, _, _ in VERBS[verb][3] if values[_dest(name)] is REQUIRED]
    if missing:
        raise UsageError(f"{verb} needs {' and '.join(missing)}")
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return SimpleNamespace(command=verb, **values)


def _flag(option):
    name, kind, _, _ = option
    if kind is None:
        return "-h, --help"
    return f"--{name}" if kind is bool else f"--{name} {_metavar(name)}"


def _described(option):
    _, kind, default, text = option
    if default is REQUIRED:
        return f"{text} (required)"
    if kind not in (bool, None) and default is not None:
        return f"{text} (default {default})"
    return text


def help_text(verb=None):
    """The -h text of the whole command (``verb`` None) or of one verb."""
    if verb is None:
        usage, summary = "[options] VERB [VERB arguments]", _DESCRIPTION
        title = "verbs"
        rows = [(" ".join([name] + [_metavar(p) for p, _ in positionals]), text)
                for name, (_, text, positionals, _) in VERBS.items()]
    else:
        _, summary, positionals, options = VERBS[verb]
        words = [_metavar(name) for name, _ in positionals]
        words += [_flag(o) if o[2] is REQUIRED else f"[{_flag(o)}]" for o in options]
        usage = " ".join([verb, *words, "[options]"])
        title = "arguments"
        rows = [(_metavar(name), text) for name, text in positionals]
        rows += [(_flag(o), _described(o)) for o in options]
    globals_rows = [(_flag(o), _described(o)) for o in (_HELP,) + GLOBAL_OPTIONS]
    lines = [f"usage: threefold {usage}", "", summary]
    for title, rows in ((title, rows), ("options, before or after the verb", globals_rows)):
        if rows:
            lines += ["", f"{title}:"] + [f"  {flag:<20}{text}" for flag, text in rows]
    lines += ["", "An option's value is the next word or follows '='; a unique prefix",
              "names an option; '--' ends the options.  Usage errors exit with code 2."]
    if verb is None:
        lines.append("`threefold VERB -h` lists the arguments of one verb.")
    return "\n".join(lines)


def main(argv=None):
    """Run one command line and return its exit code (see the module docstring)."""
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        # flushed here, so that a closed stdout shows inside this try and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the recipe of the signal module's "Note on SIGPIPE": stdout now goes
        # to devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def _run(argv):
    try:
        args = parse_args(argv)
        if args is None:
            return 0
        start = time.perf_counter()
        # every check compares a defect with tol, so inf or nan would pass or fail them all
        if hasattr(args, "tol") and not (args.tol > 0.0 and math.isfinite(args.tol)):
            raise UsageError(f"--tol must be a positive finite number, got {args.tol}")
        # numpy's generators refuse a negative seed with a ValueError deep in a verb
        if args.seed < 0:
            raise UsageError(f"--seed must be a nonnegative integer, got {args.seed}")
        items = globals()[VERBS[args.command][0]](args)
    except InternalInconsistencyError as err:
        print(f"inconsistency: {err}", file=sys.stderr)
        return 1
    except (ThreefoldError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - start)))
    passed = all(item["pass"] for item in items)
    report = {
        "command": args.command,
        "pass": passed,
        "items": items,
        "elapsed_ms": elapsed_ms,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_items(items)
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

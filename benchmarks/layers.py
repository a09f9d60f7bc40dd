"""Per-layer tracing: which public functions form each layer, and span arithmetic.

The layers are the modules of ``threefold``.  In a traced invocation,
``install`` wraps every function in ``TARGETS`` where it is defined (the
module attribute, or the class attribute for a method) and also every
``from ... import`` binding of it inside ``threefold.*``.  Each call then
records a span: name, start, end, parent span, and an optional key taken
from the arguments.  A call into a layer from inside a span of the same
name is part of that span and records nothing, so ``calls`` counts layer
entries, not internal recursion.

``COUNTERS`` are functions whose calls are counted on the innermost open
span without opening one, so their time stays in the caller's self time.

Self time is a span's duration minus the time covered by its direct child
spans.  Spans of one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _matmul_flops(self, other):
    # nominal 2 r k c d^2 for a K-matrix product; vector operands go to apply
    if not hasattr(other, "cols"):
        return 0
    return 2 * self.rows * self.cols * other.cols * self.system.dim**2


def _group_bytes(self):
    # associativity check builds table[table, :] and table[:, table]: 2 |G|^3 int64
    n = len(self.table)
    return 2 * 8 * n**3


def _rep_bytes(self, group, matrices):
    # homomorphism check builds the product stack and matrices[table]: 2 |G|^2 d^2 complex128
    return 2 * 16 * group.order**2 * len(matrices[0]) ** 2


def _rep_id(rep, *args, **kwargs):
    return id(rep)


def _spin(j, *args, **kwargs):
    return float(j)


def _kind_label(a):
    return a.kind.label


_HYPER = "threefold.scalars:_Hypercomplex."
_CONVERSIONS = (
    "Complexification",
    "RealificationOfComplex",
    "ComplexFormOfQuaternionic",
    "QuaternificationOfComplex",
    "RealificationOfQuaternionic",
    "QuaternificationOfReal",
)

# (span name, "module:qualname" of every function that enters the layer, key function)
TARGETS = (
    ("scalars.arith", [_HYPER + m for m in (
        "__init__", "from_array", "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "conjugate", "norm", "inverse")] + [
        f"threefold.scalars:{f}" for f in ("mul", "conj", "norm", "inv", "complex_part")], None),
    ("hilbert.matmul", ["threefold.hilbert:KMatrix.__matmul__"], _matmul_flops),
    ("hilbert.apply", ["threefold.hilbert:KMatrix.apply"], None),
    ("hilbert.inner", ["threefold.hilbert:inner"], None),
    ("hilbert.adjoint", ["threefold.hilbert:KMatrix.adjoint", "threefold.hilbert:adjoint"], None),
    ("hilbert.construct", ["threefold.hilbert:KMatrix.__init__",
                           "threefold.hilbert:KVector.__init__"], None),
    ("structures.push", [f"threefold.structures:{c}.{m}" for c in _CONVERSIONS
                         for m in ("push", "push_vector")], None),
    ("structures.pull", [f"threefold.structures:{c}.pull" for c in _CONVERSIONS], None),
    ("structures.convert_init", [f"threefold.structures:{c}.__init__" for c in _CONVERSIONS], None),
    ("structures.antilinear", [f"threefold.structures:AntilinearMap.{m}" for m in (
        "__call__", "square", "compose_antilinear", "after_linear", "before_linear", "scale",
        "is_antiunitary", "commutation_defect", "anticommutation_defect")] + [
        "threefold.structures:tensor_antilinear"], None),
    ("jordan.product", ["threefold.jordan:jordan_product"], None),
    ("jordan.trace", ["threefold.jordan:trace"], _kind_label),
    ("jordan.cone_margin", ["threefold.jordan:cone_margin"], None),
    ("jordan.element", ["threefold.jordan:JordanElement.__init__"], None),
    ("representations.load", ["threefold.representations:load_rep_file"], None),
    ("representations.group_validate", ["threefold.representations:FiniteGroup.__post_init__"],
     _group_bytes),
    ("representations.rep_validate", ["threefold.representations:FiniteGroupRep.__init__"],
     _rep_bytes),
    ("representations.commutant", ["threefold.representations:commutant_dimension"], _rep_id),
    ("representations.form", ["threefold.representations:invariant_bilinear_form"], None),
    ("representations.intertwiner", ["threefold.representations:intertwiner_dimension"], None),
    ("representations.structure_map", ["threefold.representations:structure_map",
                                       "threefold.representations:structure_map_from_form"], None),
    ("representations.classify", ["threefold.representations:classify"], _rep_id),
    ("su2.classify_spin", ["threefold.su2:classify_spin"], _spin),
    ("su2.time_reversal", ["threefold.su2:time_reversal_check"], None),
    ("su2.spin_matrix", ["threefold.su2:spin_matrix", "threefold.su2:su2_spin_rep"], None),
    ("su2.invariant_form", ["threefold.su2:invariant_form_spin"], None),
    ("su2.angular_momentum", ["threefold.su2:angular_momentum_z"], None),
    ("su2.fs_quadrature", ["threefold.su2:fs_indicator_su2"], None),
    ("spectra.exp_group", ["threefold.spectra:exp_group"], None),
    ("spectra.spectrum_check", ["threefold.spectra:symmetric_spectrum_check"], None),
    ("spectra.witness", ["threefold.spectra:quaternionic_obstruction_witness"], None),
    ("cli.glue", [f"threefold.cli:cmd_{v}" for v in (
        "classify", "su2", "jordan", "tensor_table", "functors", "spectrum")], None),
    ("cli.main", ["threefold.cli:main"], None),
)

# counted on the innermost open span: seed averages inside invariant_bilinear_form
COUNTERS = ("threefold.representations:average_bilinear",)

# span record fields
NAME, START, END, PARENT, KEY, COUNT = range(6)


class Recorder:
    """Spans of one invocation, kept in memory until the child exits."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.spans = []
        self.stack = []

    def wrap(self, name_id, fn, key):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == name_id:
                return fn(*args, **kwargs)
            record = [name_id, 0.0, 0.0, stack[-1] if stack else -1,
                      key(*args, **kwargs) if key else None, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def counter(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]][COUNT] += 1
            return fn(*args, **kwargs)

        return wrapper


def _resolve(path):
    module_name, qualname = path.split(":")
    owner = sys.modules[module_name]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _replace(path, make):
    """Wrap the function at ``path`` and every binding of it in threefold.*."""
    owner, attr = _resolve(path)
    raw = owner.__dict__[attr]
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    wrapper = make(fn)
    replacement = classmethod(wrapper) if is_classmethod else wrapper
    # aliases in the same namespace, e.g. __radd__ = __add__
    for name, value in list(vars(owner).items()):
        if value is raw:
            setattr(owner, name, replacement)
    if isinstance(owner, type):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "threefold" or mod_name.startswith("threefold.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, name, wrapper)


def install(recorder):
    """Wrap every target; ``threefold.cli`` must already be imported."""
    for name_id, (_, paths, key) in enumerate(TARGETS):
        for path in paths:
            _replace(path, lambda fn, n=name_id, k=key: recorder.wrap(n, fn, k))
    for path in COUNTERS:
        _replace(path, recorder.counter)


# ---------------------------------------------------------------------------
# span arithmetic (parent side)
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class LayerTotals:
    """Per-layer sums over the traced invocations of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.keys = defaultdict(list)
        self.products_in_trace = defaultdict(int)
        self.traces_by_kind = defaultdict(int)
        self.form_seeds = 0
        self.commutant_on_classified = 0
        self.classified_reps = 0
        self.spin_values = 0

    def add(self, names, spans):
        own = self_times(spans)
        classified = set()
        commutant_keys = []
        spins = set()
        for s, t in zip(spans, own):
            name = names[s[NAME]]
            self.calls[name] += 1
            self.self_s[name] += t
            if s[KEY] is not None:
                self.keys[name].append(s[KEY])
            parent = names[spans[s[PARENT]][NAME]] if s[PARENT] >= 0 else None
            if name == "jordan.product" and parent == "jordan.trace":
                self.products_in_trace[spans[s[PARENT]][KEY]] += 1
            elif name == "jordan.trace":
                self.traces_by_kind[s[KEY]] += 1
            elif name == "representations.form":
                self.form_seeds += s[COUNT]
            elif name == "representations.classify":
                classified.add(s[KEY])
            elif name == "representations.commutant":
                commutant_keys.append(s[KEY])
            elif name == "su2.classify_spin":
                spins.add(s[KEY])
        self.classified_reps += len(classified)
        self.commutant_on_classified += sum(1 for k in commutant_keys if k in classified)
        self.spin_values += len(spins)

    def products_per_trace_by_kind(self):
        return {k: self.products_in_trace[k] / n for k, n in sorted(self.traces_by_kind.items())}


def _ratio(num, den):
    return num / den if den else 0.0


# (name prefix, fields) of every per-layer metric, in report order
_METRICS = (
    ("import", "total_s scipy_s threefold_self_s modules"),
    ("scalars.arith", "calls self_s"),
    ("hilbert.matmul", "calls self_s nominal_gflop gflops"),
    ("hilbert.apply", "calls self_s"),
    ("hilbert.inner", "calls self_s"),
    ("hilbert.adjoint", "calls self_s"),
    ("hilbert.construct", "calls self_s"),
    ("structures.push", "calls self_s"),
    ("structures.pull", "calls self_s"),
    ("structures.convert_init", "calls self_s"),
    ("structures.antilinear", "calls self_s"),
    ("jordan.product", "calls self_s"),
    ("jordan.trace", "calls self_s"),
    ("jordan", "products_per_trace"),
    ("jordan.cone_margin", "calls self_s"),
    ("jordan.element", "calls self_s"),
    ("representations.load", "self_s"),
    ("representations.group_validate", "self_s"),
    ("representations.rep_validate", "calls self_s"),
    ("representations.commutant", "calls self_s"),
    ("representations", "commutant_per_rep"),
    ("representations.form", "calls self_s seeds_per_form"),
    ("representations.intertwiner", "calls self_s"),
    ("representations.structure_map", "calls self_s"),
    ("representations.classify", "calls self_s"),
    ("representations", "validate_bytes"),
    ("su2.classify_spin", "calls self_s"),
    ("su2", "classify_spin_per_j"),
    ("su2.time_reversal", "calls self_s"),
    ("su2.spin_matrix", "calls self_s"),
    ("su2.invariant_form", "self_s"),
    ("su2.angular_momentum", "self_s"),
    ("su2.fs_quadrature", "self_s"),
    ("su2", "tensor_power_bytes"),
    ("spectra.exp_group", "calls self_s"),
    ("spectra.spectrum_check", "calls self_s"),
    ("spectra.witness", "calls self_s"),
    ("cli.glue", "self_s"),
    ("cli.report", "self_s"),
    ("cli", "cpu_s"),
    ("trace", "overhead_s"),
)


def _unit(field):
    if field in ("calls", "modules"):
        return "count"
    if field.endswith("bytes"):
        return "bytes"
    if field == "nominal_gflop":
        return "GFLOP"
    if field == "gflops":
        return "GFLOP/s"
    if field.endswith("_s"):
        return "s"
    return "ratio"


PER_LAYER_UNITS = {
    f"{prefix}.{field}": _unit(field) for prefix, fields in _METRICS for field in fields.split()
}


def layer_metrics(totals, passes):
    """Span-derived per-layer values per traced pass.

    ``cli.cpu_s``, ``trace.overhead_s`` and ``import.*`` do not come from
    spans; the caller adds them.
    """
    out = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = totals.calls[layer] / passes
        elif field == "self_s" and layer != "cli.report":
            out[name] = totals.self_s[layer] / passes
    out["cli.report.self_s"] = totals.self_s["cli.main"] / passes
    gflop = sum(totals.keys["hilbert.matmul"]) / 1e9 / passes
    out["hilbert.matmul.nominal_gflop"] = gflop
    out["hilbert.matmul.gflops"] = _ratio(gflop, out["hilbert.matmul.self_s"])
    out["jordan.products_per_trace"] = _ratio(
        sum(totals.products_in_trace.values()), totals.calls["jordan.trace"])
    out["representations.commutant_per_rep"] = _ratio(
        totals.commutant_on_classified, totals.classified_reps)
    out["representations.form.seeds_per_form"] = _ratio(
        totals.form_seeds, totals.calls["representations.form"])
    out["representations.validate_bytes"] = float(max(
        totals.keys["representations.group_validate"] + totals.keys["representations.rep_validate"],
        default=0))
    out["su2.classify_spin_per_j"] = _ratio(totals.calls["su2.classify_spin"], totals.spin_values)
    spins = totals.keys["su2.classify_spin"]
    out["su2.tensor_power_bytes"] = 16.0 * 4.0 ** (2 * max(spins)) if spins else 0.0
    return out


# ---------------------------------------------------------------------------
# -X importtime
# ---------------------------------------------------------------------------

def parse_importtime(stderr_text):
    """Start-up import figures from ``-X importtime`` lines before PERFBENCH_READY.

    Returns total self time, the cumulative time of the outermost scipy
    imports, the self time of threefold modules (all in seconds), and the
    module count.
    """
    entries = []  # (depth, name, self_us, cumulative_us)
    for line in stderr_text.splitlines():
        if line.startswith("PERFBENCH_READY"):
            break
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, label = line[len("import time:"):].split("|")
        name = label.strip()
        depth = (len(label.rstrip()) - len(name) - 1) // 2
        entries.append((depth, name, int(self_us), int(cumulative_us)))
    # importtime prints children before their parent, one level deeper
    parent_of = [None] * len(entries)
    pending = []
    for i, (depth, *_rest) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parent_of[pending.pop()] = i
        pending.append(i)

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    scipy_us = sum(
        cum for i, (_, name, _, cum) in enumerate(entries)
        if is_scipy(name) and (parent_of[i] is None or not is_scipy(entries[parent_of[i]][1]))
    )
    threefold_us = sum(
        own for _, name, own, _ in entries if name == "threefold" or name.startswith("threefold.")
    )
    return {
        "import.total_s": sum(own for _, _, own, _ in entries) / 1e6,
        "import.scipy_s": scipy_us / 1e6,
        "import.threefold_self_s": threefold_us / 1e6,
        "import.modules": float(len(entries)),
    }

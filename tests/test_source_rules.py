"""Source rules: one rule per operator property, and a public surface the product uses.

The self-adjoint, skew-adjoint and unitary checks live in ``threefold.hilbert``
alone, relative to the operand.  These tests parse ``src/threefold/*.py``
and fail when a second rule creeps back in: an ``np.allclose`` or ``atol=``
anywhere (an absolute comparison; the tests' ``is_close`` lives in
``tests/util.py``), or a module other than ``hilbert`` that measures an
adjoint defect, T - T* or T + T*, or a unitary one, T*T - 1.

A guard that raises, and the mask it reads, must refuse a NaN defect: a
comparison there that names a bound (``*_TOL``, ``tol``, ``bound`` or
``threshold``) must be negated, as in ``not defect <= tol``, because every
ordering comparison with NaN is false.  ``hilbert._require_within`` is the
guard that keeps this rule; verdict predicates that return, such as
``jordan.is_positive``, stay un-negated, so that NaN fails them.  Outside
``hilbert`` no raising ``if``, and no mask it reads, compares a bound at
all, negated or not: the refusal goes through that guard, which names the
worst element.  The two functions in ``OWN_FORM`` keep their own form.

In ``su2``, ``twice_spin`` is the one check of a spin: it alone reads
``_HALF_INTEGER_TOL``, no private function calls it, and no public function
calls it twice.

In ``cli.py`` no ordering or equality comparison names a bound (a
``*_TOL``/``*_MIN``/``tol`` name or ``args.tol``): every item's pass comes
from ``hilbert._within``.  ``_run``'s validation of --tol is the exception.

Every norm goes through ``scalars._norms``: no ``linalg.norm`` call, and no
self-dot or sum of squares, is taken anywhere else under ``src/threefold``.

Every exact rescaling by the power of two of a largest entry goes through
``scalars._unit_scaled``: no ``frexp`` appears anywhere else under
``src/threefold``.

Every name a module lists in ``__all__``, and every name the package exports
through ``__init__._EXPORTS``, must have a user outside the tests: code in
``src/`` beyond the name's own definition, a demo, a Python block of the
README, or a function the per-layer tracer wraps (``benchmarks/layers.py``).
So must every method, property and classmethod (dunders aside) of a public
class: its ``.name`` is read in ``src/`` outside its own definition, in a
demo, in the README's code, in ``benchmarks/*.py``, or the tracer wraps it.
"""

import ast
import importlib
import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "threefold"


# what each call does to its operand, as a method or as an np.* function
_CONJUGATE = {"conj", "conjugate"}
_TRANSPOSE = {"swapaxes", "transpose"}


def _called(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _adjoint_operand(node):
    """The X of an expression that spells X*, else None.

    X* is any chain that both conjugates and transposes X: ``X.adjoint()``,
    ``adjoint(X)``, ``X.conj().T``, ``np.conj(X).T``, ``X.T.conj()`` or
    ``np.swapaxes(X, ...) * signs`` (the conjugation of a coefficient
    layout).  A transpose alone, as in the symmetry of a bilinear form
    ``g - g.T``, is not an adjoint.
    """
    done = set()
    while True:
        if isinstance(node, ast.Attribute) and node.attr == "T":
            done.add("transpose")
            node = node.value
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            done.add("conjugate")
            node = node.left
        elif isinstance(node, ast.Call) and _called(node.func) in {"adjoint", *_CONJUGATE, *_TRANSPOSE}:
            name = _called(node.func)
            done.update(
                {"conjugate", "transpose"} if name == "adjoint"
                else {"conjugate"} if name in _CONJUGATE else {"transpose"}
            )
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) != "np":
                node = func.value  # X.adjoint(), X.conj(), X.swapaxes(0, 1)
            elif node.args:
                node = node.args[0]  # adjoint(X), np.conj(X), np.swapaxes(X, 1, 2)
            else:
                return None
        else:
            return node if done == {"conjugate", "transpose"} else None


def _is_adjoint_pair(x, y):
    inner = _adjoint_operand(y)
    return inner is not None and ast.dump(inner) == ast.dump(x)


def _is_gram(node):
    """True for X* @ X or X @ X*."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.MatMult)
        and (_is_adjoint_pair(node.left, node.right) or _is_adjoint_pair(node.right, node.left))
    )


def violations(directory=SOURCE):
    """``file:line: what`` for every breach of the source rules under ``directory``."""
    found = []
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                if _called(node.func) == "allclose":
                    found.append(f"{where}: allclose, an absolute rule")
                if any(kw.arg == "atol" for kw in node.keywords):
                    found.append(f"{where}: atol=, an absolute rule")
            if (
                path.name != "hilbert.py"
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and (_is_adjoint_pair(node.left, node.right) or _is_adjoint_pair(node.right, node.left))
                # a returned X - X* builds an operator (a random skew one, say); it measures nothing
                and not isinstance(parents.get(node), ast.Return)
            ):
                found.append(f"{where}: adjoint defect outside hilbert")
            if (
                path.name != "hilbert.py"
                and isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Sub)
                and _is_gram(node.left)
            ):
                found.append(f"{where}: unitary defect outside hilbert")
    return sorted(found, key=lambda line: (line.split(":")[0], int(line.split(":")[1]), line))


def test_one_rule_per_operator_property():
    assert violations() == []


def test_the_rules_recognize_each_spelling(tmp_path):
    (tmp_path / "spellings.py").write_text(
        "import numpy as np\n"
        "def f(m, t, data, signs, g, eye):\n"
        "    a = np.linalg.norm(m + m.conj().T)\n"
        "    b = (t - t.adjoint()).norm()\n"
        "    c = np.abs(data - np.swapaxes(data, -3, -2) * signs).max()\n"
        "    d = np.allclose(m, m.T.conj(), rtol=0.0, atol=1e-10)\n"
        "    e = np.linalg.norm(m - np.conj(m).T)\n"
        "    symmetric = np.linalg.norm(g - g.T) + np.linalg.norm(2.0 * m - m)\n"
        "    gram = np.abs(np.swapaxes(m, 1, 2).conj() @ m - eye).max()\n"
        "    return t - t.adjoint()\n"
        "class A:\n"
        "    def is_close(self, other, tol):\n"
        "        return np.allclose(self.x, other.x, rtol=0.0, atol=tol)\n"
    )
    found = violations(tmp_path)
    assert found == [
        "spellings.py:3: adjoint defect outside hilbert",
        "spellings.py:4: adjoint defect outside hilbert",
        "spellings.py:5: adjoint defect outside hilbert",
        "spellings.py:6: allclose, an absolute rule",
        "spellings.py:6: atol=, an absolute rule",
        "spellings.py:7: adjoint defect outside hilbert",
        "spellings.py:9: unitary defect outside hilbert",
        "spellings.py:13: allclose, an absolute rule",
        "spellings.py:13: atol=, an absolute rule",
    ]


# a value that names a bound, in a guard's comparison
_BOUND_NAME = re.compile(r".*_TOL|tol|bound|threshold")
_ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _truth_leaves(node, negated=False):
    """``(leaf, negated)`` for each expression ``node`` reads as a truth value.

    Descends through ``not``, ``~``, ``and``/``or`` and the calls ``all``,
    ``any``, ``bool`` and ``flatnonzero`` (as functions or ``np.*``); a
    comparison is a leaf, and so is a mask read as ``bad`` or ``bad.size``.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert)):
        yield from _truth_leaves(node.operand, not negated)
    elif isinstance(node, ast.BoolOp):
        for value in node.values:
            yield from _truth_leaves(value, negated)
    elif isinstance(node, ast.Call) and _called(node.func) in {"all", "any", "bool", "flatnonzero"}:
        for arg in node.args[:1]:
            yield from _truth_leaves(arg, negated)
    else:
        yield node, negated


def _bound_comparisons(node):
    """``negated`` for each ordering comparison naming a bound that ``node`` reads as a truth value."""
    return [
        negated for leaf, negated in _truth_leaves(node)
        if isinstance(leaf, ast.Compare)
        and isinstance(leaf.ops[0], _ORDERING)
        and any(isinstance(name, ast.Name) and _BOUND_NAME.fullmatch(name.id) for name in ast.walk(leaf))
    ]


def _passes_nan(node):
    """True when ``node`` reads a bare ordering comparison that names a bound: NaN makes it false."""
    return not all(_bound_comparisons(node))


def _masks_read(test):
    """Names of the masks a guard's test reads as a truth value: ``bad`` or ``bad.size``."""
    for leaf, _ in _truth_leaves(test):
        if isinstance(leaf, ast.Attribute):
            leaf = leaf.value
        if isinstance(leaf, ast.Name):
            yield leaf.id


def _raising_guards(directory):
    """``(path, function, guard, masks)`` for each ``if`` in a function whose body raises.

    ``masks`` are the assignments in that function to the names the guard's
    test reads as masks.
    """
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            nodes = list(ast.walk(scope))
            assigns = [
                node for node in nodes
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            ]
            for node in nodes:
                if isinstance(node, ast.If) and any(
                    isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)
                ):
                    masks = set(_masks_read(node.test))
                    yield path, scope.name, node, [a for a in assigns if a.targets[0].id in masks]


def _by_line(found):
    return sorted(found, key=lambda line: (line.split(":")[0], int(line.split(":")[1])))


def nan_passing_guards(directory=SOURCE):
    """``file:line: what`` for each raising guard in a function, or mask it reads, that NaN passes."""
    found = set()
    for path, _, guard, masks in _raising_guards(directory):
        if _passes_nan(guard.test):
            found.add(f"{path.name}:{guard.lineno}: a NaN defect passes this guard")
        for assign in masks:
            if _passes_nan(assign.value):
                found.add(f"{path.name}:{assign.lineno}: a NaN defect passes this mask")
    return _by_line(found)


def test_every_guard_refuses_a_nan_defect():
    assert nan_passing_guards() == []


def test_the_nan_rule_recognizes_each_spelling(tmp_path):
    (tmp_path / "guards.py").write_text(
        "import numpy as np\n"
        "_X_TOL = 1e-10\n"
        "def f(defect, defects, tol, bound, threshold, t):\n"
        "    if defect > tol:\n"
        "        raise ValueError\n"
        "    if t < 0 or abs(t - 1.0) >= _X_TOL:\n"
        "        raise ValueError\n"
        "    if defect < -_X_TOL:\n"
        "        raise ValueError\n"
        "    if defect <= threshold:\n"
        "        raise ValueError\n"
        "    bad = np.flatnonzero(defects > bound)\n"
        "    if bad.size:\n"
        "        raise ValueError\n"
        "    if np.any(defects > bound):\n"
        "        raise ValueError\n"
        "    if not defect <= tol or not defect > threshold or t > 1.0:\n"
        "        raise ValueError\n"
        "    good = np.flatnonzero(~(defects <= bound))\n"
        "    if good.size:\n"
        "        raise ValueError\n"
        "    good = np.flatnonzero(defects >= _X_TOL)\n"
        "    if good.size:\n"
        "        raise ValueError\n"
        "    if t == (defect <= bound):\n"
        "        raise ValueError\n"
        "    if defect > tol:\n"
        "        return False\n"
        "    return defect > tol\n"
    )
    assert nan_passing_guards(tmp_path) == [
        "guards.py:4: a NaN defect passes this guard",
        "guards.py:6: a NaN defect passes this guard",
        "guards.py:8: a NaN defect passes this guard",
        "guards.py:10: a NaN defect passes this guard",
        "guards.py:12: a NaN defect passes this mask",
        "guards.py:15: a NaN defect passes this guard",
        "guards.py:22: a NaN defect passes this mask",
    ]


# the raising tolerance comparisons outside hilbert that keep their own form,
# by file and function
OWN_FORM = {
    # a lower bound: the defect must exceed the threshold, and a NaN one fails
    ("spectra.py", "quaternionic_obstruction_witness"),
    # two-sided: a form is refused when it is both symmetric and antisymmetric, or neither
    ("representations.py", "_is_symmetric"),
}


def hand_rolled_refusals(directory=SOURCE):
    """``file:line: what`` for each raising ``if`` outside hilbert, or mask it reads, that compares a bound.

    Such a refusal goes through ``hilbert._require_within``, which names the
    worst element and carries ``defect`` and ``tol``; negated or not, the
    comparison is flagged.  The functions in OWN_FORM are exempt.
    """
    found = set()
    for path, function, guard, masks in _raising_guards(directory):
        if path.name == "hilbert.py" or (path.name, function) in OWN_FORM:
            continue
        if _bound_comparisons(guard.test):
            found.add(f"{path.name}:{guard.lineno}: a tolerance refusal outside hilbert's guard")
        for assign in masks:
            if _bound_comparisons(assign.value):
                found.add(f"{path.name}:{assign.lineno}: a tolerance mask outside hilbert's guard")
    return _by_line(found)


def test_every_tolerance_refusal_goes_through_the_guard():
    assert hand_rolled_refusals() == []


def test_the_guard_rule_recognizes_each_spelling(tmp_path):
    (tmp_path / "rep.py").write_text(
        "import numpy as np\n"
        "_HOM_TOL = 1e-10\n"
        "def check(defects, bound, modulus, worst, t, n, size):\n"
        "    bad = np.flatnonzero(~(defects <= bound))\n"
        "    if bad.size:\n"
        "        raise ValueError(bad[0])\n"
        "    bad = np.flatnonzero(~(modulus <= 1.0 + _HOM_TOL))\n"
        "    if bad.size:\n"
        "        raise ValueError(bad[0])\n"
        "    if not worst <= _HOM_TOL:\n"
        "        raise ValueError\n"
        "    if t < 0 or not abs(t - n) <= _HALF_TOL:\n"
        "        raise ValueError\n"
        "    if worst > bound:\n"
        "        raise ValueError\n"
        "    if n > size:\n"
        "        raise ValueError\n"
        "    if worst <= bound:\n"
        "        return True\n"
    )
    # the exempt functions, each in its own file
    (tmp_path / "spectra.py").write_text(
        "def quaternionic_obstruction_witness(defect, threshold):\n"
        "    if not defect > threshold:\n"
        "        raise ValueError\n"
        "def other(defect, threshold):\n"
        "    if not defect > threshold:\n"
        "        raise ValueError\n"
    )
    (tmp_path / "representations.py").write_text(
        "def _is_symmetric(a, b, bound):\n"
        "    symmetric = a <= bound\n"
        "    if symmetric == (b <= bound):\n"
        "        raise ValueError\n"
    )
    (tmp_path / "hilbert.py").write_text(
        "def _require_within(defect, tol):\n"
        "    if not defect <= tol:\n"
        "        raise ValueError\n"
    )
    assert hand_rolled_refusals(tmp_path) == [
        "rep.py:4: a tolerance mask outside hilbert's guard",
        "rep.py:7: a tolerance mask outside hilbert's guard",
        "rep.py:10: a tolerance refusal outside hilbert's guard",
        "rep.py:12: a tolerance refusal outside hilbert's guard",
        "rep.py:14: a tolerance refusal outside hilbert's guard",
        "spectra.py:5: a tolerance refusal outside hilbert's guard",
    ]


# ---------------------------------------------------------------------------
# one check of a spin
# ---------------------------------------------------------------------------

def spin_check_breaches(path=SOURCE / "su2.py"):
    """``file:line: what`` for each breach of su2's one check of a spin.

    A spin is its 2j: ``twice_spin`` alone reads ``_HALF_INTEGER_TOL``, no
    ``_``-prefixed function calls ``twice_spin`` (the builders take the
    integer 2j), and no public function calls it more than once.  Functions
    are those of the module and the methods of its classes.
    """
    path = pathlib.Path(path)
    tree = ast.parse(path.read_text())
    found = []
    for statement in tree.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == "twice_spin":
            continue
        found += [
            f"{path.name}:{node.lineno}: _HALF_INTEGER_TOL read outside twice_spin"
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and node.id == "_HALF_INTEGER_TOL" and isinstance(node.ctx, ast.Load)
        ]
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)] + [
        node for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    ]
    for function in functions:
        calls = sum(
            isinstance(node, ast.Call) and _called(node.func) == "twice_spin" for node in ast.walk(function)
        )
        if calls and function.name.startswith("_"):
            found.append(f"{path.name}:{function.lineno}: {function.name}, a private function, checks a spin")
        elif calls > 1:
            found.append(f"{path.name}:{function.lineno}: {function.name} checks its spin {calls} times")
    return _by_line(found)


def test_each_su2_function_checks_a_spin_once():
    assert spin_check_breaches() == []


def test_the_spin_rule_recognizes_each_spelling(tmp_path):
    (tmp_path / "su2.py").write_text(
        "_HALF_INTEGER_TOL = 1e-12\n"
        "def twice_spin(j):\n"
        "    return abs(2 * j - round(2 * j)) <= _HALF_INTEGER_TOL\n"
        "def _builder(j):\n"
        "    return twice_spin(j)\n"
        "def public(j):\n"
        "    n = twice_spin(j)\n"
        "    return [twice_spin(k) for k in range(n)]\n"
        "def loose(j):\n"
        "    return abs(2 * j - round(2 * j)) <= 1e-12 or j < _HALF_INTEGER_TOL\n"
        "def once(j, n):\n"
        "    return twice_spin(j) + n\n"
        "class Report:\n"
        "    def _spin(self):\n"
        "        return su2.twice_spin(self.j)\n"
        "    def twice(self):\n"
        "        return twice_spin(self.j) + twice_spin(self.j)\n"
        "LIMIT = 2 * _HALF_INTEGER_TOL\n"
    )
    assert spin_check_breaches(tmp_path / "su2.py") == [
        "su2.py:4: _builder, a private function, checks a spin",
        "su2.py:6: public checks its spin 2 times",
        "su2.py:10: _HALF_INTEGER_TOL read outside twice_spin",
        "su2.py:14: _spin, a private function, checks a spin",
        "su2.py:16: twice checks its spin 2 times",
        "su2.py:18: _HALF_INTEGER_TOL read outside twice_spin",
    ]


# ---------------------------------------------------------------------------
# one verdict rule in the CLI
# ---------------------------------------------------------------------------

# a bound in cli.py: a *_TOL or *_MIN constant, a name tol, or an attribute .tol (args.tol)
_CLI_BOUND = re.compile(r".*_TOL|.*_MIN|tol")
_COMPARISONS = (*_ORDERING, ast.Eq, ast.NotEq)


def _is_cli_bound(node):
    return (isinstance(node, ast.Name) and _CLI_BOUND.fullmatch(node.id)) or (
        isinstance(node, ast.Attribute) and node.attr == "tol"
    )


def cli_verdict_breaches(path=SOURCE / "cli.py"):
    """``file:line: what`` for each ordering or equality comparison in the CLI that names a bound.

    Every item's pass comes from ``hilbert._within``, inclusive with a NaN
    defect failing, so no comparison in cli.py reads a bound.  The one
    exception is ``_run``'s validation of --tol itself: ``args.tol`` against
    a literal.
    """
    path = pathlib.Path(path)
    found = []
    for statement in ast.parse(path.read_text()).body:
        for node in ast.walk(statement):
            if not (isinstance(node, ast.Compare) and any(isinstance(op, _COMPARISONS) for op in node.ops)):
                continue
            operands = [node.left, *node.comparators]
            validation = getattr(statement, "name", None) == "_run" and all(
                isinstance(x, ast.Constant) or _is_cli_bound(x) for x in operands
            )
            if not validation and any(_is_cli_bound(x) for x in ast.walk(node)):
                found.append(f"{path.name}:{node.lineno}: a verdict outside hilbert._within")
    return _by_line(found)


def test_every_cli_verdict_goes_through_within():
    assert cli_verdict_breaches() == []


def test_the_verdict_rule_recognizes_each_spelling(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import numpy as np\n"
        "_X_TOL = 1e-9\n"
        "_Y_MIN = 0.0\n"
        "def cmd_a(args, d, tol, n, MAX_SIZE):\n"
        "    a = d < _X_TOL\n"
        "    b = _Y_MIN < d\n"
        "    c = bool(np.max(d) <= args.tol)\n"
        "    e = d == tol\n"
        "    f = np.all(d > args.tol * max(1.0, n))\n"
        "    g = n > MAX_SIZE or n < 1\n"
        "    h = _within(d, _X_TOL) and _within(-d, -_Y_MIN)\n"
        "    k = is_positive(d, tol=0.0) == g\n"
        "    return a != tol\n"
        "def _run(args, d):\n"
        "    if not (args.tol > 0.0 and np.isfinite(args.tol)):\n"
        "        raise ValueError\n"
        "    return d <= args.tol\n"
        "OK = 0.0 <= _X_TOL\n"
    )
    assert cli_verdict_breaches(tmp_path / "cli.py") == [
        "cli.py:5: a verdict outside hilbert._within",
        "cli.py:6: a verdict outside hilbert._within",
        "cli.py:7: a verdict outside hilbert._within",
        "cli.py:8: a verdict outside hilbert._within",
        "cli.py:9: a verdict outside hilbert._within",
        "cli.py:13: a verdict outside hilbert._within",
        "cli.py:17: a verdict outside hilbert._within",
        "cli.py:18: a verdict outside hilbert._within",
    ]


# ---------------------------------------------------------------------------
# the one norm
# ---------------------------------------------------------------------------

# the self-products under src/threefold that are not norms, by file and source text
NOT_A_NORM = {
    # U(pi)^2, a matrix square
    ("su2.py", "half_turn @ half_turn"),
    # t^2 > x.x, the light cone read off directly as a check of cone_margin
    ("cli.py", "_dots(x, x)"),
}


def _same(x, y):
    return ast.dump(x) == ast.dump(y)


def _is_self_dot(node):
    """True for x @ x, x.dot(x), np.dot(x, x), np.vdot(x, x), np.inner(x, x) or _dots(x, x)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _same(node.left, node.right)
    if not isinstance(node, ast.Call) or _called(node.func) not in {"dot", "vdot", "inner", "_dots"}:
        return False
    if len(node.args) == 2:
        return _same(*node.args)
    func = node.func  # x.dot(x)
    return len(node.args) == 1 and isinstance(func, ast.Attribute) and _same(func.value, node.args[0])


def _is_square(node):
    """True for x * x, x ** 2 or np.square(x)."""
    if isinstance(node, ast.Call):
        return _called(node.func) == "square"
    return isinstance(node, ast.BinOp) and (
        (isinstance(node.op, ast.Mult) and _same(node.left, node.right))
        or (isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant) and node.right.value == 2)
    )


def _is_sum_of_squares(node):
    """True for a + of squares (b * b + c * c + d * d) or a sum() of a square."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return all(_is_square(x) or _is_sum_of_squares(x) for x in (node.left, node.right))
    if isinstance(node, ast.Call) and _called(node.func) == "sum":
        return _is_square(node.args[0] if node.args else getattr(node.func, "value", None))
    return False


def _outside_scalars_helper(directory, helper):
    """``(path, node)`` for every AST node under ``directory`` outside the function ``scalars.<helper>``."""
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {
            id(node) for top in tree.body
            if path.name == "scalars.py" and isinstance(top, ast.FunctionDef) and top.name == helper
            for node in ast.walk(top)
        }
        yield from ((path, node) for node in ast.walk(tree) if id(node) not in inside)


def hand_rolled_norms(directory=SOURCE):
    """``file:line: what`` for each norm taken outside ``scalars._norms``.

    The package's norms go through that one helper, which rescales by a power
    of two where a square would overflow or underflow.  Flagged: a
    ``linalg.norm`` call, a self-dot (a squared norm) and a sum of squares,
    except in the helper and for the self-products in NOT_A_NORM.
    """
    found = set()
    for path, node in _outside_scalars_helper(directory, "_norms"):
        if (path.name, ast.unparse(node)) not in NOT_A_NORM:
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm"
                and _called(node.func.value) == "linalg"
            ):
                found.add(f"{where}: linalg.norm outside scalars._norms")
            elif _is_self_dot(node):
                found.add(f"{where}: a self-dot outside scalars._norms")
            elif _is_sum_of_squares(node):
                found.add(f"{where}: a sum of squares outside scalars._norms")
    return _by_line(found)


def test_every_norm_goes_through_the_one_helper():
    assert hand_rolled_norms() == []


def test_the_norm_rule_recognizes_each_spelling(tmp_path):
    (tmp_path / "scalars.py").write_text(
        "import numpy as np\n"
        "def _norms(x):\n"
        "    return np.sqrt(x @ x)\n"
        "def inverse(coeffs):\n"
        "    return coeffs / float(coeffs @ coeffs)\n"
    )
    (tmp_path / "other.py").write_text(
        "import numpy as np\n"
        "from numpy import linalg\n"
        "def f(x, b, c, d, m, a, t):\n"
        "    p = np.linalg.norm(x) + linalg.norm(x, axis=0)\n"
        "    q = x.dot(x) + np.dot(x, x) + np.vdot(x, x) + np.inner(x, x)\n"
        "    r = np.sqrt(b * b + c * c + d * d)\n"
        "    s = np.sqrt((x ** 2).sum()) + np.sum(np.square(x))\n"
        "    u = m @ np.conj(m) + x.dot(b) + b * c + t * t - a\n"
        "    return x.norm() + np.vdot(x, b)\n"
    )
    (tmp_path / "su2.py").write_text(
        "def full_turn(half_turn):\n"
        "    return half_turn @ half_turn\n"
    )
    assert hand_rolled_norms(tmp_path) == [
        "other.py:4: linalg.norm outside scalars._norms",
        "other.py:5: a self-dot outside scalars._norms",
        "other.py:6: a sum of squares outside scalars._norms",
        "other.py:7: a sum of squares outside scalars._norms",
        "scalars.py:5: a self-dot outside scalars._norms",
    ]


# ---------------------------------------------------------------------------
# the one exact rescaling
# ---------------------------------------------------------------------------

def stray_rescalings(directory=SOURCE):
    """``file:line: frexp outside scalars._unit_scaled`` for each other use of frexp.

    The package scales by the power of two of a largest entry in that one
    helper, so each site that rescales to keep a result exact under 2^k
    calls it.  Flagged: an attribute ``.frexp`` (``np.frexp``,
    ``numpy.frexp``, ``math.frexp``), a bare ``frexp`` and an import of it.
    """
    found = set()
    for path, node in _outside_scalars_helper(directory, "_unit_scaled"):
        if (
            (isinstance(node, ast.Attribute) and node.attr == "frexp")
            or (isinstance(node, ast.Name) and node.id == "frexp")
            or (isinstance(node, ast.alias) and node.name == "frexp")
        ):
            found.add(f"{path.name}:{node.lineno}: frexp outside scalars._unit_scaled")
    return _by_line(found)


def test_every_rescaling_goes_through_the_one_helper():
    assert stray_rescalings() == []


def test_the_rescaling_rule_recognizes_each_spelling(tmp_path):
    (tmp_path / "scalars.py").write_text(
        "import numpy as np\n"
        "def _unit_scaled(x):\n"
        "    e = np.frexp(np.abs(x).max())[1]\n"
        "    return np.ldexp(x, -e), e\n"
        "def _norms(x):\n"
        "    return np.frexp(x)[1]\n"
    )
    (tmp_path / "other.py").write_text(
        "import math\n"
        "import numpy\n"
        "import numpy as np\n"
        "from numpy import frexp\n"
        "from math import frexp as fr\n"
        "def f(x, m):\n"
        "    a = np.frexp(x)[1] + numpy.frexp(x)[1]\n"
        "    b = math.frexp(1.0)[1]\n"
        "    c = frexp(x)[1]\n"
        "    return np.ldexp(x, -a) + m.frexponent + np.frexp_like(x)\n"
    )
    assert stray_rescalings(tmp_path) == [
        "other.py:4: frexp outside scalars._unit_scaled",
        "other.py:5: frexp outside scalars._unit_scaled",
        "other.py:7: frexp outside scalars._unit_scaled",
        "other.py:8: frexp outside scalars._unit_scaled",
        "other.py:9: frexp outside scalars._unit_scaled",
        "scalars.py:6: frexp outside scalars._unit_scaled",
    ]


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------

def load_layers(path=ROOT / "benchmarks" / "layers.py"):
    """The tracer's layer table, loaded from its file without registering it as a module."""
    spec = importlib.util.spec_from_file_location("layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_paths(layers):
    """Every ``module:qualname`` the tracer wraps: its TARGETS, then its COUNTERS."""
    return [path for _, paths, _ in layers.TARGETS for path in paths] + list(layers.COUNTERS)


def _public_names(source):
    """``{(module, name)}`` for every ``__all__`` entry and every ``__init__._EXPORTS`` name."""
    names = set()
    for path in sorted(source.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
                continue
            if node.targets[0].id == "__all__" and isinstance(node.value, ast.List):
                names.update((path.stem, elt.value) for elt in node.value.elts)
            elif node.targets[0].id == "_EXPORTS":
                names.update(
                    (module.value, name)
                    for module, listed in zip(node.value.keys, node.value.values)
                    for name in listed.value.split()
                )
    return names


def _reached(tree):
    """``{(module, name)}`` a file takes from the package: imports and ``module.name`` reads.

    ``module`` is ``""`` for the package itself (``from threefold import name``
    or ``threefold.name``).
    """
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "threefold":
                    continue
                module = module.partition(".")[2]
            reached.update((module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            owner = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
            reached.add(("" if owner == "threefold" else owner, node.attr))
    return reached


def _read_outside_own_definition(tree):
    """Names a module reads anywhere but inside their own top-level def or class."""
    read = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        read.update(
            node.id for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
        )
    return read


def _readme_code(text):
    """The parsed Python blocks and inline code spans of a README, less its "Removed names" section.

    That section names what left the library, so it keeps nothing alive.
    """
    text = re.sub(r"^## Removed names\n.*?(?=^## |\Z)", "", text, flags=re.S | re.M)
    trees = [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]
    for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        try:
            trees.append(ast.parse(span))
        except SyntaxError:
            pass  # a shell argv or a formula
    return trees


def unused_public_names(root=ROOT):
    """``module.name`` for every public name under ``root/src/threefold`` with no user outside the tests."""
    root = pathlib.Path(root)
    source = root / "src" / "threefold"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    by_module = {stem: _reached(tree) for stem, tree in trees.items()}
    readme = _readme_code((root / "README.md").read_text())
    demos = [ast.parse(path.read_text()) for path in sorted((root / "demos").glob("*.py"))]
    outside = set().union(*map(_reached, demos + readme))
    for path in traced_paths(load_layers(root / "benchmarks" / "layers.py")):
        module, _, qualname = path.partition(":")
        outside.add((module.partition(".")[2], qualname.split(".")[0]))
    # a bare name in the README's code counts for whichever module defines it
    mentioned = {node.id for tree in readme for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for module, name in sorted(_public_names(source)):
        reached = outside.union(*(used for stem, used in by_module.items() if stem != module))
        if not (
            {(module, name), ("", name)} & reached
            or name in mentioned
            or name in _read_outside_own_definition(trees[module])
        ):
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []


def test_the_surface_rule_counts_each_kind_of_user(tmp_path):
    package = tmp_path / "src" / "threefold"
    package.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (package / "__init__.py").write_text('_EXPORTS = {"a": "exported by_package"}\n')
    (package / "a.py").write_text(
        "__all__ = ['by_b', 'by_self', 'by_demo', 'by_block', 'by_span', 'by_tracer',"
        " 'by_package', 'exported', 'recursive', 'removed']\n"
        "def by_self():\n    return 0\n"
        "def recursive(n):\n    return recursive(n - 1) + by_self()\n"
    )
    (package / "b.py").write_text("from .a import by_b\n")
    (tmp_path / "demos" / "demo.py").write_text("import threefold.a\nthreefold.a.by_demo()\n")
    (tmp_path / "README.md").write_text(
        "# t\n\n```python\nfrom threefold.a import by_block\n```\n\nSee `by_span(x)`"
        " and `threefold.by_package`.\n\n## Removed names\n\n`removed` is gone.\n\n## Tests\n"
    )
    (tmp_path / "benchmarks" / "layers.py").write_text(
        'TARGETS = (("a.layer", ["threefold.a:by_tracer"], None),)\nCOUNTERS = ()\n'
    )
    assert unused_public_names(tmp_path) == ["a.exported", "a.recursive", "a.removed"]


def _attribute_reads(tree):
    """The attribute names a tree reads, as in ``x.name`` or ``x.name()``, once per read."""
    return [
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]


def unused_public_members(root=ROOT):
    """``module.Class.member`` for every member of a public class with no user outside the tests.

    The members are the methods, properties and classmethods that a class
    whose name has no leading underscore defines, dunders aside.  A read of
    ``.member`` on any object counts, since the rule does not know types.
    """
    root = pathlib.Path(root)
    source = root / "src" / "threefold"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(source.glob("*.py"))}
    outside = [ast.parse(path.read_text()) for folder in ("demos", "benchmarks")
               for path in sorted((root / folder).glob("*.py"))]
    read = {attr for tree in outside + _readme_code((root / "README.md").read_text())
            for attr in _attribute_reads(tree)}
    in_source = [attr for tree in trees.values() for attr in _attribute_reads(tree)]
    traced = {path.partition(":")[2] for path in traced_paths(load_layers(root / "benchmarks" / "layers.py"))}
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                name = getattr(member, "name", "__")
                if not isinstance(member, ast.FunctionDef) or (name.startswith("__") and name.endswith("__")):
                    continue
                if not (
                    name in read
                    or in_source.count(name) > _attribute_reads(member).count(name)
                    or f"{cls.name}.{name}" in traced
                ):
                    unused.append(f"{module}.{cls.name}.{name}")
    return unused


def test_every_public_member_has_a_user_outside_the_tests():
    assert unused_public_members() == []


def test_the_member_rule_counts_each_kind_of_user(tmp_path):
    package = tmp_path / "src" / "threefold"
    package.mkdir(parents=True)
    (tmp_path / "demos").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (package / "a.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.by_store = 0\n"
        "    def by_b(self):\n        return 0\n"
        "    def by_self(self):\n        return self.by_b()\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) + self.by_self()\n"
        "    @property\n    def by_demo(self):\n        return 0\n"
        "    @classmethod\n    def by_block(cls):\n        return cls()\n"
        "    def by_span(self):\n        return 0\n"
        "    def by_harness(self):\n        return 0\n"
        "    def by_tracer(self):\n        return 0\n"
        "    def removed(self):\n        return 0\n"
        "    def by_store(self):\n        return 0\n"
        "    def _unread(self):\n        return 0\n"
        "class _Private:\n"
        "    def unread(self):\n        return 0\n"
    )
    (package / "b.py").write_text("def f(a):\n    return a.by_b()\n")
    (tmp_path / "demos" / "demo.py").write_text("from threefold.a import A\nA().by_demo\n")
    (tmp_path / "README.md").write_text(
        "# t\n\n```python\nfrom threefold.a import A\nA.by_block()\n```\n\nSee `a.by_span()`."
        "\n\n## Removed names\n\n`a.removed()` is gone.\n\n## Tests\n"
    )
    (tmp_path / "benchmarks" / "test_harness.py").write_text("def test(a):\n    assert a.by_harness() == 0\n")
    (tmp_path / "benchmarks" / "layers.py").write_text(
        'TARGETS = (("a.layer", ["threefold.a:A.by_tracer"], None),)\nCOUNTERS = ()\n'
    )
    assert unused_public_members(tmp_path) == ["a.A.recursive", "a.A.removed", "a.A.by_store", "a.A._unread"]


def test_every_traced_name_resolves_in_the_package():
    # the tracer wraps owner.__dict__[attr] for each path; a name missing there
    # raises KeyError in every traced child
    missing = []
    paths = traced_paths(load_layers())
    for path in paths:
        module, _, qualname = path.partition(":")
        *outer, attr = qualname.split(".")
        owner = importlib.import_module(module)
        try:
            for part in outer:
                owner = getattr(owner, part)
            owner.__dict__[attr]
        except (AttributeError, KeyError):
            missing.append(path)
    assert len(paths) > 80 and missing == []

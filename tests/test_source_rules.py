"""Source rules that keep one rule per operator property.

The self-adjoint, skew-adjoint and unitary checks live in ``threefold.hilbert``
alone, relative to the operand.  These tests parse ``src/threefold/*.py``
and fail when a second rule creeps back in: an ``np.allclose`` or ``atol=``
outside an ``is_close`` method, or a module other than ``hilbert`` that
measures an adjoint defect, T - T* or T + T*, or a unitary one, T*T - 1.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "threefold"


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

        def inside_is_close(node):
            while node in parents:
                node = parents[node]
                if isinstance(node, ast.FunctionDef) and node.name == "is_close":
                    return True
            return False

        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and not inside_is_close(node):
                if _called(node.func) == "allclose":
                    found.append(f"{where}: allclose outside is_close")
                if any(kw.arg == "atol" for kw in node.keywords):
                    found.append(f"{where}: atol= outside is_close")
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
        "spellings.py:6: allclose outside is_close",
        "spellings.py:6: atol= outside is_close",
        "spellings.py:7: adjoint defect outside hilbert",
        "spellings.py:9: unitary defect outside hilbert",
    ]

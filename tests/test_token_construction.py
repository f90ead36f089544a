"""Tokens are built by `basis.tok` alone, and sum, product and function-space
bases by `construct.sum_basis`, `prod_basis` and `fun_basis` alone.

`tok` keeps one token per key and tokens compare by identity, so a token built
around it would compare unequal to the token of the same key, with no error
raised anywhere.  The three basis constructors keep one basis per pair of
parts, so that a chain stage, the link bases around it and the per carrier on
it share one set of caches; a basis built around them would silently
enumerate and cache everything again."""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src")
BASIS_PY = os.path.join("domania", "basis.py")
CONSTRUCT_PY = os.path.join("domania", "construct.py")
ETA_PY = os.path.join("domania", "eta.py")

TOKEN_CLASSES = ("Token",)
TOKEN_BUILDERS = {(BASIS_PY, "tok")}

BASIS_CLASSES = ("FunBasis", "MultiSumBasis", "ProdBasis")
BASIS_BUILDERS = {
    (CONSTRUCT_PY, "sum_basis"),
    (CONSTRUCT_PY, "prod_basis"),
    (CONSTRUCT_PY, "fun_basis"),
    # an n-ary sum of the constant parameters; its arity makes it no binary
    # sum of the table
    (ETA_PY, "multi_sum_per"),
    # the strict product E of curried-evaluation results, named in the reports
    (ETA_PY, "EtaBarSystem.__init__"),
}


def _calls(path, text, classes, allowed):
    """(path, line, enclosing function) of every call of one of `classes` in
    `text` outside the (path, function) pairs in `allowed`.  The function is
    named with its enclosing classes, `Cls.method`."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            func = ".".join(scope) or None
            if name in classes and (path, func) not in allowed:
                out.append((path, node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text, path), ())
    return out


def _token_calls(path, text):
    return _calls(path, text, TOKEN_CLASSES, TOKEN_BUILDERS)


def _basis_calls(path, text):
    return _calls(path, text, BASIS_CLASSES, BASIS_BUILDERS)


def _package_calls(find):
    found = []
    for dirpath, _, names in os.walk(PACKAGE):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    text = fh.read()
                found += find(os.path.relpath(path, PACKAGE), text)
    return found


def test_guard_sees_token_calls():
    snippet = "def f(k):\n    return basis.Token(k)\n\nt = Token(('nat', 1))\n"
    assert _token_calls("x.py", snippet) == [("x.py", 2, "f"), ("x.py", 4, None)]
    assert _token_calls(BASIS_PY, "def tok(key):\n    return Token(key)\n") == []


def test_only_tok_builds_tokens():
    assert _package_calls(_token_calls) == []


def test_guard_sees_basis_calls():
    snippet = (
        "class S:\n"
        "    def __init__(self, d, e):\n"
        "        self.b = construct.FunBasis(d, e)\n"
        "\n"
        "def sum_basis(d, e):\n"
        "    return MultiSumBasis([d, e])\n"
    )
    assert _basis_calls("x.py", snippet) == [
        ("x.py", 3, "S.__init__"),
        ("x.py", 6, "sum_basis"),
    ]
    assert _basis_calls(CONSTRUCT_PY, snippet) == [(CONSTRUCT_PY, 3, "S.__init__")]


def test_only_the_interning_constructors_build_bases():
    assert _package_calls(_basis_calls) == []

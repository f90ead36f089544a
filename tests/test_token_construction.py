"""Tokens are built by `basis.tok` alone.  `tok` keeps one token per key and
tokens compare by identity, so a token built around it would compare unequal
to the token of the same key, with no error raised anywhere."""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src")
ALLOWED = (os.path.join("domania", "basis.py"), "tok")


def _token_calls(path, text):
    """(path, line, enclosing function) of every `Token(...)` call in `text`
    outside `basis.tok`."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name == "Token" and (path, func) != ALLOWED:
                out.append((path, node.lineno, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(text, path), None)
    return out


def test_guard_sees_token_calls():
    snippet = "def f(k):\n    return basis.Token(k)\n\nt = Token(('nat', 1))\n"
    assert _token_calls("x.py", snippet) == [("x.py", 2, "f"), ("x.py", 4, None)]
    assert _token_calls(ALLOWED[0], "def tok(key):\n    return Token(key)\n") == []


def test_only_tok_builds_tokens():
    found = []
    for dirpath, _, names in os.walk(PACKAGE):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    text = fh.read()
                found += _token_calls(os.path.relpath(path, PACKAGE), text)
    assert found == []

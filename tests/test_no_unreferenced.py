"""Every module-level function and class of the package, and every method
that is not a dunder, is referenced somewhere: its name occurs as a whole
word in some Python file under src/, tests/ or scripts/ outside the line
that defines it."""

import ast
import os
import re
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "domania")
SEARCHED = ("src", "tests", "scripts")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files():
    for top in SEARCHED:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _definitions(path, lines):
    """(name, defining line) of the top-level definitions and the
    non-dunder methods of top-level classes."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node.name, lines[node.lineno - 1]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, lines[item.lineno - 1]


def test_every_definition_is_referenced():
    words = Counter()
    for path in _python_files():
        with open(path) as fh:
            words.update(re.findall(r"\w+", fh.read()))
    unreferenced = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        for defined, line in _definitions(path, lines):
            on_def_line = len(re.findall(rf"\b{re.escape(defined)}\b", line))
            if words[defined] <= on_def_line:
                unreferenced.append(f"{name}: {defined}")
    assert not unreferenced, unreferenced

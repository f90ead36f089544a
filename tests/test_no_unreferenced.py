"""Every module-level function and class of the package, and every method
that is not a dunder, is referenced somewhere: its name occurs as a whole
word in some Python file under src/, tests/ or scripts/ outside the line
that defines it. Each also serves the package: it is referenced from src/
or scripts/, unless `TEST_ONLY` names it. Every name a package module
imports is used in that module, unless its import line says `# noqa: F401`."""

import ast
import os
import re
from collections import Counter

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "domania")
SEARCHED = ("src", "tests", "scripts")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions only tests reach, kept on purpose.  Any other definition that
# only tests reach is a pass-through or dead code, and fails.
TEST_ONLY = {
    # law checkers the tests run against the library
    "check_domain_axioms",  # basis: the domain axioms of a basis
    "equi_injective",  # per: reflection of relatedness over totals
    "flags_from_checks",  # per: flags read off the property checkers
    "mediating_algebra_morphism",  # perlfp: initiality of the fixed point
    "prec_check",  # per: a token approximates a class
    # reference constructions the reports reach by another path
    "chain_embedding",  # spfunctor: composite of chain links
    "enumerate_ideals",  # qcb: ideal completion of a finite basis
    "eta_token",  # eta: the one-step map as a step set
    "image_per",  # per: the image per of a map
    "node_premise",  # eta: premise of an eta-bar tree node
    "tree_morphism",  # eta: morphism between eta-bar trees
}


def _python_files(tops=SEARCHED):
    for top in tops:
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


def _unreferenced(tops):
    """`module: name` of every package definition whose name occurs nowhere
    in the Python files under `tops` outside its defining line."""
    words = Counter()
    for path in _python_files(tops):
        with open(path) as fh:
            words.update(re.findall(r"\w+", fh.read()))
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        for defined, line in _definitions(path, lines):
            on_def_line = len(re.findall(rf"\b{re.escape(defined)}\b", line))
            if words[defined] <= on_def_line:
                out.append(f"{name}: {defined}")
    return out


def test_every_definition_is_referenced():
    unreferenced = _unreferenced(SEARCHED)
    assert not unreferenced, unreferenced


def test_every_definition_serves_the_package():
    test_only = _unreferenced(("src", "scripts"))
    named = {entry.split(": ")[1] for entry in test_only}
    assert [e for e in test_only if e.split(": ")[1] not in TEST_ONLY] == []
    # the allow-list names only definitions that still need it
    assert sorted(TEST_ONLY - named) == []


def _unused_imports(path):
    """Names bound by the imports of `path` that no name in its code reads;
    `from __future__` imports and lines marked `# noqa: F401` are exempt."""
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    tree = ast.parse(text, path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield bound


def test_every_import_is_used():
    unused = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            unused += [f"{name}: {bound}" for bound in _unused_imports(path)]
    assert not unused, unused

"""Every module-level function and class of the package, and every method
that is not a dunder, is referenced somewhere: some Python file under src/,
tests/ or scripts/ refers to its name outside the definition itself. A
reference to a module-level definition is a bare name that no enclosing
function binds as a parameter or by assignment, an attribute, an imported
name or a string constant that is an identifier (as in
`getattr(module, "name")`); a method is referenced only by an attribute or
such a string. So a local variable that shares a definition's name does not
keep it.
Comments, docstrings and other definitions of the same name are not
references. Each
definition also serves the package: it is referenced from src/ or scripts/,
unless `TEST_ONLY` names it. Every name a package module imports is used in
that module, unless its import line says `# noqa: F401`. Only cli.py words a
flag: no other package module holds the string "yes", "no" or "unknown".
No package code drops the exactness flag of a bounded listing outside the
commented `FLAG_DROPS` allow-list.  Every defaulted parameter of a package
function, method or class is set by some call under src/, tests/ or
scripts/."""

import ast
import os
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
    "mediating_algebra_morphism",  # perlfp: initiality of the fixed point
    "theta",  # eta: the one-step lower adjoint the adjunction is stated for
    # reference constructions the reports reach by another path
    "compose",  # construct: the composite ep-pair functoriality is stated for
    "enumerate_ideals",  # qcb: ideal completion of a finite basis
    "eta_token",  # eta: the one-step map as a step set
    "image_per",  # per: the image per of a map
    # construct: slow reference for the consistency `canonical_steps` decides
    "stepset_consistent_subsets",
}


def _python_files(tops=SEARCHED):
    for top in tops:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(scope):
    """The names a function or lambda binds itself: its parameters and the
    names it assigns, outside the functions nested in it."""
    args = scope.args
    out = {
        a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        + [args.vararg, args.kwarg] if a is not None
    }
    todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _free_names(node, bound=frozenset()):
    """The `ast.Name` nodes at or under `node` whose name no enclosing
    function binds: a name a function binds is its own variable, not a
    reference."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound(node)
    if isinstance(node, ast.Name) and node.id not in bound:
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _free_names(child, bound)


def _references(tree):
    """How often the code under `tree` refers to each identifier, as two
    counts: by a bare name no enclosing function binds or an imported name,
    and by an attribute or an identifier string."""
    names, members = Counter(), Counter()
    for node in _free_names(tree):
        names[node.id] += 1
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute):
            members[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
        ):
            members[node.value] += 1
    return names, members


def _definitions(tree):
    """(definition, whether it is a method) for the top-level definitions
    and the non-dunder methods of top-level classes."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def _unreferenced_in(modules, trees):
    """`module: name` of every definition in `modules`, (module name, tree)
    pairs, that none of `trees` refers to outside the definition: a method
    by an attribute or an identifier string, anything else by any
    reference."""

    def count(name, refs, method):
        names, members = refs
        return members[name] if method else names[name] + members[name]

    references = Counter(), Counter()
    for tree in trees:
        for total, found in zip(references, _references(tree)):
            total.update(found)
    out = []
    for (module, tree) in modules:
        for (node, method) in _definitions(tree):
            own = count(node.name, _references(node), method)
            if count(node.name, references, method) <= own:
                out.append(f"{module}: {node.name}")
    return out


def _unreferenced(tops):
    """`module: name` of every package definition that no Python file under
    `tops` refers to outside the definition."""
    modules = [
        (name, _parse(os.path.join(PACKAGE, name)))
        for name in sorted(os.listdir(PACKAGE))
        if name.endswith(".py")
    ]
    return _unreferenced_in(modules, [_parse(path) for path in _python_files(tops)])


def test_a_local_name_does_not_reference_a_function():
    # a parameter or an assigned name of the same name, in the using
    # function or one around it, is no reference; a free name, an import
    # and an attribute are
    module = ast.parse(
        "def seq():\n    return 1\n"
        "def step():\n    return 2\n"
        "def size():\n    return 3\n"
        "def walk():\n    return 4\n"
    )
    user = ast.parse(
        "from m import size\n"
        "def use(step, n):\n"
        "    seq = [step, n]\n"
        "    inner = lambda: seq + walk()\n"
        "    return seq, inner\n"
    )
    assert _unreferenced_in([("m.py", module)], [module, user]) == [
        "m.py: seq", "m.py: step",
    ]


def test_a_local_name_does_not_reference_a_method():
    # a method survives only through an attribute access or an identifier
    # string; a local variable of the same name is no reference to it,
    # while a bare name still references a function
    module = ast.parse(
        "class Seq:\n"
        "    def seq(self):\n"
        "        return 1\n"
        "    def step(self):\n"
        "        return 2\n"
        "    def size(self):\n"
        "        return 3\n"
        "def walk(s):\n"
        "    return s.step(), getattr(s, 'size')\n"
    )
    user = ast.parse("def use():\n    seq = [Seq(), walk]\n    return seq\n")
    assert _unreferenced_in([("m.py", module)], [module, user]) == ["m.py: seq"]


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


def test_only_the_cli_words_flags():
    # flags and verdicts are True/False/None in the library; cli.py alone
    # turns them into report words
    words = {"yes", "no", "unknown"}
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "cli.py":
            tree = _parse(os.path.join(PACKAGE, name))
            found += [
                f"{name}:{node.lineno}: {node.value!r}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value in words
            ]
    assert not found, found


# Methods that answer `(values, exact)`: dropping `exact` with `x, _ = ...`
# or `...[0]` can turn an incomplete listing into a decided verdict.
FLAGGED = {
    "totals", "classes", "representatives", "class_count", "carrier_tokens",
    "related_pairs",
}

# (module, enclosing function, the site as `ast.unparse` prints it) -> why
# dropping the flag there is safe, or "waits for item 9" (ROADMAP): the
# verdict it feeds should carry the flag, which moves a golden row.
FLAG_DROPS = {
    ("cli.py", "_stage_rows_for_chain", "n_classes, _ = per.class_count(rank_bound)"):
        "waits for item 9",
    ("dense.py", "dense_part", "ts, _ = P.totals(bound)"): "waits for item 9",
    ("dense.py", "_least_total", "ts, _ = self._trivial[id(expr)].totals()"):
        "any listed total serves as the least one by printed name, and one "
        "listed total shows the sub-term live",
    ("dense.py", "dense_laws", "totals, _ = plim.per.totals(rank_bound)"):
        "waits for item 9",
    ("eta.py", "find_witness", "ts, _ = inputs.totals(bound)"): "waits for item 9",
    ("eta.py", "find_witness", "candidates.representatives(bound)[0]"):
        "a search: None already means no witness within the bound",
    ("eta.py", "dense_image_weak_iso", "classes, _ = lfp.per.classes(rank_bound)"):
        "waits for item 9",
    ("oracles.py", "limit_per_suite", "ts, _ = plim.per.totals(3)"): "waits for item 9",
    ("oracles.py", "standard_rep_suite", "ts, _ = rep.per.totals()"):
        "a standard representation is finite: its totals are exact",
    ("per.py", "totals", "self.exp_per.totals(bound)[0]"):
        "the flag is read where the method returns",
    ("per.py", "representatives", "exp_reps, _ = exp.representatives(bound)"):
        "the exponent's totals were checked exact just above",
    ("per.py", "representatives", "exp.totals(bound)[0]"):
        "the exponent's totals were checked exact just above",
    ("per.py", "class_of", "classes, _ = self.classes(bound)"): "waits for item 9",
    ("perlfp.py", "functor_is_trivial",
     "ts, _ = apply_functor_per(expr, trivial_per(), env).totals()"):
        "waits for item 9",
    ("perlfp.py", "_successor_fragment_totals",
     "reps, _ = unfolded.representatives(depth)"):
        "waits for item 9",
    ("perlfp.py", "_omega_verdict",
     "reps, _ = chain.per_limit.per.representatives(depth + 1)"):
        "waits for item 9",
    ("perlfp.py", "_fill", "ts, _ = env[expr.name].totals()"):
        "any listed total serves as the least one by printed name",
    ("perlfp.py", "counterexample_phi", "env[exp.param].totals()[0]"):
        "it sizes the check, whose row reports that bound",
    ("qcb.py", "recovered_pseudobase", "ts, _ = rep.per.totals()"):
        "a standard representation is finite: its totals are exact",
    ("qcb.py", "class_order", "classes, _ = per.classes()"):
        "only standard representations reach it: their classes are exact",
    ("qcb.py", "check_sum_coherence", "cd, _ = D.classes()"):
        "standard representations and their sums are finite: classes exact",
    ("qcb.py", "check_sum_coherence", "ce, _ = E.classes()"):
        "standard representations and their sums are finite: classes exact",
    ("qcb.py", "check_sum_coherence", "cs, _ = s.classes()"):
        "standard representations and their sums are finite: classes exact",
    ("qcb.py", "check_prod_coherence", "cd, _ = D.classes()"):
        "standard representations and their products are finite: classes exact",
    ("qcb.py", "check_prod_coherence", "ce, _ = E.classes()"):
        "standard representations and their products are finite: classes exact",
    ("qcb.py", "check_prod_coherence", "cp, _ = p.classes()"):
        "standard representations and their products are finite: classes exact",
    ("qcb.py", "qcb_fixed_point",
     "class_reps, _ = lfp.per.representatives(rank_bound)"):
        "waits for item 9",
    ("qcb.py", "fixed_point_independence",
     "rf, _ = chain_f.per_limit.per.representatives(rank_bound)"):
        "waits for item 9",
    ("qcb.py", "fixed_point_independence",
     "rg, _ = chain_g.per_limit.per.representatives(rank_bound)"):
        "waits for item 9",
}


def _drops_flag(node):
    """The site as printed when `node` drops the flag of a `FLAGGED` call:
    an assignment or loop target `x, _` bound to one, or a `[0]` on one."""

    def flagged(call):
        if not isinstance(call, ast.Call):
            return False
        f = call.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in FLAGGED

    def drops(target):
        return (
            isinstance(target, ast.Tuple) and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name) and target.elts[1].id == "_"
        )

    if isinstance(node, ast.Assign) and flagged(node.value):
        if any(drops(t) for t in node.targets):
            return ast.unparse(node)
    if isinstance(node, (ast.For, ast.comprehension)) and flagged(node.iter):
        if drops(node.target):
            return f"for {ast.unparse(node.target)} in {ast.unparse(node.iter)}"
    if isinstance(node, ast.Subscript) and flagged(node.value):
        if isinstance(node.slice, ast.Constant) and node.slice.value == 0:
            return ast.unparse(node)
    return None


def _flag_drops(name):
    """(module, enclosing function, site) of every flag drop in `name`."""
    out = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            site = _drops_flag(child)
            if site is not None:
                out.append((name, fn, site))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else fn)

    visit(_parse(os.path.join(PACKAGE, name)), None)
    return out


def test_no_exactness_flag_is_dropped_off_the_allow_list():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            found += _flag_drops(name)
    assert [site for site in found if site not in FLAG_DROPS] == []
    # each site is allowed once, and the allow-list names only live sites
    assert sorted(found) == sorted(FLAG_DROPS)
    assert all(FLAG_DROPS.values())


def _signature(args, skip):
    """A definition's positional parameters after the first `skip`, and its
    defaulted parameters."""
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]
    return positional, defaulted


def _callables():
    """Name -> (module, definition, positional parameters, defaulted
    parameters) of each package definition that a call by that name runs.
    A function or method runs itself; a method's positional parameters start
    after `self` or `cls`, a static method's do not. A class runs its own
    `__init__` or the first one among its package bases. Other dunder
    methods are run by syntax, not by a call by name."""
    out = {}
    classes = {}

    def visit(node, module, qual, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if not qual:
                    assert child.name not in classes, child.name
                    classes[child.name] = (module, child)
                visit(child, module, f"{qual}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    static = any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in child.decorator_list
                    )
                    skip = 1 if in_class and not static else 0
                    out.setdefault(child.name, []).append(
                        (module, qual + child.name, *_signature(child.args, skip))
                    )
                visit(child, module, f"{qual}{child.name}.", False)
            else:
                visit(child, module, qual, in_class)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            visit(_parse(os.path.join(PACKAGE, name)), name, "", False)

    def runs(cls):
        module, node = classes[cls]
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                return module, f"{cls}.__init__", *_signature(item.args, 1)
        bases = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
        return next((runs(b) for b in bases if b in classes), None)

    for cls in classes:
        found = runs(cls)
        if found is not None:
            out.setdefault(cls, []).append(found)
    return out


def test_every_defaulted_parameter_is_set_by_a_call():
    # calls are matched by name: a call sets the parameters it names of
    # every package definition of that name
    callables = _callables()
    unset = {
        (module, qual, p)
        for entries in callables.values()
        for (module, qual, _, defaulted) in entries
        for p in defaulted
    }
    for path in _python_files():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            for (module, qual, positional, defaulted) in callables.get(name, ()):
                keywords = [k.arg for k in node.keywords]
                if None in keywords:  # a `**` argument may set any of them
                    named = defaulted
                elif any(isinstance(a, ast.Starred) for a in node.args):
                    named = positional + keywords
                else:
                    named = positional[:len(node.args)] + keywords
                unset -= {(module, qual, p) for p in named}
    assert sorted(f"{m}: {q}({p}=)" for (m, q, p) in unset) == []

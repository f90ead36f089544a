"""Equation DSL, command dispatcher, structured reports, graph export, and
the oracle suite runner.

Equation grammar (EBNF):

    file    := decl* eq
    decl    := "param" IDENT "=" source
    source  := builtin | "file(" PATH ")"
    builtin := "sierpinski" | "flatbool" | "flatnat" | "discrete(" NUM ")"
             | "trivial"
    eq      := IDENT "=" expr
    expr    := term ("+" term)*
    term    := factor ("*" factor)*
    factor  := IDENT | "[" IDENT "->" expr "]" | "(" expr ")"

Statements are separated by ";" or newlines, and "#" starts a comment that
runs to the end of the line. The left-hand identifier of the equation is the
recursion variable. In space mode (`qcb`) the same grammar is read with "+",
"*" and "[->]" as disjoint union, sequential product and exponentiation of
spaces, and `file(PATH)` names a space definition file.

Definition files are line-oriented `key = value` records:

    basis file:  name = vee ; tokens = bot a b ; order = bot<a bot<b
    per file:    carrier = file(vee.basis) ; rel = a~a a~b
    space file:  points = 0 1 ; opens = {} {0} {0 1} ; pseudobase = {0} {0 1}
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Tuple

from .basis import Basis, Checks, Token, lower_covers, mk_finite_basis, tok
from .builtins import builtin_per, flat_points, flatnat_per
from .dense import dense_laws, dense_lfp
from .errors import (
    DomaniaError,
    EquationSyntaxError,
    InvalidSpace,
    IsoFailure,
    RecursiveExponent,
    TrivialParameter,
    UnboundName,
    UnknownToken,
)
from .eta import dense_image_weak_iso
from .ordinals import omega_plus
from .per import DomainPer, finite_per
from .perlfp import EXHAUSTIVE_DEPTH, FRAGMENT_BOUND
from .perlfp import per_chain_extend, stabilization_probe
from .spfunctor import ConstD, Exp, FunctorExpr, Id, Prod, Sum, subterms


# ---------------------------------------------------------------------------
# parsing


class EquationSource:
    def __init__(self, decls: Dict[str, str], var: str, expr: FunctorExpr):
        self.decls = decls  # parameter name -> source text
        self.var = var
        self.expr = expr


# one alternative per token kind, tried at each position in turn; a path
# in `file(...)` is raw text up to the first close paren
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<skip>[^\S\n]+|#[^\n]*)|(?P<filesrc>file\([^)]*\))"
    r"|(?P<unterminated>file\()|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)"
    r"|(?P<arrow>->)|(?P<sym>[=+*()\[\];,])"
)


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.toks = []
        self._lex()
        self.i = 0

    def _lex(self):
        pos, line, col = 0, 1, 1
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                raise EquationSyntaxError(
                    f"unexpected character {self.text[pos]!r}", line=line, col=col
                )
            kind = m.lastgroup
            if kind == "unterminated":
                raise EquationSyntaxError(
                    "unterminated file(...) source", line=line, col=col
                )
            if kind != "skip":
                self.toks.append((kind, m.group(), line, col))
            if kind == "newline":
                line, col = line + 1, 1
            else:
                col += m.end() - pos
            pos = m.end()
        self.toks.append(("eof", "", line, col))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def skip_separators(self):
        while self.peek()[0] == "newline" or self.peek()[1] == ";":
            self.next()

    def expect(self, want):
        kind, value, line, col = self.next()
        if value != want and kind != want:
            raise EquationSyntaxError(
                f"expected {want!r}, found {value!r}", line=line, col=col
            )
        return value


def parse_equation(text: str) -> EquationSource:
    lex = _Lexer(text)
    decls: Dict[str, str] = {}
    lex.skip_separators()
    while lex.peek()[1] == "param":
        lex.next()
        kind, name, line, col = lex.next()
        if kind != "ident":
            raise EquationSyntaxError("expected parameter name", line=line, col=col)
        lex.expect("=")
        decls[name] = _parse_source(lex)
        lex.skip_separators()
    kind, var, line, col = lex.next()
    if kind != "ident":
        raise EquationSyntaxError("expected equation variable", line=line, col=col)
    lex.expect("=")
    expr = _parse_expr(lex, var, decls)
    lex.skip_separators()
    kind, value, line, col = lex.peek()
    if kind != "eof":
        raise EquationSyntaxError(f"trailing input {value!r}", line=line, col=col)
    return EquationSource(decls, var, expr)


def _parse_source(lex: _Lexer) -> str:
    kind, value, line, col = lex.next()
    if kind == "filesrc":
        return value
    if kind != "ident":
        raise EquationSyntaxError("expected a source", line=line, col=col)
    if value in ("sierpinski", "flatbool", "flatnat", "trivial"):
        return value
    if value == "discrete":
        lex.expect("(")
        nkind, num, nline, ncol = lex.next()
        if nkind != "num":
            raise EquationSyntaxError(
                f"expected a number, found {num!r}", line=nline, col=ncol
            )
        lex.expect(")")
        return f"discrete({num})"
    raise EquationSyntaxError(f"unknown source {value!r}", line=line, col=col)


def _parse_expr(lex, var, decls) -> FunctorExpr:
    left = _parse_term(lex, var, decls)
    while lex.peek()[1] == "+":
        lex.next()
        left = Sum(left, _parse_term(lex, var, decls))
    return left


def _parse_term(lex, var, decls) -> FunctorExpr:
    left = _parse_factor(lex, var, decls)
    while lex.peek()[1] == "*":
        lex.next()
        left = Prod(left, _parse_factor(lex, var, decls))
    return left


def _parse_factor(lex, var, decls) -> FunctorExpr:
    kind, value, line, col = lex.next()
    if value == "(":
        e = _parse_expr(lex, var, decls)
        lex.expect(")")
        return e
    if value == "[":
        kind, pname, pline, pcol = lex.next()
        if kind != "ident":
            raise EquationSyntaxError("expected exponent name", line=pline, col=pcol)
        if pname == var:
            raise RecursiveExponent(
                f"the recursion variable {var!r} cannot be an exponent"
            )
        if pname not in decls:
            raise UnboundName(f"undeclared exponent {pname!r}")
        lex.expect("->")
        body = _parse_expr(lex, var, decls)
        lex.expect("]")
        return Exp(pname, body)
    if kind == "ident":
        if value == var:
            return Id()
        if value not in decls:
            raise UnboundName(f"undeclared name {value!r}")
        return ConstD(value)
    raise EquationSyntaxError(f"unexpected {value!r}", line=line, col=col)


def pretty_expr(expr: FunctorExpr, var="X") -> str:
    """Prints so that reparsing restores the tree: sums are left-associative,
    so a sum brackets a right-hand sum, and a product brackets every sum or
    product on either side."""

    def show(e, level):
        # a sum has rank 1 and a product rank 2; a side read at a level of at
        # least an operator's rank brackets it
        if isinstance(e, (Sum, Prod)):
            rank, op, left = (1, "+", 0) if isinstance(e, Sum) else (2, "*", 2)
            text = f"{show(e.left, left)} {op} {show(e.right, rank)}"
            return f"({text})" if level >= rank else text
        if isinstance(e, Exp):
            return f"[{e.param} -> {show(e.body, 0)}]"
        if isinstance(e, ConstD):
            return e.name
        if isinstance(e, Id):
            return var
        raise TypeError(e)

    return show(expr, 0)


# ---------------------------------------------------------------------------
# definition files


def _parse_kv_file(path: str) -> Dict[str, str]:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            for stmt in line.split(";"):
                stmt = stmt.strip()
                if not stmt:
                    continue
                key, _, value = stmt.partition("=")
                out[key.strip()] = value.strip()
    return out


def _field(kv: Dict[str, str], key: str, path: str) -> str:
    """The value of a required key of a definition file."""
    if key not in kv:
        raise UnboundName(f"definition file {path!r} has no {key!r}")
    return kv[key]


def load_basis_file(path: str):
    kv = _parse_kv_file(path)
    name = kv.get("name", os.path.basename(path))
    tokens = _field(kv, "tokens", path).split()
    pairs = []
    for entry in kv.get("order", "").split():
        a, _, b = entry.partition("<")
        pairs.append((a.strip(), b.strip()))
    return mk_finite_basis(tokens, pairs, name=name)


def load_per_file(path: str) -> DomainPer:
    kv = _parse_kv_file(path)
    carrier_src = _field(kv, "carrier", path)
    if carrier_src.startswith("file(") and carrier_src.endswith(")"):
        base = load_basis_file(
            os.path.join(os.path.dirname(path), carrier_src[5:-1])
        )
    else:
        base = builtin_per(carrier_src).carrier
    rel_pairs = []
    for entry in kv.get("rel", "").split():
        a, _, b = entry.partition("~")
        pair = (tok(a.strip()), tok(b.strip()))
        if not all(base.has_token(t) for t in pair):
            raise UnknownToken(f"rel pair {entry} mentions an element not in {base.name}")
        rel_pairs.append(pair)
    return finite_per(base, rel_pairs)


def _parse_point_sets(text: str) -> List[List[str]]:
    sets = re.findall(r"\{([^}]*)\}", text)
    return [[p for p in re.split(r"[,\s]+", s) if p] for s in sets]


def load_space_file(path: str):
    from .qcb import mk_space

    kv = _parse_kv_file(path)
    points = _field(kv, "points", path).split()
    opens = _parse_point_sets(_field(kv, "opens", path))
    space = mk_space(os.path.basename(path).split(".")[0], points, opens)
    pseudobase = [
        frozenset(s) for s in _parse_point_sets(_field(kv, "pseudobase", path))
    ]
    return space, pseudobase


def resolve_per_source(src: str, nat_bound=8) -> DomainPer:
    if src.startswith("file(") and src.endswith(")"):
        path = src[5:-1]
        kv = _parse_kv_file(path)
        if "points" in kv:
            from .qcb import standard_representation

            space, pb = load_space_file(path)
            return standard_representation(space, pb).per
        if "carrier" in kv:
            return load_per_file(path)
        raise UnboundName(f"cannot interpret definition file {path!r}")
    return builtin_per(src, nat_bound)


def resolve_space_source(src: str, nat_bound: int):
    from .qcb import discrete_space, sierpinski_space, standard_representation

    if src.startswith("file(") and src.endswith(")"):
        space, pb = load_space_file(src[5:-1])
        return standard_representation(space, pb)
    if src == "sierpinski":
        return standard_representation(
            sierpinski_space(),
            [frozenset({"top"}), frozenset({"bot", "top"})],
        )
    points = flat_points(src)
    if points is not None:
        # a flat builtin is a discrete space: its points and the whole set
        sets = [frozenset({p}) for p in points] + [frozenset(points)]
        return standard_representation(discrete_space(points), sets)
    if src == "flatnat":
        return builtin_per("flatnat", nat_bound)
    raise UnboundName(f"no space interpretation for source {src!r}")


# ---------------------------------------------------------------------------
# reports


# check name -> the anchor of the law it certifies (docs/traceability.md);
# a name with arguments, `coherence-sum(A,B)`, is looked up without them,
# and an oracle suite's checks by the suite's name
ANCHORS = {
    "fixed-point-iso": "limit-unfolding-iso",
    "chain-links": "equiembedding-chain",
    "stabilization": "per-chain-stabilization",
    "retraction-fixes-family": "closed-family-retraction",
    "family-monotone": "closed-family-nesting",
    "family-meets-totals": "closed-family-totals",
    "kept-tokens": "dense-part-kept",
    "evaluation-reflects-classes": "evaluation-reflects-classes",
    "round-trip-fixed-point": "round-trip-fixed-point",
    "round-trip-image": "round-trip-image",
    "fixed-point-classes": "space-fixed-point",
    "coherence-sum": "representation-coherence",
    "coherence-prod": "representation-coherence",
    "coherence-fun": "representation-coherence",
    "coherence-quotient": "representation-coherence",
    "positive-parameters-hausdorff": "separation-flag",
    "rank-pattern": "nesting-rank-growth",
    "fragment-equivariance": "witness-equivariance",
    "escapes-finite-stages": "witness-not-finitely-total",
    "stage-weak-isos": "transfer-stage-isos",
    "uniform-family": "transfer-uniformity",
    "class-matching": "fixed-point-independence",
    "fun-space": "oracle-fun-space",
    "per-preservation": "oracle-per-preservation",
    "limit-per": "oracle-limit-per",
    "standard-rep": "oracle-standard-rep",
}

# the report's word for each library verdict, and for each pedigree flag;
# no other site assigns one
_STATUS = {True: "pass", False: "fail", None: "unknown"}
_FLAG = {True: "yes", False: "no", None: "unknown"}

# (command, check) rows whose `fail` records a finding, not a failure of
# the command: the non-stabilization the counterexample exists to show, and
# a hypothesis on the qcb parameters that the fixed point does not need
_RECORDED = {
    ("counterexample", "stabilization"),
    ("qcb", "positive-parameters-hausdorff"),
}


def _witness(w):
    """How a report prints a witness: a token by name, a tuple part by part,
    a dict or list as JSON, anything else as text."""
    if w is None or isinstance(w, str):
        return w
    if isinstance(w, Token):
        return w.pretty
    if isinstance(w, tuple):
        return "(" + ", ".join(str(_witness(x)) for x in w) + ")"
    if isinstance(w, (dict, list)):
        return json.dumps(w)
    return str(w)


def _check(name, anchor, v):
    """A report row for the verdict `v`, whose `holds` is True, False or None."""
    entry = {"name": name, "anchor": anchor, "status": _STATUS[v.holds], "bound": v.bound}
    if v.witness is not None:
        entry["witness"] = _witness(v.witness)
    return entry


def _report(equation, mode, stages, stabilized_at, checks: Checks, pedigree, suite=None):
    """The exit code and the report of a command's checks: exit 1 exactly
    when a check fails, other than a recorded one; `unknown` never changes
    it."""
    rows = [
        _check(name, ANCHORS[suite or name.split("(")[0]], v)
        for (name, v) in checks.entries
    ]
    failed = any(
        v.holds is False and (mode, name) not in _RECORDED
        for (name, v) in checks.entries
    )
    flags = {name: _FLAG[holds] for (name, holds) in pedigree.items()}
    text = report_json(equation, mode, stages, stabilized_at, rows, flags)
    return (1 if failed else 0), text


def report_json(equation, mode, stages, stabilized_at, checks, pedigree) -> str:
    doc = {
        "equation": equation,
        "mode": mode,
        "stages": stages,
        "stabilized_at": stabilized_at,
        "checks": checks,
        "pedigree": pedigree,
    }
    return json.dumps(doc, indent=2) + "\n"


def export_dot(basis: Basis, path: str, totals=None):
    """Hasse diagram: an edge a -> b for each a in `covers[b]`, in name order
    of a, then b; total tokens are double-circled."""
    # a stable sort: tokens that print alike keep their enumeration order
    toks = sorted(basis.tokens().tokens, key=lambda t: t.pretty)
    total = set(totals or [])
    index = {t: i for i, t in enumerate(toks)}
    lines = ["digraph basis {"] + [
        f'  n{i} [label="{t.pretty}"{" peripheries=2" if t in total else ""}];'
        for (i, t) in enumerate(toks)
    ]
    edges = sorted(
        (index[a], index[b]) for (b, lower) in basis.covers.items() for a in lower
    )
    lines += [f"  n{a} -> n{b};" for (a, b) in edges] + ["}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(toks), len(edges)


# ---------------------------------------------------------------------------
# commands


def _load_equation(text: str) -> EquationSource:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return parse_equation(text)


def _per_env(source: EquationSource, nat_bound) -> Dict[str, DomainPer]:
    return {
        name: resolve_per_source(src, nat_bound)
        for (name, src) in source.decls.items()
    }


def cmd_solve_domain(args) -> Tuple[int, str]:
    from .spfunctor import LimitBasis, fixed_point_iso, omega_chain

    src = _load_equation(args.eq)
    env = {k: v.carrier for (k, v) in _per_env(src, args.nat_bound).items()}
    stages = omega_chain(src.expr, env, args.stages)
    lim = LimitBasis(stages)
    bound = min(args.stages - 1, FRAGMENT_BOUND) if args.stages > 1 else 1
    checks = Checks()
    try:
        _, v = fixed_point_iso(src.expr, env, lim, bound=bound)
        checks.add("fixed-point-iso", v.holds, bound=v.bound)
    except DomaniaError as e:
        checks.add("fixed-point-iso", False, str(e), bound)
    stage_rows = [
        {
            "index": str(s.index),
            "compact_count": _count_tokens(s.basis, s.index.k),
            "total_class_count": None,
        }
        for s in stages
    ]
    if args.dot:
        export_dot(stages[min(len(stages) - 1, args.dot_stage)].basis, args.dot)
    return _report(
        pretty_expr(src.expr, src.var), "solve-domain", stage_rows, None, checks, {}
    )


def _count_tokens(basis, idx):
    # exact counts while the stage is small, bounded views beyond
    exact = basis.finite and idx <= EXHAUSTIVE_DEPTH
    return len(basis.tokens(None if exact else EXHAUSTIVE_DEPTH).tokens)


def _stage_rows_for_chain(chain, rank_bound):
    rows = []
    for (o, per) in chain.stages:
        if o.is_finite:
            count = _count_tokens(per.carrier, o.k)
        else:
            count = len(per.carrier.tokens(rank_bound).tokens)
        try:
            n_classes, _ = per.class_count(rank_bound)
        except IsoFailure:
            # each level past omega folds once more, so omega+k's classes at
            # bound R need the finite stage R + k; past the last built stage
            # the row has no count
            n_classes = None
        rows.append(
            {
                "index": str(o),
                "compact_count": count,
                "total_class_count": n_classes,
            }
        )
    return rows


def cmd_per_lfp(args) -> Tuple[int, str]:
    src = _load_equation(args.eq)
    env = _per_env(src, args.nat_bound)
    chain = per_chain_extend(
        src.expr,
        env,
        omega_plus(args.beyond_omega),
        n_finite=max(EXHAUSTIVE_DEPTH, args.rank_bound + 1),
    )
    verdict = stabilization_probe(chain, args.rank_bound)
    rows = _stage_rows_for_chain(chain, args.rank_bound)
    if verdict.holds and verdict.stage.is_finite:
        rows = rows[: verdict.stage.k + 1]
    checks = Checks()
    checks.add("chain-links", chain.links_hold, bound=chain.link_bound)
    checks.add("stabilization", verdict.holds, verdict.witness, verdict.bound)
    return _report(
        pretty_expr(src.expr, src.var),
        "per-lfp",
        rows,
        str(verdict.stage) if verdict.holds else None,
        checks,
        chain.stages[-1][1].flags.as_dict(),
    )


def cmd_dense(args) -> Tuple[int, str]:
    src = _load_equation(args.eq)
    env = _per_env(src, args.nat_bound)
    lfp = dense_lfp(
        src.expr, env, rank_bound=args.rank_bound,
        n_finite=max(args.n_max + 1, args.rank_bound + 1),
    )
    return _report(
        pretty_expr(src.expr, src.var),
        "dense",
        _stage_rows_for_chain(lfp.chain, args.rank_bound),
        None,
        dense_laws(lfp, args.n_max, args.rank_bound),
        lfp.per.flags.as_dict(),
    )


def cmd_eta_roundtrip(args) -> Tuple[int, str]:
    src = _load_equation(args.eq)
    env = _per_env(src, args.nat_bound)
    lfp = dense_lfp(
        src.expr, env, rank_bound=args.rank_bound,
        n_finite=max(EXHAUSTIVE_DEPTH, args.rank_bound + 1),
    )
    checks = dense_image_weak_iso(lfp, rank_bound=args.rank_bound)
    return _report(
        pretty_expr(src.expr, src.var),
        "eta-roundtrip",
        _stage_rows_for_chain(lfp.chain, args.rank_bound),
        None,
        checks,
        lfp.per.flags.as_dict(),
    )


def cmd_qcb(args) -> Tuple[int, str]:
    from .qcb import qcb_fixed_point

    src = _load_equation(args.eq)
    bindings = {
        name: resolve_space_source(s, args.nat_bound) for (name, s) in src.decls.items()
    }
    report = qcb_fixed_point(src.expr, bindings, rank_bound=args.rank_bound)
    stage_rows = [
        {"index": str(r), "compact_count": None, "total_class_count": c}
        for (r, c) in sorted(report.classes_by_rank.items())
    ]
    return _report(
        pretty_expr(src.expr, src.var), "qcb", stage_rows, None, report.checks,
        report.lfp.per.flags.as_dict(),
    )


def cmd_counterexample(args) -> Tuple[int, str]:
    env = {
        "A": resolve_per_source(args.param, args.nat_bound),
        "N": flatnat_per(args.nat_bound),
    }
    chain = per_chain_extend(
        Sum(ConstD("A"), Exp("N", Id())), env, omega_plus(1), n_finite=args.bound + 2
    )
    # the probe derives the nesting witness; its report carries the checks
    verdict = stabilization_probe(chain, args.bound)
    if verdict.report is None:
        raise TrivialParameter(f"parameter {args.param} has no totals")
    checks = verdict.report.checks
    checks.add("stabilization", verdict.holds, verdict.witness, verdict.bound)
    return _report(
        f"X = {args.param} + [flatnat -> X]",
        "counterexample",
        _stage_rows_for_chain(chain, args.bound),
        str(verdict.stage) if verdict.holds else None,
        checks,
        chain.stages[-1][1].flags.as_dict(),
    )


def cmd_oracle(args) -> Tuple[int, str]:
    from . import oracles

    suite = {
        "fun-space": oracles.fun_space_suite,
        "per-preservation": oracles.per_preservation_suite,
        "limit-per": oracles.limit_per_suite,
        "standard-rep": oracles.standard_rep_suite,
    }.get(args.suite)
    if suite is None:
        return 2, f"error: unknown suite {args.suite!r}\n"
    result = suite(args.max_size)
    if not result.cases:
        # a suite that ran no case has shown nothing
        result.add("cases", False, f"no case at --max-size {args.max_size}",
                   args.max_size)
    return _report(
        args.suite, "oracle",
        [{"index": "0", "compact_count": result.cases,
          "total_class_count": None}],
        None, result, {}, suite=args.suite,
    )


def cmd_independence(args) -> Tuple[int, str]:
    from .qcb import _paired, fixed_point_independence, token_iso_pair

    src_f = _load_equation(args.eq)
    src_g = _load_equation(args.eq2)
    env_f = _per_env(src_f, args.nat_bound)
    env_g = _per_env(src_g, args.nat_bound)
    # the library pairs parameters by position: the (F name, G name) pairs
    # that reading F side by side with G puts at each parameter
    paired = _paired(src_f.expr, src_g.expr)
    names = [] if paired is None else [
        e.name if isinstance(e, ConstD) else e.param
        for (_, e) in subterms(paired)
        if isinstance(e, (ConstD, Exp))
    ]
    pairs = {}
    for (fn, gn) in names:
        fp, gp = env_f[fn], env_g[gn]
        f_toks, g_toks = (
            lower_covers(sorted(c.tokens().tokens, key=lambda t: t.pretty), c.leq)
            for c in (fp.carrier, gp.carrier)
        )
        pairs[(fn, gn)] = token_iso_pair(fp, gp, dict(zip(f_toks, g_toks)))
    checks = fixed_point_independence(
        src_f.expr, env_f, src_g.expr, env_g, pairs,
        rank_bound=args.rank_bound,
    )
    return _report(
        f"{pretty_expr(src_f.expr, src_f.var)} vs {pretty_expr(src_g.expr, src_g.var)}",
        "independence", [], None, checks, {},
    )


# ---------------------------------------------------------------------------
# entry point


def _int_at_least(low: int):
    """Argparse type for bounds, sizes and stage counts: an integer of at
    least `low`."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return n

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


_positive_int = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="domania")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--eq", required=True)
        sp.add_argument("--nat-bound", type=_positive_int, default=16)
        sp.add_argument("--rank-bound", type=_positive_int, default=3)

    sp = sub.add_parser("solve-domain")
    common(sp)
    sp.add_argument("--stages", type=_positive_int, default=3)
    sp.add_argument("--dot", default=None)
    sp.add_argument("--dot-stage", type=_int_at_least(0), default=1)

    sp = sub.add_parser("per-lfp")
    common(sp)
    sp.add_argument("--beyond-omega", type=_int_at_least(0), default=1)

    sp = sub.add_parser("dense")
    common(sp)
    sp.add_argument("--n-max", type=_positive_int, default=3)

    sp = sub.add_parser("eta-roundtrip")
    common(sp)

    sp = sub.add_parser("qcb")
    common(sp)

    sp = sub.add_parser("counterexample")
    sp.add_argument("--param", required=True)
    sp.add_argument("--bound", type=_positive_int, default=5)
    sp.add_argument("--nat-bound", type=_positive_int, default=8)

    sp = sub.add_parser("oracle")
    sp.add_argument("--suite", required=True)
    sp.add_argument("--max-size", type=_positive_int, default=3)

    sp = sub.add_parser("independence")
    common(sp)
    sp.add_argument("--eq2", required=True)
    return p


COMMANDS = {
    "solve-domain": cmd_solve_domain,
    "per-lfp": cmd_per_lfp,
    "dense": cmd_dense,
    "eta-roundtrip": cmd_eta_roundtrip,
    "qcb": cmd_qcb,
    "counterexample": cmd_counterexample,
    "oracle": cmd_oracle,
    "independence": cmd_independence,
}


def run_command(argv: List[str]) -> Tuple[int, str]:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 2, "usage error\n"
    if not args.command:
        return 2, parser.format_usage()
    handler = COMMANDS[args.command]
    try:
        return handler(args)
    except (EquationSyntaxError, UnboundName, RecursiveExponent, InvalidSpace) as e:
        return 2, f"error: {e}\n"
    except DomaniaError as e:
        return 1, f"error: {e}\n"
    except FileNotFoundError as e:
        return 2, f"error: {e}\n"


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

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

Statements are separated by ";" or newlines. The left-hand identifier of the
equation is the recursion variable. In space mode the same grammar is read
with "+", "*" and "[->]" as disjoint union, sequential product and
exponentiation of spaces.

Definition files are line-oriented `key = value` records:

    basis file:  name = vee ; tokens = bot a b ; order = bot<a bot<b
    per file:    carrier = file(vee.basis) ; rel = a~a a~b
    space file:  points = 0 1 ; opens = {} {0} {0 1} ; pseudobase = {0} {0 1}

The environment variable DOMANIA_SEED fixes the ordering of exhaustive
scans; it never skips cases.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

from .basis import Basis, mk_finite_basis, tok
from .builtins import builtin_per
from .dense import DeltaFamily, dense_lfp
from .errors import (
    DomaniaError,
    EquationSyntaxError,
    RecursiveExponent,
    UnboundName,
)
from .eta import dense_image_weak_iso
from .ordinals import omega_plus
from .per import DomainPer, finite_per
from .perlfp import counterexample_phi, per_chain_extend, stabilization_probe
from .qcb import (
    QConst,
    QId,
    QSeqExp,
    QSeqProd,
    QUnion,
    discrete_space,
    fixed_point_independence,
    mk_space,
    qcb_fixed_point,
    sierpinski_space,
    standard_representation,
    token_iso_pair,
)
from .spfunctor import ConstD, Exp, FunctorExpr, Id, Prod, Sum


def scan_order(items):
    """Deterministic scan ordering; a seed permutes but never drops."""
    items = list(items)
    seed = os.environ.get("DOMANIA_SEED")
    if seed is not None:
        rng = random.Random(int(seed))
        rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# parsing


@dataclass
class EquationSource:
    decls: Dict[str, str]  # parameter name -> source text
    var: str
    expr: FunctorExpr
    text: str


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<arrow>->)"
    r"|(?P<sym>[=+*()\[\];,]))"
)


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.toks = []
        self._lex()
        self.i = 0

    def _lex(self):
        pos = 0
        line, col = 1, 1
        while pos < len(self.text):
            ch = self.text[pos]
            if ch == "\n":
                self.toks.append(("newline", "\n", line, col))
                line += 1
                col = 1
                pos += 1
                continue
            if ch in " \t\r":
                pos += 1
                col += 1
                continue
            if ch == "#":
                while pos < len(self.text) and self.text[pos] != "\n":
                    pos += 1
                continue
            m = _TOKEN_RE.match(self.text, pos)
            if not m or m.start() != pos:
                raise EquationSyntaxError(
                    f"unexpected character {ch!r}", line=line, col=col
                )
            kind = m.lastgroup
            value = m.group(kind)
            if (
                kind == "ident"
                and value == "file"
                and self.text[m.end():m.end() + 1] == "("
            ):
                # paths are raw text up to the matching close paren
                close = self.text.find(")", m.end())
                if close < 0:
                    raise EquationSyntaxError(
                        "unterminated file(...) source", line=line, col=col
                    )
                path = self.text[m.end() + 1:close]
                self.toks.append(("filesrc", f"file({path})", line, col))
                col += close + 1 - pos
                pos = close + 1
                continue
            self.toks.append((kind, value, line, col))
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
    return EquationSource(decls, var, expr, text)


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
        _, num, nline, ncol = lex.next()
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
    """Prints so that reparsing restores the tree: sums and products are
    left-associative, so right-nested ones get parentheses."""
    if isinstance(expr, Id):
        return var
    if isinstance(expr, ConstD):
        return expr.name
    if isinstance(expr, Sum):
        right = pretty_expr(expr.right, var)
        if isinstance(expr.right, Sum):
            right = f"({right})"
        return f"{pretty_expr(expr.left, var)} + {right}"
    if isinstance(expr, Prod):
        right = _factor(expr.right, var)
        if isinstance(expr.right, Prod):
            right = f"({pretty_expr(expr.right, var)})"
        return f"{_factor(expr.left, var)} * {right}"
    if isinstance(expr, Exp):
        return f"[{expr.param} -> {pretty_expr(expr.body, var)}]"
    raise TypeError(expr)


def _factor(expr, var):
    s = pretty_expr(expr, var)
    return f"({s})" if isinstance(expr, (Sum, Prod)) else s


def to_qcb_expr(expr: FunctorExpr):
    if isinstance(expr, Id):
        return QId()
    if isinstance(expr, ConstD):
        return QConst(expr.name)
    if isinstance(expr, Sum):
        return QUnion(to_qcb_expr(expr.left), to_qcb_expr(expr.right))
    if isinstance(expr, Prod):
        return QSeqProd(to_qcb_expr(expr.left), to_qcb_expr(expr.right))
    if isinstance(expr, Exp):
        return QSeqExp(expr.param, to_qcb_expr(expr.body))
    raise TypeError(expr)


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


def load_basis_file(path: str):
    kv = _parse_kv_file(path)
    name = kv.get("name", os.path.basename(path))
    tokens = kv["tokens"].split()
    pairs = []
    for entry in kv.get("order", "").split():
        a, _, b = entry.partition("<")
        pairs.append((a.strip(), b.strip()))
    return mk_finite_basis(tokens, pairs, name=name)


def load_per_file(path: str) -> DomainPer:
    kv = _parse_kv_file(path)
    carrier_src = kv["carrier"]
    if carrier_src.startswith("file(") and carrier_src.endswith(")"):
        base = load_basis_file(
            os.path.join(os.path.dirname(path), carrier_src[5:-1])
        )
    else:
        base = builtin_per(carrier_src).carrier
    rel_pairs = []
    for entry in kv.get("rel", "").split():
        a, _, b = entry.partition("~")
        rel_pairs.append((tok(a.strip()), tok(b.strip())))
    return finite_per(base, rel_pairs, name=kv.get("name", os.path.basename(path)))


def _parse_point_sets(text: str) -> List[List[str]]:
    sets = re.findall(r"\{([^}]*)\}", text)
    return [[p for p in re.split(r"[,\s]+", s) if p] for s in sets]


def load_space_file(path: str):
    kv = _parse_kv_file(path)
    points = kv["points"].split()
    opens = _parse_point_sets(kv["opens"])
    space = mk_space(os.path.basename(path).split(".")[0], points, opens)
    pseudobase = [frozenset(s) for s in _parse_point_sets(kv["pseudobase"])]
    return space, pseudobase


def resolve_per_source(src: str, nat_bound=8, base_dir=".") -> DomainPer:
    if src.startswith("file(") and src.endswith(")"):
        path = os.path.join(base_dir, src[5:-1])
        kv = _parse_kv_file(path)
        if "points" in kv:
            space, pb = load_space_file(path)
            return standard_representation(space, pb).per
        if "carrier" in kv:
            return load_per_file(path)
        raise UnboundName(f"cannot interpret definition file {path!r}")
    return builtin_per(src, nat_bound)


def resolve_space_source(src: str, base_dir="."):
    if src.startswith("file(") and src.endswith(")"):
        space, pb = load_space_file(os.path.join(base_dir, src[5:-1]))
        return standard_representation(space, pb)
    if src == "sierpinski":
        return standard_representation(
            sierpinski_space(),
            [frozenset({"top"}), frozenset({"bot", "top"})],
        )
    if src == "flatbool":
        sp = discrete_space(["tt", "ff"])
        return standard_representation(
            sp,
            [frozenset({"tt"}), frozenset({"ff"}), frozenset({"tt", "ff"})],
        )
    if src.startswith("discrete(") and src.endswith(")"):
        n = int(src[len("discrete("):-1])
        labels = [str(i) for i in range(n)]
        sp = discrete_space(labels)
        sets = [frozenset({x}) for x in labels] + [frozenset(labels)]
        return standard_representation(sp, sets)
    if src == "flatnat":
        return builtin_per("flatnat")
    raise UnboundName(f"no space interpretation for source {src!r}")


# ---------------------------------------------------------------------------
# reports


def _check(name, anchor, status, bound=None, witness=None):
    entry = {"name": name, "anchor": anchor, "status": status, "bound": bound}
    if witness is not None:
        entry["witness"] = witness
    return entry


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


def export_dot(basis: Basis, path: str, totals=None, bound=None):
    """Covering-relation graph; total tokens are double-circled."""
    ts = basis.tokens(bound)
    toks = sorted(ts.tokens, key=lambda t: (t.pretty, str(t.key)))
    total_keys = {t.key for t in (totals or [])}
    ids = {t.key: f"n{i}" for i, t in enumerate(toks)}
    lines = ["digraph basis {"]
    for t in toks:
        shape = ' peripheries=2' if t.key in total_keys else ""
        lines.append(f'  {ids[t.key]} [label="{t.pretty}"{shape}];')
    edge_count = 0
    for a in toks:
        for b in toks:
            if a == b or not basis.leq(a, b):
                continue
            # covering edge: no token strictly between
            if any(
                c != a and c != b and basis.leq(a, c) and basis.leq(c, b)
                for c in toks
            ):
                continue
            lines.append(f"  {ids[a.key]} -> {ids[b.key]};")
            edge_count += 1
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(toks), edge_count


# ---------------------------------------------------------------------------
# commands


def _load_equation(text: str) -> EquationSource:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return parse_equation(text)


def _per_env(source: EquationSource, nat_bound, base_dir=".") -> Dict[str, DomainPer]:
    return {
        name: resolve_per_source(src, nat_bound, base_dir)
        for (name, src) in source.decls.items()
    }


def cmd_solve_domain(args) -> Tuple[int, str]:
    from .spfunctor import fixed_point_iso, inductive_limit_domain, omega_chain

    src = _load_equation(args.eq)
    env = {k: v.carrier for (k, v) in _per_env(src, args.nat_bound).items()}
    stages = omega_chain(src.expr, env, args.stages)
    lim = inductive_limit_domain(stages)
    bound = min(args.stages - 1, 3) if args.stages > 1 else 1
    checks = []
    try:
        iso, rep = fixed_point_iso(src.expr, env, lim, bound=bound)
        checks.append(
            _check("fixed-point-iso", "limit-unfolding-iso", "pass", rep.bound)
        )
    except DomaniaError as e:
        checks.append(
            _check("fixed-point-iso", "limit-unfolding-iso", "fail", bound, str(e))
        )
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
    text = report_json(
        pretty_expr(src.expr, src.var), "solve-domain", stage_rows, None, checks, {}
    )
    ok = all(c["status"] == "pass" for c in checks)
    return (0 if ok else 1), text


def _count_tokens(basis, idx, bound=4):
    # exact counts while the stage is small, bounded views beyond
    if basis.finite and idx <= 4:
        return len(basis.tokens().tokens)
    return len(basis.tokens(bound).tokens)


def _stage_rows_for_chain(chain, rank_bound):
    rows = []
    for (o, per) in chain.stages:
        if o.is_finite:
            count = _count_tokens(per.carrier, o.k)
        else:
            count = len(per.carrier.tokens(rank_bound).tokens)
        classes, _ = per.classes(rank_bound)
        rows.append(
            {
                "index": str(o),
                "compact_count": count,
                "total_class_count": len(classes),
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
        n_finite=max(4, args.rank_bound + 1),
        nat_bound=args.nat_bound,
    )
    verdict = stabilization_probe(chain, args.rank_bound)
    checks = [
        _check("chain-links", "equiembedding-chain", "pass", args.rank_bound)
    ]
    rows = _stage_rows_for_chain(chain, args.rank_bound)
    if verdict.kind == "stabilized" and verdict.stage.is_finite:
        rows = rows[: verdict.stage.k + 1]
    stabilized = None
    if verdict.kind == "stabilized":
        stabilized = str(verdict.stage)
        checks.append(
            _check("stabilization", "per-chain-stabilization", "pass", verdict.bound)
        )
    elif verdict.kind == "witness":
        w = verdict.witness
        pretty = w.phi.pretty if hasattr(w, "phi") else str(w)
        checks.append(
            _check(
                "stabilization",
                "per-chain-stabilization",
                "fail",
                verdict.bound,
                pretty,
            )
        )
    else:
        checks.append(
            _check("stabilization", "per-chain-stabilization", "unknown", verdict.bound)
        )
    text = report_json(
        pretty_expr(src.expr, src.var),
        "per-lfp",
        rows,
        stabilized,
        checks,
        asdict(chain.stages[-1][1].flags),
    )
    ok = all(c["status"] != "fail" for c in checks)
    return (0 if ok else 1), text


def cmd_dense(args) -> Tuple[int, str]:
    src = _load_equation(args.eq)
    env = _per_env(src, args.nat_bound)
    lfp = dense_lfp(
        src.expr, env, rank_bound=args.rank_bound,
        n_finite=max(args.n_max + 1, args.rank_bound + 1),
    )
    checks = []
    fam = DeltaFamily(lfp.chain)
    lim = lfp.chain.per_limit.limit
    toks = lim.tokens(args.n_max).tokens
    ok = all(
        (fam.retract(n, t) == t) == fam.member(n, t)
        for n in range(1, args.n_max + 1)
        for t in toks
    )
    checks.append(
        _check("retraction-fixes-family", "closed-family-retraction",
               "pass" if ok else "fail", args.n_max)
    )
    ok = all(
        fam.member(n + 1, t)
        for n in range(1, args.n_max)
        for t in toks
        if fam.member(n, t)
    )
    checks.append(
        _check("family-monotone", "closed-family-nesting",
               "pass" if ok else "fail", args.n_max)
    )
    totals, _ = lfp.chain.per_limit.per.totals(args.rank_bound)
    ok = all(
        fam.member(n, t) == (lfp.chain.per_limit.rank_of(t) <= n)
        for n in range(1, args.n_max + 1)
        for t in totals
    )
    checks.append(
        _check("family-meets-totals", "closed-family-totals",
               "pass" if ok else "fail", args.rank_bound)
    )
    kept = sum(1 for t in toks if lfp.kept(t))
    checks.append(
        _check("kept-tokens", "dense-part-kept",
               "pass" if kept > 0 else "fail", args.rank_bound,
               f"{kept}/{len(toks)}")
    )
    text = report_json(
        pretty_expr(src.expr, src.var),
        "dense",
        _stage_rows_for_chain(lfp.chain, args.rank_bound),
        None,
        checks,
        asdict(lfp.per.flags),
    )
    ok = all(c["status"] == "pass" for c in checks)
    return (0 if ok else 1), text


def cmd_eta_roundtrip(args) -> Tuple[int, str]:
    src = _load_equation(args.eq)
    env = _per_env(src, args.nat_bound)
    lfp = dense_lfp(
        src.expr, env, rank_bound=args.rank_bound,
        n_finite=max(4, args.rank_bound + 1),
    )
    report = dense_image_weak_iso(lfp, rank_bound=args.rank_bound)
    checks = [
        _check(name, name, status, args.rank_bound,
               witness.pretty if hasattr(witness, "pretty") else None)
        for (name, status, witness) in report.checks
    ]
    text = report_json(
        pretty_expr(src.expr, src.var),
        "eta-roundtrip",
        _stage_rows_for_chain(lfp.chain, args.rank_bound),
        None,
        checks,
        asdict(lfp.per.flags),
    )
    return (0 if report.all_pass else 1), text


def cmd_qcb(args) -> Tuple[int, str]:
    src = _load_equation(args.eq)
    bindings = {}
    for (name, s) in src.decls.items():
        bindings[name] = resolve_space_source(s)
    for entry in args.space_files:
        name, _, path = entry.partition("=")
        if not path:
            return 2, f"error: --space-files entries look like NAME=PATH, got {entry!r}\n"
        bindings[name] = resolve_space_source(f"file({path})")
    gamma = to_qcb_expr(src.expr)
    report = qcb_fixed_point(gamma, bindings, rank_bound=args.rank_bound)
    checks = [
        _check("fixed-point-classes", "space-fixed-point",
               "pass" if report.fixed_point_bijection else "fail",
               args.rank_bound)
    ]
    for (key, ok) in sorted(report.coherence.items()):
        checks.append(
            _check(f"coherence-{key}", "representation-coherence",
                   "pass" if ok else "fail", None)
        )
    if report.hausdorff is not None:
        checks.append(
            _check("positive-parameters-hausdorff", "separation-flag",
                   "pass" if report.hausdorff else "fail", None)
        )
    stage_rows = [
        {"index": str(r), "compact_count": None, "total_class_count": c}
        for (r, c) in sorted(report.classes_by_rank.items())
    ]
    text = report_json(
        pretty_expr(src.expr, src.var), "qcb", stage_rows, None, checks,
        report.pedigree,
    )
    ok = report.fixed_point_bijection and all(report.coherence.values())
    return (0 if ok else 1), text


def cmd_counterexample(args) -> Tuple[int, str]:
    per = resolve_per_source(args.param, args.nat_bound)
    report = counterexample_phi(per, bound=args.bound, nat_bound=args.nat_bound)
    checks = [
        _check(
            "rank-pattern",
            "nesting-rank-growth",
            "pass" if all(report.ranks[n] == n for n in report.ranks) else "fail",
            args.bound,
            json.dumps({str(k): v for k, v in sorted(report.ranks.items())}),
        ),
        _check(
            "fragment-equivariance",
            "witness-equivariance",
            "pass" if report.equivariant_on_fragment else "fail",
            args.nat_bound,
        ),
        _check(
            "escapes-finite-stages",
            "witness-not-finitely-total",
            "pass" if not report.total_at_finite_stage else "fail",
            args.bound,
        ),
    ]
    verdict = stabilization_probe(report.chain, args.bound)
    stabilized = str(verdict.stage) if verdict.kind == "stabilized" else None
    checks.append(
        _check(
            "stabilization",
            "per-chain-stabilization",
            "fail" if verdict.kind == "witness" else verdict.kind,
            verdict.bound,
            report.phi.pretty,
        )
    )
    text = report_json(
        f"X = {args.param} + [flatnat -> X]",
        "counterexample",
        _stage_rows_for_chain(report.chain, args.bound),
        stabilized,
        checks,
        asdict(report.chain.stages[-1][1].flags),
    )
    ok = all(c["status"] in ("pass", "fail") for c in checks[:3]) and all(
        c["status"] == "pass" for c in checks[:3]
    )
    return (0 if ok else 1), text


def cmd_oracle(args) -> Tuple[int, str]:
    from . import oracles

    suite = {
        "fun-space": oracles.fun_space_suite,
        "per-preservation": oracles.per_preservation_suite,
        "limit-per": oracles.limit_per_suite,
        "standard-rep": oracles.standard_rep_suite,
    }.get(args.suite)
    if suite is None:
        return 2, f"unknown suite {args.suite!r}\n"
    result = suite(args.max_size)
    if not result.cases:
        # a suite that ran no case has shown nothing
        result.add("cases", False, f"no case at --max-size {args.max_size}")
    checks = [
        _check(name, f"oracle-{args.suite}", "pass" if ok else "fail", args.max_size,
               witness)
        for (name, ok, witness) in result.entries
    ]
    text = report_json(
        args.suite, "oracle",
        [{"index": "0", "compact_count": result.cases,
          "total_class_count": None}],
        None, checks, {},
    )
    return (0 if result.all_pass else 1), text


def cmd_independence(args) -> Tuple[int, str]:
    src_f = _load_equation(args.eq)
    src_g = _load_equation(args.eq2)
    env_f = _per_env(src_f, args.nat_bound)
    env_g = _per_env(src_g, args.nat_bound)
    pairs = {}
    for (fn, fp), (gn, gp) in zip(sorted(env_f.items()), sorted(env_g.items())):
        f_toks = sorted(fp.carrier.tokens().tokens, key=_order_rank(fp.carrier))
        g_toks = sorted(gp.carrier.tokens().tokens, key=_order_rank(gp.carrier))
        mapping = {a.key: b.key for (a, b) in zip(f_toks, g_toks)}
        pairs[(fn, gn)] = token_iso_pair(fp, gp, mapping)
    report = fixed_point_independence(
        src_f.expr, env_f, src_g.expr, env_g, pairs,
        rank_bound=args.rank_bound,
    )
    checks = [
        _check("stage-weak-isos", "transfer-stage-isos",
               "pass" if report.stage_isos_ok else "fail", args.rank_bound),
        _check("uniform-family", "transfer-uniformity",
               "pass" if report.uniform else "fail", None),
        _check("class-matching", "fixed-point-independence",
               "pass" if report.class_matching is not None else "fail",
               args.rank_bound,
               json.dumps(report.class_matching)),
    ]
    text = report_json(
        f"{pretty_expr(src_f.expr, src_f.var)} vs {pretty_expr(src_g.expr, src_g.var)}",
        "independence", [], None, checks, {},
    )
    return (0 if report.ok else 1), text


def _order_rank(carrier):
    toks = list(carrier.tokens().tokens)

    def rank(t):
        return (sum(1 for u in toks if carrier.leq(u, t)), t.pretty)

    return rank


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    """Bounds, sizes and stage counts: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="domania")
    sub = p.add_subparsers(dest="command")

    def common(sp, eq=True):
        if eq:
            sp.add_argument("--eq", required=True)
        sp.add_argument("--nat-bound", type=_positive_int, default=16)
        sp.add_argument("--rank-bound", type=_positive_int, default=3)

    sp = sub.add_parser("solve-domain")
    common(sp)
    sp.add_argument("--stages", type=_positive_int, default=3)
    sp.add_argument("--dot", default=None)
    sp.add_argument("--dot-stage", type=int, default=1)

    sp = sub.add_parser("per-lfp")
    common(sp)
    sp.add_argument("--beyond-omega", type=int, default=1)

    sp = sub.add_parser("dense")
    common(sp)
    sp.add_argument("--n-max", type=_positive_int, default=3)

    sp = sub.add_parser("eta-roundtrip")
    common(sp)

    sp = sub.add_parser("qcb")
    common(sp)
    sp.add_argument("--space-files", nargs="*", default=[])

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
    except (EquationSyntaxError, UnboundName, RecursiveExponent) as e:
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

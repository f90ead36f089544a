"""Evaluation machinery over the dense least fixed point: the input per of
an equation, the one-step evaluation map and its lower adjoint, iterated
evaluation against input sequences, evaluation trees, and the weak
isomorphism between the fixed point and its dense image in a function space
of admissible shape."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

# `tok` is unused here but stays importable as `domania.eta.tok`:
# perfbench/selftest.py checks that its tracer rebinds that name
from .basis import FlatNatBasis, Token, one_point_basis, tok  # noqa: F401
from .builtins import flatnat_per
from .construct import MultiSumBasis, ProdBasis, apply_pairs
from .dense import DenseLfp
from .errors import MalformedCode, NonDenseExponent, NotWitnessed
from .per import (
    ALL_YES,
    YES,
    DomainPer,
    MemoRel,
    PerFlags,
    ProdRel,
    SumRel,
    finite_per,
    per_construct,
    pointwise_flags,
)
from .perlfp import PerChain
from .spfunctor import (
    ConstD,
    Exp,
    FunctorExpr,
    Id,
    Prod,
    Sum,
    carrier_table,
    functor_action,
    subterms,
)


# ---------------------------------------------------------------------------
# atomic subfunctors and the input per


def atomic_subfunctors(expr: FunctorExpr) -> List[FunctorExpr]:
    """Every occurrence of the identity or of a constant, in reading order."""
    return [e for (_, e) in subterms(expr) if isinstance(e, (Id, ConstD))]


def _point_per(name="T") -> DomainPer:
    b = one_point_basis(name)
    return finite_per(
        b,
        [(b.bottom, b.bottom)],
        flags=ALL_YES,
        name=name,
    )


# the input per of a sub-term: a point for the variable and each constant,
# products across sums, sums across products, and the exponent paired in
# front of exponentials
INPUT_PERS = (
    lambda B: _point_per(),
    partial(per_construct, "prod"),
    partial(per_construct, "sum"),
    partial(per_construct, "prod"),
)


def input_per_table(
    expr: FunctorExpr, env: Dict[str, DomainPer]
) -> Dict[int, DomainPer]:
    """Input per of every sub-term of expr, keyed by id(sub-term).  Each is
    built once and reused by the sub-term above it."""
    for (_, e) in subterms(expr):
        if isinstance(e, Exp) and env[e.param].flags.dense != YES:
            raise NonDenseExponent(f"exponent {e.param!r} is not flagged dense")
    table: Dict[int, DomainPer] = {}
    functor_action(expr, _point_per(), env, INPUT_PERS, table)
    return table


def multi_sum_per(parts: Sequence[DomainPer], name="") -> DomainPer:
    carrier = MultiSumBasis([p.carrier for p in parts], name=name or None)
    return DomainPer(
        carrier,
        MemoRel(SumRel(carrier, list(parts))),
        pointwise_flags(p.flags for p in parts),
        name=name or "usum",
    )


def _prec(per: DomainPer, v: Token, target: Token, bound=None) -> bool:
    """v approximates the class of target in per; bottom when target is not
    total."""
    if per.related(target, target, bound) is not True:
        return v == per.carrier.bottom
    return any(per.carrier.leq(v, y) for y in per.class_of(target, bound))


# ---------------------------------------------------------------------------
# one-step evaluation: eta and theta


class EtaSystem:
    """Bundles the input per, the indexed codomain, and the one-step maps
    for a built dense least fixed point."""

    def __init__(self, lfp: DenseLfp):
        self.lfp = lfp
        self.chain: PerChain = lfp.chain
        self.expr = self.chain.functor
        self.env = self.chain.env
        self.iso = self.chain.iso
        self._carriers = carrier_table(
            self.expr,
            self.chain.per_limit.limit,
            {k: v.carrier for k, v in self.env.items()},
        )

        self.K = atomic_subfunctors(self.expr)
        input_pers = input_per_table(self.expr, self.env)
        self._input_carriers = {k: p.carrier for (k, p) in input_pers.items()}
        self.input_per = input_pers[id(self.expr)]
        self.T = self.input_per.carrier
        if not self.T.finite:
            raise NonDenseExponent(
                "evaluation machinery needs a finite input carrier"
            )

        self.d_per = DomainPer(
            self.chain.per_limit.limit,
            self.chain.per_limit.per.rel,
            self.lfp.per.flags,
            name="lfp",
        )
        parts = []
        self.const_positions = []
        for k, sub in enumerate(self.K):
            if isinstance(sub, ConstD):
                parts.append(self.env[sub.name])
                self.const_positions.append(k)
            else:
                parts.append(self.d_per)
        self.codomain_per = multi_sum_per(parts, name="usumK")
        self.codomain = self.codomain_per.carrier
        self.unfolded_per = self.chain.unfolded[0]
        self.unfolded = self.iso.unfolded

        self.fun_per = per_construct("fun", self.input_per, self.codomain_per)
        self.fun_basis = self.fun_per.carrier

        self._eta_cache = {}

    # ---- structural evaluation -------------------------------------------
    def eval_eta(self, x_value, t: Token):
        """One-step evaluation of an unfolded value against an input token."""
        return self._eval(self.expr, 0, x_value, t)

    def _eval(self, expr, offset, x, t):
        if isinstance(expr, (Id, ConstD)):
            # the constant map sending every input to the tagged element
            return self.codomain.inject(offset, x)
        carrier = self._carriers[id(expr)]
        tin = self._input_carriers[id(expr)]
        if isinstance(expr, Sum):
            spl = carrier.split(x)
            if spl is None:
                return self.codomain.bottom
            i, xi = spl
            t0, t1 = tin.split(t)
            off = offset if i == 0 else offset + len(atomic_subfunctors(expr.left))
            return self._eval(
                (expr.left, expr.right)[i], off, xi, (t0, t1)[i]
            )
        if isinstance(expr, Prod):
            x0, x1 = carrier.split(x)
            spl = tin.split(t)
            if spl is None:
                return self.codomain.bottom
            i, ti = spl
            off = offset if i == 0 else offset + len(atomic_subfunctors(expr.left))
            return self._eval((expr.left, expr.right)[i], off, (x0, x1)[i], ti)
        if isinstance(expr, Exp):
            t0, t1 = tin.split(t)
            return self._eval(expr.body, offset, carrier.apply(x, t0), t1)
        raise TypeError(expr)

    def eta_token(self, x: Token) -> Token:
        """The one-step map as a canonical step set over the input carrier."""
        if x.key not in self._eta_cache:
            self._eta_cache[x.key] = self.fun_basis.from_function(
                lambda t: self.eval_eta(x, t)
            )
        return self._eta_cache[x.key]

    # ---- witnesses ---------------------------------------------------------
    def is_witnessed_by(self, pairs, x: Token, bound=None) -> bool:
        """Fired joins at every total input approximate the class of the
        evaluation there."""
        totals, _ = self.input_per.totals(bound)
        for t in totals:
            v = apply_pairs(pairs, self.T, self.codomain, t)
            target = self.eval_eta(x, t)
            if not _prec(self.codomain_per, v, target, bound):
                return False
        return True

    def find_witness(self, pairs, bound=None) -> Optional[Token]:
        ts, _ = self.unfolded_per.totals(bound)
        return next((x for x in ts if self.is_witnessed_by(pairs, x, bound)), None)

    # ---- the lower adjoint -------------------------------------------------
    def theta(self, q: Token, witness: Optional[Token] = None, bound=None) -> Token:
        """Lower adjoint on witnessed compacts of the one-step image."""
        pairs = self.fun_basis.pairs(q)
        if not pairs:
            return self.unfolded.bottom
        if witness is None:
            witness = self.find_witness(pairs, bound)
            if witness is None:
                raise NotWitnessed(
                    "no total certifies the compact within the bound", witness=q
                )
        return self._theta(self.expr, 0, pairs)

    def _block(self, expr, offset):
        return range(offset, offset + len(atomic_subfunctors(expr)))

    def _theta(self, expr, offset, pairs) -> Token:
        carrier = self._carriers[id(expr)]
        tin = self._input_carriers[id(expr)]
        live = [(p, q) for (p, q) in pairs if q != self.codomain.bottom]
        if isinstance(expr, (Id, ConstD)):
            vals = []
            for (_, q) in live:
                spl = self.codomain.split(q)
                i, inner = spl
                vals.append(inner)
            part = (
                self.env[expr.name].carrier
                if isinstance(expr, ConstD)
                else self.chain.per_limit.limit
            )
            return part.lub(vals) if vals else part.bottom
        if isinstance(expr, Sum):
            tags = set()
            for (_, q) in live:
                i, _ = self.codomain.split(q)
                tags.add(0 if i in self._block(expr.left, offset) else 1)
            if len(tags) != 1:
                raise NotWitnessed(
                    "values straddle both summands", witness=live
                )
            i = tags.pop()
            sub = (expr.left, expr.right)[i]
            off = offset if i == 0 else offset + len(atomic_subfunctors(expr.left))
            joins = []
            idxs = list(range(len(live)))
            for r in range(1, len(idxs) + 1):
                for combo in itertools.combinations(idxs, r):
                    prem = [live[j][0] for j in combo]
                    if not tin.cons(prem):
                        continue
                    sub_pairs = [
                        (tin.split(live[j][0])[i], live[j][1]) for j in combo
                    ]
                    joins.append(self._theta(sub, off, sub_pairs))
            part = self._carriers[id(sub)]
            return carrier.inject(i, part.lub(joins))
        if isinstance(expr, Prod):
            groups = {0: [], 1: []}
            for (p, q) in live:
                spl = tin.split(p)
                i, pi = spl
                groups[i].append((pi, q))
            offs = (offset, offset + len(atomic_subfunctors(expr.left)))
            lx = self._theta(expr.left, offs[0], groups[0])
            rx = self._theta(expr.right, offs[1], groups[1])
            return carrier.pair(lx, rx)
        if isinstance(expr, Exp):
            out_pairs = []
            for (pj, _) in live:
                pj0, _ = tin.split(pj)
                sub_pairs = []
                for (pk, qk) in live:
                    pk0, pk1 = tin.split(pk)
                    if self._carriers[id(expr)].exponent.leq(pk0, pj0):
                        sub_pairs.append((pk1, qk))
                out_pairs.append((pj0, self._theta(expr.body, offset, sub_pairs)))
            return carrier.make(out_pairs)
        raise TypeError(expr)


# ---------------------------------------------------------------------------
# iterated evaluation


@dataclass
class EvaluationRecord:
    sequence: List[Token]  # the d^m values, as limit tokens
    path: List[int]  # atomic-subfunctor indices of the non-terminal steps
    code: Optional[int]
    result: Token  # token of the strict-product result domain
    halted: bool


def encode_path(path: Sequence[int], k_count: int) -> int:
    n = 1
    for k in path:
        n = n * (k_count + 1) + k
    return n


def decode_path(n: int, k_count: int) -> List[int]:
    if n < 1:
        raise MalformedCode(f"{n} is not a path code", witness=n)
    digits = []
    base = k_count + 1
    while n > 0:
        digits.append(n % base)
        n //= base
    digits.reverse()
    if digits[0] != 1:
        raise MalformedCode("missing leading sentinel digit", witness=digits)
    if any(d >= k_count for d in digits[1:]):
        raise MalformedCode("digit outside the subfunctor range", witness=digits)
    return digits[1:]


class EtaBarSystem:
    """Curried iterated evaluation and its lower adjoint via evaluation
    trees.  An input sequence is a value of U, the right-nested product of
    `support` copies of the input per, related entry by entry."""

    def __init__(self, eta: EtaSystem, support: int = 4, max_steps: int = 16):
        self.eta = eta
        self.support = support
        self.max_steps = max_steps

        self.u_per = eta.input_per
        spine = []
        for _ in range(support - 1):
            self.u_per = per_construct("prod", eta.input_per, self.u_per)
            spine.append(self.u_per.carrier)
        # the product carriers from the outermost in: entry m is the left
        # part after m right projections
        self._spine = spine[::-1]
        self.U = self.u_per.carrier
        self.nat = FlatNatBasis()

        self.a_parts = [eta.env[eta.K[k].name] for k in eta.const_positions]
        self.a_sum = multi_sum_per(self.a_parts, name="usumA")
        self.E = ProdBasis(self.a_sum.carrier, self.nat, strict=True, name="E")
        self.e_per = DomainPer(
            self.E,
            MemoRel(ProdRel(self.E, self.a_sum, flatnat_per())),
            PerFlags(
                convex=YES, local=YES, complete=YES,
                dense=YES,
                admissible_pedigree=self.a_sum.flags.admissible_pedigree,
                countably_based=YES,
            ),
            name="E",
        )
        self.fun_per = per_construct("fun", self.u_per, self.e_per)
        self.fun_basis = self.fun_per.carrier
        self._bar_cache = {}

    # ---- input sequences ---------------------------------------------------
    def seq(self, entries) -> Token:
        """The input sequence with the given `support` entries."""
        *init, u = entries
        for prod, e in zip(reversed(self._spine), reversed(init)):
            u = prod.pair(e, u)
        return u

    def entry_at(self, u: Token, m: int) -> Token:
        """Entry m of the input sequence u; bottom past the support."""
        if m >= self.support:
            return self.eta.T.bottom
        for prod in self._spine[:m]:
            u = prod.split(u)[1]
        return self._spine[m].split(u)[0] if m < len(self._spine) else u

    # ---- zeta --------------------------------------------------------------
    def _const_index(self, k: int) -> Optional[int]:
        try:
            return self.eta.const_positions.index(k)
        except ValueError:
            return None

    def evaluate_zeta(self, x: Token, u: Token) -> EvaluationRecord:
        """Iterate one-step evaluation along the entries of u."""
        eta = self.eta
        sequence, path = [], []
        current = x  # a limit token
        for m in range(self.max_steps):
            z = eta.eval_eta(eta.iso.fwd(current), self.entry_at(u, m))
            spl = eta.codomain.split(z)
            if spl is None:
                return EvaluationRecord(sequence, path, None, self.E.bottom, True)
            k, d = spl
            n = self._const_index(k)
            if n is not None:
                code = encode_path(path, len(eta.K))
                result = self.E.pair(
                    self.a_sum.carrier.inject(n, d), self.nat.nat(code)
                )
                return EvaluationRecord(sequence, path, code, result, True)
            sequence.append(d)
            path.append(k)
            current = d
        return EvaluationRecord(sequence, path, None, self.E.bottom, False)

    def eta_bar(self, x: Token) -> Token:
        """The curried evaluation of x as a canonical compact of [U -> E]."""
        if x.key not in self._bar_cache:
            self._bar_cache[x.key] = self.fun_basis.from_function(
                lambda u: self.evaluate_zeta(x, u).result
            )
        return self._bar_cache[x.key]

    # ---- witness checks ----------------------------------------------------
    def is_witnessed_by(self, pairs, x: Token, bound=None) -> bool:
        totals, _ = self.u_per.totals(bound)
        for u in totals:
            v = apply_pairs(pairs, self.U, self.E, u)
            target = self.evaluate_zeta(x, u).result
            if not _prec(self.e_per, v, target, bound):
                return False
        return True

    def find_witness(self, pairs, bound=None) -> Optional[Token]:
        ts, _ = self.eta.d_per.totals(bound)
        return next((x for x in ts if self.is_witnessed_by(pairs, x, bound)), None)

    # ---- evaluation trees ----------------------------------------------------
    def build_tree(self, pairs):
        """Nodes are decreasing sequences of index subsets; see the module
        docstring for the decoration that follows."""
        live = []
        for (p, q) in pairs:
            s_part, n_part = self.E.split(q)
            n_val = self.nat.value_of(n_part)
            if n_val is None:
                raise MalformedCode("result lacks a defined path code", witness=q)
            path = decode_path(n_val, len(self.eta.K))
            live.append((p, s_part, n_val, path))
        nodes = []

        def extend(prefix_sets, members):
            level = len(prefix_sets)
            groups = {}
            for j in members:
                groups.setdefault(live[j][2], []).append(j)
            for n_val, js in groups.items():
                m_len = len(live[js[0]][3])
                if level > m_len:
                    continue
                for r in range(1, len(js) + 1):
                    for combo in itertools.combinations(js, r):
                        prem = [
                            self.entry_at(live[j][0], level) for j in combo
                        ]
                        if not self.eta.T.cons(prem):
                            continue
                        node = prefix_sets + [tuple(combo)]
                        nodes.append(node)
                        if level + 1 <= m_len:
                            extend(node, list(combo))

        extend([], list(range(len(live))))
        return live, nodes

    def tree_morphism(self, live_j, nodes_j, live_k):
        """Map each node of the smaller tree to the node of the larger one
        collecting, level by level, the indices sitting below the smaller
        node's joined premises."""
        T = self.eta.T
        out = {}
        for node in nodes_j:
            levels = []
            members = list(range(len(live_k)))
            for m, level in enumerate(node):
                pm = T.lub([self.entry_at(live_j[j][0], m) for j in level])
                members = [
                    k
                    for k in members
                    if T.leq(self.entry_at(live_k[k][0], m), pm)
                ]
                levels.append(tuple(members))
            out[tuple(node)] = levels
        return out

    def node_premise(self, live, node) -> Token:
        entries = []
        for m in range(self.support):
            if m < len(node):
                prem = [self.entry_at(live[j][0], m) for j in node[m]]
                entries.append(self.eta.T.lub(prem))
            else:
                entries.append(self.eta.T.bottom)
        return self.seq(entries)

    def _is_maximal(self, live, node) -> bool:
        m_len = len(live[node[0][0]][3])
        return len(node) == m_len + 1

    def theta_bar(self, q: Token, witness: Optional[Token] = None, bound=None) -> Token:
        """Lower adjoint of the curried evaluation, via the decorated tree."""
        pairs = self.fun_basis.pairs(q)
        if not pairs:
            return self.eta.chain.per_limit.limit.bottom
        if witness is None:
            witness = self.find_witness(pairs, bound)
            if witness is None:
                raise NotWitnessed(
                    "no total certifies the compact within the bound", witness=q
                )
        live, nodes = self.build_tree(pairs)
        decorations: Dict[tuple, Token] = {}
        # leaf-to-root: longer nodes first
        for node in sorted(nodes, key=len, reverse=True):
            key = tuple(node)
            if self._is_maximal(live, node):
                vals = [live[j][1] for j in node[-1]]
                a_val = self.a_sum.carrier.lub(vals)
                n_idx, inner = self.a_sum.carrier.split(a_val)
                k_global = self.eta.const_positions[n_idx]
                decorations[key] = self.eta.codomain.inject(k_global, inner)
            else:
                level = len(node)
                children = [
                    n for n in nodes if len(n) == level + 1 and n[:level] == node
                ]
                step_pairs = []
                for ch in children:
                    prem = self.eta.T.lub(
                        [self.entry_at(live[j][0], level) for j in ch[level]]
                    )
                    step_pairs.append((prem, decorations[tuple(ch)]))
                inner = self.eta._theta(self.eta.expr, 0, step_pairs)
                path = live[node[0][0]][3]
                k_step = path[level - 1]
                decorations[key] = self.eta.codomain.inject(
                    k_step, self.eta.iso.inv(inner)
                )
        roots = [n for n in nodes if len(n) == 1]
        root_pairs = []
        for r in roots:
            prem = self.eta.T.lub([self.entry_at(live[j][0], 0) for j in r[0]])
            root_pairs.append((prem, decorations[tuple(r)]))
        return self.eta.iso.inv(self.eta._theta(self.eta.expr, 0, root_pairs))


# ---------------------------------------------------------------------------
# the weak isomorphism with the dense image


@dataclass
class RoundTripReport:
    checks: List[Tuple[str, str, object]] = field(default_factory=list)
    pedigree: str = "unknown"

    def add(self, name, ok, witness=None):
        self.checks.append((name, "pass" if ok else "fail", witness))

    @property
    def all_pass(self):
        return all(s == "pass" for (_, s, _) in self.checks)


def dense_image_weak_iso(
    lfp: DenseLfp, rank_bound: int = 3, support: Optional[int] = None
) -> RoundTripReport:
    """Round-trip checks between the fixed point and its image under the
    curried evaluation, with the pedigree recorded when everything passes."""
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=support or rank_bound + 1)
    report = RoundTripReport()

    totals, _ = lfp.per.totals(rank_bound)

    ok, witness = True, None
    for x in totals:
        for y in totals:
            lhs = lfp.per.related(x, y, rank_bound) is True
            rhs = (
                bar.fun_per.related(bar.eta_bar(x), bar.eta_bar(y), rank_bound)
                is True
            )
            if lhs != rhs:
                ok, witness = False, (x, y)
    report.add("evaluation-reflects-classes", ok, witness)

    ok, witness = True, None
    for x in totals:
        back = bar.theta_bar(bar.eta_bar(x), witness=x)
        if lfp.per.related(back, x, rank_bound) is not True:
            ok, witness = False, x
    report.add("round-trip-fixed-point", ok, witness)

    ok, witness = True, None
    for x in totals:
        y = bar.eta_bar(x)
        back = bar.eta_bar(bar.theta_bar(y, witness=x))
        if bar.fun_per.related(back, y, rank_bound) is not True:
            ok, witness = False, x
    report.add("round-trip-image", ok, witness)

    pedigree_inputs = [p.flags.admissible_pedigree for p in lfp.chain.env.values()]
    if report.all_pass and all(v == YES for v in pedigree_inputs):
        report.pedigree = YES
        lfp.per.flags = replace(lfp.per.flags, admissible_pedigree=YES)
    else:
        report.pedigree = "unknown"
    return report

"""Strictly positive operation ASTs, the one structural walk by which an
operation acts on bases, pers, embedding-projection pairs and token maps,
omega-chains, inductive limits, and the fixed-point order isomorphism."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .basis import Basis, Token, TokenSet, tok
from .construct import (
    Embedding,
    exp_fixed_embedding,
    fun_basis,
    identity_embedding,
    prod_basis,
    prod_embedding,
    sum_basis,
    sum_embedding,
)
from .errors import IsoFailure, UnboundParameter
from .ordinals import Ordinal, fin


# ---------------------------------------------------------------------------
# AST


class FunctorExpr:
    pass


@dataclass(frozen=True)
class Id(FunctorExpr):
    def __str__(self):
        return "X"


@dataclass(frozen=True)
class ConstD(FunctorExpr):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Sum(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr

    def __str__(self):
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Prod(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr

    def __str__(self):
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Exp(FunctorExpr):
    param: str
    body: FunctorExpr

    def __str__(self):
        return f"[{self.param} -> {self.body}]"


def subterms(expr: FunctorExpr, path=()):
    """(path, sub-term) pairs of expr in preorder; a path lists the child
    indices from expr down: 0 and 1 for the sides of a Sum or Prod, 0 for
    the body of an Exp."""
    yield path, expr
    if isinstance(expr, Exp):
        yield from subterms(expr.body, path + (0,))
    elif isinstance(expr, (Sum, Prod)):
        yield from subterms(expr.left, path + (0,))
        yield from subterms(expr.right, path + (1,))


def validate_functor(expr: FunctorExpr, env: Dict[str, object]):
    """Names must resolve; exponent positions must be constant parameters."""
    for _, e in subterms(expr):
        if not isinstance(e, FunctorExpr):
            raise TypeError(f"not a functor expression: {e!r}")
        if isinstance(e, ConstD) and e.name not in env:
            raise UnboundParameter(f"unbound parameter {e.name!r}")
        if isinstance(e, Exp) and e.param not in env:
            raise UnboundParameter(f"unbound exponent parameter {e.param!r}")


# ---------------------------------------------------------------------------
# the functorial action


def functor_action(expr: FunctorExpr, x, env: Dict[str, object], ops, table=None):
    """F's action at x, built bottom-up by one walk over the equation.

    `ops` is (const, sum, prod, exp): the variable gives x itself, a
    parameter gives const(env[name]), a sum or product combines the values
    of its sides, and [P -> body] gives exp(env[P], value of body).  When
    `table` is given it records the value of every sub-term by its id."""
    if isinstance(expr, Id):
        out = x
    elif isinstance(expr, ConstD):
        out = ops[0](env[expr.name])
    elif isinstance(expr, (Sum, Prod)):
        out = ops[1 if isinstance(expr, Sum) else 2](
            functor_action(expr.left, x, env, ops, table),
            functor_action(expr.right, x, env, ops, table),
        )
    elif isinstance(expr, Exp):
        out = ops[3](env[expr.param], functor_action(expr.body, x, env, ops, table))
    else:
        raise TypeError(expr)
    if table is not None:
        table[id(expr)] = out
    return out


def identity(v):
    return v


# F on bases and on embedding-projection pairs
BASES = (identity, sum_basis, prod_basis, fun_basis)
EMBEDDINGS = (identity_embedding, sum_embedding, prod_embedding, exp_fixed_embedding)


def apply_functor_domain(expr: FunctorExpr, D: Basis, env: Dict[str, Basis]) -> Basis:
    validate_functor(expr, env)
    return functor_action(expr, D, env, BASES)


def carrier_table(
    expr: FunctorExpr, D: Basis, env: Dict[str, Basis]
) -> Dict[int, Basis]:
    """Carrier of every sub-term of expr applied at D, keyed by id(sub-term)."""
    validate_functor(expr, env)
    table: Dict[int, Basis] = {}
    functor_action(expr, D, env, BASES, table)
    return table


def apply_functor_embedding(
    expr: FunctorExpr, f: Embedding, env: Dict[str, Basis]
) -> Embedding:
    validate_functor(expr, env)
    return functor_action(expr, f, env, EMBEDDINGS)


# ---------------------------------------------------------------------------
# omega-chains


@dataclass
class ChainStage:
    index: Ordinal
    basis: Basis
    embed_from_prev: Optional[Embedding]  # None at stage 0


def omega_chain(expr: FunctorExpr, env: Dict[str, Basis], n_max: int) -> List[ChainStage]:
    """Stages D_0 .. D_{n_max}; D_0 is the one-point basis."""
    from .basis import one_point_basis

    validate_functor(expr, env)
    d0 = one_point_basis("D0")
    stages = [ChainStage(fin(0), d0, None)]
    for n in range(1, n_max + 1):
        prev = stages[-1]
        nxt = apply_functor_domain(expr, prev.basis, env)
        if n == 1:
            emb = Embedding(
                prev.basis, nxt, lambda t, b=nxt: b.bottom, lambda t, b=prev.basis: b.bottom,
                name="f01",
            )
        else:
            emb = apply_functor_embedding(expr, prev.embed_from_prev, env)
        stages.append(ChainStage(fin(n), nxt, emb))
    return stages


# ---------------------------------------------------------------------------
# inductive limit


class LimitBasis(Basis):
    """Limit of an omega-chain; a token is tagged with the least stage at
    which it occurs as an embedding image."""

    finite = False

    def __init__(self, stages: List[ChainStage], name=None):
        self.stages = stages
        self.name = name or "limit"
        self._canon_cache = {}
        self._leq_cache = {}
        self._lub_cache = {}
        self._cons_cache = {}
        self._stage_emb_cache = {}
        self._images = {}
        self._bottom = self.canonical(0, stages[0].basis.bottom)

    # stage arithmetic -----------------------------------------------------
    def lift_token(self, n: int, t: Token, m: int) -> Token:
        """Image of stage-n token t at stage m >= n."""
        for k in range(n + 1, m + 1):
            t = self.stages[k].embed_from_prev.fwd(t)
        return t

    def drop_token(self, n: int, t: Token, m: int) -> Token:
        """Projection of stage-n token t down to stage m <= n."""
        for k in range(n, m, -1):
            t = self.stages[k].embed_from_prev.proj(t)
        return t

    def canonical(self, n: int, t: Token) -> Token:
        """Tag t (a stage-n token) with its least stage of occurrence."""
        key = (n, t.key)
        if key in self._canon_cache:
            return self._canon_cache[key]
        m, u = n, t
        while m > 0:
            emb = self.stages[m].embed_from_prev
            down = emb.proj(u)
            if emb.fwd(down) != u:
                break
            u, m = down, m - 1
        out = tok(("lim", m, u.key))
        self._canon_cache[key] = out
        return out

    def decompose(self, t: Token) -> Tuple[int, Token]:
        _, n, key = t.key
        return n, tok(key)

    def max_stage(self) -> int:
        return len(self.stages) - 1

    def at_common_stage(self, p: Token, q: Token):
        i, pt = self.decompose(p)
        j, qt = self.decompose(q)
        k = max(i, j)
        return self.lift_token(i, pt, k), self.lift_token(j, qt, k), k

    # basis interface ------------------------------------------------------
    @property
    def bottom(self):
        return self._bottom

    def has_token(self, t):
        k = t.key
        if not (isinstance(k, tuple) and len(k) == 3 and k[0] == "lim"):
            return False
        return k[1] <= self.max_stage()

    def leq(self, p, q):
        key = (p.key, q.key)
        if key not in self._leq_cache:
            pt, qt, k = self.at_common_stage(p, q)
            self._leq_cache[key] = self.stages[k].basis.leq(pt, qt)
        return self._leq_cache[key]

    def cons(self, ts):
        ts = list(ts)
        if not ts:
            return True
        key = frozenset(t.key for t in ts)
        if key not in self._cons_cache:
            parts = [self.decompose(t) for t in ts]
            k = max(i for (i, _) in parts)
            lifted = [self.lift_token(i, t, k) for (i, t) in parts]
            self._cons_cache[key] = self.stages[k].basis.cons(lifted)
        return self._cons_cache[key]

    def lub(self, ts):
        ts = list(ts)
        if not ts:
            return self._bottom
        key = frozenset(t.key for t in ts)
        if key not in self._lub_cache:
            parts = [self.decompose(t) for t in ts]
            k = max(i for (i, _) in parts)
            lifted = [self.lift_token(i, t, k) for (i, t) in parts]
            self._lub_cache[key] = self.canonical(k, self.stages[k].basis.lub(lifted))
        return self._lub_cache[key]

    def tokens(self, bound=None):
        b = self.max_stage() if bound is None else min(bound, self.max_stage())
        out = []
        seen = set()
        for n in range(b + 1):
            stage = self.stages[n].basis
            for c in self.tags(n, stage.tokens(None if stage.finite else bound).tokens):
                if c.key not in seen:
                    seen.add(c.key)
                    out.append(c)
        return TokenSet(tuple(out), True)

    def tags(self, n: int, ts) -> List[Token]:
        """`canonical` of each stage-n token in ts.  When stage n-1
        enumerates completely, a token is new at stage n exactly when no
        stage-(n-1) token embeds onto it, and otherwise takes its preimage's
        tag, so it is tagged from the forward images of stage n-1 with no
        projection walk."""
        images = self._forward_images(n)
        if images is not None:
            for t in ts:
                if (n, t.key) not in self._canon_cache:
                    self._canon_cache[(n, t.key)] = images.get(t.key) or tok(
                        ("lim", n, t.key)
                    )
        return [self.canonical(n, t) for t in ts]

    def _forward_images(self, n: int):
        """Tag of every stage-(n-1) token, keyed by its image at stage n;
        None at stage 0 and when stage n-1 does not enumerate completely."""
        if n not in self._images:
            below = self.stages[n - 1].basis if n > 0 else None
            ts = below.tokens() if below is not None and below.finite else None
            if ts is None or ts.truncated:
                self._images[n] = None
            else:
                fwd = self.stages[n].embed_from_prev.fwd
                self._images[n] = {
                    fwd(t).key: c for (t, c) in zip(ts.tokens, self.tags(n - 1, ts.tokens))
                }
        return self._images[n]

    def stage_embedding(self, n: int) -> Embedding:
        if n in self._stage_emb_cache:
            return self._stage_emb_cache[n]

        def fwd(t):
            return self.canonical(n, t)

        def proj(t):
            m, inner = self.decompose(t)
            if m <= n:
                return self.lift_token(m, inner, n)
            return self.drop_token(m, inner, n)

        emb = Embedding(self.stages[n].basis, self, fwd, proj, name=f"f{n},lim")
        self._stage_emb_cache[n] = emb
        return emb


# ---------------------------------------------------------------------------
# fixed-point isomorphism D_omega ~ F(D_omega)


@dataclass
class IsoReport:
    bound: int
    verified: bool
    token_count: int
    witness: object = None


class FixedPointIso:
    """Canonical token bijection between a limit and its one-step unfolding."""

    def __init__(self, expr: FunctorExpr, env: Dict[str, Basis], limit: LimitBasis):
        self.expr = expr
        self.env = env
        self.limit = limit
        self.unfolded = apply_functor_domain(expr, limit, env)
        self._femb_cache: Dict[int, Embedding] = {}
        self._fwd_cache: Dict[object, Token] = {}
        self._inv_cache: Dict[object, Token] = {}

    def _femb(self, n: int) -> Embedding:
        # F applied to the stage embedding D_n -> limit
        if n not in self._femb_cache:
            self._femb_cache[n] = apply_functor_embedding(
                self.expr, self.limit.stage_embedding(n), self.env
            )
        return self._femb_cache[n]

    def fwd(self, t: Token) -> Token:
        if t.key not in self._fwd_cache:
            n, inner = self.limit.decompose(t)
            if n == 0:
                self._fwd_cache[t.key] = self.unfolded.bottom
            else:
                self._fwd_cache[t.key] = self._femb(n - 1).fwd(inner)
        return self._fwd_cache[t.key]

    def inv(self, t: Token) -> Token:
        if t.key not in self._inv_cache:
            m = self._leaf_stage(t)
            inner = self._femb(m).proj(t)
            if self._femb(m).fwd(inner) != t:
                raise IsoFailure(
                    "token is not an image of any built stage", witness=t
                )
            self._inv_cache[t.key] = self.limit.canonical(m + 1, inner)
        return self._inv_cache[t.key]

    def _leaf_stage(self, t: Token) -> int:
        """Largest canonical stage of a limit token occurring inside t."""
        best = 0

        def walk(key):
            nonlocal best
            if isinstance(key, tuple):
                if key and key[0] == "lim":
                    best = max(best, key[1])
                    return
                for part in key:
                    walk(part)
            elif isinstance(key, frozenset):
                for part in key:
                    walk(part)

        walk(t.key)
        cap = self.limit.max_stage() - 1
        return min(best, cap)

    def verify(self, bound: int) -> IsoReport:
        toks = self.limit.tokens(bound).tokens
        images = {}
        for t in toks:
            u = self.fwd(t)
            if u.key in images:
                return IsoReport(bound, False, len(toks), witness=(images[u.key], t))
            images[u.key] = t
            if self.inv(u) != t:
                return IsoReport(bound, False, len(toks), witness=t)
        for p in toks:
            for q in toks:
                if self.limit.leq(p, q) != self.unfolded.leq(self.fwd(p), self.fwd(q)):
                    return IsoReport(bound, False, len(toks), witness=(p, q))
        # the image of the stage-b fragment is exactly F applied to stage b-1;
        # only decidable when the stage enumerates completely
        stage_b = self.limit.stages[bound].basis if bound >= 1 else None
        if stage_b is not None and stage_b.finite:
            expected = {
                self._femb(bound - 1).fwd(t).key for t in stage_b.tokens().tokens
            }
            got = {self.fwd(t).key for t in toks}
            if got != expected:
                return IsoReport(
                    bound, False, len(toks), witness=got.symmetric_difference(expected)
                )
        return IsoReport(bound, True, len(toks))


def fixed_point_iso(
    expr: FunctorExpr, env: Dict[str, Basis], limit: LimitBasis, bound: int
) -> Tuple[FixedPointIso, IsoReport]:
    iso = FixedPointIso(expr, env, limit)
    report = iso.verify(bound)
    if not report.verified:
        raise IsoFailure(
            f"fixed-point correspondence failed at bound {bound}", witness=report.witness
        )
    return iso, report

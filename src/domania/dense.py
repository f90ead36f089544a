"""Dense parts, the closed-set family and retractions that project
arbitrary-stage totals onto finite-stage totals, and the dense least fixed
point assembled from dense chain stages."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from .basis import Basis, Token, TokenSet
from .construct import Embedding, canonical_from_probes, premise_closure
from .errors import NonDenseParameter, TrivialFunctor, UnknownToken
from .ordinals import omega_plus
from .per import YES, DomainPer, tri_all, trivial_per
from .perlfp import PerChain, apply_functor_per, functor_is_trivial, per_chain_extend
from .spfunctor import (
    ConstD,
    Exp,
    Id,
    Prod,
    Sum,
    apply_functor_embedding,
    carrier_table,
)


@dataclass
class ExtensionVerdict:
    status: str  # "yes" | "no" | "unknown"
    witness: Optional[Token] = None
    bound: Optional[int] = None


def has_total_extension(P: DomainPer, p: Token, bound=None) -> ExtensionVerdict:
    """Search for a total above p; `no` only on exhaustively enumerable pers."""
    if not P.carrier.has_token(p):
        raise UnknownToken(f"{p!r} not in carrier {P.carrier.name}", witness=p)
    ts, exact = P.totals(bound)
    for t in ts:
        if P.carrier.leq(p, t):
            return ExtensionVerdict("yes", t, bound)
    return ExtensionVerdict("no" if exact else "unknown", None, bound)


@dataclass
class DensePart:
    parent: DomainPer
    kept: Callable[[Token], bool]
    per: DomainPer


class KeptBasis(Basis):
    """Restriction of a carrier to tokens with total extensions."""

    def __init__(self, parent: Basis, kept, name=None):
        self.parent = parent
        self.kept = kept
        self.name = name or f"{parent.name}^d"
        self.finite = parent.finite

    @property
    def bottom(self):
        return self.parent.bottom

    def has_token(self, t):
        return self.parent.has_token(t) and self.kept(t)

    def leq(self, p, q):
        return self.parent.leq(p, q)

    def cons(self, ts):
        ts = list(ts)
        if not self.parent.cons(ts):
            return False
        return self.kept(self.parent.lub(ts))

    def lub(self, ts):
        return self.parent.lub(ts)

    def tokens(self, bound=None):
        base = self.parent.tokens(bound)
        return TokenSet(
            tuple(t for t in base.tokens if self.kept(t)), base.truncated
        )


def dense_part(P: DomainPer, bound=None) -> DensePart:
    """Restriction to tokens whose up-set meets the totals."""
    ts, _ = P.totals(bound)
    if not ts:
        triv = trivial_per()
        return DensePart(P, lambda t: t == triv.carrier.bottom, triv)

    verdicts: Dict[object, bool] = {}

    def kept(t: Token) -> bool:
        if t.key not in verdicts:
            verdicts[t.key] = has_total_extension(P, t, bound).status == "yes"
        return verdicts[t.key]

    # a related pair is a pair of totals, and every total is kept, so the
    # parent relation decides the restriction unchanged
    per = DomainPer(
        KeptBasis(P.carrier, kept),
        P.rel,
        replace(P.flags, dense=YES),
        trace=P.trace + ("dense part",),
        name=(P.name or P.carrier.name) + "^d",
    )
    return DensePart(P, kept, per)


# ---------------------------------------------------------------------------
# the closed-set family and its retractions


class DeltaFamily:
    """Membership predicates Delta_n on limit tokens and the retractions r_n
    fixing exactly those tokens, built by structural recursion on the
    equation."""

    def __init__(self, chain: PerChain):
        if functor_is_trivial(chain.functor, chain.env):
            raise TrivialFunctor("the closed-set family needs a non-trivial equation")
        self.chain = chain
        self.limit = chain.per_limit.limit
        self._domain_env = {k: v.carrier for k, v in chain.env.items()}
        self._carriers = carrier_table(chain.functor, self.limit, self._domain_env)
        self._member_cache = {}
        self._retract_cache = {}
        self._lifts: Dict[int, Embedding] = {}

    # membership -----------------------------------------------------------
    def member(self, n: int, t: Token) -> bool:
        key = (n, t.key)
        if key not in self._member_cache:
            if n == 0:
                out = False
            else:
                out = self._member_f(
                    self.chain.functor, n - 1, self.chain.iso.fwd(t)
                )
            self._member_cache[key] = out
        return self._member_cache[key]

    def _member_f(self, expr, n: int, value: Token) -> bool:
        env = self.chain.env
        if isinstance(expr, ConstD):
            return True
        if isinstance(expr, Id):
            return self.member(n, value)
        if isinstance(expr, Sum):
            carrier = self._carriers[id(expr)]
            spl = carrier.split(value)
            if spl is None:
                return True
            i, x = spl
            return self._member_f((expr.left, expr.right)[i], n, x)
        if isinstance(expr, Prod):
            carrier = self._carriers[id(expr)]
            x, y = carrier.split(value)
            return self._member_f(expr.left, n, x) and self._member_f(
                expr.right, n, y
            )
        if isinstance(expr, Exp):
            carrier = self._carriers[id(expr)]
            B = carrier.exponent
            probes = [B.bottom] + [p for (p, _) in carrier.pairs(value)]
            return all(
                self._member_f(expr.body, n, carrier.apply(value, p))
                for p in probes
            )
        raise TypeError(expr)

    # retractions ----------------------------------------------------------
    def retract(self, n: int, t: Token) -> Token:
        if n < 1:
            raise ValueError("retractions start at stage 1")
        key = (n, t.key)
        if key not in self._retract_cache:
            if n == 1:
                out = self.chain.iso.inv(
                    self._r0(self.chain.functor, self.chain.iso.fwd(t))
                )
            else:
                out = self.chain.iso.inv(self._lift(n).proj(self.chain.iso.fwd(t)))
            self._retract_cache[key] = out
        return self._retract_cache[key]

    def _lift(self, n: int) -> Embedding:
        """F applied to r_{n-1}, seen as an ep-pair on the limit.  Only its
        projection half is read: pointwise post-composition on the premise
        closure, which holds for any monotone token map.  The forward half's
        step-image rule holds only for strict additive maps."""
        if n not in self._lifts:
            L = self.limit
            r = lambda x: self.retract(n - 1, x)
            self._lifts[n] = apply_functor_embedding(
                self.chain.functor, Embedding(L, L, r, r), self._domain_env
            )
        return self._lifts[n]

    def _least_total(self, expr) -> Token:
        per0 = apply_functor_per(expr, trivial_per(), self.chain.env)
        ts, _ = per0.totals()
        return min(ts, key=lambda t: t.pretty)

    def _lift_summand_total(self, expr, i: int, carrier) -> Token:
        # least total of summand i of expr, as a value of the full carrier
        sub = (expr.left, expr.right)[i]
        t0 = self._least_total(sub)
        # t0 lives over the trivial-per carrier of the summand; its tokens are
        # parameter tokens, so they embed unchanged
        return carrier.inject(i, t0)

    def _r0(self, expr, value: Token) -> Token:
        if isinstance(expr, ConstD):
            return value
        if isinstance(expr, Sum):
            carrier = self._carriers[id(expr)]
            lt = not functor_is_trivial(expr.left, self.chain.env)
            rt = not functor_is_trivial(expr.right, self.chain.env)
            spl = carrier.split(value)
            if spl is None:
                return value
            i, x = spl
            if lt and rt:
                return carrier.inject(i, self._r0((expr.left, expr.right)[i], x))
            live = 0 if lt else 1
            if i == live:
                return carrier.inject(i, self._r0((expr.left, expr.right)[i], x))
            return self._lift_summand_total(expr, live, carrier)
        if isinstance(expr, Prod):
            carrier = self._carriers[id(expr)]
            x, y = carrier.split(value)
            return carrier.pair(self._r0(expr.left, x), self._r0(expr.right, y))
        if isinstance(expr, Exp):
            carrier = self._carriers[id(expr)]
            B = carrier.exponent
            live = [(p, q) for (p, q) in carrier.pairs(value)]
            probes = premise_closure({p for (p, _) in live}, B) if live else set()
            body_carrier = self._carriers[id(expr.body)]
            return carrier._wrap(
                canonical_from_probes(
                    probes,
                    lambda p: self._r0(expr.body, carrier.apply(value, p)),
                    B,
                    body_carrier,
                )
            )
        raise TypeError(expr)  # Id is trivial, so never reached by itself


# ---------------------------------------------------------------------------
# the dense least fixed point


@dataclass
class DenseLfp:
    per: DomainPer
    chain: PerChain
    stage_dense_parts: List[DensePart]
    kept: Callable[[Token], bool]


def dense_lfp(expr, env, rank_bound: int = 4, n_finite: int = 4) -> DenseLfp:
    """Dense parts of the chain stages assembled into a chain whose limit is
    the dense part of the per limit."""
    for name, per in env.items():
        if per.flags.dense != YES:
            raise NonDenseParameter(f"parameter {name!r} is not flagged dense")
    if functor_is_trivial(expr, env):
        triv = trivial_per()
        chain = per_chain_extend(expr, env, omega_plus(1), n_finite=2)
        return DenseLfp(triv, chain, [], lambda t: False)

    chain = per_chain_extend(expr, env, omega_plus(1), n_finite=n_finite)
    return _assemble_dense(chain, rank_bound)


def _assemble_dense(chain: PerChain, rank_bound: int) -> DenseLfp:
    stage_parts = []
    for (o, p) in chain.stages:
        if o.is_finite:
            stage_parts.append(dense_part(p, rank_bound))

    # dense_lfp returns early for a trivial functor, and rank bounds are at
    # least 1, so the limit has totals at the rank bound and dense_part never
    # takes its no-totals branch here
    plim = chain.per_limit
    part = dense_part(plim.per, rank_bound)
    params = list(chain.env.values())
    per = replace(
        part.per,
        flags=replace(
            part.per.flags,
            admissible_pedigree=tri_all(
                *(p.flags.admissible_pedigree for p in params)
            ) if params else YES,
        ),
        trace=plim.per.trace + ("dense least fixed point",),
        name="dense-lfp",
    )
    return DenseLfp(per, chain, stage_parts, part.kept)

"""Dense parts, the closed-set family and retractions that project
arbitrary-stage totals onto finite-stage totals, the dense least fixed
point, and the laws the dense report checks on them."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .basis import Basis, Checks, Token, TokenSet, both
from .construct import TokenMap, premise_closure
from .errors import NonDenseParameter, NotConsistentlyComplete, TrivialFunctor
from .ordinals import omega_plus
from .per import DomainPer, has_total_extension, replace, trivial_per
from .perlfp import EXHAUSTIVE_DEPTH, PERS, PerChain, functor_is_trivial
from .perlfp import per_chain_extend
from .spfunctor import MAPS, ConstD, Exp, Id, Prod, Sum, carrier_table, functor_action


class DensePart:
    def __init__(self, kept: Callable[[Token], bool], per: DomainPer):
        self.kept = kept
        self.per = per


class KeptBasis(Basis):
    """Restriction of a carrier to tokens with total extensions."""

    def __init__(self, parent: Basis, kept):
        self.parent = parent
        self.kept = kept
        self.name = f"{parent.name}^d"
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
        return self.parent.cons(ts) and self.kept(self.parent.lub(ts))

    def lub(self, ts):
        ts = list(ts)
        if not self.cons(ts):
            raise NotConsistentlyComplete(f"no join in {self.name}", witness=ts)
        return self.parent.lub(ts)

    def tokens(self, bound=None):
        base = self.parent.tokens(bound)
        return TokenSet(
            tuple(t for t in base.tokens if self.kept(t)), base.exact
        )


def dense_part(P: DomainPer, bound=None) -> DensePart:
    """Restriction to tokens whose up-set meets the totals."""
    ts, _ = P.totals(bound)
    if not ts:
        triv = trivial_per()
        return DensePart(lambda t: t == triv.carrier.bottom, triv)

    verdicts: Dict[Token, bool] = {}

    def kept(t: Token) -> bool:
        if t not in verdicts:
            verdicts[t] = has_total_extension(P, t, bound).holds is True
        return verdicts[t]

    # a related pair is a pair of totals, and every total is kept, so the
    # parent relation decides the restriction unchanged
    per = DomainPer(KeptBasis(P.carrier, kept), P.rel, replace(P.flags, dense=True))
    return DensePart(kept, per)


# ---------------------------------------------------------------------------
# the closed-set family and its retractions


class DeltaFamily:
    """Membership predicates Delta_n on limit tokens and the retractions r_n
    fixing exactly those tokens, built by structural recursion on the
    equation."""

    def __init__(self, chain: PerChain):
        # each sub-term's per at the trivial per, by id; a sub-term is live
        # when its per there has totals
        self._trivial: Dict[int, DomainPer] = {}
        functor_action(chain.functor, trivial_per(), chain.env, PERS, self._trivial)
        if self._least_total(chain.functor) is None:
            raise TrivialFunctor("the closed-set family needs a non-trivial equation")
        self.chain = chain
        self.limit = chain.per_limit.limit
        self._domain_env = {k: v.carrier for k, v in chain.env.items()}
        self._carriers = carrier_table(chain.functor, self.limit, self._domain_env)
        self._member_cache = {}
        self._retract_cache = {}
        self._lifts: Dict[int, TokenMap] = {}

    # membership -----------------------------------------------------------
    def member(self, n: int, t: Token) -> bool:
        key = (n, t)
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
        key = (n, t)
        if key not in self._retract_cache:
            if n == 1:
                out = self.chain.iso.inv(
                    self._r0(self.chain.functor, self.chain.iso.fwd(t))
                )
            else:
                out = self.chain.iso.inv(self._lift(n)(self.chain.iso.fwd(t)))
            self._retract_cache[key] = out
        return self._retract_cache[key]

    def _lift(self, n: int) -> TokenMap:
        """F applied to the retraction map r_{n-1} on the limit."""
        if n not in self._lifts:
            r = TokenMap(self.limit, self.limit, lambda x: self.retract(n - 1, x))
            self._lifts[n] = functor_action(
                self.chain.functor, r, self._domain_env, MAPS
            )
        return self._lifts[n]

    def _least_total(self, expr) -> Optional[Token]:
        """Least total of sub-term expr at the trivial per by printed name,
        None when it has none."""
        ts, _ = self._trivial[id(expr)].totals()
        return min(ts, key=lambda t: t.pretty, default=None)

    def _r0(self, expr, value: Token) -> Token:
        if isinstance(expr, ConstD):
            return value
        if isinstance(expr, Sum):
            carrier = self._carriers[id(expr)]
            spl = carrier.split(value)
            if spl is None:
                return value
            i, x = spl
            sides = (expr.left, expr.right)
            if self._least_total(sides[i]) is not None:
                return carrier.inject(i, self._r0(sides[i], x))
            # a dead summand goes to the live one's least total, whose
            # tokens are parameter tokens and so embed unchanged
            return carrier.inject(1 - i, self._least_total(sides[1 - i]))
        if isinstance(expr, Prod):
            carrier = self._carriers[id(expr)]
            x, y = carrier.split(value)
            return carrier.pair(self._r0(expr.left, x), self._r0(expr.right, y))
        if isinstance(expr, Exp):
            carrier = self._carriers[id(expr)]
            B = carrier.exponent
            probes = premise_closure({p for (p, _) in carrier.pairs(value)}, B)
            return carrier.from_probes(
                {p: self._r0(expr.body, carrier.apply(value, p)) for p in probes}
            )
        raise TypeError(expr)  # Id is trivial, so never reached by itself


# ---------------------------------------------------------------------------
# the dense least fixed point


class DenseLfp:
    def __init__(self, per: DomainPer, chain: PerChain, kept: Callable[[Token], bool]):
        self.per = per
        self.chain = chain
        self.kept = kept


def dense_lfp(
    expr, env, rank_bound: int = 4, n_finite: int = EXHAUSTIVE_DEPTH
) -> DenseLfp:
    """Dense parts of the chain stages assembled into a chain whose limit is
    the dense part of the per limit."""
    for name, per in env.items():
        if per.flags.dense is not True:
            raise NonDenseParameter(f"parameter {name!r} is not flagged dense")
    if functor_is_trivial(expr, env):
        triv = trivial_per()
        chain = per_chain_extend(expr, env, omega_plus(1), n_finite=2)
        return DenseLfp(triv, chain, lambda t: False)

    chain = per_chain_extend(expr, env, omega_plus(1), n_finite=n_finite)
    return _assemble_dense(chain, rank_bound)


def _assemble_dense(chain: PerChain, rank_bound: int) -> DenseLfp:
    # dense_lfp returns early for a trivial functor, and rank bounds are at
    # least 1, so the limit has totals at the rank bound and dense_part never
    # takes its no-totals branch here
    plim = chain.per_limit
    part = dense_part(plim.per, rank_bound)
    pedigree = both(*(p.flags.admissible_pedigree for p in chain.env.values()))
    per = replace(part.per, flags=replace(part.per.flags, admissible_pedigree=pedigree))
    return DenseLfp(per, chain, part.kept)


def dense_laws(lfp: DenseLfp, n_max: int, rank_bound: int) -> Checks:
    """The closed-set family's laws on the limit tokens of stage n_max and
    the limit totals at the rank bound, and the count of kept tokens."""
    fam = DeltaFamily(lfp.chain)
    plim = lfp.chain.per_limit
    toks = plim.limit.tokens(n_max).tokens
    ns = range(1, n_max + 1)
    laws = Checks()
    fixes = all((fam.retract(n, t) == t) == fam.member(n, t) for n in ns for t in toks)
    laws.add("retraction-fixes-family", fixes, bound=n_max)
    nested = all(fam.member(n + 1, t) for n in ns[:-1] for t in toks if fam.member(n, t))
    laws.add("family-monotone", nested, bound=n_max)
    totals, _ = plim.per.totals(rank_bound)
    meets = all(fam.member(n, t) == (plim.rank_of(t) <= n) for n in ns for t in totals)
    laws.add("family-meets-totals", meets, bound=rank_bound)
    kept = sum(1 for t in toks if lfp.kept(t))
    laws.add("kept-tokens", kept > 0, f"{kept}/{len(toks)}", rank_bound)
    return laws

"""Domain-pers: carriers with decidable partial equivalence relations,
finitely presented elements, per constructors, property checkers,
equiembeddings, images, weak isomorphisms, and per limits with witnesses.

Relation verdicts are tri-state (True / False / None for unknown): deciders
over staged carriers never guess beyond their bound.

Relation protocol. A relation decider has three methods, each taking an
optional enumeration bound:

- `related(a, b, bound)` gives the tri-state verdict for two values;
- `totals(bound)` gives `(values, exact)`, the self-related values and
  whether the list is complete;
- `related_pairs(bound)` gives `(pairs, exact)`; `StructuralRel` derives it
  from the other two, since a related pair is a pair of totals.

Per classes are enumerated one way, by `group_classes`: a value joins the
first class whose first member is related to it, or opens a new class.
`DomainPer.classes` groups the totals; a site that needs one value per class
takes the first member of each.

Flag rules. Sums, products and limits take each flag pointwise
(`pointwise_flags`: yes when every part says yes, no when one says no); a
limit then drops `strongly_local`, `dense` and `admissible_pedigree` to
unknown. Function spaces have their own rule (`_fun_flags`). Everything else
changes named fields of an existing flag set with `dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# `tok` is unused here but stays importable as `domania.per.tok`:
# perfbench/selftest.py checks that its tracer rebinds that name
from .basis import Basis, FlatNatBasis, Token, tok  # noqa: F401
from .construct import (
    Embedding,
    FunBasis,
    MultiSumBasis,
    ProdBasis,
    identity_embedding,
)
from .errors import (
    CarrierMismatch,
    IncoherentChain,
    NotTotal,
    NotUniform,
)
from .spfunctor import ChainStage, LimitBasis
from .ordinals import fin

YES, NO, UNKNOWN = "yes", "no", "unknown"


def tri_all(*vals):
    if all(v == YES for v in vals):
        return YES
    if any(v == NO for v in vals):
        return NO
    return UNKNOWN


# ---------------------------------------------------------------------------
# values: tokens plus the few structured shapes that have no token form


@dataclass(frozen=True)
class InjValue:
    index: int
    value: object

    @property
    def pretty(self):
        return f"in{self.index}({_pretty(self.value)})"


@dataclass(frozen=True)
class PairValue:
    left: object
    right: object

    @property
    def pretty(self):
        return f"({_pretty(self.left)},{_pretty(self.right)})"


class SemFn:
    """Function element given semantically; identity decided by descriptor."""

    def __init__(self, descriptor, exponent: Basis, apply_fn):
        self.descriptor = descriptor
        self.exponent = exponent
        self._apply = apply_fn

    def apply(self, x: Token):
        return self._apply(x)

    def __eq__(self, other):
        return isinstance(other, SemFn) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    @property
    def pretty(self):
        return f"<fn {self.descriptor}>"

    def __repr__(self):
        return self.pretty


def _pretty(v):
    return v.pretty if hasattr(v, "pretty") else str(v)


def value_key(v):
    if isinstance(v, Token):
        return ("tok", v.key)
    if isinstance(v, InjValue):
        return ("inj", v.index, value_key(v.value))
    if isinstance(v, PairValue):
        return ("pair", value_key(v.left), value_key(v.right))
    if isinstance(v, SemFn):
        return ("sem", v.descriptor)
    raise TypeError(v)


def split_sum_value(basis: MultiSumBasis, v):
    if isinstance(v, InjValue):
        return v.index, v.value
    return basis.split(v)


def split_prod_value(basis: ProdBasis, v):
    if isinstance(v, PairValue):
        return v.left, v.right
    return basis.split(v)


def value_apply(basis: FunBasis, f, x: Token):
    if isinstance(f, SemFn):
        return f.apply(x)
    return basis.apply(f, x)


# ---------------------------------------------------------------------------
# element expressions


class ElemExpr:
    pass


@dataclass(frozen=True)
class EBot(ElemExpr):
    pass


@dataclass(frozen=True)
class ETok(ElemExpr):
    token: Token


@dataclass(frozen=True)
class EInj(ElemExpr):
    index: int
    sub: ElemExpr


@dataclass(frozen=True)
class EPair(ElemExpr):
    left: ElemExpr
    right: ElemExpr


@dataclass(frozen=True)
class ETable(ElemExpr):
    entries: Tuple[Tuple[Token, ElemExpr], ...]


@dataclass(frozen=True)
class ENat(ElemExpr):
    base: ElemExpr
    step: str
    strict: bool = True


@dataclass(frozen=True)
class EStaged(ElemExpr):
    stage: int
    sub: ElemExpr


@dataclass(frozen=True)
class EVal(ElemExpr):
    """Wraps an already-reduced value, for splicing into larger expressions."""

    value: object


NAT_STEP_REGISTRY: Dict[str, Callable] = {}


def register_nat_step(name: str, fn):
    """fn(ctx, value) -> value; named so elements stay analyzable."""
    NAT_STEP_REGISTRY[name] = fn


def reduce_elem(carrier: Basis, e: ElemExpr, ctx=None):
    """Denotation of an element expression over `carrier` as a value."""
    if isinstance(e, EVal):
        return e.value
    if isinstance(e, EBot):
        return carrier.bottom
    if isinstance(e, ETok):
        if not carrier.has_token(e.token):
            raise CarrierMismatch(
                f"token {e.token!r} not in carrier {carrier.name}", witness=e
            )
        return e.token
    if isinstance(e, EInj):
        if not isinstance(carrier, MultiSumBasis):
            raise CarrierMismatch(f"injection into non-sum carrier {carrier.name}")
        inner = reduce_elem(carrier.parts[e.index], e.sub, ctx)
        if isinstance(inner, Token):
            return carrier.inject(e.index, inner)
        return InjValue(e.index, inner)
    if isinstance(e, EPair):
        if not isinstance(carrier, ProdBasis):
            raise CarrierMismatch(f"pair into non-product carrier {carrier.name}")
        l = reduce_elem(carrier.left, e.left, ctx)
        r = reduce_elem(carrier.right, e.right, ctx)
        if isinstance(l, Token) and isinstance(r, Token):
            return carrier.pair(l, r)
        return PairValue(l, r)
    if isinstance(e, ETable):
        if not isinstance(carrier, FunBasis):
            raise CarrierMismatch(f"table into non-function carrier {carrier.name}")
        pairs = []
        for (arg, sub) in e.entries:
            val = reduce_elem(carrier.values, sub, ctx)
            if not isinstance(val, Token):
                raise CarrierMismatch("table values must reduce to tokens")
            pairs.append((arg, val))
        return carrier.make(pairs)
    if isinstance(e, ENat):
        if not isinstance(carrier, FunBasis) or not isinstance(
            carrier.exponent, FlatNatBasis
        ):
            raise CarrierMismatch("iteration elements need a flat-naturals exponent")
        step = NAT_STEP_REGISTRY[e.step]
        base = reduce_elem(carrier.values, e.base, ctx)
        nat = carrier.exponent
        cache = {0: base}

        def at(n):
            if n not in cache:
                cache[n] = step(ctx, at(n - 1))
            return cache[n]

        def apply_fn(x: Token):
            v = nat.value_of(x)
            if v is None:
                return carrier.values.bottom
            return at(v)

        return SemFn(
            ("natfn", e.step, value_key(base)), carrier.exponent, apply_fn
        )
    if isinstance(e, EStaged):
        if not isinstance(carrier, LimitBasis):
            raise CarrierMismatch("staged elements need a limit carrier")
        inner = reduce_elem(carrier.stages[e.stage].basis, e.sub, ctx)
        if not isinstance(inner, Token):
            raise CarrierMismatch("staged elements must reduce to stage tokens")
        return carrier.canonical(e.stage, inner)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# flags


@dataclass(frozen=True)
class PerFlags:
    weakly_convex: str = UNKNOWN
    convex: str = UNKNOWN
    local: str = UNKNOWN
    strongly_local: str = UNKNOWN
    complete: str = UNKNOWN
    upwards_closed: str = UNKNOWN
    dense: str = UNKNOWN
    admissible_pedigree: str = UNKNOWN
    countably_based: str = UNKNOWN


ALL_YES = PerFlags(*(YES,) * 9)


def pointwise_flags(parts) -> PerFlags:
    """Each flag of a sum, product or limit: `tri_all` over its parts. For
    sums, totals stay inside their summand, where every property transfers,
    and the fresh bottom is never total."""
    parts = list(parts)
    return PerFlags(
        **{
            f.name: tri_all(*(getattr(p, f.name) for p in parts))
            for f in fields(PerFlags)
        }
    )


# ---------------------------------------------------------------------------
# relation deciders


class FiniteRel:
    """Explicit symmetric-transitive token relation; all answers exact."""

    def __init__(self, carrier: Basis, pairs):
        self.carrier = carrier
        self.pairs = frozenset(pairs)
        for (a, b) in self.pairs:
            if (b, a) not in self.pairs:
                raise CarrierMismatch("relation not symmetric", witness=(a, b))
        for (a, b) in self.pairs:
            for (c, d) in self.pairs:
                if b == c and (a, d) not in self.pairs:
                    raise CarrierMismatch("relation not transitive", witness=(a, d))
        self.exact = True

    def related(self, a, b, bound=None):
        if not (isinstance(a, Token) and isinstance(b, Token)):
            return False
        return (a.key, b.key) in self.pairs

    def totals(self, bound=None):
        ts = [t for t in self.carrier.tokens().tokens if (t.key, t.key) in self.pairs]
        return ts, True

    def related_pairs(self, bound=None):
        if not hasattr(self, "_pair_cache"):
            toks = {t.key: t for t in self.carrier.tokens().tokens}
            self._pair_cache = [
                (toks[a], toks[b]) for (a, b) in sorted(self.pairs, key=str)
            ]
        return self._pair_cache, True


class StructuralRel:
    def related(self, a, b, bound=None):
        raise NotImplementedError

    def totals(self, bound=None):
        raise NotImplementedError

    def related_pairs(self, bound=None):
        ts, exact = self.totals(bound)
        out = []
        for a in ts:
            for b in ts:
                if self.related(a, b, bound):
                    out.append((a, b))
        return out, exact


class SumRel(StructuralRel):
    def __init__(self, basis: MultiSumBasis, part_pers):
        self.basis = basis
        self.parts = list(part_pers)

    def related(self, a, b, bound=None):
        sa = split_sum_value(self.basis, a)
        sb = split_sum_value(self.basis, b)
        if sa is None or sb is None:
            return False
        (i, x), (j, y) = sa, sb
        if i != j:
            return False
        return self.parts[i].related(x, y, bound)

    def totals(self, bound=None):
        out, exact = [], True
        for i, per in enumerate(self.parts):
            ts, ex = per.totals(bound)
            exact = exact and ex
            for t in ts:
                if isinstance(t, Token):
                    out.append(self.basis.inject(i, t))
                else:
                    out.append(InjValue(i, t))
        return out, exact


class ProdRel(StructuralRel):
    def __init__(self, basis: ProdBasis, left, right):
        self.basis = basis
        self.left, self.right = left, right

    def related(self, a, b, bound=None):
        ax, ay = split_prod_value(self.basis, a)
        bx, by = split_prod_value(self.basis, b)
        l = self.left.related(ax, bx, bound)
        r = self.right.related(ay, by, bound)
        if l is False or r is False:
            return False
        if l is True and r is True:
            return True
        return None

    def totals(self, bound=None):
        ls, lex = self.left.totals(bound)
        rs, rex = self.right.totals(bound)
        out = []
        for x in ls:
            for y in rs:
                if isinstance(x, Token) and isinstance(y, Token):
                    out.append(self.basis.pair(x, y))
                else:
                    out.append(PairValue(x, y))
        return out, lex and rex


class NatIdentityRel(StructuralRel):
    """Equality on defined naturals over the flat-naturals carrier."""

    def __init__(self, basis: FlatNatBasis, nat_bound=8):
        self.basis = basis
        self.nat_bound = nat_bound

    def related(self, a, b, bound=None):
        if not (isinstance(a, Token) and isinstance(b, Token)):
            return False
        va, vb = self.basis.value_of(a), self.basis.value_of(b)
        return va is not None and va == vb

    def totals(self, bound=None):
        b = self.nat_bound if bound is None else bound
        return [self.basis.nat(i) for i in range(b)], False

    def related_pairs(self, bound=None):
        ts, _ = self.totals(bound)
        return [(t, t) for t in ts], False


class FunRel(StructuralRel):
    def __init__(self, basis: FunBasis, exp_per, body_per, probe_bound=8):
        self.basis = basis
        self.exp_per = exp_per
        self.body_per = body_per
        self.probe_bound = probe_bound

    def related(self, f, g, bound=None):
        # over a flat-identity exponent, token step sets take one default
        # value beyond their finite premise support, so finitely many probes
        # decide the relation exactly
        if (
            isinstance(self.exp_per.rel, NatIdentityRel)
            and isinstance(f, Token)
            and isinstance(g, Token)
        ):
            nat = self.exp_per.carrier
            support = set()
            for t in (f, g):
                for (p, _) in self.basis.pairs(t):
                    v = nat.value_of(p)
                    if v is not None:
                        support.add(v)
            fresh = max(support, default=-1) + 1
            unknown = False
            for n in sorted(support) + [fresh]:
                x = nat.nat(n)
                r = self.body_per.related(
                    self.basis.apply(f, x), self.basis.apply(g, x), bound
                )
                if r is False:
                    return False
                if r is None:
                    unknown = True
            return None if unknown else True
        b = bound if bound is not None else self.probe_bound
        pairs, exact = self.exp_per.related_pairs(b)
        unknown = not exact
        for (x, y) in pairs:
            r = self.body_per.related(
                value_apply(self.basis, f, x), value_apply(self.basis, g, y), bound
            )
            if r is False:
                return False
            if r is None:
                unknown = True
        return None if unknown else True

    def totals(self, bound=None):
        if not self.basis.exponent.finite:
            out = []
            for t in self.basis.tokens(bound).tokens:
                if self.related(t, t, bound) is True:
                    out.append(t)
            return out, False
        exp_toks = list(self.basis.exponent.tokens().tokens)
        body = self.body_per.carrier
        body_totals, bt_exact = self.body_per.totals(bound)
        body_totals = [t for t in body_totals if isinstance(t, Token)]
        if body.finite:
            vals, vex = self.body_per.carrier_tokens(None)
        else:
            # staged body: one value per class plus approximations; the
            # fragment is a sample and is flagged as such via exact=False
            body_totals = [
                cls[0]
                for cls in group_classes(
                    body_totals, lambda a, b: self.body_per.related(a, b, bound)
                )
            ]
            pool, seen = [], set()
            frag = body.tokens(bound).tokens
            for v in body_totals:
                for t in frag:
                    if body.leq(t, v) and t.key not in seen:
                        seen.add(t.key)
                        pool.append(t)
            if body.bottom.key not in seen:
                pool.append(body.bottom)
            vals, vex = pool, False
        exp_totals, _ = self.exp_per.totals(bound)
        exp_total_keys = {t.key for t in exp_totals if isinstance(t, Token)}
        out = []
        assignment = {}

        def monotone_ok(i, v):
            for u in exp_toks[:i]:
                if self.basis.exponent.leq(u, exp_toks[i]) and not body.leq(
                    assignment[u], v
                ):
                    return False
                if self.basis.exponent.leq(exp_toks[i], u) and not body.leq(
                    v, assignment[u]
                ):
                    return False
            return True

        def rec(i):
            if i == len(exp_toks):
                out.append(self.basis.from_function(lambda p: assignment[p]))
                return
            cands = (
                body_totals if exp_toks[i].key in exp_total_keys else vals
            )
            for v in cands:
                if monotone_ok(i, v):
                    assignment[exp_toks[i]] = v
                    rec(i + 1)
            assignment.pop(exp_toks[i], None)

        rec(0)
        seen, uniq = set(), []
        for t in out:
            if t.key not in seen:
                seen.add(t.key)
                if self.related(t, t, bound) is True:
                    uniq.append(t)
        return uniq, vex and bt_exact


class LimitRel(StructuralRel):
    """Relation on stage-tagged limit tokens: witness at the presentation
    stage, which is sound because the chain links are equiembeddings."""

    def __init__(self, limit: LimitBasis, stage_pers):
        self.limit = limit
        self.stage_pers = list(stage_pers)

    def related(self, a, b, bound=None):
        if not (isinstance(a, Token) and isinstance(b, Token)):
            return None
        pt, qt, k = self.limit.at_common_stage(a, b)
        return self.stage_pers[k].related(pt, qt, bound)

    def totals(self, bound=None):
        b = self.limit.max_stage() if bound is None else min(bound, self.limit.max_stage())
        out, seen = [], set()
        for n in range(b + 1):
            ts, _ = self.stage_pers[n].totals(bound)
            for t in ts:
                c = self.limit.canonical(n, t)
                if c.key not in seen:
                    seen.add(c.key)
                    out.append(c)
        return out, False


class ImageRel(StructuralRel):
    """x ~ y iff some source total u has x ~ phi(u) ~ y in the target."""

    def __init__(self, target_per, source_per, phi):
        self.target_per = target_per
        self.source_per = source_per
        self.phi = phi

    def related(self, a, b, bound=None):
        us, exact = self.source_per.totals(bound)
        unknown = not exact
        for u in us:
            fu = self.phi(u)
            ra = self.target_per.related(a, fu, bound)
            rb = self.target_per.related(fu, b, bound)
            if ra is True and rb is True:
                return True
            if ra is None or rb is None:
                unknown = True
        return None if unknown else False

    def totals(self, bound=None):
        us, exact = self.source_per.totals(bound)
        out, seen = [], set()
        for u in us:
            fu = self.phi(u)
            k = value_key(fu)
            if k not in seen:
                seen.add(k)
                out.append(fu)
        return out, exact


class MemoRel(StructuralRel):
    """Transparent memoisation shell around a structural decider: verdicts
    are cached per value pair and bound, totals per bound."""

    def __init__(self, inner):
        self.inner = inner
        self._memo = {}
        self._totals_cache = {}

    def related(self, a, b, bound=None):
        try:
            k = (value_key(a), value_key(b), bound)
        except TypeError:
            return self.inner.related(a, b, bound)
        if k not in self._memo:
            self._memo[k] = self.inner.related(a, b, bound)
        return self._memo[k]

    def totals(self, bound=None):
        if bound not in self._totals_cache:
            self._totals_cache[bound] = self.inner.totals(bound)
        return self._totals_cache[bound]


def group_classes(values, related) -> List[List[object]]:
    """First-match grouping: each value joins the first class whose first
    member is related to it, `related(first, value) is True`, or opens a new
    class."""
    out: List[List[object]] = []
    for v in values:
        for cls in out:
            if related(cls[0], v) is True:
                cls.append(v)
                break
        else:
            out.append([v])
    return out


# ---------------------------------------------------------------------------
# the domain-per itself


@dataclass
class DomainPer:
    carrier: Basis
    rel: object
    flags: PerFlags = field(default_factory=PerFlags)
    trace: Tuple[str, ...] = ()
    name: str = ""

    def related(self, a, b, bound=None):
        return self.rel.related(a, b, bound)

    def totals(self, bound=None):
        return self.rel.totals(bound)

    def related_pairs(self, bound=None):
        return self.rel.related_pairs(bound)

    def is_total(self, a, bound=None):
        return self.related(a, a, bound)

    def carrier_tokens(self, bound=None):
        ts = self.carrier.tokens(bound)
        return list(ts.tokens), not ts.truncated

    def class_of(self, x, bound=None):
        members = [x]
        ts, _ = self.carrier_tokens(bound)
        for t in ts:
            if value_key(t) != value_key(x) and self.related(x, t, bound) is True:
                members.append(t)
        return members

    def classes(self, bound=None):
        ts, exact = self.totals(bound)
        return group_classes(ts, lambda a, b: self.related(a, b, bound)), exact

    def describe(self):
        return {"carrier": self.carrier.name, "flags": asdict(self.flags)}


def finite_per(carrier: Basis, related_token_pairs, flags=None, name="") -> DomainPer:
    pairs = set()
    for (a, b) in related_token_pairs:
        pairs.add((a.key, b.key))
        pairs.add((b.key, a.key))
    # transitive closure so callers may list generators only
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return DomainPer(carrier, FiniteRel(carrier, pairs), flags or PerFlags(), name=name)


def trivial_per() -> DomainPer:
    from .basis import one_point_basis

    return DomainPer(
        one_point_basis("D0"),
        FiniteRel(one_point_basis("D0"), frozenset()),
        replace(ALL_YES, dense=NO, admissible_pedigree=UNKNOWN),
        name="trivial",
    )


# ---------------------------------------------------------------------------
# per constructors


def _fun_flags(exp: PerFlags, body: PerFlags) -> PerFlags:
    convex = body.convex
    local = tri_all(exp.dense, body.convex, body.local, body.complete)
    complete = local
    return PerFlags(
        weakly_convex=convex,
        convex=convex,
        local=local,
        strongly_local=tri_all(local, complete),
        complete=complete,
        upwards_closed=body.upwards_closed,
        dense=UNKNOWN,  # function spaces do not preserve density
        admissible_pedigree=tri_all(
            exp.dense, exp.admissible_pedigree, body.admissible_pedigree
        ),
        countably_based=tri_all(exp.countably_based, body.countably_based),
    )


def per_construct(kind: str, D: DomainPer, E: DomainPer, probe_bound=8) -> DomainPer:
    from .construct import fun_basis, prod_basis, sum_basis

    if kind == "sum":
        carrier = sum_basis(D.carrier, E.carrier)
        rel = SumRel(carrier, [D, E])
        flags = pointwise_flags([D.flags, E.flags])
    elif kind == "prod":
        carrier = prod_basis(D.carrier, E.carrier)
        rel = ProdRel(carrier, D, E)
        flags = pointwise_flags([D.flags, E.flags])
    elif kind == "fun":
        carrier = fun_basis(D.carrier, E.carrier)
        rel = FunRel(carrier, D, E, probe_bound)
        flags = _fun_flags(D.flags, E.flags)
    else:
        raise ValueError(f"unknown per constructor {kind!r}")
    return DomainPer(
        carrier,
        MemoRel(rel),
        flags,
        trace=(f"{kind}({D.name or D.carrier.name}, {E.name or E.carrier.name})",),
        name=f"{kind}({D.name},{E.name})",
    )


# ---------------------------------------------------------------------------
# property checks


@dataclass
class Verdict:
    status: str  # "holds" | "fails" | "unknown"
    witness: object = None
    bound: Optional[int] = None

    @property
    def holds(self):
        return self.status == "holds"


PROPERTIES = (
    "weakly_convex",
    "convex",
    "local",
    "strongly_local",
    "complete",
    "upwards_closed",
    "dense",
)


def check_property(P: DomainPer, prop: str, bound: Optional[int] = None) -> Verdict:
    toks, exact_toks = P.carrier_tokens(bound)
    toks = [t for t in toks if isinstance(t, Token)]
    B = P.carrier

    def rel(a, b):
        return P.related(a, b, bound)

    unknown = not exact_toks

    if prop in ("weakly_convex", "convex"):
        for a in toks:
            for b in toks:
                r = rel(a, b)
                if r is None:
                    unknown = True
                if r is not True or not B.leq(a, b):
                    continue
                # on finite carriers every element is compact, so the weak
                # and strong forms quantify over the same joins
                for z in (p for p in toks if B.leq(p, b)):
                    j = B.lub((a, z))
                    r2 = rel(a, j)
                    if r2 is False:
                        return Verdict("fails", (a, b, z), bound)
                    if r2 is None:
                        unknown = True
        return Verdict("unknown" if unknown else "holds", None, bound)

    if prop in ("local", "strongly_local", "complete"):
        ts, exact = P.totals(bound)
        unknown = unknown or not exact
        for x in ts:
            if not isinstance(x, Token):
                unknown = True
                continue
            cls = P.class_of(x, bound)
            if not B.cons(cls):
                if prop in ("local", "complete"):
                    return Verdict("fails", (x, cls), bound)
            if prop == "strongly_local":
                for a in cls:
                    for b in cls:
                        if not any(
                            B.leq(a, c) and B.leq(b, c) for c in cls
                        ):
                            return Verdict("fails", (x, a, b), bound)
            if prop == "complete":
                sup = B.lub(cls)
                r = rel(x, sup)
                if r is False:
                    return Verdict("fails", (x, sup), bound)
                if r is None:
                    unknown = True
        return Verdict("unknown" if unknown else "holds", None, bound)

    if prop == "upwards_closed":
        ts, exact = P.totals(bound)
        unknown = unknown or not exact
        for x in ts:
            if not isinstance(x, Token):
                unknown = True
                continue
            for y in toks:
                if B.leq(x, y):
                    r = rel(x, y)
                    if r is False:
                        return Verdict("fails", (x, y), bound)
                    if r is None:
                        unknown = True
        return Verdict("unknown" if unknown else "holds", None, bound)

    if prop == "dense":
        ts, exact = P.totals(bound)
        totals_tokens = [t for t in ts if isinstance(t, Token)]
        unknown = unknown or not exact
        for p in toks:
            ext = next((t for t in totals_tokens if B.leq(p, t)), None)
            if ext is None:
                if exact and exact_toks:
                    return Verdict("fails", p, bound)
                return Verdict("unknown", p, bound)
        return Verdict("unknown" if unknown else "holds", None, bound)

    raise ValueError(f"unknown property {prop!r}")


def flags_from_checks(P: DomainPer, bound=None) -> PerFlags:
    values = {}
    for prop in PROPERTIES:
        v = check_property(P, prop, bound)
        values[prop] = YES if v.holds else (NO if v.status == "fails" else UNKNOWN)
    return replace(P.flags, **values)


def prec_check(P: DomainPer, p: Token, x, bound=None) -> bool:
    """p approximates the class of x: some y ~ x lies above p."""
    if P.is_total(x, bound) is not True:
        raise NotTotal(f"{_pretty(x)} is not total", witness=x)
    for y in P.class_of(x, bound):
        if isinstance(y, Token) and P.carrier.leq(p, y):
            return True
    return False


# ---------------------------------------------------------------------------
# equivariant maps


class PerMap:
    """Equivariant-candidate map between domain-pers."""

    def __init__(self, source: DomainPer, target: DomainPer, fn, name="map"):
        self.source = source
        self.target = target
        self._fn = fn
        self.name = name

    def __call__(self, v):
        return self._fn(v)

    def compose(self, other: "PerMap") -> "PerMap":
        return PerMap(
            other.source,
            self.target,
            lambda v: self._fn(other._fn(v)),
            name=f"{self.name}.{other.name}",
        )


def per_identity(P: DomainPer) -> PerMap:
    return PerMap(P, P, lambda v: v, name="id")


def is_equivariant(f, D: DomainPer, E: DomainPer, bound=None):
    """Tri-state: related pairs must map to related pairs."""
    fn = f if callable(f) else f.fwd
    pairs, exact = D.related_pairs(bound)
    unknown = not exact
    for (x, y) in pairs:
        r = E.related(fn(x), fn(y), bound)
        if r is False:
            return False, (x, y)
        if r is None:
            unknown = True
    return (None if unknown else True), None


def related_to_known(f_known, g, D: DomainPer, E: DomainPer, bound=None):
    """Shortcut comparison against a known-equivariant map: totals only."""
    ts, exact = D.totals(bound)
    unknown = not exact
    for x in ts:
        r = E.related(f_known(x), g(x), bound)
        if r is False:
            return False, x
        if r is None:
            unknown = True
    return (None if unknown else True), None


def equi_injective(f, D: DomainPer, E: DomainPer, bound=None):
    """Reflection of relatedness, checked over enumerated totals."""
    fn = f if callable(f) else f.fwd
    ts, exact = D.totals(bound)
    unknown = not exact
    for x in ts:
        for y in ts:
            r = E.related(fn(x), fn(y), bound)
            if r is True and D.related(x, y, bound) is False:
                return False, (x, y)
            if r is None:
                unknown = True
    return (None if unknown else True), None


# ---------------------------------------------------------------------------
# equiembeddings


@dataclass
class PerEmbedding:
    emb: Embedding
    source: DomainPer
    target: DomainPer
    name: str = ""

    def fwd(self, v):
        if isinstance(v, Token):
            return self.emb.fwd(v)
        raise CarrierMismatch("embedding applied to a non-token value", witness=v)

    def proj(self, v):
        if isinstance(v, Token):
            return self.emb.proj(v)
        raise CarrierMismatch("projection applied to a non-token value", witness=v)


@dataclass
class EmbeddingVerdict:
    ok: bool
    clause: str = ""
    witness: object = None
    unknown: bool = False


def is_equiembedding(pe: PerEmbedding, bound=None) -> EmbeddingVerdict:
    from .construct import verify_embedding
    from .errors import NotAnEmbedding

    try:
        verify_embedding(pe.emb, bound)
    except NotAnEmbedding as e:
        return EmbeddingVerdict(False, "embedding", e.witness)

    ok, w = is_equivariant(pe.fwd, pe.source, pe.target, bound)
    if ok is False:
        return EmbeddingVerdict(False, "equivariance", w)
    unknown = ok is None

    ts, exact = pe.source.totals(bound)
    tgt_toks, tgt_exact = pe.target.carrier_tokens(bound)
    unknown = unknown or not exact or not tgt_exact
    for x in ts:
        if not isinstance(x, Token):
            unknown = True
            continue
        fx = pe.fwd(x)
        for y in tgt_toks:
            r = pe.target.related(fx, y, bound)
            if r is True:
                back = pe.source.related(x, pe.proj(y), bound)
                if back is False:
                    return EmbeddingVerdict(False, "reflection", (x, y))
                if back is None:
                    unknown = True
            elif r is None:
                unknown = True
    return EmbeddingVerdict(True, "", None, unknown)


# ---------------------------------------------------------------------------
# images and weak isomorphisms


def image_per(phi: PerMap, bound=None) -> DomainPer:
    carrier = phi.target.carrier
    rel = MemoRel(ImageRel(phi.target, phi.source, phi))
    return DomainPer(
        carrier,
        rel,
        PerFlags(countably_based=phi.target.flags.countably_based),
        trace=(f"image({phi.name})",),
        name=f"{phi.name}[{phi.source.name}]",
    )


def image_is_equiembedding_check(phi: PerMap, bound=None) -> EmbeddingVerdict:
    img = image_per(phi, bound)
    pe = PerEmbedding(identity_embedding(img.carrier), img, phi.target, name="id")
    return is_equiembedding(pe, bound)


def weak_iso_check(phi: PerMap, chi: PerMap, bound=None):
    ok1, w1 = is_equivariant(phi, phi.source, phi.target, bound)
    ok2, w2 = is_equivariant(chi, chi.source, chi.target, bound)
    if ok1 is False or ok2 is False:
        return False, ("equivariance", w1 if ok1 is False else w2)
    unknown = ok1 is None or ok2 is None
    ts, exact = phi.source.totals(bound)
    unknown = unknown or not exact
    for x in ts:
        r = phi.source.related(chi(phi(x)), x, bound)
        if r is False:
            return False, ("round-trip", x)
        if r is None:
            unknown = True
    ts, exact = chi.source.totals(bound)
    unknown = unknown or not exact
    for y in ts:
        r = chi.source.related(phi(chi(y)), y, bound)
        if r is False:
            return False, ("round-trip", y)
        if r is None:
            unknown = True
    return (None if unknown else True), None


# ---------------------------------------------------------------------------
# per limits


@dataclass
class PerLimit:
    per: DomainPer
    limit: LimitBasis
    stage_pers: List[DomainPer]

    def rank_of(self, v) -> int:
        """Least stage whose totals contain v."""
        if not isinstance(v, Token):
            raise NotTotal("rank is defined for token-presented elements", witness=v)
        c, inner = self.limit.decompose(v)
        for i in range(c, self.limit.max_stage() + 1):
            lifted = self.limit.lift_token(c, inner, i)
            if self.stage_pers[i].related(lifted, lifted) is True:
                return i
        raise NotTotal(f"{v.pretty} is total at no built stage", witness=v)


def limit_per(stage_pers: Sequence[DomainPer], embeddings: Sequence[PerEmbedding],
              verify_bound=None) -> PerLimit:
    """Inductive limit of a chain of verified equiembeddings."""
    if len(embeddings) != len(stage_pers) - 1:
        raise IncoherentChain("need one embedding per consecutive stage pair")
    for i, pe in enumerate(embeddings):
        v = is_equiembedding(pe, verify_bound)
        if not v.ok:
            raise IncoherentChain(
                f"stage {i} link fails {v.clause}", witness=v.witness
            )
    stages = [ChainStage(fin(0), stage_pers[0].carrier, None)]
    for i, pe in enumerate(embeddings):
        stages.append(ChainStage(fin(i + 1), stage_pers[i + 1].carrier, pe.emb))
    limit = LimitBasis(stages)
    rel = LimitRel(limit, stage_pers)
    flags = replace(
        pointwise_flags(p.flags for p in stage_pers),
        strongly_local=UNKNOWN,
        dense=UNKNOWN,
        admissible_pedigree=UNKNOWN,
    )
    per = DomainPer(limit, rel, flags, trace=("limit",), name="limit")
    return PerLimit(per, limit, list(stage_pers))


def uniform_limit_map(
    phi_family: Sequence[PerMap],
    src: PerLimit,
    tgt: PerLimit,
    chi_family: Optional[Sequence[PerMap]] = None,
    bound=None,
) -> PerMap:
    """Stage-wise family commuting with the chains, extended to the limits."""
    n = len(phi_family)
    for i in range(n - 1):
        f = src.limit.stages[i + 1].embed_from_prev
        g = tgt.limit.stages[i + 1].embed_from_prev
        for t in src.stage_pers[i].carrier.tokens().tokens:
            lhs = g.fwd(phi_family[i](t))
            rhs = phi_family[i + 1](f.fwd(t))
            if lhs != rhs:
                raise NotUniform(
                    f"family does not commute with the chains at stage {i + 1}",
                    stage=i + 1,
                    witness=t,
                )

    def apply(v):
        if not isinstance(v, Token):
            raise CarrierMismatch("limit map applied to non-token value")
        i, inner = src.limit.decompose(v)
        return tgt.limit.canonical(i, phi_family[i](inner))

    phi = PerMap(src.per, tgt.per, apply, name="limit-map")
    if chi_family is not None:
        def apply_chi(v):
            i, inner = tgt.limit.decompose(v)
            return src.limit.canonical(i, chi_family[i](inner))

        chi = PerMap(tgt.per, src.per, apply_chi, name="limit-map-back")
        ok, w = weak_iso_check(phi, chi, bound)
        if ok is False:
            raise NotUniform("stage-wise weak isos fail at the limit", witness=w)
        phi.inverse = chi
    return phi

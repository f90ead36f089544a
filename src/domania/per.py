"""Domain-pers: carriers with decidable partial equivalence relations, per
constructors, property checkers, equiembeddings, images, weak
isomorphisms, and per limits with witnesses.

Values are tokens of the carrier: a relation splits, pairs, injects and
applies them with its carrier's own operations.

Every verdict is tri-state (True / False / None for unknown): deciders over
staged carriers never guess beyond their bound. Relation deciders, asked
once per pair of values, answer with the bare value; every other decider
answers with a `basis.Verdict` that carries it with the bound, a witness
and the clause that failed. Every scan and flag folds its verdicts with
`basis.conjoin`, or its bare form `basis.both`. The reports alone turn
verdicts into words.

Relation protocol. A relation decides and lists; it caches and derives
nothing. A verdict takes no bound; each listing takes an optional
enumeration bound and says whether it is complete:

- `related(a, b)` gives the tri-state verdict for two values. The two
  relations that decide by a listing read it unbounded: `FunRel` its
  exponent's related pairs (or probe points), and `ImageRel` its source's
  totals. A listing that is not complete leaves their verdict unknown;
- `totals(bound)` gives `(values, exact)`, the self-related values and
  whether the list is complete;
- `representatives(bound)` gives `(values, exact)`, one total per class by
  a quotient rule, or None where no rule applies (the `StructuralRel`
  default);
- `probe_points(*step_sets)` gives, for the relation as an exponent, finitely
  many values that decide the function relation between those step sets
  exactly, or None (the `StructuralRel` default); `FunRel` then scans the
  exponent's related pairs.

`DomainPer` is the one place that caches and derives. It keeps verdicts
per pair, and totals, classes, representatives and related pairs per
bound. Its classes group its totals with `group_classes`, where a value
joins the first class whose first member is related to it, or opens a new
class; its related pairs are the pairs of totals whose verdict is True,
since a related pair is a pair of totals. Every site that needs the classes
or the class of a value reads them through `DomainPer.classes`.

One total per class, its representative, is built by the quotient rule
where it applies: the quotient of a sum, product or function-space per is
the sum, product or exponential of the quotients. `SumRel` injects its
parts' representatives, `ProdRel` pairs them, and `FunRel` keeps, for each
tuple of body representatives, one per exponent class, the first map its
one search for self-related monotone maps finds; its totals list that
search in full. A point outside the exponent's totals takes its values
from one lazy pool, bottom first and the rest of the body only when the
search asks past bottom, so a class search lists no carrier it does not
read. `FunRel` has no rule over an infinite exponent or when the exponent's
totals are not exhaustive, as then no map is total. `LimitRel` groups the
tags of its stages' representatives.
An unknown verdict needs no fallback: True verdicts are symmetric and
transitive and totals are self-related, so an unknown verdict separates two
classes, in the quotient as in the totals. Where no rule applies, and
whenever it already holds the classes, `DomainPer` takes the first member of
each class, the slow reference each rule is checked against.
`DomainPer.class_count` counts the representatives.

Laws that hold up to the per are decided on classes, one path each. By the
same invariant, every related pair of a per lies inside one of its classes,
and a law that holds at a class representative holds at every member of its
class. So `is_equivariant` checks f c0 ~ f x for each member x of each
class, c0 the class's first member, which covers every related pair; a
failure's witness is (c0, x). Once equivariance holds, each member x of a
source class has f x ~ f x0, x0 its representative, so f x ~ y exactly when
f x0 ~ y, and x0 ~ proj y then gives x ~ proj y: `is_equiembedding` reads
reflection on the source representatives alone. `weak_iso_check` runs its
round trips on them too, as a composite of equivariant maps is equivariant.
A verdict is unknown where the classes, the representatives or the target
carrier are not exhaustive.

`is_equiembedding` decides only these per clauses; an ep-pair is decided
where it is built. A chain's link 1 is the bottom map out of the one-point
basis, and F, being locally monotone, sends ep-pairs to ep-pairs, so every
link is one (the oracle's closure entries back this by brute force). Each
link's per clauses are decided once, in `perlfp.per_chain_extend`: link 1 by
`is_equiembedding`; link n+1, F of link n, True and exact with no scan when
link n was decided True exactly and every exponent per is flagged dense, as
F then sends equiembeddings to equiembeddings; any other link by
`is_equiembedding` too. `limit_per` takes its links as decided.

Flag rules. A flag is True (earned), False (refuted) or None (unknown),
and only the reports word it. Sums, products and limits take each flag
pointwise (`pointwise_flags`: `basis.both` over the parts); a limit then
drops `strongly_local`, `dense` and `admissible_pedigree` to None. Function
spaces have their own rule (`_fun_flags`). Everything else changes named
fields of an existing flag set with `replace`.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Optional, Sequence

# `tok` is unused here but stays importable as `domania.per.tok`:
# perfbench/selftest.py checks that its tracer rebinds that name
from .basis import Basis, FlatNatBasis, Token, one_point_basis, tok  # noqa: F401
from .basis import Frozen, Verdict, both, conjoin, transitive_reflexive_closure
from .construct import (
    Embedding,
    FunBasis,
    MultiSumBasis,
    ProdBasis,
    fun_basis,
    prod_basis,
    sum_basis,
)
from .errors import (
    CarrierMismatch,
    IncoherentChain,
    NotTotal,
    NotUniform,
    UnknownToken,
)
from .spfunctor import ChainStage, LimitBasis


def replace(record, **changes):
    """A new record of the same type: `record`'s public fields, with
    `changes`; private caches start empty."""
    fields = {k: v for (k, v) in vars(record).items() if not k.startswith("_")}
    return type(record)(**{**fields, **changes})


# ---------------------------------------------------------------------------
# flags


class PerFlags(Frozen):
    FIELDS = (
        "weakly_convex", "convex", "local", "strongly_local", "complete",
        "upwards_closed", "dense", "admissible_pedigree", "countably_based",
    )

    def __init__(
        self, weakly_convex: Optional[bool] = None, convex: Optional[bool] = None,
        local: Optional[bool] = None, strongly_local: Optional[bool] = None,
        complete: Optional[bool] = None, upwards_closed: Optional[bool] = None,
        dense: Optional[bool] = None, admissible_pedigree: Optional[bool] = None,
        countably_based: Optional[bool] = None,
    ):
        vars(self).update(
            weakly_convex=weakly_convex, convex=convex, local=local,
            strongly_local=strongly_local, complete=complete,
            upwards_closed=upwards_closed, dense=dense,
            admissible_pedigree=admissible_pedigree, countably_based=countably_based,
        )

    def as_dict(self):
        """Flag name -> value, in `FIELDS` order (the reports' pedigree order)."""
        return {name: getattr(self, name) for name in self.FIELDS}


ALL_YES = PerFlags(*(True,) * 9)


def pointwise_flags(parts) -> PerFlags:
    """Each flag of a sum, product or limit: `both` over its parts. For
    sums, totals stay inside their summand, where every property transfers,
    and the fresh bottom is never total."""
    parts = list(parts)
    return PerFlags(
        *(both(*(getattr(p, name) for p in parts)) for name in PerFlags.FIELDS)
    )


# ---------------------------------------------------------------------------
# relation deciders


class StructuralRel:
    """The optional half of the relation protocol: no probe points and no
    quotient rule."""

    def probe_points(self, *step_sets):
        # a function relation scans the related pairs
        return None

    def representatives(self, bound=None):
        # `DomainPer` takes the first member of each class
        return None


class FiniteRel(StructuralRel):
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

    def related(self, a, b):
        return (a, b) in self.pairs

    def totals(self, bound=None):
        ts = [t for t in self.carrier.tokens().tokens if (t, t) in self.pairs]
        return ts, True


class SumRel(StructuralRel):
    def __init__(self, basis: MultiSumBasis, part_pers):
        self.basis = basis
        self.parts = list(part_pers)

    def related(self, a, b):
        sa = self.basis.split(a)
        sb = self.basis.split(b)
        if sa is None or sb is None:
            return False
        (i, x), (j, y) = sa, sb
        if i != j:
            return False
        return self.parts[i].related(x, y)

    def totals(self, bound=None):
        return self._injected("totals", bound)

    def representatives(self, bound=None):
        return self._injected("representatives", bound)

    def _injected(self, which, bound):
        out, exact = [], True
        for i, per in enumerate(self.parts):
            ts, ex = getattr(per, which)(bound)
            exact = exact and ex
            out.extend(self.basis.inject(i, t) for t in ts)
        return out, exact


class ProdRel(StructuralRel):
    def __init__(self, basis: ProdBasis, left, right):
        self.basis = basis
        self.left, self.right = left, right

    def related(self, a, b):
        ax, ay = self.basis.split(a)
        bx, by = self.basis.split(b)
        return both(self.left.related(ax, bx), self.right.related(ay, by))

    def totals(self, bound=None):
        return self._paired("totals", bound)

    def representatives(self, bound=None):
        return self._paired("representatives", bound)

    def _paired(self, which, bound):
        ls, lex = getattr(self.left, which)(bound)
        rs, rex = getattr(self.right, which)(bound)
        return [self.basis.pair(x, y) for x in ls for y in rs], lex and rex


class NatIdentityRel(StructuralRel):
    """Equality on defined naturals over the flat-naturals carrier."""

    def __init__(self, basis: FlatNatBasis, nat_bound=8):
        self.basis = basis
        self.nat_bound = nat_bound

    def related(self, a, b):
        va, vb = self.basis.value_of(a), self.basis.value_of(b)
        return va is not None and va == vb

    def totals(self, bound=None):
        b = self.nat_bound if bound is None else bound
        return [self.basis.nat(i) for i in range(b)], False

    def probe_points(self, *step_sets):
        """Equality on a flat carrier: a step set takes one value beyond the
        naturals among its premises, so those naturals and one fresh natural
        decide a function relation exactly."""
        values = (self.basis.value_of(p) for steps in step_sets for (p, _) in steps)
        support = {v for v in values if v is not None}
        fresh = max(support, default=-1) + 1
        return [self.basis.nat(n) for n in sorted(support) + [fresh]]


class FunRel(StructuralRel):
    def __init__(self, basis: FunBasis, exp_per, body_per):
        self.basis = basis
        self.exp_per = exp_per
        self.body_per = body_per

    def related(self, f, g):
        steps = (self.basis.pairs(f), self.basis.pairs(g))
        probes = self.exp_per.rel.probe_points(*steps)
        if probes is None:
            pairs, exact = self.exp_per.related_pairs()
        else:
            pairs, exact = [(x, x) for x in probes], True
        apply = self.basis.apply
        cases = (
            (self.body_per.related(apply(f, x), apply(g, y)), None) for (x, y) in pairs
        )
        return conjoin(cases, exact=exact).holds

    def totals(self, bound=None):
        if not self.basis.exponent.finite:
            out = []
            for t in self.basis.tokens(bound).tokens:
                if self.related(t, t) is True:
                    out.append(t)
            return out, False
        if self.body_per.carrier.finite:
            body_totals, bt_exact = self.body_per.totals(bound)
        else:
            # staged body: one value per class plus approximations; the
            # fragment is a sample and is flagged as such via exact=False
            body_totals, bt_exact = self.body_per.representatives(bound)
        values, vex = self._values(body_totals, bound)
        exp_totals = set(self.exp_per.totals(bound)[0])
        # distinct monotone maps have distinct canonical step sets
        out = list(
            self._total_maps(lambda p: body_totals if p in exp_totals else values())
        )
        # over inexact exponent totals no f ~ f is True, so the list says nothing
        return out, vex and bt_exact and self.exp_per.totals(bound)[1]

    def representatives(self, bound=None):
        """Quotient rule: f ~ g iff f x ~ g y for every related pair, so a
        class is a tuple of body classes, one per exponent class, that some
        monotone map realises; the first map found that is related to itself
        represents it. Total points try the representative first, then (over
        a finite body) the rest of its class, which the search lists only
        when it gets there."""
        exp, body = self.exp_per, self.body_per
        if not (self.basis.exponent.finite and exp.totals(bound)[1]):
            return None
        exp_reps, _ = exp.representatives(bound)
        # each exponent total's class: the position of the representative it is related to
        index = {
            t: i
            for t in exp.totals(bound)[0]
            for (i, e) in enumerate(exp_reps)
            if exp.related(e, t) is True
        }
        body_reps, body_exact = body.representatives(bound)
        values, vex = self._values(body_reps, bound)

        def members(r):
            yield r
            if body.carrier.finite:
                for v in values():
                    if v != r and body.related(r, v) is True:
                        yield v

        found = (
            next(self._total_maps(
                lambda p: members(choice[index[p]]) if p in index else values()
            ), None)
            for choice in product(body_reps, repeat=len(exp_reps))
        )
        return [f for f in found if f is not None], vex and body_exact

    def _total_maps(self, candidates):
        """The maps of `FunBasis.monotone_maps(candidates)` that are related
        to themselves, as tokens, in its order."""
        for a in self.basis.monotone_maps(candidates):
            f = self.basis.from_function(lambda p: a[p])
            if self.related(f, f) is True:
                yield f

    def _values(self, reps, bound):
        """`(values, exact)`: `values()` iterates what non-total points take:
        bottom, then each other token of a finite body, or of a staged body
        each fragment token below one of `reps`, each once, in order of
        first appearance.  The rest is listed only when the search asks past
        bottom, which a search that finds a map at once never does.  The
        pool is exact exactly when the body is finite."""
        body = self.body_per.carrier

        def rest():
            if body.finite:
                return body.tokens().tokens
            frag = body.tokens(bound).tokens
            return (t for v in reps for t in frag if body.leq(t, v))

        def pool():
            seen = {body.bottom}
            yield body.bottom
            for t in rest():
                if t not in seen:
                    seen.add(t)
                    yield t

        return pool, body.finite


class LimitRel(StructuralRel):
    """Relation on stage-tagged limit tokens: witness at the presentation
    stage, which is sound because the chain links are equiembeddings."""

    def __init__(self, limit: LimitBasis, stage_pers):
        self.limit = limit
        self.stage_pers = list(stage_pers)

    def related(self, a, b):
        pt, qt, k = self.limit.at_common_stage(a, b)
        return self.stage_pers[k].related(pt, qt)

    def totals(self, bound=None):
        return list(self._tagged("totals", bound)), False

    def representatives(self, bound=None):
        """Every limit total is the tag of a total of a covered stage, related
        there to that stage's representative of its class, so the tagged
        representatives meet every class; grouping them keeps one each."""
        tags = self._tagged("representatives", bound)
        classes = group_classes(tags, self.related)
        return [cls[0] for cls in classes], False

    def _tagged(self, which, bound):
        at_stage = lambda n: getattr(self.stage_pers[n], which)(bound)[0]
        return self.limit.tagged(bound, at_stage)


class ImageRel(StructuralRel):
    """x ~ y iff some source total u has x ~ phi(u) ~ y in the target."""

    def __init__(self, target_per, source_per, phi):
        self.target_per = target_per
        self.source_per = source_per
        self.phi = phi

    def related(self, a, b):
        us, exact = self.source_per.totals()
        unknown = not exact
        for u in us:
            fu = self.phi(u)
            ra = self.target_per.related(a, fu)
            rb = self.target_per.related(fu, b)
            if ra is True and rb is True:
                return True
            if ra is None or rb is None:
                unknown = True
        return None if unknown else False

    def totals(self, bound=None):
        # x ~ x iff x ~ phi(u) for some source total u: the target totals
        # related to some image
        us, exact = self.source_per.totals(bound)
        images = [self.phi(u) for u in us]
        ts, t_exact = self.target_per.totals(bound)
        out = [
            t
            for t in ts
            if any(self.target_per.related(t, fu) is True for fu in images)
        ]
        return out, exact and t_exact


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


class DomainPer:
    """A carrier with a relation, and the one cache of its answers (module
    docstring): verdicts per pair, the rest per bound."""

    def __init__(self, carrier: Basis, rel: object, flags: Optional[PerFlags] = None):
        self.carrier = carrier
        self.rel = rel
        self.flags = PerFlags() if flags is None else flags
        self._verdicts = {}
        self._derived = {}  # (method name, bound) -> answer

    def related(self, a, b):
        k = (a, b)
        try:
            return self._verdicts[k]
        except KeyError:
            v = self._verdicts[k] = self.rel.related(a, b)
            return v

    def _cached(self, which, bound, derive):
        k = (which, bound)
        if k not in self._derived:
            self._derived[k] = derive()
        return self._derived[k]

    def totals(self, bound=None):
        return self._cached("totals", bound, lambda: self.rel.totals(bound))

    def related_pairs(self, bound=None):
        def pairs():
            ts, exact = self.totals(bound)
            return [(a, b) for a in ts for b in ts if self.related(a, b)], exact

        return self._cached("related_pairs", bound, pairs)

    def classes(self, bound=None):
        def grouped():
            ts, exact = self.totals(bound)
            return group_classes(ts, self.related), exact

        return self._cached("classes", bound, grouped)

    def representatives(self, bound=None):
        def first_members():
            classes, exact = self.classes(bound)
            return [cls[0] for cls in classes], exact

        def derive():
            if ("classes", bound) in self._derived:
                return first_members()
            return self.rel.representatives(bound) or first_members()

        return self._cached("representatives", bound, derive)

    def carrier_tokens(self, bound=None):
        ts = self.carrier.tokens(bound)
        return list(ts.tokens), ts.exact

    def class_of(self, x, bound=None):
        """x and the members of the enumerated class related to it."""
        classes, _ = self.classes(bound)
        cls = next((c for c in classes if self.related(c[0], x) is True), [])
        return cls if x in cls else [x] + cls

    def class_count(self, bound=None):
        reps, exact = self.representatives(bound)
        return len(reps), exact


def finite_per(carrier: Basis, related_token_pairs, flags=None) -> DomainPer:
    pairs = set()
    for (a, b) in related_token_pairs:
        pairs.add((a, b))
        pairs.add((b, a))
    # transitive closure so callers may list generators only; no elements,
    # so no reflexive pairs are added
    pairs = transitive_reflexive_closure((), pairs)
    return DomainPer(carrier, FiniteRel(carrier, pairs), flags)


def trivial_per() -> DomainPer:
    d0 = one_point_basis("D0")
    return DomainPer(
        d0,
        FiniteRel(d0, frozenset()),
        replace(ALL_YES, dense=False, admissible_pedigree=None),
    )


# ---------------------------------------------------------------------------
# per constructors


def _fun_flags(exp: PerFlags, body: PerFlags) -> PerFlags:
    convex = body.convex
    local = both(exp.dense, body.convex, body.local, body.complete)
    complete = local
    return PerFlags(
        weakly_convex=convex,
        convex=convex,
        local=local,
        strongly_local=both(local, complete),
        complete=complete,
        upwards_closed=body.upwards_closed,
        dense=None,  # function spaces do not preserve density
        admissible_pedigree=both(
            exp.dense, exp.admissible_pedigree, body.admissible_pedigree
        ),
        countably_based=both(exp.countably_based, body.countably_based),
    )


def per_construct(kind: str, D: DomainPer, E: DomainPer) -> DomainPer:
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
        rel = FunRel(carrier, D, E)
        flags = _fun_flags(D.flags, E.flags)
    else:
        raise ValueError(f"unknown per constructor {kind!r}")
    return DomainPer(carrier, rel, flags)


# ---------------------------------------------------------------------------
# property checks


def check_property(P: DomainPer, prop: str, bound: Optional[int] = None) -> Verdict:
    toks, exact_toks = P.carrier_tokens(bound)
    B = P.carrier

    if prop in ("weakly_convex", "convex"):
        def convex():
            for a in toks:
                for b in toks:
                    r = P.related(a, b)
                    if r is None:
                        yield None, None
                    elif r and B.leq(a, b):
                        # on finite carriers every element is compact, so the
                        # weak and strong forms quantify over the same joins
                        for z in (p for p in toks if B.leq(p, b)):
                            yield P.related(a, B.lub((a, z))), (a, b, z)

        return conjoin(convex(), bound, exact_toks)

    if prop in ("local", "strongly_local", "complete"):
        classes, exact = P.classes(bound)

        def per_class():
            for cls in classes:
                x = cls[0]
                if prop == "strongly_local":
                    for a in cls:
                        for b in cls:
                            bounded = any(B.leq(a, c) and B.leq(b, c) for c in cls)
                            yield bounded, (x, a, b)
                else:
                    yield B.cons(cls), (x, cls)
                if prop == "complete":
                    sup = B.lub(cls)
                    yield P.related(x, sup), (x, sup)

        return conjoin(per_class(), bound, exact_toks and exact)

    if prop == "upwards_closed":
        ts, exact = P.totals(bound)
        cases = ((P.related(x, y), (x, y)) for x in ts for y in toks if B.leq(x, y))
        return conjoin(cases, bound, exact_toks and exact)

    if prop == "dense":
        # a token with no total above it refutes density, listed or not
        _, exact = P.totals(bound)
        cases = ((has_total_extension(P, p, bound).holds, p) for p in toks)
        return conjoin(cases, bound, exact and exact_toks)

    raise ValueError(f"unknown property {prop!r}")


def has_total_extension(P: DomainPer, p: Token, bound=None) -> Verdict:
    """Search for a total above p, the witness when found; False only on
    exhaustively enumerable pers."""
    if not P.carrier.has_token(p):
        raise UnknownToken(f"{p!r} not in carrier {P.carrier.name}", witness=p)
    ts, exact = P.totals(bound)
    t = next((t for t in ts if P.carrier.leq(p, t)), None)
    if t is not None:
        return Verdict(True, t, bound)
    return Verdict(False if exact else None, None, bound)


def prec_check(P: DomainPer, p: Token, x, bound=None) -> bool:
    """p approximates the class of x: some y ~ x lies above p."""
    if P.related(x, x) is not True:
        raise NotTotal(f"{x.pretty} is not total", witness=x)
    return any(P.carrier.leq(p, y) for y in P.class_of(x, bound))


# ---------------------------------------------------------------------------
# equivariant maps: a map between pers is a function passed with its pers


def is_equivariant(f, D: DomainPer, E: DomainPer, bound=None) -> Verdict:
    """Related pairs must map to related pairs, decided on D's classes
    (module docstring): f(c0) ~ f(x) for each member x of each class, c0
    its first member; a failure's witness is (c0, x)."""
    classes, exact = D.classes(bound)
    cases = ((E.related(f(cls[0]), f(x)), (cls[0], x)) for cls in classes for x in cls)
    return conjoin(cases, bound, exact)


# ---------------------------------------------------------------------------
# equiembeddings


def is_equiembedding(
    emb: Embedding, source: DomainPer, target: DomainPer, bound=None
) -> Verdict:
    """The per clauses of the ep-pair `emb` from `source` to `target` in
    turn, equivariance and reflection (x ~ proj y for every source total x
    and y ~ f x); the ep-pair is decided where built.

    Reflection is read on the source representatives (module docstring).
    Each call decides anew; a chain decides each of its links once, where
    it is built."""

    def cases():
        v = is_equivariant(emb.fwd, source, target, bound)
        yield v.holds, ("equivariance", v.witness)
        reps, exact = source.representatives(bound)
        tgt_toks, tgt_exact = target.carrier_tokens(bound)
        yield (exact and tgt_exact) or None, None
        for x in reps:
            fx = emb.fwd(x)
            for y in tgt_toks:
                r = target.related(fx, y)
                if r is None:
                    yield None, None
                elif r:
                    yield source.related(x, emb.proj(y)), ("reflection", (x, y))

    return _named_clause(conjoin(cases(), bound))


def _named_clause(v: Verdict) -> Verdict:
    """A conjoined verdict whose cases name their clause, each witness a
    `(clause, witness)` pair: a failure's clause split from its witness."""
    if v.holds is not False:
        return v
    clause, witness = v.witness
    return Verdict(False, witness, v.bound, clause)


# ---------------------------------------------------------------------------
# images and weak isomorphisms


def image_per(phi, source: DomainPer, target: DomainPer) -> DomainPer:
    """The image of `source` under `phi` on `target`'s carrier."""
    return DomainPer(
        target.carrier,
        ImageRel(target, source, phi),
        PerFlags(countably_based=target.flags.countably_based),
    )


def weak_iso_check(phi, chi, D: DomainPer, E: DomainPer, bound=None) -> Verdict:
    """phi from D to E and chi back both equivariant, and each round trip
    related to where it started, read on the source representatives (module
    docstring); the clause names the part that failed."""

    def cases():
        for (f, src, tgt) in ((phi, D, E), (chi, E, D)):
            v = is_equivariant(f, src, tgt, bound)
            yield v.holds, ("equivariance", v.witness)
        for (f, g, src) in ((phi, chi, D), (chi, phi, E)):
            reps, exact = src.representatives(bound)
            yield exact or None, None
            for x in reps:
                yield src.related(g(f(x)), x), ("round-trip", x)

    return _named_clause(conjoin(cases(), bound))


# ---------------------------------------------------------------------------
# per limits


class PerLimit:
    def __init__(self, per: DomainPer, limit: LimitBasis, stage_pers: List[DomainPer]):
        self.per = per
        self.limit = limit
        self.stage_pers = stage_pers

    def rank_of(self, v) -> int:
        """Least stage whose totals contain v."""
        c, inner = self.limit.decompose(v)
        for i in range(c, self.limit.max_stage() + 1):
            lifted = self.limit.lift_token(c, inner, i)
            if self.stage_pers[i].related(lifted, lifted) is True:
                return i
        raise NotTotal(f"{v.pretty} is total at no built stage", witness=v)


def limit_per(
    stages: Sequence[ChainStage], stage_pers: Sequence[DomainPer]
) -> PerLimit:
    """Inductive limit of a chain of equiembeddings: the domain chain
    `stages` with one per on each stage.  The links are taken as decided:
    the caller decides each one (`per_chain_extend` does, as it builds the
    chain, by a scan or by functoriality), and the limit only checks that
    the chain fits."""
    if len(stage_pers) != len(stages):
        raise IncoherentChain("need one per for each stage of the chain")
    limit = LimitBasis(list(stages))
    flags = replace(
        pointwise_flags(p.flags for p in stage_pers),
        strongly_local=None,
        dense=None,
        admissible_pedigree=None,
    )
    per = DomainPer(limit, LimitRel(limit, stage_pers), flags)
    return PerLimit(per, limit, list(stage_pers))


def uniform_limit_map(
    phi_family: Sequence[Callable[[Token], Token]], src: PerLimit, tgt: PerLimit
) -> Callable[[Token], Token]:
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
        i, inner = src.limit.decompose(v)
        return tgt.limit.canonical(i, phi_family[i](inner))

    return apply

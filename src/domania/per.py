"""Domain-pers: carriers with decidable partial equivalence relations, per
constructors, property checkers, equiembeddings, images, weak
isomorphisms, and per limits with witnesses.

Values are tokens of the carrier: a relation splits, pairs, injects and
applies them with its carrier's own operations.

Relation verdicts are tri-state (True / False / None for unknown): deciders
over staged carriers never guess beyond their bound.

Relation protocol. A relation decider has these methods, the first five
taking an optional enumeration bound:

- `related(a, b, bound)` gives the tri-state verdict for two values;
- `totals(bound)` gives `(values, exact)`, the self-related values and
  whether the list is complete;
- `related_pairs(bound)` gives `(pairs, exact)`; `StructuralRel` derives it
  from the other two, since a related pair is a pair of totals;
- `classes(bound)` gives `(classes, exact)`, the totals grouped into per
  classes;
- `class_count(bound)` gives `(n, exact)`, the number of classes and whether
  the totals behind it are complete;
- `probe_points(*step_sets)` gives, for the relation as an exponent, finitely
  many values that decide the function relation between those step sets
  exactly, or None (the `StructuralRel` default); `FunRel` then scans the
  exponent's related pairs.

Per classes are enumerated one way, by `StructuralRel.classes`: it groups
the totals with `group_classes`, where a value joins the first class whose
first member is related to it, or opens a new class. `MemoRel` keeps the
classes per bound, and every site that needs classes, the class of a value
or one value per class (the first member of each) reads them there through
`DomainPer.classes`.

Per classes are counted by the quotient rule where it applies: the quotient
of a sum, product or function-space per is the sum, product or exponential
of the quotients. `SumRel` adds its parts' counts, `ProdRel` multiplies them,
and `FunRel` counts the tuples of body classes, one per exponent class, that
some monotone map realises. `FunRel` falls back to counting its classes over
a staged body or an infinite exponent, and when the exponent's related pairs
are not exhaustive, as then no map is total. An unknown verdict needs no
fallback: True verdicts are symmetric and transitive and totals are
self-related, so an unknown verdict separates two classes, in the quotient
as in the totals. Every other relation counts its classes, the slow
reference each rule is checked against. A `MemoRel` that already holds the
classes for a bound counts them instead of asking its decider.

Equivariance is decided on classes where it can be. By the same invariant,
every related pair of a per lies inside one of its classes, so a map that
sends every member of each class to a value related to the image of the
class's first member sends every related pair to a related pair.
`is_equivariant` returns True on that certificate when the classes are
exact, and otherwise runs the pairwise scan over `related_pairs`, the slow
reference and the only source of a False or unknown verdict and its witness.

Reflection is decided on classes the same way. Once equivariance is True,
each member x of a source class has f x ~ f x0, x0 its first member, so
f x ~ y exactly when f x0 ~ y, and x0 ~ proj y then gives x ~ proj y. So
when every verdict on f x0 is decided and each y ~ f x0 has x0 ~ proj y,
the scan over all source totals would find nothing: `is_equiembedding`
returns True on that certificate, unknown only where the source totals or
the target carrier are not exhaustive. Otherwise the pairwise scan, the
reference, decides, and it alone gives a reflection failure and its witness.
A chain link is decided once, where the chain is built
(`perlfp.per_chain_extend`). Link 1 goes through `is_equiembedding`. Link
n+1 is the equation applied to link n, and strictly positive operations send
equiembeddings to equiembeddings when every exponent per is dense, so it is
True and exact with no scan when link n was decided True exactly and every
exponent per is flagged dense; otherwise `is_equiembedding` decides it too.
`limit_per` takes its links as decided.

Flag rules. Sums, products and limits take each flag pointwise
(`pointwise_flags`: yes when every part says yes, no when one says no); a
limit then drops `strongly_local`, `dense` and `admissible_pedigree` to
unknown. Function spaces have their own rule (`_fun_flags`). Everything else
changes named fields of an existing flag set with `dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from typing import List, Optional, Sequence, Tuple

# `tok` is unused here but stays importable as `domania.per.tok`:
# perfbench/selftest.py checks that its tracer rebinds that name
from .basis import Basis, FlatNatBasis, Token, one_point_basis, tok  # noqa: F401
from .basis import transitive_reflexive_closure
from .construct import (
    Embedding,
    FunBasis,
    MultiSumBasis,
    ProdBasis,
    fun_basis,
    prod_basis,
    sum_basis,
    verify_embedding,
)
from .errors import (
    CarrierMismatch,
    IncoherentChain,
    NotAnEmbedding,
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


class StructuralRel:
    def related(self, a, b, bound=None):
        raise NotImplementedError

    def totals(self, bound=None):
        raise NotImplementedError

    def probe_points(self, *step_sets):
        # no finite probe set: a function relation scans the related pairs
        return None

    def classes(self, bound=None):
        ts, exact = self.totals(bound)
        return group_classes(ts, lambda a, b: self.related(a, b, bound)), exact

    def class_count(self, bound=None):
        # the slow reference every quotient rule is checked against
        classes, exact = self.classes(bound)
        return len(classes), exact

    def related_pairs(self, bound=None):
        ts, exact = self.totals(bound)
        out = []
        for a in ts:
            for b in ts:
                if self.related(a, b, bound):
                    out.append((a, b))
        return out, exact


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
        self._pair_cache = None

    def related(self, a, b, bound=None):
        return (a.key, b.key) in self.pairs

    def totals(self, bound=None):
        ts = [t for t in self.carrier.tokens().tokens if (t.key, t.key) in self.pairs]
        return ts, True

    def related_pairs(self, bound=None):
        if self._pair_cache is None:
            toks = {t.key: t for t in self.carrier.tokens().tokens}
            self._pair_cache = [
                (toks[a], toks[b]) for (a, b) in sorted(self.pairs, key=str)
            ]
        return self._pair_cache, True


class SumRel(StructuralRel):
    def __init__(self, basis: MultiSumBasis, part_pers):
        self.basis = basis
        self.parts = list(part_pers)

    def related(self, a, b, bound=None):
        sa = self.basis.split(a)
        sb = self.basis.split(b)
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
            out.extend(self.basis.inject(i, t) for t in ts)
        return out, exact

    def class_count(self, bound=None):
        counts = [per.class_count(bound) for per in self.parts]
        return sum(n for (n, _) in counts), all(ex for (_, ex) in counts)


class ProdRel(StructuralRel):
    def __init__(self, basis: ProdBasis, left, right):
        self.basis = basis
        self.left, self.right = left, right

    def related(self, a, b, bound=None):
        ax, ay = self.basis.split(a)
        bx, by = self.basis.split(b)
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
        return [self.basis.pair(x, y) for x in ls for y in rs], lex and rex

    def class_count(self, bound=None):
        (ln, lex), (rn, rex) = self.left.class_count(bound), self.right.class_count(bound)
        return ln * rn, lex and rex


class NatIdentityRel(StructuralRel):
    """Equality on defined naturals over the flat-naturals carrier."""

    def __init__(self, basis: FlatNatBasis, nat_bound=8):
        self.basis = basis
        self.nat_bound = nat_bound

    def related(self, a, b, bound=None):
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

    def related(self, f, g, bound=None):
        steps = (self.basis.pairs(f), self.basis.pairs(g))
        probes = self.exp_per.rel.probe_points(*steps)
        if probes is None:
            pairs, exact = self.exp_per.related_pairs(bound)
        else:
            pairs, exact = [(x, x) for x in probes], True
        unknown = not exact
        for (x, y) in pairs:
            r = self.body_per.related(
                self.basis.apply(f, x), self.basis.apply(g, y), bound
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
        body = self.body_per.carrier
        body_totals, bt_exact = self.body_per.totals(bound)
        if body.finite:
            vals, vex = self.body_per.carrier_tokens(None)
        else:
            # staged body: one value per class plus approximations; the
            # fragment is a sample and is flagged as such via exact=False
            body_totals = [cls[0] for cls in self.body_per.classes(bound)[0]]
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
        exp_total_keys = {t.key for t in exp_totals}
        # distinct monotone maps have distinct canonical step sets
        out = []
        self.basis.monotone_maps(
            lambda p: body_totals if p.key in exp_total_keys else vals,
            lambda a: out.append(self.basis.from_function(lambda p: a[p])),
        )
        out = [t for t in out if self.related(t, t, bound) is True]
        # over inexact exponent pairs no f ~ f is True, so the list says nothing
        return out, vex and bt_exact and self.exp_per.related_pairs(bound)[1]

    def class_count(self, bound=None):
        """Quotient rule: f ~ g iff f x ~ g y for every related pair, so a
        class is a tuple of body classes, one per exponent class, that some
        monotone map realises; the fallbacks are in the module docstring."""
        if not (
            self.basis.exponent.finite
            and self.body_per.carrier.finite
            and self.exp_per.related_pairs(bound)[1]
        ):
            return super().class_count(bound)
        exp_classes, _ = self.exp_per.classes(bound)
        body_classes, body_exact = self.body_per.classes(bound)
        class_index = {t.key: i for i, cls in enumerate(exp_classes) for t in cls}
        vals, vex = self.body_per.carrier_tokens(None)
        count = 0
        for choice in product(body_classes, repeat=len(exp_classes)):
            # total points take a member of their chosen body class, other
            # points any value; the first realisation settles the tuple
            if self.basis.monotone_maps(
                lambda p: choice[class_index[p.key]] if p.key in class_index else vals,
                lambda a: True,
            ):
                count += 1
        return count, vex and body_exact


class LimitRel(StructuralRel):
    """Relation on stage-tagged limit tokens: witness at the presentation
    stage, which is sound because the chain links are equiembeddings."""

    def __init__(self, limit: LimitBasis, stage_pers):
        self.limit = limit
        self.stage_pers = list(stage_pers)

    def related(self, a, b, bound=None):
        pt, qt, k = self.limit.at_common_stage(a, b)
        return self.stage_pers[k].related(pt, qt, bound)

    def totals(self, bound=None):
        b = self.limit.max_stage() if bound is None else min(bound, self.limit.max_stage())
        out, seen = [], set()
        for n in range(b + 1):
            ts, _ = self.stage_pers[n].totals(bound)
            for c in self.limit.tags(n, ts):
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
        # x ~ x iff x ~ phi(u) for some source total u: the target totals
        # related to some image
        us, exact = self.source_per.totals(bound)
        images = [self.phi(u) for u in us]
        ts, t_exact = self.target_per.totals(bound)
        out = [
            t
            for t in ts
            if any(self.target_per.related(t, fu, bound) is True for fu in images)
        ]
        return out, exact and t_exact


class MemoRel(StructuralRel):
    """Transparent memoisation shell around a structural decider: verdicts
    are cached per value pair and bound, totals, classes and class counts per
    bound.  Classes group the cached totals with the cached verdicts."""

    def __init__(self, inner):
        self.inner = inner
        self._memo = {}
        self._totals_cache = {}
        self._classes_cache = {}
        self._count_cache = {}

    def related(self, a, b, bound=None):
        k = (a.key, b.key, bound)
        if k not in self._memo:
            self._memo[k] = self.inner.related(a, b, bound)
        return self._memo[k]

    def totals(self, bound=None):
        if bound not in self._totals_cache:
            self._totals_cache[bound] = self.inner.totals(bound)
        return self._totals_cache[bound]

    def classes(self, bound=None):
        if bound not in self._classes_cache:
            self._classes_cache[bound] = super().classes(bound)
        return self._classes_cache[bound]

    def class_count(self, bound=None):
        if bound in self._classes_cache:
            classes, exact = self._classes_cache[bound]
            return len(classes), exact
        if bound not in self._count_cache:
            self._count_cache[bound] = self.inner.class_count(bound)
        return self._count_cache[bound]


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
        """x and the members of the enumerated class related to it."""
        classes, _ = self.classes(bound)
        cls = next((c for c in classes if self.related(c[0], x, bound) is True), [])
        return cls if x in cls else [x] + cls

    def class_count(self, bound=None):
        return self.rel.class_count(bound)

    def classes(self, bound=None):
        return self.rel.classes(bound)

    def describe(self):
        return {"carrier": self.carrier.name, "flags": asdict(self.flags)}


def finite_per(carrier: Basis, related_token_pairs, flags=None, name="") -> DomainPer:
    pairs = set()
    for (a, b) in related_token_pairs:
        pairs.add((a.key, b.key))
        pairs.add((b.key, a.key))
    # transitive closure so callers may list generators only; no elements,
    # so no reflexive pairs are added
    pairs = transitive_reflexive_closure((), pairs)
    return DomainPer(carrier, FiniteRel(carrier, pairs), flags or PerFlags(), name=name)


def trivial_per() -> DomainPer:
    d0 = one_point_basis("D0")
    return DomainPer(
        d0,
        FiniteRel(d0, frozenset()),
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


def check_property(P: DomainPer, prop: str, bound: Optional[int] = None) -> Verdict:
    toks, exact_toks = P.carrier_tokens(bound)
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
        classes, exact = P.classes(bound)
        unknown = unknown or not exact
        for cls in classes:
            x = cls[0]
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
        unknown = unknown or not exact
        for p in toks:
            ext = next((t for t in ts if B.leq(p, t)), None)
            if ext is None:
                if exact and exact_toks:
                    return Verdict("fails", p, bound)
                return Verdict("unknown", p, bound)
        return Verdict("unknown" if unknown else "holds", None, bound)

    raise ValueError(f"unknown property {prop!r}")


def prec_check(P: DomainPer, p: Token, x, bound=None) -> bool:
    """p approximates the class of x: some y ~ x lies above p."""
    if P.is_total(x, bound) is not True:
        raise NotTotal(f"{x.pretty} is not total", witness=x)
    return any(P.carrier.leq(p, y) for y in P.class_of(x, bound))


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


def is_equivariant(f, D: DomainPer, E: DomainPer, bound=None):
    """Tri-state: related pairs must map to related pairs.

    True on the class certificate (module docstring) when D's classes are
    exact and each member x of a class has f(first member) ~ f(x) True;
    otherwise the pairwise scan over D's related pairs, the reference, gives
    the verdict and any witness."""
    classes, exact = D.classes(bound)
    if exact and all(
        E.related(f(cls[0]), f(x), bound) is True for cls in classes for x in cls
    ):
        return True, None
    pairs, exact = D.related_pairs(bound)
    unknown = not exact
    for (x, y) in pairs:
        r = E.related(f(x), f(y), bound)
        if r is False:
            return False, (x, y)
        if r is None:
            unknown = True
    return (None if unknown else True), None


def equi_injective(f, D: DomainPer, E: DomainPer, bound=None):
    """Reflection of relatedness, checked over enumerated totals."""
    ts, exact = D.totals(bound)
    unknown = not exact
    for x in ts:
        for y in ts:
            r = E.related(f(x), f(y), bound)
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


@dataclass(frozen=True)
class EmbeddingVerdict:
    ok: bool
    clause: str = ""
    witness: object = None
    unknown: bool = False


def is_equiembedding(pe: PerEmbedding, bound=None) -> EmbeddingVerdict:
    """The three clauses in turn: embedding laws, equivariance, reflection
    (x ~ proj y for every source total x and target value y ~ f x).

    Reflection is True on the class certificate (module docstring) when
    equivariance is True; otherwise the pairwise scan over source totals and
    target values, the reference, gives the verdict and any witness.  Each
    call decides anew; a chain decides each of its links once, where it is
    built."""
    try:
        verify_embedding(pe.emb, bound)
    except NotAnEmbedding as e:
        return EmbeddingVerdict(False, "embedding", e.witness)

    ok, w = is_equivariant(pe.emb.fwd, pe.source, pe.target, bound)
    if ok is False:
        return EmbeddingVerdict(False, "equivariance", w)

    ts, exact = pe.source.totals(bound)
    tgt_toks, tgt_exact = pe.target.carrier_tokens(bound)
    unknown = ok is None or not exact or not tgt_exact
    if ok is True and _reflects_on_classes(pe, tgt_toks, bound):
        return EmbeddingVerdict(True, "", None, unknown)
    for x in ts:
        fx = pe.emb.fwd(x)
        for y in tgt_toks:
            r = pe.target.related(fx, y, bound)
            if r is True:
                back = pe.source.related(x, pe.emb.proj(y), bound)
                if back is False:
                    return EmbeddingVerdict(False, "reflection", (x, y))
                if back is None:
                    unknown = True
            elif r is None:
                unknown = True
    return EmbeddingVerdict(True, "", None, unknown)


def _reflects_on_classes(pe: PerEmbedding, tgt_toks, bound) -> bool:
    """The reflection certificate: for the first member x0 of each source
    class, every target verdict on f x0 is decided and each y ~ f x0 has
    x0 ~ proj y True."""
    classes, _ = pe.source.classes(bound)
    for cls in classes:
        x0 = cls[0]
        fx0 = pe.emb.fwd(x0)
        for y in tgt_toks:
            r = pe.target.related(fx0, y, bound)
            if r is None:
                return False
            if r is True and pe.source.related(x0, pe.emb.proj(y), bound) is not True:
                return False
    return True


# ---------------------------------------------------------------------------
# images and weak isomorphisms


def image_per(phi: PerMap) -> DomainPer:
    carrier = phi.target.carrier
    rel = MemoRel(ImageRel(phi.target, phi.source, phi))
    return DomainPer(
        carrier,
        rel,
        PerFlags(countably_based=phi.target.flags.countably_based),
        trace=(f"image({phi.name})",),
        name=f"{phi.name}[{phi.source.name}]",
    )


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
        c, inner = self.limit.decompose(v)
        for i in range(c, self.limit.max_stage() + 1):
            lifted = self.limit.lift_token(c, inner, i)
            if self.stage_pers[i].related(lifted, lifted) is True:
                return i
        raise NotTotal(f"{v.pretty} is total at no built stage", witness=v)


def limit_per(
    stage_pers: Sequence[DomainPer], embeddings: Sequence[PerEmbedding]
) -> PerLimit:
    """Inductive limit of a chain of equiembeddings.  The links are taken as
    decided: the caller decides each one (`per_chain_extend` does, as it
    builds the chain, by a scan or by functoriality), and the limit only
    checks that the chain fits."""
    if len(embeddings) != len(stage_pers) - 1:
        raise IncoherentChain("need one embedding per consecutive stage pair")
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

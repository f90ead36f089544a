"""Finite T0 spaces with pseudobases, their standard representations as
domain-pers, operation ASTs on spaces, the fixed-point pipeline, and
transfer of weak equivalences between representing equations."""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .basis import FiniteBasis, Token, tok
from .dense import DenseLfp, dense_lfp
from .errors import BadParameterPedigree, NotT0, NotWeaklyEquivalent
from .ordinals import fin
from .per import (
    ALL_YES,
    YES,
    DomainPer,
    FiniteRel,
    PerMap,
    check_property,
    per_construct,
    weak_iso_check,
)
from .perlfp import per_chain_extend
from .spfunctor import ConstD, Exp, FunctorExpr, Id, Prod, Sum, carrier_table


# ---------------------------------------------------------------------------
# finite spaces


@dataclass(frozen=True)
class FiniteSpace:
    name: str
    points: Tuple[str, ...]
    opens: frozenset  # of frozensets of points

    def validate(self):
        pts = frozenset(self.points)
        if frozenset() not in self.opens or pts not in self.opens:
            return False, "missing empty set or whole space"
        for u in self.opens:
            for v in self.opens:
                if u | v not in self.opens:
                    return False, ("not closed under union", u, v)
                if u & v not in self.opens:
                    return False, ("not closed under intersection", u, v)
        return True, None

    def is_t0(self):
        for x, y in itertools.combinations(self.points, 2):
            if all((x in u) == (y in u) for u in self.opens):
                return False, (x, y)
        return True, None


def mk_space(name, points, opens) -> FiniteSpace:
    space = FiniteSpace(
        name, tuple(str(p) for p in points),
        frozenset(frozenset(str(p) for p in u) for u in opens),
    )
    ok, why = space.validate()
    if not ok:
        raise ValueError(f"not a topology on {name}: {why}")
    return space


def sierpinski_space() -> FiniteSpace:
    return mk_space("sierpinski", ["bot", "top"], [[], ["top"], ["bot", "top"]])


def discrete_space(labels) -> FiniteSpace:
    labels = [str(x) for x in labels]
    opens = []
    for r in range(len(labels) + 1):
        for combo in itertools.combinations(labels, r):
            opens.append(list(combo))
    return mk_space(f"discrete({','.join(labels)})", labels, opens)


# ---------------------------------------------------------------------------
# pseudobases


@dataclass
class PseudobaseVerdict:
    ok: bool
    clause: str = ""
    witness: object = None


def min_open(X: FiniteSpace, x: str) -> frozenset:
    out = frozenset(X.points)
    for u in X.opens:
        if x in u:
            out = out & u
    return out


def validate_pseudobase(X: FiniteSpace, sets: Sequence[frozenset]) -> PseudobaseVerdict:
    """Nonempty sets containing the space, intersection-closed, and
    witnessing convergence inside every open. On a finite space a sequence
    converges to x exactly when its tail stays inside the minimal open
    around x, and the tail can sweep all of it, so the clause reduces to:
    for every x and open U around x there is a member B with
    min_open(x) <= B <= U."""
    fam = [frozenset(s) for s in sets]
    pts = frozenset(X.points)
    if any(not s for s in fam):
        return PseudobaseVerdict(False, "empty member", next(s for s in fam if not s))
    if pts not in fam:
        return PseudobaseVerdict(False, "missing whole space", pts)
    for a in fam:
        for b in fam:
            if a & b and a & b not in fam:
                return PseudobaseVerdict(False, "intersection missing", (a, b))
    for x in X.points:
        base = min_open(X, x)
        for u in X.opens:
            if x not in u:
                continue
            if not any(base <= b and b <= u for b in fam):
                return PseudobaseVerdict(False, "convergence", (x, u))
    return PseudobaseVerdict(True)


def enumerate_ideals(fam: Sequence[frozenset]) -> List[frozenset]:
    """All ideals of (P, superset-order): nonempty down-closed directed
    subsets, enumerated exhaustively (the oracle substrate)."""
    fam = list(fam)
    ideals = []
    for r in range(1, len(fam) + 1):
        for combo in itertools.combinations(range(len(fam)), r):
            sub = [fam[i] for i in combo]
            # down-closed: supersets of members are members
            down = all(b in sub for s in sub for b in fam if b >= s)
            # directed: pairs have an upper bound inside (a common subset)
            directed = all(
                any(c <= a & b for c in sub) for a in sub for b in sub
            )
            if down and directed:
                ideals.append(frozenset(sub))
    return ideals


# ---------------------------------------------------------------------------
# standard representations


@dataclass
class StandardRep:
    per: DomainPer
    space: FiniteSpace
    sets: List[frozenset]
    decode: Dict[object, Optional[str]]  # token key -> point or None

    def greatest_representative(self, x: str) -> Token:
        inter = frozenset(self.space.points)
        for b in self.sets:
            if x in b:
                inter = inter & b
        return _set_token(inter)


def _set_token(s) -> Token:
    return tok(("pb", tuple(sorted(s))))


def standard_representation(X: FiniteSpace, sets: Sequence[frozenset]) -> StandardRep:
    ok, witness = X.is_t0()
    if not ok:
        raise NotT0(f"points {witness} are topologically indistinguishable",
                    witness=witness)
    v = validate_pseudobase(X, sets)
    if not v.ok:
        raise ValueError(f"not a pseudobase: {v.clause}")
    fam = [frozenset(s) for s in dict.fromkeys(frozenset(s) for s in sets)]

    toks = {frozenset(s): _set_token(s) for s in fam}
    leq_pairs = [
        (toks[a], toks[b]) for a in fam for b in fam if a >= b
    ]
    basis = FiniteBasis(f"rep({X.name})", list(toks.values()), leq_pairs)

    decode: Dict[object, Optional[str]] = {}
    for b in fam:
        hits = []
        for x in X.points:
            if x not in b:
                continue
            # every open around x must contain a superset-member of the
            # principal ideal of b that sits inside it
            if all(
                any(c >= b and x in c and c <= u for c in fam)
                for u in X.opens
                if x in u
            ):
                hits.append(x)
        decode[toks[b].key] = hits[0] if len(hits) == 1 else None
        if len(hits) > 1:
            raise NotT0("two points share a representative", witness=hits)

    pairs = set()
    for a in fam:
        for b in fam:
            xa, xb = decode[toks[a].key], decode[toks[b].key]
            if xa is not None and xa == xb:
                pairs.add((toks[a].key, toks[b].key))
    per = DomainPer(
        basis,
        FiniteRel(basis, pairs),
        ALL_YES,
        trace=(f"standard representation of {X.name}",),
        name=f"rep({X.name})",
    )
    rep = StandardRep(per, X, fam, decode)
    # flags must be earned, not assumed
    for prop in ("convex", "local", "complete", "dense"):
        assert check_property(per, prop).holds, prop
    return rep


def recovered_pseudobase(rep: StandardRep) -> List[frozenset]:
    """Images of the up-sets of compacts through the decoding map."""
    out = []
    ts, _ = rep.per.totals()
    for p in rep.per.carrier.tokens().tokens:
        image = frozenset(
            rep.decode[t.key]
            for t in ts
            if rep.per.carrier.leq(p, t) and rep.decode[t.key] is not None
        )
        if image:
            out.append(image)
    seen = set()
    uniq = []
    for s in out:
        if s not in seen:
            seen.add(s)
            uniq.append(s)
    return uniq


def class_topology(per: DomainPer, bound=None):
    """Quotient topology on the classes: a set of classes is open when the
    union is upward closed inside the totals."""
    classes, _ = per.classes(bound)
    totals = [t for cls in classes for t in cls]
    opens = []
    for r in range(len(classes) + 1):
        for combo in itertools.combinations(range(len(classes)), r):
            union = [t for i in combo for t in classes[i]]
            up_closed = all(
                (u in union) or not per.carrier.leq(t, u)
                for t in union
                for u in totals
            )
            if up_closed:
                opens.append(frozenset(combo))
    return classes, frozenset(opens)


def quotient_matches_space(rep: StandardRep) -> bool:
    """The class topology computed from the representation equals the
    represented topology point for point."""
    classes, opens = class_topology(rep.per)
    point_of = {}
    for i, cls in enumerate(classes):
        point_of[i] = rep.decode[cls[0].key]
    if sorted(point_of.values()) != sorted(rep.space.points):
        return False
    expected = frozenset(
        frozenset(i for i in point_of if point_of[i] in u) for u in rep.space.opens
    )
    return expected == opens


# ---------------------------------------------------------------------------
# operations on spaces


class QcbOpExpr:
    pass


@dataclass(frozen=True)
class QId(QcbOpExpr):
    pass


@dataclass(frozen=True)
class QConst(QcbOpExpr):
    name: str


@dataclass(frozen=True)
class QUnion(QcbOpExpr):
    left: QcbOpExpr
    right: QcbOpExpr


@dataclass(frozen=True)
class QSeqProd(QcbOpExpr):
    left: QcbOpExpr
    right: QcbOpExpr


@dataclass(frozen=True)
class QSeqExp(QcbOpExpr):
    param: str
    body: QcbOpExpr


REQUIRED_FLAGS = ("countably_based", "dense", "admissible_pedigree",
                  "convex", "local", "complete")


def functorial_representation(
    gamma: QcbOpExpr, bindings: Dict[str, object]
) -> Tuple[FunctorExpr, Dict[str, DomainPer]]:
    """Syntactic translation of a space operation into a per equation, with
    parameters replaced by qualifying representations."""
    env: Dict[str, DomainPer] = {}

    def resolve(name: str) -> DomainPer:
        if name in env:
            return env[name]
        b = bindings[name]
        per = b.per if isinstance(b, StandardRep) else b
        for f in REQUIRED_FLAGS:
            if getattr(per.flags, f) != YES:
                raise BadParameterPedigree(
                    f"parameter {name!r} lacks flag {f}", witness=f
                )
        env[name] = per
        return per

    def walk(e: QcbOpExpr) -> FunctorExpr:
        if isinstance(e, QId):
            return Id()
        if isinstance(e, QConst):
            resolve(e.name)
            return ConstD(e.name)
        if isinstance(e, QUnion):
            return Sum(walk(e.left), walk(e.right))
        if isinstance(e, QSeqProd):
            return Prod(walk(e.left), walk(e.right))
        if isinstance(e, QSeqExp):
            resolve(e.param)
            return Exp(e.param, walk(e.body))
        raise TypeError(e)

    return walk(gamma), env


# ---------------------------------------------------------------------------
# representation coherence at one unrolling


def check_sum_coherence(D: DomainPer, E: DomainPer) -> bool:
    """Classes of the sum per are the tagged disjoint union of the classes."""
    s = per_construct("sum", D, E)
    cd, _ = D.classes()
    ce, _ = E.classes()
    cs, _ = s.classes()
    return len(cs) == len(cd) + len(ce)


def check_prod_coherence(D: DomainPer, E: DomainPer) -> bool:
    p = per_construct("prod", D, E)
    cd, _ = D.classes()
    ce, _ = E.classes()
    cp, _ = p.classes()
    return len(cp) == len(cd) * len(ce)


def continuous_maps(X: FiniteSpace, Y: FiniteSpace):
    """All continuous maps between finite spaces, checked directly against
    the open-set preimage condition."""
    out = []
    for values in itertools.product(Y.points, repeat=len(X.points)):
        f = dict(zip(X.points, values))
        if all(
            frozenset(x for x in X.points if f[x] in v) in X.opens
            for v in Y.opens
        ):
            out.append(f)
    return out


def check_fun_coherence(repD: StandardRep, repE: StandardRep) -> bool:
    """Classes of the function-space per biject with the continuous maps."""
    fper = per_construct("fun", repD.per, repE.per)
    classes, exact = fper.classes()
    maps = continuous_maps(repD.space, repE.space)
    if not exact or len(classes) != len(maps):
        return False
    # each class must induce a distinct continuous map on points
    induced = set()
    fb = fper.carrier
    for cls in classes:
        f = cls[0]
        graph = []
        for x in repD.space.points:
            rep_tok = repD.greatest_representative(x)
            val = fb.apply(f, rep_tok)
            graph.append((x, repE.decode[val.key]))
        induced.add(tuple(graph))
    return len(induced) == len(maps)


# ---------------------------------------------------------------------------
# the fixed-point pipeline


@dataclass
class QcbFixedPointReport:
    lfp: DenseLfp
    classes_by_rank: Dict[int, int]
    fixed_point_bijection: bool
    coherence: Dict[str, bool]
    pedigree: Dict[str, str]
    hausdorff: Optional[bool] = None


def qcb_fixed_point(
    gamma: QcbOpExpr, bindings: Dict[str, object], rank_bound: int = 3,
    n_finite: Optional[int] = None,
) -> QcbFixedPointReport:
    expr, env = functorial_representation(gamma, bindings)
    lfp = dense_lfp(expr, env, rank_bound=rank_bound,
                    n_finite=n_finite or max(3, rank_bound + 1))
    chain = lfp.chain

    classes, _ = lfp.per.classes(rank_bound)
    by_rank: Dict[int, int] = {}
    for cls in classes:
        r = chain.per_limit.rank_of(cls[0])
        by_rank[r] = by_rank.get(r, 0) + 1

    # fixed-point correspondence: classes transported through the unfolding
    unfolded = chain.unfolded[0]
    images = [chain.iso.fwd(cls[0]) for cls in classes]
    bijection = True
    for i, a in enumerate(images):
        if unfolded.related(a, a, rank_bound) is not True:
            bijection = False
        for j, b in enumerate(images):
            if (unfolded.related(a, b, rank_bound) is True) != (i == j):
                bijection = False

    coherence = {}
    reps = {k: v for (k, v) in bindings.items() if isinstance(v, StandardRep)}
    names = sorted(reps)
    for a in names:
        for b in names:
            coherence[f"sum({a},{b})"] = check_sum_coherence(
                reps[a].per, reps[b].per
            )
            coherence[f"prod({a},{b})"] = check_prod_coherence(
                reps[a].per, reps[b].per
            )
            coherence[f"fun({a},{b})"] = check_fun_coherence(reps[a], reps[b])
        coherence[f"quotient({a})"] = quotient_matches_space(reps[a])

    pedigree = asdict(lfp.per.flags)

    # the separation flag is derivable only when every positive parameter is
    # a finite space instance; it records the hypothesis checked by direct
    # open-set separation
    hausdorff: Optional[bool] = None
    pos = _positive_const_names(gamma)
    if pos and all(isinstance(bindings.get(n), StandardRep) for n in pos):
        hausdorff = all(_space_hausdorff(bindings[n].space) for n in pos)
    return QcbFixedPointReport(
        lfp, by_rank, bijection, coherence, pedigree, hausdorff
    )


def _space_hausdorff(space: FiniteSpace) -> bool:
    for x, y in itertools.combinations(space.points, 2):
        if not any(
            x in u and y in v and not (u & v)
            for u in space.opens
            for v in space.opens
        ):
            return False
    return True


def _positive_const_names(gamma) -> List[str]:
    if isinstance(gamma, QConst):
        return [gamma.name]
    if isinstance(gamma, (QUnion, QSeqProd)):
        return _positive_const_names(gamma.left) + _positive_const_names(gamma.right)
    if isinstance(gamma, QSeqExp):
        return _positive_const_names(gamma.body)
    return []


# ---------------------------------------------------------------------------
# weak-equivalence transfer and fixed-point independence


@dataclass
class IsoPair:
    fwd: PerMap
    back: PerMap
    fwd_tokens: Dict[object, Token]
    back_tokens: Dict[object, Token]


def token_iso_pair(A: DomainPer, B: DomainPer, mapping: Dict[str, str]) -> IsoPair:
    """A supplied weak isomorphism given by a token bijection."""
    fwd_tokens, back_tokens = {}, {}
    a_toks = {t.key: t for t in A.carrier.tokens().tokens}
    b_toks = {t.key: t for t in B.carrier.tokens().tokens}
    for (ka, kb) in mapping.items():
        fwd_tokens[ka] = b_toks[kb]
        back_tokens[kb] = a_toks[ka]
    if set(fwd_tokens) != set(a_toks) or set(back_tokens) != set(b_toks):
        raise NotWeaklyEquivalent("token mapping is not a bijection")
    for ka, kb in mapping.items():
        for ka2, kb2 in mapping.items():
            if A.carrier.leq(a_toks[ka], a_toks[ka2]) != B.carrier.leq(
                b_toks[kb], b_toks[kb2]
            ):
                raise NotWeaklyEquivalent(
                    "token mapping does not preserve order", witness=(ka, ka2)
                )
    fwd = PerMap(A, B, lambda t: fwd_tokens[t.key], name="iso")
    back = PerMap(B, A, lambda t: back_tokens[t.key], name="iso-back")
    return IsoPair(fwd, back, fwd_tokens, back_tokens)


def _shape_match(F: FunctorExpr, G: FunctorExpr) -> bool:
    if isinstance(F, Id) and isinstance(G, Id):
        return True
    if isinstance(F, ConstD) and isinstance(G, ConstD):
        return True
    if isinstance(F, Sum) and isinstance(G, Sum):
        return _shape_match(F.left, G.left) and _shape_match(F.right, G.right)
    if isinstance(F, Prod) and isinstance(G, Prod):
        return _shape_match(F.left, G.left) and _shape_match(F.right, G.right)
    if isinstance(F, Exp) and isinstance(G, Exp):
        return _shape_match(F.body, G.body)
    return False


class WeakEquivalence:
    """Structural transfer of equivariant maps between two equations of the
    same shape whose parameters are paired by supplied isomorphisms."""

    def __init__(self, F, env_f, G, env_g, pairs: Dict[Tuple[str, str], IsoPair]):
        if not _shape_match(F, G):
            raise NotWeaklyEquivalent("equations have different shapes")
        self.F, self.G = F, G
        self.env_f, self.env_g = env_f, env_g
        self.pairs = pairs

    def _pair_for(self, fname, gname) -> IsoPair:
        try:
            return self.pairs[(fname, gname)]
        except KeyError:
            raise NotWeaklyEquivalent(
                f"no isomorphism pair supplied for ({fname},{gname})"
            )

    def transfer(self, phi, F, G, carriers_f, carriers_g):
        """phi^{F,G} acting on tokens of F(D)-carrier into G(E)-carrier."""
        if isinstance(F, Id):
            return phi
        if isinstance(F, ConstD):
            pair = self._pair_for(F.name, G.name)
            return lambda t: pair.fwd(t)
        if isinstance(F, Sum):
            lf = self.transfer(phi, F.left, G.left, carriers_f, carriers_g)
            rf = self.transfer(phi, F.right, G.right, carriers_f, carriers_g)
            cf, cg = carriers_f[id(F)], carriers_g[id(G)]

            def act(t):
                spl = cf.split(t)
                if spl is None:
                    return cg.bottom
                i, x = spl
                return cg.inject(i, (lf, rf)[i](x))

            return act
        if isinstance(F, Prod):
            lf = self.transfer(phi, F.left, G.left, carriers_f, carriers_g)
            rf = self.transfer(phi, F.right, G.right, carriers_f, carriers_g)
            cf, cg = carriers_f[id(F)], carriers_g[id(G)]

            def act(t):
                x, y = cf.split(t)
                return cg.pair(lf(x), rf(y))

            return act
        if isinstance(F, Exp):
            body = self.transfer(phi, F.body, G.body, carriers_f, carriers_g)
            pair = self._pair_for(F.param, G.param)
            cf, cg = carriers_f[id(F)], carriers_g[id(G)]

            def act(t):
                moved = [
                    (pair.fwd(p), body(q)) for (p, q) in cf.pairs(t)
                ]
                return cg.make(moved)

            return act
        raise TypeError(F)


@dataclass
class IndependenceReport:
    stage_isos_ok: bool
    uniform: bool
    class_matching: Optional[List[Tuple[int, int]]]
    commutes: bool

    @property
    def ok(self):
        return (
            self.stage_isos_ok
            and self.uniform
            and self.class_matching is not None
            and self.commutes
        )


def fixed_point_independence(
    F, env_f, G, env_g, pairs: Dict[Tuple[str, str], IsoPair], rank_bound: int = 2,
    n_finite: int = 3,
) -> IndependenceReport:
    """Builds both chains, transfers the stage maps, and verifies the
    class-level matching between the two fixed points."""
    from .ordinals import omega_plus

    we = WeakEquivalence(F, env_f, G, env_g, pairs)
    chain_f = per_chain_extend(F, env_f, omega_plus(1), n_finite=n_finite)
    chain_g = per_chain_extend(G, env_g, omega_plus(1), n_finite=n_finite)

    back_pairs = {
        (gn, fn): IsoPair(p.back, p.fwd, p.back_tokens, p.fwd_tokens)
        for ((fn, gn), p) in pairs.items()
    }
    we_back = WeakEquivalence(G, env_g, F, env_f, back_pairs)

    domain_f = {k: v.carrier for (k, v) in env_f.items()}
    domain_g = {k: v.carrier for (k, v) in env_g.items()}
    phis = [lambda t: t]
    chis = [lambda t: t]
    for n in range(n_finite):
        # carriers are stage-indexed: the transferred map at stage n+1 acts
        # on tokens whose identity-position values live at stage n
        cf = carrier_table(F, chain_f.per_limit.limit.stages[n].basis, domain_f)
        cg = carrier_table(G, chain_g.per_limit.limit.stages[n].basis, domain_g)
        phis.append(we.transfer(phis[-1], F, G, cf, cg))
        chis.append(we_back.transfer(chis[-1], G, F, cg, cf))

    # uniformity: the families commute with the chain embeddings
    uniform = True
    for n in range(n_finite):
        f_emb = chain_f.per_limit.limit.stages[n + 1].embed_from_prev
        g_emb = chain_g.per_limit.limit.stages[n + 1].embed_from_prev
        for t in chain_f.per_limit.limit.stages[n].basis.tokens().tokens:
            if g_emb.fwd(phis[n](t)) != phis[n + 1](f_emb.fwd(t)):
                uniform = False

    stage_ok = True
    for n in range(1, n_finite + 1):
        per_f = chain_f.stages[n][1]
        per_g = chain_g.stages[n][1]
        ok, _ = weak_iso_check(
            PerMap(per_f, per_g, phis[n]), PerMap(per_g, per_f, chis[n])
        )
        if ok is not True:
            stage_ok = False

    # the limit maps act stage-wise on canonical tokens
    lim_f, lim_g = chain_f.per_limit.limit, chain_g.per_limit.limit

    def phi_omega(t):
        n, inner = lim_f.decompose(t)
        return lim_g.canonical(n, phis[n](inner))

    def chi_omega(t):
        n, inner = lim_g.decompose(t)
        return lim_f.canonical(n, chis[n](inner))

    ok, _ = weak_iso_check(
        PerMap(chain_f.per_limit.per, chain_g.per_limit.per, phi_omega),
        PerMap(chain_g.per_limit.per, chain_f.per_limit.per, chi_omega),
        rank_bound,
    )
    stage_ok = stage_ok and ok is not False

    cf, _ = chain_f.per_limit.per.classes(rank_bound)
    cg, _ = chain_g.per_limit.per.classes(rank_bound)
    matching: Optional[List[Tuple[int, int]]] = []
    used = set()
    for i, cls in enumerate(cf):
        img = phi_omega(cls[0])
        js = [
            j
            for j, cls_g in enumerate(cg)
            if chain_g.per_limit.per.related(img, cls_g[0], rank_bound) is True
        ]
        if len(js) != 1 or js[0] in used:
            matching = None
            break
        used.add(js[0])
        matching.append((i, js[0]))
    if matching is not None and len(used) != len(cg):
        matching = None

    commutes = uniform
    return IndependenceReport(stage_ok, uniform, matching, commutes)

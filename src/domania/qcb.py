"""Finite T0 spaces with pseudobases, their standard representations as
domain-pers, the fixed-point pipeline, and transfer of weak equivalences
between representing equations: F acting on the supplied isomorphism pairs.

A strictly positive operation on spaces is the equation AST of
`spfunctor` read as a space operation: `+` is disjoint union, `*` the
sequential product and `[P -> _]` space exponentiation by the parameter P.
Its fixed point is the dense least fixed point of the same equation over
the parameters' representations."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .basis import Checks, FiniteBasis, Frozen, Token, Verdict, both, conjoin, tok
from .construct import Embedding, TokenMap, exp_map, identity_map, prod_map, sum_map
from .dense import DenseLfp, dense_lfp
from .eta import atomic_subfunctors
from .errors import (
    BadParameterPedigree,
    InvalidSpace,
    NotT0,
    NotUniform,
    NotWeaklyEquivalent,
)
from .per import (
    ALL_YES,
    DomainPer,
    FiniteRel,
    check_property,
    per_construct,
    uniform_limit_map,
    weak_iso_check,
)
from .perlfp import per_chain_extend
from .spfunctor import (
    ConstD,
    Exp,
    FunctorExpr,
    Id,
    functor_action,
    subterms,
)


# ---------------------------------------------------------------------------
# finite spaces


class FiniteSpace(Frozen):
    def __init__(self, name: str, points: Tuple[str, ...], opens: frozenset):
        # `opens` is a frozenset of frozensets of points
        vars(self).update(name=name, points=points, opens=opens)

    def validate(self) -> Verdict:
        pts = frozenset(self.points)
        if frozenset() not in self.opens or pts not in self.opens:
            return Verdict(False, clause="missing empty set or whole space")
        for u in self.opens:
            for v in self.opens:
                if u | v not in self.opens:
                    return Verdict(False, (u, v), clause="not closed under union")
                if u & v not in self.opens:
                    return Verdict(False, (u, v), clause="not closed under intersection")
        return Verdict(True)

    def is_t0(self) -> Verdict:
        for x, y in itertools.combinations(self.points, 2):
            if all((x in u) == (y in u) for u in self.opens):
                return Verdict(False, (x, y))
        return Verdict(True)


def mk_space(name, points, opens) -> FiniteSpace:
    space = FiniteSpace(
        name, tuple(str(p) for p in points),
        frozenset(frozenset(str(p) for p in u) for u in opens),
    )
    v = space.validate()
    if not v.holds:
        raise InvalidSpace(f"not a topology on {name}: {v.clause}", witness=v.witness)
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


def min_open(X: FiniteSpace, x: str) -> frozenset:
    out = frozenset(X.points)
    for u in X.opens:
        if x in u:
            out = out & u
    return out


def validate_pseudobase(X: FiniteSpace, sets: Sequence[frozenset]) -> Verdict:
    """Nonempty sets containing the space, intersection-closed, and
    witnessing convergence inside every open. On a finite space a sequence
    converges to x exactly when its tail stays inside the minimal open
    around x, and the tail can sweep all of it, so the clause reduces to:
    for every x and open U around x there is a member B with
    min_open(x) <= B <= U."""
    fam = [frozenset(s) for s in sets]
    pts = frozenset(X.points)
    if any(not s for s in fam):
        return Verdict(False, next(s for s in fam if not s), clause="empty member")
    if pts not in fam:
        return Verdict(False, pts, clause="missing whole space")
    for a in fam:
        for b in fam:
            if a & b and a & b not in fam:
                return Verdict(False, (a, b), clause="intersection missing")
    for x in X.points:
        base = min_open(X, x)
        for u in X.opens:
            if x not in u:
                continue
            if not any(base <= b and b <= u for b in fam):
                return Verdict(False, (x, u), clause="convergence")
    return Verdict(True)


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


class StandardRep:
    def __init__(
        self, per: DomainPer, space: FiniteSpace, sets: List[frozenset],
        decode: Dict[Token, Optional[str]],
    ):
        self.per = per
        self.space = space
        self.sets = sets
        self.decode = decode  # token -> point or None

    def greatest_representative(self, x: str) -> Token:
        inter = frozenset(self.space.points)
        for b in self.sets:
            if x in b:
                inter = inter & b
        return _set_token(inter)


def _set_token(s) -> Token:
    return tok(("pb", tuple(sorted(s))))


def standard_representation(X: FiniteSpace, sets: Sequence[frozenset]) -> StandardRep:
    v = X.is_t0()
    if not v.holds:
        raise NotT0(f"points {v.witness} are topologically indistinguishable",
                    witness=v.witness)
    v = validate_pseudobase(X, sets)
    if not v.holds:
        raise InvalidSpace(f"not a pseudobase: {v.clause}")
    fam = [frozenset(s) for s in dict.fromkeys(frozenset(s) for s in sets)]

    toks = {frozenset(s): _set_token(s) for s in fam}
    leq_pairs = [
        (toks[a], toks[b]) for a in fam for b in fam if a >= b
    ]
    basis = FiniteBasis(f"rep({X.name})", list(toks.values()), leq_pairs)

    decode: Dict[Token, Optional[str]] = {}
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
        decode[toks[b]] = hits[0] if len(hits) == 1 else None
        if len(hits) > 1:
            raise NotT0("two points share a representative", witness=hits)

    pairs = set()
    for a in toks.values():
        for b in toks.values():
            if decode[a] is not None and decode[a] == decode[b]:
                pairs.add((a, b))
    per = DomainPer(basis, FiniteRel(basis, pairs), ALL_YES)
    rep = StandardRep(per, X, fam, decode)
    # flags must be earned, not assumed
    for prop in ("convex", "local", "complete", "dense"):
        if not check_property(per, prop).holds:
            raise BadParameterPedigree(
                f"the standard representation of {X.name} is not {prop}",
                witness=prop,
            )
    return rep


def recovered_pseudobase(rep: StandardRep) -> List[frozenset]:
    """Images of the up-sets of compacts through the decoding map."""
    out = []
    ts, _ = rep.per.totals()
    for p in rep.per.carrier.tokens().tokens:
        image = frozenset(
            rep.decode[t]
            for t in ts
            if rep.per.carrier.leq(p, t) and rep.decode[t] is not None
        )
        if image:
            out.append(image)
    return list(dict.fromkeys(out))


def class_topology(per: DomainPer):
    """Quotient topology on the classes: a set of classes is open when the
    union is upward closed inside the totals."""
    classes, _ = per.classes()
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
        point_of[i] = rep.decode[cls[0]]
    if sorted(point_of.values()) != sorted(rep.space.points):
        return False
    expected = frozenset(
        frozenset(i for i in point_of if point_of[i] in u) for u in rep.space.opens
    )
    return expected == opens


# ---------------------------------------------------------------------------
# operations on spaces


REQUIRED_FLAGS = ("countably_based", "dense", "admissible_pedigree",
                  "convex", "local", "complete")


def functorial_representation(
    expr: FunctorExpr, bindings: Dict[str, object]
) -> Dict[str, DomainPer]:
    """The per environment of a space operation read as a domain equation:
    each parameter, in reading order, replaced by its representation, which
    must carry every required flag."""
    env: Dict[str, DomainPer] = {}

    def resolve(name: str):
        if name in env:
            return
        b = bindings[name]
        per = b.per if isinstance(b, StandardRep) else b
        for f in REQUIRED_FLAGS:
            if getattr(per.flags, f) is not True:
                raise BadParameterPedigree(
                    f"parameter {name!r} lacks flag {f}", witness=f
                )
        env[name] = per

    for (_, e) in subterms(expr):
        if isinstance(e, ConstD):
            resolve(e.name)
        elif isinstance(e, Exp):
            resolve(e.param)
    return env


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
            graph.append((x, repE.decode[val]))
        induced.add(tuple(graph))
    return len(induced) == len(maps)


# ---------------------------------------------------------------------------
# the fixed-point pipeline


class QcbFixedPointReport:
    def __init__(self, lfp: DenseLfp, classes_by_rank: Dict[int, int], checks: Checks):
        self.lfp = lfp
        self.classes_by_rank = classes_by_rank
        # fixed-point-classes, a coherence-* check per construction, and
        # positive-parameters-hausdorff where it is derivable
        self.checks = checks


def qcb_fixed_point(
    expr: FunctorExpr, bindings: Dict[str, object], rank_bound: int = 3
) -> QcbFixedPointReport:
    env = functorial_representation(expr, bindings)
    lfp = dense_lfp(expr, env, rank_bound=rank_bound, n_finite=max(3, rank_bound + 1))
    chain = lfp.chain

    class_reps, _ = lfp.per.representatives(rank_bound)
    by_rank: Dict[int, int] = {}
    for x in class_reps:
        r = chain.per_limit.rank_of(x)
        by_rank[r] = by_rank.get(r, 0) + 1

    # fixed-point correspondence: classes transported through the unfolding
    unfolded = chain.unfolded[0]
    images = [chain.iso.fwd(x) for x in class_reps]

    def bijection():
        # each image is total, and related to its own class's image alone
        for i, a in enumerate(images):
            for j, b in enumerate(images):
                r = unfolded.related(a, b)
                yield None if r is None else r == (i == j), None

    checks = Checks()
    checks.add("fixed-point-classes", conjoin(bijection()).holds, bound=rank_bound)

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
    for key in sorted(coherence):
        checks.add(f"coherence-{key}", coherence[key])

    # the separation flag is derivable only when every positive parameter is
    # a finite space instance; it records the hypothesis checked by direct
    # open-set separation
    pos = _positive_const_names(expr)
    if pos and all(isinstance(bindings.get(n), StandardRep) for n in pos):
        hausdorff = all(_space_hausdorff(bindings[n].space) for n in pos)
        checks.add("positive-parameters-hausdorff", hausdorff)
    return QcbFixedPointReport(lfp, by_rank, checks)


def _space_hausdorff(space: FiniteSpace) -> bool:
    for x, y in itertools.combinations(space.points, 2):
        if not any(
            x in u and y in v and not (u & v)
            for u in space.opens
            for v in space.opens
        ):
            return False
    return True


def _positive_const_names(expr: FunctorExpr) -> List[str]:
    return [e.name for e in atomic_subfunctors(expr) if isinstance(e, ConstD)]


# ---------------------------------------------------------------------------
# weak-equivalence transfer and fixed-point independence


def token_iso_pair(
    A: DomainPer, B: DomainPer, mapping: Dict[Token, Token]
) -> Embedding:
    """A supplied weak isomorphism given by a token bijection, as the
    ep-pair of carriers it is; the reverse iso swaps its two maps."""
    back = {b: a for (a, b) in mapping.items()}
    a_toks, b_toks = (set(P.carrier.tokens().tokens) for P in (A, B))
    if set(mapping) != a_toks or set(back) != b_toks:
        raise NotWeaklyEquivalent("token mapping is not a bijection")
    for a, b in mapping.items():
        for a2, b2 in mapping.items():
            if A.carrier.leq(a, a2) != B.carrier.leq(b, b2):
                raise NotWeaklyEquivalent(
                    "token mapping does not preserve order", witness=(a, a2)
                )
    return Embedding(
        TokenMap(A.carrier, B.carrier, mapping.__getitem__),
        TokenMap(B.carrier, A.carrier, back.__getitem__),
        name="iso",
    )


def _paired(F: FunctorExpr, G: FunctorExpr) -> Optional[FunctorExpr]:
    """F read side by side with G: F with each parameter renamed to its
    (F name, G name) pair; None when the shapes differ."""
    if type(F) is not type(G):
        return None
    if isinstance(F, Id):
        return F
    if isinstance(F, ConstD):
        return ConstD((F.name, G.name))
    if isinstance(F, Exp):
        body = _paired(F.body, G.body)
        return None if body is None else Exp((F.param, G.param), body)
    left, right = _paired(F.left, G.left), _paired(F.right, G.right)
    return None if left is None or right is None else type(F)(left, right)


# F acting on token maps: the forward map of the supplied isomorphism at
# each parameter, and a function space moved along both its exponent and
# its values
TRANSFER = (lambda iso: iso.fwd_map, sum_map, prod_map, exp_map)


def _transfer(paired: FunctorExpr, phi: TokenMap, isos) -> TokenMap:
    """The stage map one step up: F acting on phi and the paired isos."""
    try:
        return functor_action(paired, phi, isos, TRANSFER)
    except KeyError as e:
        raise NotWeaklyEquivalent(
            "no isomorphism pair supplied for ({},{})".format(*e.args[0])
        )


def _one_related(verdicts) -> Optional[bool]:
    """Exactly one of `verdicts` is True; None when none is but one is
    undecided."""
    trues = sum(r is True for r in verdicts)
    if trues == 0 and None in verdicts:
        return None
    return trues == 1


def fixed_point_independence(
    F, env_f, G, env_g, pairs: Dict[Tuple[str, str], Embedding], rank_bound: int = 2
) -> Checks:
    """Builds both chains, transfers the stage maps, and verifies the
    class-level matching between the two fixed points: the checks
    stage-weak-isos, uniform-family and class-matching, whose witness is the
    matching.  A family that does not commute with the chains has no limit
    map, so no classes to match."""
    from .ordinals import omega_plus

    n_finite = 3
    paired_f, paired_g = _paired(F, G), _paired(G, F)
    if paired_f is None:
        raise NotWeaklyEquivalent("equations have different shapes")
    chain_f = per_chain_extend(F, env_f, omega_plus(1), n_finite=n_finite)
    chain_g = per_chain_extend(G, env_g, omega_plus(1), n_finite=n_finite)

    # each supplied ep-pair stands at its parameter, swapped on the way back
    back = {
        (gn, fn): Embedding(p.proj_map, p.fwd_map) for ((fn, gn), p) in pairs.items()
    }
    # stage n+1 is F acting on stage n; built by the interned constructors,
    # their carriers are the chains' own stages
    d0 = identity_map(chain_f.per_limit.limit.stages[0].basis)
    phis, chis = [d0], [d0]
    for n in range(n_finite):
        phis.append(_transfer(paired_f, phis[-1], pairs))
        chis.append(_transfer(paired_g, chis[-1], back))

    stage_ok = both(*(
        weak_iso_check(phis[n], chis[n], chain_f.stages[n][1], chain_g.stages[n][1]).holds
        for n in range(1, n_finite + 1)
    ))

    # families that commute with the chain embeddings extend to the limits,
    # acting stage-wise on canonical tokens
    checks = Checks()
    try:
        phi_omega = uniform_limit_map(phis, chain_f.per_limit, chain_g.per_limit)
        chi_omega = uniform_limit_map(chis, chain_g.per_limit, chain_f.per_limit)
    except NotUniform:
        checks.add("stage-weak-isos", stage_ok, bound=rank_bound)
        checks.add("uniform-family", False)
        checks.add("class-matching", False, bound=rank_bound)
        return checks
    omega_f, omega_g = chain_f.per_limit.per, chain_g.per_limit.per
    if weak_iso_check(phi_omega, chi_omega, omega_f, omega_g, rank_bound).holds is False:
        stage_ok = False
    checks.add("stage-weak-isos", stage_ok, bound=rank_bound)
    checks.add("uniform-family", True)

    # each class of one fixed point matches one class of the other: one
    # related verdict in each row and each column of the table; a row or
    # column with no True and an undecided verdict leaves it unknown
    rf, _ = chain_f.per_limit.per.representatives(rank_bound)
    rg, _ = chain_g.per_limit.per.representatives(rank_bound)
    table = [[omega_g.related(phi_omega(x), y) for y in rg] for x in rf]
    columns = [[row[j] for row in table] for j in range(len(rg))]
    holds = both(*(_one_related(line) for line in table + columns))
    matching = [(i, row.index(True)) for (i, row) in enumerate(table)] if holds else None
    checks.add("class-matching", holds, matching, rank_bound)
    return checks

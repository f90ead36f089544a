"""Finite T0 spaces with pseudobases, their standard representations as
domain-pers, the fixed-point pipeline, and transfer of weak equivalences
between representing equations: F acting on the supplied isomorphism pairs.

A finite T0 space is held as its specialization order, a `FinitePoset`:
its open sets are the up-sets, and `mk_space` alone reads a topology given
by its open sets.  Continuous maps are the monotone maps, the quotient
topology of a per's classes is their class order, and Hausdorff is
discrete.

A strictly positive operation on spaces is the equation AST of
`spfunctor` read as a space operation: `+` is disjoint union, `*` the
sequential product and `[P -> _]` space exponentiation by the parameter P.
Its fixed point is the dense least fixed point of the same equation over
the parameters' representations."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .basis import (
    Checks,
    FiniteBasis,
    FinitePoset,
    Token,
    Verdict,
    both,
    conjoin,
    enumerate_monotone_maps,
    mk_finite_poset,
    tok,
    transitive_reflexive_closure,
)
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
# finite spaces: a finite T0 space is its specialization order


def mk_space(name, points, opens) -> FinitePoset:
    """The specialization order of a finite T0 topology, x <= y when every
    open set around x holds y; the one reader of open sets.  `name` appears
    only in the errors."""
    points = tuple(str(p) for p in points)
    opens = frozenset(frozenset(str(p) for p in u) for u in opens)
    if frozenset() not in opens or frozenset(points) not in opens:
        raise InvalidSpace(f"not a topology on {name}: missing empty set or whole space")
    for u, v in itertools.product(opens, repeat=2):
        for (op, w) in (("union", u | v), ("intersection", u & v)):
            if w not in opens:
                raise InvalidSpace(f"not a topology on {name}: not closed under {op}",
                                   witness=(u, v))
    least = {x: frozenset(points).intersection(*(u for u in opens if x in u))
             for x in points}
    for x, y in itertools.combinations(points, 2):
        if least[x] == least[y]:
            raise NotT0(f"points {(x, y)} are topologically indistinguishable",
                        witness=(x, y))
    return FinitePoset(points, frozenset((x, y) for x in points for y in least[x]))


def up(X: FinitePoset, x) -> frozenset:
    """The points above x: the least open set around x."""
    return frozenset(y for y in X.elements if X.leq(x, y))


def sierpinski_space() -> FinitePoset:
    return mk_finite_poset(["bot", "top"], [("bot", "top")])


def discrete_space(labels) -> FinitePoset:
    return mk_finite_poset([str(x) for x in labels], [])


# ---------------------------------------------------------------------------
# pseudobases


def validate_pseudobase(X: FinitePoset, sets: Sequence[frozenset]) -> Verdict:
    """Nonempty sets containing the space, intersection-closed, and
    witnessing convergence inside every open. On a finite space a sequence
    converges to x exactly when its tail stays inside up(x), and the tail
    can sweep all of it, so the clause asks for a member B with
    up(x) <= B <= U for every open U around x.  U = up(x) forces B = up(x),
    which serves every larger U: every up(x) is a member."""
    fam = [frozenset(s) for s in sets]
    pts = frozenset(X.elements)
    if any(not s for s in fam):
        return Verdict(False, next(s for s in fam if not s), clause="empty member")
    if pts not in fam:
        return Verdict(False, pts, clause="missing whole space")
    for a in fam:
        for b in fam:
            if a & b and a & b not in fam:
                return Verdict(False, (a, b), clause="intersection missing")
    for x in X.elements:
        if up(X, x) not in fam:
            return Verdict(False, (x, up(X, x)), clause="convergence")
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
        self, per: DomainPer, space: FinitePoset, sets: List[frozenset],
        decode: Dict[Token, Optional[str]],
    ):
        self.per = per
        self.space = space
        self.sets = sets
        self.decode = decode  # token -> point or None

    def greatest_representative(self, x: str) -> Token:
        return _set_token(frozenset.intersection(*(b for b in self.sets if x in b)))


def _set_token(s) -> Token:
    return tok(("pb", tuple(sorted(s))))


def standard_representation(X: FinitePoset, sets: Sequence[frozenset]) -> StandardRep:
    v = validate_pseudobase(X, sets)
    if not v.holds:
        raise InvalidSpace(f"not a pseudobase: {v.clause}")
    fam = [frozenset(s) for s in dict.fromkeys(frozenset(s) for s in sets)]

    toks = {frozenset(s): _set_token(s) for s in fam}
    leq_pairs = [(toks[a], toks[b]) for a in fam for b in fam if a >= b]
    basis = FiniteBasis(f"rep({','.join(X.elements)})", list(toks.values()), leq_pairs)

    # a member decodes to its least point: the x with x in b <= up(x); one
    # at most, as the order is antisymmetric
    decode: Dict[Token, Optional[str]] = {
        toks[b]: next((x for x in X.elements if x in b and b <= up(X, x)), None)
        for b in fam
    }

    pairs = {(a, b) for a, b in itertools.product(decode, repeat=2)
             if decode[a] is not None and decode[a] == decode[b]}
    per = DomainPer(basis, FiniteRel(basis, pairs), ALL_YES)
    rep = StandardRep(per, X, fam, decode)
    # flags must be earned, not assumed
    for prop in ("convex", "local", "complete", "dense"):
        if not check_property(per, prop).holds:
            raise BadParameterPedigree(
                f"the standard representation {basis.name} is not {prop}",
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


def class_order(per: DomainPer):
    """The classes and the specialization order of their quotient topology:
    the transitive closure of "a member of class i lies below a member of
    class j", as (i, j) pairs."""
    classes, _ = per.classes()
    below = {
        (i, j)
        for (i, ci), (j, cj) in itertools.product(enumerate(classes), repeat=2)
        if any(per.carrier.leq(t, u) for t in ci for u in cj)
    }
    return classes, transitive_reflexive_closure(range(len(classes)), below)


def quotient_matches_space(rep: StandardRep) -> bool:
    """The class order computed from the representation equals the
    represented order point for point."""
    classes, order = class_order(rep.per)
    point_of = [rep.decode[cls[0]] for cls in classes]
    if sorted(point_of) != sorted(rep.space.elements):
        return False
    return order == {
        (i, j) for (i, x), (j, y) in itertools.product(enumerate(point_of), repeat=2)
        if rep.space.leq(x, y)
    }


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


def check_fun_coherence(repD: StandardRep, repE: StandardRep) -> bool:
    """Classes of the function-space per biject with the continuous maps,
    which are the monotone maps of the specialization orders."""
    fper = per_construct("fun", repD.per, repE.per)
    classes, exact = fper.classes()
    maps = enumerate_monotone_maps(repD.space, repE.space)
    if not exact or len(classes) != len(maps):
        return False
    # each class must induce a distinct continuous map on points
    induced = {
        tuple(repE.decode[fper.carrier.apply(cls[0], repD.greatest_representative(x))]
              for x in repD.space.elements)
        for cls in classes
    }
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
    # a finite space instance; it records the hypothesis, decided on the
    # specialization order
    pos = _positive_const_names(expr)
    if pos and all(isinstance(bindings.get(n), StandardRep) for n in pos):
        hausdorff = all(_space_hausdorff(bindings[n].space) for n in pos)
        checks.add("positive-parameters-hausdorff", hausdorff)
    return QcbFixedPointReport(lfp, by_rank, checks)


def _space_hausdorff(space: FinitePoset) -> bool:
    """A finite T0 space is Hausdorff exactly when it is discrete: no point
    lies below another."""
    return not any(space.leq(x, y) for x, y in itertools.permutations(space.elements, 2))


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

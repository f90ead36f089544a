"""Transfinite per fixed points: build the chain from a strictly positive
functor on domain-pers, pass omega on the stabilised carrier, probe for
stabilisation, derive the non-stabilisation witness, and check mediating
algebra morphisms.

Every value handled here is a token of some stage or of the limit carrier.
Over an exponent on an infinite carrier whose body holds the variable, the
chain does not stabilise at omega, and one rule derives the witness from
the equation: x_0 folds F's value without the variable, x_{n+1} folds F at
x_n along the path to that exponent, and the witness puts there the map
sending the n-th exponent total to x_n.  That map has infinite support and
no token; it is kept as the list x_0, x_1, ..., each a limit token."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .basis import Checks, Token, Verdict, both
from .construct import Embedding, TokenMap
from .errors import IsoFailure, NotAnAlgebra
from .ordinals import OMEGA, Ordinal, fin, omega_plus
from .per import (
    DomainPer,
    PerLimit,
    StructuralRel,
    is_equiembedding,
    is_equivariant,
    limit_per,
    per_construct,
    trivial_per,
)
from .spfunctor import (
    MAPS,
    ConstD,
    Exp,
    FixedPointIso,
    FunctorExpr,
    Id,
    Sum,
    fixed_point_iso,
    functor_action,
    identity,
    omega_chain,
    subterms,
)


# The depth rules: links are decided exhaustively up to stage
# EXHAUSTIVE_DEPTH over finite parameters, and on rank-FRAGMENT_BOUND
# fragments past it or over staged parameters.
EXHAUSTIVE_DEPTH = 4
FRAGMENT_BOUND = 3


# F on pers
PERS = (
    identity,
    partial(per_construct, "sum"),
    partial(per_construct, "prod"),
    partial(per_construct, "fun"),
)


def apply_functor_per(
    expr: FunctorExpr, X: DomainPer, env: Dict[str, DomainPer]
) -> DomainPer:
    return functor_action(expr, X, env, PERS)


# F on link verdicts: F sends an equiembedding to an equiembedding (Smyth &
# Plotkin for ep-pairs; the per lemma for equiembeddings needs each exponent
# per dense).  A parameter's link is the identity; None leaves the link to
# the scans.
LINKS = (
    lambda P: True,
    both,
    both,
    lambda P, body: body if P.flags.dense is True else None,
)


def functor_is_trivial(expr: FunctorExpr, env: Dict[str, DomainPer]) -> bool:
    """A functor is trivial when its value at the trivial per has no totals."""
    ts, _ = apply_functor_per(expr, trivial_per(), env).totals()
    return not ts


class PullbackRel(StructuralRel):
    """Relation on the limit carrier obtained by unfolding through the
    fixed-point correspondence and deciding in a per one step up."""

    def __init__(self, iso: FixedPointIso, unfolded_per: DomainPer):
        self.iso = iso
        self.unfolded_per = unfolded_per

    def related(self, a, b):
        return self.unfolded_per.related(self.iso.fwd(a), self.iso.fwd(b))

    def totals(self, bound=None):
        ts, exact = self.unfolded_per.totals(bound)
        return [self.iso.inv(t) for t in ts], exact

    def representatives(self, bound=None):
        reps, exact = self.unfolded_per.representatives(bound)
        return [self.iso.inv(t) for t in reps], exact


class PerChain:
    def __init__(
        self, functor: FunctorExpr, env: Dict[str, DomainPer],
        stages: List[Tuple[Ordinal, DomainPer]], embeddings: List[Embedding],
        links: Optional[List[Verdict]] = None,
    ):
        self.functor = functor
        self.env = env
        self.stages = stages
        # link n + 1, the ep-pair from stage n to stage n + 1
        self.embeddings = embeddings
        # set by `per_chain_extend` when the chain reaches omega
        self.per_limit: Optional[PerLimit] = None
        self.iso: Optional[FixedPointIso] = None
        self.unfolded: List[DomainPer] = []  # pers on F(D_omega)
        # each finite link's verdict at the bound it was decided at; bound
        # None when it was decided exactly, by an exhaustive scan or by
        # functoriality (a rule-decided link is True)
        self.links = [] if links is None else links

    @property
    def link_bounds(self) -> List[Optional[int]]:
        return [v.bound for v in self.links]

    @property
    def links_hold(self) -> Optional[bool]:
        """The link verdicts folded: True when every link holds, None when
        one is undecided (a failing link stops the chain being built)."""
        return both(*(v.holds for v in self.links))

    @property
    def link_bound(self) -> Optional[int]:
        """Smallest bound a link was decided at; None when every link was
        decided exactly."""
        return min((b for b in self.link_bounds if b is not None), default=None)


def per_chain_extend(
    expr: FunctorExpr,
    env: Dict[str, DomainPer],
    upto: Ordinal,
    n_finite: int = EXHAUSTIVE_DEPTH,
) -> PerChain:
    """Chain stages up to `upto`; finite part always built to n_finite when
    the target lies at or past omega.  Each link is decided here, once.

    Link n+1 is F applied to link n.  When link n was decided True exactly
    and `LINKS` gives True, link n+1 is True and exact with no scan.
    Otherwise the scans decide it, as they decide link 1: exhaustively up to
    stage `EXHAUSTIVE_DEPTH` over finite parameters, on `FRAGMENT_BOUND`
    fragments past it or over staged parameters."""
    domain_env = {k: v.carrier for (k, v) in env.items()}
    depth = n_finite if not upto.is_finite else upto.k
    exhaustive = all(p.carrier.finite for p in env.values())
    pers: List[Tuple[Ordinal, DomainPer]] = [(fin(0), trivial_per())]
    links: List[Verdict] = []
    exact = False  # link n was decided True exactly
    dstages = omega_chain(expr, domain_env, depth)
    for n in range(1, depth + 1):
        per_n = apply_functor_per(expr, pers[-1][1], env)
        if exact and functor_action(expr, True, env, LINKS) is True:
            v = Verdict(True)
        else:
            bound = None if exhaustive and n <= EXHAUSTIVE_DEPTH else FRAGMENT_BOUND
            # the domain chain's link, on the two stage pers
            v = is_equiembedding(dstages[n].embed_from_prev, pers[-1][1], per_n, bound)
            if v.holds is False:
                raise NotAnAlgebra(
                    f"chain link {n} is not an equiembedding ({v.clause})",
                    witness=v.witness,
                )
            exact = v.holds is True
        pers.append((fin(n), per_n))
        links.append(v)
    embeddings = [s.embed_from_prev for s in dstages[1:]]
    chain = PerChain(expr, env, pers, embeddings, links=links)
    if upto.is_finite:
        return chain

    plim = limit_per(dstages, [p for (_, p) in pers])
    chain.per_limit = plim
    chain.stages.append((OMEGA, plim.per))
    bound = min(FRAGMENT_BOUND, depth)
    iso, _ = fixed_point_iso(expr, domain_env, plim.limit, bound=bound)
    chain.iso = iso

    current = plim.per
    for k in range(1, upto.k + 1):
        unfolded_per = apply_functor_per(expr, current, env)
        chain.unfolded.append(unfolded_per)
        folded = DomainPer(plim.limit, PullbackRel(iso, unfolded_per), unfolded_per.flags)
        chain.stages.append((omega_plus(k), folded))
        current = folded
    return chain


# ---------------------------------------------------------------------------
# stabilisation


class StabilizationVerdict(Verdict):
    """True: the chain stabilizes at `stage`; False: `witness` is a new
    total past `stage`; None: undecided at `bound`.  `report` is the nesting
    witness's, whenever the equation has one."""

    def __init__(
        self, holds: Optional[bool], stage: Optional[Ordinal] = None,
        witness: object = None, bound: Optional[int] = None,
        report: Optional[CounterexampleReport] = None,
    ):
        super().__init__(holds, witness, bound)
        vars(self).update(stage=stage, report=report)


def _stage_stabilizes(chain: PerChain, n: int) -> Optional[bool]:
    """Whether stage n+1 adds no classes to stage n; None when its
    representatives are not exact.

    One scan of stage n+1's representatives: each t must project to a
    stage-n total s with f(s) ~ t.  That decides t's whole class, as True
    verdicts are symmetric and transitive, and an equiembedding reflects:
    f(s') ~ t for a total s' gives s' ~ s."""
    per_n, per_n1 = chain.stages[n][1], chain.stages[n + 1][1]
    emb = chain.embeddings[n]
    reps, exact = per_n1.representatives()
    if not exact:
        return None
    for t in reps:
        s = emb.proj(t)
        if per_n.related(s, s) is not True or per_n1.related(emb.fwd(s), t) is not True:
            return False
    return True


def _successor_fragment_totals(chain: PerChain, rank_bound: int):
    """One fragment total per class of the first stage past omega, as
    unfolded values, built by the quotient rules (`per.py`).

    Values are clamped one stage below the built finite depth so that their
    folds land on built stages.
    """
    unfolded = chain.unfolded[0]
    depth = min(rank_bound, chain.per_limit.limit.max_stage() - 1)
    reps, _ = unfolded.representatives(depth)
    return reps, depth


def _folds_back(chain: PerChain, t: Token) -> bool:
    """t is the image of an omega-total: s = iso.inv(t) is related to itself
    at omega and iso.fwd(s) is related to t one stage up."""
    try:
        s = chain.iso.inv(t)
    except IsoFailure:
        return False
    return (
        chain.per_limit.per.related(s, s) is True
        and chain.unfolded[0].related(t, chain.iso.fwd(s)) is True
    )


def stabilization_probe(chain: PerChain, rank_bound: int) -> StabilizationVerdict:
    """First stage whose successor adds no totals on the checked fragment,
    or a concrete new total, or an honest unknown.

    At omega, every fragment total t of stage omega+1 must be related to the
    image of some omega-total.  One total per fragment class is enough: if
    t ~ t' and t' ~ fwd(s), then t ~ fwd(s), as True verdicts are symmetric
    and transitive.  The probe folds each representative t back with
    s = iso.inv(t); if s ~ s at omega and iso.fwd(s) ~ t, s is an omega-total
    whose image is related to t, so accepting t's class is sound.  Only a t
    that does not fold back is compared with the image of one representative
    per omega-class, built once on first need."""
    # finite stages, decided exactly; stages past the exhaustive-verification
    # depth are left to the omega check, which subsumes them
    for n in range(min(len(chain.link_bounds), EXHAUSTIVE_DEPTH)):
        stable = _stage_stabilizes(chain, n)
        if stable is None:
            break
        if stable:
            return StabilizationVerdict(True, fin(n), bound=rank_bound)

    if chain.per_limit is None or not chain.unfolded:
        return StabilizationVerdict(None, bound=rank_bound)

    # the fragment holds only finitely supported functions, so it cannot see
    # a new total that needs infinite support: over an infinite exponent only
    # the nesting witness decides, and only when both of its checks hold
    report = counterexample_phi(chain, rank_bound)
    if report and all(
        report.checks[name].holds
        for name in ("fragment-equivariance", "escapes-finite-stages")
    ):
        return StabilizationVerdict(False, OMEGA, report.pretty, rank_bound, report)
    if report or _infinite_exponents(chain.functor, chain.env):
        return StabilizationVerdict(None, OMEGA, bound=rank_bound, report=report)
    return _omega_verdict(chain, rank_bound)


def _omega_verdict(chain: PerChain, rank_bound: int) -> StabilizationVerdict:
    """Whether stage omega+1 adds no totals on the fragment, decided on one
    total per fragment class: fold-back first, omega-class images only for a
    representative that does not fold back."""
    unfolded = chain.unfolded[0]
    fragment, depth = _successor_fragment_totals(chain, rank_bound)
    images = None
    for t in fragment:
        if _folds_back(chain, t):
            continue
        if images is None:
            # the omega-classes reach one stage deeper than the fragment
            reps, _ = chain.per_limit.per.representatives(depth + 1)
            images = [chain.iso.fwd(s) for s in reps]
        if not any(unfolded.related(t, img) is True for img in images):
            return StabilizationVerdict(False, OMEGA, witness=t, bound=depth)
    return StabilizationVerdict(True, OMEGA, bound=depth)


# ---------------------------------------------------------------------------
# the non-stabilisation witness


def _infinite_exponents(expr: FunctorExpr, env):
    """(path, sub-term) of every Exp of expr over a carrier that is not finite."""
    return [
        (path, e)
        for (path, e) in subterms(expr)
        if isinstance(e, Exp) and not env[e.param].carrier.finite
    ]


def _nesting_path(expr: FunctorExpr, env):
    """The first Exp over an infinite carrier whose body holds the variable,
    the path to it, and the path on to the first variable in its body; None
    when there is no such Exp."""
    for (path, e) in _infinite_exponents(expr, env):
        for (sub, leaf) in subterms(e.body, path + (0,)):
            if isinstance(leaf, Id):
                return e, path, sub
    return None


def _fill(expr: FunctorExpr, basis, env, path, x):
    """A value of `basis`, the carrier of the sub-term expr of F, with `x`
    at the end of `path` (None off the path) and at every other variable.
    A Sum on the path injects on the path's side, one off it takes its first
    summand that has a value; an Exp is a constant map, a Prod fills both
    sides, and a parameter gives its least total by printed name.  None
    when a parameter it fills has no totals, or it fills a variable and `x`
    is None."""
    if path == () or isinstance(expr, Id):
        return x
    rest = path and path[1:]
    if isinstance(expr, ConstD):
        ts, _ = env[expr.name].totals()
        return min(ts, key=lambda t: t.pretty, default=None)
    if isinstance(expr, Exp):
        v = _fill(expr.body, basis.values, env, rest, x)
        return v and basis.make([(basis.exponent.bottom, v)])
    sides = (expr.left, expr.right)
    if isinstance(expr, Sum):
        for i in (path[0],) if path else (0, 1):
            v = _fill(sides[i], basis.parts[i], env, rest, x)
            if v is not None:
                return basis.inject(i, v)
        return None
    left, right = (
        _fill(side, part, env, rest if path and path[0] == i else None, x)
        for (i, (side, part)) in enumerate(zip(sides, (basis.left, basis.right)))
    )
    return left and right and basis.pair(left, right)


def _render(expr: FunctorExpr, basis, env, path, inner: str, x) -> str:
    """The printed name of the value `_fill` builds, with the name `inner`
    at the end of `path`."""
    if not path:
        return inner
    i, rest = path[0], path[1:]
    if isinstance(expr, Exp):
        body = _render(expr.body, basis.values, env, rest, inner, x)
        return "{" + f"{basis.exponent.bottom.pretty}=>{body}" + "}"
    sides = (expr.left, expr.right)
    if isinstance(expr, Sum):
        return f"in{i}({_render(sides[i], basis.parts[i], env, rest, inner, x)})"
    parts = (basis.left, basis.right)
    names = [_fill(s, b, env, None, x).pretty for (s, b) in zip(sides, parts)]
    names[i] = _render(sides[i], parts[i], env, rest, inner, x)
    return f"({names[0]},{names[1]})"


class CounterexampleReport:
    def __init__(
        self, nests: List[Token], pretty: str, ranks: Dict[int, int],
        total_stages: Dict[int, int], checks: Checks,
    ):
        # the witness phi sends the n-th total of the exponent to x_n; it has
        # infinite support and no token, so it is kept as its nestings x_0,
        # x_1, ..., each a limit token, as far as they are checked
        self.nests = nests
        self.pretty = pretty  # the witness's printed name
        self.ranks = ranks  # n -> reported rank (nesting depth)
        self.total_stages = total_stages  # n -> least chain stage with x_n total
        # rank-pattern, fragment-equivariance, escapes-finite-stages
        self.checks = checks


def counterexample_phi(chain: PerChain, bound: int) -> Optional[CounterexampleReport]:
    """The nesting witness of the chain's equation past omega, with its rank
    pattern; None when no Exp over an infinite carrier holds the variable,
    or when `_fill` finds no total to fill in.

    x_0 is the fold of F's value without the variable, and x_{n+1} the fold
    of F at x_n along the path to that Exp and on to the variable in its
    body (`_fill`).  The witness phi puts at that Exp the map sending the
    n-th total of its exponent to x_n."""
    found = _nesting_path(chain.functor, chain.env)
    if found is None:
        return None
    exp, exp_path, path = found
    iso, expr, env = chain.iso, chain.functor, chain.env
    # x_n first presents at stage n + 1, and checking phi at index n touches
    # stage n + 2: build only the nestings that are checked and built
    max_stage = chain.per_limit.limit.max_stage()
    check_bound = min(len(env[exp.param].totals()[0]), max_stage - 2)
    nests = []
    while len(nests) < min(max(bound + 1, check_bound), max_stage):
        # x_0 fills no variable; x_{n+1} nests x_n along the path
        x = nests[-1] if nests else None
        v = _fill(expr, iso.unfolded, env, path if nests else None, x)
        if v is None:
            return None
        nests.append(iso.inv(v))

    total_stages = {
        n: chain.per_limit.rank_of(x) for (n, x) in enumerate(nests[: bound + 1])
    }
    ranks = {n: stage - 1 for (n, stage) in total_stages.items()}
    checks = Checks()
    checks.add("rank-pattern", all(r == n for (n, r) in ranks.items()), ranks, bound)

    # phi ~ phi over an exponent whose totals are related only to themselves
    # iff x_n ~ x_n at omega for every n; the check covers n < check_bound,
    # so only a False refutes it
    per_omega = chain.per_limit.per
    equivariant = all(
        per_omega.related(x, x) is not False
        for x in nests[:check_bound]
    )
    checks.add("fragment-equivariance", equivariant, bound=check_bound)

    # the values of phi become total at strictly later stages as the index
    # grows, so phi itself is total at no finite stage among checked ranks
    seq = list(total_stages.values())
    increasing = all(b > a for a, b in zip(seq, seq[1:]))
    checks.add("escapes-finite-stages", increasing, bound=bound)

    descriptor = ("natfn", "nest", ("tok", nests[0].pretty))
    pretty = _render(expr, iso.unfolded, env, exp_path, f"<fn {descriptor}>", nests[0])
    return CounterexampleReport(nests, pretty, ranks, total_stages, checks)


# ---------------------------------------------------------------------------
# mediating algebra morphisms


class MediatingReport:
    def __init__(
        self, maps: List[TokenMap], coherent: bool, morphism_law_ok: bool,
        witness: object = None,
    ):
        self.maps = maps  # h_n: D_n -> E, a token map
        self.coherent = coherent
        self.morphism_law_ok = morphism_law_ok  # each h_n equivariant
        self.witness = witness


def mediating_algebra_morphism(
    expr: FunctorExpr,
    env: Dict[str, DomainPer],
    algebra: Tuple[DomainPer, Callable[[Token], Token]],
    upto: int = 2,
    bound: Optional[int] = None,
) -> MediatingReport:
    """h_0 from the trivial per, h_{n+1} = g . F(h_n), for the algebra
    g: F(E) -> E; checks the chain coherence and that each h_n is
    equivariant on the fragment."""
    E, g = algebra
    v = is_equivariant(g, apply_functor_per(expr, E, env), E, bound)
    if v.holds is False:
        raise NotAnAlgebra("algebra map is not equivariant", witness=v.witness)
    for flag_name in ("convex", "local", "complete"):
        if getattr(E.flags, flag_name) is False:
            raise NotAnAlgebra(f"algebra carrier per is not {flag_name}")

    domain_env = {k: v.carrier for (k, v) in env.items()}
    dstages = omega_chain(expr, domain_env, upto)

    maps = [TokenMap(dstages[0].basis, E.carrier, lambda t: E.carrier.bottom)]
    pers = [trivial_per()]
    for n in range(upto):
        f_h = functor_action(expr, maps[-1], domain_env, MAPS)
        h = TokenMap(dstages[n + 1].basis, E.carrier, lambda t, f_h=f_h: g(f_h(t)))
        maps.append(h)
        pers.append(apply_functor_per(expr, pers[-1], env))

    coherent = True
    witness = None
    for n in range(upto):
        step = dstages[n + 1].embed_from_prev
        for t in dstages[n].basis.tokens().tokens:
            if maps[n](t) != maps[n + 1](step.fwd(t)):
                coherent = False
                witness = (n, t)

    law_ok = True
    for n in range(1, upto + 1):
        # h_n = g . F(h_{n-1}) holds by construction; a morphism of pers is
        # an equivariant map, and h_n need not be an embedding
        v = is_equivariant(maps[n], pers[n], E, bound)
        if v.holds is False:
            law_ok = False
            witness = (n, v.witness)

    return MediatingReport(maps, coherent, law_ok, witness)

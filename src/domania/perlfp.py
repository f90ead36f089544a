"""Transfinite per fixed points: build the chain from a strictly positive
functor on domain-pers, pass omega on the stabilised carrier, probe for
stabilisation, rebuild the classical non-stabilisation witness, and check
mediating algebra morphisms.

Every value handled here is a token of some stage or of the limit carrier.
The non-stabilisation witness, a function on the flat naturals with
infinite support, has no token; it is kept as the list of its values at
0, 1, 2, ..., each a limit token."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .basis import Token
from .construct import Embedding, FunBasis, MultiSumBasis, identity_embedding
from .errors import IsoFailure, NotAnAlgebra, TrivialParameter
from .ordinals import OMEGA, Ordinal, fin, omega_plus
from .per import (
    DomainPer,
    NatIdentityRel,
    PerEmbedding,
    PerLimit,
    PerMap,
    StructuralRel,
    group_classes,
    is_equiembedding,
    is_equivariant,
    limit_per,
    per_construct,
    trivial_per,
)
from .spfunctor import (
    ConstD,
    Exp,
    FixedPointIso,
    FunctorExpr,
    Id,
    Prod,
    Sum,
    apply_functor_embedding,
    fixed_point_iso,
    omega_chain,
)


def apply_functor_per(
    expr: FunctorExpr, X: DomainPer, env: Dict[str, DomainPer]
) -> DomainPer:
    if isinstance(expr, Id):
        return X
    if isinstance(expr, ConstD):
        return env[expr.name]
    if isinstance(expr, Sum):
        return per_construct(
            "sum",
            apply_functor_per(expr.left, X, env),
            apply_functor_per(expr.right, X, env),
        )
    if isinstance(expr, Prod):
        return per_construct(
            "prod",
            apply_functor_per(expr.left, X, env),
            apply_functor_per(expr.right, X, env),
        )
    if isinstance(expr, Exp):
        return per_construct(
            "fun", env[expr.param], apply_functor_per(expr.body, X, env)
        )
    raise TypeError(expr)


def functor_is_trivial(expr: FunctorExpr, env: Dict[str, DomainPer], bound=None) -> bool:
    """A functor is trivial when its value at the trivial per has no totals."""
    f_d0 = apply_functor_per(expr, trivial_per(), env)
    ts, _ = f_d0.totals(bound)
    return not ts


class PullbackRel(StructuralRel):
    """Relation on the limit carrier obtained by unfolding through the
    fixed-point correspondence and deciding in a per one step up."""

    def __init__(self, iso: FixedPointIso, unfolded_per: DomainPer):
        self.iso = iso
        self.unfolded_per = unfolded_per

    def related(self, a, b, bound=None):
        return self.unfolded_per.related(self.iso.fwd(a), self.iso.fwd(b), bound)

    def totals(self, bound=None):
        ts, exact = self.unfolded_per.totals(bound)
        return [self.iso.inv(t) for t in ts], exact


@dataclass
class PerChain:
    functor: FunctorExpr
    env: Dict[str, DomainPer]
    stages: List[Tuple[Ordinal, DomainPer]]
    embeddings: List[PerEmbedding]
    per_limit: Optional[PerLimit] = None
    iso: Optional[FixedPointIso] = None
    unfolded: List[DomainPer] = field(default_factory=list)  # pers on F(D_omega)
    # smallest bound a link was checked at; None when every check was exhaustive
    link_bound: Optional[int] = None

    def stage_per(self, idx: Ordinal) -> DomainPer:
        for (o, p) in self.stages:
            if o == idx:
                return p
        raise KeyError(str(idx))


def per_chain_extend(
    expr: FunctorExpr,
    env: Dict[str, DomainPer],
    upto: Ordinal,
    n_finite: int = 4,
) -> PerChain:
    """Chain stages up to `upto`; finite part always built to n_finite when
    the target lies at or past omega."""
    domain_env = {k: v.carrier for (k, v) in env.items()}
    depth = n_finite if not upto.is_finite else upto.k
    verify_bound = None
    if any(not p.carrier.finite for p in env.values()):
        verify_bound = 3  # staged parameters: keep link checks on small fragments
    full_depth = 4  # exhaustive link checks up to this stage, bounded beyond
    pers: List[Tuple[Ordinal, DomainPer]] = [(fin(0), trivial_per())]
    embeddings: List[PerEmbedding] = []
    link_bounds = []
    dstages = omega_chain(expr, domain_env, depth)
    for n in range(1, depth + 1):
        per_n = apply_functor_per(expr, pers[-1][1], env)
        # reuse the domain chain's carrier bookkeeping
        emb = dstages[n].embed_from_prev
        pe = PerEmbedding(emb, pers[-1][1], per_n, name=f"f{n - 1},{n}")
        vb = verify_bound if n <= full_depth else (verify_bound or 3)
        if vb is not None:
            link_bounds.append(vb)
        v = is_equiembedding(pe, vb)
        if not v.ok:
            raise NotAnAlgebra(
                f"chain link {n} is not an equiembedding ({v.clause})",
                witness=v.witness,
            )
        pers.append((fin(n), per_n))
        embeddings.append(pe)
    chain = PerChain(
        expr, env, pers, embeddings, link_bound=min(link_bounds, default=None)
    )
    if upto.is_finite:
        return chain

    plim = limit_per(
        [p for (_, p) in pers],
        embeddings,
        verify_bound if depth <= full_depth else (verify_bound or 3),
    )
    chain.per_limit = plim
    chain.stages.append((OMEGA, plim.per))
    iso, _ = fixed_point_iso(expr, domain_env, plim.limit, bound=min(3, depth))
    chain.iso = iso

    current = plim.per
    for k in range(1, upto.k + 1):
        unfolded_per = apply_functor_per(expr, current, env)
        chain.unfolded.append(unfolded_per)
        folded = DomainPer(
            plim.limit,
            PullbackRel(iso, unfolded_per),
            unfolded_per.flags,
            trace=(f"stage omega+{k} folded onto the limit carrier",),
            name=f"stage-omega+{k}",
        )
        pe = PerEmbedding(
            identity_embedding(plim.limit),
            current,
            folded,
            name=f"f(omega+{k - 1}),(omega+{k})",
        )
        chain.stages.append((omega_plus(k), folded))
        chain.embeddings.append(pe)
        current = folded
    return chain


# ---------------------------------------------------------------------------
# stabilisation


@dataclass
class StabilizationVerdict:
    kind: str  # "stabilized" | "witness" | "unknown"
    stage: Optional[Ordinal] = None
    witness: object = None
    bound: Optional[int] = None

    @property
    def stabilized(self):
        return self.kind == "stabilized"


def _successor_fragment_totals(chain: PerChain, rank_bound: int):
    """Fragment totals of the first stage past omega, as unfolded values.

    Values are clamped one stage below the built finite depth so that their
    folds land on built stages.
    """
    unfolded = chain.unfolded[0]
    depth = min(rank_bound, chain.per_limit.limit.max_stage() - 1)
    ts, _ = unfolded.totals(depth)
    return ts, depth


def _flatnat_counterexample_shape(expr: FunctorExpr, env) -> Optional[Tuple[str, str]]:
    """Matches A + [N -> X] with N the flat-naturals identity per; returns
    (positive parameter name, exponent name)."""
    if isinstance(expr, Sum):
        left, right = expr.left, expr.right
        if isinstance(left, ConstD) and isinstance(right, Exp):
            exp_per = env.get(right.param)
            if (
                exp_per is not None
                and isinstance(exp_per.rel, NatIdentityRel)
                and isinstance(right.body, Id)
            ):
                return left.name, right.param
    return None


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


def _omega_class_images(chain: PerChain, depth: int) -> List[Token]:
    """Images of one representative per omega-class; the omega-totals reach
    one stage deeper than the fragment values they are compared with."""
    per_omega = chain.per_limit.per
    omega_totals, _ = per_omega.totals(depth + 1)
    return [
        chain.iso.fwd(cls[0]) for cls in group_classes(omega_totals, per_omega.related)
    ]


def stabilization_probe(chain: PerChain, rank_bound: int) -> StabilizationVerdict:
    """First stage whose successor adds no totals on the checked fragment,
    or a concrete new total, or an honest unknown.

    At omega, every fragment total t of stage omega+1 must be related to the
    image of some omega-total.  The probe first folds t back with
    s = iso.inv(t).  If s is related to itself at omega, s is an omega-total;
    if moreover iso.fwd(s) is related to t, s is an omega-total whose image
    is related to t, so accepting t is sound.  Only a t that does not fold
    back (inv fails, or either check is not True) is compared with one image
    per omega-class, the omega-totals being enumerated once on first need."""
    # finite stages: exact check that stage n+1 totals reduce along f-;
    # stages past the exhaustive-verification depth are left to the omega
    # check, which subsumes them
    finite = [(o, p) for (o, p) in chain.stages if o.is_finite]
    for n in range(min(len(finite) - 1, 4)):
        per_n, per_n1 = finite[n][1], finite[n + 1][1]
        emb = chain.embeddings[n].emb
        ts, exact = per_n1.totals()
        if not exact:
            break
        reducible = True
        for t in ts:
            down = emb.proj(t)
            if per_n.related(down, down) is not True or per_n1.related(
                emb.fwd(down), t
            ) is not True:
                reducible = False
                break
        if reducible:
            return StabilizationVerdict("stabilized", fin(n), bound=rank_bound)

    if chain.per_limit is None or not chain.unfolded:
        return StabilizationVerdict("unknown", bound=rank_bound)

    shape = _flatnat_counterexample_shape(chain.functor, chain.env)
    if shape is not None:
        report = counterexample_phi(chain.env[shape[0]], chain=chain, bound=rank_bound)
        return StabilizationVerdict(
            "witness", OMEGA, witness=report, bound=rank_bound
        )
    if _has_infinite_exponent(chain.functor, chain.env):
        # the fragment holds only finitely supported functions, so it cannot
        # see a new total that needs infinite support
        return StabilizationVerdict("unknown", OMEGA, bound=rank_bound)
    return _omega_verdict(chain, rank_bound)


def _has_infinite_exponent(expr: FunctorExpr, env) -> bool:
    """Some exponent of expr ranges over a carrier that is not finite."""
    if isinstance(expr, Exp):
        return not env[expr.param].carrier.finite or _has_infinite_exponent(
            expr.body, env
        )
    if isinstance(expr, (Sum, Prod)):
        return _has_infinite_exponent(expr.left, env) or _has_infinite_exponent(
            expr.right, env
        )
    return False


def _omega_verdict(chain: PerChain, rank_bound: int) -> StabilizationVerdict:
    """Whether stage omega+1 adds no totals on the fragment: fold-back first,
    omega-class images only for a total that does not fold back."""
    unfolded = chain.unfolded[0]
    fragment, depth = _successor_fragment_totals(chain, rank_bound)
    images = None
    for t in fragment:
        if _folds_back(chain, t):
            continue
        if images is None:
            images = _omega_class_images(chain, depth)
        if not any(unfolded.related(t, img) is True for img in images):
            return StabilizationVerdict("witness", OMEGA, witness=t, bound=depth)
    return StabilizationVerdict("stabilized", OMEGA, bound=depth)


# ---------------------------------------------------------------------------
# the non-stabilisation witness


def _nest_step(chain: PerChain, value):
    """x |-> fold of in1(constantly x)."""
    carrier: MultiSumBasis = chain.iso.unfolded
    fun_part: FunBasis = carrier.parts[1]
    const_fn = fun_part.make([(fun_part.exponent.bottom, value)])
    return chain.iso.inv(carrier.inject(1, const_fn))


@dataclass
class CounterexampleReport:
    # the witness phi = in1(n |-> x_n) has infinite support and no token; it
    # is kept as its nestings x_0, x_1, ..., each a limit token, as far as
    # they are checked
    nests: List[Token]
    pretty: str  # the witness's printed name
    ranks: Dict[int, int]  # n -> reported rank (nesting depth)
    total_stages: Dict[int, int]  # n -> least chain stage with x_n total
    equivariant_on_fragment: bool
    check_bound: int  # the equivariance check covers x_n for n < check_bound
    total_at_finite_stage: bool
    chain: PerChain


def counterexample_phi(
    A: DomainPer, chain: Optional[PerChain] = None, bound: int = 5, nat_bound: int = 8
) -> CounterexampleReport:
    """The strict iteration x0 = in0(a), x_{n+1} = in1(const x_n), packaged
    with its rank pattern over the chain of A + [flatnat -> X]."""
    a_totals, _ = A.totals(bound)
    if not a_totals:
        raise TrivialParameter(f"parameter {A.name or A.carrier.name} has no totals")
    a0 = min(a_totals, key=lambda t: t.pretty)

    if chain is None:
        from .builtins import flatnat_per

        env = {"A": A, "N": flatnat_per(nat_bound)}
        expr = Sum(ConstD("A"), Exp("N", Id()))
        chain = per_chain_extend(expr, env, omega_plus(1), n_finite=bound + 2)

    # x_n first presents at stage n + 1, and checking phi at index n touches
    # stage n + 2: build only the nestings that are checked
    check_bound = min(nat_bound, chain.per_limit.limit.max_stage() - 2)
    nests = [chain.iso.inv(chain.iso.unfolded.inject(0, a0))]
    while len(nests) < max(bound + 1, check_bound):
        nests.append(_nest_step(chain, nests[-1]))

    total_stages = {n: chain.per_limit.rank_of(nests[n]) for n in range(bound + 1)}
    ranks = {n: stage - 1 for (n, stage) in total_stages.items()}

    # phi ~ phi over the flat naturals iff x_n ~ x_n at omega for every n;
    # the check covers n < check_bound, so only a False refutes it
    per_omega = chain.per_limit.per
    equivariant = all(
        per_omega.related(x, x, check_bound) is not False
        for x in nests[:check_bound]
    )

    # the values of phi become total at strictly later stages as the index
    # grows, so phi itself is total at no finite stage among checked ranks
    stages_seq = [total_stages[n] for n in sorted(total_stages)]
    increasing = all(b > a for a, b in zip(stages_seq, stages_seq[1:]))

    descriptor = ("natfn", "nest", ("tok", nests[0].key))
    return CounterexampleReport(
        nests,
        f"in1(<fn {descriptor}>)",
        ranks,
        total_stages,
        equivariant,
        check_bound,
        not increasing,
        chain,
    )


# ---------------------------------------------------------------------------
# mediating algebra morphisms


@dataclass
class MediatingReport:
    maps: List[PerEmbedding]
    coherent: bool
    morphism_law_ok: bool
    witness: object = None


def _derived_projection(src, tgt, fwd):
    def proj(q):
        below = [p for p in src.tokens().tokens if tgt.leq(fwd(p), q)]
        return src.lub(below) if below else src.bottom

    return proj


def mediating_algebra_morphism(
    expr: FunctorExpr,
    env: Dict[str, DomainPer],
    algebra: Tuple[DomainPer, PerMap],
    upto: int = 2,
    bound: Optional[int] = None,
) -> MediatingReport:
    """h_0 from the trivial per, h_{n+1} = g . F(h_n); checks the chain
    coherence and the algebra-morphism law on the fragment."""
    E, g = algebra
    ok, w = is_equivariant(g, g.source, g.target, bound)
    if ok is False:
        raise NotAnAlgebra("algebra map is not equivariant", witness=w)
    for flag_name in ("convex", "local", "complete"):
        if getattr(E.flags, flag_name) == "no":
            raise NotAnAlgebra(f"algebra carrier per is not {flag_name}")

    domain_env = {k: v.carrier for (k, v) in env.items()}
    dstages = omega_chain(expr, domain_env, upto)

    maps: List[PerEmbedding] = []
    h_emb = Embedding(
        dstages[0].basis,
        E.carrier,
        lambda t: E.carrier.bottom,
        lambda t: dstages[0].basis.bottom,
        name="h0",
    )
    pers = [trivial_per()]
    maps.append(PerEmbedding(h_emb, pers[0], E, name="h0"))
    for n in range(upto):
        f_h = apply_functor_embedding(expr, maps[-1].emb, domain_env)
        per_next = apply_functor_per(expr, pers[-1], env)
        pers.append(per_next)

        def fwd(t, f_h=f_h):
            return g(f_h.fwd(t))

        emb = Embedding(
            dstages[n + 1].basis,
            E.carrier,
            fwd,
            _derived_projection(dstages[n + 1].basis, E.carrier, fwd),
            name=f"h{n + 1}",
        )
        maps.append(PerEmbedding(emb, per_next, E, name=f"h{n + 1}"))

    coherent = True
    witness = None
    for n in range(upto):
        step = dstages[n + 1].embed_from_prev
        for t in dstages[n].basis.tokens().tokens:
            if maps[n].emb.fwd(t) != maps[n + 1].emb.fwd(step.fwd(t)):
                coherent = False
                witness = (n, t)

    law_ok = True
    for n in range(1, upto + 1):
        # h_n = g . F(h_{n-1}) holds by construction; check h as an
        # equiembedding on the fragment
        v = is_equiembedding(maps[n], bound)
        if not v.ok:
            law_ok = False
            witness = (n, v.clause, v.witness)

    return MediatingReport(maps, coherent, law_ok, witness)

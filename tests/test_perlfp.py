import sys

import pytest

from domania import perlfp
from domania.basis import Checks, Token, Verdict, tok
from domania.builtins import (
    flat_per,
    flatnat_per,
    sierpinski_per,
    trivial_per,
)
from domania.construct import TokenMap, fun_basis
from domania.errors import NotAnAlgebra, TrivialParameter
from domania.ordinals import OMEGA, fin, omega_plus
from domania.cli import _stage_rows_for_chain, build_parser, cmd_counterexample
from domania.per import (
    FiniteRel,
    FunRel,
    LimitRel,
    check_property,
    is_equiembedding,
    replace,
)
from domania.perlfp import (
    LINKS,
    StabilizationVerdict,
    _folds_back,
    _omega_verdict,
    _stage_stabilizes,
    _successor_fragment_totals,
    apply_functor_per,
    counterexample_phi,
    functor_is_trivial,
    mediating_algebra_morphism,
    per_chain_extend,
    stabilization_probe,
)
from domania.spfunctor import (
    MAPS,
    ConstD,
    Exp,
    Id,
    LimitBasis,
    Prod,
    Sum,
    functor_action,
    omega_chain,
)
from test_per import assert_representatives_match, chain_link

RUNNING = Sum(ConstD("A"), Exp("B", Id()))


def running_env():
    return {"A": sierpinski_per(), "B": sierpinski_per()}


def flatnat_env(nat_bound=8):
    return {"A": sierpinski_per(), "N": flatnat_per(nat_bound)}


FLATNAT_EQ = Sum(ConstD("A"), Exp("N", Id()))


def flatnat_chain(A, bound, nat_bound=8):
    # the chain the counterexample command builds for A + [flatnat -> X]
    env = {"A": A, "N": flatnat_per(nat_bound)}
    return per_chain_extend(FLATNAT_EQ, env, omega_plus(1), n_finite=bound + 2)


def test_running_chain_class_counts():
    chain = per_chain_extend(RUNNING, running_env(), fin(3))
    counts = []
    for (o, per) in chain.stages[1:]:
        classes, exact = per.classes()
        assert exact
        counts.append(len(classes))
    assert counts == [1, 2, 3]


# equation, parameters, and the rank bounds at which every stage is counted
CLASS_COUNT_CASES = {
    "running": (RUNNING, running_env, (1, 2, 3, 4)),
    "qcb": (
        Sum(ConstD("FB"), Exp("S", Id())),
        lambda: {"FB": flat_per("flatbool"), "S": sierpinski_per()},
        (1, 2),
    ),
    "constant": (ConstD("A"), running_env, (2,)),
    "sum-of-product": (Sum(ConstD("A"), Prod(ConstD("B"), Id())), running_env, (2,)),
    # an infinite exponent: every stage falls back to grouping the totals
    "flatnat": (FLATNAT_EQ, flatnat_env, (3,)),
}


@pytest.mark.parametrize("name", sorted(CLASS_COUNT_CASES))
def test_class_count_matches_grouped_classes(name):
    # the representatives behind the stage rows' count against their slow
    # reference, at every stage the per-lfp command builds
    expr, env, rank_bounds = CLASS_COUNT_CASES[name]
    for rank_bound in rank_bounds:
        chain = per_chain_extend(
            expr, env(), omega_plus(1), n_finite=max(4, rank_bound + 1)
        )
        for (o, per) in chain.stages:
            assert_representatives_match(per, rank_bound, (rank_bound, str(o)))


# equations whose chains the link, stabilization and tag rules are checked on
RULE_CASES = {
    "running": (RUNNING, running_env),
    "qcb": (
        Sum(ConstD("FB"), Exp("S", Id())),
        lambda: {"FB": flat_per("flatbool"), "S": sierpinski_per()},
    ),
    "sum-of-product": (
        Sum(ConstD("A"), Prod(ConstD("B"), Id())),
        lambda: {"A": sierpinski_per(), "B": flat_per("flatbool")},
    ),
    "constant": (ConstD("A"), running_env),
}


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_link_rule_agrees_with_the_scans(name):
    # links 2-4: the functoriality rule's verdict against the exhaustive
    # scans of is_equiembedding, which the rule replaces
    expr, env = RULE_CASES[name]
    env = env()
    chain = per_chain_extend(expr, env, fin(4))
    rule = functor_action(expr, True, env, LINKS)
    for n in range(2, 5):
        v = is_equiembedding(*chain_link(chain, n))
        assert rule == (True if v.holds is True else None), n


def _reduces_along_link(chain, n):
    """Reference for `_stage_stabilizes`, the totals scan: each stage n+1
    total t has a total s = f-(t) at stage n with f(s) ~ t; None when the
    stage n+1 totals are not exact."""
    per_n, per_n1 = chain.stages[n][1], chain.stages[n + 1][1]
    emb = chain.embeddings[n]
    ts, exact = per_n1.totals()
    if not exact:
        return None
    for t in ts:
        down = emb.proj(t)
        if per_n.related(down, down) is not True or per_n1.related(
            emb.fwd(down), t
        ) is not True:
            return False
    return True


def _equal_class_counts(chain, n):
    """Reference for `_stage_stabilizes` over an equiembedding, which is
    injective on classes and sends totals to totals: the exact class counts
    of stages n and n+1 are equal; None when a count is not exact."""
    here, here_exact = chain.stages[n][1].class_count()
    there, there_exact = chain.stages[n + 1][1].class_count()
    return here == there if here_exact and there_exact else None


# the link rule's equations, three more over Sierpinski parameters, and two
# with a flatnat parameter: unused, so that link 1 is a bound-3 scan, and as
# an exponent, where no count is exact
STABILIZE_CASES = {
    **RULE_CASES,
    "unused-flatnat": (Sum(ConstD("A"), Id()), flatnat_env),
    "flatnat": (FLATNAT_EQ, flatnat_env),
    "square": (Sum(ConstD("A"), Prod(Id(), Id())), running_env),
    "product-of-sum": (
        Sum(ConstD("A"), Prod(Id(), Sum(ConstD("A"), ConstD("B")))), running_env
    ),
    "no-variable": (Sum(ConstD("A"), Exp("B", ConstD("A"))), running_env),
}
STABILIZE_VERDICTS = {
    "constant": [False, True, True, True],
    "no-variable": [False, True, True, True],
    "flatnat": [None] * 4,
}


@pytest.mark.parametrize("name", sorted(STABILIZE_CASES))
def test_class_counts_agree_with_the_totals_scan(name):
    # stages 0-3: the scan of stage n+1's representatives against the
    # totals scan and the class-count comparison it replaces
    expr, env = STABILIZE_CASES[name]
    chain = per_chain_extend(expr, env(), fin(4))
    verdicts = []
    for n in range(4):
        verdicts.append(_stage_stabilizes(chain, n))
        assert verdicts[-1] is _reduces_along_link(chain, n), n
        assert verdicts[-1] is _equal_class_counts(chain, n), n
    assert verdicts == STABILIZE_VERDICTS.get(name, [False] * 4)
    if name == "unused-flatnat":
        assert chain.link_bounds[0] == 3


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_forward_tags_agree_with_the_projection_walk(name):
    # stages 0-4: each stage enumerates completely, so every tag after stage
    # 0 comes from the forward images of the stage below, with no
    # projection; a fresh limit's canonical walk is the reference
    expr, env = RULE_CASES[name]
    stages = omega_chain(expr, {k: p.carrier for (k, p) in env().items()}, 4)

    def forbidden(t):
        raise AssertionError("projection walk")

    limit = LimitBasis(stages)
    projections = [stage.embed_from_prev.proj_map for stage in stages[1:]]
    for stage in stages[1:]:
        stage.embed_from_prev.proj_map = forbidden
    toks = limit.tokens()
    for (stage, proj) in zip(stages[1:], projections):
        stage.embed_from_prev.proj_map = proj
    walk = LimitBasis(stages)
    want = []
    for (n, stage) in enumerate(stages):
        for t in stage.basis.tokens().tokens:
            assert limit.canonical(n, t) == walk.canonical(n, t), (n, t)
            if walk.canonical(n, t) not in want:
                want.append(walk.canonical(n, t))
    assert list(toks.tokens) == want


def test_stage_rows_count_without_enumerating_stage_five(monkeypatch):
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5)
    stage4, stage5 = chain.stages[4][1], chain.stages[5][1]

    def forbidden(*args, **kwargs):
        raise AssertionError("stage-5 totals enumerated")

    enumerate_fun_totals = FunRel.totals

    def fun_totals(self, bound=None):
        if self.body_per is stage4:
            forbidden()
        return enumerate_fun_totals(self, bound)

    monkeypatch.setattr(stage5, "totals", forbidden)
    monkeypatch.setattr(FunRel, "totals", fun_totals)
    rows = _stage_rows_for_chain(chain, 4)
    assert rows[5]["index"] == "5"
    assert rows[5]["total_class_count"] == 5


def test_constant_functor_stabilizes_at_one():
    chain = per_chain_extend(ConstD("A"), {"A": sierpinski_per()}, omega_plus(1), n_finite=3)
    v = stabilization_probe(chain, rank_bound=3)
    assert v.holds is True
    assert v.stage == fin(1)


def test_trivial_functor_every_stage_trivial():
    env = running_env()
    trivial_eq = Exp("B", Id())  # [B -> X] applied to the trivial per stays trivial
    assert functor_is_trivial(trivial_eq, env)
    chain = per_chain_extend(trivial_eq, env, fin(3))
    for (o, per) in chain.stages:
        ts, _ = per.totals()
        assert ts == []
    assert not functor_is_trivial(RUNNING, env)


def test_running_example_stabilizes_at_omega():
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5)
    for rank_bound in (1, 2, 3, 4):
        v = stabilization_probe(chain, rank_bound)
        assert v.holds is True
        assert v.stage == OMEGA


def test_probe_decides_without_listing_the_limit_fragment(monkeypatch):
    # a non-total point of a function map over the staged body tries bottom
    # first, so the probe finds its maps before it lists the limit's tokens
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5)

    def listed(self, bound=None):
        raise AssertionError(f"the limit's tokens were listed at bound {bound}")

    monkeypatch.setattr(LimitBasis, "tokens", listed)
    v = stabilization_probe(chain, 4)
    assert (v.holds, v.stage) == (True, OMEGA)


def test_chain_links_and_stage_pers_share_one_basis_per_stage():
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5)
    links = chain.embeddings
    assert chain.stages[0][1].carrier is links[0].source
    for n in range(1, 5):
        assert links[n - 1].target is chain.stages[n][1].carrier is links[n].source
    assert chain.iso.unfolded is chain.unfolded[0].carrier


def full_fragment_verdict(chain, rank_bound):
    """Reference omega check on every fragment total, not one per class: a
    total that does not fold back is compared with the image of the first
    member of each grouped omega-class, as the probe did before it read
    representatives."""
    unfolded = chain.unfolded[0]
    depth = min(rank_bound, chain.per_limit.limit.max_stage() - 1)
    fragment, _ = unfolded.totals(depth)
    images = None
    for t in fragment:
        if _folds_back(chain, t):
            continue
        if images is None:
            classes, _ = chain.per_limit.per.classes(depth + 1)
            images = [chain.iso.fwd(cls[0]) for cls in classes]
        if not any(unfolded.related(t, img) is True for img in images):
            return StabilizationVerdict(False, OMEGA, witness=t, bound=depth)
    return StabilizationVerdict(True, OMEGA, bound=depth)


@pytest.mark.parametrize(
    "expr, env, rank_bounds",
    [
        (RUNNING, running_env(), (1, 2, 3, 4)),
        (
            Sum(ConstD("FB"), Exp("S", Id())),
            {"FB": flat_per("flatbool"), "S": sierpinski_per()},
            (1, 2),
        ),
        (ConstD("A"), {"A": sierpinski_per()}, (1, 2, 3)),
    ],
)
def test_fold_back_agrees_with_class_search(expr, env, rank_bounds):
    for rank_bound in rank_bounds:
        chain = per_chain_extend(
            expr, env, omega_plus(1), n_finite=max(4, rank_bound + 1)
        )
        fragment, _ = _successor_fragment_totals(chain, rank_bound)
        assert fragment
        # the fold-back alone decides every fragment representative here
        assert all(_folds_back(chain, t) for t in fragment), rank_bound
        got = _omega_verdict(chain, rank_bound)
        want = full_fragment_verdict(chain, rank_bound)
        assert got == want


def test_omega_verdict_on_representatives_finds_a_witness():
    # a fragment representative that neither folds back nor meets an
    # omega-class image is reported, as the full-fragment reference reports
    # a member of its class
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=4)
    # an omega per relating nothing: no representative folds back
    chain.per_limit.per = replace(
        chain.per_limit.per, rel=FiniteRel(chain.per_limit.limit, ())
    )
    got = _omega_verdict(chain, 2)
    want = full_fragment_verdict(chain, 2)
    assert got.holds is False
    assert (got.holds, got.stage, got.bound) == (want.holds, want.stage, want.bound)


def test_probe_at_omega_enumerates_no_omega_totals(monkeypatch):
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=4)

    def forbidden(*args, **kwargs):
        raise AssertionError("omega-totals enumerated")

    monkeypatch.setattr(chain.per_limit.per, "totals", forbidden)
    monkeypatch.setattr(chain.per_limit.per, "classes", forbidden)
    v = stabilization_probe(chain, rank_bound=3)
    assert v.holds is True
    assert v.stage == OMEGA


def test_probe_and_stage_rows_enumerate_no_limit_or_unfolded_totals(monkeypatch):
    # rank 4 on the running example: the omega and omega+1 rows and the
    # omega check read representatives, and never list the totals of the
    # limit, of a stage past omega, or of the unfolded per
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5)

    def forbidden(*args, **kwargs):
        raise AssertionError("totals enumerated")

    monkeypatch.setattr(LimitRel, "totals", forbidden)
    monkeypatch.setattr(perlfp.PullbackRel, "totals", forbidden)
    monkeypatch.setattr(chain.unfolded[0], "totals", forbidden)
    monkeypatch.setattr(chain.unfolded[0].rel, "totals", forbidden)
    v = stabilization_probe(chain, rank_bound=4)
    assert (v.holds, v.stage, v.bound) == (True, OMEGA, 4)
    rows = _stage_rows_for_chain(chain, 4)
    assert [r["total_class_count"] for r in rows] == [0, 1, 2, 3, 4, 5, 4, 5]


def test_limit_and_folded_pers_decide_a_question_once(monkeypatch):
    # the omega and omega+1 pers keep their verdicts like every other per
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1))
    calls = []
    for rel in (LimitRel, perlfp.PullbackRel):
        def counting(self, a, b, related=rel.related):
            calls.append(type(self))
            return related(self, a, b)

        monkeypatch.setattr(rel, "related", counting)
    for (_, per) in chain.stages[-2:]:
        t = per.carrier.tokens(2).tokens[-1]
        calls.clear()
        assert per.related(t, t) is per.related(t, t)
        assert calls.count(type(per.rel)) == 1


def test_chain_stage_pers_preserve_properties():
    chain = per_chain_extend(RUNNING, running_env(), fin(3))
    for (o, per) in chain.stages[1:]:
        for prop in ("convex", "local", "complete"):
            assert check_property(per, prop).holds, (str(o), prop)
            assert getattr(per.flags, prop) is not False, (str(o), prop)


def test_chain_links_are_equiembeddings():
    chain = per_chain_extend(RUNNING, running_env(), fin(3))
    for n in range(1, 4):
        assert is_equiembedding(*chain_link(chain, n)).holds


def test_counterexample_phi_rank_pattern():
    report = counterexample_phi(flatnat_chain(sierpinski_per(), 5), bound=5)
    assert report.ranks == {n: n for n in range(6)}
    assert report.total_stages == {n: n + 1 for n in range(6)}
    assert report.checks["fragment-equivariance"].holds is True
    assert report.checks["escapes-finite-stages"].holds is True
    assert len(report.nests) == 6
    assert all(isinstance(x, Token) for x in report.nests)


def const(fun, x):
    # the constant map at x in the function basis `fun`
    return fun.make([(fun.exponent.bottom, x)])


def test_counterexample_phi_nests_the_base():
    # x_0 folds in0(a0), the summand without the variable; x_{n+1} folds
    # in1 of the constant map at x_n, the path to the variable
    chain = flatnat_chain(sierpinski_per(), 4)
    report = counterexample_phi(chain, bound=4)
    carrier = chain.iso.unfolded
    x = chain.iso.inv(carrier.inject(0, tok("top")))
    assert report.pretty == f"in1(<fn ('natfn', 'nest', ('tok', {x.pretty!r}))>)"
    for n in range(5):
        assert report.nests[n] == x
        x = chain.iso.inv(carrier.inject(1, const(carrier.parts[1], x)))


# equation, the summand of its base, its nest step x |-> F at x before the
# fold, the printed context of the witness, and the per-lfp rank bound
NESTING_CASES = {
    "swapped": (
        Sum(Exp("N", Id()), ConstD("A")),
        1,
        lambda c, x: c.inject(0, const(c.parts[0], x)),
        "in0({})",
        2,
    ),
    "product": (
        Sum(ConstD("A"), Prod(Exp("N", Id()), ConstD("A"))),
        0,
        lambda c, x: c.inject(
            1, c.parts[1].pair(const(c.parts[1].left, x), tok("top"))
        ),
        "in1(({},top))",
        3,
    ),
    "nested": (
        Sum(ConstD("A"), Exp("N", Exp("N", Id()))),
        0,
        lambda c, x: c.inject(1, const(c.parts[1], const(c.parts[1].values, x))),
        "in1({})",
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(NESTING_CASES))
def test_nesting_rule_follows_the_path_to_the_variable(name):
    expr, side, step, context, rank_bound = NESTING_CASES[name]
    chain = per_chain_extend(
        expr, flatnat_env(), omega_plus(1), n_finite=max(4, rank_bound + 1)
    )
    report = counterexample_phi(chain, bound=rank_bound)
    base = report.nests[0]
    assert chain.iso.fwd(base) == chain.iso.unfolded.inject(side, tok("top"))
    for (x, nxt) in zip(report.nests, report.nests[1:]):
        assert nxt == chain.iso.inv(step(chain.iso.unfolded, x))
    assert report.total_stages == {n: n + 1 for n in range(rank_bound + 1)}
    assert report.checks.all_pass
    descriptor = ("natfn", "nest", ("tok", base.pretty))
    assert report.pretty == context.format(f"<fn {descriptor}>")
    verdict = stabilization_probe(chain, rank_bound)
    assert (verdict.holds, verdict.witness) == (False, report.pretty)


@pytest.mark.parametrize("broken", ["fragment-equivariance", "escapes-finite-stages"])
def test_probe_reports_the_witness_only_when_both_checks_hold(monkeypatch, broken):
    chain = flatnat_chain(sierpinski_per(), 2)
    derive = perlfp.counterexample_phi

    def breaking(chain, bound):
        report = derive(chain, bound)
        checks = Checks()
        for (name, v) in report.checks.entries:
            checks.add(name, v.holds and name != broken, v.witness, v.bound)
        return replace(report, checks=checks)

    monkeypatch.setattr(perlfp, "counterexample_phi", breaking)
    verdict = stabilization_probe(chain, 2)
    assert (verdict.holds, verdict.witness, verdict.bound) == (None, None, 2)
    assert verdict.report is not None


def test_no_nesting_witness_without_the_variable_under_the_exponent():
    chain = per_chain_extend(
        Sum(ConstD("A"), Exp("N", ConstD("A"))), flatnat_env(), omega_plus(1)
    )
    assert counterexample_phi(chain, bound=2) is None
    verdict = stabilization_probe(chain, 2)
    assert (verdict.holds, verdict.report) == (None, None)


def test_counterexample_phi_check_bound_clamped_to_built_stages():
    # stages 0..5 are built, so x_n for n < 3 can be checked at omega; the
    # exponent's enumerated totals bound it too
    for (nat_bound, checked) in ((6, 3), (2, 2)):
        chain = flatnat_chain(sierpinski_per(), 3, nat_bound)
        report = counterexample_phi(chain, bound=3)
        assert report.checks["fragment-equivariance"].bound == checked


def test_counterexample_phi_flatbool_parameter():
    report = counterexample_phi(flatnat_chain(flat_per("flatbool"), 3), bound=3)
    assert report.ranks == {n: n for n in range(4)}


def test_counterexample_phi_trivial_parameter():
    # a base parameter without totals leaves the equation no nesting
    # witness, and the counterexample command rejects it
    assert counterexample_phi(flatnat_chain(trivial_per(), 2), bound=2) is None
    args = build_parser().parse_args(["counterexample", "--param", "trivial"])
    with pytest.raises(TrivialParameter):
        cmd_counterexample(args)


def _step_image(B, h):
    """[id_B -> h] by the step-image rule F's exponent action replaced: each
    step (p, q) goes to (p, h(q)); it holds for maps that preserve joins."""
    src, tgt = fun_basis(B, h.source), fun_basis(B, h.target)
    return TokenMap(
        src, tgt, lambda t: tgt.make([(p, h(q)) for (p, q) in src.pairs(t)])
    )


# F on forward maps with the step-image rule at every exponent
STEP_IMAGE_MAPS = MAPS[:3] + (_step_image,)

# (equation, parameters, last stage): links up to stage 4, or up to stage 3
# where listing stage 3, the source of link 4, runs away
EXP_ACTION_CASES = {
    **{name: (expr, env, 4) for (name, (expr, env)) in RULE_CASES.items()},
    "flatnat": (FLATNAT_EQ, flatnat_env, 4),
    "product-body": (
        Sum(ConstD("A"), Exp("B", Prod(Id(), Id()))), running_env, 3
    ),
    "flatbool-exponent": (
        Sum(ConstD("A"), Exp("FB", Id())),
        lambda: {"A": sierpinski_per(), "FB": flat_per("flatbool")},
        4,
    ),
    "discrete-product": (
        Sum(Prod(ConstD("D"), Exp("B", Id())), ConstD("A")),
        lambda: {
            "A": sierpinski_per(), "B": sierpinski_per(), "D": flat_per("discrete(2)"),
        },
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(EXP_ACTION_CASES))
def test_exponent_action_agrees_with_the_step_image_rule(name):
    # each link past the first is F on the link below; F's exponent action
    # post-composes on the premise closure, and on an embedding's forward
    # map it gives the step image, token for token
    expr, env, last = EXP_ACTION_CASES[name]
    carriers = {k: p.carrier for (k, p) in env().items()}
    stages = omega_chain(expr, carriers, last)
    checked = 0
    for n in range(2, last + 1):
        below = stages[n - 1].embed_from_prev.fwd_map
        rule = functor_action(expr, below, carriers, STEP_IMAGE_MAPS)
        link = stages[n].embed_from_prev
        basis = stages[n - 1].basis
        for t in basis.tokens(None if basis.finite else 3).tokens:
            assert link.fwd(t) == rule(t), (n, t.pretty)
            checked += 1
    assert checked > 0


def test_flatnat_chain_not_stabilized():
    chain = per_chain_extend(FLATNAT_EQ, flatnat_env(8), omega_plus(1), n_finite=6)
    v = stabilization_probe(chain, rank_bound=4)
    assert v.holds is False
    assert v.report.ranks[3] == 3
    assert v.witness == v.report.pretty
    assert v.witness.startswith("in1(<fn ('natfn', 'nest', ")


def test_mediating_morphism_identity_family():
    # algebra = the fixed point itself with the fold map: h_n matches the
    # canonical stage inclusion into the limit, token for token
    env = running_env()
    chain = per_chain_extend(RUNNING, env, omega_plus(1), n_finite=4)
    report = mediating_algebra_morphism(
        RUNNING, env, (chain.per_limit.per, chain.iso.inv), upto=2, bound=2
    )
    assert report.coherent and report.morphism_law_ok
    for n in (0, 1, 2):
        emb = chain.per_limit.limit.stage_embedding(n)
        for t in report.maps[n].source.tokens().tokens:
            assert report.maps[n](t) == emb.fwd(t)


def test_mediating_morphism_two_step_unrolling():
    # hand-computable direct recursion: h2 sends stage-2 tokens to their
    # canonical limit images
    env = running_env()
    chain = per_chain_extend(RUNNING, env, omega_plus(1), n_finite=4)
    fold = chain.iso.inv
    report = mediating_algebra_morphism(RUNNING, env, (chain.per_limit.per, fold), upto=2, bound=2)
    h2 = report.maps[2]
    lim = chain.per_limit.limit
    for t in h2.source.tokens().tokens:
        assert h2(t) == lim.canonical(2, t)


def test_mediating_morphism_into_an_algebra_that_identifies_classes():
    # g folds A + E onto E = Sierpinski, sending both summands' top to top:
    # h_2 sends two stage-2 classes to one class, so it is no embedding,
    # yet it is a morphism of pers, an equivariant map
    expr = Sum(ConstD("A"), Id())
    env = {"A": sierpinski_per()}
    E = sierpinski_per()
    FE = apply_functor_per(expr, E, env)

    def fold(v):
        spl = FE.carrier.split(v)
        return E.carrier.bottom if spl is None else spl[1]

    report = mediating_algebra_morphism(expr, env, (E, fold), upto=2)
    assert report.coherent and report.morphism_law_ok
    stage2 = apply_functor_per(expr, apply_functor_per(expr, trivial_per(), env), env)
    h2 = report.maps[2]
    x, y = stage2.classes()[0]
    assert [len(c) for c in (x, y)] == [1, 1]
    assert stage2.related(x[0], y[0]) is False
    assert E.related(h2(x[0]), h2(y[0])) is True


def test_mediating_rejects_non_equivariant_algebra():
    env = running_env()
    chain = per_chain_extend(RUNNING, env, omega_plus(1), n_finite=3)
    lim_carrier = chain.per_limit.limit

    def bad(v):
        return lim_carrier.bottom

    with pytest.raises(NotAnAlgebra):
        mediating_algebra_morphism(RUNNING, env, (chain.per_limit.per, bad), upto=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5),
        lambda: flatnat_chain(sierpinski_per(), 3),
    ],
    ids=["running", "flatnat"],
)
def test_chain_scans_no_ep_pair_law(monkeypatch, build):
    # links and the fixed-point iso are ep-pairs by construction; the
    # brute-force laws are forbidden under every name a module binds them to
    def forbidden(*args, **kwargs):
        raise AssertionError("ep-pair laws scanned")

    for name, module in list(sys.modules.items()):
        if name.startswith("domania") and hasattr(module, "verify_embedding"):
            monkeypatch.setattr(module, "verify_embedding", forbidden)
    assert build().iso is not None


def test_chain_rejects_a_failing_link(monkeypatch):
    # over pers the chain's links are equiembeddings, so a failing verdict
    # stands in for one: the chain, which alone decides links, rejects it
    failing = Verdict(False, "w", clause="reflection")
    monkeypatch.setattr(perlfp, "is_equiembedding", lambda *args: failing)
    with pytest.raises(NotAnAlgebra, match="chain link 1"):
        per_chain_extend(RUNNING, running_env(), fin(2))


def test_countably_based_trace():
    chain = per_chain_extend(RUNNING, running_env(), fin(2))
    for (o, per) in chain.stages:
        assert per.flags.countably_based is not False
        ts = per.carrier.tokens(6)
        assert len(ts.tokens) < 1000


def test_mediating_morphism_unique_on_fragment():
    # exhaustive search over candidate token maps: only the constructed one
    # satisfies the algebra-morphism law on the small instance A + X
    from domania.spfunctor import Sum, ConstD, Id
    import itertools

    expr = Sum(ConstD("A"), Id())
    env = {"A": sierpinski_per()}
    chain = per_chain_extend(expr, env, omega_plus(1), n_finite=3)
    fold = chain.iso.inv
    report = mediating_algebra_morphism(expr, env, (chain.per_limit.per, fold), upto=1, bound=2)
    assert report.coherent and report.morphism_law_ok
    h1 = report.maps[1]
    d1 = h1.source
    d1_toks = list(d1.tokens().tokens)
    lim = chain.per_limit.limit
    sum_carrier = chain.iso.unfolded
    f12 = chain.per_limit.limit.stages[2].embed_from_prev
    e_frag = list(lim.tokens(2).tokens)

    def law_holds(cand):
        # h = fold . F(h) . f_{1,2} with F(h) acting by cases on the sum
        for t in d1_toks:
            u = f12.fwd(t)
            spl = sum_carrier.split(u)
            if spl is None:
                fh = chain.iso.unfolded.bottom
            else:
                i, x = spl
                fh = (
                    chain.iso.unfolded.inject(0, x)
                    if i == 0
                    else chain.iso.unfolded.inject(1, cand[x.key])
                )
            if cand[t.key] != chain.iso.inv(fh):
                return False
        return True

    # candidate token maps D_1 -> fragment of the limit
    matches = 0
    for values in itertools.product(e_frag, repeat=len(d1_toks)):
        cand = {t.key: v for (t, v) in zip(d1_toks, values)}
        if law_holds(cand):
            matches += 1
            for t in d1_toks:
                assert cand[t.key] == h1(t)
    assert matches == 1


def test_upwards_closed_preserved_to_limit():
    # stages of a chain with upwards-closed parameters stay upwards-closed,
    # and so does the limit on checked fragments
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=3)
    for (o, per) in chain.stages:
        if o.is_finite and o.k >= 1:
            assert per.flags.upwards_closed is True
            assert check_property(per, "upwards_closed").holds, str(o)
    v = check_property(chain.per_limit.per, "upwards_closed", 3)
    assert v.holds is not False

import pytest

from domania.basis import (
    FlatNatBasis,
    Verdict,
    catalog_basis,
    catalog_poset,
    enumerate_monotone_maps,
    one_point_basis,
    poset_of_basis,
)
from domania.builtins import flat_per
from domania.construct import (
    FunBasis,
    MultiSumBasis,
    identity_embedding,
    verify_embedding,
)
from domania.errors import UnboundParameter
from domania.spfunctor import (
    ConstD,
    Exp,
    FixedPointIso,
    Id,
    LimitBasis,
    Prod,
    Sum,
    apply_functor_domain,
    apply_functor_embedding,
    carrier_table,
    fixed_point_iso,
    omega_chain,
    subterms,
)

O = catalog_basis("two-chain")
RUNNING = Sum(ConstD("A"), Exp("B", Id()))  # X = A + [B -> X]
ENV = {"A": O, "B": O}


def test_identity_functor():
    assert apply_functor_domain(Id(), O, {}) is O


def test_unbound_parameter():
    with pytest.raises(UnboundParameter):
        apply_functor_domain(ConstD("Z"), O, {})


def test_running_example_stage_counts():
    pt = one_point_basis()
    d1 = apply_functor_domain(RUNNING, pt, ENV)
    assert len(d1.tokens()) == 4
    d2 = apply_functor_domain(RUNNING, d1, ENV)
    assert len(d2.tokens()) == 11
    # the function-space share agrees with the monotone-map oracle
    fun_part = len(enumerate_monotone_maps(poset_of_basis(O), poset_of_basis(d1)))
    assert fun_part == 8
    assert len(d2.tokens()) == 1 + len(O.tokens()) + fun_part


def test_omega_chain_counts():
    stages = omega_chain(RUNNING, ENV, 3)
    assert [len(s.basis.tokens()) for s in stages] == [1, 4, 11, 42]
    for s in stages[1:]:
        verify_embedding(s.embed_from_prev)


def test_constant_functor_chain_stabilizes():
    stages = omega_chain(ConstD("A"), {"A": O}, 3)
    assert [len(s.basis.tokens()) for s in stages] == [1, 2, 2, 2]
    for n in (2, 3):
        emb = stages[n].embed_from_prev
        for t in stages[n - 1].basis.tokens().tokens:
            assert emb.fwd(t) == t


def test_identity_functor_chain_is_one_point():
    stages = omega_chain(Id(), {}, 4)
    assert all(len(s.basis.tokens()) == 1 for s in stages)


def test_functor_identity_law():
    stages = omega_chain(RUNNING, ENV, 2)
    d1 = stages[1].basis
    femb = apply_functor_embedding(RUNNING, identity_embedding(d1), ENV)
    for t in stages[2].basis.tokens().tokens:
        assert femb.fwd(t) == t


def test_functor_embedding_injective():
    stages = omega_chain(RUNNING, ENV, 2)
    f01 = stages[1].embed_from_prev
    f12 = apply_functor_embedding(RUNNING, f01, ENV)
    images = [f12.fwd(t) for t in stages[1].basis.tokens().tokens]
    assert len({t.key for t in images}) == 4
    for t in images:
        assert stages[2].basis.has_token(t)


def test_functor_composition_law():
    stages = omega_chain(RUNNING, ENV, 3)
    f01 = stages[1].embed_from_prev
    f12 = stages[2].embed_from_prev
    lhs = apply_functor_embedding(RUNNING, f12.compose(f01), ENV)
    rhs = apply_functor_embedding(RUNNING, f12, ENV).compose(
        apply_functor_embedding(RUNNING, f01, ENV)
    )
    for t in stages[1].basis.tokens().tokens:
        assert lhs.fwd(t) == rhs.fwd(t)


def test_chain_coherence():
    # composites of the chain links agree however they are grouped, and each
    # composite is an embedding-projection pair
    stages = omega_chain(RUNNING, ENV, 3)
    f01, f12, f23 = (stages[k].embed_from_prev for k in (1, 2, 3))
    f02 = f12.compose(f01)
    f13 = f23.compose(f12)
    f03 = f13.compose(f01)
    for t in stages[0].basis.tokens().tokens:
        assert f02.fwd(t) == f12.fwd(f01.fwd(t))
        assert f03.fwd(t) == f23.compose(f02).fwd(t)
    for t in stages[1].basis.tokens().tokens:
        assert f13.fwd(t) == f23.fwd(f12.fwd(t))
    for f in (f02, f13, f03):
        assert verify_embedding(f)


def test_limit_of_constant_chain():
    stages = omega_chain(ConstD("A"), {"A": O}, 3)
    lim = LimitBasis(stages)
    toks = lim.tokens()
    assert len(toks) == 2
    assert not toks.exact


def test_limit_canonical_token_count():
    stages = omega_chain(RUNNING, ENV, 3)
    lim = LimitBasis(stages)
    assert len(lim.tokens(2)) == 11
    # stage-3 count frozen from the monotone-map oracle: 1 + |O| + 39 maps O->D2
    assert len(lim.tokens(3)) == 42
    # canonical stage tags are minimal: nothing new is an old image
    for c in lim.tokens(3).tokens:
        n, inner = lim.decompose(c)
        if n >= 1:
            emb = lim.stages[n].embed_from_prev
            assert emb.fwd(emb.proj(inner)) != inner


def test_limit_order_agrees_with_stage_projection():
    stages = omega_chain(RUNNING, ENV, 3)
    lim = LimitBasis(stages)
    toks = list(lim.tokens(2).tokens)
    for p in toks:
        for q in toks:
            i, pt = lim.decompose(p)
            j, qt = lim.decompose(q)
            a = lim.lift_token(i, pt, 3)
            b = lim.lift_token(j, qt, 3)
            assert lim.leq(p, q) == stages[3].basis.leq(a, b)


def test_fixed_point_iso_running_example():
    stages = omega_chain(RUNNING, ENV, 4)
    lim = LimitBasis(stages)
    iso, report = fixed_point_iso(RUNNING, ENV, lim, bound=3)
    assert report == Verdict(True, None, 3)
    assert len(lim.tokens(3).tokens) == 42
    for t in lim.tokens(3).tokens:
        assert iso.inv(iso.fwd(t)) == t


def test_fixed_point_iso_constant():
    stages = omega_chain(ConstD("A"), {"A": O}, 2)
    lim = LimitBasis(stages)
    iso, report = fixed_point_iso(ConstD("A"), {"A": O}, lim, bound=1)
    assert report.holds is True
    # constant functor: unfolding is the parameter itself, tokens map onto it
    assert {iso.fwd(t).key for t in lim.tokens(1).tokens} == {
        t.key for t in O.tokens().tokens
    }


def test_fixed_point_iso_one_point():
    stages = omega_chain(Id(), {}, 2)
    lim = LimitBasis(stages)
    iso, report = fixed_point_iso(Id(), {}, lim, bound=1)
    assert report.holds is True
    assert len(lim.tokens(1).tokens) == 1


def reference_iso_verify(iso, bound):
    """The slow reference for `FixedPointIso.verify`: injectivity, the round
    trip, every pair of fragment tokens compared in the limit and in the
    unfolding, and image = F(stage b-1)."""
    toks = iso.limit.tokens(bound).tokens
    images = {}
    for t in toks:
        u = iso.fwd(t)
        if u.key in images:
            return Verdict(False, (images[u.key], t), bound)
        images[u.key] = t
        if iso.inv(u) != t:
            return Verdict(False, t, bound)
    for p in toks:
        for q in toks:
            if iso.limit.leq(p, q) != iso.unfolded.leq(iso.fwd(p), iso.fwd(q)):
                return Verdict(False, (p, q), bound)
    stage_b = iso.limit.stages[bound].basis
    if stage_b.finite:
        below = iso.limit.stage_embedding(bound - 1)
        femb = apply_functor_embedding(iso.expr, below, iso.env)
        expected = {femb.fwd(t).key for t in stage_b.tokens().tokens}
        got = {iso.fwd(t).key for t in toks}
        if got != expected:
            return Verdict(False, got.symmetric_difference(expected), bound)
    return Verdict(True, None, bound)


FB = flat_per("flatbool").carrier

# equation, parameters, the bound its stages are enumerated at (None:
# exhaustively) and the largest iso bound checked
ISO_CASES = {
    "running": (RUNNING, ENV, None, 4),
    "qcb": (Sum(ConstD("FB"), Exp("S", Id())), {"FB": FB, "S": O}, None, 4),
    "sum-of-product": (
        Sum(ConstD("A"), Prod(ConstD("B"), Id())), {"A": O, "B": FB}, None, 4
    ),
    # the counterexample command's equation
    "flatnat": (Sum(ConstD("A"), Exp("N", Id())), {"A": O, "N": FlatNatBasis()}, 3, 3),
}


@pytest.mark.parametrize("name", sorted(ISO_CASES))
def test_chain_links_and_stage_embeddings_are_ep_pairs(name):
    # each link is F applied to the one before and each stage embedding a
    # canonical tag, ep-pairs by construction: the brute-force laws agree
    expr, env, bound, _ = ISO_CASES[name]
    stages = omega_chain(expr, env, 4)
    limit = LimitBasis(stages)
    for n in range(1, 5):
        assert verify_embedding(stages[n].embed_from_prev, bound)
    for n in range(5):
        assert verify_embedding(limit.stage_embedding(n), bound)


@pytest.mark.parametrize("name", sorted(ISO_CASES))
def test_iso_linear_clauses_agree_with_the_pairwise_reference(name, monkeypatch):
    # the linear clauses decide the iso as the pairwise order scan does, and
    # compare no two limit tokens
    expr, env, _, top = ISO_CASES[name]
    limit = LimitBasis(omega_chain(expr, env, 4))
    limit_leq = LimitBasis.leq
    calls = []

    def counting(self, p, q):
        calls.append((p, q))
        return limit_leq(self, p, q)

    for b in range(1, top + 1):
        monkeypatch.setattr(LimitBasis, "leq", counting)
        got = FixedPointIso(expr, env, limit).verify(b)
        monkeypatch.setattr(LimitBasis, "leq", limit_leq)
        assert got.holds is True and not calls, b
        assert got == reference_iso_verify(FixedPointIso(expr, env, limit), b), b
    # one token sent to another's image: both reject it
    broken = FixedPointIso(expr, env, limit)
    fwd = broken.fwd
    p, q = limit.tokens(2).tokens[1:3]
    broken.fwd = lambda t: fwd(p) if t == q else fwd(t)
    assert broken.verify(2).holds is False
    assert reference_iso_verify(broken, 2).holds is False


def test_bounded_tokens_do_not_depend_on_earlier_calls():
    stage4 = omega_chain(RUNNING, ENV, 4)[4].basis
    fun = stage4.parts[1]
    before = (fun.tokens(3), stage4.tokens(3))
    assert not any(ts.exact for ts in before)
    assert len(fun.tokens()) == 407 and fun.tokens().exact
    assert len(stage4.tokens()) == 410
    assert (fun.tokens(3).tokens, stage4.tokens(3).tokens) == (
        before[0].tokens,
        before[1].tokens,
    )
    # the limit keeps each bound's answer, the one a fresh limit gives
    stages = omega_chain(RUNNING, ENV, 4)
    limit = LimitBasis(stages)
    first = limit.tokens(2)
    assert limit.tokens().tokens == LimitBasis(stages).tokens().tokens
    assert limit.tokens(2) is first and first == LimitBasis(stages).tokens(2)


def _same_basis_answers(got, ref, bound):
    for b in (bound, None):
        assert got.tokens(b) == ref.tokens(b)
    toks = ref.tokens(bound).tokens
    for p in toks:
        for q in toks:
            assert got.leq(p, q) == ref.leq(p, q)
            consistent = ref.cons((p, q))
            assert got.cons((p, q)) == consistent
            if consistent:
                assert got.lub((p, q)) == ref.lub((p, q))


@pytest.mark.parametrize(
    "env",
    [ENV, {"A": O, "B": FlatNatBasis()}],
    ids=["A + [B -> X]", "A + [N -> X]"],
)
def test_interned_stages_answer_as_directly_built_ones(env):
    # the slow reference: each stage's sum and function space built afresh,
    # with caches of its own, around the interned parts one stage down
    stages = omega_chain(RUNNING, env, 4)
    for n in range(1, 5):
        stage, prev = stages[n].basis, stages[n - 1].basis
        fun = FunBasis(env["B"], prev)
        _same_basis_answers(stage.parts[1], fun, 3)
        _same_basis_answers(stage, MultiSumBasis([env["A"], fun]), 3)


def test_carrier_table_is_the_action_at_every_subterm():
    # one bottom-up pass records, for each sub-term, the basis that F's
    # action on that sub-term alone builds
    D = omega_chain(RUNNING, ENV, 2)[2].basis
    expr = Prod(RUNNING, Exp("B", Sum(Id(), ConstD("A"))))
    table = carrier_table(expr, D, ENV)
    assert len(table) == len(list(subterms(expr)))
    for _, e in subterms(expr):
        assert table[id(e)] is apply_functor_domain(e, D, ENV)

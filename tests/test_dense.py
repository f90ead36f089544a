import time

import pytest

from domania.basis import catalog_basis, tok
from domania.builtins import flat_per, sierpinski_per, trivial_per
from domania.construct import TokenMap, exp_map, fun_basis, identity_embedding
from domania.dense import (
    DeltaFamily,
    dense_laws,
    dense_lfp,
    dense_part,
    has_total_extension,
)
from domania.errors import (
    NonDenseParameter,
    NotConsistentlyComplete,
    TrivialFunctor,
    UnknownToken,
)
from domania.ordinals import omega_plus
from domania.per import PerFlags, check_property, finite_per, is_equivariant
from domania.perlfp import per_chain_extend
from domania.spfunctor import ConstD, Exp, Id, Sum

RUNNING = Sum(ConstD("A"), Exp("B", Id()))


def running_env():
    return {"A": sierpinski_per(), "B": sierpinski_per()}


def test_has_total_extension():
    per = sierpinski_per()
    v = has_total_extension(per, tok("bot"))
    assert v.holds is True and v.witness == tok("top")
    empty = finite_per(catalog_basis("two-chain"), [])
    assert has_total_extension(empty, tok("top")).holds is False
    with pytest.raises(UnknownToken):
        has_total_extension(per, tok("zap"))


def test_has_total_extension_unknown_on_staged():
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=3)
    lim = chain.per_limit.limit
    # a stage-3 token whose extensions lie beyond the small search bound
    deep = [c for c in lim.tokens(3).tokens if lim.decompose(c)[0] == 3][-1]
    v = has_total_extension(chain.per_limit.per, deep, bound=1)
    assert v.holds is not False
    if v.holds is None:
        assert v.bound == 1


def test_dense_part_of_already_dense():
    per = sierpinski_per()
    dp = dense_part(per)
    assert [t.key for t in dp.per.carrier.tokens().tokens] == ["bot", "top"]
    assert dp.per.flags.dense is True
    assert check_property(dp.per, "dense").holds


def test_dense_part_drops_unextendable_arm():
    vee = catalog_basis("vee")
    per = finite_per(vee, [(tok("a"), tok("a"))])
    dp = dense_part(per)
    kept = {t.key for t in dp.per.carrier.tokens().tokens}
    assert kept == {"bot", "a"}


def test_dense_part_of_trivial_is_trivial():
    dp = dense_part(trivial_per())
    assert len(dp.per.carrier.tokens().tokens) == 1
    ts, _ = dp.per.totals()
    assert ts == []


def test_dense_part_lub_raises_where_cons_says_no():
    # totals a and b on a diamond: their join top has no total above it,
    # so the dense part keeps a and b but has no join of the two
    a, b = tok("a"), tok("b")
    kept = dense_part(finite_per(catalog_basis("diamond"), [(a, a), (b, b)])).per.carrier
    assert not kept.has_token(tok("top"))
    assert not kept.cons((a, b))
    with pytest.raises(NotConsistentlyComplete):
        kept.lub((a, b))
    assert kept.lub((tok("bot"), a)) == a


def _running_chain(n=4):
    return per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=n)


def test_delta_one_matches_stage_one_dense_tokens():
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    lim = chain.per_limit.limit
    expected = set()
    stage1_per = chain.stages[1][1]
    for t in chain.per_limit.limit.stages[1].basis.tokens().tokens:
        if has_total_extension(stage1_per, t).holds is True:
            expected.add(lim.canonical(1, t).key)
    got = {t.key for t in lim.tokens(2).tokens if fam.member(1, t)}
    assert got == expected


def test_retraction_fixes_exactly_delta():
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    lim = chain.per_limit.limit
    for n in (1, 2, 3):
        for t in lim.tokens(3).tokens:
            fixed = fam.retract(n, t) == t
            assert fixed == fam.member(n, t), (n, t.pretty)


def test_lifted_retraction_projection_against_pointwise_reference():
    # [id_B -> r], read on the premise closure, against the monotone map
    # that probes every exponent token
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    lim = chain.per_limit.limit
    B = chain.env["B"].carrier
    fb = fun_basis(B, lim)

    def r(x):
        return fam.retract(1, x)

    lifted = exp_map(identity_embedding(B), TokenMap(lim, lim, r))
    checked = 0
    for t in lim.tokens(3).tokens:
        spl = chain.iso.unfolded.split(chain.iso.fwd(t))
        if spl is None or spl[0] != 1:
            continue
        phi = spl[1]
        expected = fb.from_function(lambda p: r(fb.apply(phi, p)))
        assert lifted(phi) == expected, phi.pretty
        checked += 1
    assert checked > 10


def test_delta_monotone_in_n():
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    lim = chain.per_limit.limit
    for t in lim.tokens(3).tokens:
        for n in (1, 2):
            if fam.member(n, t):
                assert fam.member(n + 1, t)


def test_retraction_idempotent():
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    lim = chain.per_limit.limit
    for n in (1, 2):
        for t in lim.tokens(3).tokens:
            r = fam.retract(n, t)
            assert fam.retract(n, r) == r


def test_delta_meets_totals_at_stage_n():
    # Delta_n restricted to rank-bounded totals is exactly the stage-n totals
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    plim = chain.per_limit
    totals, _ = plim.per.totals(3)
    for n in (1, 2, 3):
        for t in totals:
            in_delta = fam.member(n, t)
            stage_n_total = plim.rank_of(t) <= n
            assert in_delta == stage_n_total, (n, t.pretty)


def test_retraction_equivariant_to_stage_n():
    chain = _running_chain(4)
    fam = DeltaFamily(chain)
    plim = chain.per_limit
    # r_1 maps stage-alpha totals to stage-1 totals, relatedness preserved
    for n in (1, 2):
        stage_per = chain.stages[n][1]
        pairs, _ = plim.per.related_pairs(3)
        for (x, y) in pairs:
            rx, ry = fam.retract(n, x), fam.retract(n, y)
            i, xt = plim.limit.decompose(rx)
            j, yt = plim.limit.decompose(ry)
            assert i <= n and j <= n
            lifted_x = plim.limit.lift_token(i, xt, n)
            lifted_y = plim.limit.lift_token(j, yt, n)
            assert stage_per.related(lifted_x, lifted_y) is True


def test_trivial_functor_rejected_for_delta():
    env = running_env()
    chain = per_chain_extend(Exp("B", Id()), env, omega_plus(1), n_finite=3)
    with pytest.raises(TrivialFunctor):
        DeltaFamily(chain)


def test_dense_lfp_running_example():
    lfp = dense_lfp(RUNNING, running_env(), rank_bound=4, n_finite=4)
    classes, _ = lfp.per.classes(4)
    by_rank = {}
    for cls in classes:
        r = lfp.chain.per_limit.rank_of(cls[0])
        by_rank[r] = by_rank.get(r, 0) + 1
    assert by_rank == {1: 1, 2: 1, 3: 1, 4: 1}
    # every token within the bound is kept: each extends to a total
    lim_tokens = lfp.chain.per_limit.limit.tokens(3).tokens
    assert all(lfp.kept(t) for t in lim_tokens)
    assert lfp.per.flags.dense is True
    assert lfp.per.flags.admissible_pedigree is True


def test_dense_lfp_over_a_flatbool_exponent_ends():
    # stage 3 holds 1,806 tokens; a pairwise order scan over them in the
    # fixed-point iso took ~50 s, the linear clauses well under a second
    env = {"A": sierpinski_per(), "B": flat_per("flatbool")}
    t0 = time.monotonic()
    lfp = dense_lfp(RUNNING, env, rank_bound=2, n_finite=3)
    assert time.monotonic() - t0 < 20.0
    assert len(lfp.chain.per_limit.limit.stages[3].basis.tokens()) == 1806
    classes, _ = lfp.per.classes(2)
    ranks = sorted(lfp.chain.per_limit.rank_of(cls[0]) for cls in classes)
    assert ranks == [1, 2]
    assert lfp.per.flags.dense is True


def test_dense_lfp_constant():
    lfp = dense_lfp(ConstD("A"), {"A": sierpinski_per()}, rank_bound=2, n_finite=2)
    classes, _ = lfp.per.classes(2)
    assert len(classes) == 1
    kept_tokens = [t for t in lfp.per.carrier.tokens(2).tokens]
    assert len(kept_tokens) == 2


def test_dense_lfp_rejects_non_dense_parameter():
    bad = finite_per(catalog_basis("two-chain"), [(tok("top"), tok("top"))])
    assert bad.flags.dense is None
    with pytest.raises(NonDenseParameter):
        dense_lfp(RUNNING, {"A": bad, "B": sierpinski_per()})


def test_dense_stage_parts_form_chain():
    lfp = dense_lfp(RUNNING, running_env(), rank_bound=3, n_finite=3)
    parts = [dense_part(p, 3) for (o, p) in lfp.chain.stages if o.is_finite]
    # stages 0-3: three links to check
    assert len(parts) == 4
    for n in range(1, len(parts)):
        prev, cur = parts[n - 1], parts[n]
        emb = lfp.chain.embeddings[n - 1]
        for t in prev.per.carrier.tokens().tokens:
            assert cur.kept(emb.fwd(t)), (n, t.pretty)


def test_dense_laws_carry_their_bounds():
    # the family's laws on tokens carry n_max, the laws on totals and the
    # kept count the rank bound; the two differ here, unlike in the golden
    lfp = dense_lfp(RUNNING, running_env(), rank_bound=3, n_finite=4)
    laws = dense_laws(lfp, n_max=2, rank_bound=3)
    assert [(name, v.holds, v.bound) for (name, v) in laws.entries] == [
        ("retraction-fixes-family", True, 2),
        ("family-monotone", True, 2),
        ("family-meets-totals", True, 3),
        ("kept-tokens", True, 3),
    ]
    kept, total = map(int, laws.entries[-1][1].witness.split("/"))
    assert 0 < kept <= total == len(lfp.chain.per_limit.limit.tokens(2))


def test_quotient_unchanged_by_dense_part():
    chain = _running_chain(3)
    plim = chain.per_limit
    lfp = _dense_from(chain)
    full_classes, _ = plim.per.classes(3)
    dense_classes, _ = lfp.per.classes(3)
    assert len(full_classes) == len(dense_classes)


def _dense_from(chain):
    from domania.dense import _assemble_dense

    return _assemble_dense(chain, 3)

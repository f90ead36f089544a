import itertools

import pytest

from domania.basis import (
    catalog_basis,
    catalog_names,
    check_domain_axioms,
    enumerate_monotone_maps,
    one_point_basis,
    poset_of_basis,
    tok,
)
from domania.construct import (
    MultiSumBasis,
    ProdBasis,
    canonical_pairs,
    exp_fixed_embedding,
    exp_general_embedding,
    fun_basis,
    identity_embedding,
    prod_basis,
    prod_embedding,
    stepset_consistent,
    sum_basis,
    sum_embedding,
    verify_embedding,
)
from domania.errors import InconsistentUnion, NotAnEmbedding

O = catalog_basis("two-chain")
VEE = catalog_basis("vee")
BOT, TOP = tok("bot"), tok("top")


def test_sum_counts_and_axioms():
    s = sum_basis(O, O)
    assert len(s.tokens()) == 5
    assert check_domain_axioms(s).all_pass
    strict = MultiSumBasis([O, O], strict=True)
    assert len(strict.tokens()) == 3
    assert check_domain_axioms(strict).all_pass


def test_sum_order_is_separated():
    s = sum_basis(O, O)
    l0, l1 = s.inject(0, BOT), s.inject(0, TOP)
    r0 = s.inject(1, BOT)
    assert s.leq(s.bottom, r0)
    assert s.leq(l0, l1)
    assert not s.leq(l0, r0)
    assert not s.cons((l1, r0))


def test_lift_is_three_chain():
    l = MultiSumBasis([O])
    assert len(l.tokens()) == 3
    p = poset_of_basis(l)
    chain = poset_of_basis(catalog_basis("three-chain"))
    # same covering structure: a 3-element total order
    assert sorted(
        sum(1 for b in p.elements if p.leq(a, b)) for a in p.elements
    ) == sorted(sum(1 for b in chain.elements if chain.leq(a, b)) for a in chain.elements)


def test_prod_counts_and_bottom():
    p = prod_basis(O, O)
    assert len(p.tokens()) == 4
    assert p.bottom == p.pair(BOT, BOT)
    assert check_domain_axioms(p).all_pass
    strict = ProdBasis(O, O, strict=True)
    assert len(strict.tokens()) == 2
    assert check_domain_axioms(strict).all_pass


def test_fun_basis_matches_monotone_count():
    fb = fun_basis(O, O)
    assert len(fb.tokens()) == 3
    assert len(fb.tokens()) == len(
        enumerate_monotone_maps(poset_of_basis(O), poset_of_basis(O))
    )


def test_monotone_maps_match_the_brute_force_reference():
    small = [n for n in catalog_names() if len(catalog_basis(n).tokens()) <= 3]
    assert len(small) >= 4
    for dn, en in itertools.product(small, repeat=2):
        D, E = catalog_basis(dn), catalog_basis(en)
        fb = fun_basis(D, E)
        every = lambda p: E.tokens().tokens
        found = []
        stopped = fb.monotone_maps(
            every, lambda a: found.append(frozenset((p.key, v.key) for p, v in a.items()))
        )
        expected = enumerate_monotone_maps(poset_of_basis(D), poset_of_basis(E))
        assert stopped is False
        # each map exactly once, and no other
        assert len(found) == len(set(found)) == len(expected), (dn, en)
        assert set(found) == {frozenset(f.items()) for f in expected}, (dn, en)
        # a True from visit stops the search after the first map
        visits = []
        assert fb.monotone_maps(every, lambda a: visits.append(dict(a)) or True)
        assert len(visits) == 1


def test_fun_tokens_order_isomorphic_to_pointwise_order():
    for dn in ("two-chain", "vee"):
        for en in ("two-chain", "three-chain"):
            D, E = catalog_basis(dn), catalog_basis(en)
            fb = fun_basis(D, E)
            toks = list(fb.tokens().tokens)
            dtoks = list(D.tokens().tokens)
            # tokens <-> functions (by application), and order matches pointwise
            fns = {t: tuple(fb.apply(t, p) for p in dtoks) for t in toks}
            assert len(set(fns.values())) == len(toks)
            for s, t in itertools.product(toks, repeat=2):
                pointwise = all(E.leq(a, b) for a, b in zip(fns[s], fns[t]))
                assert fb.leq(s, t) == pointwise


def test_inconsistent_step_pair():
    pairs = [(BOT, tok("a")), (BOT, tok("b"))]
    assert not stepset_consistent(pairs, O, VEE)
    fb = fun_basis(O, VEE)
    with pytest.raises(InconsistentUnion):
        fb.make(pairs)


def test_empty_stepset_is_least():
    fb = fun_basis(O, O)
    for t in fb.tokens().tokens:
        assert fb.leq(fb.bottom, t)


def test_apply_examples():
    fb = fun_basis(O, O)
    const_top = fb.make([(BOT, TOP)])
    strict_top = fb.make([(TOP, TOP)])
    assert fb.apply(const_top, BOT) == TOP
    assert fb.apply(strict_top, BOT) == BOT
    assert fb.apply(strict_top, TOP) == TOP


def test_canonical_form_unique_and_idempotent():
    # two presentations of the same function collapse to one token
    D = catalog_basis("diamond")
    fb = fun_basis(D, D)
    s1 = fb.make([(tok("a"), tok("a")), (tok("top"), tok("b"))])
    s2 = fb.make([(tok("a"), tok("a")), (tok("top"), tok("top"))])
    # s1 maps top to a join b = top as well
    assert fb.apply(s1, tok("top")) == tok("top")
    assert s1 == s2
    for t in (s1, s2):
        again = fb.make(fb.pairs(t))
        assert again == t


def test_pairs_decoded_once_per_token():
    D = catalog_basis("diamond")
    fb = fun_basis(D, D)
    t = fb.make([(tok("a"), tok("a")), (tok("b"), tok("top"))])
    _, fs = t.key
    got = fb.pairs(t)
    assert isinstance(got, tuple)
    assert list(got) == [(tok(pk), tok(qk)) for (pk, qk) in fs]
    assert fb.pairs(t) is got


def test_canonical_drops_bottom_and_entailed():
    fb = fun_basis(O, O)
    assert fb.make([(BOT, BOT)]) == fb.bottom
    assert fb.make([(BOT, TOP), (TOP, TOP)]) == fb.make([(BOT, TOP)])


def test_identity_embedding_on_sum():
    s = sum_basis(O, O)
    emb = sum_embedding(identity_embedding(O), identity_embedding(O))
    verify_embedding(emb)
    for t in s.tokens().tokens:
        assert emb.fwd(t) == t


def test_exp_fixed_on_empty_stepset():
    pt = one_point_basis()
    f = exp_fixed_embedding(O, _unique_from_point(pt, O))
    assert f.fwd(f.source.bottom) == f.target.bottom
    verify_embedding(f)


def _unique_from_point(pt, target):
    return _mk_embedding(pt, target, {pt.bottom.key: target.bottom.key})


def _mk_embedding(src, tgt, fwd_keys):
    from domania.construct import Embedding

    fwd_map = {k: tok(v) for k, v in fwd_keys.items()}

    def fwd(t):
        return fwd_map[t.key]

    def proj(t):
        below = [p for p in src.tokens().tokens if tgt.leq(fwd(p), t)]
        return src.lub(below)

    return Embedding(src, tgt, fwd, proj)


def test_prod_embedding_composition_law():
    # (f2.f1) x (g2.g1) equals (f2 x g2).(f1 x g1) on every token
    three = catalog_basis("three-chain")
    f1 = _mk_embedding(O, three, {"bot": "bot", "top": "top"})
    f2 = identity_embedding(three)
    verify_embedding(f1)
    lhs = prod_embedding(f2.compose(f1), f2.compose(f1))
    rhs_outer = prod_embedding(f2, f2)
    rhs_inner = prod_embedding(f1, f1)
    rhs = rhs_outer.compose(rhs_inner)
    for t in lhs.source.tokens().tokens:
        assert lhs.fwd(t) == rhs.fwd(t)


def test_exp_general_embedding_laws():
    three = catalog_basis("three-chain")
    f = _mk_embedding(O, three, {"bot": "bot", "top": "top"})
    g = _mk_embedding(O, three, {"bot": "bot", "top": "mid"})
    verify_embedding(f)
    verify_embedding(g)
    emb = exp_general_embedding(f, g)
    verify_embedding(emb)


def test_exp_general_embedding_over_an_infinite_exponent():
    # the forward half moves each step and needs no enumeration of the
    # exponent; only the projection half enumerates it
    from domania.basis import FlatNatBasis

    nat = identity_embedding(FlatNatBasis())
    f = _mk_embedding(O, catalog_basis("three-chain"), {"bot": "bot", "top": "mid"})
    emb = exp_general_embedding(nat, f)
    step = emb.source.make([(nat.source.nat(1), TOP)])
    assert emb.fwd(step) == emb.target.make([(nat.target.nat(1), tok("mid"))])
    with pytest.raises(NotAnEmbedding):
        emb.proj(emb.fwd(step))


def test_all_embedding_constructors_satisfy_ep_laws():
    three = catalog_basis("three-chain")
    f = _mk_embedding(O, three, {"bot": "bot", "top": "top"})
    g = identity_embedding(O)
    for emb in (
        sum_embedding(f, g),
        prod_embedding(f, g),
        exp_fixed_embedding(O, f),
    ):
        verify_embedding(emb)


def test_fun_apply_monotone_small():
    for dn in ("two-chain", "vee"):
        D = catalog_basis(dn)
        fb = fun_basis(D, O)
        toks = list(fb.tokens().tokens)
        dt = list(D.tokens().tokens)
        for s, t in itertools.product(toks, repeat=2):
            if not fb.leq(s, t):
                continue
            for p, q in itertools.product(dt, repeat=2):
                if D.leq(p, q):
                    assert O.leq(fb.apply(s, p), fb.apply(t, q))


def test_consistency_shortcut_matches_subset_oracle():
    # the closure-based decision must agree with the literal subset walk
    from domania.construct import stepset_consistent_subsets

    for dn in ("two-chain", "vee", "diamond"):
        for en in ("two-chain", "vee", "diamond"):
            D, E = catalog_basis(dn), catalog_basis(en)
            cands = [
                (p, q)
                for p in D.tokens().tokens
                for q in E.tokens().tokens
                if q != E.bottom
            ]
            for size in (1, 2, 3):
                for combo in itertools.combinations(cands, size):
                    assert stepset_consistent(combo, D, E) == (
                        stepset_consistent_subsets(combo, D, E)
                    ), combo


from hypothesis import given, settings
from hypothesis import strategies as st

from domania.construct import apply_pairs

_CATALOG_NAMES = ("two-chain", "three-chain", "vee", "diamond")


@given(
    st.sampled_from(_CATALOG_NAMES),
    st.sampled_from(_CATALOG_NAMES),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_normalization_idempotent_and_order_preserving(dn, en, data):
    D, E = catalog_basis(dn), catalog_basis(en)
    dt = list(D.tokens().tokens)
    et = list(E.tokens().tokens)
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(dt), st.sampled_from(et)), max_size=4
        )
    )
    fb = fun_basis(D, E)
    if not stepset_consistent(pairs, D, E):
        with pytest.raises(InconsistentUnion):
            fb.make(pairs)
        return
    t = fb.make(pairs)
    assert fb.make(fb.pairs(t)) == t
    live = [(p, q) for (p, q) in pairs if q != E.bottom]
    for p in dt:
        assert fb.apply(t, p) == apply_pairs(live, D, E, p)

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
    Embedding,
    MultiSumBasis,
    ProdBasis,
    TokenMap,
    canonical_steps,
    exp_map,
    fun_basis,
    identity_embedding,
    prod_basis,
    sum_basis,
    verify_embedding,
)
from domania.errors import InconsistentUnion
from domania.spfunctor import ConstD, Exp, Id, Prod, Sum, apply_functor_embedding

O = catalog_basis("two-chain")
VEE = catalog_basis("vee")
BOT, TOP = tok("bot"), tok("top")


def test_sum_counts_and_axioms():
    s = sum_basis(O, O)
    assert len(s.tokens()) == 5
    assert check_domain_axioms(s).all_pass


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
        found = [
            frozenset((p.key, v.key) for p, v in a.items())
            for a in fb.monotone_maps(every)
        ]
        expected = enumerate_monotone_maps(poset_of_basis(D), poset_of_basis(E))
        # each map exactly once, and no other
        assert len(found) == len(set(found)) == len(expected), (dn, en)
        assert set(found) == {frozenset(f.items()) for f in expected}, (dn, en)
        # next() stops the search at the first map, having asked for the
        # candidates of each point once, along the first branch only
        asked = []
        counting = lambda p: asked.append(p) or E.tokens().tokens
        first = next(fb.monotone_maps(counting))
        assert frozenset((p.key, v.key) for p, v in first.items()) == found[0]
        assert sorted(asked, key=repr) == sorted(D.tokens().tokens, key=repr)


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
    assert canonical_steps(pairs, O, VEE) is None
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


def test_pairs_are_the_step_set_the_key_holds():
    D = catalog_basis("diamond")
    fb = fun_basis(D, D)
    t = fb.make([(tok("a"), tok("a")), (tok("b"), tok("top"))])
    got = fb.pairs(t)
    assert got is t.key[1]
    assert got == frozenset({(tok("a"), tok("a")), (tok("b"), tok("top"))})


def test_canonical_drops_bottom_and_entailed():
    fb = fun_basis(O, O)
    assert fb.make([(BOT, BOT)]) == fb.bottom
    assert fb.make([(BOT, TOP), (TOP, TOP)]) == fb.make([(BOT, TOP)])


def test_identity_embedding_on_sum():
    s = sum_basis(O, O)
    emb = apply_functor_embedding(Sum(Id(), Id()), identity_embedding(O), {})
    verify_embedding(emb)
    for t in s.tokens().tokens:
        assert emb.fwd(t) == t


def test_exp_fixed_on_empty_stepset():
    pt = one_point_basis()
    f = apply_functor_embedding(Exp("B", Id()), _unique_from_point(pt, O), {"B": O})
    assert f.fwd(f.source.bottom) == f.target.bottom
    verify_embedding(f)


def _unique_from_point(pt, target):
    return _mk_embedding(pt, target, {pt.bottom.key: target.bottom.key})


def _mk_embedding(src, tgt, fwd_keys):
    fwd_map = {k: tok(v) for k, v in fwd_keys.items()}

    def fwd(t):
        return fwd_map[t.key]

    def proj(t):
        below = [p for p in src.tokens().tokens if tgt.leq(fwd(p), t)]
        return src.lub(below)

    return Embedding(TokenMap(src, tgt, fwd), TokenMap(tgt, src, proj))


def test_prod_embedding_composition_law():
    # F(f2.f1) equals F(f2).F(f1) on every token, for F = X x X
    three = catalog_basis("three-chain")
    f1 = _mk_embedding(O, three, {"bot": "bot", "top": "top"})
    f2 = identity_embedding(three)
    verify_embedding(f1)
    square = Prod(Id(), Id())
    lhs = apply_functor_embedding(square, f2.compose(f1), {})
    rhs_outer = apply_functor_embedding(square, f2, {})
    rhs_inner = apply_functor_embedding(square, f1, {})
    rhs = rhs_outer.compose(rhs_inner)
    for t in lhs.source.tokens().tokens:
        assert lhs.fwd(t) == rhs.fwd(t)


def test_exp_map_over_an_iso_exponent_is_an_ep_pair():
    # [a -> g] for the swap a of the vee's two atoms: its forward map is
    # g . t . a^-1, and with [a^-1 -> g-] it is an ep-pair
    three = catalog_basis("three-chain")
    g = _mk_embedding(O, three, {"bot": "bot", "top": "mid"})
    verify_embedding(g)
    swap = {tok("a"): tok("b"), tok("b"): tok("a"), tok("bot"): tok("bot")}.__getitem__
    a = Embedding(TokenMap(VEE, VEE, swap), TokenMap(VEE, VEE, swap))
    verify_embedding(a)
    back = Embedding(a.proj_map, a.fwd_map)
    emb = Embedding(exp_map(a, g.fwd_map), exp_map(back, g.proj_map))
    verify_embedding(emb)
    for t in emb.source.tokens().tokens:
        want = emb.target.from_function(
            lambda p: g.fwd(emb.source.apply(t, a.proj(p)))
        )
        assert emb.fwd(t) == want


def test_all_embedding_constructors_satisfy_ep_laws():
    # F on an ep-pair f, F each constructor beside a parameter
    three = catalog_basis("three-chain")
    f = _mk_embedding(O, three, {"bot": "bot", "top": "top"})
    for expr in (
        Sum(Id(), ConstD("O")),
        Prod(Id(), ConstD("O")),
        Exp("O", Id()),
    ):
        verify_embedding(apply_functor_embedding(expr, f, {"O": O}))


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
                    assert (canonical_steps(combo, D, E) is not None) == (
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
    if canonical_steps(pairs, D, E) is None:
        with pytest.raises(InconsistentUnion):
            fb.make(pairs)
        return
    t = fb.make(pairs)
    assert fb.make(fb.pairs(t)) == t
    live = [(p, q) for (p, q) in pairs if q != E.bottom]
    for p in dt:
        assert fb.apply(t, p) == apply_pairs(live, D, E, p)


# ---------------------------------------------------------------------------
# the order index: lower covers, and the jump points read at them

from domania.basis import lower_covers
from domania.builtins import flat_per, sierpinski_per
from domania.construct import FunBasis, _jump_pairs, premise_closure
from domania.spfunctor import LimitBasis, fixed_point_iso, omega_chain

S, FB = sierpinski_per().carrier, flat_per("flatbool").carrier
# (equation, parameters, last stage): the running example, an exponent
# beside a flat sum, a product, and a three-point chain as the exponent.
# Stage 4 of the running example has 410 tokens; of S + X * X 132,499.
COVER_CHAINS = {
    "A+[B->X]": (Sum(ConstD("A"), Exp("B", Id())), {"A": S, "B": S}, 4),
    "FB+[S->X]": (Sum(ConstD("FB"), Exp("S", Id())), {"FB": FB, "S": S}, 3),
    "S+X*X": (Sum(ConstD("S"), Prod(Id(), Id())), {"S": S}, 3),
    "A+[C->X]": (
        Sum(ConstD("A"), Exp("C", Id())),
        {"A": S, "C": catalog_basis("three-chain")},
        3,
    ),
}


def _cover_bases():
    out = [catalog_basis(n) for n in catalog_names()]
    for expr, env, n in COVER_CHAINS.values():
        out += [s.basis for s in omega_chain(expr, env, n)[1:]]
    return out


def test_covers_are_the_maximal_strictly_lower_tokens():
    for B in _cover_bases():
        toks = B.tokens().tokens
        lt = {t: {u for u in toks if u != t and B.leq(u, t)} for t in toks}
        covers = B.covers
        assert covers is B.covers  # built once
        # keys: a linear extension, fewest tokens below first, ties in token order
        assert list(covers) == sorted(toks, key=lambda t: len(lt[t])), B.name
        pos = {t: i for i, t in enumerate(covers)}
        assert all(pos[u] < pos[t] for t in toks for u in lt[t]), B.name
        for t in toks:
            maximal = {u for u in lt[t] if not any(u in lt[w] for w in lt[t])}
            assert set(covers[t]) == maximal, (B.name, t)
            assert covers[t] == sorted(covers[t], key=pos.get)


def _jump_pairs_all_pairs(values, D, E):
    """The all-pairs scan the covers replaced, kept as the reference: the
    join below a probe is taken over every strictly lower probe."""
    out = []
    for p in values:
        lower = [values[r] for r in values if r != p and D.leq(r, p)]
        join_lower = E.lub(lower) if lower else E.bottom
        if values[p] != join_lower and values[p] != E.bottom:
            out.append((p, values[p]))
    return frozenset(out)


def test_jump_pairs_at_covers_match_the_all_pairs_scan():
    """On every map `FunBasis._enumerate_all` builds: each function-space
    part of the chains' stages, and each catalog exponent into each catalog
    value basis (on the three-chain, the vee and the diamond an exponent
    token has fewer covers than lower tokens)."""
    catalog = [catalog_basis(n) for n in catalog_names()]
    fbs = [fun_basis(D, E) for D, E in itertools.product(catalog, repeat=2)]
    for expr, env, n in COVER_CHAINS.values():
        for s in omega_chain(expr, env, n)[1:]:
            fbs += [p for p in getattr(s.basis, "parts", ()) if isinstance(p, FunBasis)]
    maps = 0
    for fb in fbs:
        D, E = fb.exponent, fb.values
        vals = E.tokens().tokens
        for a in fb.monotone_maps(lambda p: vals):
            values = {p: a[p] for p in D.tokens().tokens}
            want = _jump_pairs_all_pairs(values, D, E)
            assert _jump_pairs(values, D.covers, E) == want, (fb.name, a)
            assert fb.pairs(fb.from_function(values.get)) == want
            maps += 1
    assert maps == sum(len(fb.tokens()) for fb in fbs)


def test_probe_set_covers_match_the_all_pairs_scan(monkeypatch):
    """On the partial probe sets `exp_map` hands to `from_probes` while
    `fixed_point_iso(...).verify` runs, and on those a step set's join
    reads meanwhile; over a diamond exponent too, whose top's two covers
    leave out the bottom below them.  Both read every probe strictly below
    (the steps they return are checked too); the covers among the probes
    give the same steps."""
    seen = {}
    from_probes, join = FunBasis.from_probes, FunBasis._join

    def record(values, D, E, token):
        seen.setdefault((frozenset(values.items()), D, E), (values, D, E, token))
        return token

    def record_probes(self, values):
        token = from_probes(self, values)
        return record(dict(values), self.exponent, self.values, token)

    def record_steps(self, pairs):
        pairs = list(pairs)
        token = join(self, pairs)
        if token is None:
            return None
        D, E = self.exponent, self.values
        live = [(p, q) for (p, q) in pairs if q != E.bottom]
        probes = premise_closure({p for (p, _) in live}, D)
        values = {p: apply_pairs(live, D, E, p) for p in probes}
        return record(values, D, E, token)

    monkeypatch.setattr(FunBasis, "from_probes", record_probes)
    monkeypatch.setattr(FunBasis, "_join", record_steps)
    diamond = (
        Sum(ConstD("A"), Exp("D", Id())), {"A": S, "D": catalog_basis("diamond")}, 3
    )
    for expr, env, n in [*COVER_CHAINS.values(), diamond]:
        stages = omega_chain(expr, env, n)
        fixed_point_iso(expr, env, LimitBasis(stages), bound=n - 1)
    fewer = 0
    for values, D, E, token in seen.values():
        want = _jump_pairs_all_pairs(values, D, E)
        assert token.key[1] == want
        covers = lower_covers(values, D.leq)
        assert _jump_pairs(values, covers, E) == want
        lower = sum(1 for p in values for r in values if r != p and D.leq(r, p))
        fewer += sum(map(len, covers.values())) < lower
    assert len(seen) > 100 and fewer > 10


# ---------------------------------------------------------------------------
# one join per step set: a single closure pass decides consistency and
# gives the canonical steps


def _two_pass_steps(pairs, D, E):
    """The two closure passes `canonical_steps` replaced, kept as the
    reference: consistency at every point of one premise-lub closure, then
    the canonical steps read at a second."""
    live = [(p, q) for (p, q) in pairs if q != E.bottom]
    if not live:
        return frozenset()
    closure = premise_closure({p for (p, _) in live}, D)
    if not all(E.cons([q for (p, q) in live if D.leq(p, r)]) for r in closure):
        return None
    probes = premise_closure({p for (p, _) in live}, D)
    values = {p: apply_pairs(live, D, E, p) for p in probes}
    return _jump_pairs_all_pairs(values, D, E)


def test_one_pass_steps_match_the_two_pass_reference():
    sets = 0
    for D, E in itertools.product([catalog_basis(n) for n in catalog_names()], repeat=2):
        steps = list(itertools.product(D.tokens().tokens, E.tokens().tokens))
        for size in (1, 2, 3):
            for combo in itertools.combinations(steps, size):
                want = _two_pass_steps(combo, D, E)
                assert canonical_steps(combo, D, E) == want, (D.name, E.name, combo)
                sets += 1
    assert sets == 2829


def test_a_fresh_step_set_is_closed_once(monkeypatch):
    from domania import construct

    closed = []
    closure = construct.premise_closure

    def counting(premises, D):
        closed.append(premises)
        return closure(premises, D)

    monkeypatch.setattr(construct, "premise_closure", counting)
    a, b = tok("a"), tok("b")
    # a basis of its own, so that no step set is cached yet
    fb = FunBasis(catalog_basis("vee"), catalog_basis("diamond"))
    fb.make([(a, a), (b, b)])
    assert len(closed) == 1
    f, g = fb.make([(a, b)]), fb.make([(BOT, a)])
    del closed[:]
    assert fb.cons((f, g))
    assert fb.pairs(fb.lub((f, g))) == {(BOT, a), (a, tok("top"))}
    assert len(closed) == 1

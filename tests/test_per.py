import itertools

import pytest

import domania.per as per_module
from domania import oracles, perlfp
from domania.basis import (
    Verdict,
    catalog_basis,
    catalog_names,
    catalog_poset,
    one_point_basis,
    tok,
)
from domania.builtins import flat_per, flatnat_per, sierpinski_per, trivial_per
from domania.construct import Embedding, TokenMap, identity_embedding, verify_embedding
from domania.errors import IncoherentChain, NotTotal, NotUniform
from domania.per import (
    check_property,
    finite_per,
    image_per,
    is_equiembedding,
    is_equivariant,
    limit_per,
    per_construct,
    prec_check,
    replace,
    uniform_limit_map,
    weak_iso_check,
)
from domania.ordinals import OMEGA, fin, omega_plus
from domania.oracles import all_pers, per_preservation_suite
from domania.perlfp import apply_functor_per, per_chain_extend
from domania.spfunctor import ChainStage, ConstD, Exp, Id, Prod, Sum, omega_chain

O = catalog_basis("two-chain")
BOT, TOP = tok("bot"), tok("top")
RUNNING = Sum(ConstD("A"), Exp("B", Id()))


def osier():
    return sierpinski_per()


def flatbool():
    return flat_per("flatbool")


def swap_summands(sb):
    def swap(v):
        spl = sb.split(v)
        if spl is None:
            return v
        i, x = spl
        return sb.inject(1 - i, x)

    return swap


def test_per_construct_sum_classes():
    s = per_construct("sum", osier(), osier())
    classes, exact = s.classes()
    assert exact
    assert len(classes) == 2
    assert all(len(c) == 1 for c in classes)


def test_per_construct_prod_classes():
    p = per_construct("prod", osier(), osier())
    classes, exact = p.classes()
    assert exact
    assert len(classes) == 1


def test_per_construct_fun_classes():
    f = per_construct("fun", osier(), osier())
    classes, exact = f.classes()
    assert exact
    assert len(classes) == 1
    # the single class holds the two maps sending top to top
    assert len(classes[0]) == 2


def split_diamond():
    # classes [a, top] and [b]: b lies below top but not below a, the
    # class's first member, so only its second member realises b <= f(top)
    d = catalog_basis("diamond")
    a, b, top = tok("a"), tok("b"), tok("top")
    return finite_per(d, [(a, a), (top, top), (a, top), (b, b)])


def discrete_chain():
    # both points of the two-chain total and unrelated: a map sending bot and
    # top to unrelated values must keep them ordered
    return finite_per(O, [(BOT, BOT), (TOP, TOP)])


def parity_image():
    # image of the flat naturals' parity in flatbool: tt ~ ff is unknown, as
    # the naturals' totals are not exhausted
    nat = flatnat_per(4)
    parity = lambda v: tok("ff" if nat.carrier.value_of(v) % 2 else "tt")
    return image_per(parity, nat, flatbool())


def top_image():
    # one class, but its related pairs are not exhausted
    nat = flatnat_per(4)
    return image_per(lambda v: TOP, nat, osier())


def test_flat_exponent_probe_points_match_a_scan():
    # over the flat naturals, the premises' naturals and one fresh natural
    # decide a function relation as a scan of every natural would
    nat = flatnat_per(4)
    for body in (osier(), flatbool()):
        fun = per_construct("fun", nat, body)
        fb = fun.carrier
        totals, _ = body.totals()
        # step sets on 0..2, and the constant maps
        toks = [
            fb.make([(nat.carrier.nat(n), v) for (n, v) in enumerate(vs) if v])
            for vs in itertools.product([None] + totals, repeat=3)
        ] + [fb.make([(nat.carrier.bottom, v)]) for v in totals]
        for f in toks:
            for g in toks:
                scan = all(
                    body.related(fb.apply(f, x), fb.apply(g, x)) is True
                    for x in map(nat.carrier.nat, range(8))
                )
                assert fun.related(f, g) is scan, (f, g)


def assert_representatives_match(per, bound=None, where=None):
    """The quotient rule's representatives against their slow reference,
    the grouped totals: each is related to itself, no two are related, each
    class holds exactly one, the exact flags agree, and the class count is
    their number.  Asked for before the classes are held, so that the rule,
    not the held classes, builds them."""
    reps, reps_exact = per.representatives(bound)
    classes, exact = per.classes(bound)
    assert per.class_count(bound) == (len(classes), exact), where
    assert reps_exact == exact, where
    assert all(per.related(r, r) is True for r in reps), where
    pairs = itertools.combinations(reps, 2)
    assert not any(per.related(a, b) is True for (a, b) in pairs), where
    held = [sum(r.key in {t.key for t in cls} for r in reps) for cls in classes]
    assert held == [1] * len(classes) and len(reps) == len(classes), where


@pytest.mark.parametrize("kind", ["sum", "prod", "fun"])
def test_class_count_matches_grouped_classes(kind):
    # the quotient rule against its slow reference, grouping the totals;
    # trivial parts give empty class sets, parity_image an unknown verdict,
    # top_image, as an exponent, the fallback for inexact related pairs, and
    # split_diamond, as a body, a class realised only by a later member
    parts = [
        osier, flatbool, trivial_per, discrete_chain, split_diamond, parity_image,
        top_image,
    ]
    for D, E in itertools.product(parts, repeat=2):
        per = per_construct(kind, D(), E())
        assert_representatives_match(per, where=(D.__name__, E.__name__))
    nested = per_construct(kind, flatbool(), per_construct("fun", osier(), flatbool()))
    assert_representatives_match(nested)


def test_fun_totals_over_inexact_exponent_pairs_are_inexact():
    # no f ~ f is True when the exponent's related pairs are not exhausted,
    # so the empty list of totals is not complete
    per = per_construct("fun", top_image(), osier())
    assert per.totals() == ([], False)
    assert per.class_count() == (0, False)


def test_constructed_rel_symmetric_transitive():
    for kind in ("sum", "prod", "fun"):
        per = per_construct(kind, osier(), flatbool())
        toks = list(per.carrier.tokens().tokens)
        rel = {(a.key, b.key) for a in toks for b in toks if per.related(a, b) is True}
        for (a, b) in rel:
            assert (b, a) in rel
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c:
                    assert (a, d) in rel


def test_osier_properties():
    per = osier()
    for prop in ("convex", "local", "complete", "upwards_closed", "dense"):
        assert check_property(per, prop).holds, prop


def test_vee_per_local_fails_with_witness():
    vee = catalog_basis("vee")
    per = finite_per(vee, [(tok("a"), tok("a")), (tok("a"), tok("b"))])
    v = check_property(per, "local")
    assert v.holds is False
    x, cls = v.witness
    assert set(t.key for t in cls) == {"a", "b"}


def test_empty_per_properties_vacuous():
    per = finite_per(O, [])
    for prop in ("weakly_convex", "convex", "local", "complete", "upwards_closed"):
        assert check_property(per, prop).holds, prop
    # dense fails: no token has a total extension
    assert check_property(per, "dense").holds is False


def scanned_class_of(P, x, bound=None):
    """Reference class of x: x and every carrier token related to it."""
    ts, _ = P.carrier_tokens(bound)
    return [x] + [t for t in ts if t != x and P.related(x, t) is True]


def reference_class_check(P, prop, bound=None):
    """Reference verdict of local, strongly_local and complete: a carrier
    scan for the class of every total."""
    B = P.carrier
    ts, exact = P.totals(bound)
    unknown = not P.carrier_tokens(bound)[1] or not exact
    for x in ts:
        cls = scanned_class_of(P, x, bound)
        if not B.cons(cls) and prop in ("local", "complete"):
            return False
        if prop == "strongly_local" and not all(
            any(B.leq(a, c) and B.leq(b, c) for c in cls) for a in cls for b in cls
        ):
            return False
        if prop == "complete":
            r = P.related(x, B.lub(cls))
            if r is False:
                return False
            unknown = unknown or r is None
    return None if unknown else True


def test_class_checks_match_a_carrier_scan_per_total():
    # one pass per class against one carrier scan per total, over every per
    # on the catalog carriers of at most 4 points
    verdicts = set()
    for name in catalog_names():
        if len(catalog_poset(name).elements) > 4:
            continue
        for P in all_pers(catalog_basis(name)):
            for prop in ("local", "strongly_local", "complete"):
                want = reference_class_check(P, prop)
                assert check_property(P, prop).holds is want, (name, prop)
                verdicts.add(want)
    assert verdicts == {True, False}


def test_flags_agree_with_checks_on_builtins():
    # a flag is True exactly when its check holds, False exactly when it fails
    for per in (osier(), flatbool()):
        for prop in ("convex", "local", "complete", "upwards_closed", "dense"):
            verdict = check_property(per, prop)
            assert verdict.holds is getattr(per.flags, prop), prop


def test_prec_check():
    per = osier()
    assert prec_check(per, BOT, TOP)
    assert prec_check(per, TOP, TOP)
    fper = per_construct("fun", osier(), osier())
    fb = fper.carrier
    const_top = fb.make([(BOT, TOP)])
    strict_top = fb.make([(TOP, TOP)])
    assert prec_check(fper, strict_top, const_top)
    with pytest.raises(NotTotal):
        prec_check(per, BOT, BOT)


def test_is_equivariant():
    per = osier()
    assert is_equivariant(lambda v: v, per, per).holds is True

    const_top = lambda v: TOP
    assert is_equivariant(const_top, per, per).holds is True

    s = per_construct("sum", osier(), osier())
    swap = swap_summands(s.carrier)
    assert is_equivariant(swap, s, s).holds is True


def pairwise_equivariance(f, D, E, bound=None):
    """Reference equivariance check: every related pair of D, one by one."""
    pairs, exact = D.related_pairs(bound)
    unknown = not exact
    for (x, y) in pairs:
        r = E.related(f(x), f(y))
        if r is False:
            return Verdict(False, (x, y), bound)
        if r is None:
            unknown = True
    return Verdict(None if unknown else True, None, bound)


def chain_link(chain, n):
    """Link n of `chain` as `is_equiembedding` takes it: the ep-pair from
    stage n - 1 to stage n, and the pers of those two stages."""
    return chain.embeddings[n - 1], chain.stages[n - 1][1], chain.stages[n][1]


def _links(expr, env, bounds):
    """(link n, bounds[n - 1]) for the first len(bounds) links of the chain
    of expr, each with the bound the chain checks it at."""
    chain = per_chain_extend(expr, env, fin(len(bounds)))
    return [(chain_link(chain, n), b) for (n, b) in enumerate(bounds, 1)]


def test_equivariance_class_certificate_matches_pairwise_scan():
    links = _links(RUNNING, {"A": osier(), "B": osier()}, [None] * 4 + [3])
    links += _links(
        Sum(ConstD("FB"), Exp("S", Id())), {"FB": flatbool(), "S": osier()}, [None] * 4
    )
    flatnat = _links(
        Sum(ConstD("A"), Exp("N", Id())), {"A": osier(), "N": flatnat_per(8)}, [3] * 4
    )
    # the flatnat links have inexact related pairs: the reference path decides
    assert all(not src.related_pairs(b)[1] for ((_, src, _), b) in flatnat[1:])
    cases = [(emb.fwd, src, tgt, b) for ((emb, src, tgt), b) in links + flatnat]

    s = per_construct("sum", osier(), osier())
    cases += [
        (lambda v: v, osier(), osier(), None),
        (lambda v: TOP, osier(), osier(), None),
        (swap_summands(s.carrier), s, s, None),
    ]
    for (f, D, E, bound) in cases:
        assert is_equivariant(f, D, E, bound) == pairwise_equivariance(f, D, E, bound)


def test_equivariance_broken_off_the_first_class_member():
    # the maps sending top to top form one class of two; breaking the map on
    # its second member only must still give the reference's verdict and witness
    fper = per_construct("fun", osier(), osier())
    (first, second), = fper.classes()[0]
    breaks = lambda v: BOT if v == second else TOP
    want = pairwise_equivariance(breaks, fper, osier())
    assert want.holds is False
    assert is_equivariant(breaks, fper, osier()) == want


def test_link_equivariance_enumerates_no_related_pairs(monkeypatch):
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, fin(5))

    def forbidden(*args, **kwargs):
        raise AssertionError("stage-4 related pairs enumerated")

    monkeypatch.setattr(chain.stages[4][1], "related_pairs", forbidden)
    # no refutation; undecided at the bound
    assert is_equiembedding(*chain_link(chain, 5), 3).holds is not False


def reference_reflection(emb, source, target, bound=None):
    """Reference for the per clauses of an equiembedding, reflection
    pairwise: every source total against every target value."""
    equivariant = pairwise_equivariance(emb.fwd, source, target, bound)
    ok = equivariant.holds
    if ok is False:
        return False, "equivariance", equivariant.witness
    ts, exact = source.totals(bound)
    tgt_toks, tgt_exact = target.carrier_tokens(bound)
    unknown = ok is None or not exact or not tgt_exact
    for x in ts:
        for y in tgt_toks:
            r = target.related(emb.fwd(x), y)
            if r is True:
                back = source.related(x, emb.proj(y))
                if back is False:
                    return False, "reflection", (x, y)
                if back is None:
                    unknown = True
            elif r is None:
                unknown = True
    return (None if unknown else True), "", None


def test_reflection_class_certificate_matches_pairwise_scan():
    env = {"A": osier(), "B": osier()}
    links = _links(RUNNING, env, [None] * 5)
    cases = [(pe, b) for (pe, _) in links[:4] for b in (None, 2, 3)]
    cases += [(links[4][0], b) for b in (2, 3)]
    cases += _links(
        Sum(ConstD("FB"), Exp("S", Id())), {"FB": flatbool(), "S": osier()}, [None] * 4
    )
    flatnat = _links(
        Sum(ConstD("A"), Exp("N", Id())), {"A": osier(), "N": flatnat_per(8)}, [3] * 4
    )
    cases += flatnat
    cases += _links(Sum(ConstD("A"), Prod(ConstD("B"), Id())), env, [None] * 4)
    cases += _links(ConstD("A"), env, [None] * 2)

    three = catalog_basis("three-chain")
    incoherent = finite_per(three, [(tok("top"), tok("top"))])
    # mid ~ top, but mid projects to bot, which is not total
    unreflected = finite_per(three, [(tok("top"), tok("mid"))])
    inclusion = _embedding_from_keys(O, three, {"bot": "bot", "top": "top"})
    finite = [
        (identity_embedding(O), osier(), osier()),
        (identity_embedding(O), osier(), discrete_chain()),
        (identity_embedding(O), discrete_chain(), osier()),
        (_embedding_from_keys(O, three, {"bot": "bot", "top": "mid"}), osier(), incoherent),
        (inclusion, osier(), unreflected),
    ] + [
        (identity_embedding(tgt.carrier), src, tgt)
        for (src, tgt) in (
            (parity_image(), parity_image()),
            (top_image(), top_image()),
            # equivariant, but tt ~ ff is unknown on exact carriers
            (flatbool(), parity_image()),
        )
    ]
    cases += [(link, None) for link in finite]

    # each case is an ep-pair, which is_equiembedding takes as given
    for (i, ((emb, _, _), b)) in enumerate(cases):
        assert verify_embedding(emb, b), (i, b)
    verdicts = [reference_reflection(*link, b) for (link, b) in cases]
    # the flatnat links say unknown, and the cases fail each clause
    assert all(verdicts[cases.index(link)][0] is None for link in flatnat)
    assert verdicts[-1] == (None, "", None)
    assert {v[1] for v in verdicts} == {"", "equivariance", "reflection"}
    for (i, ((link, b), want)) in enumerate(zip(cases, verdicts)):
        v = is_equiembedding(*link, b)
        assert (v.holds, v.clause, v.witness) == want, (i, b)


def test_oracle_backs_the_ep_pair_rule_by_brute_force(monkeypatch):
    # a product of projections that sends the image of a half-defined pair
    # (one component bottom) back to bottom: proj . fwd is no identity, yet
    # on the pairs the suite closes no per clause sees it, so only the
    # suite's own ep-pair check fails the closure entry
    enumerate_embeddings, prod_map = oracles.enumerate_embeddings, oracles.prod_map
    projections = set()

    def listing(src, tgt):
        out = enumerate_embeddings(src, tgt)
        projections.update(e.proj_map for e in out)
        return out

    def broken(f, g):
        m = prod_map(f, g)
        if f not in projections:
            return m

        def fn(t):
            x, y = m.target.split(m(t))
            if (x == f.target.bottom) != (y == g.target.bottom):
                return m.target.bottom
            return m(t)

        return TokenMap(m.source, m.target, fn)

    def closure_entries():
        return {
            name: v.holds
            for (name, v) in per_preservation_suite(2).entries
            if name.endswith("equiembedding-closure")
        }

    monkeypatch.setattr(oracles, "enumerate_embeddings", listing)
    monkeypatch.setattr(oracles, "prod_map", broken)
    assert closure_entries() == {
        "sum-prod-equiembedding-closure": False,
        "exp-equiembedding-closure": True,
    }
    monkeypatch.setattr(oracles, "verify_embedding", lambda emb, bound=None: True)
    assert all(closure_entries().values())


def test_link_reflection_scans_classes_not_totals(monkeypatch):
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, fin(4))
    emb, source, target = chain_link(chain, 4)
    n_totals = len(source.totals()[0])
    n_carrier = len(target.carrier_tokens()[0])
    target_related = target.related
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return target_related(a, b)

    monkeypatch.setattr(target, "related", counting)
    assert is_equiembedding(emb, source, target).holds is True
    assert len(calls) < n_totals * n_carrier


def _link_calls(monkeypatch):
    calls = []

    def counting(emb, source, target, bound=None):
        calls.append((emb, bound))
        return is_equiembedding(emb, source, target, bound)

    monkeypatch.setattr(perlfp, "is_equiembedding", counting)
    monkeypatch.setattr(per_module, "is_equiembedding", counting)
    return calls


def test_chain_decides_each_link_once(monkeypatch):
    # per-lfp at rank bound 4: link 1 is scanned exhaustively, links 2-5 are
    # F applied to an equiembedding over a dense exponent, decided exactly by
    # the rule with no scan, and the limit takes them as checked
    calls = _link_calls(monkeypatch)
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, OMEGA, n_finite=5)
    assert calls == [(chain.embeddings[0], None)]
    assert chain.link_bounds == [None] * 5
    assert chain.link_bound is None


def _not_dense(per):
    return replace(per, flags=replace(per.flags, dense=None))


@pytest.mark.parametrize(
    "expr, env, bounds",
    [
        # an exponent per not flagged dense: the rule says nothing
        (RUNNING, {"A": osier(), "B": _not_dense(osier())}, [None] * 4 + [3]),
        # a staged parameter: link 1 is decided on a fragment only
        (Sum(ConstD("A"), Exp("N", Id())), {"A": osier(), "N": flatnat_per()}, [3] * 5),
    ],
    ids=["exponent-not-dense", "flatnat-parameter"],
)
def test_chain_scans_every_link_without_the_rule(monkeypatch, expr, env, bounds):
    calls = _link_calls(monkeypatch)
    chain = per_chain_extend(expr, env, OMEGA, n_finite=5)
    assert calls == list(zip(chain.embeddings, bounds))
    assert chain.link_bounds == bounds
    assert chain.link_bound == 3


def test_fresh_link_groups_its_source_totals_once(monkeypatch):
    # link 4 of the running example: equivariance and reflection both read
    # the source's classes, which are grouped once and kept
    env = {"A": osier(), "B": osier()}
    source = per_chain_extend(RUNNING, env, fin(3)).stages[3][1]
    target = apply_functor_per(RUNNING, source, env)
    emb = omega_chain(RUNNING, {k: p.carrier for (k, p) in env.items()}, 4)[4]
    grouped = []
    group_classes = per_module.group_classes

    def counting(values, related):
        grouped.append(len(values))
        return group_classes(values, related)

    monkeypatch.setattr(per_module, "group_classes", counting)
    assert is_equiembedding(emb.embed_from_prev, source, target).holds
    assert grouped == [len(source.totals()[0])]


def test_is_equiembedding_identity():
    per = osier()
    v = is_equiembedding(identity_embedding(O), per, per)
    assert v.holds is True


def _embedding_from_keys(src, tgt, mapping):
    fwd_map = {k: tok(v) for (k, v) in mapping.items()}

    def fwd(t):
        return fwd_map[t.key]

    def proj(q):
        below = [p for p in src.tokens().tokens if tgt.leq(fwd(p), q)]
        return src.lub(below) if below else src.bottom

    return Embedding(TokenMap(src, tgt, fwd), TokenMap(tgt, src, proj))


def test_reflection_counterexample_found_by_search():
    """Search all pers on the three-chain for one making the inclusion of
    (O, top~top) fail the reflection clause, then confirm the verdict."""
    three = catalog_basis("three-chain")
    emb = _embedding_from_keys(O, three, {"bot": "bot", "top": "top"})
    src = osier()
    elems = [t.key for t in three.tokens().tokens]
    found = None
    for n_pairs in range(1, 7):
        for gen in itertools.combinations(
            [(a, b) for a in elems for b in elems], n_pairs
        ):
            try:
                tgt = finite_per(three, [(tok(a), tok(b)) for (a, b) in gen])
            except Exception:
                continue
            if is_equivariant(emb.fwd, src, tgt).holds is not True:
                continue
            v = is_equiembedding(emb, src, tgt)
            if v.holds is False and v.clause == "reflection":
                found = (tgt, v)
                break
        if found:
            break
    assert found is not None
    tgt, v = found
    x, y = v.witness
    assert tgt.related(emb.fwd(x), y) is True
    assert src.related(x, emb.proj(y)) is False


def test_inclusion_into_fuller_per_passes():
    per_small = osier()
    per_big = finite_per(O, [(BOT, BOT), (TOP, TOP)])
    v = is_equiembedding(identity_embedding(O), per_small, per_big)
    assert v.holds is True


def identity(v):
    return v


def image_is_equiembedding(phi, source, target):
    # the inclusion of phi's image per into phi's target
    img = image_per(phi, source, target)
    return is_equiembedding(identity_embedding(img.carrier), img, target)


def test_image_per_of_identity():
    per = osier()
    img = image_per(identity, per, per)
    assert img.related(TOP, TOP) is True
    assert img.related(BOT, BOT) is False
    classes, _ = img.classes()
    assert len(classes) == 1


def test_image_per_of_constant():
    per = osier()
    phi = lambda v: TOP
    img = image_per(phi, per, per)
    classes, _ = img.classes()
    assert len(classes) == 1
    assert image_is_equiembedding(phi, per, per).holds is True
    assert image_is_equiembedding(identity, per, per).holds is True


def test_image_per_totals_are_the_target_totals_related_to_an_image():
    # the target's class {mid, top} holds the image of top, so top is a
    # total of the image per although no source total maps to it
    three = catalog_basis("three-chain")
    target = finite_per(three, [(tok("mid"), tok("top"))])
    phi = lambda v: tok("mid") if v == TOP else tok("bot")
    img = image_per(phi, osier(), target)
    assert img.related(TOP, TOP) is True
    assert img.totals() == ([tok("mid"), tok("top")], True)
    assert img.classes() == ([[tok("mid"), tok("top")]], True)
    assert img.class_of(TOP) == [tok("mid"), tok("top")]


def test_weak_iso_checks():
    per = osier()
    assert weak_iso_check(identity, identity, per, per).holds is True

    s = per_construct("sum", osier(), osier())
    sb = s.carrier
    swap = swap_summands(sb)
    assert weak_iso_check(swap, swap, s, s).holds is True

    # constants between pers with two classes fail the round trip
    c0 = lambda v: sb.inject(0, TOP)
    v = weak_iso_check(c0, c0, s, s)
    assert (v.holds, v.clause) == (False, "round-trip")


def round_trips_over_totals(phi, chi, D, E, bound=None):
    """Reference for `weak_iso_check` as `(holds, clause, witness)`: both
    maps equivariant, then each round trip on every source total."""
    undecided = False
    for (f, src, tgt) in ((phi, D, E), (chi, E, D)):
        v = is_equivariant(f, src, tgt, bound)
        if v.holds is False:
            return False, "equivariance", v.witness
        undecided = undecided or v.holds is None
    for (f, g, src) in ((phi, chi, D), (chi, phi, E)):
        ts, exact = src.totals(bound)
        undecided = undecided or not exact
        for x in ts:
            r = src.related(g(f(x)), x)
            if r is False:
                return False, "round-trip", x
            undecided = undecided or r is None
    return (None if undecided else True), "", None


def assert_weak_iso_matches_totals(phi, chi, D, E, bound=None):
    v = weak_iso_check(phi, chi, D, E, bound)
    assert (v.holds, v.clause, v.witness) == round_trips_over_totals(phi, chi, D, E, bound)


def test_weak_iso_round_trips_on_representatives_match_totals():
    s = per_construct("sum", osier(), osier())
    sb = s.carrier
    c0 = lambda v: sb.inject(0, TOP)
    sw = swap_summands(sb)
    for (phi, chi) in ((c0, c0), (sw, sw), (sw, c0), (c0, sw)):
        assert_weak_iso_matches_totals(phi, chi, s, s)


def _constant_chain(per, n):
    """n stages on `per`'s carrier linked by the identity, and `per` on
    each."""
    link = identity_embedding(per.carrier)
    stages = [ChainStage(fin(i), per.carrier, link if i else None) for i in range(n)]
    return stages, [per] * n


def test_limit_of_constant_chain():
    pl = limit_per(*_constant_chain(osier(), 3))
    top0 = pl.limit.canonical(0, TOP)
    assert pl.per.related(top0, top0) is True
    assert pl.rank_of(top0) == 0
    classes, _ = pl.per.classes()
    assert len(classes) == 1


def test_limit_representatives_keep_one_per_class_across_stages(monkeypatch):
    # the stages name the first and the last member of each class in turn,
    # so a class's tags at successive stages differ and only the grouping
    # keeps one of them
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, fin(3))
    pers = [per for (_, per) in chain.stages]
    for (n, per) in enumerate(pers):
        named = [cls[-(n % 2)] for cls in per.classes()[0]]
        monkeypatch.setattr(per, "representatives", lambda b=None, r=named: (r, True))
    stages = omega_chain(RUNNING, {"A": O, "B": O}, 3)
    assert_representatives_match(limit_per(stages, pers).per)


def test_incoherent_chain_rejected():
    # one per for each stage; the links themselves are decided where the
    # chain is built
    stages, pers = _constant_chain(osier(), 3)
    with pytest.raises(IncoherentChain):
        limit_per(stages, pers[:2])


def test_uniform_limit_map_identity_and_swap():
    s = per_construct("sum", osier(), osier())
    pl = limit_per(*_constant_chain(s, 3))

    ident = uniform_limit_map([identity] * 3, pl, pl)
    t = pl.limit.canonical(0, s.carrier.inject(0, TOP))
    assert ident(t) == t

    sb = s.carrier
    swap = swap_summands(sb)

    # the swap is its own inverse: both limit maps are built and the pair
    # checked, as the independence report does; limit totals are never
    # exact, so only a False would refute it
    phi = uniform_limit_map([swap] * 3, pl, pl)
    chi = uniform_limit_map([swap] * 3, pl, pl)
    assert weak_iso_check(phi, chi, pl.per, pl.per, 2).holds is not False
    assert all(chi(phi(x)) == x for x in pl.per.totals(2)[0])
    assert phi(t) == pl.limit.canonical(0, sb.inject(1, TOP))


def test_uniform_limit_map_rejects_nonuniform_family():
    s = per_construct("sum", osier(), osier())
    pl = limit_per(*_constant_chain(s, 3))
    fam = [identity, identity, swap_summands(s.carrier)]
    with pytest.raises(NotUniform) as ei:
        uniform_limit_map(fam, pl, pl)
    assert ei.value.stage == 2


def test_staged_function_values_list_each_value_once():
    # [B -> X_omega] of the running example: the values a non-total point
    # takes are bottom, then the fragment below each body representative,
    # each once and in order of first appearance; bottom and the shared
    # lower values lie below several representatives
    env = {"A": osier(), "B": osier()}
    chain = per_chain_extend(RUNNING, env, omega_plus(1), n_finite=4)
    rel = chain.unfolded[0].rel.parts[1].rel
    body = rel.body_per.carrier
    reps, _ = rel.body_per.representatives(4)
    values, exact = rel._values(reps, 4)
    frag = body.tokens(4).tokens
    listed = [body.bottom] + [t for v in reps for t in frag if body.leq(t, v)]
    assert len(listed) > len(set(listed))
    assert list(values()) == list(dict.fromkeys(listed))
    assert exact is False


def test_stage_class_count_does_not_list_the_stage_below(monkeypatch):
    # stage 5 of the running example: its [B -> X_4] classes are found from
    # stage 4's representatives and bottom, so counting them never lists
    # stage 4's 410 tokens in full
    env = {"A": osier(), "B": osier()}
    chain = per_chain_extend(RUNNING, env, omega_plus(1), n_finite=5)
    stage4 = chain.stages[4][1].carrier
    listed = stage4.tokens

    def bounded_only(bound=None):
        if bound is None:
            raise AssertionError("stage 4 listed in full")
        return listed(bound)

    monkeypatch.setattr(stage4, "tokens", bounded_only)
    assert chain.stages[5][1].class_count(4) == (5, True)


def test_class_count_reads_the_held_classes(monkeypatch):
    # stage 3 of A + [N -> X]: once the classes are held, counting them
    # groups nothing again, the [N -> X] part's own totals included
    env = {"A": osier(), "N": flatnat_per(8)}
    expr = Sum(ConstD("A"), Exp("N", Id()))
    stage2 = per_chain_extend(expr, env, fin(2)).stages[2][1]
    stage3 = apply_functor_per(expr, stage2, env)
    grouped = []
    group_classes = per_module.group_classes

    def counting(values, related):
        grouped.append(len(values))
        return group_classes(values, related)

    monkeypatch.setattr(per_module, "group_classes", counting)
    classes, exact = stage3.classes(3)
    assert stage3.class_count(3) == (len(classes), exact)
    assert grouped == [len(stage3.totals(3)[0])]

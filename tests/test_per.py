import itertools
from dataclasses import replace

import pytest

import domania.per as per_module
from domania import perlfp
from domania.basis import (
    catalog_basis,
    catalog_names,
    catalog_poset,
    one_point_basis,
    tok,
)
from domania.builtins import flatbool_per, flatnat_per, sierpinski_per, trivial_per
from domania.construct import Embedding, identity_embedding, verify_embedding
from domania.errors import IncoherentChain, NotAnEmbedding, NotTotal, NotUniform
from domania.per import (
    NO,
    UNKNOWN,
    YES,
    DomainPer,
    PerEmbedding,
    PerMap,
    check_property,
    equi_injective,
    finite_per,
    image_per,
    is_equiembedding,
    is_equivariant,
    limit_per,
    per_construct,
    prec_check,
    uniform_limit_map,
    weak_iso_check,
)
from domania.ordinals import OMEGA, fin
from domania.oracles import all_pers
from domania.perlfp import apply_functor_per, per_chain_extend
from domania.spfunctor import ConstD, Exp, Id, Prod, Sum, omega_chain

O = catalog_basis("two-chain")
BOT, TOP = tok("bot"), tok("top")
RUNNING = Sum(ConstD("A"), Exp("B", Id()))


def osier():
    return sierpinski_per()


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


def discrete_chain():
    # both points of the two-chain total and unrelated: a map sending bot and
    # top to unrelated values must keep them ordered
    return finite_per(O, [(BOT, BOT), (TOP, TOP)])


def parity_image():
    # image of the flat naturals' parity in flatbool: tt ~ ff is unknown, as
    # the naturals' totals are not exhausted
    nat = flatnat_per(4)
    parity = PerMap(
        nat, flatbool_per(), lambda v: tok("ff" if nat.carrier.value_of(v) % 2 else "tt")
    )
    return image_per(parity)


def top_image():
    # one class, but its related pairs are not exhausted
    nat = flatnat_per(4)
    return image_per(PerMap(nat, osier(), lambda v: TOP))


def test_flat_exponent_probe_points_match_a_scan():
    # over the flat naturals, the premises' naturals and one fresh natural
    # decide a function relation as a scan of every natural would
    nat = flatnat_per(4)
    for body in (osier(), flatbool_per()):
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


@pytest.mark.parametrize("kind", ["sum", "prod", "fun"])
def test_class_count_matches_grouped_classes(kind):
    # the quotient rule against its slow reference, grouping the totals;
    # trivial parts give empty class sets, parity_image an unknown verdict,
    # and top_image, as an exponent, the fallback for inexact related pairs
    parts = [osier, flatbool_per, trivial_per, discrete_chain, parity_image, top_image]
    for D, E in itertools.product(parts, repeat=2):
        # counted before the classes are held, so the rule decides the count
        per = per_construct(kind, D(), E())
        count = per.class_count()
        classes, exact = per.classes()
        assert count == (len(classes), exact), (D.__name__, E.__name__)
    nested = per_construct(kind, flatbool_per(), per_construct("fun", osier(), flatbool_per()))
    count = nested.class_count()
    classes, exact = nested.classes()
    assert count == (len(classes), exact)


def test_fun_totals_over_inexact_exponent_pairs_are_inexact():
    # no f ~ f is True when the exponent's related pairs are not exhausted,
    # so the empty list of totals is not complete
    per = per_construct("fun", top_image(), osier())
    assert per.totals() == ([], False)
    assert per.class_count() == (0, False)


def test_constructed_rel_symmetric_transitive():
    for kind in ("sum", "prod", "fun"):
        per = per_construct(kind, osier(), flatbool_per())
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
    assert v.status == "fails"
    x, cls = v.witness
    assert set(t.key for t in cls) == {"a", "b"}


def test_empty_per_properties_vacuous():
    per = finite_per(O, [])
    for prop in ("weakly_convex", "convex", "local", "complete", "upwards_closed"):
        assert check_property(per, prop).holds, prop
    # dense fails: no token has a total extension
    assert check_property(per, "dense").status == "fails"


def scanned_class_of(P, x, bound=None):
    """Reference class of x: x and every carrier token related to it."""
    ts, _ = P.carrier_tokens(bound)
    return [x] + [t for t in ts if t != x and P.related(x, t, bound) is True]


def reference_class_check(P, prop, bound=None):
    """Reference status of local, strongly_local and complete: a carrier
    scan for the class of every total."""
    B = P.carrier
    ts, exact = P.totals(bound)
    unknown = not P.carrier_tokens(bound)[1] or not exact
    for x in ts:
        cls = scanned_class_of(P, x, bound)
        if not B.cons(cls) and prop in ("local", "complete"):
            return "fails"
        if prop == "strongly_local" and not all(
            any(B.leq(a, c) and B.leq(b, c) for c in cls) for a in cls for b in cls
        ):
            return "fails"
        if prop == "complete":
            r = P.related(x, B.lub(cls), bound)
            if r is False:
                return "fails"
            unknown = unknown or r is None
    return "unknown" if unknown else "holds"


def test_class_checks_match_a_carrier_scan_per_total():
    # one pass per class against one carrier scan per total, over every per
    # on the catalog carriers of at most 4 points
    statuses = set()
    for name in catalog_names():
        if len(catalog_poset(name).elements) > 4:
            continue
        for P in all_pers(catalog_basis(name)):
            for prop in ("local", "strongly_local", "complete"):
                want = reference_class_check(P, prop)
                assert check_property(P, prop).status == want, (name, prop)
                statuses.add(want)
    assert statuses == {"holds", "fails"}


def test_flags_agree_with_checks_on_builtins():
    # a flag reads yes exactly when its check holds, no exactly when it fails
    status = {YES: "holds", NO: "fails", UNKNOWN: "unknown"}
    for per in (osier(), flatbool_per()):
        for prop in ("convex", "local", "complete", "upwards_closed", "dense"):
            verdict = check_property(per, prop)
            assert verdict.status == status[getattr(per.flags, prop)], prop


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


def test_is_equivariant_and_equi_injective():
    per = osier()
    ok, _ = is_equivariant(lambda v: v, per, per)
    assert ok is True
    ok, _ = equi_injective(lambda v: v, per, per)
    assert ok is True

    const_top = lambda v: TOP
    ok, _ = is_equivariant(const_top, per, per)
    assert ok is True
    ok, _ = equi_injective(const_top, per, per)
    assert ok is True  # one class only, so reflection is vacuous

    s = per_construct("sum", osier(), osier())
    swap = swap_summands(s.carrier)
    ok, _ = is_equivariant(swap, s, s)
    assert ok is True
    ok, _ = equi_injective(swap, s, s)
    assert ok is True


def pairwise_equivariance(f, D, E, bound=None):
    """Reference equivariance check: every related pair of D, one by one."""
    pairs, exact = D.related_pairs(bound)
    unknown = not exact
    for (x, y) in pairs:
        r = E.related(f(x), f(y), bound)
        if r is False:
            return False, (x, y)
        if r is None:
            unknown = True
    return (None if unknown else True), None


def _links(expr, env, bounds):
    """(link n, bounds[n - 1]) for the first len(bounds) links of the chain
    of expr, each with the bound the chain checks it at."""
    chain = per_chain_extend(expr, env, fin(len(bounds)))
    return list(zip(chain.embeddings, bounds))


def test_equivariance_class_certificate_matches_pairwise_scan():
    links = _links(RUNNING, {"A": osier(), "B": osier()}, [None] * 4 + [3])
    links += _links(
        Sum(ConstD("FB"), Exp("S", Id())), {"FB": flatbool_per(), "S": osier()}, [None] * 4
    )
    flatnat = _links(
        Sum(ConstD("A"), Exp("N", Id())), {"A": osier(), "N": flatnat_per(8)}, [3] * 4
    )
    # the flatnat links have inexact related pairs: the reference path decides
    assert all(not pe.source.related_pairs(b)[1] for (pe, b) in flatnat[1:])
    cases = [(pe.emb.fwd, pe.source, pe.target, b) for (pe, b) in links + flatnat]

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
    assert want[0] is False
    assert is_equivariant(breaks, fper, osier()) == want


def test_link_equivariance_enumerates_no_related_pairs(monkeypatch):
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, fin(5))

    def forbidden(*args, **kwargs):
        raise AssertionError("stage-4 related pairs enumerated")

    monkeypatch.setattr(chain.stages[4][1], "related_pairs", forbidden)
    assert is_equiembedding(chain.embeddings[4], 3).ok


def reference_reflection(pe, bound=None):
    """Reference equiembedding check, reflection clause pairwise: every
    source total against every target value."""
    try:
        verify_embedding(pe.emb, bound)
    except NotAnEmbedding as e:
        return False, "embedding", e.witness, False
    ok, w = pairwise_equivariance(pe.emb.fwd, pe.source, pe.target, bound)
    if ok is False:
        return False, "equivariance", w, False
    ts, exact = pe.source.totals(bound)
    tgt_toks, tgt_exact = pe.target.carrier_tokens(bound)
    unknown = ok is None or not exact or not tgt_exact
    for x in ts:
        for y in tgt_toks:
            r = pe.target.related(pe.emb.fwd(x), y, bound)
            if r is True:
                back = pe.source.related(x, pe.emb.proj(y), bound)
                if back is False:
                    return False, "reflection", (x, y), False
                if back is None:
                    unknown = True
            elif r is None:
                unknown = True
    return True, "", None, unknown


def test_reflection_class_certificate_matches_pairwise_scan():
    env = {"A": osier(), "B": osier()}
    links = _links(RUNNING, env, [None] * 5)
    cases = [(pe, b) for (pe, _) in links[:4] for b in (None, 2, 3)]
    cases += [(links[4][0], b) for b in (2, 3)]
    cases += _links(
        Sum(ConstD("FB"), Exp("S", Id())), {"FB": flatbool_per(), "S": osier()}, [None] * 4
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
        PerEmbedding(identity_embedding(O), osier(), osier()),
        PerEmbedding(identity_embedding(O), osier(), discrete_chain()),
        PerEmbedding(identity_embedding(O), discrete_chain(), osier()),
        PerEmbedding(
            _embedding_from_keys(O, three, {"bot": "bot", "top": "mid"}), osier(), incoherent
        ),
        PerEmbedding(inclusion, osier(), unreflected),
    ] + [
        PerEmbedding(identity_embedding(tgt.carrier), src, tgt)
        for (src, tgt) in (
            (parity_image(), parity_image()),
            (top_image(), top_image()),
            # equivariant, but tt ~ ff is unknown on exact carriers
            (flatbool_per(), parity_image()),
        )
    ]
    cases += [(pe, None) for pe in finite]

    verdicts = [reference_reflection(pe, b) for (pe, b) in cases]
    # the flatnat links say unknown, and the cases fail each clause
    assert all(verdicts[cases.index(link)][3] for link in flatnat)
    assert verdicts[-1] == (True, "", None, True)
    assert {v[1] for v in verdicts} == {"", "equivariance", "reflection"}
    for (pe, b), want in zip(cases, verdicts):
        v = is_equiembedding(pe, b)
        assert (v.ok, v.clause, v.witness, v.unknown) == want, (pe.name, b)


def test_link_reflection_scans_classes_not_totals(monkeypatch):
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, fin(4))
    link = chain.embeddings[3]
    n_totals = len(link.source.totals()[0])
    n_carrier = len(link.target.carrier_tokens()[0])
    target_related = link.target.related
    calls = []

    def counting(a, b, bound=None):
        calls.append((a, b))
        return target_related(a, b, bound)

    monkeypatch.setattr(link.target, "related", counting)
    assert is_equiembedding(link).ok
    assert len(calls) < n_totals * n_carrier


def _link_calls(monkeypatch):
    calls = []

    def counting(pe, bound=None):
        calls.append((pe.name, bound))
        return is_equiembedding(pe, bound)

    monkeypatch.setattr(perlfp, "is_equiembedding", counting)
    monkeypatch.setattr(per_module, "is_equiembedding", counting)
    return calls


def test_chain_decides_each_link_once(monkeypatch):
    # per-lfp at rank bound 4: link 1 is scanned exhaustively, links 2-5 are
    # F applied to an equiembedding over a dense exponent, decided exactly by
    # the rule with no scan, and the limit takes them as checked
    calls = _link_calls(monkeypatch)
    chain = per_chain_extend(RUNNING, {"A": osier(), "B": osier()}, OMEGA, n_finite=5)
    assert calls == [("f0,1", None)]
    assert chain.link_bounds == [None] * 5
    assert chain.link_bound is None


def _not_dense(per):
    return DomainPer(per.carrier, per.rel, replace(per.flags, dense=UNKNOWN), name=per.name)


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
    assert calls == [(pe.name, b) for (pe, b) in zip(chain.embeddings, bounds)]
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
    assert is_equiembedding(PerEmbedding(emb.embed_from_prev, source, target)).ok
    assert grouped == [len(source.totals()[0])]


def test_is_equiembedding_identity():
    per = osier()
    v = is_equiembedding(PerEmbedding(identity_embedding(O), per, per))
    assert v.ok and not v.unknown


def _embedding_from_keys(src, tgt, mapping):
    fwd_map = {k: tok(v) for (k, v) in mapping.items()}

    def fwd(t):
        return fwd_map[t.key]

    def proj(q):
        below = [p for p in src.tokens().tokens if tgt.leq(fwd(p), q)]
        return src.lub(below) if below else src.bottom

    return Embedding(src, tgt, fwd, proj)


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
            ok, _ = is_equivariant(emb.fwd, src, tgt)
            if ok is not True:
                continue
            v = is_equiembedding(PerEmbedding(emb, src, tgt))
            if not v.ok and v.clause == "reflection":
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
    v = is_equiembedding(PerEmbedding(identity_embedding(O), per_small, per_big))
    assert v.ok


def identity_map(per):
    return PerMap(per, per, lambda v: v)


def image_is_equiembedding(phi):
    # the inclusion of phi's image per into phi's target
    img = image_per(phi)
    return is_equiembedding(
        PerEmbedding(identity_embedding(img.carrier), img, phi.target)
    )


def test_image_per_of_identity():
    per = osier()
    img = image_per(identity_map(per))
    assert img.related(TOP, TOP) is True
    assert img.related(BOT, BOT) is False
    classes, _ = img.classes()
    assert len(classes) == 1


def test_image_per_of_constant():
    per = osier()
    phi = PerMap(per, per, lambda v: TOP, name="const-top")
    img = image_per(phi)
    classes, _ = img.classes()
    assert len(classes) == 1
    assert image_is_equiembedding(phi).ok
    assert image_is_equiembedding(identity_map(per)).ok


def test_image_per_totals_are_the_target_totals_related_to_an_image():
    # the target's class {mid, top} holds the image of top, so top is a
    # total of the image per although no source total maps to it
    three = catalog_basis("three-chain")
    target = finite_per(three, [(tok("mid"), tok("top"))])
    phi = PerMap(osier(), target, lambda v: tok("mid") if v == TOP else tok("bot"))
    img = image_per(phi)
    assert img.related(TOP, TOP) is True
    assert img.totals() == ([tok("mid"), tok("top")], True)
    assert img.classes() == ([[tok("mid"), tok("top")]], True)
    assert img.class_of(TOP) == [tok("mid"), tok("top")]


def test_weak_iso_checks():
    per = osier()
    ok, _ = weak_iso_check(identity_map(per), identity_map(per))
    assert ok is True

    s = per_construct("sum", osier(), osier())
    sb = s.carrier
    swap = swap_summands(sb)

    sw = PerMap(s, s, swap, name="swap")
    ok, _ = weak_iso_check(sw, sw)
    assert ok is True

    # constants between pers with two classes fail the round trip
    c0 = PerMap(s, s, lambda v: sb.inject(0, TOP), name="c0")
    ok, w = weak_iso_check(c0, c0)
    assert ok is False


def _constant_chain(per, n):
    pers = [per] * n
    embs = [
        PerEmbedding(identity_embedding(per.carrier), per, per, name=f"id{i}")
        for i in range(n - 1)
    ]
    return pers, embs


def test_limit_of_constant_chain():
    pers, embs = _constant_chain(osier(), 3)
    pl = limit_per(pers, embs)
    top0 = pl.limit.canonical(0, TOP)
    assert pl.per.related(top0, top0) is True
    assert pl.rank_of(top0) == 0
    classes, _ = pl.per.classes()
    assert len(classes) == 1


def test_incoherent_chain_rejected():
    # one link per consecutive stage pair; the links themselves are decided
    # where the chain is built
    pers, embs = _constant_chain(osier(), 3)
    with pytest.raises(IncoherentChain):
        limit_per(pers, embs[:1])


def test_uniform_limit_map_identity_and_swap():
    s = per_construct("sum", osier(), osier())
    pers, embs = _constant_chain(s, 3)
    pl = limit_per(pers, embs)

    ident = uniform_limit_map([PerMap(s, s, lambda v: v)] * 3, pl, pl)
    t = pl.limit.canonical(0, s.carrier.inject(0, TOP))
    assert ident(t) == t

    sb = s.carrier
    swap = swap_summands(sb)

    fam = [PerMap(s, s, swap, name="swap")] * 3
    phi = uniform_limit_map(fam, pl, pl, chi_family=fam)
    assert phi(t) == pl.limit.canonical(0, sb.inject(1, TOP))


def test_uniform_limit_map_rejects_nonuniform_family():
    s = per_construct("sum", osier(), osier())
    pers, embs = _constant_chain(s, 3)
    pl = limit_per(pers, embs)
    swap = swap_summands(s.carrier)
    fam = [
        PerMap(s, s, lambda v: v),
        PerMap(s, s, lambda v: v),
        PerMap(s, s, swap),
    ]
    with pytest.raises(NotUniform) as ei:
        uniform_limit_map(fam, pl, pl)
    assert ei.value.stage == 2


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

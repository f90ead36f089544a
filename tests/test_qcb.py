import itertools

import pytest

from domania import qcb
from domania.basis import Verdict, catalog_basis, enumerate_monotone_maps, tok
from domania.errors import BadParameterPedigree, NotT0, NotUniform, NotWeaklyEquivalent
from domania.qcb import (
    check_fun_coherence,
    check_prod_coherence,
    check_sum_coherence,
    class_order,
    discrete_space,
    enumerate_ideals,
    fixed_point_independence,
    functorial_representation,
    mk_space,
    qcb_fixed_point,
    quotient_matches_space,
    recovered_pseudobase,
    sierpinski_space,
    standard_representation,
    token_iso_pair,
    up,
    validate_pseudobase,
)
from domania.oracles import pseudobases_of, spaces_from_posets
from domania.spfunctor import ConstD, Exp, Id, Sum


def sier_pseudobase():
    return [frozenset({"top"}), frozenset({"bot", "top"})]


def test_validate_pseudobase_sierpinski():
    X = sierpinski_space()
    assert validate_pseudobase(X, sier_pseudobase()).holds is True
    # dropping {top} breaks the convergence clause at top inside {top}
    v = validate_pseudobase(X, [frozenset({"bot", "top"})])
    assert v.holds is False and v.clause == "convergence"
    assert v.witness == ("top", frozenset({"top"}))


def test_all_opens_form_pseudobase():
    for X in (sierpinski_space(), discrete_space(["0", "1"])):
        fam = [u for u in opens_of(X) if u]
        assert validate_pseudobase(X, fam).holds is True


def test_standard_representation_sierpinski():
    X = sierpinski_space()
    rep = standard_representation(X, sier_pseudobase())
    classes, exact = rep.per.classes()
    assert exact and len(classes) == 2
    # two total ideals in the exhaustive enumeration
    ideals = enumerate_ideals(rep.sets)
    assert len(ideals) == 2
    decoded = {rep.decode[t] for t, in
               [(cls[0],) for cls in classes]}
    assert decoded == {"bot", "top"}


def test_standard_representation_discrete():
    X = discrete_space(["0", "1"])
    rep = standard_representation(
        X, [frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})]
    )
    ideals = enumerate_ideals(rep.sets)
    assert len(ideals) == 3
    classes, _ = rep.per.classes()
    assert len(classes) == 2
    # the whole-space token decodes to no point in a discrete space
    bot = rep.per.carrier.bottom
    assert rep.decode[bot] is None


def test_standard_representation_refuses_a_flag_it_does_not_earn(monkeypatch):
    # the check is no assert, so it holds under `python -O` too
    monkeypatch.setattr(qcb, "check_property", lambda per, prop: Verdict(prop != "local"))
    with pytest.raises(BadParameterPedigree, match="is not local") as ei:
        standard_representation(sierpinski_space(), sier_pseudobase())
    assert ei.value.witness == "local"


def test_non_t0_rejected():
    with pytest.raises(NotT0) as ei:
        mk_space("blob", ["x", "y"], [[], ["x", "y"]])
    assert ei.value.witness == ("x", "y")


def test_greatest_representative():
    X = sierpinski_space()
    rep = standard_representation(X, sier_pseudobase())
    for x in X.elements:
        g = rep.greatest_representative(x)
        assert rep.decode[g] == x
        # the greatest representative bounds every representative of x
        for t in rep.per.carrier.tokens().tokens:
            if rep.decode[t] == x:
                assert rep.per.carrier.leq(t, g)
                assert rep.per.related(t, g) is True


def test_recovered_pseudobase_sierpinski():
    rep = standard_representation(sierpinski_space(), sier_pseudobase())
    fam = recovered_pseudobase(rep)
    assert set(fam) == {frozenset({"bot", "top"}), frozenset({"top"})}
    assert validate_pseudobase(rep.space, fam).holds is True


def test_recovered_pseudobase_discrete():
    rep = standard_representation(
        discrete_space(["0", "1"]),
        [frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})],
    )
    fam = recovered_pseudobase(rep)
    assert frozenset({"0"}) in fam and frozenset({"1"}) in fam
    assert validate_pseudobase(rep.space, fam).holds is True


def test_recovered_pseudobase_one_point():
    one = mk_space("pt", ["p"], [[], ["p"]])
    rep = standard_representation(one, [frozenset({"p"})])
    assert recovered_pseudobase(rep) == [frozenset({"p"})]


def test_quotient_topology_matches_space():
    for X, fam in (
        (sierpinski_space(), sier_pseudobase()),
        (
            discrete_space(["0", "1"]),
            [frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})],
        ),
    ):
        rep = standard_representation(X, fam)
        assert quotient_matches_space(rep)


# ---------------------------------------------------------------------------
# each order rule against the open-set form it replaces, on every T0 space
# with up to 4 points


def opens_of(X):
    """The open sets of the finite T0 space whose specialization order is X:
    its up-sets."""
    pts = X.elements
    return [
        frozenset(c)
        for r in range(len(pts) + 1)
        for c in itertools.combinations(pts, r)
        if all(y in c for x in c for y in pts if X.leq(x, y))
    ]


def _min_open(opens, x):
    return frozenset.intersection(*(u for u in opens if x in u))


def _pseudobase_by_opens(X, opens, fam):
    """Nonempty members, the whole space, closed under meeting intersections,
    and a member between min_open(x) and U for every open U around x."""
    return (
        all(fam)
        and frozenset(X.elements) in fam
        and all(not (a & b) or a & b in fam for a in fam for b in fam)
        and all(
            any(_min_open(opens, x) <= b <= u for b in fam)
            for x in X.elements for u in opens if x in u
        )
    )


def _decode_by_opens(X, opens, fam, b):
    """The points x in b such that every open around x holds a member
    between b and it that holds x; at most one in a T0 space."""
    hits = [
        x for x in X.elements
        if x in b and all(
            any(c >= b and x in c and c <= u for c in fam) for u in opens if x in u
        )
    ]
    assert len(hits) <= 1, hits
    return hits[0] if hits else None


def _class_topology(per):
    """The quotient topology on the classes: a set of classes is open when
    its union is upward closed inside the totals."""
    classes, _ = per.classes()
    totals = [t for cls in classes for t in cls]
    opens = set()
    for r in range(len(classes) + 1):
        for combo in itertools.combinations(range(len(classes)), r):
            union = [t for i in combo for t in classes[i]]
            if all(u in union for t in union for u in totals if per.carrier.leq(t, u)):
                opens.add(frozenset(combo))
    return classes, opens


def _quotient_by_opens(rep):
    """The class topology equals the represented topology point for point."""
    classes, opens = _class_topology(rep.per)
    point_of = [rep.decode[cls[0]] for cls in classes]
    if sorted(point_of) != sorted(rep.space.elements):
        return False
    expected = {
        frozenset(i for (i, x) in enumerate(point_of) if x in u)
        for u in opens_of(rep.space)
    }
    return expected == opens


def _hausdorff_by_opens(X, opens):
    return all(
        any(x in u and y in v and not (u & v) for u in opens for v in opens)
        for x, y in itertools.combinations(X.elements, 2)
    )


def _continuous_maps(X, Y):
    """The maps whose preimage of every open of Y is open in X."""
    oX, oY = opens_of(X), opens_of(Y)
    out = []
    for values in itertools.product(Y.elements, repeat=len(X.elements)):
        f = dict(zip(X.elements, values))
        if all(frozenset(x for x in X.elements if f[x] in v) in oX for v in oY):
            out.append(f)
    return out


def opens_of_order(n, order):
    """The up-sets of a preorder on range(n) given by its pairs."""
    return [
        c for r in range(n + 1) for c in itertools.combinations(range(n), r)
        if all(j in c for i in c for j in range(n) if (i, j) in order)
    ]


SPACES = spaces_from_posets(4)


def test_mk_space_reads_the_specialization_order_of_its_opens():
    assert len(SPACES) == 24  # 1 + 2 + 5 + 16 posets up to isomorphism
    for X in SPACES:
        assert mk_space("s", X.elements, opens_of(X)) == X
        for x in X.elements:
            assert up(X, x) == _min_open(opens_of(X), x)


def test_convergence_rule_matches_open_sets():
    # every family of at most 5 sets that holds the whole space
    failed = 0
    for X in SPACES:
        opens = opens_of(X)
        whole = frozenset(X.elements)
        proper = [
            frozenset(c)
            for r in range(1, len(whole))
            for c in itertools.combinations(X.elements, r)
        ]
        for r in range(5):
            for combo in itertools.combinations(proper, r):
                fam = list(combo) + [whole]
                v = validate_pseudobase(X, fam)
                assert v.holds == _pseudobase_by_opens(X, opens, fam), (X, fam)
                failed += v.clause == "convergence"
    assert failed > 1000


def test_decode_and_quotient_match_open_sets():
    cases = 0
    for X in SPACES:
        opens = opens_of(X)
        for fam in pseudobases_of(X, 5):
            cases += 1
            rep = standard_representation(X, fam)
            for b in rep.sets:
                assert rep.decode[tok(("pb", tuple(sorted(b))))] == (
                    _decode_by_opens(X, opens, rep.sets, b)
                )
            assert quotient_matches_space(rep) and _quotient_by_opens(rep)
            classes, order = class_order(rep.per)
            _, topology = _class_topology(rep.per)
            assert topology == set(map(frozenset, opens_of_order(len(classes), order)))
    assert cases == 86


def test_class_order_matches_the_class_topology_of_every_small_per():
    # a per's quotient may be no T0 space: a preorder whose up-sets are
    # still the open sets
    from domania.oracles import all_pers

    pers = 0
    for name in ("two-chain", "three-chain", "vee", "diamond"):
        for per in all_pers(catalog_basis(name)):
            pers += 1
            classes, order = class_order(per)
            _, topology = _class_topology(per)
            assert topology == set(map(frozenset, opens_of_order(len(classes), order)))
    assert pers > 20


def test_hausdorff_and_continuous_maps_match_open_sets():
    for X in SPACES:
        assert qcb._space_hausdorff(X) == _hausdorff_by_opens(X, opens_of(X))
        for Y in SPACES:
            assert enumerate_monotone_maps(X, Y) == _continuous_maps(X, Y)


def test_standard_rep_suite_passing_checks_carry_no_witness():
    from domania.oracles import standard_rep_suite

    result = standard_rep_suite(3)
    assert result.cases and result.all_pass
    assert [v.witness for (_, v) in result.entries] == [None] * 4


def test_unrolling_coherence():
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    fb = standard_representation(
        discrete_space(["tt", "ff"]),
        [frozenset({"tt"}), frozenset({"ff"}), frozenset({"tt", "ff"})],
    )
    assert check_sum_coherence(sier.per, fb.per)
    assert check_prod_coherence(sier.per, fb.per)
    assert check_fun_coherence(sier, sier)
    assert check_fun_coherence(fb, sier)
    assert check_fun_coherence(sier, fb)


def test_continuous_map_counts():
    S = sierpinski_space()
    # monotone maps of the specialisation order bot<=top: 3 of the 4
    assert len(enumerate_monotone_maps(S, S)) == 3
    D = discrete_space(["0", "1"])
    assert len(enumerate_monotone_maps(D, D)) == 4
    assert len(enumerate_monotone_maps(S, D)) == 2


def test_functorial_representation_translation():
    expr = Sum(ConstD("A"), Exp("B", Id()))
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    env = functorial_representation(expr, {"B": sier, "A": sier})
    assert list(env) == ["A", "B"]  # reading order, not binding order
    assert env["A"] is sier.per and env["B"] is sier.per


def test_functorial_representation_rejects_bad_pedigree():
    from domania.basis import catalog_basis
    from domania.per import finite_per

    bad = finite_per(catalog_basis("two-chain"), [(tok("top"), tok("top"))])
    with pytest.raises(BadParameterPedigree):
        functorial_representation(ConstD("A"), {"A": bad})


def test_undecided_class_verdict_reads_unknown(monkeypatch):
    # the unfolded per leaves its verdicts undecided: the class
    # correspondence is unknown, not failed
    build = qcb.dense_lfp

    def undecided_unfolding(*args, **kwargs):
        lfp = build(*args, **kwargs)
        monkeypatch.setattr(lfp.chain.unfolded[0], "related", lambda a, b: None)
        return lfp

    monkeypatch.setattr(qcb, "dense_lfp", undecided_unfolding)
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    report = qcb_fixed_point(Sum(ConstD("S"), Exp("S", Id())), {"S": sier}, rank_bound=2)
    assert report.checks["fixed-point-classes"].holds is None


def test_qcb_fixed_point_running_example():
    fb = standard_representation(
        discrete_space(["tt", "ff"]),
        [frozenset({"tt"}), frozenset({"ff"}), frozenset({"tt", "ff"})],
    )
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    expr = Sum(ConstD("FB"), Exp("S", Id()))
    report = qcb_fixed_point(expr, {"FB": fb, "S": sier}, rank_bound=2)
    assert report.classes_by_rank[1] == 2
    assert sum(report.classes_by_rank.values()) > 2
    checks = report.checks
    assert checks["fixed-point-classes"].holds is True
    coherence = [v.holds for (n, v) in checks.entries if n.startswith("coherence-")]
    assert coherence and all(h is True for h in coherence), checks.entries
    assert report.lfp.per.flags.dense is True
    # the positive parameter is discrete
    assert checks["positive-parameters-hausdorff"].holds is True


def test_qcb_fixed_point_constant():
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    report = qcb_fixed_point(ConstD("S"), {"S": sier}, rank_bound=2)
    assert sum(report.classes_by_rank.values()) == 2
    assert report.checks["fixed-point-classes"].holds is True
    # Sierpinski is not Hausdorff
    assert report.checks["positive-parameters-hausdorff"].holds is False


def identity_independence(rank_bound=2):
    """The running equation over Sierpinski against itself, by identities."""
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    F = Sum(ConstD("A"), Exp("B", Id()))
    env = {"A": sier.per, "B": sier.per}
    ident = {t: t for t in (tok(("pb", ("bot", "top"))), tok(("pb", ("top",))))}
    pairs = {
        (k, k): token_iso_pair(sier.per, sier.per, ident) for k in ("A", "B")
    }
    return fixed_point_independence(F, env, F, env, pairs, rank_bound=rank_bound)


def test_independence_identity():
    report = identity_independence()
    assert report.all_pass
    matching = report["class-matching"].witness
    assert matching == [(i, i) for i in range(len(matching))]


def test_independence_without_a_limit_map(monkeypatch):
    # a family that does not commute with the chains has no limit map, so
    # the report fails uniformity and matches no classes
    def not_uniform(*args, **kwargs):
        raise NotUniform("family does not commute with the chains", stage=1)

    monkeypatch.setattr(qcb, "uniform_limit_map", not_uniform)
    report = identity_independence()
    assert [(n, v.holds, v.witness) for (n, v) in report.entries] == [
        ("stage-weak-isos", True, None),
        ("uniform-family", False, None),
        ("class-matching", False, None),
    ]


def relabeled_independence():
    """The running equation over Sierpinski against itself over a relabeled
    Sierpinski space, by the relabeling."""
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    relabeled = standard_representation(
        mk_space("sier2", ["lo", "hi"], [[], ["hi"], ["lo", "hi"]]),
        [frozenset({"hi"}), frozenset({"lo", "hi"})],
    )
    F = Sum(ConstD("A"), Exp("B", Id()))
    env_f = {"A": sier.per, "B": sier.per}
    env_g = {"A": relabeled.per, "B": relabeled.per}
    iso = token_iso_pair(sier.per, relabeled.per, {
        tok(("pb", ("bot", "top"))): tok(("pb", ("hi", "lo"))),
        tok(("pb", ("top",))): tok(("pb", ("hi",))),
    })
    pairs = {("A", "A"): iso, ("B", "B"): iso}
    return fixed_point_independence(F, env_f, F, env_g, pairs, rank_bound=2)


def test_independence_relabeled_parameter():
    report = relabeled_independence()
    assert report.all_pass
    assert len(report["class-matching"].witness) >= 2


@pytest.mark.parametrize("independence", [identity_independence, relabeled_independence])
def test_stage_weak_isos_match_the_round_trips_over_totals(independence, monkeypatch):
    # every weak_iso_check the report runs, the stage maps at stages 1-3 and
    # the limit maps, against the round trips over every total
    from test_per import assert_weak_iso_matches_totals

    decide = qcb.weak_iso_check
    calls = []

    def checked(phi, chi, D, E, bound=None):
        calls.append(bound)
        assert_weak_iso_matches_totals(phi, chi, D, E, bound)
        return decide(phi, chi, D, E, bound)

    monkeypatch.setattr(qcb, "weak_iso_check", checked)
    assert independence().all_pass
    assert calls == [None, None, None, 2]


def test_undecided_class_matching_reads_unknown(monkeypatch):
    # the second chain's limit per leaves its verdicts undecided: no decided
    # verdict refutes the class bijection, so the row is unknown, not failed
    build = qcb.per_chain_extend
    chains = []

    def second_undecided(*args, **kwargs):
        chains.append(build(*args, **kwargs))
        if len(chains) == 2:
            per = chains[-1].per_limit.per
            monkeypatch.setattr(per, "related", lambda a, b: None)
        return chains[-1]

    monkeypatch.setattr(qcb, "per_chain_extend", second_undecided)
    report = identity_independence()
    assert (report["class-matching"].holds, report["class-matching"].witness) == (
        None, None
    )
    # one True in each row and column matches; a row or column with none
    # is refuted unless one of its verdicts is undecided
    lines = ([True], [True, None], [None, False], [False], [True, True], [])
    assert [qcb._one_related(v) for v in lines] == [True, True, None, False, False, False]


def test_independence_shape_mismatch():
    sier = standard_representation(sierpinski_space(), sier_pseudobase())
    F = Sum(ConstD("A"), Exp("B", Id()))
    from domania.spfunctor import Prod

    G = Prod(ConstD("A"), Exp("B", Id()))
    with pytest.raises(NotWeaklyEquivalent):
        fixed_point_independence(
            F, {"A": sier.per, "B": sier.per}, G,
            {"A": sier.per, "B": sier.per}, {}, rank_bound=1,
        )


def _one_against_two_parameters(pair_names):
    """X = A + [A -> X] against X = C + [D -> X], all over Sierpinski, with
    the supplied pairs named by `pair_names`."""
    reps = {
        k: standard_representation(sierpinski_space(), sier_pseudobase())
        for k in ("A", "C", "D")
    }
    ident = {t: t for t in (tok(("pb", ("bot", "top"))), tok(("pb", ("top",))))}
    pairs = {
        (f, g): token_iso_pair(reps[f].per, reps[g].per, ident)
        for (f, g) in pair_names
    }
    return fixed_point_independence(
        Sum(ConstD("A"), Exp("A", Id())), {"A": reps["A"].per},
        Sum(ConstD("C"), Exp("D", Id())), {"C": reps["C"].per, "D": reps["D"].per},
        pairs, rank_bound=2,
    )


def test_independence_pairs_parameters_by_position():
    # one F parameter stands at two G positions: each position takes the
    # pair of its own two names
    report = _one_against_two_parameters([("A", "C"), ("A", "D")])
    assert report.all_pass


def test_independence_missing_pair():
    with pytest.raises(NotWeaklyEquivalent, match=r"\(A,D\)"):
        _one_against_two_parameters([("A", "C")])

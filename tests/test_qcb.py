import itertools

import pytest

from domania import qcb
from domania.basis import Verdict, tok
from domania.errors import BadParameterPedigree, NotT0, NotUniform, NotWeaklyEquivalent
from domania.qcb import (
    check_fun_coherence,
    check_prod_coherence,
    check_sum_coherence,
    class_topology,
    continuous_maps,
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
    validate_pseudobase,
)
from domania.spfunctor import ConstD, Exp, Id, Sum


def sier_pseudobase():
    return [frozenset({"top"}), frozenset({"bot", "top"})]


def test_validate_pseudobase_sierpinski():
    X = sierpinski_space()
    assert validate_pseudobase(X, sier_pseudobase()).holds is True
    # dropping {top} breaks the convergence clause at top inside {top}
    v = validate_pseudobase(X, [frozenset({"bot", "top"})])
    assert v.holds is False and v.clause == "convergence"
    assert v.witness[0] == "top"


def test_all_opens_form_pseudobase():
    for X in (sierpinski_space(), discrete_space(["0", "1"])):
        fam = [u for u in X.opens if u]
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
    indiscrete = mk_space("blob", ["x", "y"], [[], ["x", "y"]])
    with pytest.raises(NotT0):
        standard_representation(indiscrete, [frozenset({"x", "y"})])


def test_greatest_representative():
    X = sierpinski_space()
    rep = standard_representation(X, sier_pseudobase())
    for x in X.points:
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
    assert len(continuous_maps(S, S)) == 3
    D = discrete_space(["0", "1"])
    assert len(continuous_maps(D, D)) == 4
    assert len(continuous_maps(S, D)) == 2


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

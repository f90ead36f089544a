import itertools

import pytest

from domania.basis import Token, tok
from domania.builtins import flatbool_per, flatnat_per, sierpinski_per
from domania.dense import dense_lfp
from domania.errors import MalformedCode, NonDenseExponent, NotWitnessed
from domania.eta import (
    EtaBarSystem,
    EtaSystem,
    atomic_subfunctors,
    decode_path,
    dense_image_weak_iso,
    encode_path,
    input_per_table,
)
from domania.ordinals import omega_plus
from domania.per import equi_injective, is_equivariant, per_construct
from domania.perlfp import per_chain_extend
from domania.spfunctor import ConstD, Exp, Id, Prod, Sum

RUNNING = Sum(ConstD("A"), Exp("B", Id()))


def running_env():
    return {"A": sierpinski_per(), "B": sierpinski_per()}


def running_lfp(rank_bound=3, n_finite=4):
    return dense_lfp(RUNNING, running_env(), rank_bound=rank_bound, n_finite=n_finite)


def test_atomic_subfunctors():
    ks = atomic_subfunctors(RUNNING)
    assert len(ks) == 2
    assert isinstance(ks[0], ConstD) and ks[0].name == "A"
    assert isinstance(ks[1], Id)
    assert atomic_subfunctors(Id()) == [Id()]


def test_input_per_shapes():
    env = running_env()
    t = input_per_table(RUNNING, env)[id(RUNNING)]
    # product of a point with (B x point): two tokens, one total class
    assert len(t.carrier.tokens().tokens) == 2
    classes, exact = t.classes()
    assert exact and len(classes) == 1

    prod = Prod(ConstD("A"), ConstD("A"))
    t_prod = input_per_table(prod, env)[id(prod)]
    # sum of two points: three tokens
    assert len(t_prod.carrier.tokens().tokens) == 3

    var = Id()
    t_id = input_per_table(var, env)[id(var)]
    assert len(t_id.carrier.tokens().tokens) == 1


def test_input_per_table_names_a_non_dense_exponent():
    from domania.basis import catalog_basis
    from domania.per import finite_per

    bad = finite_per(catalog_basis("two-chain"), [(tok("top"), tok("top"))])
    env = {"A": sierpinski_per(), "C": bad}
    with pytest.raises(NonDenseExponent, match="'C'"):
        input_per_table(Sum(ConstD("A"), Exp("C", Id())), env)


def test_eta_constant_component_is_constant_map():
    lfp = running_lfp()
    eta = EtaSystem(lfp)
    a_val = eta.unfolded.inject(0, tok("top"))
    for t in eta.T.tokens().tokens:
        z = eta.eval_eta(a_val, t)
        assert z == eta.codomain.inject(0, tok("top"))


def test_eta_function_component_reads_input():
    lfp = running_lfp()
    eta = EtaSystem(lfp)
    lim = lfp.chain.per_limit.limit
    x1 = lim.canonical(1, _stage1_a_top(lfp))
    fun_part = eta.unfolded.parts[1]
    const_x1 = fun_part.make([(fun_part.exponent.bottom, x1)])
    xval = eta.unfolded.inject(1, const_x1)
    for t in eta.T.tokens().tokens:
        z = eta.eval_eta(xval, t)
        assert z == eta.codomain.inject(1, x1)


def _stage1_a_top(lfp):
    d1 = lfp.chain.per_limit.limit.stages[1].basis
    return d1.inject(0, tok("top"))


def test_eta_equivariant_and_equi_injective_on_fragment():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    totals, _ = eta.unfolded_per.totals(2)
    totals = [t for t in totals if hasattr(t, "key")]
    for x in totals:
        for y in totals:
            lhs = eta.unfolded_per.related(x, y, 2) is True
            rhs = (
                eta.fun_per.related(eta.eta_token(x), eta.eta_token(y), 2) is True
            )
            assert lhs == rhs, (x.pretty, y.pretty)


def test_theta_atomic_join():
    lfp = running_lfp()
    eta = EtaSystem(lfp)
    t_bot = eta.T.bottom
    q = eta.fun_basis.make(
        [(t_bot, eta.codomain.inject(0, tok("top")))]
    )
    out = eta.theta(q)
    assert out == eta.unfolded.inject(0, tok("top"))


def test_theta_strict():
    lfp = running_lfp()
    eta = EtaSystem(lfp)
    assert eta.theta(eta.fun_basis.bottom) == eta.unfolded.bottom


def test_theta_not_witnessed_within_bound():
    # a compact whose only witnesses live beyond the search bound
    lfp = running_lfp(rank_bound=3, n_finite=4)
    eta = EtaSystem(lfp)
    totals, _ = lfp.per.totals(3)
    deep = next(
        t for t in totals if lfp.chain.per_limit.rank_of(t) == 3
    )
    q = eta.fun_basis.make([(eta.T.bottom, eta.codomain.inject(1, deep))])
    with pytest.raises(NotWitnessed):
        eta.theta(q, bound=1)
    # with a deep enough bound the same compact is witnessed
    assert eta.find_witness(eta.fun_basis.pairs(q), 4) is not None


def test_adjunction_small():
    # theta(q) <= r iff q <= eta(r) over small witnessed compacts
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    t_toks = list(eta.T.tokens().tokens)
    cod_toks = list(eta.codomain.tokens(2).tokens)
    r_toks = list(eta.unfolded.tokens(2).tokens)

    cands = [(p, q) for p in t_toks for q in cod_toks if q != eta.codomain.bottom]
    compacts = []
    for size in (1, 2):
        for combo in itertools.combinations(cands, size):
            try:
                tk = eta.fun_basis.make(list(combo))
            except Exception:
                continue
            if eta.find_witness(eta.fun_basis.pairs(tk), 2) is not None:
                compacts.append(tk)
    seen = set()
    compacts = [c for c in compacts if not (c.key in seen or seen.add(c.key))]
    assert compacts
    checked = 0
    for q in compacts:
        tq = eta.theta(q, bound=2)
        for r in r_toks:
            lhs = eta.unfolded.leq(tq, r)
            rhs = eta.fun_basis.leq(q, eta.eta_token(r))
            assert lhs == rhs, (q.pretty, r.pretty)
            checked += 1
    assert checked > 50


def test_path_codes_round_trip_and_malformed():
    for k_count in (1, 2, 3):
        for path in ([], [0], [0, 0], [k_count - 1] * 3):
            n = encode_path(path, k_count)
            assert decode_path(n, k_count) == list(path)
    with pytest.raises(MalformedCode):
        decode_path(0, 2)
    with pytest.raises(MalformedCode):
        # tail digit equal to the subfunctor count is out of range
        decode_path(3, 1)
    with pytest.raises(MalformedCode):
        # leading digit is not the sentinel
        decode_path(2, 2)


def test_zeta_on_constant_component():
    lfp = running_lfp()
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    x = lim.canonical(1, _stage1_a_top(lfp))
    u_total = _total_u(bar)
    rec = bar.evaluate_zeta(x, u_total)
    assert rec.halted and rec.path == [] and rec.code == encode_path([], 2)
    s_part, n_part = bar.E.split(rec.result)
    assert bar.a_sum.carrier.split(s_part) == (0, tok("top"))


def _total_u(bar):
    t_total = next(
        t
        for t in bar.eta.T.tokens().tokens
        if bar.eta.input_per.related(t, t) is True
    )
    return bar.seq([t_total] * bar.support)


def test_input_sequences_are_products():
    # X = A + (B * X): the input per has two totals, one per summand of B * X
    expr = Sum(ConstD("A"), Prod(ConstD("B"), Id()))
    env = {"A": sierpinski_per(), "B": flatbool_per()}
    eta = EtaSystem(dense_lfp(expr, env, rank_bound=2, n_finite=3))
    ts, exact = eta.input_per.totals()
    assert len(ts) == 2
    bottom = eta.T.bottom
    for support in (1, 3):
        bar = EtaBarSystem(eta, support=support)
        us, u_exact = bar.u_per.totals()
        # the totals of the product, in itertools.product order
        assert u_exact == exact
        assert us == [bar.seq(es) for es in itertools.product(ts, repeat=support)]
        for es in itertools.product(eta.T.tokens().tokens, repeat=support):
            u = bar.seq(es)
            assert bar.U.has_token(u)
            assert [bar.entry_at(u, m) for m in range(support)] == list(es)
            # bottom past the support
            assert bar.entry_at(u, support) == bottom
            assert bar.entry_at(u, support + 3) == bottom


def test_zeta_one_nesting_step():
    lfp = running_lfp()
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    x1 = lim.canonical(1, _stage1_a_top(lfp))
    # x = in1(const x1), folded into the fixed point
    fun_part = eta.unfolded.parts[1]
    x2 = eta.iso.inv(
        eta.unfolded.inject(1, fun_part.make([(fun_part.exponent.bottom, x1)]))
    )
    rec = bar.evaluate_zeta(x2, _total_u(bar))
    assert rec.halted and rec.path == [1]
    assert rec.sequence == [x1]
    assert rec.code == encode_path([1], 2)


def test_zeta_totals_halt_within_rank():
    lfp = running_lfp(rank_bound=3, n_finite=4)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=4)
    totals, _ = lfp.per.totals(3)
    us, _ = bar.u_per.totals()
    for x in totals:
        rank = lfp.chain.per_limit.rank_of(x)
        for u in us:
            rec = bar.evaluate_zeta(x, u)
            assert rec.halted
            assert len(rec.path) < rank
            assert rec.result != bar.E.bottom


def test_zeta_equivalent_inputs_evaluate_identically():
    lfp = running_lfp(rank_bound=3, n_finite=4)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=4)
    totals, _ = lfp.per.totals(3)
    us, _ = bar.u_per.totals()
    for x in totals:
        for y in totals:
            if lfp.per.related(x, y, 3) is not True:
                continue
            for u in us:
                rx = bar.evaluate_zeta(x, u)
                ry = bar.evaluate_zeta(y, u)
                assert rx.path == ry.path and rx.code == ry.code
                assert bar.e_per.related(rx.result, ry.result) is True


def test_zeta_monotone_in_compact_argument():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    toks = list(lim.tokens(2).tokens)
    us = list(bar.U.tokens().tokens)
    for x in toks:
        for y in toks:
            if not lim.leq(x, y):
                continue
            for u in us:
                rx = bar.evaluate_zeta(x, u)
                ry = bar.evaluate_zeta(y, u)
                assert len(rx.path) <= len(ry.path)
                if len(rx.path) < len(ry.path):
                    assert rx.result == bar.E.bottom
                else:
                    assert bar.E.leq(rx.result, ry.result)


def test_eta_bar_round_trips_and_pedigree():
    lfp = running_lfp(rank_bound=3, n_finite=4)
    report = dense_image_weak_iso(lfp, rank_bound=3)
    assert report.all_pass, report.checks
    assert report.pedigree == "yes"
    assert lfp.per.flags.admissible_pedigree == "yes"


def test_theta_bar_strictness():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    assert bar.theta_bar(bar.fun_basis.bottom) == lfp.chain.per_limit.limit.bottom


def test_theta_bar_single_pair_approximates_witness():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    x = lim.canonical(1, _stage1_a_top(lfp))
    rec = bar.evaluate_zeta(x, _total_u(bar))
    u_prefix = bar.seq([bar.eta.T.bottom] * bar.support)
    q = bar.fun_basis.make([(u_prefix, rec.result)])
    back = bar.theta_bar(q, witness=x)
    assert lim.leq(back, x) or lfp.per.related(back, x, 2) is True


def test_injected_theta_fault_reported():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    # corrupt the lower adjoint: send everything to bottom
    bar.theta_bar = lambda q, witness=None, bound=None: (
        lfp.chain.per_limit.limit.bottom
    )
    from domania.eta import RoundTripReport

    report = RoundTripReport()
    totals, _ = lfp.per.totals(2)
    ok, witness = True, None
    for x in totals:
        back = bar.theta_bar(bar.eta_bar(x), witness=x)
        if lfp.per.related(back, x, 2) is not True:
            ok, witness = False, x
    report.add("round-trip-fixed-point", ok, witness)
    assert not report.all_pass
    assert report.pedigree == "unknown"


def test_zeta_flatbool_parameter():
    from domania.builtins import flatbool_per

    env = {"A": flatbool_per(), "B": sierpinski_per()}
    lfp = dense_lfp(RUNNING, env, rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    d1 = lim.stages[1].basis
    x_tt = lim.canonical(1, d1.inject(0, tok("tt")))
    rec = bar.evaluate_zeta(x_tt, _total_u(bar))
    assert rec.halted and rec.path == [] and rec.code == encode_path([], 2)
    s_part, n_part = bar.E.split(rec.result)
    assert bar.a_sum.carrier.split(s_part) == (0, tok("tt"))


def _witnessed_subcompacts(bar, x):
    """q' = full curried evaluation of x and the q <= q' from pair subsets."""
    full = bar.eta_bar(x)
    pairs = bar.fun_basis.pairs(full)
    out = []
    for r in range(1, len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            try:
                q = bar.fun_basis.make(list(combo))
            except Exception:
                continue
            out.append(q)
    return full, out


def test_theta_bar_monotone_and_tree_morphism():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    totals, _ = lfp.per.totals(2)
    checked = 0
    for x in totals:
        full, subs = _witnessed_subcompacts(bar, x)
        live_k, nodes_k = bar.build_tree(bar.fun_basis.pairs(full))
        node_keys = {tuple(n) for n in nodes_k}
        big = bar.theta_bar(full, witness=x)
        for q in subs:
            small = bar.theta_bar(q, witness=x)
            assert lim.leq(small, big), (q.pretty, full.pretty)
            live_j, nodes_j = bar.build_tree(bar.fun_basis.pairs(q))
            morph = bar.tree_morphism(live_j, nodes_j, live_k)
            for node in nodes_j:
                image = morph[tuple(node)]
                assert len(image) == len(node)  # length preserved
                assert all(level for level in image)  # lands in the big tree
                assert tuple(image) in node_keys
                # premises shrink along the morphism
                pj = bar.node_premise(live_j, node)
                pk = bar.node_premise(live_k, image)
                assert bar.U.leq(pk, pj)
                # maximality is preserved both ways
                assert bar._is_maximal(live_j, node) == bar._is_maximal(
                    live_k, image
                )
            # extension order is preserved
            for a in nodes_j:
                for b in nodes_j:
                    if len(a) < len(b) and b[: len(a)] == a:
                        assert morph[tuple(b)][: len(a)] == morph[tuple(a)]
            checked += 1
    assert checked >= 3


def test_every_total_is_a_token():
    # the chains of the golden equations: every stage per, the omega per
    # and the per one step past it on the unfolded carrier
    chains = [
        per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=3),
        per_chain_extend(
            Sum(ConstD("FB"), Exp("S", Id())),
            {"FB": flatbool_per(), "S": sierpinski_per()},
            omega_plus(1),
            n_finite=3,
        ),
        per_chain_extend(
            Sum(ConstD("A"), Exp("N", Id())),
            {"A": sierpinski_per(), "N": flatnat_per()},
            omega_plus(1),
            n_finite=5,
        ),
    ]
    pers = []
    for chain in chains:
        pers += [p for (_, p) in chain.stages] + chain.unfolded
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    pers += [lfp.per] + [part.per for part in lfp.stage_dense_parts]
    pers += [eta.input_per, eta.codomain_per, eta.fun_per]
    pers += [bar.u_per, bar.e_per, bar.fun_per]
    pers += [
        per_construct("fun", sierpinski_per(), flatbool_per()),
        per_construct("fun", flatnat_per(), sierpinski_per()),
    ]
    empty = []
    for per in pers:
        ts, _ = per.totals(2)
        assert all(isinstance(t, Token) for t in ts), per.name
        if not ts:
            empty.append(per.name)
    # only the stage-0 pers have no totals: one per chain, and the dense
    # part of the dense chain's stage 0
    assert empty == ["trivial"] * 4

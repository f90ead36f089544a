import itertools

import pytest

from domania.basis import Token, conjoin, tok
from domania.builtins import flat_per, flatnat_per, sierpinski_per
from domania.construct import apply_pairs
from domania.dense import dense_lfp, dense_part
from domania.errors import (
    DomaniaError,
    MalformedCode,
    NonDenseExponent,
    NotWitnessed,
)
from domania.eta import (
    EtaBarSystem,
    EtaSystem,
    atomic_subfunctors,
    decode_path,
    dense_image_weak_iso,
    _prec,
    encode_path,
    find_witness,
    input_per_table,
)
from domania.ordinals import omega_plus
from domania.per import is_equivariant, per_construct
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
            lhs = eta.unfolded_per.related(x, y) is True
            rhs = eta.fun_per.related(eta.eta_token(x), eta.eta_token(y)) is True
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


def _eta_witness(eta, q, bound):
    return find_witness(
        eta.fun_basis.pairs(q), eta.unfolded_per, eta.input_per, eta.codomain_per,
        eta.eval_eta, bound,
    )


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
    assert _eta_witness(eta, q, 4) is not None


def _witnessed_compacts(eta, bound):
    """The distinct witnessed compacts of one or two steps whose values
    lie within the bound."""
    t_toks = list(eta.T.tokens().tokens)
    cod_toks = list(eta.codomain.tokens(bound).tokens)
    cands = [(p, q) for p in t_toks for q in cod_toks if q != eta.codomain.bottom]
    compacts = {}
    for size in (1, 2):
        for combo in itertools.combinations(cands, size):
            try:
                tk = eta.fun_basis.make(list(combo))
            except Exception:
                continue
            if tk.key not in compacts and _eta_witness(eta, tk, bound) is not None:
                compacts[tk.key] = tk
    return list(compacts.values())


def _assert_adjunction(eta, compacts, bound):
    """theta(q) <= r iff q <= eta(r), for each compact q and each r within
    the bound; returns the number of pairs checked."""
    checked = 0
    for q in compacts:
        tq = eta.theta(q, bound=bound)
        for r in eta.unfolded.tokens(bound).tokens:
            lhs = eta.unfolded.leq(tq, r)
            rhs = eta.fun_basis.leq(q, eta.eta_token(r))
            assert lhs == rhs, (q.pretty, r.pretty)
            checked += 1
    return checked


def test_adjunction_small():
    # theta(q) <= r iff q <= eta(r) over small witnessed compacts
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    compacts = _witnessed_compacts(eta, 2)
    assert compacts
    assert _assert_adjunction(eta, compacts, 2) > 50


def theta_subsets(eta, expr, offset, pairs):
    """Slow reference for `EtaSystem._theta`: the join of the subset walk's
    images over every premise-consistent subset of the live steps, with
    the steps grouped by sum side, by product factor and below each
    exponent premise."""
    carrier = eta._carriers[id(expr)]
    tin = eta._input_carriers[id(expr)]
    live = [(p, q) for (p, q) in pairs if q != eta.codomain.bottom]

    def block(sub, off):
        return range(off, off + len(atomic_subfunctors(sub)))

    if isinstance(expr, (Id, ConstD)):
        vals = [eta.codomain.split(q)[1] for (_, q) in live]
        return carrier.lub(vals) if vals else carrier.bottom
    if isinstance(expr, Sum):
        tags = {
            0 if eta.codomain.split(q)[0] in block(expr.left, offset) else 1
            for (_, q) in live
        }
        if len(tags) != 1:
            raise NotWitnessed("values straddle both summands", witness=live)
        i = tags.pop()
        sub = (expr.left, expr.right)[i]
        off = offset if i == 0 else offset + len(atomic_subfunctors(expr.left))
        joins = []
        for r in range(1, len(live) + 1):
            for combo in itertools.combinations(live, r):
                if not tin.cons([p for (p, _) in combo]):
                    continue
                sub_pairs = [(tin.split(p)[i], q) for (p, q) in combo]
                joins.append(theta_subsets(eta, sub, off, sub_pairs))
        return carrier.inject(i, eta._carriers[id(sub)].lub(joins))
    if isinstance(expr, Prod):
        groups = {0: [], 1: []}
        for (p, q) in live:
            i, pi = tin.split(p)
            groups[i].append((pi, q))
        offs = (offset, offset + len(atomic_subfunctors(expr.left)))
        return carrier.pair(
            theta_subsets(eta, expr.left, offs[0], groups[0]),
            theta_subsets(eta, expr.right, offs[1], groups[1]),
        )
    if isinstance(expr, Exp):
        out_pairs = []
        for (pj, _) in live:
            pj0, _ = tin.split(pj)
            sub_pairs = [
                (tin.split(pk)[1], qk)
                for (pk, qk) in live
                if carrier.exponent.leq(tin.split(pk)[0], pj0)
            ]
            out_pairs.append((pj0, theta_subsets(eta, expr.body, offset, sub_pairs)))
        return carrier.make(out_pairs)
    raise TypeError(expr)


@pytest.mark.parametrize(
    "expr, env",
    [
        (RUNNING, running_env()),
        (
            Sum(ConstD("FB"), Exp("S", Id())),
            {"FB": flat_per("flatbool"), "S": sierpinski_per()},
        ),
        (
            Sum(ConstD("A"), Exp("B", Sum(Id(), ConstD("A")))),
            running_env(),
        ),
    ],
    ids=["running", "FB+[S->X]", "A+[B->X+A]"],
)
def test_theta_joins_per_step_like_the_subset_walk(expr, env):
    # on every step set of at most two steps where the subset walk returns,
    # the join of the per-step images is the same token
    eta = EtaSystem(dense_lfp(expr, env, rank_bound=2, n_finite=3))
    cod = [q for q in eta.codomain.tokens(2).tokens if q != eta.codomain.bottom]
    steps = [(p, q) for p in eta.T.tokens().tokens for q in cod]
    compared = 0
    for size in (1, 2):
        for combo in itertools.combinations(steps, size):
            try:
                pairs = eta.fun_basis.pairs(eta.fun_basis.make(list(combo)))
                expected = theta_subsets(eta, eta.expr, 0, pairs)
            except DomaniaError:
                continue
            assert eta._theta(eta.expr, 0, pairs) == expected, combo
            compared += 1
    assert compared > 20


def _a_x_times_a_plus_b():
    expr = Sum(ConstD("A"), Prod(Id(), Sum(ConstD("A"), ConstD("B"))))
    return EtaSystem(dense_lfp(expr, running_env(), rank_bound=2, n_finite=3))


def test_theta_adjunction_where_the_subset_walk_straddles():
    # A + X * (A + B): a step into one factor leaves the other factor's sum
    # with no step, which the subset walk took for a straddle
    eta = _a_x_times_a_plus_b()
    compacts = _witnessed_compacts(eta, 2)
    straddled = 0
    for q in compacts:
        try:
            theta_subsets(eta, eta.expr, 0, eta.fun_basis.pairs(q))
        except NotWitnessed:
            straddled += 1
    assert straddled
    assert _assert_adjunction(eta, compacts, 2) > 50


def test_theta_bottom_premise_at_a_product_is_not_witnessed():
    # S + X * X: the step bottom => (x in the first X) reaches the product
    # with a bottom premise, which would fire in both factors
    expr = Sum(ConstD("S"), Prod(Id(), Id()))
    eta = EtaSystem(dense_lfp(expr, {"S": sierpinski_per()}, rank_bound=2, n_finite=3))
    lim = eta.chain.per_limit.limit
    s_top = lim.canonical(1, lim.stages[1].basis.inject(0, tok("top")))
    q = eta.codomain.inject(1, s_top)
    with pytest.raises(NotWitnessed):
        eta._theta(eta.expr, 0, [(eta.T.bottom, q)])


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
    result = bar.evaluate_zeta(x, u_total)
    assert path_of(bar, result) == []
    s_part, n_part = bar.E.split(result)
    assert bar.a_sum.carrier.split(s_part) == (0, tok("top"))


def path_of(bar, result):
    """The atomic-subfunctor indices an iterated evaluation took, decoded
    from the nat part of its result; None for the bottom result."""
    if result == bar.E.bottom:
        return None
    return decode_path(bar.nat.value_of(bar.E.split(result)[1]), len(bar.eta.K))


def seq(bar, entries):
    """The input sequence of `bar` with the given `support` entries: the
    right-nested pairs of its product spine."""
    *init, u = entries
    for prod, e in zip(reversed(bar._spine), reversed(init)):
        u = prod.pair(e, u)
    return u


def _total_u(bar):
    t_total = next(
        t
        for t in bar.eta.T.tokens().tokens
        if bar.eta.input_per.related(t, t) is True
    )
    return seq(bar, [t_total] * bar.support)


def test_input_sequences_are_products():
    # X = A + (B * X): the input per has two totals, one per summand of B * X
    expr = Sum(ConstD("A"), Prod(ConstD("B"), Id()))
    env = {"A": sierpinski_per(), "B": flat_per("flatbool")}
    eta = EtaSystem(dense_lfp(expr, env, rank_bound=2, n_finite=3))
    ts, exact = eta.input_per.totals()
    assert len(ts) == 2
    bottom = eta.T.bottom
    for support in (1, 3):
        bar = EtaBarSystem(eta, support=support)
        us, u_exact = bar.u_per.totals()
        # the totals of the product, in itertools.product order
        assert u_exact == exact
        assert us == [seq(bar, es) for es in itertools.product(ts, repeat=support)]
        for es in itertools.product(eta.T.tokens().tokens, repeat=support):
            u = seq(bar, es)
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
    result = bar.evaluate_zeta(x2, _total_u(bar))
    assert path_of(bar, result) == [1]
    # the step reaches x1, whose own evaluation names the same parameter value
    reached = bar.evaluate_zeta(x1, _total_u(bar))
    assert bar.E.split(result)[0] == bar.E.split(reached)[0]


def test_zeta_totals_halt_within_rank():
    lfp = running_lfp(rank_bound=3, n_finite=4)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=4)
    totals, _ = lfp.per.totals(3)
    us, _ = bar.u_per.totals()
    for x in totals:
        rank = lfp.chain.per_limit.rank_of(x)
        for u in us:
            result = bar.evaluate_zeta(x, u)
            assert result != bar.E.bottom
            assert len(path_of(bar, result)) < rank


def test_zeta_equivalent_inputs_evaluate_identically():
    lfp = running_lfp(rank_bound=3, n_finite=4)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=4)
    totals, _ = lfp.per.totals(3)
    us, _ = bar.u_per.totals()
    for x in totals:
        for y in totals:
            if lfp.per.related(x, y) is not True:
                continue
            for u in us:
                rx = bar.evaluate_zeta(x, u)
                ry = bar.evaluate_zeta(y, u)
                assert path_of(bar, rx) == path_of(bar, ry)
                assert bar.e_per.related(rx, ry) is True


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
                # a defined result stays, path code and all, on a larger x
                assert bar.E.leq(rx, ry)
                assert rx == bar.E.bottom or path_of(bar, rx) == path_of(bar, ry)


def test_eta_bar_round_trips_and_pedigree():
    lfp = running_lfp(rank_bound=3, n_finite=4)
    report = dense_image_weak_iso(lfp, rank_bound=3)
    assert report.all_pass, report.entries
    assert [v.bound for (_, v) in report.entries] == [3, 3, 3]
    assert lfp.per.flags.admissible_pedigree is True


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
    result = bar.evaluate_zeta(x, _total_u(bar))
    u_prefix = seq(bar, [bar.eta.T.bottom] * bar.support)
    q = bar.fun_basis.make([(u_prefix, result)])
    back = bar.theta_bar(q, witness=x)
    assert lim.leq(back, x) or lfp.per.related(back, x) is True
    # the witness search finds a total for the same compact
    found = find_witness(
        bar.fun_basis.pairs(q), lfp.chain.per_limit.per, bar.u_per, bar.e_per,
        bar.evaluate_zeta, 2,
    )
    assert found is not None and bar.theta_bar(q, bound=2) == back


def test_injected_theta_fault_reported(monkeypatch):
    # corrupt the lower adjoint: send everything to bottom
    def to_bottom(self, q, witness=None, bound=None):
        return self.eta.chain.per_limit.limit.bottom

    monkeypatch.setattr(EtaBarSystem, "theta_bar", to_bottom)
    lfp = running_lfp(rank_bound=2, n_finite=3)
    assert lfp.per.flags.admissible_pedigree is True
    report = dense_image_weak_iso(lfp, rank_bound=2)
    verdicts = dict(report.entries)
    assert verdicts["round-trip-fixed-point"].holds is False
    assert verdicts["round-trip-fixed-point"].witness is not None
    assert not report.all_pass
    # the failed round trip withdraws the flag the assembly set
    assert lfp.per.flags.admissible_pedigree is not True


def test_undecided_round_trip_reads_unknown(monkeypatch):
    # one total's verdicts in the fixed point left undecided: the two rows
    # that read them are unknown, not failed, and the flag is withdrawn
    lfp = running_lfp(rank_bound=2, n_finite=3)
    x0 = lfp.per.totals(2)[0][0]
    related = lfp.per.related

    def undecided_at_x0(a, b):
        return None if x0 in (a, b) else related(a, b)

    monkeypatch.setattr(lfp.per, "related", undecided_at_x0)
    report = dense_image_weak_iso(lfp, rank_bound=2)
    assert [(n, v.holds, v.witness) for (n, v) in report.entries] == [
        ("evaluation-reflects-classes", None, None),
        ("round-trip-fixed-point", None, None),
        ("round-trip-image", True, None),
    ]
    assert lfp.per.flags.admissible_pedigree is None


# equations the class-decided rows are checked on against their pairwise
# references, with the rank bounds they are checked at
CLASS_ROW_CASES = {
    "running": (RUNNING, running_env, (2, 3)),
    "FB+[S->X]": (
        Sum(ConstD("FB"), Exp("S", Id())),
        lambda: {"FB": flat_per("flatbool"), "S": sierpinski_per()},
        (2,),
    ),
    "S+X*X": (Sum(ConstD("S"), Prod(Id(), Id())), lambda: {"S": sierpinski_per()}, (2,)),
}


def reflects_over_all_pairs(lfp, rank_bound):
    """Reference for the evaluation-reflects-classes row: every ordered pair
    of totals is related in the fixed point exactly when their curried
    evaluations are related."""
    bar = EtaBarSystem(EtaSystem(lfp), support=rank_bound + 1)
    totals, _ = lfp.per.totals(rank_bound)

    def cases():
        for x in totals:
            for y in totals:
                lhs = lfp.per.related(x, y)
                rhs = bar.fun_per.related(bar.eta_bar(x), bar.eta_bar(y))
                yield None if None in (lhs, rhs) else lhs == rhs, (x, y)

    return conjoin(cases()).holds


@pytest.mark.parametrize("name", sorted(CLASS_ROW_CASES))
def test_reflection_row_on_classes_matches_all_pairs(name):
    expr, env, rank_bounds = CLASS_ROW_CASES[name]
    for rank_bound in rank_bounds:
        lfp = dense_lfp(expr, env(), rank_bound=rank_bound, n_finite=4)
        report = dense_image_weak_iso(lfp, rank_bound=rank_bound)
        want = reflects_over_all_pairs(lfp, rank_bound)
        assert report["evaluation-reflects-classes"].holds is want, rank_bound


def witness_over_totals(pairs, candidates, inputs, outputs, evaluate, bound):
    """Reference for `find_witness`: the search over every total of
    `candidates` within the bound."""
    ts, _ = inputs.totals(bound)
    for x in candidates.totals(bound)[0]:
        if all(
            _prec(
                outputs, apply_pairs(pairs, inputs.carrier, outputs.carrier, t),
                evaluate(x, t), bound,
            )
            for t in ts
        ):
            return x
    return None


WITNESS_CASES = {
    **CLASS_ROW_CASES,
    "A+[B->X+A]": (Sum(ConstD("A"), Exp("B", Sum(Id(), ConstD("A")))), running_env, ()),
}


@pytest.mark.parametrize("name", sorted(WITNESS_CASES))
def test_witness_search_on_representatives_matches_totals(name):
    # every canonical step set of at most two steps, at bounds 1 and 2: the
    # search over representatives finds a witness exactly when the search
    # over totals does
    expr, env, _ = WITNESS_CASES[name]
    eta = EtaSystem(dense_lfp(expr, env(), rank_bound=2, n_finite=3))
    cod = [q for q in eta.codomain.tokens(2).tokens if q != eta.codomain.bottom]
    steps = [(p, q) for p in eta.T.tokens().tokens for q in cod]
    step_sets = {}
    for size in (1, 2):
        for combo in itertools.combinations(steps, size):
            try:
                q = eta.fun_basis.make(list(combo))
            except DomaniaError:
                continue
            step_sets[q.key] = eta.fun_basis.pairs(q)
    found = 0
    for pairs in step_sets.values():
        for bound in (1, 2):
            args = (
                pairs, eta.unfolded_per, eta.input_per, eta.codomain_per,
                eta.eval_eta, bound,
            )
            got = find_witness(*args)
            assert (got is None) is (witness_over_totals(*args) is None), pairs
            found += got is not None
    assert found


def test_zeta_flatbool_parameter():
    from domania.builtins import flat_per

    env = {"A": flat_per("flatbool"), "B": sierpinski_per()}
    lfp = dense_lfp(RUNNING, env, rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    d1 = lim.stages[1].basis
    x_tt = lim.canonical(1, d1.inject(0, tok("tt")))
    result = bar.evaluate_zeta(x_tt, _total_u(bar))
    assert path_of(bar, result) == []
    s_part, n_part = bar.E.split(result)
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


def test_theta_bar_monotone():
    lfp = running_lfp(rank_bound=2, n_finite=3)
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=3)
    lim = lfp.chain.per_limit.limit
    totals, _ = lfp.per.totals(2)
    checked = 0
    for x in totals:
        full, subs = _witnessed_subcompacts(bar, x)
        big = bar.theta_bar(full, witness=x)
        for q in subs:
            small = bar.theta_bar(q, witness=x)
            assert lim.leq(small, big), (q.pretty, full.pretty)
            checked += 1
    assert checked >= 3


def theta_bar_over_tree(bar, pairs):
    """Slow reference for `EtaBarSystem.theta_bar`: the decorated evaluation
    tree.  A node lists, level by level, a premise-consistent subset of the
    steps below its parent that share one path; it is maximal when it has
    one level per path entry and one more.  Decorated from the leaves up, a
    maximal node holds the parameter value its steps' A-parts join to, and
    every other node the one-step adjoint of the steps its children make;
    the root joins the steps of the first level."""
    eta = bar.eta
    T = eta.T
    live = bar.build_tree(pairs)
    nodes = []

    def extend(prefix, members):
        level = len(prefix)
        groups = {}
        for j in members:
            groups.setdefault(tuple(live[j][2]), []).append(j)
        for path, js in groups.items():
            if level > len(path):
                continue
            for r in range(1, len(js) + 1):
                for combo in itertools.combinations(js, r):
                    if not T.cons([bar.entry_at(live[j][0], level) for j in combo]):
                        continue
                    node = prefix + [combo]
                    nodes.append(node)
                    if level < len(path):
                        extend(node, combo)

    extend([], range(len(live)))

    def step(child, level, decoration):
        prem = T.lub([bar.entry_at(live[j][0], level) for j in child[level]])
        return (prem, decoration)

    children = {}
    for n in nodes:
        children.setdefault(tuple(n[:-1]), []).append(n)
    decorations = {}
    for node in sorted(nodes, key=len, reverse=True):
        key, path = tuple(node), live[node[0][0]][2]
        if len(node) == len(path) + 1:
            a_val = bar.a_sum.carrier.lub([live[j][1] for j in node[-1]])
            n_idx, inner = bar.a_sum.carrier.split(a_val)
            decorations[key] = eta.codomain.inject(eta.const_positions[n_idx], inner)
        else:
            level = len(node)
            steps = [step(ch, level, decorations[tuple(ch)]) for ch in children[key]]
            inner = eta._theta(eta.expr, 0, steps)
            decorations[key] = eta.codomain.inject(path[level - 1], eta.iso.inv(inner))
    roots = [step(r, 0, decorations[tuple(r)]) for r in children.get((), ())]
    return eta.iso.inv(eta._theta(eta.expr, 0, roots))


# equations the branch join is checked on against the tree walk, with the
# rank bounds it is checked at
THETA_BAR_CASES = {
    "running": (RUNNING, running_env, (2, 3, 4)),
    "FB+[S->X]": (
        Sum(ConstD("FB"), Exp("S", Id())),
        lambda: {"FB": flat_per("flatbool"), "S": sierpinski_per()},
        (2, 3),
    ),
    "S+X*X": (Sum(ConstD("S"), Prod(Id(), Id())), lambda: {"S": sierpinski_per()}, (2,)),
    # identities on both sides of a sum: the only case here where the order
    # a path is climbed in shows
    "S+X+X": (Sum(ConstD("S"), Sum(Id(), Id())), lambda: {"S": sierpinski_per()}, (2, 3)),
    "A+X*(A+B)": (
        Sum(ConstD("A"), Prod(Id(), Sum(ConstD("A"), ConstD("B")))),
        running_env,
        (2,),
    ),
}


@pytest.mark.parametrize("name", sorted(THETA_BAR_CASES))
def test_theta_bar_joins_per_branch_like_the_tree_walk(name):
    # on the curried evaluation of every class member, and on every step
    # set of one or two of its steps, wherever the tree walk returns
    expr, env, rank_bounds = THETA_BAR_CASES[name]
    images = step_sets = 0
    for rank_bound in rank_bounds:
        lfp = dense_lfp(expr, env(), rank_bound=rank_bound, n_finite=rank_bound + 1)
        bar = EtaBarSystem(EtaSystem(lfp), support=rank_bound + 1)
        seen = set()
        for cls in lfp.per.classes(rank_bound)[0]:
            for x in cls:
                full = bar.eta_bar(x)
                pairs = bar.fun_basis.pairs(full)
                assert bar.theta_bar(full, witness=x) == theta_bar_over_tree(bar, pairs)
                images += 1
                for size in (1, 2):
                    for combo in itertools.combinations(pairs, size):
                        q = bar.fun_basis.make(list(combo))
                        if q.key in seen:
                            continue
                        seen.add(q.key)
                        try:
                            want = theta_bar_over_tree(bar, bar.fun_basis.pairs(q))
                        except DomaniaError:
                            continue
                        assert bar.theta_bar(q, witness=x) == want, q.pretty
                        step_sets += 1
    assert images and step_sets


def test_every_total_is_a_token():
    # the chains of the golden equations: every stage per, the omega per
    # and the per one step past it on the unfolded carrier
    chains = [
        per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=3),
        per_chain_extend(
            Sum(ConstD("FB"), Exp("S", Id())),
            {"FB": flat_per("flatbool"), "S": sierpinski_per()},
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
    pers += [lfp.per] + [
        dense_part(p, 2).per for (o, p) in lfp.chain.stages if o.is_finite
    ]
    pers += [eta.input_per, eta.codomain_per, eta.fun_per]
    pers += [bar.u_per, bar.e_per, bar.fun_per]
    pers += [
        per_construct("fun", sierpinski_per(), flat_per("flatbool")),
        per_construct("fun", flatnat_per(), sierpinski_per()),
    ]
    empty = []
    for (i, per) in enumerate(pers):
        ts, _ = per.totals(2)
        assert all(isinstance(t, Token) for t in ts), i
        if not ts:
            empty.append(per.carrier.name)
    # only the stage-0 pers, on the one-point basis D0, have no totals: one
    # per chain, and the dense part of the dense chain's stage 0
    assert empty == ["D0"] * 4

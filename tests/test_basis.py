import copy
import itertools
import pickle

import pytest

from domania.basis import (
    FlatNatBasis,
    Token,
    Verdict,
    both,
    catalog_basis,
    catalog_names,
    catalog_poset,
    check_domain_axioms,
    conjoin,
    enumerate_monotone_maps,
    mk_finite_basis,
    one_point_basis,
    poset_of_basis,
    tok,
)
from domania.errors import (
    NoLeastElement,
    NotAntisymmetric,
    NotConsistentlyComplete,
)
from domania.ordinals import OMEGA, Ordinal, fin, omega_plus
from domania.per import ALL_YES, PerFlags, replace
from domania.qcb import sierpinski_space
from domania.spfunctor import ConstD, Exp, Id, Prod, Sum, omega_chain


def test_sierpinski_two_tokens():
    b = mk_finite_basis(["bot", "top"], [("bot", "top")], name="O")
    assert len(b.tokens()) == 2
    assert b.bottom == tok("bot")
    assert b.leq(tok("bot"), tok("top"))
    assert not b.leq(tok("top"), tok("bot"))


def test_vee_inconsistent_arms():
    b = mk_finite_basis(["bot", "a", "b"], [("bot", "a"), ("bot", "b")])
    assert not b.cons((tok("a"), tok("b")))
    assert b.cons((tok("bot"), tok("a")))


def test_cons_matches_the_upper_bound_scan():
    # cons reads the join lub caches; the upper-bound scan it replaced is
    # the reference, on every set of up to three tokens
    for name in catalog_names():
        b = catalog_basis(name)
        toks = b.tokens().tokens
        for size in range(4):
            for ts in itertools.combinations(toks, size):
                has_ub = any(all(b.leq(t, u) for t in ts) for u in toks)
                assert b.cons(ts) == has_ub, (name, ts)


def test_a_token_outside_the_basis_has_no_join():
    vee = catalog_basis("vee")
    a, outside = tok("a"), tok("t")
    assert not vee.cons((a, outside))
    with pytest.raises(NotConsistentlyComplete):
        vee.lub((a, outside))
    assert vee.lub((tok("bot"), a)) == a


def test_two_maximal_upper_bounds_rejected():
    # a,b below both c and d, with c,d incomparable: {a,b} consistent, no lub
    with pytest.raises(NotConsistentlyComplete) as ei:
        mk_finite_basis(
            ["bot", "a", "b", "c", "d"],
            [
                ("bot", "a"),
                ("bot", "b"),
                ("a", "c"),
                ("b", "c"),
                ("a", "d"),
                ("b", "d"),
            ],
        )
    assert ei.value.witness is not None


def test_cycle_rejected():
    with pytest.raises(NotAntisymmetric):
        mk_finite_basis(["x", "y"], [("x", "y"), ("y", "x")])


def test_no_least_rejected():
    with pytest.raises(NoLeastElement):
        mk_finite_basis(["x", "y"], [])


def test_axiom_report_catalog():
    for name in catalog_names():
        rep = check_domain_axioms(catalog_basis(name))
        assert rep.all_pass, (name, [n for (n, v) in rep.entries if not v.holds])
        # exhaustive enumeration: no entry carries a bound
        assert all(v.bound is None for (_, v) in rep.entries)


class _BrokenLub:
    """Delegates to a real basis but reports a non-least upper bound."""

    def __init__(self, inner, top):
        self._inner = inner
        self._top = top
        self.name = inner.name + "!"
        self.finite = True

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    @property
    def bottom(self):
        return self._inner.bottom

    def lub(self, ts):
        ts = list(ts)
        if len(ts) >= 2 and any(t != self.bottom for t in ts):
            return self._top
        return self._inner.lub(ts)


def test_axiom_report_detects_bad_lub():
    base = catalog_basis("three-chain")
    broken = _BrokenLub(base, tok("top"))
    rep = check_domain_axioms(broken)
    assert not rep.all_pass
    bad = dict(rep.entries)["LubNotLeast"]
    assert bad.holds is False and bad.witness is not None


def test_axiom_report_bounded_on_staged_basis():
    rep = check_domain_axioms(FlatNatBasis(), bound=50)
    assert rep.all_pass
    assert [v.bound for (_, v) in rep.entries] == [50] * len(rep.entries)


def test_monotone_map_counts():
    o = catalog_poset("two-chain")
    assert len(enumerate_monotone_maps(o, o)) == 3
    pt = catalog_poset("one-point")
    for name in catalog_names():
        p = catalog_poset(name)
        assert len(enumerate_monotone_maps(pt, p)) == len(p.elements)
    vee = catalog_poset("vee")
    assert len(enumerate_monotone_maps(o, vee)) == 5


def test_monotone_maps_each_listed_once():
    o = catalog_poset("two-chain")
    maps = enumerate_monotone_maps(o, catalog_poset("three-chain"))
    seen = {tuple(sorted(m.items())) for m in maps}
    assert len(seen) == len(maps) == 6


def test_up_sets():
    def up_set(b, p):
        return {q for q in b.tokens().tokens if b.leq(p, q)}

    o = catalog_basis("two-chain")
    assert up_set(o, tok("bot")) == {tok("bot"), tok("top")}
    assert up_set(o, tok("top")) == {tok("top")}
    vee = catalog_basis("vee")
    assert up_set(vee, tok("bot")) == {tok("bot"), tok("a"), tok("b")}
    assert not o.has_token(tok("zap"))


def test_lub_union_compatibility():
    # lub(S u T) = lub({lub(S)} u T) for consistent combinations, exhaustively
    for name in catalog_names():
        b = catalog_basis(name)
        toks = list(b.tokens().tokens)
        subsets = [c for r in range(1, 3) for c in itertools.combinations(toks, r)]
        for s in subsets:
            if not b.cons(s):
                continue
            for t in subsets:
                union = list(s) + list(t)
                if not b.cons(union):
                    continue
                assert b.lub(union) == b.lub([b.lub(s)] + list(t))


def test_flatnat_queries():
    n = FlatNatBasis()
    assert n.leq(n.bottom, n.nat(3))
    assert not n.leq(n.nat(2), n.nat(3))
    assert n.cons((n.bottom, n.nat(1)))
    assert not n.cons((n.nat(0), n.nat(1)))
    ts = n.tokens(5)
    assert not ts.exact and len(ts) == 6


def test_poset_of_basis_round_trip():
    b = catalog_basis("diamond")
    p = poset_of_basis(b)
    assert len(p.elements) == 4
    assert p.leq("a", "top") and not p.leq("a", "b")


def test_one_point():
    b = one_point_basis()
    assert len(b.tokens()) == 1
    assert b.cons(b.tokens().tokens)


def test_one_token_per_key():
    # a composite key holds its component tokens
    step = tok(("fn", frozenset({(tok("bot"), tok("top"))})))
    t = tok(("p", tok(("s", 0, tok("top"))), step))
    assert tok(("p", tok(("s", 0, tok("top"))), step)) is t
    assert t.pretty == "(in0(top),{bot=>top})"
    # it hashes as the key of raw nested keys, yet is not that key's token
    nested = ("p", ("s", 0, "top"), ("fn", frozenset({("bot", "top")})))
    assert hash(t) == hash(nested) and tok(nested) is not t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy({t: [t]}) == {t: [t]}
    assert pickle.loads(pickle.dumps(t)) is t


def _reached_tokens():
    """Every token enumerated at stages 0-4 of X = A + [B -> X] and of
    X = A + [N -> X] (N the flat naturals, bound 3), each chain built twice,
    with the tokens their function spaces reach by `make`, `lub` and
    `from_function`."""
    O = catalog_basis("two-chain")
    equations = [
        (Sum(ConstD("A"), Exp("B", Id())), {"A": O, "B": O}),
        (Sum(ConstD("A"), Exp("N", Id())), {"A": O, "N": FlatNatBasis()}),
    ]
    out = []
    for expr, env in equations * 2:
        stages = omega_chain(expr, env, 4)
        for stage in stages:
            out += stage.basis.tokens(None if stage.basis.finite else 3)
        for stage in stages[1:]:
            fb = stage.basis.parts[1]  # the stage's [B -> X] or [N -> X]
            funs = list(fb.tokens(None if fb.finite else 3))
            out += funs
            if fb.exponent.finite:
                out += [fb.from_function(lambda p, f=f: fb.apply(f, p)) for f in funs]
            if len(funs) > 100:
                continue  # stage 4 of the running example: 82k pairs
            for f, g in itertools.combinations(funs, 2):
                if fb.cons((f, g)):
                    out.append(fb.lub((f, g)))
                    out.append(fb.make(fb.pairs(f) | fb.pairs(g)))
    return out


def _components(key):
    """The component tokens of a composite key, and the key rebuilt from the
    one token of each component's key; ([], None) for a leaf key."""
    one = lambda c: tok(c.key)
    tag = key[0] if isinstance(key, tuple) and key else None
    if tag in ("s", "lim"):
        return [key[2]], (tag, key[1], one(key[2]))
    if tag == "p":
        return [key[1], key[2]], ("p", one(key[1]), one(key[2]))
    if tag == "fn":
        steps = [(one(p), one(q)) for (p, q) in key[1]]
        return [c for pq in key[1] for c in pq], ("fn", frozenset(steps))
    return [], None


def test_token_identity_matches_key_equality():
    # the slow reference hash-consing replaces: tokens equal iff keys equal
    reached = _reached_tokens()
    distinct = list({id(t): t for t in reached}.values())
    assert len(distinct) > 1000
    for a in distinct:
        assert a == a and hash(a) == hash(a.key)
        # a raw key in place of a component token would make a second token
        # for the same compact
        parts, rebuilt = _components(a.key)
        assert all(isinstance(c, Token) for c in parts), a.key
        assert rebuilt is None or tok(rebuilt) is a
    wrong = [
        (a, b)
        for a, b in itertools.combinations(distinct, 2)
        if (a == b) != (a.key == b.key)
    ]
    assert wrong == []


def test_frozen_records_are_values():
    # equal and hashed alike by type and fields
    assert Sum(Id(), ConstD("A")) == Sum(Id(), ConstD("A"))
    assert hash(Exp("B", Id())) == hash(Exp("B", Id()))
    assert Sum(Id(), Id()) != Prod(Id(), Id())
    assert Exp("B", Id()) != Exp("C", Id())
    assert PerFlags(*(True,) * 9) == ALL_YES
    assert fin(2) == Ordinal(False, 2) and fin(2) != omega_plus(2)
    assert sierpinski_space() == sierpinski_space()
    assert Verdict(True) == Verdict(True, None, None, "")
    assert Verdict(None, bound=3) != Verdict(True, bound=3)
    assert poset_of_basis(catalog_basis("two-chain")) == catalog_poset("two-chain")
    # usable as dict keys
    table = {Sum(Id(), Id()): "sum", Prod(Id(), Id()): "prod", fin(1): 1}
    assert table[Sum(Id(), Id())] == "sum" and table[Ordinal(False, 1)] == 1
    # fields cannot be reassigned
    records = [
        (Sum(Id(), Id()), "left"), (fin(1), "k"), (ALL_YES, "dense"),
        (Verdict(True), "holds"), (sierpinski_space(), "elements"),
        (catalog_basis("two-chain").tokens(), "exact"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    # stage indices order finite stages below omega + k
    assert fin(0) < fin(3) < OMEGA < omega_plus(1) < omega_plus(2)
    assert max(fin(7), OMEGA) == OMEGA
    with pytest.raises(ValueError):
        fin(-1)
    # replace changes the named fields and keeps the others
    flags = replace(ALL_YES, dense=False)
    assert flags.dense is False and flags.convex is True and ALL_YES.dense is True
    assert list(flags.as_dict()) == list(PerFlags.FIELDS)
    assert replace(Exp("B", Id()), param="C") == Exp("C", Id())


def test_conjoin_and_both_truth_table():
    # the first failing case decides, with its witness; else an undecided
    # case or an inexact list leaves None; else True
    table = [
        ((), True),
        ((True,), True),
        ((None,), None),
        ((False,), False),
        ((True, True), True),
        ((True, None), None),
        ((None, False), False),
        ((False, None), False),
        ((True, False, None), False),
    ]
    for holds, want in table:
        assert both(*holds) is want, holds
        v = conjoin(((h, i) for (i, h) in enumerate(holds)), bound=2)
        assert v.holds is want and v.bound == 2, holds
        assert v.witness == (holds.index(False) if want is False else None)
        inexact = conjoin(((h, i) for (i, h) in enumerate(holds)), exact=False)
        assert inexact.holds is (False if want is False else None), holds
    assert conjoin([(True, "a"), (False, "b"), (False, "c")]) == Verdict(False, "b")
    assert conjoin([]) == Verdict(True)


def test_conjoin_reads_nothing_past_the_first_failure():
    def cases():
        yield True, "a"
        yield None, "b"
        yield False, "c"
        raise AssertionError("read past the first failure")

    assert conjoin(cases(), bound=1) == Verdict(False, "c", 1)

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Budgets, bounds, and exactness are pinned here; nothing is deferred to later
calibration. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import itertools
import json
import os
import time

import pytest

from domania.basis import catalog_basis, enumerate_monotone_maps, poset_of_basis, tok
from domania.builtins import flatnat_per, sierpinski_per
from domania.cli import run_command
from domania.dense import DeltaFamily, dense_lfp
from domania.eta import EtaBarSystem, EtaSystem, dense_image_weak_iso, find_witness
from domania.oracles import (
    fun_space_suite,
    limit_per_suite,
    per_preservation_suite,
    standard_rep_suite,
)
from domania.ordinals import OMEGA, omega_plus
from domania.perlfp import counterexample_phi, per_chain_extend, stabilization_probe
from domania.qcb import (
    fixed_point_independence,
    mk_space,
    sierpinski_space,
    standard_representation,
    token_iso_pair,
)
from domania.spfunctor import (
    ConstD,
    Exp,
    Id,
    LimitBasis,
    Sum,
    fixed_point_iso,
    omega_chain,
)

RUNNING = Sum(ConstD("A"), Exp("B", Id()))
RUNNING_EQ = "param A = sierpinski; param B = sierpinski; X = A + [B -> X]"


def _verdict(num, name, ok):
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def running_env():
    return {"A": sierpinski_per(), "B": sierpinski_per()}


def test_criterion_01_function_space_oracle():
    t0 = time.monotonic()
    result = fun_space_suite(max_size=4)
    elapsed = time.monotonic() - t0
    ok = result.all_pass and result.cases == 25 and elapsed < 5.0
    _verdict(1, "function-space oracle equivalence", ok)


def test_criterion_02_domain_lfp():
    env = {"A": catalog_basis("two-chain"), "B": catalog_basis("two-chain")}
    stages = omega_chain(RUNNING, env, 4)
    counts = [len(s.basis.tokens().tokens) for s in stages[:3]]
    lim = LimitBasis(stages)
    iso, report = fixed_point_iso(RUNNING, env, lim, bound=3)
    ok = counts == [1, 4, 11] and report.holds is True
    _verdict(2, "domain least fixed point", ok)


def test_criterion_03_per_preservation():
    t0 = time.monotonic()
    result = per_preservation_suite(max_size=3)
    elapsed = time.monotonic() - t0
    ok = result.all_pass and elapsed < 60.0
    _verdict(3, "per-axiom preservation", ok)


def test_criterion_04_inductive_limit():
    result = limit_per_suite(count=20)
    ok = result.all_pass and result.cases == 20
    _verdict(4, "per inductive limits", ok)


def test_criterion_05_dense_machinery():
    lfp = dense_lfp(RUNNING, running_env(), rank_bound=3, n_finite=4)
    fam = DeltaFamily(lfp.chain)
    lim = lfp.chain.per_limit.limit
    toks = lim.tokens(3).tokens
    ok = True
    # the family is exactly the fixed-point set of its retraction
    for n in (1, 2, 3):
        for t in toks:
            if (fam.retract(n, t) == t) != fam.member(n, t):
                ok = False
    # nesting
    for n in (1, 2):
        for t in toks:
            if fam.member(n, t) and not fam.member(n + 1, t):
                ok = False
    # meets the totals of the stage past omega at exactly the stage-n totals
    successor = lfp.chain.stages[-1][1]
    succ_totals, _ = successor.totals(3)
    for n in (1, 2, 3):
        for t in succ_totals:
            if fam.member(n, t) != (lfp.chain.per_limit.rank_of(t) <= n):
                ok = False
    _verdict(5, "dense-part family and retractions", ok)


def _small_unfolded_compacts(eta, limit_bound=2, max_pairs=2):
    """Compacts of the unfolded carrier with at most `max_pairs` step pairs
    in the function component."""
    lim_toks = list(eta.chain.per_limit.limit.tokens(limit_bound).tokens)
    a_part = eta.unfolded.parts[0]
    fun_part = eta.unfolded.parts[1]
    out = [eta.unfolded.bottom]
    for a in a_part.tokens().tokens:
        out.append(eta.unfolded.inject(0, a))
    b_toks = list(fun_part.exponent.tokens().tokens)
    cands = [(p, v) for p in b_toks for v in lim_toks
             if v != eta.chain.per_limit.limit.bottom]
    seen = set()
    for size in range(1, max_pairs + 1):
        for combo in itertools.combinations(cands, size):
            try:
                s = fun_part.make(list(combo))
            except Exception:
                continue
            t = eta.unfolded.inject(1, s)
            if t.key not in seen:
                seen.add(t.key)
                out.append(t)
    return out


def test_criterion_06_adjunction():
    t0 = time.monotonic()
    lfp = dense_lfp(RUNNING, running_env(), rank_bound=3, n_finite=4)
    eta = EtaSystem(lfp)
    rs = _small_unfolded_compacts(eta, limit_bound=2, max_pairs=2)
    cod_toks = list(eta.codomain.tokens(2).tokens)
    t_toks = list(eta.T.tokens().tokens)
    cands = [(p, q) for p in t_toks for q in cod_toks if q != eta.codomain.bottom]
    qs = []
    seen = set()
    for size in (1, 2):
        for combo in itertools.combinations(cands, size):
            try:
                q = eta.fun_basis.make(list(combo))
            except Exception:
                continue
            if q.key in seen:
                continue
            seen.add(q.key)
            witness = find_witness(
                eta.fun_basis.pairs(q), eta.unfolded_per, eta.input_per,
                eta.codomain_per, eta.eval_eta, 3,
            )
            if witness is not None:
                qs.append(q)
    ok = bool(qs) and bool(rs)
    for q in qs:
        tq = eta.theta(q, bound=3)
        for r in rs:
            if eta.unfolded.leq(tq, r) != eta.fun_basis.leq(q, eta.eta_token(r)):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(6, "one-step adjunction", ok)


def test_criterion_07_round_trip():
    lfp = dense_lfp(RUNNING, running_env(), rank_bound=3, n_finite=4)
    report = dense_image_weak_iso(lfp, rank_bound=3)
    names = [name for (name, v) in report.entries if v.holds is True]
    ok = report.all_pass and {
        "evaluation-reflects-classes",
        "round-trip-fixed-point",
        "round-trip-image",
    } <= set(names)
    _verdict(7, "iterated-evaluation round trip", ok)


def test_criterion_08_non_stabilization_witness():
    chain = per_chain_extend(
        Sum(ConstD("A"), Exp("N", Id())),
        {"A": sierpinski_per(), "N": flatnat_per(8)},
        omega_plus(1),
        n_finite=7,
    )
    report = counterexample_phi(chain, bound=5)
    ok = report.ranks == {n: n for n in range(6)}
    ok = ok and report.checks.all_pass
    verdict = stabilization_probe(chain, rank_bound=5)
    ok = ok and verdict.holds is False and verdict.stage == OMEGA
    _verdict(8, "non-stabilization witness", ok)


def test_criterion_09_finite_exponent_stabilizes():
    chain = per_chain_extend(RUNNING, running_env(), omega_plus(1), n_finite=5)
    ok = True
    for rank_bound in (1, 2, 3, 4):
        verdict = stabilization_probe(chain, rank_bound)
        if not (verdict.holds is True and verdict.stage == OMEGA):
            ok = False
    _verdict(9, "finite-exponent stabilization", ok)


def test_criterion_10_standard_representations():
    t0 = time.monotonic()
    result = standard_rep_suite(max_points=4, max_sets=5)
    elapsed = time.monotonic() - t0
    ok = result.all_pass and result.cases >= 80 and elapsed < 120.0
    _verdict(10, "standard representations", ok)


def test_criterion_11_fixed_point_independence():
    sier = standard_representation(
        sierpinski_space(),
        [frozenset({"top"}), frozenset({"bot", "top"})],
    )
    relabeled = standard_representation(
        mk_space("sier2", ["lo", "hi"], [[], ["hi"], ["lo", "hi"]]),
        [frozenset({"hi"}), frozenset({"lo", "hi"})],
    )
    iso = token_iso_pair(sier.per, relabeled.per, {
        tok(("pb", ("bot", "top"))): tok(("pb", ("hi", "lo"))),
        tok(("pb", ("top",))): tok(("pb", ("hi",))),
    })
    report = fixed_point_independence(
        RUNNING,
        {"A": sier.per, "B": sier.per},
        RUNNING,
        {"A": relabeled.per, "B": relabeled.per},
        {("A", "A"): iso, ("B", "B"): iso},
        rank_bound=2,
    )
    ok = report.all_pass and len(report["class-matching"].witness) >= 2
    _verdict(11, "fixed-point independence", ok)


def test_criterion_12_cli_determinism(monkeypatch):
    from test_cli import GOLDEN_COMMANDS, GOLDEN_DIR

    monkeypatch.delenv("DOMANIA_SEED", raising=False)
    covered = {argv[0] for argv in GOLDEN_COMMANDS.values()}
    all_commands = {
        "solve-domain", "per-lfp", "dense", "eta-roundtrip", "qcb",
        "counterexample", "oracle", "independence",
    }
    ok = covered == all_commands
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        first = run_command(argv)
        second = run_command(argv)
        if first != second or first[0] != 0:
            ok = False
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            if first[1] != fh.read():
                ok = False
    _verdict(12, "report determinism and golden coverage", ok)

"""Workloads of the time-to-verdict benchmark and their expected verdicts.

Every expectation here is written from the paper and the README's CLI
contract, not copied from the program's output.  A report that disagrees
with its expectation fails the invocation and counts toward the failed
share; an expectation is never edited to fit the output, so a known defect
stays visible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

RUNNING_EQ = "param A = sierpinski; param B = sierpinski; X = A + [B -> X]"
QCB_EQ = "param FB = flatbool; param S = sierpinski; X = FB + [S -> X]"

# Guards against doing less work, NOT reference outputs.  They are the case
# counts of the oracle suites and the stage rows of the rank-4 probe at the
# commit that introduced this benchmark.  A later change must not get faster
# by enumerating fewer cases or compacts, so each figure is a floor.
ORACLE_CASES_FLOOR = {
    "fun-space": 25,
    "per-preservation": 1833,
    "limit-per": 20,
    "standard-rep": 86,
}
PROBE_DEEP_COMPACTS_FLOOR = {
    "0": 1, "1": 4, "2": 11, "3": 42, "4": 410, "5": 34,
    "omega": 410, "omega+1": 410,
}


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: Tuple[str, ...]
    limit_s: float  # wall-clock limit, far above the time at the base commit
    check: Callable[[int, str, str], Optional[str]]  # (code, stdout, root) -> problem


@dataclass(frozen=True)
class Workload:
    invocations: Tuple[Invocation, ...]
    seeded: bool  # whether DOMANIA_SEED permutes the program's scan order


def _report(code: int, text: str) -> Tuple[Optional[dict], Optional[str]]:
    if code != 0:
        return None, f"exit {code}, expected 0"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "report is not JSON"


def _statuses(doc) -> Dict[str, str]:
    return {c["name"]: c["status"] for c in doc["checks"]}


def _check_probe_deep(code, text, root):
    # paper and acceptance criterion 9: the running example stabilizes at
    # omega, and every link of the chain is an equiembedding
    doc, problem = _report(code, text)
    if problem:
        return problem
    if doc["stabilized_at"] != "omega":
        return f"stabilized_at {doc['stabilized_at']!r}, expected 'omega'"
    statuses = _statuses(doc)
    for name in ("chain-links", "stabilization"):
        if statuses.get(name) != "pass":
            return f"check {name} is {statuses.get(name)!r}, expected 'pass'"
    rows = {r["index"]: r["compact_count"] for r in doc["stages"]}
    if set(rows) != set(PROBE_DEEP_COMPACTS_FLOOR):
        return f"stage rows {sorted(rows)} differ from the guarded stages"
    for index, floor in PROBE_DEEP_COMPACTS_FLOOR.items():
        if rows[index] < floor:
            return f"stage {index} has {rows[index]} compacts, below {floor}"
    return None


def _golden_check(fixture):
    def check(code, text, root):
        if code != 0:
            return f"exit {code}, expected 0"
        with open(os.path.join(root, "tests", "golden", fixture)) as fh:
            if text != fh.read():
                return f"report differs from tests/golden/{fixture}"
        return None

    return check


def _oracle_check(suite):
    def check(code, text, root):
        doc, problem = _report(code, text)
        if problem:
            return problem
        failing = [n for n, s in _statuses(doc).items() if s != "pass"]
        if not doc["checks"] or failing:
            return f"entries not passing: {failing or 'none reported'}"
        cases = doc["stages"][0]["compact_count"]
        if not cases or cases < ORACLE_CASES_FLOOR[suite]:
            return f"{cases} cases, below {ORACLE_CASES_FLOOR[suite]}"
        return None

    return check


# The eight golden commands of the CLI test suite, each with its fixture.
# `counterexample` reports `stabilization: fail` with a witness: that is the
# paper's finding for flat naturals, and the fixture pins it.
GOLDEN_COMMANDS = {
    "solve-domain.json": ("solve-domain", "--eq", RUNNING_EQ, "--stages", "3"),
    "per-lfp.json": (
        "per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "2", "--beyond-omega", "1",
    ),
    "dense.json": ("dense", "--eq", RUNNING_EQ, "--n-max", "2", "--rank-bound", "2"),
    "eta-roundtrip.json": ("eta-roundtrip", "--eq", RUNNING_EQ, "--rank-bound", "2"),
    "qcb.json": ("qcb", "--eq", QCB_EQ, "--rank-bound", "2"),
    "counterexample.json": (
        "counterexample", "--param", "sierpinski", "--bound", "3", "--nat-bound", "6",
    ),
    "oracle.json": ("oracle", "--suite", "fun-space", "--max-size", "3"),
    "independence.json": (
        "independence", "--eq", RUNNING_EQ, "--eq2", RUNNING_EQ, "--rank-bound", "2",
    ),
}

ORACLE_SUITES = (
    ("fun-space", "4"),
    ("per-preservation", "3"),
    ("limit-per", "20"),
    ("standard-rep", "4"),
)

# `per-lfp --rank-bound 5` is left out: it does not finish (ROADMAP item 4).
# It can join `probe-deep` once the program has a work budget.
#
# `oracle-sweep` runs here and in `report.py`, but BENCHMARK.json does not
# gate it: on the shared two-core machine the benchmark was written on, its
# wall time spread by 9-27% between ten runs, beyond the largest bound an
# end-to-end metric may have.  Its traced counts repeat exactly and still
# show the construction cost of a change made for one big carrier.
WORKLOADS: Dict[str, Workload] = {
    "probe-deep": Workload(
        (
            Invocation(
                "per-lfp-rank4",
                ("per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "4",
                 "--beyond-omega", "1"),
                120.0,
                _check_probe_deep,
            ),
        ),
        seeded=False,
    ),
    "desk-golden": Workload(
        tuple(
            Invocation(name, argv, 30.0, _golden_check(name))
            for name, argv in GOLDEN_COMMANDS.items()
        ),
        seeded=False,  # the byte comparison needs the default scan order
    ),
    "oracle-sweep": Workload(
        tuple(
            Invocation(
                f"oracle-{suite}",
                ("oracle", "--suite", suite, "--max-size", size),
                60.0,
                _oracle_check(suite),
            )
            for suite, size in ORACLE_SUITES
        ),
        seeded=True,
    ),
}

# Per-layer figures each workload is meant to exercise: the traced run
# fails if any of them reads zero there.  `perlfp.probe.omega_totals` is
# left out: a fold-back probe decides every fragment total without
# enumerating omega-totals, so 0 is a correct reading for it.
EXERCISED: Dict[str, List[str]] = {
    "probe-deep": [
        "basis.tok.calls", "basis.leq.calls", "basis.lub.calls",
        "construct.bases_built", "construct.fun.leq.calls",
        "construct.fun.lub.calls", "construct.fun.apply.calls",
        "construct.tokens_enumerated", "construct.embedding.calls",
        "spfunctor.omega_chain.s", "spfunctor.fixed_point_iso.s",
        "spfunctor.iso.calls", "spfunctor.limit.tokens_enumerated",
        "per.related.calls", "per.totals.calls", "per.totals.enumerated",
        "per.classes.s", "per.is_equiembedding.s", "per.limit_per.s",
        "perlfp.per_chain_extend.s", "perlfp.stabilization_probe.s",
        "perlfp.probe.fragment_totals",
        "cli.parse_equation.s", "cli.report_json.s",
    ],
    "desk-golden": [
        "basis.cons.calls", "spfunctor.omega_chain.s",
        "spfunctor.fixed_point_iso.s", "spfunctor.iso.calls",
        "dense.dense_lfp.s", "dense.member.calls", "dense.retract.calls",
        "eta.dense_image_weak_iso.s", "eta.theta.calls", "eta.build_tree.calls",
        "qcb.qcb_fixed_point.s", "qcb.fixed_point_independence.s",
        "qcb.standard_representation.calls", "perlfp.counterexample_phi.s",
        "cli.parse_equation.s", "cli.report_json.s", "oracles.fun_space.s",
        "oracles.cases",
    ],
    "oracle-sweep": [
        "construct.bases_built", "construct.fun.leq.calls",
        "construct.fun.cons.calls", "construct.fun.lub.calls",
        "per.is_equiembedding.s", "per.limit_per.s",
        "perlfp.per_chain_extend.s", "qcb.standard_representation.calls",
        "oracles.fun_space.s", "oracles.per_preservation.s",
        "oracles.limit_per.s", "oracles.standard_rep.s", "oracles.cases",
    ],
}

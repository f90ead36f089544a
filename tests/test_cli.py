import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domania.cli import (
    export_dot,
    load_basis_file,
    load_per_file,
    load_space_file,
    parse_equation,
    pretty_expr,
    run_command,
    scan_order,
)
from domania.errors import EquationSyntaxError, RecursiveExponent, UnboundName
from domania.spfunctor import ConstD, Exp, Id, Prod, Sum

RUNNING_EQ = "param A = sierpinski; param B = sierpinski; X = A + [B -> X]"


def test_parse_running_example():
    src = parse_equation(RUNNING_EQ)
    assert src.var == "X"
    assert src.expr == Sum(ConstD("A"), Exp("B", Id()))
    assert src.decls == {"A": "sierpinski", "B": "sierpinski"}


def test_parse_recursive_exponent_rejected():
    with pytest.raises(RecursiveExponent):
        parse_equation("param A = sierpinski; X = [X -> A]")


def test_parse_precedence():
    src = parse_equation("param A = sierpinski; X = (A * A) + X")
    assert src.expr == Sum(Prod(ConstD("A"), ConstD("A")), Id())
    # * binds tighter than +
    src2 = parse_equation("param A = sierpinski; X = A * A + X")
    assert src2.expr == Sum(Prod(ConstD("A"), ConstD("A")), Id())


def test_parse_unbound_name():
    with pytest.raises(UnboundName):
        parse_equation("X = A + X")
    with pytest.raises(UnboundName):
        parse_equation("param A = sierpinski; X = A + [B -> X]")


def test_parse_syntax_error_carries_position():
    with pytest.raises(EquationSyntaxError) as ei:
        parse_equation("param A = sierpinski\nX = A + + X")
    assert ei.value.line == 2


_leaf = st.sampled_from([Id(), ConstD("A"), ConstD("B")])


def _exprs(depth):
    if depth == 0:
        return _leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaf,
        st.builds(Sum, sub, sub),
        st.builds(Prod, sub, sub),
        st.builds(lambda b: Exp("B", b), sub),
    )


@given(_exprs(3))
@settings(max_examples=120, deadline=None)
def test_parse_pretty_round_trip(expr):
    text = f"param A = sierpinski; param B = sierpinski; X = {pretty_expr(expr)}"
    assert parse_equation(text).expr == expr


def test_definition_files(tmp_path):
    basis_file = tmp_path / "vee.basis"
    basis_file.write_text("name = vee\ntokens = bot a b\norder = bot<a bot<b\n")
    b = load_basis_file(str(basis_file))
    assert len(b.tokens()) == 3

    per_file = tmp_path / "vee.per"
    per_file.write_text("carrier = file(vee.basis)\nrel = a~a\n")
    per = load_per_file(str(per_file))
    ts, _ = per.totals()
    assert [t.key for t in ts] == ["a"]

    space_file = tmp_path / "s.space"
    space_file.write_text(
        "points = 0 1\nopens = {} {1} {0 1}\npseudobase = {1} {0 1}\n"
    )
    space, pb = load_space_file(str(space_file))
    assert space.points == ("0", "1")
    assert len(pb) == 2


def test_equation_from_per_file(tmp_path):
    basis_file = tmp_path / "o.basis"
    basis_file.write_text("name = o\ntokens = bot top\norder = bot<top\n")
    per_file = tmp_path / "o.per"
    per_file.write_text("carrier = file(o.basis)\nrel = top~top\n")
    code, text = run_command(
        [
            "solve-domain",
            "--eq",
            f"param A = file({per_file}); param B = sierpinski; X = A + [B -> X]",
            "--stages",
            "2",
        ]
    )
    assert code == 0
    doc = json.loads(text)
    assert [s["compact_count"] for s in doc["stages"]] == [1, 4, 11]


def test_export_dot_running_example(tmp_path):
    from domania.basis import catalog_basis, one_point_basis
    from domania.spfunctor import omega_chain

    src = parse_equation(RUNNING_EQ)
    env = {"A": catalog_basis("two-chain"), "B": catalog_basis("two-chain")}
    stages = omega_chain(src.expr, env, 1)
    path = tmp_path / "d1.dot"
    nodes, edges = export_dot(stages[1].basis, str(path))
    assert (nodes, edges) == (4, 3)
    body = path.read_text()
    assert body.startswith("digraph") and body.count("->") == 3

    nodes, edges = export_dot(one_point_basis(), str(tmp_path / "pt.dot"))
    assert (nodes, edges) == (1, 0)


def test_export_dot_marks_totals(tmp_path):
    from domania.builtins import sierpinski_per

    per = sierpinski_per()
    ts, _ = per.totals()
    path = tmp_path / "o.dot"
    export_dot(per.carrier, str(path), totals=ts)
    assert "peripheries=2" in path.read_text()


def test_usage_errors_exit_two():
    code, _ = run_command(["per-lfp"])
    assert code == 2
    code, _ = run_command(["no-such-command"])
    assert code == 2
    code, text = run_command(["oracle", "--suite", "nope"])
    assert code == 2
    code, _ = run_command(
        ["solve-domain", "--eq", "param A = sierpinski; X = [X -> A]"]
    )
    assert code == 2
    # bounds, sizes and stage counts below 1 are usage errors
    for argv in (
        ["per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "-1"],
        ["per-lfp", "--eq", RUNNING_EQ, "--nat-bound", "0"],
        ["solve-domain", "--eq", RUNNING_EQ, "--stages", "0"],
        ["dense", "--eq", RUNNING_EQ, "--n-max", "0"],
        ["counterexample", "--param", "sierpinski", "--bound", "0"],
        ["oracle", "--suite", "fun-space", "--max-size", "0"],
    ):
        code, _ = run_command(argv)
        assert code == 2, argv


def test_check_failures_exit_one(monkeypatch):
    from domania import oracles

    # flat naturals as exponent: the probe finds a new total past omega
    code, text = run_command(
        [
            "per-lfp", "--eq",
            "param A = sierpinski; param N = flatnat; X = A + [N -> X]",
            "--rank-bound", "2",
        ]
    )
    assert code == 1
    statuses = {c["name"]: c["status"] for c in json.loads(text)["checks"]}
    assert statuses["stabilization"] == "fail"

    # a suite that runs no case fails instead of passing vacuously
    monkeypatch.setattr(oracles, "fun_space_suite", lambda size: oracles.SuiteResult())
    code, text = run_command(["oracle", "--suite", "fun-space", "--max-size", "3"])
    assert code == 1
    assert [c["status"] for c in json.loads(text)["checks"]] == ["fail"]


def test_scan_order_permutes_but_keeps_everything(monkeypatch):
    items = list(range(12))
    monkeypatch.delenv("DOMANIA_SEED", raising=False)
    assert scan_order(items) == items
    monkeypatch.setenv("DOMANIA_SEED", "7")
    shuffled = scan_order(items)
    assert sorted(shuffled) == items
    assert scan_order(items) == shuffled  # same seed, same order


GOLDEN_COMMANDS = {
    "solve-domain.json": [
        "solve-domain", "--eq", RUNNING_EQ, "--stages", "3",
    ],
    "per-lfp.json": [
        "per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "2", "--beyond-omega", "1",
    ],
    "dense.json": [
        "dense", "--eq", RUNNING_EQ, "--n-max", "2", "--rank-bound", "2",
    ],
    "eta-roundtrip.json": [
        "eta-roundtrip", "--eq", RUNNING_EQ, "--rank-bound", "2",
    ],
    "qcb.json": [
        "qcb", "--eq",
        "param FB = flatbool; param S = sierpinski; X = FB + [S -> X]",
        "--rank-bound", "2",
    ],
    "counterexample.json": [
        "counterexample", "--param", "sierpinski", "--bound", "3",
        "--nat-bound", "6",
    ],
    "oracle.json": ["oracle", "--suite", "fun-space", "--max-size", "3"],
    "independence.json": [
        "independence", "--eq", RUNNING_EQ, "--eq2", RUNNING_EQ,
        "--rank-bound", "2",
    ],
}

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_reports(name, monkeypatch):
    monkeypatch.delenv("DOMANIA_SEED", raising=False)
    code, text = run_command(GOLDEN_COMMANDS[name])
    assert code == 0, text
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        assert text == fh.read()


def test_reports_byte_deterministic(monkeypatch):
    monkeypatch.delenv("DOMANIA_SEED", raising=False)
    for name in ("solve-domain.json", "counterexample.json"):
        runs = [run_command(GOLDEN_COMMANDS[name]) for _ in range(2)]
        assert runs[0] == runs[1]


def test_every_report_anchor_is_documented():
    docs = open(
        os.path.join(os.path.dirname(__file__), "..", "docs", "traceability.md")
    ).read()
    for name in sorted(GOLDEN_COMMANDS):
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            doc = json.load(fh)
        for check in doc["checks"]:
            assert f"`{check['anchor']}`" in docs, check["anchor"]


def test_qcb_space_files_flag(tmp_path):
    space_file = tmp_path / "two.space"
    space_file.write_text(
        "points = 0 1\nopens = {} {1} {0 1}\npseudobase = {1} {0 1}\n"
    )
    code, text = run_command(
        [
            "qcb",
            "--eq",
            "param A = flatbool; param S = sierpinski; X = A + [S -> X]",
            "--space-files",
            f"S={space_file}",
            "--rank-bound",
            "2",
        ]
    )
    assert code == 0, text
    doc = json.loads(text)
    assert doc["pedigree"]["admissible_pedigree"] == "yes"


def test_per_lfp_constant_equation_truncates_stages():
    code, text = run_command(
        [
            "per-lfp", "--eq", "param A = sierpinski; X = A",
            "--rank-bound", "2", "--beyond-omega", "1",
        ]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["stabilized_at"] == "1"
    assert len(doc["stages"]) == 2

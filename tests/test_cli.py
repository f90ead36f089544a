import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domania.cli import (
    _Lexer,
    export_dot,
    load_basis_file,
    load_per_file,
    load_space_file,
    parse_equation,
    pretty_expr,
    run_command,
)
from domania.errors import EquationSyntaxError, RecursiveExponent, UnboundName
from domania.oracles import scan_order
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
    # a comment moves the column on: the newline after it is column 17
    for (text, line, col) in [
        ("param A = sierpinski\nX = A + + X", 2, 9),
        ("param A = # note\nX = A", 1, 17),
    ]:
        with pytest.raises(EquationSyntaxError) as ei:
            parse_equation(text)
        assert (ei.value.line, ei.value.col) == (line, col), text


def test_syntax_error_message_names_its_position():
    # the position is in the message itself, so the CLI prints it; the end
    # of the text reads as such, not as an empty token
    for (eq, message) in [
        ("param A = sierpinski\nX = A + ? X", "unexpected character '?' at line 2, col 9"),
        ("param A = sierpinski; X = A +", "unexpected end of input at line 1, col 30"),
        ("param A = discrete(", "expected a number, found end of input at line 1, col 20"),
        ("param A = sierpinski; X = (A", "expected ')', found end of input at line 1, col 29"),
    ]:
        assert run_command(["per-lfp", "--eq", eq]) == (2, f"error: {message}\n"), eq


# the grammar's tokens, as (kind, text); a path holds no ")" or newline
_LETTERS = "abfilepXYZ_"
_DIGITS = "0129"
_scan_tokens = st.one_of(
    st.tuples(
        st.just("ident"),
        st.builds(
            str.__add__, st.sampled_from(_LETTERS), st.text(_LETTERS + _DIGITS, max_size=5)
        ),
    ),
    st.tuples(st.just("num"), st.text(_DIGITS, min_size=1, max_size=4)),
    st.tuples(st.just("ident"), st.sampled_from(["file", "param", "discrete"])),
    st.tuples(st.just("arrow"), st.just("->")),
    st.tuples(st.just("sym"), st.sampled_from("=+*()[];,")),
    st.tuples(
        st.just("filesrc"),
        st.text(st.characters(blacklist_characters=")\n"), max_size=6).map(
            lambda path: f"file({path})"
        ),
    ),
)
_comments = st.text(st.characters(blacklist_characters="\n"), max_size=6)
_gaps = st.lists(
    st.one_of(st.sampled_from([" ", "\t", "\n"]), _comments.map(lambda c: f"#{c}\n")),
    max_size=3,
).map("".join)


def _merges(left, right):
    """Whether `left` written right before `right` scans otherwise."""
    return (
        (left[0] in ("ident", "num") and right[0] in ("ident", "num"))
        or (left[0] == "ident" and right[0] == "filesrc")
        or (left == ("ident", "file") and right == ("sym", "("))
    )


@given(
    st.lists(st.tuples(_gaps, _scan_tokens), max_size=12),
    st.one_of(st.just(""), _comments.map(lambda c: f"#{c}")),
)
@settings(max_examples=200, deadline=None)
def test_scanner_reads_back_joined_tokens(pairs, tail):
    # each token at the line and column where it starts in the joined text;
    # each newline of a gap is a token of its own
    text, prev = "", None

    def at(pos):
        line = text.count("\n", 0, pos) + 1
        return line, pos - (text.rfind("\n", 0, pos) + 1) + 1

    spots = []
    for (gap, token) in pairs:
        if prev is not None and not gap and _merges(prev, token):
            gap = " "
        spots += [
            ("newline", "\n", len(text) + i) for (i, ch) in enumerate(gap) if ch == "\n"
        ]
        text += gap
        spots.append((token[0], token[1], len(text)))
        text += token[1]
        prev = token
    text += tail
    want = [(kind, value, *at(pos)) for (kind, value, pos) in spots]
    want.append(("eof", "", *at(len(text))))
    assert _Lexer(text).toks == want


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


def reference_pretty(expr, var="X"):
    """The two-function printer `pretty_expr` replaced, kept as the
    reference for its bracketing."""
    if isinstance(expr, Id):
        return var
    if isinstance(expr, ConstD):
        return expr.name
    if isinstance(expr, Sum):
        right = reference_pretty(expr.right, var)
        if isinstance(expr.right, Sum):
            right = f"({right})"
        return f"{reference_pretty(expr.left, var)} + {right}"
    if isinstance(expr, Prod):
        right = _reference_factor(expr.right, var)
        if isinstance(expr.right, Prod):
            right = f"({reference_pretty(expr.right, var)})"
        return f"{_reference_factor(expr.left, var)} * {right}"
    if isinstance(expr, Exp):
        return f"[{expr.param} -> {reference_pretty(expr.body, var)}]"
    raise TypeError(expr)


def _reference_factor(expr, var):
    s = reference_pretty(expr, var)
    return f"({s})" if isinstance(expr, (Sum, Prod)) else s


@given(_exprs(5), st.sampled_from(["X", "Y"]))
@settings(max_examples=200, deadline=None)
def test_pretty_expr_matches_the_reference_printer(expr, var):
    assert pretty_expr(expr, var) == reference_pretty(expr, var)


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
    assert space.elements == ("0", "1") and space.leq("0", "1")
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


def _export_dot_by_cubic_scan(basis, path, totals=None):
    """The scan `export_dot` replaced, kept as the reference: an edge a -> b
    when a < b and no token lies strictly between."""
    toks = sorted(basis.tokens().tokens, key=lambda t: t.pretty)
    total = set(totals or [])
    ids = {t: f"n{i}" for i, t in enumerate(toks)}
    lines = ["digraph basis {"]
    for t in toks:
        shape = ' peripheries=2' if t in total else ""
        lines.append(f'  {ids[t]} [label="{t.pretty}"{shape}];')
    edge_count = 0
    for a in toks:
        for b in toks:
            if a == b or not basis.leq(a, b):
                continue
            if any(
                c != a and c != b and basis.leq(a, c) and basis.leq(c, b)
                for c in toks
            ):
                continue
            lines.append(f"  {ids[a]} -> {ids[b]};")
            edge_count += 1
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(toks), edge_count


@pytest.mark.parametrize(
    "eq",
    [RUNNING_EQ, "param FB = flatbool; param S = sierpinski; X = FB + [S -> X]"],
    ids=["running", "FB+[S->X]"],
)
def test_export_dot_matches_the_cubic_scan(tmp_path, eq):
    from domania.cli import resolve_per_source
    from domania.spfunctor import omega_chain

    src = parse_equation(eq)
    env = {k: resolve_per_source(v, 6).carrier for (k, v) in src.decls.items()}
    for stage in omega_chain(src.expr, env, 3):
        want, got = tmp_path / "want.dot", tmp_path / "got.dot"
        counts = _export_dot_by_cubic_scan(stage.basis, str(want))
        assert export_dot(stage.basis, str(got)) == counts
        assert got.read_bytes() == want.read_bytes(), stage.index
    assert counts[1] > counts[0]


def test_export_dot_marks_totals(tmp_path):
    from domania.builtins import sierpinski_per

    per = sierpinski_per()
    ts, _ = per.totals()
    path = tmp_path / "o.dot"
    export_dot(per.carrier, str(path), totals=ts)
    assert "peripheries=2" in path.read_text()


def test_usage_errors_exit_two(tmp_path):
    code, _ = run_command(["per-lfp"])
    assert code == 2
    code, _ = run_command(["no-such-command"])
    assert code == 2
    code, _ = run_command(
        ["solve-domain", "--eq", "param A = sierpinski; X = [X -> A]"]
    )
    assert code == 2
    # bounds, sizes and stage counts below 1, and stages past omega below 0,
    # are usage errors
    for argv in (
        ["per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "-1"],
        ["per-lfp", "--eq", RUNNING_EQ, "--nat-bound", "0"],
        ["per-lfp", "--eq", RUNNING_EQ, "--beyond-omega", "-1"],
        ["solve-domain", "--eq", RUNNING_EQ, "--stages", "0"],
        ["dense", "--eq", RUNNING_EQ, "--n-max", "0"],
        ["counterexample", "--param", "sierpinski", "--bound", "0"],
        ["oracle", "--suite", "fun-space", "--max-size", "0"],
        [
            "solve-domain", "--eq", RUNNING_EQ,
            "--dot", str(tmp_path / "x.dot"), "--dot-stage", "-9",
        ],
    ):
        code, _ = run_command(argv)
        assert code == 2, argv
    # an unknown parameter, a discrete size that is no number, a space that
    # is no topology and a family that is no pseudobase
    no_empty_open = tmp_path / "two.space"
    no_empty_open.write_text(
        "points = 0 1\nopens = {1} {0 1}\npseudobase = {1} {0 1}\n"
    )
    qcb_eq = "param A = {}; param S = {}; X = A + [S -> X]"
    for argv in (
        ["oracle", "--suite", "nope"],
        ["counterexample", "--param", "bogus"],
        ["per-lfp", "--eq", "param A = discrete(abc); X = A + X"],
        ["qcb", "--eq", qcb_eq.format("flatbool", f"file({no_empty_open})")],
        ["qcb", "--eq", qcb_eq.format("discrete(0)", "sierpinski")],
    ):
        code, text = run_command(argv)
        assert code == 2 and text.startswith("error: "), argv


def _with_param_file(path):
    return [
        "solve-domain", "--eq",
        f"param A = file({path}); param B = sierpinski; X = A + [B -> X]",
        "--stages", "1",
    ]


def _with_space_file(path):
    return [
        "qcb", "--eq", f"param A = flatbool; param S = file({path}); X = A + [S -> X]",
        "--rank-bound", "1",
    ]


@pytest.mark.parametrize("key", ["points", "opens", "pseudobase"])
def test_space_file_missing_a_key_exits_two(tmp_path, key):
    lines = {
        "points": "points = 0 1", "opens": "opens = {} {1} {0 1}",
        "pseudobase": "pseudobase = {1} {0 1}",
    }
    path = tmp_path / "s.space"
    path.write_text("\n".join(v for (k, v) in lines.items() if k != key) + "\n")
    code, text = run_command(_with_space_file(path))
    assert code == 2 and text.startswith("error: "), text
    assert str(path) in text and repr(key) in text


def test_basis_file_without_tokens_exits_two(tmp_path):
    # reached through a per file's carrier
    (tmp_path / "o.basis").write_text("name = o\norder = bot<top\n")
    per_file = tmp_path / "o.per"
    per_file.write_text("carrier = file(o.basis)\nrel = top~top\n")
    code, text = run_command(_with_param_file(per_file))
    assert code == 2 and text.startswith("error: "), text
    assert "o.basis" in text and "'tokens'" in text


def test_per_file_relating_an_unknown_token_exits_one(tmp_path):
    # as an unknown token in a basis file's order does
    per_file = tmp_path / "s.per"
    per_file.write_text("carrier = sierpinski\nrel = top~nope\n")
    code, text = run_command(_with_param_file(per_file))
    assert code == 1 and text.startswith("error: "), text
    assert "top~nope" in text

    basis_file = tmp_path / "o.basis"
    basis_file.write_text("tokens = bot top\norder = bot<nope\n")
    per_file.write_text("carrier = file(o.basis)\nrel = top~top\n")
    code, text = run_command(_with_param_file(per_file))
    assert code == 1 and text.startswith("error: "), text


def test_check_failures_exit_one(monkeypatch):
    from domania import oracles
    from domania.basis import Checks

    # flat naturals as exponent: the probe finds a new total past omega
    code, text = run_command(
        [
            "per-lfp", "--eq",
            "param A = sierpinski; param N = flatnat; X = A + [N -> X]",
            "--rank-bound", "2",
        ]
    )
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert checks["stabilization"]["status"] == "fail"
    # a staged parameter keeps the link checks on fragments of rank 3, where
    # no link verdict is decided
    assert checks["chain-links"]["status"] == "unknown"
    assert checks["chain-links"]["bound"] == 3

    # a suite that runs no case fails instead of passing vacuously
    monkeypatch.setattr(oracles, "fun_space_suite", lambda size: Checks())
    code, text = run_command(["oracle", "--suite", "fun-space", "--max-size", "3"])
    assert code == 1
    assert [c["status"] for c in json.loads(text)["checks"]] == ["fail"]


def _one_check(name, holds, witness=None):
    from domania.basis import Checks

    checks = Checks()
    checks.add(name, holds, witness, 2)
    return lambda *args, **kwargs: checks


def test_unknown_check_keeps_exit_code(monkeypatch):
    # a check that ends unknown does not change the exit code
    from domania import cli

    monkeypatch.setattr(cli, "dense_laws", _one_check("kept-tokens", None))
    code, text = run_command(GOLDEN_COMMANDS["dense.json"])
    assert code == 0, text
    assert [c["status"] for c in json.loads(text)["checks"]] == ["unknown"]


def test_failing_pair_check_prints_both_totals(monkeypatch):
    from domania import cli
    from domania.basis import tok

    x, y = tok(("s", 0, tok("top"))), tok(("s", 1, tok("bot")))
    check = _one_check("evaluation-reflects-classes", False, (x, y))
    monkeypatch.setattr(cli, "dense_image_weak_iso", check)
    code, text = run_command(GOLDEN_COMMANDS["eta-roundtrip.json"])
    assert code == 1
    (row,) = json.loads(text)["checks"]
    assert row["status"] == "fail"
    assert row["witness"] == f"({x.pretty}, {y.pretty})"


def test_eta_roundtrip_passes_when_a_step_misses_a_factor():
    # X = A + X * (A + B): a step into the X factor leaves the (A + B)
    # factor with no step, and that factor stays bottom
    eq = "param A = sierpinski; param B = sierpinski; X = A + X * (A + B)"
    code, text = run_command(["eta-roundtrip", "--eq", eq, "--rank-bound", "2"])
    assert code == 0, text
    checks = json.loads(text)["checks"]
    assert [c["name"] for c in checks] == [
        "evaluation-reflects-classes", "round-trip-fixed-point", "round-trip-image",
    ]
    assert {c["status"] for c in checks} == {"pass"}


def test_eta_roundtrip_on_the_trivial_functor_passes():
    # X = X has only the trivial per as its least fixed point: dense_lfp
    # builds no dense part, and each round trip holds on no totals
    code, text = run_command(["eta-roundtrip", "--eq", "X = X", "--rank-bound", "2"])
    assert code == 0, text
    checks = json.loads(text)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("evaluation-reflects-classes", "pass"),
        ("round-trip-fixed-point", "pass"),
        ("round-trip-image", "pass"),
    ]


def test_per_lfp_with_no_stage_past_omega_is_unknown():
    # with no unfolded per beyond omega the probe has nothing to fold back
    code, text = run_command(["per-lfp", "--eq", RUNNING_EQ, "--beyond-omega", "0"])
    assert code == 0, text
    doc = json.loads(text)
    (row,) = [c for c in doc["checks"] if c["name"] == "stabilization"]
    assert (row["status"], doc["stabilized_at"]) == ("unknown", None)
    assert doc["stages"][-1]["index"] == "omega"


def test_qcb_separation_row_records_a_hypothesis():
    # a non-Hausdorff positive parameter fails the separation row, yet the
    # fixed point exists either way: the documented exception to exit 1
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    eq = "param S = sierpinski; param B = flatbool; X = S + [B -> X]"
    proc = subprocess.run(
        [sys.executable, "-m", "domania.cli", "qcb", "--eq", eq, "--rank-bound", "2"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    checks = {c["name"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
    assert checks["positive-parameters-hausdorff"] == "fail"
    assert checks["fixed-point-classes"] == "pass"


@pytest.mark.parametrize(
    "script", ["export_hasse.py", "run_counterexample.py", "run_fundamental_example.py"]
)
def test_script_runs_to_exit_zero(script, tmp_path):
    # the scripts print tokens through the library; export_hasse.py writes
    # its graphs into the working directory, here tmp_path
    root = os.path.join(os.path.dirname(__file__), "..")
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", script)],
        env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


FLATNAT_PARAMS = "param A = sierpinski; param N = flatnat; "


@pytest.mark.parametrize("rank_bound", ["3", "4"])
def test_flatnat_witness_within_built_stages(rank_bound):
    # the nestings checked at these bounds all lie inside the built stages
    code, text = run_command(
        ["per-lfp", "--eq", FLATNAT_PARAMS + "X = A + [N -> X]",
         "--rank-bound", rank_bound]
    )
    assert code == 1
    doc = json.loads(text)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["stabilized_at"] is None
    assert checks["stabilization"]["status"] == "fail"
    assert checks["stabilization"]["bound"] == int(rank_bound)


# the nesting witness each equation's probe derives; in the last, the path
# to the variable passes a finite exponent before the infinite one
NESTING_WITNESSES = {
    "X = [N -> X] + A": "in0(<fn ('natfn', 'nest', ('tok', '@1:in1(top)'))>)",
    "X = A + ([N -> X] * A)":
        "in1((<fn ('natfn', 'nest', ('tok', '@1:in0(top)'))>,top))",
    "X = A + [N -> [N -> X]]": "in1(<fn ('natfn', 'nest', ('tok', '@1:in0(top)'))>)",
    "param B = sierpinski; X = A + [B -> [N -> X]]":
        "in1({bot=><fn ('natfn', 'nest', ('tok', '@1:in0(top)'))>})",
}


@pytest.mark.parametrize(
    "eq, rank_bound",
    [
        ("X = [N -> X] + A", "2"),
        ("X = A + ([N -> X] * A)", "3"),
        ("X = A + [N -> [N -> X]]", "2"),
        ("param B = sierpinski; X = A + [B -> [N -> X]]", "2"),
    ],
)
def test_infinite_exponent_nesting_witness_fails(eq, rank_bound):
    # the variable under an exponent over the flat naturals nests without
    # end, wherever the exponent sits in the equation
    code, text = run_command(
        ["per-lfp", "--eq", FLATNAT_PARAMS + eq, "--rank-bound", rank_bound]
    )
    assert code == 1
    doc = json.loads(text)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["stabilized_at"] is None
    assert checks["stabilization"]["status"] == "fail"
    assert checks["stabilization"]["witness"] == NESTING_WITNESSES[eq]
    assert checks["stabilization"]["bound"] == int(rank_bound)


@pytest.mark.parametrize("eq, rank_bound", [("X = A + [N -> A]", "2")])
def test_infinite_exponent_without_witness_is_unknown(eq, rank_bound):
    # no variable under the exponent, so no nesting witness; the fragment
    # past omega holds only finitely supported functions, so it cannot show
    # that stage omega+1 adds no totals
    code, text = run_command(
        ["per-lfp", "--eq", FLATNAT_PARAMS + eq, "--rank-bound", rank_bound]
    )
    assert code == 0
    doc = json.loads(text)
    checks = {c["name"]: c for c in doc["checks"]}
    assert doc["stabilized_at"] is None
    assert checks["stabilization"]["status"] == "unknown"
    assert checks["stabilization"]["bound"] == int(rank_bound)


def test_independence_undecided_stages_report_unknown():
    # over the flat naturals no stage weak isomorphism is decided at the
    # bound; the fold reports unknown, and unknown keeps exit code 0
    eq = FLATNAT_PARAMS + "X = A + [N -> X]"
    code, text = run_command(
        ["independence", "--eq", eq, "--eq2", eq, "--rank-bound", "2"]
    )
    checks = {c["name"]: c["status"] for c in json.loads(text)["checks"]}
    assert checks == {
        "stage-weak-isos": "unknown",
        "uniform-family": "pass",
        "class-matching": "pass",
    }
    assert code == 0


def test_independence_pairs_parameters_by_position():
    # A stands where C and where D stand; zipping sorted names would pair A
    # with C only and find no pair for (A, D)
    code, text = run_command([
        "independence",
        "--eq", "param A = sierpinski; X = A + [A -> X]",
        "--eq2", "param C = sierpinski; param D = sierpinski; X = C + [D -> X]",
        "--rank-bound", "2",
    ])
    assert code == 0, text
    checks = {c["name"]: c["status"] for c in json.loads(text)["checks"]}
    assert checks["stage-weak-isos"] == "pass"


def cli_in_child(argv, address_space, timeout):
    """Run the command line in a child process under a timeout and an
    address-space limit of `address_space` bytes."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
        "from domania.cli import main\n"
        "sys.exit(main())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, timeout=timeout,
    )


def test_flatnat_product_equation_ends_with_a_report():
    # the links and the fixed-point iso once scanned every pair of tokens
    # here for ~100 s and ~1 GB; run in a child under a timeout and an
    # address-space limit
    eq = "param A = sierpinski; param N = flatnat; X = A + ([N -> X] * X)"
    proc = cli_in_child(["per-lfp", "--eq", eq, "--rank-bound", "2"], 2 << 30, 60)
    assert proc.returncode == 1, proc.stderr
    checks = {c["name"]: c["status"] for c in json.loads(proc.stdout)["checks"]}
    assert checks["stabilization"] == "fail"


def test_per_lfp_row_past_the_last_built_stage_has_no_class_count():
    # omega+3's classes at rank bound 2 need finite stage 5, past the four
    # built: the row prints no count, and the report still ends with exit 0
    argv = ["per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "2", "--beyond-omega", "3"]
    code, text = run_command(argv)
    assert code == 0, text
    last = json.loads(text)["stages"][-1]
    assert last["index"] == "omega+3" and last["total_class_count"] is None


# the closed-set family's retraction on a product summand, an exponent
# summand, a sum with both sides live, and a product beside an exponent
DENSE_BRANCH_EQUATIONS = [
    "param A = sierpinski; X = A * A + X",
    "param A = sierpinski; param B = sierpinski; X = [B -> A] + X",
    "param A = sierpinski; param B = flatbool; X = A + B + X",
    "param A = sierpinski; param B = sierpinski; X = A * [B -> A] + [B -> X]",
]


@pytest.mark.parametrize("eq", DENSE_BRANCH_EQUATIONS)
def test_dense_laws_pass_on_each_shape_of_summand(eq):
    argv = ["dense", "--eq", eq, "--n-max", "2", "--rank-bound", "2"]
    code, text = run_command(argv)
    assert code == 0, text
    assert [c["status"] for c in json.loads(text)["checks"]] == ["pass"] * 4


def test_rank_five_per_lfp_report_is_unchanged():
    # the probe and the class counts once enumerated every stage omega+1
    # fragment total here (~8 s, ~160 MB); run in a child under a timeout
    # and a 1 GB address-space limit
    argv = ["per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "5", "--beyond-omega", "1"]
    proc = cli_in_child(argv, 1 << 30, 30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["stabilized_at"] == "omega"
    digest = hashlib.sha1(proc.stdout).hexdigest()
    assert digest == "7d85c0862b055139f0a444209236482a5712f491"


# eta-roundtrip reports at bounds the golden files leave out, by the
# sha1 of their output
ETA_ROUNDTRIP_REPORTS = {
    "running-3": (RUNNING_EQ, 3, "5bba44922afef813e384246338ac2073cde43736"),
    "running-4": (RUNNING_EQ, 4, "3110d40bff11a401b9ff2c95f59f2146b094b76e"),
    "FB+[S->X]-3": (
        "param FB = flatbool; param S = sierpinski; X = FB + [S -> X]", 3,
        "57583687f759744a7f0f7caecf18b5a9d18e3b93",
    ),
    "S+X*X-3": (
        "param S = sierpinski; X = S + X * X", 3,
        "ccd4bea460ad067ce50808c1be5e6cd74ac8df2b",
    ),
    "A+X*(A+B)-2": (
        "param A = sierpinski; param B = sierpinski; X = A + X * (A + B)", 2,
        "03bb86f900094e9b1373bff529d39c6645344843",
    ),
}


@pytest.mark.parametrize("name", sorted(ETA_ROUNDTRIP_REPORTS))
def test_eta_roundtrip_report_is_unchanged(name):
    # the largest, at rank 4, takes ~2 s and ~70 MB
    eq, rank_bound, want = ETA_ROUNDTRIP_REPORTS[name]
    argv = ["eta-roundtrip", "--eq", eq, "--rank-bound", str(rank_bound)]
    proc = cli_in_child(argv, 1 << 30, 60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha1(proc.stdout).hexdigest() == want


def test_per_lfp_loads_neither_qcb_nor_oracles():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    script = (
        "import sys\n"
        "from domania.cli import run_command\n"
        f"code, _ = run_command(['per-lfp', '--eq', {RUNNING_EQ!r}, '--rank-bound', '1'])\n"
        "print(code, [m for m in ('domania.qcb', 'domania.oracles') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.split("\n")[-2] == "0 []", proc.stderr


def test_no_module_loads_dataclasses_or_inspect():
    # every command is a fresh process that imports the package; loading
    # these two, and building records with them, took ~30 ms of each start
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    modules = sorted(
        name[:-3] for name in os.listdir(os.path.join(src, "domania"))
        if name.endswith(".py") and name != "__init__.py"
    )
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('domania.' + name)\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert "cli" in modules and "qcb" in modules
    assert proc.stdout == "[]\n", proc.stderr


@pytest.mark.parametrize("rank_bound, beyond", [(3, 2), (2, 3), (3, 3), (4, 2), (4, 3)])
def test_per_lfp_past_omega_plus_one_ends_with_a_report(rank_bound, beyond):
    # each level past omega folds once more, so the omega+k row's classes at
    # rank bound R need stage R + k; these rows once ended the run with an
    # iso error and no report, and now print a null class count
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = [
        "per-lfp", "--eq", RUNNING_EQ,
        "--rank-bound", str(rank_bound), "--beyond-omega", str(beyond),
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "domania.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["stabilized_at"] == "omega"
    last_finite = max(int(r["index"]) for r in doc["stages"] if r["index"].isdigit())
    for row in doc["stages"]:
        if row["index"].startswith("omega+"):
            k = int(row["index"][len("omega+"):])
            counted = row["total_class_count"] is not None
            assert counted == (rank_bound + k <= last_finite), row


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


def test_function_verdicts_read_exact_exponent_listings(monkeypatch):
    # a function-space verdict takes no bound: it reads its exponent's
    # related pairs unbounded, or its probe points. Over the golden commands
    # and the rank-4 probe each exponent listing it reads is exact, or probe
    # points answer; a staged exponent without probe points would fail here
    from domania.per import FunRel

    seen = {"probe points": 0, "exact": 0, "inexact": 0}
    related = FunRel.related

    def watched(self, f, g):
        steps = (self.basis.pairs(f), self.basis.pairs(g))
        if self.exp_per.rel.probe_points(*steps) is not None:
            seen["probe points"] += 1
        else:
            seen["exact" if self.exp_per.related_pairs()[1] else "inexact"] += 1
        return related(self, f, g)

    monkeypatch.setattr(FunRel, "related", watched)
    monkeypatch.delenv("DOMANIA_SEED", raising=False)
    probe = ["per-lfp", "--eq", RUNNING_EQ, "--rank-bound", "4", "--beyond-omega", "1"]
    for argv in [*GOLDEN_COMMANDS.values(), probe]:
        code, text = run_command(argv)
        assert code == 0, (argv, text)
    assert seen["inexact"] == 0 and seen["exact"] and seen["probe points"], seen


def test_reports_byte_deterministic(monkeypatch):
    monkeypatch.delenv("DOMANIA_SEED", raising=False)
    for name in ("solve-domain.json", "counterexample.json"):
        runs = [run_command(GOLDEN_COMMANDS[name]) for _ in range(2)]
        assert runs[0] == runs[1]


@pytest.mark.parametrize("nat_bound, checked", [("6", 3), ("2", 2)])
def test_counterexample_reports_the_checked_bound(nat_bound, checked):
    # the equivariance check covers only the nestings the built stages hold
    argv = GOLDEN_COMMANDS["counterexample.json"][:-1] + [nat_bound]
    code, text = run_command(argv)
    assert code == 0, text
    (check,) = [
        c for c in json.loads(text)["checks"] if c["name"] == "fragment-equivariance"
    ]
    assert check["bound"] == checked


def test_counterexample_derives_the_witness_once(monkeypatch):
    from domania import perlfp

    calls = []
    derive = perlfp.counterexample_phi

    def counting(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    monkeypatch.setattr(perlfp, "counterexample_phi", counting)
    code, _ = run_command(GOLDEN_COMMANDS["counterexample.json"])
    assert code == 0
    assert len(calls) == 1


def test_every_report_anchor_is_documented():
    from domania.cli import ANCHORS

    path = os.path.join(os.path.dirname(__file__), "..", "docs", "traceability.md")
    with open(path) as fh:
        documented = set(re.findall(r"^\| `([^`]+)` \|", fh.read(), re.MULTILINE))
    # the table can emit exactly the documented anchors
    assert set(ANCHORS.values()) == documented
    for name in sorted(GOLDEN_COMMANDS):
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            doc = json.load(fh)
        for check in doc["checks"]:
            assert check["anchor"] in documented, check["anchor"]


def test_qcb_space_file_source(tmp_path):
    # in qcb mode a file(...) source is a space definition file
    space_file = tmp_path / "two.space"
    space_file.write_text(
        "points = 0 1\nopens = {} {1} {0 1}\npseudobase = {1} {0 1}\n"
    )
    code, text = run_command(
        [
            "qcb",
            "--eq",
            f"param A = flatbool; param S = file({space_file}); X = A + [S -> X]",
            "--rank-bound",
            "2",
        ]
    )
    assert code == 0, text
    doc = json.loads(text)
    assert doc["pedigree"]["admissible_pedigree"] == "yes"


def test_qcb_space_file_that_is_not_t0_exits_one(tmp_path):
    # reading the space file refuses two points no open set separates
    space_file = tmp_path / "blob.space"
    space_file.write_text("points = x y\nopens = {} {x y}\npseudobase = {x y}\n")
    code, text = run_command(_with_space_file(space_file))
    assert (code, text) == (
        1, "error: points ('x', 'y') are topologically indistinguishable\n"
    )


def test_qcb_builds_flatnat_at_the_nat_bound(monkeypatch):
    # a flatnat parameter of qcb lists its naturals up to --nat-bound
    from domania import cli

    built = []
    build = cli.builtin_per

    def recorded(name, nat_bound=8):
        built.append((name, nat_bound))
        return build(name, nat_bound)

    monkeypatch.setattr(cli, "builtin_per", recorded)
    eq = "param A = sierpinski; param N = flatnat; X = A + [N -> A]"
    code, text = run_command(
        ["qcb", "--eq", eq, "--rank-bound", "1", "--nat-bound", "5"]
    )
    assert code == 0, text
    assert built == [("flatnat", 5)]


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

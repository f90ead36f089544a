"""Self-test of the time-to-verdict benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a checkout.  Exits 0 when every check holds:

1. the golden commands in `workloads.py` are those of `tests/test_cli.py`;
2. BENCHMARK.json names only workloads of `workloads.py`, and every figure
   a workload must exercise is a declared per-layer metric;
3. the tracer rebinds every wrapped function in each domania module
   namespace that holds it (`tok` in construct, eta, cli and builtins, the
   chain, probe and dense entry points in cli and dense, ...);
4. a traced run of each named workload (all by default) is correct: each
   per-layer counter the workload is meant to exercise is non-zero, and the
   traced and untraced reports are byte-identical.  This is the slow part;
   `probe-deep` takes about two minutes.
"""

import ast
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

from workloads import EXERCISED, GOLDEN_COMMANDS, WORKLOADS  # noqa: E402

# (module, name) pairs the tracer must rebind; each is imported by name
REBOUND = [
    (m, "tok") for m in (
        "basis", "construct", "spfunctor", "per", "builtins", "eta", "qcb", "cli",
    )
] + [
    ("perlfp", "per_chain_extend"), ("dense", "per_chain_extend"),
    ("cli", "per_chain_extend"), ("qcb", "per_chain_extend"),
    ("perlfp", "stabilization_probe"), ("cli", "stabilization_probe"),
    ("dense", "dense_lfp"), ("cli", "dense_lfp"), ("qcb", "dense_lfp"),
    ("eta", "dense_image_weak_iso"), ("cli", "dense_image_weak_iso"),
]


def golden_commands_of_test_suite(root):
    path = os.path.join(root, "tests", "test_cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    wanted = [
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) in ("RUNNING_EQ", "GOLDEN_COMMANDS")
                for t in node.targets)
    ]
    scope = {}
    exec(compile(ast.Module(wanted, []), path, "exec"), scope)
    return {k: tuple(v) for k, v in scope["GOLDEN_COMMANDS"].items()}


def check_rebinding(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from tracer import Tracer

    tracer = Tracer()
    modules = tracer.install()
    problems = [f"unwrapped {name}" for name in tracer.unwrapped_references(modules)]
    for mod, name in REBOUND:
        value = getattr(modules[mod], name)
        if not hasattr(value, "__wrapped__"):
            problems.append(f"domania.{mod}.{name} is not wrapped")
    return problems


def traced_run(root, workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}"]
    if json.loads(lines[-1])["correct"]:
        return []
    return [f"{workload}: {line[2:]}" for line in lines if line.startswith("# ")]


def main(argv):
    root = os.getcwd()
    problems = []
    if golden_commands_of_test_suite(root) != GOLDEN_COMMANDS:
        problems.append("GOLDEN_COMMANDS differ from tests/test_cli.py")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names unknown workloads {sorted(unknown)}")
    declared = {m["name"] for m in spec["per_layer"]}
    for workload, metrics in EXERCISED.items():
        problems += [f"{workload}: {m} is not declared" for m in metrics
                     if m not in declared]
    problems += check_rebinding(root)
    for workload in argv or list(WORKLOADS):
        problems += traced_run(root, workload)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

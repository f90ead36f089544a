import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _selftest(workload):
    # the benchmark's self-test on one workload: every figure that workload
    # must exercise reads non-zero, the tracer rebinds every name it wraps,
    # and traced stdout equals untraced stdout
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("selftest: ok")


def test_traced_probe_deep_run_is_correct():
    _selftest("probe-deep")


def test_traced_desk_golden_run_is_correct():
    # the only traced run that reaches eta and dense: eta.build_tree.calls,
    # eta.theta.calls and dense.retract.calls must read non-zero
    _selftest("desk-golden")

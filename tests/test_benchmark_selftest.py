import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_traced_probe_deep_run_is_correct():
    # the benchmark's self-test on the probe-deep workload: every figure that
    # workload must exercise reads non-zero, the tracer rebinds every name it
    # wraps, and traced stdout equals untraced stdout
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py"), "probe-deep"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("selftest: ok")

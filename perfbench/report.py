"""Every metric of every workload in one table.

    python3 perfbench/report.py

Run from the root of a checkout.  Runs `run.py` on each workload of
`workloads.py`, those BENCHMARK.json gates and `oracle-sweep` alike,
untraced and then traced, with seed 1 and BENCHMARK.json's run_seconds, and
prints one table per mode: a row per metric with its unit, a column per
workload.  Takes about seven minutes.  Exits 1 if any run reports incorrect
results.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

from workloads import WORKLOADS  # noqa: E402


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = list(WORKLOADS)
    ok = True
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        columns = {}
        for name in workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not doc or not doc["correct"]:
                ok = False
                print(f"{name} (trace {trace}): not correct", file=sys.stderr)
                print("\n".join(lines[:-1]) or proc.stderr, file=sys.stderr)
            columns[name] = doc["metrics"] if doc else {}
        print(f"\n{'traced' if trace else 'untraced'} metrics")
        print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>16s}" for w in workloads))
        for m in declared:
            cells = "".join(
                f"{columns[w][m['name']]['value']:16.6g}" if m["name"] in columns[w]
                else f"{'-':>16s}"
                for w in workloads
            )
            print(f"{m['name']:40s} {m['unit']:6s}{cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Time-to-verdict benchmark for the domania CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A closed loop with one client: one
`python -m domania.cli` child at a time, no threads.  Each pass runs every
invocation of the workload once, in an order the seed permutes; another
pass starts while one as long as the last would end within S seconds, and
the first always runs.  No-work invocations before and after the passes
give setup_s.  Every report is checked against the expectations in
`workloads.py`; `record.json` defines each metric.

With `--trace 0` the end-to-end metrics of BENCHMARK.json are printed; with
`--trace 1` one untraced and one traced pass run, and the per-layer metrics
are printed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Lines before it show every
metric with its unit and any failed invocation.

CPU time and peak RSS come from `os.wait4` on each child.  Children run with
PYTHONHASHSEED=0 so that per-layer counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

from tracer import ALL_MODULES, layer_metrics  # noqa: E402
from workloads import EXERCISED, WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0  # whole run, safely inside the 180 s a run may take
SETUP_REPS = 6  # no-work invocations before and again after the passes
TRACED_LIMIT_FACTOR = 3.0  # the traced pass may take this much longer


@dataclass
class Outcome:
    name: str
    code: Optional[int]
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: Optional[str] = None
    trace: Optional[dict] = None
    statuses: List[str] = field(default_factory=list)


class Bench:
    """One run: the children it started, their outcomes and the run budget."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.rng = random.Random(seed)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(dir=os.path.join(root, ".perfbench_work"))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("DOMANIA_SEED", None)
        if workload.seeded:
            self.env["DOMANIA_SEED"] = str(seed)
        self.stderr_path = os.path.join(self.work, "stderr")
        self.outcomes: List[Outcome] = []
        self.attempted = 0

    def child(self, argv, limit_s):
        """Run one child to completion; returns (code, stdout, wall, cpu, rss_mb).
        A child still running at its limit is killed and reported as code None."""
        limit_s = min(limit_s, self.deadline - time.monotonic())
        self.attempted += 1
        if limit_s <= 0:
            return None, "", 0.0, 0.0, 0.0
        out_path = os.path.join(self.work, "stdout")
        with open(out_path, "wb") as out, open(self.stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            reaped = False
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], limit_s)
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                os.close(pidfd)
                if not reaped:
                    proc.kill()
                    os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        code = proc.returncode if ready else None
        return code, text, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def setup_times(self, reps, warm_up=True):
        """Wall time of no-work invocations; a warm-up, which may compile
        bytecode, is not timed."""
        times = []
        for i in range(reps + warm_up):
            code, _, wall, _, _ = self.child([sys.executable, "-m", "domania.cli"], 30.0)
            if code != 2:
                self.outcomes.append(
                    Outcome("setup", code, "", wall, 0.0, 0.0,
                            problem=f"no-work invocation exited {code}, expected 2"
                            + self.stderr_tail())
                )
            if (i or not warm_up) and code is not None:
                times.append(wall)
        return times

    def run_pass(self, traced=False):
        """One pass over the workload in a seed-permuted order."""
        order = list(self.workload.invocations)
        self.rng.shuffle(order)
        outcomes = []
        for request_id, inv in enumerate(order):
            limit = inv.limit_s
            trace_path = os.path.join(self.work, f"trace-{request_id}.json")
            if traced:
                limit *= TRACED_LIMIT_FACTOR
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        trace_path, str(request_id), *inv.argv]
            else:
                argv = [sys.executable, "-m", "domania.cli", *inv.argv]
            code, text, wall, cpu, rss = self.child(argv, limit)
            o = Outcome(inv.name, code, text, wall, cpu, rss)
            if code is None:
                o.problem = f"no verdict within {limit:.0f} s or the run budget"
            else:
                try:
                    o.problem = inv.check(code, text, self.root)
                    o.statuses = [c["status"] for c in json.loads(text)["checks"]]
                except (ValueError, KeyError, TypeError, IndexError) as e:
                    o.problem = o.problem or f"malformed report: {e!r}"
                if o.problem:
                    o.problem += self.stderr_tail()
            if traced and code is not None:
                try:
                    with open(trace_path) as fh:
                        o.trace = json.load(fh)
                except (OSError, ValueError) as e:
                    o.problem = o.problem or f"no trace written: {e!r}"
            outcomes.append(o)
        self.outcomes += outcomes
        return outcomes

    def stderr_tail(self):
        with open(self.stderr_path, errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        return f" (stderr: {lines[-1]})" if lines else ""

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _failed(bench):
    return sum(1 for o in bench.outcomes if o.problem)


def _pass_wall(outcomes):
    return sum(o.wall_s for o in outcomes)


def end_to_end(bench, seconds):
    setup = bench.setup_times(SETUP_REPS)
    # passes repeat while the next one, as long as the last, would end within
    # `seconds`; the first pass always runs
    passes = []
    start = time.monotonic()
    while not passes or (
        time.monotonic() + _pass_wall(passes[-1]) - start <= seconds
        and time.monotonic() + _pass_wall(passes[-1]) < bench.deadline
    ):
        passes.append(bench.run_pass())
    # setup is sampled on both sides of the passes, tens of seconds apart,
    # so that one slow phase of the shared machine moves it less
    setup += bench.setup_times(SETUP_REPS, warm_up=False)
    runs = [o for p in passes for o in p]
    statuses = [s for o in runs for s in o.statuses]
    decided = sum(1 for s in statuses if s in ("pass", "fail"))
    # a typical pass: each invocation at its median over the passes, which
    # a burst of load on the shared machine moves less than a pass total
    by_name = {}
    for o in runs:
        by_name.setdefault(o.name, []).append(o)
    latencies = [o.wall_s for o in runs]
    notes = [f"passes={len(passes)} invocations per pass={len(by_name)} "
             f"latency samples={len(latencies)}"]
    tail = _tail(latencies)
    if tail:
        notes.append(tail)

    def typical(attr):
        return [_median([getattr(o, attr) for o in group]) for group in by_name.values()]

    metrics = {
        "setup_s": _median(setup),
        "wall_s": sum(typical("wall_s")),
        # the median invocation of a typical pass; the plain median of all
        # samples of a mixed workload falls between two different commands
        # and swings with the extremes of both
        "latency_s.median": _median(typical("wall_s")),
        "cpu_s": sum(typical("cpu_s")),
        "peak_rss_mb": max(typical("rss_mb")),
        "ok_ratio": 1 - _failed(bench) / bench.attempted,
        "decided_ratio": decided / len(statuses) if statuses else 0.0,
    }
    return metrics, [], notes


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it, if any."""
    for q in (99, 90, 75):
        if len(latencies) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(latencies, n=100)[q - 1]
            return f"latency_s.p{q}={cut:.4f} s over {len(latencies)} samples"
    return None


def per_layer(bench, name):
    bench.setup_times(0)  # warm-up only
    plain = bench.run_pass()
    traced = bench.run_pass(traced=True)
    problems = []
    plain_by_name = {o.name: o for o in plain}
    for o in traced:
        ref = plain_by_name[o.name]
        if (o.code, o.stdout) != (ref.code, ref.stdout):
            o.problem = o.problem or "traced report differs from the untraced one"
        if o.trace and o.trace["unwrapped"]:
            o.problem = o.problem or f"tracer missed {o.trace['unwrapped']}"
    summaries = [o.trace for o in traced if o.trace]
    metrics = layer_metrics(summaries) if len(summaries) == len(traced) else {}
    if metrics:
        for metric in EXERCISED[name]:
            if not metrics[metric]:
                problems.append(f"{metric} reads 0 on {name}")
        metrics["trace.overhead_ratio"] = _pass_wall(traced) / _pass_wall(plain)
        metrics.update(src_lines(bench.root))
        with open(os.path.join(bench.root, ".perfbench_work",
                               f"spans-{name}.json"), "w") as fh:
            json.dump([s for d in summaries for s in d["spans"]], fh)
    return metrics, problems, []


def src_lines(root):
    out = {}
    for module in ALL_MODULES:
        with open(os.path.join(root, "src", "domania", module + ".py")) as fh:
            out[f"{module}.src_lines"] = sum(1 for line in fh if line.strip())
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    missing = [
        path for path in ("BENCHMARK.json", "src/domania/cli.py", "tests/golden")
        if not os.path.exists(os.path.join(root, path))
    ]
    if missing:
        print(f"run from the root of a domania checkout; missing {missing}",
              file=sys.stderr)
        return 1
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics, problems, notes = per_layer(bench, args.workload)
        else:
            metrics, problems, notes = end_to_end(bench, args.seconds)
    finally:
        bench.close()

    problems += [f"{o.name}: {o.problem}" for o in bench.outcomes if o.problem]
    if metrics and set(metrics) != set(units):
        problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    for line in problems + notes:
        print(f"# {line}")
    for name in units:
        if name in metrics:
            print(f"{name:40s} {metrics[name]:>16.6f} {units[name]}")
    doc = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": _failed(bench),
        "metrics": {
            n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

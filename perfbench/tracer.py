"""Layer tracer for the time-to-verdict benchmark.

`Tracer.install()` wraps the public functions and methods of the domania
layers from outside the package, so nothing under `src/` changes.

Two kinds of boundary share one timing stack:

* coarse boundaries (`COARSE`) record a span per call: name, start, end,
  parent span and request id.  They are few per invocation and back the
  `*.s` metrics;
* fine boundaries (every other wrapped callable) are aggregated in place as
  call count, inclusive time and self time.  A rank-4 probe makes tens of
  millions of them, far too many to keep one object per call.

Self time is a call's duration minus the time covered by the wrapped calls
it made.  Time spent in callables that are not wrapped (private helpers,
`LEAVES`, generator bodies, `builtins`, `ordinals`, `errors`) counts as
self time of the nearest wrapped caller.  Counts repeat exactly from run to
run; times carry the wrappers' own overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# the thirteen modules of the package; `src_lines` is reported for each
ALL_MODULES = (
    "errors", "ordinals", "basis", "construct", "spfunctor", "per", "builtins",
    "perlfp", "dense", "eta", "qcb", "cli", "oracles",
)

# the layers wrapped, in import order of the package
LAYERS = (
    "basis", "construct", "spfunctor", "per", "perlfp", "dense", "eta",
    "qcb", "cli", "oracles",
)

# coarse boundaries: wrapped-callable key -> span name
COARSE = {
    "cli.run_command": "cli.run_command",
    "cli.parse_equation": "cli.parse_equation",
    "cli.report_json": "cli.report_json",
    "spfunctor.omega_chain": "spfunctor.omega_chain",
    "spfunctor.fixed_point_iso": "spfunctor.fixed_point_iso",
    "per.DomainPer.classes": "per.classes",
    "per.is_equiembedding": "per.is_equiembedding",
    "per.limit_per": "per.limit_per",
    "perlfp.per_chain_extend": "perlfp.per_chain_extend",
    "perlfp.stabilization_probe": "perlfp.stabilization_probe",
    "perlfp.counterexample_phi": "perlfp.counterexample_phi",
    "dense.dense_lfp": "dense.dense_lfp",
    "eta.dense_image_weak_iso": "eta.dense_image_weak_iso",
    "qcb.qcb_fixed_point": "qcb.qcb_fixed_point",
    "qcb.fixed_point_independence": "qcb.fixed_point_independence",
    "oracles.fun_space_suite": "oracles.fun_space",
    "oracles.per_preservation_suite": "oracles.per_preservation",
    "oracles.limit_per_suite": "oracles.limit_per",
    "oracles.standard_rep_suite": "oracles.standard_rep",
}

# private callables wrapped because a metric needs them
EXTRA = ("perlfp._successor_fragment_totals",)

# public leaf helpers left unwrapped: millions of calls each on the rank-4
# probe, no metric of their own, and their callers sit in the same layer
LEAVES = ("basis.render_key", "per.value_key")

# constructors counted by `construct.bases_built`
BUILT_BASES = ("FunBasis", "MultiSumBasis", "ProdBasis")


def _public_callables(module):
    """(key, owner, attribute name, function) for every function and method
    defined in `module` whose name is public."""
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for name, obj in sorted(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            if (name.startswith("_") or inspect.isgeneratorfunction(obj)
                    or f"{layer}.{name}" in LEAVES):
                continue
            out.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for attr, fn in sorted(vars(obj).items()):
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                wanted = not attr.startswith("_") or (
                    attr == "__init__" and layer == "construct" and name in BUILT_BASES
                )
                if wanted:
                    out.append((f"{layer}.{name}.{attr}", obj, attr, fn))
    for key in EXTRA:
        mod, attr = key.split(".")
        if mod == layer:
            out.append((key, module, attr, getattr(module, attr)))
    return out


class Tracer:
    """Holds every span and aggregate of one traced invocation."""

    def __init__(self, request_id=0):
        self.request_id = request_id
        self.clock = time.perf_counter
        self.t0 = self.clock()
        # child-time accumulators, one per open wrapped call; [0] is the root
        self._stack = [0.0]
        self._open_spans = [-1]
        self.spans = []  # [name, start, end, parent, request_id]
        self.fine = {}  # key -> [calls, inclusive_s, self_s]
        self.counters = {
            "per.related.true": 0,
            "per.totals.enumerated": 0,
            "construct.tokens_enumerated": 0,
            "spfunctor.limit.tokens_enumerated": 0,
            "perlfp.probe.omega_totals": 0,
            "perlfp.probe.fragment_totals": 0,
            "oracles.cases": 0,
        }
        self._lub_args = set()
        self._lub_bases = {}
        self._probe_per = None
        self.originals = {}  # key -> original function
        self.installed = {}  # key -> wrapper

    # -- wrappers ---------------------------------------------------------

    def _fine(self, key, fn):
        stat = self.fine.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        push, pop, clock = stack.append, stack.pop, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
        return wrapper

    def _coarse(self, key, fn):
        """A fine boundary that also records a span per call."""
        timed = self._fine(key, fn)
        spans, open_spans = self.spans, self._open_spans
        name, clock = COARSE[key], self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock() - self.t0, None, open_spans[-1], self.request_id]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return timed(*args, **kwargs)
            finally:
                open_spans.pop()
                span[2] = clock() - self.t0
        return wrapper

    # -- counting hooks, applied inside the timing wrapper -----------------

    def _hooks(self):
        tracer, counters = self, self.counters

        def count_into(name, size):
            def hook(fn):
                def counted(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    counters[name] += size(result)
                    return result
                return counted
            return hook

        def related(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                if result is True:
                    counters["per.related.true"] += 1
                return result
            return counted

        def totals(fn):
            def counted(per, *args, **kwargs):
                result = fn(per, *args, **kwargs)
                counters["per.totals.enumerated"] += len(result[0])
                if per is tracer._probe_per:
                    counters["perlfp.probe.omega_totals"] += len(result[0])
                return result
            return counted

        def lub(fn):
            # materialise the argument once so it can be both keyed and passed
            # on; every caller iterates it a single time
            def recorded(basis, ts, *args, **kwargs):
                ts = tuple(ts)
                # the basis is held so that its id is never reused
                seen = tracer._lub_bases.setdefault(id(basis), (basis, len(tracer._lub_bases)))
                tracer._lub_args.add((seen[1], frozenset(t.key for t in ts)))
                return fn(basis, ts, *args, **kwargs)
            return recorded

        def probe(fn):
            # totals of the chain's omega-stage per, asked for inside the
            # probe, are the omega-totals it enumerates
            def scoped(chain, *args, **kwargs):
                saved = tracer._probe_per
                limit = getattr(chain, "per_limit", None)
                tracer._probe_per = limit.per if limit is not None else None
                try:
                    return fn(chain, *args, **kwargs)
                finally:
                    tracer._probe_per = saved
            return scoped

        return {
            "per.DomainPer.related": related,
            "per.DomainPer.totals": totals,
            "basis.FiniteBasis.lub": lub,
            "basis.FlatNatBasis.lub": lub,
            "perlfp._successor_fragment_totals": count_into(
                "perlfp.probe.fragment_totals", lambda r: len(r[0])
            ),
            "perlfp.stabilization_probe": probe,
            "spfunctor.LimitBasis.tokens": count_into(
                "spfunctor.limit.tokens_enumerated", len
            ),
            **{
                f"construct.{cls}.tokens": count_into(
                    "construct.tokens_enumerated", len
                )
                for cls in BUILT_BASES
            },
            **{
                key: count_into("oracles.cases", lambda r: r.cases)
                for key in COARSE
                if key.startswith("oracles.")
            },
        }

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every layer and rebind each wrapped function wherever a
        domania module namespace (or a module-level dict) holds it."""
        modules = {m: importlib.import_module(f"domania.{m}") for m in ALL_MODULES}
        hooks = self._hooks()
        for layer in LAYERS:
            for key, owner, attr, fn in _public_callables(modules[layer]):
                inner = hooks[key](fn) if key in hooks else fn
                timed = self._coarse if key in COARSE else self._fine
                wrapper = timed(key, inner)
                setattr(owner, attr, wrapper)
                self.originals[key] = fn
                self.installed[key] = wrapper
        by_id = {id(fn): self.installed[key] for key, fn in self.originals.items()}
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in by_id:
                    setattr(module, name, by_id[id(value)])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if id(v) in by_id:
                            value[k] = by_id[id(v)]
        return modules

    def unwrapped_references(self, modules):
        """Names in domania namespaces that still hold an original callable."""
        originals = {id(fn): key for key, fn in self.originals.items()}
        missed = []
        for mod_name, module in modules.items():
            for name, value in vars(module).items():
                if id(value) in originals:
                    missed.append(f"{mod_name}.{name}")
                elif type(value) is dict:
                    missed += [
                        f"{mod_name}.{name}[{k!r}]"
                        for k, v in value.items()
                        if id(v) in originals
                    ]
        return missed

    # -- results ----------------------------------------------------------

    def summary(self):
        # a span's self time is its duration minus the time its child spans
        # cover; spans are [name, start, end, parent, request_id, self_s]
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] != -1:
                covered[span[3]] += span[2] - span[1]
        return {
            "spans": [
                span + [span[2] - span[1] - c] for span, c in zip(self.spans, covered)
            ],
            "fine": self.fine,
            "counters": self.counters,
            "lub_distinct": len(self._lub_args),
        }



# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _outermost_span_seconds(spans):
    """Inclusive seconds per span name, counting a recursive span once."""
    out = {}
    for span in spans:
        name, parent = span[0], span[3]
        while parent != -1 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent == -1:
            out[name] = out.get(name, 0.0) + (span[2] - span[1])
    return out


def layer_metrics(summaries):
    """Per-layer figures of one pass, summed over its invocations; `import_s`
    is the median import time of one invocation."""
    fine, counters, span_s = {}, {}, {}
    lub_distinct = 0
    for doc in summaries:
        for key, (calls, incl, self_s) in doc["fine"].items():
            acc = fine.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, n in doc["counters"].items():
            counters[key] = counters.get(key, 0) + n
        for name, s in _outermost_span_seconds(doc["spans"]).items():
            span_s[name] = span_s.get(name, 0.0) + s
        lub_distinct += doc["lub_distinct"]

    def calls(*keys):
        return sum(fine.get(k, (0,))[0] for k in keys)

    def method_calls(layer, method):
        # the method on every class of the layer, e.g. basis.*.leq
        return sum(
            v[0] for k, v in fine.items()
            if k.startswith(layer + ".") and k.endswith("." + method)
            and k.count(".") == 2
        )

    def self_s(layer):
        return sum(v[2] for k, v in fine.items() if k.split(".", 1)[0] == layer)

    def ratio(num, den):
        return num / den if den else 0.0

    lub_calls = method_calls("basis", "lub")
    related = calls("per.DomainPer.related")
    out = {
        "basis.tok.calls": calls("basis.tok"),
        "basis.leq.calls": method_calls("basis", "leq"),
        "basis.cons.calls": method_calls("basis", "cons"),
        "basis.lub.calls": lub_calls,
        "basis.lub.distinct_ratio": ratio(lub_distinct, lub_calls),
        "basis.self_s": self_s("basis"),
        "construct.bases_built": calls(
            *(f"construct.{cls}.__init__" for cls in BUILT_BASES)
        ),
        "construct.fun.leq.calls": calls("construct.FunBasis.leq"),
        "construct.fun.cons.calls": calls("construct.FunBasis.cons"),
        "construct.fun.lub.calls": calls("construct.FunBasis.lub"),
        "construct.fun.apply.calls": calls("construct.FunBasis.apply"),
        "construct.tokens_enumerated": counters["construct.tokens_enumerated"],
        "construct.embedding.calls": calls(
            "construct.Embedding.fwd", "construct.Embedding.proj"
        ),
        "construct.self_s": self_s("construct"),
        "spfunctor.iso.calls": calls(
            "spfunctor.FixedPointIso.fwd", "spfunctor.FixedPointIso.inv"
        ),
        "spfunctor.limit.tokens_enumerated":
            counters["spfunctor.limit.tokens_enumerated"],
        "spfunctor.self_s": self_s("spfunctor"),
        "per.related.calls": related,
        "per.related.true_ratio": ratio(counters["per.related.true"], related),
        "per.totals.calls": calls("per.DomainPer.totals"),
        "per.totals.enumerated": counters["per.totals.enumerated"],
        "per.self_s": self_s("per"),
        "perlfp.probe.omega_totals": counters["perlfp.probe.omega_totals"],
        "perlfp.probe.fragment_totals": counters["perlfp.probe.fragment_totals"],
        "perlfp.self_s": self_s("perlfp"),
        "dense.member.calls": calls("dense.DeltaFamily.member"),
        "dense.retract.calls": calls("dense.DeltaFamily.retract"),
        "dense.self_s": self_s("dense"),
        "eta.theta.calls": calls("eta.EtaSystem.theta", "eta.EtaBarSystem.theta_bar"),
        "eta.build_tree.calls": calls("eta.EtaBarSystem.build_tree"),
        "eta.self_s": self_s("eta"),
        "qcb.standard_representation.calls": calls("qcb.standard_representation"),
        "qcb.self_s": self_s("qcb"),
        "cli.import_s": statistics.median(d["import_s"] for d in summaries),
        "cli.self_s": self_s("cli"),
        "oracles.cases": counters["oracles.cases"],
        "oracles.self_s": self_s("oracles"),
    }
    for span_name in sorted(set(COARSE.values()) - {"cli.run_command"}):
        out[span_name + ".s"] = span_s.get(span_name, 0.0)
    return out

"""Span tracing of randinf from outside the library.

:class:`Tracer` replaces each public function of every randinf module by a
wrapper, in every module namespace that holds a reference to it (so
``build_step_function`` is wrapped in ``cli``, ``combine`` and ``inversion``
alike, and calls between modules are seen).  A wrapper records a span --
name, layer (the defining module), parent span, request id, start and end --
and, at a few boundaries, counts of the work done.  Spans stay in memory
until :meth:`Tracer.write`.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "combine", "datasets", "design", "inversion", "mcplan",
          "randomization", "simulate", "statistics")

# counters that keep their largest value instead of a sum
_MAXIMA = {"design.matrix_mb_max"}

# private functions wrapped only to count work at their boundary
_PRIVATE = {"combine": ("_combine_matrix", "_mc_reference_cdf")}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_matrix(kind):
    def count(tracer, fn, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        rows, units = result.shape
        key = (kind, repr(a["design"])) + ((a["k"], repr(a["seed"])) if kind == "sample" else ())
        tracer.count("design.rows", rows)
        tracer.maximum("design.matrix_mb_max", rows * units * 8 / 1e6)
        tracer.distinct[key] = rows
    return count


def _count_eval(tracer, fn, args, kwargs, result):
    tracer.count("statistics.rows_evaluated", result.size)


def _count_step(tracer, fn, args, kwargs, result):
    tracer.count("inversion.step_calls", 1)
    tracer.count("inversion.breakpoints", result.breakpoints.size)


def _count_grid(tracer, fn, args, kwargs, result):
    tracer.count("combine.grid_points", result.size)


def _count_reference(tracer, fn, args, kwargs, result):
    tracer.count("combine.reference_cdf_builds", 1)


def _count_reps(tracer, fn, args, kwargs, result):
    tracer.count("simulate.reps", _bound(fn, args, kwargs)["config"].reps)


def _count_k(tracer, fn, args, kwargs, result):
    tracer.count("mcplan.k_planned", result)


COUNTERS = {
    "design.assignment_matrix": _count_matrix("enum"),
    "design.sample_assignments": _count_matrix("sample"),
    "statistics.evaluate_many": _count_eval,
    "statistics.evaluate_realized": _count_eval,
    "inversion.build_step_function": _count_step,
    "combine._combine_matrix": _count_grid,
    "combine._mc_reference_cdf": _count_reference,
    "simulate.run_scenario": _count_reps,
    "mcplan.required_k": _count_k,
}


class Tracer:
    """Wraps randinf's public functions and records spans while installed."""

    def __init__(self):
        self.spans = []  # [name, layer, parent, request, start, end]
        self.request = None
        self._stack = []
        self._counts = defaultdict(float)  # counts of the current request
        self.distinct = {}  # (design, mode) matrices of the current request
        self._request_counts = []
        self._patches = []

    # -- counters -----------------------------------------------------------

    def count(self, name, amount):
        self._counts[name] += amount

    def maximum(self, name, value):
        self._counts[name] = max(self._counts[name], value)

    def begin_request(self, request_id):
        self.request = request_id
        self._counts = defaultdict(float)
        self.distinct = {}

    def end_request(self):
        counts = dict(self._counts)
        counts["design.distinct_rows"] = sum(self.distinct.values())
        self._request_counts.append((self.request, counts))
        self.request = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        qual = f"{layer}.{name}"
        counter = COUNTERS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [qual, layer, parent, tracer.request, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every randinf module, everywhere it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"randinf.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", None) or
                         [n for n in vars(mod) if not n.startswith("_")])
            names += _PRIVATE.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod in [sys.modules["randinf"], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches = []

    # -- results --------------------------------------------------------------

    def layer_metrics(self, first_span: int, request_ids) -> dict:
        """Per-layer metrics over spans from ``first_span`` and the given requests."""
        spans = self.spans[first_span:]
        dur = [s[5] - s[4] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            if s[2] >= first_span:
                child[s[2] - first_span] += d
        by_name = defaultdict(float)
        incl = defaultdict(float)
        self_time = defaultdict(float)
        for s, d, c in zip(spans, dur, child):
            by_name[s[0]] += d
            self_time[s[1]] += d - c
            if s[2] < first_span or self.spans[s[2]][1] != s[1]:
                incl[s[1]] += d  # outermost span of its layer in this chain
        wanted = set(request_ids)
        counts = defaultdict(float)
        for rid, c in self._request_counts:
            if rid in wanted:
                for k, v in c.items():
                    counts[k] = max(counts[k], v) if k in _MAXIMA else counts[k] + v
        rows = counts["design.rows"]
        return {
            "design.enumerate_s": by_name["design.assignment_matrix"],
            "design.sample_s": by_name["design.sample_assignments"],
            "design.rows": rows,
            "design.matrix_mb_max": counts["design.matrix_mb_max"],
            "design.redraw_ratio": rows / counts["design.distinct_rows"] if rows else 0.0,
            "statistics.eval_s": incl["statistics"],
            "statistics.rows_evaluated": counts["statistics.rows_evaluated"],
            "statistics.evals_per_row": counts["statistics.rows_evaluated"] / rows if rows else 0.0,
            "randomization.s": incl["randomization"],
            "randomization.self_s": self_time["randomization"],
            "inversion.step_calls": counts["inversion.step_calls"],
            "inversion.step_s": by_name["inversion.build_step_function"],
            "inversion.self_s": self_time["inversion"],
            "inversion.breakpoints": counts["inversion.breakpoints"],
            "inversion.invert_s": by_name["inversion.invert_lower"] + by_name["inversion.invert_upper"],
            "combine.s": incl["combine"],
            "combine.self_s": self_time["combine"],
            "combine.grid_points": counts["combine.grid_points"],
            "combine.reference_cdf_builds": counts["combine.reference_cdf_builds"],
            "simulate.scenario_s": by_name["simulate.run_scenario"],
            "simulate.audit_s": by_name["simulate.exact_validity_audit"],
            "simulate.reps": counts["simulate.reps"],
            "cli.parse_s": sum(by_name[f"cli.{n}"] for n in
                               ("build_parser", "parse_design", "read_experiment")),
            "cli.self_s": self_time["cli"],
            "mcplan.k_planned": counts["mcplan.k_planned"],
        }

    def write(self, path) -> None:
        """Write every span as one JSON line: name, layer, parent, request, start, end."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

"""Per-layer spans and counters, recorded from outside the package.

`install` wraps the public functions of each module and rebinds every
name that refers to them in every loaded `confounders` module, because
several modules import functions by name (`from .adjust import ...`).
Methods are wrapped on their class, and a timing subclass of the kernel
is installed as `confounders.graph.BitDag`, so every Dag built afterwards
uses it; that works for the compiled `cdef class` too.

A span records CPU time (`time.process_time`). Its self time is its
duration minus the durations of the spans it encloses, so a layer's self
time is the sum over its spans. Functions with a metric of their own
always open a span; the rest open one only when called from another
layer, so a layer's internal calls cost no tracing.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("kernel", "graph", "adjust", "model", "classify", "properties", "selection", "fuzz", "formats")


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, layer, start, child time]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.repeats = Counter()
        self._seen = defaultdict(set)
        self._pins = {}  # keeps keyed objects alive so their ids stay unique

    def reset(self):
        """Forget everything recorded so far (in place: wrappers hold these)."""
        for table in (self.self_s, self.calls, self.counts, self.repeats, self._seen, self._pins):
            table.clear()

    # -- spans -----------------------------------------------------------

    def wrap(self, name, fn, own=True, key=None, after=None):
        """A traced stand-in for fn.

        own: always open a span (the function has metrics of its own);
        otherwise open one only when the caller is in another layer.
        key(args, kwargs) -> hashable: count repeats of that key.
        after(result, parent_name): record counts from the result.
        """
        layer = name.split(".", 1)[0]
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, time.process_time

        def traced(*args, **kwargs):
            if not own and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            calls[name] += 1
            if key is not None:
                self._note(name, key(args, kwargs))
            parent = stack[-1][0] if stack else None
            frame = [name, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                # unwind to this frame even if a deadline cut a child short
                while stack and stack.pop() is not frame:
                    pass
                duration = clock() - frame[2]
                self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
            if after is not None:
                after(result, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _note(self, name, key):
        seen = self._seen[name]
        if key in seen:
            self.repeats[name] += 1
        else:
            seen.add(key)

    def freeze(self, value):
        """Hashable form of an argument: identity for objects, contents for
        plain values and containers."""
        if value is None or isinstance(value, (str, int, float, Fraction)):
            return value
        if isinstance(value, (set, frozenset)):
            return frozenset(self.freeze(v) for v in value)
        if isinstance(value, (list, tuple)):
            return tuple(self.freeze(v) for v in value)
        if isinstance(value, dict):
            return frozenset((self.freeze(k), self.freeze(v)) for k, v in value.items())
        self._pins[id(value)] = value
        return ("id", id(value))

    def args_key(self, args, kwargs):
        return self.freeze(args), self.freeze(kwargs)

    # -- results ---------------------------------------------------------

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def metrics(self):
        c, s, n = self.calls, self.self_s, self.counts
        layer = self.layer_self()

        def ratio(part, whole):
            return part / whole if whole else 0.0

        witnesses = n["adjust.is_sufficient.witnesses"]
        return {
            "kernel.dsep.calls": (c["kernel.dsep"], "count"),
            "kernel.reachable.calls": (c["kernel.dsep"] + c["kernel.reachable"], "count"),
            "kernel.closure.calls": (c["kernel.closure"], "count"),
            "kernel.self_s": (layer["kernel"], "s"),
            "graph.dag_builds": (n["graph.builds"], "count"),
            "graph.enumerate_paths.calls": (c["graph.enumerate_paths"], "count"),
            "graph.enumerate_paths.paths": (n["graph.enumerate_paths.paths"], "count"),
            "graph.enumerate_paths.self_s": (s["graph.enumerate_paths"], "s"),
            "graph.is_blocked.calls": (c["graph.is_blocked"], "count"),
            "graph.is_blocked.self_s": (s["graph.is_blocked"], "s"),
            "graph.d_separated.calls": (c["graph.d_separated"], "count"),
            "graph.self_s": (layer["graph"], "s"),
            "adjust.is_sufficient.calls": (c["adjust.is_sufficient"], "count"),
            "adjust.is_sufficient.self_s": (s["adjust.is_sufficient"], "s"),
            "adjust.is_sufficient.witnesses": (witnesses, "count"),
            "adjust.witness_discard_ratio": (ratio(n["adjust.witness_discards"], witnesses), "ratio"),
            "adjust.backdoor_paths.calls": (c["adjust.backdoor_paths"], "count"),
            "adjust.backdoor_paths.repeat_ratio": (
                ratio(self.repeats["adjust.backdoor_paths"], c["adjust.backdoor_paths"]), "ratio"),
            "adjust.minimal_sufficient_sets.calls": (c["adjust.minimal_sufficient_sets"], "count"),
            "adjust.minimal_sufficient_sets.self_s": (s["adjust.minimal_sufficient_sets"], "s"),
            "adjust.minimal_sufficient_sets.repeat_ratio": (
                ratio(self.repeats["adjust.minimal_sufficient_sets"], c["adjust.minimal_sufficient_sets"]),
                "ratio"),
            "adjust.self_s": (layer["adjust"], "s"),
            "model.builds": (n["model.builds"], "count"),
            "model.build.self_s": (s["model.build"], "s"),
            "model.probability.calls": (c["model.probability"], "count"),
            "model.probability.self_s": (s["model.probability"], "s"),
            "model.probability.repeat_ratio": (
                ratio(self.repeats["model.probability"], c["model.probability"]), "ratio"),
            "model.standardized_rd.calls": (c["model.standardized_rd"], "count"),
            "model.standardized_rd.self_s": (s["model.standardized_rd"], "s"),
            "model.standardized_rd.repeat_ratio": (
                ratio(self.repeats["model.standardized_rd"], c["model.standardized_rd"]), "ratio"),
            "model.ci_test.self_s": (s["model.ci_test"], "s"),
            "model.cf_joint.self_s": (s["model.cf_joint"], "s"),
            "model.cf_independent.self_s": (s["model.cf_independent"], "s"),
            "model.self_s": (layer["model"], "s"),
            "classify.variable.calls": (c["classify.variable"], "count"),
            "classify.self_s": (layer["classify"], "s"),
            "properties.distinguishing_context.calls": (c["properties.distinguishing_context"], "count"),
            "properties.self_s": (layer["properties"], "s"),
            "selection.self_s": (layer["selection"], "s"),
            "fuzz.generate.self_s": (s["fuzz.generate"], "s"),
            "formats.parse.self_s": (s["formats.parse"], "s"),
        }


# ---------------------------------------------------------------------------


def _kernel_class(tracer, base):
    """Timing subclass of the kernel. Only calls from outside the kernel
    are counted, so the pure kernel's internal `self.reachable` and
    closure calls count the same as the compiled kernel's C calls."""
    wrap = tracer.wrap

    class TracedBitDag(base):
        __slots__ = ()

    for attr, name in (
        ("__init__", "kernel.build"),
        ("dsep", "kernel.dsep"),
        ("reachable", "kernel.reachable"),
        ("closure_up", "kernel.closure"),
        ("closure_down", "kernel.closure"),
        ("ancestors", "kernel.closure"),
        ("descendants", "kernel.closure"),
    ):
        if hasattr(base, attr):
            setattr(TracedBitDag, attr, wrap(name, getattr(base, attr), own=False))
    return TracedBitDag


def install(tracer):
    """Wrap every traced function of the imported package. A name the
    package no longer has is skipped, so its metrics read 0; returns the
    skipped names."""
    mods = {
        name: importlib.import_module(f"confounders.{name}")
        for name in ("graph", "adjust", "classify", "properties", "selection", "model", "formats", "fuzz")
    }
    g, adj, cls, props, sel, mdl, fmt, fz = (mods[k] for k in (
        "graph", "adjust", "classify", "properties", "selection", "model", "formats", "fuzz"))
    wrap, counts, key = tracer.wrap, tracer.counts, tracer.args_key
    functions = {}
    missing = []

    def function(module, attr, name, **options):
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        functions[id(original)] = (original, wrap(name, original, **options))

    def method(owner, attr, name, **options):
        original = owner.__dict__.get(attr)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
        elif isinstance(original, property):
            setattr(owner, attr, property(wrap(name, original.fget, **options)))
        else:
            setattr(owner, attr, wrap(name, original, **options))

    def count(counter):
        def after(_result, _parent):
            counts[counter] += 1
        return after

    # graph
    def paths_after(result, _parent):
        counts["graph.enumerate_paths.paths"] += len(result)

    function(g, "enumerate_paths", "graph.enumerate_paths", after=paths_after)
    function(g, "is_blocked", "graph.is_blocked")
    function(g, "d_separated", "graph.d_separated")
    for attr in ("relatives", "subgraph_restrict", "remove_into", "build_dag"):
        function(g, attr, f"graph.{attr}", own=False)
    method(g.Graph, "__init__", "graph.build", after=count("graph.builds"))
    for attr in ("ancestors", "descendants", "nondescendants", "parents", "children", "adjacent",
                 "subgraph", "without_edges_into", "without_edges_from"):
        method(g.Graph, attr, f"graph.{attr}", own=False)
    for attr in ("__init__", "covariate_pool", "without_exposure_out_edges", "subgraph", "without_edges_into"):
        method(g.Dag, attr, f"graph.dag_{attr.strip('_')}", own=False)
    g.BitDag = _kernel_class(tracer, g.BitDag)

    # adjust
    def sufficient_after(verdict, parent):
        if not verdict.sufficient:
            counts["adjust.is_sufficient.witnesses"] += 1
            if parent == "properties.distinguishing_context":
                counts["adjust.witness_discards"] += 1

    function(adj, "is_sufficient", "adjust.is_sufficient", after=sufficient_after)
    function(adj, "backdoor_paths", "adjust.backdoor_paths", key=key)
    function(adj, "minimal_sufficient_sets", "adjust.minimal_sufficient_sets", key=key)
    function(adj, "union_of_minimal", "adjust.union_of_minimal", own=False)
    function(adj, "_sufficient", "adjust.sufficient_test", own=False)

    # classify, properties, selection
    function(cls, "classify_variable", "classify.variable")
    for attr in ("classify_d1_graphical", "classify_d1_numeric", "classify_d2", "classify_d3", "classify_d4",
                 "classify_d5", "classify_d6", "surrogate_confounder", "conditional_confounder",
                 "check_implications", "dashed_observations"):
        function(cls, attr, f"classify.{attr}", own=False)
    function(props, "distinguishing_context", "properties.distinguishing_context")
    for attr in ("positive_covariates", "check_property1", "check_property2a", "check_property2b"):
        function(props, attr, f"properties.{attr}", own=False)
    for attr in ("robins_reduction", "backward_select", "forward_select"):
        function(sel, attr, f"selection.{attr}", own=False)
    method(sel.IndependenceOracle, "independent", "selection.oracle", own=False)

    # model: methods on the classes, so the module aliases are covered too
    model_cls = mdl.DiscreteModel
    method(model_cls, "__init__", "model.build", after=count("model.builds"))
    method(model_cls, "_joint_items", "model.build")
    method(model_cls, "probability", "model.probability", key=key)
    method(model_cls, "standardized_rd", "model.standardized_rd", key=key)
    method(model_cls, "ci_test", "model.ci_test")
    method(model_cls, "cf_joint", "model.cf_joint")
    for attr in ("joint_probability", "cond_probability", "cond_expectation", "intervene", "ace", "bias",
                 "cf_unconfounded"):
        method(model_cls, attr, f"model.{attr}", own=False)
    method(mdl.CounterfactualJoint, "independent_given", "model.cf_independent")
    for attr in ("total", "marginal_y", "mean_y"):
        method(mdl.CounterfactualJoint, attr, f"model.cf_{attr}", own=False)

    # fuzz and formats
    function(fz, "fuzz", "fuzz.run", own=False)
    function(fz, "random_dag", "fuzz.generate")
    function(fz, "random_model", "fuzz.generate")
    function(fmt, "parse_graph", "formats.parse")
    function(fmt, "parse_model", "formats.parse")

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "confounders" and not mod_name.startswith("confounders."):
            continue
        for attr, value in list(vars(module).items()):
            hit = functions.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return missing

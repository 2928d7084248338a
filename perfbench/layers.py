"""Which library functions a traced run wraps, and the per-layer metrics
computed from the spans and counters they record."""

from __future__ import annotations

import importlib
from collections import defaultdict

# (layer module, function); "Class.method" names a classmethod
WRAPPED = (
    ("ordinals", "parse_ordinal"),
    ("ordinals", "format_ordinal"),
    ("engine", "iterate_steps"),
    ("engine", "rank_closed_form"),
    ("cbspaces", "cb_derivative"),
    ("cbspaces", "succ_expansion"),
    ("relations", "CellRelation.from_pairs"),
    ("relations", "equiv_closure"),
    ("relations", "gamma_tower_iterate"),
    ("subshift", "build_graph"),
    ("subshift", "count_words"),
    ("subshift", "enumerate_words"),
    ("subshift", "entropy_spectral"),
    ("subshift", "realizable"),
    ("subshift", "is_independent"),
    ("subshift", "independence_status"),
    ("subshift", "entropy_rank_report"),
    ("certificates", "make_certificate"),
    ("certificates", "verify_lower_bound"),
    ("certificates", "verify_exact_rank"),
    ("cli", "run"),
    ("cli", "load_instance"),
    ("cli", "emit_report"),
)


def span_name(module: str, func: str) -> str:
    return f"{module}.{func.split('.')[-1]}"


class LayerCounters:
    """Result hooks: the work counters that a call count alone misses."""

    def __init__(self, tracer, subshift):
        self.c = tracer.counters
        self.subshift = subshift
        self.build_graph = subshift.build_graph
        info = getattr(self.build_graph, "cache_info", None)
        self._misses = info().misses if info else 0

    def hooks(self) -> dict:
        return {
            "subshift.build_graph": self.after_build_graph,
            "subshift.realizable": self.truth("subshift.realizable"),
            "subshift.is_independent": self.truth("subshift.is_independent"),
            "subshift.independence_status": self.after_status,
            "subshift.entropy_spectral": self.after_spectral,
            "engine.iterate_steps": self.after_iterate,
            "engine.rank_closed_form": self.after_closed_form,
        }

    def after_build_graph(self, graph, exc, args):
        info = getattr(self.build_graph, "cache_info", None)
        misses = info().misses if info else self._misses + 1
        if misses > self._misses and graph is not None:
            self.c["subshift.build_graph.misses"] += misses - self._misses
            self.c["subshift.build_graph.states"] += len(graph.states)
            self.c["subshift.build_graph.edges"] += sum(len(e) for e in graph.edges)
        self._misses = misses

    def truth(self, name):
        def after(result, exc, args):
            if exc is None and result:
                self.c[name + ".true"] += 1
        return after

    def after_status(self, result, exc, args):
        if exc is None:
            self.c[f"subshift.independence_status.{result[0]}"] += 1

    def after_spectral(self, result, exc, args):
        if isinstance(exc, self.subshift.SpectralToleranceError):
            self.c["subshift.entropy_spectral.unconverged"] += 1

    def after_iterate(self, trace, exc, args):
        if exc is None:
            self.c["engine.iterate_steps.steps"] += len(trace.stages)

    def after_closed_form(self, result, exc, args):
        if exc is None and result.verified:
            self.c["engine.rank_closed_form.verified"] += 1


def install(tracer) -> None:
    """Wrap every function in WRAPPED; a missing name raises, so a rename in
    the library stops the traced run instead of reading as zero calls."""
    hooks = LayerCounters(tracer, importlib.import_module("ordrank.subshift")).hooks()
    for module, func in WRAPPED:
        name = span_name(module, func)
        owner, _, attr = func.rpartition(".")
        mod = importlib.import_module(f"ordrank.{module}")
        if owner:
            tracer.wrap_classmethod(name, getattr(mod, owner), attr, hooks.get(name))
        else:
            tracer.wrap_function(name, mod, attr, hooks.get(name))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(tracer) -> dict[str, float]:
    """Per-layer metrics by name; BENCHMARK.json gives their units."""
    calls, self_s, c = tracer.calls, tracer.self_s, defaultdict(float, tracer.counters)
    out: dict[str, float] = {}
    for module, func in WRAPPED:
        name = span_name(module, func)
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0)
    for key in ("misses", "states", "edges"):
        out[f"subshift.build_graph.{key}"] = c[f"subshift.build_graph.{key}"]
    for name in ("subshift.realizable", "subshift.is_independent"):
        out[f"{name}.true_ratio"] = _ratio(c[name + ".true"], calls.get(name, 0))
    for key in ("subshift.independence_status.certified",
                "subshift.independence_status.refuted",
                "subshift.independence_status.unknown",
                "subshift.entropy_spectral.unconverged",
                "engine.iterate_steps.steps"):
        out[key] = c[key]
    out["engine.rank_closed_form.verified_ratio"] = _ratio(
        c["engine.rank_closed_form.verified"], calls.get("engine.rank_closed_form", 0))
    return out

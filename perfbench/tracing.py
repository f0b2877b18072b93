"""Spans around every public function of the ``doubling`` package.

The traced run rebinds each public function in every module namespace that
holds it, including names re-bound by ``from .x import y``, so a call is
recorded whichever module it goes through. Functions that run 10^4-10^6
times per op (``HOT``) are not given a span per call: their calls and time
are summed under the span that called them. Everything stays in memory; the
worker writes it out when the run ends.

A layer is a module of the package. A span's self time is its duration
minus the time of the calls it made to other wrapped functions.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from dataclasses import asdict, dataclass, field

HOT = frozenset({
    "cover.greedy_ball_cover",
    "cover.greedy_packing",
    "cover.min_ball_cover",
    "cover.min_cover_bitmask",
    "closure.conv_distance",
    "closure.conv_geodesic_point",
    "metric.shortest_path_metric",
    "net_tree.istar",
    "net_tree.level_ancestor_label",
})

# Methods are wrapped only where a per-layer metric needs them.
METHODS = {"report": {"RunReport": ("render_text", "hashable_text", "save")}}

MAX_SPANS = 200_000  # a function this busy belongs in HOT


@dataclass
class Span:
    id: int
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)
    hot: dict = field(default_factory=dict)  # name -> [calls, total_s, self_s, counters]


def _apsp(tracer, args, result, dt):
    # the graph caches its metric: a result seen before in this run is a cache hit
    if id(result) in tracer.seen_metrics:
        return {}
    tracer.seen_metrics[id(result)] = result
    return {"metric.apsp_calls": 1, "metric.apsp_vertices": result.n, "metric.apsp_s": dt}


COUNTERS = {
    "metric.shortest_path_metric": _apsp,
    "metric.verify_stretch": lambda t, a, r, dt: {"metric.stretch_pairs": a[0].n * (a[0].n - 1) // 2},
    "metric.doubling_estimate": lambda t, a, r, dt: {"metric.estimate_points": a[0].n},
    "cover.min_ball_cover": lambda t, a, r, dt: {"cover.exact_aborted": int(r[2])},
    "net_tree.build_net_tree": lambda t, a, r, dt: {"net_tree.levels": r.top_level + 1},
    "spanner.build_base_edge_sets": lambda t, a, r, dt: {"spanner.candidate_edges": sum(map(len, r))},
    "spanner.donate_edges": lambda t, a, r, dt: {
        "spanner.donated_edges": sum(e.donor is not None for e in r.edges)
    },
    "closure.long_edge_audit": lambda t, a, r, dt: {"closure.audit_edges": len(a[0].edges)},
    "closure.sample_metric": lambda t, a, r, dt: {"closure.sample_points": r.n},
    "completion.complete_tree": lambda t, a, r, dt: {"completion.output_vertices": r.output.n_vertices},
}


class Tracer:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[list[float]] = []  # child time of each open call
        self.span_stack: list[Span] = []
        self.seen_metrics: dict[int, object] = {}

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        if len(self.spans) >= MAX_SPANS:
            raise RuntimeError(f"more than {MAX_SPANS} spans; {name} should be summed as HOT")
        parent = self.span_stack[-1].id if self.span_stack else -1
        span = Span(len(self.spans), name, parent, start=time.perf_counter())
        self.spans.append(span)
        self.span_stack.append(span)
        self.stack.append([0.0])
        return span

    def close(self, span: Span) -> float:
        span.end = time.perf_counter()
        child = self.stack.pop()[0]
        self.span_stack.pop()
        dt = span.end - span.start
        span.self_s = dt - child
        if self.stack:
            self.stack[-1][0] += dt
        return dt

    def call(self, name: str, fn, args, kwargs):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = self.close(span)
        hook = COUNTERS.get(name)
        if hook is not None:
            _add(span.counters, hook(self, args, result, dt))
        return result

    def call_hot(self, name: str, fn, args, kwargs):
        frame = [0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += dt
        agg = self.span_stack[-1].hot.get(name)
        if agg is None:
            agg = self.span_stack[-1].hot[name] = [0, 0.0, 0.0, {}]
        agg[0] += 1
        agg[1] += dt
        agg[2] += dt - frame[0]
        hook = COUNTERS.get(name)
        if hook is not None:
            _add(agg[3], hook(self, args, result, dt))
        return result

    # -- reading ------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
            for name, agg in span.hot.items():
                out[name] = out.get(name, 0) + agg[0]
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _add(into: dict, values: dict) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn):
    call = tracer.call_hot if name in HOT else tracer.call

    def wrapper(*args, **kwargs):
        return call(name, fn, args, kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _public_functions(module):
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__.startswith("doubling.") and not attr.startswith("_"):
            yield attr, obj


def layer_modules(package) -> list:
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class Installation:
    """Rebinds every public function of the package to a tracing wrapper."""

    def __init__(self, tracer: Tracer, package) -> None:
        self.undo: list[tuple[object, str, object]] = []
        wrappers: dict[object, object] = {}
        for module in [package, *layer_modules(package)]:
            for attr, fn in list(_public_functions(module)):
                if fn not in wrappers:
                    name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                    wrappers[fn] = _wrap(tracer, name, fn)
                self.undo.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        for mod_name, classes in METHODS.items():
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
            for cls_name, methods in classes.items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self.undo.append((cls, meth, fn))
                    setattr(cls, meth, _wrap(tracer, f"{mod_name}.{cls_name}.{meth}", fn))
        escaped = [
            f"{module.__name__}.{attr}"
            for module in [package, *layer_modules(package)]
            for attr, _ in _public_functions(module)
        ]
        if escaped:
            raise RuntimeError(f"not wrapped: {', '.join(escaped)}")

    def remove(self) -> None:
        for owner, attr, fn in reversed(self.undo):
            setattr(owner, attr, fn)
        self.undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> functions whose outermost calls' inclusive time it sums
SPAN_TIMES = {
    "metric.stretch_s": {"metric.verify_stretch"},
    "metric.estimate_s": {"metric.doubling_estimate"},
    "metric.packing_s": {"metric.packing_lower_bound"},
    "metric.load_s": {"metric.load_metric", "metric.load_graph"},
    "metric.greedy_net_s": {"metric.greedy_net"},
    "net_tree.build_s": {"net_tree.build_net_tree"},
    "spanner.candidates_s": {"spanner.build_base_edge_sets"},
    "spanner.directions_s": {"spanner.assign_directions"},
    "spanner.donate_s": {"spanner.donate_edges"},
    "spanner.build_s": {"spanner.build_spanner"},
    "closure.audit_s": {"closure.long_edge_audit"},
    "closure.sample_metric_s": {"closure.sample_metric"},
    "closure.sampled_dim_s": {"closure.sampled_conv_dimension"},
    "completion.complete_s": {"completion.complete_tree"},
    "completion.verify_s": {"completion.verify_completion"},
    "instances.gen_s": {
        "instances.random_euclidean",
        "instances.random_tree",
        "instances.exponential_star",
        "instances.lcp_metric",
    },
    "instances.lcp_packing_s": {"instances.crossing_midpoint_packing"},
    "instances.crossing_check_s": {"instances.lcp_crossing_check"},
    "instances.star_certificate_s": {"instances.star_lb_certificate"},
    "report.render_s": {
        "report.RunReport.render_text",
        "report.RunReport.hashable_text",
        "report.emit_plot_data",
    },
    "report.save_s": {
        "report.RunReport.save",
        "spanner.save_spanner",
        "completion.save_completion",
        "metric.save_metric",
        "metric.save_graph",
        "net_tree.save_net_tree",
    },
    "cli.run_s": {"cli.run"},
}

# metric -> (HOT function, 0 for calls / 1 for total seconds)
HOT_FIGURES = {
    "cover.greedy_cover_calls": ("cover.greedy_ball_cover", 0),
    "cover.greedy_cover_s": ("cover.greedy_ball_cover", 1),
    "cover.greedy_packing_calls": ("cover.greedy_packing", 0),
    "cover.greedy_packing_s": ("cover.greedy_packing", 1),
    "cover.exact_calls": ("cover.min_ball_cover", 0),
    "cover.exact_s": ("cover.min_ball_cover", 1),
    "closure.conv_distance_calls": ("closure.conv_distance", 0),
    "closure.conv_distance_s": ("closure.conv_distance", 1),
    "closure.geodesic_calls": ("closure.conv_geodesic_point", 0),
    "closure.geodesic_s": ("closure.conv_geodesic_point", 1),
}

SPAN_CALLS = {"metric.greedy_net_calls": "metric.greedy_net"}

COUNTER_FIGURES = (
    "metric.apsp_s",
    "metric.apsp_calls",
    "metric.apsp_vertices",
    "metric.stretch_pairs",
    "metric.estimate_points",
    "net_tree.levels",
    "spanner.candidate_edges",
    "spanner.donated_edges",
    "closure.audit_edges",
    "closure.sample_points",
    "completion.output_vertices",
)


LAYERS = ("metric", "cover", "net_tree", "spanner", "completion", "closure", "instances", "report", "cli")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def figures(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics and per-layer self times of one traced iteration."""
    by_id = {s.id: s for s in tracer.spans}
    out: dict[str, float] = {key: 0.0 for key in SPAN_TIMES}
    out.update({key: 0 for key in (*HOT_FIGURES, *SPAN_CALLS, *COUNTER_FIGURES)})
    counters: dict[str, float] = {}
    self_by_layer: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        layer = layer_of(span.name)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + span.self_s
        _add(counters, span.counters)
        for key, names in SPAN_TIMES.items():
            if span.name in names and not _inside(span, names, by_id):
                out[key] += span.end - span.start
        for key, name in SPAN_CALLS.items():
            if span.name == name:
                out[key] += 1
        for name, (calls, total, self_s, hot_counters) in span.hot.items():
            hot_layer = layer_of(name)
            self_by_layer[hot_layer] = self_by_layer.get(hot_layer, 0.0) + self_s
            _add(counters, hot_counters)
            for key, (fig_name, idx) in HOT_FIGURES.items():
                if fig_name == name:
                    out[key] += calls if idx == 0 else total
    for key in COUNTER_FIGURES:
        out[key] = counters.get(key, 0)
    exact_aborted = counters.get("cover.exact_aborted", 0)
    out["cover.exact_aborted_ratio"] = exact_aborted / out["cover.exact_calls"] if out["cover.exact_calls"] else 0.0
    for layer, value in self_by_layer.items():
        out[f"{layer}.self_s"] = value
    return out


def _inside(span: Span, names: set, by_id: dict) -> bool:
    parent = span.parent
    while parent >= 0:
        ancestor = by_id[parent]
        if ancestor.name in names:
            return True
        parent = ancestor.parent
    return False

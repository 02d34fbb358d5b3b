"""Per-layer tracing for the benchmark's traced passes.

Wrappers are installed on module and class attributes of the package, so
the package source is never edited. The package calls across modules
through module attributes (`selector.minimax_grid`, `frontmod.analyze`,
...) and within a module through its globals, so one attribute swap
catches every call. A wrapped call records its inclusive time and its self
time (inclusive minus the time of wrapped calls beneath it). Self time is
also summed per layer, the module the span belongs to. Hooks turn call
arguments and return values into exact work counters.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

LAYERS = ("expr", "characteristics", "front", "morse1d", "selector",
          "viscosity", "singular", "svg", "cli")


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _rk4_substeps(times, step):
    """Uniform RK4 substeps `characteristics._rk4_span` takes over `times`."""
    n, t_prev = 0, 0.0
    for t in times:
        if t != t_prev:
            n += max(1, math.ceil((t - t_prev) / step - 1e-12))
        t_prev = t
    return n


def _on_evolve_states(tr, args, kwargs, result, ok):
    spec = _arg(args, kwargs, 0, "spec")
    times = list(_arg(args, kwargs, 1, "times"))
    seeds = _arg(args, kwargs, 2, "seeds")
    step = _arg(args, kwargs, 3, "step") or spec.default_step()
    tr.counts["characteristics.seed_steps"] += len(seeds) * _rk4_substeps(times, step)


def _on_evolve(tr, args, kwargs, result, ok):
    # a slice flowed again under minimax_grid is a slice redone at t+eps
    if any(name == "selector.minimax_grid" for name, _ in tr.stack):
        tr.counts["selector.slice_redo"] += 1


def _on_fiber_points(tr, args, kwargs, result, ok):
    tr.counts["selector.fiber_vertices_scanned"] += len(_arg(args, kwargs, 0, "analysis").front)


def _on_is_vanishing(tr, args, kwargs, result, ok):
    # work the rule asks for: every outside vertex against every loop edge
    f = _arg(args, kwargs, 0, "f")
    T = _arg(args, kwargs, 1, "T")
    outside = len(f) - (T.end_seg - T.start_seg)
    tr.counts["front.pip_tests"] += outside
    tr.counts["front.pip_edge_visits"] += outside * (T.end_seg - T.start_seg + 1)


def _on_eliminate(tr, args, kwargs, result, ok):
    if ok:
        log = result[1]
        tr.counts["selector.eliminate.surgeries"] += len(log)
        tr.counts["selector.eliminate.nonstrict"] += sum(not s.strict for s in log)


def _on_classify(tr, args, kwargs, result, ok):
    if ok:
        tr.counts["singular.events"] += len(result)


COUNTERS = ("characteristics.seed_steps", "front.pip_tests", "front.pip_edge_visits",
            "selector.fiber_vertices_scanned", "selector.slice_redo",
            "selector.eliminate.surgeries", "selector.eliminate.nonstrict",
            "singular.events")

# (module, attribute path, span name, hook)
SPANS = (
    ("expr", "Expression.eval", "expr.eval", None),
    ("expr", "Expression.eval_d", "expr.eval_d", None),
    ("characteristics", "evolve_states", "characteristics.evolve_states", _on_evolve_states),
    ("characteristics", "evolve", "characteristics.evolve", _on_evolve),
    ("front", "FrontCurve.bbox_scale", "front.bbox_scale", None),
    ("front", "build_front", "front.build_front", None),
    ("front", "detect_cusps", "front.detect_cusps", None),
    ("front", "split_sections", "front.split_sections", None),
    ("front", "double_points", "front.double_points", None),
    ("front", "find_triangles", "front.find_triangles", None),
    ("front", "analyze", "front.analyze", None),
    ("front", "is_vanishing", "front.is_vanishing", _on_is_vanishing),
    ("front", "default_ball_radius", "front.default_ball_radius", None),
    ("front", "remove_triangle", "front.remove_triangle", None),
    ("front", "front_to_json", "front.front_to_json", None),
    ("morse1d", "couple", "morse1d.couple", None),
    ("selector", "fiber_points", "selector.fiber_points", _on_fiber_points),
    ("selector", "decompose", "selector.decompose", None),
    ("selector", "triangle_is_coupled", "selector.triangle_is_coupled", None),
    ("selector", "eliminate", "selector.eliminate", _on_eliminate),
    ("selector", "default_seeds", "selector.default_seeds", None),
    ("selector", "trim_long", "selector.trim_long", None),
    ("selector", "slice_analysis", "selector.slice_analysis", None),
    ("selector", "minimax_grid", "selector.minimax_grid", None),
    ("selector", "GridSolution.to_csv", "selector.to_csv", None),
    ("viscosity", "is_convex_in_p", "viscosity.is_convex_in_p", None),
    ("viscosity", "_LegendreTable.__init__", "viscosity.legendre_table", None),
    ("viscosity", "lax_oleinik_grid", "viscosity.lax_oleinik_grid", None),
    ("viscosity", "lax_friedrichs", "viscosity.lax_friedrichs", None),
    ("singular", "singular_set", "singular.singular_set", None),
    ("singular", "classify", "singular.classify", _on_classify),
    ("singular", "forbidden_report", "singular.forbidden_report", None),
    ("singular", "events_to_json", "singular.events_to_json", None),
    ("svg", "render_front", "svg.render_front", None),
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "cmd_compare", "cli.cmd_compare", None),
    ("cli", "cmd_classify", "cli.cmd_classify", None),
    ("cli", "cmd_render", "cli.cmd_render", None),
    ("cli", "cmd_dump_front", "cli.cmd_dump_front", None),
)


class Tracer:
    """Spans and counters of one traced pass; off until `enabled` is set.
    `clock()` returns the time in seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.enabled = False
        self.stack = []                    # [span name, time of wrapped callees]
        self.calls = Counter()
        self.errors = Counter()
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.counts = Counter()

    def install(self, package):
        """Wrap every attribute in SPANS on the imported package."""
        for module, path, name, hook in SPANS:
            owner = getattr(package, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, module, hook))

    def _wrap(self, fn, name, layer, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            ok, result = False, None
            t0 = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = tracer.clock() - t0
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                own = dt - frame[1]
                tracer.calls[name] += 1
                tracer.errors[name] += not ok
                tracer.incl_s[name] += dt
                tracer.self_s[name] += own
                tracer.layer_self_s[layer] += own
                if hook is not None:
                    hook(tracer, args, kwargs, result, ok)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def snapshot(self):
        """Plain-JSON record of the pass: times in seconds, counts exact."""
        names = [span[2] for span in SPANS]
        return {
            "calls": {n: self.calls[n] for n in names},
            "errors": {n: self.errors[n] for n in names},
            "incl_s": {n: self.incl_s[n] for n in names},
            "self_s": {n: self.self_s[n] for n in names},
            "layer_self_s": {layer: self.layer_self_s[layer] for layer in LAYERS},
            "counts": {c: self.counts[c] for c in COUNTERS},
        }

"""Layer tracing installed from outside the program.

`install` wraps every public function of every bkgeom layer module and
rebinds each name a bkgeom module imported by value (`cone.riemann`,
`sasaki.riemann`, `bkgeom.classify`, ...), so every call into a layer opens
a span.  `ChartMetric.at` gets a count-and-time hook instead of a span:
`riemann` at chart dimension 8 evaluates the metric about 290 times, and
calls made inside a metric evaluation are counted but open no span.  The
hook's time is attributed to the module that built the chart and stays
inside the self time of the span that asked for the evaluation.

Spans are (name, start, end, parent, check id, units) tuples kept in memory;
`aggregate` turns them into the per-layer metrics.  A span's self time is
its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("hermitian", "grading", "orbits", "curvature", "cone", "sasaki", "tower",
          "fdgeom", "jsonio", "cli", "selftest")


def _riemann_tag(args, kwargs):
    return f"d{args[0].dim}", 1


def _fit_rho_tag(args, kwargs):
    return f"n{args[0].n}", 1


def _prop_tag(args, kwargs):
    model = args[0]
    pts = args[1] if len(args) > 1 else kwargs.get("sample_points", 6)
    return f"d{2 * (model.n - 1)}", pts if isinstance(pts, int) else len(pts)


def _tower_tag(args, kwargs):
    return "", args[2] if len(args) > 2 else kwargs.get("samples", 3)


# spans of these functions carry a size tag and a unit count (points, samples)
TAGGERS = {
    "fdgeom.riemann": _riemann_tag,
    "curvature.fit_rho": _fit_rho_tag,
    "cone.verify_curvature_prop": _prop_tag,
    "tower.verify_tower_geodesic": _tower_tag,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        """Drop everything recorded so far (after warm-up); names stay interned."""
        self.spans: list = []
        self.stack: list[tuple[int, str]] = []   # open spans: (index, layer)
        self.calls: Counter = Counter()
        self.chart_calls: Counter = Counter()
        self.chart_time: defaultdict = defaultdict(float)
        self.refusals: Counter = Counter()
        self.quiet = 0
        self.check = -1

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "calls": dict(self.calls),
                "chart_calls": dict(self.chart_calls), "chart_time": dict(self.chart_time),
                "refusals": dict(self.refusals)}


def _wrap(tracer: Tracer, name: str, fn, refusal_types):
    layer = name.split(".", 1)[0]
    tagger = TAGGERS.get(name)
    plain_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        if tracer.quiet:
            return fn(*args, **kwargs)
        if tagger is None:
            nid, units = plain_id, 1
        else:
            tag, units = tagger(args, kwargs)
            nid = tracer.name_id(f"{name}.{tag}" if tag else name)
        stack, spans = tracer.stack, tracer.spans
        parent, parent_layer = stack[-1] if stack else (-1, None)
        idx = len(spans)
        spans.append(None)
        stack.append((idx, layer))
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except refusal_types as exc:
            if parent_layer != layer:   # count once, where it leaves the layer
                tracer.refusals[f"{layer}.{type(exc).__name__}"] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (nid, t0, t1, parent, tracer.check, units)

    return wrapper


def _patch_chart_at(tracer: Tracer, fdgeom):
    cls = fdgeom.ChartMetric
    orig = cls.at

    def at(self, p):
        owner = self.eval.__module__.rsplit(".", 1)[-1]
        tracer.quiet += 1
        t0 = perf_counter()
        try:
            return orig(self, p)
        finally:
            tracer.chart_time[owner] += perf_counter() - t0
            tracer.chart_calls[owner] += 1
            tracer.quiet -= 1

    cls.at = at
    return lambda: setattr(cls, "at", orig)


def install(tracer: Tracer):
    """Wrap the layers; returns a function that undoes every rebinding."""
    mods = {layer: importlib.import_module(f"bkgeom.{layer}") for layer in LAYERS}
    pkg = sys.modules["bkgeom"]
    refusal_types = (mods["orbits"].IllConditionedError, mods["cone"].ChartFailureError)
    wrappers = {}
    for layer, mod in mods.items():
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                wrappers[fn] = _wrap(tracer, f"{layer}.{attr}", fn, refusal_types)
    undo = []
    for mod in [pkg, *mods.values()]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))
    restore_at = _patch_chart_at(tracer, mods["fdgeom"])

    def restore():
        for mod, attr, value in undo:
            setattr(mod, attr, value)
        restore_at()

    return restore


# -- aggregation ---------------------------------------------------------------


def _function_of(name: str) -> str:
    """'fdgeom.riemann' from the tagged span name 'fdgeom.riemann.d6'."""
    return ".".join(name.split(".")[:2])


def aggregate(dumps: list[dict], checks: int, wall_s: float, extra: dict) -> tuple[dict, list]:
    """Per-layer metrics from one or more tracer dumps.

    Returns (metrics, entries): metrics maps a per-layer metric name to its
    value; entries lists (function, self ms) for boundary entries, where
    calls within one layer are folded into the outermost call of that layer.
    """
    layer_self = defaultdict(float)
    layer_calls = Counter()
    fn_time = defaultdict(float)
    fn_units = Counter()
    fn_count = Counter()
    entry_self = defaultdict(float)
    calls = Counter()
    chart_calls = Counter()
    chart_time = defaultdict(float)
    refusals = Counter()
    for d in dumps:
        names, spans = d["names"], d["spans"]
        layer_of = [n.split(".", 1)[0] for n in names]
        base_of = [_function_of(n) for n in names]
        child = [0.0] * len(spans)
        for nid, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        entry = [0] * len(spans)
        for i, (nid, t0, t1, parent, _, units) in enumerate(spans):
            dur = t1 - t0
            self_t = dur - child[i]
            layer_self[layer_of[nid]] += self_t
            fn_time[names[nid]] += dur
            fn_units[names[nid]] += units
            fn_count[names[nid]] += 1
            same = parent >= 0 and layer_of[spans[parent][0]] == layer_of[nid]
            entry[i] = entry[parent] if same else i
            entry_self[base_of[spans[entry[i]][0]]] += self_t
        calls.update(d["calls"])
        chart_calls.update(d["chart_calls"])
        for k, v in d["chart_time"].items():
            chart_time[k] += v
        refusals.update(d["refusals"])
    for name, c in calls.items():
        layer_calls[name.split(".", 1)[0]] += c

    checks = max(checks, 1)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = layer_calls[layer]
        m[f"{layer}.self_ms"] = 1e3 * layer_self[layer] / checks
        m[f"{layer}.share"] = layer_self[layer] / wall_s

    def mean_ms(name):
        return 1e3 * fn_time[name] / fn_count[name] if fn_count[name] else 0.0

    def per_unit_ms(name):
        return 1e3 * fn_time[name] / fn_units[name] if fn_units[name] else 0.0

    for fn in ("hermitian.random_su", "hermitian.group_conjugator", "orbits.classify",
               "orbits.eigenstructure", "orbits.char_poly", "orbits.canonical_basis",
               "grading.structure_functions", "curvature.curvature_from_rho",
               "cone.contact_frame", "cone.quotient_chart", "cone.curvature_template_at",
               "cone.sigma_sample", "fdgeom.second_fundamental_form", "sasaki.cpn_pipeline",
               "sasaki.sasaki_residual", "sasaki.transversal_J", "tower.duality_action_check",
               "cli.main", "jsonio.dumps", "jsonio.matrix_from_json"):
        m[f"{fn}.ms"] = mean_ms(fn)
    for k in (1, 2, 3, 4):
        m[f"curvature.fit_rho.ms.n{k}"] = mean_ms(f"curvature.fit_rho.n{k}")
    for d in (2, 4, 6, 8):
        m[f"fdgeom.riemann.ms.d{d}"] = mean_ms(f"fdgeom.riemann.d{d}")
        m[f"cone.verify_curvature_prop.ms_per_point.d{d}"] = per_unit_ms(
            f"cone.verify_curvature_prop.d{d}")
    m["tower.verify_tower_geodesic.ms_per_sample"] = per_unit_ms("tower.verify_tower_geodesic")
    m["fdgeom.christoffel.calls"] = calls["fdgeom.christoffel"]
    m["orbits.refusals"] = refusals["orbits.IllConditionedError"]
    m["cone.chart_failures"] = refusals["cone.ChartFailureError"]
    for owner in ("cone", "sasaki"):
        m[f"{owner}.chart_eval.calls"] = chart_calls[owner]
        m[f"{owner}.chart_eval.us"] = (1e6 * chart_time[owner] / chart_calls[owner]
                                       if chart_calls[owner] else 0.0)
    m.update(extra)
    entries = sorted(((k, 1e3 * v) for k, v in entry_self.items()), key=lambda kv: -kv[1])
    return m, entries

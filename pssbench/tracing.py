"""Spans and counts around the public functions of each ``pss`` module.

``install`` replaces each traced function with a wrapper in every module
namespace its callers look it up in, so no program file changes.  A span
records (id, parent, layer, name, start, end); the parent is the span open
in the same thread, or, for work handed to the mapper's threads, the span
that handed it over (``Tracer.bind``).  Spans and counts stay in memory
until the traced process ends; it then writes its spans out
(``write_spans``) and reports their sums (``summary``), and
``layer_metrics`` turns the summaries of every process of a run into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("lattice_core", "local_counting", "exact_arith", "pell_engine",
          "series_builder", "cli")
EXPANSIONS = ("pss_expansion", "plain_eisenstein_threehalves")


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "cpu", "hit")

    def __init__(self, span_id, parent, layer, name):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.cpu = None
        self.hit = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        return stack[-1].id if stack else getattr(self._local, "root", None)

    def count(self, name: str, k: int = 1) -> None:
        with self._lock:
            self.counts[name] += k

    def record_max(self, name: str, value: int) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def seen(self, kind: str, key) -> bool:
        """Whether ``key`` was seen before under ``kind``; remembers it."""
        with self._lock:
            known = key in self._seen[kind]
            self._seen[kind].add(key)
            return known

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, fn, layer: str, name: str, after=None, cpu: bool = False):
        """``fn`` with a span around each call; ``after(span, args, result)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), tracer._parent(stack), layer, name)
            stack.append(span)
            cpu0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def bind(self, fn):
        """``fn`` run in another thread with the current span as parent."""
        parent = self._parent(self._stack())

        def bound(*args):
            self._local.root = parent
            return fn(*args)

        return bound

    def write_spans(self, path: str) -> None:
        """Write every span as [id, parent, layer, name, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.id, s.parent, s.layer, s.name, s.start, s.end]
                       for s in self.spans], fh)

    def summary(self) -> dict:
        """Per-name and per-layer sums of this process's spans, and counts.

        A span's self time is its duration minus the part of it that its
        child spans cover; children in two threads may overlap.
        """
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        by_id = {s.id: s for s in self.spans}
        out = {key: defaultdict(float) for key in
               ("time", "max_time", "self_time", "layer_self")}
        out["calls"] = defaultdict(int)
        out["expansion_wall"] = out["expansion_cpu"] = 0.0
        for s in self.spans:
            dur = s.end - s.start
            own = dur - _covered(s.start, s.end, children.get(s.id, ()))
            out["time"][s.name] += dur
            out["calls"][s.name] += 1
            out["max_time"][s.name] = max(out["max_time"][s.name], dur)
            out["self_time"][s.name] += own
            out["layer_self"][s.layer] += own
            outer = by_id.get(s.parent)
            if s.name in EXPANSIONS and (outer is None
                                         or outer.name not in EXPANSIONS):
                out["expansion_wall"] += dur
                out["expansion_cpu"] += s.cpu
        out["counts"] = dict(self.counts)
        out["maxima"] = dict(self.maxima)
        return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] that the intervals cover."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def _problem_key(prob, p):
    beta = prob.beta.coords if prob.beta is not None else None
    return (prob.mode, prob.form.gram.rows, prob.gamma.coords, beta,
            prob.m, prob.r, prob.n, p)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer where callers look them up."""
    from pss import (cli, exact_arith, lattice_core, local_counting,
                     pell_engine, series_builder)

    def patch(layer, name, modules, after=None, cpu=False):
        fn = getattr(modules[0], name)
        traced = tracer.wrap(fn, layer, name, after, cpu)
        for mod in modules:
            if getattr(mod, name) is not fn:
                raise RuntimeError("%s.%s is not %s.%s" % (
                    mod.__name__, name, modules[0].__name__, name))
            setattr(mod, name, traced)

    def after_local_factor(span, args, factor):
        prob, p = args[0], args[1]
        if tracer.seen("local_factor", _problem_key(prob, p)):
            tracer.count("factor_repeats")
        elif not span.hit and factor.verified_through is not None:
            tracer.count("prime_powers_counted", factor.verified_through + 1)

    def after_shadow(span, args, result):
        form, m, beta, gamma, n, r = args[:6]
        key = (form.gram.rows, m, beta.coords, gamma.coords, n, r)
        if tracer.seen("shadow_constant", key):
            tracer.count("shadow_repeats")

    def after_lookup(span, args, result):
        if result is not None:
            tracer.count("cache_hits")
            owner = tracer.current()
            if owner is not None:
                owner.hit = True

    def after_cache_file(span, args, result):
        path = args[0].path
        if path and os.path.exists(path):
            tracer.record_max("cache_bytes", os.path.getsize(path))

    def after_bernoulli(span, args, result):
        # the character is primitive here, so its discriminant is fundamental
        tracer.record_max("max_conductor", abs(args[0].discriminant))

    patch("lattice_core", "build_discriminant_form",
          [lattice_core, series_builder, cli])
    for name in EXPANSIONS:
        patch("series_builder", name, [series_builder, cli], cpu=True)
    for name in ("pss_coefficient", "plain_coefficient",
                 "weight2_correction", "weight32_correction"):
        patch("series_builder", name, [series_builder])
    patch("series_builder", "shadow_constant", [series_builder],
          after=after_shadow)
    patch("local_counting", "ltilde_at", [local_counting, series_builder])
    patch("local_counting", "local_factor", [local_counting],
          after=after_local_factor)
    patch("exact_arith", "l_value", [exact_arith, local_counting])
    patch("exact_arith", "generalized_bernoulli", [exact_arith],
          after=after_bernoulli)
    patch("exact_arith", "factorize", [exact_arith, local_counting])
    for name in ("fundamental_unit_plus", "norm_orbits", "unit_order_mod",
                 "family_sum"):
        patch("pell_engine", name, [pell_engine, series_builder])
    patch("cli", "main", [cli])

    cache_cls = local_counting.LocalFactorCache
    cache_cls.__init__ = tracer.wrap(cache_cls.__init__, "local_counting",
                                     "cache_load", after=after_cache_file)
    cache_cls.lookup = tracer.wrap(cache_cls.lookup, "local_counting",
                                   "cache_lookup", after=after_lookup)
    cache_cls.save = tracer.wrap(cache_cls.save, "local_counting",
                                 "cache_save", after=after_cache_file)
    expansion_cls = series_builder.FourierExpansion
    for name in ("to_json", "render_text"):
        setattr(expansion_cls, name,
                tracer.wrap(getattr(expansion_cls, name), "cli", "render"))


# -- aggregation ---------------------------------------------------------------


def layer_metrics(summaries: list, cli_walls: list) -> dict:
    """Per-layer metrics of a run from its processes' summaries.

    ``cli_walls`` holds, for each summary of a timed CLI invocation, the
    wall time the parent measured for it (None for other processes).
    """
    def get(key, name):
        return [p[key].get(name, 0) for p in summaries]

    def total(name):
        return sum(get("time", name))

    def calls(name):
        return sum(get("calls", name))

    def counted(name):
        return sum(get("counts", name))

    def largest(key, name):
        return max(get(key, name) or [0])

    def ratio(num, den):
        return num / den if den else 0.0

    invocations = [(p, wall) for p, wall in zip(summaries, cli_walls)
                   if wall is not None]
    wall = sum(p["expansion_wall"] for p in summaries)
    m = {
        "lattice_core.form_build_s": (total("build_discriminant_form"), "s"),
        "series_builder.coefficients":
            (calls("pss_coefficient") + calls("plain_coefficient"), "count"),
        "series_builder.coefficient_s":
            (total("pss_coefficient") + total("plain_coefficient"), "s"),
        "series_builder.shadow_s":
            (total("weight2_correction") + total("weight32_correction"), "s"),
        "series_builder.shadow_constant_calls":
            (calls("shadow_constant"), "count"),
        "series_builder.shadow_repeat_ratio":
            (ratio(counted("shadow_repeats"), calls("shadow_constant")),
             "ratio"),
        "series_builder.cpu_per_wall":
            (ratio(sum(p["expansion_cpu"] for p in summaries), wall), "s/s"),
        "local_counting.factor_calls": (calls("local_factor"), "count"),
        "local_counting.factor_s": (total("local_factor"), "s"),
        "local_counting.factor_max_s":
            (largest("max_time", "local_factor"), "s"),
        "local_counting.factor_repeat_ratio":
            (ratio(counted("factor_repeats"), calls("local_factor")), "ratio"),
        "local_counting.prime_powers_counted":
            (counted("prime_powers_counted"), "count"),
        "local_counting.ltilde_calls": (calls("ltilde_at"), "count"),
        "local_counting.ltilde_self_s":
            (sum(get("self_time", "ltilde_at")), "s"),
        "local_counting.cache_lookups": (calls("cache_lookup"), "count"),
        "local_counting.cache_hits": (counted("cache_hits"), "count"),
        "local_counting.cache_load_s": (total("cache_load"), "s"),
        "local_counting.cache_save_s": (total("cache_save"), "s"),
        "local_counting.cache_bytes": (largest("maxima", "cache_bytes"), "B"),
        "exact_arith.l_value_calls": (calls("l_value"), "count"),
        "exact_arith.l_value_s": (total("l_value"), "s"),
        "exact_arith.bernoulli_s": (total("generalized_bernoulli"), "s"),
        "exact_arith.max_conductor":
            (largest("maxima", "max_conductor"), "1"),
        "exact_arith.factorize_calls": (calls("factorize"), "count"),
        "exact_arith.factorize_s": (total("factorize"), "s"),
        "pell_engine.orbit_s": (total("norm_orbits")
                                + total("fundamental_unit_plus")
                                + total("unit_order_mod"), "s"),
        "pell_engine.family_sum_calls": (calls("family_sum"), "count"),
        "pell_engine.family_sum_s": (total("family_sum"), "s"),
        "cli.process_s": (statistics.median(
            [w - p["expansion_wall"] for p, w in invocations] or [0.0]), "s"),
        "cli.render_s": (statistics.median(
            [p["time"].get("render", 0.0) for p, _ in invocations] or [0.0]),
            "s"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (sum(get("layer_self", layer)), "s")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(m.items())}

"""Traced mode: per-layer timing from outside the program.

The benchmark wraps the public entry points of each layer (``core``,
``hybrid``, ``index``, ``scores``, ``quantization``, ``storage``,
``serving`` and ``observability``) with a timing shim that keeps a stack
of open calls.  Each call's self time is its duration minus the part of
it that wrapped children cover, so a layer's self time is the time spent
in its own code between calls into other wrapped layers.

Structural calls are also kept as spans ``(id, name, start, end, parent,
request)`` in memory and written as JSON lines at the end of the run.
High-frequency leaf calls (score kernels, observability entry points,
single-row writes) are only aggregated, so the span file stays small.

Nothing here is installed in an untraced run: end-to-end metrics are
always measured with the program unwrapped.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter

#: Wrapped strategies that run an index (everything but exact scans).
INDEX_STRATEGIES = frozenset({"index_scan", "post_filter", "block_first", "visit_first"})


class LayerTracer:
    """Stack-based call timer with per-name aggregates and spans."""

    def __init__(self) -> None:
        self.on = False
        self.request = 0
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_total: dict[str, float] = defaultdict(float)
        self.kept: dict[str, list[tuple[float, float, dict]]] = defaultdict(list)
        self.active: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self._stack: list[list] = []
        self._next_id = 1

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        record: bool = True,
        keep: bool = False,
        hook: Callable[[tuple, dict, Any], None] | None = None,
        split_build: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a timed shim.

        ``record`` keeps a span per call, ``keep`` keeps each call's
        (duration, self time, child time by layer) for medians, and
        ``hook(args, kwargs, result)`` reads counts off the call.  With
        ``split_build``, calls made while an index is being built are
        aggregated as ``name@build``, so query-time means are not mixed
        with a graph build's thousands of inner searches.
        """
        original = getattr(owner, attr)
        tracer = self
        self.layer_of[name] = layer

        @functools.wraps(original)
        def shim(*args, **kwargs):
            if not tracer.on:
                return original(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0, {}]
            tracer._next_id += 1
            stack.append(frame)
            key = f"{name}@build" if split_build and tracer.active["index.build"] else name
            tracer.active[name] += 1
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                tracer.active[name] -= 1
                duration = end - start
                own = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    parent[2][layer] = parent[2].get(layer, 0.0) + duration
                tracer.calls[key] += 1
                tracer.total[key] += duration
                tracer.self_total[key] += own
                if keep:
                    tracer.kept[key].append((duration, own, frame[2]))
                if record:
                    tracer.spans.append((
                        frame[0], key, start, end,
                        parent[0] if parent is not None else 0, tracer.request,
                    ))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(owner, attr, shim)

    def layer_self(self, layer: str) -> float:
        """Total self time of every wrapped entry point in ``layer``."""
        return sum(
            t for name, t in self.self_total.items()
            if self.layer_of[name.split("@")[0]] == layer
        )

    def mean_us(self, name: str, self_time: bool = False) -> float | None:
        calls = self.calls.get(name, 0)
        if not calls:
            return None
        table = self.self_total if self_time else self.total
        return table[name] / calls * 1e6

    def median_s(self, name: str) -> float | None:
        rows = self.kept.get(name)
        if not rows:
            return None
        return statistics.median(r[0] for r in rows)

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for sid, name, start, end, parent, request in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def install(tracer: LayerTracer, score_cls: type) -> None:
    """Wrap every traced entry point of the program; call once per process."""
    from repro.core import batched, collection, database, executor, planner
    from repro.index import base, hnsw
    from repro.observability import anomaly, instrument, metrics, sketch, timeseries, tracing
    from repro.quantization import ivfadc
    from repro.serving import coalescer, frontdoor
    from repro.storage import persist

    c = tracer.counters
    wrap = tracer.wrap

    def on_cache_get(args, kwargs, result):
        c["plan_cache.hits" if result is not None else "plan_cache.misses"] += 1

    def on_execute(args, kwargs, result):
        strategy = args[2].strategy
        c[f"plans.{strategy}"] += 1
        stats = result.stats
        if strategy in INDEX_STRATEGIES:
            c["index.queries"] += 1
            c["index.nodes_visited"] += stats.nodes_visited
            c["index.distance_computations"] += stats.distance_computations
        if strategy == "post_filter":
            c["postfilter.evaluated"] += stats.predicate_evaluations
            c["postfilter.kept"] += stats.predicate_evaluations - stats.predicate_rejections

    def on_batch(args, kwargs, result):
        c["batch.members"] += len(result)

    def on_distances(args, kwargs, result):
        if tracer.active["core.execute"] and not tracer.active["index.build"]:
            c["distances.query"] += 1

    def on_adc(args, kwargs, result):
        c["adc.codes_scanned"] += result[2].codes_scanned

    def on_start_span(args, kwargs, result):
        c["obs.spans"] += 1

    db_cls = database.VectorDatabase
    wrap(db_cls, "plan", "core.plan", "core")
    wrap(planner.PlanCache, "get", "core.plan_cache_get", "core", record=False,
         hook=on_cache_get)
    wrap(db_cls, "insert", "core.insert", "core", record=False)
    wrap(db_cls, "delete", "core.delete", "core", record=False)
    wrap(db_cls, "rebuild_indexes", "core.rebuild_indexes", "core")
    wrap(executor.QueryExecutor, "execute", "core.execute", "core", hook=on_execute)
    wrap(executor.QueryExecutor, "execute_batch", "core.execute_batch", "core",
         hook=on_batch)
    wrap(coalescer, "batched_graph_search", "core.batched_graph_search", "core")
    wrap(collection.VectorCollection, "predicate_mask", "hybrid.mask", "hybrid")
    for fn in ("prefilter_scan", "blocked_index_scan", "postfilter_scan",
               "adaptive_postfilter_scan", "visit_first_scan"):
        wrap(executor, fn, f"hybrid.{fn}", "hybrid")
    wrap(base.VectorIndex, "build", "index.build", "index", keep=True)
    wrap(base.VectorIndex, "search", "index.search", "index")
    wrap(hnsw, "beam_search", "index.beam_search", "index", split_build=True)
    wrap(batched, "batched_beam_search", "index.batched_beam_search", "index")
    for fn in ("distances", "distances_batch"):
        wrap(score_cls, fn, f"scores.{fn}", "scores", record=False, hook=on_distances,
             split_build=True)
    wrap(ivfadc.IvfAdc, "train", "quantization.train", "quantization", keep=True)
    wrap(ivfadc.IvfAdc, "search", "quantization.adc_search", "quantization",
         hook=on_adc)
    wrap(persist, "save_database", "storage.save_database", "storage", keep=True)
    wrap(persist, "load_database", "storage.load_database", "storage", keep=True)
    wrap(frontdoor.ServingFrontDoor, "run", "serving.run", "serving", keep=True)
    for owner, fn, hook in (
        (tracing.Tracer, "start_span", on_start_span),
        (tracing.Span, "finish", None),
        (metrics.Counter, "inc", None),
        (metrics.Gauge, "set", None),
        (metrics.Histogram, "observe", None),
        (sketch.QuantileSketch, "observe", None),
        (timeseries.TimeSeriesStore, "scrape", None),
        (timeseries.TimeSeriesStore, "advance", None),
        (anomaly.AnomalyMonitor, "tick", None),
        (instrument.Observability, "record_query", None),
    ):
        wrap(owner, fn, f"observability.{owner.__name__}.{fn}", "observability",
             record=False, hook=hook)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def per_layer_metrics(
    tracer: LayerTracer,
    *,
    index_memory_bytes: int,
    snapshot_bytes_per_row: float,
    serving: dict[str, Any],
    overhead_pct: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit).

    A layer the workload never calls (no ADC on an HNSW workload, no
    predicate on an unfiltered one) reads 0: no calls, no time.
    """
    t, c = tracer, tracer.counters
    executes = t.calls.get("core.execute", 0)
    builds = t.calls.get("index.build", 0)
    distance_calls = t.calls.get("scores.distances", 0) + t.calls.get(
        "scores.distances_batch", 0
    )
    distance_time = t.total.get("scores.distances", 0.0) + t.total.get(
        "scores.distances_batch", 0.0
    )
    postfilter_calls = t.calls.get("hybrid.adaptive_postfilter_scan", 0) + t.calls.get(
        "hybrid.postfilter_scan", 0
    )
    postfilter_self = t.self_total.get("hybrid.adaptive_postfilter_scan", 0.0) + (
        t.self_total.get("hybrid.postfilter_scan", 0.0)
    )
    adc_calls = t.calls.get("quantization.adc_search", 0)
    load_rows = t.kept.get("storage.load_database", [])

    m: dict[str, tuple[float | None, str]] = {
        "core.plan_us": (t.mean_us("core.plan"), "us"),
        "core.plan_cache_hit_ratio": (
            _ratio(c["plan_cache.hits"], c["plan_cache.hits"] + c["plan_cache.misses"]),
            "ratio",
        ),
        "core.execute_self_us": (t.mean_us("core.execute", self_time=True), "us"),
        "core.batch_self_us": (
            _ratio(t.self_total.get("core.execute_batch", 0.0) * 1e6, c["batch.members"]),
            "us/query",
        ),
        "core.insert_us": (t.mean_us("core.insert"), "us"),
        "core.delete_us": (t.mean_us("core.delete"), "us"),
        "hybrid.mask_us": (t.mean_us("hybrid.mask"), "us"),
        "hybrid.prefilter_us": (t.mean_us("hybrid.prefilter_scan"), "us"),
        "hybrid.postfilter_self_us": (
            _ratio(postfilter_self * 1e6, postfilter_calls), "us"
        ),
        "hybrid.filter_keep_ratio": (
            _ratio(c["postfilter.kept"], c["postfilter.evaluated"]), "ratio"
        ),
        "index.build_s": (t.median_s("index.build"), "s"),
        "index.search_us": (t.mean_us("index.search"), "us"),
        "index.beam_search_us": (t.mean_us("index.beam_search"), "us"),
        "index.nodes_visited_per_query": (
            _ratio(c["index.nodes_visited"], c["index.queries"]), "count/query"
        ),
        "index.distance_computations_per_query": (
            _ratio(c["index.distance_computations"], c["index.queries"]), "count/query"
        ),
        "index.memory_mb": (index_memory_bytes / 2**20 or None, "MB"),
        "scores.distance_calls_per_query": (
            _ratio(c["distances.query"], executes), "calls/query"
        ),
        "scores.distance_call_us": (_ratio(distance_time * 1e6, distance_calls), "us"),
        "scores.distance_calls_build": (
            _ratio(t.calls.get("scores.distances@build", 0)
                   + t.calls.get("scores.distances_batch@build", 0), builds),
            "calls/build",
        ),
        "quantization.train_s": (t.median_s("quantization.train"), "s"),
        "quantization.adc_search_us": (t.mean_us("quantization.adc_search"), "us"),
        "quantization.codes_scanned_per_query": (
            _ratio(c["adc.codes_scanned"], adc_calls), "count/query"
        ),
        "storage.save_s": (t.median_s("storage.save_database"), "s"),
        "storage.snapshot_bytes_per_row": (snapshot_bytes_per_row, "bytes/row"),
        "storage.restore_s": (
            statistics.median(r[1] for r in load_rows) if load_rows else None, "s"
        ),
        "bench.trace_overhead_pct": (overhead_pct, "%"),
    }
    for strategy in ("pre_filter", "post_filter", "index_scan", "brute_force"):
        m[f"core.plans.{strategy}"] = (c[f"plans.{strategy}"], "count")
    m.update({
        "serving.self_s": (serving["self_s"], "s"),
        "serving.db_s": (serving["db_s"], "s"),
        "serving.mean_batch_size": (serving["mean_batch_size"], "count"),
        "serving.coalesced_fraction": (serving["coalesced_fraction"], "ratio"),
        "serving.cache_hit_ratio": (serving["cache_hit_ratio"], "ratio"),
        "observability.self_s": (serving["observability_s"], "s"),
        "observability.spans_per_request": (serving["spans_per_request"], "count"),
    })
    return {k: (0.0 if v is None else float(v), unit) for k, (v, unit) in m.items()}

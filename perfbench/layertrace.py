"""Per-layer tracing from outside the program.

The traced run wraps public functions of each layer with timing shims that
live here, in the benchmark's own files; nothing under ``src/`` changes.
Spans are kept in memory (one tuple per call, keyed by request id where the
call carries one) and written once, when the run ends.

A span's *self time* is its duration minus the part covered by its child
spans: for synchronous calls, the spans nested inside it on the same thread;
for the coroutine spans of the HTTP and asyncio layers, the named child
spans of the same request (see ``ASYNC_CHILDREN``).  Summed self time over
every layer, divided by the traced wall time, is the layer coverage: a layer
that is not shimmed shows up as a gap below 1.  Above 1 means layers ran
concurrently on several threads (the ``live_mapping`` workload).

Worker processes are invisible to these shims: on the ``process`` backend
the shard apply runs in children, so the ``core`` apply metrics are measured
on the ``inline`` workloads only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pickle
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The metric -> layer -> workload mapping (and its predictions), shared with
#: the human-readable report and the README.
LAYERS = json.loads((Path(__file__).with_name("layers.json")).read_text())


def _result_request_id(args, kwargs, result) -> Optional[int]:
    """Request id of a receipt (``AsyncMapService.submit``) or its JSON form."""
    if isinstance(result, dict):
        return result.get("request_id")
    return getattr(result, "request_id", None)


def _arg_request_id(args, kwargs, result) -> Optional[int]:
    """Request id of the ``ScanRequest`` passed to ``MapSession.submit``."""
    return getattr(args[1], "request_id", None)


# (span name, module, attribute path, key extractor).  Functions imported by
# name into another module are shimmed where they are looked up.
SHIMS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("http.submit", "repro.serving.http.client", "MapServiceClient.submit_scan", _result_request_id),
    ("http.query", "repro.serving.http.client", "MapServiceClient.query", None),
    ("http.request", "repro.serving.http.client", "http_request", None),
    ("aio.submit", "repro.serving.aio", "AsyncMapService.submit", _result_request_id),
    ("aio.query", "repro.serving.aio", "AsyncMapService.query", None),
    ("batching.admit", "repro.serving.session", "MapSession.submit", _arg_request_id),
    ("batching.flush", "repro.serving.batching", "IngestionPipeline.flush", None),
    ("raycast_vec.batch", "repro.serving.batching", "compute_batch_update_arrays", None),
    ("sharding.partition", "repro.serving.sharding", "ShardRouter.partition_key_arrays", None),
    ("sharding.pack", "repro.serving.types", "ShardUpdateBatch.from_key_arrays", None),
    ("backends.apply_async", "repro.serving.backends", "ShardBackend.apply_async", None),
    ("backends.drain", "repro.serving.backends", "ShardBackend.drain", None),
    ("backends.export_all", "repro.serving.backends", "ShardBackend.export_all", None),
    ("core.apply", "repro.serving.sharding", "MapShardWorker.apply_message", None),
    ("core.query", "repro.serving.sharding", "MapShardWorker.query_key", None),
    ("core.process_scan", "repro.core.accelerator", "OMUAccelerator.process_scan", None),
    ("core.cast_scan", "repro.core.raycast_unit", "RayCastingUnit.cast_scan", None),
    ("core.schedule", "repro.core.scheduler", "VoxelScheduler.schedule", None),
    ("query_engine.point", "repro.serving.query_engine", "QueryEngine.query", None),
    ("query_engine.bbox", "repro.serving.query_engine", "QueryEngine.query_bbox", None),
    ("query_engine.raycast", "repro.serving.query_engine", "QueryEngine.raycast", None),
    ("merge.stitch", "repro.serving.session", "merge_trees", None),
    ("metrics.observe", "repro.serving.metrics.store", "MetricsStore.observe", None),
    ("octomap.sw_insert", "repro.baselines.sw_runner", "run_software_octomap", None),
)

#: Coroutine spans interleave on the event-loop thread, so their children
#: are named: the span of the same request id, else the one inside its
#: interval.
ASYNC_CHILDREN = {
    "http.submit": "aio.submit",
    "http.query": "aio.query",
    "aio.query": "query_engine.point",
}


class Span:
    __slots__ = ("name", "start", "end", "thread", "key", "extra", "is_async")

    def __init__(self, name, start, end, thread, key, extra, is_async):
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.key = key
        self.extra = extra
        self.is_async = is_async

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the shims, collects spans, and turns them into layer metrics."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, key_fn in SHIMS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, self._shim(name, raw, key_fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        self._originals.clear()

    def _shim(self, name: str, raw, key_fn):
        if isinstance(raw, classmethod):
            return classmethod(self._shim(name, raw.__func__, key_fn))
        extra_fn = _EXTRAS.get(name)
        spans = self.spans
        clock = time.perf_counter

        if inspect.iscoroutinefunction(raw):

            @functools.wraps(raw)
            async def async_wrapper(*args, **kwargs):
                start = clock()
                result = await raw(*args, **kwargs)
                end = clock()
                key = key_fn(args, kwargs, result) if key_fn else None
                extra = extra_fn(args, kwargs, result) if extra_fn else None
                spans.append(Span(name, start, end, threading.get_ident(), key, extra, True))
                return result

            return async_wrapper

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            start = clock()
            result = raw(*args, **kwargs)
            end = clock()
            key = key_fn(args, kwargs, result) if key_fn else None
            extra = extra_fn(args, kwargs, result) if extra_fn else None
            spans.append(Span(name, start, end, threading.get_ident(), key, extra, False))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name (see the module docstring)."""
        totals: Dict[str, float] = defaultdict(float)
        per_thread: Dict[int, List[Span]] = defaultdict(list)
        async_spans: List[Span] = []
        for span in self.spans:
            (async_spans if span.is_async else per_thread[span.thread]).append(span)
        for spans in per_thread.values():
            spans.sort(key=lambda s: (s.start, -s.end))
            stack: List[List[Any]] = []  # [span, covered-by-children]
            for span in spans:
                while stack and span.start >= stack[-1][0].end:
                    done, covered = stack.pop()
                    totals[done.name] += done.duration - covered
                if stack:
                    stack[-1][1] += span.duration
                stack.append([span, 0.0])
            for done, covered in stack:
                totals[done.name] += done.duration - covered
        for span, child in self.async_pairs(async_spans):
            totals[span.name] += span.duration - (child.duration if child else 0.0)
        return dict(totals)

    def async_pairs(self, spans: Optional[Sequence[Span]] = None) -> List[Tuple[Span, Optional[Span]]]:
        """Each coroutine span with its named child span, when one exists."""
        if spans is None:
            spans = [span for span in self.spans if span.is_async]
        children: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.name].append(span)
        keyed = {
            (span.name, span.key): span for span in self.spans if span.key is not None
        }
        pairs = []
        for span in spans:
            child_name = ASYNC_CHILDREN.get(span.name)
            child = None
            if child_name is not None:
                child = keyed.get((child_name, span.key)) if span.key is not None else None
                if child is None:
                    inside = [
                        c for c in children[child_name]
                        if c.start >= span.start and c.end <= span.end
                    ]
                    child = max(inside, key=lambda c: c.duration) if inside else None
            pairs.append((span, child))
        return pairs

    def write(self, path: Path, header: Dict[str, Any]) -> None:
        """Write every span once, at the end of the run.

        Rows are ``[name index, start us, duration us, thread, request id,
        extra]`` against the ``names`` table, to keep long runs' files small.
        """
        origin = min((span.start for span in self.spans), default=0.0)
        names: Dict[str, int] = {}
        rows = [
            [
                names.setdefault(span.name, len(names)),
                round((span.start - origin) * 1e6, 1),
                round(span.duration * 1e6, 1),
                span.thread,
                span.key,
                span.extra,
            ]
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "names": list(names), "spans": rows}, separators=(",", ":")))


def _bytes_of_request(args, kwargs, result) -> Optional[Dict[str, int]]:
    # http_request(host, port, method, path, payload=None, *, raw_body=None);
    # the client JSON-encodes the payload exactly like this.
    path = args[3] if len(args) > 3 else kwargs.get("path", "")
    payload = args[4] if len(args) > 4 else kwargs.get("payload")
    if not str(path).endswith("/scans") or payload is None:
        return None
    return {"scan_body_bytes": len(json.dumps(payload).encode("utf-8"))}


def _pickled_batches(args, kwargs, result) -> Dict[str, int]:
    # Computed by the benchmark: the size a ShardUpdateBatch takes pickled
    # (what the process backend ships over its pipes), whatever backend ran.
    batches = args[1]
    return {
        "bytes": sum(len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)) for batch in batches),
        "updates": sum(len(batch.entries) for batch in batches),
    }


def _updates_applied(args, kwargs, result) -> Dict[str, int]:
    return {"updates": result.updates_applied}


_EXTRAS = {
    "http.request": _bytes_of_request,
    "backends.apply_async": _pickled_batches,
    "core.apply": _updates_applied,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.mean(values) if values else 0.0


def _total(tracer: Tracer, name: str) -> float:
    return float(sum(span.duration for span in tracer.by_name(name)))


def layer_metrics(tracer: Tracer, facts: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of ``layers.json``; 0 where a layer did no work.

    ``facts`` carries what the workload read from the program's public
    results: the finalized ``BatchReport``\\ s, session cache counters,
    modelled cycles, queue depth, generator lag and failure counts.
    """
    reports = facts.get("reports", [])
    pairs = tracer.async_pairs()
    metrics: Dict[str, float] = {}

    def self_ms(name: str) -> float:
        return _median([(s.duration - (c.duration if c else 0.0)) * 1e3 for s, c in pairs if s.name == name])

    metrics["http.submit_self_ms"] = self_ms("http.submit")
    metrics["http.query_self_ms"] = self_ms("http.query")
    scan_bodies = [s.extra["scan_body_bytes"] for s in tracer.by_name("http.request") if s.extra]
    metrics["http.request_bytes_per_scan"] = _median(scan_bodies)

    metrics["aio.submit_ms"] = _median([s.duration * 1e3 for s in tracer.by_name("aio.submit")])
    admitted = {s.key: s.start for s in tracer.by_name("batching.admit") if s.key is not None}
    # Waits are means: the time behind a flush lands on a minority of requests.
    metrics["aio.queue_wait_ms"] = _mean(
        [(admitted[s.key] - s.end) * 1e3 for s in tracer.by_name("aio.submit") if s.key in admitted]
    )
    metrics["aio.query_wait_ms"] = _mean(
        [(s.duration - (c.duration if c else 0.0)) * 1e3 for s, c in pairs if s.name == "aio.query"]
    )
    metrics["aio.queue_depth_max"] = float(facts.get("queue_depth_max", 0))

    metrics["batching.flush_ms"] = _median([s.duration * 1e3 for s in tracer.by_name("batching.flush")])
    scans = sum(report.scans for report in reports)
    metrics["batching.scans_per_batch"] = scans / len(reports) if reports else 0.0

    raycast_s = _total(tracer, "raycast_vec.batch")
    rays = sum(report.rays_cast for report in reports)
    visited = sum(report.ray_voxels_visited for report in reports)
    updates = sum(report.voxel_updates for report in reports)
    metrics["raycast_vec.busy_s"] = raycast_s
    metrics["raycast_vec.us_per_ray"] = raycast_s * 1e6 / rays if rays else 0.0
    metrics["raycast_vec.dedup_ratio"] = updates / visited if visited else 0.0

    metrics["sharding.partition_s"] = _total(tracer, "sharding.partition") + _total(tracer, "sharding.pack")
    per_shard = [sum(column) for column in zip(*(report.shard_updates for report in reports))]
    mean_shard = sum(per_shard) / len(per_shard) if per_shard else 0.0
    metrics["sharding.shard_skew"] = max(per_shard) / mean_shard if mean_shard else 0.0

    metrics["backends.apply_s"] = _total(tracer, "backends.apply_async") + _total(tracer, "backends.drain")
    metrics["backends.drain_wait_s"] = _total(tracer, "backends.drain")
    shipped = [s.extra for s in tracer.by_name("backends.apply_async")]
    shipped_updates = sum(extra["updates"] for extra in shipped)
    metrics["backends.bytes_per_update"] = (
        sum(extra["bytes"] for extra in shipped) / shipped_updates if shipped_updates else 0.0
    )
    metrics["backends.export_gather_s"] = _total(tracer, "backends.export_all")

    applies = tracer.by_name("core.apply")
    applied = sum(s.extra["updates"] for s in applies)
    metrics["core.apply_us_per_update"] = (
        sum(s.duration for s in applies) * 1e6 / applied if applied else 0.0
    )
    metrics["core.query_us"] = _median([s.duration * 1e6 for s in tracer.by_name("core.query")])
    cast_s = _total(tracer, "core.cast_scan")
    schedule_s = _total(tracer, "core.schedule")
    metrics["core.raycast_unit_s"] = cast_s
    metrics["core.scheduler_s"] = schedule_s
    process_s = _total(tracer, "core.process_scan")
    metrics["core.pe_array_s"] = process_s - cast_s - schedule_s if process_s else 0.0
    cycles = facts.get("modelled_cycles", 0)
    modelled_updates = facts.get("modelled_updates", 0)
    metrics["core.modelled_cycles"] = float(cycles)
    metrics["core.cycles_per_update"] = cycles / modelled_updates if modelled_updates else 0.0

    metrics["query_engine.point_us"] = _median([s.duration * 1e6 for s in tracer.by_name("query_engine.point")])
    metrics["query_engine.bbox_ms"] = _median([s.duration * 1e3 for s in tracer.by_name("query_engine.bbox")])
    metrics["query_engine.raycast_us"] = _median([s.duration * 1e6 for s in tracer.by_name("query_engine.raycast")])
    lookups = facts.get("cache_lookups", 0)
    metrics["cache.hit_ratio"] = facts.get("cache_hits", 0) / lookups if lookups else 0.0

    metrics["merge.stitch_s"] = _total(tracer, "merge.stitch")
    observes = tracer.by_name("metrics.observe")
    metrics["metrics.observe_us"] = _median([s.duration * 1e6 for s in observes])
    metrics["metrics.records"] = float(len(observes))
    metrics["octomap.sw_insert_s"] = _total(tracer, "octomap.sw_insert")

    metrics["bench.generator_lag_p99_ms"] = facts.get("generator_lag_p99_ms", 0.0)
    metrics["bench.failed_ops_ratio"] = facts.get("failed_ops_ratio", 0.0)
    metrics["bench.layer_coverage"] = (
        sum(tracer.self_times().values()) / tracer.wall_s if tracer.wall_s else 0.0
    )
    return metrics


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer (span-name prefix), for the human report."""
    per_layer: Dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_times().items():
        per_layer[name.split(".", 1)[0]] += seconds
    return dict(sorted(per_layer.items(), key=lambda item: -item[1]))

"""The four benchmark workloads, driven only through public entry points.

Each ``run_*`` function sets the system up (``repeats`` times, keeping the
last set-up and timing the median), measures for about ``seconds``, checks
that the outputs are correct, tears everything down, and returns a
:class:`Outcome`.  With a :class:`~layertrace.Tracer` the shims are installed for
the measured phase only, so set-up and the correctness checks stay untraced.

Timings are host wall time (``time.perf_counter``); the gated ones are also
read from :class:`SpeedClock`, which runs at a fixed reference machine
speed.  Modelled accelerator cycles are reported as counts.
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import math
import multiprocessing
import re
import resource
import signal
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.experiments import SCALES
from repro.baselines import sw_runner
from repro.core.accelerator import OMUAccelerator
from repro.core.config import DEFAULT_CONFIG
from repro.core.verification import compare_trees, verify_against_software
from repro.datasets.catalog import dataset_by_name
from repro.datasets.generator import generate_scan_graph
from repro.datasets.streams import (
    ClientSpec,
    generate_client_scans,
    generate_interleaved_stream,
    poisson_arrival_times,
)
from repro.octomap.octree import OccupancyOcTree
from repro.octomap.pointcloud import PointCloud
from repro.serving import (
    AsyncMapService,
    HttpMapServer,
    MapServiceClient,
    MapSessionManager,
    ScanRequest,
    SessionConfig,
)
from repro.serving.http.client import ServerError

REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    _MALLOC_TRIM = None
TABLE4 = REPO_ROOT / "benchmarks" / "results" / "table4.txt"

#: full-size LiDAR scans (96x3 beams, 15 m): two clients share the corridor
#: session, one maps the campus.
INGEST_CLIENTS = (
    ClientSpec("corridor-a", "corridor", scene="corridor", num_scans=4, dropout=0.05),
    ClientSpec("corridor-b", "corridor", scene="corridor", num_scans=4, dropout=0.05),
    ClientSpec("campus-a", "campus", scene="campus", num_scans=4, dropout=0.05),
)
INGEST_CONFIG = SessionConfig(num_shards=2, batch_size=8, backend="inline")

LIVE_SESSION = "live"
LIVE_CONFIG = SessionConfig(num_shards=2, batch_size=8, backend="process")
#: offered load: about a quarter of the ~4 light scans/s the parent commit
#: serves on 2 cores, and 20 scans in a 20 s window.  At half of capacity
#: (2/s) reads queue behind batch applies about half of the time, so the
#: median query sits on the knee between a few ms and hundreds of ms and
#: moved by +-40% between seeds; here it stays in the fast mode and the
#: wait behind applies shows in the tail.
LIVE_RATE_PER_S = 1.0
#: the point-query probe's fixed schedule (200 probes in 20 s).
LIVE_PROBE_PERIOD_S = 0.1
#: light scans like session_scaling_experiment's prototype
LIVE_BEAMS = (32, 2)
LIVE_RANGE_M = 10.0

MIX_SESSION = "mix"
MIX_CONFIG = SessionConfig(num_shards=2, batch_size=8, backend="inline")
MIX_MAP_SCANS = 4
MIX_WRITE_SCANS = 64
#: operation shares of the query mix; writes are ~1% and invalidate cache
#: generations of the shards they touch.
MIX_SHARES = (
    ("point_hot", 0.55),
    ("point_cold", 0.20),
    ("batch", 0.10),
    ("raycast", 0.10),
    ("bbox", 0.04),
    ("write", 0.01),
)
MIX_OPS = 40000
MIX_BLOCK = 100
MIX_RAY_SECTORS = 32

REPLAY_DATASET = "FR-079 corridor"


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live child process (VmHWM).

    Read before the correctness checks: their reference trees are the
    benchmark's memory, not the program's.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


@dataclass
class Ops:
    """Attempted and failed operations per operation type."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)

    def call(self, kind: str, fn: Callable, *args):
        """Run one operation; a raised error counts it as failed."""
        self.attempted[kind] += 1
        try:
            return True, fn(*args)
        except Exception as error:  # noqa: BLE001 - a failed op is a result
            self.failed[kind] += 1
            return False, error

    async def acall(self, kind: str, coroutine):
        self.attempted[kind] += 1
        try:
            return True, await coroutine
        except (ServerError, OSError, asyncio.IncompleteReadError) as error:
            self.failed[kind] += 1
            return False, error

    def merge(self, other: "Ops") -> None:
        self.attempted.update(other.attempted)
        self.failed.update(other.failed)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: Dict[str, float]
    #: the workload's named metrics: name -> (value, unit, samples)
    named: Dict[str, Tuple[float, str, int]]
    checks: List[Tuple[str, bool, str]]
    ops: Ops
    #: public results the per-layer metrics read (see layertrace.layer_metrics)
    facts: Dict[str, Any]


#: thread CPU time of one ``_speed_kernel`` call on a quiet machine of the
#: kind the bounds were tuned on (2 shared cores); ``SpeedClock`` runs
#: relative to it.
REFERENCE_KERNEL_S = 0.0005
#: how often ``SpeedClock`` times the kernel
PROBE_PERIOD_S = 0.02
#: probes a ``SpeedClock`` records: a 180-second run
PROBE_CAPACITY = 9000


#: the kernel's table, allocated once (see SpeedClock.probe_times)
_KERNEL_TABLE: Dict[int, int] = dict.fromkeys(range(1024), 0)


def _speed_kernel() -> int:
    """A fixed interpreter-bound job (dict and integer work, ~0.5 ms)."""
    table = _KERNEL_TABLE
    for i in range(4000):
        key = i & 1023
        table[key] = (table.get(key, 0) + i) & 0xFFFFF
    return len(table)


class SpeedClock:
    """A clock that runs at a fixed reference machine speed.

    Shared machines change speed by 10-60% from one second to the next
    (neighbours on the same cores slow the interpreter down), more than a
    20-second run averages away.  While the clock runs, a real-time
    interval timer interrupts the main thread every ``period_s`` and times
    the fixed kernel above in thread CPU time (so waiting for the GIL does
    not count).  Each interval between two probes then advances
    :meth:`now` by its wall time divided by the slowdown the previous probe
    measured: durations read from :meth:`now` are seconds at the reference
    speed.  :meth:`wall` is the plain wall clock; both leave the probes'
    own time out.  The probes cost ~3% of the run.
    """

    def __init__(self, period_s: float = PROBE_PERIOD_S) -> None:
        self.period_s = period_s
        #: perf_counter time and slowdown of the first PROBE_CAPACITY
        #: probes, allocated up front like the kernel's table: the probes
        #: allocate nothing while a workload runs (see settle).
        self.probe_times = array("d", bytes(8 * PROBE_CAPACITY))
        self.probe_slowdowns = array("d", bytes(8 * PROBE_CAPACITY))
        self.probe_count = 0
        self._wall = 0.0
        self._reference = 0.0
        self._slowdown = 1.0
        self._last = 0.0
        self._previous = None
        self._stopped = None

    def _probe(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self._wall += started - self._last
        self._reference += (started - self._last) / self._slowdown
        cpu = time.thread_time()
        _speed_kernel()
        self._slowdown = (time.thread_time() - cpu) / REFERENCE_KERNEL_S
        if self.probe_count < PROBE_CAPACITY:
            self.probe_times[self.probe_count] = started
            self.probe_slowdowns[self.probe_count] = self._slowdown
            self.probe_count += 1
        self._last = time.perf_counter()

    def start(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._last = time.perf_counter()
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def stop(self) -> None:
        """Stop probing; the readings stay where they are."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._stopped = (self.wall(), self.now())

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()

    def wall(self) -> float:
        """Wall seconds since the clock started, without the probes."""
        if self._stopped:
            return self._stopped[0]
        return self._wall + (time.perf_counter() - self._last)

    def now(self) -> float:
        """Seconds at the reference speed since the clock started."""
        if self._stopped:
            return self._stopped[1]
        return self._reference + (time.perf_counter() - self._last) / self._slowdown

    def read(self) -> Tuple[float, float]:
        return self.wall(), self.now()

    def since(self, mark: Tuple[float, float]) -> Tuple[float, float]:
        """(wall, reference) seconds since ``mark``, a :meth:`read`."""
        wall, now = self.read()
        return wall - mark[0], now - mark[1]

    def slowdown_during(self, start: float, end: float) -> float:
        """Mean slowdown of the probes between two ``perf_counter`` times.

        For work this thread only waits for (another process's), whose
        time cannot be read from :meth:`now`.
        """
        probes = list(zip(self.probe_times[: self.probe_count], self.probe_slowdowns[: self.probe_count]))
        inside = [slowdown for at, slowdown in probes if start <= at <= end]
        if not inside:
            inside = [slowdown for at, slowdown in probes if at <= end][-1:]
        return statistics.mean(inside)

    @property
    def slowdown(self) -> float:
        """Wall time over reference time since the clock started."""
        return self.wall() / self.now()


def timed_setups(make: Callable, close: Callable, repeats: int):
    """Set up ``repeats`` times; keep the last set-up.

    Returns it with the median set-up time in wall seconds and in seconds at
    the reference speed (see :class:`SpeedClock`).
    """
    walls, durations = [], []
    state = None
    with SpeedClock() as clock:
        for index in range(repeats):
            mark = clock.read()
            state = make()
            wall, duration = clock.since(mark)
            walls.append(wall)
            durations.append(duration)
            if index < repeats - 1:
                close(state)
    return state, (statistics.median(walls), statistics.median(durations))


def settle() -> None:
    """Start a measurement from the same collector and allocator state.

    Collect cycles, then hand the C heap's free top back to the system
    (glibc only).  Whether the heap had been trimmed before a measurement
    varied by run with the probes' timing, and peak RSS then jumped between
    two levels 4-9% apart.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def reference_tree(session_config: SessionConfig, requests: Sequence[ScanRequest]) -> OccupancyOcTree:
    """Sequential software insertion with the session's quantised parameters."""
    accel = session_config.accelerator
    tree = OccupancyOcTree(
        accel.resolution_m,
        tree_depth=accel.tree_depth,
        params=accel.quantized_params().as_float_params(),
    )
    for request in requests:
        tree.insert_point_cloud(request.cloud, request.origin, max_range=request.max_range)
    tree.prune()
    return tree


def check_map(name: str, session, exported: OccupancyOcTree, by_id: Dict[int, ScanRequest]):
    """The exported map equals sequential insertion in dispatch order."""
    dispatched = [rid for report in session.pipeline.reports for rid in report.request_ids]
    if sorted(dispatched) != sorted(by_id):
        return (name, False, f"{len(dispatched)} dispatched vs {len(by_id)} admitted")
    reference = reference_tree(session.config, [by_id[rid] for rid in dispatched])
    tolerance = session.config.accelerator.fixed_point.scale / 2.0
    report = compare_trees(reference, exported, tolerance)
    return (name, report.equivalent, report.summary())


def answer_matches(response, tree: OccupancyOcTree, point) -> bool:
    """A session's point answer equals the lookup in an exported tree."""
    node = tree.search(*point)
    if node is None:
        return response.status == "unknown"
    status = "occupied" if tree.is_node_occupied(node) else "free"
    return response.status == status and abs(response.probability - tree.occupancy_probability(node)) < 1e-6


def latency_pair(values_s: Sequence[float], q: float, scale: float = 1e3) -> Tuple[float, float]:
    return percentile(values_s, 50) * scale, percentile(values_s, q) * scale


def end_to_end(raw: Tuple[float, float], norm: Tuple[float, float], slowdown: float, setup, rss_mb: float):
    """The gated metrics at the reference speed, and their wall-clock values.

    ``raw`` and ``norm`` are ``(throughput per s, map latency ms)`` in wall
    time and at the reference speed; ``setup`` is ``(median set-up wall
    seconds, median set-up seconds at the reference speed)``.
    """
    return {
        "setup_raw_s": setup[0],
        "setup_s": setup[1],
        "peak_rss_mb": rss_mb,
        "throughput_per_s": raw[0],
        "map_latency_ms": raw[1],
        "slowdown": slowdown,
        "norm_throughput_per_s": norm[0],
        "norm_map_latency_ms": norm[1],
    }


def _close_manager(state) -> None:
    state[-1].shutdown()


# ---------------------------------------------------------------------------
# ingest_bulk
# ---------------------------------------------------------------------------
def run_ingest_bulk(seed: int, seconds: float, tracer=None, repeats: int = 3) -> Outcome:
    """Closed loop, one caller: submit 8 scans, flush every session, repeat."""

    def make():
        # Round-robin interleave: every seed batches the same clients together,
        # so the seed changes scan content (beam dropout), not batch makeup.
        events = generate_interleaved_stream(INGEST_CLIENTS, seed=seed, shuffle=False)
        requests = [
            ScanRequest.from_scan_node(
                event.session_id, event.scan, max_range=event.max_range_m, client_id=event.client_id
            )
            for event in events
        ]
        manager = MapSessionManager(INGEST_CONFIG)
        for spec in INGEST_CLIENTS:
            manager.get_or_create_session(spec.session_id)
        return requests, manager

    (requests, manager), setup = timed_setups(make, _close_manager, repeats)
    ops = Ops()
    #: summed flush time (wall, reference): every scan of a closed-loop group
    #: is submitted at once, so a per-scan submit->flushed latency would only
    #: say which session's batch the round-robin flushed first.
    flushed = [0.0, 0.0]
    pass_times: List[Tuple[float, float]] = []
    reports = []
    scans_done = 0
    settle()
    if tracer:
        tracer.install()
    measure_start = time.perf_counter()
    clock = SpeedClock().start()
    try:
        while True:
            if pass_times:
                reports.extend(r for sid in manager.session_ids() for r in manager.get_session(sid).pipeline.reports)
                manager.shutdown()
                manager = MapSessionManager(INGEST_CONFIG)
            by_id: Dict[int, ScanRequest] = {}
            pass_start = clock.read()
            for group_start in range(0, len(requests), INGEST_CONFIG.batch_size):
                for request in requests[group_start : group_start + INGEST_CONFIG.batch_size]:
                    ok, receipt = ops.call("scan", manager.submit, request)
                    if ok:
                        by_id[receipt.request_id] = request.with_request_id(receipt.request_id)
                progressed = True
                while progressed:
                    progressed = False
                    for session_id in manager.session_ids():
                        flush_started = clock.read()
                        ok, report = ops.call("flush", manager.flush, session_id)
                        if ok and report is not None:
                            for i, elapsed in enumerate(clock.since(flush_started)):
                                flushed[i] += elapsed
                            scans_done += report.scans
                            progressed = True
            pass_times.append(clock.since(pass_start))
            elapsed = time.perf_counter() - measure_start
            if elapsed + statistics.mean(wall for wall, _ in pass_times) > seconds:
                break
    finally:
        clock.stop()
        if tracer:
            tracer.wall_s = time.perf_counter() - measure_start
            tracer.uninstall()

    sessions = [manager.get_session(sid) for sid in manager.session_ids()]
    reports.extend(report for session in sessions for report in session.pipeline.reports)
    rss = peak_rss_mb()
    checks = []
    for session in sessions:
        ok, exported = ops.call("export", session.export_octree)
        if not ok:
            checks.append((f"map {session.session_id}", False, repr(exported)))
            continue
        owned = {rid: req for rid, req in by_id.items() if req.session_id == session.session_id}
        checks.append(check_map(f"map {session.session_id} == sequential insertion", session, exported, owned))
    cache_stats = [session.stats.cache for session in sessions]
    manager.shutdown()

    throughput = scans_done / sum(wall for wall, _ in pass_times)
    norm_throughput = scans_done / sum(reference for _, reference in pass_times)
    latency = [elapsed / scans_done * 1e3 for elapsed in flushed]
    return Outcome(
        e2e=end_to_end((throughput, latency[0]), (norm_throughput, latency[1]), clock.slowdown, setup, rss),
        named={"ingest_scans_per_s": (throughput, "1/s", scans_done)},
        checks=checks,
        ops=ops,
        facts={
            "reports": reports,
            "modelled_cycles": sum(report.modelled_cycles for report in reports),
            "modelled_updates": sum(report.voxel_updates for report in reports),
            "cache_hits": sum(stats.hits for stats in cache_stats),
            "cache_lookups": sum(stats.lookups for stats in cache_stats),
        },
    )


# ---------------------------------------------------------------------------
# live_mapping
# ---------------------------------------------------------------------------
def run_live_mapping(seed: int, seconds: float, tracer=None, repeats: int = 3) -> Outcome:
    return asyncio.run(_live_mapping(seed, seconds, tracer, repeats))


async def _live_mapping(seed: int, seconds: float, tracer, repeats: int) -> Outcome:
    """Open loop over HTTP: Poisson scan uploads plus a fixed-rate query probe."""
    rng = np.random.default_rng(seed)
    # A Poisson schedule conditioned on its count: the first N arrivals of
    # the seeded process, scaled so arrival N+1 lands at the window's end.
    # The offered load is then exactly the rate on every seed.
    count = max(1, round(LIVE_RATE_PER_S * seconds))
    schedule = poisson_arrival_times(count + 1, LIVE_RATE_PER_S, seed=seed)
    arrivals = [float(offset) * seconds / float(schedule[-1]) for offset in schedule[:-1]]
    probe_points = [tuple(float(c) for c in row) for row in rng.uniform((-8.0, -1.5, 0.2), (8.0, 1.5, 2.0), size=(32, 3))]

    async def make():
        spec = ClientSpec(
            LIVE_SESSION, LIVE_SESSION, scene="corridor", num_scans=len(arrivals),
            max_range_m=LIVE_RANGE_M, dropout=0.05,
        )
        scans = generate_client_scans(spec, seed=seed, beams_azimuth=LIVE_BEAMS[0], beams_elevation=LIVE_BEAMS[1])
        payloads = [(scan.world_cloud().points.tolist(), [float(c) for c in scan.origin()]) for scan in scans]
        manager = MapSessionManager(LIVE_CONFIG)
        # Before the server and the executor start: the process backend forks
        # its shard workers here (see repro.serving.aio).
        manager.create_session(LIVE_SESSION)
        service = AsyncMapService(manager)
        server = await HttpMapServer(service).start()
        return payloads, service, server

    async def close(state) -> None:
        _, service, server = state
        await server.close()
        await service.close()

    durations = []
    with SpeedClock() as clock:
        for index in range(repeats):
            mark = clock.read()
            state = await make()
            durations.append(clock.since(mark))
            if index < repeats - 1:
                await close(state)
    setup = tuple(statistics.median(duration[i] for duration in durations) for i in (0, 1))
    payloads, service, server = state
    client = MapServiceClient(*server.address)
    session = service.manager.get_session(LIVE_SESSION)
    reports = session.pipeline.reports

    ops = Ops()
    due_of: Dict[int, float] = {}
    request_of: Dict[int, ScanRequest] = {}
    visible_at: Dict[int, float] = {}
    #: when each batch report appeared (within the watcher's 2 ms poll)
    finished_at: List[float] = []
    submit_lat: List[float] = []
    query_lat: List[float] = []
    lag: List[float] = []
    stop_watch = asyncio.Event()

    def stamp_visible(seen: int) -> int:
        count = len(reports)
        now = time.perf_counter()
        for report in reports[seen:count]:
            finished_at.append(now)
            for rid in report.request_ids:
                visible_at[rid] = now
        return count

    async def watcher() -> None:
        seen = 0
        while not stop_watch.is_set():
            seen = stamp_visible(seen)
            await asyncio.sleep(0.002)
        stamp_visible(seen)

    async def uploader(start: float) -> None:
        for (points, origin), offset in zip(payloads, arrivals):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(time.perf_counter() - due)
            ok, receipt = await ops.acall(
                "scan",
                client.submit_scan(LIVE_SESSION, points, origin, max_range=LIVE_RANGE_M, client_id=LIVE_SESSION),
            )
            if ok:
                submit_lat.append(time.perf_counter() - due)
                rid = receipt["request_id"]
                due_of[rid] = due
                request_of[rid] = ScanRequest(
                    LIVE_SESSION, PointCloud(points), tuple(origin), max_range=LIVE_RANGE_M, request_id=rid
                )

    async def prober(start: float) -> None:
        for index in range(int(seconds / LIVE_PROBE_PERIOD_S)):
            due = start + index * LIVE_PROBE_PERIOD_S
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag.append(time.perf_counter() - due)
            ok, _ = await ops.acall("query", client.query(LIVE_SESSION, *probe_points[index % len(probe_points)]))
            if ok:
                query_lat.append(time.perf_counter() - due)

    try:
        watch_task = asyncio.ensure_future(watcher())
        settle()
        if tracer:
            tracer.install()
        measure_start = time.perf_counter()
        clock = SpeedClock().start()
        try:
            start = measure_start + 0.05
            await asyncio.gather(uploader(start), prober(start))
            await ops.acall("flush", client.flush(LIVE_SESSION))
        finally:
            clock.stop()
            if tracer:
                tracer.wall_s = time.perf_counter() - measure_start
                tracer.uninstall()
            stop_watch.set()
            await watch_task

        rss = peak_rss_mb()
        checks = []
        ok, exported = await ops.acall("export", service.export_octree(LIVE_SESSION))
        if ok:
            checks.append(check_map("map live == sequential insertion", session, exported, request_of))
        else:
            checks.append(("map live exported", False, repr(exported)))
        visible = [visible_at[rid] - due for rid, due in due_of.items() if rid in visible_at]
        checks.append(("every admitted scan became visible", len(visible) == len(due_of), f"{len(visible)}/{len(due_of)}"))
    finally:
        await close(state)
    checks.append(("no worker process left", not multiprocessing.active_children(), ""))

    stats = session.stats
    # The shard workers apply in child processes, invisible to the probes
    # of this thread's clock, so each batch is divided by the slowdown the
    # probes measured while it ran.
    busy = [
        (report.wall_seconds, report.wall_seconds / clock.slowdown_during(end - report.wall_seconds, end))
        for report, end in zip(reports, finished_at)
    ]
    scans = sum(report.scans for report in reports)
    busy_s = [sum(times[i] for times in busy) for i in (0, 1)]
    service_rate = scans / busy_s[0]
    visible_p50, visible_p90 = latency_pair(visible, 90)
    submit_p50, submit_p99 = latency_pair(submit_lat, 99)
    query_p50, query_p99 = latency_pair(query_lat, 99)
    # Like the other workloads' map latency, the time one scan takes to be
    # applied; the queueing in front of it is in scan_visible_*.
    return Outcome(
        e2e=end_to_end(
            (service_rate, busy_s[0] / scans * 1e3), (scans / busy_s[1], busy_s[1] / scans * 1e3),
            clock.slowdown, setup, rss,
        ),
        named={
            "scan_visible_p50_ms": (visible_p50, "ms", len(visible)),
            "scan_visible_p90_ms": (visible_p90, "ms", len(visible)),
            "submit_p50_ms": (submit_p50, "ms", len(submit_lat)),
            "submit_p99_ms": (submit_p99, "ms", len(submit_lat)),
            "query_p50_ms": (query_p50, "ms", len(query_lat)),
            "query_p99_ms": (query_p99, "ms", len(query_lat)),
        },
        checks=checks,
        ops=ops,
        facts={
            "reports": list(reports),
            "queue_depth_max": stats.admission_queue_high_water,
            "generator_lag_p99_ms": percentile(lag, 99) * 1e3,
            "cache_hits": stats.cache.hits,
            "cache_lookups": stats.cache.lookups,
        },
    )


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------
def _mix_operations(seed: int, map_requests: Sequence[ScanRequest]):
    """The seeded operation sequence over a built map."""
    rng = np.random.default_rng(seed)
    origins = [np.asarray(request.origin) for request in map_requests]
    endpoints = np.concatenate([request.cloud.points for request in map_requests])
    ray_origins = np.concatenate([
        np.tile(origin, (len(request.cloud), 1)) for origin, request in zip(origins, map_requests)
    ])
    # Hot set: beam endpoints (occupied) and beam midpoints (free space).
    picks = rng.integers(0, len(endpoints), size=32)
    midpoints = 0.5 * (endpoints[picks[:16]] + ray_origins[picks[:16]])
    hot = [tuple(float(c) for c in p) for p in np.concatenate((endpoints[picks[16:]], midpoints))]
    boxes = [
        (tuple(float(c) for c in origin - (1.0, 0.6, 0.4)), tuple(float(c) for c in origin + (1.0, 0.6, 0.4)))
        for origin in origins
    ]

    def cold():
        return tuple(float(c) for c in rng.uniform((-30.0, -30.0, -5.0), (30.0, 30.0, 10.0)))

    # Raycasts, three quarters of the mix's time, cost what the ray flies
    # before it hits a wall.  They cycle through every (origin, heading
    # sector) pair in a seeded order, with a seeded heading inside the
    # sector, so each run casts the same spread of rays.
    sectors = [(origin, sector) for origin in range(len(origins)) for sector in range(MIX_RAY_SECTORS)]
    ray_plan: List[int] = []

    def ray():
        if not ray_plan:
            ray_plan.extend(int(i) for i in rng.permutation(len(sectors)))
        origin, sector = sectors[ray_plan.pop()]
        heading = 2.0 * math.pi * (sector + rng.uniform()) / MIX_RAY_SECTORS
        direction = (math.cos(heading), math.sin(heading), float(rng.uniform(-0.1, 0.1)))
        return tuple(float(c) for c in origins[origin]), direction, 8.0

    # Every block of MIX_BLOCK operations holds each kind at its exact
    # share, shuffled: the seed moves the order, not the mix.
    block = [kind for kind, share in MIX_SHARES for _ in range(round(share * MIX_BLOCK))]
    sequence = np.concatenate([rng.permutation(block) for _ in range(MIX_OPS // MIX_BLOCK)])
    operations = []
    writes = 0
    for kind in sequence:
        if kind == "point_hot":
            operations.append((kind, hot[int(rng.integers(len(hot)))]))
        elif kind == "point_cold":
            operations.append((kind, cold()))
        elif kind == "batch":
            operations.append((kind, [hot[int(rng.integers(len(hot)))] if i % 2 else cold() for i in range(16)]))
        elif kind == "raycast":
            operations.append((kind, ray()))
        elif kind == "bbox":
            operations.append((kind, boxes[int(rng.integers(len(boxes)))]))
        else:
            operations.append((kind, writes % MIX_WRITE_SCANS))
            writes += 1
    return operations, hot, cold


def run_query_mix(seed: int, seconds: float, tracer=None, repeats: int = 3) -> Outcome:
    """Closed loop, one caller: a seeded query mix over a map built in set-up."""

    def make():
        mapper = ClientSpec("mapper", MIX_SESSION, scene="corridor", num_scans=MIX_MAP_SCANS, max_range_m=10.0, dropout=0.05)
        map_requests = [
            ScanRequest.from_scan_node(MIX_SESSION, scan, max_range=10.0)
            for scan in generate_client_scans(mapper, seed=seed, beams_azimuth=32, beams_elevation=2)
        ]
        # No dropout on the 8-beam writes: one dropped beam would change a
        # write's cost by an eighth.
        writer = ClientSpec("writer", MIX_SESSION, scene="corridor", num_scans=MIX_WRITE_SCANS, max_range_m=4.0)
        write_requests = [
            ScanRequest.from_scan_node(MIX_SESSION, scan, max_range=4.0)
            for scan in generate_client_scans(writer, seed=seed, beams_azimuth=8, beams_elevation=1)
        ]
        manager = MapSessionManager(MIX_CONFIG)
        manager.create_session(MIX_SESSION)
        for request in map_requests:
            manager.submit(request)
        manager.flush_all()
        return map_requests, write_requests, manager

    (map_requests, write_requests, manager), setup = timed_setups(make, _close_manager, repeats)
    operations, hot, cold = _mix_operations(seed, map_requests)
    session = manager.get_session(MIX_SESSION)
    build_batches = len(session.pipeline.reports)
    ops = Ops()
    latency: Dict[str, List[float]] = {kind: [] for kind, _ in MIX_SHARES}
    #: point answers given since the last write: still valid at the end
    answers: List[Tuple[Tuple[float, float, float], Any]] = []
    #: write latency (wall, reference)
    writes: List[Tuple[float, float]] = []
    query_ops = 0
    calls = {
        "point_hot": lambda arg: session.query(*arg),
        "point_cold": lambda arg: session.query(*arg),
        "batch": session.query_batch,
        "raycast": lambda arg: session.raycast(*arg),
        "bbox": lambda arg: session.query_bbox(*arg),
        "write": lambda arg: manager.ingest(write_requests[arg]),
    }
    settle()
    if tracer:
        tracer.install()
    measure_start = time.perf_counter()
    clock = SpeedClock().start()
    try:
        index = 0
        while time.perf_counter() - measure_start < seconds:
            kind, arg = operations[index % len(operations)]
            index += 1
            mark = clock.read() if kind == "write" else None
            started = time.perf_counter()
            ok, result = ops.call(kind, calls[kind], arg)
            latency[kind].append(time.perf_counter() - started)
            if kind == "write":
                writes.append(clock.since(mark))
                answers.clear()
            else:
                query_ops += 1
                if ok and kind.startswith("point"):
                    answers.append((arg, result))
        loop_wall, loop_reference = clock.read()
        clock.stop()
        export_started = time.perf_counter()
        ok, exported = ops.call("export", session.export_octree)
        export_s = time.perf_counter() - export_started
    finally:
        clock.stop()
        if tracer:
            tracer.wall_s = time.perf_counter() - measure_start
            tracer.uninstall()

    rss = peak_rss_mb()
    checks = []
    if ok:
        recheck = hot + [cold() for _ in range(256)]
        mismatches = sum(not answer_matches(response, exported, point) for point, response in answers)
        mismatches += sum(not answer_matches(session.query(*point), exported, point) for point in recheck)
        checks.append((
            "sampled answers == exported tree lookups", mismatches == 0,
            f"{mismatches} of {len(answers) + len(recheck)} differ",
        ))
    else:
        checks.append(("export", False, repr(exported)))
    cache = session.stats.cache
    manager.shutdown()

    points = latency["point_hot"] + latency["point_cold"]
    point_p50, point_p99 = latency_pair(points, 99, scale=1e6)
    throughput = query_ops / loop_wall
    write_ms = [statistics.mean(entry[i] for entry in writes) * 1e3 for i in (0, 1)]
    reports = session.pipeline.reports[build_batches:]
    return Outcome(
        e2e=end_to_end(
            (throughput, write_ms[0]), (query_ops / loop_reference, write_ms[1]), clock.slowdown, setup, rss
        ),
        named={
            "query_ops_per_s": (throughput, "1/s", query_ops),
            "point_query_p50_us": (point_p50, "us", len(points)),
            "point_query_p99_us": (point_p99, "us", len(points)),
            "raycast_p50_us": (percentile(latency["raycast"], 50) * 1e6, "us", len(latency["raycast"])),
            "export_s": (export_s, "s", 1),
        },
        checks=checks,
        ops=ops,
        facts={
            "reports": reports,
            "modelled_cycles": sum(report.modelled_cycles for report in reports),
            "modelled_updates": sum(report.voxel_updates for report in reports),
            "cache_hits": cache.hits,
            "cache_lookups": cache.lookups,
        },
    )


# ---------------------------------------------------------------------------
# paper_replay
# ---------------------------------------------------------------------------
def committed_fps(dataset: str) -> float:
    """The OMU FPS of ``dataset`` in the committed Table IV reproduction."""
    for line in TABLE4.read_text().splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] == dataset:
            return float(cells[3])
    raise KeyError(f"{dataset!r} not in {TABLE4}")


def run_paper_replay(seed: int, seconds: float, tracer=None, repeats: int = 3) -> Outcome:
    """The paper's FR-079 corridor graph on the cycle model plus the software baseline.

    The input is the committed ``default``-scale graph whatever the seed:
    its modelled FPS is checked against Table IV, so it cannot vary.
    """
    descriptor = dataset_by_name(REPLAY_DATASET)
    spec = SCALES["default"][descriptor.scene]
    config = DEFAULT_CONFIG.with_resolution(descriptor.resolution_m)

    graph, setup = timed_setups(lambda: generate_scan_graph(descriptor, spec), lambda _: None, repeats)
    ops = Ops()
    #: (wall, reference) seconds of each pass
    pass_times: List[Tuple[float, float]] = []
    modelled = []
    settle()
    if tracer:
        tracer.install()
    measure_start = time.perf_counter()
    clock = SpeedClock().start()
    try:
        while True:
            pass_start = clock.read()
            accelerator = OMUAccelerator(config)
            ok, timing = ops.call("replay", accelerator.process_scan_graph, graph, spec.max_range_m)
            ops.call("sw_baseline", sw_runner.run_software_octomap, graph, descriptor.resolution_m, spec.max_range_m)
            pass_times.append(clock.since(pass_start))
            if ok:
                cycles_per_update = accelerator.map_cycles_per_update()
                latency_s = descriptor.voxel_updates_total * cycles_per_update / config.clock_hz
                modelled.append((
                    timing.voxel_updates,
                    accelerator.map_critical_path_cycles(),
                    cycles_per_update,
                    descriptor.fps_from_latency(latency_s),
                ))
            elapsed = time.perf_counter() - measure_start
            if elapsed + statistics.mean(wall for wall, _ in pass_times) > seconds:
                break
    finally:
        clock.stop()
        if tracer:
            tracer.wall_s = time.perf_counter() - measure_start
            tracer.uninstall()

    rss = peak_rss_mb()
    checks = []
    verify = verify_against_software(accelerator, graph, max_range=spec.max_range_m)
    checks.append(("accelerator map == software OctoMap", verify.equivalent, verify.summary()))
    if modelled:
        expected = committed_fps(REPLAY_DATASET)
        fps = modelled[0][3]
        checks.append(("modelled FPS == Table IV", round(fps, 2) == expected, f"{fps:.4f} vs {expected}"))
        checks.append(("modelled statistics repeat exactly", len(set(modelled)) == 1, str(modelled[0][:3])))

    updates = sum(entry[0] for entry in modelled)
    walls, references = zip(*pass_times)
    throughput = updates / sum(walls)
    return Outcome(
        e2e=end_to_end(
            (throughput, sum(walls) / len(walls) / len(graph) * 1e3),
            (updates / sum(references), sum(references) / len(references) / len(graph) * 1e3),
            clock.slowdown, setup, rss,
        ),
        named={"replay_updates_per_s": (throughput, "1/s", len(pass_times))},
        checks=checks,
        ops=ops,
        facts={
            "modelled_cycles": modelled[0][1] if modelled else 0,
            "modelled_updates": modelled[0][0] if modelled else 0,
        },
    )


WORKLOADS = {
    "ingest_bulk": run_ingest_bulk,
    "live_mapping": run_live_mapping,
    "query_mix": run_query_mix,
    "paper_replay": run_paper_replay,
}

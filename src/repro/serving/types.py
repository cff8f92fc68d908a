"""Request and response types of the occupancy-mapping service.

Everything a client exchanges with :class:`~repro.serving.manager.
MapSessionManager` is a small immutable dataclass defined here, so the
session, pipeline, query-engine and stats layers share one vocabulary and the
wire format of a future RPC front end is already pinned down.

The ``Shard*`` messages at the bottom are the *internal* wire format between
a session and its shard execution backend
(:mod:`repro.serving.backends`).  They are deliberately flat -- ints, floats,
strings, tuples and flat numpy buffers -- so every message pickles cheaply
across a process boundary.  Voxel updates travel as two aligned buffers, the
``uint64`` packed key codes of
:func:`~repro.octomap.raycast_vec.pack_key_array` and ``bool`` occupied
flags: the ray-casting front end emits them, the router splits them and the
shard's array core applies them, with no per-update Python object anywhere
between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.scheduler import VoxelUpdateRequest
from repro.octomap.pointcloud import PointCloud, ScanNode
from repro.octomap.raycast_vec import pack_key_array, unpack_key_array

__all__ = [
    "InvalidScanError",
    "ScanRequest",
    "IngestReceipt",
    "ApplyTicket",
    "BatchReport",
    "QueryResponse",
    "BoxOccupancySummary",
    "BboxChunk",
    "RaycastResponse",
    "ShardUpdateBatch",
    "ShardApplyResult",
    "ShardQueryRequest",
    "ShardQueryResult",
    "ShardExportResult",
    "ShardSnapshot",
]


class InvalidScanError(ValueError):
    """A scan refused at admission because no map could integrate it.

    Raised before the scan is queued (non-finite coordinates, a sensor
    origin outside the addressable volume), so a bad scan never reaches a
    flush, never fail-stops its session and never costs the good scans
    batched with it.  The HTTP front end answers it with 400 ``bad_value``.
    """


@dataclass(frozen=True)
class ScanRequest:
    """One client scan awaiting ingestion into a map session.

    Attributes:
        session_id: name of the map session the scan belongs to.
        cloud: scan points already expressed in the world frame.
        origin: sensor origin in the world frame.
        max_range: beam truncation range (``-1`` disables truncation).
        priority: larger values are served first by the priority scheduler.
        deadline_s: absolute service deadline on the ``time.monotonic`` clock
            (earliest-deadline-first scheduling; a request popped for a flush
            after its deadline is counted as a deadline miss); ``inf`` means
            "no deadline".
        client_id: opaque client tag carried through to the stats layer.
        request_id: service-assigned monotonically increasing id; also the
            FIFO tiebreaker of every scheduler, so equal-priority /
            equal-deadline requests keep arrival order.
    """

    session_id: str
    cloud: PointCloud
    origin: Tuple[float, float, float]
    max_range: float = -1.0
    priority: int = 0
    deadline_s: float = math.inf
    client_id: str = ""
    request_id: int = -1

    def __post_init__(self) -> None:
        # A NaN or infinite coordinate has no voxel: refuse it here, at
        # admission, rather than inside a background flush.
        if not np.isfinite(self.cloud.points).all():
            raise InvalidScanError("scan points must be finite (no NaN or infinity)")
        if not all(math.isfinite(value) for value in self.origin):
            raise InvalidScanError(f"scan origin must be finite, got {tuple(self.origin)!r}")

    @classmethod
    def from_scan_node(
        cls,
        session_id: str,
        scan: ScanNode,
        max_range: float = -1.0,
        priority: int = 0,
        deadline_s: float = math.inf,
        client_id: str = "",
    ) -> "ScanRequest":
        """Build a request from a dataset scan node (world-frame conversion included)."""
        origin = scan.origin()
        return cls(
            session_id=session_id,
            cloud=scan.world_cloud(),
            origin=(float(origin[0]), float(origin[1]), float(origin[2])),
            max_range=max_range,
            priority=priority,
            deadline_s=deadline_s,
            client_id=client_id,
        )

    def with_request_id(self, request_id: int) -> "ScanRequest":
        """Copy of this request carrying the service-assigned id."""
        return replace(self, request_id=request_id)


@dataclass(frozen=True)
class IngestReceipt:
    """Acknowledgement returned when a scan request is accepted."""

    request_id: int
    session_id: str
    num_points: int
    queue_depth: int


@dataclass(frozen=True)
class BatchReport:
    """Summary of one dispatched ingestion batch.

    Attributes:
        session_id: session the batch belonged to.
        batch_id: per-session batch sequence number.
        request_ids: requests in dispatch order (the scheduler's order).
        scans: number of scans coalesced into the batch.
        rays_cast: beams ray-cast by the shared front end.
        ray_voxels_visited: voxel visits before de-duplication.
        voxel_updates: updates actually dispatched after de-duplication.
        duplicates_removed: visits removed by the overlapping-ray de-dup.
        shard_updates: updates dispatched to each shard (index = shard id).
        modelled_cycles: nominal critical-path cycles of the batch
            (slowest shard; the shard workers run in parallel).  See
            :mod:`repro.serving.array_core` for the nominal cost; exact
            cycle accounting lives only on ``OMUAccelerator``.
        wall_seconds: host-side wall-clock time spent processing the batch
            (front end + dispatch + drain wait; for a pipelined batch the
            drain wait is whatever remained of the apply after the next
            batch's front end ran alongside it).
        fanout_seconds: portion of ``wall_seconds`` spent inside the shard
            execution backend (dispatch + drain wait); the rest is the
            shared ray-casting front end.
        frontend_seconds: portion of ``wall_seconds`` spent in the shared
            ray-casting front end (pop + DDA + de-dup + partition).
        drain_wait_seconds: time the parent spent blocked waiting for the
            shard acknowledgements of *this* batch.  In pipelined mode this
            shrinks towards zero as the overlap hides the apply.
        pipelined: True when the batch went through the double-buffered
            (``apply_async``/``drain``) path.
        overlapped: True when this batch's front end ran while a previous
            batch was still in flight on the workers (the overlap window the
            pipelined mode exists to open).
        backend: name of the shard execution backend that applied the batch.
        deadline_misses: requests in the batch whose ``deadline_s`` had
            already passed (on the ``time.monotonic`` clock) when the
            scheduler popped them for this flush.
    """

    session_id: str
    batch_id: int
    request_ids: Tuple[int, ...]
    scans: int
    rays_cast: int
    ray_voxels_visited: int
    voxel_updates: int
    duplicates_removed: int
    shard_updates: Tuple[int, ...]
    modelled_cycles: int
    wall_seconds: float
    fanout_seconds: float = 0.0
    frontend_seconds: float = 0.0
    drain_wait_seconds: float = 0.0
    pipelined: bool = False
    overlapped: bool = False
    backend: str = "inline"
    deadline_misses: int = 0


@dataclass(frozen=True)
class QueryResponse:
    """Answer to one point occupancy query.

    Attributes:
        status: ``"occupied"``, ``"free"`` or ``"unknown"``.
        probability: occupancy probability, or ``None`` when unknown.
        shard_id: shard that owns (or would own) the voxel.
        cached: True when the answer came from the query cache.
        cycles: nominal service cycles (0 for a cache hit).
    """

    status: str
    probability: Optional[float]
    shard_id: int
    cached: bool = False
    cycles: int = 0

    @property
    def occupied(self) -> bool:
        """Shorthand collision predicate."""
        return self.status == "occupied"


@dataclass(frozen=True)
class BoxOccupancySummary:
    """Aggregate of a bounding-box occupancy sweep."""

    occupied: int
    free: int
    unknown: int
    voxels_scanned: int
    cache_hits: int

    @property
    def any_occupied(self) -> bool:
        """True when at least one voxel inside the box is occupied."""
        return self.occupied > 0


@dataclass(frozen=True)
class BboxChunk:
    """One bounded slice of a streamed bounding-box sweep.

    :meth:`~repro.serving.query_engine.QueryEngine.iter_bbox` yields these
    instead of materialising a whole-box result, so a network front end can
    relay each slice as one chunked-transfer frame while the sweep is still
    running.

    Attributes:
        index: zero-based position of the chunk within its sweep.
        voxels: classified voxel centres ``(x, y, z, status)`` in sweep
            order, at most the sweep's ``chunk_voxels`` of them.
        occupied / free / unknown: per-status counts within this chunk.
        cache_hits: chunk lookups served from the query cache.
        voxels_total: size of the *whole* sweep in voxels (every chunk
            carries it, so a consumer can report progress from any frame).
    """

    index: int
    voxels: Tuple[Tuple[float, float, float, str], ...]
    occupied: int
    free: int
    unknown: int
    cache_hits: int
    voxels_total: int


@dataclass(frozen=True)
class RaycastResponse:
    """Result of a collision ray query.

    Attributes:
        hit: whether the ray struck an occupied voxel.
        hit_point: metric centre of the struck voxel (``None`` when no hit).
        distance: metric distance from the origin to the hit point.
        voxels_traversed: voxels inspected along the ray.
        cache_hits: inspections served from the query cache.
    """

    hit: bool
    hit_point: Optional[Tuple[float, float, float]]
    distance: float
    voxels_traversed: int
    cache_hits: int


# ---------------------------------------------------------------------------
# Shard backend wire messages (session <-> shard execution backend)
# ---------------------------------------------------------------------------
#: Largest key component a packed code can carry (16-bit fields).
_KEY_COMPONENT_LIMIT = 1 << 16


def as_array(values, dtype) -> np.ndarray:
    """``values`` as an ndarray of ``dtype``, copying only to convert.

    ``np.asarray(values, dtype=...)`` copies an unpickled array whose dtype
    is equal to, but not the same object as, the requested one; this is
    what a batch crossing a process pipe would pay on every hop.
    """
    array = np.asarray(values)
    return array if array.dtype == dtype else array.astype(dtype)


@dataclass(frozen=True, eq=False)
class ShardUpdateBatch:
    """One shard's slice of a flushed ingestion batch.

    Attributes:
        shard_id: shard the slice is addressed to.
        codes: ``uint64 (N,)`` packed voxel keys
            (:func:`~repro.octomap.raycast_vec.pack_key_array` layout: x in
            bits 32-47, y in 16-31, z in 0-15), in dispatch order.
        occupied: ``bool (N,)`` hit/miss flags aligned with ``codes``.

    Both buffers pickle as raw bytes: about 9 bytes per update plus a
    fixed header per array.  The receiving core range-checks the codes
    before it changes anything.
    """

    shard_id: int
    codes: np.ndarray = ()  # an empty slice by default
    occupied: np.ndarray = ()

    def __post_init__(self) -> None:
        codes = as_array(self.codes, np.uint64)
        occupied = as_array(self.occupied, np.bool_)
        if codes.ndim != 1 or occupied.shape != codes.shape:
            raise ValueError(
                f"codes and occupied must be aligned (N,) arrays, got shapes "
                f"{codes.shape} and {occupied.shape}"
            )
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "occupied", occupied)

    @classmethod
    def from_updates(
        cls, shard_id: int, updates: Sequence[VoxelUpdateRequest]
    ) -> "ShardUpdateBatch":
        """Pack an ordered :class:`VoxelUpdateRequest` stream for the wire."""
        keys = np.array(
            [(update.key.x, update.key.y, update.key.z) for update in updates], dtype=np.int64
        ).reshape(-1, 3)
        occupied = np.array([update.occupied for update in updates], dtype=bool)
        return cls.from_key_arrays(shard_id, keys, occupied)

    @classmethod
    def from_key_arrays(cls, shard_id: int, keys, occupied) -> "ShardUpdateBatch":
        """Build a batch from key arrays plus ``(N,)`` occupied flags.

        ``keys`` is either ``(N,)`` packed codes, taken as they are, or an
        ``(N, 3)`` array of key components, which is packed here.  A
        component outside ``[0, 2**16)`` raises :class:`ValueError` before
        packing, since it would otherwise bleed into the neighbouring field.
        """
        keys = np.asarray(keys)
        if keys.ndim == 2:
            if keys.shape[1] != 3:
                raise ValueError(f"key components must have shape (N, 3), got {keys.shape}")
            bad = (keys < 0) | (keys >= _KEY_COMPONENT_LIMIT)
            if bad.any():
                row = keys[bad.any(axis=1)][0]
                raise ValueError(
                    f"key {tuple(row.tolist())} outside the packable range "
                    f"[0, {_KEY_COMPONENT_LIMIT})"
                )
            keys = pack_key_array(keys)
        return cls(shard_id, keys, occupied)

    @property
    def entries(self) -> Tuple[Tuple[int, int, int, bool], ...]:
        """The updates as ``(key_x, key_y, key_z, occupied)`` tuples.

        A derived, read-only view for diagnostics and tests; the serving
        path never builds it.
        """
        return tuple(zip(*unpack_key_array(self.codes).T.tolist(), self.occupied.tolist()))

    def __len__(self) -> int:
        return int(self.codes.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardUpdateBatch):
            return NotImplemented
        return (
            self.shard_id == other.shard_id
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.occupied, other.occupied)
        )

    __hash__ = None  # mutable-array payload: compared by value, never hashed


@dataclass(frozen=True)
class ApplyTicket:
    """Receipt for one asynchronously dispatched flush (double buffering).

    :meth:`~repro.serving.backends.ShardBackend.apply_async` returns a ticket
    instead of results; :meth:`~repro.serving.backends.ShardBackend.drain`
    redeems it for the per-shard acknowledgements once the workers finish.
    The backend keeps *at most one* ticket in flight, which is exactly the
    double-buffering depth: workers apply batch N while the parent ray-casts
    batch N+1.

    Attributes:
        ticket_id: backend-assigned monotonically increasing id.
        shard_ids: shards that received a non-empty slice of the batch;
            reads of these shards must barrier on the ticket before trusting
            parent-side generation stamps.
    """

    ticket_id: int
    shard_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ShardApplyResult:
    """A shard worker's acknowledgement of one applied update batch.

    Attributes:
        shard_id: shard that applied the batch.
        updates_applied: updates in the batch (echoed back for accounting).
        critical_path_cycles: nominal cycles of this batch on this shard
            (0 for an empty batch; see :mod:`repro.serving.array_core`).
        generation: the shard's write generation *after* the apply; the
            parent-side cache bookkeeping adopts this value, which keeps
            generation-stamped invalidation correct across process
            boundaries.
    """

    shard_id: int
    updates_applied: int
    critical_path_cycles: int
    generation: int


@dataclass(frozen=True)
class ShardQueryRequest:
    """One voxel-key occupancy lookup addressed to a shard."""

    shard_id: int
    key: Tuple[int, int, int]


@dataclass(frozen=True)
class ShardQueryResult:
    """A shard worker's answer to one voxel-key lookup (``cycles`` is nominal)."""

    shard_id: int
    status: str
    probability: Optional[float]
    cycles: int
    generation: int


@dataclass(frozen=True)
class ShardExportResult:
    """A shard worker's exported subtree, stamped with its write generation."""

    shard_id: int
    tree: object  # OccupancyOcTree; typed loosely to keep this module light
    generation: int


@dataclass(frozen=True)
class ShardSnapshot:
    """A durable point-in-time image of one shard's map state.

    The payload is the shard's exported subtree in the
    :mod:`repro.octomap.serialization` byte format, so a snapshot taken by
    one worker can rehydrate the shard on any other worker (live failover)
    or survive on disk between runs.  The accounting fields restore the
    shard's externally visible counters -- in particular ``generation``,
    which the query cache's invalidation stamps build on: a restored shard
    replays its un-snapshotted flushes on top of this image, each non-empty
    replayed batch bumps the generation by one, and the shard ends up at
    exactly the generation the parent last adopted.

    Attributes:
        shard_id: shard the image belongs to.
        generation: the shard's write generation when the image was taken.
        batches_applied: batches applied up to the image.
        updates_applied: voxel updates applied up to the image.
        payload: serialized subtree bytes (``serialize_tree`` format).
    """

    shard_id: int
    generation: int
    batches_applied: int
    updates_applied: int
    payload: bytes

"""Pluggable shard execution backends: inline, thread pool, process pool.

PR 2 sharded each map session over :class:`~repro.serving.sharding.
MapShardWorker` instances, but every worker still executed serially in the
caller's thread -- sharding bought modelled-hardware parallelism and zero
wall-clock speedup.  This module makes the execution substrate pluggable:

* :class:`InlineBackend` -- the reference.  Workers live in the calling
  thread and apply their slices one after another.  Zero overhead, zero
  parallelism; every other backend must be leaf-for-leaf identical to it.
* :class:`ThreadPoolBackend` -- workers live in the calling process but each
  shard's slice is applied on a thread pool.  The shard apply is a handful
  of numpy kernels, which release the GIL for part of their run; the rest
  of the flush stays serialised.
* :class:`ProcessPoolBackend` -- one OS process per shard, each owning its
  shard's :class:`~repro.serving.sharding.MapShardWorker`.  The session's
  flush fans update batches out to all shard processes and gathers their
  acknowledgements, so ingestion finally scales with cores.

Every backend speaks the same pickle-safe ``Shard*`` message vocabulary from
:mod:`repro.serving.types` and routes it through the same
:meth:`MapShardWorker.apply_message` handlers, which is what keeps the three
execution paths byte-identical (the serving equivalence property is tested
over all of them).

Cache correctness across process boundaries: the generation-stamped query
cache needs the *parent* to know each shard's write generation.  Shard state
only ever changes inside an ``apply`` round-trip (blocking, or the
``apply_async``/``drain`` pair), and every
:class:`~repro.serving.types.ShardApplyResult` carries the worker's
generation after the apply; the backend adopts that value as the parent-side
stamp when the round-trip settles.  Queries therefore validate against
exactly the generation the owning worker reported last, no matter which side
of a process boundary it lives on.

A worker process that dies (crash, OOM kill, ``terminate()``) surfaces as a
:class:`ShardBackendError` on the next interaction instead of a hang, and
:meth:`ShardBackend.close` always reaps every child, so no orphan processes
outlive the session.

Pipelined (double-buffered) dispatch: besides the blocking
:meth:`ShardBackend.apply_shard_batches`, every backend offers a
non-blocking :meth:`ShardBackend.apply_async` /
:meth:`ShardBackend.drain` pair.  ``apply_async`` hands each shard its slice
and immediately returns an :class:`~repro.serving.types.ApplyTicket` while
the workers apply in the background; ``drain`` redeems the ticket for the
acknowledgements and only then adopts the workers' write generations into
the parent-side cache bookkeeping.  At most one ticket is ever in flight
(the one-in-flight invariant); a second ``apply_async`` before the drain
raises.  Every read path -- ``query_key``, ``generation_of``,
``export_all`` -- first :meth:`ShardBackend.barrier`\\ s on the in-flight
ticket when it touches the shards being read, so no reader can observe a
half-applied generation (and, for the process backend, no query can cut in
front of a pending apply acknowledgement on the same pipe).  The inline
backend applies eagerly inside ``apply_async``, so pipelined ingestion on it
degenerates to exactly the serial reference semantics.
"""

from __future__ import annotations

import multiprocessing
import traceback
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.config import OMUConfig
from repro.octomap.octree import OccupancyOcTree
from repro.serving.sharding import MapShardWorker
from repro.serving.types import (
    ApplyTicket,
    ShardApplyResult,
    ShardExportResult,
    ShardQueryRequest,
    ShardQueryResult,
    ShardUpdateBatch,
)

__all__ = [
    "BACKEND_NAMES",
    "ApplyTicket",
    "InlineBackend",
    "ProcessPoolBackend",
    "ShardBackend",
    "ShardBackendError",
    "ThreadPoolBackend",
    "make_backend",
]


class ShardBackendError(RuntimeError):
    """A shard execution backend failed (worker crash, use after close).

    Carries enough structure for callers to tell *which* shard died and
    where it lived, instead of parsing the message:

    Attributes:
        shard_id: index of the failed shard, or ``None`` when the failure is
            not attributable to one shard (close/fail-stop guards, dispatch
            protocol violations).
        worker_id: identity of the worker that served the shard (e.g.
            ``"process:12345"`` or ``"127.0.0.1:41234"``), or ``None``.
        remote_traceback: the worker-side traceback string when the failure
            was an exception reported across the process/socket boundary.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: Optional[int] = None,
        worker_id: Optional[str] = None,
        remote_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.remote_traceback = remote_traceback

    def describe(self) -> str:
        """The message annotated with the shard/worker identity when known."""
        message = str(self)
        details = []
        if self.shard_id is not None:
            details.append(f"shard {self.shard_id}")
        if self.worker_id is not None:
            details.append(f"worker {self.worker_id}")
        if details:
            return f"{message} [{', '.join(details)}]"
        return message


class ShardBackend(ABC):
    """Executes shard work for one session; the session's only way to touch shards.

    The write path calls :meth:`apply_shard_batches` once per flushed
    ingestion batch with one :class:`ShardUpdateBatch` per shard slice -- or,
    pipelined, the non-blocking :meth:`apply_async` / :meth:`drain` pair with
    at most one :class:`~repro.serving.types.ApplyTicket` in flight.  The
    read path calls :meth:`query_key`; export stitching calls
    :meth:`export_all`; both barrier on in-flight tickets for the shards they
    touch.  Subclasses implement the ``_``-prefixed hooks; the base class
    owns the parent-side accounting (generations, per-shard update counts,
    ticket bookkeeping) so every backend reports identically.
    """

    #: registry name, e.g. ``"process"``; used by config / CLI / stats.
    name: str = "abstract"

    def __init__(self, config: OMUConfig, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.config = config
        self.num_shards = num_shards
        self.closed = False
        #: set to the failure description once a shard apply failed; the
        #: backend then refuses further use (fail-stop) because a partially
        #: applied flush leaves the sharded map inconsistent.
        self.failed: Optional[str] = None
        self._generations = [0] * num_shards
        self._updates_applied = [0] * num_shards
        self._next_ticket_id = 0
        #: the one ticket allowed in flight, paired with the subclass handle
        #: returned by :meth:`_apply_begin` (double-buffering depth of one).
        self._inflight: Optional[Tuple[ApplyTicket, object]] = None
        #: acknowledgements of the ticket settled by a barrier (or an
        #: all-empty flush) before its owner drained it: ``(ticket_id,
        #: results)``.  One slot suffices -- the one-in-flight invariant
        #: means at most one settled ticket can await its owner; a new
        #: dispatch overwrites the slot, abandoning acks nobody came for.
        self._parked: Optional[Tuple[int, List[ShardApplyResult]]] = None

    # ------------------------------------------------------------------
    # Public API (what sessions call)
    # ------------------------------------------------------------------
    def apply_shard_batches(
        self, batches: Sequence[ShardUpdateBatch]
    ) -> List[ShardApplyResult]:
        """Fan one flush's per-shard slices out to the workers and gather.

        The blocking reference path: ``apply_async`` immediately followed by
        ``drain``.  Empty slices are filtered out before dispatch; results
        come back in ``batches`` order.  Parent-side accounting (generation
        stamps, per-shard counters) is updated from the acknowledgements.

        An apply failure on any shard is fail-stop: some shards may already
        have mutated their map region while others have not, so the backend
        marks itself failed and every later interaction raises
        :class:`ShardBackendError` instead of silently serving a map that no
        longer matches the sequential reference.
        """
        ticket = self.apply_async(batches)
        return self.drain(ticket)

    def apply_async(self, batches: Sequence[ShardUpdateBatch]) -> ApplyTicket:
        """Dispatch one flush's slices without waiting for the workers.

        Returns an :class:`~repro.serving.types.ApplyTicket` the caller later
        redeems with :meth:`drain`.  Generation stamps and per-shard counters
        are *not* touched here -- they are adopted atomically at settle time,
        so a reader can never see a half-applied flush.  At most one ticket
        may be in flight; dispatching a second one raises instead of silently
        deepening the pipeline (per-shard apply order must stay the dispatch
        order for the sequential-equivalence property to hold).
        """
        self._ensure_open()
        # Health check before the empty-slice filter: a flush whose slices
        # are all empty must still surface a dead worker rather than report
        # success on a session that has lost a shard.
        self._health_check()
        if self._inflight is not None:
            raise ShardBackendError(
                f"{self.name} backend already has ticket "
                f"{self._inflight[0].ticket_id} in flight; drain it before "
                "dispatching another batch (one-in-flight invariant)"
            )
        live = [batch for batch in batches if len(batch)]
        ticket = ApplyTicket(
            ticket_id=self._next_ticket_id,
            shard_ids=tuple(batch.shard_id for batch in live),
        )
        self._next_ticket_id += 1
        if not live:
            # Nothing to apply: settle immediately so drain finds it.
            self._parked = (ticket.ticket_id, [])
            return ticket
        try:
            handle = self._apply_begin(live)
        except ShardBackendError as error:
            self.failed = str(error)
            raise
        except Exception as error:
            self.failed = f"{type(error).__name__}: {error}"
            raise ShardBackendError(
                f"shard dispatch failed on the {self.name} backend: {self.failed}"
            ) from error
        self._inflight = (ticket, handle)
        return ticket

    def drain(self, ticket: Optional[ApplyTicket] = None) -> List[ShardApplyResult]:
        """Redeem a ticket for its per-shard acknowledgements (blocking).

        With ``ticket=None`` the in-flight ticket (if any) is drained and
        ``[]`` is returned when nothing is in flight.  A ticket may be
        drained exactly once, even if a query barrier settled its results in
        the meantime (the results are held for the owner).  A worker that
        died with the batch in flight surfaces here as
        :class:`ShardBackendError` and fail-stops the backend.
        """
        self._ensure_open()
        if ticket is not None and self._parked is not None and self._parked[0] == ticket.ticket_id:
            results = self._parked[1]
            self._parked = None
            return results
        if self._inflight is None:
            if ticket is None:
                # Acknowledgements parked by a barrier stay reserved for
                # their ticket's owner (e.g. a pipelined ingestion pipeline
                # that has not finalized the batch yet); a ticketless drain
                # must not steal them.  An abandoned slot is overwritten by
                # the next settle instead of leaking.
                return []
            raise ShardBackendError(
                f"ticket {ticket.ticket_id} is not in flight on the "
                f"{self.name} backend (already drained, or never issued here)"
            )
        inflight_ticket = self._inflight[0]
        if ticket is not None and ticket.ticket_id != inflight_ticket.ticket_id:
            raise ShardBackendError(
                f"ticket {ticket.ticket_id} is not in flight on the "
                f"{self.name} backend (ticket {inflight_ticket.ticket_id} is)"
            )
        self._settle()
        results = self._parked[1]
        self._parked = None
        return results

    def barrier(self, shard_ids: Optional[Sequence[int]] = None) -> None:
        """Settle in-flight work touching the given shards (all when None).

        The read-side half of the one-in-flight invariant: every read path
        calls this before trusting generation stamps (or, for the process
        backend, before sharing a pipe with a pending apply), so no query,
        export or cache validation can observe a half-applied flush.  The
        settled acknowledgements stay parked for the ticket owner's later
        :meth:`drain`.  A no-op when nothing relevant is in flight.
        """
        self._ensure_open()
        if self._inflight is None:
            return
        ticket = self._inflight[0]
        if shard_ids is None or set(shard_ids).intersection(ticket.shard_ids):
            self._settle()

    @property
    def in_flight(self) -> Optional[ApplyTicket]:
        """The ticket currently in flight, if any (observability/tests)."""
        return self._inflight[0] if self._inflight is not None else None

    def _settle(self) -> None:
        """Collect the in-flight acknowledgements and adopt them atomically."""
        ticket, handle = self._inflight
        self._inflight = None
        try:
            results = self._apply_collect(handle)
        except ShardBackendError as error:
            self.failed = str(error)
            raise
        except Exception as error:
            self.failed = f"{type(error).__name__}: {error}"
            raise ShardBackendError(
                f"shard apply failed on the {self.name} backend: {self.failed}"
            ) from error
        for result in results:
            self._generations[result.shard_id] = result.generation
            self._updates_applied[result.shard_id] += result.updates_applied
        self._parked = (ticket.ticket_id, results)

    def query_key(self, request: ShardQueryRequest) -> ShardQueryResult:
        """Serve one voxel-key lookup from the owning shard worker.

        Barriers first when the owning shard has a batch in flight, so the
        answer always reflects every previously dispatched flush.
        """
        self._ensure_open()
        self.barrier((request.shard_id,))
        return self._query(request)

    def export_all(self) -> List[OccupancyOcTree]:
        """Gather every shard's exported subtree (concurrently where possible).

        Barriers on all in-flight work first: an export must stitch a map
        that includes every dispatched flush.
        """
        self._ensure_open()
        self.barrier()
        exports = self._export()
        return [export.tree for export in sorted(exports, key=lambda e: e.shard_id)]

    def generation_of(self, shard_id: int) -> int:
        """Parent-side write-generation stamp of one shard (cache validity).

        Guarded like every other interaction: a cache *hit* never does a
        worker round-trip, so this is the only gate that keeps cached reads
        from silently outliving a closed or fail-stopped backend.  Barriers
        on in-flight work touching the shard, so cache validation never
        accepts an entry that an already-dispatched flush is invalidating.
        """
        self._ensure_open()
        self.barrier((shard_id,))
        return self._generations[shard_id]

    @property
    def workers(self) -> List[MapShardWorker]:
        """In-process shard workers; backends without them raise.

        Raises AttributeError (not :class:`ShardBackendError`) so
        ``hasattr``/``getattr`` probing keeps its usual semantics -- but with
        a message that explains where the workers actually live.
        """
        raise AttributeError(
            f"{self.name} backend workers are not in-process; "
            "use the Shard* message API instead"
        )

    def shard_load(self) -> Tuple[int, ...]:
        """Updates applied per shard (parent-side accounting)."""
        return tuple(self._updates_applied)

    def failover_stats(self) -> Dict[str, float]:
        """Liveness/recovery counters of the backend (all zero by default).

        Backends without detect-and-recover machinery (everything in this
        module) report zeros; :class:`~repro.serving.remote.SocketBackend`
        overrides this with its snapshot/failover accounting.  The ingestion
        pipeline copies the dict into :class:`~repro.serving.stats.
        SessionStats` after every finalized batch, the same way it adopts
        ``shard_load``.
        """
        return {
            "snapshots_taken": 0,
            "failovers": 0,
            "replayed_batches": 0,
            "replayed_updates": 0,
            "recovery_wall_seconds": 0.0,
            "heartbeat_probes": 0,
            "heartbeat_failures": 0,
        }

    def close(self) -> None:
        """Release workers (processes, threads).  Idempotent.

        Safe to call with a batch in flight: the in-flight ticket is
        abandoned (its results are never adopted) and every child is still
        reaped -- a crashing session must not leak worker processes.
        """
        if not self.closed:
            self._inflight = None
            self._parked = None
            self._close()
            self.closed = True

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def _apply_begin(self, batches: Sequence[ShardUpdateBatch]) -> object:
        """Start applying non-empty shard slices; return an opaque handle.

        A backend with real concurrency dispatches here and returns without
        waiting (futures, pipe sends); the inline reference applies eagerly
        and returns the finished results as the handle.
        """

    @abstractmethod
    def _apply_collect(self, handle: object) -> List[ShardApplyResult]:
        """Wait for a ``_apply_begin`` handle; return acks in dispatch order."""

    @abstractmethod
    def _query(self, request: ShardQueryRequest) -> ShardQueryResult:
        """Serve one lookup on the owning worker."""

    @abstractmethod
    def _export(self) -> List[ShardExportResult]:
        """Export every shard's subtree and accounting snapshot."""

    def _close(self) -> None:
        """Release backend resources (default: nothing to release)."""

    def _health_check(self) -> None:
        """Hook: raise if a worker is known-dead (no-op for in-process workers)."""

    def _ensure_open(self) -> None:
        if self.closed:
            raise ShardBackendError(f"{self.name} backend is closed")
        if self.failed is not None:
            raise ShardBackendError(
                f"{self.name} backend failed earlier and is fail-stopped: {self.failed}"
            )


class _LocalWorkersMixin:
    """Shared plumbing of the backends whose workers live in-process."""

    def _make_workers(self) -> List[MapShardWorker]:
        return [
            MapShardWorker(shard_id, self.config) for shard_id in range(self.num_shards)
        ]

    @property
    def workers(self) -> List[MapShardWorker]:
        """The in-process shard workers (tests and tools may inspect them)."""
        return self._workers

    def generation_of(self, shard_id: int) -> int:
        """Live worker generation: in-process workers can be read directly,
        which also keeps out-of-band writes (tests poking a worker) visible
        to the cache.  Still guarded, so cached reads cannot outlive a
        closed or fail-stopped backend, and still barriered, so a thread
        still applying an in-flight slice cannot leak a half-bumped
        generation to cache validation."""
        self._ensure_open()
        self.barrier((shard_id,))
        return self._workers[shard_id].generation

    def _query(self, request: ShardQueryRequest) -> ShardQueryResult:
        return self._workers[request.shard_id].query_message(request)

    def _export(self) -> List[ShardExportResult]:
        return [worker.export_message() for worker in self._workers]


class InlineBackend(_LocalWorkersMixin, ShardBackend):
    """The reference backend: serial execution in the calling thread.

    ``apply_async`` applies eagerly (there is nothing to overlap with), so
    pipelined ingestion on this backend degenerates to exactly the serial
    reference semantics -- same apply order, same generations, zero
    concurrency.
    """

    name = "inline"

    def __init__(self, config: OMUConfig, num_shards: int) -> None:
        super().__init__(config, num_shards)
        self._workers = self._make_workers()

    def _apply_begin(self, batches: Sequence[ShardUpdateBatch]) -> object:
        return [self._workers[batch.shard_id].apply_message(batch) for batch in batches]

    def _apply_collect(self, handle: object) -> List[ShardApplyResult]:
        return handle


class ThreadPoolBackend(_LocalWorkersMixin, ShardBackend):
    """In-process workers fed concurrently from a thread pool.

    Each shard slice of a flush is applied on its own pool thread; slices
    never share a worker, so no locking is needed.  Queries and exports run
    on the calling thread (they are read-only between flushes).
    """

    name = "thread"

    def __init__(self, config: OMUConfig, num_shards: int) -> None:
        super().__init__(config, num_shards)
        self._workers = self._make_workers()
        self._executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="shard"
        )

    def _apply_begin(self, batches: Sequence[ShardUpdateBatch]) -> object:
        return [
            self._executor.submit(self._workers[batch.shard_id].apply_message, batch)
            for batch in batches
        ]

    def _apply_collect(self, handle: object) -> List[ShardApplyResult]:
        return [future.result() for future in handle]

    def _close(self) -> None:
        # wait=True also settles an abandoned in-flight slice: the pool
        # threads finish before their workers are released.
        self._executor.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Process pool
# ---------------------------------------------------------------------------
def _shard_worker_main(connection, shard_id: int, config: OMUConfig) -> None:
    """Entry point of one shard worker process.

    Owns this shard's accelerator and serves ``(verb, payload)`` commands
    from the parent until told to stop.  Every reply is ``("ok", payload)``
    or ``("error", message)``; an unexpected exception is reported rather
    than killing the process, so a poisoned request cannot silently lose a
    shard.
    """
    worker = MapShardWorker(shard_id, config)
    while True:
        try:
            verb, payload = connection.recv()
        except (EOFError, OSError):  # parent died: nothing left to serve
            break
        if verb == "stop":
            connection.send(("ok", None))
            break
        try:
            if verb == "apply":
                reply = worker.apply_message(payload)
            elif verb == "query":
                reply = worker.query_message(payload)
            elif verb == "export":
                reply = worker.export_message()
            else:
                raise ValueError(f"unknown shard command {verb!r}")
            connection.send(("ok", reply))
        except Exception as error:  # noqa: BLE001 - report, don't die
            connection.send(
                ("error", (f"{type(error).__name__}: {error}", traceback.format_exc()))
            )
    connection.close()


class ProcessPoolBackend(ShardBackend):
    """One OS process per shard; the only backend with true CPU parallelism.

    The parent keeps a duplex pipe per shard.  A flush *sends* every shard's
    slice before *receiving* any acknowledgement, so all shard processes
    compute concurrently while the parent waits; export gathers the same way.
    Worker death is detected on the next interaction (a broken pipe plus the
    child's exit code) and raised as :class:`ShardBackendError`.

    Args:
        config: accelerator configuration replicated into every worker.
        num_shards: worker process count.
        start_method: ``multiprocessing`` start method; defaults to ``fork``
            where available (fastest startup, works from unguarded scripts
            and the REPL) and the platform default elsewhere.  Caveat of the
            default: forking a process with *running* extra threads can
            deadlock the child on a lock another thread held at fork time --
            a parent that mixes live worker threads with this backend should
            pass ``"forkserver"`` or ``"spawn"`` explicitly (both require
            the importable-``__main__`` discipline of the multiprocessing
            docs).
    """

    name = "process"

    def __init__(
        self,
        config: OMUConfig,
        num_shards: int,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(config, num_shards)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        context = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self._connections = []
        self.processes = []
        try:
            for shard_id in range(num_shards):
                parent_end, child_end = context.Pipe(duplex=True)
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_end, shard_id, config),
                    name=f"shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                child_end.close()  # the child keeps its own handle
                self._connections.append(parent_end)
                self.processes.append(process)
        except Exception:
            self._close()
            raise

    # ------------------------------------------------------------------
    # Round-trip plumbing
    # ------------------------------------------------------------------
    def _send(self, shard_id: int, verb: str, payload) -> None:
        try:
            self._connections[shard_id].send((verb, payload))
        except (BrokenPipeError, OSError) as error:
            raise self._worker_lost(shard_id, error) from error

    def _recv(self, shard_id: int):
        try:
            status, payload = self._connections[shard_id].recv()
        except (EOFError, OSError) as error:
            raise self._worker_lost(shard_id, error) from error
        if status != "ok":
            message, remote_traceback = payload
            raise ShardBackendError(
                f"shard {shard_id} worker failed: {message}",
                shard_id=shard_id,
                worker_id=self._worker_id(shard_id),
                remote_traceback=remote_traceback,
            )
        return payload

    def _worker_id(self, shard_id: int) -> str:
        return f"process:{self.processes[shard_id].pid}"

    def _worker_lost(self, shard_id: int, error: Exception) -> ShardBackendError:
        process = self.processes[shard_id]
        process.join(timeout=1.0)
        return ShardBackendError(
            f"shard {shard_id} worker process died "
            f"(exit code {process.exitcode}): {error}",
            shard_id=shard_id,
            worker_id=self._worker_id(shard_id),
        )

    def _health_check(self) -> None:
        """Surface a dead worker *now*, even if the current interaction
        would not touch it: a session missing a shard is broken for every
        future query of that shard's region, so no interaction may silently
        succeed.  ``apply_shard_batches`` runs this hook before the
        empty-slice filter, so even an all-empty flush reports the loss."""
        for shard_id, process in enumerate(self.processes):
            if not process.is_alive():
                raise ShardBackendError(
                    f"shard {shard_id} worker process died "
                    f"(exit code {process.exitcode})",
                    shard_id=shard_id,
                    worker_id=self._worker_id(shard_id),
                )

    def _gather(self, shard_ids: Sequence[int]) -> List:
        """Receive one reply per shard, draining *every* pipe even when one
        shard reports an error -- an unread acknowledgement left behind would
        desynchronise that shard's request/reply stream for all later
        round-trips.  The first error is re-raised after the drain."""
        results: List = []
        first_error: Optional[ShardBackendError] = None
        for shard_id in shard_ids:
            try:
                results.append(self._recv(shard_id))
            except ShardBackendError as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    def _apply_begin(self, batches: Sequence[ShardUpdateBatch]) -> object:
        # Send everything without receiving: this is the fan-out that lets
        # all shard processes chew on their slices at the same time -- and,
        # pipelined, lets the parent ray-cast the next batch meanwhile.
        # (The public wrapper already ran _health_check.)
        for batch in batches:
            self._send(batch.shard_id, "apply", batch)
        return [batch.shard_id for batch in batches]

    def _apply_collect(self, handle: object) -> List[ShardApplyResult]:
        return self._gather(handle)

    def _query(self, request: ShardQueryRequest) -> ShardQueryResult:
        # The public query_key already barriered on the owning shard, so the
        # pipe cannot hold a pending apply acknowledgement that this
        # request/reply round-trip would desynchronise.
        self._health_check()
        self._send(request.shard_id, "query", request)
        return self._recv(request.shard_id)

    def _export(self) -> List[ShardExportResult]:
        self._health_check()
        for shard_id in range(self.num_shards):
            self._send(shard_id, "export", None)
        return self._gather(list(range(self.num_shards)))

    def _close(self) -> None:
        for shard_id, connection in enumerate(self._connections):
            try:
                connection.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for shard_id, process in enumerate(self.processes):
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=2.0)
        for connection in self._connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass


BACKENDS: Dict[str, Type[ShardBackend]] = {
    InlineBackend.name: InlineBackend,
    ThreadPoolBackend.name: ThreadPoolBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
}

#: The socket-transport backend lives in :mod:`repro.serving.remote` and is
#: registered by name only: importing it here would pull the whole remote
#: stack (and its worker server) into every session, so ``make_backend``
#: imports it lazily on first use.
SOCKET_BACKEND_NAME = "socket"

#: Names accepted by :class:`~repro.serving.session.SessionConfig` / the CLI.
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted((*BACKENDS, SOCKET_BACKEND_NAME)))


def make_backend(
    name: str,
    config: OMUConfig,
    num_shards: int,
    start_method: Optional[str] = None,
    workers: Sequence[str] = (),
    standby_workers: int = 1,
    snapshot_every_batches: int = 8,
    heartbeat_interval_s: float = 1.0,
    heartbeat_timeout_s: float = 5.0,
    fleet=None,
    session_id: str = "",
) -> ShardBackend:
    """Instantiate a shard execution backend by registry name.

    ``start_method`` applies to the process backend only; ``workers`` (and
    the snapshot/heartbeat knobs) to the socket backend only -- an empty
    ``workers`` tuple makes the socket backend spawn local in-process
    workers, so tests and demos need no manual orchestration.

    ``fleet`` flips the ownership model: instead of constructing a backend
    this session owns, the session *leases* execution from the given
    :class:`~repro.serving.fleet.BackendPool` and gets back a
    :class:`~repro.serving.fleet.SessionBackendView` (which must match
    ``name`` -- mixing a thread fleet into a process-backend session would
    silently change the execution substrate).
    """
    if fleet is not None:
        if fleet.backend != name:
            raise ValueError(
                f"session wants the {name!r} backend but the shared fleet "
                f"runs {fleet.backend!r} workers"
            )
        return fleet.lease(session_id, config, num_shards)
    if name == SOCKET_BACKEND_NAME:
        from repro.serving.remote import SocketBackend

        return SocketBackend(
            config,
            num_shards,
            endpoints=workers,
            standby_workers=standby_workers,
            snapshot_every_batches=snapshot_every_batches,
            heartbeat_interval_s=heartbeat_interval_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
        )
    try:
        backend_type = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        ) from None
    if backend_type is ProcessPoolBackend:
        return ProcessPoolBackend(config, num_shards, start_method=start_method)
    return backend_type(config, num_shards)

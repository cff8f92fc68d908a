"""The shard worker server: one TCP endpoint hosting map shard workers.

A worker is a small threaded TCP server around a dict of
:class:`~repro.serving.sharding.MapShardWorker` instances.  It boots empty --
the owning :class:`~repro.serving.remote.backend.SocketBackend` pushes each
shard's configuration over the wire (``attach`` for a fresh shard,
``restore`` to rehydrate a snapshot), so the worker CLI needs no session
knowledge at all.  One endpoint normally hosts one shard, but nothing below
assumes that: after a failover a surviving worker co-hosts the dead worker's
re-homed shard next to its own.

Protocol: framed ``(verb, payload)`` commands over
:class:`~repro.serving.remote.transport.Transport`, one reply per command --
``("ok", payload)`` or ``("error", {"message", "traceback"})``.  Worker-side
exceptions are reported, not fatal (same policy as the process backend's
worker loop); only transport loss or an explicit ``stop`` ends a connection.

The module doubles as the ``repro-serve-worker`` console entry point, and
:func:`spawn_local_worker` / :func:`spawn_worker_process` give tests and
demos zero-orchestration workers (in-process threads, or a real child
process for cross-process realism).
"""

from __future__ import annotations

import argparse
import signal
import socket
import subprocess
import sys
import threading
import traceback
from typing import Dict, List, Optional

from repro.serving.remote.transport import Transport, TransportError
from repro.serving.sharding import MapShardWorker

__all__ = [
    "ShardWorkerServer",
    "LocalWorkerHandle",
    "spawn_local_worker",
    "spawn_worker_process",
    "main",
]


class ShardWorkerServer:
    """Threaded TCP server hosting any number of map shard workers."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self.host, self.port = self._listener.getsockname()[:2]
        #: stable identity reported in errors and stats tables.
        self.worker_id = f"{self.host}:{self.port}"
        self._workers: Dict[int, MapShardWorker] = {}
        self._lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._stopping = threading.Event()
        self._listener_closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def start(self) -> "ShardWorkerServer":
        """Serve on a background (daemon) thread; returns immediately."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"worker-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (CLI path)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:  # listener closed: shutdown or kill
                break
            with self._lock:
                self._connections.append(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(Transport(connection),),
                name=f"worker-{self.port}-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, transport: Transport) -> None:
        while not self._stopping.is_set():
            try:
                verb, payload = transport.recv()
            except (TransportError, ValueError, EOFError):
                break  # peer gone (or unframed garbage): nothing left to serve
            if verb == "stop":
                try:
                    transport.send(("ok", None))
                except TransportError:
                    pass
                self.shutdown()
                break
            try:
                reply = ("ok", self._handle(verb, payload))
            except Exception as error:  # noqa: BLE001 - report, don't die
                reply = (
                    "error",
                    {
                        "message": f"{type(error).__name__}: {error}",
                        "traceback": traceback.format_exc(),
                    },
                )
            try:
                transport.send(reply)
            except TransportError:
                break
        transport.close()

    def _handle(self, verb: str, payload):
        if verb == "ping":
            return "pong"
        if verb == "hello":
            with self._lock:
                return {"worker_id": self.worker_id, "shards": sorted(self._workers)}
        if verb == "attach":
            shard_id, config = payload
            with self._lock:
                self._workers[shard_id] = MapShardWorker(shard_id, config)
            return shard_id
        if verb == "restore":
            snapshot, config = payload
            worker = MapShardWorker.from_snapshot(snapshot, config)
            with self._lock:
                self._workers[worker.shard_id] = worker
            return worker.shard_id
        if verb == "detach":
            with self._lock:
                self._workers.pop(payload, None)
            return payload
        if verb == "apply":
            return self._worker(payload.shard_id).apply_message(payload)
        if verb == "query":
            return self._worker(payload.shard_id).query_message(payload)
        if verb == "export":
            return self._worker(payload).export_message()
        if verb == "snapshot":
            return self._worker(payload).snapshot_message()
        raise ValueError(f"unknown worker command {verb!r}")

    def _worker(self, shard_id: int) -> MapShardWorker:
        with self._lock:
            worker = self._workers.get(shard_id)
        if worker is None:
            raise KeyError(
                f"shard {shard_id} is not hosted on worker {self.worker_id}"
            )
        return worker

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop accepting, close every connection, release the port.  Idempotent."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        # shutdown() before close(): a thread blocked in accept() holds a
        # kernel reference that outlives close(), leaving the port accepting
        # (and immediately dropping) connections; shutdown() unblocks it.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        self._listener_closed.set()
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except OSError:  # pragma: no cover
                pass

    def kill(self) -> None:
        """Die abruptly: drop the port and every connection mid-whatever.

        The fault-injection stand-in for ``kill -9`` on a worker process:
        no drain, no goodbye frame, shard state simply gone.  Clients see
        resets / torn frames on their next interaction.
        """
        self.shutdown()
        with self._lock:
            self._workers.clear()

    @property
    def alive(self) -> bool:
        """True while the server is accepting connections.

        Turns False only once the listener is closed: a shutdown that has
        begun but not yet closed the port still accepts connections.
        """
        return not self._listener_closed.is_set()


class LocalWorkerHandle:
    """Grip on a worker spawned by this process: endpoint plus kill switch."""

    def __init__(
        self,
        server: Optional[ShardWorkerServer] = None,
        process: Optional[subprocess.Popen] = None,
        endpoint: str = "",
    ) -> None:
        self.server = server
        self.process = process
        self.endpoint = endpoint or (server.worker_id if server else "")

    @property
    def alive(self) -> bool:
        """True while the worker can still serve its endpoint."""
        if self.server is not None:
            return self.server.alive
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """Abrupt death (fault injection): no drain, state lost."""
        if self.server is not None:
            self.server.kill()
        elif self.process is not None:
            self.process.kill()
            self.process.wait(timeout=10.0)

    def stop(self) -> None:
        """Graceful shutdown.  Idempotent."""
        if self.server is not None:
            self.server.shutdown()
        elif self.process is not None:
            if self.process.poll() is None:
                self.process.terminate()
            self.process.wait(timeout=10.0)


def spawn_local_worker() -> LocalWorkerHandle:
    """Start one in-process worker (daemon threads) on an ephemeral port."""
    return LocalWorkerHandle(server=ShardWorkerServer().start())


def spawn_worker_process(host: str = "127.0.0.1") -> LocalWorkerHandle:
    """Start one ``repro-serve-worker`` child process on an ephemeral port.

    Blocks until the child announces its endpoint on stdout, so the caller
    can connect immediately.  Used where process isolation matters (CLI
    smoke, cross-process tests); the in-process spawn is faster everywhere
    else.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.remote", "--host", host, "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline().strip()
    marker = "listening on "
    if marker not in line:
        process.kill()
        raise RuntimeError(f"worker process failed to start (said {line!r})")
    return LocalWorkerHandle(process=process, endpoint=line.split(marker, 1)[1])


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-serve-worker``: serve shards on one TCP endpoint until stopped."""
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description=(
            "Occupancy-map shard worker: hosts map shards for a socket-backend "
            "session. Shard configuration arrives over the wire (attach/restore), "
            "so the worker only needs an address to listen on."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks an ephemeral port (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    server = ShardWorkerServer(host=args.host, port=args.port)
    print(f"repro-serve-worker listening on {server.worker_id}", flush=True)

    def _terminate(signum, frame) -> None:
        server.shutdown()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())

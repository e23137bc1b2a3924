"""Multi-process HTTP serving: a supervised SO_REUSEPORT worker fleet.

One :class:`~repro.serve.HttpSegmentationServer` process tops out at
roughly one core of segmentation compute — the asyncio loop scales
connections, not CPU.  :class:`ServeFleet` is the scale-out layer the
ROADMAP's "millions of users" north star calls for: a supervisor that runs
**N worker processes behind one HOST:PORT**, all sharing one persistent
:class:`~repro.serve.DiskResultCache` directory as their L2 tier
(that cache was built multi-process-safe — atomic publishes, lock-file
sweeps — precisely for this).

How the one-address/many-processes trick works:

* **SO_REUSEPORT (default)** — every worker binds its *own* listening
  socket to the same address with ``SO_REUSEPORT``, and the kernel load
  balances incoming connections across the listeners.  No userspace proxy,
  no extra hop, per-worker accept queues.  The supervisor holds a bound but
  never-listening placeholder socket so the port is reserved (and a ``:0``
  request resolves to one concrete port) across worker restarts.
* **single-listener fallback** — where ``SO_REUSEPORT`` is unavailable the
  supervisor binds one listening socket and passes it to every worker
  (:mod:`multiprocessing` duplicates the descriptor), so the workers share
  a single accept queue.  Same address contract, coarser balancing.

The supervisor owns the worker lifecycle:

* **staggered startup** — workers launch ``stagger_seconds`` apart so a
  cold fleet does not stampede the disk cache or the CPU all at once;
* **liveness** — each worker streams heartbeat messages over its pipe; a
  worker that stops heartbeating (wedged) or dies (crash, SIGKILL) is
  detected by the monitor thread;
* **crash-restart with exponential backoff** — a dead worker slot is
  relaunched after a backoff that doubles on every quick failure (bounded
  by ``restart_backoff_max_seconds``) and resets once a worker survives
  ``restart_stable_seconds``;
* **fleet-wide drain** — :meth:`ServeFleet.shutdown` SIGTERMs every worker;
  each finishes its in-flight requests (the PR-4 graceful-drain path),
  reports final metrics over the pipe, and exits; the supervisor waits up
  to ``drain_grace_seconds`` before escalating to SIGKILL.

Observability spans the fleet: every worker also runs a loopback *admin*
server (an ordinary ``HttpSegmentationServer`` on ``127.0.0.1:0``) whose
``/v1/metrics`` adds the worker identity and ingress HTTP counters.
:meth:`ServeFleet.metrics` scrapes each worker and merges the snapshots by
the metric table in :mod:`repro.obs.schema` — counters sum, shared-L2
gauges take the max, and latency percentiles are re-derived from the
workers' mergeable histogram sketches rather than averaged, which would be
statistically meaningless.  The public port reaches one arbitrary worker,
so ``GET /v1/metrics`` and ``GET /v1/trace/{id}`` there answer for that
worker alone; the fleet-wide view is :meth:`ServeFleet.metrics`,
:meth:`ServeFleet.prometheus`, :meth:`ServeFleet.trace` and the drain
report built from :meth:`ServeFleet.final_metrics`.
:meth:`ServeFleet.health` reports the fleet healthy while at least one
worker is accepting connections.

CLI: ``repro-segment serve --http HOST:PORT --workers N`` (composes with
``--cache-dir``, ``--lane-weights``, ``--adaptive``).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ParameterError, ServeError
from ..obs import get_logger
from ..obs.schema import as_float, merge_worker_metrics
from ._http import DEFAULT_MAX_BODY_BYTES

__all__ = ["WorkerSpec", "ServeFleet", "merge_worker_metrics"]


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """A picklable recipe for one serving worker's full service stack.

    The fleet supervisor cannot ship live objects (engines, caches, event
    loops) into spawned processes, so workers are described by value: every
    field is a plain scalar/dict, and :meth:`build_service` constructs the
    segmenter → engine → cache → :class:`AsyncSegmentationService` stack
    inside the worker process.  The CLI builds its single-process service
    through the same spec, so ``--workers 1`` and ``--workers N`` are
    configured identically by construction.
    """

    method: str = "iqft-rgb"
    theta: float = math.pi
    seed: Optional[int] = None
    use_lut: bool = True
    executor: str = "serial"
    jobs: Optional[int] = None
    max_batch_size: int = 16
    queue_size: int = 256
    cache_entries: int = 256
    use_cache: bool = True
    cache_dir: Optional[str] = None
    lane_weights: Optional[Dict[str, int]] = None
    client_rate: Optional[float] = None
    client_burst: Optional[float] = None
    default_deadline_seconds: Optional[float] = None
    adaptive: bool = False
    adaptive_config: Optional[Any] = None  # serve.batcher.AdaptiveConfig
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Shared-memory L1.5 tier: total segment size in bytes (0 disables) and
    #: per-slot capacity (0 = library default).  ``shm_name`` is filled in by
    #: the fleet supervisor after it creates the segment — workers only ever
    #: attach, so a solo spec (no fleet) builds a cache without an shm tier.
    shm_bytes: int = 0
    shm_slot_bytes: int = 0
    shm_name: Optional[str] = None
    #: Observability: the structured-log format workers emit on stderr, the
    #: tracer's sample rate (1.0 traces everything, 0.0 disables — client
    #: supplied ``X-Repro-Trace-Id`` requests are always traced), and the
    #: per-worker flight-recorder ring size (completed traces retained).
    log_format: str = "text"
    trace_sample_rate: float = 1.0
    trace_ring: int = 256
    #: Array backend the worker's engine runs its integer kernels on (a
    #: registered name: "numpy", "torch"; ``None`` = process default, i.e.
    #: the ``REPRO_BACKEND`` environment variable or "numpy").  Fleets may
    #: mix backends per worker — every backend kernel is bit-exact, so a
    #: heterogeneous fleet still serves identical answers from one shared
    #: cache.
    backend: Optional[str] = None
    #: Dirty-tile incremental path for temporal streams (requests carrying
    #: ``X-Repro-Stream-Id``): only tiles changed since the stream's previous
    #: frame are re-segmented, bit-identical to a full recompute.
    #: ``delta_tile`` is the square grid edge in pixels (0 = library default)
    #: and ``delta_streams`` bounds the per-worker ancestor LRU.
    delta: bool = True
    delta_tile: int = 0
    delta_streams: int = 256

    @property
    def theta_used(self) -> Optional[float]:
        """The θ actually passed to the method (``None`` for θ-free methods)."""
        from ..baselines.registry import THETA_KEYWORDS

        return float(self.theta) if self.method in THETA_KEYWORDS else None

    def segmenter_kwargs(self) -> Dict[str, Any]:
        """Method-factory keyword arguments implied by this spec."""
        from ..baselines.registry import method_kwargs

        return method_kwargs(self.method, theta=self.theta, seed=self.seed)

    def build_cache(self) -> Any:
        """Memory L1 (optionally over shm L1.5 and/or disk L2), or ``None``."""
        from ..errors import CacheError
        from ._cache import ResultCache, TieredResultCache
        from ._diskcache import DiskResultCache
        from ._shmcache import SharedMemoryResultCache

        if not self.use_cache:
            return None
        memory = ResultCache(max_entries=self.cache_entries)
        shm = None
        if self.shm_name:
            try:
                shm = SharedMemoryResultCache.attach(self.shm_name)
            except CacheError:
                # /dev/shm gone, segment unlinked, or an alien superblock:
                # the worker degrades to memory + disk rather than failing.
                shm = None
        if self.cache_dir is None:
            if shm is None:
                return memory
            # No disk tier: the shm ring itself is the shared L2.
            return TieredResultCache(l1=memory, l2=shm)
        return TieredResultCache(l1=memory, l2=DiskResultCache(self.cache_dir), shm=shm)

    def build_service(self):
        """Construct the full async service stack this spec describes."""
        from ..baselines.registry import get_segmenter
        from ..engine import BatchSegmentationEngine
        from ..obs import Tracer
        from ..parallel.executor import executor_for_jobs
        from ._aio import AsyncSegmentationService

        engine = BatchSegmentationEngine(
            get_segmenter(self.method, **self.segmenter_kwargs()),
            use_lut=self.use_lut,
            executor=executor_for_jobs(self.executor, self.jobs),
            backend=self.backend,
        )
        return AsyncSegmentationService(
            engine,
            max_batch_size=self.max_batch_size,
            queue_size=self.queue_size,
            cache=self.build_cache(),
            lane_weights=dict(self.lane_weights) if self.lane_weights else None,
            client_rate=self.client_rate,
            client_burst=self.client_burst,
            default_deadline=self.default_deadline_seconds,
            adaptive=self.adaptive,
            adaptive_config=self.adaptive_config,
            tracer=Tracer(sample_rate=self.trace_sample_rate, ring_size=self.trace_ring),
            delta=self.delta,
            delta_tile_shape=(
                (int(self.delta_tile), int(self.delta_tile)) if self.delta_tile else None
            ),
            delta_max_streams=self.delta_streams,
        )


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _reuseport_socket(host: str, port: int, listen: bool = False) -> socket.socket:
    """A fresh ``SO_REUSEPORT`` socket bound to ``(host, port)``."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        if listen:
            sock.listen(128)
    except OSError:
        sock.close()
        raise
    return sock


def _send(conn, kind: str, payload: Dict[str, Any]) -> bool:  # pragma: no cover
    """Best-effort pipe send; False means the supervisor is gone.

    Worker-process side (not seen by in-process coverage); exercised end to
    end by the fleet integration tests.
    """
    try:
        conn.send((kind, payload))
        return True
    except (BrokenPipeError, OSError, ValueError):
        return False


class _AdminView:
    """The service as seen by a worker's loopback admin server.

    Delegates everything to the real service but decorates ``metrics()``
    with the worker's identity and the *ingress* server's HTTP counters, so
    a supervisor scrape of the admin port describes the worker's public
    traffic (the admin server's own counters would only describe scrapes).
    """

    def __init__(self, service: Any, ingress: Any, worker: Dict[str, Any]):
        self._service = service
        self._ingress = ingress
        self._worker = worker

    def __getattr__(self, name: str) -> Any:
        return getattr(self._service, name)

    def metrics(self) -> Dict[str, Any]:  # pragma: no cover - worker-process side
        return {
            **self._service.metrics(),
            "worker": dict(self._worker),
            "ingress_http": self._ingress.http_metrics(),
        }


async def _worker_serve(  # pragma: no cover - runs in spawned worker processes
    slot: int,
    spec: WorkerSpec,
    host: str,
    port: int,
    conn,
    listen_sock: Optional[socket.socket],
    heartbeat_interval: float,
) -> None:
    import asyncio

    from ..obs import configure_logging
    from ._http import HttpSegmentationServer

    log = configure_logging(format=spec.log_format, worker_id=slot)
    service = spec.build_service()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    sock = listen_sock if listen_sock is not None else _reuseport_socket(host, port)
    worker_info = {"slot": int(slot), "pid": os.getpid()}
    ingress = HttpSegmentationServer(service, sock=sock, max_body_bytes=spec.max_body_bytes)
    async with service:
        await ingress.start()
        admin = HttpSegmentationServer(
            _AdminView(service, ingress, worker_info), host="127.0.0.1", port=0
        )
        await admin.start()
        _send(
            conn,
            "ready",
            {**worker_info, "port": ingress.port, "admin_port": admin.port},
        )
        log.info(
            "worker.ready",
            slot=slot,
            pid=worker_info["pid"],
            port=ingress.port,
            admin_port=admin.port,
        )

        # Heartbeats must outlive the stop signal: they only cease once the
        # drain below has finished.  A worker that went silent on SIGTERM
        # would look wedged to the supervisor's liveness check and be
        # SIGKILLed mid-drain, killing the in-flight requests it was
        # gracefully finishing.
        beat_stop = asyncio.Event()

        async def _heartbeats() -> None:
            while not beat_stop.is_set():
                if not _send(conn, "heartbeat", dict(worker_info)):
                    stop.set()  # orphaned worker: supervisor pipe is gone
                    return
                try:
                    await asyncio.wait_for(beat_stop.wait(), timeout=heartbeat_interval)
                except asyncio.TimeoutError:
                    continue

        beat = asyncio.create_task(_heartbeats())
        try:
            await stop.wait()
            log.info("worker.drain", slot=slot)
        finally:
            # Drain order mirrors the single-process CLI: stop accepting,
            # finish in-flight ingress requests (they may still submit),
            # then let the service itself drain via __aexit__.
            await ingress.aclose(drain=True, close_service=False)
            await admin.aclose(drain=True, close_service=False)
            beat_stop.set()
            await asyncio.gather(beat, return_exceptions=True)
    _send(
        conn,
        "stopped",
        {**worker_info, "metrics": service.metrics(), "http": ingress.http_metrics()},
    )


def _worker_main(  # pragma: no cover - runs in spawned worker processes
    slot: int,
    spec: WorkerSpec,
    host: str,
    port: int,
    conn,
    listen_sock: Optional[socket.socket],
    heartbeat_interval: float,
) -> None:
    """Entry point of one spawned worker process."""
    import asyncio

    try:
        asyncio.run(
            _worker_serve(slot, spec, host, port, conn, listen_sock, heartbeat_interval)
        )
    except KeyboardInterrupt:  # pragma: no cover - signal-timing dependent
        pass
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


# --------------------------------------------------------------------------- #
# supervisor
# --------------------------------------------------------------------------- #
class _WorkerHandle:
    """Supervisor-side record of one worker slot's current process."""

    __slots__ = (
        "slot",
        "process",
        "conn",
        "pid",
        "admin_port",
        "state",
        "started_at",
        "last_seen",
        "final",
    )

    def __init__(self, slot: int, process, conn, started_at: float):
        self.slot = slot
        self.process = process
        self.conn = conn
        self.pid: Optional[int] = process.pid
        self.admin_port: Optional[int] = None
        self.state = "starting"  # starting -> ready -> stopped
        self.started_at = started_at
        self.last_seen = started_at
        self.final: Optional[Dict[str, Any]] = None


class ServeFleet:
    """Supervisor for N HTTP serving workers behind one address.

    Parameters
    ----------
    spec:
        The :class:`WorkerSpec` every worker builds its service from.  Point
        ``spec.cache_dir`` at a shared directory to give the fleet one
        persistent L2 cache: any worker's computed result becomes a disk hit
        for every other worker (and for the next fleet start).
    host, port:
        The public bind address; ``port=0`` picks a free port, readable
        from :attr:`port` after :meth:`start` (stable across restarts).
    workers:
        Number of worker processes.
    reuse_port:
        ``None`` (default) auto-detects ``SO_REUSEPORT``; ``False`` forces
        the shared-single-listener fallback.
    heartbeat_interval, heartbeat_timeout:
        Workers heartbeat every ``interval`` seconds; one silent for
        ``timeout`` seconds is presumed wedged and is killed + restarted.
    stagger_seconds:
        Delay between consecutive worker launches at startup.
    restart_backoff_seconds, restart_backoff_max_seconds, restart_stable_seconds:
        Crash-restart policy: the backoff starts at the base, doubles for
        every crash that happens within ``restart_stable_seconds`` of the
        launch, is capped at the max, and resets after a stable run.
    drain_grace_seconds:
        Upper bound :meth:`shutdown` waits for draining workers before
        escalating SIGTERM to SIGKILL.
    backends:
        Optional per-worker backend assignment for a heterogeneous fleet:
        a list of registered backend names cycled across worker slots
        (``["torch", "numpy"]`` with 4 workers → slots 0/2 on torch, 1/3 on
        NumPy), overriding ``spec.backend``.  Names are resolved eagerly so
        an unknown or unavailable backend fails the constructor instead of
        crash-looping spawned workers.  Because integer fast paths are
        bit-exact on every backend, a mixed fleet serves bit-identical
        answers and shares every cache tier.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        *,
        backends: Optional[List[str]] = None,
        reuse_port: Optional[bool] = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 15.0,
        stagger_seconds: float = 0.1,
        restart_backoff_seconds: float = 0.25,
        restart_backoff_max_seconds: float = 10.0,
        restart_stable_seconds: float = 5.0,
        drain_grace_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not isinstance(spec, WorkerSpec):
            raise ParameterError("spec must be a WorkerSpec")
        if workers < 1:
            raise ParameterError("workers must be >= 1")
        if heartbeat_interval <= 0 or heartbeat_timeout <= heartbeat_interval:
            raise ParameterError("heartbeat_timeout must exceed a positive heartbeat_interval")
        if stagger_seconds < 0:
            raise ParameterError("stagger_seconds must be >= 0")
        if restart_backoff_seconds <= 0 or restart_backoff_max_seconds < restart_backoff_seconds:
            raise ParameterError("restart backoff bounds are inconsistent")
        if drain_grace_seconds <= 0:
            raise ParameterError("drain_grace_seconds must be positive")
        if reuse_port is None:
            reuse_port = hasattr(socket, "SO_REUSEPORT")
        elif reuse_port and not hasattr(socket, "SO_REUSEPORT"):
            raise ParameterError("SO_REUSEPORT is not available on this platform")
        if backends is not None:
            from ..backend.registry import get_backend

            backends = [str(name) for name in backends]
            if not backends:
                raise ParameterError("backends must name at least one backend")
            for name in backends:
                get_backend(name)  # fail fast: ParameterError lists options
        self.backends = backends
        self.spec = spec
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.reuse_port = bool(reuse_port)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.stagger_seconds = float(stagger_seconds)
        self.restart_backoff_seconds = float(restart_backoff_seconds)
        self.restart_backoff_max_seconds = float(restart_backoff_max_seconds)
        self.restart_stable_seconds = float(restart_stable_seconds)
        self.drain_grace_seconds = float(drain_grace_seconds)
        self._clock = clock
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: Dict[int, _WorkerHandle] = {}
        self._backoff: Dict[int, float] = {}
        self._restart_at: Dict[int, float] = {}
        self._restarts = 0
        self._scrape_failures = 0
        self._monitor_errors = 0
        self._placeholder: Optional[socket.socket] = None
        self._listen_sock: Optional[socket.socket] = None
        self._monitor: Optional[threading.Thread] = None
        self._shm_cache: Optional[Any] = None
        #: Survives shutdown so the final report still describes the ring.
        self._shm_desc: Dict[str, Any] = {"enabled": False}
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Bind the address, launch the workers, and start the monitor."""
        if self._started:
            raise ParameterError("fleet already started")
        self._started = True
        try:
            if self.reuse_port:
                # Bound but never listening: reserves the port (and resolves a
                # ':0' request) without entering the kernel's balancing set.
                self._placeholder = _reuseport_socket(self.host, self.port)
                self.port = self._placeholder.getsockname()[1]
            else:
                self._listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                self._listen_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                self._listen_sock.bind((self.host, self.port))
                self._listen_sock.listen(128)
                self.port = self._listen_sock.getsockname()[1]
            self._create_shm_segment()
            for slot in range(self.workers):
                self._launch(slot)
                if slot + 1 < self.workers and self.stagger_seconds:
                    time.sleep(self.stagger_seconds)
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="serve-fleet-monitor", daemon=True
            )
            self._monitor.start()
        except BaseException:
            # A bind or spawn failure part-way through must not leak live
            # worker processes behind an exception the caller sees before
            # __enter__ returns (so __exit__ would never run).
            self.shutdown(drain=False)
            raise

    def _create_shm_segment(self) -> None:
        """Create the fleet's shared-memory cache ring, if the spec asks.

        The supervisor owns the segment's whole lifecycle — created here,
        unlinked in :meth:`shutdown` — so a crashed (even SIGKILLed) worker
        can never leak it: workers only attach.  An environment without
        usable shared memory (no ``/dev/shm``, no space) downgrades the
        fleet to memory + disk caching instead of failing the start.
        """
        if not (self.spec.use_cache and self.spec.shm_bytes > 0):
            return
        from ..errors import CacheError
        from ._shmcache import DEFAULT_SLOT_BYTES, SharedMemoryResultCache

        try:
            self._shm_cache = SharedMemoryResultCache.create(
                self.spec.shm_bytes,
                slot_bytes=self.spec.shm_slot_bytes or DEFAULT_SLOT_BYTES,
            )
        except CacheError as exc:
            self._shm_desc = {"enabled": False, "error": str(exc)}
            return
        self._shm_desc = {
            "enabled": True,
            "name": self._shm_cache.name,
            "slot_count": self._shm_cache.slot_count,
            "slot_bytes": self._shm_cache.slot_bytes,
        }
        self.spec = dataclasses.replace(self.spec, shm_name=self._shm_cache.name)

    def _slot_spec(self, slot: int) -> WorkerSpec:
        """The spec for one worker slot (per-slot backend in a mixed fleet)."""
        if self.backends is None:
            return self.spec
        return dataclasses.replace(self.spec, backend=self.backends[slot % len(self.backends)])

    def _launch(self, slot: int) -> None:
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                slot,
                self._slot_spec(slot),
                self.host,
                self.port,
                send_conn,
                self._listen_sock,
                self.heartbeat_interval,
            ),
            name=f"repro-serve-worker-{slot}",
        )
        try:
            process.start()
        except BaseException:
            recv_conn.close()
            send_conn.close()
            raise
        send_conn.close()  # the worker holds the only sender now
        get_logger().info("fleet.worker_launch", slot=slot, pid=process.pid)
        with self._lock:
            self._handles[slot] = _WorkerHandle(slot, process, recv_conn, self._clock())
            self._restart_at.pop(slot, None)

    def __enter__(self) -> "ServeFleet":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # monitor
    # ------------------------------------------------------------------ #
    def _handle_message(self, handle: _WorkerHandle, message: Tuple[str, Dict[str, Any]]) -> None:
        kind, payload = message
        handle.last_seen = self._clock()
        if kind == "ready":
            handle.state = "ready"
            handle.pid = int(payload.get("pid", handle.pid or 0))
            handle.admin_port = int(payload["admin_port"])
        elif kind == "stopped":
            handle.state = "stopped"
            handle.final = payload
        # heartbeats only refresh last_seen

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        while handle.conn is not None:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                try:
                    handle.conn.close()
                except OSError:
                    pass
                handle.conn = None
                return
            self._handle_message(handle, message)

    def _monitor_loop(self) -> None:
        while not self._stopping:
            try:
                self._monitor_tick()
            except Exception as exc:  # noqa: BLE001 - supervision must never die
                # A transient failure (fd pressure during a respawn, a pipe
                # racing closed) must not kill the monitor thread — losing it
                # would silently disable crash-restart for the fleet's whole
                # life.  Log it, count it, back off briefly, keep supervising.
                self._monitor_errors += 1
                get_logger().warning(
                    "fleet.monitor_error", error=type(exc).__name__, detail=str(exc)
                )
                time.sleep(0.5)

    def _monitor_tick(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
        conns = [h.conn for h in handles if h.conn is not None]
        if conns:
            try:
                multiprocessing.connection.wait(conns, timeout=0.1)
            except OSError:  # pragma: no cover - conn closed mid-wait
                pass
        else:
            time.sleep(0.1)
        now = self._clock()
        for handle in handles:
            self._drain_conn(handle)
            if self._stopping:
                return
            if handle.state == "stopped":
                # The supervisor only SIGTERMs workers *after* this thread
                # has been joined, so any clean exit observed here is
                # unsolicited (an operator or node agent signalled the pid)
                # — the slot must come back, like any other death.
                self._schedule_restart(handle, now)
                continue
            if handle.state == "dead":
                continue  # already scheduled for restart
            alive = handle.process.is_alive()
            if alive and handle.state in ("starting", "ready"):
                # "starting" workers are covered too — a worker wedged
                # before its first ready message must not stall the slot
                # forever (last_seen is the launch time until then).
                if now - handle.last_seen > self.heartbeat_timeout:
                    # Wedged: no heartbeat for the whole timeout. Kill it
                    # hard; the death path below schedules the restart.
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                    if handle.process.is_alive():  # pragma: no cover - stubborn
                        handle.process.kill()
                    alive = False
            if not alive:
                self._drain_conn(handle)  # collect any final words first
                self._schedule_restart(handle, now)
        with self._lock:
            due = [slot for slot, when in self._restart_at.items() if when <= self._clock()]
        for slot in due:
            if self._stopping:
                return
            try:
                self._launch(slot)
            except OSError:
                # Spawn failed (fd/process pressure): try again after the
                # slot's current backoff instead of abandoning it.
                with self._lock:
                    self._restart_at[slot] = self._clock() + self._backoff.get(
                        slot, self.restart_backoff_seconds
                    )
                continue
            self._restarts += 1

    def _schedule_restart(self, handle: _WorkerHandle, now: float) -> None:
        with self._lock:
            if handle.slot in self._restart_at:
                return  # already scheduled
            uptime = now - handle.started_at
            backoff = self._backoff.get(handle.slot, self.restart_backoff_seconds)
            if uptime >= self.restart_stable_seconds:
                backoff = self.restart_backoff_seconds
            next_backoff = min(backoff * 2.0, self.restart_backoff_max_seconds)
            self._backoff[handle.slot] = next_backoff
            self._restart_at[handle.slot] = now + backoff
            handle.state = "dead"
        get_logger().warning(
            "fleet.worker_restart",
            slot=handle.slot,
            pid=handle.pid,
            uptime_seconds=uptime,
            backoff_seconds=backoff,
        )
        handle.process.join(timeout=0)  # reap the zombie

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def _ready_handles(self) -> List[_WorkerHandle]:
        with self._lock:
            return [
                handle
                for handle in self._handles.values()
                if handle.state == "ready" and handle.admin_port is not None
            ]

    def _count_scrape_failure(self, handle: _WorkerHandle, reason: str) -> None:
        with self._lock:
            self._scrape_failures += 1
        get_logger().warning("fleet.scrape_failure", slot=handle.slot, reason=reason)

    def _scrape(self, handle: _WorkerHandle, path_timeout: float = 5.0) -> Optional[Dict[str, Any]]:
        from ._http_client import SegmentClient

        # A worker can die (or be killed and restarted) between being listed
        # as ready and answering the scrape, or answer with a truncated or
        # non-object body mid-crash.  Every failure mode degrades to "skip
        # this worker and count it" — an aggregate over the survivors beats
        # no aggregate at all.
        try:
            with SegmentClient("127.0.0.1", handle.admin_port, timeout=path_timeout) as client:
                snapshot = client.metrics()
        except (ServeError, OSError, ValueError) as exc:
            self._count_scrape_failure(handle, type(exc).__name__)
            return None
        if not isinstance(snapshot, dict):
            self._count_scrape_failure(handle, "malformed snapshot")
            return None
        return snapshot

    def metrics(self) -> Dict[str, Any]:
        """Aggregated fleet metrics: scrape every ready worker and merge.

        Returns the merged ``service.metrics()`` document (see
        :func:`merge_worker_metrics`), with the workers' ingress HTTP
        counters merged under ``http``, plus a ``fleet`` section and the raw
        per-worker snapshots under ``workers``.
        """
        per_worker: List[Dict[str, Any]] = []
        snapshots: List[Dict[str, Any]] = []
        for handle in self._ready_handles():
            snapshot = self._scrape(handle)
            if snapshot is None:
                continue
            worker_info = snapshot.pop("worker", {"slot": handle.slot})
            ingress_http = snapshot.pop("ingress_http", None)
            snapshot.pop("http", None)  # admin-server counters: scrapes only
            per_worker.append(
                {"worker": worker_info, "http": ingress_http, "metrics": snapshot}
            )
            snapshots.append({**snapshot, "http": ingress_http})
        merged = merge_worker_metrics(snapshots)
        merged["scrape_failures"] = self._scrape_failures
        merged["fleet"] = self.describe_fleet()
        merged["workers"] = per_worker
        return merged

    def prometheus(self) -> str:
        """The merged fleet metrics as Prometheus text exposition."""
        from ..obs import render_prometheus

        return render_prometheus(self.metrics())

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Fleet-wide flight-recorder lookup.

        SO_REUSEPORT means the supervisor cannot know which worker served a
        given request, so it asks each ready worker's admin endpoint in turn
        and returns the first retained trace (``None`` if every ring has
        evicted it).  Dead or malformed workers are skipped and counted,
        like a metrics scrape.
        """
        from ._http_client import SegmentClient

        for handle in self._ready_handles():
            try:
                with SegmentClient("127.0.0.1", handle.admin_port, timeout=5.0) as client:
                    document = client.trace(trace_id)
            except (ServeError, OSError, ValueError) as exc:
                self._count_scrape_failure(handle, type(exc).__name__)
                continue
            if document is not None:
                return document
        return None

    def traces(self, slowest: int = 10) -> List[Dict[str, Any]]:
        """The fleet's ``slowest`` retained traces, merged across workers."""
        from ._http_client import SegmentClient

        collected: List[Dict[str, Any]] = []
        for handle in self._ready_handles():
            try:
                with SegmentClient("127.0.0.1", handle.admin_port, timeout=5.0) as client:
                    documents = client.traces(slowest=slowest)
            except (ServeError, OSError, ValueError) as exc:
                self._count_scrape_failure(handle, type(exc).__name__)
                continue
            collected.extend(doc for doc in documents if isinstance(doc, dict))
        collected.sort(key=lambda doc: as_float(doc.get("duration_seconds")), reverse=True)
        return collected[: max(int(slowest), 0)]

    def final_metrics(self) -> Dict[str, Any]:
        """Merged *final* snapshots reported by workers as they drained.

        Only workers that exited cleanly (SIGTERM drain) report one; a
        SIGKILLed worker's counters die with it and are visible only in
        earlier live scrapes.  Each final report's ingress HTTP counters
        merge under ``http``, as in :meth:`metrics`.
        """
        with self._lock:
            finals = [
                handle.final for handle in self._handles.values() if handle.final is not None
            ]
        snapshots = [
            {**final["metrics"], "http": final.get("http")}
            for final in finals
            if "metrics" in final
        ]
        merged = merge_worker_metrics(snapshots)
        merged["fleet"] = self.describe_fleet()
        merged["workers"] = finals
        return merged

    def health(self) -> Dict[str, Any]:
        """Fleet-aware readiness: healthy while ≥1 worker accepts traffic."""
        from ._http_client import SegmentClient

        workers = []
        accepting = 0
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            ok = False
            if handle.state == "ready" and handle.admin_port is not None:
                try:
                    with SegmentClient("127.0.0.1", handle.admin_port, timeout=2.0) as client:
                        ok = client.health().get("status_code") == 200
                except ServeError:
                    ok = False
            accepting += bool(ok)
            workers.append(
                {
                    "slot": handle.slot,
                    "pid": handle.pid,
                    "state": handle.state,
                    "accepting": bool(ok),
                }
            )
        return {
            "status": "ok" if accepting else "unavailable",
            "accepting": accepting,
            "workers": workers,
        }

    def describe_fleet(self) -> Dict[str, Any]:
        """Static + lifecycle facts about the fleet itself."""
        with self._lock:
            alive = sum(1 for h in self._handles.values() if h.process.is_alive())
            ready = sum(1 for h in self._handles.values() if h.state == "ready")
            pids = {h.slot: h.pid for h in self._handles.values()}
        shm = dict(self._shm_desc)
        return {
            "workers": self.workers,
            "alive": alive,
            "ready": ready,
            "restarts": self._restarts,
            "scrape_failures": self._scrape_failures,
            "monitor_errors": self._monitor_errors,
            "reuse_port": self.reuse_port,
            "host": self.host,
            "port": self.port,
            "pids": pids,
            "shm": shm,
            "backends": {
                slot: self._slot_spec(slot).backend or "default"
                for slot in range(self.workers)
            },
        }

    @property
    def restarts(self) -> int:
        """Total crash/wedge restarts performed by the supervisor."""
        return self._restarts

    def worker_pids(self) -> List[int]:
        """PIDs of the current worker processes (restarts change them)."""
        with self._lock:
            return [h.pid for h in self._handles.values() if h.pid and h.process.is_alive()]

    def wait_ready(self, timeout: float = 30.0, workers: Optional[int] = None) -> bool:
        """Block until ``workers`` (default: all) workers are accepting."""
        target = self.workers if workers is None else int(workers)
        deadline = self._clock() + float(timeout)
        while self._clock() < deadline:
            with self._lock:
                ready = sum(1 for h in self._handles.values() if h.state == "ready")
            if ready >= target:
                return True
            time.sleep(0.05)
        return False

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the fleet: SIGTERM every worker, wait for the drain, escalate.

        With ``drain=True`` each worker finishes its in-flight requests and
        reports final metrics before exiting (collect them afterwards with
        :meth:`final_metrics`).  ``drain=False`` skips the grace period and
        kills immediately.  Idempotent.
        """
        if not self._started or self._stopping:
            return
        self._stopping = True
        get_logger().info("fleet.shutdown", drain=drain, workers=self.workers)
        if self._monitor is not None:
            # Wait for the monitor to actually exit before snapshotting the
            # handles: a restart `_launch` that was already past the stopping
            # check may register a brand-new worker, and bailing early would
            # leave that worker orphaned (and the port still served).  The
            # monitor has no unbounded waits, so this join terminates.
            while self._monitor.is_alive():
                self._monitor.join(timeout=1.0)
        with self._lock:
            handles = list(self._handles.values())
        grace = self.drain_grace_seconds if timeout is None else float(timeout)
        if drain:
            for handle in handles:
                if handle.process.is_alive():
                    handle.process.terminate()  # SIGTERM: workers drain
            deadline = self._clock() + grace
            while self._clock() < deadline:
                for handle in handles:
                    self._drain_conn(handle)
                if all(not handle.process.is_alive() for handle in handles):
                    break
                time.sleep(0.05)
        for handle in handles:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
            self._drain_conn(handle)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                handle.conn = None
        for sock in (self._placeholder, self._listen_sock):
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        self._placeholder = None
        self._listen_sock = None
        if self._shm_cache is not None:
            # Every worker is dead by now; the owner unlinks the segment so
            # nothing survives in /dev/shm past the fleet's lifetime.
            self._shm_cache.close()
            self._shm_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServeFleet(host={self.host!r}, port={self.port}, workers={self.workers}, "
            f"reuse_port={self.reuse_port})"
        )

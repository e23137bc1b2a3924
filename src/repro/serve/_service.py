"""The streaming segmentation service: queue → micro-batch → engine → cache.

:class:`SegmentationService` turns the one-shot
:class:`~repro.engine.BatchSegmentationEngine` into a long-lived server:

* **submit** — callers hand in one image at a time and get a
  :class:`concurrent.futures.Future` back.  The ingress queue is bounded, so a
  producer that outruns the engine either blocks (default) or gets a
  :class:`~repro.errors.ServiceOverloadedError` — memory stays flat under
  overload instead of OOMing.
* **cache** — before a request is queued, a content-addressed
  :class:`~repro.serve.ResultCache` lookup (image digest + engine config
  digest) answers repeats instantly.  The cache stores the raw per-image
  :class:`~repro.base.SegmentationResult`; scoring against the request's own
  ground truth happens per request, so one cached segmentation serves
  differently-annotated copies of the same image.
* **micro-batching** — a worker thread coalesces queued requests through a
  :class:`~repro.serve.MicroBatcher` (flush on batch size or
  deadline) and hands each batch to the batch pipeline shared with the
  async front end, which dedupes identical images *within* the batch and
  scatters the distinct ones over the engine's executor.
* **metrics** — throughput, latency percentiles
  (:class:`repro.metrics.runtime.LatencyRecorder`), cache hit rate, queue
  depth and batch-shape statistics via :meth:`SegmentationService.metrics`.
* **graceful shutdown** — :meth:`close` drains queued work before the worker
  exits (or cancels it with ``drain=False``); the service is a context
  manager.
"""

from __future__ import annotations

import threading
import time
import queue as queue_module
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..engine import BatchSegmentationEngine, PipelineResult
from ..errors import ParameterError, ServiceClosedError, ServiceOverloadedError
from ..metrics.runtime import LatencyRecorder
from ..obs.trace import Tracer
from ._aio import Outcome, _cache_get, _score_group, process_batch
from ._batcher import MicroBatcher
from ._cache import CacheKey, ResultCache, config_digest, engine_fingerprint, image_digest

__all__ = ["SegmentationService"]


class _Request:
    """One in-flight request: payload, cache key, future, and timing."""

    __slots__ = ("image", "ground_truth", "void_mask", "key", "future", "submitted_at", "trace")

    def __init__(self, image, ground_truth, void_mask, key, submitted_at, trace=None):
        self.image = image
        self.ground_truth = ground_truth
        self.void_mask = void_mask
        self.key = key
        self.future: "Future[PipelineResult]" = Future()
        self.submitted_at = submitted_at
        self.trace = trace


class SegmentationService:
    """A micro-batching, caching segmentation server over a batch engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.BatchSegmentationEngine` that does the
        actual work (its executor is reused to scatter each micro-batch).
    max_batch_size, max_wait_seconds, queue_size:
        Micro-batcher knobs — see :class:`~repro.serve.MicroBatcher`.
    cache:
        ``None`` to disable caching, the string ``"default"`` for a
        256-entry in-memory LRU, or any object with ``get(key) ->
        value|None`` and ``put(key, value)`` — a
        :class:`~repro.serve.ResultCache`, a
        :class:`~repro.serve.DiskResultCache`, or the two stacked
        as a :class:`~repro.serve.TieredResultCache` (memory L1 over a
        persistent disk L2 shared across processes).
    clock:
        Monotonic time source used for every latency/uptime measurement,
        injectable for deterministic tests.  Never wall-clock
        (``time.time``): a system clock step must not distort deadlines,
        TTLs, or latency percentiles.

    The worker thread starts lazily on the first :meth:`submit` (or
    explicitly via :meth:`start`); ``with SegmentationService(...) as svc:``
    guarantees a drained shutdown.
    """

    def __init__(
        self,
        engine: BatchSegmentationEngine,
        max_batch_size: int = 16,
        max_wait_seconds: float = 0.005,
        queue_size: int = 64,
        cache: Any = "default",
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ):
        if not isinstance(engine, BatchSegmentationEngine):
            raise ParameterError("engine must be a BatchSegmentationEngine instance")
        self.engine = engine
        if cache == "default":
            cache = ResultCache(max_entries=256)
        if cache is not None and not (
            callable(getattr(cache, "get", None)) and callable(getattr(cache, "put", None))
        ):
            raise ParameterError('cache must provide get/put, be None, or "default"')
        self.cache = cache
        self._clock = clock
        self._config_digest = config_digest(engine_fingerprint(engine))
        self._batcher = MicroBatcher(
            max_batch_size=max_batch_size,
            max_wait_seconds=max_wait_seconds,
            queue_size=queue_size,
        )
        self._latency = LatencyRecorder()
        self._lock = threading.Lock()
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        self._started_at: Optional[float] = None
        self._requests = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._coalesced = 0
        self.tracer = tracer if tracer is not None else Tracer(clock=clock)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "SegmentationService":
        """Start the worker thread (idempotent); returns ``self``."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._worker is None:
                self._started_at = self._clock()
                self._worker = threading.Thread(
                    target=self._worker_loop, name="repro-serve-worker", daemon=True
                )
                self._worker.start()
        return self

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down: reject new submits, then drain or cancel queued work.

        With ``drain=True`` (default) every request already accepted is still
        processed before the worker exits — the graceful path.  With
        ``drain=False`` queued-but-unstarted requests are cancelled (their
        futures transition to cancelled) and only the batch currently being
        processed finishes.  Idempotent; ``timeout`` bounds the join.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        if not drain:
            for request in self._batcher.drain():
                if request.future.cancel():
                    with self._lock:
                        self._cancelled += 1
        self._batcher.close()
        if worker is not None:
            worker.join(timeout)
            if not worker.is_alive():
                # Sweep stragglers: a submit blocked on a full queue can race
                # past the closed check in the instant close() runs and land
                # its request after the worker drained and exited.  Cancel
                # them so their futures never hang.
                for request in self._batcher.drain():
                    if request.future.cancel():
                        with self._lock:
                            self._cancelled += 1

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._lock:
            return self._closed

    def __enter__(self) -> "SegmentationService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(
        self,
        image: np.ndarray,
        ground_truth: Optional[np.ndarray] = None,
        void_mask: Optional[np.ndarray] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[PipelineResult]":
        """Submit one image; returns a future resolving to a scored result.

        A cache hit resolves the future before this call returns (no queue
        round-trip).  On a miss the request enters the bounded queue:
        ``block=True`` waits for space (backpressure), ``block=False`` or an
        expired ``timeout`` raises
        :class:`~repro.errors.ServiceOverloadedError` instead.

        The image is snapshotted (copied) before it is queued, so callers may
        freely reuse or mutate their buffer after submit — the streaming
        video-frame pattern — without corrupting in-flight requests or the
        content-addressed cache.
        """
        arr = np.asarray(image)
        submitted_at = self._clock()
        # The content key drives both caching and within-batch coalescing, so
        # it is computed even when the cache is disabled.
        key: CacheKey = (image_digest(arr), self._config_digest)
        trace = self.tracer.begin()
        request = _Request(arr, ground_truth, void_mask, key, submitted_at, trace=trace)

        with self._lock:
            if self._closed:
                raise ServiceClosedError("cannot submit to a closed service")
            self._requests += 1
        if self._worker is None:
            self.start()

        cached = _cache_get(self.cache, key, trace)
        if cached is not None:
            self._settle(_score_group(self.engine, [request], *cached, cache_hit=True))
            return request.future
        # Snapshot the arrays before queueing: the digest above described the
        # buffer *now*, and the caller is free to overwrite it once submit
        # returns.  (Cache hits never queue, so they skip the copy.)
        request.image = np.array(arr, copy=True)
        if ground_truth is not None:
            request.ground_truth = np.array(ground_truth, copy=True)
        if void_mask is not None:
            request.void_mask = np.array(void_mask, copy=True)
        try:
            self._batcher.put(request, block=block, timeout=timeout)
        except queue_module.Full:
            with self._lock:
                self._requests -= 1
            raise ServiceOverloadedError(
                f"service queue is full ({self._batcher.queue_size} pending requests)"
            ) from None
        except ParameterError:
            # close() raced us between the closed check and the enqueue.
            with self._lock:
                self._requests -= 1
            raise ServiceClosedError("cannot submit to a closed service") from None
        return request.future

    def map(self, images, ground_truths=None, void_masks=None) -> List[PipelineResult]:
        """Convenience: submit a whole batch and wait for all results in order."""
        images = list(images)
        gts = list(ground_truths) if ground_truths is not None else [None] * len(images)
        voids = list(void_masks) if void_masks is not None else [None] * len(images)
        if not (len(images) == len(gts) == len(voids)):
            raise ParameterError("images, ground_truths and void_masks lengths differ")
        futures = [
            self.submit(image, gt, void) for image, gt, void in zip(images, gts, voids)
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.next_batch()
            if batch is None:
                return
            try:
                self._process(batch)
            except Exception as exc:  # noqa: BLE001 - never kill the worker silently
                failed = 0
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
                        failed += 1
                with self._lock:
                    self._failed += failed

    def _process(self, batch: List[_Request]) -> None:
        live = []
        dropped = 0
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                dropped += 1  # the caller cancelled the future while queued
        if dropped:
            with self._lock:
                self._cancelled += dropped
        if not live:
            return
        drained_at = self._clock()
        for request in live:
            if request.trace is not None:
                request.trace.add("queue.wait", request.submitted_at, drained_at)
        self._settle(process_batch(self.engine, self.cache, None, live, self._clock))

    def _settle(self, outcomes: List[Outcome]) -> None:
        """Resolve each request's future and the service counters."""
        for request, result, _, coalesced in outcomes:
            trace = request.trace
            if isinstance(result, Exception):
                request.future.set_exception(result)
                with self._lock:
                    self._failed += 1
                if trace is not None:
                    trace.annotate(error=type(result).__name__)
                    self.tracer.record(trace)
                continue
            self._latency.record(self._clock() - request.submitted_at)
            with self._lock:
                self._completed += 1
                self._coalesced += coalesced
            if trace is not None:
                self.tracer.record(trace)
            request.future.set_result(result)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot of service health and performance."""
        with self._lock:
            requests, completed = self._requests, self._completed
            failed, cancelled = self._failed, self._cancelled
            coalesced = self._coalesced
            started_at = self._started_at
        elapsed = self._clock() - started_at if started_at is not None else 0.0
        return {
            "requests": requests,
            "completed": completed,
            "failed": failed,
            "cancelled": cancelled,
            "coalesced": coalesced,
            "in_flight": requests - completed - failed - cancelled,
            "queue_depth": self._batcher.queue_depth,
            "uptime_seconds": elapsed,
            "throughput_rps": completed / elapsed if elapsed > 0 else 0.0,
            "latency_seconds": self._latency.summary(),
            "latency_sketch": self._latency.sketch(),
            "batcher": self._batcher.stats,
            "cache": self._cache_stats(),
            "trace": self.tracer.counters(),
        }

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """A completed trace from the flight recorder, or ``None``."""
        return self.tracer.get(trace_id)

    def traces(self, slowest: int = 10) -> List[Dict[str, Any]]:
        """The slowest retained traces, slowest first."""
        return self.tracer.slowest(slowest)

    def _cache_stats(self) -> Optional[Dict[str, Any]]:
        """Stats of whatever cache is attached (tiered caches report L1/L2)."""
        if self.cache is None:
            return None
        stats = getattr(self.cache, "stats", None)
        if stats is None:
            return None
        return stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)

    def describe(self) -> Dict[str, Any]:
        """Static configuration (engine + service knobs), JSON-friendly."""
        return {
            "engine": self.engine.describe(),
            "config_digest": self._config_digest,
            "max_batch_size": self._batcher.max_batch_size,
            "max_wait_seconds": self._batcher.max_wait_seconds,
            "queue_size": self._batcher.queue_size,
            "cache": (
                {
                    "max_entries": getattr(self.cache, "max_entries", None),
                    "ttl_seconds": getattr(self.cache, "ttl_seconds", None),
                }
                if self.cache is not None
                else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentationService(engine={self.engine!r}, "
            f"max_batch_size={self._batcher.max_batch_size}, "
            f"closed={self.closed})"
        )

"""The serving front end: priority lanes, deadlines, quotas.

:class:`AsyncSegmentationService` is the library's one serving core: the
HTTP edge, every fleet worker and the ``repro-segment serve`` spool driver
all run on it.  ``submit`` is a coroutine, micro-batches run through one
batch pipeline (:func:`process_batch`), and the ingress is *multi-lane*, so
it knows about request urgency:

* **work-conserving micro-batching** — an idle service drains a queued
  request at once; batches form only from requests that arrive while the
  previous batch computes (up to ``max_batch_size``), so a lone request never
  waits for a batch that cannot fill.
* **priority lanes** — every request lands in the HIGH, NORMAL or LOW lane
  (:class:`Priority`).  Batches are assembled by *weighted* draining (default
  4:2:1), so HIGH-lane latency stays bounded while a saturating LOW-lane
  backlog still makes progress — weighted fairness, not strict priority, so
  no lane can starve another forever.
* **deadline-aware shedding** — ``await submit(image, deadline=0.25)``
  promises an answer within 250 ms or an early
  :class:`~repro.errors.DeadlineExceededError`.  Admission control rejects a
  request whose estimated completion (EWMA service time × queue position)
  already exceeds its deadline — failing in microseconds instead of
  occupying queue space it cannot use — and lane draining sheds queued
  requests whose deadline passed while they waited.
* **per-client quotas** — an optional token bucket per ``client_id``
  (``client_rate`` requests/second, burst ``client_burst``) turns one noisy
  tenant into :class:`~repro.errors.QuotaExceededError` for that tenant
  instead of latency for everyone.
* **tiered caching** — any ``get``/``put`` cache works, including the
  :class:`~repro.serve.TieredResultCache` of an in-memory L1 over a
  persistent :class:`~repro.serve.DiskResultCache` L2, so a
  restarted service answers its warm set from disk, bit-identical to cold
  results.
* **graceful async shutdown** — :meth:`aclose` drains admitted work (or
  cancels it with ``drain=False``); ``async with`` gives the drained path.

The event loop never waits on I/O or on the engine: engine batches, shm and
disk cache I/O and scoring against ground truth run in the loop's default
thread executor.  The loop assembles batches, resolves futures and answers
in-memory cache hits itself (a locked dict lookup, plus widening the stored
mask when there is nothing to score), which is cheaper than the thread hop
that would carry them.  One service instance belongs to one event loop.
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import functools
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..base import SegmentationResult
from ..engine import (
    DEFAULT_DELTA_TILE_SHAPE,
    DEFAULT_MAX_STREAMS,
    BatchSegmentationEngine,
    DeltaStreamEngine,
    PipelineResult,
    binarize_largest_background,
)
from ..errors import (
    DeadlineExceededError,
    ParameterError,
    QuotaExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..metrics.runtime import LatencyRecorder
from ..obs.log import get_logger
from ..obs.schema import derive
from ..obs.trace import Trace, Tracer
from ._batcher import AdaptiveConfig, AdaptiveController
from ._cache import (
    CacheKey,
    ResultCache,
    TieredResultCache,
    TileCacheAdapter,
    config_digest,
    engine_fingerprint,
    image_digest,
)

__all__ = ["Priority", "TokenBucket", "AsyncSegmentationService", "DEFAULT_LANE_WEIGHTS"]


class Priority(enum.IntEnum):
    """Request urgency lane; lower value drains first (and more often)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2

    @classmethod
    def coerce(cls, value: Any) -> "Priority":
        """Accept a :class:`Priority`, its int value, or its name (any case)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls[value.strip().upper()]
            except KeyError:
                raise ParameterError(
                    f"priority must be one of {[p.name.lower() for p in cls]}, got {value!r}"
                ) from None
        try:
            return cls(int(value))
        except (ValueError, TypeError):
            raise ParameterError(f"invalid priority {value!r}") from None


#: Batch slots offered to each lane per weighted-drain cycle (HIGH:NORMAL:LOW).
DEFAULT_LANE_WEIGHTS: Dict[Priority, int] = {
    Priority.HIGH: 4,
    Priority.NORMAL: 2,
    Priority.LOW: 1,
}

#: EWMA smoothing for the per-request service-time estimate.
_EWMA_ALPHA = 0.2

#: Idle poll period of the worker while waiting for traffic or close.
_IDLE_POLL_SECONDS = 0.05

#: Sweep fully-refilled (idle) client token buckets once the table holds
#: this many — bounds memory when client ids are ephemeral (UUIDs, conn ids).
_BUCKET_SWEEP_THRESHOLD = 1024


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second up to ``burst`` capacity.

    Not thread-safe on purpose — it is only touched from the event loop.
    """

    def __init__(self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ParameterError("rate must be positive")
        if burst < 1:
            raise ParameterError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        now = self._clock()
        elapsed = max(0.0, now - self._refilled_at)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def available(self) -> float:
        """Tokens currently available (after a virtual refill)."""
        elapsed = max(0.0, self._clock() - self._refilled_at)
        return min(self.burst, self._tokens + elapsed * self.rate)


class _AsyncRequest:
    """One queued request: payload, lane, absolute deadline, asyncio future."""

    __slots__ = (
        "image",
        "ground_truth",
        "void_mask",
        "key",
        "priority",
        "deadline_at",
        "client_id",
        "future",
        "submitted_at",
        "trace",
        "stream_id",
    )

    def __init__(
        self,
        image,
        ground_truth,
        void_mask,
        key,
        priority,
        deadline_at,
        client_id,
        future,
        submitted_at,
        trace=None,
        stream_id=None,
    ):
        self.image = image
        self.ground_truth = ground_truth
        self.void_mask = void_mask
        self.key = key
        self.priority = priority
        self.deadline_at = deadline_at
        self.client_id = client_id
        self.future = future
        self.submitted_at = submitted_at
        self.trace = trace
        self.stream_id = stream_id


def _score_request(
    engine: BatchSegmentationEngine,
    ground_truth: Optional[np.ndarray],
    void_mask: Optional[np.ndarray],
    segmentation: SegmentationResult,
    binary: Optional[np.ndarray],
    cache_hit: bool,
    coalesced: bool,
) -> PipelineResult:
    """The per-request evaluation protocol (admission hits and batches alike).

    A cache hit labels nothing, so it reports a label time of 0.0 rather
    than the stored time of the request that computed it.
    """
    tagged = dataclasses.replace(
        segmentation,
        runtime_seconds=0.0 if cache_hit else segmentation.runtime_seconds,
        extras={**segmentation.extras, "cache_hit": cache_hit, "coalesced": coalesced},
    )
    if ground_truth is None and binary is not None:
        # No annotation to score against: the pre-computed binarization is
        # the entire evaluation protocol.  Caches hold it as uint8; callers
        # get the int64 mask the pipeline produces (and their own copy).
        return PipelineResult(segmentation=tagged, binary=binary.astype(np.int64), metrics={})
    return engine.pipeline.score(tagged, ground_truth, void_mask)


def _segment_image(engine: BatchSegmentationEngine, image: np.ndarray):
    # Module-level so batches stay picklable for process executors; exceptions
    # are returned, not raised, to keep per-image isolation inside a batch.
    try:
        return engine.segment(image)
    except Exception as exc:  # reprolint: disable=RL004 returned and set on the request future
        return exc


def _traced_get(cache: Any, key: CacheKey, trace: Optional[Trace] = None) -> Optional[Any]:
    """``cache.get``; a trace-aware cache also records one span per tier probed."""
    if trace is not None and getattr(cache, "supports_trace", False):
        return cache.get(key, trace=trace)
    return cache.get(key)


def _recheck_cache(cache: Any, key: CacheKey, trace: Optional[Trace] = None) -> Optional[Any]:
    """The batch pipeline's cache re-check, in a ``cache.probe`` span (tier spans nested).

    Runs on an executor thread.  The request's lookup was counted at
    admission, so the library's own caches are asked for membership first,
    which counts nothing, and looked up (and counted) only on a hit.  Any
    other cache gets a plain lookup: a wrapper may rely on seeing each key
    twice.  The split goes by type, as in :func:`_admission_probes`.
    """
    if cache is None:
        return None
    start = trace.clock() if trace is not None else 0.0
    if isinstance(cache, (ResultCache, TieredResultCache)) and key not in cache:
        value = None
    else:
        value = _traced_get(cache, key, trace)
    if trace is not None:
        trace.add("cache.probe", start, trace.clock(), hit=value is not None)
    return value


def _admission_probes(cache: Any) -> Tuple[Optional[Callable], Optional[Callable]]:
    """Split the admission probe into ``(on_loop, off_loop)`` halves.

    Each half is called as ``half(key, trace)``.  An in-memory
    :class:`ResultCache` lookup is a dict access under a lock, cheaper than
    the thread hop that would carry it, so it runs on the event loop; of a
    :class:`TieredResultCache` only the L1 does, and the shm and disk tiers
    below it run on the executor.  Any other cache is probed whole on the
    executor.  The split goes by type, not by attributes, so a wrapper that
    forwards a tier's attributes (a test double, a delay injector) keeps the
    executor probe and never blocks the loop.
    """
    if cache is None:
        return None, None
    if isinstance(cache, ResultCache):
        return cache.get, None
    if isinstance(cache, TieredResultCache) and isinstance(cache.l1, ResultCache):
        return cache.get_l1, cache.get_below_l1
    return None, functools.partial(_traced_get, cache)


#: One settled request of a batch: ``(request, result-or-exception,
#: cache_hit, coalesced)``.
Outcome = Tuple[Any, Any, bool, bool]


def _score_group(
    engine: BatchSegmentationEngine,
    requests: List[Any],
    segmentation: SegmentationResult,
    binary: np.ndarray,
    cache_hit: bool,
) -> List[Outcome]:
    """Score every request sharing one segmentation; errors stay per request."""
    outcomes: List[Outcome] = []
    for position, request in enumerate(requests):
        coalesced = not cache_hit and position > 0
        trace = request.trace
        if trace is not None:
            trace.annotate(cache_hit=cache_hit, coalesced=coalesced)
            score_start = trace.clock()
        try:
            result = _score_request(
                engine,
                request.ground_truth,
                request.void_mask,
                segmentation,
                binary,
                cache_hit,
                coalesced,
            )
        except Exception as exc:  # reprolint: disable=RL004 returned as the request's outcome
            outcomes.append((request, exc, cache_hit, coalesced))
            continue
        if trace is not None:
            trace.add("scoring", score_start, trace.clock())
        outcomes.append((request, result, cache_hit, coalesced))
    return outcomes


def process_batch(
    engine: BatchSegmentationEngine,
    cache: Any,
    delta: Optional[DeltaStreamEngine],
    batch: List[Any],
    clock: Callable[[], float],
) -> List[Outcome]:
    """The batch pipeline: coalesce → re-check cache → compute → binarize → store → score.

    The service runs each micro-batch through this function on an executor
    thread.  ``batch`` holds request objects carrying ``image``, ``key``,
    ``trace``, ``ground_truth`` and ``void_mask`` (plus ``stream_id`` when
    ``delta`` is given).  Returns one :data:`Outcome` per request; the
    caller resolves its own futures and counters.
    """
    # Coalesce identical images: one evaluation per distinct content key.
    groups: Dict[CacheKey, List[Any]] = {}
    for request in batch:
        groups.setdefault(request.key, []).append(request)

    outcomes: List[Outcome] = []
    streamed: List[CacheKey] = []
    scattered: List[CacheKey] = []
    for key, requests in groups.items():
        # Re-check the cache: a request that missed at admission may have
        # been computed by an earlier batch while it sat in the queue.
        cached = _recheck_cache(cache, key, requests[0].trace)
        if cached is not None:
            outcomes += _score_group(engine, requests, *cached, cache_hit=True)
        elif delta is not None and requests[0].stream_id is not None:
            streamed.append(key)
        else:
            scattered.append(key)

    # (key, segmentation-or-exception, compute window, groups scattered)
    computed: List[Tuple[CacheKey, Any, float, float, Optional[int]]] = []
    # Stream frames run the dirty-tile path sequentially: frame N+1 of a
    # stream diffs against frame N's committed ancestor, so scattering
    # frames of one stream across the executor would race the ancestor.
    for key in streamed:
        head = groups[key][0]
        start = clock()
        try:
            outcome: Any = delta.segment(head.image, head.stream_id)
        except Exception as exc:  # reprolint: disable=RL004 delivered on the request futures
            outcome = exc
        computed.append((key, outcome, start, clock(), None))
    if scattered:
        start = clock()
        results = engine.executor.map(
            functools.partial(_segment_image, engine),
            [groups[key][0].image for key in scattered],
        )
        end = clock()
        computed += [
            (key, outcome, start, end, len(scattered)) for key, outcome in zip(scattered, results)
        ]

    for key, outcome, start, end, batch_groups in computed:
        requests = groups[key]
        if isinstance(outcome, Exception):
            outcomes += [(request, outcome, False, False) for request in requests]
            continue
        fields: Dict[str, Any] = {
            "strategy": str(outcome.extras.get("fast_path", "direct")),
            "runtime_seconds": float(outcome.runtime_seconds),
        }
        if batch_groups is None:
            delta_stats = outcome.extras.get("delta") or {}
            fields["tiles_reused"] = int(delta_stats.get("tiles_reused", 0))
            fields["tiles_recomputed"] = int(delta_stats.get("tiles_recomputed", 0))
        else:
            # The span covers the whole scatter window (groups run
            # concurrently on the engine executor); per-image strategy and
            # runtime ride along as fields.
            fields["prepare_seconds"] = float(outcome.extras.get("prepare_seconds", 0.0))
            fields["batch_groups"] = batch_groups
        for request in requests:
            if request.trace is not None:
                request.trace.add("engine.compute", start, end, **fields)
        # The annotation-free binarization is a pure function of the labels:
        # computed once per distinct image and cached with it, so cache hits
        # for unannotated requests skip scoring entirely.  A 0/1 mask fits
        # uint8, an eighth of the int64 the binarizer returns, in every tier.
        binary = binarize_largest_background(outcome.labels).astype(np.uint8)
        if cache is not None:
            cache.put(key, (outcome, binary))
        outcomes += _score_group(engine, requests, outcome, binary, cache_hit=False)
    return outcomes


class _LaneState:
    """Queue + counters for one priority lane."""

    __slots__ = (
        "queue",
        "submitted",
        "completed",
        "shed_admission",
        "shed_expired",
        "latency",
        "delta_frames",
        "delta_tiles_reused",
        "delta_tiles_recomputed",
    )

    def __init__(self) -> None:
        self.queue: Deque[_AsyncRequest] = deque()
        self.submitted = 0
        self.completed = 0
        self.shed_admission = 0
        self.shed_expired = 0
        self.latency = LatencyRecorder()
        self.delta_frames = 0
        self.delta_tiles_reused = 0
        self.delta_tiles_recomputed = 0


class AsyncSegmentationService:
    """Asyncio serving front end over a :class:`BatchSegmentationEngine`.

    Parameters
    ----------
    engine:
        The engine doing the work; its executor computes each micro-batch.
    max_batch_size:
        Largest micro-batch.  Batching is work-conserving: whenever no batch
        is computing, everything queued (up to this size) is drained at once,
        so batches grow only from requests that arrive during a compute.
    queue_size:
        Bound on the *total* number of queued requests across all lanes;
        submits beyond it raise :class:`~repro.errors.ServiceOverloadedError`.
    cache:
        ``"default"`` (a 256-entry in-memory LRU), ``None``, or any object
        with ``get(key) -> value|None`` and ``put(key, value)`` — e.g. a
        :class:`~repro.serve.TieredResultCache` over a
        :class:`~repro.serve.DiskResultCache`.
    lane_weights:
        Batch slots per weighted-drain cycle for each lane (default 4:2:1).
    client_rate, client_burst:
        Optional per-client token-bucket quota (requests/second and burst).
        ``None`` disables quotas.
    default_deadline:
        Deadline in seconds applied to submits that do not pass their own
        (``None`` = no deadline).
    adaptive:
        Enable the adaptive control loop: every
        ``adaptive_config.tick_seconds`` the service re-derives its
        micro-batch flush size and lane drain weights from the EWMA service
        time and per-lane depth/shed telemetry
        (:class:`~repro.serve.AdaptiveController`).  The configured
        ``lane_weights`` become the per-lane floors and ``max_batch_size``
        the default batch-size ceiling — adaptation shrinks and regrows
        batches inside ``[1, max_batch_size]``, never past the configured
        bound.  Chosen values plus adjustment counts are reported under
        ``metrics()["adaptive"]``.
    adaptive_config:
        Overrides the control-loop corridor and cadence
        (:class:`~repro.serve.AdaptiveConfig`); when given, its
        ``max_batch_size`` replaces the default configured-value ceiling.
    clock:
        Monotonic time source, injectable for deterministic tests.
    tracer:
        The :class:`~repro.obs.trace.Tracer` minting and retaining
        per-request traces (the flight recorder).  Defaults to a tracer on
        the service clock at sample rate 1.0; pass
        ``Tracer(sample_rate=0.0)`` to disable tracing entirely.
    delta:
        Enable the dirty-tile incremental path for requests that carry a
        ``stream_id`` (:class:`~repro.engine.DeltaStreamEngine`): only tiles
        that changed since the stream's previous frame are re-segmented, the
        rest are stitched from the cached ancestor — bit-identical to a full
        recompute.  Requires a pointwise segmenter; otherwise stream
        requests transparently take the normal path.  Per-tile label blocks
        are additionally published through the service cache (all tiers), so
        fleet workers share tiles.
    delta_tile_shape:
        ``(H, W)`` of the delta grid (default
        :data:`~repro.engine.DEFAULT_DELTA_TILE_SHAPE`).
    delta_max_streams:
        Streams tracked before the least-recently-updated ancestor is
        dropped (a dropped stream pays one full recompute, nothing else).
    """

    def __init__(
        self,
        engine: BatchSegmentationEngine,
        max_batch_size: int = 16,
        queue_size: int = 256,
        cache: Any = "default",
        lane_weights: Optional[Dict[Priority, int]] = None,
        client_rate: Optional[float] = None,
        client_burst: Optional[float] = None,
        default_deadline: Optional[float] = None,
        adaptive: bool = False,
        adaptive_config: Optional[AdaptiveConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
        delta: bool = True,
        delta_tile_shape: Optional[Tuple[int, int]] = None,
        delta_max_streams: int = DEFAULT_MAX_STREAMS,
    ):
        if not isinstance(engine, BatchSegmentationEngine):
            raise ParameterError("engine must be a BatchSegmentationEngine instance")
        if max_batch_size < 1:
            raise ParameterError("max_batch_size must be >= 1")
        if queue_size < 1:
            raise ParameterError("queue_size must be >= 1")
        if default_deadline is not None and default_deadline <= 0:
            raise ParameterError("default_deadline must be positive or None")
        self.engine = engine
        if cache == "default":
            cache = ResultCache(max_entries=256)
        if cache is not None and not (
            callable(getattr(cache, "get", None)) and callable(getattr(cache, "put", None))
        ):
            raise ParameterError('cache must provide get/put, be None, or "default"')
        self.cache = cache
        self.max_batch_size = int(max_batch_size)
        self.queue_size = int(queue_size)
        self.default_deadline = default_deadline
        weights = dict(DEFAULT_LANE_WEIGHTS)
        if lane_weights:
            for lane, weight in lane_weights.items():
                weights[Priority.coerce(lane)] = int(weight)
        if any(weight < 1 for weight in weights.values()):
            raise ParameterError("lane weights must be >= 1")
        self.lane_weights = weights
        self._base_lane_weights = dict(weights)
        self._adaptive: Optional[AdaptiveController] = None
        if adaptive:
            if adaptive_config is None:
                # The configured batch size stays the hard ceiling: adaptive
                # may shrink batches under load and grow them back, but it
                # must never override the caller's explicit --max-batch
                # bound.  An explicit adaptive_config replaces this corridor.
                adaptive_config = AdaptiveConfig(max_batch_size=int(max_batch_size))
            self._adaptive = AdaptiveController(
                adaptive_config,
                batch_size=int(max_batch_size),
                lane_weights=weights,
            )
            # The controller may clamp the starting size into its corridor.
            self.max_batch_size = self._adaptive.batch_size
        if client_rate is not None and client_rate <= 0:
            raise ParameterError("client_rate must be positive or None")
        self.client_rate = client_rate
        self.client_burst = float(client_burst) if client_burst is not None else None
        self._clock = clock
        self._config_digest = config_digest(engine_fingerprint(engine))
        self._lanes: Dict[Priority, _LaneState] = {lane: _LaneState() for lane in Priority}
        self._buckets: Dict[Any, TokenBucket] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._worker_task: Optional["asyncio.Task[None]"] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._space: Optional[asyncio.Event] = None  # lane space freed / closing
        self._closed = False
        self._admitting = 0  # submits past the closed check, not yet queued
        self._started_at: Optional[float] = None
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._coalesced = 0
        self._quota_rejections = 0
        self._batches = 0
        self._batched_items = 0
        self._ewma_request_seconds = 0.0
        self._latency = LatencyRecorder()
        self.tracer = tracer if tracer is not None else Tracer(clock=clock)
        # Dirty-tile incremental path for stream requests.  Built even for
        # non-pointwise segmenters (it degrades to the full path itself);
        # the per-tile cache hook rides the service cache so every tier —
        # including a fleet's shared shm/disk tiers — carries tile entries.
        self._delta: Optional[DeltaStreamEngine] = None
        if delta:
            self._delta = DeltaStreamEngine(
                engine,
                tile_shape=(
                    delta_tile_shape if delta_tile_shape is not None else DEFAULT_DELTA_TILE_SHAPE
                ),
                max_streams=delta_max_streams,
                tile_cache=(
                    TileCacheAdapter(self.cache, self._config_digest)
                    if self.cache is not None
                    else None
                ),
            )
        # Slowest-recent traced completion: the exemplar attached to the
        # Prometheus latency histogram.  Refreshed when a slower request
        # lands or the current exemplar grows stale (completions-based age,
        # so an idle service keeps its last evidence).
        self._exemplar: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`aclose` has begun; new submits are rejected."""
        return self._closed

    def _ensure_worker(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._wakeup = asyncio.Event()
            self._space = asyncio.Event()
            self._started_at = self._clock()
        elif self._loop is not loop:
            raise ParameterError("AsyncSegmentationService is bound to a single event loop")
        if self._worker_task is None or self._worker_task.done():
            self._worker_task = loop.create_task(self._worker_loop())

    def begin_drain(self) -> None:
        """Reject new submits immediately; queued work keeps draining.

        This is the synchronous first phase of :meth:`aclose`, exposed for
        network front ends: flipping it turns the health check to "draining"
        (so load balancers stop routing here) while every admitted request
        still runs to completion.  Follow up with :meth:`aclose` once the
        front end's own in-flight requests have settled.
        """
        self._closed = True
        if self._wakeup is not None:
            self._wakeup.set()
        if self._space is not None:
            self._space.set()  # wake blocked submitters so they observe closed

    async def aclose(self, drain: bool = True) -> None:
        """Reject new submits, then drain (default) or shed the queued work.

        With ``drain=False`` every queued request fails fast with
        :class:`~repro.errors.ServiceClosedError`; the batch currently being
        computed still completes either way.  Idempotent, and composes with
        :meth:`begin_drain` (shedding a queue that already drained is a
        no-op).
        """
        self.begin_drain()
        if not drain:
            for lane_state in self._lanes.values():
                while lane_state.queue:
                    request = lane_state.queue.popleft()
                    if not request.future.done():
                        request.future.set_exception(
                            ServiceClosedError("service closed before the request ran")
                        )
                        self._cancelled += 1
            if self._wakeup is not None:
                self._wakeup.set()
        if self._worker_task is not None:
            await asyncio.gather(self._worker_task, return_exceptions=True)
        # Tiers holding OS resources (an shm mapping) release them here —
        # after the worker task is done, so no batch can still be writing.
        closer = getattr(self.cache, "close", None)
        if callable(closer):
            closer()

    async def __aenter__(self) -> "AsyncSegmentationService":
        self._ensure_worker()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose(drain=exc_type is None)

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _queue_depth(self) -> int:
        return sum(len(lane.queue) for lane in self._lanes.values())

    def _depth_ahead_of(self, priority: Priority) -> int:
        """Requests a new arrival in ``priority`` would realistically wait on.

        Weighted draining means lower lanes are not strictly ahead, but
        counting every request in an equal-or-higher lane is the conservative
        admission estimate — shedding early beats promising a deadline the
        queue cannot keep.
        """
        return sum(len(self._lanes[lane].queue) for lane in Priority if lane <= priority)

    def estimate_completion_seconds(self, priority: Priority) -> float:
        """EWMA service time × (queue position + 1); 0 before calibration."""
        if self._ewma_request_seconds <= 0.0:
            return 0.0
        return self._ewma_request_seconds * (self._depth_ahead_of(priority) + 1)

    def _check_quota(self, client_id: Any) -> None:
        if self.client_rate is None:
            return
        bucket = self._buckets.get(client_id)
        if bucket is None:
            if len(self._buckets) >= _BUCKET_SWEEP_THRESHOLD:
                # A fully-refilled bucket is indistinguishable from a brand
                # new one, so idle clients can be dropped without changing
                # any quota decision — keeps the table bounded when client
                # ids are ephemeral.
                self._buckets = {
                    key: b for key, b in self._buckets.items() if b.available < b.burst
                }
            burst = self.client_burst if self.client_burst is not None else self.client_rate
            bucket = TokenBucket(self.client_rate, max(1.0, burst), clock=self._clock)
            self._buckets[client_id] = bucket
        if not bucket.try_acquire():
            self._quota_rejections += 1
            raise QuotaExceededError(
                f"client {client_id!r} exceeded {self.client_rate:g} requests/s "
                f"(burst {bucket.burst:g})"
            )

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        image: np.ndarray,
        ground_truth: Optional[np.ndarray] = None,
        void_mask: Optional[np.ndarray] = None,
        *,
        priority: Any = Priority.NORMAL,
        deadline: Optional[float] = None,
        client_id: Any = None,
        block: bool = True,
        trace: Optional[Trace] = None,
        stream_id: Optional[str] = None,
    ) -> PipelineResult:
        """Segment one image and return its scored result.

        ``priority`` selects the lane (a :class:`Priority`, its name, or its
        int value).  ``deadline`` is in seconds from now; a request that
        cannot (or did not) make it raises
        :class:`~repro.errors.DeadlineExceededError`.  ``client_id`` keys the
        optional per-client quota.  With ``block=True`` (default) a submit
        that finds every lane slot taken *waits* for space (backpressure),
        while ``block=False`` raises
        :class:`~repro.errors.ServiceOverloadedError` immediately.  Deadline,
        quota and close checks are never blocking.

        A hit in the in-memory cache is answered on the event loop; an
        unannotated hit (no ``ground_truth``) never leaves it.  A miss
        snapshots ``image`` (and the masks) before its first ``await``, so
        once the submit has suspended the caller may reuse its buffer.

        ``trace`` threads an externally-owned :class:`~repro.obs.trace.Trace`
        (the HTTP edge's) through the request; without one the service's own
        tracer samples and records a trace end-to-end around the submit.

        ``stream_id`` marks the image as one frame of a temporal stream
        (the HTTP edge forwards ``X-Repro-Stream-Id`` here).  Frames of the
        same stream take the dirty-tile delta path when the service was built
        with ``delta=True``: unchanged tiles are stitched from the stream's
        previous frame instead of recomputed — bit-identical results, large
        throughput wins on slowly-changing streams.
        """
        owned = False
        if trace is None:
            trace = self.tracer.begin()
            owned = trace is not None
        if not owned:
            return await self._submit_impl(
                image,
                ground_truth,
                void_mask,
                priority=priority,
                deadline=deadline,
                client_id=client_id,
                block=block,
                trace=trace,
                stream_id=stream_id,
            )
        start = trace.clock()
        try:
            result = await self._submit_impl(
                image,
                ground_truth,
                void_mask,
                priority=priority,
                deadline=deadline,
                client_id=client_id,
                block=block,
                trace=trace,
                stream_id=stream_id,
            )
        except BaseException as exc:
            trace.annotate(error=type(exc).__name__)
            raise
        finally:
            trace.add("service.submit", start, trace.clock())
            self.tracer.record(trace)
        return result

    async def _submit_impl(
        self,
        image: np.ndarray,
        ground_truth: Optional[np.ndarray],
        void_mask: Optional[np.ndarray],
        *,
        priority: Any,
        deadline: Optional[float],
        client_id: Any,
        block: bool,
        trace: Optional[Trace],
        stream_id: Optional[str] = None,
    ) -> PipelineResult:
        if self._closed:
            raise ServiceClosedError("cannot submit to a closed service")
        self._ensure_worker()
        lane = Priority.coerce(priority)
        state = self._lanes[lane]
        if deadline is None:
            deadline = self.default_deadline
        self._check_quota(client_id)

        now = self._clock()
        if deadline is not None and deadline <= 0:
            state.shed_admission += 1
            raise DeadlineExceededError("deadline already expired at submission")

        # The digest reads the caller's buffer in place.  Nothing runs
        # between it and the snapshot below, so the two describe the same
        # bytes.
        image = np.asarray(image)
        key: CacheKey = (image_digest(image), self._config_digest)
        loop = asyncio.get_running_loop()

        # A probe below the in-memory tier yields to the executor, opening a
        # window in which aclose() could observe empty lanes and let the
        # worker exit before this request lands in its lane.  The _admitting
        # counter keeps the worker alive until every submit past the closed
        # check has either queued or returned.
        self._admitting += 1
        if trace is not None:
            trace.annotate(priority=lane.name.lower())
            if stream_id is not None:
                trace.annotate(stream_id=str(stream_id))
        try:
            on_loop, off_loop = _admission_probes(self.cache)
            probe_start = trace.clock() if trace is not None else 0.0
            cached = on_loop(key, trace) if on_loop is not None else None
            if cached is None:
                # A miss: snapshot the caller's arrays before the first
                # await.  A caller reusing its buffer while this request
                # waits (the streaming video-frame pattern) must not divorce
                # the digest from the bytes it describes; that would poison
                # the content-addressed cache.
                image = np.array(image, copy=True)
                if ground_truth is not None:
                    ground_truth = np.array(ground_truth, copy=True)
                if void_mask is not None:
                    void_mask = np.array(void_mask, copy=True)
                if off_loop is not None:
                    cached = await loop.run_in_executor(None, off_loop, key, trace)
            if trace is not None and self.cache is not None:
                trace.add("cache.probe", probe_start, trace.clock(), hit=cached is not None)
            if cached is not None:
                return await self._answer_hit(state, now, cached, ground_truth, void_mask, trace)

            if deadline is not None:
                estimate = self.estimate_completion_seconds(lane)
                if estimate > deadline:
                    state.shed_admission += 1
                    raise DeadlineExceededError(
                        f"estimated completion {estimate * 1e3:.1f} ms exceeds the "
                        f"{deadline * 1e3:.1f} ms deadline"
                    )
            assert self._space is not None  # _ensure_worker ran above
            while self._queue_depth() >= self.queue_size:
                if not block:
                    raise ServiceOverloadedError(
                        f"service queues are full ({self.queue_size} pending requests)"
                    )
                # Lost-wakeup-safe wait: clear, re-check, then wait for the
                # worker to signal freed lane space (or for close).
                self._space.clear()
                if self._queue_depth() < self.queue_size:
                    break
                await self._space.wait()
                if self._closed:
                    raise ServiceClosedError("service closed while waiting for queue space")
                if deadline is not None and self._clock() - now >= deadline:
                    state.shed_admission += 1
                    raise DeadlineExceededError(
                        "deadline expired while waiting for queue space"
                    )

            request = _AsyncRequest(
                image=image,  # the private snapshots taken above
                ground_truth=ground_truth,
                void_mask=void_mask,
                key=key,
                priority=lane,
                deadline_at=now + deadline if deadline is not None else None,
                client_id=client_id,
                future=loop.create_future(),
                submitted_at=now,
                trace=trace,
                stream_id=str(stream_id) if stream_id is not None else None,
            )
            state.submitted += 1
            state.queue.append(request)
            assert self._wakeup is not None  # _ensure_worker ran above
            self._wakeup.set()
        finally:
            self._admitting -= 1
        try:
            return await request.future
        except asyncio.CancelledError:
            self._cancelled += 1
            raise

    async def _answer_hit(
        self,
        state: _LaneState,
        submitted_at: float,
        cached: Any,
        ground_truth: Optional[np.ndarray],
        void_mask: Optional[np.ndarray],
        trace: Optional[Trace],
    ) -> PipelineResult:
        """Answer an admission cache hit without queueing it."""
        segmentation, binary = cached
        score_start = self._clock()
        score = functools.partial(
            _score_request, self.engine, ground_truth, void_mask, segmentation, binary, True, False
        )
        if ground_truth is None and binary is not None:
            result = score()  # nothing to score: widening the stored mask is the answer
        else:
            result = await asyncio.get_running_loop().run_in_executor(None, score)
        if trace is not None:
            trace.add("scoring", score_start, self._clock())
            trace.annotate(cache_hit=True)
        state.submitted += 1
        self._record_completion(state, submitted_at, trace=trace)
        return result

    async def map(
        self,
        images,
        ground_truths=None,
        void_masks=None,
        return_errors: bool = False,
        **submit_kwargs,
    ):
        """Submit a whole batch concurrently; results come back in order.

        Every submit settles before this returns — no sibling task is left
        running detached.  With ``return_errors`` (the semantics of
        :meth:`BatchSegmentationEngine.map`) a failing slot holds its
        exception instance instead of aborting the batch; the default
        re-raises the first failure after all siblings have settled.
        """
        images = list(images)
        gts = list(ground_truths) if ground_truths is not None else [None] * len(images)
        voids = list(void_masks) if void_masks is not None else [None] * len(images)
        if not (len(images) == len(gts) == len(voids)):
            raise ParameterError("images, ground_truths and void_masks lengths differ")
        results = await asyncio.gather(
            *(
                self.submit(image, gt, void, **submit_kwargs)
                for image, gt, void in zip(images, gts, voids)
            ),
            return_exceptions=True,
        )
        if not return_errors:
            for outcome in results:
                if isinstance(outcome, BaseException):
                    raise outcome
        return results

    # ------------------------------------------------------------------ #
    # worker
    # ------------------------------------------------------------------ #
    def _maybe_adapt(self) -> None:
        """One bounded control tick: re-derive batch size and lane weights."""
        controller = self._adaptive
        if controller is None:
            return
        now = self._clock()
        if not controller.due(now):
            return
        lane_stats = {
            lane: {
                "depth": len(state.queue),
                "shed": state.shed_admission + state.shed_expired,
            }
            for lane, state in self._lanes.items()
        }
        batch_size, weights, changed = controller.update(
            now, self._ewma_request_seconds, lane_stats
        )
        self.max_batch_size = batch_size
        self.lane_weights = weights
        if changed:
            get_logger().info(
                "adaptive.adjust",
                batch_size=batch_size,
                lane_weights={lane.name.lower(): weights[lane] for lane in Priority},
                ewma_request_seconds=self._ewma_request_seconds,
            )

    async def _worker_loop(self) -> None:
        assert self._wakeup is not None and self._loop is not None
        while True:
            self._maybe_adapt()
            # Wait for traffic (or for close + empty lanes, with no submit
            # still on its way into a lane).
            while self._queue_depth() == 0:
                if self._closed and self._admitting == 0:
                    return
                self._maybe_adapt()
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(), timeout=_IDLE_POLL_SECONDS)
                except asyncio.TimeoutError:
                    continue
            # Work-conserving: no batch is computing, so drain now.  Requests
            # that arrive while this batch computes form the next one.
            assembly_started = self._clock()
            batch = self._drain_batch()
            if not batch:
                continue
            started = self._clock()
            for request in batch:
                if request.trace is not None:
                    request.trace.add(
                        "batch.assemble",
                        assembly_started,
                        started,
                        batch_size=len(batch),
                    )
            try:
                outcomes = await self._loop.run_in_executor(
                    None,
                    functools.partial(
                        process_batch, self.engine, self.cache, self._delta, batch, self._clock
                    ),
                )
            except Exception as exc:  # noqa: BLE001 - never kill the worker silently
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
                        self._failed += 1
                continue
            elapsed = self._clock() - started
            per_request = elapsed / len(batch)
            if self._ewma_request_seconds <= 0.0:
                self._ewma_request_seconds = per_request
            else:
                self._ewma_request_seconds += _EWMA_ALPHA * (
                    per_request - self._ewma_request_seconds
                )
            self._batches += 1
            self._batched_items += len(batch)
            self._resolve_outcomes(outcomes)

    def _drain_batch(self) -> List[_AsyncRequest]:
        """Weighted round-robin drain; sheds queued requests past deadline."""
        now = self._clock()
        batch: List[_AsyncRequest] = []
        while len(batch) < self.max_batch_size:
            progressed = False
            for lane in Priority:
                state = self._lanes[lane]
                quota = self.lane_weights[lane]
                while quota > 0 and state.queue and len(batch) < self.max_batch_size:
                    request = state.queue.popleft()
                    if request.future.done():
                        continue  # caller went away (cancelled) while queued
                    if request.deadline_at is not None and now > request.deadline_at:
                        state.shed_expired += 1
                        request.future.set_exception(
                            DeadlineExceededError(
                                f"deadline passed after {now - request.submitted_at:.3f}s "
                                f"in the {lane.name} lane"
                            )
                        )
                        continue
                    if request.trace is not None:
                        request.trace.add(
                            "queue.wait",
                            request.submitted_at,
                            now,
                            lane=lane.name.lower(),
                        )
                    batch.append(request)
                    quota -= 1
                    progressed = True
            if not progressed:
                break
        if self._space is not None and (batch or self._queue_depth() < self.queue_size):
            self._space.set()  # lane slots freed: wake blocked submitters
        return batch

    def _resolve_outcomes(self, outcomes: List[Outcome]) -> None:
        now = self._clock()
        for request, result, cache_hit, coalesced in outcomes:
            if request.future.done():
                continue  # cancelled while computing; nothing to deliver
            if isinstance(result, BaseException):
                request.future.set_exception(result)
                self._failed += 1
                continue
            if coalesced:
                self._coalesced += 1
            state = self._lanes[request.priority]
            if not cache_hit and not coalesced:
                # Freshly computed this batch (a whole-image cache hit may
                # carry stale delta extras from the frame that produced it —
                # counting those would double-book tiles).  Runs here, on the
                # event loop thread, like every other counter mutation.
                delta_stats = result.segmentation.extras.get("delta")
                if delta_stats and request.stream_id is not None:
                    state.delta_frames += 1
                    state.delta_tiles_reused += int(delta_stats.get("tiles_reused", 0))
                    state.delta_tiles_recomputed += int(delta_stats.get("tiles_recomputed", 0))
            self._record_completion(state, request.submitted_at, now=now, trace=request.trace)
            request.future.set_result(result)

    def _record_completion(
        self,
        state: _LaneState,
        submitted_at: float,
        now: Optional[float] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        elapsed = (now if now is not None else self._clock()) - submitted_at
        state.completed += 1
        state.latency.record(elapsed)
        self._latency.record(elapsed)
        self._completed += 1
        if trace is not None:
            exemplar = self._exemplar
            if (
                exemplar is None
                or elapsed >= exemplar["seconds"]
                or self._completed - exemplar["at"] > 512
            ):
                self._exemplar = {
                    "trace_id": trace.trace_id,
                    "seconds": elapsed,
                    "at": self._completed,
                }

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, Any]:
        """JSON-friendly snapshot: totals, per-lane health, cache tiers.

        Everything here is a raw counter, gauge or sketch (a total over
        the lanes is summed from them); :func:`repro.obs.schema.derive`
        then fills the rates and ratios, exactly as a fleet merge does.
        """
        elapsed = self._clock() - self._started_at if self._started_at is not None else 0.0
        lanes = {}
        for lane in Priority:
            state = self._lanes[lane]
            lanes[lane.name.lower()] = {
                "depth": len(state.queue),
                "submitted": state.submitted,
                "completed": state.completed,
                "shed_admission": state.shed_admission,
                "shed_expired": state.shed_expired,
                "weight": self.lane_weights[lane],
                "latency_seconds": state.latency.summary(),
                "latency_sketch": state.latency.sketch(),
                "delta": {
                    "frames": state.delta_frames,
                    "tiles_reused": state.delta_tiles_reused,
                    "tiles_recomputed": state.delta_tiles_recomputed,
                },
            }
        states = self._lanes.values()
        requests = sum(state.submitted for state in states)
        expired = sum(state.shed_expired for state in states)
        snapshot = {
            "requests": requests,
            "completed": self._completed,
            "failed": self._failed,
            "cancelled": self._cancelled,
            "coalesced": self._coalesced,
            # Admitted but not yet settled: admission sheds never count as
            # requests, queued expiries do.
            "in_flight": (
                requests - self._completed - self._failed - self._cancelled - expired
            ),
            "quota_rejections": self._quota_rejections,
            "shed": {
                "admission": sum(state.shed_admission for state in states),
                "expired": expired,
            },
            "queue_depth": self._queue_depth(),
            "lanes": lanes,
            "uptime_seconds": elapsed,
            "throughput_rps": self._completed / elapsed if elapsed > 0 else 0.0,
            "latency_seconds": self._latency.summary(),
            "latency_sketch": self._latency.sketch(),
            "batches": self._batches,
            "batched_items": self._batched_items,
            "ewma_request_seconds": self._ewma_request_seconds,
            "adaptive": self._adaptive_metrics(),
            "delta": self._delta_metrics(),
            "cache": getattr(self.cache, "stats", None),
            "trace": self.tracer.counters(),
            "latency_exemplar": (
                {"trace_id": self._exemplar["trace_id"], "seconds": self._exemplar["seconds"]}
                if self._exemplar is not None
                else None
            ),
        }
        return derive(snapshot)

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """A completed trace from the flight recorder, or ``None``."""
        return self.tracer.get(trace_id)

    def traces(self, slowest: int = 10) -> List[Dict[str, Any]]:
        """The slowest retained traces, slowest first."""
        return self.tracer.slowest(slowest)

    def _delta_metrics(self) -> Optional[Dict[str, Any]]:
        if self._delta is None:
            return None
        states = self._lanes.values()
        return {
            "enabled": True,
            "supported": self._delta.supports_delta,
            "tile_shape": list(self._delta.tile_shape),
            "streams": len(self._delta.store),
            "max_streams": self._delta.store.max_streams,
            "frames": sum(state.delta_frames for state in states),
            "tiles_reused": sum(state.delta_tiles_reused for state in states),
            "tiles_recomputed": sum(state.delta_tiles_recomputed for state in states),
        }

    def _adaptive_metrics(self) -> Optional[Dict[str, Any]]:
        controller = self._adaptive
        if controller is None:
            return None
        return {
            "enabled": True,
            "ticks": controller.ticks,
            "batch_adjustments": controller.batch_adjustments,
            "weight_adjustments": controller.weight_adjustments,
            "max_batch_size": self.max_batch_size,
            "lane_weights": {lane.name.lower(): self.lane_weights[lane] for lane in Priority},
            "lane_floors": {
                lane.name.lower(): self._base_lane_weights[lane] for lane in Priority
            },
        }

    def capabilities(self) -> Dict[str, Any]:
        """The stable, machine-readable feature contract of this service.

        Served as ``GET /v1/capabilities`` so clients can discover what this
        deployment supports — API version, accepted/produced payload formats,
        the cache-key digest and delta-stream support — before sending work.
        Unlike :meth:`describe` (internal tuning knobs, free to change
        between releases), this document is part of the stable HTTP surface.
        """
        return {
            "api_version": "v1",
            "endpoints": [
                "/healthz",
                "/v1/capabilities",
                "/v1/metrics",
                "/v1/segment",
                "/v1/trace/{id}",
                "/v1/traces",
            ],
            "request_formats": [
                "application/json",
                "application/octet-stream",
                "application/x-npy",
            ],
            "response_formats": ["application/json", "application/x-npy"],
            "config_digest": self._config_digest,
            "delta_streams": self._delta is not None and self._delta.supports_delta,
        }

    def describe(self) -> Dict[str, Any]:
        """Static configuration (engine + front-end knobs), JSON-friendly."""
        return {
            "engine": self.engine.describe(),
            "config_digest": self._config_digest,
            "max_batch_size": self.max_batch_size,
            "queue_size": self.queue_size,
            "lane_weights": {lane.name.lower(): self.lane_weights[lane] for lane in Priority},
            "client_rate": self.client_rate,
            "client_burst": self.client_burst,
            "default_deadline": self.default_deadline,
            "adaptive": self._adaptive is not None,
            "delta": self._delta.describe() if self._delta is not None else None,
            "cache": repr(self.cache) if self.cache is not None else None,
            "trace_sample_rate": self.tracer.sample_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AsyncSegmentationService(engine={self.engine!r}, "
            f"max_batch_size={self.max_batch_size}, closed={self._closed})"
        )

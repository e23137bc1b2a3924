"""Micro-batching over a bounded queue: flush on size or on deadline.

:class:`MicroBatcher` is the coalescing heart of the serving layer.  Producers
push individual items through :meth:`put` (a *bounded* queue — when it is
full, backpressure either blocks the producer or rejects the item, never
growing memory without limit).  A single consumer repeatedly calls
:meth:`next_batch`, which gathers items into a batch and flushes when either

* the batch reaches ``max_batch_size`` (*size flush* — a full engine batch is
  ready, waiting longer only adds latency), or
* ``max_wait_seconds`` have elapsed since the first item of the batch arrived
  (*deadline flush* — bounded latency under light traffic), or
* the batcher is closed and the queue has drained (*close flush*).

The batcher is payload-agnostic; :class:`repro.serve.SegmentationService`
feeds it request records, but tests drive it with plain integers.

This module also hosts the **adaptive control loop** used by the async front
end: :class:`AdaptiveController` re-derives the micro-batch flush size and
the priority-lane drain weights from live telemetry (the EWMA per-request
service time, per-lane queue depths and shed counters) once per control
tick.  The controller is deliberately *bounded and gradual* — every derived
value stays inside a configured ``[min, max]`` corridor and moves by small
steps, so an adaptive service remains predictable under pathological
telemetry (a latency spike cannot flip the batch size from 1 to 512 in one
tick, and a lane's weight can never fall below its configured floor).
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ParameterError

__all__ = ["MicroBatcher", "AdaptiveConfig", "AdaptiveController"]


class MicroBatcher:
    """Bounded-queue micro-batcher with size- and deadline-based flushing.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as a batch holds this many items.
    max_wait_seconds:
        Flush a non-empty batch at most this long after its first item
        arrived.  Zero means "whatever is immediately available".
    queue_size:
        Capacity of the ingress queue (the backpressure bound).
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        max_batch_size: int = 16,
        max_wait_seconds: float = 0.005,
        queue_size: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch_size < 1:
            raise ParameterError("max_batch_size must be >= 1")
        if max_wait_seconds < 0:
            raise ParameterError("max_wait_seconds must be >= 0")
        if queue_size < 1:
            raise ParameterError("queue_size must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_seconds = float(max_wait_seconds)
        self.queue_size = int(queue_size)
        self._clock = clock
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=self.queue_size)
        self._closed = threading.Event()
        # Idle poll granularity while waiting for a first item: small enough
        # to notice close() promptly, large enough to not busy-spin.
        self._poll_seconds = 0.02
        self._lock = threading.Lock()
        self._batches = 0
        self._items = 0
        self._max_batch_seen = 0
        self._flushes: Dict[str, int] = {"size": 0, "deadline": 0, "close": 0}
        self._last_flush: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called (puts are rejected)."""
        return self._closed.is_set()

    @property
    def queue_depth(self) -> int:
        """Number of items currently waiting in the ingress queue."""
        return self._queue.qsize()

    def put(self, item: Any, block: bool = True, timeout: Optional[float] = None) -> None:
        """Enqueue one item, honouring the queue bound.

        With ``block=True`` (default) the caller waits for space — that *is*
        the backpressure: a fast producer slows to the service's pace instead
        of ballooning memory.  With ``block=False`` (or on timeout) a full
        queue raises :class:`queue.Full` for the caller to translate.  A
        blocked producer re-checks the closed flag while waiting, so
        :meth:`close` wakes it with :class:`~repro.errors.ParameterError`
        instead of letting it enqueue into a batcher whose consumer is gone.
        """
        if self._closed.is_set():
            raise ParameterError("cannot put into a closed MicroBatcher")
        if not block:
            self._queue.put_nowait(item)
            return
        deadline = None if timeout is None else self._clock() + float(timeout)
        while True:
            wait = self._poll_seconds
            if deadline is not None:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    raise queue.Full
                wait = min(wait, remaining)
            try:
                self._queue.put(item, timeout=wait)
                return
            except queue.Full:
                if self._closed.is_set():
                    raise ParameterError("cannot put into a closed MicroBatcher") from None

    def next_batch(self) -> Optional[List[Any]]:
        """Gather the next batch, or ``None`` when closed and fully drained.

        Blocks until at least one item is available (polling the closed flag
        while idle), then keeps gathering until a size or deadline flush.
        """
        while True:
            try:
                first = self._queue.get(timeout=self._poll_seconds)
                break
            except queue.Empty:
                if self._closed.is_set() and self._queue.empty():
                    return None

        batch = [first]
        reason = "size"
        assembly_started = self._clock()
        deadline = assembly_started + self.max_wait_seconds
        while len(batch) < self.max_batch_size:
            # Whatever is already queued joins the batch for free — even with
            # max_wait_seconds=0 a backlog flushes as one batch, not as a
            # stream of singletons.
            try:
                batch.append(self._queue.get_nowait())
                continue
            except queue.Empty:
                pass
            remaining = deadline - self._clock()
            if remaining <= 0:
                reason = "deadline"
                break
            if self._closed.is_set():
                # Shutdown drain: flush immediately instead of waiting out
                # the deadline on traffic that will never arrive.
                reason = "close"
                break
            try:
                batch.append(self._queue.get(timeout=min(remaining, self._poll_seconds)))
            except queue.Empty:
                continue

        with self._lock:
            self._batches += 1
            self._items += len(batch)
            self._max_batch_seen = max(self._max_batch_seen, len(batch))
            self._flushes[reason] += 1
            self._last_flush = {
                "reason": reason,
                "batch_size": len(batch),
                "assembly_seconds": self._clock() - assembly_started,
            }
        return batch

    def drain(self) -> List[Any]:
        """Pop and return everything currently queued (used by hard shutdown)."""
        items: List[Any] = []
        while True:
            try:
                items.append(self._queue.get_nowait())
            except queue.Empty:
                return items

    def close(self) -> None:
        """Stop accepting items; :meth:`next_batch` drains then returns ``None``."""
        self._closed.set()

    @property
    def stats(self) -> Dict[str, Any]:
        """Batch-shape statistics: counts, mean/max size, flush reasons."""
        with self._lock:
            return {
                "batches": self._batches,
                "items": self._items,
                "mean_batch_size": self._items / self._batches if self._batches else 0.0,
                "max_batch_size": self._max_batch_seen,
                "flushes": dict(self._flushes),
                "last_flush": dict(self._last_flush) if self._last_flush else None,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(max_batch_size={self.max_batch_size}, "
            f"max_wait_seconds={self.max_wait_seconds}, queue_size={self.queue_size})"
        )


@dataclasses.dataclass(frozen=True)
class AdaptiveConfig:
    """Bounds and cadence of the adaptive control loop.

    Parameters
    ----------
    tick_seconds:
        Minimum time between control decisions; telemetry arriving faster
        than this is simply observed, not acted on.
    min_batch_size, max_batch_size:
        Corridor for the derived micro-batch flush size.  The configured
        service batch size is the starting point; the controller never
        leaves this corridor.
    target_batch_seconds:
        The compute budget one flushed batch should cost.  The ideal batch
        size is ``target_batch_seconds / ewma_request_seconds`` — a service
        whose requests got cheaper batches more aggressively, one whose
        requests got slower shrinks its batches to keep flush latency flat.
    weight_ceiling_factor:
        Each lane's drain weight may rise to ``configured_weight × factor``
        when the lane is backlogged or shedding; the configured weight is
        the floor it decays back to once pressure clears.
    backlog_boost_depth:
        Queue depth at which a lane counts as backlogged and earns a weight
        boost even before it sheds anything.
    """

    tick_seconds: float = 0.5
    min_batch_size: int = 1
    max_batch_size: int = 64
    target_batch_seconds: float = 0.05
    weight_ceiling_factor: int = 4
    backlog_boost_depth: int = 8

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ParameterError("tick_seconds must be positive")
        if self.min_batch_size < 1:
            raise ParameterError("min_batch_size must be >= 1")
        if self.max_batch_size < self.min_batch_size:
            raise ParameterError("max_batch_size must be >= min_batch_size")
        if self.target_batch_seconds <= 0:
            raise ParameterError("target_batch_seconds must be positive")
        if self.weight_ceiling_factor < 1:
            raise ParameterError("weight_ceiling_factor must be >= 1")
        if self.backlog_boost_depth < 1:
            raise ParameterError("backlog_boost_depth must be >= 1")


class AdaptiveController:
    """Derives batch size and lane weights from live serving telemetry.

    The controller is a pure decision function plus a little memory (the
    previous tick's shed counters and its own current outputs); it never
    touches the service directly.  Each :meth:`update` call is one control
    tick and returns ``(batch_size, lane_weights, changed)``; callers apply
    the returned values to whatever they batch with.

    Policy, kept deliberately simple and monotone:

    * **batch size** — move the current size one doubling/halving step per
      tick toward ``target_batch_seconds / ewma_request_seconds``, clamped
      to the configured corridor.  No estimate (EWMA still 0) means no move.
    * **lane weights** — a lane that shed requests since the last tick, or
      whose depth reached ``backlog_boost_depth``, gains +1 weight up to
      ``floor × weight_ceiling_factor``; an unpressured lane decays -1 back
      toward its configured floor.  Weighted fairness is preserved: a floor
      is never undercut, so no lane can be starved by the controller.
    """

    def __init__(self, config: AdaptiveConfig, batch_size: int, lane_weights: Mapping[Any, int]):
        self.config = config
        self.batch_size = int(
            min(max(batch_size, config.min_batch_size), config.max_batch_size)
        )
        self.lane_floors: Dict[Any, int] = {lane: int(w) for lane, w in lane_weights.items()}
        if any(weight < 1 for weight in self.lane_floors.values()):
            raise ParameterError("lane weight floors must be >= 1")
        self.lane_weights: Dict[Any, int] = dict(self.lane_floors)
        self._last_tick_at: Optional[float] = None
        self._last_shed: Dict[Any, int] = {lane: 0 for lane in self.lane_floors}
        self.ticks = 0
        self.batch_adjustments = 0
        self.weight_adjustments = 0

    def due(self, now: float) -> bool:
        """True when at least one control period elapsed since the last tick."""
        return self._last_tick_at is None or now - self._last_tick_at >= self.config.tick_seconds

    def update(
        self,
        now: float,
        ewma_request_seconds: float,
        lane_stats: Mapping[Any, Mapping[str, int]],
    ) -> Tuple[int, Dict[Any, int], bool]:
        """One control tick; ``lane_stats`` maps lane -> {"depth", "shed"}.

        ``shed`` is the lane's *cumulative* shed counter (admission +
        expiry); the controller differences it against the previous tick
        itself, so callers just hand over their live counters.
        """
        self._last_tick_at = now
        self.ticks += 1
        changed = False

        if ewma_request_seconds > 0.0:
            ideal = self.config.target_batch_seconds / ewma_request_seconds
            step = self.batch_size
            if ideal >= self.batch_size * 2:
                step = self.batch_size * 2
            elif ideal < self.batch_size * 0.75:
                step = max(1, self.batch_size // 2)
            step = min(max(step, self.config.min_batch_size), self.config.max_batch_size)
            if step != self.batch_size:
                self.batch_size = step
                self.batch_adjustments += 1
                changed = True

        for lane, floor in self.lane_floors.items():
            stats = lane_stats.get(lane, {})
            depth = int(stats.get("depth", 0))
            shed = int(stats.get("shed", 0))
            shed_delta = shed - self._last_shed.get(lane, 0)
            self._last_shed[lane] = shed
            current = self.lane_weights[lane]
            ceiling = floor * self.config.weight_ceiling_factor
            if shed_delta > 0 or depth >= self.config.backlog_boost_depth:
                target = min(current + 1, ceiling)
            else:
                target = max(current - 1, floor)
            if target != current:
                self.lane_weights[lane] = target
                self.weight_adjustments += 1
                changed = True

        return self.batch_size, dict(self.lane_weights), changed

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly controller state for metric snapshots."""
        return {
            "ticks": self.ticks,
            "batch_adjustments": self.batch_adjustments,
            "weight_adjustments": self.weight_adjustments,
            "batch_size": self.batch_size,
            "lane_weights": {str(lane): weight for lane, weight in self.lane_weights.items()},
            "lane_floors": {str(lane): weight for lane, weight in self.lane_floors.items()},
        }

"""The adaptive control loop of the serving front end.

:class:`AdaptiveController` re-derives the service's micro-batch size and
the priority-lane drain weights from live telemetry (the EWMA per-request
service time, per-lane queue depths and shed counters) once per control
tick.  The controller is deliberately *bounded and gradual* — every derived
value stays inside a configured ``[min, max]`` corridor and moves by small
steps, so an adaptive service remains predictable under pathological
telemetry (a latency spike cannot flip the batch size from 1 to 512 in one
tick, and a lane's weight can never fall below its configured floor).
Batching itself is work-conserving and lives in
:class:`~repro.serve.AsyncSegmentationService`: there is no flush window.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ParameterError

__all__ = ["AdaptiveConfig", "AdaptiveController"]


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

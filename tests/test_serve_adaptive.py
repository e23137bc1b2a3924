"""Tests for the adaptive control loop and the mergeable latency sketches.

The controller (``repro.serve.AdaptiveController``) is exercised as
a pure decision function with synthetic telemetry; the service-level tests
then check the loop is actually wired into ``AsyncSegmentationService``
(ticks recorded, derived values bounded, floors respected) without relying
on timing beyond "traffic happened".
"""

import asyncio

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.errors import ParameterError
from repro.metrics.runtime import (
    LatencyRecorder,
    merge_sketches,
    sketch_percentile,
    summarize_sketch,
)
from repro.serve import AdaptiveConfig, AdaptiveController, AsyncSegmentationService, Priority


# --------------------------------------------------------------------------- #
# latency sketches
# --------------------------------------------------------------------------- #
def test_sketch_counts_every_recorded_value():
    recorder = LatencyRecorder(max_samples=4)
    for value in (0.001, 0.002, 0.004, 0.2, 1.5):
        recorder.record(value)
    sketch = recorder.sketch()
    assert sketch["count"] == 5
    assert sum(sketch["counts"]) == 5  # window is 4, the sketch is all-time
    assert sketch["sum_seconds"] == pytest.approx(1.707)


def test_merged_sketch_percentiles_are_conservative():
    fast, slow = LatencyRecorder(), LatencyRecorder()
    for _ in range(99):
        fast.record(0.001)
    slow.record(10.0)
    merged = merge_sketches([fast.sketch(), slow.sketch()])
    assert merged["count"] == 100
    # p50 stays in the fast bucket, p99+ must not understate the slow tail
    assert sketch_percentile(merged, 50.0) <= 0.0032
    assert sketch_percentile(merged, 99.5) >= 10.0
    summary = summarize_sketch(merged)
    assert summary["count"] == 100.0
    assert summary["mean"] == pytest.approx((99 * 0.001 + 10.0) / 100)
    assert summary["max"] >= 10.0


def test_merge_rejects_mismatched_bounds():
    sketch = LatencyRecorder().sketch()
    other = dict(sketch, bounds=list(sketch["bounds"][:-1]))
    with pytest.raises(ValueError):
        merge_sketches([sketch, other])


def test_merge_of_nothing_is_an_empty_sketch():
    merged = merge_sketches([])
    assert merged["count"] == 0
    # explicit empty contract: None, never a fake 0.0 latency
    assert sketch_percentile(merged, 99.0) is None
    summary = summarize_sketch(merged)
    assert summary["count"] == 0.0
    assert summary["mean"] is None
    assert summary["max"] is None
    assert summary["p99"] is None


# --------------------------------------------------------------------------- #
# controller policy
# --------------------------------------------------------------------------- #
def _controller(**overrides):
    config = AdaptiveConfig(
        tick_seconds=1.0,
        min_batch_size=2,
        max_batch_size=32,
        target_batch_seconds=0.08,
        weight_ceiling_factor=3,
        backlog_boost_depth=4,
        **overrides,
    )
    return AdaptiveController(config, batch_size=8, lane_weights={"high": 4, "low": 1})


def test_batch_size_grows_toward_cheap_requests_one_doubling_per_tick():
    controller = _controller()
    # 1 ms/request: ideal batch = 80, but growth is one doubling per tick
    size, _, changed = controller.update(1.0, 0.001, {})
    assert (size, changed) == (16, True)
    size, _, _ = controller.update(2.0, 0.001, {})
    assert size == 32
    size, _, _ = controller.update(3.0, 0.001, {})
    assert size == 32  # clamped at the corridor ceiling
    assert controller.batch_adjustments == 2


def test_batch_size_shrinks_for_slow_requests_and_respects_the_floor():
    controller = _controller()
    for tick in range(1, 6):
        size, _, _ = controller.update(float(tick), 1.0, {})  # 1 s/request
    assert size == 2  # halved per tick down to min_batch_size
    assert controller.batch_size == 2


def test_no_ewma_means_no_batch_move():
    controller = _controller()
    size, _, changed = controller.update(1.0, 0.0, {})
    assert size == 8
    assert controller.batch_adjustments == 0


def test_lane_weight_boosts_on_shed_and_decays_to_floor():
    controller = _controller()
    _, weights, _ = controller.update(1.0, 0.0, {"high": {"depth": 0, "shed": 2}})
    assert weights["high"] == 5
    # shed counter unchanged -> no new sheds -> decay back toward the floor
    _, weights, _ = controller.update(2.0, 0.0, {"high": {"depth": 0, "shed": 2}})
    assert weights["high"] == 4
    _, weights, _ = controller.update(3.0, 0.0, {"high": {"depth": 0, "shed": 2}})
    assert weights["high"] == 4  # never below the configured floor


def test_lane_weight_boosts_on_backlog_and_hits_the_ceiling():
    controller = _controller()
    weights = {}
    for tick in range(1, 20):
        _, weights, _ = controller.update(float(tick), 0.0, {"low": {"depth": 10, "shed": 0}})
    assert weights["low"] == 3  # floor 1 × ceiling factor 3
    assert weights["high"] == 4  # untouched lane stays at its floor


def test_due_respects_the_tick_period():
    controller = _controller()
    assert controller.due(0.0)
    controller.update(0.0, 0.0, {})
    assert not controller.due(0.5)
    assert controller.due(1.0)


def test_adaptive_config_validation():
    with pytest.raises(ParameterError):
        AdaptiveConfig(tick_seconds=0)
    with pytest.raises(ParameterError):
        AdaptiveConfig(min_batch_size=4, max_batch_size=2)
    with pytest.raises(ParameterError):
        AdaptiveConfig(weight_ceiling_factor=0)
    with pytest.raises(ParameterError):
        AdaptiveController(AdaptiveConfig(), 8, {"high": 0})


# --------------------------------------------------------------------------- #
# service integration
# --------------------------------------------------------------------------- #
def _engine():
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))


def _images(rng, count, side=12):
    palette = (rng.random((16, 3)) * 255).astype(np.uint8)
    return [palette[rng.integers(0, 16, size=(side, side))] for _ in range(count)]


def test_service_reports_adaptive_metrics_and_stays_bounded(rng):
    config = AdaptiveConfig(
        tick_seconds=0.001, min_batch_size=1, max_batch_size=8, target_batch_seconds=0.05
    )

    async def drive():
        service = AsyncSegmentationService(
            _engine(),
            max_batch_size=4,
            cache=None,
            adaptive=True,
            adaptive_config=config,
        )
        async with service:
            for image in _images(rng, 12):
                await service.submit(image)
            return service.metrics(), service.describe()

    metrics, description = asyncio.run(drive())
    adaptive = metrics["adaptive"]
    assert adaptive["enabled"] is True
    assert adaptive["ticks"] >= 1
    assert 1 <= adaptive["max_batch_size"] <= 8
    for lane in Priority:
        name = lane.name.lower()
        floor = adaptive["lane_floors"][name]
        assert adaptive["lane_weights"][name] >= floor
    assert description["adaptive"] is True
    assert metrics["latency_sketch"]["count"] == metrics["completed"]


def test_service_without_adaptive_reports_none(rng):
    async def drive():
        service = AsyncSegmentationService(_engine(), cache=None)
        async with service:
            await service.submit(_images(rng, 1)[0])
            return service.metrics(), service.describe()

    metrics, description = asyncio.run(drive())
    assert metrics["adaptive"] is None
    assert description["adaptive"] is False


def test_adaptive_results_stay_bit_identical_to_pipeline(rng):
    engine = _engine()
    images = _images(rng, 6)
    expected = [engine.pipeline.run(image).segmentation.labels for image in images]

    async def drive():
        service = AsyncSegmentationService(
            _engine(),
            max_batch_size=2,
            cache=None,
            adaptive=True,
            adaptive_config=AdaptiveConfig(tick_seconds=0.001, max_batch_size=16),
        )
        async with service:
            return await service.map(images)

    results = asyncio.run(drive())
    for result, labels in zip(results, expected):
        assert np.array_equal(result.segmentation.labels, labels)


def test_default_adaptive_corridor_respects_the_configured_max_batch(rng):
    """Without an explicit config, --max-batch stays the hard ceiling."""

    async def drive(configured):
        service = AsyncSegmentationService(
            _engine(),
            max_batch_size=configured,
            cache=None,
            adaptive=True,
        )
        # starting size is never clamped away from the configured value
        assert service.max_batch_size == configured
        assert service._adaptive.config.max_batch_size == configured
        async with service:
            for image in _images(rng, 10):
                await service.submit(image)
            return service.metrics()["adaptive"]["max_batch_size"]

    # tiny configured max: cheap traffic must not grow batches past it
    assert asyncio.run(drive(2)) <= 2
    # large configured max: not clamped down to any built-in default
    assert asyncio.run(drive(256)) <= 256

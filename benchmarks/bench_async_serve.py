"""Async serving benchmark — lane isolation and disk-warm restart.

Two acceptance-shaped measurements of the asyncio front end:

1. **Lane isolation under saturation** — a backlog of LOW-priority requests
   floods the service, then HIGH-priority requests arrive one by one.
   Weighted draining (4:2:1) must keep HIGH-lane p99 latency far below the
   LOW lane's, which mostly measures its own queueing backlog.  This is the
   property that makes mixed-tenant serving viable: a bulk re-processing job
   cannot ruin an interactive client's tail latency.
2. **Cold vs disk-warm restart** — a workload is served cold through a
   tiered cache (memory L1 over a persistent disk L2), the service is torn
   down, and a *fresh* service over the same cache directory answers the
   same workload.  Every warm answer must come from the disk tier without
   recomputation, bit-identical to the cold results, and (full mode) the
   warm pass must be at least 2× faster than the cold one.

Exactness assertions always run; absolute-speed assertions are skipped in
``--smoke`` mode (CI guard).  Each part also emits a JSON report for the
nightly artifact upload.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.metrics.report import format_table
from repro.serve import (
    AsyncSegmentationService,
    DiskResultCache,
    ResultCache,
    TieredResultCache,
)

_THETA = np.pi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


def _distinct_images(rng, count, side):
    """Quantized RGB images with per-image palettes (no cross-image reuse)."""
    images = []
    for _ in range(count):
        palette = (rng.random((256, 3)) * 255).astype(np.uint8)
        indices = rng.integers(0, 256, size=(side, side))
        images.append(palette[indices])
    return images


def test_high_lane_p99_survives_low_lane_saturation(rng, smoke_mode, emit_result, emit_json_result):
    low_count = 24 if smoke_mode else 96
    high_count = 6 if smoke_mode else 12
    side = 32 if smoke_mode else 64
    low_images = _distinct_images(rng, low_count, side)
    high_images = _distinct_images(rng, high_count, side)

    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA))
    reference = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA))

    async def scenario():
        service = AsyncSegmentationService(
            engine,
            cache=None,
            max_batch_size=8,
            queue_size=4 * (low_count + high_count),
        )
        async with service:
            low_tasks = [
                asyncio.ensure_future(service.submit(image, priority="low"))
                for image in low_images
            ]
            await asyncio.sleep(0.01)  # let the LOW backlog pile up
            high_results = []
            for image in high_images:
                high_results.append(await service.submit(image, priority="high"))
            low_results = await asyncio.gather(*low_tasks)
            metrics = service.metrics()
        return high_results, low_results, metrics

    high_results, low_results, metrics = asyncio.run(scenario())

    # exactness: every lane's labels match a serial engine run bit-for-bit
    for image, result in zip(high_images, high_results):
        assert np.array_equal(result.labels, reference.segment(image).labels)
    for image, result in zip(low_images, low_results):
        assert np.array_equal(result.labels, reference.segment(image).labels)

    high_lat = metrics["lanes"]["high"]["latency_seconds"]
    low_lat = metrics["lanes"]["low"]["latency_seconds"]
    assert metrics["lanes"]["high"]["completed"] == high_count
    assert metrics["lanes"]["low"]["completed"] == low_count

    rows = [
        ["HIGH lane", f"{high_lat['p50'] * 1e3:.2f}", f"{high_lat['p99'] * 1e3:.2f}"],
        ["LOW lane (saturating)", f"{low_lat['p50'] * 1e3:.2f}", f"{low_lat['p99'] * 1e3:.2f}"],
        ["LOW p99 / HIGH p99", f"{low_lat['p99'] / max(high_lat['p99'], 1e-9):.1f}x", ""],
    ]
    emit_result(
        f"Async serve lane isolation — {low_count} LOW vs {high_count} HIGH, "
        f"{side}x{side} uint8 RGB",
        format_table("Lane latency", ["Lane", "p50 [ms]", "p99 [ms]"], rows),
    )
    emit_json_result(
        "bench_async_serve_lanes",
        {
            "schema": "repro-bench-async-lanes/v1",
            "smoke": smoke_mode,
            "low_count": low_count,
            "high_count": high_count,
            "side": side,
            "high_latency_seconds": high_lat,
            "low_latency_seconds": low_lat,
            "mean_batch_size": metrics["mean_batch_size"],
        },
    )

    # lane isolation: HIGH tail latency is bounded by service time, LOW by
    # its own backlog — HIGH p99 must beat LOW p99 in every mode
    assert high_lat["p99"] <= low_lat["p99"], (
        f"HIGH p99 {high_lat['p99'] * 1e3:.1f} ms did not beat "
        f"LOW p99 {low_lat['p99'] * 1e3:.1f} ms"
    )
    if not smoke_mode:
        assert high_lat["p99"] * 2 <= low_lat["p99"], (
            "HIGH lane p99 not clearly isolated from the saturating LOW lane: "
            f"{high_lat['p99'] * 1e3:.1f} ms vs {low_lat['p99'] * 1e3:.1f} ms"
        )


def test_disk_warm_restart_skips_recomputation(
    rng, smoke_mode, emit_result, emit_json_result, tmp_path
):
    count = 8 if smoke_mode else 32
    side = 32 if smoke_mode else 96
    images = _distinct_images(rng, count, side)
    cache_dir = str(tmp_path / "l2")

    def make_service():
        # use_lut=False forces the matrix path, so the cold pass really pays
        # for computation and the warm pass really measures the disk tier
        engine = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA), use_lut=False)
        cache = TieredResultCache(
            l1=ResultCache(max_entries=2 * count), l2=DiskResultCache(cache_dir)
        )
        return AsyncSegmentationService(engine, cache=cache, max_batch_size=8)

    async def run_pass():
        service = make_service()
        async with service:
            start = time.perf_counter()
            results = await service.map(images)
            elapsed = time.perf_counter() - start
            metrics = service.metrics()
        return results, elapsed, metrics

    cold_results, cold_time, cold_metrics = asyncio.run(run_pass())
    # the "restart": a brand-new service + engine + empty L1, same disk dir
    warm_results, warm_time, warm_metrics = asyncio.run(run_pass())

    # bit-identical across the restart, every warm answer from the cache
    for cold, warm in zip(cold_results, warm_results):
        assert np.array_equal(cold.labels, warm.labels)
        assert warm.segmentation.extras["cache_hit"] is True
    assert warm_metrics["cache"]["l2"]["hits"] == count
    assert cold_metrics["cache"]["l2"]["hits"] == 0

    def _rate(seconds):
        return count / seconds if seconds > 0 else float("inf")

    rows = [
        ["cold service (computed)", f"{cold_time * 1e3:.1f}", f"{_rate(cold_time):.1f}"],
        ["restarted, disk-warm", f"{warm_time * 1e3:.1f}", f"{_rate(warm_time):.1f}"],
        ["warm speedup", f"{cold_time / warm_time:.2f}x", ""],
    ]
    emit_result(
        f"Async serve disk-warm restart — {count} images {side}x{side} uint8 RGB",
        format_table("Cold vs disk-warm", ["Pass", "total [ms]", "images/s"], rows),
    )
    emit_json_result(
        "bench_async_serve_diskwarm",
        {
            "schema": "repro-bench-async-diskwarm/v1",
            "smoke": smoke_mode,
            "count": count,
            "side": side,
            "cold_seconds": cold_time,
            "warm_seconds": warm_time,
            "warm_speedup": cold_time / warm_time if warm_time > 0 else None,
            "l2_hits": warm_metrics["cache"]["l2"]["hits"],
        },
    )

    if not smoke_mode:
        assert warm_time * 2 <= cold_time, (
            f"disk-warm restart only {cold_time / warm_time:.1f}x faster than cold"
        )

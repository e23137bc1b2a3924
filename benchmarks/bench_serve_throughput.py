"""Serving benchmark — serial pipeline loop vs micro-batched service vs warm cache.

Three ways of answering the same 64-image workload:

1. **serial loop** — ``SegmentationPipeline.run`` per image, the pre-engine
   baseline (matrix path, no batching, no caching);
2. **service, cold** — ``await AsyncSegmentationService.map`` over the
   micro-batching :class:`repro.serve.AsyncSegmentationService` with an
   empty result cache (the engine's exact LUT fast paths + coalescing, but
   every image computed);
3. **service, warm** — the same requests again: every one is answered from
   the content-addressed cache, on the event loop, without touching the
   engine.

Labels must be bit-identical across all three paths in every mode — that is
the exactness contract of the engine fast paths and of content-addressed
caching, and CI guards it via ``--smoke``.  The full run additionally asserts
the acceptance shape: cold service throughput at least matches the serial
loop, and the warm pass is ≥ 10× faster than the cold one.
"""

import asyncio
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter, SegmentationPipeline
from repro.core.lut import clear_lut_cache
from repro.metrics.report import format_table
from repro.serve import AsyncSegmentationService, ResultCache

_THETA = np.pi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2023)


def _workload(rng, smoke_mode):
    count = 12 if smoke_mode else 64
    side = 32 if smoke_mode else 128
    # quantized images, each with its own random 256-colour palette — the
    # realistic serving workload (synthetic scenes, screenshots, label-like
    # imagery).  Distinct palettes per image keep the cold pass honest: no
    # cross-image palette-cache sharing, every image is really computed.
    images = []
    for _ in range(count):
        palette = (rng.random((256, 3)) * 255).astype(np.uint8)
        indices = rng.integers(0, 256, size=(side, side))
        images.append(palette[indices])
    return images


def test_serve_throughput_vs_serial_and_warm_cache(rng, smoke_mode, emit_result):
    images = _workload(rng, smoke_mode)
    count = len(images)
    clear_lut_cache()

    pipeline = SegmentationPipeline(IQFTSegmenter(thetas=_THETA))
    start = time.perf_counter()
    serial_results = [pipeline.run(image) for image in images]
    serial_time = time.perf_counter() - start

    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA))
    service = AsyncSegmentationService(
        engine,
        max_batch_size=16,
        queue_size=2 * count,
        cache=ResultCache(max_entries=2 * count),
    )

    async def serve_twice():
        async with service:
            start = time.perf_counter()
            cold = await service.map(images)
            cold_seconds = time.perf_counter() - start

            start = time.perf_counter()
            warm = await service.map(images)
            return cold, cold_seconds, warm, time.perf_counter() - start

    cold_results, cold_time, warm_results, warm_time = asyncio.run(serve_twice())
    metrics = service.metrics()

    # exactness: all three paths agree bit-for-bit on every image
    for serial_result, cold_result, warm_result in zip(
        serial_results, cold_results, warm_results
    ):
        assert np.array_equal(serial_result.labels, cold_result.labels)
        assert np.array_equal(cold_result.labels, warm_result.labels)

    # the warm pass was answered entirely from the cache
    assert all(r.segmentation.extras["cache_hit"] for r in warm_results)
    assert metrics["cache"]["hits"] >= count
    assert metrics["completed"] == 2 * count

    def _rate(seconds):
        return count / seconds if seconds > 0 else float("inf")

    rows = [
        ["serial pipeline.run loop", f"{serial_time * 1e3:.1f}", f"{_rate(serial_time):.1f}"],
        ["micro-batched service (cold)", f"{cold_time * 1e3:.1f}", f"{_rate(cold_time):.1f}"],
        ["service, warm cache", f"{warm_time * 1e3:.1f}", f"{_rate(warm_time):.1f}"],
        ["cold speedup over serial", f"{serial_time / cold_time:.2f}x", ""],
        ["warm speedup over cold", f"{cold_time / warm_time:.2f}x", ""],
    ]
    emit_result(
        f"Serving — {count} random {images[0].shape[0]}x{images[0].shape[1]} uint8 RGB images",
        format_table(
            "Serve throughput", ["Path", "total [ms]", "images/s"], rows
        ),
    )

    if not smoke_mode:
        assert _rate(cold_time) >= _rate(serial_time), (
            f"micro-batched service ({_rate(cold_time):.1f}/s) slower than the "
            f"serial loop ({_rate(serial_time):.1f}/s)"
        )
        assert warm_time * 10 <= cold_time, (
            f"warm cache only {cold_time / warm_time:.1f}x faster than cold"
        )

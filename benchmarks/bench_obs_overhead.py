"""Observability overhead benchmark — tracing must be (nearly) free.

The tentpole claim of the tracing layer is that spans are cheap enough to
leave on in production: plain tuples, no locks on the hot path, one ring
insert per request.  This benchmark measures async serving throughput with
the tracer fully on (``sample_rate=1.0`` — every request records a full
span tree) against the same service with sampling off.  Each round runs
one pass of each side, alternating which side goes first (A/B, B/A, ...)
so clock drift and cache warmup hit both sides equally, and the reported
``traced_over_untraced`` is the median of the per-round ratios: one slow
pass moves one round, not the estimate.

Full mode asserts the traced run keeps at least 95% of the untraced
throughput (the ISSUE's ≤5% overhead budget).  Smoke mode runs the same
shape on a tiny workload and still asserts the *accounting*: every request
traced at rate 1.0, none at rate 0.0.
"""

import asyncio
import statistics
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.metrics.report import format_table
from repro.obs import Tracer
from repro.serve import AsyncSegmentationService

_THETA = np.pi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260807)


def _distinct_images(rng, count, side):
    images = []
    for _ in range(count):
        palette = (rng.random((256, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 256, size=(side, side))])
    return images


def _run_pass(images, sample_rate):
    """One full serve pass; returns (elapsed_seconds, metrics)."""

    async def scenario():
        engine = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA))
        service = AsyncSegmentationService(
            engine,
            cache=None,  # every request computes: measure the serve path, not the cache
            max_batch_size=8,
            tracer=Tracer(sample_rate=sample_rate),
        )
        async with service:
            start = time.perf_counter()
            results = await service.map(images)
            elapsed = time.perf_counter() - start
            metrics = service.metrics()
        assert len(results) == len(images)
        return elapsed, metrics

    return asyncio.run(scenario())


def test_tracing_overhead_within_budget(rng, smoke_mode, emit_result, emit_json_result):
    count = 12 if smoke_mode else 48
    side = 32 if smoke_mode else 64
    # One smoke round read 0.74-1.35 on a shared host: too noisy for the 0.80 floor.
    rounds = 15
    images = _distinct_images(rng, count, side)

    _run_pass(images, 0.0)  # warmup: JIT-ish costs (LUTs, allocator) off the books
    seconds = {0.0: [], 1.0: []}
    metrics = {}
    for index in range(rounds):
        for rate in (0.0, 1.0) if index % 2 == 0 else (1.0, 0.0):
            elapsed, metrics[rate] = _run_pass(images, rate)
            seconds[rate].append(elapsed)
    untraced_metrics, traced_metrics = metrics[0.0], metrics[1.0]

    total = rounds * count
    untraced_rps = total / sum(seconds[0.0])
    traced_rps = total / sum(seconds[1.0])
    # Per round, traced rps over untraced rps is untraced time over traced time.
    ratio = statistics.median(
        untraced / traced for untraced, traced in zip(seconds[0.0], seconds[1.0])
    )

    # accounting: rate 1.0 records every request, rate 0.0 records none
    assert traced_metrics["trace"]["recorded"] == count
    assert traced_metrics["trace"]["retained"] > 0
    assert untraced_metrics["trace"]["recorded"] == 0
    assert untraced_metrics["trace"]["sampled_out"] == count

    rows = [
        ["sampling off", f"{untraced_rps:.1f}", ""],
        ["tracing every request", f"{traced_rps:.1f}", f"{(1 - ratio) * 100:+.1f}%"],
    ]
    emit_result(
        f"Tracing overhead — {total} requests/side, {side}x{side} uint8 RGB, "
        f"median of {rounds} alternating rounds",
        format_table("Traced vs untraced throughput", ["Mode", "req/s", "overhead"], rows),
    )
    emit_json_result(
        "bench_obs_overhead",
        {
            "schema": "repro-bench-obs-overhead/v1",
            "smoke": smoke_mode,
            "count": total,
            "side": side,
            "untraced_rps": untraced_rps,
            "traced_rps": traced_rps,
            "traced_over_untraced": ratio,
        },
    )

    if not smoke_mode:
        assert ratio >= 0.95, (
            f"tracing overhead exceeded the 5% budget: traced {traced_rps:.1f} req/s "
            f"vs untraced {untraced_rps:.1f} req/s ({(1 - ratio) * 100:.1f}% slower)"
        )

#!/usr/bin/env python
"""Serving quickstart: a streaming segmentation service with a result cache.

The script starts two :class:`repro.serve.AsyncSegmentationService` instances
(one per method — a service wraps exactly one engine), routes a mixed stream
of grayscale and RGB requests to the right one, and prints per-request
outcomes plus the service metrics: throughput, latency percentiles, batch
shapes and cache hit rate.  Requests repeat, so the content-addressed cache
answers the second half of the traffic without recomputation.

Run it with::

    python examples/serve_quickstart.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import BatchSegmentationEngine, IQFTGrayscaleSegmenter, IQFTSegmenter
from repro.serve import AsyncSegmentationService


def make_traffic(rng, waves=2):
    """Mixed request waves: RGB and grayscale images, repeated across waves.

    Wave 1 is all cold traffic; every later wave repeats the same images, so
    it is answered straight from the content-addressed cache.
    """
    rgb = [(rng.random((64, 64, 3)) * 255).astype(np.uint8) for _ in range(4)]
    gray = [(rng.random((64, 64)) * 255).astype(np.uint8) for _ in range(4)]
    return [list(rgb) + list(gray) for _ in range(waves)]


async def main() -> None:
    rng = np.random.default_rng(7)

    # 1. One service per method.  The engine picks the exact LUT fast paths;
    #    the service adds micro-batching, the bounded lanes and the cache.
    rgb_service = AsyncSegmentationService(
        BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi)), max_batch_size=8
    )
    gray_service = AsyncSegmentationService(
        BatchSegmentationEngine(IQFTGrayscaleSegmenter(theta=2 * np.pi)), max_batch_size=8
    )

    # 2. Submit wave by wave.  Within a wave every request is in flight at
    #    once and the worker batches what queues together; across waves the
    #    content-addressed cache takes over.
    async with rgb_service, gray_service:
        print(f"{'request':<10} {'kind':<6} {'fast path':<14} {'segments':>9} {'cached':>7}")
        counter = 0
        for wave in make_traffic(rng):
            # 3. Gather each wave in submission order.
            results = await asyncio.gather(
                *(
                    (rgb_service if image.ndim == 3 else gray_service).submit(image)
                    for image in wave
                )
            )
            for result in results:
                seg = result.segmentation
                kind = "rgb" if seg.method == "iqft-rgb" else "gray"
                print(
                    f"{counter:<10} {kind:<6} {seg.extras['fast_path']:<14} "
                    f"{seg.num_segments:>9} {str(seg.extras['cache_hit']):>7}"
                )
                counter += 1

        # 4. Service metrics: the cache served every repeated request.
        for name, service in (("rgb", rgb_service), ("gray", gray_service)):
            metrics = service.metrics()
            cache = metrics["cache"]
            latency = metrics["latency_seconds"]
            print(
                f"\n[{name}] {metrics['completed']} requests, "
                f"{metrics['throughput_rps']:.0f} req/s, "
                f"cache hit rate {cache['hit_rate']:.0%} "
                f"({cache['hits']} hits / {cache['misses']} misses), "
                f"p50 latency {latency['p50'] * 1e3:.2f} ms, "
                f"mean batch size {metrics['mean_batch_size']:.1f}"
            )


if __name__ == "__main__":
    asyncio.run(main())

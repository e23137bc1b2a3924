"""Async serving quickstart: priority lanes, deadlines, and a disk cache.

Run with ``PYTHONPATH=src python examples/async_serve_quickstart.py``.

The script walks through the asyncio serving front end:

1. start an :class:`~repro.serve.AsyncSegmentationService` over a tiered
   cache (in-memory L1, persistent on-disk L2);
2. flood the LOW lane with a bulk backlog while HIGH-priority requests keep
   their latency (weighted 4:2:1 draining);
3. shed a request whose deadline cannot be met
   (:class:`~repro.errors.DeadlineExceededError`);
4. "restart" the service and answer the same workload disk-warm — zero
   recomputation, bit-identical labels.
"""

import asyncio
import tempfile

import numpy as np

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.errors import DeadlineExceededError
from repro.serve import (
    AsyncSegmentationService,
    DiskResultCache,
    ResultCache,
    TieredResultCache,
)


def make_images(count, side=48, seed=7):
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        palette = (rng.random((64, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 64, size=(side, side))])
    return images


def make_service(cache_dir):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    cache = TieredResultCache(
        l1=ResultCache(max_entries=128), l2=DiskResultCache(cache_dir)
    )
    return AsyncSegmentationService(
        engine, cache=cache, max_batch_size=8, queue_size=512
    )


async def main():
    cache_dir = tempfile.mkdtemp(prefix="repro-disk-cache-")
    bulk = make_images(40, seed=7)
    urgent = make_images(5, seed=11)

    print("=== pass 1: cold service, mixed priorities ===")
    async with make_service(cache_dir) as service:
        low_tasks = [
            asyncio.ensure_future(service.submit(image, priority="low", client_id="bulk"))
            for image in bulk
        ]
        await asyncio.sleep(0.01)  # let the LOW backlog build up

        for index, image in enumerate(urgent):
            result = await service.submit(image, priority="high", client_id="ui")
            print(f"  HIGH request {index}: {result.segmentation.num_segments} segments")

        try:
            await service.submit(urgent[0][::-1].copy(), deadline=1e-6, priority="normal")
        except DeadlineExceededError as exc:
            print(f"  shed as promised: {exc}")

        await asyncio.gather(*low_tasks)
        metrics = service.metrics()
        high_p99 = metrics["lanes"]["high"]["latency_seconds"]["p99"]
        low_p99 = metrics["lanes"]["low"]["latency_seconds"]["p99"]
        print(f"  HIGH lane p99: {high_p99 * 1e3:.1f} ms under a saturating LOW lane")
        print(f"  LOW  lane p99: {low_p99 * 1e3:.1f} ms (its own backlog)")
        print(f"  shed counters: {metrics['shed']}")

    print("=== pass 2: restarted service, disk-warm ===")
    async with make_service(cache_dir) as service:  # fresh engine + empty L1
        results = await service.map(bulk + urgent)
        metrics = service.metrics()
        hits = sum(1 for r in results if r.segmentation.extras["cache_hit"])
        print(f"  {hits}/{len(results)} answered from the cache after the restart")
        print(f"  L2 (disk) hits: {metrics['cache']['l2']['hits']}")
        print(f"  throughput: {metrics['throughput_rps']:.0f} req/s")


if __name__ == "__main__":
    asyncio.run(main())

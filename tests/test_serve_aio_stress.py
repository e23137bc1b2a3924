"""Concurrency stress test for the async serving front end.

Many clients, mixed priorities, random deadlines — the assertions are the
service's core integrity contract:

* **no lost or duplicated futures** — every submit resolves exactly once,
  either with a result or with a well-defined serve error, and the service's
  own accounting (requests / completed / shed / failed) agrees with what the
  callers observed;
* **exactness under concurrency** — every successful result is bit-identical
  to a serial ``SegmentationPipeline.run`` of the same image, no matter which
  lane, batch, cache tier or coalescing path produced it.
"""

import asyncio
import random

import numpy as np

from repro.core.pipeline import SegmentationPipeline
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import (
    DeadlineExceededError,
    QuotaExceededError,
    ServiceOverloadedError,
)
from repro.serve import AsyncSegmentationService

_NUM_CLIENTS = 8
_REQUESTS_PER_CLIENT = 15
_PRIORITIES = ("high", "normal", "low")


def test_stress_no_lost_futures_and_bit_identical_results(rng):
    images = [(rng.random((16, 16, 3)) * 255).astype(np.uint8) for _ in range(10)]
    pipeline = SegmentationPipeline(IQFTSegmenter(thetas=np.pi))
    expected = [pipeline.run(image).labels for image in images]

    async def client(service, client_id, seed, outcomes):
        chooser = random.Random(seed)
        for _ in range(_REQUESTS_PER_CLIENT):
            index = chooser.randrange(len(images))
            priority = chooser.choice(_PRIORITIES)
            # deadlines span "absurdly tight" to "none at all"
            roll = chooser.random()
            if roll < 0.2:
                deadline = chooser.uniform(0.0005, 0.005)
            elif roll < 0.5:
                deadline = chooser.uniform(0.1, 2.0)
            else:
                deadline = None
            try:
                result = await service.submit(
                    images[index],
                    priority=priority,
                    deadline=deadline,
                    client_id=client_id,
                )
            except DeadlineExceededError:
                outcomes["shed"] += 1
            except QuotaExceededError:
                outcomes["quota"] += 1
            except ServiceOverloadedError:
                outcomes["overloaded"] += 1
            else:
                outcomes["ok"] += 1
                assert np.array_equal(result.labels, expected[index]), (
                    f"lane {priority}: labels diverged from the serial pipeline"
                )
            if chooser.random() < 0.3:
                await asyncio.sleep(chooser.uniform(0.0, 0.002))

    async def scenario():
        engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
        outcomes = {"ok": 0, "shed": 0, "quota": 0, "overloaded": 0}
        service = AsyncSegmentationService(
            engine,
            max_batch_size=8,
            queue_size=512,
            client_rate=500.0,
            client_burst=50,
        )
        async with service:
            await asyncio.gather(
                *(
                    client(service, f"client-{index}", 1000 + index, outcomes)
                    for index in range(_NUM_CLIENTS)
                )
            )
            metrics = service.metrics()
        return outcomes, metrics

    outcomes, metrics = asyncio.run(scenario())
    attempts = _NUM_CLIENTS * _REQUESTS_PER_CLIENT

    # every submit resolved exactly once: the four outcome classes partition
    # the attempts, nothing lost, nothing double-counted
    assert sum(outcomes.values()) == attempts

    # the service's own books agree with what the callers saw
    assert metrics["completed"] == outcomes["ok"]
    assert metrics["quota_rejections"] == outcomes["quota"]
    shed_total = metrics["shed"]["admission"] + metrics["shed"]["expired"]
    assert shed_total == outcomes["shed"]
    assert metrics["failed"] == 0
    assert metrics["cancelled"] == 0
    # admitted requests either completed or were shed after queueing
    assert metrics["requests"] == metrics["completed"] + metrics["shed"]["expired"]
    # nothing is still sitting in a lane after aclose() drained
    assert metrics["queue_depth"] == 0
    for lane in metrics["lanes"].values():
        assert lane["depth"] == 0

    # the workload really exercised the machinery
    assert outcomes["ok"] > 0
    assert metrics["batches"] > 0


def test_stress_cancelled_awaiters_do_not_corrupt_accounting(rng):
    """Cancelling callers mid-flight must not hang or double-resolve anyone."""
    images = [(rng.random((16, 16, 3)) * 255).astype(np.uint8) for _ in range(6)]

    async def scenario():
        engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
        service = AsyncSegmentationService(
            engine, cache=None, max_batch_size=4, queue_size=64
        )
        async with service:
            tasks = [
                asyncio.ensure_future(service.submit(image))
                for image in images
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            for task in tasks[::3]:
                task.cancel()
            settled = await asyncio.gather(*tasks, return_exceptions=True)
            metrics = service.metrics()
        return settled, metrics

    settled, metrics = asyncio.run(scenario())
    cancelled = sum(1 for item in settled if isinstance(item, asyncio.CancelledError))
    succeeded = sum(1 for item in settled if not isinstance(item, BaseException))
    assert cancelled + succeeded == len(settled)
    assert metrics["completed"] == succeeded
    assert metrics["queue_depth"] == 0

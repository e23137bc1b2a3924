"""The service's micro-batching: how queued requests become batches.

These tests began as the suite of ``MicroBatcher``, the sync service's
flush-on-size-or-deadline queue deleted in 5.0.0.  Each now checks the same
queue behaviour on :class:`repro.serve.AsyncSegmentationService`, whose
batching is work-conserving: an idle worker drains whatever is queued (up to
``max_batch_size``) at once, so there is no flush deadline left to test.
Requests queue behind a gated first batch, which makes every batch shape
deterministic.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import ParameterError, ServiceClosedError, ServiceOverloadedError
from repro.serve import AsyncSegmentationService


class RecordingGate(BaseSegmenter):
    """Blocks until released, then records each image's first pixel in order."""

    name = "recording-gate"

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.seen = []

    def _segment(self, image):
        self.entered.set()
        assert self.gate.wait(30.0), "gate never released"
        self.seen.append(int(np.asarray(image).flat[0]))
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


def _image(value):
    return np.full((6, 7, 3), value, dtype=np.uint8)


def _service(segmenter, **kwargs):
    return AsyncSegmentationService(BatchSegmentationEngine(segmenter), cache=None, **kwargs)


async def _queue_behind_gate(service, segmenter, values):
    """A gated batch holding image 0, then one queued submit per value."""
    blocker = asyncio.ensure_future(service.submit(_image(0)))
    await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
    queued = [asyncio.ensure_future(service.submit(_image(value))) for value in values]
    await asyncio.sleep(0)  # each submit runs to its lane
    return blocker, queued


def _run_gated(values, **service_kwargs):
    """Queue ``values`` behind a gated batch, release it, return (seen, metrics)."""
    segmenter = RecordingGate()

    async def scenario():
        service = _service(segmenter, **service_kwargs)
        blocker, queued = await _queue_behind_gate(service, segmenter, values)
        segmenter.gate.set()
        await asyncio.gather(blocker, *queued)
        await service.aclose()
        return service.metrics()

    metrics = asyncio.run(scenario())
    return segmenter.seen, metrics


def test_flush_on_size_returns_full_batch_immediately():
    seen, metrics = _run_gated([1, 2, 3, 4], max_batch_size=4)
    # the gated batch, then the four queued requests as one full batch
    assert metrics["batches"] == 2
    assert seen == [0, 1, 2, 3, 4]


def test_zero_wait_still_flushes_queued_backlog_as_one_batch():
    _, metrics = _run_gated([1, 2, 3, 4, 5], max_batch_size=16)
    # a backlog must not degrade into singletons
    assert metrics["batches"] == 2
    assert metrics["mean_batch_size"] == pytest.approx(6 / 2)


def test_batches_preserve_fifo_order_across_flushes():
    seen, metrics = _run_gated(list(range(1, 8)), max_batch_size=3)
    assert seen == list(range(8))
    assert metrics["batches"] == 1 + 3  # then 3 + 3 + 1


def test_backpressure_bounded_queue():
    segmenter = RecordingGate()

    async def scenario():
        service = _service(segmenter, max_batch_size=4, queue_size=2)
        blocker, queued = await _queue_behind_gate(service, segmenter, [1, 2])
        with pytest.raises(ServiceOverloadedError):
            await service.submit(_image(3), block=False)
        depth = service.metrics()["queue_depth"]
        # draining one batch frees the queue again
        segmenter.gate.set()
        await asyncio.gather(blocker, *queued)
        later = await service.submit(_image(3), block=False)
        await service.aclose()
        return depth, later

    depth, later = asyncio.run(scenario())
    assert depth == 2
    assert later is not None
    assert segmenter.seen == [0, 1, 2, 3]


def test_blocking_put_waits_for_consumer():
    segmenter = RecordingGate()

    async def scenario():
        service = _service(segmenter, max_batch_size=1, queue_size=1)
        blocker, queued = await _queue_behind_gate(service, segmenter, [1])
        waiter = asyncio.ensure_future(service.submit(_image(2)))  # block=True
        await asyncio.sleep(0.05)
        parked = not waiter.done()  # still waiting: the queue is full
        segmenter.gate.set()
        await asyncio.gather(blocker, *queued, waiter)
        await service.aclose()
        return parked

    assert asyncio.run(scenario())
    assert segmenter.seen == [0, 1, 2]


def test_close_drains_then_returns_none():
    segmenter = RecordingGate()

    async def scenario():
        service = _service(segmenter, max_batch_size=2)
        blocker, queued = await _queue_behind_gate(service, segmenter, [1, 2, 3])
        closer = asyncio.ensure_future(service.aclose(drain=True))
        await asyncio.sleep(0)
        segmenter.gate.set()
        await closer  # returns once the worker has drained and exited
        results = await asyncio.gather(blocker, *queued)
        return service, results

    service, results = asyncio.run(scenario())
    assert len(results) == 4
    assert segmenter.seen == [0, 1, 2, 3]
    assert service.closed
    assert service.metrics()["batches"] == 1 + 2  # then [1, 2] and [3]


def test_put_after_close_is_rejected():
    async def scenario():
        service = _service(RecordingGate())
        await service.aclose()
        with pytest.raises(ServiceClosedError):
            await service.submit(_image(1))

    asyncio.run(scenario())


def test_drain_empties_queue_without_batching():
    segmenter = RecordingGate()

    async def scenario():
        service = _service(segmenter, max_batch_size=8)
        blocker, queued = await _queue_behind_gate(service, segmenter, [1, 2, 3, 4, 5])
        closer = asyncio.ensure_future(service.aclose(drain=False))
        await asyncio.sleep(0)
        depth = service.metrics()["queue_depth"]
        segmenter.gate.set()
        await closer
        outcomes = await asyncio.gather(*queued, return_exceptions=True)
        await blocker
        return depth, outcomes, service.metrics()

    depth, outcomes, metrics = asyncio.run(scenario())
    assert depth == 0
    assert all(isinstance(outcome, ServiceClosedError) for outcome in outcomes)
    assert metrics["batches"] == 1  # only the gated batch ever ran
    assert segmenter.seen == [0]


def test_stats_track_batch_shapes():
    _, metrics = _run_gated([1, 2, 3, 4, 5], max_batch_size=2)
    assert metrics["batches"] == 4  # [0], then [1, 2], [3, 4], [5]
    assert metrics["completed"] == 6
    assert metrics["mean_batch_size"] == pytest.approx(6 / 4)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        _service(RecordingGate(), max_batch_size=0)
    with pytest.raises(ParameterError):
        _service(RecordingGate(), queue_size=0)

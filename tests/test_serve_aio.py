"""Tests for the asyncio serving front end (``repro.serve.AsyncSegmentationService``)."""

import asyncio
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine, binarize_largest_background
from repro.errors import (
    DeadlineExceededError,
    ParameterError,
    QuotaExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.obs import Trace
from repro.serve import (
    AsyncSegmentationService,
    DiskResultCache,
    Priority,
    ResultCache,
    TokenBucket,
    image_digest,
)
from repro.serve._aio import _AsyncRequest


class FakeClock:
    """Deterministic monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class GatedSegmenter(BaseSegmenter):
    """A segmenter that blocks until released — for shutdown/queue tests."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _segment(self, image):
        self.entered.set()
        assert self.gate.wait(30.0), "gate never released"
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


def _engine(**kwargs):
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), **kwargs)


def _image(rng, value=None, shape=(12, 14, 3)):
    if value is not None:
        return np.full(shape, value, dtype=np.uint8)
    return (rng.random(shape) * 255).astype(np.uint8)


# --------------------------------------------------------------------------- #
# request path
# --------------------------------------------------------------------------- #
def test_submit_matches_engine_and_serves_cache_hits(rng):
    image = _image(rng)
    expected = _engine().segment(image).labels

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            cold = await service.submit(image)
            warm = await service.submit(image)
            return cold, warm, service.metrics()

    cold, warm, metrics = asyncio.run(scenario())
    assert np.array_equal(cold.labels, expected)
    assert np.array_equal(warm.labels, expected)
    assert cold.segmentation.extras["cache_hit"] is False
    assert warm.segmentation.extras["cache_hit"] is True
    assert metrics["completed"] == 2
    assert metrics["cache"]["hits"] == 1


def test_submit_scores_against_ground_truth(rng):
    image = _image(rng)
    mask = (rng.random(image.shape[:2]) > 0.5).astype(np.int64)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            return await service.submit(image, ground_truth=mask)

    result = asyncio.run(scenario())
    assert set(result.metrics) == {"miou", "pixel_accuracy", "dice"}


def test_map_preserves_order_and_coalesces(rng):
    images = [_image(rng, value=v) for v in (10, 10, 90, 10)]

    async def scenario():
        service = AsyncSegmentationService(_engine(), cache=None, max_batch_size=8)
        async with service:
            results = await service.map(images)
            return results, service.metrics()

    results, metrics = asyncio.run(scenario())
    engine = _engine()
    for image, result in zip(images, results):
        assert np.array_equal(result.labels, engine.segment(image).labels)
    assert metrics["coalesced"] >= 1


def test_per_request_failures_stay_isolated(rng):
    good = _image(rng)
    bad = (rng.random((10, 10)) * 255).astype(np.uint8)  # 2-D input to an RGB method

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            good_task = asyncio.ensure_future(service.submit(good))
            bad_task = asyncio.ensure_future(service.submit(bad))
            result = await good_task
            with pytest.raises(Exception):
                await bad_task
            return result, service.metrics()

    result, metrics = asyncio.run(scenario())
    assert result is not None
    assert metrics["completed"] == 1
    assert metrics["failed"] == 1


def test_the_cached_mask_is_uint8_and_hits_widen_it_back(rng):
    image = _image(rng)
    cache = ResultCache(max_entries=4)

    async def scenario():
        async with AsyncSegmentationService(_engine(), cache=cache) as service:
            cold = await service.submit(image)
            warm = await service.submit(image)
            return cold, warm, cache.get((image_digest(image), service._config_digest))

    cold, warm, (_, cached_mask) = asyncio.run(scenario())
    assert cached_mask.dtype == np.uint8
    assert warm.segmentation.extras["cache_hit"] is True
    assert cold.binary.dtype == warm.binary.dtype == np.int64
    assert np.array_equal(warm.binary, cold.binary)
    assert np.array_equal(cold.binary, binarize_largest_background(cold.labels))


def test_a_cache_hit_reports_its_own_label_time(rng):
    # The hit labels nothing: 0.0, not the stored time of the cold request.
    image = _image(rng)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            cold = await service.submit(image)
            warm = await service.submit(image)
            return cold, warm

    cold, warm = asyncio.run(scenario())
    assert cold.segmentation.extras["cache_hit"] is False
    assert cold.segmentation.runtime_seconds > 0.0
    assert warm.segmentation.extras["cache_hit"] is True
    assert warm.segmentation.runtime_seconds == 0.0
    assert np.array_equal(warm.labels, cold.labels)


def test_an_int64_mask_disk_entry_still_answers(rng, tmp_path):
    """Disk entries written before the uint8 mask hold an int64 one."""
    image = _image(rng)
    segmentation = _engine().segment(image)
    mask = binarize_largest_background(segmentation.labels)
    assert mask.dtype == np.int64
    disk = DiskResultCache(str(tmp_path / "l2"))

    async def scenario():
        async with AsyncSegmentationService(_engine(), cache=disk) as service:
            disk.put((image_digest(image), service._config_digest), (segmentation, mask))
            return await service.submit(image)

    result = asyncio.run(scenario())
    assert result.segmentation.extras["cache_hit"] is True
    assert result.binary.dtype == np.int64
    assert np.array_equal(result.binary, mask)
    assert np.array_equal(result.labels, segmentation.labels)


# --------------------------------------------------------------------------- #
# work-conserving batching
# --------------------------------------------------------------------------- #
def _assemble_span(trace):
    (span,) = [span for span in trace.spans if span[0] == "batch.assemble"]
    _, _, start, end, fields = span
    return end - start, fields["batch_size"]


def test_a_lone_request_on_an_idle_service_is_not_held_for_a_batch(rng):
    trace = Trace("lone")

    async def scenario():
        async with AsyncSegmentationService(_engine(), cache=None) as service:
            await service.submit(_image(rng), trace=trace)

    asyncio.run(scenario())
    seconds, batch_size = _assemble_span(trace)
    assert batch_size == 1
    assert seconds < 1e-3


def test_requests_arriving_during_a_batch_form_the_next_batches():
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)
    first = Trace("first")
    queued = [Trace(f"queued-{index}") for index in range(6)]

    async def scenario():
        service = AsyncSegmentationService(engine, cache=None, max_batch_size=4)
        blocker = asyncio.ensure_future(service.submit(_image(None, value=0), trace=first))
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        tasks = [
            asyncio.ensure_future(service.submit(_image(None, value=index + 1), trace=trace))
            for index, trace in enumerate(queued)
        ]
        await asyncio.sleep(0.05)
        depth = service.metrics()["queue_depth"]  # all six wait behind the gate
        segmenter.gate.set()
        await asyncio.gather(blocker, *tasks)
        await service.aclose()
        return depth, service.metrics()

    depth, metrics = asyncio.run(scenario())
    assert depth == 6
    assert metrics["batches"] == 3
    spans = [_assemble_span(trace) for trace in [first, *queued]]
    assert [batch_size for _, batch_size in spans] == [1, 4, 4, 4, 4, 2, 2]
    assert all(seconds < 1e-3 for seconds, _ in spans)


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--http", "127.0.0.1:0", "--max-wait", "0.01"],
        # the spool/JSONL driver, async-only since 5.0.0
        ["serve", "-", "--max-wait", "0.01"],
    ],
    ids=["http", "async"],
)
def test_max_wait_is_refused_where_batching_does_not_wait(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: unrecognized arguments: --max-wait" in proc.stderr, proc.stderr


# --------------------------------------------------------------------------- #
# priority lanes + weighted draining
# --------------------------------------------------------------------------- #
def test_drain_batch_honours_lane_weights(rng):
    async def scenario():
        service = AsyncSegmentationService(_engine(), max_batch_size=7)
        loop = asyncio.get_running_loop()
        for lane in Priority:
            for index in range(10):
                state = service._lanes[lane]
                state.queue.append(
                    _AsyncRequest(
                        image=None,
                        ground_truth=None,
                        void_mask=None,
                        key=(f"{lane}-{index}", "cfg"),
                        priority=lane,
                        deadline_at=None,
                        client_id=None,
                        future=loop.create_future(),
                        submitted_at=0.0,
                    )
                )
        batch = service._drain_batch()
        return [request.priority for request in batch]

    lanes = asyncio.run(scenario())
    # one weighted cycle: 4 HIGH, 2 NORMAL, 1 LOW fills max_batch_size=7
    assert lanes == [Priority.HIGH] * 4 + [Priority.NORMAL] * 2 + [Priority.LOW]


def test_drain_batch_cycles_after_high_lane_empties(rng):
    async def scenario():
        service = AsyncSegmentationService(_engine(), max_batch_size=8)
        loop = asyncio.get_running_loop()
        for lane, count in ((Priority.HIGH, 2), (Priority.LOW, 10)):
            for index in range(count):
                service._lanes[lane].queue.append(
                    _AsyncRequest(
                        image=None,
                        ground_truth=None,
                        void_mask=None,
                        key=(f"{lane}-{index}", "cfg"),
                        priority=lane,
                        deadline_at=None,
                        client_id=None,
                        future=loop.create_future(),
                        submitted_at=0.0,
                    )
                )
        batch = service._drain_batch()
        return [request.priority for request in batch]

    lanes = asyncio.run(scenario())
    # HIGH drains fully, LOW then takes the remaining slots round by round
    assert lanes.count(Priority.HIGH) == 2
    assert lanes.count(Priority.LOW) == 6


def test_priority_coercion_accepts_names_values_and_rejects_junk():
    assert Priority.coerce("high") is Priority.HIGH
    assert Priority.coerce(" LOW ") is Priority.LOW
    assert Priority.coerce(1) is Priority.NORMAL
    assert Priority.coerce(Priority.LOW) is Priority.LOW
    with pytest.raises(ParameterError):
        Priority.coerce("urgent")
    with pytest.raises(ParameterError):
        Priority.coerce(7)


def test_lane_metrics_report_depth_and_completions(rng):
    image = _image(rng)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            await service.submit(image, priority="high")
            await service.submit(image, priority=Priority.LOW)
            return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["lanes"]["high"]["completed"] == 1
    assert metrics["lanes"]["low"]["completed"] == 1
    assert metrics["lanes"]["normal"]["completed"] == 0
    assert metrics["lanes"]["high"]["weight"] == 4
    for lane in metrics["lanes"].values():
        assert lane["depth"] == 0


# --------------------------------------------------------------------------- #
# deadlines
# --------------------------------------------------------------------------- #
def test_expired_deadline_is_shed_at_admission(rng):
    image = _image(rng)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            with pytest.raises(DeadlineExceededError):
                await service.submit(image, deadline=0.0)
            return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["shed"]["admission"] == 1
    assert metrics["requests"] == 0  # shed before admission


def test_admission_control_uses_the_service_time_estimate(rng):
    image = _image(rng)

    async def scenario():
        service = AsyncSegmentationService(_engine())
        async with service:
            await service.submit(image)  # calibrate the EWMA
            assert service.estimate_completion_seconds(Priority.NORMAL) > 0.0
            service._ewma_request_seconds = 10.0  # pretend the engine is slow
            with pytest.raises(DeadlineExceededError):
                await service.submit(_image(rng), deadline=0.5)
            result = await service.submit(_image(rng), deadline=60.0)
            return result, service.metrics()

    result, metrics = asyncio.run(scenario())
    assert result is not None
    assert metrics["shed"]["admission"] == 1


def test_queued_requests_past_deadline_are_shed(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(engine, cache=None, max_batch_size=1)
        blocker = asyncio.ensure_future(service.submit(_image(np.random.default_rng(0))))
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        # queued behind the gated batch with a deadline that will expire there
        victim = asyncio.ensure_future(
            service.submit(_image(np.random.default_rng(1)), deadline=0.05)
        )
        await asyncio.sleep(0.2)
        segmenter.gate.set()
        with pytest.raises(DeadlineExceededError):
            await victim
        await blocker
        await service.aclose()
        return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["shed"]["expired"] == 1
    assert metrics["completed"] == 1


def test_default_deadline_applies_when_submit_has_none(rng):
    image = _image(rng)

    async def scenario():
        service = AsyncSegmentationService(_engine(), default_deadline=0.5)
        async with service:
            service._ewma_request_seconds = 10.0  # estimate >> default deadline
            with pytest.raises(DeadlineExceededError):
                await service.submit(image)
            return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["shed"]["admission"] == 1


# --------------------------------------------------------------------------- #
# quotas + backpressure
# --------------------------------------------------------------------------- #
def test_token_bucket_refills_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert not bucket.try_acquire()  # burst exhausted
    clock.advance(0.5)  # one token back at 2/s
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    assert TokenBucket(rate=1.0, burst=3.0, clock=clock).available == pytest.approx(3.0)
    with pytest.raises(ParameterError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ParameterError):
        TokenBucket(rate=1.0, burst=0.5)


def test_per_client_quota_rejects_only_the_noisy_client(rng):
    image = _image(rng)

    async def scenario():
        service = AsyncSegmentationService(_engine(), client_rate=0.001, client_burst=2)
        async with service:
            await service.submit(image, client_id="noisy")
            await service.submit(image, client_id="noisy")
            with pytest.raises(QuotaExceededError):
                await service.submit(image, client_id="noisy")
            quiet = await service.submit(image, client_id="quiet")
            return quiet, service.metrics()

    quiet, metrics = asyncio.run(scenario())
    assert quiet is not None
    assert metrics["quota_rejections"] == 1


def test_full_queues_raise_overloaded(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(
            engine, cache=None, max_batch_size=1, queue_size=2
        )
        tasks = [asyncio.ensure_future(service.submit(_image(np.random.default_rng(0))))]
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        # the worker is gated mid-batch; two more submits fill the lanes
        tasks += [
            asyncio.ensure_future(service.submit(_image(np.random.default_rng(seed))))
            for seed in (1, 2)
        ]
        await asyncio.sleep(0.1)  # two requests now sit in the lanes
        with pytest.raises(ServiceOverloadedError):
            await service.submit(_image(np.random.default_rng(9)), block=False)
        # the blocking default waits for lane space instead of raising
        waiter = asyncio.ensure_future(service.submit(_image(np.random.default_rng(8))))
        await asyncio.sleep(0.05)
        assert not waiter.done()  # parked on backpressure, not failed
        segmenter.gate.set()
        await asyncio.gather(*tasks)
        assert (await waiter) is not None
        await service.aclose()
        return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["completed"] == 4


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
def test_aclose_drains_queued_work(rng):
    images = [_image(rng, value=v) for v in range(8)]

    async def scenario():
        service = AsyncSegmentationService(_engine(), max_batch_size=2)
        tasks = [asyncio.ensure_future(service.submit(image)) for image in images]
        await asyncio.sleep(0)  # let the submits enqueue
        await service.aclose(drain=True)
        return await asyncio.gather(*tasks), service.metrics()

    results, metrics = asyncio.run(scenario())
    assert len(results) == 8
    assert metrics["completed"] == 8


def test_aclose_without_drain_fails_queued_requests(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(engine, cache=None, max_batch_size=1)
        running = asyncio.ensure_future(service.submit(_image(np.random.default_rng(0))))
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        queued = [
            asyncio.ensure_future(service.submit(_image(np.random.default_rng(seed))))
            for seed in (1, 2, 3)
        ]
        await asyncio.sleep(0.1)
        closer = asyncio.ensure_future(service.aclose(drain=False))
        await asyncio.sleep(0.05)
        segmenter.gate.set()
        await closer
        outcomes = await asyncio.gather(*queued, return_exceptions=True)
        return await running, outcomes

    running_result, outcomes = asyncio.run(scenario())
    assert running_result is not None
    assert all(isinstance(outcome, ServiceClosedError) for outcome in outcomes)


def test_submit_after_close_raises(rng):
    image = _image(rng)

    async def scenario():
        service = AsyncSegmentationService(_engine())
        async with service:
            await service.submit(image)
        assert service.closed
        with pytest.raises(ServiceClosedError):
            await service.submit(image)
        await service.aclose()  # idempotent

    asyncio.run(scenario())


def test_constructor_validation():
    with pytest.raises(ParameterError):
        AsyncSegmentationService("not-an-engine")
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), cache="bogus")
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), max_batch_size=0)
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), queue_size=0)
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), default_deadline=0.0)
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), lane_weights={Priority.HIGH: 0})
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), client_rate=-1.0)
    custom = ResultCache(max_entries=2)
    service = AsyncSegmentationService(_engine(), cache=custom)
    assert service.cache is custom


def test_describe_and_metrics_shape(rng):
    image = _image(rng)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            await service.submit(image)
            return service.describe(), service.metrics()

    description, metrics = asyncio.run(scenario())
    assert description["engine"]["segmenter"] == "iqft-rgb"
    assert description["lane_weights"] == {"high": 4, "normal": 2, "low": 1}
    assert set(metrics["lanes"]) == {"high", "normal", "low"}
    assert metrics["requests"] == 1
    assert metrics["throughput_rps"] > 0
    assert set(metrics["latency_seconds"]) >= {"count", "mean", "max", "p50", "p90", "p99"}
    assert metrics["batches"] >= 1
    assert metrics["ewma_request_seconds"] > 0


def test_in_flight_counts_admitted_requests_until_they_settle():
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(engine, cache=None, max_batch_size=1)
        blocker = asyncio.ensure_future(service.submit(_image(None, value=1)))
        await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)
        # Queued behind the gated batch: one expires there, one is cancelled
        # by its caller, one fails at scoring (ground truth of the wrong shape).
        expiring = asyncio.ensure_future(service.submit(_image(None, value=2), deadline=0.05))
        abandoned = asyncio.ensure_future(service.submit(_image(None, value=3)))
        failing = asyncio.ensure_future(
            service.submit(_image(None, value=4), ground_truth=np.zeros((2, 2), dtype=np.int64))
        )
        await asyncio.sleep(0.2)
        gated = service.metrics()["in_flight"]
        abandoned.cancel()
        with pytest.raises(asyncio.CancelledError):
            await abandoned
        segmenter.gate.set()
        await blocker
        with pytest.raises(DeadlineExceededError):
            await expiring
        with pytest.raises(Exception):
            await failing
        await service.aclose()
        return gated, service.metrics()

    gated, metrics = asyncio.run(scenario())
    assert gated == 4
    assert metrics["in_flight"] == 0
    assert (metrics["requests"], metrics["completed"], metrics["failed"]) == (4, 1, 1)
    assert (metrics["cancelled"], metrics["shed"]["expired"]) == (1, 1)


def test_begin_drain_rejects_new_submits_but_finishes_queued_work(rng):
    """The network front end's drain hook: reject new, complete admitted."""
    image = _image(rng)

    async def scenario():
        service = AsyncSegmentationService(_engine())
        async with service:
            queued = asyncio.ensure_future(service.submit(image))
            await asyncio.sleep(0)  # let the submit pass its closed check
            service.begin_drain()
            assert service.closed
            with pytest.raises(ServiceClosedError):
                await service.submit(image)
            result = await queued  # admitted before the drain: must complete
        return result, service.metrics()

    result, metrics = asyncio.run(scenario())
    assert result.labels.shape == image.shape[:2]
    assert metrics["completed"] == 1
    assert metrics["cancelled"] == 0

"""The service's request path, cache and lifecycle contract.

These tests began as the suite of the threaded ``SegmentationService``,
deleted in 5.0.0; each now checks the same behaviour on
:class:`repro.serve.AsyncSegmentationService`, the one serving core.  The
admission fast path (in-memory hits answered on the event loop) is pinned
down at the end.
"""

import asyncio
import concurrent.futures
import threading

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine, binarize_largest_background
from repro.errors import ParameterError, ServiceClosedError, ServiceOverloadedError
from repro.obs import Trace
from repro.serve import (
    AsyncSegmentationService,
    ResultCache,
    TieredResultCache,
    image_digest,
)


def _engine(**kwargs):
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), **kwargs)


def _image(rng, value=None, shape=(12, 14, 3)):
    if value is not None:
        return np.full(shape, value, dtype=np.uint8)
    return (rng.random(shape) * 255).astype(np.uint8)


class GatedSegmenter(BaseSegmenter):
    """A segmenter that blocks until released — for backpressure tests."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _segment(self, image):
        self.entered.set()
        assert self.gate.wait(30.0), "gate never released"
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


class GateFirstCall(IQFTSegmenter):
    """The real IQFT segmenter, except that its first call waits for a gate."""

    def __init__(self):
        super().__init__(thetas=np.pi)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _segment(self, image):
        if not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(30.0), "gate never released"
        return super()._segment(image)


async def _wait_entered(segmenter):
    await asyncio.get_running_loop().run_in_executor(None, segmenter.entered.wait, 10.0)


# --------------------------------------------------------------------------- #
# request path + caching
# --------------------------------------------------------------------------- #
def test_cache_hit_results_bit_identical_to_cold(rng):
    image = _image(rng)
    mask = (rng.random(image.shape[:2]) > 0.5).astype(np.int64)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            cold = await service.submit(image, ground_truth=mask)
            return cold, await service.submit(image, ground_truth=mask)

    cold, warm = asyncio.run(scenario())
    assert cold.segmentation.extras["cache_hit"] is False
    assert warm.segmentation.extras["cache_hit"] is True
    assert np.array_equal(cold.labels, warm.labels)
    assert np.array_equal(cold.binary, warm.binary)
    assert cold.metrics == warm.metrics
    assert cold.segmentation.num_segments == warm.segmentation.num_segments


def test_cached_segmentation_rescored_per_ground_truth(rng):
    image = _image(rng)
    ones = np.ones(image.shape[:2], dtype=np.int64)
    zeros = np.zeros(image.shape[:2], dtype=np.int64)

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            first = await service.submit(image, ground_truth=ones)
            return first, await service.submit(image, ground_truth=zeros)

    first, second = asyncio.run(scenario())
    assert second.segmentation.extras["cache_hit"] is True
    assert np.array_equal(first.labels, second.labels)
    # same cached segmentation, scored freshly against each request's mask
    assert np.all(first.binary == 1)
    assert np.all(second.binary == 0)


def test_identical_requests_in_one_batch_are_coalesced(rng):
    image = _image(rng, value=77)

    async def scenario():
        async with AsyncSegmentationService(_engine(), max_batch_size=8) as service:
            results = await service.map([image] * 4)
            return results, service.metrics()

    results, metrics = asyncio.run(scenario())
    for result in results:
        assert np.array_equal(result.labels, results[0].labels)
    # every request answered, but the engine ran the image at most twice
    # (once per batch; coalesced + cache hits cover the rest)
    duplicates = metrics["coalesced"] + metrics["cache"]["hits"]
    assert duplicates >= 2
    assert metrics["completed"] == 4


def test_service_without_cache_still_serves(rng):
    image = _image(rng)

    async def scenario():
        async with AsyncSegmentationService(_engine(), cache=None) as service:
            a = await service.submit(image)
            b = await service.submit(image)
            return a, b, service.metrics()

    a, b, metrics = asyncio.run(scenario())
    assert np.array_equal(a.labels, b.labels)
    assert metrics["cache"] is None
    assert a.segmentation.extras["cache_hit"] is False
    assert b.segmentation.extras["cache_hit"] is False


def test_coalescing_works_without_cache(rng):
    image = _image(rng, value=42)

    async def scenario():
        # The four submits reach their lane before the idle worker first
        # runs, so it drains them as one batch.
        async with AsyncSegmentationService(_engine(), cache=None, max_batch_size=4) as service:
            results = await service.map([image] * 4)
            return results, service.metrics()

    results, metrics = asyncio.run(scenario())
    assert metrics["coalesced"] == 3  # one engine evaluation served all four
    for result in results:
        assert np.array_equal(result.labels, results[0].labels)


def test_submit_snapshots_caller_buffer(rng):
    buffer = _image(rng, value=50)
    expected = _engine().segment(np.full_like(buffer, 50)).labels

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            pending = asyncio.ensure_future(service.submit(buffer))
            await asyncio.sleep(0)  # the submit runs up to its first suspension
            buffer[:] = 180  # caller reuses the buffer (video-frame pattern)
            result = await pending
            # and the cache holds the snapshot, not the mutated buffer
            return result, await service.submit(np.full_like(buffer, 50))

    result, repeat = asyncio.run(scenario())
    assert np.array_equal(result.labels, expected)
    assert repeat.segmentation.extras["cache_hit"] is True
    assert np.array_equal(repeat.labels, expected)


def test_config_digest_covers_noise_model_parameters():
    from repro.core.sampling_segmenter import ShotBasedIQFTSegmenter
    from repro.quantum import NoiseModel

    quiet = AsyncSegmentationService(
        BatchSegmentationEngine(
            ShotBasedIQFTSegmenter(shots=8, noise_model=NoiseModel(depolarizing=0.0))
        )
    )
    noisy = AsyncSegmentationService(
        BatchSegmentationEngine(
            ShotBasedIQFTSegmenter(shots=8, noise_model=NoiseModel(depolarizing=0.2))
        )
    )
    assert quiet.describe()["config_digest"] != noisy.describe()["config_digest"]


def test_default_config_digest_is_pinned():
    # The digest is the second half of every cache key: while it holds,
    # warm --cache-dir entries written by 6.0.0 and later keep hitting.
    from repro.serve import WorkerSpec

    service = WorkerSpec().build_service()
    assert service.describe()["config_digest"] == "e5586fb386f953ffa7cf91a85ead792d"


def test_caller_cancelled_future_is_accounted(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(engine, max_batch_size=1, queue_size=16, cache=None)
        running = asyncio.ensure_future(service.submit(_image(rng)))
        await _wait_entered(segmenter)
        victim = asyncio.ensure_future(service.submit(_image(rng)))
        await asyncio.sleep(0.05)
        victim.cancel()  # cancel while it waits in the queue
        with pytest.raises(asyncio.CancelledError):
            await victim
        segmenter.gate.set()
        await service.aclose(drain=True)
        return await running, service.metrics()

    running, metrics = asyncio.run(scenario())
    assert running is not None
    assert metrics["cancelled"] == 1
    assert metrics["in_flight"] == 0


def test_shared_cache_isolates_differently_configured_engines(rng):
    image = _image(rng)
    cache = ResultCache(max_entries=16)
    engine_pi = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    engine_4pi = BatchSegmentationEngine(IQFTSegmenter(thetas=4 * np.pi))

    async def serve(engine):
        async with AsyncSegmentationService(engine, cache=cache) as service:
            return await service.submit(image)

    result_pi = asyncio.run(serve(engine_pi))
    result_4pi = asyncio.run(serve(engine_4pi))
    # different θ must never be served from the other engine's cache entry
    assert result_4pi.segmentation.extras["cache_hit"] is False
    assert np.array_equal(result_4pi.labels, engine_4pi.segment(image).labels)
    assert not np.array_equal(result_pi.labels, result_4pi.labels)


def test_map_returns_results_in_input_order(rng):
    images = [_image(rng, value=v) for v in (10, 200, 10, 90)]

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            results = await service.map(images)
            with pytest.raises(ParameterError):
                await service.map(images, ground_truths=[None])
            return results

    results = asyncio.run(scenario())
    assert len(results) == 4
    engine = _engine()
    for image, result in zip(images, results):
        assert np.array_equal(result.labels, engine.segment(image).labels)


# --------------------------------------------------------------------------- #
# backpressure + failure isolation
# --------------------------------------------------------------------------- #
def test_backpressure_rejects_when_queue_full(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(engine, max_batch_size=1, queue_size=2, cache=None)
        blocked = asyncio.ensure_future(service.submit(_image(rng)))  # gated in its batch
        await _wait_entered(segmenter)
        queued = [asyncio.ensure_future(service.submit(_image(rng))) for _ in range(2)]
        await asyncio.sleep(0)  # the queue now holds 2 = queue_size
        try:
            with pytest.raises(ServiceOverloadedError):
                await service.submit(_image(rng), block=False)
            # a caller bounding its wait gives up without being counted
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(service.submit(_image(rng)), 0.01)
        finally:
            segmenter.gate.set()
        await asyncio.gather(blocked, *queued)
        await service.aclose()
        return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["completed"] == 3
    assert metrics["requests"] == 3  # rejected submits are not counted


def test_per_request_failures_do_not_poison_the_batch(rng):
    good = _image(rng)
    bad = (rng.random((10, 10)) * 255).astype(np.uint8)  # 2-D input to an RGB method

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            outcomes = await service.map([good, bad], return_errors=True)
            return outcomes, service.metrics()

    (good_result, bad_result), metrics = asyncio.run(scenario())
    assert good_result.labels.shape == good.shape[:2]
    assert isinstance(bad_result, Exception)
    assert metrics["completed"] == 1
    assert metrics["failed"] == 1


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
def test_close_drains_inflight_work(rng):
    async def scenario():
        service = AsyncSegmentationService(_engine(), max_batch_size=2, queue_size=64)
        tasks = [asyncio.ensure_future(service.submit(_image(rng, value=v))) for v in range(10)]
        await asyncio.sleep(0)
        await service.aclose(drain=True)
        return await asyncio.gather(*tasks), service.metrics()

    results, metrics = asyncio.run(scenario())
    assert all(result is not None for result in results)
    assert metrics["completed"] == 10


def test_close_without_drain_cancels_queued_requests(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)

    async def scenario():
        service = AsyncSegmentationService(engine, max_batch_size=1, queue_size=16, cache=None)
        running = asyncio.ensure_future(service.submit(_image(rng)))
        await _wait_entered(segmenter)
        queued = [asyncio.ensure_future(service.submit(_image(rng))) for _ in range(3)]
        await asyncio.sleep(0)
        # close while the worker is still gated: the queued requests fail
        # before the worker could ever see them
        closer = asyncio.ensure_future(service.aclose(drain=False))
        await asyncio.sleep(0.05)
        segmenter.gate.set()
        await closer
        outcomes = await asyncio.gather(*queued, return_exceptions=True)
        return await running, outcomes, service.metrics()

    running, outcomes, metrics = asyncio.run(scenario())
    assert running is not None
    assert all(isinstance(outcome, ServiceClosedError) for outcome in outcomes)
    assert metrics["cancelled"] == 3


def test_submit_after_close_raises(rng):
    async def scenario():
        service = AsyncSegmentationService(_engine())
        await service.aclose()
        with pytest.raises(ServiceClosedError):
            await service.submit(_image(rng))
        await service.aclose()  # idempotent

    asyncio.run(scenario())


def test_context_manager_drains_on_clean_exit(rng):
    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            pending = asyncio.ensure_future(service.submit(_image(rng)))
            await asyncio.sleep(0)
        return pending, service

    pending, service = asyncio.run(scenario())
    assert pending.result() is not None
    assert service.closed


# --------------------------------------------------------------------------- #
# observability + validation
# --------------------------------------------------------------------------- #
def test_metrics_snapshot_shape(rng):
    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            await service.submit(_image(rng))
            return service.metrics(), service.describe()

    metrics, description = asyncio.run(scenario())
    assert metrics["requests"] == 1
    assert metrics["completed"] == 1
    assert metrics["in_flight"] == 0
    assert metrics["throughput_rps"] > 0
    assert set(metrics["latency_seconds"]) >= {"count", "mean", "max", "p50", "p90", "p99"}
    assert metrics["latency_seconds"]["count"] == 1.0
    assert metrics["batches"] >= 1
    assert 0.0 <= metrics["cache"]["hit_rate"] <= 1.0
    assert description["engine"]["segmenter"] == "iqft-rgb"
    assert "max_entries=256" in description["cache"]


def test_constructor_validation():
    with pytest.raises(ParameterError):
        AsyncSegmentationService("not-an-engine")
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), cache="bogus")
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), max_batch_size=0)
    custom = ResultCache(max_entries=2)
    assert AsyncSegmentationService(_engine(), cache=custom).cache is custom


# --------------------------------------------------------------------------- #
# admission fast path
# --------------------------------------------------------------------------- #
class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A default executor that counts the work the service hands it."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.submissions = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submissions += 1
        return super().submit(fn, *args, **kwargs)


class ForwardingCache:
    """A wrapper that forwards every attribute, as a delay injector does."""

    supports_trace = True

    def __init__(self, inner):
        self._inner = inner
        self.probe_threads = []

    def get(self, key, trace=None):
        self.probe_threads.append(threading.get_ident())
        return self._inner.get(key, trace=trace)

    def put(self, key, value):
        self._inner.put(key, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


async def _hops(executor, submit):
    """Executor submissions made while ``submit`` runs, and its result."""
    before = executor.submissions
    result = await submit
    return executor.submissions - before, result


def test_admission_hops_to_the_executor_only_for_what_needs_a_thread(rng):
    image = _image(rng)
    mask = (rng.random(image.shape[:2]) > 0.5).astype(np.int64)
    wrapped = ForwardingCache(ResultCache(max_entries=4))

    async def scenario():
        executor = CountingExecutor()
        loop = asyncio.get_running_loop()
        loop.set_default_executor(executor)
        hops = {}
        async with AsyncSegmentationService(_engine()) as service:
            await service.submit(image)  # cold: computes and caches
            hops["memory hit"], warm = await _hops(executor, service.submit(image))
            hops["annotated hit"], _ = await _hops(
                executor, service.submit(image, ground_truth=mask)
            )
        async with AsyncSegmentationService(_engine(), cache=wrapped) as service:
            await service.submit(image)
            hops["wrapped hit"], _ = await _hops(executor, service.submit(image))
        return hops, warm, threading.get_ident()

    hops, warm, loop_thread = asyncio.run(scenario())
    assert warm.segmentation.extras["cache_hit"] is True
    # an unannotated in-memory hit never leaves the loop; scoring against
    # ground truth takes one hop; a cache that is not known to live in
    # memory is probed on the executor, never on the loop
    assert hops == {"memory hit": 0, "annotated hit": 1, "wrapped hit": 1}
    assert wrapped.probe_threads and loop_thread not in wrapped.probe_threads


def test_a_tiered_l1_miss_hops_once_and_probes_each_tier_once(rng):
    image = _image(rng)
    engine = _engine()
    l1, shm, l2 = ResultCache(max_entries=4), ResultCache(max_entries=4), ResultCache(4)
    tiered = TieredResultCache(l1=l1, l2=l2, shm=shm)
    segmentation = engine.segment(image)
    binary = binarize_largest_background(segmentation.labels).astype(np.uint8)
    trace = Trace("tiered")

    async def scenario():
        executor = CountingExecutor()
        asyncio.get_running_loop().set_default_executor(executor)
        async with AsyncSegmentationService(engine, cache=tiered) as service:
            l2.put((image_digest(image), service._config_digest), (segmentation, binary))
            return await _hops(executor, service.submit(image, trace=trace))

    hops, result = asyncio.run(scenario())
    assert hops == 1  # only the shm and disk tiers below L1 leave the loop
    assert result.segmentation.extras["cache_hit"] is True
    assert np.array_equal(result.labels, segmentation.labels)
    for tier in (l1, shm, l2):
        assert tier.stats["hits"] + tier.stats["misses"] == 1
    spans = {name: (start, end) for name, _, start, end, _ in trace.spans}
    (probe,) = [span for span in trace.spans if span[0] == "cache.probe"]
    for name in ("cache.l1", "cache.shm", "cache.l2"):
        assert probe[2] <= spans[name][0] <= spans[name][1] <= probe[3], name


def test_a_queued_submit_keeps_the_bytes_it_was_given(rng):
    """Guard: a miss snapshots the caller's buffer before it suspends."""
    segmenter = GateFirstCall()
    engine = BatchSegmentationEngine(segmenter, use_lut=False)
    original = _image(rng)
    buffer = original.copy()
    reference = _engine()

    async def scenario():
        async with AsyncSegmentationService(engine, max_batch_size=1) as service:
            blocker = asyncio.ensure_future(service.submit(_image(rng, value=1)))
            await _wait_entered(segmenter)  # the worker is gated mid-batch
            queued = asyncio.ensure_future(service.submit(buffer))
            for _ in range(1000):  # until the submit waits in its lane
                await asyncio.sleep(0.001)
                if service.metrics()["queue_depth"] == 1:
                    break
            buffer[:] = 255 - buffer  # the caller reuses its buffer
            segmenter.gate.set()
            await blocker
            result = await queued
            repeat = await service.submit(original.copy())
            overwritten = await service.submit(buffer)
            return result, repeat, overwritten

    result, repeat, overwritten = asyncio.run(scenario())
    assert np.array_equal(result.labels, reference.segment(original).labels)
    assert repeat.segmentation.extras["cache_hit"] is True
    assert np.array_equal(repeat.labels, result.labels)
    assert overwritten.segmentation.extras["cache_hit"] is False
    assert np.array_equal(overwritten.labels, reference.segment(buffer).labels)


# --------------------------------------------------------------------------- #
# cache accounting: one lookup per request
# --------------------------------------------------------------------------- #
def test_a_memory_cache_counts_one_lookup_per_request(rng):
    images = [_image(rng) for _ in range(4)]

    async def scenario():
        async with AsyncSegmentationService(_engine()) as service:
            await service.map(images)  # cold: each request misses once
            await service.map(images)  # warm: each request hits once
            return service.metrics()["cache"]

    cache = asyncio.run(scenario())
    assert (cache["hits"], cache["misses"]) == (4, 4)
    assert cache["hit_rate"] == pytest.approx(0.5)


def test_each_tier_counts_one_lookup_per_request_that_reached_it(rng):
    images = [_image(rng) for _ in range(4)]
    l1, shm, l2 = ResultCache(max_entries=8), ResultCache(max_entries=8), ResultCache(8)
    tiered = TieredResultCache(l1=l1, l2=l2, shm=shm)

    def lookups():
        return [tier.stats["hits"] + tier.stats["misses"] for tier in (l1, shm, l2)]

    async def scenario():
        async with AsyncSegmentationService(_engine(), cache=tiered) as service:
            await service.map(images)
            cold = lookups()
            await service.map(images)
            return cold, lookups()

    cold, warm = asyncio.run(scenario())
    assert cold == [4, 4, 4]  # every cold request fell through every tier once
    assert warm == [8, 4, 4]  # warm requests stop at L1


def test_any_other_cache_is_rechecked_with_get(rng):
    """Guard: a cache of another type still sees a second get per computed key."""
    image = _image(rng)
    wrapped = ForwardingCache(ResultCache(max_entries=4))

    async def scenario():
        async with AsyncSegmentationService(_engine(), cache=wrapped) as service:
            return await service.submit(image)

    result = asyncio.run(scenario())
    assert result.segmentation.extras["cache_hit"] is False
    assert len(wrapped.probe_threads) == 2  # the admission probe and the re-check


def test_the_serve_quickstart_reports_half_its_requests_as_hits(capsys):
    import pathlib
    import runpy

    example = pathlib.Path(__file__).resolve().parents[1] / "examples" / "serve_quickstart.py"
    runpy.run_path(str(example), run_name="__main__")
    out = capsys.readouterr().out
    assert out.count("cache hit rate 50% (4 hits / 4 misses)") == 2, out

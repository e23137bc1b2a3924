"""Tests for :class:`repro.serve.SegmentationService`."""

import threading

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import ParameterError, ServiceClosedError, ServiceOverloadedError
from repro.serve import ResultCache, SegmentationService


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


# --------------------------------------------------------------------------- #
# request path + caching
# --------------------------------------------------------------------------- #
def test_cache_hit_results_bit_identical_to_cold(rng):
    image = _image(rng)
    mask = (rng.random(image.shape[:2]) > 0.5).astype(np.int64)
    with SegmentationService(_engine(), max_wait_seconds=0.001) as service:
        cold = service.submit(image, ground_truth=mask).result(timeout=30)
        warm = service.submit(image, ground_truth=mask).result(timeout=30)
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
    with SegmentationService(_engine(), max_wait_seconds=0.001) as service:
        first = service.submit(image, ground_truth=ones).result(timeout=30)
        second = service.submit(image, ground_truth=zeros).result(timeout=30)
    assert second.segmentation.extras["cache_hit"] is True
    assert np.array_equal(first.labels, second.labels)
    # same cached segmentation, scored freshly against each request's mask
    assert np.all(first.binary == 1)
    assert np.all(second.binary == 0)


def test_identical_requests_in_one_batch_are_coalesced(rng):
    image = _image(rng, value=77)
    with SegmentationService(
        _engine(), max_batch_size=8, max_wait_seconds=0.2
    ) as service:
        futures = [service.submit(image) for _ in range(4)]
        results = [future.result(timeout=30) for future in futures]
        metrics = service.metrics()
    for result in results:
        assert np.array_equal(result.labels, results[0].labels)
    # every request answered, but the engine ran the image at most twice
    # (once per batch; coalesced + cache hits cover the rest)
    duplicates = metrics["coalesced"] + metrics["cache"]["hits"]
    assert duplicates >= 2
    assert metrics["completed"] == 4


def test_service_without_cache_still_serves(rng):
    image = _image(rng)
    with SegmentationService(_engine(), cache=None, max_wait_seconds=0.001) as service:
        a = service.submit(image).result(timeout=30)
        b = service.submit(image).result(timeout=30)
        metrics = service.metrics()
    assert np.array_equal(a.labels, b.labels)
    assert metrics["cache"] is None
    assert a.segmentation.extras["cache_hit"] is False
    assert b.segmentation.extras["cache_hit"] is False


def test_coalescing_works_without_cache(rng):
    image = _image(rng, value=42)
    # max_batch_size=4 with a long deadline: the worker's first batch
    # deterministically gathers all four requests (size flush)
    with SegmentationService(
        _engine(), cache=None, max_batch_size=4, max_wait_seconds=10.0
    ) as service:
        futures = [service.submit(image) for _ in range(4)]
        results = [future.result(timeout=30) for future in futures]
        metrics = service.metrics()
    assert metrics["coalesced"] == 3  # one engine evaluation served all four
    for result in results:
        assert np.array_equal(result.labels, results[0].labels)


def test_submit_snapshots_caller_buffer(rng):
    buffer = _image(rng, value=50)
    expected = _engine().segment(np.full_like(buffer, 50)).labels
    with SegmentationService(_engine(), max_wait_seconds=0.001) as service:
        future = service.submit(buffer)
        buffer[:] = 180  # caller reuses the buffer immediately (video-frame pattern)
        result = future.result(timeout=30)
        assert np.array_equal(result.labels, expected)
        # and the cache holds the snapshot, not the mutated buffer
        repeat = service.submit(np.full_like(buffer, 50)).result(timeout=30)
    assert repeat.segmentation.extras["cache_hit"] is True
    assert np.array_equal(repeat.labels, expected)


def test_config_digest_covers_noise_model_parameters():
    from repro.core.sampling_segmenter import ShotBasedIQFTSegmenter
    from repro.quantum import NoiseModel

    quiet = SegmentationService(
        BatchSegmentationEngine(
            ShotBasedIQFTSegmenter(shots=8, noise_model=NoiseModel(depolarizing=0.0))
        )
    )
    noisy = SegmentationService(
        BatchSegmentationEngine(
            ShotBasedIQFTSegmenter(shots=8, noise_model=NoiseModel(depolarizing=0.2))
        )
    )
    try:
        assert quiet.describe()["config_digest"] != noisy.describe()["config_digest"]
    finally:
        quiet.close()
        noisy.close()


def test_caller_cancelled_future_is_accounted(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)
    service = SegmentationService(
        engine, max_batch_size=1, max_wait_seconds=0.0, queue_size=16, cache=None
    )
    running = service.submit(_image(rng))
    assert segmenter.entered.wait(10.0)
    victim = service.submit(_image(rng))
    assert victim.cancel()  # cancel while it waits in the queue
    segmenter.gate.set()
    service.close(drain=True)
    assert running.result(timeout=30) is not None
    metrics = service.metrics()
    assert metrics["cancelled"] == 1
    assert metrics["in_flight"] == 0


def test_shared_cache_isolates_differently_configured_engines(rng):
    image = _image(rng)
    cache = ResultCache(max_entries=16)
    engine_pi = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    engine_4pi = BatchSegmentationEngine(IQFTSegmenter(thetas=4 * np.pi))
    with SegmentationService(engine_pi, cache=cache, max_wait_seconds=0.001) as first:
        result_pi = first.submit(image).result(timeout=30)
    with SegmentationService(engine_4pi, cache=cache, max_wait_seconds=0.001) as second:
        result_4pi = second.submit(image).result(timeout=30)
    # different θ must never be served from the other engine's cache entry
    assert result_4pi.segmentation.extras["cache_hit"] is False
    assert np.array_equal(result_4pi.labels, engine_4pi.segment(image).labels)
    assert not np.array_equal(result_pi.labels, result_4pi.labels)


def test_map_returns_results_in_input_order(rng):
    images = [_image(rng, value=v) for v in (10, 200, 10, 90)]
    with SegmentationService(_engine(), max_wait_seconds=0.005) as service:
        results = service.map(images)
    assert len(results) == 4
    engine = _engine()
    for image, result in zip(images, results):
        assert np.array_equal(result.labels, engine.segment(image).labels)
    with SegmentationService(_engine()) as service:
        with pytest.raises(ParameterError):
            service.map(images, ground_truths=[None])


# --------------------------------------------------------------------------- #
# backpressure + failure isolation
# --------------------------------------------------------------------------- #
def test_backpressure_rejects_when_queue_full(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)
    service = SegmentationService(
        engine, max_batch_size=1, max_wait_seconds=0.0, queue_size=2, cache=None
    )
    try:
        blocked = service.submit(_image(rng))  # worker picks this up and blocks
        assert segmenter.entered.wait(10.0)
        service.submit(_image(rng))
        service.submit(_image(rng))  # queue now holds 2 = queue_size
        with pytest.raises(ServiceOverloadedError):
            service.submit(_image(rng), block=False)
        with pytest.raises(ServiceOverloadedError):
            service.submit(_image(rng), timeout=0.01)
    finally:
        segmenter.gate.set()
        service.close()
    assert blocked.result(timeout=30) is not None
    metrics = service.metrics()
    assert metrics["completed"] == 3
    assert metrics["requests"] == 3  # rejected submits are not counted


def test_per_request_failures_do_not_poison_the_batch(rng):
    good = _image(rng)
    bad = (rng.random((10, 10)) * 255).astype(np.uint8)  # 2-D input to an RGB method
    with SegmentationService(_engine(), max_wait_seconds=0.005) as service:
        good_future = service.submit(good)
        bad_future = service.submit(bad)
        assert good_future.result(timeout=30) is not None
        with pytest.raises(Exception):
            bad_future.result(timeout=30)
        metrics = service.metrics()
    assert metrics["completed"] == 1
    assert metrics["failed"] == 1


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
def test_close_drains_inflight_work(rng):
    service = SegmentationService(
        _engine(), max_batch_size=2, max_wait_seconds=0.001, queue_size=64
    )
    futures = [service.submit(_image(rng, value=v)) for v in range(10)]
    service.close(drain=True)
    for future in futures:
        assert future.result(timeout=30) is not None
    assert service.metrics()["completed"] == 10


def test_close_without_drain_cancels_queued_requests(rng):
    segmenter = GatedSegmenter()
    engine = BatchSegmentationEngine(segmenter)
    service = SegmentationService(
        engine, max_batch_size=1, max_wait_seconds=0.0, queue_size=16, cache=None
    )
    running = service.submit(_image(rng))
    assert segmenter.entered.wait(10.0)
    queued = [service.submit(_image(rng)) for _ in range(3)]
    # close while the worker is still gated: the queued requests are popped
    # and cancelled before the worker could ever see them (join times out,
    # which close tolerates)
    service.close(drain=False, timeout=0.5)
    segmenter.gate.set()
    assert running.result(timeout=30) is not None
    assert all(future.cancelled() for future in queued)
    assert service.metrics()["cancelled"] == 3


def test_submit_after_close_raises(rng):
    service = SegmentationService(_engine())
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit(_image(rng))
    service.close()  # idempotent


def test_context_manager_drains_on_clean_exit(rng):
    with SegmentationService(_engine(), max_wait_seconds=0.001) as service:
        future = service.submit(_image(rng))
    assert future.result(timeout=30) is not None
    assert service.closed


# --------------------------------------------------------------------------- #
# observability + validation
# --------------------------------------------------------------------------- #
def test_metrics_snapshot_shape(rng):
    with SegmentationService(_engine(), max_wait_seconds=0.001) as service:
        service.submit(_image(rng)).result(timeout=30)
        metrics = service.metrics()
    assert metrics["requests"] == 1
    assert metrics["completed"] == 1
    assert metrics["in_flight"] == 0
    assert metrics["throughput_rps"] > 0
    assert set(metrics["latency_seconds"]) >= {"count", "mean", "max", "p50", "p90", "p99"}
    assert metrics["latency_seconds"]["count"] == 1.0
    assert metrics["batcher"]["batches"] >= 1
    assert 0.0 <= metrics["cache"]["hit_rate"] <= 1.0
    description = service.describe()
    assert description["engine"]["segmenter"] == "iqft-rgb"
    assert description["cache"]["max_entries"] == 256


def test_constructor_validation():
    with pytest.raises(ParameterError):
        SegmentationService("not-an-engine")
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), cache="bogus")
    with pytest.raises(ParameterError):
        SegmentationService(_engine(), max_batch_size=0)
    custom = ResultCache(max_entries=2)
    service = SegmentationService(_engine(), cache=custom)
    assert service.cache is custom
    service.close()

"""Tests for the temporal-stream (delta) path through the serving stack."""

import asyncio
import contextlib
import http.client
import io
import json
import threading

import numpy as np
import pytest

from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import ParameterError, ShapeError
from repro.serve import AsyncSegmentationService, HttpSegmentationServer, ResultCache


def _engine(**kwargs):
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), **kwargs)


def _frame(rng, shape=(24, 24, 3)):
    return (rng.random(shape) * 255).astype(np.uint8)


def _mutate(rng, frame, size=8):
    out = frame.copy()
    block = out[:size, :size]
    block[...] = rng.integers(0, 256, size=block.shape, dtype=np.uint8)
    return out


def _npy_bytes(image):
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(image), allow_pickle=False)
    return buffer.getvalue()


def _service(**kwargs):
    kwargs.setdefault("delta_tile_shape", (8, 8))
    return AsyncSegmentationService(_engine(), **kwargs)


# --------------------------------------------------------------------------- #
# the async service path
# --------------------------------------------------------------------------- #
def test_submit_with_stream_id_reuses_tiles_and_counts_them(rng):
    engine = _engine()
    first = _frame(rng)
    second = _mutate(rng, first)

    async def scenario():
        async with _service(cache=None) as service:
            cold = await service.submit(first, stream_id="cam")
            warm = await service.submit(second, stream_id="cam")
            return cold, warm, service.metrics()

    cold, warm, metrics = asyncio.run(scenario())
    assert np.array_equal(cold.labels, engine.segment(first).labels)
    assert np.array_equal(warm.labels, engine.segment(second).labels)
    assert cold.segmentation.extras["delta"]["had_ancestor"] is False
    stats = warm.segmentation.extras["delta"]
    assert stats["tiles_reused"] == 8
    assert stats["tiles_recomputed"] == 1

    delta = metrics["delta"]
    assert delta["enabled"] is True and delta["supported"] is True
    assert delta["frames"] == 2
    assert delta["tiles_reused"] == 8
    assert delta["tiles_recomputed"] == 10  # 9 cold + 1 dirty
    assert delta["reuse_ratio"] == pytest.approx(8 / 18)
    assert delta["streams"] == 1
    lane = metrics["lanes"]["normal"]["delta"]
    assert lane == {"frames": 2, "tiles_reused": 8, "tiles_recomputed": 10}


def test_submit_without_stream_id_leaves_delta_counters_alone(rng):
    async def scenario():
        async with _service(cache=None) as service:
            await service.submit(_frame(rng))
            return service.metrics()

    metrics = asyncio.run(scenario())
    assert metrics["delta"]["frames"] == 0
    assert metrics["lanes"]["normal"]["delta"]["frames"] == 0


def test_whole_image_cache_hit_does_not_double_book_delta_counters(rng):
    frame = _frame(rng)

    async def scenario():
        async with _service(cache=ResultCache(max_entries=16)) as service:
            await service.submit(frame, stream_id="cam")
            hit = await service.submit(frame, stream_id="cam")
            return hit, service.metrics()

    hit, metrics = asyncio.run(scenario())
    assert hit.segmentation.extras["cache_hit"] is True
    assert metrics["delta"]["frames"] == 1  # only the computed frame counts


def test_delta_disabled_service_reports_no_delta(rng):
    async def scenario():
        async with _service(cache=None, delta=False) as service:
            await service.submit(_frame(rng), stream_id="cam")
            return service.metrics(), service.capabilities(), service.describe()

    metrics, capabilities, described = asyncio.run(scenario())
    assert metrics["delta"] is None
    assert capabilities["delta_streams"] is False
    assert described["delta"] is None


def test_capabilities_and_describe_advertise_delta(rng):
    async def scenario():
        async with _service(cache=None) as service:
            return service.capabilities(), service.describe()

    capabilities, described = asyncio.run(scenario())
    assert capabilities["delta_streams"] is True
    assert described["delta"]["tile_shape"] == [8, 8]


def test_corrupt_stream_frame_fails_alone_without_poisoning_the_stream(rng):
    engine = _engine()
    first = _frame(rng)
    corrupt = _frame(rng, (24, 24))  # 2-D input to an RGB method
    then = _mutate(rng, first)

    async def scenario():
        async with _service(cache=None) as service:
            await service.submit(first, stream_id="cam")
            with pytest.raises(ShapeError):
                await service.submit(corrupt, stream_id="cam")
            good = await service.submit(then, stream_id="cam")
            return good, service.metrics()

    good, metrics = asyncio.run(scenario())
    # the frame after the corrupt one still diffs against `first` — exactly
    assert np.array_equal(good.labels, engine.segment(then).labels)
    assert good.segmentation.extras["delta"]["tiles_reused"] == 8
    assert metrics["failed"] == 1


def test_out_of_order_frames_through_the_service_stay_exact(rng):
    engine = _engine()
    frames = [_frame(rng)]
    for _ in range(3):
        frames.append(_mutate(rng, frames[-1]))
    shuffled = [frames[i] for i in (1, 3, 0, 2)]

    async def scenario():
        async with _service(cache=None) as service:
            return [await service.submit(f, stream_id="cam") for f in shuffled]

    results = asyncio.run(scenario())
    for frame, result in zip(shuffled, results):
        assert np.array_equal(result.labels, engine.segment(frame).labels)


def test_delta_constructor_validation():
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), delta_tile_shape=(0, 8))
    with pytest.raises(ParameterError):
        AsyncSegmentationService(_engine(), delta_max_streams=0)


# --------------------------------------------------------------------------- #
# the HTTP path: X-Repro-Stream-Id end to end
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def _serve(service_factory, **server_kwargs):
    """Run service + HTTP server on a private event loop thread."""
    started = threading.Event()
    box = {}
    failures = []

    def run():
        async def main():
            service = service_factory()
            server = HttpSegmentationServer(service, **server_kwargs)
            await server.start()
            stop = asyncio.Event()
            box.update(
                port=server.port, server=server, service=service,
                loop=asyncio.get_running_loop(), stop=stop,
            )
            started.set()
            await stop.wait()
            await server.aclose(drain=True, close_service=True)

        try:
            asyncio.run(main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(exc)
        finally:
            started.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(20), "server thread never started"
    if failures:
        raise failures[0]
    try:
        yield box
    finally:
        if "loop" in box:
            try:
                box["loop"].call_soon_threadsafe(box["stop"].set)
            except RuntimeError:
                pass
        thread.join(20)
        if failures:
            raise failures[0]


def _post(port, path, body, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        return response, payload
    finally:
        conn.close()


def _get_json(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


def test_http_stream_header_drives_the_delta_path(rng):
    engine = _engine()
    first = _frame(rng)
    second = _mutate(rng, first)
    with _serve(lambda: _service(cache=None)) as box:
        headers = {
            "Content-Type": "application/x-npy",
            "X-Repro-Stream-Id": "cam-1",
        }
        response, payload = _post(box["port"], "/v1/segment", _npy_bytes(first), headers)
        assert response.status == 200
        cold = json.loads(payload)
        assert cold["delta"]["tiles_reused"] == 0
        assert cold["delta"]["tiles_total"] == 9

        response, payload = _post(box["port"], "/v1/segment", _npy_bytes(second), headers)
        assert response.status == 200
        warm = json.loads(payload)
        assert warm["delta"]["tiles_reused"] == 8
        assert warm["delta"]["tiles_recomputed"] == 1
        assert warm["delta"]["reuse_ratio"] == pytest.approx(8 / 9)
        assert warm["num_segments"] == engine.segment(second).num_segments

        metrics = _get_json(box["port"], "/v1/metrics")
        assert metrics["delta"]["frames"] == 2
        assert metrics["delta"]["tiles_reused"] == 8

        capabilities = _get_json(box["port"], "/v1/capabilities")
        assert capabilities["delta_streams"] is True


def test_http_json_envelope_stream_id_and_plain_requests(rng):
    frame = _frame(rng)
    with _serve(lambda: _service(cache=None)) as box:
        # no stream id: the response carries no delta block at all
        response, payload = _post(
            box["port"], "/v1/segment", _npy_bytes(frame),
            {"Content-Type": "application/x-npy"},
        )
        assert response.status == 200
        assert "delta" not in json.loads(payload)

        # the JSON envelope can carry the stream id in-band instead
        import base64

        envelope = json.dumps(
            {
                "image": base64.b64encode(_npy_bytes(frame)).decode(),
                "stream_id": "cam-json",
            }
        )
        response, payload = _post(
            box["port"], "/v1/segment", envelope, {"Content-Type": "application/json"}
        )
        assert response.status == 200
        assert json.loads(payload)["delta"]["tiles_total"] == 9

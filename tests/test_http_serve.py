"""Tests for the HTTP serving front end (``HttpSegmentationServer`` + client)."""

import asyncio
import base64
import contextlib
import http.client
import io
import json
import re
import socket
import threading

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import (
    DeadlineExceededError,
    ImageDecodeError,
    ParameterError,
    PayloadError,
    QuotaExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from repro.imaging.io_png import write_png
from repro.serve import (
    AsyncSegmentationService,
    HttpSegmentationServer,
    SegmentClient,
    status_for_exception,
)
from repro.serve._http import decode_array_payload


def _engine(**kwargs):
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), **kwargs)


def _image(rng, shape=(10, 12, 3)):
    return (rng.random(shape) * 255).astype(np.uint8)


def _npy_bytes(image):
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(image), allow_pickle=False)
    return buffer.getvalue()


def _png_bytes(image):
    buffer = io.BytesIO()
    write_png(buffer, image)
    return buffer.getvalue()


class StubService:
    """Duck-typed service whose submit always raises (error-mapping tests)."""

    closed = False

    def __init__(self, exc=None):
        self.exc = exc

    async def submit(self, image, **kwargs):
        if self.exc is not None:
            raise self.exc
        raise AssertionError("stub submit reached without an exception")

    def metrics(self):
        return {"completed": 0}


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
                pass  # loop already closed by an aclose inside the test
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


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = response.read()
        return response, payload
    finally:
        conn.close()


def _raw(port, raw_bytes):
    """Send raw bytes, return the status code from the response line."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw_bytes)
        data = sock.recv(65536)
    return int(data.split(b" ", 2)[1])


# --------------------------------------------------------------------------- #
# request round trips
# --------------------------------------------------------------------------- #
def test_segment_raw_png_body_matches_pipeline_run(rng):
    image = _image(rng)
    expected = _engine().pipeline.run(image)
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, payload = _post(
            box["port"], "/v1/segment", _png_bytes(image),
            {"Content-Type": "application/octet-stream"},
        )
        assert response.status == 200
        document = json.loads(payload)
        assert document["schema"] == "repro-http-segment/v1"
        assert np.array_equal(np.asarray(document["labels"]), expected.labels)
        assert document["num_segments"] == expected.segmentation.num_segments
        assert document["shape"] == list(expected.labels.shape)
        assert document["cache_hit"] is False


def test_segment_npy_body_and_npy_accept_round_trip(rng):
    image = _image(rng)
    expected = _engine().pipeline.run(image).labels
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, payload = _post(
            box["port"], "/v1/segment", _npy_bytes(image),
            {"Content-Type": "application/x-npy", "Accept": "application/x-npy"},
        )
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-npy"
        labels = np.load(io.BytesIO(payload), allow_pickle=False)
        assert np.array_equal(labels, expected)
        assert int(response.getheader("X-Repro-Num-Segments")) >= 1
        assert response.getheader("X-Repro-Cache-Hit") == "false"


def test_segment_json_envelope_with_priority_and_lane_accounting(rng):
    image = _image(rng)
    body = json.dumps(
        {
            "image": base64.b64encode(_png_bytes(image)).decode("ascii"),
            "priority": "high",
            "client_id": "tenant-1",
        }
    ).encode("utf-8")
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, payload = _post(
            box["port"], "/v1/segment", body, {"Content-Type": "application/json"}
        )
        assert response.status == 200
        document = json.loads(payload)
        assert document["priority"] == "high"
        _, metrics_payload = _get(box["port"], "/v1/metrics")
        metrics = json.loads(metrics_payload)
        assert metrics["lanes"]["high"]["completed"] == 1
        assert metrics["http"]["requests"] == 2
        assert "cache" in metrics


def test_segment_client_round_trip_and_cache_hit(rng):
    image = _image(rng)
    expected = _engine().pipeline.run(image).labels
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            cold = client.segment(image, priority="normal", client_id="c1")
            warm = client.segment(image, accept="npy")
            via_json = client.segment_json(_png_bytes(image))
        assert np.array_equal(cold.labels, expected)
        assert np.array_equal(warm.labels, expected)
        assert np.array_equal(via_json.labels, expected)
        assert cold.cache_hit is False
        assert warm.cache_hit is True
        assert cold.shape == expected.shape


def test_keep_alive_serves_multiple_requests_per_connection(rng):
    image = _image(rng)
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        conn = http.client.HTTPConnection("127.0.0.1", box["port"], timeout=30)
        try:
            for _ in range(2):
                conn.request(
                    "POST", "/v1/segment", body=_npy_bytes(image),
                    headers={"Content-Type": "application/x-npy"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                assert response.getheader("Connection") == "keep-alive"
        finally:
            conn.close()


# --------------------------------------------------------------------------- #
# error mapping
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    ("exc", "status"),
    [
        (ServiceOverloadedError("full"), 503),
        (ServiceClosedError("closed"), 503),
        (QuotaExceededError("slow down"), 429),
        (DeadlineExceededError("too late"), 504),
        (ParameterError("bad lane"), 400),
        (RuntimeError("boom"), 500),
        (ShapeError("four channels"), 400),
    ],
)
def test_every_serve_error_maps_to_its_status_code(rng, exc, status):
    with _serve(lambda: StubService(exc)) as box:
        response, payload = _post(
            box["port"], "/v1/segment", _npy_bytes(_image(rng)),
            {"Content-Type": "application/x-npy"},
        )
        assert response.status == status
        document = json.loads(payload)
        assert document["error"] == type(exc).__name__
        if status in (429, 503):
            assert response.getheader("Retry-After") == "1"
        # request_errors counts only the unexpected failures (answered 500);
        # http.responses.{code} already counts the mapped ones.
        _, metrics = _get(box["port"], "/v1/metrics")
        http_block = json.loads(metrics)["http"]
        assert http_block["request_errors"] == (1 if status == 500 else 0)
        assert http_block["responses"][str(status)] == 1


def test_status_for_exception_table():
    assert status_for_exception(ServiceOverloadedError("x"))[0] == 503
    assert status_for_exception(QuotaExceededError("x"))[0] == 429
    assert status_for_exception(DeadlineExceededError("x"))[0] == 504
    assert status_for_exception(PayloadError("x"))[0] == 400
    assert status_for_exception(ImageDecodeError("x"))[0] == 400
    assert status_for_exception(ShapeError("x"))[0] == 400
    assert status_for_exception(KeyError("x"))[0] == 500
    assert status_for_exception(QuotaExceededError("x"))[1]["Retry-After"] == "1"


def test_quota_exhaustion_returns_429_over_the_wire(rng):
    def factory():
        return AsyncSegmentationService(_engine(), client_rate=0.001, client_burst=1)

    with _serve(factory) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            client.segment(_image(rng), client_id="greedy")
            with pytest.raises(QuotaExceededError):
                client.segment(_image(rng), client_id="greedy")
            # a different tenant still gets served
            assert client.segment(_image(rng), client_id="patient").num_segments >= 1


def test_expired_deadline_returns_504_over_the_wire(rng):
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            with pytest.raises(DeadlineExceededError):
                client.segment(_image(rng), deadline_ms=0)


@pytest.mark.parametrize(
    ("body", "content_type"),
    [
        (b"this is not json", "application/json"),
        (json.dumps({"no_image": 1}).encode(), "application/json"),
        (json.dumps({"image": "%%%not-base64%%%"}).encode(), "application/json"),
        (json.dumps({"image": 42}).encode(), "application/json"),
        (b"neither npy nor an image container", "application/octet-stream"),
        (b"", "application/octet-stream"),
        (b"\x93NUMPY garbage after the magic", "application/x-npy"),
        # Well-formed npy that is no image the RGB engine can label.
        pytest.param(
            _npy_bytes(np.zeros((8, 8, 4), np.uint8)), "application/x-npy", id="npy-rgba"
        ),
        pytest.param(
            _npy_bytes(np.zeros((8, 8), np.uint8)), "application/x-npy", id="npy-2d-to-rgb"
        ),
        pytest.param(
            _npy_bytes(np.zeros((8, 8, 3), [("r", "u1"), ("g", "u1")])),
            "application/x-npy",
            id="npy-structured",
        ),
        pytest.param(
            _npy_bytes(np.full((8, 8, 3), "x")), "application/x-npy", id="npy-string"
        ),
        pytest.param(
            _npy_bytes(np.zeros((0, 8, 3), np.uint8)), "application/x-npy", id="npy-empty"
        ),
        pytest.param(
            _npy_bytes(np.ones((8, 8, 3), np.complex128)), "application/x-npy", id="npy-complex"
        ),
    ],
)
def test_malformed_bodies_return_400(rng, body, content_type):
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, payload = _post(
            box["port"], "/v1/segment", body, {"Content-Type": content_type}
        )
        assert response.status == 400
        assert "detail" in json.loads(payload)
        _, metrics = _get(box["port"], "/v1/metrics")
        assert json.loads(metrics)["http"]["request_errors"] == 0


def test_client_raises_shape_error_for_an_image_of_the_wrong_shape(rng):
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            with pytest.raises(ShapeError, match="HTTP 400"):
                client.segment(np.zeros((8, 8, 4), np.uint8))


def test_bad_priority_and_bad_deadline_return_400(rng):
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, _ = _post(
            box["port"], "/v1/segment", _npy_bytes(_image(rng)),
            {"Content-Type": "application/x-npy", "X-Repro-Priority": "urgent"},
        )
        assert response.status == 400
        response, _ = _post(
            box["port"], "/v1/segment", _npy_bytes(_image(rng)),
            {"Content-Type": "application/x-npy", "X-Repro-Deadline-Ms": "soonish"},
        )
        assert response.status == 400


def test_oversized_body_returns_413_without_reading_it(rng):
    def factory():
        return AsyncSegmentationService(_engine())

    with _serve(factory, max_body_bytes=1024) as box:
        big = _npy_bytes(np.zeros((64, 64, 3), dtype=np.uint8))
        assert len(big) > 1024
        response, payload = _post(
            box["port"], "/v1/segment", big, {"Content-Type": "application/x-npy"}
        )
        assert response.status == 413
        assert response.getheader("Connection") == "close"


def test_unknown_route_404_wrong_method_405_missing_length_411(rng):
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, _ = _get(box["port"], "/nope")
        assert response.status == 404
        response, _ = _get(box["port"], "/v1/segment")
        assert response.status == 405
        assert response.getheader("Allow") == "POST"
        response, _ = _post(box["port"], "/healthz", b"x", {"Content-Type": "text/plain"})
        assert response.status == 405
        # POST with no Content-Length at all (raw socket; http.client adds one)
        status = _raw(
            box["port"], b"POST /v1/segment HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status == 411
        assert _raw(box["port"], b"GARBAGE\r\n\r\n") == 400


def test_expect_100_continue_is_answered_before_the_body(rng):
    """curl sends Expect: 100-continue for bodies over ~1 KiB and waits."""
    image = _image(rng)
    payload = _npy_bytes(image)
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        with socket.create_connection(("127.0.0.1", box["port"]), timeout=30) as sock:
            head = (
                f"POST /v1/segment HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/x-npy\r\n"
                f"Content-Length: {len(payload)}\r\nExpect: 100-continue\r\n\r\n"
            )
            sock.sendall(head.encode("latin-1"))
            interim = sock.recv(4096)
            assert interim.startswith(b"HTTP/1.1 100 Continue")
            sock.sendall(payload)
            response = b""
            while b"\r\n\r\n" not in response:
                response += sock.recv(65536)
            assert response.startswith(b"HTTP/1.1 200 OK")


def test_metrics_failure_maps_to_500_not_a_dropped_connection(rng):
    class BrokenMetricsService(StubService):
        def metrics(self):
            raise RuntimeError("metrics backend exploded")

    with _serve(lambda: BrokenMetricsService()) as box:
        response, payload = _get(box["port"], "/v1/metrics")
        assert response.status == 500
        assert json.loads(payload)["error"] == "RuntimeError"


def test_get_with_a_body_keeps_keepalive_framing_synced(rng):
    """A body on a GET must be consumed, or it poisons the next request."""
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        conn = http.client.HTTPConnection("127.0.0.1", box["port"], timeout=30)
        try:
            conn.request("GET", "/healthz", body=b"hello")  # curl -X GET -d hello
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            # the same connection must still parse the next request cleanly
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            payload = response.read()
            assert response.status == 200
            assert "lanes" in json.loads(payload)
        finally:
            conn.close()


def _raw_exchange(port, raw_bytes, timeout=5.0):
    """Send raw bytes; return ``(everything answered, server closed)``.

    Reads until the server closes the connection (EOF or reset) or
    ``timeout`` passes with the connection still open.
    """
    data = b""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw_bytes)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return data, True
                data += chunk
        except ConnectionResetError:
            return data, True
        except socket.timeout:
            return data, False


def _status_lines(data):
    # Pipelined responses follow each other with no separator after a body.
    return [int(code) for code in re.findall(rb"HTTP/1\.[01] (\d{3}) ", data)]


def _segment_head(length_headers):
    return (
        "POST /v1/segment HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-npy\r\n"
        + "".join(f"{line}\r\n" for line in length_headers)
        + "\r\n"
    ).encode("latin-1")


def test_content_length_must_be_plain_digits(rng):
    body = _npy_bytes(_image(rng, (4, 4, 3)))
    length = "_".join(str(len(body)))  # int() accepts "1_7_6"; HTTP does not
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        head = _segment_head([f"Content-Length: {length}"])
        data, closed = _raw_exchange(box["port"], head + body)
    assert _status_lines(data) == [400]
    assert closed


@pytest.mark.parametrize(
    "length_line",
    ["Content-Length : {}", " Content-Length: {}", "Content-Length\t: {}"],
    ids=["space-before-colon", "leading-space", "tab-before-colon"],
)
def test_whitespace_in_a_field_name_is_rejected(rng, length_line):
    body = _npy_bytes(_image(rng, (4, 4, 3)))
    head = _segment_head([length_line.format(len(body))])
    pipelined = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        data, closed = _raw_exchange(box["port"], head + body + pipelined)
    assert _status_lines(data) == [400]  # RFC 9112 §5.1: reject, never strip
    assert closed


def test_a_field_name_must_be_a_token(rng):
    request = b"GET /healthz HTTP/1.1\r\nHost: x\r\nX Foo: a\r\n\r\n"
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        data, closed = _raw_exchange(box["port"], request)
    assert _status_lines(data) == [400]
    assert closed


def test_repeated_content_length_is_rejected(rng):
    body = _npy_bytes(_image(rng, (4, 4, 3)))
    head = _segment_head(["Content-Length: 5", f"Content-Length: {len(body)}"])
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        data, closed = _raw_exchange(box["port"], head + body)
    assert _status_lines(data) == [400]
    assert closed


def test_transfer_encoding_is_refused_and_a_pipelined_request_is_not_smuggled(rng):
    body = _npy_bytes(_image(rng, (4, 4, 3)))
    head = _segment_head(["Transfer-Encoding: chunked", f"Content-Length: {len(body)}"])
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        data, closed = _raw_exchange(box["port"], head + body + smuggled)
    assert _status_lines(data) == [501]  # one answer: the GET never ran
    assert closed


def test_decode_array_payload_rejects_non_image_arrays():
    flat = io.BytesIO()
    np.save(flat, np.arange(5), allow_pickle=False)
    with pytest.raises(PayloadError):
        decode_array_payload(flat.getvalue())
    with pytest.raises(PayloadError):
        decode_array_payload(b"\x93NUMPY" + b"\x00" * 16)  # truncated npy
    with pytest.raises(ImageDecodeError):
        decode_array_payload(b"not anything recognizable")


# --------------------------------------------------------------------------- #
# readiness + graceful shutdown
# --------------------------------------------------------------------------- #
def test_healthz_flips_to_draining_before_the_socket_closes(rng):
    image = _image(rng)
    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, payload = _get(box["port"], "/healthz")
        assert response.status == 200
        assert json.loads(payload)["status"] == "ok"
        box["loop"].call_soon_threadsafe(box["server"].begin_drain)
        response, payload = _get(box["port"], "/healthz")
        assert response.status == 503
        assert json.loads(payload)["status"] == "draining"
        # existing clients are still answered while draining (LB rotation)
        response, _ = _post(
            box["port"], "/v1/segment", _npy_bytes(image),
            {"Content-Type": "application/x-npy"},
        )
        assert response.status == 200
        assert response.getheader("Connection") == "close"


class SlowSegmenter(BaseSegmenter):
    """Deterministic slow segmenter: lets shutdown overlap an in-flight request."""

    name = "slow"

    def __init__(self, delay=0.3):
        super().__init__()
        self.delay = delay

    def _segment(self, image):
        import time

        time.sleep(self.delay)
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


def test_graceful_shutdown_drains_inflight_requests(rng):
    image = _image(rng)

    def factory():
        return AsyncSegmentationService(
            BatchSegmentationEngine(SlowSegmenter(delay=0.4), use_lut=False),
            cache=None,
        )

    with _serve(factory) as box:
        result_box = {}

        def request():
            with SegmentClient("127.0.0.1", box["port"], timeout=30) as client:
                result_box["result"] = client.segment(image)

        worker = threading.Thread(target=request)
        worker.start()
        # wait until the request is in flight server-side, then shut down
        import time

        deadline = time.monotonic() + 5
        while box["server"]._inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert box["server"]._inflight == 1
        future = asyncio.run_coroutine_threadsafe(
            box["server"].aclose(drain=True, close_service=True), box["loop"]
        )
        future.result(timeout=30)
        worker.join(30)
        assert not worker.is_alive()
        # the in-flight request completed despite the shutdown racing it
        assert result_box["result"].labels.shape == image.shape[:2]
        # and the listener is gone: new connections are refused
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", box["port"]), timeout=2).close()


def test_stalled_midbody_client_cannot_wedge_shutdown(rng):
    """A head with a never-finished body must not hold aclose past the grace."""
    import time

    def factory():
        return AsyncSegmentationService(_engine())

    with _serve(factory, drain_grace_seconds=0.5) as box:
        sock = socket.create_connection(("127.0.0.1", box["port"]), timeout=30)
        try:
            sock.sendall(
                b"POST /v1/segment HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/x-npy\r\nContent-Length: 100000\r\n\r\npartial"
            )
            deadline = time.monotonic() + 5
            while box["server"]._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert box["server"]._inflight == 1  # the head registered in-flight
            started = time.monotonic()
            future = asyncio.run_coroutine_threadsafe(
                box["server"].aclose(drain=True, close_service=True), box["loop"]
            )
            future.result(timeout=30)  # grace expires, the stalled conn is cut
            assert time.monotonic() - started < 10
        finally:
            sock.close()


# --------------------------------------------------------------------------- #
# concurrency stress: many clients, bit-identical answers
# --------------------------------------------------------------------------- #
def test_concurrent_clients_get_bit_identical_results(rng):
    images = [_image(rng, shape=(8 + i % 3, 10, 3)) for i in range(6)]
    reference = _engine()
    expected = [reference.pipeline.run(image).labels for image in images]

    with _serve(lambda: AsyncSegmentationService(_engine(), queue_size=256)) as box:
        failures = []

        def client_loop(worker_index):
            try:
                with SegmentClient("127.0.0.1", box["port"], timeout=60) as client:
                    for round_index in range(3):
                        index = (worker_index + round_index) % len(images)
                        result = client.segment(images[index], client_id=f"w{worker_index}")
                        if not np.array_equal(result.labels, expected[index]):
                            failures.append((worker_index, index))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append((worker_index, exc))

        workers = [threading.Thread(target=client_loop, args=(i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
        assert not failures
        _, payload = _get(box["port"], "/v1/metrics")
        metrics = json.loads(payload)
        assert metrics["completed"] == 12
        assert metrics["failed"] == 0
        assert metrics["http"]["responses"]["200"] == 12


# --------------------------------------------------------------------------- #
# zero-copy npy responses + client disconnect accounting
# --------------------------------------------------------------------------- #
def test_npy_response_bytes_are_exactly_np_save_output(rng):
    """The hand-built zero-copy header must stay bit-identical to np.save."""
    image = _image(rng)
    expected = _engine().pipeline.run(image).labels
    reference = io.BytesIO()
    np.save(reference, np.ascontiguousarray(expected), allow_pickle=False)

    with _serve(lambda: AsyncSegmentationService(_engine())) as box:
        response, payload = _post(
            box["port"], "/v1/segment", _npy_bytes(image),
            {"Content-Type": "application/x-npy", "Accept": "application/x-npy"},
        )
        assert response.status == 200
        assert payload == reference.getvalue()
        assert int(response.getheader("Content-Length")) == len(payload)


def test_client_reset_midresponse_is_counted_and_releases_inflight(rng):
    """A client that resets mid-body must not leak in-flight or vanish.

    The connection handler used to swallow the reset silently: the counter
    never existed and nothing distinguished "client gave up while we wrote"
    from a request that never happened.  The reset must decrement in-flight
    (so drains converge) and count in ``client_disconnects``.
    """
    import struct as _struct
    import time

    image = _image(rng, shape=(500, 500, 3))  # ~2 MB npy response >> buffers

    def factory():
        return AsyncSegmentationService(_engine())

    with _serve(factory) as box:
        body = _npy_bytes(image)
        head = (
            "POST /v1/segment HTTP/1.1\r\nHost: x\r\n"
            "Content-Type: application/x-npy\r\n"
            "Accept: application/x-npy\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        sock = socket.create_connection(("127.0.0.1", box["port"]), timeout=30)
        try:
            sock.sendall(head + body)
            # Wait for the response head: the server is now mid-body, with
            # megabytes still to drain into a client that will never read.
            first = sock.recv(64)
            assert first.startswith(b"HTTP/1.1 200")
            # RST instead of FIN: the drain fails with ConnectionResetError.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _struct.pack("ii", 1, 0))
        finally:
            sock.close()

        deadline = time.monotonic() + 10
        while box["server"]._client_disconnects == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert box["server"]._client_disconnects == 1
        assert box["server"]._inflight == 0

        # The server must still answer fresh requests, and the disconnect is
        # visible in the metrics document.
        response, payload = _get(box["port"], "/v1/metrics")
        assert response.status == 200
        metrics = json.loads(payload)
        assert metrics["http"]["client_disconnects"] == 1
        assert metrics["http"]["inflight"] == 1  # only the metrics request itself

        # A graceful drain converges immediately: nothing is still counted
        # as in-flight by the dead connection.
        future = asyncio.run_coroutine_threadsafe(
            box["server"].aclose(drain=True, close_service=True), box["loop"]
        )
        future.result(timeout=30)

"""HTTP serving benchmark — wire overhead vs the in-process async path.

Measures the cost of the network hop the HTTP front end adds on top of the
asyncio service:

1. **in-process** — ``await service.submit(image)`` sequentially, the
   fastest an external caller could possibly go without a network;
2. **HTTP sequential** — the same workload through ``SegmentClient`` over a
   loopback :class:`~repro.serve.HttpSegmentationServer` (one keep-alive
   connection, ``.npy`` request bodies, JSON responses — the client's
   default ``accept="json"``);
3. **HTTP concurrent** — four client threads sharing the server, the shape
   real multi-tenant ingress has.

Every HTTP answer is asserted bit-identical to the in-process labels — the
wire format (npy request, JSON labels back) must not perturb results.  Requests/s and
client-observed p50/p99 are reported per path; absolute-speed assertions
stay out entirely (loopback latency on shared CI is noise), so the benchmark
guards exactness and liveness in both modes.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.metrics.report import format_table
from repro.metrics.runtime import percentile
from repro.serve import AsyncSegmentationService, HttpSegmentationServer, SegmentClient

_THETA = np.pi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2026)


def _distinct_images(rng, count, side):
    images = []
    for _ in range(count):
        palette = (rng.random((64, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 64, size=(side, side))])
    return images


def _make_service():
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA))
    return AsyncSegmentationService(
        engine, cache=None, max_batch_size=8, queue_size=1024
    )


class _ServerHarness:
    """The HTTP server on its own event-loop thread, started/stopped once."""

    def __init__(self):
        self.port = None
        self._loop = None
        self._stop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            service = _make_service()
            async with service:
                server = HttpSegmentationServer(service)
                await server.start()
                self.port = server.port
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                self._started.set()
                await self._stop.wait()
                await server.aclose(drain=True, close_service=False)

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._started.wait(30), "HTTP server never started"
        return self

    def __exit__(self, exc_type, exc, tb):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def test_http_throughput_and_latency_vs_inprocess(rng, smoke_mode, emit_result, emit_json_result):
    count = 16 if smoke_mode else 64
    side = 24 if smoke_mode else 64
    threads = 4
    images = _distinct_images(rng, count, side)

    # -- in-process baseline: sequential awaits, client-observed latency ---- #
    async def inprocess_pass():
        service = _make_service()
        latencies, results = [], []
        async with service:
            started = time.perf_counter()
            for image in images:
                t0 = time.perf_counter()
                results.append(await service.submit(image))
                latencies.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
        return results, latencies, elapsed

    inproc_results, inproc_lat, inproc_elapsed = asyncio.run(inprocess_pass())
    expected = [result.labels for result in inproc_results]

    with _ServerHarness() as harness:
        # -- HTTP sequential: one keep-alive connection ---------------------- #
        http_lat = []
        with SegmentClient("127.0.0.1", harness.port, timeout=120) as client:
            started = time.perf_counter()
            for index, image in enumerate(images):
                t0 = time.perf_counter()
                result = client.segment(image)
                http_lat.append(time.perf_counter() - t0)
                assert np.array_equal(result.labels, expected[index]), (
                    f"HTTP answer for image {index} is not bit-identical"
                )
            http_elapsed = time.perf_counter() - started

        # -- HTTP concurrent: N client threads ------------------------------- #
        conc_lat_lock = threading.Lock()
        conc_lat, conc_failures = [], []

        def client_worker(worker):
            try:
                with SegmentClient("127.0.0.1", harness.port, timeout=120) as client:
                    for index in range(worker, count, threads):
                        t0 = time.perf_counter()
                        result = client.segment(images[index], client_id=f"w{worker}")
                        elapsed = time.perf_counter() - t0
                        with conc_lat_lock:
                            conc_lat.append(elapsed)
                        if not np.array_equal(result.labels, expected[index]):
                            conc_failures.append(index)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                conc_failures.append(exc)

        workers = [threading.Thread(target=client_worker, args=(i,)) for i in range(threads)]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(300)
        conc_elapsed = time.perf_counter() - started
        assert not conc_failures, f"concurrent HTTP failures: {conc_failures[:3]}"

    def _row(name, latencies, elapsed):
        rate = len(latencies) / elapsed if elapsed > 0 else float("inf")
        return [
            name,
            f"{rate:.1f}",
            f"{percentile(latencies, 50.0) * 1e3:.2f}",
            f"{percentile(latencies, 99.0) * 1e3:.2f}",
        ]

    rows = [
        _row("in-process async", inproc_lat, inproc_elapsed),
        _row("HTTP sequential", http_lat, http_elapsed),
        _row(f"HTTP {threads} clients", conc_lat, conc_elapsed),
    ]
    emit_result(
        f"HTTP serve vs in-process — {count} images {side}x{side} uint8 RGB",
        format_table("Serving path", ["Path", "req/s", "p50 [ms]", "p99 [ms]"], rows),
    )
    emit_json_result(
        "bench_http_serve",
        {
            "schema": "repro-bench-http-serve/v1",
            "smoke": smoke_mode,
            "count": count,
            "side": side,
            "threads": threads,
            "inprocess": {
                "rps": count / inproc_elapsed,
                "p50_seconds": percentile(inproc_lat, 50.0),
                "p99_seconds": percentile(inproc_lat, 99.0),
            },
            "http_sequential": {
                "rps": count / http_elapsed,
                "p50_seconds": percentile(http_lat, 50.0),
                "p99_seconds": percentile(http_lat, 99.0),
            },
            "http_concurrent": {
                "rps": count / conc_elapsed,
                "p50_seconds": percentile(conc_lat, 50.0),
                "p99_seconds": percentile(conc_lat, 99.0),
            },
        },
    )

    # liveness guards (absolute speeds are CI noise): every path served the
    # whole workload, and the wire added latency rather than removing work
    assert len(http_lat) == count and len(conc_lat) == count
    assert count / http_elapsed > 0

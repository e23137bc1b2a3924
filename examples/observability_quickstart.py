"""Observability quickstart: tracing, structured logs, Prometheus.

Run with ``PYTHONPATH=src python examples/observability_quickstart.py``.

The script walks through ``repro.obs`` at both levels:

1. the :class:`~repro.obs.Tracer` on its own — spans as a context manager,
   the flight-recorder ring, deterministic sampling;
2. the :class:`~repro.obs.StructuredLogger` in json and text formats;
3. the whole stack over HTTP: an :class:`~repro.serve.HttpSegmentationServer`
   with a tracer, a client-supplied ``X-Repro-Trace-Id`` round-tripped
   through ``GET /v1/trace/{id}``, the slowest-traces listing, and the
   Prometheus exposition validated with
   :func:`~repro.obs.validate_exposition` — exactly what
   ``repro-segment serve --http ... --trace-sample-rate 1.0`` wires up.
"""

import asyncio
import sys
import threading

import numpy as np

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.obs import StructuredLogger, Tracer, validate_exposition
from repro.serve import AsyncSegmentationService, HttpSegmentationServer, SegmentClient


def make_images(count, side=48, seed=11):
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        palette = (rng.random((64, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 64, size=(side, side))])
    return images


def print_tree(node, indent=1):
    millis = node["duration_seconds"] * 1000.0
    print(f"  {'  ' * indent}{node['name']:<18s} {millis:8.3f} ms")
    for child in node["children"]:
        print_tree(child, indent + 1)


def tracer_alone():
    print("=== 1. the tracer on its own ===")
    tracer = Tracer(sample_rate=1.0, ring_size=8)
    trace = tracer.begin("0123456789abcdef")  # explicit ids always sample
    with trace.span("request"):
        with trace.span("cache.probe", parent="request"):
            pass
        with trace.span("engine.compute", parent="request"):
            sum(range(50_000))  # stand-in for real work
    tracer.record(trace)

    document = tracer.get("0123456789abcdef")
    print(f"  schema={document['schema']} duration={document['duration_seconds']:.6f}s")
    print_tree(document["tree"])

    sampled = Tracer(sample_rate=0.25)
    decisions = [sampled.begin() is not None for _ in range(8)]
    print(f"  rate 0.25 samples deterministically: {decisions}")
    print(f"  counters: {tracer.counters()}")


def structured_logs():
    print("=== 2. structured logging ===")
    for fmt in ("json", "text"):
        logger = StructuredLogger(stream=sys.stdout, format=fmt, worker_id=0)
        print(f"  --log-format {fmt}:")
        logger.info("http.listen", trace_id=None, host="127.0.0.1", port=8080)
        logger.warning(
            "queue.shed", trace_id="0123456789abcdef", reason="deadline", lane="low"
        )


class ServerThread:
    """The traced server on its own event loop — the shape a deployment has."""

    def __init__(self):
        self.port = None
        self._started = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
            service = AsyncSegmentationService(engine, tracer=Tracer(sample_rate=1.0))
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

    def start(self):
        self._thread.start()
        assert self._started.wait(30)
        return self

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def over_http():
    server = ServerThread().start()
    images = make_images(4)

    print(f"=== 3. over HTTP on 127.0.0.1:{server.port} ===")
    with SegmentClient("127.0.0.1", server.port) as client:
        wanted = "feedfacefeedface"
        result = client.segment(images[0], trace_id=wanted)
        print(f"  X-Repro-Trace-Id echoed back: {result.trace_id}")
        for image in images[1:]:
            client.segment(image)
        client.segment(images[0])  # warm repeat: watch cache.probe shrink

        document = client.trace(wanted)
        print("  GET /v1/trace/{id} span tree:")
        print_tree(document["tree"])

        slowest = client.traces(slowest=3)
        print("  GET /v1/traces?slowest=3:")
        for entry in slowest:
            print(
                f"    {entry['trace_id']}  {entry['duration_seconds'] * 1000.0:8.3f} ms"
            )

        exposition = client.metrics_prometheus()
        errors = validate_exposition(exposition)
        samples = [
            line
            for line in exposition.splitlines()
            if line.startswith("repro_request_latency_seconds_")
            or line.startswith("repro_completed_total")
        ]
        print(f"  /v1/metrics?format=prometheus: valid={not errors}")
        for line in samples[:6]:
            print(f"    {line}")

    print("=== graceful shutdown ===")
    server.stop()
    print("  done")


def main():
    tracer_alone()
    structured_logs()
    over_http()


if __name__ == "__main__":
    main()

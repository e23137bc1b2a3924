"""HTTP serving quickstart: the segmenter behind a network endpoint.

Run with ``PYTHONPATH=src python examples/http_serve_quickstart.py``.

The script walks through the HTTP front end:

1. start an :class:`~repro.serve.HttpSegmentationServer` over an
   :class:`~repro.serve.AsyncSegmentationService` on a background thread
   (exactly what ``repro-segment serve --http 127.0.0.1:8080`` does);
2. segment images through the blocking :class:`~repro.serve.SegmentClient`
   — npy bodies both ways, bit-exact results, cache hits on repeats;
3. trip the per-client quota and a zero deadline to see the error mapping
   (429 :class:`~repro.errors.QuotaExceededError`,
   504 :class:`~repro.errors.DeadlineExceededError`) surface client-side
   as the same exceptions the in-process API raises;
4. read ``/v1/metrics`` and drain the server gracefully.
"""

import asyncio
import threading

import numpy as np

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.errors import DeadlineExceededError, QuotaExceededError
from repro.serve import AsyncSegmentationService, HttpSegmentationServer, SegmentClient


def make_images(count, side=48, seed=7):
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        palette = (rng.random((64, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 64, size=(side, side))])
    return images


class ServerThread:
    """The server on its own event loop — the shape a deployment has."""

    def __init__(self):
        self.port = None
        self._started = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
            service = AsyncSegmentationService(engine, client_rate=5.0, client_burst=10)
            async with service:
                server = HttpSegmentationServer(service)
                await server.start()
                self.port = server.port
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                self._started.set()
                await self._stop.wait()
                print("  draining in-flight requests before the sockets close...")
                await server.aclose(drain=True, close_service=False)

        asyncio.run(main())

    def start(self):
        self._thread.start()
        assert self._started.wait(30)
        return self

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def main():
    server = ServerThread().start()
    images = make_images(6)

    print(f"=== serving on http://127.0.0.1:{server.port} ===")
    with SegmentClient("127.0.0.1", server.port) as client:
        print("health:", client.health())

        print("=== segment over the wire ===")
        for index, image in enumerate(images):
            result = client.segment(image, priority="normal", client_id="quickstart")
            if index < 3:
                print(
                    f"  image {index}: {result.num_segments} segments "
                    f"via {result.fast_path} (cache_hit={result.cache_hit})"
                )
        repeat = client.segment(images[0], client_id="quickstart")
        print(f"  repeat of image 0: cache_hit={repeat.cache_hit}")

        print("=== error mapping ===")
        try:
            for _ in range(15):  # burst of 10 at 5 req/s: the quota trips
                client.segment(images[0], client_id="greedy-tenant")
        except QuotaExceededError as exc:
            print(f"  429 over the wire -> {type(exc).__name__}: {exc}")
        try:
            client.segment(images[1], deadline_ms=0)
        except DeadlineExceededError as exc:
            print(f"  504 over the wire -> {type(exc).__name__}: {exc}")

        metrics = client.metrics()
        print("=== /v1/metrics ===")
        print(f"  completed: {metrics['completed']}")
        print(f"  quota rejections: {metrics['quota_rejections']}")
        print(f"  shed: {metrics['shed']}")
        print(f"  HTTP responses by status: {metrics['http']['responses']}")

    print("=== graceful shutdown ===")
    server.stop()
    print("  done")


if __name__ == "__main__":
    main()

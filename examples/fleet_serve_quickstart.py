"""Fleet serving quickstart: N worker processes behind one address.

Run with ``PYTHONPATH=src python examples/fleet_serve_quickstart.py``.

The script walks through the multi-process serving layer:

1. start a :class:`~repro.serve.ServeFleet` of 2 workers behind one
   HOST:PORT (``SO_REUSEPORT`` kernel load balancing) over a shared
   ``--cache-dir`` — exactly what
   ``repro-segment serve --http 127.0.0.1:8080 --workers 2 --cache-dir ...``
   does;
2. segment images through the ordinary :class:`~repro.serve.SegmentClient`
   — clients cannot tell a fleet from a single server;
3. SIGKILL one worker and watch the supervisor restart it (exponential
   backoff, fleet stays healthy throughout);
4. read the *aggregated* fleet metrics (counters summed across workers,
   percentiles merged from histogram sketches);
5. restart the whole fleet over the same cache directory and see the warm
   working set answered from the shared disk tier (L2 hits).
"""

import os
import signal
import tempfile
import time

import numpy as np

from repro.serve import SegmentClient, ServeFleet, WorkerSpec


def make_images(count, side=48, seed=11):
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(count):
        palette = (rng.random((64, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 64, size=(side, side))])
    return images


def main():
    images = make_images(8)
    cache_dir = os.path.join(tempfile.mkdtemp(prefix="repro-fleet-"), "l2")
    spec = WorkerSpec(
        cache_dir=cache_dir,  # every worker shares this persistent L2 tier
        adaptive=True,  # per-worker control loop tunes batch size + lane weights
    )

    print(f"== fleet of 2 workers, shared L2 at {cache_dir}")
    with ServeFleet(spec, port=0, workers=2) as fleet:
        fleet.wait_ready()
        print(f"   listening on 127.0.0.1:{fleet.port}, health={fleet.health()['status']}")

        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            for image in images:
                result = client.segment(image)
                print(f"   segmented {result.shape}: {result.num_segments} segments")

        print("\n== SIGKILL one worker; the supervisor restarts the slot")
        victim = fleet.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        while not (fleet.restarts >= 1 and fleet.health()["accepting"] == 2):
            time.sleep(0.1)
        print(f"   pid {victim} replaced; restarts={fleet.restarts}, fleet healthy again")

        merged = fleet.metrics()
        # None when the killed worker had served every request so far.
        p99 = merged["latency_seconds"]["p99"]
        print("\n== aggregated metrics across the fleet")
        print(f"   workers scraped:   {merged['workers_scraped']}")
        print(f"   completed:         {merged['completed']}")
        print(f"   fleet p99 latency: {'n/a' if p99 is None else f'{p99 * 1e3:.2f} ms'}")
        print(f"   L2 entries:        {merged['cache']['l2']['currsize']}")

    print("\n== second fleet over the same cache dir: warm from disk")
    with ServeFleet(spec, port=0, workers=2) as fleet:
        fleet.wait_ready()
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            started = time.perf_counter()
            for image in images:
                client.segment(image)
            elapsed = time.perf_counter() - started
        merged = fleet.metrics()
        hits = merged["cache"]["l2"]["hits"]
        print(f"   {len(images)} repeats in {elapsed * 1e3:.0f} ms, L2 hits={hits}")
        assert hits > 0, "expected the restarted fleet to answer from the shared disk tier"
    print("\ndone")


if __name__ == "__main__":
    main()

"""Fleet serving benchmark — 1 worker vs N workers behind one address.

PR 5's claim is that HTTP serving now scales *across processes*: N
``SO_REUSEPORT`` workers behind one HOST:PORT should multiply throughput on
a multi-core host, because each worker is its own Python process (its own
GIL, its own asyncio loop).  Two legs:

1. **scaling** — the same compute-bound workload (distinct images, LUT and
   caches disabled so requests cost real engine time) pushed through a
   1-worker and a 4-worker fleet by concurrent sequential clients.  Every
   response is asserted bit-identical to ``pipeline.run``.  On a host with
   ≥4 cores the 4-worker fleet must reach ≥2× the 1-worker throughput —
   kernel connection balancing plus process parallelism is the whole point.
   (On fewer cores the ratio is reported but not asserted: there is nothing
   to scale onto.)
2. **shared warm L2** — a 2-worker fleet over a ``--cache-dir``, restarted:
   the second fleet must answer the first fleet's working set from disk
   (aggregated L2 hits > 0) with bit-identical labels — the multi-process
   cache-sharing contract of ``DiskResultCache``.

Clients reconnect per request so the kernel re-balances continuously;
otherwise a handful of long-lived connections can hash onto one worker and
measure nothing.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.metrics.report import format_table
from repro.metrics.runtime import percentile
from repro.serve import SegmentClient, ServeFleet, WorkerSpec

_THETA = np.pi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260728)


def _distinct_images(rng, count, side):
    images = []
    for _ in range(count):
        palette = (rng.random((64, 3)) * 255).astype(np.uint8)
        images.append(palette[rng.integers(0, 64, size=(side, side))])
    return images


def _expected_labels(images):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=_THETA), use_lut=False)
    return [engine.pipeline.run(image).segmentation.labels for image in images]


def _drive_fleet(port, images, expected, clients, accept="json"):
    """``clients`` threads, each sending its share sequentially; fresh
    connection per request so SO_REUSEPORT keeps re-balancing."""
    latencies_lock = threading.Lock()
    latencies, failures = [], []

    def worker(worker_id):
        try:
            for index in range(worker_id, len(images), clients):
                t0 = time.perf_counter()
                with SegmentClient("127.0.0.1", port, timeout=120) as client:
                    result = client.segment(
                        images[index], client_id=f"w{worker_id}", accept=accept
                    )
                elapsed = time.perf_counter() - t0
                with latencies_lock:
                    latencies.append(elapsed)
                if not np.array_equal(result.labels, expected[index]):
                    failures.append(index)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(600)
    elapsed = time.perf_counter() - started
    assert not failures, f"fleet client failures: {failures[:3]}"
    assert len(latencies) == len(images)
    return latencies, elapsed


def test_fleet_throughput_scales_with_workers(rng, smoke_mode, emit_result, emit_json_result):
    count = 96 if smoke_mode else 192
    side = 96 if smoke_mode else 128
    clients = 8
    images = _distinct_images(rng, count, side)
    expected = _expected_labels(images)
    # Compute-bound on purpose: no LUT, no caches — the benchmark measures
    # engine throughput behind the wire, not cache hit rates.
    spec = WorkerSpec(use_lut=False, use_cache=False, max_batch_size=8)

    results = {}
    for workers in (1, 4):
        with ServeFleet(spec, port=0, workers=workers, stagger_seconds=0.05) as fleet:
            assert fleet.wait_ready(120), f"{workers}-worker fleet never became ready"
            latencies, elapsed = _drive_fleet(fleet.port, images, expected, clients)
            merged = fleet.metrics()
            results[workers] = {
                "rps": count / elapsed,
                "p50_seconds": percentile(latencies, 50.0),
                "p99_seconds": percentile(latencies, 99.0),
                "workers_scraped": merged["workers_scraped"],
                "completed": merged["completed"],
            }
            # every worker was scraped and the fleet really served everything
            assert merged["workers_scraped"] == workers
            assert merged["completed"] == count

    speedup = results[4]["rps"] / results[1]["rps"]
    rows = [
        [
            f"{workers} worker(s)",
            f"{results[workers]['rps']:.1f}",
            f"{results[workers]['p50_seconds'] * 1e3:.2f}",
            f"{results[workers]['p99_seconds'] * 1e3:.2f}",
        ]
        for workers in (1, 4)
    ]
    rows.append(["speedup 4v1", f"{speedup:.2f}x", "", ""])
    emit_result(
        f"Fleet scaling — {count} images {side}x{side} uint8 RGB, "
        f"{clients} sequential clients, {os.cpu_count()} cpu(s)",
        format_table("Worker fleet", ["Fleet", "req/s", "p50 [ms]", "p99 [ms]"], rows),
    )
    emit_json_result(
        "bench_fleet_serve",
        {
            "schema": "repro-bench-fleet-serve/v1",
            "smoke": smoke_mode,
            "count": count,
            "side": side,
            "clients": clients,
            "cpus": os.cpu_count(),
            "fleet1": results[1],
            "fleet4": results[4],
            "speedup": speedup,
        },
    )
    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"4-worker fleet reached only {speedup:.2f}x the 1-worker throughput "
            f"({results[4]['rps']:.1f} vs {results[1]['rps']:.1f} req/s)"
        )


def test_fleet_restart_is_warm_through_the_shared_disk_cache(
    rng, tmp_path_factory, smoke_mode, emit_result, emit_json_result
):
    count = 12 if smoke_mode else 32
    side = 48 if smoke_mode else 64
    images = _distinct_images(rng, count, side)
    expected = _expected_labels(images)
    cache_dir = str(tmp_path_factory.mktemp("fleet-l2"))
    spec = WorkerSpec(use_lut=False, max_batch_size=8, cache_dir=cache_dir)

    def run_pass(label):
        with ServeFleet(spec, port=0, workers=2, stagger_seconds=0.05) as fleet:
            assert fleet.wait_ready(120), f"{label} fleet never became ready"
            latencies, elapsed = _drive_fleet(fleet.port, images, expected, clients=4)
            merged = fleet.metrics()
        return latencies, elapsed, merged

    _, cold_elapsed, cold_metrics = run_pass("cold")
    _, warm_elapsed, warm_metrics = run_pass("warm")

    l2 = warm_metrics["cache"]["l2"]
    rows = [
        ["cold fleet", f"{count / cold_elapsed:.1f}", str(cold_metrics["cache"]["l2"]["hits"])],
        ["warm restart", f"{count / warm_elapsed:.1f}", str(l2["hits"])],
    ]
    emit_result(
        f"Fleet warm restart over one --cache-dir — {count} images {side}x{side}, 2 workers",
        format_table("Shared L2", ["Fleet start", "req/s", "L2 hits"], rows),
    )
    emit_json_result(
        "bench_fleet_warm_restart",
        {
            "schema": "repro-bench-fleet-warm/v1",
            "smoke": smoke_mode,
            "count": count,
            "side": side,
            "cold_rps": count / cold_elapsed,
            "warm_rps": count / warm_elapsed,
            "warm_l2_hits": int(l2["hits"]),
            "warm_l2_currsize": int(l2["currsize"]),
        },
    )
    # The restarted fleet must actually answer from the shared disk tier.
    assert l2["hits"] > 0, f"warm fleet saw no L2 hits: {l2}"
    assert l2["currsize"] >= 1


def test_fleet_shm_warm_hits_beat_disk_l2(
    rng, tmp_path_factory, smoke_mode, emit_result, emit_json_result
):
    """Same-host warm path: the shm ring must answer faster than the disk L2.

    Two 4-worker fleets serve an identical working set twice.  Both share
    one disk cache per fleet; one additionally gets the shared-memory L1.5
    ring.  ``cache_entries=1`` keeps the per-worker L1 out of the picture,
    so every warm request is answered by the tier under test: a file open +
    npz inflate (disk) versus one memcpy out of the ring (shm).  Labels are
    asserted bit-identical to ``pipeline.run`` on every response.
    """
    count = 8 if smoke_mode else 12
    side = 192 if smoke_mode else 256
    rounds = 3 if smoke_mode else 4

    images = _distinct_images(rng, count, side)
    expected = _expected_labels(images)

    def run_fleet(label, shm_bytes):
        spec = WorkerSpec(
            use_lut=False,
            max_batch_size=8,
            cache_dir=str(tmp_path_factory.mktemp(f"warm-{label}")),
            cache_entries=1,
            shm_bytes=shm_bytes,
        )
        with ServeFleet(spec, port=0, workers=4, stagger_seconds=0.05) as fleet:
            assert fleet.wait_ready(120), f"{label} fleet never became ready"
            _drive_fleet(fleet.port, images, expected, clients=4)  # warming pass
            # Warm measurement: one sequential client on the zero-copy npy
            # path, so each latency is the service time itself (tier fetch +
            # response write), not queueing noise from CPU-contended clients.
            latencies, elapsed = _drive_fleet(
                fleet.port, images * rounds, expected * rounds, clients=1, accept="npy"
            )
            merged = fleet.metrics()
        return latencies, elapsed, merged

    disk_lat, disk_elapsed, disk_metrics = run_fleet("disk", shm_bytes=0)
    shm_lat, shm_elapsed, shm_metrics = run_fleet("shm", shm_bytes=256 * 1024 * 1024)

    assert "shm" not in disk_metrics["cache"]
    shm_tier = shm_metrics["cache"]["shm"]
    assert shm_tier["hits"] > 0, f"shm fleet answered no warm hits from the ring: {shm_tier}"

    disk_p50 = percentile(disk_lat, 50.0)
    shm_p50 = percentile(shm_lat, 50.0)
    speedup = disk_p50 / shm_p50
    warm = count * rounds
    rows = [
        ["disk L2", f"{warm / disk_elapsed:.1f}", f"{disk_p50 * 1e3:.2f}",
         f"{percentile(disk_lat, 99.0) * 1e3:.2f}", str(disk_metrics["cache"]["l2"]["hits"])],
        ["shm ring", f"{warm / shm_elapsed:.1f}", f"{shm_p50 * 1e3:.2f}",
         f"{percentile(shm_lat, 99.0) * 1e3:.2f}", str(shm_tier["hits"])],
        ["p50 speedup", f"{speedup:.2f}x", "", "", ""],
    ]
    emit_result(
        f"Fleet warm hits, shm ring vs disk L2 — {warm} warm requests over {count} images "
        f"{side}x{side}, 4 workers, sequential npy client, {os.cpu_count()} cpu(s)",
        format_table("Warm tier", ["Tier", "req/s", "p50 [ms]", "p99 [ms]", "tier hits"], rows),
    )
    emit_json_result(
        "bench_fleet_warm_shm",
        {
            "schema": "repro-bench-fleet-warm-shm/v1",
            "smoke": smoke_mode,
            "count": count,
            "side": side,
            "rounds": rounds,
            "cpus": os.cpu_count(),
            "disk_p50_seconds": disk_p50,
            "shm_p50_seconds": shm_p50,
            "warm_shm_speedup": speedup,
            "shm_warm_rps": warm / shm_elapsed,
            "shm_hits": int(shm_tier["hits"]),
            "shm_torn_reads": int(shm_tier["torn_reads"]),
        },
    )
    # The tentpole claim: on the same host, the shared-memory ring answers
    # the warm working set faster than the shared disk cache.
    assert shm_p50 < disk_p50, (
        f"shm warm p50 {shm_p50 * 1e3:.2f} ms did not beat disk L2 p50 "
        f"{disk_p50 * 1e3:.2f} ms"
    )

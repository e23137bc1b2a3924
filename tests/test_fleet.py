"""Tests for the multi-process serving fleet (``repro.serve.ServeFleet``).

The integration tests spawn real worker processes (the same start method
production uses), so they keep the workload tiny: 2 workers, small images,
short waits.  The aggregation logic is additionally covered by pure unit
tests over synthetic snapshots, which is where the merge semantics
(counters sum, shared-L2 gauges take max, percentiles come from merged
sketches) are pinned down exactly.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.errors import ParameterError, ServeError
from repro.metrics.runtime import LatencyRecorder
from repro.serve import SegmentClient, ServeFleet, WorkerSpec, merge_worker_metrics

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SPEC = WorkerSpec(max_batch_size=8)


def _fleet(workers=2, **kwargs):
    kwargs.setdefault("stagger_seconds", 0.05)
    kwargs.setdefault("restart_backoff_seconds", 0.2)
    spec = kwargs.pop("spec", _SPEC)
    return ServeFleet(spec, port=0, workers=workers, **kwargs)


def _image(rng, side=14):
    palette = (rng.random((16, 3)) * 255).astype(np.uint8)
    return palette[rng.integers(0, 16, size=(side, side))]


def _expected_labels(image):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    return engine.pipeline.run(image).segmentation.labels


# --------------------------------------------------------------------------- #
# metrics merging (pure)
# --------------------------------------------------------------------------- #
def _snapshot(completed, l2_hits=0, weight=4, latency=0.01):
    recorder = LatencyRecorder()
    for _ in range(completed):
        recorder.record(latency)
    return {
        "requests": completed,
        "completed": completed,
        "failed": 0,
        "in_flight": 1,
        "queue_depth": 1,
        "batches": completed,
        "batched_items": completed,
        "mean_batch_size": 1.0,
        "throughput_rps": float(completed),
        "uptime_seconds": 2.0,
        "ewma_request_seconds": latency,
        "shed": {"admission": 1, "expired": 0},
        "latency_sketch": recorder.sketch(),
        "lanes": {
            "high": {
                "depth": 1,
                "submitted": completed,
                "completed": completed,
                "shed_admission": 0,
                "shed_expired": 0,
                "weight": weight,
                "latency_sketch": recorder.sketch(),
            }
        },
        "adaptive": {
            "ticks": 3,
            "batch_adjustments": 1,
            "weight_adjustments": 2,
            "max_batch_size": weight,
        },
        "cache": {
            "l1": {"hits": 1, "misses": 2, "currsize": 3, "max_entries": 256},
            "l2": {
                "hits": l2_hits,
                "misses": 2,
                "currsize": 10,
                "current_bytes": 1000,
                "max_bytes": 4096,
            },
            "l1_hit_rate": 1 / 3,
            "l2_hit_rate": l2_hits / 2,
            "hit_rate": 0.0,
        },
    }


def test_merge_sums_counters_and_merges_lanes():
    merged = merge_worker_metrics([_snapshot(3), _snapshot(5)])
    assert merged["workers_scraped"] == 2
    assert merged["completed"] == 8
    assert merged["in_flight"] == 2
    assert merged["queue_depth"] == 2
    assert merged["shed"]["admission"] == 2
    assert merged["throughput_rps"] == pytest.approx(8.0)
    assert merged["lanes"]["high"]["completed"] == 8
    assert merged["lanes"]["high"]["latency_seconds"]["count"] == 8.0
    assert merged["latency_sketch"]["count"] == 8
    assert merged["adaptive"]["ticks"] == 6


def test_merge_takes_max_for_shared_l2_gauges():
    merged = merge_worker_metrics([_snapshot(1, l2_hits=2), _snapshot(1, l2_hits=0)])
    cache = merged["cache"]
    assert cache["l2"]["hits"] == 2  # activity counters sum
    assert cache["l2"]["currsize"] == 10  # same directory: max, not 20
    assert cache["l2"]["current_bytes"] == 1000
    assert cache["l1"]["currsize"] == 3  # per-worker L1s are distinct; max is a summary
    lookups = cache["l1"]["hits"] + cache["l1"]["misses"]
    assert cache["hit_rate"] == pytest.approx((cache["l1"]["hits"] + cache["l2"]["hits"]) / lookups)


def test_merge_of_no_snapshots_is_explicit():
    assert merge_worker_metrics([]) == {"workers_scraped": 0}


def test_fleet_parameter_validation():
    with pytest.raises(ParameterError):
        ServeFleet("not-a-spec", workers=2)  # type: ignore[arg-type]
    with pytest.raises(ParameterError):
        ServeFleet(_SPEC, workers=0)
    with pytest.raises(ParameterError):
        ServeFleet(_SPEC, workers=1, heartbeat_interval=1.0, heartbeat_timeout=0.5)
    with pytest.raises(ParameterError):
        ServeFleet(_SPEC, workers=1, drain_grace_seconds=0)


def test_worker_spec_theta_and_seed_kwargs():
    spec = WorkerSpec(method="iqft-gray", theta=1.5)
    assert spec.segmenter_kwargs() == {"theta": 1.5}
    assert spec.theta_used == 1.5
    spec = WorkerSpec(method="kmeans", seed=7)
    assert spec.segmenter_kwargs() == {"seed": 7}
    assert spec.theta_used is None


# --------------------------------------------------------------------------- #
# live fleets
# --------------------------------------------------------------------------- #
def test_fleet_serves_bit_identical_answers_and_aggregates_metrics(rng):
    image = _image(rng)
    expected = _expected_labels(image)
    with _fleet(workers=2) as fleet:
        assert fleet.wait_ready(60)
        assert fleet.health()["status"] == "ok"
        assert fleet.health()["accepting"] == 2
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            for _ in range(4):
                result = client.segment(image)
                assert np.array_equal(result.labels, expected)
        live = fleet.metrics()
        assert live["workers_scraped"] == 2
        assert live["completed"] == 4
        assert live["fleet"]["ready"] == 2
        assert live["http"]["responses"] == {"200": 4}
        assert "repro_http_requests_total" in fleet.prometheus()
        fleet.shutdown(drain=True)
        final = fleet.final_metrics()
    assert final["completed"] == 4
    assert len(final["workers"]) == 2  # both drained cleanly and reported


def test_fleet_restarts_a_sigkilled_worker_without_failing_survivors(rng):
    image = _image(rng)
    expected = _expected_labels(image)
    with _fleet(workers=2) as fleet:
        assert fleet.wait_ready(60)
        victim = sorted(fleet.worker_pids())[0]
        os.kill(victim, signal.SIGKILL)
        # The surviving worker keeps answering while the slot restarts; a
        # request may land on the dead accept queue and get a mapped error,
        # but it must never hang and the fleet must recover fully.
        deadline = time.monotonic() + 60
        served = 0
        while time.monotonic() < deadline:
            try:
                with SegmentClient("127.0.0.1", fleet.port, timeout=30) as client:
                    result = client.segment(image)
                assert np.array_equal(result.labels, expected)
                served += 1
            except ServeError:
                pass  # the kernel routed us to the killed listener
            health = fleet.health()
            if fleet.restarts >= 1 and health["accepting"] == 2:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("supervisor never restarted the killed worker")
        assert served >= 1
        assert victim not in fleet.worker_pids()


def test_fleet_single_listener_fallback_serves(rng):
    image = _image(rng)
    expected = _expected_labels(image)
    with _fleet(workers=2, reuse_port=False) as fleet:
        assert fleet.wait_ready(60)
        assert fleet.reuse_port is False
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            for _ in range(3):
                assert np.array_equal(client.segment(image).labels, expected)


def test_fleet_shares_one_disk_cache_and_restarts_warm(tmp_path, rng):
    image = _image(rng)
    expected = _expected_labels(image)
    spec = WorkerSpec(cache_dir=str(tmp_path / "l2"))
    with _fleet(workers=2, spec=spec) as fleet:
        assert fleet.wait_ready(60)
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            assert np.array_equal(client.segment(image).labels, expected)
    # Second fleet over the same directory: the working set is already on
    # disk, so the first repeat request is an L2 hit in some worker.
    with _fleet(workers=2, spec=spec) as fleet:
        assert fleet.wait_ready(60)
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            for _ in range(4):  # several sends: cover both kernel-balanced workers
                assert np.array_equal(client.segment(image).labels, expected)
        merged = fleet.metrics()
    assert merged["cache"]["l2"]["hits"] > 0
    assert merged["cache"]["l2"]["currsize"] >= 1


def test_fleet_replaces_a_worker_stopped_by_an_external_sigterm(rng):
    """A clean exit the supervisor did not order still brings the slot back."""
    with _fleet(workers=2) as fleet:
        assert fleet.wait_ready(60)
        victim = sorted(fleet.worker_pids())[0]
        os.kill(victim, signal.SIGTERM)  # worker drains and exits 0 — unsolicited
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if fleet.restarts >= 1 and fleet.health()["accepting"] == 2:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("externally stopped worker was never replaced")
        assert victim not in fleet.worker_pids()
        image = _image(rng)
        with SegmentClient("127.0.0.1", fleet.port, timeout=30) as client:
            assert client.segment(image).num_segments >= 1


# --------------------------------------------------------------------------- #
# shared-memory tier: merging, lifecycle, degradation
# --------------------------------------------------------------------------- #
def _shm_doc(hits, stores=1, torn_reads=0):
    lookups = hits + 1
    return {
        "hits": hits,
        "misses": 1,
        "stores": stores,
        "store_skips": 0,
        "evictions": 0,
        "torn_reads": torn_reads,
        "expirations": 0,
        "errors": 0,
        "currsize": 2,
        "slot_count": 15,
        "slot_bytes": 1 << 20,
        "max_bytes": (15 << 20) + 64,
        "hit_rate": hits / lookups,
    }


def test_merge_includes_shm_tier_counters_and_gauges():
    first, second = _snapshot(1), _snapshot(1)
    first["cache"]["shm"] = _shm_doc(hits=2, torn_reads=1)
    second["cache"]["shm"] = _shm_doc(hits=0)
    merged = merge_worker_metrics([first, second])

    shm = merged["cache"]["shm"]
    assert shm["hits"] == 2
    assert shm["torn_reads"] == 1  # summed like the other counters
    assert shm["slot_count"] == 15  # one shared ring: max, not sum
    assert shm["max_bytes"] == (15 << 20) + 64
    assert merged["cache"]["shm_hit_rate"] == pytest.approx(2 / 4)  # 2 hits, 2 misses
    # The combined hit rate counts shm hits alongside l1 + l2 over lookups.
    assert merged["cache"]["hit_rate"] == pytest.approx((2 + 0 + 2) / 6)


def test_merge_without_shm_docs_omits_the_tier():
    merged = merge_worker_metrics([_snapshot(1), _snapshot(1)])
    assert "shm" not in merged["cache"]
    assert "shm_hit_rate" not in merged["cache"]


def test_fleet_shm_tier_survives_sigkill_and_never_leaks(tmp_path, rng):
    """The supervisor owns the segment: SIGKILLed workers cannot leak it."""
    image_a, image_b = _image(rng), _image(rng)
    expected_a, expected_b = _expected_labels(image_a), _expected_labels(image_b)
    spec = WorkerSpec(
        cache_dir=str(tmp_path / "l2"),
        cache_entries=1,  # tiny L1: repeats must come from the shm ring
        shm_bytes=8 * 1024 * 1024,
        shm_slot_bytes=256 * 1024,
    )
    with _fleet(workers=2, spec=spec) as fleet:
        assert fleet.wait_ready(60)
        fleet_doc = fleet.metrics()["fleet"]
        assert fleet_doc["shm"]["enabled"] is True
        segment_name = fleet_doc["shm"]["name"]
        assert os.path.exists(f"/dev/shm/{segment_name}")

        for _ in range(6):  # alternate so the 1-entry L1 cannot answer repeats
            with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
                assert np.array_equal(client.segment(image_a).labels, expected_a)
            with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
                assert np.array_equal(client.segment(image_b).labels, expected_b)

        merged = fleet.metrics()
        assert merged["cache"]["shm"]["stores"] >= 1
        assert "shm_hit_rate" in merged["cache"]

        victim = sorted(fleet.worker_pids())[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if fleet.restarts >= 1 and fleet.health()["accepting"] == 2:
                break
            time.sleep(0.1)
        else:
            raise AssertionError("supervisor never restarted the killed worker")
        # The segment survived the SIGKILL (the dead worker's resource
        # tracker must not have unlinked it) and the replacement re-attached.
        assert os.path.exists(f"/dev/shm/{segment_name}")
        with SegmentClient("127.0.0.1", fleet.port, timeout=30) as client:
            assert np.array_equal(client.segment(image_a).labels, expected_a)
        fleet.shutdown(drain=True)
        assert not os.path.exists(f"/dev/shm/{segment_name}")


def test_fleet_degrades_cleanly_when_shm_cannot_be_created(rng):
    """An unusable shm size downgrades the fleet instead of failing start."""
    spec = WorkerSpec(shm_bytes=128)  # < one slot
    with _fleet(workers=2, spec=spec) as fleet:
        assert fleet.wait_ready(60)
        shm_doc = fleet.metrics()["fleet"]["shm"]
        assert shm_doc["enabled"] is False
        assert "error" in shm_doc
        image = _image(rng)
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            assert client.segment(image).num_segments >= 1


# --------------------------------------------------------------------------- #
# aggregation under degradation: malformed snapshots, dead workers
# --------------------------------------------------------------------------- #
def test_merge_skips_non_dict_snapshots_wholesale():
    merged = merge_worker_metrics([_snapshot(3), None, ["truncated"], "garbage"])
    assert merged["workers_scraped"] == 1
    assert merged["completed"] == 3


def test_merge_tolerates_malformed_counter_values():
    bad = _snapshot(2)
    bad["completed"] = "not-a-number"
    bad["throughput_rps"] = float("nan")
    bad["uptime_seconds"] = None
    bad["shed"] = "broken"
    bad["lanes"] = ["broken"]
    bad["adaptive"] = 7
    bad["cache"] = "broken"
    merged = merge_worker_metrics([_snapshot(3), bad])
    assert merged["workers_scraped"] == 2
    assert merged["completed"] == 3  # the string degrades to 0, not a crash
    assert merged["throughput_rps"] == pytest.approx(3.0)  # NaN -> 0.0
    assert merged["shed"]["admission"] == 1
    assert merged["lanes"]["high"]["completed"] == 3
    assert merged["adaptive"]["ticks"] == 3
    assert merged["cache"]["l1"]["hits"] == 1


def test_merge_drops_disjoint_latency_sketches_instead_of_raising():
    bad = _snapshot(2)
    bad["latency_sketch"] = {"bounds": [0.5, 1.0], "counts": [1, 1, 0], "count": 2}
    merged = merge_worker_metrics([_snapshot(3), bad])
    # Disjoint bounds cannot be merged without misattributing counts, so the
    # fleet percentile degrades to the explicit "no data" contract.
    assert merged["latency_sketch"]["count"] == 0
    assert merged["latency_seconds"]["p99"] is None
    assert merged["completed"] == 5  # counters still merge fine


def test_merge_sums_trace_counters_and_takes_slowest_exemplar():
    left, right = _snapshot(2), _snapshot(3)
    left["trace"] = {"started": 2, "sampled_out": 1, "recorded": 1, "retained": 1}
    right["trace"] = {"started": 3, "sampled_out": 0, "recorded": 3, "retained": 3}
    left["latency_exemplar"] = {"trace_id": "a" * 16, "seconds": 0.5}
    right["latency_exemplar"] = {"trace_id": "b" * 16, "seconds": 0.1}
    merged = merge_worker_metrics([left, right])
    assert merged["trace"] == {"started": 5, "sampled_out": 1, "recorded": 4, "retained": 4}
    assert merged["latency_exemplar"]["trace_id"] == "a" * 16


def test_merge_exemplar_absent_or_malformed_is_none():
    merged = merge_worker_metrics([_snapshot(1), _snapshot(1)])
    assert merged["latency_exemplar"] is None
    bad = _snapshot(1)
    bad["latency_exemplar"] = {"trace_id": "", "seconds": 1.0}  # no id -> skipped
    assert merge_worker_metrics([bad])["latency_exemplar"] is None


class _DeadHandle:
    """Looks enough like a worker handle to be scraped; nothing listens."""

    def __init__(self, slot, admin_port):
        self.slot = slot
        self.admin_port = admin_port


def _closed_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_fleet_scrape_of_dead_worker_counts_failure_and_skips(monkeypatch):
    fleet = ServeFleet(_SPEC, port=0, workers=1)
    dead = _DeadHandle(slot=0, admin_port=_closed_port())
    monkeypatch.setattr(fleet, "_ready_handles", lambda: [dead])
    merged = fleet.metrics()
    assert merged["workers_scraped"] == 0
    assert merged["scrape_failures"] >= 1
    assert merged["fleet"]["scrape_failures"] == merged["scrape_failures"]
    # Trace lookups degrade the same way: skip, count, return "not found".
    before = fleet.metrics()["scrape_failures"]
    assert fleet.trace("deadbeefdeadbeef") is None
    assert fleet.traces() == []
    assert fleet.describe_fleet()["scrape_failures"] > before


def test_fleet_metrics_with_zero_ready_workers_is_explicit():
    fleet = ServeFleet(_SPEC, port=0, workers=1)  # never started
    merged = fleet.metrics()
    assert merged["workers_scraped"] == 0
    assert merged["scrape_failures"] == 0
    assert merged["workers"] == []
    assert merged["fleet"]["ready"] == 0

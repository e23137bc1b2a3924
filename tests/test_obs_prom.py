"""Tests for Prometheus exposition rendering and validation (``repro.obs.prom``)."""

import asyncio
import copy
import fnmatch

import numpy as np

from repro.metrics.runtime import LatencyRecorder
from repro.obs import render_prometheus, validate_exposition
from repro.obs.prom import main
from repro.obs.schema import METRICS, leaves
from repro.serve import merge_worker_metrics


def _metrics():
    """A service-shaped metrics tree with every family populated."""
    recorder = LatencyRecorder()
    for value in (0.004, 0.012, 0.045, 0.210):
        recorder.record(value)
    sketch = recorder.sketch()
    return {
        "requests": 4,
        "completed": 4,
        "failed": 0,
        "coalesced": 1,
        "in_flight": 0,
        "queue_depth": 2,
        "uptime_seconds": 12.5,
        "throughput_rps": 0.32,
        "batches": 3,
        "mean_batch_size": 1.33,
        "workers_scraped": 2,
        "scrape_failures": 1,
        "shed": {"admission": 1, "expired": 0},
        "lanes": {
            "high": {
                "depth": 0,
                "submitted": 2,
                "completed": 2,
                "shed_admission": 0,
                "shed_expired": 0,
                "weight": 4,
                "latency_sketch": sketch,
            },
            "normal": {
                "depth": 2,
                "submitted": 2,
                "completed": 2,
                "shed_admission": 1,
                "shed_expired": 0,
                "weight": 2,
                "latency_sketch": sketch,
            },
        },
        "latency_sketch": sketch,
        "latency_exemplar": {"trace_id": "deadbeefdeadbeef", "seconds": 0.210},
        "cache": {
            "l1": {"hits": 3, "misses": 1, "currsize": 2, "maxsize": 256, "hit_bytes": 1024},
            "l2": {"hits": 1, "misses": 3, "currsize": 4, "size_bytes": 4096},
        },
        "trace": {"started": 4, "recorded": 4, "sampled_out": 0, "retained": 4},
        "http": {
            "requests": 4,
            "responses": {"200": 3, "429": 1},
            "inflight": 0,
            "open_connections": 1,
            "client_disconnects": 0,
            "draining": 0,
        },
    }


# --------------------------------------------------------------------------- #
# rendering
# --------------------------------------------------------------------------- #
def test_render_produces_valid_exposition():
    text = render_prometheus(_metrics())
    assert validate_exposition(text) == []
    assert text.endswith("\n")
    assert "# TYPE repro_requests_total counter" in text
    assert "repro_requests_total 4" in text
    assert 'repro_shed_total{reason="admission"} 1' in text
    assert 'repro_lane_completed_total{lane="high"} 2' in text
    assert "# TYPE repro_fleet_scrape_failures_total counter" in text


def test_render_sketch_as_cumulative_histogram_with_inf_sum_count():
    text = render_prometheus(_metrics())
    bucket_lines = [
        line for line in text.splitlines()
        if line.startswith("repro_request_latency_seconds_bucket")
    ]
    assert bucket_lines, "latency histogram missing"
    assert bucket_lines[-1].startswith('repro_request_latency_seconds_bucket{le="+Inf"} ')
    # Cumulative: bucket values never decrease.
    values = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert values == sorted(values)
    assert values[-1] == 4.0
    assert "repro_request_latency_seconds_sum " in text
    assert "repro_request_latency_seconds_count 4" in text


def test_render_attaches_slow_request_exemplar_trace_id():
    text = render_prometheus(_metrics())
    assert (
        'repro_request_latency_exemplar_seconds{trace_id="deadbeefdeadbeef"} 0.21'
        in text
    )


def test_render_cache_tiers_get_tier_labels():
    text = render_prometheus(_metrics())
    assert 'repro_cache_hits_total{tier="l1"} 3' in text
    assert 'repro_cache_hits_total{tier="l2"} 1' in text
    assert 'repro_cache_hit_bytes_total{tier="l1"} 1024' in text


def test_render_flat_single_tier_cache_labels_memory():
    text = render_prometheus({"cache": {"hits": 5, "misses": 2, "currsize": 3}})
    assert 'repro_cache_hits_total{tier="memory"} 5' in text
    assert validate_exposition(text) == []


def test_render_extra_labels_and_empty_tree():
    text = render_prometheus({"completed": 7}, extra_labels={"worker": "3"})
    assert 'repro_completed_total{worker="3"} 7' in text
    assert render_prometheus({}) == ""
    assert validate_exposition("") == []


def test_render_skips_malformed_subtrees():
    text = render_prometheus(
        {
            "completed": 1,
            "lanes": "broken",
            "cache": {"l1": "broken"},
            "latency_sketch": {"bounds": [0.1]},  # counts missing -> not a sketch
            "latency_exemplar": {"trace_id": None},
        }
    )
    assert "repro_completed_total 1" in text
    assert validate_exposition(text) == []


#: Numeric leaves of a live snapshot that are deliberately not exported.
_NOT_EXPORTED = (
    # Point summaries of the latency sketches; the sketches render as
    # histograms, from whose buckets Prometheus computes any quantile.
    "latency_seconds.*",
    "lanes.*.latency_seconds.*",
    # The tiered cache's roll-up hit rates: each tier's own hit_rate
    # renders as cache_hit_rate{tier=...}, and the overall rate follows
    # from the per-tier hit/miss counters.
    "cache.hit_rate",
    "cache.*_hit_rate",
    # The live lane weights, already exported as lane_weight{lane=...}.
    "adaptive.lane_weights.*",
)


def _numeric_leaves(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield path


def _live_snapshot(tmp_path):
    """Metrics of a service with every optional subsystem switched on."""
    from repro import BatchSegmentationEngine, IQFTSegmenter
    from repro.serve import (
        AsyncSegmentationService,
        DiskResultCache,
        HttpSegmentationServer,
        ResultCache,
        SharedMemoryResultCache,
        TieredResultCache,
    )

    rng = np.random.default_rng(5)
    shm = SharedMemoryResultCache.create(4 << 20, slot_bytes=1 << 20)
    cache = TieredResultCache(ResultCache(max_entries=8), DiskResultCache(str(tmp_path)), shm=shm)
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    service = AsyncSegmentationService(engine, cache=cache, adaptive=True)
    server = HttpSegmentationServer(service, port=0)

    async def drive():
        async with service:
            images = [rng.integers(0, 255, (32, 32, 3), dtype=np.uint8) for _ in range(3)]
            await service.map(images)
            await service.map(images)  # cache hits
            frame = rng.integers(0, 255, (128, 128, 3), dtype=np.uint8)
            await service.submit(frame, stream_id="cam")
            frame[:8, :8] = 0
            await service.submit(frame, stream_id="cam")  # dirty-tile path
            return service.metrics()

    return {**asyncio.run(drive()), "http": server.http_metrics()}


def test_every_numeric_leaf_of_a_live_snapshot_is_exported(tmp_path):
    snapshot = _live_snapshot(tmp_path)
    assert snapshot["delta"]["frames"] >= 1 and snapshot["trace"]["recorded"] >= 1
    assert validate_exposition(render_prometheus(snapshot)) == []
    unexported = []
    for index, path in enumerate(_numeric_leaves(snapshot)):
        dotted = ".".join(path)
        if any(fnmatch.fnmatchcase(dotted, pattern) for pattern in _NOT_EXPORTED):
            continue
        # A leaf is exported when changing its value changes a sample value.
        mutated = copy.deepcopy(snapshot)
        node = mutated
        for key in path[:-1]:
            node = node[key]
        sentinel = 900001 + index
        node[path[-1]] = sentinel
        samples = render_prometheus(mutated).splitlines()
        if not any(line.endswith(f" {sentinel}") for line in samples):
            unexported.append(dotted)
    assert unexported == []


def _families(text):
    return {line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")}


def test_fleet_merge_exports_every_family_a_worker_exports(tmp_path):
    snapshot = _live_snapshot(tmp_path)
    merged = merge_worker_metrics([snapshot, snapshot])
    missing = _families(render_prometheus(snapshot)) - _families(render_prometheus(merged))
    assert missing == set()


async def _answered_http_metrics():
    """``http_metrics()`` of a server that has answered one request."""
    from repro import BatchSegmentationEngine, IQFTSegmenter
    from repro.serve import AsyncSegmentationService, HttpSegmentationServer

    service = AsyncSegmentationService(BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi)))
    server = HttpSegmentationServer(service, port=0)
    async with service:
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        await reader.read()
        writer.close()
        await writer.wait_closed()
        await server.aclose(drain=True, close_service=False)
    return server.http_metrics()


def test_every_table_row_matches_a_live_or_merged_leaf(tmp_path):
    snapshot = {**_live_snapshot(tmp_path), "http": asyncio.run(_answered_http_metrics())}
    assert snapshot["http"]["responses"]
    # ServeFleet.metrics() adds the supervisor's own scrape-failure count.
    fleet = {**merge_worker_metrics([snapshot, snapshot]), "scrape_failures": 0}
    matched = {row.path for row, *_ in leaves(snapshot) + leaves(fleet) if row is not None}
    assert [row.path for row in METRICS if row.path not in matched] == []


# --------------------------------------------------------------------------- #
# validation (the CI checker)
# --------------------------------------------------------------------------- #
def test_validator_flags_sample_without_type():
    assert any("no preceding TYPE" in e for e in validate_exposition("repro_x 1\n"))


def test_validator_flags_missing_trailing_newline():
    text = "# TYPE repro_x counter\nrepro_x 1"
    assert any("end with a newline" in e for e in validate_exposition(text))


def test_validator_flags_non_cumulative_histogram():
    text = (
        "# TYPE repro_lat histogram\n"
        'repro_lat_bucket{le="0.1"} 5\n'
        'repro_lat_bucket{le="0.5"} 3\n'
        'repro_lat_bucket{le="+Inf"} 5\n'
        "repro_lat_sum 1\n"
        "repro_lat_count 5\n"
    )
    assert any("not cumulative" in e for e in validate_exposition(text))


def test_validator_flags_missing_inf_bucket_and_sum():
    text = (
        "# TYPE repro_lat histogram\n"
        'repro_lat_bucket{le="0.1"} 5\n'
        "repro_lat_count 5\n"
    )
    errors = validate_exposition(text)
    assert any("missing +Inf bucket" in e for e in errors)


def test_validator_flags_inf_bucket_count_mismatch():
    text = (
        "# TYPE repro_lat histogram\n"
        'repro_lat_bucket{le="+Inf"} 4\n'
        "repro_lat_sum 1\n"
        "repro_lat_count 5\n"
    )
    assert any("+Inf bucket != _count" in e for e in validate_exposition(text))


def test_validator_flags_malformed_lines_and_values():
    errors = validate_exposition(
        "# TYPE repro_x counter\n"
        "repro_x notanumber\n"
        "# BOGUS comment here\n"
        "}}malformed{{ 1\n"
    )
    assert any("invalid sample value" in e for e in errors)
    assert any("malformed comment" in e for e in errors)
    assert any("malformed sample" in e for e in errors)


def test_validator_flags_duplicate_and_invalid_type():
    errors = validate_exposition(
        "# TYPE repro_x counter\n"
        "# TYPE repro_x counter\n"
        "# TYPE repro_y teapot\n"
        "repro_x 1\n"
    )
    assert any("duplicate TYPE" in e for e in errors)
    assert any("invalid TYPE" in e for e in errors)


def test_validator_flags_malformed_label():
    text = '# TYPE repro_x counter\nrepro_x{9bad="v"} 1\n'
    assert any("malformed label" in e for e in validate_exposition(text))


def test_checker_main_accepts_valid_file_and_rejects_invalid(tmp_path, capsys):
    good = tmp_path / "good.prom"
    good.write_text(render_prometheus(_metrics()), encoding="utf-8")
    assert main([str(good)]) == 0
    assert "exposition ok" in capsys.readouterr().out

    bad = tmp_path / "bad.prom"
    bad.write_text("repro_x 1\n", encoding="utf-8")
    assert main([str(bad)]) == 1
    assert "exposition error" in capsys.readouterr().err


def test_checker_module_runs_without_a_runtime_warning(tmp_path):
    # runpy warns when `python -m repro.obs.prom` finds the module already
    # imported by its own package; CI runs the checker with this flag.
    import subprocess
    import sys

    good = tmp_path / "good.prom"
    good.write_text(render_prometheus(_metrics()), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs.prom", str(good)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("exposition ok"), proc.stdout


def test_checker_main_reads_stdin(monkeypatch, capsys):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO("# TYPE repro_x counter\nrepro_x 1\n"))
    assert main([]) == 0
    assert "1 samples" in capsys.readouterr().out


def test_sketch_with_overflow_bucket_renders_inf_total():
    # Overflow bucket (counts longer than bounds) lands in +Inf only.
    sketch = {"bounds": [0.1, 1.0], "counts": [1, 2, 3], "count": 6, "sum_seconds": 9.0}
    text = render_prometheus({"latency_sketch": sketch})
    assert 'repro_request_latency_seconds_bucket{le="+Inf"} 6' in text
    assert validate_exposition(text) == []

"""End-to-end observability: trace propagation, Prometheus scrape, metrics CLI.

The unit behavior of ``repro.obs`` lives in ``test_obs_*``; this file wires
the pieces together the way production does — a real HTTP server (and a real
3-worker fleet) answering segment requests while traces, metrics, and the
CLI read back what happened.
"""

import asyncio
import contextlib
import http.client
import json
import threading

import numpy as np
import pytest

from repro.cli import _format_metrics_table, main
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.obs import Tracer, validate_exposition
from repro.serve import (
    AsyncSegmentationService,
    HttpSegmentationServer,
    SegmentClient,
    ServeFleet,
    WorkerSpec,
)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _engine(**kwargs):
    return BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), **kwargs)


def _image(rng, shape=(10, 12, 3)):
    return (rng.random(shape) * 255).astype(np.uint8)


def _service(sample_rate=1.0, **kwargs):
    return AsyncSegmentationService(
        _engine(), tracer=Tracer(sample_rate=sample_rate), **kwargs
    )


@contextlib.contextmanager
def _serve(service_factory, **server_kwargs):
    """Run service + HTTP server on a private event loop thread."""
    started = threading.Event()
    box = {}
    failures = []

    def run():
        async def run_server():
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
            asyncio.run(run_server())
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


def _get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _span_names(node):
    yield node["name"]
    for child in node["children"]:
        yield from _span_names(child)


def _assert_tree_timings_monotonic(tree):
    """Every span starts at/after 0 with a non-negative duration, falls
    inside the request window, and siblings are ordered by start time.

    Containment is asserted against the *root* window: repeated span names
    (a request can probe the cache twice) share one tree node, so a child's
    window can legitimately extend past the first probe's, but never past
    the request's.
    """
    window_end = tree["start"] + tree["duration_seconds"]

    def walk(node):
        start = node["start"]
        duration = node["duration_seconds"]
        assert start >= -1e-6
        assert duration >= 0.0
        assert start + duration <= window_end + 1e-3
        child_starts = [child["start"] for child in node["children"]]
        assert child_starts == sorted(child_starts)
        for child in node["children"]:
            assert child["start"] >= start - 1e-3  # children never pre-date the parent
            walk(child)

    walk(tree)


# --------------------------------------------------------------------------- #
# single server: trace echo, flight recorder, prometheus
# --------------------------------------------------------------------------- #
def test_http_trace_id_echo_and_flight_recorder_round_trip(rng):
    image = _image(rng)
    with _serve(_service) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            result = client.segment(image, trace_id="deadbeefdeadbeef")
            assert result.trace_id == "deadbeefdeadbeef"

            doc = client.trace("deadbeefdeadbeef")
        assert doc is not None
        assert doc["schema"] == "repro-trace/v1"
        assert doc["trace_id"] == "deadbeefdeadbeef"
        assert doc["fields"]["status"] == 200
        tree = doc["tree"]
        assert tree["name"] == "request"
        names = set(_span_names(tree))
        # The request's journey: parse -> submit -> queue -> cache -> batch
        # -> compute -> score -> encode, all under one root.
        for expected in (
            "ingress.parse",
            "service.submit",
            "queue.wait",
            "cache.probe",
            "batch.assemble",
            "engine.compute",
            "scoring",
            "response.encode",
        ):
            assert expected in names, expected
        _assert_tree_timings_monotonic(tree)
        assert doc["duration_seconds"] > 0.0


def test_http_untraced_requests_have_no_header_at_rate_zero(rng):
    image = _image(rng)
    with _serve(lambda: _service(sample_rate=0.0)) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            plain = client.segment(image)
            assert plain.trace_id is None  # sampled out: no echo, no record
            forced = client.segment(image, trace_id="feedfacefeedface")
            assert forced.trace_id == "feedfacefeedface"
            assert client.trace("feedfacefeedface") is not None
            assert client.trace("0000000000000000") is None  # 404 -> None


def test_http_slowest_traces_listing_and_param_validation(rng):
    image = _image(rng)
    with _serve(_service) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            for index in range(3):
                client.segment(image, trace_id=f"{index:016x}")
            listed = client.traces(slowest=2)
        assert len(listed) == 2
        durations = [doc["duration_seconds"] for doc in listed]
        assert durations == sorted(durations, reverse=True)

        status, _ = _get(box["port"], "/v1/traces?slowest=wat")
        assert status == 400
        status, payload = _get(box["port"], "/v1/trace/unknown-id")
        assert status == 404
        assert json.loads(payload)["error"]


def test_http_metrics_prometheus_format_is_valid_exposition(rng):
    image = _image(rng)
    with _serve(_service) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            client.segment(image, trace_id="cafebabecafebabe")
            client.segment(image)  # second hit: cache counters move
            text = client.metrics_prometheus()
        assert validate_exposition(text) == []
        assert "repro_completed_total 2" in text
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'trace_id="' in text  # slowest-request exemplar present

        status, _ = _get(box["port"], "/v1/metrics?format=msgpack")
        assert status == 400
        status, payload = _get(box["port"], "/v1/metrics")
        assert status == 200
        document = json.loads(payload)
        assert document["trace"]["recorded"] >= 1
        assert document["trace"]["sample_rate"] == 1.0


# --------------------------------------------------------------------------- #
# fleet: cross-worker trace lookup (the acceptance scenario)
# --------------------------------------------------------------------------- #
def test_three_worker_fleet_trace_round_trip(tmp_path, rng):
    image = _image(rng, shape=(14, 14, 3))
    spec = WorkerSpec(
        cache_dir=str(tmp_path / "l2"),
        trace_sample_rate=1.0,
    )
    with ServeFleet(
        spec, port=0, workers=3, stagger_seconds=0.05, restart_backoff_seconds=0.2
    ) as fleet:
        assert fleet.wait_ready(90, workers=3)
        trace_id = "0123456789abcdef"
        with SegmentClient("127.0.0.1", fleet.port, timeout=60) as client:
            result = client.segment(image, trace_id=trace_id)
            assert result.trace_id == trace_id

        # SO_REUSEPORT routed the request to *some* worker; the supervisor
        # finds the retained trace without knowing which one.
        doc = fleet.trace(trace_id)
        assert doc is not None
        assert doc["trace_id"] == trace_id
        tree = doc["tree"]
        assert tree["name"] == "request"
        names = set(_span_names(tree))
        for expected in (
            "ingress.parse",
            "queue.wait",
            "cache.probe",
            "engine.compute",
            "response.encode",
        ):
            assert expected in names, expected
        # Cache tier probes nest under the probe span.
        probe = next(n for n in tree["children"] if n["name"] == "cache.probe")
        assert probe["children"], "cache tier spans missing"
        assert all(n["name"].startswith("cache.") for n in probe["children"])
        _assert_tree_timings_monotonic(tree)

        assert fleet.trace("ffffffffffffffff") is None
        listed = fleet.traces(slowest=5)
        assert any(entry["trace_id"] == trace_id for entry in listed)

        merged = fleet.metrics()
        assert merged["trace"]["recorded"] >= 1
        exposition = fleet.prometheus()
        assert validate_exposition(exposition) == []
        assert "repro_fleet_workers_scraped 3" in exposition


# --------------------------------------------------------------------------- #
# the metrics CLI subcommand
# --------------------------------------------------------------------------- #
def test_format_metrics_table_tolerates_fresh_service_snapshot():
    table = _format_metrics_table(
        {
            "completed": 0,
            "latency_seconds": {"count": 0.0, "mean": None, "max": None, "p50": None, "p99": None},
            "cache": None,
            "lanes": {},
            "adaptive": None,
        }
    )
    assert "p50=n/a p99=n/a" in table
    assert "cache hits   off" in table
    assert "adaptive     off" in table
    assert "NaN" not in table


def test_format_metrics_table_renders_fleet_lanes_and_exemplar():
    table = _format_metrics_table(
        {
            "fleet": {"ready": 3, "workers": 3, "restarts": 1},
            "scrape_failures": 2,
            "completed": 10,
            "throughput_rps": 5.0,
            "uptime_seconds": 2.0,
            "mean_batch_size": 1.5,
            "latency_seconds": {"p50": 0.010, "p99": 0.050, "mean": 0.015, "max": 0.051},
            "cache": {"l1": {"hit_rate": 0.5}, "l2": {"hit_rate": 0.25}, "hit_rate": 0.4},
            "lanes": {"high": {"depth": 0, "completed": 10, "shed_admission": 1,
                               "shed_expired": 0, "weight": 4,
                               "latency_seconds": {"p99": 0.050}}},
            "adaptive": {"ticks": 7, "batch_adjustments": 1, "weight_adjustments": 2,
                         "max_batch_size": 16},
            "trace": {"recorded": 3, "retained": 3, "sampled_out": 0},
            "latency_exemplar": {"trace_id": "deadbeefdeadbeef", "seconds": 0.051},
        }
    )
    assert "latency      p50=10.00ms p99=50.00ms" in table
    assert "cache hits   l1=50% l2=25% overall=40%" in table
    assert "lane high    depth=0 completed=10 shed=1 weight=4 p99=50.00ms" in table
    assert "batch_size=16" in table
    assert "traces       recorded=3 retained=3 sampled_out=0" in table
    assert "slowest      trace_id=deadbeefdeadbeef at 51.00ms" in table


def test_cli_metrics_subcommand_against_live_server(rng, capsys):
    image = _image(rng)
    with _serve(_service) as box:
        with SegmentClient("127.0.0.1", box["port"]) as client:
            client.segment(image, trace_id="beefbeefbeefbeef")
        assert main(["metrics", f"127.0.0.1:{box['port']}"]) == 0
        out = capsys.readouterr().out
        assert f"metrics      http://127.0.0.1:{box['port']}/v1/metrics" in out
        assert "requests     completed=1" in out
        assert "traces       recorded=1" in out

        assert main(["metrics", f"127.0.0.1:{box['port']}", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["completed"] == 1


def test_cli_metrics_subcommand_maps_failures_to_exit_2(capsys):
    assert main(["metrics", "not-an-address"]) == 2
    assert "error:" in capsys.readouterr().err
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    assert main(["metrics", f"127.0.0.1:{port}", "--timeout", "2"]) == 2
    assert "error:" in capsys.readouterr().err

"""``SegmentClient`` against an unstable fleet: drain and mid-restart.

The client contract under churn is binary: a request either completes with
labels bit-identical to ``pipeline.run``, or it raises one of the library's
mapped exceptions (``ServeError`` subclasses — most often
``ServeConnectionError`` when the kernel routed the connection to a worker
that just died, or ``ServiceClosedError`` from a worker that is draining).
A bare socket exception or a hung socket is a failure of the contract.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.errors import ServeConnectionError, ServeError
from repro.serve import SegmentClient, ServeFleet, WorkerSpec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

_SPEC = WorkerSpec(max_batch_size=8)


def _image(rng, side=14):
    palette = (rng.random((16, 3)) * 255).astype(np.uint8)
    return palette[rng.integers(0, 16, size=(side, side))]


def _expected_labels(image):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    return engine.pipeline.run(image).segmentation.labels


def test_connection_refused_maps_to_serve_connection_error():
    import socket

    with socket.socket() as probe:  # a port that is certainly closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with SegmentClient("127.0.0.1", port, timeout=5) as client:
        with pytest.raises(ServeConnectionError) as excinfo:
            client.health()
    assert excinfo.value.__cause__ is not None  # original OSError preserved


def test_requests_against_a_draining_fleet_complete_or_raise_mapped(rng):
    image = _image(rng)
    expected = _expected_labels(image)
    fleet = ServeFleet(
        _SPEC, port=0, workers=2, stagger_seconds=0.05, restart_backoff_seconds=0.2
    )
    outcomes = {"ok": 0, "mapped": 0}
    failures = []
    stop_sending = threading.Event()

    def hammer():
        while not stop_sending.is_set():
            started = time.monotonic()
            try:
                with SegmentClient("127.0.0.1", fleet.port, timeout=10) as client:
                    result = client.segment(image)
                if not np.array_equal(result.labels, expected):
                    failures.append("non-identical answer")
                outcomes["ok"] += 1
            except ServeError:
                outcomes["mapped"] += 1
            except Exception as exc:  # noqa: BLE001 - the contract violation we hunt
                failures.append(f"unmapped {type(exc).__name__}: {exc}")
            if time.monotonic() - started > 15:
                failures.append("request exceeded its timeout budget")

    with fleet:
        assert fleet.wait_ready(60)
        sender = threading.Thread(target=hammer)
        sender.start()
        time.sleep(0.5)  # some requests against the healthy fleet first
        fleet.shutdown(drain=True)  # fleet-wide SIGTERM drain underneath the client
        time.sleep(0.5)  # and some against the fully-drained address
        stop_sending.set()
        sender.join(timeout=60)
    assert not sender.is_alive(), "client thread hung"
    assert not failures, failures[:3]
    assert outcomes["ok"] >= 1  # the healthy phase really served traffic
    assert outcomes["mapped"] >= 1  # the drained address surfaced mapped errors


def test_requests_during_a_worker_restart_complete_or_raise_mapped(rng):
    image = _image(rng)
    expected = _expected_labels(image)
    fleet = ServeFleet(
        _SPEC, port=0, workers=2, stagger_seconds=0.05, restart_backoff_seconds=0.2
    )
    with fleet:
        assert fleet.wait_ready(60)
        victim = sorted(fleet.worker_pids())[0]
        os.kill(victim, signal.SIGKILL)
        ok = mapped = 0
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                with SegmentClient("127.0.0.1", fleet.port, timeout=10) as client:
                    result = client.segment(image)
                assert np.array_equal(result.labels, expected)
                ok += 1
            except ServeError:
                mapped += 1  # routed to the corpse's socket: mapped, not raw
            if fleet.restarts >= 1 and fleet.health()["accepting"] == 2:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("fleet did not recover from the SIGKILL")
        assert ok >= 1
        # after recovery the fleet answers normally again
        with SegmentClient("127.0.0.1", fleet.port, timeout=30) as client:
            assert np.array_equal(client.segment(image).labels, expected)

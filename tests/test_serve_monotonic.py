"""Monotonic-clock regression tests for the serving layer.

Every time source in the request path (request deadlines, service
latency/uptime) must be a *monotonic* clock, never ``time.time()`` — a
wall-clock step (NTP correction, DST, manual reset) must not shed requests
early or distort latency percentiles.
These tests pin that down with injected fake clocks and a source audit.
"""

import asyncio
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.base import BaseSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.errors import DeadlineExceededError
from repro.serve import AsyncSegmentationService


class FakeClock:
    """Deterministic monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_no_wall_clock_on_the_serve_path():
    """Reprolint rule RL002 is the single source of truth for this invariant.

    The old textual ``time.time()`` audit lived here; it is now an AST rule
    (which also catches naive ``datetime.now()``/``utcnow()`` and covers
    ``repro.obs`` + the latency recorder) with the disk-cache modules
    allowlisted because they legitimately compare against file mtimes.
    """
    repo_root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo_root))
    try:
        from tools.reprolint.engine import analyze_paths
    finally:
        sys.path.pop(0)

    findings = analyze_paths(repo_root, rule_ids=["RL002"])
    rendered = [f.render() for f in findings]
    assert not rendered, "wall-clock reads on the serve path:\n" + "\n".join(rendered)


class GatedSegmenter(BaseSegmenter):
    """A segmenter that blocks until released."""

    name = "gated"

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _segment(self, image):
        self.entered.set()
        assert self.gate.wait(30.0), "gate never released"
        return np.zeros(np.asarray(image).shape[:2], dtype=np.int64)


def _gated_outcome(clock, deadline, queued_ahead, advance):
    """Submit with ``deadline`` behind a gated batch; advance ``clock``; release.

    ``queued_ahead`` requests wait in the lanes first; they fill a queue of
    that size, so with any of them the submit waits for queue space.

    Returns the submit's outcome (a result or the exception it raised).
    Plenty of *real* time passes before the clock advance, so a service
    that measured deadlines on the wall clock would still admit it.
    """
    segmenter = GatedSegmenter()

    async def scenario():
        service = AsyncSegmentationService(
            BatchSegmentationEngine(segmenter),
            max_batch_size=1,
            queue_size=max(1, queued_ahead),
            cache=None,
            clock=clock,
        )
        loop = asyncio.get_running_loop()
        others = [asyncio.ensure_future(service.submit(np.zeros((4, 4, 3), np.uint8)))]
        await loop.run_in_executor(None, segmenter.entered.wait, 10.0)
        others += [
            asyncio.ensure_future(service.submit(np.full((4, 4, 3), value, np.uint8)))
            for value in range(1, queued_ahead + 1)
        ]
        victim = asyncio.ensure_future(
            service.submit(np.full((4, 4, 3), 200, np.uint8), deadline=deadline)
        )
        await asyncio.sleep(0.15)
        assert not victim.done(), "settled on wall time instead of the injected clock"
        clock.advance(advance)
        segmenter.gate.set()
        await asyncio.gather(*others)
        outcome = (await asyncio.gather(victim, return_exceptions=True))[0]
        await service.aclose()
        return outcome

    return asyncio.run(scenario())


def test_batcher_deadline_flush_follows_the_injected_clock():
    # Since the flush deadline went (5.0.0), the one deadline a batch drain
    # applies is the queued request's own: a request queued behind a gated
    # batch is shed when the injected clock passes it, whatever the wall
    # clock says.
    outcome = _gated_outcome(FakeClock(), deadline=100.0, queued_ahead=0, advance=100.1)
    assert isinstance(outcome, DeadlineExceededError)


def test_batcher_put_timeout_follows_the_injected_clock():
    # A submit blocked on a full queue gives up once its deadline passes on
    # the injected clock (the bound the old batcher's put timeout gave).
    outcome = _gated_outcome(FakeClock(), deadline=50.0, queued_ahead=1, advance=51.0)
    assert isinstance(outcome, DeadlineExceededError)
    assert "waiting for queue space" in str(outcome)


def test_service_latency_and_uptime_follow_the_injected_clock(rng):
    clock = FakeClock()
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    image = (rng.random((10, 12, 3)) * 255).astype(np.uint8)

    async def scenario():
        async with AsyncSegmentationService(engine, clock=clock) as service:
            await service.submit(image)
            # the request completed while the injected clock stood still, so
            # its recorded latency must be exactly zero — real elapsed time
            # must not leak into the percentiles
            latency = service.metrics()["latency_seconds"]
            clock.advance(7.0)
            return latency, service.metrics()["uptime_seconds"]

    latency, uptime = asyncio.run(scenario())
    assert latency["count"] == 1.0
    assert latency["max"] == 0.0
    assert uptime == pytest.approx(7.0)

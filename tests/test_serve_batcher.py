"""Tests for the micro-batcher (``repro.serve.MicroBatcher``)."""

import queue
import threading
import time

import pytest

from repro.errors import ParameterError
from repro.serve import MicroBatcher


def test_flush_on_size_returns_full_batch_immediately():
    batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=30.0, queue_size=16)
    for item in range(4):
        batcher.put(item)
    start = time.perf_counter()
    batch = batcher.next_batch()
    elapsed = time.perf_counter() - start
    assert batch == [0, 1, 2, 3]
    # a size flush must not wait out the (deliberately huge) deadline
    assert elapsed < 5.0
    assert batcher.stats["flushes"]["size"] == 1


def test_flush_on_deadline_returns_partial_batch():
    batcher = MicroBatcher(max_batch_size=64, max_wait_seconds=0.05, queue_size=16)
    batcher.put("only")
    start = time.perf_counter()
    batch = batcher.next_batch()
    elapsed = time.perf_counter() - start
    assert batch == ["only"]
    assert 0.02 <= elapsed < 5.0  # waited for the deadline, not forever
    assert batcher.stats["flushes"]["deadline"] == 1


def test_zero_wait_still_flushes_queued_backlog_as_one_batch():
    batcher = MicroBatcher(max_batch_size=16, max_wait_seconds=0.0, queue_size=16)
    for item in range(5):
        batcher.put(item)
    # a zero deadline must not degrade a waiting backlog into singletons
    assert batcher.next_batch() == [0, 1, 2, 3, 4]


def test_batches_preserve_fifo_order_across_flushes():
    batcher = MicroBatcher(max_batch_size=3, max_wait_seconds=0.01, queue_size=16)
    for item in range(7):
        batcher.put(item)
    collected = []
    while len(collected) < 7:
        collected.extend(batcher.next_batch())
    assert collected == list(range(7))


def test_backpressure_bounded_queue():
    batcher = MicroBatcher(max_batch_size=4, max_wait_seconds=0.01, queue_size=2)
    batcher.put(1)
    batcher.put(2)
    with pytest.raises(queue.Full):
        batcher.put(3, block=False)
    with pytest.raises(queue.Full):
        batcher.put(3, timeout=0.01)
    assert batcher.queue_depth == 2
    # draining one batch frees the queue again
    assert batcher.next_batch() == [1, 2]
    batcher.put(3, block=False)


def test_blocking_put_waits_for_consumer():
    batcher = MicroBatcher(max_batch_size=1, max_wait_seconds=0.0, queue_size=1)
    batcher.put("a")
    unblocked = threading.Event()

    def producer():
        batcher.put("b")  # blocks until the consumer pops "a"
        unblocked.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not unblocked.wait(0.05)  # still blocked: queue is full
    assert batcher.next_batch() == ["a"]
    assert unblocked.wait(5.0)
    thread.join(5.0)
    assert batcher.next_batch() == ["b"]


def test_close_drains_then_returns_none():
    batcher = MicroBatcher(max_batch_size=2, max_wait_seconds=5.0, queue_size=8)
    for item in range(3):
        batcher.put(item)
    batcher.close()
    assert batcher.next_batch() == [0, 1]
    start = time.perf_counter()
    assert batcher.next_batch() == [2]  # close flush: no deadline wait
    assert time.perf_counter() - start < 2.0
    assert batcher.next_batch() is None
    assert batcher.closed


def test_put_after_close_is_rejected():
    batcher = MicroBatcher()
    batcher.close()
    with pytest.raises(ParameterError):
        batcher.put(1)


def test_drain_empties_queue_without_batching():
    batcher = MicroBatcher(queue_size=8)
    for item in range(5):
        batcher.put(item)
    assert batcher.drain() == [0, 1, 2, 3, 4]
    assert batcher.queue_depth == 0


def test_stats_track_batch_shapes():
    batcher = MicroBatcher(max_batch_size=2, max_wait_seconds=0.01, queue_size=8)
    for item in range(5):
        batcher.put(item)
    sizes = [len(batcher.next_batch()) for _ in range(3)]
    assert sorted(sizes, reverse=True) == [2, 2, 1]
    stats = batcher.stats
    assert stats["batches"] == 3
    assert stats["items"] == 5
    assert stats["max_batch_size"] == 2
    assert stats["mean_batch_size"] == pytest.approx(5 / 3)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        MicroBatcher(max_batch_size=0)
    with pytest.raises(ParameterError):
        MicroBatcher(max_wait_seconds=-0.1)
    with pytest.raises(ParameterError):
        MicroBatcher(queue_size=0)


def test_stats_expose_last_flush_reason_size_and_assembly_time():
    batcher = MicroBatcher(max_batch_size=2, max_wait_seconds=0.01, queue_size=8)
    assert batcher.stats["last_flush"] is None  # nothing flushed yet
    batcher.put("a")
    batcher.put("b")
    assert batcher.next_batch() == ["a", "b"]
    last = batcher.stats["last_flush"]
    assert last["reason"] == "size"
    assert last["batch_size"] == 2
    assert last["assembly_seconds"] >= 0.0
    batcher.put("c")
    assert batcher.next_batch() == ["c"]
    assert batcher.stats["last_flush"]["reason"] == "deadline"
    assert batcher.stats["last_flush"]["batch_size"] == 1

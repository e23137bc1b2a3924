"""Tests for the persistent disk cache (``repro.serve.DiskResultCache``)."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.base import SegmentationResult
from repro.errors import CacheError, ParameterError
from repro.serve import DiskResultCache, ResultCache, TieredResultCache, image_digest


def _value(rng, shape=(6, 7), method="test"):
    """A (SegmentationResult, binary) pair as the serving layer caches them."""
    labels = rng.integers(0, 4, size=shape).astype(np.int64)
    segmentation = SegmentationResult(
        labels=labels,
        num_segments=int(np.unique(labels).size),
        runtime_seconds=0.01,
        method=method,
        extras={"fast_path": "lut", "theta": 3.14, "nested": {"a": [1, 2]}},
    )
    return segmentation, (labels == 0).astype(np.int64)


def _key(rng, config="cfg"):
    image = (rng.random((5, 5)) * 255).astype(np.uint8)
    return (image_digest(image), config)


# --------------------------------------------------------------------------- #
# round trip + content addressing
# --------------------------------------------------------------------------- #
def test_put_get_round_trip_is_bit_identical(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    stored_seg, stored_binary = _value(rng)
    cache.put(key, (stored_seg, stored_binary))

    loaded = cache.get(key)
    assert loaded is not None
    loaded_seg, loaded_binary = loaded
    assert np.array_equal(loaded_seg.labels, stored_seg.labels)
    assert loaded_seg.labels.dtype == stored_seg.labels.dtype
    assert np.array_equal(loaded_binary, stored_binary)
    assert loaded_seg.num_segments == stored_seg.num_segments
    assert loaded_seg.method == stored_seg.method
    assert loaded_seg.extras["fast_path"] == "lut"
    assert loaded_seg.extras["nested"] == {"a": [1, 2]}


def test_non_json_extras_are_dropped_not_pickled(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    segmentation, binary = _value(rng)
    segmentation.extras["probabilities"] = np.zeros((4, 4))  # opaque diagnostic
    segmentation.extras["kept"] = "yes"
    cache.put(key, (segmentation, binary))
    loaded_seg, _ = cache.get(key)
    assert "probabilities" not in loaded_seg.extras
    assert loaded_seg.extras["kept"] == "yes"


def test_miss_and_hit_counters(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    assert cache.get(key) is None
    cache.put(key, _value(rng))
    assert cache.get(key) is not None
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
    assert stats.hit_rate == pytest.approx(0.5)
    assert stats.currsize == 1
    assert stats.current_bytes > 0


def test_entries_survive_a_new_cache_instance(tmp_path, rng):
    key = _key(rng)
    stored_seg, _ = _value(rng)
    DiskResultCache(str(tmp_path)).put(key, _value(rng))
    reopened = DiskResultCache(str(tmp_path))  # "process restart"
    loaded = reopened.get(key)
    assert loaded is not None
    assert key in reopened


def test_an_entry_in_the_6_0_0_layout_still_reads_as_a_hit(tmp_path, rng):
    # Up to 6.0.0 every entry's metadata also carried a wall-clock
    # "stored_at"; the format tag is unchanged and the field is ignored.
    import io
    import json

    labels = rng.integers(0, 4, size=(6, 7)).astype(np.int64)
    binary = (labels == 0).astype(np.uint8)
    meta = {
        "format": "repro-disk-cache/v1",
        "stored_at": 1760000000.0,
        "num_segments": int(np.unique(labels).size),
        "runtime_seconds": 0.01,
        "method": "iqft-rgb",
        "extras": {"fast_path": "palette-lut"},
    }
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        labels=labels,
        binary=binary,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    )
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    with open(cache.path_for(key), "wb") as fh:
        fh.write(buffer.getvalue())
    loaded = cache.get(key)
    assert loaded is not None
    segmentation, loaded_binary = loaded
    assert np.array_equal(segmentation.labels, labels)
    assert np.array_equal(loaded_binary, binary)
    assert segmentation.extras == {"fast_path": "palette-lut"}
    assert cache.stats.hits == 1


# --------------------------------------------------------------------------- #
# crash safety + corruption tolerance
# --------------------------------------------------------------------------- #
def test_corrupt_entry_is_a_miss_and_is_purged(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    cache.put(key, _value(rng))
    path = cache.path_for(key)
    with open(path, "wb") as fh:
        fh.write(b"not an npz at all")
    assert cache.get(key) is None
    assert not os.path.exists(path)  # purged
    assert cache.stats.errors == 1


def test_truncated_entry_is_a_miss(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    cache.put(key, _value(rng))
    path = cache.path_for(key)
    payload = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(payload[: len(payload) // 2])
    assert cache.get(key) is None


def test_orphan_tmp_files_are_cleared(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    cache.put(_key(rng), _value(rng))
    orphan = tmp_path / "entry.npz.tmp-deadbeef"  # a crash mid-write
    orphan.write_bytes(b"partial")
    cache.clear()
    assert not orphan.exists()
    assert len(cache) == 0


# --------------------------------------------------------------------------- #
# size bounds + LRU by mtime
# --------------------------------------------------------------------------- #
def test_entry_count_bound_evicts_oldest_mtime_first(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path), max_entries=2)
    keys = [_key(rng, config=f"cfg{i}") for i in range(3)]
    for index, key in enumerate(keys):
        cache.put(key, _value(rng))
        # ensure strictly increasing mtimes even on coarse filesystems
        os.utime(cache.path_for(key), (time.time() + index, time.time() + index))
    cache._enforce_bounds()
    assert keys[0] not in cache  # the oldest entry went first
    assert keys[1] in cache and keys[2] in cache
    assert cache.stats.evictions >= 1


def test_hit_refreshes_mtime_for_lru(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path), max_entries=2)
    first, second = _key(rng, "a"), _key(rng, "b")
    cache.put(first, _value(rng))
    cache.put(second, _value(rng))
    past = time.time() - 100
    os.utime(cache.path_for(first), (past, past))
    os.utime(cache.path_for(second), (past + 1, past + 1))
    assert cache.get(first) is not None  # refreshes first's mtime to "now"
    cache.put(_key(rng, "c"), _value(rng))
    assert first in cache
    assert second not in cache  # second became the oldest


def test_byte_bound_is_enforced(tmp_path, rng):
    probe = DiskResultCache(str(tmp_path / "probe"))
    probe.put(_key(rng), _value(rng))
    entry_bytes = probe.stats.current_bytes
    cache = DiskResultCache(str(tmp_path / "real"), max_bytes=2 * entry_bytes + entry_bytes // 2)
    for i in range(4):
        cache.put(_key(rng, config=f"cfg{i}"), _value(rng))
    assert cache.stats.current_bytes <= cache.max_bytes
    assert cache.stats.evictions >= 1


def test_sweep_lock_with_future_mtime_is_still_broken(tmp_path, rng):
    from repro.serve._diskcache import _DirectoryLock

    lock_path = str(tmp_path / ".repro-cache.lock")
    with open(lock_path, "w"):
        pass
    # A backwards wall-clock step makes the holder's lock look like it was
    # created in the future; the clamped age (0) never exceeds staleness,
    # so only the monotonic deadline may break it — and it must.
    future = time.time() + 1000.0
    os.utime(lock_path, (future, future))
    started = time.monotonic()
    with _DirectoryLock(lock_path, stale_seconds=0.1):
        pass
    assert time.monotonic() - started < 5.0  # broke the lock, did not wedge
    assert not os.path.exists(lock_path)


def test_eviction_sweep_tolerates_entries_vanishing_mid_scan(tmp_path, rng, monkeypatch):
    cache = DiskResultCache(str(tmp_path), max_entries=8)
    keys = [_key(rng, config=f"cfg{i}") for i in range(4)]
    for index, key in enumerate(keys):
        cache.put(key, _value(rng))
        os.utime(cache.path_for(key), (time.time() + index, time.time() + index))
    victim = cache.path_for(keys[0])
    real_stat = os.stat
    state = {"vanished": False}

    def racing_stat(path, *args, **kwargs):
        # another process evicts the oldest entry between listdir and stat
        if os.fspath(path) == victim and not state["vanished"]:
            state["vanished"] = True
            os.unlink(victim)
            raise FileNotFoundError(victim)
        return real_stat(path, *args, **kwargs)

    cache.max_entries = 2  # force the next sweep to actually evict
    monkeypatch.setattr(os, "stat", racing_stat)
    cache._enforce_bounds()  # must treat the vanished entry as gone, not crash
    monkeypatch.undo()
    assert len(cache) <= 2
    assert keys[3] in cache  # the newest entry survives the sweep


def test_eviction_sweep_counts_concurrently_evicted_bytes_as_freed(tmp_path, rng, monkeypatch):
    """An entry vanishing between the scan and its unlink is *freed* space.

    If the sweep kept the vanished entry's bytes in its running total it
    would over-evict survivors — the byte bound below is chosen so that
    exactly the two oldest entries must go, and only the byte accounting of
    the ``FileNotFoundError`` branch makes the sweep stop there.
    """
    cache = DiskResultCache(str(tmp_path), max_entries=8)
    keys = [_key(rng, config=f"cfg{i}") for i in range(4)]
    for index, key in enumerate(keys):
        # the victim (oldest) entry is strictly the largest, so a sweep that
        # fails to credit its bytes cannot satisfy the bound where the
        # correct sweep does
        shape = (24, 24) if index == 0 else (6, 7)
        cache.put(key, _value(rng, shape=shape))
        os.utime(cache.path_for(key), (time.time() + index, time.time() + index))
    sizes = [os.path.getsize(cache.path_for(key)) for key in keys]
    assert sizes[0] > max(sizes[1:])
    # removing the two oldest entries satisfies the bound; removing only the
    # oldest one does not
    cache.max_bytes = sum(sizes) - sizes[0] - 1
    victim = cache.path_for(keys[0])
    real_unlink = os.unlink
    state = {"raced": False}

    def racing_unlink(path, *args, **kwargs):
        # another process deletes the victim just before our unlink lands
        if os.fspath(path) == victim and not state["raced"]:
            state["raced"] = True
            real_unlink(path)
            raise FileNotFoundError(path)
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", racing_unlink)
    cache._enforce_bounds()
    monkeypatch.undo()
    assert state["raced"]  # the fixed branch actually ran
    assert keys[0] not in cache and keys[1] not in cache
    assert keys[2] in cache  # would be over-evicted without the accounting fix
    assert keys[3] in cache


def _worker_churn(cache_dir, seed, out_queue):
    """Overfill a tiny shared cache so concurrent sweeps race each other."""
    try:
        rng = np.random.default_rng(seed)
        cache = DiskResultCache(cache_dir, max_entries=4)
        for index in range(12):
            cache.put(_key(rng, config=f"cfg-{seed}-{index}"), _value(rng))
            cache._enforce_bounds()
        out_queue.put(("ok", seed))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        out_queue.put(("error", f"{type(exc).__name__}: {exc}"))


def test_concurrent_eviction_sweeps_do_not_crash(tmp_path, rng):
    ctx = multiprocessing.get_context("spawn")
    out_queue = ctx.Queue()
    workers = [
        ctx.Process(target=_worker_churn, args=(str(tmp_path), 200 + i, out_queue))
        for i in range(3)
    ]
    for worker in workers:
        worker.start()
    outcomes = [out_queue.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    assert all(kind == "ok" for kind, _ in outcomes), outcomes
    # a final single-process sweep settles the directory inside its bounds
    survivor = DiskResultCache(str(tmp_path), max_entries=4)
    survivor._enforce_bounds()
    assert len(survivor) <= 4


def test_parameter_validation(tmp_path):
    with pytest.raises(ParameterError):
        DiskResultCache(str(tmp_path), max_entries=0)
    with pytest.raises(ParameterError):
        DiskResultCache(str(tmp_path), max_bytes=0)
    target = tmp_path / "file"
    target.write_text("x")
    with pytest.raises(CacheError):
        DiskResultCache(str(target))


# --------------------------------------------------------------------------- #
# multi-process sharing
# --------------------------------------------------------------------------- #
def _worker_put(cache_dir, config, seed, out_queue):
    rng = np.random.default_rng(seed)
    cache = DiskResultCache(cache_dir)
    key = _key(rng, config=config)
    cache.put(key, _value(rng))
    out_queue.put(key)


def test_concurrent_processes_share_entries(tmp_path, rng):
    ctx = multiprocessing.get_context("spawn")
    out_queue = ctx.Queue()
    workers = [
        ctx.Process(target=_worker_put, args=(str(tmp_path), f"cfg{i}", 100 + i, out_queue))
        for i in range(3)
    ]
    for worker in workers:
        worker.start()
    keys = [out_queue.get(timeout=30) for _ in workers]
    for worker in workers:
        worker.join(timeout=30)
        assert worker.exitcode == 0
    reader = DiskResultCache(str(tmp_path))
    for key in keys:
        assert reader.get(tuple(key)) is not None


# --------------------------------------------------------------------------- #
# tiered composition
# --------------------------------------------------------------------------- #
def test_tiered_promotes_l2_hits_into_l1(tmp_path, rng):
    disk = DiskResultCache(str(tmp_path))
    key = _key(rng)
    disk.put(key, _value(rng))
    tiered = TieredResultCache(l1=ResultCache(max_entries=8), l2=disk)
    assert tiered.get(key) is not None  # L1 miss, L2 hit, promoted
    assert key in tiered.l1
    assert tiered.get(key) is not None  # now pure L1
    stats = tiered.stats
    assert stats.l1.hits == 1
    assert stats.l2.hits == 1
    assert stats.l1_hit_rate == pytest.approx(0.5)
    assert stats.hit_rate == pytest.approx(1.0)
    as_dict = stats.as_dict()
    assert set(as_dict) == {"l1", "l2", "l1_hit_rate", "l2_hit_rate", "hit_rate"}


def test_tiered_put_writes_through_both_tiers(tmp_path, rng):
    tiered = TieredResultCache(
        l1=ResultCache(max_entries=8), l2=DiskResultCache(str(tmp_path))
    )
    key = _key(rng)
    tiered.put(key, _value(rng))
    assert key in tiered.l1
    assert key in tiered.l2
    tiered.clear()
    assert key not in tiered


def test_tiered_rejects_non_cache_tiers(tmp_path):
    with pytest.raises(ParameterError):
        TieredResultCache(l1="nope", l2=DiskResultCache(str(tmp_path)))


# --------------------------------------------------------------------------- #
# eviction + corruption telemetry
# --------------------------------------------------------------------------- #
def test_eviction_counters_track_entries_and_bytes(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path), max_entries=2)
    keys = [_key(rng, config=f"c{i}") for i in range(4)]
    for key in keys:
        cache.put(key, _value(rng))
        time.sleep(0.01)  # distinct mtimes for deterministic LRU order
    stats = cache.stats
    assert stats.evictions == 2
    assert stats.evicted_bytes > 0
    assert stats.currsize <= 2
    # evicted bytes + surviving bytes account for everything ever stored
    assert stats.evicted_bytes + stats.current_bytes > 0
    assert stats.as_dict()["evicted_bytes"] == stats.evicted_bytes


def test_corrupt_dropped_counter_is_separate_from_io_errors(tmp_path, rng):
    cache = DiskResultCache(str(tmp_path))
    key = _key(rng)
    cache.put(key, _value(rng))
    with open(cache.path_for(key), "wb") as fh:
        fh.write(b"garbage, not an npz")
    assert cache.get(key) is None
    stats = cache.stats
    assert stats.corrupt_dropped == 1
    assert stats.errors == 1  # corruption also counts as an error
    assert not os.path.exists(cache.path_for(key))  # purged


def test_sweep_counters_survive_a_failing_lock_release(tmp_path, rng, monkeypatch):
    """Counters are committed even when the sweep aborts on the lock path."""
    from repro.serve import _diskcache as diskcache_module

    cache = DiskResultCache(str(tmp_path), max_entries=1)
    first = _key(rng, config="a")
    cache.put(first, _value(rng))
    time.sleep(0.01)

    original_exit = diskcache_module._DirectoryLock.__exit__

    def failing_exit(self, exc_type, exc, tb):
        original_exit(self, exc_type, exc, tb)
        raise OSError("lock file vanished under us")

    monkeypatch.setattr(diskcache_module._DirectoryLock, "__exit__", failing_exit)
    with pytest.raises(OSError):
        cache.put(_key(rng, config="b"), _value(rng))
    monkeypatch.setattr(diskcache_module._DirectoryLock, "__exit__", original_exit)
    stats = cache.stats
    assert stats.evictions == 1  # the eviction that happened is recorded
    assert stats.evicted_bytes > 0


def test_tiered_cache_surfaces_disk_telemetry(tmp_path, rng):
    tiered = TieredResultCache(
        l1=ResultCache(max_entries=8), l2=DiskResultCache(str(tmp_path), max_entries=1)
    )
    for i in range(3):
        tiered.put(_key(rng, config=f"c{i}"), _value(rng))
        time.sleep(0.01)
    doc = tiered.stats.as_dict()
    assert doc["l2"]["evictions"] >= 1
    assert doc["l2"]["evicted_bytes"] > 0
    assert "corrupt_dropped" in doc["l2"]


def test_service_metrics_surface_disk_eviction_telemetry(tmp_path, rng):
    """The new counters ride TieredResultCache into service.metrics()."""
    import asyncio

    from repro import BatchSegmentationEngine, IQFTSegmenter
    from repro.serve import AsyncSegmentationService

    tiered = TieredResultCache(
        l1=ResultCache(max_entries=4), l2=DiskResultCache(str(tmp_path))
    )
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    image = (rng.random((8, 8, 3)) * 255).astype(np.uint8)

    async def scenario():
        async with AsyncSegmentationService(engine, cache=tiered) as service:
            await service.submit(image)
            return service.metrics()

    l2 = asyncio.run(scenario())["cache"]["l2"]
    for key in ("evictions", "evicted_bytes", "corrupt_dropped"):
        assert key in l2, key
    assert l2["stores"] == 1


# --------------------------------------------------------------------------- #
# lock pacing + footprint drift
# --------------------------------------------------------------------------- #
def test_lock_with_failing_stat_paces_and_eventually_breaks(tmp_path, monkeypatch):
    """A lock whose mtime cannot be read must not degenerate into a hot spin.

    The OSError branch used to retry immediately with no sleep and no
    deadline check: a contended lock burned a core, and a permanently
    failing ``stat`` spun forever.  It now paces itself like the fresh-lock
    path and breaks the lock once the monotonic deadline passes.
    """
    from repro.serve import _diskcache as dc

    lock_path = str(tmp_path / ".repro-cache.lock")
    fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)  # "held"
    os.close(fd)

    calls = {"stat": 0}

    def failing_getmtime(path):
        calls["stat"] += 1
        raise OSError("stat backend gone")

    monkeypatch.setattr(dc.os.path, "getmtime", failing_getmtime)

    lock = dc._DirectoryLock(lock_path, stale_seconds=0.25)
    start = time.monotonic()
    with lock:
        assert lock._held
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    # ~0.01 s pacing over a 0.25 s deadline is ~25 attempts; a hot spin
    # would rack up millions.
    assert calls["stat"] < 500


def _worker_unlink_entries(cache_dir, out_queue):
    """Delete every entry file, the way a sibling's eviction sweep would."""
    try:
        removed = 0
        for name in os.listdir(cache_dir):
            if name.endswith(".npz"):
                os.unlink(os.path.join(cache_dir, name))
                removed += 1
        out_queue.put(("ok", removed))
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        out_queue.put(("error", f"{type(exc).__name__}: {exc}"))


def test_vanished_entries_resync_approximate_footprint(tmp_path, rng):
    """A read-mostly process must notice siblings emptying the directory.

    The approximate counters previously only resynced on *puts*; a worker
    that mostly reads would keep a stale over-estimate forever after another
    process evicted its entries, and keep triggering sweeps.  Observing
    enough lookups hit ``FileNotFoundError`` now forces a full rescan.
    """
    from repro.serve._diskcache import _VANISH_RESYNC_OBSERVATIONS

    cache = DiskResultCache(str(tmp_path))
    keys = [_key(rng, config=f"cfg-{i}") for i in range(4)]
    for key in keys:
        cache.put(key, _value(rng))
    assert cache._approx_entries == 4
    assert cache._approx_bytes > 0

    ctx = multiprocessing.get_context("spawn")
    out_queue = ctx.Queue()
    worker = ctx.Process(target=_worker_unlink_entries, args=(str(tmp_path), out_queue))
    worker.start()
    kind, detail = out_queue.get(timeout=60)
    worker.join(timeout=60)
    assert worker.exitcode == 0
    assert kind == "ok", detail
    assert detail == 4

    # No put happens here — only misses on vanished entries.
    for index in range(_VANISH_RESYNC_OBSERVATIONS):
        assert cache.get(keys[index % len(keys)]) is None

    assert cache._approx_entries == 0
    assert cache._approx_bytes == 0

"""Tests for the shared-memory L1.5 cache tier (``repro.serve.SharedMemoryResultCache``)."""

import multiprocessing
import os
import struct

import numpy as np
import pytest

from repro.base import SegmentationResult
from repro.errors import CacheError, ParameterError
from repro.serve import ResultCache, TieredResultCache, WorkerSpec, image_digest
from repro.serve._shmcache import (
    _HEADER,
    _HEADER_SIZE,
    _SUPER_SIZE,
    SharedMemoryResultCache,
    _key_digest,
)


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


@pytest.fixture
def shm_cache():
    cache = SharedMemoryResultCache.create(8 * 1024 * 1024, slot_bytes=256 * 1024)
    yield cache
    cache.close()


def _slot_base(cache, key):
    return _SUPER_SIZE + (
        int.from_bytes(_key_digest(key)[:8], "little") % cache.slot_count
    ) * cache.slot_bytes


# --------------------------------------------------------------------------- #
# round trip + counters
# --------------------------------------------------------------------------- #
def test_put_get_round_trip_is_bit_identical(shm_cache, rng):
    key = _key(rng)
    stored_seg, stored_binary = _value(rng)
    shm_cache.put(key, (stored_seg, stored_binary))

    loaded = shm_cache.get(key)
    assert loaded is not None
    loaded_seg, loaded_binary = loaded
    assert np.array_equal(loaded_seg.labels, stored_seg.labels)
    assert loaded_seg.labels.dtype == stored_seg.labels.dtype
    assert np.array_equal(loaded_binary, stored_binary)
    assert loaded_binary.dtype == stored_binary.dtype
    assert loaded_seg.num_segments == stored_seg.num_segments
    assert loaded_seg.method == stored_seg.method
    assert loaded_seg.extras["fast_path"] == "lut"
    assert loaded_seg.extras["nested"] == {"a": [1, 2]}


def test_non_json_extras_are_dropped_not_pickled(shm_cache, rng):
    key = _key(rng)
    segmentation, binary = _value(rng)
    segmentation.extras["probabilities"] = np.zeros((4, 4))  # opaque diagnostic
    segmentation.extras["kept"] = "yes"
    shm_cache.put(key, (segmentation, binary))

    loaded_seg, _ = shm_cache.get(key)
    assert "probabilities" not in loaded_seg.extras
    assert loaded_seg.extras["kept"] == "yes"


def test_miss_and_hit_counters(shm_cache, rng):
    key = _key(rng)
    assert shm_cache.get(key) is None
    shm_cache.put(key, _value(rng))
    assert shm_cache.get(key) is not None
    stats = shm_cache.stats
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.stores == 1
    assert stats.currsize == 1
    assert stats.hit_rate == 0.5
    assert key in shm_cache
    assert len(shm_cache) == 1


def test_stats_as_dict_is_json_friendly(shm_cache):
    import json

    doc = shm_cache.stats.as_dict()
    json.dumps(doc)
    for field in (
        "hits",
        "misses",
        "stores",
        "store_skips",
        "evictions",
        "torn_reads",
        "errors",
        "currsize",
        "slot_count",
        "slot_bytes",
        "size_bytes",
        "hit_rate",
    ):
        assert field in doc


# --------------------------------------------------------------------------- #
# geometry: direct mapping, oversize skips, eviction on collision
# --------------------------------------------------------------------------- #
def test_oversize_value_is_skipped_not_stored(rng):
    cache = SharedMemoryResultCache.create(2 * 64 * 1024, slot_bytes=64 * 1024)
    try:
        key = _key(rng)
        cache.put(key, _value(rng, shape=(128, 128)))  # 128*128*8*2 bytes >> slot
        assert cache.get(key) is None
        assert cache.stats.store_skips == 1
        assert cache.stats.stores == 0
    finally:
        cache.close()


def test_single_slot_collision_overwrites_and_counts_eviction(rng):
    cache = SharedMemoryResultCache.create(_SUPER_SIZE + 256 * 1024, slot_bytes=256 * 1024)
    try:
        assert cache.slot_count == 1
        key_a, key_b = _key(rng, config="a"), _key(rng, config="b")
        value_a, value_b = _value(rng), _value(rng)
        cache.put(key_a, value_a)
        cache.put(key_b, value_b)  # direct-mapped: must land on the same slot
        assert cache.get(key_a) is None
        loaded = cache.get(key_b)
        assert loaded is not None
        assert np.array_equal(loaded[0].labels, value_b[0].labels)
        assert cache.stats.evictions == 1
        assert len(cache) == 1
    finally:
        cache.close()


def test_same_key_overwrite_is_not_an_eviction(shm_cache, rng):
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    shm_cache.put(key, _value(rng))
    assert shm_cache.stats.evictions == 0
    assert shm_cache.stats.stores == 2


def test_clear_empties_every_slot(shm_cache, rng):
    keys = [_key(rng, config=f"cfg-{i}") for i in range(4)]
    for key in keys:
        shm_cache.put(key, _value(rng))
    shm_cache.clear()
    assert len(shm_cache) == 0
    for key in keys:
        assert shm_cache.get(key) is None


# --------------------------------------------------------------------------- #
# torn writes and corruption degrade to misses
# --------------------------------------------------------------------------- #
def test_odd_generation_reads_as_torn_miss(shm_cache, rng):
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    base = _slot_base(shm_cache, key)
    gen, digest, length, crc = _HEADER.unpack_from(shm_cache._shm.buf, base)
    _HEADER.pack_into(shm_cache._shm.buf, base, gen + 1, digest, length, crc)

    assert shm_cache.get(key) is None
    assert shm_cache.stats.torn_reads == 1
    assert shm_cache.stats.misses == 1


def test_corrupt_payload_fails_crc_and_reads_as_torn_miss(shm_cache, rng):
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    base = _slot_base(shm_cache, key)
    # Flip one payload byte beneath a stable even generation — the shape of a
    # writer-writer interleave, which only the CRC can catch.
    offset = base + _HEADER_SIZE + 10
    shm_cache._shm.buf[offset] ^= 0xFF

    assert shm_cache.get(key) is None
    assert shm_cache.stats.torn_reads == 1


def test_bogus_payload_length_reads_as_torn_miss(shm_cache, rng):
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    base = _slot_base(shm_cache, key)
    gen, digest, _, crc = _HEADER.unpack_from(shm_cache._shm.buf, base)
    huge = shm_cache.slot_bytes  # > slot_bytes - header: cannot be valid
    _HEADER.pack_into(shm_cache._shm.buf, base, gen, digest, huge, crc)

    assert shm_cache.get(key) is None
    assert shm_cache.stats.torn_reads == 1


def test_undecodable_payload_counts_an_error(shm_cache, rng):
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    base = _slot_base(shm_cache, key)
    # A self-consistent (CRC-correct) but garbage payload: valid per the
    # seqlock, undecodable as an entry.
    import zlib

    garbage = b"\xff" * 32
    shm_cache._shm.buf[base + _HEADER_SIZE : base + _HEADER_SIZE + len(garbage)] = garbage
    gen, digest, _, _ = _HEADER.unpack_from(shm_cache._shm.buf, base)
    _HEADER.pack_into(shm_cache._shm.buf, base, gen, digest, len(garbage), zlib.crc32(garbage))

    assert shm_cache.get(key) is None
    assert shm_cache.stats.errors == 1


# --------------------------------------------------------------------------- #
# lifecycle: create/attach/close/unlink
# --------------------------------------------------------------------------- #
def test_create_validates_geometry():
    with pytest.raises(ParameterError):
        SharedMemoryResultCache.create(1024 * 1024, slot_bytes=8)
    with pytest.raises(CacheError):
        SharedMemoryResultCache.create(1024, slot_bytes=64 * 1024)


def test_attach_missing_segment_raises_cache_error():
    with pytest.raises(CacheError):
        SharedMemoryResultCache.attach("repro-shm-test-does-not-exist")


def test_attach_rejects_alien_superblock(shm_cache):
    # Stomp the magic: an attacher must refuse rather than misread geometry.
    struct.pack_into("<8s", shm_cache._shm.buf, 0, b"NOTOURS\x00")
    with pytest.raises(CacheError):
        SharedMemoryResultCache.attach(shm_cache.name)


def test_attach_refuses_a_segment_in_the_6_0_0_slot_layout(shm_cache):
    # Superblock version 1 (up to 6.0.0) kept a store timestamp in each slot
    # header; a version-2 reader must refuse such a segment, not misread it.
    struct.pack_into("<I", shm_cache._shm.buf, 8, 1)
    with pytest.raises(CacheError):
        SharedMemoryResultCache.attach(shm_cache.name)


def test_owner_close_unlinks_segment(rng):
    cache = SharedMemoryResultCache.create(1024 * 1024, slot_bytes=128 * 1024)
    name = cache.name
    cache.close()
    assert cache.closed
    cache.close()  # idempotent
    with pytest.raises(CacheError):
        SharedMemoryResultCache.attach(name)
    assert not os.path.exists(f"/dev/shm/{name}")


def test_attacher_close_leaves_segment_linked(shm_cache, rng):
    reader = SharedMemoryResultCache.attach(shm_cache.name)
    reader.close()
    # The owner's mapping still works and a fresh attach still succeeds.
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    again = SharedMemoryResultCache.attach(shm_cache.name)
    try:
        assert again.get(key) is not None
    finally:
        again.close()


def test_closed_cache_misses_and_refuses_stores(shm_cache, rng):
    key = _key(rng)
    shm_cache.put(key, _value(rng))
    shm_cache.close()
    assert shm_cache.get(key) is None
    assert key not in shm_cache
    assert len(shm_cache) == 0
    shm_cache.put(key, _value(rng))  # must not raise
    assert shm_cache.stats.errors == 1


# --------------------------------------------------------------------------- #
# cross-process visibility
# --------------------------------------------------------------------------- #
def _worker_attach_roundtrip(name, seed, out_queue):
    """Attach to the parent's segment, read its entry, publish one of ours."""
    try:
        rng = np.random.default_rng(seed)
        cache = SharedMemoryResultCache.attach(name)
        try:
            parent_key = _key(np.random.default_rng(seed - 1), config="parent")
            loaded = cache.get(parent_key)
            if loaded is None:
                out_queue.put(("error", "parent entry not visible in child"))
                return
            child_key = _key(rng, config="child")
            cache.put(child_key, _value(rng, method="child"))
            out_queue.put(("ok", child_key))
        finally:
            cache.close()
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        out_queue.put(("error", f"{type(exc).__name__}: {exc}"))


def test_entries_are_visible_across_processes(rng):
    seed = 4242
    cache = SharedMemoryResultCache.create(8 * 1024 * 1024, slot_bytes=256 * 1024)
    try:
        parent_key = _key(np.random.default_rng(seed - 1), config="parent")
        cache.put(parent_key, _value(rng, method="parent"))

        ctx = multiprocessing.get_context("spawn")
        out_queue = ctx.Queue()
        worker = ctx.Process(target=_worker_attach_roundtrip, args=(cache.name, seed, out_queue))
        worker.start()
        kind, detail = out_queue.get(timeout=60)
        worker.join(timeout=60)
        assert worker.exitcode == 0
        assert kind == "ok", detail

        # The child's entry (and the child's exit) must not disturb the
        # parent's mapping: the resource tracker workaround under test.
        child_loaded = cache.get(tuple(detail))
        assert child_loaded is not None
        assert child_loaded[0].method == "child"
        assert cache.get(parent_key) is not None
    finally:
        cache.close()


# --------------------------------------------------------------------------- #
# tiered composition + worker spec fallback
# --------------------------------------------------------------------------- #
def test_tiered_promotes_shm_hits_into_l1(shm_cache, rng):
    l1 = ResultCache(max_entries=8)
    from repro.serve import DiskResultCache
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        disk = DiskResultCache(tmp)
        tiered = TieredResultCache(l1=l1, l2=disk, shm=shm_cache)
        key = _key(rng)
        shm_cache.put(key, _value(rng))
        assert key not in l1

        assert tiered.get(key) is not None
        assert key in l1
        assert tiered.stats.shm.hits == 1
        assert tiered.stats.shm_hit_rate == 1.0
        assert "shm" in tiered.stats.as_dict()


def test_tiered_promotes_disk_hits_into_shm(shm_cache, rng, tmp_path):
    l1 = ResultCache(max_entries=8)
    from repro.serve import DiskResultCache

    disk = DiskResultCache(str(tmp_path))
    tiered = TieredResultCache(l1=l1, l2=disk, shm=shm_cache)
    key = _key(rng)
    disk.put(key, _value(rng))

    assert tiered.get(key) is not None
    assert key in shm_cache  # promoted for the fleet's other workers
    assert key in l1


def test_tiered_put_writes_through_all_three_tiers(shm_cache, rng, tmp_path):
    from repro.serve import DiskResultCache

    l1 = ResultCache(max_entries=8)
    disk = DiskResultCache(str(tmp_path))
    tiered = TieredResultCache(l1=l1, l2=disk, shm=shm_cache)
    key = _key(rng)
    tiered.put(key, _value(rng))
    assert key in l1
    assert key in shm_cache
    assert disk.get(key) is not None


def test_worker_spec_with_dead_shm_name_degrades_to_disk(tmp_path):
    spec = WorkerSpec(cache_dir=str(tmp_path), shm_name="repro-shm-long-gone")
    cache = spec.build_cache()
    assert isinstance(cache, TieredResultCache)
    assert cache.shm is None  # degraded, not broken


def test_worker_spec_without_disk_uses_shm_as_l2(rng):
    segment = SharedMemoryResultCache.create(4 * 1024 * 1024, slot_bytes=256 * 1024)
    try:
        spec = WorkerSpec(cache_dir=None, shm_name=segment.name)
        cache = spec.build_cache()
        assert isinstance(cache, TieredResultCache)
        key = _key(rng)
        segment.put(key, _value(rng))
        assert cache.get(key) is not None
        cache.close()
        # Closing a worker's attached tier must not unlink the supervisor's
        # segment.
        probe = SharedMemoryResultCache.attach(segment.name)
        probe.close()
    finally:
        segment.close()

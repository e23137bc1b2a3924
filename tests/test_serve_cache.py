"""Tests for the content-addressed result cache (``repro.serve.ResultCache``)."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.serve import ResultCache, config_digest, image_digest


# --------------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------------- #
def test_image_digest_is_content_addressed(rng):
    image = (rng.random((8, 9, 3)) * 255).astype(np.uint8)
    assert image_digest(image) == image_digest(image.copy())
    changed = image.copy()
    changed[0, 0, 0] ^= 1
    assert image_digest(image) != image_digest(changed)


def test_image_digest_distinguishes_dtype_and_shape():
    a = np.zeros((4, 4), dtype=np.uint8)
    assert image_digest(a) != image_digest(a.astype(np.int64))
    assert image_digest(a) != image_digest(a.reshape(2, 8))


def test_image_digest_handles_non_contiguous_views(rng):
    image = (rng.random((8, 8)) * 255).astype(np.uint8)
    view = image[::2, ::2]
    assert image_digest(view) == image_digest(np.ascontiguousarray(view))


def test_config_digest_is_order_insensitive():
    assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})
    assert config_digest({"a": 1}) != config_digest({"a": 2})


# --------------------------------------------------------------------------- #
# LRU behaviour
# --------------------------------------------------------------------------- #
def test_cache_hit_and_miss_counters():
    cache = ResultCache(max_entries=4)
    key = ("img", "cfg")
    assert cache.get(key) is None
    cache.put(key, "value")
    assert cache.get(key) == "value"
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.currsize) == (1, 1, 1)
    assert stats.hit_rate == pytest.approx(0.5)


def test_cache_evicts_least_recently_used():
    cache = ResultCache(max_entries=2)
    cache.put(("a", "c"), 1)
    cache.put(("b", "c"), 2)
    assert cache.get(("a", "c")) == 1  # refresh "a": now "b" is LRU
    cache.put(("c", "c"), 3)
    assert ("b", "c") not in cache
    assert cache.get(("a", "c")) == 1
    assert cache.get(("c", "c")) == 3
    assert cache.stats.evictions == 1


def test_cache_key_for_binds_image_and_config(rng):
    cache = ResultCache()
    image = (rng.random((6, 6)) * 255).astype(np.uint8)
    assert cache.key_for(image, "cfg1") != cache.key_for(image, "cfg2")
    assert cache.key_for(image, "cfg1") == cache.key_for(image.copy(), "cfg1")


def test_cache_clear_preserves_counters():
    cache = ResultCache()
    cache.put(("a", "c"), 1)
    cache.get(("a", "c"))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1


def test_cache_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        ResultCache(max_entries=0)

"""Content-addressed result cache: an LRU keyed by image digest + config.

The IQFT segmenters are pure functions of ``(image, θ, config)``, which makes
their output perfectly cacheable: two byte-identical images under the same
engine configuration always segment identically.  :class:`ResultCache`
exploits that with a content-addressed store — keys are
``(blake2b(image bytes), blake2b(engine config))`` — so the serving layer can
answer repeated inputs without recomputation, regardless of which request or
file they arrived through.

The cache is a plain thread-safe, size-bounded LRU.  Values are
whatever the caller stores (the service stores the per-image
:class:`~repro.base.SegmentationResult`, *not* the scored
:class:`~repro.core.pipeline.PipelineResult`, so one cached segmentation
serves requests with different ground-truth masks).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..base import SegmentationResult
from ..errors import ParameterError

__all__ = [
    "ResultCache",
    "TieredResultCache",
    "TileCacheAdapter",
    "image_digest",
    "config_digest",
    "engine_fingerprint",
    "tile_key",
    "value_nbytes",
    "TILE_KEY_PREFIX",
]

CacheKey = Tuple[str, str]

#: Namespace prefix distinguishing per-tile entries from whole-image ones in
#: the shared key space (see :func:`tile_key`).
TILE_KEY_PREFIX = "tile-"


def image_digest(image: np.ndarray) -> str:
    """A content digest of an array: dtype + shape + raw bytes (blake2b-128).

    Two arrays receive equal digests iff they are byte-identical in the same
    dtype and shape — exactly the condition under which a pointwise segmenter
    is guaranteed to produce identical output.
    """
    arr = np.ascontiguousarray(image)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(arr.dtype).encode("ascii"))
    hasher.update(str(arr.shape).encode("ascii"))
    hasher.update(arr.data if arr.size else b"")
    return hasher.hexdigest()


def config_digest(config: Mapping[str, Any]) -> str:
    """A digest of a JSON-friendly configuration mapping (order-insensitive)."""
    payload = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _fingerprint_value(value: Any, depth: int = 0) -> Any:
    """Reduce arbitrary segmenter state to a stable, JSON-friendly form.

    Primitives pass through; sequences recurse; objects with a ``__dict__``
    (parameter holders like ``NoiseModel``) are expanded one-and-a-half
    levels deep so that their numeric fields enter the digest.  Anything
    deeper or opaque (classifier matrices, random generators) collapses to
    its type name — such state either doesn't affect labels or (generators)
    makes the output uncacheable anyway.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_fingerprint_value(item, depth + 1) for item in value]
    if depth < 2:
        try:
            state = vars(value)
        except TypeError:
            state = None
        if state is not None:
            expanded: Dict[str, Any] = {"__class__": type(value).__qualname__}
            for attr, item in sorted(state.items()):
                expanded[attr] = _fingerprint_value(item, depth + 1)
            return expanded
    return f"<{type(value).__qualname__}>"


def engine_fingerprint(engine: Any) -> Dict[str, Any]:
    """Everything that can change the labels a batch engine produces.

    ``engine.describe()`` is display-oriented and only names the segmenter,
    so two engines wrapping differently-parameterized segmenters (different
    θ, normalization, noise models, ...) would collide.  The fingerprint
    therefore also walks the segmenter's own attributes via
    :func:`_fingerprint_value` — for the library's segmenters that covers
    thetas/theta, normalize, max_value, multiband, shot counts and the
    fields of an attached noise model.  :func:`config_digest` of it is the
    second half of every cache key.
    """
    fingerprint = dict(engine.describe())
    segmenter = engine.segmenter
    fingerprint["segmenter_class"] = type(segmenter).__qualname__
    fingerprint["segmenter_params"] = {
        attr: _fingerprint_value(value, depth=1)
        for attr, value in sorted(vars(segmenter).items())
    }
    return fingerprint


def tile_key(tile_digest: str, config: str) -> CacheKey:
    """The cache key of one delta tile's label block.

    **Per-tile key format.**  Whole-image entries use
    ``(image_digest(image), config_digest)``; per-tile entries share the same
    two-part key space but prefix the content digest:
    ``("tile-" + tile_digest(block), config_digest)``, where ``tile_digest``
    is :func:`repro.parallel.tiling.tile_digest` — the same
    dtype + shape + raw-bytes blake2b-128 construction as
    :func:`image_digest`, applied to the prepared tile block.  The prefix
    keeps the two populations from colliding (a 64×64 tile and a 64×64 image
    with equal bytes segment identically, but their cached payload shapes
    differ), and because the disk tier renders keys as
    ``{config_part}-{image_part}.npz`` the prefix is path-safe.
    """
    return (TILE_KEY_PREFIX + tile_digest, config)


class TileCacheAdapter:
    """Adapts a whole-image result cache into the delta engine's tile hook.

    :class:`~repro.engine.delta.DeltaStreamEngine` wants a minimal
    ``get(digest) -> labels | None`` / ``put(digest, labels)`` store.  This
    adapter maps those onto any serve-side cache speaking the
    ``get(key)``/``put(key, value)`` protocol (:class:`ResultCache`,
    :class:`TieredResultCache`, the shm tier, ...), namespacing entries with
    :func:`tile_key` and wrapping each label block as a
    ``(SegmentationResult, binary)`` pair — the exact value shape every tier
    (and both disk/shm serializers) already round-trips, so per-tile entries
    ride the existing mem/shm/disk plumbing with zero serializer changes.
    """

    def __init__(self, cache: Any, config: str):
        if not (callable(getattr(cache, "get", None)) and callable(getattr(cache, "put", None))):
            raise ParameterError("cache must provide get(key) and put(key, value)")
        self.cache = cache
        self.config = str(config)

    def get(self, tile_digest: str) -> Optional[np.ndarray]:
        """The cached label block for a tile digest, or ``None``."""
        value = self.cache.get(tile_key(tile_digest, self.config))
        if value is None:
            return None
        result = value[0] if isinstance(value, (tuple, list)) else value
        labels = getattr(result, "labels", None)
        if not isinstance(labels, np.ndarray):
            return None
        return labels

    def put(self, tile_digest: str, labels: np.ndarray) -> None:
        """Publish one tile's label block to every cache tier."""
        result = SegmentationResult(
            labels=np.asarray(labels),
            num_segments=0,
            runtime_seconds=0.0,
            method="delta-tile",
            extras={"fast_path": "delta-tile"},
        )
        # The placeholder binary keeps the stored value shape identical to
        # whole-image entries so the shm/disk serializers apply unchanged.
        self.cache.put(tile_key(tile_digest, self.config), (result, np.zeros((1, 1), dtype=bool)))


def value_nbytes(value: Any) -> int:
    """Approximate payload size of a cached value (array bytes only).

    Cached values are :class:`~repro.base.SegmentationResult`-like objects,
    bare arrays, or tuples of either; anything unrecognized counts zero
    rather than guessing.  Used to annotate cache-hit trace spans with the
    bytes a hit avoided recomputing/transferring.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(value_nbytes(item) for item in value)
    labels = getattr(value, "labels", None)
    if isinstance(labels, np.ndarray):
        return int(labels.nbytes)
    return 0


def _probe_tier(tier: Any, name: str, key: CacheKey, trace: Any) -> Optional[Any]:
    """``tier.get(key)``; with a ``trace``, also a ``name`` span under ``cache.probe``.

    The span carries hit-or-miss and the payload bytes a hit returned.
    """
    if trace is None:
        return tier.get(key)
    start = trace.clock()
    value = tier.get(key)
    trace.add(
        name,
        start,
        trace.clock(),
        parent="cache.probe",
        hit=value is not None,
        bytes=value_nbytes(value) if value is not None else 0,
    )
    return value


class ResultCache:
    """Thread-safe LRU cache addressed by content digests.

    Parameters
    ----------
    max_entries:
        Capacity; the least-recently-used entry is evicted on overflow.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ParameterError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    #: The serve layer passes ``get(key, trace=...)`` when this is set.
    supports_trace = True

    def key_for(self, image: np.ndarray, config: str) -> CacheKey:
        """Build the cache key for ``image`` under a config digest."""
        return (image_digest(image), config)

    def get(self, key: CacheKey, trace: Any = None) -> Optional[Any]:
        """The cached value, or ``None`` on miss (which counts a miss)."""
        if trace is not None:
            return _probe_tier(self, "cache.memory", key, trace)
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU entry on overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the raw counters (rates: ``repro.obs.schema``)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "currsize": len(self._entries),
                "max_entries": self.max_entries,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache(max_entries={self.max_entries}, size={len(self)})"


class TieredResultCache:
    """L1 (in-memory) over L2 (persistent) behind the one-cache protocol.

    ``get`` tries the fast in-memory tier first, then the L2; an L2 hit is
    *promoted* into L1 so the working set re-warms after a restart.  ``put``
    writes through to both tiers, so a value computed by any worker process
    becomes visible to every process sharing the L2 directory.

    An optional **shm** middle tier (the L1.5 of a same-host fleet, a
    :class:`~repro.serve.SharedMemoryResultCache`) slots between
    them: probed after an L1 miss, promoted into on an L2 hit, and written
    through on every put — so one worker's computation becomes another
    worker's single-memcpy hit without touching the disk.

    The tiers stay plain ``get``/``put`` objects — an L1
    :class:`ResultCache` and an L2
    :class:`~repro.serve.DiskResultCache` in production, anything
    duck-compatible in tests.
    """

    def __init__(self, l1: Any, l2: Any, shm: Any = None):
        for tier, name in ((l1, "l1"), (l2, "l2"), (shm, "shm")):
            if tier is None and name == "shm":
                continue
            if not (callable(getattr(tier, "get", None)) and callable(getattr(tier, "put", None))):
                raise ParameterError(f"{name} must provide get(key) and put(key, value)")
        self.l1 = l1
        self.l2 = l2
        self.shm = shm

    #: The serve layer passes ``get(key, trace=...)`` when this is set.
    supports_trace = True

    def get(self, key: CacheKey, trace: Any = None) -> Optional[Any]:
        """L1 value, else shm, else the L2 value (promoted upward), else ``None``.

        With a ``trace``, each tier probed gets its own span
        (``cache.l1`` / ``cache.shm`` / ``cache.l2``, nested under the
        service's ``cache.probe`` span) annotated with hit-or-miss and the
        payload bytes a hit returned.
        """
        value = self.get_l1(key, trace)
        if value is not None:
            return value
        return self.get_below_l1(key, trace)

    def get_l1(self, key: CacheKey, trace: Any = None) -> Optional[Any]:
        """The L1 half of :meth:`get`: probe the in-memory tier only."""
        return _probe_tier(self.l1, "cache.l1", key, trace)

    def get_below_l1(self, key: CacheKey, trace: Any = None) -> Optional[Any]:
        """The rest of :meth:`get` after an L1 miss: shm, then L2, promoting a hit.

        The async service probes L1 on its event loop and runs only this
        half (file and shared-memory I/O) on an executor thread, so each
        tier is probed once per lookup.
        """
        if self.shm is not None:
            value = _probe_tier(self.shm, "cache.shm", key, trace)
            if value is not None:
                self.l1.put(key, value)
                return value
        value = _probe_tier(self.l2, "cache.l2", key, trace)
        if value is not None:
            if self.shm is not None:
                self.shm.put(key, value)
            self.l1.put(key, value)
        return value

    def put(self, key: CacheKey, value: Any) -> None:
        """Write-through: publish to every tier."""
        self.l1.put(key, value)
        if self.shm is not None:
            self.shm.put(key, value)
        self.l2.put(key, value)

    def clear(self) -> None:
        """Drop every entry in every tier."""
        self.l1.clear()
        if self.shm is not None:
            self.shm.clear()
        self.l2.clear()

    def close(self) -> None:
        """Release tiers that hold OS resources (e.g. an shm mapping)."""
        for tier in (self.l1, self.shm, self.l2):
            closer = getattr(tier, "close", None)
            if callable(closer):
                closer()

    def __contains__(self, key: CacheKey) -> bool:
        if key in self.l1 or key in self.l2:
            return True
        return self.shm is not None and key in self.shm

    @property
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Each tier's raw counters by tier name; the roll-ups are derived leaves."""
        tiers = {"l1": self.l1.stats}
        if self.shm is not None:
            tiers["shm"] = self.shm.stats
        tiers["l2"] = self.l2.stats
        return tiers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TieredResultCache(l1={self.l1!r}, shm={self.shm!r}, l2={self.l2!r})"

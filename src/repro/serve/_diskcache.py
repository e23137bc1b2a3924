"""Persistent content-addressed result cache: the on-disk L2 tier.

The in-memory :class:`~repro.serve.ResultCache` dies with its process,
which wastes the one property that makes segmentation results cacheable at
all — they are pure functions of ``(image bytes, engine config)``.
:class:`DiskResultCache` keeps the same content-addressed keys
(``blake2b(image)`` + config digest) but stores each entry as one file under a
cache directory, so

* warm results **survive process restarts** (a redeployed service answers its
  working set from disk instead of recomputing it), and
* results are **shared across worker processes** pointed at the same
  directory (``repro-segment serve --jobs N --cache-dir ...``).

Design constraints and how they are met:

* **crash safety** — an entry is written to a temporary file in the cache
  directory and published with :func:`os.replace` (atomic on POSIX and
  Windows).  A reader never observes a half-written entry; a crash mid-write
  leaves only a ``*.tmp-*`` orphan, which eviction sweeps remove.
* **concurrent processes** — reads need no coordination (atomic publish);
  mutations that scan-and-delete (eviction, :meth:`clear`) serialize on a
  best-effort lock file (``O_CREAT | O_EXCL`` with a staleness timeout, so a
  crashed holder cannot wedge the cache forever).  Losing a race simply means
  a ``FileNotFoundError`` on an entry another process already removed, which
  every path tolerates.
* **size bound** — both an entry-count and a byte bound; the oldest entries
  by mtime are evicted first.  A hit refreshes the entry's mtime, making the
  policy LRU across *all* processes sharing the directory, not just this one.
* **corruption tolerance** — an unreadable or truncated entry is treated as a
  miss, deleted, and counted in ``stats.errors`` instead of raising.

Entries hold exactly what the serving layer caches in memory: the raw
:class:`~repro.base.SegmentationResult` plus the annotation-free binary mask,
serialized as an ``.npz`` (labels + binary arrays + a JSON metadata blob).
Only JSON-friendly ``extras`` survive the round-trip; opaque diagnostics are
dropped rather than pickled, keeping the on-disk format safe to load.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..base import SegmentationResult
from ..errors import CacheError, ParameterError
from ._cache import CacheKey

__all__ = ["DiskCacheStats", "DiskResultCache"]

#: Default byte bound — generous for label maps, tiny next to image datasets.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_ENTRY_SUFFIX = ".npz"
_TMP_MARKER = ".tmp-"
_LOCK_NAME = ".repro-cache.lock"

#: A lock file older than this is considered abandoned and is broken.
_LOCK_STALE_SECONDS = 30.0

#: Full directory rescans happen at most every this many puts while the
#: approximate counters stay under the bounds — keeps the per-put cost O(1)
#: while still noticing entries written by other processes.
_RESYNC_EVERY_PUTS = 64

#: A read-mostly process resyncs its approximate footprint after observing
#: this many entries vanish (lookups hitting ``FileNotFoundError`` while the
#: counters still claim content) — without it, a worker whose siblings evict
#: would hold a stale over-estimate indefinitely and keep sweeping.
_VANISH_RESYNC_OBSERVATIONS = 16


def _json_safe(value: Any, depth: int = 0) -> Tuple[bool, Any]:
    """``(keep, converted)`` — JSON-friendly view of an extras value.

    Scalars pass through (numpy scalars via ``item()``); lists/tuples/dicts
    recurse to a bounded depth.  Anything else (arrays, generators, objects)
    is dropped: the disk format must never need pickle to load.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return True, value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return True, value.item()
    if depth >= 4:
        return False, None
    if isinstance(value, (list, tuple)):
        items = [_json_safe(item, depth + 1) for item in value]
        if all(keep for keep, _ in items):
            return True, [converted for _, converted in items]
        return False, None
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            keep, converted = _json_safe(item, depth + 1)
            if not keep or not isinstance(key, str):
                return False, None
            out[key] = converted
        return True, out
    return False, None


@dataclass(frozen=True)
class DiskCacheStats:
    """Point-in-time effectiveness counters of a :class:`DiskResultCache`.

    ``evictions``/``evicted_bytes`` count entries (and their on-disk bytes)
    removed by bound-enforcing sweeps; ``corrupt_dropped`` counts entries
    deleted because they failed to decode (every one is also counted in
    ``errors``, which additionally covers I/O failures).  Together with the
    hit/miss counters these are the cache-warming and eviction telemetry the
    serving layer surfaces through ``service.metrics()``.
    """

    hits: int
    misses: int
    stores: int
    evictions: int
    evicted_bytes: int
    corrupt_dropped: int
    errors: int
    currsize: int
    current_bytes: int
    max_entries: int
    max_bytes: int
    hit_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache has never been queried)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly form used by service metric snapshots."""
        return {
            "hits": self.hits,
            "hit_bytes": self.hit_bytes,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "corrupt_dropped": self.corrupt_dropped,
            "errors": self.errors,
            "currsize": self.currsize,
            "current_bytes": self.current_bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hit_rate": self.hit_rate,
        }


class _DirectoryLock:
    """Best-effort cross-process lock: ``O_CREAT | O_EXCL`` on a lock file.

    Mutating sweeps (eviction, clear) hold it so two processes do not race
    each other's scan-and-delete.  A holder that died is detected by the lock
    file's age and broken — safety degrades to "at worst both processes
    sweep", which the tolerant delete paths already absorb.
    """

    def __init__(self, path: str, stale_seconds: float = _LOCK_STALE_SECONDS):
        self._path = path
        self._stale_seconds = stale_seconds
        self._held = False

    def __enter__(self) -> "_DirectoryLock":
        deadline = time.monotonic() + self._stale_seconds
        while True:
            try:
                fd = os.open(self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                self._held = True
                return self
            except FileExistsError:
                try:
                    # Clamp at 0: a backwards wall-clock step (NTP, VM
                    # migration) must not yield a negative age that keeps a
                    # genuinely stale lock looking "fresh" forever — the
                    # monotonic deadline below stays the hard upper bound.
                    age = max(0.0, time.time() - os.path.getmtime(self._path))
                except OSError:
                    # Holder released between open and stat — or stat keeps
                    # failing.  This retry must pace itself and still honour
                    # the deadline like the fresh-lock path below, or a
                    # contended lock degenerates into a hot spin (and a
                    # permanently failing stat into an unbreakable one).
                    if time.monotonic() > deadline:
                        try:
                            os.unlink(self._path)
                        except FileNotFoundError:
                            pass
                        continue
                    time.sleep(0.01)
                    continue
                if age > self._stale_seconds or time.monotonic() > deadline:
                    try:  # break the stale lock and retry the exclusive open
                        os.unlink(self._path)
                    except FileNotFoundError:
                        pass
                    continue
                time.sleep(0.01)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._held:
            self._held = False
            try:
                os.unlink(self._path)
            except FileNotFoundError:
                pass


class DiskResultCache:
    """Size-bounded, crash-safe, multi-process content-addressed disk cache.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries (created if missing).  Multiple
        processes may point at the same directory concurrently.
    max_entries, max_bytes:
        Capacity bounds; exceeding either evicts the oldest entries by mtime.

    Values are ``(SegmentationResult, binary)`` pairs exactly as the
    in-memory :class:`~repro.serve.ResultCache` stores them, so the two
    tiers are interchangeable behind the same ``get``/``put`` protocol.
    """

    def __init__(
        self,
        cache_dir: str,
        max_entries: int = 4096,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_entries < 1:
            raise ParameterError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ParameterError("max_bytes must be >= 1")
        self.cache_dir = str(cache_dir)
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
        except OSError as exc:
            raise CacheError(f"cannot create cache directory {cache_dir!r}: {exc}") from exc
        if not os.path.isdir(self.cache_dir):
            raise CacheError(f"cache path {cache_dir!r} is not a directory")
        self._lock_path = os.path.join(self.cache_dir, _LOCK_NAME)
        # Counter/approximation guard: gets and puts run concurrently on
        # executor threads (the async front end probes the cache off-loop).
        self._stats_lock = threading.Lock()
        self._hits = 0
        self._hit_bytes = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._evicted_bytes = 0
        self._corrupt_dropped = 0
        self._errors = 0
        # Approximate footprint, resynced from a real scan periodically and
        # whenever the bounds look exceeded; overwrites are double-counted,
        # which only makes enforcement *earlier*, never later.
        rows = self._scan()
        self._approx_entries = len(rows)
        self._approx_bytes = sum(size for _, _, _, size in rows)
        self._puts_since_scan = 0
        self._vanished_since_scan = 0

    # ------------------------------------------------------------------ #
    # paths + serialization
    # ------------------------------------------------------------------ #
    def path_for(self, key: CacheKey) -> str:
        """The entry file for ``key`` (exists only if the entry is cached)."""
        image_part, config_part = key
        return os.path.join(self.cache_dir, f"{config_part}-{image_part}{_ENTRY_SUFFIX}")

    @staticmethod
    def _encode(value: Tuple[SegmentationResult, np.ndarray]) -> bytes:
        segmentation, binary = value
        extras: Dict[str, Any] = {}
        for attr, item in segmentation.extras.items():
            keep, converted = _json_safe(item, depth=1)
            if keep and isinstance(attr, str):
                extras[attr] = converted
        meta = {
            "format": "repro-disk-cache/v1",
            "num_segments": int(segmentation.num_segments),
            "runtime_seconds": float(segmentation.runtime_seconds),
            "method": str(segmentation.method),
            "extras": extras,
        }
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer,
            labels=np.asarray(segmentation.labels),
            binary=np.asarray(binary),
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        )
        return buffer.getvalue()

    @staticmethod
    def _decode(payload: bytes) -> Tuple[SegmentationResult, np.ndarray]:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            labels = np.asarray(archive["labels"])
            binary = np.asarray(archive["binary"])
            meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
        if meta.get("format") != "repro-disk-cache/v1":
            raise CacheError(f"unsupported cache entry format {meta.get('format')!r}")
        segmentation = SegmentationResult(
            labels=labels,
            num_segments=int(meta["num_segments"]),
            runtime_seconds=float(meta["runtime_seconds"]),
            method=str(meta["method"]),
            extras=dict(meta["extras"]),
        )
        # Entries written before 7.0.0 also carry a "stored_at" field; it is
        # ignored, so they still read as hits.
        return segmentation, binary

    # ------------------------------------------------------------------ #
    # cache protocol
    # ------------------------------------------------------------------ #
    def get(self, key: CacheKey) -> Optional[Tuple[SegmentationResult, np.ndarray]]:
        """The cached value, or ``None`` on miss (corrupt entries are purged)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
        except FileNotFoundError:
            with self._stats_lock:
                self._misses += 1
            # The entry may simply never have existed — but while the
            # approximate footprint claims the directory holds content,
            # enough of these observations mean sibling processes are
            # evicting and this process's counters are drifting stale.
            self._note_vanished()
            return None
        except OSError:
            with self._stats_lock:
                self._misses += 1
                self._errors += 1
            return None
        try:
            segmentation, binary = self._decode(payload)
        except Exception:  # noqa: BLE001 - any corrupt entry is just a miss
            with self._stats_lock:
                self._misses += 1
                self._errors += 1
                self._corrupt_dropped += 1
            self._drop_entry(path, len(payload))
            return None
        try:
            os.utime(path)  # refresh mtime: LRU across every sharing process
        except OSError:
            # Evicted under us after the read — the value is still good, but
            # the vanish is real drift evidence like any other.
            self._note_vanished()
        with self._stats_lock:
            self._hits += 1
            self._hit_bytes += len(payload)
        return segmentation, binary

    def _drop_entry(self, path: str, size: int) -> None:
        """Unlink an entry this process decided to purge, keeping the
        approximate footprint in step (no full rescan needed — the size of
        what vanished is known exactly)."""
        try:
            os.unlink(path)
        except OSError:
            return
        with self._stats_lock:
            self._approx_entries = max(0, self._approx_entries - 1)
            self._approx_bytes = max(0, self._approx_bytes - size)

    def _note_vanished(self) -> None:
        """Record an observed-vanished entry; resync once they accumulate."""
        with self._stats_lock:
            if self._approx_entries <= 0:
                return
            self._vanished_since_scan += 1
            if self._vanished_since_scan < _VANISH_RESYNC_OBSERVATIONS:
                return
        rows = self._scan()
        with self._stats_lock:
            self._approx_entries = len(rows)
            self._approx_bytes = sum(size for _, _, _, size in rows)
            self._vanished_since_scan = 0

    def put(self, key: CacheKey, value: Tuple[SegmentationResult, np.ndarray]) -> None:
        """Publish an entry atomically, then enforce the size bounds."""
        payload = self._encode(value)
        path = self.path_for(key)
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + _TMP_MARKER, dir=self.cache_dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, path)
        except OSError:
            with self._stats_lock:
                self._errors += 1
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return  # a full/readonly disk degrades to "not cached", not a crash
        with self._stats_lock:
            self._stores += 1
            self._approx_entries += 1
            self._approx_bytes += len(payload)
            self._puts_since_scan += 1
            needs_sweep = (
                self._approx_entries > self.max_entries
                or self._approx_bytes > self.max_bytes
                or self._puts_since_scan >= _RESYNC_EVERY_PUTS
            )
        if needs_sweep:
            self._enforce_bounds()

    def clear(self) -> None:
        """Delete every entry (and stray temp files); counters are preserved."""
        with _DirectoryLock(self._lock_path):
            for _, path, _, _ in self._scan(include_tmp=True):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        with self._stats_lock:
            self._approx_entries = 0
            self._approx_bytes = 0
            self._puts_since_scan = 0
            self._vanished_since_scan = 0

    def __len__(self) -> int:
        return len(self._scan())

    def __contains__(self, key: CacheKey) -> bool:
        return os.path.exists(self.path_for(key))

    # ------------------------------------------------------------------ #
    # bounds + bookkeeping
    # ------------------------------------------------------------------ #
    def _scan(self, include_tmp: bool = False) -> List[Tuple[str, str, float, int]]:
        """``(name, path, mtime, size)`` per entry file, oldest first."""
        rows = []
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return []
        for name in names:
            if name == _LOCK_NAME:
                continue
            is_tmp = _TMP_MARKER in name
            if is_tmp and not include_tmp:
                continue
            if not is_tmp and not name.endswith(_ENTRY_SUFFIX):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # removed by a concurrent process mid-scan
            rows.append((name, path, stat.st_mtime, int(stat.st_size)))
        rows.sort(key=lambda row: (row[2], row[0]))
        return rows

    def _enforce_bounds(self) -> None:
        rows = self._scan()
        total_bytes = sum(size for _, _, _, size in rows)
        if len(rows) <= self.max_entries and total_bytes <= self.max_bytes:
            with self._stats_lock:
                self._puts_since_scan = 0
                self._vanished_since_scan = 0
                self._approx_entries = len(rows)
                self._approx_bytes = total_bytes
            return
        index = 0
        evicted = 0
        evicted_bytes = 0
        failed = 0
        try:
            with _DirectoryLock(self._lock_path):
                rows = self._scan()  # re-scan under the lock: another process
                total_bytes = sum(size for _, _, _, size in rows)  # may have evicted
                while rows[index:] and (
                    len(rows) - index > self.max_entries or total_bytes > self.max_bytes
                ):
                    _, path, _, size = rows[index]
                    index += 1
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        # Another process evicted it between our scan and now:
                        # the bytes are gone all the same, so the running total
                        # must shrink or this sweep over-evicts survivors.
                        total_bytes -= size
                        continue
                    except OSError:
                        failed += 1
                        continue
                    total_bytes -= size
                    evicted += 1
                    evicted_bytes += size
                with self._stats_lock:
                    self._approx_entries = max(0, len(rows) - index)
                    self._approx_bytes = total_bytes
        finally:
            # Committed even when the sweep aborts part-way — a failure while
            # releasing (or re-acquiring) the lock file must not erase the
            # record of entries this sweep already deleted.
            with self._stats_lock:
                self._puts_since_scan = 0
                self._vanished_since_scan = 0
                self._evictions += evicted
                self._evicted_bytes += evicted_bytes
                self._errors += failed

    @property
    def stats(self) -> DiskCacheStats:
        """Effectiveness counters plus the current on-disk footprint."""
        rows = self._scan()
        with self._stats_lock:
            return DiskCacheStats(
                hits=self._hits,
                hit_bytes=self._hit_bytes,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                evicted_bytes=self._evicted_bytes,
                corrupt_dropped=self._corrupt_dropped,
                errors=self._errors,
                currsize=len(rows),
                current_bytes=sum(size for _, _, _, size in rows),
                max_entries=self.max_entries,
                max_bytes=self.max_bytes,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiskResultCache(cache_dir={self.cache_dir!r}, "
            f"max_entries={self.max_entries}, max_bytes={self.max_bytes})"
        )

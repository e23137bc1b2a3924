"""Shared-memory result cache: the lock-free same-host L1.5 tier.

A fleet of worker processes (:class:`~repro.serve.ServeFleet`) shares one
disk L2, but every warm hit out of it pays a file open plus an npz inflate —
real milliseconds on the serving path.  :class:`SharedMemoryResultCache` removes
that cost for workers on the *same host*: one ``multiprocessing.shared_memory``
segment holds a fixed ring of slots, keyed by the existing content digests,
that any worker can read with a single memcpy and no coordination.

Design
------
* **fixed geometry** — the segment is a superblock plus ``slot_count`` slots
  of ``slot_bytes`` each; a key is direct-mapped to one slot by its digest,
  so there is no cross-process allocator, free list, or index to maintain.
  A colliding store simply overwrites the previous occupant (counted as an
  eviction) — the disk L2 below remains the tier of record.
* **seqlock validation** — every slot carries a generation counter: a writer
  bumps it to an *odd* value before touching the slot, writes the payload,
  and publishes by storing the next *even* value together with the key
  digest, payload length and a CRC-32 of the payload.
  A reader snapshots the header, copies the payload out, then re-reads the
  generation: any concurrent writer makes the generations disagree and the
  read degrades to a miss (counted in ``torn_reads``).  Two *writers* racing
  the same slot can interleave beneath a stable even generation, which is
  what the payload CRC catches — a mixed payload fails the checksum and is
  likewise just a miss.
* **lifecycle split** — the fleet supervisor :meth:`create`\\ s (and later
  unlinks) the segment; workers :meth:`attach` and only ever close their own
  mapping.  An attach deliberately *suppresses* Python's ``resource_tracker``
  registration: on CPython 3.11 every ``SharedMemory`` mapping is registered
  unconditionally, so an exiting worker's tracker would otherwise unlink the
  live segment out from under the rest of the fleet.

Values are the ``(SegmentationResult, binary)`` pairs the other tiers store,
serialized *uncompressed* (a JSON metadata blob plus the raw array bytes):
a warm hit costs one memcpy and one ``np.frombuffer`` instead of the disk
tier's zlib inflate, and the decoded labels array is a zero-copy view over
the copied-out buffer — exactly what the HTTP layer's zero-copy ``.npy``
responses build on.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional, Tuple

import numpy as np

from ..base import SegmentationResult
from ..errors import CacheError, ParameterError
from ._cache import CacheKey
from ._diskcache import _json_safe

__all__ = ["ShmCacheStats", "SharedMemoryResultCache", "DEFAULT_SLOT_BYTES"]

#: Default per-slot capacity — holds the labels + binary of a ~512×512 image.
DEFAULT_SLOT_BYTES = 4 * 1024 * 1024

#: Segment names start with this so host tooling (and the CI leak check) can
#: audit ``/dev/shm/repro-shm-*`` without knowing any fleet's exact name.
_NAME_PREFIX = "repro-shm-"

_FORMAT = "repro-shm-cache/v1"

#: Superblock: magic, version, slot_count, slot_bytes (padded to 64 bytes).
#: Version 2 dropped the slot header's store timestamp; ``attach`` refuses a
#: segment of any other version.
_MAGIC = b"RPROSHM\x00"
_VERSION = 2
_SUPER = struct.Struct("<8sIIQ")
_SUPER_SIZE = 64

#: Slot header: generation, key digest, payload length, CRC-32 (padded to
#: 64 bytes so payloads start aligned).
_HEADER = struct.Struct("<Q32sII")
_HEADER_SIZE = 64
_GEN = struct.Struct("<Q")


def _key_digest(key: CacheKey) -> bytes:
    """A fixed 32-byte digest of a cache key (the parts are free-form text)."""
    image_part, config_part = key
    hasher = hashlib.blake2b(digest_size=32)
    hasher.update(str(image_part).encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(str(config_part).encode("utf-8"))
    return hasher.digest()


@dataclass(frozen=True)
class ShmCacheStats:
    """Point-in-time effectiveness counters of a shared-memory cache tier.

    ``torn_reads`` counts lookups that found the right slot but lost a race
    with a writer (generation flip or CRC mismatch) — each one also counts
    as a miss.  ``store_skips`` counts values too large for a slot (they
    stay disk-only).  ``evictions`` counts direct-mapped overwrites of a
    *different* key's live entry.
    """

    hits: int
    misses: int
    stores: int
    store_skips: int
    evictions: int
    torn_reads: int
    errors: int
    currsize: int
    slot_count: int
    slot_bytes: int
    size_bytes: int
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
            "store_skips": self.store_skips,
            "evictions": self.evictions,
            "torn_reads": self.torn_reads,
            "errors": self.errors,
            "currsize": self.currsize,
            "slot_count": self.slot_count,
            "slot_bytes": self.slot_bytes,
            "size_bytes": self.size_bytes,
            "hit_rate": self.hit_rate,
        }


class SharedMemoryResultCache:
    """Fixed-ring shared-memory cache behind the standard ``get``/``put``.

    Construct through :meth:`create` (the segment owner — typically the
    fleet supervisor) or :meth:`attach` (worker processes).  The owner's
    :meth:`close` unlinks the segment; an attacher's only unmaps it.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        *,
        owner: bool,
        slot_count: int,
        slot_bytes: int,
    ):
        self._shm = shm
        self._owner = bool(owner)
        self.slot_count = int(slot_count)
        self.slot_bytes = int(slot_bytes)
        self._closed = False
        # In-process writers serialize per cache; cross-process writer races
        # remain possible and are what the CRC in the slot header is for.
        self._write_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._hits = 0
        self._hit_bytes = 0
        self._misses = 0
        self._stores = 0
        self._store_skips = 0
        self._evictions = 0
        self._torn_reads = 0
        self._errors = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        size_bytes: int,
        *,
        name: Optional[str] = None,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> "SharedMemoryResultCache":
        """Create and own a fresh segment sized for ``size_bytes`` in total.

        Raises :class:`~repro.errors.CacheError` when shared memory is
        unavailable (no ``/dev/shm``, no space) or ``size_bytes`` is too
        small for even one slot — callers degrade to the disk tier.
        """
        if slot_bytes <= _HEADER_SIZE:
            raise ParameterError(f"slot_bytes must exceed the {_HEADER_SIZE}-byte header")
        slot_count = (int(size_bytes) - _SUPER_SIZE) // int(slot_bytes)
        if slot_count < 1:
            raise CacheError(
                f"shm size of {size_bytes} bytes holds no {slot_bytes}-byte slot"
            )
        if name is None:
            name = f"{_NAME_PREFIX}{os.getpid()}-{os.urandom(4).hex()}"
        total = _SUPER_SIZE + slot_count * int(slot_bytes)
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        except (OSError, ValueError) as exc:
            raise CacheError(f"cannot create shared-memory segment {name!r}: {exc}") from exc
        # A fresh POSIX segment is zero-filled, so every slot already reads
        # as empty (even generation 0, payload length 0); only the
        # superblock needs writing.
        _SUPER.pack_into(shm.buf, 0, _MAGIC, _VERSION, slot_count, int(slot_bytes))
        return cls(shm, owner=True, slot_count=slot_count, slot_bytes=int(slot_bytes))

    @classmethod
    def attach(cls, name: str) -> "SharedMemoryResultCache":
        """Attach to an existing segment (a worker joining the fleet's ring).

        Raises :class:`~repro.errors.CacheError` when the segment does not
        exist or its superblock is not one of ours.
        """
        # CPython 3.11 registers *every* mapping with the resource tracker,
        # which treats it as owned: an attacher's tracker would unlink the
        # supervisor's live segment when the attacher exits (cleanly or not).
        # Suppress the registration rather than unregistering afterwards —
        # spawned workers share the supervisor's tracker process, so a second
        # worker's unregister would hit an already-removed name and make the
        # tracker log spurious KeyErrors at shutdown.
        original_register = resource_tracker.register

        def _no_shm_register(name_arg, rtype):
            if rtype != "shared_memory":
                original_register(name_arg, rtype)

        resource_tracker.register = _no_shm_register
        try:
            shm = shared_memory.SharedMemory(name=name, create=False)
        except (OSError, ValueError) as exc:
            raise CacheError(f"cannot attach shared-memory segment {name!r}: {exc}") from exc
        finally:
            resource_tracker.register = original_register
        try:
            magic, version, slot_count, slot_bytes = _SUPER.unpack_from(shm.buf, 0)
            if magic != _MAGIC or version != _VERSION:
                raise CacheError(f"segment {name!r} is not a repro shm cache")
            if _SUPER_SIZE + slot_count * slot_bytes > shm.size or slot_count < 1:
                raise CacheError(f"segment {name!r} has an inconsistent superblock")
        except (CacheError, struct.error) as exc:
            shm.close()
            if isinstance(exc, CacheError):
                raise
            raise CacheError(f"segment {name!r} has no readable superblock") from exc
        return cls(shm, owner=False, slot_count=int(slot_count), slot_bytes=int(slot_bytes))

    @property
    def name(self) -> str:
        """The segment name (attach with this from any same-host process)."""
        return self._shm.name

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (lookups then miss, stores error)."""
        return self._closed

    def close(self) -> None:
        """Unmap the segment; the owner also unlinks it.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - platform specific
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    @staticmethod
    def _encode_parts(
        value: Tuple[SegmentationResult, np.ndarray],
    ) -> Tuple[bytes, np.ndarray, np.ndarray]:
        segmentation, binary = value
        labels = np.ascontiguousarray(np.asarray(segmentation.labels))
        mask = np.ascontiguousarray(np.asarray(binary))
        extras = {}
        for attr, item in segmentation.extras.items():
            keep, converted = _json_safe(item, depth=1)
            if keep and isinstance(attr, str):
                extras[attr] = converted
        meta = {
            "format": _FORMAT,
            "num_segments": int(segmentation.num_segments),
            "runtime_seconds": float(segmentation.runtime_seconds),
            "method": str(segmentation.method),
            "extras": extras,
            "labels": {"dtype": labels.dtype.str, "shape": list(labels.shape)},
            "binary": {"dtype": mask.dtype.str, "shape": list(mask.shape)},
        }
        return json.dumps(meta).encode("utf-8"), labels, mask

    @staticmethod
    def _array_from(payload: bytearray, offset: int, spec: dict) -> Tuple[np.ndarray, int]:
        dtype = np.dtype(str(spec["dtype"]))
        shape = tuple(int(dim) for dim in spec["shape"])
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise CacheError("shm payload truncated")
        array = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        return array.reshape(shape), offset + nbytes

    @classmethod
    def _decode(cls, payload: bytearray) -> Tuple[SegmentationResult, np.ndarray]:
        (meta_len,) = struct.unpack_from("<I", payload, 0)
        if 4 + meta_len > len(payload):
            raise CacheError("shm payload truncated")
        meta = json.loads(bytes(payload[4 : 4 + meta_len]).decode("utf-8"))
        if meta.get("format") != _FORMAT:
            raise CacheError(f"unsupported shm entry format {meta.get('format')!r}")
        labels, offset = cls._array_from(payload, 4 + meta_len, meta["labels"])
        mask, _ = cls._array_from(payload, offset, meta["binary"])
        segmentation = SegmentationResult(
            labels=labels,
            num_segments=int(meta["num_segments"]),
            runtime_seconds=float(meta["runtime_seconds"]),
            method=str(meta["method"]),
            extras=dict(meta["extras"]),
        )
        return segmentation, mask

    # ------------------------------------------------------------------ #
    # cache protocol
    # ------------------------------------------------------------------ #
    def _slot_base(self, digest: bytes) -> int:
        index = int.from_bytes(digest[:8], "little") % self.slot_count
        return _SUPER_SIZE + index * self.slot_bytes

    def get(self, key: CacheKey) -> Optional[Tuple[SegmentationResult, np.ndarray]]:
        """The cached value, or ``None`` — torn/raced entries are misses."""
        if self._closed:
            with self._stats_lock:
                self._misses += 1
            return None
        digest = _key_digest(key)
        base = self._slot_base(digest)
        buf = self._shm.buf
        try:
            gen, stored_digest, payload_len, crc = _HEADER.unpack_from(buf, base)
        except (struct.error, ValueError):  # pragma: no cover - mapping gone
            with self._stats_lock:
                self._misses += 1
                self._errors += 1
            return None
        if payload_len == 0 or stored_digest != digest:
            with self._stats_lock:
                self._misses += 1
            return None
        if gen & 1 or payload_len > self.slot_bytes - _HEADER_SIZE:
            with self._stats_lock:
                self._misses += 1
                self._torn_reads += 1
            return None
        # One memcpy out of the ring, then validate: the generation must not
        # have moved while we copied, and the payload must checksum (the CRC
        # is what catches two *writers* interleaving under an even
        # generation, which the seqlock alone cannot see).
        payload = bytearray(buf[base + _HEADER_SIZE : base + _HEADER_SIZE + payload_len])
        (gen_after,) = _GEN.unpack_from(buf, base)
        if gen_after != gen or zlib.crc32(payload) != crc:
            with self._stats_lock:
                self._misses += 1
                self._torn_reads += 1
            return None
        try:
            value = self._decode(payload)
        except Exception:  # noqa: BLE001 - any undecodable entry is a miss
            with self._stats_lock:
                self._misses += 1
                self._errors += 1
            return None
        with self._stats_lock:
            self._hits += 1
            self._hit_bytes += payload_len
        return value

    def put(self, key: CacheKey, value: Tuple[SegmentationResult, np.ndarray]) -> None:
        """Publish an entry into its direct-mapped slot (oversize: skipped)."""
        if self._closed:
            with self._stats_lock:
                self._errors += 1
            return
        try:
            meta_bytes, labels, mask = self._encode_parts(value)
        except Exception:  # noqa: BLE001 - unencodable values stay disk-only
            with self._stats_lock:
                self._errors += 1
            return
        labels_view = memoryview(labels).cast("B")
        mask_view = memoryview(mask).cast("B")
        total = 4 + len(meta_bytes) + labels_view.nbytes + mask_view.nbytes
        if total > self.slot_bytes - _HEADER_SIZE:
            with self._stats_lock:
                self._store_skips += 1
            return
        digest = _key_digest(key)
        base = self._slot_base(digest)
        buf = self._shm.buf
        evicted = False
        try:
            with self._write_lock:
                gen, old_digest, old_len, _ = _HEADER.unpack_from(buf, base)
                evicted = old_len > 0 and not (gen & 1) and old_digest != digest
                start_gen = gen + 1 + (gen & 1)  # next odd: write in progress
                _GEN.pack_into(buf, base, start_gen)
                offset = base + _HEADER_SIZE
                struct.pack_into("<I", buf, offset, len(meta_bytes))
                crc = zlib.crc32(struct.pack("<I", len(meta_bytes)))
                offset += 4
                for piece in (memoryview(meta_bytes), labels_view, mask_view):
                    buf[offset : offset + piece.nbytes] = piece
                    crc = zlib.crc32(piece, crc)
                    offset += piece.nbytes
                # Publish: even generation + digest + length + CRC, in one
                # header store (a reader racing this pack sees a CRC/payload
                # mismatch and degrades to a miss).
                _HEADER.pack_into(buf, base, start_gen + 1, digest, total, crc)
        except (ValueError, struct.error, BufferError):  # pragma: no cover - mapping gone
            with self._stats_lock:
                self._errors += 1
            return
        with self._stats_lock:
            self._stores += 1
            if evicted:
                self._evictions += 1

    def clear(self) -> None:
        """Empty every slot (statistics counters are preserved)."""
        if self._closed:
            return
        buf = self._shm.buf
        with self._write_lock:
            for index in range(self.slot_count):
                base = _SUPER_SIZE + index * self.slot_bytes
                (gen,) = _GEN.unpack_from(buf, base)
                _HEADER.pack_into(buf, base, gen + 2 + (gen & 1), b"\x00" * 32, 0, 0)

    def _live_slots(self) -> int:
        if self._closed:
            return 0
        buf = self._shm.buf
        live = 0
        for index in range(self.slot_count):
            base = _SUPER_SIZE + index * self.slot_bytes
            gen, _, payload_len, _ = _HEADER.unpack_from(buf, base)
            if payload_len > 0 and not (gen & 1):
                live += 1
        return live

    def __len__(self) -> int:
        return self._live_slots()

    def __contains__(self, key: CacheKey) -> bool:
        if self._closed:
            return False
        digest = _key_digest(key)
        base = self._slot_base(digest)
        gen, stored_digest, payload_len, _ = _HEADER.unpack_from(self._shm.buf, base)
        return payload_len > 0 and not (gen & 1) and stored_digest == digest

    @property
    def stats(self) -> ShmCacheStats:
        """Effectiveness counters plus the ring's live-slot occupancy."""
        currsize = self._live_slots()
        with self._stats_lock:
            return ShmCacheStats(
                hits=self._hits,
                hit_bytes=self._hit_bytes,
                misses=self._misses,
                stores=self._stores,
                store_skips=self._store_skips,
                evictions=self._evictions,
                torn_reads=self._torn_reads,
                errors=self._errors,
                currsize=currsize,
                slot_count=self.slot_count,
                slot_bytes=self.slot_bytes,
                size_bytes=_SUPER_SIZE + self.slot_count * self.slot_bytes,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemoryResultCache(name={self.name!r}, slots={self.slot_count}, "
            f"slot_bytes={self.slot_bytes}, owner={self._owner}, closed={self._closed})"
        )

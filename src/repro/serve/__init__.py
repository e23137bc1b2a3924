"""The serving layer: streaming segmentation with micro-batching and caching.

This subsystem turns the one-shot batch engine into a long-lived service fit
for request/response traffic:

* :class:`AsyncSegmentationService` — the one serving core:
  ``await submit(image, priority=..., deadline=..., client_id=...)`` with a
  content-addressed :class:`ResultCache` in front of the engine (an LRU
  keyed by image digest + engine-config digest; in-memory hits are answered
  on the event loop), work-conserving micro-batching (an idle worker drains
  at once; batches form only under backlog, and identical images in a batch
  are computed once), HIGH/NORMAL/LOW priority lanes (weighted draining),
  bounded lanes (backpressure, not OOM), per-client token-bucket quotas,
  deadline-aware admission and shedding
  (:class:`~repro.errors.DeadlineExceededError`), service metrics and
  graceful ``aclose()``.
* :class:`HttpSegmentationServer` — the stdlib-only asyncio HTTP/1.1 front
  end over the async service (``POST /v1/segment``, ``GET /v1/metrics``,
  ``GET /v1/capabilities``, draining-aware ``GET /healthz``) with every
  serve error mapped to a precise status code, plus :class:`SegmentClient`,
  the blocking reference client that raises those errors back as the
  library's own exceptions.  CLI: ``repro-segment serve --http HOST:PORT``.
* :class:`DiskResultCache` — a persistent, crash-safe, size-bounded on-disk
  cache tier (atomic writes, mtime-LRU eviction, multi-process safe) that
  stacks under the in-memory cache as :class:`TieredResultCache`, so warm
  results survive restarts and are shared across worker processes.
* :class:`SharedMemoryResultCache` — the same-host shared-memory L1.5 tier
  for worker fleets: a fixed ring of digest-keyed slots in one
  ``multiprocessing.shared_memory`` segment, validated lock-free with
  generation counters + payload checksums (torn writes degrade to misses).
  Stacked into :class:`TieredResultCache` between L1 and the disk L2, a warm
  hit costs one memcpy instead of a file open + npz inflate.
* :class:`ServeFleet` — the multi-process scale-out layer: a supervisor
  running N HTTP worker processes behind one HOST:PORT via ``SO_REUSEPORT``
  (kernel load balancing; single shared listener as the fallback), all
  sharing one disk-cache directory as their L2.  Staggered startup,
  heartbeat liveness, crash-restart with exponential backoff, fleet-wide
  SIGTERM drain, and merged metrics/health across the workers.  Workers
  can run the adaptive control loop (:class:`AdaptiveController`): batch
  size and lane weights re-derived each tick from live telemetry, within
  bounds.
  CLI: ``repro-segment serve --http HOST:PORT --workers N``.
* the spool job sources behind ``repro-segment serve``: a watched spool
  directory or JSONL job lines (with optional per-job priority, deadline
  and client), driven through the service by :func:`run_jobs_async` and
  summarised as a ``repro-serve-report/v1`` document.

This module is the serving layer's **only import surface**: every public
name is re-exported here (lazily, via PEP 562, so ``import repro.serve``
stays cheap) from ``_``-prefixed implementation modules; the 1.x deep paths
such as ``repro.serve.fleet`` were removed in 2.0.0.  The streaming
counterpart on the engine itself is
:meth:`repro.engine.BatchSegmentationEngine.map_stream`, which flows an
arbitrarily large dataset through a bounded in-flight window.

Quick start
-----------
>>> import asyncio
>>> import numpy as np
>>> from repro import BatchSegmentationEngine, IQFTSegmenter
>>> from repro.serve import AsyncSegmentationService
>>> engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
>>> image = (np.random.default_rng(0).random((16, 16, 3)) * 255).astype(np.uint8)
>>> async def serve_twice():
...     async with AsyncSegmentationService(engine) as service:
...         await service.submit(image)
...         return await service.submit(image)  # served from the cache
>>> bool(asyncio.run(serve_twice()).segmentation.extras["cache_hit"])
True
"""

from importlib import import_module
from typing import TYPE_CHECKING

#: Public name → private implementation module.  Names resolve on first
#: attribute access (PEP 562), so importing :mod:`repro.serve` does not pay
#: for asyncio, multiprocessing, or the HTTP stack until they are used.
_EXPORTS = {
    "AsyncSegmentationService": "_aio",
    "Priority": "_aio",
    "TokenBucket": "_aio",
    "AdaptiveConfig": "_batcher",
    "AdaptiveController": "_batcher",
    "ServeFleet": "_fleet",
    "WorkerSpec": "_fleet",
    "merge_worker_metrics": "_fleet",
    "HttpSegmentationServer": "_http",
    "status_for_exception": "_http",
    "SegmentClient": "_http_client",
    "HttpSegmentResult": "_http_client",
    "ResultCache": "_cache",
    "TieredResultCache": "_cache",
    "image_digest": "_cache",
    "config_digest": "_cache",
    "tile_key": "_cache",
    "TileCacheAdapter": "_cache",
    "DiskResultCache": "_diskcache",
    "SharedMemoryResultCache": "_shmcache",
    "Job": "_spool",
    "iter_spool_jobs": "_spool",
    "iter_jsonl_jobs": "_spool",
    "run_jobs_async": "_spool",
    "build_report": "_spool",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from ._aio import AsyncSegmentationService, Priority, TokenBucket
    from ._batcher import AdaptiveConfig, AdaptiveController
    from ._cache import (
        ResultCache,
        TieredResultCache,
        TileCacheAdapter,
        config_digest,
        image_digest,
        tile_key,
    )
    from ._diskcache import DiskResultCache
    from ._fleet import ServeFleet, WorkerSpec, merge_worker_metrics
    from ._http import HttpSegmentationServer, status_for_exception
    from ._http_client import HttpSegmentResult, SegmentClient
    from ._shmcache import SharedMemoryResultCache
    from ._spool import (
        Job,
        build_report,
        iter_jsonl_jobs,
        iter_spool_jobs,
        run_jobs_async,
    )

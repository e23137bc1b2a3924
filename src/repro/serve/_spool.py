"""Job sources and the driver for ``repro-segment serve``.

The CLI feeds a :class:`~repro.serve.SegmentationService` from one of
two job sources:

* a **spool directory** — every supported image file is one job.  One-shot
  mode processes the current directory contents (sorted, deterministic) and
  exits; watch mode keeps polling for newly spooled files until a stop file
  appears or a job limit is reached.
* **JSONL job lines** — each line is ``{"path": "...", "id": "..."}`` (``id``
  optional, defaults to the path); blank lines are skipped and malformed
  lines become per-job error entries instead of aborting the stream.  A
  configurable priority field (default ``"priority"``) and a
  ``"deadline_ms"`` key route each job through the async front end's lanes.

Jobs are submitted eagerly (so the micro-batcher can coalesce them) with a
bounded number of pending futures — the driver itself obeys the same
bounded-memory discipline as the service it feeds.  Each finished job yields
one report entry; :func:`build_report` wraps them into the
``repro-serve-report/v1`` summary document.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO

import numpy as np

from ..imaging.io_dispatch import IMAGE_EXTENSIONS
from ..obs import get_logger
from ._service import SegmentationService

__all__ = [
    "Job",
    "iter_spool_jobs",
    "iter_jsonl_jobs",
    "run_jobs",
    "run_jobs_async",
    "build_report",
]

#: Default stop-file name ending a ``--watch`` serve loop.
DEFAULT_STOP_FILE = ".stop"


@dataclasses.dataclass
class Job:
    """One unit of serving work: an image on disk (or a pre-failed stub)."""

    id: str
    path: Optional[str] = None
    error: Optional[str] = None  # set for malformed job lines
    priority: str = "normal"  # lane name for the async front end
    deadline_ms: Optional[float] = None  # per-job deadline override
    client: Optional[str] = None  # quota key for the async front end

    @property
    def output_name(self) -> str:
        """Basename (no extension) used for the per-job result file."""
        base = os.path.basename(self.path) if self.path else self.id
        stem = os.path.splitext(base)[0]
        return stem or "job"


def iter_spool_jobs(
    directory: str,
    watch: bool = False,
    poll_seconds: float = 0.2,
    stop_file: str = DEFAULT_STOP_FILE,
    limit: Optional[int] = None,
) -> Iterator[Job]:
    """Yield jobs from a spool directory, optionally watching for new files.

    One-shot mode (``watch=False``) snapshots the directory once, sorted by
    name for determinism.  Watch mode re-scans every ``poll_seconds`` and
    stops when ``directory/stop_file`` exists or ``limit`` jobs have been
    yielded.  A file spotted mid-write would fail to decode and be recorded
    as a permanent error, so watch mode holds a new file back until its size
    and mtime are unchanged across two consecutive scans; once the stop file
    appears, everything still settling is flushed (files spooled together
    with the stop file are served without an extra poll round).

    The stop file is checked *before* the directory is listed: any job
    spooled before the stop file was created is therefore guaranteed to be
    visible in the final scan and served.  (Checking afterwards loses jobs
    when the producer drops files plus the stop file mid-scan — the stop is
    observed but the listing predates the files.)
    """
    seen = set()
    settling: dict = {}  # name -> (size, mtime_ns) from the previous scan
    yielded = 0
    while True:
        stopping = not watch or os.path.exists(os.path.join(directory, stop_file))
        names = sorted(
            entry
            for entry in os.listdir(directory)
            if entry.lower().endswith(IMAGE_EXTENSIONS) and entry not in seen
        )
        ready = []
        for name in names:
            if stopping:
                ready.append(name)
                continue
            try:
                stat = os.stat(os.path.join(directory, name))
            except OSError:
                continue  # vanished between listdir and stat
            signature = (stat.st_size, stat.st_mtime_ns)
            if settling.get(name) == signature:
                ready.append(name)
            else:
                settling[name] = signature  # hold back until it settles
        for name in ready:
            seen.add(name)
            settling.pop(name, None)
            yield Job(id=name, path=os.path.join(directory, name))
            yielded += 1
            if limit is not None and yielded >= limit:
                return
        if stopping:
            return
        time.sleep(poll_seconds)


def iter_jsonl_jobs(stream: TextIO, priority_field: str = "priority") -> Iterator[Job]:
    """Yield jobs from JSONL lines; malformed lines become error jobs.

    ``priority_field`` names the JSON key holding the lane (``"high"`` /
    ``"normal"`` / ``"low"``, default lane when absent); a ``"deadline_ms"``
    key sets a per-job deadline.  Both only matter to the async front end —
    the sync service ignores them.
    """
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict) or "path" not in payload:
                raise ValueError('job line must be an object with a "path" key')
            deadline_ms = payload.get("deadline_ms")
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as exc:
            get_logger().warning("spool.bad_job_line", line=lineno, error=str(exc))
            yield Job(id=f"line-{lineno}", error=f"invalid job line: {exc}")
            continue
        path = str(payload["path"])
        client = payload.get("client")
        yield Job(
            id=str(payload.get("id", path)),
            path=path,
            priority=str(payload.get(priority_field, "normal")),
            deadline_ms=deadline_ms,
            client=str(client) if client is not None else None,
        )


def _job_entry(job: Job, outcome: Any) -> Dict[str, Any]:
    """Collapse a finished job into one JSON-friendly report entry."""
    entry: Dict[str, Any] = {"id": job.id, "file": job.path}
    if isinstance(outcome, BaseException):
        entry["error"] = f"{type(outcome).__name__}: {outcome}"
        get_logger().warning(
            "spool.job_error", job_id=job.id, file=job.path, error=entry["error"]
        )
        return entry
    seg = outcome.segmentation
    entry.update(
        {
            "shape": [int(v) for v in seg.labels.shape],
            "num_segments": int(seg.num_segments),
            "fast_path": str(seg.extras.get("fast_path", "direct")),
            "cache_hit": bool(seg.extras.get("cache_hit", False)),
            "coalesced": bool(seg.extras.get("coalesced", False)),
            "runtime_seconds": float(seg.runtime_seconds),
            "metrics": {key: float(value) for key, value in outcome.metrics.items()},
        }
    )
    return entry


def _write_entry_file(path: str, entry: Dict[str, Any]) -> None:
    """Write one per-job result file (sync: async callers run it off-loop)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_jobs(
    service: SegmentationService,
    jobs: Iterable[Job],
    out_dir: Optional[str] = None,
    max_pending: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Feed ``jobs`` through ``service`` and return one report entry per job.

    Jobs are submitted as they arrive so the micro-batcher can coalesce them;
    at most ``max_pending`` futures are outstanding (default: twice the
    service queue size), keeping driver memory bounded on endless watch
    streams.  Unreadable images and per-request failures become error entries
    — one bad job never aborts the run.  With ``out_dir``, each successful
    job also writes ``<out_dir>/<job>.json``.
    """
    from ..imaging.io_dispatch import read_image  # local: keep import cost off the hot path

    if max_pending is None:
        max_pending = 2 * service._batcher.queue_size
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    entries: List[Dict[str, Any]] = []
    pending: deque = deque()  # (job, future)

    def _finish(job: Job, future) -> None:
        try:
            outcome = future.result()
        except Exception as exc:  # reprolint: disable=RL004 error becomes the job's report entry
            outcome = exc
        entry = _job_entry(job, outcome)
        if out_dir is not None and "error" not in entry:
            path = os.path.join(out_dir, f"{job.output_name}.json")
            _write_entry_file(path, entry)
            entry["result_file"] = path
        entries.append(entry)

    for job in jobs:
        if job.error is not None:
            entries.append({"id": job.id, "file": job.path, "error": job.error})
            continue
        try:
            image = np.asarray(read_image(job.path))
        except Exception as exc:  # reprolint: disable=RL004 error becomes the job's report entry
            entries.append(_job_entry(job, exc))
            continue
        pending.append((job, service.submit(image)))
        while len(pending) >= max_pending:
            _finish(*pending.popleft())

    while pending:
        _finish(*pending.popleft())
    return entries


async def run_jobs_async(
    service,
    jobs: Iterable[Job],
    out_dir: Optional[str] = None,
    max_pending: Optional[int] = None,
    default_deadline_ms: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """The :func:`run_jobs` driver for an ``AsyncSegmentationService``.

    Jobs carry their lane in ``job.priority`` and an optional per-job
    ``deadline_ms`` (falling back to ``default_deadline_ms``).  The job
    iterable may block (spool watching) — it is advanced on a worker thread
    so the event loop keeps resolving in-flight requests.  Shed and expired
    requests surface as per-job ``error`` entries
    (``DeadlineExceededError: ...``), exactly like any other per-job failure.
    """
    from ..imaging.io_dispatch import read_image  # local: keep import cost off the hot path

    if max_pending is None:
        max_pending = 2 * service.queue_size
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    loop = asyncio.get_running_loop()

    entries: List[Dict[str, Any]] = []
    pending: deque = deque()  # (job, task)

    async def _finish(job: Job, task) -> None:
        try:
            outcome = await task
        except Exception as exc:  # reprolint: disable=RL004 error becomes the job's report entry
            outcome = exc
        entry = _job_entry(job, outcome)
        entry["priority"] = job.priority
        if out_dir is not None and "error" not in entry:
            path = os.path.join(out_dir, f"{job.output_name}.json")
            # Off-loop: report writes must not stall concurrently awaited jobs.
            await loop.run_in_executor(None, _write_entry_file, path, entry)
            entry["result_file"] = path
        entries.append(entry)

    _DONE = object()
    job_iter = iter(jobs)

    def _next_job():
        return next(job_iter, _DONE)

    while True:
        job = await loop.run_in_executor(None, _next_job)
        if job is _DONE:
            break
        if job.error is not None:
            entries.append({"id": job.id, "file": job.path, "error": job.error})
            continue
        try:
            image = np.asarray(await loop.run_in_executor(None, read_image, job.path))
        except Exception as exc:  # reprolint: disable=RL004 error becomes the job's report entry
            entry = _job_entry(job, exc)
            entry["priority"] = job.priority
            entries.append(entry)
            continue
        deadline_ms = job.deadline_ms if job.deadline_ms is not None else default_deadline_ms
        task = asyncio.ensure_future(
            service.submit(
                image,
                priority=job.priority,
                deadline=deadline_ms / 1000.0 if deadline_ms is not None else None,
                client_id=job.client,
            )
        )
        pending.append((job, task))
        while len(pending) >= max_pending:
            await _finish(*pending.popleft())

    while pending:
        await _finish(*pending.popleft())
    return entries


def build_report(
    service,
    entries: List[Dict[str, Any]],
    method: str,
    parameters: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The ``repro-serve-report/v1`` summary document for a serve run."""
    succeeded = [entry for entry in entries if "error" not in entry]
    scored = [entry for entry in succeeded if entry.get("metrics")]
    summary = {
        "num_failed": len(entries) - len(succeeded),
        "num_cache_hits": sum(1 for entry in succeeded if entry.get("cache_hit")),
        "num_coalesced": sum(1 for entry in succeeded if entry.get("coalesced")),
        "mean_num_segments": (
            float(np.mean([entry["num_segments"] for entry in succeeded]))
            if succeeded
            else None
        ),
        "mean_miou": (
            float(np.mean([entry["metrics"]["miou"] for entry in scored]))
            if scored
            else None
        ),
    }
    return {
        "schema": "repro-serve-report/v1",
        "method": method,
        "parameters": parameters or {},
        "service": service.describe(),
        "metrics": service.metrics(),
        "num_jobs": len(entries),
        "jobs": entries,
        "summary": summary,
    }

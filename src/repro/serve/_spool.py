"""Job sources and the driver for ``repro-segment serve``.

The CLI feeds an :class:`~repro.serve.AsyncSegmentationService` from one of
two job sources:

* a **spool directory** — every supported image file is one job.  One-shot
  mode processes the current directory contents (sorted, deterministic) and
  exits; watch mode keeps polling for newly spooled files until a stop file
  appears or a job limit is reached.
* **JSONL job lines** — each line is ``{"path": "...", "id": "..."}`` (``id``
  optional, defaults to the path); blank lines are skipped and malformed
  lines become per-job error entries instead of aborting the stream.  A
  configurable priority field (default ``"priority"``) picks each job's lane,
  a ``"deadline_ms"`` key its deadline and a ``"client"`` key its quota
  bucket.

:func:`run_jobs_async` decodes jobs on a reader thread, a bounded number
ahead of the event loop, submits them eagerly (so batches form from the
backlog) with a bounded number of pending requests — the driver obeys the
same bounded-memory discipline as the service it feeds — and writes result
files on a writer thread.  Each finished job yields one report entry;
:func:`build_report` wraps them into the ``repro-serve-report/v1`` summary
document.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, TextIO, Tuple

import numpy as np

from ..imaging.io_dispatch import IMAGE_EXTENSIONS, read_image
from ..obs import get_logger

__all__ = [
    "Job",
    "iter_spool_jobs",
    "iter_jsonl_jobs",
    "run_jobs_async",
    "build_report",
]

#: Default stop-file name ending a ``--watch`` serve loop.
DEFAULT_STOP_FILE = ".stop"

#: Jobs the driver's reader thread decodes ahead of the event loop: enough
#: to keep the loop fed, few enough to bound the decoded images it holds.
READ_AHEAD = 16


@dataclasses.dataclass
class Job:
    """One unit of serving work: an image on disk (or a pre-failed stub)."""

    id: str
    path: Optional[str] = None
    error: Optional[str] = None  # set for malformed job lines
    priority: str = "normal"  # priority lane name
    deadline_ms: Optional[float] = None  # per-job deadline override
    client: Optional[str] = None  # per-client quota key

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
    key sets a per-job deadline and a ``"client"`` key the per-client quota
    bucket.
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
    entry: Dict[str, Any] = {"id": job.id, "file": job.path, "priority": job.priority}
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
    """Write one per-job result file (on the driver's writer thread)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_next(job_iter: Iterator[Job]) -> Tuple[Optional[Job], Any]:
    """The next job and its decoded image (or the decode error); ``None`` at the end."""
    job = next(job_iter, None)
    if job is None or job.error is not None:
        return job, None
    try:
        return job, np.asarray(read_image(job.path))
    except Exception as exc:  # reprolint: disable=RL004 error becomes the job's report entry
        return job, exc


def _result_name(job: Job, taken: Set[str]) -> str:
    """``job.output_name``, suffixed ``-1``, ``-2``, ... if this run already used it."""
    name = stem = job.output_name
    suffix = 0
    while name in taken:
        suffix += 1
        name = f"{stem}-{suffix}"
    taken.add(name)
    return name


async def run_jobs_async(
    service,
    jobs: Iterable[Job],
    out_dir: Optional[str] = None,
    max_pending: Optional[int] = None,
    default_deadline_ms: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Feed ``jobs`` through an ``AsyncSegmentationService``; one report entry per job.

    A reader thread advances the job iterable (which may block, watching a
    spool) and decodes each image, up to :data:`READ_AHEAD` jobs ahead of
    the event loop; a writer thread writes the result files behind it.  At
    most ``max_pending`` requests are outstanding (default: twice the
    service queue size), keeping driver memory bounded on endless watch
    streams.  Jobs carry their lane in ``job.priority`` and an optional
    per-job ``deadline_ms`` (falling back to ``default_deadline_ms``).
    Unreadable images, shed or expired requests (``DeadlineExceededError:
    ...``) and other per-request failures become ``error`` entries — one
    bad job never aborts the run.  With ``out_dir``, each successful job
    also writes ``<out_dir>/<stem>.json``; a later job whose file stem
    repeats an earlier one's (``x.png`` and ``x.ppm``, or ``a/x.png`` and
    ``b/x.png``) writes ``<stem>-1.json``, ``<stem>-2.json``, ... in job
    order.  A job is finished (entry recorded, result file queued for the
    writer) as soon as its request and every earlier job's are done, even
    while the job iterable blocks, as a watched spool does between files.
    Entries are recorded in job order, error entries included.  Every
    result file is on disk when the coroutine returns.
    """
    if max_pending is None:
        max_pending = 2 * service.queue_size
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    loop = asyncio.get_running_loop()

    entries: List[Dict[str, Any]] = []
    # (result-file name or None, task resolving to the job's entry), in job
    # order; a job that failed before submission waits here already settled.
    pending: deque = deque()
    taken: Set[str] = set()  # result-file names this run has handed out
    # The loop never waits on a file per job: a thread hop per job costs
    # more than the work it carries.  Reads are awaited READ_AHEAD deep;
    # writes only once, at the end of the run.
    reader = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-spool-reader")
    writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-spool-writer")
    writes: List[Future] = []

    async def _serve(job: Job, image: np.ndarray) -> Dict[str, Any]:
        deadline_ms = job.deadline_ms if job.deadline_ms is not None else default_deadline_ms
        try:
            outcome = await service.submit(
                image,
                priority=job.priority,
                deadline=deadline_ms / 1000.0 if deadline_ms is not None else None,
                client_id=job.client,
            )
        except Exception as exc:  # reprolint: disable=RL004 error becomes the job's report entry
            outcome = exc
        return _job_entry(job, outcome)

    def _settled(entry: Dict[str, Any]) -> "asyncio.Future":
        future = loop.create_future()
        future.set_result(entry)
        return future

    async def _finish(name: Optional[str], task) -> None:
        entry = await task
        if name is not None and "error" not in entry:
            path = os.path.join(out_dir, f"{name}.json")
            writes.append(writer.submit(_write_entry_file, path, dict(entry)))
            entry["result_file"] = path
        entries.append(entry)

    job_iter = iter(jobs)
    ahead = deque(loop.run_in_executor(reader, _read_next, job_iter) for _ in range(READ_AHEAD))
    try:
        while True:
            next_read = ahead.popleft()
            # While the next job is not decoded yet (a watched spool polls
            # for it), finish the pending jobs whose requests are done,
            # oldest first, so each result lands as soon as it can.
            while pending and not next_read.done():
                if not pending[0][1].done():
                    await asyncio.wait(
                        (next_read, pending[0][1]), return_when=asyncio.FIRST_COMPLETED
                    )
                if pending[0][1].done():
                    await _finish(*pending.popleft())
            job, image = await next_read
            if job is None:
                break
            ahead.append(loop.run_in_executor(reader, _read_next, job_iter))
            if job.error is not None:
                entry = {"id": job.id, "file": job.path, "error": job.error}
                pending.append((None, _settled(entry)))
            elif isinstance(image, Exception):
                pending.append((None, _settled(_job_entry(job, image))))
            else:
                name = _result_name(job, taken) if out_dir is not None else None
                pending.append((name, asyncio.ensure_future(_serve(job, image))))
            while len(pending) >= max_pending:
                await _finish(*pending.popleft())
        while pending:
            await _finish(*pending.popleft())
        await loop.run_in_executor(None, writer.shutdown)
    finally:
        reader.shutdown(wait=False, cancel_futures=True)
        writer.shutdown(wait=False)
    for write in writes:
        write.result()  # a failed write fails the run
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

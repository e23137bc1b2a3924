"""The program under test, driven from outside: server processes and clients.

HTTP workloads launch the real CLI, ``python -m repro.cli serve --http``,
with its defaults.  :class:`NpyClient` speaks the same ``.npy``-both-ways
protocol as :class:`repro.serve.SegmentClient` (``np.save`` request body,
``Accept: application/x-npy``, ``np.load`` response) and can also send
``X-Repro-Stream-Id``, which ``SegmentClient.segment`` has no parameter for.
When asked, it records the benchmark's own spans around encode, request
and decode.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

clock = time.monotonic  # the serve layer's clock too, so spans compare in-process

#: Completed traces one server process can retain; a traced phase must fit.
TRACE_RING = 8192


class HttpStatusError(RuntimeError):
    """A non-200 answer from ``POST /v1/segment``."""

    def __init__(self, status: int, detail: bytes):
        super().__init__(f"HTTP {status}: {detail[:200]!r}")
        self.status = status


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A fleet supervisor's resource-tracker process outlives it by a moment;
    adopted, it can be waited for by :func:`reap_children`.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init and are not waited for


def _children() -> List[int]:
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as fh:
                pids += [int(pid) for pid in fh.read().split()]
        except OSError:
            pass
    return pids


def reap_children(grace: float = 10.0) -> None:
    """Wait until this process has no child left; SIGKILL any still running after ``grace``."""
    deadline = clock() + grace
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        if not killed and clock() > deadline:
            for pid in _children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
        time.sleep(0.01)


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker, if any, and wait for it to end.

    Python starts it at the first shared-memory segment (the in-process
    service's ring, the isolation pass) and otherwise lets it outlive this
    process; on the way out it unlinks any segment left behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def rss_mb(pids: List[int]) -> float:
    """Summed resident set size of ``pids`` (VmRSS), in MiB.

    Read at the end of the measured phase, when the caches are full: the
    peak (VmHWM) also holds transient batch buffers and allocator slack,
    which made it spread too widely between runs to bound.
    """
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


class ServerProcess:
    """One ``repro-segment serve --http`` process (single worker or fleet)."""

    def __init__(self, root: Path, work: Path, workers: int):
        self.report_path = work / f"report-{os.getpid()}-{id(self)}.json"
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--http", "127.0.0.1:0",
            "--trace-sample-rate", "0", "--trace-ring", str(TRACE_RING),
            "--report", str(self.report_path),
        ]
        if workers > 1:
            cmd += ["--workers", str(workers)]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.workers = workers
        self.lines: List[str] = []
        self._ready = threading.Event()
        self.port: Optional[int] = None
        self.worker_pids: List[int] = []
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line.rstrip())
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                if self.workers == 1:
                    self._ready.set()
            match = re.search(r"worker slot=\d+ pid=(\d+)", line)
            if match:
                self.worker_pids.append(int(match.group(1)))
                if len(self.worker_pids) == self.workers:
                    self._ready.set()
        self._ready.set()  # EOF: wake the waiter so it can report the failure

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the server announced itself and ``/healthz`` says 200."""
        if not self._ready.wait(timeout) or self.port is None or self.proc.poll() is not None:
            raise RuntimeError("server did not start:\n" + "\n".join(self.lines[-20:]))
        deadline = clock() + timeout
        while clock() < deadline:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return
                conn.close()
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server never became healthy")

    def pids(self) -> List[int]:
        """Serving processes: the CLI process plus any fleet workers."""
        return [self.proc.pid] + list(self.worker_pids)

    def stop(self, timeout: float = 60.0) -> Optional[dict]:
        """SIGTERM drain; returns the ``repro-http-serve-report/v1`` report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            for pid in self.pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait()
        reap_children()
        self._reader.join(10)
        if self.report_path.exists():
            report = json.loads(self.report_path.read_text())
            self.report_path.unlink()
            return report
        return None


class NpyClient:
    """Blocking npy-over-HTTP client (the ``SegmentClient`` npy transport).

    ``fresh`` opens one connection per request; otherwise the connection
    is kept alive.  With ``spans`` a list, each request appends
    ``(name, start, end)`` tuples for ``client.encode``, ``client.request``
    and ``client.decode``.
    """

    def __init__(self, port: int, fresh: bool = False, timeout: float = 30.0):
        self.port = port
        self.fresh = fresh
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def segment(
        self,
        image: np.ndarray,
        stream_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        spans: Optional[list] = None,
    ) -> Tuple[np.ndarray, Dict[str, str], int]:
        """Labels, response headers and wire bytes (request + response body)."""
        t0 = clock()
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(image), allow_pickle=False)
        body = buffer.getvalue()
        headers = {"Content-Type": "application/x-npy", "Accept": "application/x-npy"}
        if stream_id is not None:
            headers["X-Repro-Stream-Id"] = stream_id
        if trace_id is not None:
            headers["X-Repro-Trace-Id"] = trace_id
        t1 = clock()
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)
        try:
            self._conn.request("POST", "/v1/segment", body=body, headers=headers)
            response = self._conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        t2 = clock()
        if response.status != 200:
            self.close()
            raise HttpStatusError(response.status, payload)
        labels = np.load(io.BytesIO(payload), allow_pickle=False)
        t3 = clock()
        if self.fresh or response.getheader("Connection", "").lower() == "close":
            self.close()
        if spans is not None:
            spans += [("client.encode", t0, t1), ("client.request", t1, t2),
                      ("client.decode", t2, t3)]
        return labels, {k.lower(): v for k, v in response.getheaders()}, len(body) + len(payload)

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            payload = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(payload.decode("utf-8"))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

"""Layered serving benchmark of the IQFT segmentation stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-rgb --seed 1 --seconds 10 --trace 0

Workloads (parameters in ``workloads.py``, repeated in ``BENCHMARK.json``):
``cold-rgb`` (a 2-worker fleet) and ``stream-delta`` drive the real
``repro-segment serve --http`` process over loopback with ``.npy`` bodies
both ways; ``openloop-inproc`` drives an ``AsyncSegmentationService`` built
by ``WorkerSpec(...).build_service()`` with Poisson arrivals.  Every server
runs the CLI defaults (batch 16, wait 10 ms, queue 64, cache 256,
``--adaptive``, ``--shm-mb 64``, ``iqft-rgb``, θ = π).

``--trace 0`` sets up several times (reporting the median set-up time),
measures one closed- or open-loop phase with server tracing off and prints
the end-to-end metrics.  ``--trace 1`` runs an untraced and a traced phase
against one server, pulls the server's ``repro-trace/v1`` spans once at
the end, joins them with the benchmark's own client spans, prints the layer
report, replays the inputs through each layer's public function (the
isolation pass) and prints the per-layer metrics.  Every answer is checked
bit for bit against references computed off the clock.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

``--inject-delay-ms D`` (``openloop-inproc`` only) wraps the service's cache
so each request's admission probe sleeps D ms: the sensitivity check for
the layer report and for ``compare.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    TRACE_RING,
    HttpStatusError,
    NpyClient,
    ServerProcess,
    become_subreaper,
    clock,
    fresh_dir,
    reap_children,
    rss_mb,
    stop_resource_tracker,
)
from layers import first_probe_tier, format_table, request_breakdown, summarize
from workloads import WORKLOADS, Inputs, Workload, make_inputs

SETUP_REPEATS = 3  # set-ups per end-to-end run, reported as their median
WINDOWS = 5  # timing metrics are medians over this many equal slices of a run
SHED_STATUSES = (429, 503, 504)
FAST_PATHS = ("palette-lut", "lut", "tiled", "direct", "delta", "delta-cold")


def more_setups(setups: List[float]) -> bool:
    return len(setups) < SETUP_REPEATS


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


# --------------------------------------------------------------------------- #
# HTTP workloads
# --------------------------------------------------------------------------- #
def http_request(client: NpyClient, inputs: Inputs, refs, i: int, traced: bool) -> dict:
    """Send request ``i``; one record with its outcome and timings."""
    index, image, stream = inputs.request(i)
    trace_id = f"{i:016x}" if traced else None
    spans: Optional[list] = [] if traced else None
    record: dict = {"index": index, "trace_id": trace_id}
    start = clock()
    try:
        labels, headers, wire = client.segment(image, stream, trace_id, spans)
    except HttpStatusError as exc:
        record.update(ok=False, error="shed" if exc.status in SHED_STATUSES else "error")
    except (OSError, ValueError, http.client.HTTPException) as exc:  # transport or body
        record.update(ok=False, error=type(exc).__name__)
    end = clock()  # the answer is in hand; checking it is not part of its latency
    if "ok" not in record:
        ok = refs.check(index, labels)
        record.update(
            ok=ok,
            error=None if ok else "mismatch",
            wire=wire,
            fast_path=headers.get("x-repro-fast-path"),
            cache_hit=headers.get("x-repro-cache-hit") == "true",
            coalesced=headers.get("x-repro-coalesced") == "true",
        )
    record["lat_ms"] = (end - start) * 1e3
    if traced:
        spans.append(("client.total", start, end))
        record["spans"] = spans
    record["start"] = start
    return record


def closed_loop(port: int, workload: Workload, inputs: Inputs, refs, first: int,
                seconds: float, traced: bool) -> Tuple[List[dict], int, float]:
    """One client, next request as soon as the previous answer is checked."""
    client = NpyClient(port, fresh=workload.fresh_connection)
    records: List[dict] = []
    i = first
    began = clock()
    previous_end = began
    try:
        while clock() - began < seconds:
            record = http_request(client, inputs, refs, i, traced)
            record["lag_ms"] = (record["start"] - previous_end) * 1e3
            previous_end = clock()
            records.append(record)
            i += 1
    finally:
        client.close()
    return records, i, clock() - began


def checked(refs, index: int, labels: np.ndarray) -> dict:
    ok = refs.check(index, labels)
    return {"index": index, "ok": ok, "error": None if ok else "mismatch"}


def launch(root: Path, work: Path, workload: Workload, inputs: Inputs, refs):
    """Start a server and make it ready: (server, seconds, set-up records)."""
    start = clock()
    server = ServerProcess(root, work, workload.workers)
    try:
        server.wait_ready()
        client = NpyClient(server.port, fresh=True)
        records = []
        for index in inputs.warmup:
            labels, _, _ = client.segment(inputs.images[index])
            records.append(checked(refs, index, labels))
    except BaseException:
        server.stop()
        raise
    return server, clock() - start, records


def pull_traces(port: int, workers: int, wanted: set) -> Dict[str, dict]:
    """The server's retained traces for ``wanted`` ids, pulled once per worker.

    A fleet's public port lands each fresh connection on one worker, so the
    listing is fetched until every wanted id was seen (or attempts run out).
    """
    found: Dict[str, dict] = {}
    client = NpyClient(port)
    for _ in range(1 if workers == 1 else 48):
        for document in client.get_json(f"/v1/traces?slowest={TRACE_RING}")["traces"]:
            if document["trace_id"] in wanted:
                found[document["trace_id"]] = document
        if len(found) == len(wanted):
            break
    return found


def run_http(args, root: Path, work: Path, workload: Workload, inputs: Inputs, refs) -> dict:
    out: dict = {"phases": []}
    if not args.trace:
        setups: List[float] = []
        while True:
            k = len(setups)
            server, seconds, setup_records = launch(root, work, workload, inputs, refs)
            setups.append(seconds)
            out["phases"].append((f"setup{k}", setup_records))
            if not more_setups(setups):
                break
            server.stop()
        try:
            records, _, elapsed = closed_loop(
                server.port, workload, inputs, refs, 0, args.seconds, False
            )
            out["server_rss_mb"] = rss_mb(server.pids())
        finally:
            server.stop()
        out["phases"].append(("measure", records))
        out["setup_s"] = statistics.median(setups)
        out["measured"] = (records, records[0]["start"], elapsed)
        return out

    server, _, setup_records = launch(root, work, workload, inputs, refs)
    out["phases"].append(("setup", setup_records))
    try:
        plain, i, plain_s = closed_loop(server.port, workload, inputs, refs, 0, args.seconds, False)
        traced, _, traced_s = closed_loop(
            server.port, workload, inputs, refs, i, args.seconds, True
        )
        wanted = {r["trace_id"] for r in traced if r["ok"]}
        documents = pull_traces(server.port, workload.workers, wanted)
    finally:
        report = server.stop()
    out["phases"] += [("untraced", plain), ("traced", traced)]
    out.update(plain=(plain, plain_s), traced=(traced, traced_s), documents=documents,
               report=report or {})
    return out


# --------------------------------------------------------------------------- #
# in-process open loop
# --------------------------------------------------------------------------- #
class ProbeDelayCache:
    """Sensitivity check: each request's admission cache probe sleeps longer.

    The service probes a key at admission and again, from the batch worker,
    just before computing it.  Only the first of each pair sleeps, so the
    delay lands on every request once and never on the serial batch path.
    """

    supports_trace = True

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s
        self._pending: set = set()
        self._lock = threading.Lock()

    def get(self, key, trace=None):
        with self._lock:
            admission = key not in self._pending
            if admission:
                self._pending.add(key)
            else:
                self._pending.discard(key)
        if admission:
            time.sleep(self._delay_s)
        return self._inner.get(key, trace=trace) if trace is not None else self._inner.get(key)

    def put(self, key, value):
        self._inner.put(key, value)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def build_service(delay_ms: float):
    from repro.serve import WorkerSpec

    spec = WorkerSpec(  # the CLI's `serve --http` defaults
        queue_size=64,
        adaptive=True,
        shm_bytes=64 * 1024 * 1024,
        trace_sample_rate=0.0,
        trace_ring=TRACE_RING,
    )
    service = spec.build_service()
    if delay_ms > 0:
        service.cache = ProbeDelayCache(service.cache, delay_ms / 1e3)
    return service


async def open_loop(service, inputs: Inputs, refs, first: int, offsets: np.ndarray,
                    traced: bool) -> Tuple[List[dict], float, float]:
    """Poisson arrivals at their due times; latency counts from the due time.

    Returns the records, the seconds from the schedule's start to the last
    answer, and the schedule's start.
    """
    from repro.errors import DeadlineExceededError, QuotaExceededError, ServiceOverloadedError
    from repro.obs import Trace

    async def one(i: int, due: float, sent: float, trace) -> dict:
        index, image, _ = inputs.request(i)
        record: dict = {"index": index, "start": due, "lag_ms": (sent - due) * 1e3}
        try:
            kwargs = {"trace": trace} if trace is not None else {}
            result = await service.submit(image, priority=str(inputs.lanes[i]), block=False,
                                          **kwargs)
        except (ServiceOverloadedError, DeadlineExceededError, QuotaExceededError):
            record.update(ok=False, error="shed")
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none ends the run
            record.update(ok=False, error=type(exc).__name__)
        done = clock()
        if "ok" not in record:
            seg = result.segmentation
            ok = refs.check(index, seg.labels)
            record.update(
                ok=ok,
                error=None if ok else "mismatch",
                wire=image.nbytes + seg.labels.nbytes,
                fast_path=seg.extras.get("fast_path"),
                cache_hit=bool(seg.extras.get("cache_hit")),
                coalesced=bool(seg.extras.get("coalesced")),
            )
        record["lat_ms"] = (done - due) * 1e3
        if trace is not None:
            record["trace_id"] = trace.trace_id
            record["spans"] = [("client.total", due, done), ("load.lag", due, sent),
                               ("client.submit", sent, done)]
            record["document"] = {
                "trace_id": trace.trace_id,
                "spans": [
                    {"name": name, "start": start, "duration_seconds": end - start,
                     "fields": fields}
                    for name, _, start, end, fields in trace.spans
                ],
            }
        return record

    tasks = []
    began = clock() + 0.01
    for j, offset in enumerate(offsets):
        due = began + float(offset)
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        i = first + j
        trace = Trace(f"{i:016x}", clock=clock) if traced else None
        tasks.append(asyncio.ensure_future(one(i, due, clock(), trace)))
    records = list(await asyncio.gather(*tasks))
    return records, clock() - began, began


async def setup_inproc(inputs: Inputs, refs, delay_ms: float):
    start = clock()
    service = build_service(delay_ms)
    await service.__aenter__()
    records = []
    for index in inputs.warmup:
        result = await service.submit(inputs.images[index])
        records.append(checked(refs, index, result.segmentation.labels))
    return service, clock() - start, records


async def run_inproc_async(args, inputs: Inputs, refs) -> dict:
    out: dict = {"phases": []}
    offsets = inputs.arrivals
    if not args.trace:
        setups: List[float] = []
        while True:
            service, seconds, setup_records = await setup_inproc(inputs, refs, args.inject_delay_ms)
            out["phases"].append((f"setup{len(setups)}", setup_records))
            setups.append(seconds)
            if not more_setups(setups):
                break
            await service.aclose()
        try:
            records, elapsed, began = await open_loop(service, inputs, refs, 0, offsets, False)
            out["server_rss_mb"] = rss_mb([os.getpid()])
        finally:
            await service.aclose()
        out["phases"].append(("measure", records))
        out["setup_s"] = statistics.median(setups)
        out["measured"] = (records, began, elapsed)
        return out

    service, _, setup_records = await setup_inproc(inputs, refs, args.inject_delay_ms)
    out["phases"].append(("setup", setup_records))
    first_half = offsets[offsets < args.seconds]
    second_half = offsets[offsets >= args.seconds] - args.seconds
    try:
        plain, plain_s, _ = await open_loop(service, inputs, refs, 0, first_half, False)
        traced, traced_s, _ = await open_loop(
            service, inputs, refs, len(first_half), second_half, True
        )
    finally:
        await service.aclose()
    documents = {r["trace_id"]: r["document"] for r in traced}
    out["phases"] += [("untraced", plain), ("traced", traced)]
    out.update(plain=(plain, plain_s), traced=(traced, traced_s), documents=documents, report={})
    return out


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(workload: Workload, out: dict) -> Dict[str, float]:
    """End-to-end metrics; rates and percentiles are medians over slices.

    The run is cut into :data:`WINDOWS` equal slices of time and each
    timing metric is the median of its per-slice values (latency by send or
    due time, answers by completion time), so a stall of the host during
    one slice does not move the run's figure.
    """
    records, origin, span = out["measured"]
    width = span / WINDOWS
    slices: List[List[float]] = [[] for _ in range(WINDOWS)]
    answers = [0] * WINDOWS
    for r in records:
        if r["ok"]:
            slices[min(WINDOWS - 1, int((r["start"] - origin) / width))].append(r["lat_ms"])
            done = int((r["start"] + r["lat_ms"] / 1e3 - origin) / width)
            if done < WINDOWS:
                answers[done] += 1
    good = [r for r in records if r["ok"]]
    attempted = max(1, len(records))
    return {
        "setup_s": out["setup_s"],
        "throughput_rps": statistics.median(count / width for count in answers),
        "latency_p50_ms": statistics.median(percentile(lat, 50) for lat in slices),
        "latency_p90_ms": statistics.median(percentile(lat, 90) for lat in slices),
        "slo_met_frac": sum(r["lat_ms"] <= workload.latency_limit_ms for r in good) / attempted,
        "answered_frac": len(good) / attempted,
        "server_rss_mb": out["server_rss_mb"],
        "wire_kb_per_req": float(np.mean([r["wire"] for r in good])) / 1024.0 if good else 0.0,
    }


def per_layer(workload: Workload, out: dict, isolation: Dict[str, float]):
    """Per-layer metrics of a traced run, plus the layer table text."""
    traced, traced_s = out["traced"]
    plain, plain_s = out["plain"]
    documents = out["documents"]
    joined = [r for r in traced if r["ok"] and r.get("trace_id") in documents]
    in_process = workload.transport == "inproc"
    breakdowns = [request_breakdown(r["spans"], documents[r["trace_id"]], in_process)
                  for r in joined]
    latencies = [r["lat_ms"] for r in joined]
    means, rows = summarize(breakdowns, latencies)
    metrics: Dict[str, float] = dict(means)
    metrics.update(isolation)

    n = max(1, len(joined))
    tiers = Counter(first_probe_tier(documents[r["trace_id"]]) for r in joined)
    for tier in ("l1", "shm", "l2"):
        metrics[f"cache.{tier}_hit_frac"] = tiers.get(tier, 0) / n
    batch_sizes = [
        span["fields"].get("batch_size", 1)
        for r in joined
        for span in documents[r["trace_id"]]["spans"]
        if span["name"] == "batch.assemble"
    ]
    # Each request of a batch of b reports b: batch-weighted mean = 1 / mean(1/b).
    metrics["aio.batch_size_mean"] = (
        len(batch_sizes) / sum(1.0 / b for b in batch_sizes) if batch_sizes else 0.0
    )
    attempted = max(1, len(traced))
    answered = [r for r in traced if r["ok"]]
    metrics["aio.shed_frac"] = sum(r.get("error") == "shed" for r in traced) / attempted
    metrics["aio.coalesced_frac"] = sum(r["coalesced"] for r in answered) / max(1, len(answered))
    computed = Counter(
        r["fast_path"] for r in answered if not r["cache_hit"] and not r["coalesced"]
    )
    for path in FAST_PATHS:
        metrics[f"engine.fast_path.{path}"] = float(computed.get(path, 0))
    reused = recomputed = frames = 0
    for r in joined:
        for span in documents[r["trace_id"]]["spans"]:
            fields = span.get("fields", {})
            if span["name"] == "engine.compute" and "tiles_recomputed" in fields:
                frames += 1
                reused += fields["tiles_reused"]
                recomputed += fields["tiles_recomputed"]
    metrics["delta.reuse_ratio"] = reused / (reused + recomputed) if reused + recomputed else 0.0
    metrics["delta.tiles_recomputed_per_frame"] = recomputed / frames if frames else 0.0

    finals = out["report"].get("metrics", {}).get("workers") or []
    completed = [float(w.get("metrics", {}).get("completed", 0)) for w in finals]
    metrics["fleet.worker_share_max"] = max(completed) / sum(completed) if sum(completed) else 1.0
    metrics["fleet.restarts"] = float(out["report"].get("fleet", {}).get("restarts", 0))
    plain_rate = sum(r["ok"] for r in plain) / plain_s
    traced_rate = len(answered) / traced_s
    metrics["obs.trace_overhead_frac"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
    metrics["load.gen_lag_p90_ms"] = percentile([r["lag_ms"] for r in traced], 90)
    table = format_table(
        workload.name, rows, percentile(latencies, 50), means["client.latency_ms"], len(joined)
    )
    check = sum(row[2] for row in rows) - means["client.latency_ms"]
    table += f"\n  self times + unattributed - client latency = {check:+.6f} ms (mean)"
    return metrics, table


# --------------------------------------------------------------------------- #
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay-ms", type=float, default=0.0,
                        help="openloop-inproc only: extra admission-probe latency per request")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # SIGTERM unwinds like an exception, so every server is drained and stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    become_subreaper()
    try:
        return run(argv)
    finally:
        # Nothing this run started may outlive it.
        stop_resource_tracker()
        reap_children()


def run(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    for needed in ("src/repro/__init__.py", "benchmarks/loadgen.py", "BENCHMARK.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found under {root}; run from a full checkout",
                  file=sys.stderr)
            return 2
    workload = WORKLOADS[args.workload]
    if args.inject_delay_ms and workload.transport != "inproc":
        print("error: --inject-delay-ms applies to openloop-inproc only", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    horizon = args.seconds * (2 if args.trace else 1)
    inputs = make_inputs(workload, args.seed, horizon)
    from isolation import References, isolation_pass

    refs = References(workload, inputs)
    work = fresh_dir(root / ".perfbench_work" / f"{workload.name}-{os.getpid()}")
    try:
        if workload.transport == "http":
            out = run_http(args, root, work, workload, inputs, refs)
        else:
            out = asyncio.run(run_inproc_async(args, inputs, refs))
        if args.trace:
            isolation = isolation_pass(workload, inputs, work)
            values, table = per_layer(workload, out, isolation)
            print(table)
            spans_out = root / ".perfbench_out"
            spans_out.mkdir(exist_ok=True)
            dump = [
                {"trace_id": r.get("trace_id"), "client_spans": r.get("spans"),
                 "server": out["documents"].get(r.get("trace_id"))}
                for r in out["traced"][0]
            ]
            (spans_out / f"{workload.name}-seed{args.seed}-spans.json").write_text(json.dumps(dump))
        else:
            values = end_to_end(workload, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs.verify_exact(inputs, args.seed)

    attempted = failed = 0
    for phase, records in out["phases"]:
        ok = sum(r["ok"] for r in records)
        print(f"phase {phase}: sent {len(records)}, succeeded {ok}, failed {len(records) - ok}")
        if phase in ("measure", "untraced", "traced"):
            attempted += len(records)
            failed += len(records) - ok
    mismatches = sum(r.get("error") == "mismatch" for _, rs in out["phases"] for r in rs)
    print(f"exactness: {refs.exact_checked} pool items matched the exact matrix path "
          f"({refs.exact_mismatches} mismatches); {mismatches} answers differed from references")
    correct = refs.exact_mismatches == 0 and mismatches == 0 and attempted > failed
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            raise RuntimeError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']}: {values[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

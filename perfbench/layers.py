"""Per-request self time by layer, from the benchmark's and the server's spans.

Server spans are recorded flat today (most have ``parent=None``) and some
overlap without nesting (``queue.wait`` covers the admission cache probe and
overlaps ``batch.assemble``).  Self time is therefore computed by interval
containment over the whole timeline: every instant of a request belongs to
exactly one span, the innermost one covering it, where "inner" is the
span's nesting rank below and, on a tie, the shorter span.  Self times of
one request thus partition the time its spans cover.

A request's client-observed latency is split as::

    latency = load lag + client codec + wire + server self times + unattributed

``http.wire`` is the client's request span minus the server's ``request``
span; ``unattributed`` is client time no span covers.  The sum is exact.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Nesting rank of each span (higher = inner).  Unknown spans rank 1.
RANK = {
    "client.total": -2,
    "load.lag": -1,
    "client.encode": -1,
    "client.request": -1,
    "client.decode": -1,
    "client.submit": -1,
    "request": 0,
    "ingress.parse": 1,
    "service.submit": 1,
    "response.encode": 1,
    "queue.wait": 2,
    "engine.compute": 2,
    "scoring": 2,
    "batch.assemble": 3,
    "cache.probe": 3,
    "cache.memory": 4,
    "cache.l1": 4,
    "cache.shm": 4,
    "cache.l2": 4,
}

#: Span name -> per-layer metric its self time feeds.
SPAN_METRIC = {
    "load.lag": "load.lag_ms",
    "client.encode": "client.encode_ms",
    "client.decode": "client.decode_ms",
    "client.request": "http.wire_ms",
    "request": "http.request_ms",
    "ingress.parse": "http.parse_ms",
    "response.encode": "http.encode_ms",
    "client.submit": "aio.dispatch_ms",
    "service.submit": "aio.dispatch_ms",
    "queue.wait": "aio.queue_wait_ms",
    "batch.assemble": "aio.batch_window_ms",
    "scoring": "aio.scoring_ms",
    "cache.probe": "cache.probe_ms",
    "cache.memory": "cache.probe_ms",
    "cache.l1": "cache.probe_ms",
    "cache.shm": "cache.probe_ms",
    "cache.l2": "cache.probe_ms",
    "engine.compute": "engine.compute_ms",
    "client.total": "unattributed_ms",
}

#: Layer rows of the report, each the sum of its metrics.
LAYERS = {
    "load": ["load.lag_ms"],
    "client": ["client.encode_ms", "client.decode_ms"],
    "http": ["http.wire_ms", "http.parse_ms", "http.request_ms", "http.encode_ms"],
    "aio": ["aio.dispatch_ms", "aio.queue_wait_ms", "aio.batch_window_ms", "aio.scoring_ms"],
    "cache": ["cache.probe_ms"],
    "engine": ["engine.compute_ms"],
    "unattributed": ["unattributed_ms"],
}

TIER_NAMES = {"cache.memory": "l1", "cache.l1": "l1", "cache.shm": "shm", "cache.l2": "l2"}

SELF_METRICS = sorted({metric for metrics in LAYERS.values() for metric in metrics})

Span = Tuple[str, float, float]


def self_times(spans: Sequence[Span], within: Tuple[float, float]) -> Dict[str, float]:
    """Seconds of each span name's time not covered by an inner span.

    Spans are clipped to ``within`` (the request's own interval): a batch
    window opened by an earlier request starts before this one arrived.
    """
    low, high = within
    spans = [(name, max(start, low), min(end, high)) for name, start, end in spans]
    spans = [span for span in spans if span[2] > span[1]]
    edges = sorted({t for _, start, end in spans for t in (start, end)})
    out: Dict[str, float] = {}
    for left, right in zip(edges, edges[1:]):
        mid = 0.5 * (left + right)
        covering = [s for s in spans if s[1] <= mid < s[2]]
        if not covering:
            continue
        name = max(covering, key=lambda s: (RANK.get(s[0], 1), s[1] - s[2]))[0]
        out[name] = out.get(name, 0.0) + (right - left)
    return out


def server_spans(document: dict) -> List[Span]:
    """A ``repro-trace/v1`` document's spans as ``(name, start, end)``."""
    return [
        (s["name"], float(s["start"]), float(s["start"]) + float(s["duration_seconds"]))
        for s in document.get("spans", [])
    ]


def request_breakdown(
    client: Sequence[Span], server: Optional[dict], in_process: bool
) -> Dict[str, float]:
    """Per-metric self time (ms) of one request; sums to its latency.

    ``client`` holds the benchmark's spans, including ``client.total`` (due
    time or send time to answer).  Over HTTP the server document is timed
    on the server's own clock; only its ``request`` span's duration is set
    against the client's request span.  In process, server spans share the
    benchmark's clock and nest directly under ``client.submit``.
    """
    spans = list(client)
    if in_process and server is not None:
        spans += server_spans(server)
    total = next((start, end) for name, start, end in client if name == "client.total")
    times = self_times(spans, total)
    metrics: Dict[str, float] = {}
    for name, seconds in times.items():
        metric = SPAN_METRIC.get(name, "unattributed_ms")
        metrics[metric] = metrics.get(metric, 0.0) + seconds * 1e3
    if not in_process and server is not None:
        inner = server_spans(server)
        low, high = next((start, end) for name, start, end in inner if name == "request")
        metrics["http.wire_ms"] = metrics.get("http.wire_ms", 0.0) - (high - low) * 1e3
        for name, seconds in self_times(inner, (low, high)).items():
            metric = SPAN_METRIC.get(name, "unattributed_ms")
            metrics[metric] = metrics.get(metric, 0.0) + seconds * 1e3
    return metrics


def first_probe_tier(server: Optional[dict]) -> Optional[str]:
    """Which tier answered the admission probe: ``l1``/``shm``/``l2`` or None."""
    spans = server.get("spans", []) if server is not None else []
    probes = [s for s in spans if s["name"] == "cache.probe"]
    if not probes:
        return None
    first = min(probes, key=lambda s: s["start"])
    low, high = first["start"], first["start"] + first["duration_seconds"]
    for span in sorted(spans, key=lambda s: s["start"]):
        if span["name"] in TIER_NAMES and low <= span["start"] <= high:
            if span.get("fields", {}).get("hit"):
                return TIER_NAMES[span["name"]]
    return None


def summarize(breakdowns: Iterable[Dict[str, float]], latencies: Sequence[float]):
    """Mean self time per metric plus the layer table rows.

    Returns ``(means, rows)``: ``means`` maps every metric in
    :data:`SELF_METRICS` (plus ``client.latency_ms``) to its mean over
    requests; ``rows`` are ``(layer, p50_ms, mean_ms, share)``.
    """
    breakdowns = list(breakdowns)
    n = max(1, len(breakdowns))
    means = {m: sum(b.get(m, 0.0) for b in breakdowns) / n for m in SELF_METRICS}
    mean_latency = float(np.mean(latencies)) if len(latencies) else 0.0
    means["client.latency_ms"] = mean_latency
    rows = []
    for layer, metrics in LAYERS.items():
        per_request = [sum(b.get(m, 0.0) for m in metrics) for b in breakdowns] or [0.0]
        mean = sum(means[m] for m in metrics)
        share = mean / mean_latency if mean_latency else 0.0
        rows.append((layer, float(np.median(per_request)), mean, share))
    return means, rows


def format_table(workload: str, rows, latency_p50: float, latency_mean: float, n: int) -> str:
    lines = [
        f"layer report: {workload} (traced phase, {n} requests; client latency "
        f"p50 {latency_p50:.3f} ms, mean {latency_mean:.3f} ms)",
        f"  {'layer':<13}{'p50 self ms':>12}{'mean self ms':>14}{'share':>8}",
    ]
    for layer, p50, mean, share in rows:
        lines.append(f"  {layer:<13}{p50:>12.3f}{mean:>14.3f}{share:>8.1%}")
    total = sum(row[2] for row in rows)
    share = total / latency_mean if latency_mean else 0.0
    lines.append(f"  {'sum':<13}{'':>12}{total:>14.3f}{share:>8.1%}")
    return "\n".join(lines)

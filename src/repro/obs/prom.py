"""Prometheus text exposition for the serve metrics tree.

:func:`render_prometheus` walks the dict returned by
``AsyncSegmentationService.metrics()`` / ``ServeFleet.metrics()["merged"]``
(and the sync service's subset of it) and renders the classic Prometheus
text format — counters, gauges, and the mergeable log-spaced latency
sketches as *native histograms* (cumulative ``le`` buckets, ``_sum``,
``_count``).  The slow-request exemplar (the trace ID of the slowest recent
request) is attached as a separate ``repro_request_latency_exemplar_seconds``
gauge with a ``trace_id`` label, which stays valid classic exposition (no
OpenMetrics extensions required).

:func:`validate_exposition` is the checker CI runs against a live scrape:
``python -m repro.obs.prom <file|->`` exits non-zero listing every violation.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["render_prometheus", "validate_exposition", "main"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Writer:
    """Accumulates one metric family at a time (HELP/TYPE then samples)."""

    def __init__(self, namespace: str):
        self.namespace = namespace
        self.lines: List[str] = []

    def family(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: Iterable[Tuple[Dict[str, str], float]],
    ) -> None:
        rows = [(labels, value) for labels, value in samples if value is not None]
        if not rows:
            return
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        for labels, value in rows:
            self.lines.append(_sample_line(full, labels, value))

    def histogram(
        self,
        name: str,
        help_text: str,
        sketches: Iterable[Tuple[Dict[str, str], Mapping[str, Any]]],
    ) -> None:
        """Render mergeable latency sketches as one histogram family."""
        rows = [(labels, sketch) for labels, sketch in sketches if _is_sketch(sketch)]
        if not rows:
            return
        full = f"{self.namespace}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} histogram")
        for labels, sketch in rows:
            bounds = [float(b) for b in sketch["bounds"]]
            counts = [int(c) for c in sketch["counts"]]
            cumulative = 0
            for bound, count in zip(bounds, counts):
                cumulative += count
                bucket = dict(labels)
                bucket["le"] = _format_value(bound)
                self.lines.append(_sample_line(f"{full}_bucket", bucket, cumulative))
            overflow = counts[-1] if len(counts) > len(bounds) else 0
            total = int(sketch.get("count", cumulative + overflow))
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            self.lines.append(_sample_line(f"{full}_bucket", inf_labels, total))
            total_sum = float(sketch.get("sum_seconds", 0.0))
            self.lines.append(_sample_line(f"{full}_sum", labels, total_sum))
            self.lines.append(_sample_line(f"{full}_count", labels, total))

    def render(self) -> str:
        return "\n".join(self.lines) + "\n" if self.lines else ""


def _sample_line(name: str, labels: Dict[str, str], value: float) -> str:
    if labels:
        body = ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in sorted(labels.items())
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _is_sketch(sketch: Any) -> bool:
    return (
        isinstance(sketch, Mapping)
        and isinstance(sketch.get("bounds"), (list, tuple))
        and isinstance(sketch.get("counts"), (list, tuple))
        and len(sketch["counts"]) >= len(sketch["bounds"])
    )


def _num(tree: Mapping[str, Any], key: str) -> Optional[float]:
    value = tree.get(key)
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


def render_prometheus(
    metrics: Mapping[str, Any],
    namespace: str = "repro",
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a service/fleet metrics tree in Prometheus text format.

    ``extra_labels`` (e.g. ``{"worker": "3"}``) are attached to every sample
    — the fleet endpoint uses this to expose per-worker families alongside
    the merged view.
    """
    base = dict(extra_labels or {})
    out = _Writer(namespace)

    def counter(key: str, name: str, help_text: str, tree: Mapping[str, Any] = metrics) -> None:
        out.family(name, "counter", help_text, [(base, _num(tree, key))])

    def gauge(key: str, name: str, help_text: str, tree: Mapping[str, Any] = metrics) -> None:
        out.family(name, "gauge", help_text, [(base, _num(tree, key))])

    counter("requests", "requests_total", "Requests submitted.")
    counter("completed", "completed_total", "Requests completed successfully.")
    counter("failed", "failed_total", "Requests that raised.")
    counter("cancelled", "cancelled_total", "Requests cancelled by the caller.")
    counter("coalesced", "coalesced_total", "Requests coalesced onto an in-batch twin.")
    counter("quota_rejections", "quota_rejections_total", "Requests rejected by per-client quotas.")
    gauge("in_flight", "in_flight", "Requests currently in flight.")
    gauge("queue_depth", "queue_depth", "Requests queued across lanes.")
    gauge("uptime_seconds", "uptime_seconds", "Service uptime.")
    gauge("throughput_rps", "throughput_rps", "Completed requests per second since start.")
    counter("batches", "batches_total", "Micro-batches processed.")
    gauge("mean_batch_size", "mean_batch_size", "Mean micro-batch size.")
    gauge("ewma_request_seconds", "ewma_request_seconds", "EWMA of per-request service time.")
    gauge("workers_scraped", "fleet_workers_scraped", "Workers merged into this snapshot.")
    counter("scrape_failures", "fleet_scrape_failures_total", "Admin scrapes failed and skipped.")

    shed = metrics.get("shed")
    if isinstance(shed, Mapping):
        out.family(
            "shed_total",
            "counter",
            "Requests shed, by reason.",
            [({**base, "reason": reason}, _num(shed, reason)) for reason in sorted(shed)],
        )

    lanes = metrics.get("lanes")
    if isinstance(lanes, Mapping):
        lane_rows = sorted(
            (str(name), stats) for name, stats in lanes.items() if isinstance(stats, Mapping)
        )
        for key, name, kind, help_text in (
            ("depth", "lane_depth", "gauge", "Queued requests in this lane."),
            ("submitted", "lane_submitted_total", "counter", "Requests admitted to this lane."),
            ("completed", "lane_completed_total", "counter", "Requests completed from this lane."),
            ("shed_admission", "lane_shed_admission_total", "counter", "Shed at admission."),
            ("shed_expired", "lane_shed_expired_total", "counter", "Shed by in-queue expiry."),
            ("weight", "lane_weight", "gauge", "Drain weight of this lane."),
        ):
            out.family(
                name,
                kind,
                help_text,
                [({**base, "lane": lane}, _num(stats, key)) for lane, stats in lane_rows],
            )
        out.histogram(
            "lane_latency_seconds",
            "End-to-end request latency per lane.",
            [
                ({**base, "lane": lane}, stats.get("latency_sketch"))
                for lane, stats in lane_rows
            ],
        )
        lane_delta_rows = [
            (lane, stats["delta"])
            for lane, stats in lane_rows
            if isinstance(stats.get("delta"), Mapping)
        ]
        for key, name, help_text in (
            ("frames", "lane_delta_frames_total", "Stream frames computed via the delta path."),
            ("tiles_reused", "lane_delta_tiles_reused_total", "Delta tiles reused, not recomputed."),
            (
                "tiles_recomputed",
                "lane_delta_tiles_recomputed_total",
                "Delta tiles re-segmented because their content changed.",
            ),
        ):
            out.family(
                name,
                "counter",
                help_text,
                [({**base, "lane": lane}, _num(delta, key)) for lane, delta in lane_delta_rows],
            )

    out.histogram(
        "request_latency_seconds",
        "End-to-end request latency.",
        [(base, metrics.get("latency_sketch"))],
    )

    exemplar = metrics.get("latency_exemplar")
    if isinstance(exemplar, Mapping) and exemplar.get("trace_id"):
        out.family(
            "request_latency_exemplar_seconds",
            "gauge",
            "Latency of the slowest recent traced request (trace_id keys the flight recorder).",
            [({**base, "trace_id": str(exemplar["trace_id"])}, _num(exemplar, "seconds"))],
        )

    # Active array backend(s): one info-style sample per backend serving
    # traffic — a single service reports one, a mixed fleet several.
    backends = metrics.get("backends")
    if not isinstance(backends, (list, tuple)):
        backends = [metrics.get("backend")] if metrics.get("backend") else []
    if backends:
        out.family(
            "backend_info",
            "gauge",
            "Array backends actively serving (1 per active backend).",
            [({**base, "backend": str(name)}, 1) for name in backends],
        )

    cache = metrics.get("cache")
    if isinstance(cache, Mapping):
        _render_cache(out, base, cache)

    adaptive = metrics.get("adaptive")
    if isinstance(adaptive, Mapping):
        out.family(
            "adaptive_ticks_total",
            "counter",
            "Adaptive controller ticks.",
            [(base, _num(adaptive, "ticks"))],
        )
        out.family(
            "adaptive_adjustments_total",
            "counter",
            "Adaptive controller config changes applied.",
            [
                ({**base, "kind": kind}, _num(adaptive, f"{kind}_adjustments"))
                for kind in ("batch", "weight")
            ],
        )
        out.family(
            "adaptive_batch_size",
            "gauge",
            "Current adaptive max batch size.",
            [(base, _num(adaptive, "max_batch_size"))],
        )
        floors = adaptive.get("lane_floors")
        if isinstance(floors, Mapping):
            out.family(
                "adaptive_lane_floor",
                "gauge",
                "Configured minimum drain weight of this lane.",
                [({**base, "lane": str(lane)}, _num(floors, lane)) for lane in sorted(floors)],
            )

    delta = metrics.get("delta")
    if isinstance(delta, Mapping):
        for key, name, help_text in (
            ("frames", "delta_frames_total", "Stream frames computed via the dirty-tile path."),
            ("tiles_reused", "delta_tiles_reused_total", "Delta tiles reused, not recomputed."),
            (
                "tiles_recomputed",
                "delta_tiles_recomputed_total",
                "Delta tiles re-segmented because their content changed.",
            ),
        ):
            out.family(name, "counter", help_text, [(base, _num(delta, key))])
        for key, name, help_text in (
            ("reuse_ratio", "delta_reuse_ratio", "Reused tiles over all delta tiles processed."),
            ("streams", "delta_streams", "Temporal streams with a committed ancestor."),
            ("max_streams", "delta_max_streams", "Streams tracked before the oldest is dropped."),
        ):
            out.family(name, "gauge", help_text, [(base, _num(delta, key))])

    trace = metrics.get("trace")
    if isinstance(trace, Mapping):
        for key, name, help_text in (
            ("started", "trace_started_total", "Traces considered (one per request)."),
            ("recorded", "trace_recorded_total", "Traces recorded into the flight recorder."),
            ("sampled_out", "trace_sampled_out_total", "Traces skipped by sampling."),
        ):
            out.family(name, "counter", help_text, [(base, _num(trace, key))])
        for key, name, help_text in (
            ("retained", "trace_retained", "Traces currently retained in the ring."),
            ("ring_size", "trace_ring_size", "Capacity of the trace ring."),
            ("sample_rate", "trace_sample_rate", "Fraction of requests traced."),
        ):
            out.family(name, "gauge", help_text, [(base, _num(trace, key))])

    http = metrics.get("http")
    if isinstance(http, Mapping):
        out.family(
            "http_requests_total",
            "counter",
            "HTTP requests parsed.",
            [(base, _num(http, "requests"))],
        )
        responses = http.get("responses")
        if isinstance(responses, Mapping):
            out.family(
                "http_responses_total",
                "counter",
                "HTTP responses, by status code.",
                [
                    ({**base, "code": str(code)}, _num(responses, code))
                    for code in sorted(responses, key=str)
                ],
            )
        out.family(
            "http_inflight",
            "gauge",
            "HTTP requests currently being handled.",
            [(base, _num(http, "inflight"))],
        )
        out.family(
            "http_open_connections",
            "gauge",
            "Open HTTP connections.",
            [(base, _num(http, "open_connections"))],
        )
        out.family(
            "http_client_disconnects_total",
            "counter",
            "Requests abandoned by client disconnect.",
            [(base, _num(http, "client_disconnects"))],
        )
        out.family(
            "http_request_errors_total",
            "counter",
            "Requests whose handling raised unexpectedly (answered 500).",
            [(base, _num(http, "request_errors"))],
        )
        out.family(
            "http_draining",
            "gauge",
            "1 while the server is draining.",
            [(base, _num(http, "draining"))],
        )

    return out.render()


_CACHE_COUNTER_KEYS = (
    ("hits", "cache_hits_total", "Cache hits."),
    ("misses", "cache_misses_total", "Cache misses."),
    ("evictions", "cache_evictions_total", "Entries evicted (LRU)."),
    ("expirations", "cache_expirations_total", "Entries expired (TTL)."),
    ("stores", "cache_puts_total", "Entries written."),
    ("store_skips", "cache_rejects_total", "Writes rejected (oversized / contended)."),
    ("hit_bytes", "cache_hit_bytes_total", "Payload bytes returned by cache hits."),
    ("corrupt_dropped", "cache_corrupt_drops_total", "Corrupt entries dropped."),
    ("errors", "cache_errors_total", "Cache I/O errors."),
    ("evicted_bytes", "cache_evicted_bytes_total", "Payload bytes freed by eviction."),
    ("torn_reads", "cache_torn_reads_total", "Reads that lost a race with a writer (misses)."),
)
_CACHE_GAUGE_KEYS = (
    ("currsize", "cache_entries", "Entries currently cached."),
    ("entries", "cache_entries", "Entries currently cached."),
    ("maxsize", "cache_max_entries", "Cache capacity in entries."),
    ("max_entries", "cache_max_entries", "Cache capacity in entries."),
    ("size_bytes", "cache_size_bytes", "Bytes currently cached."),
    ("current_bytes", "cache_size_bytes", "Bytes currently cached."),
    ("max_bytes", "cache_max_bytes", "Cache capacity in bytes."),
    ("slot_count", "cache_slots", "Slots in the shared-memory ring."),
    ("slot_bytes", "cache_slot_bytes", "Bytes per shared-memory slot."),
    ("hit_rate", "cache_hit_rate", "Hit rate since start."),
)


def _render_cache(out: _Writer, base: Dict[str, str], cache: Mapping[str, Any]) -> None:
    """Cache stats, flat (single tier) or nested under tier names."""
    tiers: List[Tuple[str, Mapping[str, Any]]] = []
    nested = [
        (str(name), stats)
        for name, stats in cache.items()
        if isinstance(stats, Mapping) and any(k in stats for k, _, _ in _CACHE_COUNTER_KEYS)
    ]
    if nested:
        tiers.extend(sorted(nested))
    elif any(key in cache for key, _, _ in _CACHE_COUNTER_KEYS):
        tiers.append(("memory", cache))
    seen: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    help_for: Dict[str, str] = {}
    for tier, stats in tiers:
        for key, name, help_text in _CACHE_COUNTER_KEYS + _CACHE_GAUGE_KEYS:
            value = _num(stats, key)
            if value is None:
                continue
            help_for.setdefault(name, help_text)
            seen.setdefault(name, []).append(({**base, "tier": tier}, value))
    gauge_names = {name for _, name, _ in _CACHE_GAUGE_KEYS}
    for name, samples in seen.items():
        kind = "gauge" if name in gauge_names else "counter"
        out.family(name, kind, help_for[name], samples)


# ---------------------------------------------------------------------------
# Exposition validation (CI checker)
# ---------------------------------------------------------------------------


def validate_exposition(text: str) -> List[str]:
    """Return a list of format violations (empty when the text is valid)."""
    errors: List[str] = []
    typed: Dict[str, str] = {}
    histogram_state: Dict[str, Dict[str, Any]] = {}
    if text and not text.endswith("\n"):
        errors.append("exposition must end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            if not _NAME_RE.match(parts[2]):
                errors.append(f"line {lineno}: invalid metric name {parts[2]!r}")
                continue
            if parts[1] == "TYPE":
                kinds = ("counter", "gauge", "histogram", "summary", "untyped")
                if len(parts) < 4 or parts[3] not in kinds:
                    errors.append(f"line {lineno}: invalid TYPE line: {line!r}")
                elif parts[2] in typed:
                    errors.append(f"line {lineno}: duplicate TYPE for {parts[2]}")
                else:
                    typed[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        labels_blob = match.group("labels")
        labels: Dict[str, str] = {}
        if labels_blob:
            for part in _split_labels(labels_blob):
                if not _LABEL_RE.match(part):
                    errors.append(f"line {lineno}: malformed label {part!r}")
                    continue
                key, _, raw = part.partition("=")
                labels[key] = raw[1:-1]
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            errors.append(f"line {lineno}: invalid sample value {raw_value!r}")
            continue
        family = _family_of(name, typed)
        if family is None:
            errors.append(f"line {lineno}: sample {name!r} has no preceding TYPE")
            continue
        if typed[family] == "histogram":
            state = histogram_state.setdefault(
                family, {"buckets": {}, "sums": set(), "counts": {}}
            )
            series = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if name.endswith("_bucket"):
                if "le" not in labels:
                    errors.append(f"line {lineno}: histogram bucket without le label")
                    continue
                buckets = state["buckets"].setdefault(series, [])
                le = labels["le"]
                le_value = math.inf if le == "+Inf" else float(le)
                if buckets and (le_value < buckets[-1][0] or value < buckets[-1][1]):
                    errors.append(
                        f"line {lineno}: histogram {family} buckets not cumulative/ordered"
                    )
                buckets.append((le_value, value))
            elif name.endswith("_sum"):
                state["sums"].add(series)
            elif name.endswith("_count"):
                state["counts"][series] = value
    for family, state in histogram_state.items():
        for series, buckets in state["buckets"].items():
            if not buckets or not math.isinf(buckets[-1][0]):
                errors.append(f"histogram {family}{dict(series)} missing +Inf bucket")
                continue
            count = state["counts"].get(series)
            if count is not None and count != buckets[-1][1]:
                errors.append(
                    f"histogram {family}{dict(series)} +Inf bucket != _count"
                )
            if series not in state["sums"]:
                errors.append(f"histogram {family}{dict(series)} missing _sum")
    return errors


def _split_labels(blob: str) -> List[str]:
    """Split ``k="v",k2="v2"`` at commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            current.append(ch)
            continue
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def _family_of(name: str, typed: Dict[str, str]) -> Optional[str]:
    if name in typed:
        return name
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        if name.endswith(suffix) and name[: -len(suffix)] in typed:
            return name[: -len(suffix)]
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs.prom [file|-]`` — validate exposition text."""
    argv = list(sys.argv[1:] if argv is None else argv)
    source = argv[0] if argv else "-"
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    errors = validate_exposition(text)
    for error in errors:
        print(f"exposition error: {error}", file=sys.stderr)
    if not errors:
        samples = sum(
            1 for line in text.splitlines() if line.strip() and not line.startswith("#")
        )
        print(f"exposition ok: {samples} samples")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI smoke
    raise SystemExit(main())

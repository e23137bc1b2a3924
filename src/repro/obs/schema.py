"""The serve metrics schema: every metric leaf declared once.

``AsyncSegmentationService.metrics()``, the HTTP servers' ``http_metrics()``
and the cache ``stats`` produce one nested dict per process.  :data:`METRICS`
has one :class:`Metric` row per leaf of that tree, giving

* its snapshot **path**, dotted keys such as ``lanes.{lane}.depth``.  A
  ``{name}`` segment matches any key and becomes the Prometheus label
  ``name``.  A single-tier cache reports its counters flat under ``cache``,
  so a ``{tier}`` segment over a node with no sub-dicts binds the node
  itself as tier ``memory``;
* its fleet **merge** rule: how the supervisor combines the leaf across
  worker snapshots.  Counters sum.  Gauges that describe one shared
  resource (the disk L2, the shm ring) or one setting take the max.  Hit
  rates, ``reuse_ratio`` and the ``latency_seconds`` summaries are
  :class:`Recomputed` from the merged counters and sketches, never
  averaged;
* its Prometheus **kind**, **family** and **help** text, plus any constant
  **labels**.  A row without a family is merged but not exported.

:func:`repro.obs.render_prometheus` and :func:`merge_worker_metrics` are
both walks over this table, so the exposition and the fleet merge cannot
drift apart: adding a metric is one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["METRICS", "Metric", "Recomputed", "as_float", "leaves", "merge_worker_metrics"]


# --------------------------------------------------------------------------- #
# merge rules: each maps the workers' values of one leaf to the merged value
# --------------------------------------------------------------------------- #
def _as_int(value: Any) -> int:
    """Tolerant int coercion: a malformed worker value degrades to 0."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return 0


def as_float(value: Any) -> float:
    """Tolerant float coercion: a malformed or NaN worker value degrades to 0.0."""
    try:
        result = float(value)
    except (TypeError, ValueError):
        return 0.0
    return result if result == result else 0.0


def total(values: List[Any]) -> int:
    """Counts: the fleet-wide sum."""
    return sum(map(_as_int, values))


def total_real(values: List[Any]) -> float:
    """Rates: the fleet-wide sum (workers run concurrently)."""
    return sum(map(as_float, values))


def peak(values: List[Any]) -> int:
    """Shared footprints and settings: the largest worker's value."""
    return max(map(_as_int, values), default=0)


def peak_real(values: List[Any]) -> float:
    """Real-valued settings and the oldest worker's uptime: the max."""
    return max(map(as_float, values), default=0.0)


def any_true(values: List[Any]) -> bool:
    """Flags: set when any worker sets it."""
    return any(values)


def sketch_merge(values: List[Any]) -> Dict[str, Any]:
    """Latency sketches summed bucket-wise.

    A worker mid-upgrade (different bucket bounds) or a truncated snapshot
    degrades the merged sketch to empty, so the fleet percentiles read
    "unknown" (``None``) instead of crashing the supervisor's scrape.
    """
    from ..metrics.runtime import merge_sketches

    valid = [value for value in values if isinstance(value, dict) and value.get("bounds")]
    try:
        return merge_sketches(valid)
    except (ValueError, TypeError):
        return merge_sketches([])


def slowest(values: List[Any]) -> Optional[Dict[str, Any]]:
    """The slowest traced request's exemplar across workers, or ``None``."""
    exemplars = [value for value in values if isinstance(value, dict) and value.get("trace_id")]
    return max(exemplars, key=lambda e: as_float(e.get("seconds")), default=None)


def union(values: List[Any]) -> List[str]:
    """Sorted distinct names across workers."""
    return sorted({str(value) for value in values if value})


def weighted_mean(pairs: List[Tuple[Any, Any]]) -> float:
    """Per-worker ``(mean, weight)`` pairs combined in proportion to their weights."""
    weight = sum(_as_int(w) for _, w in pairs)
    return sum(as_float(mean) * _as_int(w) for mean, w in pairs) / weight if weight else 0.0


def calibrated_mean(values: List[Any]) -> float:
    """Mean over the workers whose estimate is calibrated (non-zero)."""
    calibrated = [value for value in map(as_float, values) if value > 0.0]
    return sum(calibrated) / len(calibrated) if calibrated else 0.0


@dataclass(frozen=True)
class Recomputed:
    """A leaf the merge derives from the merged dict holding it (``None``: left out)."""

    derive: Callable[[Dict[str, Any]], Any]


def _lookup(node: Any, keys: Tuple[str, ...]) -> Any:
    for key in keys:
        node = node.get(key) if isinstance(node, dict) else None
    return node


def ratio(part: List[str], whole: List[str]) -> Recomputed:
    """``sum(part) / sum(whole)`` over dotted sub-paths; left out when no ``whole`` exists."""
    part_keys = [tuple(path.split(".")) for path in part]
    whole_keys = [tuple(path.split(".")) for path in whole]

    def derive(node: Dict[str, Any]) -> Optional[float]:
        whole_values = [_lookup(node, keys) for keys in whole_keys]
        if all(value is None for value in whole_values):
            return None
        denominator = sum(value or 0 for value in whole_values)
        numerator = sum(_lookup(node, keys) or 0 for keys in part_keys)
        return numerator / denominator if denominator else 0.0

    return Recomputed(derive)


def summary_of(key: str) -> Recomputed:
    """The count/mean/percentile summary of the sibling sketch ``key``."""

    def derive(node: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        from ..metrics.runtime import summarize_sketch

        return summarize_sketch(node[key]) if key in node else None

    return Recomputed(derive)


# --------------------------------------------------------------------------- #
# the table
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Metric:
    """One metric leaf: where it lives, how it merges, how it is exported.

    ``weight`` names a sibling leaf whose per-worker value weights this one
    (the merge rule then receives ``(value, weight)`` pairs); ``into`` is the
    leaf's key in a merged document when that differs from a worker's;
    ``always`` rows (top-level ones) are merged even when no worker reports
    the leaf.
    """

    path: str
    merge: Callable[[List[Any]], Any] | Recomputed
    kind: Optional[str] = None  # counter, gauge, histogram, info or exemplar
    family: Optional[str] = None
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()
    weight: Optional[str] = None
    into: Optional[str] = None
    always: bool = False


#: The merge's own leaf: how many worker snapshots it combined.
_SCRAPED = "workers_scraped"

# fmt: off
METRICS: Tuple[Metric, ...] = (
    Metric("requests", total, "counter", "requests_total", "Requests submitted."),
    Metric("completed", total, "counter", "completed_total", "Requests completed successfully."),
    Metric("failed", total, "counter", "failed_total", "Requests that raised."),
    Metric("cancelled", total, "counter", "cancelled_total", "Requests cancelled by the caller."),
    Metric("coalesced", total, "counter", "coalesced_total", "Requests coalesced onto an in-batch twin."),
    Metric("quota_rejections", total, "counter", "quota_rejections_total", "Requests rejected by per-client quotas."),
    Metric("in_flight", total, "gauge", "in_flight", "Requests currently in flight."),
    Metric("queue_depth", total, "gauge", "queue_depth", "Requests queued across lanes."),
    Metric("uptime_seconds", peak_real, "gauge", "uptime_seconds", "Service uptime."),
    Metric("throughput_rps", total_real, "gauge", "throughput_rps", "Completed requests per second since start."),
    Metric("batches", total, "counter", "batches_total", "Micro-batches processed."),
    Metric("mean_batch_size", weighted_mean, "gauge", "mean_batch_size", "Mean micro-batch size.", weight="batches"),
    Metric("ewma_request_seconds", calibrated_mean, "gauge", "ewma_request_seconds", "EWMA of per-request service time."),
    Metric(_SCRAPED, total, "gauge", "fleet_workers_scraped", "Workers merged into this snapshot."),
    Metric("scrape_failures", total, "counter", "fleet_scrape_failures_total", "Admin scrapes failed and skipped."),
    Metric("shed.{reason}", total, "counter", "shed_total", "Requests shed, by reason."),
    # --- priority lanes ------------------------------------------------------
    Metric("lanes.{lane}.depth", total, "gauge", "lane_depth", "Queued requests in this lane."),
    Metric("lanes.{lane}.submitted", total, "counter", "lane_submitted_total", "Requests admitted to this lane."),
    Metric("lanes.{lane}.completed", total, "counter", "lane_completed_total", "Requests completed from this lane."),
    Metric("lanes.{lane}.shed_admission", total, "counter", "lane_shed_admission_total", "Shed at admission."),
    Metric("lanes.{lane}.shed_expired", total, "counter", "lane_shed_expired_total", "Shed by in-queue expiry."),
    # Each adaptive worker tunes its own weights: the max is a summary.
    Metric("lanes.{lane}.weight", peak, "gauge", "lane_weight", "Drain weight of this lane."),
    Metric("lanes.{lane}.latency_sketch", sketch_merge, "histogram", "lane_latency_seconds", "End-to-end request latency per lane."),
    Metric("lanes.{lane}.latency_seconds", summary_of("latency_sketch")),
    Metric("lanes.{lane}.delta.frames", total, "counter", "lane_delta_frames_total", "Stream frames computed via the delta path."),
    Metric("lanes.{lane}.delta.tiles_reused", total, "counter", "lane_delta_tiles_reused_total", "Delta tiles reused, not recomputed."),
    Metric("lanes.{lane}.delta.tiles_recomputed", total, "counter", "lane_delta_tiles_recomputed_total", "Delta tiles re-segmented because their content changed."),
    # --- latency -------------------------------------------------------------
    Metric("latency_sketch", sketch_merge, "histogram", "request_latency_seconds", "End-to-end request latency."),
    Metric("latency_seconds", summary_of("latency_sketch")),
    Metric("latency_exemplar", slowest, "exemplar", "request_latency_exemplar_seconds", "Latency of the slowest recent traced request (trace_id keys the flight recorder).", always=True),
    Metric("backend", union, "info", "backend_info", "Array backends actively serving (1 per active backend).", into="backends"),
    # --- cache tiers ---------------------------------------------------------
    Metric("cache.{tier}.hits", total, "counter", "cache_hits_total", "Cache hits."),
    Metric("cache.{tier}.misses", total, "counter", "cache_misses_total", "Cache misses."),
    Metric("cache.{tier}.evictions", total, "counter", "cache_evictions_total", "Entries evicted (LRU)."),
    Metric("cache.{tier}.stores", total, "counter", "cache_puts_total", "Entries written."),
    Metric("cache.{tier}.store_skips", total, "counter", "cache_rejects_total", "Writes rejected (oversized / contended)."),
    Metric("cache.{tier}.hit_bytes", total, "counter", "cache_hit_bytes_total", "Payload bytes returned by cache hits."),
    Metric("cache.{tier}.corrupt_dropped", total, "counter", "cache_corrupt_drops_total", "Corrupt entries dropped."),
    Metric("cache.{tier}.errors", total, "counter", "cache_errors_total", "Cache I/O errors."),
    Metric("cache.{tier}.evicted_bytes", total, "counter", "cache_evicted_bytes_total", "Payload bytes freed by eviction."),
    Metric("cache.{tier}.torn_reads", total, "counter", "cache_torn_reads_total", "Reads that lost a race with a writer (misses)."),
    # Footprints take the max: workers sharing one L2 directory or one shm
    # segment each report the same footprint, so a sum would multiply it.
    Metric("cache.{tier}.currsize", peak, "gauge", "cache_entries", "Entries currently cached."),
    Metric("cache.{tier}.maxsize", peak, "gauge", "cache_max_entries", "Cache capacity in entries."),
    Metric("cache.{tier}.max_entries", peak, "gauge", "cache_max_entries", "Cache capacity in entries."),
    Metric("cache.{tier}.size_bytes", peak, "gauge", "cache_size_bytes", "Bytes currently cached."),
    Metric("cache.{tier}.current_bytes", peak, "gauge", "cache_size_bytes", "Bytes currently cached."),
    Metric("cache.{tier}.max_bytes", peak, "gauge", "cache_max_bytes", "Cache capacity in bytes."),
    Metric("cache.{tier}.slot_count", peak, "gauge", "cache_slots", "Slots in the shared-memory ring."),
    Metric("cache.{tier}.slot_bytes", peak, "gauge", "cache_slot_bytes", "Bytes per shared-memory slot."),
    Metric("cache.{tier}.hit_rate", ratio(["hits"], ["hits", "misses"]), "gauge", "cache_hit_rate", "Hit rate since start."),
    # A tiered cache's roll-ups: each follows from the per-tier counters.
    Metric("cache.l1_hit_rate", ratio(["l1.hits"], ["l1.hits", "l1.misses"])),
    Metric("cache.l2_hit_rate", ratio(["l2.hits"], ["l2.hits", "l2.misses"])),
    Metric("cache.shm_hit_rate", ratio(["shm.hits"], ["shm.hits", "shm.misses"])),
    Metric("cache.hit_rate", ratio(["l1.hits", "l2.hits", "shm.hits"], ["l1.hits", "l1.misses"])),
    # --- adaptive control loop -----------------------------------------------
    Metric("adaptive.enabled", any_true),
    Metric("adaptive.ticks", total, "counter", "adaptive_ticks_total", "Adaptive controller ticks."),
    Metric("adaptive.batch_adjustments", total, "counter", "adaptive_adjustments_total", "Adaptive controller config changes applied.", labels=(("kind", "batch"),)),
    Metric("adaptive.weight_adjustments", total, "counter", "adaptive_adjustments_total", "Adaptive controller config changes applied.", labels=(("kind", "weight"),)),
    Metric("adaptive.max_batch_size", peak, "gauge", "adaptive_batch_size", "Current adaptive max batch size."),
    Metric("adaptive.lane_floors.{lane}", peak, "gauge", "adaptive_lane_floor", "Configured minimum drain weight of this lane."),
    # --- dirty-tile delta streams --------------------------------------------
    Metric("delta.enabled", any_true),
    Metric("delta.supported", any_true),
    Metric("delta.frames", total, "counter", "delta_frames_total", "Stream frames computed via the dirty-tile path."),
    Metric("delta.tiles_reused", total, "counter", "delta_tiles_reused_total", "Delta tiles reused, not recomputed."),
    Metric("delta.tiles_recomputed", total, "counter", "delta_tiles_recomputed_total", "Delta tiles re-segmented because their content changed."),
    Metric("delta.reuse_ratio", ratio(["tiles_reused"], ["tiles_reused", "tiles_recomputed"]), "gauge", "delta_reuse_ratio", "Reused tiles over all delta tiles processed."),
    Metric("delta.streams", total, "gauge", "delta_streams", "Temporal streams with a committed ancestor."),
    Metric("delta.max_streams", total, "gauge", "delta_max_streams", "Streams tracked before the oldest is dropped."),
    # --- tracing -------------------------------------------------------------
    Metric("trace.started", total, "counter", "trace_started_total", "Traces considered (one per request)."),
    Metric("trace.recorded", total, "counter", "trace_recorded_total", "Traces recorded into the flight recorder."),
    Metric("trace.sampled_out", total, "counter", "trace_sampled_out_total", "Traces skipped by sampling."),
    Metric("trace.retained", total, "gauge", "trace_retained", "Traces currently retained in the ring."),
    Metric("trace.ring_size", total, "gauge", "trace_ring_size", "Capacity of the trace ring."),
    Metric("trace.sample_rate", peak_real, "gauge", "trace_sample_rate", "Fraction of requests traced."),
    # --- HTTP front end ------------------------------------------------------
    Metric("http.requests", total, "counter", "http_requests_total", "HTTP requests parsed."),
    Metric("http.responses.{code}", total, "counter", "http_responses_total", "HTTP responses, by status code."),
    Metric("http.inflight", total, "gauge", "http_inflight", "HTTP requests currently being handled."),
    Metric("http.open_connections", total, "gauge", "http_open_connections", "Open HTTP connections."),
    Metric("http.client_disconnects", total, "counter", "http_client_disconnects_total", "Requests abandoned by client disconnect."),
    Metric("http.request_errors", total, "counter", "http_request_errors_total", "Requests whose handling raised unexpectedly (answered 500)."),
    Metric("http.draining", any_true, "gauge", "http_draining", "1 while the server is draining."),
)
# fmt: on

#: A single-tier cache reports its counters flat under ``cache``: a
#: ``{tier}`` segment over a node without sub-dicts binds the node itself,
#: labelled as this tier.
_FLAT_TIER = ("tier", "memory")


# --------------------------------------------------------------------------- #
# the walk
# --------------------------------------------------------------------------- #
class _Node:
    """One trie node: the row ending here, literal children, one wildcard."""

    __slots__ = ("row", "children", "wildcard", "label")

    def __init__(self, label: Optional[str] = None):
        self.row: Optional[Metric] = None
        self.children: Dict[str, _Node] = {}
        self.wildcard: Optional[_Node] = None
        self.label = label


def _compile(rows: Tuple[Metric, ...]) -> _Node:
    root = _Node()
    for row in rows:
        head = row.path.rpartition(".")[0]
        into = [f"{head}.{row.into}" if head else row.into] if row.into else []
        for path in [row.path, *into]:
            node = root
            for segment in path.split("."):
                if segment.startswith("{"):
                    node.wildcard = node.wildcard or _Node(segment[1:-1])
                    node = node.wildcard
                else:
                    node = node.children.setdefault(segment, _Node())
            node.row = row
    return root


_ROOT = _compile(METRICS)


def leaves(*trees: Any) -> List[Tuple[Any, ...]]:
    """Every leaf a :data:`METRICS` row matches in one or more snapshots.

    The snapshots are walked together, once.  Each matched path comes out
    once as ``(row, path, labels, values, parents)``: the row, the concrete
    key path, the wildcard labels, the value in every snapshot that has the
    path, and the dicts at the path's parent.  A section that every
    snapshot reports as ``None`` or empty comes out with row ``None``.  Keys
    no row names are skipped, and a malformed subtree (a list where a dict
    belongs) or a non-dict snapshot matches nothing.
    """
    out: List[Tuple[Any, ...]] = []
    trees = tuple(tree for tree in trees if isinstance(tree, dict))
    if trees:
        _walk(trees, _ROOT, (), (), out)
    return out


def _walk(
    trees: Tuple[dict, ...],
    node: _Node,
    path: Tuple[str, ...],
    labels: Tuple[Tuple[str, str], ...],
    out: List[Tuple[Any, ...]],
) -> None:
    wildcard = node.wildcard
    if wildcard is not None and wildcard.label == _FLAT_TIER[0]:
        if not any(isinstance(value, dict) for tree in trees for value in tree.values()):
            _walk(trees, wildcard, path, labels + (_FLAT_TIER,), out)
            return
    keys: Dict[str, Any] = {}
    for tree in trees:
        keys.update(tree)
    for key in keys:
        child = node.children.get(key)
        bound = labels
        if child is None:
            if wildcard is None:
                continue
            child = wildcard
            bound = labels + ((wildcard.label, str(key)),)
        values = [tree[key] for tree in trees if key in tree]
        where = path + (key,)
        if child.row is not None:
            out.append((child.row, where, bound, values, trees))
            continue
        subtrees = tuple(value for value in values if isinstance(value, dict) and value)
        if subtrees:
            _walk(subtrees, child, where, bound, out)
        elif any(value is None or isinstance(value, dict) for value in values):
            out.append((None, where, bound, values, trees))


def _parents(tree: Any, segments: Tuple[str, ...]) -> Iterator[Dict[str, Any]]:
    """The dicts a row path (minus its leaf) resolves to in a merged tree."""
    if not isinstance(tree, dict):
        return
    if not segments:
        yield tree
        return
    head, rest = segments[0], segments[1:]
    if not head.startswith("{"):
        yield from _parents(tree.get(head), rest)
        return
    children = [value for value in tree.values() if isinstance(value, dict)]
    if not children and head[1:-1] == _FLAT_TIER[0]:
        children = [tree]
    for child in children:
        yield from _parents(child, rest)


def _put(tree: Dict[str, Any], path: Tuple[str, ...], value: Any) -> None:
    for key in path[:-1]:
        tree = tree.setdefault(key, {})
    tree[path[-1]] = value


_RECOMPUTED = [
    (row, tuple(row.path.split("."))) for row in METRICS if isinstance(row.merge, Recomputed)
]
_ALWAYS = [row for row in METRICS if row.always]


def merge_worker_metrics(snapshots: List[Any]) -> Dict[str, Any]:
    """Fleet-wide view from per-worker ``service.metrics()`` snapshots.

    The snapshots are walked together once; the values at each matched path
    combine by their row's merge rule, then the :class:`Recomputed` leaves
    (percentiles, hit rates, ``reuse_ratio``) are derived from the merged
    tree rather than averaged.  A leaf no worker reports is left out
    (``always`` rows excepted), and a section that every worker reports as
    ``None`` (or empty) stays ``None`` (or empty).  A snapshot that is not
    a dict (truncated JSON, an error document) is skipped wholesale — the
    caller's scrape-failure counter reports that kind of degradation, not
    an exception here.
    """
    snapshots = [snapshot for snapshot in snapshots if isinstance(snapshot, dict)]
    merged: Dict[str, Any] = {_SCRAPED: len(snapshots)}
    if not snapshots:
        return merged
    for row, path, _, values, parents in leaves(*snapshots):
        if row is None:
            _put(merged, path, None if any(value is None for value in values) else {})
        elif not isinstance(row.merge, Recomputed):
            key = path[-1]
            if row.weight:
                values = [(node[key], node.get(row.weight)) for node in parents if key in node]
            if row.into:
                path = path[:-1] + (row.into,)
            _put(merged, path, row.merge(values))
    for row in _ALWAYS:
        merged.setdefault(row.path, row.merge([]))
    for row, segments in _RECOMPUTED:
        for node in _parents(merged, segments[:-1]):
            value = row.merge.derive(node)
            if value is not None:
                node[segments[-1]] = value
    return merged

"""Prometheus text exposition for the serve metrics tree.

:func:`render_prometheus` renders a ``metrics()`` snapshot, or a fleet's
merged document, by walking the metric table in :mod:`repro.obs.schema`:
each row names a snapshot leaf and the family it renders into.  Counters
and gauges render as such; the mergeable log-spaced latency sketches render
as *native histograms* (cumulative ``le`` buckets, ``_sum``, ``_count``).
The slow-request exemplar (the trace ID of the slowest recent request) is
a separate ``repro_request_latency_exemplar_seconds`` gauge with a
``trace_id`` label, which stays valid classic exposition (no OpenMetrics
extensions required).

:func:`validate_exposition` is the checker CI runs against a live scrape:
``python -m repro.obs.prom <file|->`` exits non-zero listing every violation.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Any, Dict, List, Mapping, Optional, Tuple

from . import schema

__all__ = ["render_prometheus", "validate_exposition", "main"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def _families() -> Dict[str, Tuple[str, str]]:
    """Each family once, in table order: family -> (Prometheus type, help)."""
    families: Dict[str, Tuple[str, str]] = {}
    for row in schema.METRICS:
        if row.family:
            kind = "gauge" if row.kind in ("info", "exemplar") else row.kind
            families.setdefault(row.family, (kind, row.help))
    return families


_FAMILIES = _families()


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


def _number(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (bool, int, float)) else None


def _samples(row: schema.Metric, labels: Tuple, value: Any) -> List[Tuple[Tuple, Any]]:
    """The ``(labels, value)`` samples one matched leaf contributes."""
    if row.kind == "histogram":
        return [(labels, value)] if _is_sketch(value) else []
    if row.kind == "info":
        # One sample per name: a service reports its backend, a merged
        # fleet document the list of every backend serving.
        names = value if isinstance(value, (list, tuple)) else [value] if value else []
        label = row.path.rpartition(".")[2]
        return [(labels + ((label, str(name)),), 1.0) for name in names]
    if row.kind == "exemplar":
        if not (isinstance(value, Mapping) and value.get("trace_id")):
            return []
        value, labels = value.get("seconds"), labels + (("trace_id", str(value["trace_id"])),)
    number = _number(value)
    return [] if number is None else [(labels, number)]


def render_prometheus(
    metrics: Dict[str, Any],
    namespace: str = "repro",
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a service or merged fleet metrics tree in Prometheus text format.

    Families come out in table order, each series sorted by its labels.
    ``extra_labels`` (e.g. ``{"worker": "3"}``) are attached to every sample.
    """
    base = dict(extra_labels or {})
    found: Dict[str, List[Tuple[Tuple, Any]]] = {}
    for row, _, labels, (value,), _ in schema.leaves(metrics):
        if row is not None and row.family is not None:
            samples = _samples(row, labels + row.labels, value)
            if samples:
                found.setdefault(row.family, []).extend(samples)
    lines: List[str] = []
    for family, (kind, help_text) in _FAMILIES.items():
        samples = found.get(family)
        if not samples:
            continue
        samples.sort(key=lambda sample: sample[0])
        full = f"{namespace}_{family}"
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} {kind}")
        for labels, value in samples:
            labels = {**base, **dict(labels)}
            if kind == "histogram":
                _histogram_lines(lines, full, labels, value)
            else:
                lines.append(_sample_line(full, labels, value))
    return "\n".join(lines) + "\n" if lines else ""


def _histogram_lines(
    lines: List[str], full: str, labels: Dict[str, str], sketch: Mapping[str, Any]
) -> None:
    """One latency sketch as cumulative buckets, ``+Inf``, ``_sum`` and ``_count``."""
    bounds = [float(b) for b in sketch["bounds"]]
    counts = [int(c) for c in sketch["counts"]]
    cumulative = 0
    for bound, count in zip(bounds, counts):
        cumulative += count
        bucket = dict(labels)
        bucket["le"] = _format_value(bound)
        lines.append(_sample_line(f"{full}_bucket", bucket, cumulative))
    overflow = counts[-1] if len(counts) > len(bounds) else 0
    total = int(sketch.get("count", cumulative + overflow))
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(_sample_line(f"{full}_bucket", inf_labels, total))
    total_sum = float(sketch.get("sum_seconds", 0.0))
    lines.append(_sample_line(f"{full}_sum", labels, total_sum))
    lines.append(_sample_line(f"{full}_count", labels, total))


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

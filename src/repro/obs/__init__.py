"""Observability: request tracing, structured logging, the metrics schema.

Four zero-dependency building blocks threaded through the serving stack:

* :mod:`repro.obs.trace` — a cheap per-request span recorder (plain tuples
  appended to a list) with a bounded flight-recorder ring of completed
  traces, deterministic sampling, and injectable monotonic clocks.
* :mod:`repro.obs.log` — a JSON-lines / key=value structured logger shared
  by the HTTP servers, the async service, the fleet supervisor, and the
  spool driver.
* :mod:`repro.obs.schema` — one table row per leaf of the ``metrics()``
  tree: its path, Prometheus family and fleet merge rule.  The exposition
  and the fleet merge (:func:`repro.serve.merge_worker_metrics`) are both
  walks over it.
* :mod:`repro.obs.prom` — renders a ``metrics()`` tree (counters, gauges,
  and the mergeable latency sketches) in Prometheus text exposition format
  by that table, plus a small validator used by CI.
"""

from typing import TYPE_CHECKING

from .log import StructuredLogger, configure_logging, get_logger
from .trace import Trace, Tracer

__all__ = [
    "StructuredLogger",
    "Trace",
    "Tracer",
    "configure_logging",
    "get_logger",
    "render_prometheus",
    "validate_exposition",
]


def __getattr__(name: str):
    # The exposition pair resolves lazily (PEP 562): ``python -m
    # repro.obs.prom`` imports this package first, and an eager import of
    # ``.prom`` here would make runpy warn that the module it is about to
    # run is already loaded.
    if name in ("render_prometheus", "validate_exposition"):
        from . import prom

        value = getattr(prom, name)
        globals()[name] = value  # cache: next access skips this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .prom import render_prometheus, validate_exposition

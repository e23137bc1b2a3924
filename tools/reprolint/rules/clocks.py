"""RL002 — no wall-clock reads on the serve path.

Every time source in the request path must be an injectable *monotonic*
clock: a wall-clock step (NTP correction, DST, manual reset) must not flush
batches early, shed deadlines, or distort latency
percentiles.  PR 4 fixed a family of exactly these bugs; this rule absorbs
and widens the textual ``time.time()`` audit that used to live in
``tests/test_serve_monotonic.py``.

Allowlist: the disk-cache module's one wall-clock read is the age of its
sweep lock file, measured against the file's *mtime*, which the OS stamps
with the wall clock — ``time.time()`` is the correct clock there (the age
is clamped at 0 against backwards steps and a monotonic deadline bounds
the wait, tested separately).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Finding, Rule, dotted_name, register

#: Modules on the serve path (prefix match).  Wider than the old audit: the
#: observability layer and the latency recorder feed serve metrics, so a
#: wall clock there distorts the same percentiles.  The delta-stream engine
#: and the correlated-replay load generator are included too: both time
#: frames (runtime_seconds, inter-arrival pacing) and both feed the same
#: serve metrics, so a wall-clock step there corrupts reuse/throughput
#: numbers the benchmark tripwire gates on.
SERVE_PATH_PREFIXES = (
    "repro.serve",
    "repro.obs",
    "repro.metrics.runtime",
    "repro.engine.delta",
    "benchmarks.loadgen",
)

#: Wall clock is legitimate where values are compared against file mtimes.
ALLOWLISTED_MODULES = frozenset({"repro.serve._diskcache"})

_WALL_CLOCK_CALLS = frozenset({"time.time", "datetime.utcnow", "datetime.datetime.utcnow"})
_NOW_CALLS = frozenset({"datetime.now", "datetime.datetime.now"})


@register
class WallClockRule(Rule):
    id = "RL002"
    name = "serve-monotonic-clock"
    severity = "error"
    description = (
        "serve-path code must use injectable monotonic clocks — time.time() and "
        "naive datetime.now()/utcnow() are wall clocks that step under NTP/DST"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module in ALLOWLISTED_MODULES:
            return False
        return any(
            ctx.module == prefix or ctx.module.startswith(prefix + ".")
            for prefix in SERVE_PATH_PREFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"wall-clock {name}() on the serve path — use an injectable "
                    f"monotonic clock (time.monotonic / the component's clock= parameter)",
                )
            elif name in _NOW_CALLS and not node.args and not node.keywords:
                yield ctx.finding(
                    self,
                    node,
                    f"argless {name}() is a naive wall-clock read — pass an explicit "
                    f"tz for formatting, or use a monotonic clock for durations",
                )

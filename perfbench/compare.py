"""Summarize and compare sets of benchmark results.

Each input file holds result objects, one JSON line per run (the last
stdout line of ``run.py``), all from one workload::

    python3 perfbench/compare.py base.jsonl            # medians and spreads
    python3 perfbench/compare.py base.jsonl new.jsonl  # plus the verdict

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A metric
regresses, and the exit code is 1, when either rule fires:

* ``bound``: it has a bound in ``BENCHMARK.json`` and the new median is
  worse than the base median by more than that bound;
* ``paired``: the files hold the same seeds in the same order, run in
  alternating order, and the new run is worse in at least nine tenths of
  the pairs while the medians differ by more than the base runs' own
  distance between quartiles.  This catches a consistent slowdown smaller
  than a bound that has to absorb the host's run-to-run drift.

Per-layer metrics have no bound; only the paired rule flags them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List


def load(path: str) -> List[dict]:
    lines = Path(path).read_text().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


def values(results: List[dict]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            out.setdefault(name, []).append(float(metric["value"]))
    return out


def spread(samples: List[float]) -> float:
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)


def paired_worse(base: List[float], new: List[float], better: str) -> bool:
    """The new runs lose nine tenths of the pairs, by more than the base spread."""
    if len(base) != len(new) or len(base) < 2:
        return False
    sign = 1.0 if better == "lower" else -1.0
    losses = sum(sign * (n - b) > 0 for b, n in zip(base, new))
    q1, _, q3 = statistics.quantiles(base, n=4)
    difference = sign * (statistics.median(new) - statistics.median(base))
    return losses >= 0.9 * len(base) and difference > q3 - q1


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = values(load(argv[0]))
    new = values(load(argv[1])) if len(argv) == 2 else None
    regressions = []
    header = f"{'metric':<34}{'base median':>13}{'spread':>8}{'bound':>7}"
    if new is not None:
        header += f"{'new median':>13}{'spread':>8}{'change':>9}  verdict"
    print(header)
    for name, samples in base.items():
        meta = declared.get(name, {})
        bound = meta.get("bound")
        base_median = statistics.median(samples)
        row = f"{name:<34}{base_median:>13.4g}{spread(samples):>8.1%}"
        row += f"{bound:>7.0%}" if bound is not None else f"{'-':>7}"
        if new is not None and name in new:
            new_median = statistics.median(new[name])
            change = (new_median - base_median) / abs(base_median) if base_median else 0.0
            worse = change if meta.get("better") == "lower" else -change
            rules = []
            if bound is not None and worse > bound:
                rules.append("bound")
            if paired_worse(samples, new[name], meta.get("better", "lower")):
                rules.append("paired")
            verdict = f"REGRESSION ({'+'.join(rules)})" if rules else "ok"
            if rules:
                regressions.append(name)
            row += f"{new_median:>13.4g}{spread(new[name]):>8.1%}{change:>+9.1%}  {verdict}"
        print(row)
    runs = f"{len(load(argv[0]))} base run(s)"
    if new is not None:
        runs += f", {len(load(argv[1]))} new run(s)"
        print(f"{runs}; regressions: {', '.join(regressions) or 'none'}")
    else:
        print(runs)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

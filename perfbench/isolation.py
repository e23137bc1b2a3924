"""Reference labels and the layer-isolation pass, both off the clock.

References: every pool item is labelled in this process by the engine
strategy the server uses (the palette LUT, or the delta path for stream
frames); a seeded subset is also labelled by the exact matrix path
(``BatchSegmentationEngine(..., use_lut=False)``) and must agree bit for
bit.  Answers are then checked against the per-item references.

Isolation: each workload's own inputs are replayed through each layer's
public function, timed from outside, one call at a time.  The medians are
each layer's busy time per call, free of queueing and of other layers.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from harness import clock, fresh_dir
from workloads import STREAM_PARAMS, Inputs, Workload

EXACT_SUBSET = 12  # pool items also labelled by the exact matrix path
ISOLATION_ITEMS = 32  # inputs replayed through each layer function
ISOLATION_BUDGET_S = 2.0  # per layer function, after at least 4 items


def _engines():
    from repro.baselines.registry import get_segmenter
    from repro.engine import BatchSegmentationEngine
    from repro.serve import WorkerSpec

    spec = WorkerSpec()  # the CLI's method and theta
    fast = BatchSegmentationEngine(get_segmenter(spec.method, **spec.segmenter_kwargs()))
    exact = BatchSegmentationEngine(
        get_segmenter(spec.method, **spec.segmenter_kwargs()), use_lut=False
    )
    return fast, exact


class References:
    """Expected labels per pool item (stored as uint8 when they fit)."""

    def __init__(self, workload: Workload, inputs: Inputs):
        from repro.engine import DeltaStreamEngine

        fast, _ = _engines()
        if workload.stream:
            delta = DeltaStreamEngine(fast, tile_shape=STREAM_PARAMS["tile_shape"])
            results = (
                delta.segment(image, stream) if stream is not None else fast.segment(image)
                for image, stream in zip(inputs.images, inputs.stream_ids)
            )
        else:
            results = (fast.segment(image) for image in inputs.images)
        # Labels are kept as uint8 when they fit, so the references do not
        # inflate the peak memory of the in-process workload.
        self.labels: List[np.ndarray] = []
        for result in results:
            labels = result.labels
            self.dtype = labels.dtype
            small = labels.min() >= 0 and labels.max() < 256
            self.labels.append(labels.astype(np.uint8) if small else labels)
        self.exact_checked = self.exact_mismatches = 0

    def verify_exact(self, inputs: Inputs, seed: int) -> None:
        """Check a seeded subset of the references against the matrix path.

        Runs after the measurement: the matrix path's temporaries would
        otherwise set the in-process workload's peak memory.
        """
        _, exact = _engines()
        rng = np.random.default_rng([seed, 7])
        subset = rng.choice(len(self.labels), size=min(EXACT_SUBSET, len(self.labels)),
                            replace=False)
        self.exact_checked = len(subset)
        self.exact_mismatches = sum(
            not self.check(int(i), exact.segment(inputs.images[int(i)]).labels) for i in subset
        )

    def check(self, index: int, answer: np.ndarray) -> bool:
        """Bit-identity of one answer: same dtype, shape and values."""
        expected = self.labels[index]
        return (
            answer.dtype == self.dtype
            and answer.shape == expected.shape
            and np.array_equal(answer, expected)
        )


def _median_ms(call: Callable[[object], object], items: Sequence) -> float:
    times = []
    spent = 0.0
    for item in items:
        start = clock()
        call(item)
        elapsed = clock() - start
        times.append(elapsed)
        spent += elapsed
        if len(times) >= 4 and spent > ISOLATION_BUDGET_S:
            break
    return float(np.median(times)) * 1e3


def isolation_pass(workload: Workload, inputs: Inputs, work: Path) -> Dict[str, float]:
    """Busy time per call of each layer's public function, in ms."""
    from repro.engine import DeltaStreamEngine, binarize_largest_background
    from repro.serve import (
        DiskResultCache,
        ResultCache,
        SharedMemoryResultCache,
        config_digest,
        image_digest,
    )

    fast, _ = _engines()
    order: List[int] = []
    for i in range(len(inputs.order)):
        index = int(inputs.order[i])
        if index not in order:
            order.append(index)
        if len(order) == ISOLATION_ITEMS:
            break
    images = [inputs.images[i] for i in order]
    streams = (
        [inputs.stream_ids[i] for i in order] if inputs.stream_ids else ["isolation"] * len(order)
    )
    out: Dict[str, float] = {}

    results = []
    out["engine.segment_ms"] = _median_ms(lambda im: results.append(fast.segment(im)), images)
    out["engine.prepare_ms"] = float(
        np.median([r.extras.get("prepare_seconds", 0.0) for r in results]) * 1e3
    )
    delta = DeltaStreamEngine(fast, tile_shape=STREAM_PARAMS["tile_shape"])
    out["delta.segment_ms"] = _median_ms(
        lambda pair: delta.segment(*pair), list(zip(images, streams))
    )
    out["cache.digest_ms"] = _median_ms(image_digest, images)

    config = config_digest({"benchmark": "isolation"})
    entries: List[Tuple[Tuple[str, str], tuple]] = [
        ((image_digest(im), config), (r, binarize_largest_background(r.labels)))
        for im, r in zip(images, results)
    ]
    memory = ResultCache(max_entries=256)
    disk = DiskResultCache(str(fresh_dir(work / "isolation-disk")))
    shm = SharedMemoryResultCache.create(64 * 1024 * 1024)  # the CLI's --shm-mb default
    try:
        put_ms = 0.0
        for name, tier in (("mem", memory), ("shm", shm), ("disk", disk)):
            # Each get follows its own put: shm slots are direct-mapped and
            # may collide, so only a fresh entry is sure to be a hit.
            puts, gets = [], []
            for key, value in entries:
                start = clock()
                tier.put(key, value)
                middle = clock()
                hit = tier.get(key)
                gets.append(clock() - middle)
                puts.append(middle - start)
                if hit is None:
                    raise RuntimeError(f"{name} cache tier lost a fresh entry")
                if len(puts) >= 4 and sum(puts) + sum(gets) > ISOLATION_BUDGET_S:
                    break
            out[f"cache.{name}_get_ms"] = float(np.median(gets)) * 1e3
            put_ms += float(np.median(puts)) * 1e3
        out["cache.put_ms"] = put_ms
    finally:
        shm.close()

    def encode(image):
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(image), allow_pickle=False)
        return buffer.getvalue()

    out["client.npy_encode_ms"] = _median_ms(encode, images)
    payloads = [encode(r.labels) for r in results]
    out["client.npy_decode_ms"] = _median_ms(
        lambda payload: np.load(io.BytesIO(payload), allow_pickle=False), payloads
    )
    return out


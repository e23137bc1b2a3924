"""Batched segmentation engine (LUT fast path, tiled parallelism, batch API).

The engine subsystem turns the per-image segmenters of :mod:`repro.core` into
a throughput-oriented service layer:

* :class:`BatchSegmentationEngine` — picks the cheapest *exact* strategy per
  image (value/RGB LUT for quantized input, tiled matrix path for large
  float input, direct path otherwise) and maps whole batches over an executor.
* The lookup-table calculus itself lives in :mod:`repro.core.lut` and is
  re-exported here for convenience.

``repro-segment batch`` is the CLI front end; ``SegmentationPipeline.run_many``
delegates to the engine, so existing batch callers transparently benefit.

This module is also the engine's **public surface toward the serving layer**:
everything serve-side code needs from the compute core — the engine itself,
the pipeline result type, label post-processing — is re-exported here, so
``repro.serve`` never has to reach into ``repro.core`` internals (a layering
rule CI enforces with reprolint rule RL001,
``python -m tools.reprolint --rules RL001``).
"""

from ..core.labels import binarize_largest_background
from ..core.lut import (
    DEFAULT_NUM_LEVELS,
    clear_lut_cache,
    grayscale_label_lut,
    grayscale_probability_lut,
    lut_cache_info,
    lut_eligible,
    rgb_label_tables,
    RgbLabelTables,
)
from ..core.pipeline import PipelineResult, SegmentationPipeline
from .delta import (
    DEFAULT_DELTA_TILE_SHAPE,
    DEFAULT_MAX_STREAMS,
    DeltaStats,
    DeltaStreamEngine,
    StreamState,
    StreamStateStore,
)
from .engine import (
    DEFAULT_AUTO_TILE_PIXELS,
    DEFAULT_STREAM_WINDOW,
    DEFAULT_TILE_SHAPE,
    BatchSegmentationEngine,
)

__all__ = [
    "BatchSegmentationEngine",
    "DeltaStreamEngine",
    "DeltaStats",
    "StreamState",
    "StreamStateStore",
    "DEFAULT_DELTA_TILE_SHAPE",
    "DEFAULT_MAX_STREAMS",
    "PipelineResult",
    "SegmentationPipeline",
    "binarize_largest_background",
    "DEFAULT_TILE_SHAPE",
    "DEFAULT_AUTO_TILE_PIXELS",
    "DEFAULT_STREAM_WINDOW",
    "DEFAULT_NUM_LEVELS",
    "grayscale_label_lut",
    "grayscale_probability_lut",
    "lut_eligible",
    "lut_cache_info",
    "clear_lut_cache",
    "rgb_label_tables",
    "RgbLabelTables",
]

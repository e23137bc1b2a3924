"""The batched segmentation engine: LUT fast path + tiling + executor fan-out.

:class:`BatchSegmentationEngine` is the throughput-oriented front end of the
library.  For each image it picks the cheapest *exact* evaluation strategy:

1. **LUT fast path** — integer-valued input is labelled through the
   segmenter's ``labels_from_lut`` hook (a 256-entry value table for the
   grayscale method, per-key RGB tables from the factorised eq. (11); see
   :mod:`repro.core.lut`).  A table label is either certified equal to the
   exact classifier's or is the classifier's own, so labels are
   bit-identical to the matrix path.
2. **Tiled matrix path** — large float images are split into tiles
   (:func:`repro.parallel.tiling.tile_map`) and segmented cooperatively by the
   engine's executor; the per-pixel rule makes stitching loss-free.
3. **Direct matrix path** — everything else runs the segmenter unchanged.

For the IQFT methods every strategy labels through the one exact classifier
of eq. (11) (:class:`~repro.core.classifier.IQFTClassifier`) or a label
certified equal to its; the LUT paths add only NumPy integer lookups.

On top of the per-image strategy the engine exposes ``map(images, gts)``,
which scatters a whole batch over the executor and returns one
:class:`~repro.core.pipeline.PipelineResult` per image using the pipeline's
standard evaluation protocol.  ``SegmentationPipeline.run_many`` delegates
here, so every existing caller of the batch API gets the fast paths for free.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..base import BaseSegmenter, SegmentationResult
from ..core.pipeline import PipelineResult, SegmentationPipeline
from ..errors import ParameterError
from ..parallel.executor import BaseExecutor, SerialExecutor
from ..parallel.tiling import tile_map

__all__ = [
    "BatchSegmentationEngine",
    "DEFAULT_TILE_SHAPE",
    "DEFAULT_AUTO_TILE_PIXELS",
    "DEFAULT_STREAM_WINDOW",
]

#: Tile shape used when the engine decides to tile on its own.
DEFAULT_TILE_SHAPE: Tuple[int, int] = (512, 512)

#: Images with at least this many pixels are tiled in ``"auto"`` mode (4 Mpx).
DEFAULT_AUTO_TILE_PIXELS = 4_194_304

#: In-flight window of :meth:`BatchSegmentationEngine.map_stream` — the
#: maximum number of images (and their results) materialized at any moment.
DEFAULT_STREAM_WINDOW = 32

_TILING_MODES = ("auto", "always", "never")

#: Sentinel distinguishing "companion iterator exhausted" from a None item.
_EXHAUSTED = object()


def _segment_tile(segmenter: BaseSegmenter, block: np.ndarray) -> np.ndarray:
    # Module-level so tiled work stays picklable for process executors.
    return segmenter.segment(block).labels


def _count_segments(labels: np.ndarray) -> int:
    # Distinct-label count via bincount when labels are small non-negative
    # ints (O(N), where np.unique would sort the whole image).
    flat = labels.ravel()
    if flat.size and int(flat.min()) >= 0 and int(flat.max()) < 65536:
        return int(np.count_nonzero(np.bincount(flat)))
    return int(np.unique(flat).size)


def _run_item(engine: "BatchSegmentationEngine", return_errors: bool, item):
    image, ground_truth, void_mask = item
    if not return_errors:
        return engine.run(image, ground_truth, void_mask)
    try:
        return engine.run(image, ground_truth, void_mask)
    except Exception as exc:  # reprolint: disable=RL004 returned to the map(return_errors) caller
        return exc


class BatchSegmentationEngine:
    """Batched, fast-path-aware segmentation over any :class:`BaseSegmenter`.

    Parameters
    ----------
    segmenter:
        The method to run.  Segmenters exposing a
        ``labels_from_lut(image, extras=None)`` hook (both IQFT segmenters
        do) get the exact LUT fast path; all others are executed unchanged.
        Tiling additionally requires ``segmenter.pointwise`` to be True —
        stitching is only exact for pure per-pixel rules.
    to_grayscale, target_shape:
        Preprocessing, forwarded to the internal
        :class:`~repro.core.pipeline.SegmentationPipeline`.
    use_lut:
        Enable the LUT fast path (disable to force the matrix path, e.g. for
        benchmarking).
    tiling:
        ``"auto"`` (default) tiles images with at least ``auto_tile_pixels``
        pixels, ``"always"`` tiles whenever the image spans more than one
        tile, ``"never"`` disables tiling.
    tile_shape:
        ``(H, W)`` of each tile when tiling happens.
    auto_tile_pixels:
        Pixel-count threshold for ``"auto"`` mode.
    executor:
        A :class:`~repro.parallel.executor.BaseExecutor` used both for tiles
        within an image and for images within :meth:`map`.  Defaults to the
        serial executor (deterministic, no processes).
    """

    def __init__(
        self,
        segmenter: BaseSegmenter,
        to_grayscale: bool = False,
        target_shape: Optional[Tuple[int, int]] = None,
        use_lut: bool = True,
        tiling: str = "auto",
        tile_shape: Tuple[int, int] = DEFAULT_TILE_SHAPE,
        auto_tile_pixels: int = DEFAULT_AUTO_TILE_PIXELS,
        executor: Optional[BaseExecutor] = None,
    ):
        self.pipeline = SegmentationPipeline(
            segmenter, to_grayscale=to_grayscale, target_shape=target_shape
        )
        if tiling not in _TILING_MODES:
            raise ParameterError(f"tiling must be one of {_TILING_MODES}, got {tiling!r}")
        th, tw = int(tile_shape[0]), int(tile_shape[1])
        if th < 1 or tw < 1:
            raise ParameterError("tile_shape must be positive")
        if auto_tile_pixels < 1:
            raise ParameterError("auto_tile_pixels must be positive")
        if executor is not None and not isinstance(executor, BaseExecutor):
            raise ParameterError("executor must be a BaseExecutor instance")
        self.use_lut = bool(use_lut)
        self.tiling = tiling
        self.tile_shape = (th, tw)
        self.auto_tile_pixels = int(auto_tile_pixels)
        self.executor = executor if executor is not None else SerialExecutor()

    @classmethod
    def from_pipeline(
        cls,
        pipeline: SegmentationPipeline,
        use_lut: bool = True,
        tiling: str = "auto",
        tile_shape: Tuple[int, int] = DEFAULT_TILE_SHAPE,
        auto_tile_pixels: int = DEFAULT_AUTO_TILE_PIXELS,
        executor: Optional[BaseExecutor] = None,
    ) -> "BatchSegmentationEngine":
        """Wrap an existing pipeline (shared preprocessing and scoring)."""
        if not isinstance(pipeline, SegmentationPipeline):
            raise ParameterError("pipeline must be a SegmentationPipeline instance")
        engine = cls(
            pipeline.segmenter,
            use_lut=use_lut,
            tiling=tiling,
            tile_shape=tile_shape,
            auto_tile_pixels=auto_tile_pixels,
            executor=executor,
        )
        engine.pipeline = pipeline
        return engine

    # ------------------------------------------------------------------ #
    @property
    def segmenter(self) -> BaseSegmenter:
        """The wrapped segmentation method."""
        return self.pipeline.segmenter

    def describe(self) -> Dict[str, Any]:
        """A JSON-friendly description of the engine configuration."""
        info = self.pipeline.describe()
        info.update(
            {
                "use_lut": self.use_lut,
                "tiling": self.tiling,
                "tile_shape": list(self.tile_shape),
                "auto_tile_pixels": self.auto_tile_pixels,
                "executor": self.executor.name,
            }
        )
        return info

    # ------------------------------------------------------------------ #
    def _should_tile(self, prepared: np.ndarray) -> bool:
        if self.tiling == "never":
            return False
        # Stitching tiles is only exact for pure per-pixel rules; methods with
        # global or neighbourhood state (kmeans, otsu, region growing, ...)
        # must always see the whole image.
        if not getattr(self.pipeline.segmenter, "pointwise", False):
            return False
        height, width = prepared.shape[:2]
        spans_tiles = height > self.tile_shape[0] or width > self.tile_shape[1]
        if not spans_tiles:
            return False
        if self.tiling == "always":
            return True
        return height * width >= self.auto_tile_pixels

    def _label_prepared(
        self, prepared: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, Any], str]:
        """Run the cheapest exact strategy on an *already-prepared* array.

        Returns ``(labels, extras, fast_path)``.  This is the strategy core
        of :meth:`segment` — LUT hook, tiled matrix path, direct path —
        without preprocessing or result packaging, exposed separately so the
        delta path (:mod:`repro.engine.delta`) can re-segment individual
        dirty tiles of a frame whose preprocessing already ran on the whole
        image (``target_shape`` resizing is not tile-local, so preparing a
        tile again would change the result).
        """
        segmenter = self.pipeline.segmenter
        labels: Optional[np.ndarray] = None
        extras: Dict[str, Any] = {}
        fast_path = "direct"

        if self.use_lut:
            hook = getattr(segmenter, "labels_from_lut", None)
            if hook is not None:
                # The hook fills a caller-owned extras dict so concurrent
                # map() workers sharing one segmenter never race on its
                # internal _last_extras state.
                extras_out: Dict[str, Any] = {}
                labels = hook(prepared, extras=extras_out)
                if labels is not None:
                    extras = extras_out
                    fast_path = str(extras.get("fast_path", "lut"))

        if labels is None and self._should_tile(prepared):
            labels = tile_map(
                functools.partial(_segment_tile, segmenter),
                prepared,
                tile_shape=self.tile_shape,
                executor=self.executor,
            )
            extras = {"tile_shape": self.tile_shape}
            fast_path = "tiled"

        if labels is None:
            inner = segmenter.segment(prepared)
            labels = inner.labels
            extras = dict(inner.extras)

        labels = np.asarray(labels).astype(np.int64, copy=False)
        return labels, extras, fast_path

    def segment(self, image: np.ndarray) -> SegmentationResult:
        """Segment one image through the cheapest exact strategy.

        The returned :class:`~repro.base.SegmentationResult` carries
        ``extras["fast_path"]`` (``"lut"``, ``"rgb-lut"``, ``"tiled"`` or
        ``"direct"``) so callers and reports can audit which path ran.
        """
        prepare_start = time.perf_counter()
        prepared = self.pipeline._prepare(np.asarray(image))
        prepare_seconds = time.perf_counter() - prepare_start
        start = time.perf_counter()
        labels, extras, fast_path = self._label_prepared(prepared)
        elapsed = time.perf_counter() - start
        extras["fast_path"] = fast_path
        # Per-stage timing for trace spans: runtime_seconds stays label time
        # only (its historical meaning), prepare cost is reported separately.
        extras["prepare_seconds"] = prepare_seconds
        return SegmentationResult(
            labels=labels,
            num_segments=_count_segments(labels),
            runtime_seconds=elapsed,
            method=self.pipeline.segmenter.name,
            extras=extras,
        )

    def run(
        self,
        image: np.ndarray,
        ground_truth: Optional[np.ndarray] = None,
        void_mask: Optional[np.ndarray] = None,
    ) -> PipelineResult:
        """Fast-path :meth:`segment` plus the pipeline's evaluation protocol."""
        result = self.segment(image)
        return self.pipeline.score(result, ground_truth, void_mask)

    def map(
        self,
        images,
        ground_truths=None,
        void_masks=None,
        return_errors: bool = False,
    ) -> List[PipelineResult]:
        """Run the engine over a batch, scattering images across the executor.

        Results come back in input order (one
        :class:`~repro.core.pipeline.PipelineResult` per image), exactly as
        the old serial ``SegmentationPipeline.run_many`` loop produced them.

        With ``return_errors`` a failing image does not abort the batch:
        its slot holds the raised exception instance instead of a result
        (callers filter with ``isinstance(item, Exception)``).  The default
        keeps the fail-fast semantics of the serial loop.
        """
        images = list(images)
        gts = list(ground_truths) if ground_truths is not None else [None] * len(images)
        voids = list(void_masks) if void_masks is not None else [None] * len(images)
        if not (len(images) == len(gts) == len(voids)):
            raise ParameterError("images, ground_truths and void_masks lengths differ")
        if not images:
            return []
        items = list(zip(images, gts, voids))
        return self.executor.map(
            functools.partial(_run_item, self, bool(return_errors)), items
        )

    def map_stream(
        self,
        images: Iterable[np.ndarray],
        ground_truths: Optional[Iterable[np.ndarray]] = None,
        void_masks: Optional[Iterable[np.ndarray]] = None,
        window: int = DEFAULT_STREAM_WINDOW,
        return_errors: bool = False,
        stream_id: Optional[str] = None,
        delta_tile_shape: Optional[Tuple[int, int]] = None,
    ) -> Iterator[PipelineResult]:
        """Stream :meth:`map` results with a bounded in-flight window.

        Unlike :meth:`map`, which materializes the whole input list, this
        generator pulls at most ``window`` images from the (possibly lazy)
        iterables at a time, scatters that chunk over the executor, and yields
        the results in input order before pulling the next chunk — so a
        dataset far larger than memory flows through holding only
        ``O(window)`` images and results at any moment.  ``ground_truths`` /
        ``void_masks`` may be lazy iterables too; when supplied they must
        yield exactly one item per image (a shorter or longer companion
        stream raises :class:`~repro.errors.ParameterError` at the point the
        mismatch is observed).  ``return_errors`` behaves as in :meth:`map`.

        With a ``stream_id`` the images are treated as a *temporal* stream:
        consecutive frames flow through the dirty-tile delta path
        (:class:`~repro.engine.delta.DeltaStreamEngine`), so only tiles that
        changed since the previous frame are re-segmented — bit-identical to
        the full recompute, but far cheaper on slowly-changing streams.
        Frames are processed strictly in input order (frame N+1 diffs
        against frame N's committed state), and a failing frame under
        ``return_errors`` yields its exception without poisoning the cached
        ancestor — the next good frame diffs against the last good one.
        ``delta_tile_shape`` overrides the delta grid (defaults to
        :data:`~repro.engine.delta.DEFAULT_DELTA_TILE_SHAPE`).
        """
        if int(window) < 1:
            raise ParameterError("window must be >= 1")
        window = int(window)

        def _triples() -> Iterator[Tuple]:
            gt_iter = iter(ground_truths) if ground_truths is not None else None
            void_iter = iter(void_masks) if void_masks is not None else None
            for image in images:
                gt = void = None
                if gt_iter is not None:
                    gt = next(gt_iter, _EXHAUSTED)
                    if gt is _EXHAUSTED:
                        raise ParameterError("ground_truths ended before images")
                if void_iter is not None:
                    void = next(void_iter, _EXHAUSTED)
                    if void is _EXHAUSTED:
                        raise ParameterError("void_masks ended before images")
                yield (image, gt, void)
            if gt_iter is not None and next(gt_iter, _EXHAUSTED) is not _EXHAUSTED:
                raise ParameterError("ground_truths is longer than images")
            if void_iter is not None and next(void_iter, _EXHAUSTED) is not _EXHAUSTED:
                raise ParameterError("void_masks is longer than images")

        if stream_id is not None:
            from .delta import DEFAULT_DELTA_TILE_SHAPE, DeltaStreamEngine

            delta = DeltaStreamEngine(
                self,
                tile_shape=(
                    delta_tile_shape
                    if delta_tile_shape is not None
                    else DEFAULT_DELTA_TILE_SHAPE
                ),
            )
            # Temporal streams are inherently sequential — frame N+1 diffs
            # against frame N — so the executor fan-out is skipped; the delta
            # reuse is where the speedup comes from, not parallelism.
            for image, ground_truth, void_mask in _triples():
                try:
                    result = delta.segment(image, stream_id)
                    scored = self.pipeline.score(result, ground_truth, void_mask)
                except Exception as exc:  # reprolint: disable=RL004 yielded to the map_stream(return_errors) caller
                    if not return_errors:
                        raise
                    scored = exc
                yield scored
            return

        run = functools.partial(_run_item, self, bool(return_errors))
        triples = _triples()
        while True:
            chunk = list(itertools.islice(triples, window))
            if not chunk:
                return
            results = self.executor.map(run, chunk)
            del chunk  # release the images before yielding (bounded window)
            yield from results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchSegmentationEngine(segmenter={self.segmenter.name!r}, "
            f"use_lut={self.use_lut}, tiling={self.tiling!r}, "
            f"executor={self.executor.name!r})"
        )

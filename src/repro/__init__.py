"""repro — reproduction of "Inverse Quantum Fourier Transform Inspired Algorithm
for Unsupervised Image Segmentation" (Akinola, Li, Wilkins, Obiomon, Qian,
IPPS 2023; arXiv:2301.04705).

The package implements the paper's IQFT-inspired segmentation algorithms, the
baselines it compares against, the evaluation protocol, synthetic stand-ins
for its datasets, and an experiment harness that regenerates every table and
figure of the evaluation section.  See ``README.md`` for a tour and
``DESIGN.md`` for the system inventory.

This module is the library's stable public surface: every supported name is
importable directly from :mod:`repro` (resolved lazily via PEP 562, so
``import repro`` stays fast), with :mod:`repro.serve` as the serving layer's
own surface.  Deeper paths are internal and may move between releases.

Quick start
-----------
>>> import numpy as np
>>> from repro import IQFTSegmenter
>>> image = (np.random.default_rng(0).random((32, 32, 3)) * 255).astype(np.uint8)
>>> result = IQFTSegmenter(thetas=np.pi).segment(image)
>>> result.labels.shape
(32, 32)
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "9.0.0"

#: Public name → implementation module (relative to this package).  Resolved
#: on first attribute access (PEP 562): ``import repro`` does not pull in the
#: engine, the serving stack, or the experiment harness until asked to.
_EXPORTS = {
    "BaseSegmenter": "base",
    "SegmentationResult": "base",
    "ReproConfig": "config",
    "configure": "config",
    "get_config": "config",
    "IQFTClassifier": "core",
    "IQFTSegmenter": "core",
    "IQFTGrayscaleSegmenter": "core",
    "ShotBasedIQFTSegmenter": "core",
    "FeatureIQFTSegmenter": "core",
    "SmoothedSegmenter": "core",
    "SegmentationPipeline": "core",
    "thresholds_for_theta": "core",
    "theta_for_threshold": "core",
    "tune_theta_supervised": "core",
    "tune_theta_unsupervised": "core",
    "NoiseModel": "quantum",
    "BatchSegmentationEngine": "engine",
    "PipelineResult": "engine",
    "ResultCache": "serve",
    "KMeansSegmenter": "baselines",
    "OtsuSegmenter": "baselines",
    "otsu_threshold": "baselines",
    "get_segmenter": "baselines",
    "available_segmenters": "baselines",
    "SyntheticVOCDataset": "datasets",
    "SyntheticXView2Dataset": "datasets",
    "ShapesDataset": "datasets",
    "make_balls_image": "datasets",
    "mean_iou": "metrics",
    "iou": "metrics",
    "pixel_accuracy": "metrics",
    "ResultTable": "metrics",
    "MethodScore": "metrics",
    "ReproError": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # cache: next access skips this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .base import BaseSegmenter, SegmentationResult
    from .baselines import (
        KMeansSegmenter,
        OtsuSegmenter,
        available_segmenters,
        get_segmenter,
        otsu_threshold,
    )
    from .config import ReproConfig, configure, get_config
    from .core import (
        FeatureIQFTSegmenter,
        IQFTClassifier,
        IQFTGrayscaleSegmenter,
        IQFTSegmenter,
        SegmentationPipeline,
        ShotBasedIQFTSegmenter,
        SmoothedSegmenter,
        theta_for_threshold,
        thresholds_for_theta,
        tune_theta_supervised,
        tune_theta_unsupervised,
    )
    from .datasets import (
        ShapesDataset,
        SyntheticVOCDataset,
        SyntheticXView2Dataset,
        make_balls_image,
    )
    from .engine import BatchSegmentationEngine, PipelineResult
    from .errors import ReproError
    from .metrics import MethodScore, ResultTable, iou, mean_iou, pixel_accuracy
    from .quantum import NoiseModel
    from .serve import ResultCache

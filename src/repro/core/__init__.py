"""The paper's primary contribution: the IQFT-inspired segmentation algorithms.

Public surface
--------------
* :class:`IQFTClassifier` — the generic ``n``-qubit phase-pattern classifier
  underlying both algorithms (equation (11) of the paper generalized to any
  number of qubits).
* :class:`IQFTSegmenter` — Algorithm 1, the RGB segmenter (3 qubits, up to
  8 segments).
* :class:`IQFTGrayscaleSegmenter` — the single-qubit grayscale variant of
  Section IV-C, equivalent to (multi-)thresholding via equation (15).
* θ ↔ threshold calculus (:mod:`repro.core.thresholds`), segment-count
  analysis and per-image θ tuning (:mod:`repro.core.theta_search`).
* Label utilities (:mod:`repro.core.labels`) and an end-to-end
  :class:`SegmentationPipeline`.
"""

from .iqft_matrix import (
    iqft_classification_matrix,
    iqft_unitary_matrix,
    basis_bit_matrix,
    basis_phase_patterns,
    bit_reversed_index,
    bit_reversal_permutation,
)
from .phase_encoding import (
    normalize_pixels,
    pixel_phases,
    phase_vector,
    phase_vectors,
    DEFAULT_THETA,
)
from .classifier import IQFTClassifier
from .lut import (
    grayscale_label_lut,
    grayscale_probability_lut,
    lut_eligible,
    lut_cache_info,
    clear_lut_cache,
    rgb_label_tables,
    RgbLabelTables,
)
from .rgb_segmenter import IQFTSegmenter
from .grayscale_segmenter import IQFTGrayscaleSegmenter
from .thresholds import (
    thresholds_for_theta,
    theta_for_threshold,
    grayscale_class_probabilities,
    classify_intensity,
    paper_table1,
)
from .theta_search import (
    max_segments_for_theta,
    segment_count_table,
    tune_theta_supervised,
    tune_theta_unsupervised,
    ThetaSearchResult,
)
from .labels import (
    relabel_consecutive,
    count_segments,
    binarize_by_overlap,
    binarize_largest_background,
    segment_sizes,
)
from .pipeline import SegmentationPipeline, PipelineResult
from .sampling_segmenter import ShotBasedIQFTSegmenter, effective_depolarizing_strength
from .feature_segmenter import FeatureIQFTSegmenter, FEATURE_EXTRACTORS
from .postprocess import majority_smooth, merge_small_segments, SmoothedSegmenter

__all__ = [
    "iqft_classification_matrix",
    "iqft_unitary_matrix",
    "basis_bit_matrix",
    "basis_phase_patterns",
    "bit_reversed_index",
    "bit_reversal_permutation",
    "normalize_pixels",
    "pixel_phases",
    "phase_vector",
    "phase_vectors",
    "DEFAULT_THETA",
    "IQFTClassifier",
    "IQFTSegmenter",
    "IQFTGrayscaleSegmenter",
    "grayscale_label_lut",
    "grayscale_probability_lut",
    "lut_eligible",
    "lut_cache_info",
    "clear_lut_cache",
    "rgb_label_tables",
    "RgbLabelTables",
    "thresholds_for_theta",
    "theta_for_threshold",
    "grayscale_class_probabilities",
    "classify_intensity",
    "paper_table1",
    "max_segments_for_theta",
    "segment_count_table",
    "tune_theta_supervised",
    "tune_theta_unsupervised",
    "ThetaSearchResult",
    "relabel_consecutive",
    "count_segments",
    "binarize_by_overlap",
    "binarize_largest_background",
    "segment_sizes",
    "SegmentationPipeline",
    "PipelineResult",
    "ShotBasedIQFTSegmenter",
    "effective_depolarizing_strength",
    "FeatureIQFTSegmenter",
    "FEATURE_EXTRACTORS",
    "majority_smooth",
    "merge_small_segments",
    "SmoothedSegmenter",
]

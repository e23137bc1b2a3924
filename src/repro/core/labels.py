"""Label-map utilities: relabeling, counting, and binarization for evaluation.

The IQFT RGB segmenter (and the K-means baseline with ``k > 2``) produce
multi-way label maps, while the paper's evaluation is binary
foreground/background mIOU.  The mapping from predicted segments to the two
evaluation classes is done by **majority overlap with the ground truth**
(:func:`binarize_by_overlap`) — each predicted segment is assigned to whichever
ground-truth class covers the larger share of its (non-void) pixels.  This is
the standard protocol for scoring unsupervised segmentations against binary
masks and is applied identically to every method, so the comparison stays fair.

An unsupervised alternative (:func:`binarize_largest_background`) is provided
for applications with no ground truth at all: the largest segment is declared
background and everything else foreground.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import MetricError, ShapeError

__all__ = [
    "relabel_consecutive",
    "count_segments",
    "segment_sizes",
    "binarize_by_overlap",
    "binarize_largest_background",
]


def _check_label_map(labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ShapeError(f"label map must be 2-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ShapeError("label map must contain integers")
        arr = arr.astype(np.int64)
    return arr.astype(np.int64, copy=False)


def relabel_consecutive(labels: np.ndarray) -> np.ndarray:
    """Map the labels present in the map onto ``0..K-1`` preserving order."""
    arr = _check_label_map(labels)
    _, inverse = np.unique(arr, return_inverse=True)
    return inverse.reshape(arr.shape).astype(np.int64)


def count_segments(labels: np.ndarray) -> int:
    """Number of distinct labels present in the map."""
    return int(np.unique(_check_label_map(labels)).size)


def segment_sizes(labels: np.ndarray) -> Dict[int, int]:
    """Mapping ``label -> pixel count`` for every label present."""
    arr = _check_label_map(labels)
    values, counts = np.unique(arr, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def binarize_by_overlap(
    predicted: np.ndarray,
    ground_truth: np.ndarray,
    void_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Collapse a multi-way prediction to binary fg/bg by majority overlap.

    Parameters
    ----------
    predicted:
        ``(H, W)`` integer label map from any segmenter.
    ground_truth:
        ``(H, W)`` binary mask (0 = background, non-zero = foreground).
    void_mask:
        Optional boolean mask of pixels to ignore when computing overlaps
        (the VOC 'void' border band).  Void pixels still receive a label in
        the output (whatever their segment majority is), but they do not
        influence the segment-to-class assignment and are excluded again by
        the mIOU computation.

    Returns
    -------
    binary:
        ``(H, W)`` array of 0/1 labels.
    """
    pred = _check_label_map(predicted)
    gt = np.asarray(ground_truth)
    if gt.shape != pred.shape:
        raise MetricError(
            f"prediction shape {pred.shape} does not match ground truth {gt.shape}"
        )
    gt_binary = (gt != 0).astype(np.int64)
    valid = np.ones(pred.shape, dtype=bool)
    if void_mask is not None:
        void = np.asarray(void_mask, dtype=bool)
        if void.shape != pred.shape:
            raise MetricError("void mask shape does not match the prediction")
        valid &= ~void

    out = np.zeros_like(pred)
    for label in np.unique(pred):
        segment = pred == label
        scoped = segment & valid
        if not scoped.any():
            # A segment living entirely inside the void band: fall back to the
            # unscoped majority so the pixel still gets a sensible class.
            scoped = segment
        foreground_votes = int(gt_binary[scoped].sum())
        background_votes = int(scoped.sum()) - foreground_votes
        out[segment] = 1 if foreground_votes > background_votes else 0
    return out


def binarize_largest_background(predicted: np.ndarray) -> np.ndarray:
    """Unsupervised binarization: the largest segment becomes background (0).

    Every other segment is marked foreground (1); of equally large segments
    the smallest label is background.  Useful when no ground truth exists;
    not used for the paper-comparison tables.
    """
    pred = _check_label_map(predicted)
    if pred.size == 0:
        raise MetricError("empty label map")
    flat = pred.ravel()
    if int(flat.min()) >= 0 and int(flat.max()) < 65536:
        # One O(N) histogram; argmax takes the first (smallest) of tied labels.
        background_label = int(np.argmax(np.bincount(flat)))
    else:
        sizes = segment_sizes(pred)
        background_label = max(sizes, key=lambda k: sizes[k])
    return (pred != background_label).astype(np.int64)

"""Unit tests for label-map utilities and evaluation binarization."""

import numpy as np
import pytest

from repro.core.labels import (
    binarize_by_overlap,
    binarize_largest_background,
    count_segments,
    relabel_consecutive,
    segment_sizes,
)
from repro.errors import MetricError, ShapeError


def test_relabel_consecutive_preserves_partition():
    labels = np.array([[5, 5, 9], [9, 2, 2]])
    out = relabel_consecutive(labels)
    assert set(np.unique(out)) == {0, 1, 2}
    # Same-label pixels stay together, different-label pixels stay apart.
    assert out[0, 0] == out[0, 1]
    assert out[0, 2] == out[1, 0]
    assert out[1, 1] == out[1, 2]
    assert len({out[0, 0], out[0, 2], out[1, 1]}) == 3


def test_count_segments_and_sizes():
    labels = np.array([[0, 0, 1], [1, 1, 3]])
    assert count_segments(labels) == 3
    assert segment_sizes(labels) == {0: 2, 1: 3, 3: 1}


def test_label_map_must_be_2d_integers():
    with pytest.raises(ShapeError):
        count_segments(np.zeros(5))
    with pytest.raises(ShapeError):
        count_segments(np.array([[0.5, 1.2]]))


def test_binarize_by_overlap_majority_assignment():
    predicted = np.array([[0, 0, 1, 1], [0, 0, 1, 1]])
    gt = np.array([[0, 0, 1, 1], [0, 0, 1, 0]])
    # Segment 1 overlaps foreground in 3 of 4 pixels -> foreground.
    binary = binarize_by_overlap(predicted, gt)
    assert np.array_equal(binary, np.array([[0, 0, 1, 1], [0, 0, 1, 1]]))


def test_binarize_by_overlap_multiway_prediction():
    predicted = np.array([[0, 1, 2], [0, 1, 2]])
    gt = np.array([[0, 1, 1], [0, 1, 1]])
    binary = binarize_by_overlap(predicted, gt)
    assert np.array_equal(binary, gt)


def test_binarize_by_overlap_respects_void_mask():
    predicted = np.array([[0, 0, 1], [0, 0, 1]])
    gt = np.array([[0, 1, 1], [0, 1, 1]])
    # Without the void mask, segment 0 is half foreground -> ties go background.
    void = np.array([[False, True, False], [False, True, False]])
    binary = binarize_by_overlap(predicted, gt, void_mask=void)
    assert np.array_equal(binary[:, 0], [0, 0])
    assert np.array_equal(binary[:, 2], [1, 1])


def test_binarize_by_overlap_segment_entirely_in_void():
    predicted = np.array([[0, 1], [0, 1]])
    gt = np.array([[0, 1], [0, 1]])
    void = np.array([[False, True], [False, True]])
    binary = binarize_by_overlap(predicted, gt, void_mask=void)
    # Segment 1 only exists inside the void band; it falls back to its
    # unscoped majority (foreground here).
    assert np.array_equal(binary, gt)


def test_binarize_by_overlap_shape_mismatch():
    with pytest.raises(MetricError):
        binarize_by_overlap(np.zeros((2, 2), dtype=int), np.zeros((3, 3), dtype=int))
    with pytest.raises(MetricError):
        binarize_by_overlap(
            np.zeros((2, 2), dtype=int),
            np.zeros((2, 2), dtype=int),
            void_mask=np.zeros((3, 3), dtype=bool),
        )


def test_binarize_largest_background():
    predicted = np.array([[0, 0, 0, 1], [0, 0, 2, 1]])
    binary = binarize_largest_background(predicted)
    assert np.array_equal(binary, np.array([[0, 0, 0, 1], [0, 0, 1, 1]]))


def _largest_background_by_sorted_sizes(predicted):
    # The np.unique formulation the histogram replaced: the largest segment
    # is background, and max() over the sorted sizes keeps the smallest of
    # tied labels.
    sizes = segment_sizes(predicted)
    background = max(sizes, key=lambda k: sizes[k])
    return (np.asarray(predicted) != background).astype(np.int64)


@pytest.mark.parametrize("offset", [0, -3, 70_000])
def test_binarize_largest_background_matches_sorted_sizes(rng, offset):
    # offset 0 takes the histogram; negative labels and labels past 65,535
    # take np.unique.  Half the maps force a tie between the two largest.
    for trial in range(40):
        labels = rng.integers(0, 6, size=(9, 11))
        if trial % 2:
            labels = rng.permutation(np.repeat([4, 1, 2, 5], [20, 20, 10, 10])).reshape(6, 10)
        labels = labels + offset
        binary = binarize_largest_background(labels)
        assert binary.dtype == np.int64
        assert np.array_equal(binary, _largest_background_by_sorted_sizes(labels))
    tie = np.array([[7, 3], [3, 7]]) + offset
    assert np.array_equal(binarize_largest_background(tie), (tie != 3 + offset).astype(np.int64))


def test_binarize_largest_background_rejects_an_empty_map():
    with pytest.raises(MetricError):
        binarize_largest_background(np.zeros((0, 4), dtype=np.int64))


def test_binarize_by_overlap_perfect_prediction_is_identity(rng):
    gt = (rng.random((10, 10)) > 0.6).astype(np.int64)
    assert np.array_equal(binarize_by_overlap(gt, gt), gt)

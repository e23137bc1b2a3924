"""Property tests: the dirty-tile delta path is bit-identical to full recompute.

The delta engine's whole contract is exactness: for any frame sequence, any
tile grid and any mutation pattern, stitching reused tiles into the ancestor
label map must reproduce ``engine.segment(frame)`` bit for bit — grayscale
and RGB.  Hypothesis drives frames, grids and
mutations; a single differing pixel is a contract breach.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.grayscale_segmenter import IQFTGrayscaleSegmenter
from repro.core.rgb_segmenter import IQFTSegmenter
from repro.engine import BatchSegmentationEngine
from repro.engine.delta import DeltaStreamEngine

# Hypothesis-heavy: CI runs this suite on one matrix leg (see pyproject's
# `property` marker note).
pytestmark = pytest.mark.property

_gray_frames = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(4, 28), st.integers(4, 28)),
    elements=st.integers(0, 255),
)

_rgb_frames = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(4, 20), st.integers(4, 20), st.just(3)),
    elements=st.integers(0, 255),
)

_tiles = st.tuples(st.integers(3, 12), st.integers(3, 12))

# A mutation: a rectangle anchor (as fractions of the frame) plus a byte
# delta; applied mod 256 so it always changes the touched pixels' bytes.
_mutations = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(1, 9),
        st.integers(1, 9),
        st.integers(1, 255),
    ),
    min_size=0,
    max_size=3,
)


def _apply(frame, mutations):
    """The next frame of the stream: rectangles shifted by a byte delta."""
    height, width = frame.shape[:2]
    out = frame.copy()
    for row_f, col_f, rows, cols, delta in mutations:
        row = int(row_f * (height - 1))
        col = int(col_f * (width - 1))
        block = out[row : row + rows, col : col + cols]
        block[...] = (block.astype(np.int32) + delta).astype(np.uint8)
    return out


def _check_sequence(engine, frames, tile_shape):
    delta = DeltaStreamEngine(engine, tile_shape=tile_shape)
    for frame in frames:
        expected = engine.segment(frame)
        result = delta.segment(frame, "prop")
        assert np.array_equal(result.labels, expected.labels)
        assert result.num_segments == expected.num_segments


@settings(max_examples=25, deadline=None)
@given(frame=_gray_frames, tile_shape=_tiles, mutations=_mutations)
def test_grayscale_delta_bit_identity(frame, tile_shape, mutations):
    engine = BatchSegmentationEngine(IQFTGrayscaleSegmenter(theta=2 * np.pi))
    _check_sequence(engine, [frame, _apply(frame, mutations)], tile_shape)


@settings(max_examples=25, deadline=None)
@given(frame=_rgb_frames, tile_shape=_tiles, mutations=_mutations)
def test_rgb_delta_bit_identity(frame, tile_shape, mutations):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    _check_sequence(engine, [frame, _apply(frame, mutations)], tile_shape)


@settings(max_examples=15, deadline=None)
@given(
    frame=_gray_frames,
    tile_shape=_tiles,
    plans=st.lists(_mutations, min_size=2, max_size=4),
)
def test_longer_streams_stay_bit_identical(frame, tile_shape, plans):
    """Reuse compounds over many frames without drifting from the truth."""
    frames = [frame]
    for mutations in plans:
        frames.append(_apply(frames[-1], mutations))
    engine = BatchSegmentationEngine(IQFTGrayscaleSegmenter(theta=np.pi))
    _check_sequence(engine, frames, tile_shape)


@settings(max_examples=15, deadline=None)
@given(frame=_rgb_frames, tile_shape=_tiles, mutations=_mutations)
def test_delta_with_lut_disabled_matches_too(frame, tile_shape, mutations):
    """The per-tile recompute is exact on the matrix path, not just the LUT."""
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi), use_lut=False)
    _check_sequence(engine, [frame, _apply(frame, mutations)], tile_shape)

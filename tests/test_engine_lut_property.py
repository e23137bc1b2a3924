"""Property tests: the LUT fast path is bit-identical to the matrix path.

Equation (15) of the paper says the segmentation rule is a pure function of
the raw pixel value, so labelling through a per-value table must agree with
the per-pixel matrix product *exactly* — not approximately — for every image
and every θ.  Hypothesis searches for counterexamples over random uint8
images across the paper's angle regimes θ ∈ {π/2, π, 2π, 4π}; the RGB
palette path is also searched over per-channel θ triples, the
``normalize=False`` ablation and int32 storage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import BatchSegmentationEngine, IQFTGrayscaleSegmenter, IQFTSegmenter

# Hypothesis-heavy: CI runs this suite on one matrix leg (see pyproject's
# `property` marker note).
pytestmark = pytest.mark.property

_THETAS = (np.pi / 2, np.pi, 2 * np.pi, 4 * np.pi)

_gray_images = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    elements=st.integers(0, 255),
)

_rgb_images = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 16), st.integers(1, 16), st.just(3)),
    elements=st.integers(0, 255),
)


@given(image=_gray_images, theta=st.sampled_from(_THETAS), multiband=st.booleans())
@settings(max_examples=60, deadline=None)
def test_grayscale_lut_is_bit_identical(image, theta, multiband):
    segmenter = IQFTGrayscaleSegmenter(theta=theta, multiband=multiband)
    exact = segmenter.segment(image).labels
    fast = segmenter.labels_from_lut(image)
    assert fast is not None
    assert fast.dtype.kind == "i"
    assert np.array_equal(fast, exact)


@given(image=_rgb_images, theta=st.sampled_from(_THETAS))
@settings(max_examples=60, deadline=None)
def test_rgb_palette_lut_is_bit_identical(image, theta):
    segmenter = IQFTSegmenter(thetas=theta)
    exact = segmenter.segment(image).labels
    fast = segmenter.labels_from_lut(image)
    assert fast is not None
    assert np.array_equal(fast, exact)


_theta_triples = st.tuples(
    *[st.sampled_from(_THETAS) | st.floats(0.05, 4 * np.pi, allow_nan=False)] * 3
)


@given(image=_rgb_images, thetas=_theta_triples, normalize=st.booleans(), wide=st.booleans())
@settings(max_examples=80, deadline=None)
def test_rgb_palette_lut_is_bit_identical_per_channel_theta_normalize_and_dtype(
    image, thetas, normalize, wide
):
    # ``wide`` stores the same values as int32, which normalizes by
    # ``max_value`` instead of 255; ``normalize=False`` is the Figure 5
    # ablation.  Each combination takes its own normalization branch.
    if wide:
        image = image.astype(np.int32)
    segmenter = IQFTSegmenter(thetas=thetas, normalize=normalize)
    fast = segmenter.labels_from_lut(image)
    if wide and normalize and image.max() <= 1:
        # normalize_pixels reads such an image as already normalized, a
        # branch a palette of raw codes cannot reproduce: ineligible.
        assert fast is None
        return
    assert fast is not None
    assert np.array_equal(fast, segmenter.segment(image).labels)


@given(
    image=hnp.arrays(
        dtype=np.int32,
        shape=st.tuples(st.integers(1, 8), st.integers(1, 8), st.just(3)),
        elements=st.integers(0, 1),
    ),
    thetas=_theta_triples,
)
@settings(max_examples=20, deadline=None)
def test_int32_image_with_maximum_at_most_one_is_ineligible_under_normalize(image, thetas):
    assert IQFTSegmenter(thetas=thetas).labels_from_lut(image) is None
    ablation = IQFTSegmenter(thetas=thetas, normalize=False)
    fast = ablation.labels_from_lut(image)
    assert fast is not None
    assert np.array_equal(fast, ablation.segment(image).labels)


@given(image=_gray_images, theta=st.sampled_from(_THETAS), multiband=st.booleans())
@settings(max_examples=30, deadline=None)
def test_engine_grayscale_matches_matrix_path(image, theta, multiband):
    engine = BatchSegmentationEngine(IQFTGrayscaleSegmenter(theta=theta, multiband=multiband))
    result = engine.segment(image)
    exact = IQFTGrayscaleSegmenter(theta=theta, multiband=multiband).segment(image)
    assert result.extras["fast_path"] == "lut"
    assert np.array_equal(result.labels, exact.labels)
    assert result.num_segments == exact.num_segments


@given(image=_rgb_images, theta=st.sampled_from(_THETAS))
@settings(max_examples=30, deadline=None)
def test_engine_rgb_matches_matrix_path(image, theta):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=theta))
    result = engine.segment(image)
    exact = IQFTSegmenter(thetas=theta).segment(image)
    assert result.extras["fast_path"] == "palette-lut"
    assert np.array_equal(result.labels, exact.labels)
    assert result.num_segments == exact.num_segments


@given(
    image=hnp.arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
        elements=st.integers(0, 255),
    ),
    theta=st.sampled_from(_THETAS),
)
@settings(max_examples=30, deadline=None)
def test_probability_lut_matches_pixel_probabilities(image, theta):
    segmenter = IQFTGrayscaleSegmenter(theta=theta)
    from repro.core.lut import grayscale_probability_lut

    probs = grayscale_probability_lut(theta=theta)
    exact = segmenter.pixel_probabilities(image)
    assert np.array_equal(probs[image], exact)

"""Property tests: the LUT fast path is bit-identical to the matrix path.

Equation (15) of the paper says the segmentation rule is a pure function of
the raw pixel value, so labelling through a per-value table must agree with
the per-pixel matrix product *exactly* — not approximately — for every image
and every θ.  Hypothesis searches for counterexamples over random uint8
images across the paper's angle regimes θ ∈ {π/2, π, 2π, 4π}; the RGB
table path is also searched over per-channel θ triples (zero angles
included), the ``normalize=False`` ablation and int32 storage, and checked
on every one of the 2²⁴ colours at the default key.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import BatchSegmentationEngine, IQFTGrayscaleSegmenter, IQFTSegmenter
from repro.core.lut import RGB_MARGIN, rgb_label_tables

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
    *[st.sampled_from(_THETAS + (0.0,)) | st.floats(0.05, 4 * np.pi, allow_nan=False)] * 3
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


def test_rgb_lut_equals_segment_on_every_colour():
    # All 2**24 colours at the default key (θ = π, normalize, uint8), one
    # r-slab of 65,536 colours at a time, against the exact path computed
    # on this machine.  No digest is pinned: 22,974 colours tie to within
    # 1e-15 and take the classifier's own rounding, which another libm
    # could break differently — this comparison holds wherever it runs.
    segmenter = IQFTSegmenter()
    green, blue = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    slab = np.stack((np.zeros_like(green), green, blue), axis=-1).astype(np.uint8)
    for red in range(256):
        slab[..., 0] = red
        fast = segmenter.labels_from_lut(slab)
        assert np.array_equal(fast, segmenter.segment(slab).labels), f"r = {red}"


@pytest.mark.parametrize("thetas", [(np.pi, np.pi, 0.0), (1.3, 2.0, 0.0)])
def test_a_zero_blue_angle_makes_exception_rows_only_of_uncertified_colours(thetas):
    # θ3 = 0 zeroes every odd state's probability, so odd never wins and
    # all 256 colours of a row share one probability vector: a row must be
    # an exception row exactly when that vector's top-2 margin is within
    # RGB_MARGIN, whatever ties the never-winning odd states hold.
    red, green = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    rows = np.stack((red, green, np.zeros_like(red)), axis=-1).astype(np.uint8)
    segmenter = IQFTSegmenter(thetas=thetas)
    probs = np.sort(segmenter.pixel_probabilities(rows).reshape(65536, 8), axis=1)
    assert np.all(probs[:, :4] < 1e-15)  # the four odd states
    uncertified = np.flatnonzero(probs[:, -1] - probs[:, -2] <= RGB_MARGIN)
    tables = rgb_label_tables(segmenter.thetas)
    assert tables.resolved
    assert np.array_equal(tables.exception_rows, uncertified)
    image = rows.copy()
    image[..., 2] = np.arange(65536).reshape(256, 256) % 256
    labels = segmenter.labels_from_lut(image)
    assert np.all(labels % 2 == 0)
    assert np.array_equal(labels, segmenter.segment(image).labels)


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
    assert result.extras["fast_path"] == "rgb-lut"
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

"""Unit tests for the batch segmentation engine and the LUT machinery."""

import numpy as np
import pytest

from repro import IQFTGrayscaleSegmenter, IQFTSegmenter, SegmentationPipeline
from repro.core.classifier import IQFTClassifier
from repro.core import lut
from repro.core.lut import (
    MAX_EXCEPTION_ROWS,
    clear_lut_cache,
    grayscale_label_lut,
    grayscale_probability_lut,
    lut_cache_info,
    lut_eligible,
    rgb_label_tables,
)
from repro.engine import BatchSegmentationEngine
from repro.errors import ParameterError
from repro.parallel.executor import ThreadExecutor


@pytest.fixture
def uint8_rgb(rng):
    return (rng.random((24, 18, 3)) * 255).astype(np.uint8)


@pytest.fixture
def uint8_gray(rng):
    return (rng.random((24, 18)) * 255).astype(np.uint8)


# --------------------------------------------------------------------------- #
# Construction / validation
# --------------------------------------------------------------------------- #
def test_engine_rejects_bad_parameters():
    seg = IQFTSegmenter()
    with pytest.raises(ParameterError):
        BatchSegmentationEngine("not a segmenter")
    with pytest.raises(ParameterError):
        BatchSegmentationEngine(seg, tiling="sometimes")
    with pytest.raises(ParameterError):
        BatchSegmentationEngine(seg, tile_shape=(0, 8))
    with pytest.raises(ParameterError):
        BatchSegmentationEngine(seg, auto_tile_pixels=0)
    with pytest.raises(ParameterError):
        BatchSegmentationEngine(seg, executor="process")
    with pytest.raises(ParameterError):
        BatchSegmentationEngine.from_pipeline(seg)


def test_engine_describe_is_json_friendly():
    import json

    engine = BatchSegmentationEngine(IQFTSegmenter(), tile_shape=(64, 64))
    info = engine.describe()
    assert info["segmenter"] == "iqft-rgb"
    assert info["use_lut"] is True
    assert info["tiling"] == "auto"
    assert info["executor"] == "serial"
    json.dumps(info)


def test_from_pipeline_shares_preprocessing(uint8_rgb):
    pipeline = SegmentationPipeline(IQFTSegmenter(), target_shape=(12, 12))
    engine = BatchSegmentationEngine.from_pipeline(pipeline)
    assert engine.pipeline is pipeline
    assert engine.segment(uint8_rgb).shape == (12, 12)


# --------------------------------------------------------------------------- #
# Fast-path selection and exact equivalence
# --------------------------------------------------------------------------- #
def test_engine_lut_path_matches_exact_segmenter(uint8_rgb):
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    result = engine.segment(uint8_rgb)
    exact = IQFTSegmenter(thetas=np.pi).segment(uint8_rgb)
    assert result.extras["fast_path"] == "rgb-lut"
    assert np.array_equal(result.labels, exact.labels)
    assert result.num_segments == exact.num_segments
    assert result.method == "iqft-rgb"


def test_engine_gray_lut_path_matches_exact_segmenter(uint8_gray):
    engine = BatchSegmentationEngine(IQFTGrayscaleSegmenter(theta=4 * np.pi))
    result = engine.segment(uint8_gray)
    exact = IQFTGrayscaleSegmenter(theta=4 * np.pi).segment(uint8_gray)
    assert result.extras["fast_path"] == "lut"
    assert np.array_equal(result.labels, exact.labels)
    assert result.num_segments == exact.num_segments


def test_engine_float_input_falls_back_to_direct(small_rgb_float):
    engine = BatchSegmentationEngine(IQFTSegmenter())
    result = engine.segment(small_rgb_float)
    assert result.extras["fast_path"] == "direct"
    assert np.array_equal(result.labels, IQFTSegmenter().segment(small_rgb_float).labels)


def test_engine_use_lut_false_forces_matrix_path(uint8_rgb):
    engine = BatchSegmentationEngine(IQFTSegmenter(), use_lut=False)
    result = engine.segment(uint8_rgb)
    assert result.extras["fast_path"] == "direct"
    assert np.array_equal(result.labels, IQFTSegmenter().segment(uint8_rgb).labels)


def test_store_probabilities_falls_back_to_matrix_path(uint8_rgb):
    segmenter = IQFTSegmenter(store_probabilities=True)
    assert segmenter.labels_from_lut(uint8_rgb) is None
    engine = BatchSegmentationEngine(IQFTSegmenter(store_probabilities=True))
    result = engine.segment(uint8_rgb)
    assert result.extras["fast_path"] == "direct"
    assert "probabilities" in result.extras  # the documented contract survives


def test_map_extras_are_per_image_under_threads(rng):
    # Two images with different palettes, one shared segmenter, two threads:
    # each result must carry its own extras (no shared-state races).
    small_palette = np.zeros((30, 30, 3), dtype=np.uint8)
    big_palette = (rng.random((30, 30, 3)) * 255).astype(np.uint8)
    engine = BatchSegmentationEngine(IQFTSegmenter(), executor=ThreadExecutor(max_workers=2))
    results = engine.map([small_palette, big_palette] * 4)
    for index, result in enumerate(results):
        image = small_palette if index % 2 == 0 else big_palette
        assert result.segmentation.extras["fast_path"] == "rgb-lut"
        assert np.array_equal(result.labels, IQFTSegmenter().segment(image).labels)


def test_engine_works_for_segmenters_without_hook(small_rgb_uint8):
    from repro.baselines.otsu import OtsuSegmenter

    engine = BatchSegmentationEngine(OtsuSegmenter(), to_grayscale=True)
    result = engine.segment(small_rgb_uint8)
    assert result.extras["fast_path"] == "direct"
    assert result.method == "otsu"


# --------------------------------------------------------------------------- #
# run / map / run_many
# --------------------------------------------------------------------------- #
def test_engine_run_matches_pipeline_run(uint8_rgb, rng):
    mask = (rng.random(uint8_rgb.shape[:2]) > 0.5).astype(np.int64)
    engine = BatchSegmentationEngine(IQFTSegmenter())
    pipeline = SegmentationPipeline(IQFTSegmenter())
    fast = engine.run(uint8_rgb, mask)
    exact = pipeline.run(uint8_rgb, mask)
    assert np.array_equal(fast.binary, exact.binary)
    assert fast.metrics == exact.metrics


def test_engine_map_preserves_order_and_length(uint8_rgb, rng):
    images = [uint8_rgb, (rng.random((10, 11, 3)) * 255).astype(np.uint8)]
    engine = BatchSegmentationEngine(IQFTSegmenter())
    results = engine.map(images)
    assert len(results) == 2
    assert results[0].labels.shape == (24, 18)
    assert results[1].labels.shape == (10, 11)
    assert engine.map([]) == []


def test_engine_map_return_errors_isolates_failures(uint8_rgb, rng):
    gray = (rng.random((9, 9)) * 255).astype(np.uint8)  # invalid for iqft-rgb
    engine = BatchSegmentationEngine(IQFTSegmenter())
    with pytest.raises(Exception):
        engine.map([uint8_rgb, gray])  # default stays fail-fast
    results = engine.map([uint8_rgb, gray, uint8_rgb], return_errors=True)
    assert not isinstance(results[0], Exception)
    assert isinstance(results[1], Exception)
    assert np.array_equal(results[0].labels, results[2].labels)


def test_engine_map_validates_lengths(uint8_rgb):
    engine = BatchSegmentationEngine(IQFTSegmenter())
    with pytest.raises(ParameterError):
        engine.map([uint8_rgb], ground_truths=[None, None])


def test_engine_map_with_thread_executor(uint8_rgb, rng):
    images = [uint8_rgb] * 3
    serial = BatchSegmentationEngine(IQFTSegmenter())
    threaded = BatchSegmentationEngine(IQFTSegmenter(), executor=ThreadExecutor(max_workers=2))
    for a, b in zip(serial.map(images), threaded.map(images)):
        assert np.array_equal(a.labels, b.labels)


def test_run_many_delegates_to_engine(uint8_rgb, rng):
    mask = (rng.random(uint8_rgb.shape[:2]) > 0.5).astype(np.int64)
    pipeline = SegmentationPipeline(IQFTSegmenter())
    results = pipeline.run_many([uint8_rgb, uint8_rgb], [mask, None])
    assert len(results) == 2
    assert results[0].segmentation.extras["fast_path"] == "rgb-lut"
    assert results[0].metrics == pipeline.run(uint8_rgb, mask).metrics
    assert results[1].metrics == {}
    # the matrix path stays reachable
    exact = pipeline.run_many([uint8_rgb], use_lut=False)
    assert exact[0].segmentation.extras["fast_path"] == "direct"
    assert np.array_equal(exact[0].labels, results[0].labels)


# --------------------------------------------------------------------------- #
# LUT eligibility and the cache
# --------------------------------------------------------------------------- #
def test_lut_eligibility_rules(rng):
    assert lut_eligible(np.array([[1, 200]], dtype=np.uint8))
    assert lut_eligible(np.array([[3, 200]], dtype=np.int64))
    assert not lut_eligible(np.array([[0.5, 0.2]]))  # float
    assert not lut_eligible(np.array([[-1, 3]], dtype=np.int64))  # negative
    assert not lut_eligible(np.array([[0, 300]], dtype=np.int64))  # out of range
    assert not lut_eligible(np.array([[0, 1]], dtype=np.int64))  # "already normalized" branch
    assert lut_eligible(np.array([[0, 1]], dtype=np.int64), normalize=False)
    assert not lut_eligible(np.zeros((0, 0), dtype=np.uint8))  # empty


def test_engine_falls_back_for_ineligible_integers(rng):
    image = rng.integers(0, 2, size=(12, 12)).astype(np.int64)  # max <= 1
    engine = BatchSegmentationEngine(IQFTGrayscaleSegmenter())
    result = engine.segment(image)
    assert result.extras["fast_path"] == "direct"
    assert np.array_equal(result.labels, IQFTGrayscaleSegmenter().segment(image).labels)


def test_gray_hook_rejects_rgb_input(uint8_rgb):
    assert IQFTGrayscaleSegmenter().labels_from_lut(uint8_rgb) is None


def test_int64_image_uses_lut_and_matches(rng):
    image = rng.integers(0, 256, size=(20, 20)).astype(np.int64)
    seg = IQFTGrayscaleSegmenter(theta=2 * np.pi)
    fast = seg.labels_from_lut(image)
    assert fast is not None
    assert np.array_equal(fast, seg.segment(image).labels)


def test_lut_cache_hits_and_clear():
    clear_lut_cache()
    grayscale_label_lut(theta=np.pi)
    misses = lut_cache_info().misses
    grayscale_label_lut(theta=np.pi)
    info = lut_cache_info()
    assert info.misses == misses
    assert info.hits >= 1
    clear_lut_cache()
    assert lut_cache_info().currsize == 0


def test_lut_tables_are_read_only_and_validated():
    lut = grayscale_label_lut(theta=np.pi)
    assert lut.shape == (256,)
    assert not lut.flags.writeable
    probs = grayscale_probability_lut(theta=np.pi)
    assert probs.shape == (256, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    with pytest.raises(ParameterError):
        grayscale_label_lut(theta=-1.0)
    with pytest.raises(ParameterError):
        grayscale_label_lut(theta=np.pi, max_value=0.0)
    with pytest.raises(ParameterError):
        grayscale_label_lut(theta=np.pi, num_levels=1)


def test_multiband_lut_with_no_thresholds_is_all_zero(rng):
    # θ ≤ π/2 realizes no threshold: the multiband map must be identically 0.
    image = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
    seg = IQFTGrayscaleSegmenter(theta=np.pi / 2, multiband=True)
    fast = seg.labels_from_lut(image)
    assert fast is not None and np.all(fast == 0)
    assert np.array_equal(fast, seg.segment(image).labels)


def test_palette_of_65537_colours_labels_like_segment():
    # One pixel per colour, spread over the whole colour cube: every label
    # of 65,537 distinct colours is compared with the matrix path.
    codes = np.arange(65537, dtype=np.int64) * 255
    image = np.stack((codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF), axis=1)
    image = image.astype(np.uint8).reshape(-1, 1, 3)
    segmenter = IQFTSegmenter(thetas=(np.pi, 2 * np.pi, np.pi / 2))
    extras = {}
    fast = segmenter.labels_from_lut(image, extras=extras)
    assert extras["fast_path"] == "rgb-lut"
    assert np.array_equal(fast, segmenter.segment(image).labels)


def test_concurrent_first_use_builds_one_table_set(rng):
    # Two threads racing to the first image of a key: one build, equal labels.
    clear_lut_cache()
    image = (rng.random((48, 40, 3)) * 255).astype(np.uint8)
    segmenter = IQFTSegmenter(thetas=(2.7, 1.3, np.pi))
    engine = BatchSegmentationEngine(segmenter, executor=ThreadExecutor(max_workers=2))
    results = engine.map([image] * 6)
    exact = IQFTSegmenter(thetas=(2.7, 1.3, np.pi)).segment(image).labels
    for result in results:
        assert result.segmentation.extras["fast_path"] == "rgb-lut"
        assert np.array_equal(result.labels, exact)
    info = lut._rgb_tables.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_rgb_tables_are_cached_read_only_and_cleared():
    clear_lut_cache()
    tables = rgb_label_tables((np.pi, np.pi, np.pi))
    assert rgb_label_tables((np.pi, np.pi, np.pi)) is tables
    assert rgb_label_tables((np.pi, np.pi, np.pi), max_value=100.0) is not tables
    assert tables.resolved and 0 < tables.exception_rows.size <= MAX_EXCEPTION_ROWS
    assert tables.rows.dtype == np.uint8 and tables.nbytes < 512 * 1024
    for table in (tables.row_class, tables.rank, tables.rows, tables.exception_rows):
        assert not table.flags.writeable
    clear_lut_cache()
    assert lut._rgb_tables.cache_info().currsize == 0
    with pytest.raises(ParameterError):
        rgb_label_tables((np.pi, -1.0, np.pi))
    with pytest.raises(ParameterError):
        rgb_label_tables((np.pi, np.pi, np.pi), max_value=0.0)


def test_a_degenerate_key_labels_its_exception_rows_per_call(rng):
    # Unnormalized θ = π puts every phase on a multiple of π: whole classes
    # of colours tie exactly, more rows than the tables store, so those
    # rows' pixels go through the classifier on each call.
    segmenter = IQFTSegmenter(thetas=np.pi, normalize=False)
    tables = rgb_label_tables(segmenter.thetas, normalize=False)
    assert not tables.resolved
    assert tables.exception_rows.size > MAX_EXCEPTION_ROWS
    image = (rng.random((40, 30, 3)) * 255).astype(np.uint8)
    extras = {}
    assert np.array_equal(
        segmenter.labels_from_lut(image, extras=extras), segmenter.segment(image).labels
    )
    assert extras["fast_path"] == "rgb-lut"


# --------------------------------------------------------------------------- #
# Classifier-level dedup hook
# --------------------------------------------------------------------------- #
def test_classify_unique_matches_classify(rng):
    base = rng.uniform(0, 2 * np.pi, size=(37, 3))
    phases = base[rng.integers(0, 37, size=400)]  # heavy duplication
    clf = IQFTClassifier(3)
    assert np.array_equal(clf.classify_unique(phases), clf.classify(phases))
    single = clf.classify_unique(base[0])
    assert single == clf.classify(base[0])

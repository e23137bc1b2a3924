"""Engine benchmark — the LUT fast path vs the chunked matrix path.

The batch engine labels integer images through value tables and per-key RGB
tables certified against the exact classifier (see ``repro/core/lut.py``),
so it must produce *identical* labels to the matrix path while skipping
almost all of the per-pixel complex arithmetic.  This benchmark measures
both paths on the same images and asserts the expected shape of the result:

* labels are bit-identical in every mode (in full mode, on all 2²⁴ colours
  at θ ∈ {π/2, 1.3, 2.7}), and
* on the acceptance workload (512×512 uint8 grayscale) the LUT path is at
  least 10× faster than the matrix path.

Both paths are timed manually (best-of-``k`` wall clock) because the speedup
assertion needs the two times in one test.  With ``--smoke`` the workload
shrinks to 96×96 and the absolute-speedup assertion is skipped — equality is
always enforced, which is what CI guards.

The JSON report (``output/bench_engine_lut_vs_matrix.json``) carries the
RGB path's throughput on palette images, ``palette_mpps``: four images
sharing one 32-colour palette, labelled through the engine, best of
``_PALETTE_PASSES`` passes.  ``check_regression.py`` gates it.
"""

import time

import numpy as np
import pytest

from repro import BatchSegmentationEngine, IQFTGrayscaleSegmenter, IQFTSegmenter
from repro.core.lut import clear_lut_cache
from repro.metrics.report import format_table

_THETA = 4 * np.pi  # multi-threshold regime: 4 grayscale bands (Figure 4)

#: Passes behind the gated palette read.  A smoke pass takes about 1 ms, so
#: a best of few passes tracks the host's slowest phase, not the code.
_PALETTE_PASSES = 30


def _best_time(func, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2023)


def test_grayscale_lut_vs_matrix(rng, smoke_mode, emit_result):
    side = 96 if smoke_mode else 512
    image = rng.integers(0, 256, size=(side, side)).astype(np.uint8)

    matrix_segmenter = IQFTGrayscaleSegmenter(theta=_THETA)
    engine = BatchSegmentationEngine(IQFTGrayscaleSegmenter(theta=_THETA))
    clear_lut_cache()
    engine.segment(image)  # build the 256-entry table once (cached thereafter)

    matrix_time, matrix_result = _best_time(lambda: matrix_segmenter.segment(image))
    lut_time, lut_result = _best_time(lambda: engine.segment(image))

    assert lut_result.extras["fast_path"] == "lut"
    assert np.array_equal(lut_result.labels, matrix_result.labels)
    assert lut_result.num_segments == matrix_result.num_segments

    speedup = matrix_time / max(lut_time, 1e-12)
    rows = [
        ["matrix path (chunked matmul)", f"{matrix_time * 1e3:.2f}"],
        ["LUT fast path (engine)", f"{lut_time * 1e3:.2f}"],
        ["speedup", f"{speedup:.1f}x"],
    ]
    emit_result(
        f"Engine — grayscale LUT vs matrix path on {side}x{side} uint8 (theta=4pi)",
        format_table("Grayscale segmentation", ["Path", "time per image [ms]"], rows),
    )
    if not smoke_mode:
        assert speedup >= 10, f"LUT path only {speedup:.1f}x faster than the matrix path"


def test_rgb_palette_lut_vs_matrix(rng, smoke_mode, emit_result):
    side = 96 if smoke_mode else 512
    # Quantized palette image: the realistic batch workload (synthetic scenes,
    # screenshots, label-like imagery) where the palette is far smaller than
    # the pixel count.
    palette = rng.integers(0, 256, size=(48, 3)).astype(np.uint8)
    image = palette[rng.integers(0, len(palette), size=(side, side))]

    matrix_segmenter = IQFTSegmenter(thetas=np.pi)
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))

    matrix_time, matrix_result = _best_time(lambda: matrix_segmenter.segment(image))
    lut_time, lut_result = _best_time(lambda: engine.segment(image))

    assert lut_result.extras["fast_path"] == "rgb-lut"
    assert np.array_equal(lut_result.labels, matrix_result.labels)

    speedup = matrix_time / max(lut_time, 1e-12)
    rows = [
        ["matrix path (chunked matmul)", f"{matrix_time * 1e3:.2f}"],
        ["RGB-LUT fast path (engine)", f"{lut_time * 1e3:.2f}"],
        ["speedup", f"{speedup:.1f}x"],
    ]
    emit_result(
        f"Engine — RGB-LUT vs matrix path on {side}x{side} uint8 (48 colours)",
        format_table("RGB segmentation", ["Path", "time per image [ms]"], rows),
    )
    if not smoke_mode:
        assert speedup >= 3, f"RGB-LUT path only {speedup:.1f}x faster"


@pytest.mark.parametrize("theta", [np.pi / 2, 1.3, 2.7])
def test_rgb_lut_equals_matrix_path_on_every_colour(theta, smoke_mode, emit_result):
    # Full mode only (about 10 s per θ): every one of the 2**24 colours, one
    # r-slab of 65,536 colours at a time, against the exact path.
    if smoke_mode:
        pytest.skip("all-colour check runs in full mode only")
    segmenter = IQFTSegmenter(thetas=theta)
    green, blue = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    slab = np.stack((np.zeros_like(green), green, blue), axis=-1).astype(np.uint8)
    start = time.perf_counter()
    for red in range(256):
        slab[..., 0] = red
        fast = segmenter.labels_from_lut(slab)
        assert np.array_equal(fast, segmenter.segment(slab).labels), (theta, red)
    emit_result(
        f"Engine — RGB-LUT vs matrix path on all 2^24 colours (theta={theta:.4f})",
        f"0 mismatches in {time.perf_counter() - start:.1f} s",
    )


def test_palette_path_throughput(smoke_mode, emit_result, emit_json_result):
    # Its own generator, so the gated images stay the same whatever the
    # other tests in this module draw.
    rng = np.random.default_rng(2023)
    side = 96 if smoke_mode else 384
    palette = rng.integers(0, 256, size=(32, 3)).astype(np.uint8)
    images = [palette[rng.integers(0, len(palette), size=(side, side))] for _ in range(4)]

    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    seconds, results = _best_time(
        lambda: [engine.segment(img) for img in images], repeats=_PALETTE_PASSES
    )
    # exactness guard: a fast-but-wrong RGB path fails here, not in the read
    for image, result in zip(images, results):
        assert result.extras["fast_path"] == "rgb-lut"
        assert np.array_equal(result.labels, IQFTSegmenter(thetas=np.pi).segment(image).labels)

    mpps = len(images) * side * side / seconds / 1e6
    emit_result(
        f"Engine — RGB path on 4x{side}x{side} uint8 (32 shared colours)",
        format_table(
            "RGB-path throughput on palette images",
            ["Passes", "best pass [ms]", "Mpix/s"],
            [[_PALETTE_PASSES, f"{seconds * 1e3:.2f}", f"{mpps:.1f}"]],
        ),
    )
    emit_json_result(
        "bench_engine_lut_vs_matrix",
        {
            "schema": "repro-bench-engine-lut/v1",
            "side": side,
            "passes": _PALETTE_PASSES,
            "palette_mpps": round(mpps, 3),
        },
    )

"""Backend parity benchmark — throughput per backend, exactness-guarded.

Runs the engine's two LUT fast paths through every *available* array backend
on the same workloads — the RGB palette path and the grayscale value-LUT
path — asserts the labels are bit-identical to the NumPy reference (the
contract ``tests/test_backend_parity.py`` property-tests), and reports
per-backend throughput in megapixels/second.  The JSON report feeds the CI
regression tripwire (``check_regression.py``), which gates the NumPy palette
path (``numpy.mpps``); the grayscale path (``<backend>.gray_mpps``) and
other backends' numbers are reported, not gated.

With ``--smoke`` the workload shrinks and only exactness is asserted —
which is what CI guards.
"""

import time

import numpy as np
import pytest

from repro import (
    BatchSegmentationEngine,
    IQFTGrayscaleSegmenter,
    IQFTSegmenter,
    available_backends,
)
from repro.metrics.report import format_table

_THETA = np.pi
_GRAY_THETA = 4 * np.pi


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2023)


def _throughput_mpps(engine, images, repeats):
    pixels = sum(img.shape[0] * img.shape[1] for img in images)
    best = float("inf")
    results = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = [engine.segment(img) for img in images]
        best = min(best, time.perf_counter() - start)
    return pixels / best / 1e6, results


def test_backend_parity_throughput(rng, smoke_mode, emit_result, emit_json_result):
    side = 96 if smoke_mode else 384
    repeats = 2 if smoke_mode else 5
    palette = rng.integers(0, 256, size=(32, 3)).astype(np.uint8)
    rgb_images = [
        palette[rng.integers(0, len(palette), size=(side, side))] for _ in range(4)
    ]
    gray_images = [rng.integers(0, 256, size=(side, side)).astype(np.uint8) for _ in range(4)]
    # report key -> (segmenter factory, images, the fast path it must take)
    paths = {
        "mpps": (lambda: IQFTSegmenter(thetas=_THETA), rgb_images, "palette-lut"),
        "gray_mpps": (lambda: IQFTGrayscaleSegmenter(theta=_GRAY_THETA), gray_images, "lut"),
    }

    backends = available_backends()
    assert "numpy" in backends

    references = {
        key: _throughput_mpps(
            BatchSegmentationEngine(make(), backend="numpy"), images, repeats=1
        )[1]
        for key, (make, images, _) in paths.items()
    }

    report = {"schema": "repro-bench-backend-parity/v1", "side": side, "backends": {}}
    rows = []
    for name in backends:
        numbers = {}
        for key, (make, images, fast_path) in paths.items():
            engine = BatchSegmentationEngine(make(), backend=name)
            mpps, results = _throughput_mpps(engine, images, repeats)
            # exactness guard: every backend must reproduce the reference
            # labels bit-for-bit — a fast-but-wrong backend fails here, not
            # in the rps.
            for got, want in zip(results, references[key]):
                assert got.extras["backend"] == name
                assert got.extras["fast_path"] == fast_path
                assert np.array_equal(got.labels, want.labels), f"backend {name!r} diverged"
            numbers[key] = round(mpps, 3)
        report["backends"][name] = dict(numbers)
        report[name] = dict(numbers)  # flat paths for the tripwire (numpy.mpps)
        rows.append([name, f"{numbers['mpps']:.1f}", f"{numbers['gray_mpps']:.1f}"])

    emit_result(
        f"Backend parity — LUT paths on 4×{side}x{side} uint8 (palette RGB, grayscale)",
        format_table(
            "Backend throughput",
            ["Backend", "palette Mpix/s", "gray Mpix/s"],
            rows,
        ),
    )
    emit_json_result("bench_backend_parity", report)

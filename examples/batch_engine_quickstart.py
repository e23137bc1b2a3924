#!/usr/bin/env python
"""Batch engine quickstart: segment a whole dataset through the fast paths.

The script builds a small synthetic dataset (no downloads needed), runs the
:class:`repro.engine.BatchSegmentationEngine` over it in one call, and prints
per-image metrics together with the fast path the engine chose — the RGB
tables (``rgb-lut``) for the quantized uint8 images, the exact matrix path
for a float image thrown in for contrast.  The batch API is what ``repro-segment batch``
uses under the hood.

Run it with::

    python examples/batch_engine_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.datasets import ShapesDataset
from repro.imaging import as_uint8_image


def main() -> None:
    # 1. A deterministic synthetic dataset with exact ground truth.  Convert
    #    the images to uint8 storage: quantized input is what unlocks the
    #    engine's exact LUT fast path (float input silently takes the matrix
    #    path instead — same labels, more arithmetic).
    dataset = ShapesDataset(num_samples=6, size=(96, 96), seed=11)
    samples = [dataset[index] for index in range(len(dataset))]
    images = [as_uint8_image(sample.image) for sample in samples]
    masks = [sample.mask for sample in samples]
    images.append(samples[0].image)  # one float image to show the fallback
    masks.append(samples[0].mask)

    # 2. One engine call for the whole batch.  Pass
    #    executor=get_executor("process") to scatter images across CPU cores;
    #    the default stays serial and fully deterministic.
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    results = engine.map(images, masks)

    # 3. Report: identical evaluation protocol as SegmentationPipeline.run,
    #    plus the fast-path audit trail in extras["fast_path"].
    print(f"{'image':<10} {'fast path':<14} {'segments':>8} {'runtime [ms]':>14} {'mIOU':>8}")
    for index, result in enumerate(results):
        seg = result.segmentation
        print(
            f"{index:<10} {seg.extras['fast_path']:<14} {seg.num_segments:>8} "
            f"{seg.runtime_seconds * 1e3:>14.2f} {result.metrics['miou']:>8.4f}"
        )
    mean_miou = float(np.mean([result.metrics["miou"] for result in results]))
    print(f"\nmean mIOU over {len(results)} images: {mean_miou:.4f}")


if __name__ == "__main__":
    main()

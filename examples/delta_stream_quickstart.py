"""Temporal-stream quickstart: dirty-tile delta segmentation.

Run with ``PYTHONPATH=src python examples/delta_stream_quickstart.py``.

The script walks through :class:`~repro.engine.DeltaStreamEngine`:

1. segment a slowly-changing synthetic "camera" stream frame by frame and
   watch the per-frame reuse accounting — only the tiles whose bytes
   changed are re-segmented, the rest stitch from the previous frame;
2. verify bit-identity: every delta result equals the full recompute
   exactly (not approximately);
3. flow the same stream through
   :meth:`~repro.engine.BatchSegmentationEngine.map_stream`, including a
   corrupt frame that fails alone without poisoning the stream;
4. serve the stream through :class:`~repro.serve.AsyncSegmentationService`
   with ``stream_id`` (what the HTTP ``X-Repro-Stream-Id`` header maps to)
   and read the service-level delta counters.
"""

import asyncio

import numpy as np

from repro import BatchSegmentationEngine, IQFTSegmenter
from repro.engine import DeltaStreamEngine
from repro.errors import ShapeError
from repro.serve import AsyncSegmentationService

SIDE = 128
TILE = 32


def make_stream(frames, seed=7):
    """A synthetic camera: static scene, one moving 24px 'object' per frame."""
    rng = np.random.default_rng(seed)
    scene = (rng.random((SIDE, SIDE, 3)) * 255).astype(np.uint8)
    out = []
    for index in range(frames):
        frame = scene.copy()
        row = (index * 24) % (SIDE - 24)
        col = (index * 40) % (SIDE - 24)
        frame[row : row + 24, col : col + 24] = rng.integers(
            0, 256, size=(24, 24, 3), dtype=np.uint8
        )
        out.append(frame)
    return out


def main():
    frames = make_stream(6)
    engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
    delta = DeltaStreamEngine(engine, tile_shape=(TILE, TILE))

    print(f"=== 1. frame-by-frame delta ({SIDE}x{SIDE}, {TILE}px grid) ===")
    for index, frame in enumerate(frames):
        result = delta.segment(frame, "cam-1")
        stats = result.extras["delta"]
        print(
            f"frame {index}: reused {stats['tiles_reused']:2d}/"
            f"{stats['tiles_total']} tiles "
            f"(reuse {stats['reuse_ratio']:.0%}, fast_path={result.extras['fast_path']})"
        )

    print("\n=== 2. bit-identity against the full recompute ===")
    for index, frame in enumerate(frames):
        full = engine.segment(frame)
        incremental = delta.segment(frame, "cam-1")
        assert np.array_equal(full.labels, incremental.labels)
        assert full.num_segments == incremental.num_segments
    print(f"all {len(frames)} frames bit-identical: True")

    print("\n=== 3. map_stream with a corrupt mid-stream frame ===")
    corrupt = np.zeros((SIDE, SIDE), dtype=np.uint8)  # 2-D input to an RGB method
    sequence = frames[:2] + [corrupt] + frames[2:]
    results = list(
        engine.map_stream(iter(sequence), stream_id="cam-2", return_errors=True)
    )
    for index, item in enumerate(results):
        if isinstance(item, Exception):
            print(f"frame {index}: failed alone -> {type(item).__name__}")
        else:
            assert np.array_equal(
                item.labels, engine.segment(sequence[index]).labels
            )
    assert isinstance(results[2], ShapeError)
    print("frames after the failure still diff against the last good ancestor")

    print("\n=== 4. the serving layer: submit(stream_id=...) ===")

    async def serve():
        async with AsyncSegmentationService(
            BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi)),
            cache=None,
            delta_tile_shape=(TILE, TILE),
        ) as service:
            for frame in frames:
                await service.submit(frame, stream_id="cam-1")
            return service.metrics()

    metrics = asyncio.run(serve())["delta"]
    print(
        f"service delta metrics: frames={metrics['frames']} "
        f"tiles_reused={metrics['tiles_reused']} "
        f"tiles_recomputed={metrics['tiles_recomputed']} "
        f"reuse_ratio={metrics['reuse_ratio']:.0%}"
    )
    print("\nHTTP clients get the same path by sending X-Repro-Stream-Id.")


if __name__ == "__main__":
    main()

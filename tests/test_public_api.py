"""The consolidated public API surface.

``repro`` and ``repro.serve`` declare their supported names in ``__all__``
and resolve them lazily (PEP 562).  These tests pin three promises:

* every advertised name actually imports (no stale ``__all__`` entries),
* laziness is real — ``import repro`` does not pull in heavy subsystems,
* the deep serve paths deprecated in 1.x (``repro.serve.fleet``, ...) are
  gone since 2.0.0: ``repro.serve`` is the only way in.
"""

import importlib
import subprocess
import sys

import pytest

import repro
import repro.serve

#: The deep import paths removed in 2.0.0 (each was a deprecation shim).
_REMOVED_SERVE_PATHS = (
    "repro.serve.aio",
    "repro.serve.batcher",
    "repro.serve.cache",
    "repro.serve.diskcache",
    "repro.serve.fleet",
    "repro.serve.http",
    "repro.serve.http_client",
    "repro.serve.service",
    "repro.serve.shmcache",
    "repro.serve.spool",
)


@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_every_top_level_public_name_resolves(name):
    value = getattr(repro, name)
    assert value is not None
    assert name in dir(repro)


@pytest.mark.parametrize("name", sorted(repro.serve.__all__))
def test_every_serve_public_name_resolves(name):
    value = getattr(repro.serve, name)
    assert value is not None
    assert name in dir(repro.serve)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_public_name
    with pytest.raises(AttributeError, match="no attribute"):
        repro.serve.definitely_not_a_public_name


def test_import_repro_is_lazy():
    # A fresh interpreter importing ``repro`` must not load the serving
    # stack, the engine, or the experiment harness as a side effect.
    code = (
        "import sys; import repro; "
        "heavy = [m for m in sys.modules if m.startswith(('repro.serve', "
        "'repro.engine', 'repro.experiments'))]; "
        "assert not heavy, heavy; print('lazy ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lazy ok" in proc.stdout


def test_version_is_exported():
    assert repro.__version__ == "9.0.0"
    assert "__version__" in repro.__all__


@pytest.mark.parametrize("old_path", _REMOVED_SERVE_PATHS)
def test_deprecated_serve_paths_warn_and_alias_the_real_module(old_path):
    # The 1.x shims are deleted: the old path no longer imports at all.
    # (The test keeps its 1.x name so its ids stay comparable across releases.)
    sys.modules.pop(old_path, None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(old_path)


def test_serve_surface_covers_the_shim_modules_public_names():
    # Every class the removed paths exposed is reachable from repro.serve —
    # the 2.0.0 migration ("import from repro.serve") must actually work.
    # (SegmentationService and MicroBatcher were deleted in 5.0.0.)
    for name in ("ServeFleet", "WorkerSpec", "SegmentClient",
                 "AsyncSegmentationService", "ResultCache"):
        assert hasattr(repro.serve, name), name


def test_the_cache_ttl_and_the_cross_image_palette_cache_are_gone(tmp_path):
    # 7.0.0 deleted both: no cache tier takes a time-to-live, the CLI has
    # no --ttl, and an RGB image classifies its own palette every time.
    import numpy as np

    import repro.core.lut
    from repro import IQFTSegmenter

    with pytest.raises(TypeError):
        repro.serve.ResultCache(ttl_seconds=5.0)
    with pytest.raises(TypeError):
        repro.serve.DiskResultCache(str(tmp_path), ttl_seconds=5.0)
    shm_cache = repro.serve.SharedMemoryResultCache
    with pytest.raises(TypeError):
        shm_cache.create(1 << 20, slot_bytes=1 << 16, ttl_seconds=5.0)
    owner = shm_cache.create(1 << 20, slot_bytes=1 << 16)
    try:
        with pytest.raises(TypeError):
            shm_cache.attach(owner.name, ttl_seconds=5.0)
    finally:
        owner.close()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "-", "--ttl", "5"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: unrecognized arguments: --ttl" in proc.stderr, proc.stderr

    assert not hasattr(repro.core.lut, "rgb_palette_label_lut")
    image = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    extras = {}
    assert IQFTSegmenter(thetas=np.pi).labels_from_lut(image, extras=extras) is not None
    assert extras["fast_path"] == "palette-lut"
    assert "palette_cached" not in extras


def test_the_backend_layer_is_gone():
    # 8.0.0 deleted repro.backend: NumPy is the only array substrate, so no
    # constructor takes a backend and the CLI has no --backend.
    import numpy as np

    import repro.errors
    from repro import BatchSegmentationEngine, IQFTSegmenter, SegmentationPipeline

    sys.modules.pop("repro.backend", None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.backend")
    for name in ("ArrayBackend", "get_backend", "available_backends"):
        assert not hasattr(repro, name), name
    assert not hasattr(repro.errors, "BackendError")

    segmenter = IQFTSegmenter(thetas=np.pi)
    with pytest.raises(TypeError):
        BatchSegmentationEngine(segmenter, backend="numpy")
    with pytest.raises(TypeError):
        BatchSegmentationEngine.from_pipeline(SegmentationPipeline(segmenter), backend="numpy")
    with pytest.raises(TypeError):
        repro.serve.WorkerSpec(backend="numpy")
    with pytest.raises(TypeError):
        repro.serve.ServeFleet(repro.serve.WorkerSpec(), backends=["numpy"])
    engine = BatchSegmentationEngine(segmenter)
    assert "backend" not in engine.describe()
    image = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
    assert "backend" not in engine.segment(image).extras

    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "-", "--backend", "numpy"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error: unrecognized arguments: --backend" in proc.stderr, proc.stderr


def test_the_stats_classes_and_the_spool_default_deadline_are_gone(tmp_path):
    # 9.0.0: every cache tier's stats is a dict of raw counters (rates are
    # derived by repro.obs.schema), and a job without its own deadline gets
    # the service's default_deadline, so run_jobs_async takes none.
    for name in ("CacheStats", "TieredCacheStats", "DiskCacheStats", "ShmCacheStats"):
        assert not hasattr(repro.serve, name), name
        assert name not in repro.serve.__all__, name

    shm = repro.serve.SharedMemoryResultCache.create(1 << 20, slot_bytes=1 << 16)
    memory = repro.serve.ResultCache(max_entries=4)
    disk = repro.serve.DiskResultCache(str(tmp_path))
    tiered = repro.serve.TieredResultCache(memory, disk, shm=shm)
    try:
        for tier in (memory, disk, shm):
            assert type(tier.stats) is dict and "hit_rate" not in tier.stats, tier
        stats = tiered.stats
        assert type(stats) is dict and set(stats) == {"l1", "shm", "l2"}
        assert all("hit_rate" not in tier for tier in stats.values())
    finally:
        shm.close()

    with pytest.raises(TypeError):
        repro.serve.run_jobs_async(None, [], default_deadline_ms=1000.0)

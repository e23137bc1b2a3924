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
    assert repro.__version__ == "6.0.0"
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

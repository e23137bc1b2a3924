"""Backend registry: names → lazily-constructed :class:`ArrayBackend` singletons.

Selection precedence, lowest to highest:

1. the library default (``"numpy"``, always available);
2. the ``REPRO_BACKEND`` environment variable (deploy-wide default —
   this is what a fleet supervisor exports for accelerator hosts);
3. an explicit ``backend=`` argument to the engine / CLI ``--backend``.

The optional torch backend, like any third-party backend, registers a
*factory*, not an instance, and availability is probed lazily — listing
backends never imports an optional dependency that is not installed, and
asking for an unavailable one raises :class:`~repro.errors.ParameterError`
naming every registered alternative (so the CLI error message is
self-documenting).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Union

from ..errors import ParameterError
from .base import ArrayBackend

__all__ = [
    "ENV_BACKEND",
    "available_backends",
    "backend_status",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]

#: Environment variable naming the process-wide default backend.
ENV_BACKEND = "REPRO_BACKEND"

_lock = threading.Lock()
_factories: Dict[str, Callable[[], ArrayBackend]] = {}
_probes: Dict[str, Callable[[], bool]] = {}
_instances: Dict[str, ArrayBackend] = {}


def register_backend(
    name: str,
    factory: Callable[[], ArrayBackend],
    *,
    probe: Optional[Callable[[], bool]] = None,
) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory`` is called at most once, on first :func:`get_backend` use;
    ``probe`` is the cheap availability check (defaults to "always
    available").  Third-party packages call this at import time to plug
    their own substrate into the engine.
    """
    if not name or not isinstance(name, str):
        raise ParameterError("backend name must be a non-empty string")
    with _lock:
        _factories[name] = factory
        _probes[name] = probe if probe is not None else (lambda: True)
        _instances.pop(name, None)


def registered_backends() -> List[str]:
    """Every registered backend name, available or not (sorted)."""
    with _lock:
        return sorted(_factories)


def available_backends() -> List[str]:
    """Registered backends whose substrate can run here (sorted).

    The reference backend is always included; optional backends appear once
    their dependency imports and their device probe passes.  Probes are the
    backends' own :meth:`~repro.backend.base.ArrayBackend.is_available` and
    must never raise.
    """
    names = registered_backends()
    return [name for name in names if _probes[name]()]


def backend_status() -> Dict[str, bool]:
    """``{name: available}`` for every registered backend (capabilities doc)."""
    return {name: _probes[name]() for name in registered_backends()}


def default_backend_name() -> str:
    """The process default: ``$REPRO_BACKEND`` when set, else ``"numpy"``."""
    return os.environ.get(ENV_BACKEND, "").strip() or "numpy"


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """The backend singleton registered under ``name``.

    ``None`` resolves through :func:`default_backend_name`.  An unregistered
    name, or a registered backend whose optional dependency is missing,
    raises :class:`~repro.errors.ParameterError` listing what *is* known —
    selection mistakes are configuration errors, reported up front, not at
    the bottom of a compute stack.
    """
    name = name or default_backend_name()
    with _lock:
        instance = _instances.get(name)
        if instance is not None:
            return instance
        factory = _factories.get(name)
    if factory is None:
        raise ParameterError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(registered_backends())}"
        )
    if not _probes[name]():
        raise ParameterError(
            f"backend {name!r} is registered but not available on this host "
            f"(optional dependency missing or no device); available backends: "
            f"{', '.join(available_backends())}"
        )
    instance = factory()
    with _lock:
        return _instances.setdefault(name, instance)


def resolve_backend(backend: Union[ArrayBackend, str, None]) -> ArrayBackend:
    """Coerce an engine-style ``backend`` argument to an instance.

    ``None`` → the process default, a string → :func:`get_backend`, an
    :class:`ArrayBackend` instance passes through (letting callers inject a
    custom-configured backend, e.g. a specific torch device).
    """
    if backend is None:
        return get_backend()
    if isinstance(backend, ArrayBackend):
        return backend
    if isinstance(backend, str):
        return get_backend(backend)
    raise ParameterError(
        f"backend must be a name, an ArrayBackend instance or None, got {type(backend).__name__}"
    )


def _register_builtins() -> None:
    from .numpy_backend import NumpyBackend
    from .torch_backend import TorchBackend

    register_backend("numpy", NumpyBackend, probe=NumpyBackend.is_available)
    register_backend("torch", TorchBackend, probe=TorchBackend.is_available)


_register_builtins()

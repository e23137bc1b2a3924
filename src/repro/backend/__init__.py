"""Pluggable array-compute backends for the segmentation engine.

The engine's LUT fast paths — the table gather and the palette dedup —
dispatch through an :class:`ArrayBackend`, so the same public API runs on
plain NumPy (the always-available reference) or torch without forking any
call surface.  Both kernels are integer and bit-exact on every backend; the
float kernel of equation (11) lives in the classifier.  See
:mod:`repro.backend.base` for the kernel contract and the README's "Writing
a backend" guide for the extension recipe.

Quick start
-----------
>>> from repro.backend import available_backends, get_backend
>>> "numpy" in available_backends()
True
>>> get_backend("numpy").name
'numpy'
"""

from .base import ArrayBackend
from .numpy_backend import NumpyBackend
from .registry import (
    ENV_BACKEND,
    available_backends,
    backend_status,
    default_backend_name,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "ENV_BACKEND",
    "available_backends",
    "backend_status",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]

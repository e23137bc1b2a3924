"""Value-level lookup tables: the analytical fast path of the batch engine.

Equation (15) of the paper shows that the grayscale classifier is a pure
function of the *intensity value*: the label only depends on the sign pattern
of ``cos(I·θ)``, so two pixels with equal raw value always receive equal
labels.  For 8-bit storage there are at most 256 distinct values per channel,
which means an entire image can be labelled by (1) evaluating the exact
classifier once per distinct value and (2) fancy-indexing the resulting table
with the raw image.  Because step (1) runs the *same* code path as the exact
segmenter (same normalization, same phase encoding, same chunked matmul, same
argmax tie-breaking), the fast path is bit-identical to the matrix path — the
property tests in ``tests/test_engine_lut_property.py`` assert exactly that.

This module owns the value-table construction and its LRU cache, plus the
colour-code helpers of the RGB palette path (which classifies each image's
own palette and caches nothing across images); the segmenters expose the
fast path through their ``labels_from_lut`` hooks and
:class:`repro.engine.BatchSegmentationEngine` decides when to take it.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from ..backend.base import ArrayBackend
from ..errors import ParameterError

__all__ = [
    "DEFAULT_NUM_LEVELS",
    "grayscale_label_lut",
    "grayscale_probability_lut",
    "lut_eligible",
    "apply_lut",
    "unique_codes",
    "pack_rgb_codes",
    "unpack_rgb_codes",
    "lut_cache_info",
    "clear_lut_cache",
]

#: Number of distinct raw values covered by a default lookup table (8-bit).
DEFAULT_NUM_LEVELS = 256


# --------------------------------------------------------------------------- #
# Eligibility
# --------------------------------------------------------------------------- #
def lut_eligible(
    image: np.ndarray, num_levels: int = DEFAULT_NUM_LEVELS, normalize: bool = True
) -> bool:
    """True when ``image`` can be labelled through a value lookup table.

    Eligible inputs are integer-typed arrays whose values lie in
    ``[0, num_levels)``.  Float images fall back to the exact classifier (the
    continuum of values defeats a table).  One subtlety: with ``normalize``
    enabled, :func:`repro.core.phase_encoding.normalize_pixels` treats a
    non-``uint8`` array whose maximum is ≤ 1 as *already normalized*, a branch
    the value table (built from the full ``0..num_levels-1`` ramp) cannot
    reproduce — such degenerate images are declared ineligible and take the
    exact path instead.
    """
    arr = np.asarray(image)
    if arr.size == 0:
        return False
    if arr.dtype == np.uint8:
        return num_levels >= 256
    if not np.issubdtype(arr.dtype, np.integer):
        return False
    vmin = int(arr.min())
    vmax = int(arr.max())
    if vmin < 0 or vmax >= num_levels:
        return False
    if normalize and vmax <= 1:
        return False
    return True


# --------------------------------------------------------------------------- #
# Backend dispatch (table *apply*; table *construction* stays on the exact CPU
# reference path regardless of backend, since it runs the exact classifier)
# --------------------------------------------------------------------------- #
def _dispatchable(backend: Optional[ArrayBackend], npixels: int) -> bool:
    """True when the gather is worth routing to ``backend``'s substrate.

    The reference backend is never "dispatched to" — its gather *is* plain
    fancy indexing, and skipping the indirection keeps the default path's
    cost byte-for-byte what it was before backends existed.  Accelerators
    additionally set a ``gather_min_pixels`` cost hint: below it, transfer
    overhead dwarfs the gather and the host does it faster.
    """
    if backend is None or backend.name == "numpy":
        return False
    return npixels >= backend.cost_hints().get("gather_min_pixels", 0.0)


def apply_lut(
    table: np.ndarray, indices: np.ndarray, backend: Optional[ArrayBackend] = None
) -> np.ndarray:
    """Apply a value table to an integer image, optionally on a backend.

    Bit-exact on every backend (the integer-gather contract of
    :class:`~repro.backend.base.ArrayBackend`); ``backend=None`` — or any
    image below the backend's ``gather_min_pixels`` cost hint — gathers on
    the host.
    """
    arr = np.asarray(indices)
    if _dispatchable(backend, arr.size):
        return backend.gather(table, arr)
    return table[arr]


def unique_codes(
    codes: np.ndarray, backend: Optional[ArrayBackend] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(sorted unique, inverse)`` of packed colour codes, optionally on a backend.

    The RGB palette path's dedup — the sort over one int64 code per pixel —
    is its memory-bound half; the same dispatch rule as :func:`apply_lut`
    applies, and the result is bit-exact everywhere.
    """
    arr = np.asarray(codes)
    if _dispatchable(backend, arr.size):
        return backend.unique_inverse(arr)
    unique, inverse = np.unique(arr, return_inverse=True)
    return unique, np.asarray(inverse).reshape(-1)


# --------------------------------------------------------------------------- #
# Grayscale tables (256 entries per (θ, normalize, max_value, multiband) key)
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=64)
def _grayscale_tables(
    theta: float,
    normalize: bool,
    max_value: float,
    multiband: bool,
    num_levels: int,
    uint8_values: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    # Local import: the grayscale segmenter imports this module for its hook.
    from .grayscale_segmenter import IQFTGrayscaleSegmenter

    segmenter = IQFTGrayscaleSegmenter(
        theta=theta, normalize=normalize, max_value=max_value, multiband=multiband
    )
    # The value ramp is fed through the segmenter's own code path (as an
    # (num_levels, 1) image) so every per-value float operation — division,
    # phase encoding, matmul, argmax — is the one the exact path performs.
    values = np.arange(num_levels, dtype=np.int64).reshape(-1, 1)
    if uint8_values:
        values = values.astype(np.uint8)
    labels = segmenter._segment(values).reshape(-1).astype(np.int64)
    probs = segmenter.pixel_probabilities(values).reshape(num_levels, 2)
    labels.flags.writeable = False
    probs.flags.writeable = False
    return labels, probs


def _validated_key(theta, max_value, num_levels):
    if theta <= 0:
        raise ParameterError("theta must be positive")
    if max_value <= 0:
        raise ParameterError("max_value must be positive")
    if num_levels < 2:
        raise ParameterError("num_levels must be >= 2")
    return float(theta), float(max_value), int(num_levels)


def grayscale_label_lut(
    theta: float,
    normalize: bool = True,
    max_value: float = 255.0,
    multiband: bool = False,
    num_levels: int = DEFAULT_NUM_LEVELS,
    uint8_values: bool = True,
) -> np.ndarray:
    """The ``(num_levels,)`` value → label table for the grayscale segmenter.

    ``uint8_values`` selects which raw storage the table models: ``uint8``
    input is always divided by 255 by the normalization, while wider integer
    input is divided by ``max_value`` — the two tables differ whenever
    ``max_value != 255``.  Tables are cached (LRU, shared process-wide) and
    returned as read-only views.
    """
    theta, max_value, num_levels = _validated_key(theta, max_value, num_levels)
    labels, _ = _grayscale_tables(
        theta, bool(normalize), max_value, bool(multiband), num_levels, bool(uint8_values)
    )
    return labels


def grayscale_probability_lut(
    theta: float,
    normalize: bool = True,
    max_value: float = 255.0,
    num_levels: int = DEFAULT_NUM_LEVELS,
    uint8_values: bool = True,
) -> np.ndarray:
    """The ``(num_levels, 2)`` value → class-probability table (equation (14))."""
    theta, max_value, num_levels = _validated_key(theta, max_value, num_levels)
    _, probs = _grayscale_tables(
        theta, bool(normalize), max_value, False, num_levels, bool(uint8_values)
    )
    return probs


def lut_cache_info():
    """The value-table cache's :mod:`functools` ``CacheInfo`` (hits, misses, sizes)."""
    return _grayscale_tables.cache_info()


def clear_lut_cache() -> None:
    """Drop every cached value table (used by tests and benchmarks)."""
    _grayscale_tables.cache_clear()


# --------------------------------------------------------------------------- #
# RGB palette codes (the 3-channel analogue: dedupe on 24-bit colour codes)
# --------------------------------------------------------------------------- #
def pack_rgb_codes(image: np.ndarray) -> np.ndarray:
    """Pack an integer ``(H, W, 3)`` image into flat 24-bit colour codes."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ParameterError(f"expected an (H, W, 3) image, got shape {arr.shape}")
    flat = arr.reshape(-1, 3).astype(np.int64)
    return (flat[:, 0] << 16) | (flat[:, 1] << 8) | flat[:, 2]


def unpack_rgb_codes(codes: np.ndarray) -> np.ndarray:
    """Invert :func:`pack_rgb_codes`: ``(U,)`` codes → ``(U, 3)`` channel values."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    return np.stack(((codes >> 16) & 0xFF, (codes >> 8) & 0xFF, codes & 0xFF), axis=1)

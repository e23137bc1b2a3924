"""The :class:`ArrayBackend` contract: integer kernels the engine dispatches to.

The segmentation engine's LUT fast paths reduce to two integer array
kernels — a table gather (the value and palette LUT apply) and a dedup
(the RGB palette path).  A backend is an object that implements those
kernels on some substrate (NumPy on the host, any device torch can drive)
behind one uniform, host-array-in / host-array-out signature, so the
engine, the serving stack and the caches never see device arrays.

Exactness contract
------------------
Every backend kernel is integer and **bit-exact**: :meth:`ArrayBackend.gather`
and :meth:`ArrayBackend.unique_inverse` must return results bit-identical to
the NumPy reference — same values, same dtype, same ordering
(``unique_inverse`` returns the unique values in ascending order, like
:func:`numpy.unique`).  There is no tolerance, and the parity suite
(``tests/test_backend_parity.py``) enforces it on every available backend.

The float kernel of equation (11) is not a backend kernel: it lives in
:meth:`repro.core.classifier.IQFTClassifier.amplitudes`, which every path
shares.  So switching backends never changes any label, and the serving
caches leave the backend out of the engine-config digest (warm caches
survive a backend switch, and mixed-backend fleets share one cache).

Writing a backend
-----------------
Subclass :class:`ArrayBackend`, implement the two kernels plus
:meth:`is_available`, and register a factory with
:func:`repro.backend.register_backend`.  Keep imports of the optional
dependency inside the class or factory so the registry can *list* the
backend without importing it.  Device placement, streams and memory pools
are internal to the backend; the contract is purely functional.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["ArrayBackend"]


class ArrayBackend(abc.ABC):
    """Abstract compute backend for the segmentation engine's array kernels.

    Kernels accept and return **host** :class:`numpy.ndarray` objects; any
    transfer to and from a device is the backend's internal business.  This
    keeps the contract trivially composable with the rest of the system —
    caches digest host bytes, HTTP responses serialize host arrays — at the
    cost of one transfer per kernel call, which the chunked call sites
    amortize over large blocks.
    """

    #: Registry name (``"numpy"``, ``"torch"``, ...).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # availability / identity
    # ------------------------------------------------------------------ #
    @classmethod
    @abc.abstractmethod
    def is_available(cls) -> bool:
        """True when the backend's substrate can actually run here.

        Must be cheap and must never raise: a missing optional dependency or
        an absent device returns ``False`` (skip-not-fail).
        """

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity: name, device, substrate version."""
        return {"name": self.name, "device": "cpu"}

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def gather(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Integer LUT apply: ``table[indices]`` (bit-exact contract).

        ``table`` is a 1-D (or 2-D, for probability tables) array;
        ``indices`` is any integer array whose values index ``table``'s
        first axis.  The result has ``indices``' shape (plus ``table``'s
        trailing axes) and ``table``'s dtype, bit-identical to NumPy fancy
        indexing.
        """

    @abc.abstractmethod
    def unique_inverse(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Integer dedup: ``(unique_sorted, inverse)`` (bit-exact contract).

        Equivalent to ``np.unique(codes, return_inverse=True)`` for a 1-D
        integer array: unique values ascending, ``unique[inverse]`` rebuilds
        ``codes`` exactly, ``inverse`` is 1-D of the same length.
        """

    # ------------------------------------------------------------------ #
    # strategy hints
    # ------------------------------------------------------------------ #
    def cost_hints(self) -> Dict[str, float]:
        """Relative-cost hints for the engine's strategy picker.

        Keys (all optional — absent means the NumPy default):

        ``gather_min_pixels``
            Smallest image (in pixels) for which the device gather beats the
            host gather once transfers are counted.  Below it the engine
            applies LUTs with plain NumPy even when this backend is active,
            so tiny images never pay a device round-trip.
        ``tile_pixels_scale``
            Multiplier on the engine's auto-tiling threshold.  Accelerators
            amortize launch overhead over big batches, so they prefer larger
            untiled images (scale > 1).
        """
        return {"gather_min_pixels": 0.0, "tile_pixels_scale": 1.0}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

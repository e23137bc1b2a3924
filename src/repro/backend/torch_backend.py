"""Optional torch adapter: the engine's kernels on any device torch drives.

Install with ``pip install repro-iqft-segmentation[torch]``.  The module
imports cleanly without torch — :meth:`TorchBackend.is_available` reports
``False`` and the registry skips the backend (skip-not-fail) — so the core
library keeps zero hard dependencies beyond NumPy.

Exactness: both kernels (``gather``, ``unique_inverse``) are pure
index/sort operations and stay bit-identical to the NumPy reference on every
device, so LUT segmentation through this backend produces byte-for-byte the
labels of the reference path.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from .base import ArrayBackend

try:  # pragma: no cover - exercised on the CI torch leg, absent locally
    import torch
except ImportError:  # pragma: no cover - the numpy-only install path
    torch = None

__all__ = ["TorchBackend"]


def _writable(arr: np.ndarray) -> np.ndarray:
    # torch.from_numpy refuses read-only arrays (the LUT tables are published
    # read-only on purpose); a copy of a 256-entry table is negligible.
    arr = np.ascontiguousarray(arr)
    return arr if arr.flags.writeable else arr.copy()


class TorchBackend(ArrayBackend):  # pragma: no cover - exercised on the CI torch leg
    """Kernel adapter over torch tensors (CPU or CUDA/MPS device).

    Parameters
    ----------
    device:
        A torch device string; ``None`` picks ``"cuda"`` when available,
        else ``"cpu"``.
    """

    name = "torch"

    def __init__(self, device: Any = None):
        if torch is None:
            raise RuntimeError("torch is not installed (pip install repro[torch])")
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self._device = torch.device(device)

    @classmethod
    def is_available(cls) -> bool:
        return torch is not None

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "device": str(self._device),
            "substrate": f"torch {torch.__version__}",
        }

    # ------------------------------------------------------------------ #
    def _to_device(self, arr: np.ndarray) -> "torch.Tensor":
        return torch.from_numpy(_writable(arr)).to(self._device)

    def gather(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices)
        flat = self._to_device(idx.astype(np.int64, copy=False).reshape(-1))
        out = self._to_device(np.asarray(table))[flat]
        result = out.cpu().numpy()
        return result.reshape(idx.shape + np.asarray(table).shape[1:])

    def unique_inverse(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        tensor = self._to_device(np.asarray(codes).reshape(-1))
        unique, inverse = torch.unique(tensor, sorted=True, return_inverse=True)
        return unique.cpu().numpy(), inverse.cpu().numpy().reshape(-1)

    # ------------------------------------------------------------------ #
    def cost_hints(self) -> Dict[str, float]:
        if self._device.type == "cpu":
            # Host tensors view numpy memory: no transfer cliff to dodge.
            return {"gather_min_pixels": 0.0, "tile_pixels_scale": 1.0}
        # Device kernels only win once the PCIe round-trip is amortized, and
        # they prefer whole images over tiles (launch overhead per tile).
        return {"gather_min_pixels": 65536.0, "tile_pixels_scale": 8.0}

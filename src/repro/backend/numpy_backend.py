"""The NumPy reference backend: the exactness oracle every other backend chases.

This backend *is* the semantics of the kernel contract — its kernels are
NumPy fancy indexing and :func:`numpy.unique`.  The parity suite compares
every other backend against this one.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from .base import ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Host-side reference implementation of the kernel contract."""

    name = "numpy"

    @classmethod
    def is_available(cls) -> bool:
        return True

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "device": "cpu", "substrate": f"numpy {np.__version__}"}

    # ------------------------------------------------------------------ #
    def gather(self, table: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return table[np.asarray(indices)]

    def unique_inverse(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        unique, inverse = np.unique(np.asarray(codes), return_inverse=True)
        return unique, np.asarray(inverse).reshape(-1)

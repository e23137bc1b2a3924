"""Algorithm 1: the IQFT-inspired RGB image segmenter.

Pipeline per pixel (all steps vectorized over the whole image, chunked to keep
the working set cache-friendly):

1. normalize the RGB intensities to ``[0, 1]`` (skippable, to reproduce the
   Figure-5 ablation showing why normalization matters),
2. map channels to phases ``γ = R·θ1``, ``β = G·θ2``, ``α = B·θ3``,
3. build the 8-component phase vector ``F`` of equation (11),
4. compute the probabilities ``|W·F/8|²``,
5. label the pixel with the argmax basis state (an integer in 0..7).

The maximum number of segments is therefore 8, and the *actual* number adapts
to the image content and to θ (Table II / Figure 6 of the paper).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..base import BaseSegmenter
from ..errors import ParameterError, ShapeError
from .classifier import IQFTClassifier
from .lut import lut_eligible, pack_rgb_codes, unpack_rgb_codes
from .phase_encoding import DEFAULT_THETA, normalize_pixels, pixel_phases

__all__ = ["IQFTSegmenter"]

ThetaLike = Union[float, Sequence[float]]


class IQFTSegmenter(BaseSegmenter):
    """IQFT-inspired segmenter for RGB images (the paper's Algorithm 1).

    Parameters
    ----------
    thetas:
        Either a single angle (used for all three channels, as in the paper's
        main experiments where ``θ1 = θ2 = θ3 = π``) or a triple
        ``(θ1, θ2, θ3)``.
    normalize:
        Whether to apply the line-1 normalization (divide by 255).  Disabling
        it reproduces the "noisy segments" ablation of Figure 5.  When the
        input is already float in ``[0, 1]``, normalization is a no-op.
    max_value:
        The raw intensity ceiling used by the normalization (255 for 8-bit
        images).
    chunk_size:
        Pixels per internal matrix product; ``None`` uses the library default.
    store_probabilities:
        When True, the per-pixel 8-way probability maps are attached to the
        result's ``extras["probabilities"]`` (memory: ``8 × H × W`` floats).
    """

    name = "iqft-rgb"
    pointwise = True

    def __init__(
        self,
        thetas: ThetaLike = DEFAULT_THETA,
        normalize: bool = True,
        max_value: float = 255.0,
        chunk_size: Optional[int] = None,
        store_probabilities: bool = False,
    ):
        super().__init__()
        self._thetas = self._validate_thetas(thetas)
        self.normalize = bool(normalize)
        if max_value <= 0:
            raise ParameterError("max_value must be positive")
        self.max_value = float(max_value)
        self._classifier = IQFTClassifier(num_qubits=3, chunk_size=chunk_size)
        self.store_probabilities = bool(store_probabilities)
        self._last_extras: Dict[str, Any] = {}

    @staticmethod
    def _validate_thetas(thetas: ThetaLike) -> Tuple[float, float, float]:
        arr = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
        if arr.size == 1:
            arr = np.repeat(arr, 3)
        if arr.size != 3:
            raise ParameterError("thetas must be a scalar or a sequence of three angles")
        if np.any(arr < 0):
            raise ParameterError("angle parameters must be non-negative")
        return (float(arr[0]), float(arr[1]), float(arr[2]))

    # ------------------------------------------------------------------ #
    @property
    def thetas(self) -> Tuple[float, float, float]:
        """The angle parameters ``(θ1, θ2, θ3)``."""
        return self._thetas

    @property
    def num_classes(self) -> int:
        """Maximum number of segments the method can produce (8)."""
        return self._classifier.num_classes

    def with_thetas(self, thetas: ThetaLike) -> "IQFTSegmenter":
        """Return a copy of this segmenter with different angle parameters."""
        return IQFTSegmenter(
            thetas=thetas,
            normalize=self.normalize,
            max_value=self.max_value,
            chunk_size=self._classifier._chunk_size,
            store_probabilities=self.store_probabilities,
        )

    # ------------------------------------------------------------------ #
    def pixel_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Return the ``(H, W, 8)`` per-pixel probability maps (line 4)."""
        phases = self._phases(np.asarray(image))
        flat = phases.reshape(-1, 3)
        probs = self._classifier.probabilities(flat)
        return probs.reshape(phases.shape[0], phases.shape[1], self.num_classes)

    def _phases(self, arr: np.ndarray) -> np.ndarray:
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ShapeError(
                f"{self.name} expects an (H, W, 3) RGB image, got shape {arr.shape}"
            )
        if self.normalize:
            values = normalize_pixels(arr, max_value=self.max_value)
        else:
            # Figure-5 ablation: feed raw intensities straight into the phase
            # mapping.  uint8 input is only cast to float, not rescaled.
            values = arr.astype(np.float64)
        return pixel_phases(values, self._thetas)

    def _segment(self, image: np.ndarray) -> np.ndarray:
        arr = np.asarray(image)
        phases = self._phases(arr)
        height, width = phases.shape[:2]
        flat = phases.reshape(-1, 3)
        self._last_extras = {"thetas": self._thetas, "normalize": self.normalize}
        if self.store_probabilities:
            probs = self._classifier.probabilities(flat)
            labels = np.argmax(probs, axis=-1).astype(np.int64)
            self._last_extras["probabilities"] = probs.reshape(height, width, self.num_classes)
        else:
            labels = self._classifier.classify(flat)
        return labels.reshape(height, width)

    def labels_from_lut(
        self,
        image: np.ndarray,
        extras: Optional[Dict[str, Any]] = None,
    ) -> Optional[np.ndarray]:
        """Palette-LUT fast path: exact labels via per-colour lookup, or ``None``.

        The 3-qubit rule is a pure function of the ``(R, G, B)`` triple, so an
        8-bit image only needs one classifier evaluation per *distinct colour*
        (its palette) instead of one per pixel.  Colours are deduplicated on
        packed 24-bit codes, classified through the exact
        phase-encoding + matmul path, and scattered back — bit-identical to
        :meth:`segment` by construction: dedup and the final per-pixel gather
        are integer operations, and only the per-*colour* classification
        touches floats.  Every call classifies its own palette;
        nothing is cached across images.  Non-integer or out-of-range input
        returns ``None`` (callers fall back to the matrix path), as does
        ``store_probabilities`` mode: the fast path computes no per-pixel
        probability maps, so it must not swallow that contract.  Diagnostics
        go into the caller-owned ``extras`` dict when one is passed.
        """
        if self.store_probabilities:
            return None
        arr = np.asarray(image)
        if arr.ndim != 3 or arr.shape[2] != 3:
            return None
        if not lut_eligible(arr, normalize=self.normalize):
            return None
        codes = pack_rgb_codes(arr)
        palette, inverse = np.unique(codes, return_inverse=True)
        # Preserve the raw dtype so the palette rows take the exact same
        # normalization branch as the full image would.
        colors = unpack_rgb_codes(palette).astype(arr.dtype).reshape(-1, 1, 3)
        phases = self._phases(colors).reshape(-1, self._classifier.num_qubits)
        palette_labels = self._classifier.classify(phases)
        info = {
            "thetas": self._thetas,
            "normalize": self.normalize,
            "fast_path": "palette-lut",
            "palette_size": int(palette.size),
        }
        self._last_extras = info
        if extras is not None:
            extras.update(info)
        return palette_labels[inverse].reshape(arr.shape[:2])

    def _extras(self) -> Dict[str, Any]:
        return dict(self._last_extras)

"""The single-qubit IQFT-inspired segmenter for grayscale images (Sec. IV-C).

A grayscale pixel with normalized intensity ``I`` is encoded as the one-qubit
state ``(|0⟩ + e^{i I θ}|1⟩)/√2``; applying the 2×2 IQFT (a Hadamard) yields
class probabilities ``(1 ± cos Iθ)/2``, so the method is exactly a
(multi-)thresholding of the intensity at the points where ``cos(Iθ)`` changes
sign (equations (12)–(16)).

Setting ``θ`` from an Otsu threshold via
:func:`repro.core.thresholds.theta_for_threshold` makes the output *identical*
to Otsu's (Figure 7); choosing larger θ (e.g. 4π) produces several thresholds
from a single parameter (Figure 4), which a single-threshold method cannot do.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..base import BaseSegmenter
from ..errors import ParameterError
from ..imaging.color import rgb_to_gray
from .classifier import IQFTClassifier
from .lut import grayscale_label_lut, lut_eligible
from .phase_encoding import normalize_pixels
from .thresholds import thresholds_for_theta

__all__ = ["IQFTGrayscaleSegmenter"]


class IQFTGrayscaleSegmenter(BaseSegmenter):
    """IQFT-inspired grayscale segmenter (single qubit, two classes).

    Parameters
    ----------
    theta:
        The angle parameter θ.  Via equation (15) it is equivalent to the set
        of intensity thresholds returned by
        :func:`repro.core.thresholds.thresholds_for_theta`.
    normalize:
        Divide raw intensities by ``max_value`` before encoding.
    max_value:
        Raw intensity ceiling (255 for 8-bit input).
    multiband:
        When False (default) the output is the binary argmax label of
        equation (14) — class 0 vs class 1 — matching the paper's evaluation.
        When True, consecutive intensity bands between thresholds receive
        distinct labels (0, 1, 2, ...), exposing the multi-threshold behaviour
        of Figure 4 as separate segments instead of the alternating binary
        pattern.
    chunk_size:
        Pixels per internal matrix product; ``None`` uses the library default.
    """

    name = "iqft-gray"
    pointwise = True

    def __init__(
        self,
        theta: float = float(np.pi),
        normalize: bool = True,
        max_value: float = 255.0,
        multiband: bool = False,
        chunk_size: Optional[int] = None,
    ):
        super().__init__()
        if theta <= 0:
            raise ParameterError("theta must be positive")
        self.theta = float(theta)
        self.normalize = bool(normalize)
        if max_value <= 0:
            raise ParameterError("max_value must be positive")
        self.max_value = float(max_value)
        self.multiband = bool(multiband)
        self._classifier = IQFTClassifier(num_qubits=1, chunk_size=chunk_size)
        self._last_extras: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    @property
    def thresholds(self) -> list:
        """The equivalent intensity thresholds implied by θ (equation (15))."""
        return thresholds_for_theta(self.theta)

    def with_theta(self, theta: float) -> "IQFTGrayscaleSegmenter":
        """Return a copy of this segmenter with a different θ."""
        return IQFTGrayscaleSegmenter(
            theta=theta,
            normalize=self.normalize,
            max_value=self.max_value,
            multiband=self.multiband,
            chunk_size=self._classifier._chunk_size,
        )

    def _intensity(self, image: np.ndarray) -> np.ndarray:
        arr = np.asarray(image)
        if arr.ndim == 3:
            # RGB input: the paper converts to grayscale with eq. (17) first.
            gray = rgb_to_gray(arr)
            return gray if self.normalize else gray * self.max_value
        if self.normalize:
            return normalize_pixels(arr, max_value=self.max_value)
        return arr.astype(np.float64)

    def pixel_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Return the ``(H, W, 2)`` class probabilities of equation (14)."""
        intensity = self._intensity(image)
        phases = (intensity * self.theta).reshape(-1, 1)
        probs = self._classifier.probabilities(phases)
        return probs.reshape(intensity.shape[0], intensity.shape[1], 2)

    def _segment(self, image: np.ndarray) -> np.ndarray:
        intensity = self._intensity(image)
        phases = (intensity * self.theta).reshape(-1, 1)
        binary = self._classifier.classify(phases).reshape(intensity.shape)
        self._last_extras = {
            "theta": self.theta,
            "thresholds": self.thresholds,
            "multiband": self.multiband,
        }
        if not self.multiband:
            return binary
        # Multiband mode: label each inter-threshold intensity band separately.
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if thresholds.size == 0:
            return np.zeros_like(binary)
        bands = np.digitize(intensity, thresholds, right=False)
        return bands.astype(np.int64)

    def labels_from_lut(
        self,
        image: np.ndarray,
        extras: Optional[Dict[str, Any]] = None,
    ) -> Optional[np.ndarray]:
        """LUT fast path: exact labels via a 256-entry value table, or ``None``.

        Eligible inputs are 2-D integer images (see
        :func:`repro.core.lut.lut_eligible`); everything else — float images,
        RGB input routed through the grayscale conversion — returns ``None``
        so callers fall back to :meth:`segment`.  When the table applies, the
        result is bit-identical to the matrix path because the table itself is
        built by the exact classifier and applied by an integer gather.
        Diagnostics go into the caller-owned ``extras`` dict when one is
        passed (so concurrent callers sharing this segmenter don't race on
        its internal state).
        """
        arr = np.asarray(image)
        if arr.ndim != 2 or not lut_eligible(arr, normalize=self.normalize):
            return None
        lut = grayscale_label_lut(
            theta=self.theta,
            normalize=self.normalize,
            max_value=self.max_value,
            multiband=self.multiband,
            uint8_values=arr.dtype == np.uint8,
        )
        info = {
            "theta": self.theta,
            "thresholds": self.thresholds,
            "multiband": self.multiband,
            "fast_path": "lut",
        }
        self._last_extras = info
        if extras is not None:
            extras.update(info)
        return lut[arr]

    def _extras(self) -> Dict[str, Any]:
        return dict(self._last_extras)

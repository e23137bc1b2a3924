"""The generic ``n``-qubit IQFT phase-pattern classifier.

This class is the mathematical heart of the paper: given per-sample phase
vectors ``(α, β, γ, ...)`` it computes the amplitudes of equation (11)
(``(1/N)·W·F``), their squared moduli (the probability that the input pattern
matches each basis-state pattern), and the argmax label.  The RGB and
grayscale segmenters are thin wrappers that add image handling and θ-based
phase encoding on top.

The implementation is fully vectorized: a batch of ``N`` samples requires a
single ``(N, 2^n) @ (2^n, 2^n)`` complex matrix product, processed in chunks
to bound peak memory (see ``chunk_pixels`` in :mod:`repro.config`).  This is
the one float kernel of the library: every path — value LUT, RGB tables
(which certify their product-form labels against it), tiled, direct, delta —
labels through it, so they all agree bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import get_config
from ..errors import ParameterError, ShapeError
from .iqft_matrix import basis_bit_matrix, iqft_classification_matrix

__all__ = ["IQFTClassifier"]


class IQFTClassifier:
    """Classify phase patterns into computational-basis states via the IQFT.

    Parameters
    ----------
    num_qubits:
        Number of qubits ``n``; inputs have ``n`` phases and outputs are
        labels in ``{0, ..., 2^n − 1}``.
    chunk_size:
        Maximum number of samples per internal matrix product.  ``None`` uses
        the library default (:func:`repro.config.get_config`).
    """

    def __init__(self, num_qubits: int = 3, chunk_size: Optional[int] = None):
        if num_qubits < 1:
            raise ParameterError("num_qubits must be >= 1")
        self._num_qubits = int(num_qubits)
        self._dim = 2**self._num_qubits
        # W with entries ω^{-jk}; the 1/N scaling of eq. (11) is applied in
        # amplitudes().  The matrix is symmetric, so no transpose is needed in
        # the row-vector formulation used below.
        self._matrix = iqft_classification_matrix(self._num_qubits)
        self._bits = basis_bit_matrix(self._num_qubits)
        self._chunk_size = chunk_size

    # ------------------------------------------------------------------ #
    @property
    def num_qubits(self) -> int:
        """Number of qubits (phases per sample)."""
        return self._num_qubits

    @property
    def num_classes(self) -> int:
        """Number of output classes, ``2**num_qubits``."""
        return self._dim

    @property
    def matrix(self) -> np.ndarray:
        """The unscaled classification matrix ``W`` (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def _effective_chunk(self) -> int:
        if self._chunk_size is not None:
            if self._chunk_size < 1:
                raise ParameterError("chunk_size must be positive")
            return int(self._chunk_size)
        return int(get_config().chunk_pixels)

    @staticmethod
    def _as_batch(phases: np.ndarray, num_qubits: int) -> np.ndarray:
        arr = np.asarray(phases, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[1] != num_qubits:
            raise ShapeError(
                f"phases must have shape (N, {num_qubits}) or ({num_qubits},); "
                f"got {np.shape(phases)}"
            )
        return arr

    # ------------------------------------------------------------------ #
    def amplitudes(self, phases: np.ndarray) -> np.ndarray:
        """Return the ``(N, 2^n)`` complex amplitudes ``(1/N)·W·F`` (eq. 11).

        ``phases`` is an ``(N, n)`` array (or a single ``(n,)`` vector, in
        which case the output is ``(2^n,)``), ordered most-significant qubit
        first as produced by :func:`repro.core.phase_encoding.pixel_phases`.
        """
        arr = self._as_batch(phases, self._num_qubits)
        out = np.empty((arr.shape[0], self._dim), dtype=np.complex128)
        chunk = self._effective_chunk()
        matrix, dim = self._matrix, self._dim
        for start in range(0, arr.shape[0], chunk):
            stop = min(start + chunk, arr.shape[0])
            block = np.exp(1j * (arr[start:stop] @ self._bits.T))
            amps = out[start:stop]
            # amp_j = (1/N) Σ_k F_k · ω^{-jk}; W is symmetric so F @ W works
            # row-wise without a transpose.  The sum over k is accumulated in
            # fixed column order rather than via np.matmul: BLAS gemm kernels
            # round differently depending on the batch size N, which would make
            # the LUT tables (built over a fixed 256-value ramp) differ in the
            # last ulp from direct segmentation of arbitrary-size images.
            np.multiply(block[:, :1], matrix[0], out=amps)
            for k in range(1, dim):
                amps += block[:, k : k + 1] * matrix[k]
            amps *= 1.0 / dim
        if np.asarray(phases).ndim == 1:
            return out[0]
        return out

    def probabilities(self, phases: np.ndarray) -> np.ndarray:
        """Line 4 of Algorithm 1: squared moduli of the amplitudes.

        The rows sum to exactly ``1/N · |F|² = 1`` because the encoded state is
        (up to the explicit normalization bookkeeping) a valid quantum state;
        the paper's Figure 3 is one row of this output.
        """
        amps = self.amplitudes(phases)
        return np.abs(amps) ** 2

    def classify(self, phases: np.ndarray) -> np.ndarray:
        """Line 5 of Algorithm 1: the argmax basis-state label per sample.

        Ties are broken toward the smaller basis index (``numpy.argmax``
        semantics), which matters only on a measure-zero set of inputs.
        """
        probs = self.probabilities(phases)
        labels = np.argmax(probs, axis=-1)
        return labels.astype(np.int64)

    def classify_unique(self, phases: np.ndarray) -> np.ndarray:
        """Classify with row-level deduplication (standalone utility).

        Quantized inputs produce massively redundant phase batches; this
        classifies each *distinct* row once and scatters the labels back,
        which is exactly equivalent to :meth:`classify` because the rule is a
        pure per-row function.  The image segmenters precompute per-value
        tables instead (see :mod:`repro.core.lut`); use this one for raw
        phase batches that don't come from 8-bit images.  Worst case (all
        rows distinct) it degrades to one extra sort.
        """
        arr = self._as_batch(phases, self._num_qubits)
        uniq, inverse = np.unique(arr, axis=0, return_inverse=True)
        labels = self.classify(uniq)[np.asarray(inverse).reshape(-1)]
        if np.asarray(phases).ndim == 1:
            return labels[0]
        return labels

    # ------------------------------------------------------------------ #
    def classify_reference(self, phases: np.ndarray) -> np.ndarray:
        """Per-sample Python-loop implementation of Algorithm 1.

        This mirrors the pseudo-code line by line and exists purely as a
        correctness oracle for the vectorized path (and for the ablation
        benchmark measuring the cost of naive per-pixel loops).  Do not use it
        on full images.
        """
        arr = self._as_batch(phases, self._num_qubits)
        labels = np.empty(arr.shape[0], dtype=np.int64)
        from .phase_encoding import phase_vector  # local import to avoid cycle at module load

        for m in range(arr.shape[0]):
            f_m = phase_vector(arr[m])
            s_m = np.abs(f_m @ self._matrix / self._dim) ** 2
            labels[m] = int(np.argmax(s_m))
        return labels if np.asarray(phases).ndim != 1 else labels[:1]

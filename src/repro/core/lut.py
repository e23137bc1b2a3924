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

The RGB rule of eq. (11) is likewise a fixed function of the 8-bit colour,
and the encoded state is a product state, so each basis-state probability
factorises per qubit: ``p_j = R[r, j] · G[g, j mod 4] · B[b, j mod 2]``.
:class:`RgbLabelTables` turns that into a few integer gathers per pixel
without storing the 2²⁴-entry colour cube (see its docstring).

This module owns both table kinds and their LRU caches; the segmenters
expose the fast path through their ``labels_from_lut`` hooks and
:class:`repro.engine.BatchSegmentationEngine` decides when to take it.
"""

from __future__ import annotations

import functools
import threading
from typing import Tuple

import numpy as np

from ..errors import ParameterError
from .classifier import IQFTClassifier
from .phase_encoding import _as_thetas, normalize_pixels, pixel_phases

__all__ = [
    "DEFAULT_NUM_LEVELS",
    "RGB_MARGIN",
    "MAX_EXCEPTION_ROWS",
    "RgbLabelTables",
    "grayscale_label_lut",
    "grayscale_probability_lut",
    "rgb_label_tables",
    "lut_eligible",
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
    """Drop every cached grayscale and RGB table (used by tests and benchmarks)."""
    _grayscale_tables.cache_clear()
    with _RGB_BUILD_LOCK:
        _rgb_tables.cache_clear()


# --------------------------------------------------------------------------- #
# RGB tables (eq. (11) factorised per qubit; one set per key)
# --------------------------------------------------------------------------- #
#: Top-2 probability margin above which the product form's argmax is taken
#: as the classifier's.  Both evaluations lie within about 1e-14 of the
#: exact probabilities of the same float phases (a few ulp per term, plus
#: the rounding of the phase sum, which grows with the phase), so the margin
#: keeps a factor of 1e4 in hand.  It is 1e-9 while every phase is below
#: 16 rad (θ ≤ 4π normalized, the paper's range) and grows in proportion
#: beyond.
RGB_MARGIN = 1e-9

#: Most exception rows a key stores (256 KiB of labels, 256 per row).  A
#: degenerate key with more — ``normalize=False`` at θ = π, say, where whole
#: classes of colours tie exactly — stores none and labels those rows'
#: pixels through the classifier on each call instead.
MAX_EXCEPTION_ROWS = 1024

#: Row entry of a degenerate key's unresolved rows (labels are 0..7).
_UNRESOLVED = 255


class RgbLabelTables:
    """Exact labels of every 8-bit colour under one RGB key, in a few hundred KiB.

    Row ``q = 256·r + g`` of the colour cube, read in the order of
    ``B[b, 1] / B[b, 0]``, is a step: the best even basis state wins below
    a threshold on that ratio and the best odd one above it, because
    ``p_j = C[q, j] · B[b, j mod 2]`` with ``C[q, j] = R[r, j] · G[g, j mod 4]``.
    So ``rank[b]`` (b's position in that order) and the step's two labels
    and threshold describe the row, and rows with equal steps share one
    256-entry row of ``rows``.  A pixel's label is
    ``rows[row_class[q], rank[b]]``: integer gathers only.

    A colour's step label is certified when its top-2 margin exceeds
    :data:`RGB_MARGIN`.  Both margins (best against the other parity's
    best, and against its own parity's runner-up) shrink monotonically
    towards the threshold, so the two colours beside it decide a whole row.
    A row holding an uncertified colour is an *exception row*
    (``exception_rows`` lists their ``q``) with a ``rows`` entry of its own,
    whose uncertified entries come from
    :meth:`~repro.core.classifier.IQFTClassifier.classify` on the very
    phases the exact path computes — labels stay bit-identical by
    construction.  Build with :func:`rgb_label_tables`; the arrays are
    read-only.
    """

    __slots__ = ("row_class", "rank", "rows", "exception_rows", "_phases", "_classifier")

    def __init__(self, row_class, rank, rows, exception_rows, phases, classifier):
        self.row_class = row_class
        self.rank = rank
        self.rows = rows
        self.exception_rows = exception_rows
        self._phases = phases
        self._classifier = classifier
        for table in (row_class, rank, rows, exception_rows, phases):
            table.flags.writeable = False

    @property
    def resolved(self) -> bool:
        """False for a degenerate key whose exception rows the classifier labels per call."""
        return self.exception_rows.size <= MAX_EXCEPTION_ROWS

    @property
    def nbytes(self) -> int:
        """Bytes held by the tables."""
        return sum(
            table.nbytes for table in (self.row_class, self.rank, self.rows, self.exception_rows)
        )

    def labels(self, image: np.ndarray) -> np.ndarray:
        """``(H, W)`` int64 labels of an integer ``(H, W, 3)`` image with values < 256."""
        if image.dtype != np.uint8:
            image = image.astype(np.int32)
        red, green, blue = image[..., 0], image[..., 1], image[..., 2]
        row = red.astype(np.int32)
        row <<= 8
        row |= green
        index = np.take(self.row_class, row).astype(np.int32)
        index <<= 8
        index |= np.take(self.rank, blue)
        labels = np.take(self.rows, index)
        if not self.resolved:
            unresolved = labels == _UNRESOLVED
            if unresolved.any():
                colours = (red[unresolved], green[unresolved], blue[unresolved])
                labels[unresolved] = self._classifier.classify(
                    _colour_phases(self._phases, *colours)
                )
        return labels.astype(np.int64)


def _colour_phases(phases, red, green, blue) -> np.ndarray:
    """``(N, 3)`` classifier input of colours, from the ramp's per-channel phases."""
    return np.stack((phases[blue, 0], phases[green, 1], phases[red, 2]), axis=1)


def _qubit_factors(phase: np.ndarray, period: int) -> np.ndarray:
    """``cos²((φ − 2π·j/period) / 2)`` for ``j < period``: one qubit's factor of ``p_j``.

    A qubit of bit weight ``w`` contributes ``cos²((φ − 2π·j·w/8) / 2)``,
    which depends on ``j`` only modulo ``period = 8 / w``.
    """
    shifts = 2.0 * np.pi * np.arange(period) / period
    return np.cos((phase[:, None] - shifts) / 2.0) ** 2


def _build_rgb_tables(thetas, normalize, max_value, uint8_values) -> RgbLabelTables:
    # The 0..255 ramp goes through the exact path's own normalization and
    # phase mapping, so every phase below is the float a pixel gets.
    ramp = np.repeat(np.arange(256)[:, None], 3, axis=1)
    ramp = ramp.astype(np.uint8 if uint8_values else np.int64)
    values = normalize_pixels(ramp, max_value=max_value) if normalize else ramp.astype(np.float64)
    phases = pixel_phases(values, thetas)  # columns (α, β, γ) = (B·θ3, G·θ2, R·θ1)
    margin = RGB_MARGIN * max(1.0, float(phases.max()) / 16.0)
    red = _qubit_factors(phases[:, 2], 8)
    green = _qubit_factors(phases[:, 1], 4)
    blue = _qubit_factors(phases[:, 0], 2)

    # Best state and top two products of each parity per row q = 256·r + g
    # (state j takes green column j mod 4: 0,2,0,2 for even j, 1,3,1,3 for odd).
    best, first, second = [], [], []
    for parity in (0, 1):
        products = (red[:, None, parity::2] * np.tile(green[:, parity::2], 2)).reshape(-1, 4)
        best.append(2 * np.argmax(products, axis=1) + parity)
        c0, c1, c2, c3 = products.T
        high, low = np.maximum(c0, c1), np.minimum(c0, c1)
        high2, low2 = np.maximum(c2, c3), np.minimum(c2, c3)
        first.append(np.maximum(high, high2))
        second.append(np.maximum(np.minimum(high, high2), np.maximum(low, low2)))
    (even, odd), (e1, o1), (e2, o2) = best, first, second

    # Odd wins where b's share s = B1 / (B0 + B1) passes e1 / (e1 + o1).
    share = blue[:, 1] / (blue[:, 0] + blue[:, 1])
    order = np.argsort(share, kind="stable")
    rank = np.empty(256, dtype=np.int32)
    rank[order] = np.arange(256, dtype=np.int32)
    split = np.searchsorted(share[order], e1 / (e1 + o1), side="left")
    below = order[np.maximum(split - 1, 0)]  # the last even-winning colour
    above = order[np.minimum(split, 255)]  # the first odd-winning colour
    even_margin = np.minimum(e1 * blue[below, 0] - o1 * blue[below, 1], (e1 - e2) * blue[below, 0])
    odd_margin = np.minimum(o1 * blue[above, 1] - e1 * blue[above, 0], (o1 - o2) * blue[above, 1])
    uncertified = ((split > 0) & (even_margin <= margin)) | ((split < 256) & (odd_margin <= margin))
    exceptions = np.flatnonzero(uncertified)

    # Certified rows share one row per distinct step (split, even, odd).
    steps, step_class = np.unique((split * 64 + even * 8 + odd)[~uncertified], return_inverse=True)
    steps = steps[:, None]
    rows = [np.where(np.arange(256) >= steps // 64, steps % 8, steps // 8 % 8)]
    row_class = np.empty(65536, dtype=np.uint16)
    row_class[~uncertified] = step_class
    classifier = IQFTClassifier(3)
    if exceptions.size > MAX_EXCEPTION_ROWS:
        row_class[exceptions] = len(steps)
        rows.append(np.full((1, 256), _UNRESOLVED))
    elif exceptions.size:
        row_class[exceptions] = len(steps) + np.arange(exceptions.size)
        # Every colour of the exception rows: the step label where certified,
        # the classifier's own label where not.
        p_even = e1[exceptions, None] * blue[:, 0]
        p_odd = o1[exceptions, None] * blue[:, 1]
        even_wins = p_even >= p_odd
        labels = np.where(even_wins, even[exceptions, None], odd[exceptions, None])
        top_two_margin = np.where(
            even_wins,
            np.minimum(p_even - p_odd, p_even - e2[exceptions, None] * blue[:, 0]),
            np.minimum(p_odd - p_even, p_odd - o2[exceptions, None] * blue[:, 1]),
        )
        row, b = np.nonzero(top_two_margin <= margin)
        q = exceptions[row]
        labels[row, b] = classifier.classify(_colour_phases(phases, q >> 8, q & 255, b))
        rows.append(labels[:, order])
    return RgbLabelTables(
        row_class,
        rank,
        np.concatenate(rows).astype(np.uint8),
        exceptions.astype(np.int32),
        phases,
        classifier,
    )


@functools.lru_cache(maxsize=16)
def _rgb_tables(
    thetas: Tuple[float, float, float], normalize: bool, max_value: float, uint8_values: bool
) -> RgbLabelTables:
    return _build_rgb_tables(thetas, normalize, max_value, uint8_values)


# One build per key even when threads race to first use: a lookup holds the
# lock briefly and a first use holds it for the build (tens of milliseconds).
_RGB_BUILD_LOCK = threading.Lock()


def rgb_label_tables(
    thetas: Tuple[float, float, float],
    normalize: bool = True,
    max_value: float = 255.0,
    uint8_values: bool = True,
) -> RgbLabelTables:
    """The cached :class:`RgbLabelTables` of one RGB key.

    ``thetas`` is one angle for all three channels or the ``(θ1, θ2, θ3)``
    triple; ``uint8_values`` selects the storage the tables model (``uint8``
    is divided by 255, wider integers by ``max_value``), as for
    :func:`grayscale_label_lut`.
    """
    key = tuple(float(theta) for theta in _as_thetas(thetas, 3))
    if max_value <= 0:
        raise ParameterError("max_value must be positive")
    with _RGB_BUILD_LOCK:
        return _rgb_tables(key, bool(normalize), float(max_value), bool(uint8_values))

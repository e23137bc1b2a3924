"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to discriminate the failure domain (imaging, quantum, datasets, ...)
when they need to.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ImageError",
    "ImageDecodeError",
    "ImageEncodeError",
    "ShapeError",
    "QuantumError",
    "GateError",
    "SegmentationError",
    "ParameterError",
    "MetricError",
    "DatasetError",
    "ParallelError",
    "BackendError",
    "ExperimentError",
    "ServeError",
    "ServeConnectionError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "QuotaExceededError",
    "CacheError",
    "PayloadError",
]


class ReproError(Exception):
    """Base class for all exceptions raised by the :mod:`repro` library."""


class ImageError(ReproError):
    """Base class for failures in the imaging substrate."""


class ImageDecodeError(ImageError):
    """Raised when an image file cannot be decoded (corrupt or unsupported)."""


class ImageEncodeError(ImageError):
    """Raised when an image cannot be written in the requested format."""


class ShapeError(ImageError, ValueError):
    """Raised when an array does not have the expected dimensionality/shape."""


class QuantumError(ReproError):
    """Base class for failures in the quantum-simulation substrate."""


class GateError(QuantumError):
    """Raised when a gate is applied to invalid qubit indices or states."""


class SegmentationError(ReproError):
    """Raised when a segmentation algorithm cannot produce a valid labeling."""


class ParameterError(ReproError, ValueError):
    """Raised when a user-supplied algorithm parameter is out of range."""


class MetricError(ReproError):
    """Raised when an evaluation metric receives inconsistent inputs."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated, loaded, or indexed."""


class ParallelError(ReproError):
    """Raised when the parallel-execution layer fails to run a job."""


class BackendError(ReproError):
    """Raised when an array backend fails at runtime (device lost, OOM, ...).

    Selection errors — asking for a backend that is not registered or whose
    optional dependency is missing — raise :class:`ParameterError` instead:
    they are configuration mistakes, not runtime faults.
    """


class ExperimentError(ReproError):
    """Raised when an experiment/benchmark harness is misconfigured."""


class ServeError(ReproError):
    """Base class for failures in the serving layer (:mod:`repro.serve`)."""


class ServeConnectionError(ServeError):
    """Raised when an HTTP serve client cannot reach (or loses) the server.

    :class:`repro.serve.SegmentClient` maps every socket-level
    failure — connection refused, reset, timeout, a half-written response —
    to this type, so callers talking to a restarting or draining worker
    fleet handle one library exception instead of the zoo of
    :class:`OSError` subtypes the stdlib surfaces.  The original error is
    preserved as ``__cause__``.
    """


class ServiceClosedError(ServeError):
    """Raised when a request is submitted to a closed segmentation service."""


class ServiceOverloadedError(ServeError):
    """Raised when the service queue is full and backpressure rejects a request."""


class DeadlineExceededError(ServeError):
    """Raised when a request cannot meet (or has already missed) its deadline.

    The async serving front end raises this at admission time when the
    estimated completion time already exceeds the request deadline, and while
    draining its lanes for any queued request whose deadline passed before the
    engine could pick it up.
    """


class QuotaExceededError(ServeError):
    """Raised when a client exhausts its per-client token-bucket quota."""


class CacheError(ServeError):
    """Raised when the persistent result cache is misconfigured or corrupt."""


class PayloadError(ServeError):
    """Raised when a request payload cannot be parsed into an image.

    The HTTP front end maps this (alongside :class:`ImageDecodeError` and
    :class:`ParameterError`) to a ``400 Bad Request`` response: the request
    was understood at the protocol level but its body — JSON envelope,
    base64 transfer encoding, npy array, or image container — is malformed.
    """

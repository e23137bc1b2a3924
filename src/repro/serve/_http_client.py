"""Small blocking client for the HTTP serving front end.

:class:`SegmentClient` is the reference consumer of
:class:`~repro.serve.HttpSegmentationServer` — tests, benchmarks and
examples drive the server through it rather than hand-rolling request
bytes.  It is deliberately stdlib-only (``http.client``) and *blocking*:
the interesting concurrency lives server-side, and a plain synchronous
client is what an external user would reach for first.

Transport choices mirror the server contract:

* images travel as ``.npy`` bodies by default (exact dtype/shape round
  trip — the property the content-addressed cache keys on);
* error responses are mapped back to the library's own exception types, so
  ``client.segment(...)`` raises :class:`~repro.errors.QuotaExceededError`
  exactly like the in-process ``await service.submit(...)`` would;
* transport failures are mapped too: connection refused/reset, a timeout,
  or a half-written response all raise
  :class:`~repro.errors.ServeConnectionError` (original error in
  ``__cause__``).  Against a worker *fleet* mid-restart or mid-drain this
  is the whole client contract — a request either completes bit-identically
  or surfaces one well-typed exception; it never hangs a socket beyond the
  configured timeout and never silently retries a non-idempotent POST.
"""

from __future__ import annotations

import base64
import dataclasses
import http.client
import io
import json
import socket
from typing import Any, Dict, Optional

import numpy as np

from ..errors import (
    DeadlineExceededError,
    ImageDecodeError,
    ParameterError,
    PayloadError,
    QuotaExceededError,
    ServeConnectionError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)

__all__ = ["SegmentClient", "HttpSegmentResult"]

#: Error-body ``error`` field → exception class raised client-side.
_ERROR_TYPES = {
    "QuotaExceededError": QuotaExceededError,
    "DeadlineExceededError": DeadlineExceededError,
    "ServiceOverloadedError": ServiceOverloadedError,
    "ServiceClosedError": ServiceClosedError,
    "PayloadError": PayloadError,
    "ImageDecodeError": ImageDecodeError,
    "ShapeError": ShapeError,
    "ParameterError": ParameterError,
}


@dataclasses.dataclass
class HttpSegmentResult:
    """One ``POST /v1/segment`` answer, parsed back into arrays/scalars."""

    labels: np.ndarray
    num_segments: int
    method: str
    fast_path: str
    cache_hit: bool
    coalesced: bool
    runtime_seconds: float
    priority: str
    metrics: Dict[str, float]
    #: Trace id echoed by the server (``X-Repro-Trace-Id``) — look the
    #: request's span tree up at ``GET /v1/trace/{id}`` while it is retained.
    trace_id: Optional[str] = None

    @property
    def shape(self) -> tuple:
        """Shape of the label map."""
        return tuple(self.labels.shape)


class SegmentClient:
    """Blocking HTTP client for ``repro-segment serve --http``.

    Parameters
    ----------
    host, port:
        The serving endpoint.
    timeout:
        Socket timeout in seconds for each request.

    The underlying connection is keep-alive and re-established on demand,
    so one client instance can issue many sequential requests; it is not
    thread-safe (use one client per thread in stress tests).
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        try:
            return self._request_raw(method, path, body, headers)
        except (http.client.HTTPException, socket.timeout, OSError) as exc:
            # One well-typed failure for "the server is unreachable / went
            # away mid-request" — against a draining or restarting fleet the
            # caller sees a library exception, never a bare socket error.
            self.close()
            raise ServeConnectionError(
                f"{method} http://{self.host}:{self.port}{path} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    def _request_raw(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Optional[Dict[str, str]],
    ):
        fresh = self._conn is None
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
        except (http.client.BadStatusLine, ConnectionResetError, BrokenPipeError):
            # A reused keep-alive socket the server closed in the meantime:
            # retry once on a fresh connection.  Failures on a *fresh*
            # connection — and timeouts anywhere — propagate instead:
            # silently re-sending a non-idempotent POST could duplicate
            # server-side work and double the caller's wait.
            self.close()
            if fresh:
                raise
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
        payload = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response, payload

    def _raise_for_status(self, response, payload: bytes) -> None:
        if 200 <= response.status < 300:
            return
        try:
            document = json.loads(payload.decode("utf-8"))
            name = document.get("error", "")
            detail = document.get("detail", payload.decode("utf-8", "replace"))
        except (ValueError, UnicodeDecodeError):
            name, detail = "", payload.decode("utf-8", "replace")
        exc_type = _ERROR_TYPES.get(name, ServeError)
        raise exc_type(f"HTTP {response.status}: {detail}")

    @staticmethod
    def _result_from_document(
        document: Dict[str, Any], trace_id: Optional[str] = None
    ) -> HttpSegmentResult:
        return HttpSegmentResult(
            labels=np.asarray(document["labels"]),
            num_segments=int(document["num_segments"]),
            method=str(document["method"]),
            fast_path=str(document["fast_path"]),
            cache_hit=bool(document["cache_hit"]),
            coalesced=bool(document["coalesced"]),
            runtime_seconds=float(document["runtime_seconds"]),
            priority=str(document["priority"]),
            metrics={key: float(value) for key, value in document["metrics"].items()},
            trace_id=trace_id,
        )

    def close(self) -> None:
        """Close the underlying connection (reopened on the next request)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "SegmentClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document plus its ``status_code`` (200 or 503)."""
        response, payload = self._request("GET", "/healthz")
        document = json.loads(payload.decode("utf-8"))
        document["status_code"] = response.status
        return document

    def metrics(self) -> Dict[str, Any]:
        """The full ``service.metrics()`` snapshot from ``/v1/metrics``."""
        response, payload = self._request("GET", "/v1/metrics")
        self._raise_for_status(response, payload)
        return json.loads(payload.decode("utf-8"))

    def capabilities(self) -> Dict[str, Any]:
        """The server's stable feature contract from ``/v1/capabilities``.

        Reports the API version, endpoints, accepted/produced payload
        formats, the ``config_digest`` half of every cache key and whether
        delta streams are supported, so callers can pick formats and route
        work before sending a single image.
        """
        response, payload = self._request("GET", "/v1/capabilities")
        self._raise_for_status(response, payload)
        return json.loads(payload.decode("utf-8"))

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition from ``/v1/metrics?format=prometheus``."""
        response, payload = self._request("GET", "/v1/metrics?format=prometheus")
        self._raise_for_status(response, payload)
        return payload.decode("utf-8")

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One retained trace document by id, or ``None`` once evicted."""
        response, payload = self._request("GET", f"/v1/trace/{trace_id}")
        if response.status == 404:
            return None
        self._raise_for_status(response, payload)
        return json.loads(payload.decode("utf-8"))

    def traces(self, slowest: int = 10) -> list:
        """The ``slowest`` retained trace documents, slowest first."""
        response, payload = self._request("GET", f"/v1/traces?slowest={int(slowest)}")
        self._raise_for_status(response, payload)
        return json.loads(payload.decode("utf-8")).get("traces", [])

    def segment(
        self,
        image: np.ndarray,
        *,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        client_id: Optional[str] = None,
        accept: str = "json",
        trace_id: Optional[str] = None,
    ) -> HttpSegmentResult:
        """Segment one image over the wire; raises the mapped serve errors.

        ``accept="json"`` (default) parses the JSON document; ``"npy"``
        requests the labels as an ``.npy`` body (scalar metadata rides in
        response headers, ``metrics`` is then empty).  ``trace_id`` travels
        as ``X-Repro-Trace-Id`` (forcing the request to be traced); either
        way the server's echoed id lands in the result's ``trace_id``.
        """
        if accept not in ("json", "npy"):
            raise ParameterError('accept must be "json" or "npy"')
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(image), allow_pickle=False)
        headers = {"Content-Type": "application/x-npy"}
        if accept == "npy":
            headers["Accept"] = "application/x-npy"
        if priority is not None:
            headers["X-Repro-Priority"] = str(priority)
        if deadline_ms is not None:
            headers["X-Repro-Deadline-Ms"] = f"{float(deadline_ms):g}"
        if client_id is not None:
            headers["X-Repro-Client"] = str(client_id)
        if trace_id is not None:
            headers["X-Repro-Trace-Id"] = str(trace_id)
        response, payload = self._request("POST", "/v1/segment", buffer.getvalue(), headers)
        self._raise_for_status(response, payload)
        echoed = response.getheader("X-Repro-Trace-Id")
        if accept == "npy":
            labels = np.load(io.BytesIO(payload), allow_pickle=False)
            return HttpSegmentResult(
                labels=labels,
                num_segments=int(response.getheader("X-Repro-Num-Segments", "0")),
                method=response.getheader("X-Repro-Method", ""),
                fast_path=response.getheader("X-Repro-Fast-Path", "direct"),
                cache_hit=response.getheader("X-Repro-Cache-Hit") == "true",
                coalesced=response.getheader("X-Repro-Coalesced") == "true",
                runtime_seconds=float(response.getheader("X-Repro-Runtime-Seconds", "0")),
                priority=str(priority or "normal").lower(),
                metrics={},
                trace_id=echoed,
            )
        return self._result_from_document(json.loads(payload.decode("utf-8")), trace_id=echoed)

    def segment_json(
        self,
        image_bytes: bytes,
        *,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        client_id: Optional[str] = None,
    ) -> HttpSegmentResult:
        """Submit pre-encoded image-file bytes through the JSON envelope."""
        payload: Dict[str, Any] = {"image": base64.b64encode(image_bytes).decode("ascii")}
        if priority is not None:
            payload["priority"] = str(priority)
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        if client_id is not None:
            payload["client_id"] = str(client_id)
        response, body = self._request(
            "POST",
            "/v1/segment",
            json.dumps(payload).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        self._raise_for_status(response, body)
        return self._result_from_document(
            json.loads(body.decode("utf-8")),
            trace_id=response.getheader("X-Repro-Trace-Id"),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentClient(host={self.host!r}, port={self.port})"

"""Asyncio-native HTTP/1.1 front end over :class:`AsyncSegmentationService`.

This is the network ingress tier the ROADMAP's serving north star ends at:
external clients hit the segmenter over the wire instead of through the
in-process API or the JSONL spool.  The server is **stdlib only** — a small
HTTP/1.1 implementation on ``asyncio.start_server`` — because the repo's
dependency budget is numpy + stdlib, and the protocol surface it needs
(three endpoints, bounded bodies, keep-alive, graceful drain) is tiny.

Endpoints
---------
``POST /v1/segment``
    The request body carries the image, in any of three forms:

    * raw image bytes (``Content-Type: application/octet-stream`` or
      ``image/*``) in any self-identifying container the imaging layer
      decodes (PNG, PPM/PGM/PNM, BMP);
    * a raw ``.npy`` array (``Content-Type: application/x-npy``) for exact
      dtype/shape round-trips;
    * a JSON envelope (``Content-Type: application/json``) with a base64
      ``image`` field plus optional ``priority`` / ``deadline_ms`` /
      ``client_id`` fields.

    For non-JSON bodies the same knobs travel as headers
    (``X-Repro-Priority``, ``X-Repro-Deadline-Ms``, ``X-Repro-Client``).
    The response is JSON (labels + scores) by default, or the labels as an
    ``.npy`` body when the client sends ``Accept: application/x-npy`` (the
    scalar metadata then rides in ``X-Repro-*`` response headers).

``GET /v1/metrics``
    The full ``service.metrics()`` snapshot (per-lane depth/shed counters,
    L1/L2 cache hit rates, latency percentiles) plus an ``http`` sub-dict
    with the server's own request/response counters.  With
    ``?format=prometheus`` the same snapshot renders as Prometheus text
    exposition (``text/plain; version=0.0.4``) via :mod:`repro.obs.prom`.

``GET /v1/trace/{id}`` and ``GET /v1/traces?slowest=N``
    The flight recorder.  Every request is traced (subject to the service
    tracer's sample rate): the server mints a trace id — or adopts the one a
    client sends in ``X-Repro-Trace-Id`` — records ingress/submit/encode
    spans around the service's own queue/cache/compute spans, and echoes the
    id back in the ``X-Repro-Trace-Id`` response header.  The trace route
    returns the completed span tree by id (404 once evicted from the ring);
    the traces route lists the N slowest retained traces.

``GET /healthz``
    Draining-aware readiness: 200 while serving, 503 once shutdown began —
    load balancers stop routing before the sockets actually close.

Every serve-layer failure maps to a precise status code
(:func:`status_for_exception`): ``ServiceOverloadedError`` → 503 +
``Retry-After``, ``QuotaExceededError`` → 429 + ``Retry-After``,
``DeadlineExceededError`` → 504, ``ServiceClosedError`` → 503, and malformed
payloads (``PayloadError`` / ``ImageDecodeError`` / ``ShapeError`` /
``ParameterError``) → 400.  Oversized bodies are rejected with 413 before
they are read.

Shutdown is graceful: :meth:`HttpSegmentationServer.aclose` stops accepting
connections, waits for every in-flight request to finish (they may still
submit to the service), then drains the service itself before the sockets
close.  Idle keep-alive connections are dropped at that point — they hold no
work.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import io
import json
import re
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

import numpy as np

from ..errors import (
    ImageDecodeError,
    ParameterError,
    PayloadError,
    QuotaExceededError,
    ReproError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShapeError,
)
from ..errors import (
    DeadlineExceededError as _DeadlineExceededError,
)
from ..imaging.io_dispatch import decode_image
from ..obs import get_logger, render_prometheus

__all__ = [
    "HttpSegmentationServer",
    "status_for_exception",
    "decode_array_payload",
    "DEFAULT_MAX_BODY_BYTES",
]

#: Largest request body accepted before a 413 — generous for raw images.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Request line + headers must fit in this many bytes (431 otherwise).
_MAX_HEADER_BYTES = 32 * 1024

#: Magic prefix of the npy serialization format.
_NPY_MAGIC = b"\x93NUMPY"

#: A header field name is an RFC 9110 token: no whitespace, no separators.
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Exception → status mapping, most specific first (isinstance walk).
_ERROR_STATUS: Tuple[Tuple[type, int], ...] = (
    (QuotaExceededError, 429),
    (_DeadlineExceededError, 504),
    (ServiceOverloadedError, 503),
    (ServiceClosedError, 503),
    (PayloadError, 400),
    (ImageDecodeError, 400),
    (ShapeError, 400),
    (ParameterError, 400),
)


def status_for_exception(exc: BaseException) -> Tuple[int, Dict[str, str]]:
    """``(status code, extra response headers)`` for a request failure.

    Backpressure statuses (503 overload, 429 quota) carry a ``Retry-After``
    so well-behaved clients back off instead of hammering the queue.
    """
    for exc_type, status in _ERROR_STATUS:
        if isinstance(exc, exc_type):
            headers = {}
            if status in (429, 503):
                headers["Retry-After"] = "1"
            return status, headers
    return 500, {}


def decode_array_payload(data: bytes) -> np.ndarray:
    """Decode an image request body: npy bytes or a sniffed image container.

    An npy image must be a non-empty 2-D or 3-D array of bool, integer or
    real floating values; anything else is the client's error (400).
    """
    if data[: len(_NPY_MAGIC)] == _NPY_MAGIC:
        try:
            array = np.load(io.BytesIO(data), allow_pickle=False)
        except Exception as exc:  # noqa: BLE001 - any parse failure is the client's
            raise PayloadError(f"invalid npy payload: {exc}") from exc
        if not isinstance(array, np.ndarray) or array.ndim not in (2, 3):
            raise PayloadError("npy payload must be a 2-D or 3-D image array")
        if array.size == 0:
            raise PayloadError(f"npy payload is empty (shape {array.shape})")
        if array.dtype.kind not in "biuf":
            raise PayloadError(
                f"npy payload dtype {array.dtype} is not bool, integer or float"
            )
        return array
    return decode_image(data)


class _HttpError(ReproError):
    """Internal: abort the current request with a specific status code.

    Every raiser is a framing failure (bad request line, unreadable length,
    refused body), after which the byte stream is unrecoverable — the
    handler therefore always answers it with ``Connection: close``.
    """

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status
        self.detail = detail


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method: str, path: str, query: str, headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body


class HttpSegmentationServer:
    """HTTP/1.1 server publishing an :class:`AsyncSegmentationService`.

    Parameters
    ----------
    service:
        The async serving front end handling the actual work.  The server
        submits with ``block=False`` so a full queue surfaces as a 503 +
        ``Retry-After`` instead of silently stalling the connection.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    sock:
        An already *bound* listening socket to serve on instead of binding
        ``host:port``.  This is how the multi-process fleet
        (:class:`~repro.serve.ServeFleet`) runs several servers behind one
        address: each worker hands in its own ``SO_REUSEPORT`` socket (kernel
        load balancing), or a shared inherited listener where
        ``SO_REUSEPORT`` is unavailable.  ``host``/``port`` are read back
        from the socket.
    max_body_bytes:
        Bodies larger than this are refused with 413 before being read.
    drain_grace_seconds:
        Upper bound on how long :meth:`aclose` waits for in-flight requests
        — a client that stalls mid-body (head sent, body never finished)
        must not be able to wedge shutdown forever.

    One server belongs to one event loop (the service's).  ``async with``
    gives the start/drain lifecycle.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_grace_seconds: float = 30.0,
        sock: Any = None,
    ):
        for attr in ("submit", "metrics"):
            if not callable(getattr(service, attr, None)):
                raise ParameterError("service must provide async submit() and metrics()")
        if max_body_bytes < 1:
            raise ParameterError("max_body_bytes must be >= 1")
        if drain_grace_seconds <= 0:
            raise ParameterError("drain_grace_seconds must be positive")
        self.service = service
        self.sock = sock
        self.host = host
        self.port = int(port)
        self.max_body_bytes = int(max_body_bytes)
        self.drain_grace_seconds = float(drain_grace_seconds)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._inflight = 0
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._closed = False
        self._requests = 0
        self._responses: Dict[int, int] = {}
        self._client_disconnects = 0
        self._request_errors = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        """True once shutdown (or :meth:`begin_drain`) has begun."""
        return self._draining or bool(getattr(self.service, "closed", False))

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise ParameterError("server already started")
        self._idle = asyncio.Event()
        self._idle.set()
        if self.sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self.sock, limit=_MAX_HEADER_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port, limit=_MAX_HEADER_BYTES
            )
        sockets = self._server.sockets or []
        if sockets:
            name = sockets[0].getsockname()
            self.host, self.port = name[0], name[1]
        get_logger().info("http.listen", host=self.host, port=self.port)

    def begin_drain(self) -> None:
        """Flip readiness to "draining" while existing requests keep running.

        ``GET /healthz`` answers 503 from here on, so a load balancer
        rotates this instance out before :meth:`aclose` severs anything.
        """
        if not self._draining:
            get_logger().info("http.drain", inflight=self._inflight)
        self._draining = True

    async def aclose(self, drain: bool = True, close_service: bool = True) -> None:
        """Graceful shutdown: unbind, drain in-flight requests, then close.

        The listening socket closes first (no new connections), every
        request already being processed runs to completion (``drain=True``),
        idle keep-alive connections are dropped, and finally the wrapped
        service itself is drained unless ``close_service=False``.
        """
        if self._closed:
            return
        self._closed = True
        self.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._idle is not None:
            # Wait until no request is being processed, bounded by the grace
            # period (a client stalled mid-body must not wedge shutdown).
            # After each wake-up, yield one tick and re-check: a keep-alive
            # connection whose next head was already buffered registers its
            # in-flight count in that tick instead of being cancelled below.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_grace_seconds
            while True:
                if self._inflight == 0:
                    await asyncio.sleep(0)
                    if self._inflight == 0:
                        break
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break  # grace exhausted: stalled requests are cancelled
                self._idle.clear()
                if self._inflight > 0:
                    try:
                        await asyncio.wait_for(self._idle.wait(), timeout=min(remaining, 0.1))
                    except asyncio.TimeoutError:
                        pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if close_service and hasattr(self.service, "aclose"):
            if hasattr(self.service, "begin_drain"):
                self.service.begin_drain()
            await self.service.aclose(drain=drain)

    async def __aenter__(self) -> "HttpSegmentationServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose(drain=exc_type is None)

    def http_metrics(self) -> Dict[str, Any]:
        """Server-level counters (the service's live in ``service.metrics()``)."""
        return {
            "requests": self._requests,
            "responses": {str(code): count for code, count in sorted(self._responses.items())},
            "open_connections": len(self._conn_tasks),
            "inflight": self._inflight,
            "client_disconnects": self._client_disconnects,
            "request_errors": self._request_errors,
            "draining": self.draining,
        }

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                # Idle point: a connection waiting for its next request head
                # holds no work, so drain does not wait on it (it is simply
                # cancelled once every in-flight request has been answered).
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        return  # clean EOF between requests
                    raise
                except asyncio.LimitOverrunError:
                    await self._respond_error(
                        writer, 431, "request headers exceed the size limit"
                    )
                    return
                # A request head has arrived: everything from parsing through
                # the response write counts as in-flight, so a graceful drain
                # never cancels a request the client already sent.
                self._inflight += 1
                if self._idle is not None:
                    self._idle.clear()
                keep_alive = False
                try:
                    try:
                        request = await self._parse_request(head, reader, writer)
                    except _HttpError as exc:
                        await self._respond_error(writer, exc.status, exc.detail)
                        return
                    self._requests += 1
                    keep_alive = (
                        request.headers.get("connection", "").lower() != "close"
                        and not self.draining
                    )
                    try:
                        status, headers, body = await self._dispatch(request)
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:  # noqa: BLE001 - a 500 beats a dropped conn
                        # Unexpected dispatch failures must be visible to the
                        # operator, not only to the client that got the 500.
                        status, extra = status_for_exception(exc)
                        if status == 500:
                            self._request_errors += 1
                        get_logger().warning(
                            "http.dispatch_error",
                            path=request.path,
                            error=type(exc).__name__,
                            detail=str(exc),
                        )
                        status, headers, body = self._json_response(
                            status, {"error": type(exc).__name__, "detail": str(exc)}
                        )
                        headers.update(extra)
                    await self._write_response(writer, status, headers, body, keep_alive)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0 and self._idle is not None:
                        self._idle.set()
                if not keep_alive:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            # Client went away mid-request or mid-response-write.  The
            # in-flight count was already released by the finally above; the
            # disconnect itself must still be visible in metrics — a reset
            # is a completed-with-error request, not one that vanishes.
            self._client_disconnects += 1
        except asyncio.CancelledError:
            pass  # server shutdown — nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _parse_request(self, head: bytes, reader, writer) -> _Request:
        """Parse a received head and read the body off the stream."""
        try:
            head_text = head.decode("latin-1")
            request_line, *header_lines = head_text.split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise _HttpError(400, f"unsupported protocol {version!r}")
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, sep, value = line.partition(":")
            # RFC 9112 §5.1: whitespace before the colon (or a folded line)
            # is rejected, not stripped — a proxy reading the name as written
            # would frame the request differently (request smuggling).
            if not sep or not _FIELD_NAME.fullmatch(name):
                raise _HttpError(400, f"malformed header line {line!r}")
            name = name.lower()
            if name == "content-length" and name in headers:
                # RFC 9112 §6.3: conflicting framing is unrecoverable.
                raise _HttpError(400, "repeated Content-Length")
            headers[name] = value.strip()
        if "transfer-encoding" in headers:
            # Only Content-Length framing is implemented; reading a chunked
            # body by its Content-Length would parse the rest of it as the
            # next request (request smuggling), so refuse and close.
            raise _HttpError(501, "Transfer-Encoding is not supported")
        path, _, query = target.partition("?")
        length_text = headers.get("content-length")
        if length_text is None and method in ("POST", "PUT"):
            raise _HttpError(411, "Content-Length is required")
        body = b""
        if length_text is not None:
            # Any method may carry a body; it must be consumed (or refused
            # with the connection closed) or keep-alive framing desyncs.
            # 1*DIGIT only: int() would also take a sign or "1_0".
            if not (length_text.isascii() and length_text.isdigit()):
                raise _HttpError(400, f"invalid Content-Length {length_text!r}")
            length = int(length_text)
            if length > self.max_body_bytes:
                # Refuse before reading: the body is still on the wire, so
                # the framing is unrecoverable and the connection closes.
                # (With Expect: 100-continue the client has not sent it yet
                # and can abort cleanly on seeing the 413.)
                raise _HttpError(
                    413,
                    f"body of {length} bytes exceeds the {self.max_body_bytes} byte limit",
                )
            if headers.get("expect", "").lower() == "100-continue":
                # curl sends this for any body over ~1 KiB and stalls up to
                # a second waiting for the interim response before posting.
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                await writer.drain()
            body = await reader.readexactly(length)
        return _Request(method, path, query, headers, body)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: _Request) -> Tuple[int, Dict[str, str], Any]:
        if request.path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_healthz()
        if request.path == "/v1/metrics":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            # Off-loop: with a disk L2 the stats snapshot walks the cache
            # directory (listdir + stat per entry) — same discipline as the
            # submit path's cache probes.
            loop = asyncio.get_running_loop()
            metrics = await loop.run_in_executor(None, self.service.metrics)
            document = {**metrics, "http": self.http_metrics()}
            fmt = self._query_param(request, "format", "json").lower()
            if fmt == "prometheus":
                text = await loop.run_in_executor(None, render_prometheus, document)
                headers = {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"}
                return 200, headers, text.encode("utf-8")
            if fmt != "json":
                return self._json_response(
                    400, {"error": "PayloadError", "detail": f"unknown format {fmt!r}"}
                )
            return self._json_response(200, document)
        if request.path == "/v1/capabilities":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_capabilities()
        if request.path == "/v1/traces":
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_traces(request)
        if request.path.startswith("/v1/trace/"):
            if request.method != "GET":
                return self._method_not_allowed("GET")
            return self._handle_trace(request.path[len("/v1/trace/") :])
        if request.path == "/v1/segment":
            if request.method != "POST":
                return self._method_not_allowed("POST")
            return await self._handle_segment(request)
        return self._json_response(
            404, {"error": "NotFound", "detail": f"no route {request.path!r}"}
        )

    @staticmethod
    def _query_param(request: _Request, name: str, default: str) -> str:
        values = parse_qs(request.query).get(name)
        return values[0] if values else default

    def _handle_trace(self, trace_id: str) -> Tuple[int, Dict[str, str], bytes]:
        lookup = getattr(self.service, "trace", None)
        document = lookup(trace_id) if callable(lookup) else None
        if document is None:
            return self._json_response(
                404,
                {"error": "NotFound", "detail": f"no retained trace {trace_id!r}"},
            )
        return self._json_response(200, document)

    def _handle_traces(self, request: _Request) -> Tuple[int, Dict[str, str], bytes]:
        listing = getattr(self.service, "traces", None)
        if not callable(listing):
            return self._json_response(200, {"schema": "repro-traces/v1", "traces": []})
        raw = self._query_param(request, "slowest", "10")
        try:
            slowest = int(raw)
            if slowest < 1:
                raise ValueError
        except ValueError:
            return self._json_response(
                400, {"error": "PayloadError", "detail": f"invalid slowest {raw!r}"}
            )
        return self._json_response(
            200, {"schema": "repro-traces/v1", "traces": listing(slowest=slowest)}
        )

    def _method_not_allowed(self, allowed: str) -> Tuple[int, Dict[str, str], bytes]:
        status, headers, body = self._json_response(
            405, {"error": "MethodNotAllowed", "detail": f"use {allowed}"}
        )
        headers["Allow"] = allowed
        return status, headers, body

    def _handle_healthz(self) -> Tuple[int, Dict[str, str], bytes]:
        if self.draining:
            return self._json_response(503, {"status": "draining"})
        return self._json_response(200, {"status": "ok"})

    def _handle_capabilities(self) -> Tuple[int, Dict[str, str], bytes]:
        document = {"schema": "repro-capabilities/v1"}
        report = getattr(self.service, "capabilities", None)
        if callable(report):
            document.update(report())
        return self._json_response(200, document)

    async def _handle_segment(self, request: _Request) -> Tuple[int, Dict[str, str], Any]:
        # Decode and encode run off-loop: a 64 MiB PNG inflate (or a huge
        # labels-to-JSON encode) on the event loop would stall every other
        # connection, including the /healthz a load balancer is polling.
        loop = asyncio.get_running_loop()
        # The HTTP edge owns the trace for the whole request: it begins the
        # trace (adopting a client-sent id, which is always sampled), passes
        # it down through service.submit (which then skips its own
        # begin/record), and records it only after the response is encoded —
        # so the flight recorder sees ingress and encode time too.
        tracer = getattr(self.service, "tracer", None)
        client_trace_id = request.headers.get("x-repro-trace-id") or None
        trace = tracer.begin(trace_id=client_trace_id) if tracer is not None else None
        request_start = trace.clock() if trace is not None else 0.0
        try:
            try:
                parse_start = request_start
                image, options = await loop.run_in_executor(
                    None, self._parse_segment_request, request
                )
                if trace is not None:
                    trace.add(
                        "ingress.parse",
                        parse_start,
                        trace.clock(),
                        body_bytes=len(request.body),
                    )
                submit_start = trace.clock() if trace is not None else 0.0
                result = await self.service.submit(
                    image,
                    priority=options["priority"],
                    deadline=options["deadline"],
                    client_id=options["client_id"],
                    block=False,
                    **({"trace": trace} if trace is not None else {}),
                    **(
                        {"stream_id": options["stream_id"]}
                        if options.get("stream_id") is not None
                        else {}
                    ),
                )
                if trace is not None:
                    trace.add("service.submit", submit_start, trace.clock())
            except Exception as exc:  # noqa: BLE001 - mapped to a status, never fatal
                status, extra = status_for_exception(exc)
                if status == 500:
                    # Mapped failures are counted by http.responses.{code}.
                    self._request_errors += 1
                expected = isinstance(exc, (ServeError, ReproError, ValueError))
                detail = str(exc) if expected else repr(exc)
                response = self._json_response(
                    status, {"error": type(exc).__name__, "detail": detail}
                )
                response[1].update(extra)
                if trace is not None:
                    trace.annotate(error=type(exc).__name__, status=status)
                self._attach_trace_id(response[1], trace, client_trace_id)
                return response
            encode_start = trace.clock() if trace is not None else 0.0
            status, headers, body = await loop.run_in_executor(
                None, self._format_segment_response, request, result, options
            )
            if trace is not None:
                trace.add("response.encode", encode_start, trace.clock())
                trace.annotate(status=status)
            self._attach_trace_id(headers, trace, client_trace_id)
            return status, headers, body
        finally:
            if trace is not None:
                trace.add("request", request_start, trace.clock(), path=request.path)
                tracer.record(trace)

    @staticmethod
    def _attach_trace_id(
        headers: Dict[str, str], trace: Any, client_trace_id: Optional[str]
    ) -> None:
        trace_id = trace.trace_id if trace is not None else client_trace_id
        if trace_id:
            headers["X-Repro-Trace-Id"] = trace_id

    def _parse_segment_request(self, request: _Request) -> Tuple[np.ndarray, Dict[str, Any]]:
        headers = request.headers
        options: Dict[str, Any] = {
            "priority": headers.get("x-repro-priority") or "normal",
            "deadline": None,
            "client_id": headers.get("x-repro-client"),
            "stream_id": headers.get("x-repro-stream-id") or None,
        }
        deadline_ms: Any = headers.get("x-repro-deadline-ms")
        content_type = headers.get("content-type", "").partition(";")[0].strip().lower()
        data = request.body
        if content_type == "application/json":
            try:
                payload = json.loads(request.body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise PayloadError(f"invalid JSON body: {exc}") from exc
            if not isinstance(payload, dict) or "image" not in payload:
                raise PayloadError('JSON body must be an object with a base64 "image" field')
            if not isinstance(payload["image"], str):
                raise PayloadError('the "image" field must be a base64 string')
            try:
                data = base64.b64decode(payload["image"], validate=True)
            except (binascii.Error, ValueError) as exc:
                raise PayloadError(f"invalid base64 image data: {exc}") from exc
            if "priority" in payload and payload["priority"] is not None:
                options["priority"] = payload["priority"]
            if "client_id" in payload and payload["client_id"] is not None:
                options["client_id"] = str(payload["client_id"])
            if "stream_id" in payload and payload["stream_id"] is not None:
                options["stream_id"] = str(payload["stream_id"])
            if "deadline_ms" in payload:
                deadline_ms = payload["deadline_ms"]
        if not data:
            raise PayloadError("empty request body")
        if deadline_ms is not None:
            try:
                options["deadline"] = float(deadline_ms) / 1000.0
            except (TypeError, ValueError) as exc:
                raise PayloadError(f"invalid deadline_ms {deadline_ms!r}") from exc
        return decode_array_payload(data), options

    def _format_segment_response(
        self, request: _Request, result: Any, options: Dict[str, Any]
    ) -> Tuple[int, Dict[str, str], Any]:
        seg = result.segmentation
        scalars = {
            "shape": [int(v) for v in seg.labels.shape],
            "num_segments": int(seg.num_segments),
            "method": str(seg.method),
            "fast_path": str(seg.extras.get("fast_path", "direct")),
            "cache_hit": bool(seg.extras.get("cache_hit", False)),
            "coalesced": bool(seg.extras.get("coalesced", False)),
            "runtime_seconds": float(seg.runtime_seconds),
            "priority": str(options["priority"]).lower(),
            "metrics": {key: float(value) for key, value in result.metrics.items()},
        }
        # Freshly-computed stream frames echo the engine's per-frame
        # dirty-tile accounting as it computed it (minus its internal
        # ancestor flag); a whole-image cache hit's stored extras may predate
        # this request's stream, so they are only echoed for non-hit responses.
        delta = seg.extras.get("delta")
        if delta and options.get("stream_id") is not None and not scalars["cache_hit"]:
            scalars["delta"] = {k: v for k, v in delta.items() if k != "had_ancestor"}
        accept = request.headers.get("accept", "").partition(";")[0].strip().lower()
        if accept == "application/x-npy":
            # Zero-copy body: the npy header bytes plus a memoryview straight
            # over the labels array (which, on an shm/disk cache hit, is
            # itself a view over the decoded cache buffer).  A warm hit
            # therefore never copies the label array into the response.
            labels = np.ascontiguousarray(np.asarray(seg.labels))
            header_buffer = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                header_buffer,
                {
                    "descr": np.lib.format.dtype_to_descr(labels.dtype),
                    "fortran_order": False,
                    "shape": labels.shape,
                },
            )
            body = [header_buffer.getvalue(), memoryview(labels).cast("B")]
            headers = {
                "Content-Type": "application/x-npy",
                "X-Repro-Num-Segments": str(scalars["num_segments"]),
                "X-Repro-Method": scalars["method"],
                "X-Repro-Fast-Path": scalars["fast_path"],
                "X-Repro-Cache-Hit": "true" if scalars["cache_hit"] else "false",
                "X-Repro-Coalesced": "true" if scalars["coalesced"] else "false",
                "X-Repro-Runtime-Seconds": f"{scalars['runtime_seconds']:.6f}",
            }
            return 200, headers, body
        document = {
            "schema": "repro-http-segment/v1",
            **scalars,
            "labels": np.asarray(seg.labels).tolist(),
        }
        return self._json_response(200, document)

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    @staticmethod
    def _json_response(status: int, document: Any) -> Tuple[int, Dict[str, str], bytes]:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        return status, {"Content-Type": "application/json"}, body

    async def _respond_error(self, writer, status: int, detail: str) -> None:
        """Answer a framing failure; the connection always closes after it."""
        _, headers, body = self._json_response(
            status, {"error": _STATUS_PHRASES.get(status, "Error"), "detail": detail}
        )
        await self._write_response(writer, status, headers, body, keep_alive=False)

    async def _write_response(
        self, writer, status: int, headers: Dict[str, str], body: Any, keep_alive: bool
    ) -> None:
        # ``body`` is either one bytes object or a sequence of bytes-like
        # chunks (the zero-copy npy path: header bytes + an array view) that
        # are written without being concatenated into an intermediate copy.
        chunks = body if isinstance(body, (list, tuple)) else (body,)
        length = sum(memoryview(chunk).nbytes for chunk in chunks)
        self._responses[status] = self._responses.get(status, 0) + 1
        phrase = _STATUS_PHRASES.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {phrase}"]
        out_headers = {
            "Server": "repro-segment",
            "Content-Length": str(length),
            "Connection": "keep-alive" if keep_alive else "close",
            **headers,
        }
        lines.extend(f"{name}: {value}" for name, value in out_headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        for chunk in chunks:
            writer.write(chunk)
        await writer.drain()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HttpSegmentationServer(host={self.host!r}, port={self.port}, "
            f"draining={self.draining})"
        )

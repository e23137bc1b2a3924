"""Command-line interface.

Six subcommands::

    repro-segment segment  INPUT OUTPUT [--method iqft-rgb] [--theta 3.1416]
    repro-segment batch    INPUT_DIR [--report report.json] [--method ...]
    repro-segment serve    SPOOL_DIR|- [--watch] [--report report.json] [...]
    repro-segment metrics  HOST:PORT [--json]
    repro-segment evaluate [--dataset voc|xview2] [--samples 20] [--methods ...]
    repro-segment experiment NAME   # table1, table2, table3, fig3, fig4, ...

``segment`` reads an image file (PPM/PGM/PNG/BMP), runs one method and writes
the colourized label map; ``batch`` runs the batched engine over a directory
of images (LUT fast path, optional tiling and process parallelism) and writes
a JSON report; ``serve`` runs the micro-batching segmentation service over a
spool directory (or JSONL job lines from stdin with ``-``) and writes per-job
results plus a ``repro-serve-report/v1`` summary; ``metrics`` scrapes a
running worker or fleet's ``/v1/metrics`` endpoint and prints a compact
human summary (throughput, latency percentiles, per-tier cache hit rates,
lane depths, adaptive state); ``evaluate`` runs the Table-III sweep on a
synthetic dataset and prints the summary table; ``experiment`` regenerates a
specific table/figure and prints it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["build_parser", "main"]

_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "theta-sweep",
    "robustness",
    "shots",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-segment",
        description="IQFT-inspired unsupervised image segmentation (IPPS 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a single image file")
    seg.add_argument("input", help="input image (.ppm/.pgm/.png/.bmp)")
    seg.add_argument("output", help="output label-map image")
    seg.add_argument("--method", default="iqft-rgb", help="registered method name")
    seg.add_argument("--theta", type=float, default=float(np.pi), help="angle parameter θ")

    bat = sub.add_parser(
        "batch", help="segment every image in a directory through the batch engine"
    )
    bat.add_argument(
        "input_dir",
        help="directory of images (.ppm/.pgm/.png/.bmp); incompatible images "
        "are recorded as per-image errors in the report (exit code 1)",
    )
    bat.add_argument("--report", default=None, help="write the JSON report here (default: stdout)")
    bat.add_argument("--method", default="iqft-rgb", help="registered method name")
    bat.add_argument("--theta", type=float, default=float(np.pi), help="angle parameter θ")
    bat.add_argument("--gt-dir", default=None, help="directory of same-named ground-truth masks")
    bat.add_argument("--executor", choices=("serial", "thread", "process"), default="serial")
    bat.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker count for --executor thread/process (default: library default; "
        "ignored for the serial executor)",
    )
    bat.add_argument(
        "--tile", type=int, nargs=2, metavar=("H", "W"), default=None,
        help="always tile images into H×W tiles (default: auto-tile ≥4 Mpx images)",
    )
    bat.add_argument("--no-lut", action="store_true", help="disable the LUT fast path")
    bat.add_argument("--seed", type=int, default=None, help="seed for stochastic methods")
    bat.add_argument("--limit", type=int, default=None, help="only process the first N images")

    srv = sub.add_parser(
        "serve",
        help="run the micro-batching segmentation service over a spool "
        "directory, '-' for JSONL job lines on stdin, or --http for a "
        "network front end",
    )
    srv.add_argument(
        "source",
        nargs="?",
        default=None,
        help="spool directory of images, or '-' to read JSONL job lines "
        '({"path": ..., "id": ...}) from stdin (optional with --http)',
    )
    srv.add_argument("--report", default=None, help="write the JSON summary here (default: stdout)")
    srv.add_argument(
        "--out-dir", default=None,
        help="write one result JSON per job here (default: <spool>/results for "
        "directory sources; disabled for stdin jobs)",
    )
    srv.add_argument("--method", default="iqft-rgb", help="registered method name")
    srv.add_argument("--theta", type=float, default=float(np.pi), help="angle parameter θ")
    srv.add_argument("--seed", type=int, default=None, help="seed for stochastic methods")
    srv.add_argument("--executor", choices=("serial", "thread", "process"), default="serial")
    srv.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker count for --executor thread/process (default: library default; "
        "ignored for the serial executor)",
    )
    srv.add_argument("--no-lut", action="store_true", help="disable the LUT fast path")
    srv.add_argument("--max-batch", type=int, default=16, help="largest micro-batch")
    srv.add_argument("--queue-size", type=int, default=64, help="bounded ingress queue capacity")
    srv.add_argument("--cache-size", type=int, default=256, help="result cache entries (LRU)")
    srv.add_argument("--no-cache", action="store_true", help="disable the result cache")
    srv.add_argument(
        "--cache-dir", default=None,
        help="persistent disk cache directory (L2 under the in-memory cache): "
        "warm results survive restarts and are shared across --jobs workers",
    )
    srv.add_argument(
        "--shm-mb", type=float, default=64.0,
        help="shared-memory cache ring size in MiB for --workers fleets: a "
        "same-host L1.5 tier between each worker's in-memory cache and the "
        "--cache-dir disk tier, so any worker's result is a single-memcpy "
        "hit for every other worker (0 disables, as does --no-shm)",
    )
    srv.add_argument(
        "--no-shm", action="store_true",
        help="disable the fleet's shared-memory cache tier",
    )
    srv.add_argument(
        "--priority-field", default="priority",
        help="JSONL key holding each job's lane (high/normal/low)",
    )
    srv.add_argument(
        "--default-deadline-ms", type=float, default=None,
        help="deadline in milliseconds for jobs (or --http requests) that "
        "carry none of their own; a job that cannot make it is shed",
    )
    srv.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="serve POST /v1/segment, GET /v1/metrics and GET /healthz over "
        "HTTP (port 0 picks a free port; runs until SIGINT/SIGTERM, then "
        "drains in-flight requests before exiting)",
    )
    srv.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run N supervised HTTP worker processes behind the same "
        "HOST:PORT via SO_REUSEPORT (requires --http; crashes are "
        "restarted with backoff; composes with --cache-dir so all "
        "workers share one disk cache)",
    )
    srv.add_argument(
        "--adaptive",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="adaptive control loop: re-derive the micro-batch size and lane "
        "weights from live telemetry every control tick, bounded "
        "(--max-batch is the ceiling, --lane-weights are the floors)",
    )
    srv.add_argument(
        "--max-body-mb", type=float, default=64.0,
        help="largest HTTP request body in MiB before a 413 (--http)",
    )
    srv.add_argument(
        "--lane-weights", default=None, metavar="HIGH:NORMAL:LOW",
        help="batch slots per weighted-drain cycle for the priority lanes, "
        "e.g. 4:2:1",
    )
    srv.add_argument(
        "--client-rate", type=float, default=None,
        help="per-client token-bucket quota in requests/second (the JSONL "
        "\"client\" field or the X-Repro-Client header)",
    )
    srv.add_argument(
        "--client-burst", type=float, default=None,
        help="per-client token-bucket burst capacity (--client-rate)",
    )
    srv.add_argument(
        "--watch", action="store_true",
        help="keep polling the spool directory for new images instead of "
        "exiting after the initial scan",
    )
    srv.add_argument(
        "--poll-seconds", "--poll", dest="poll", type=float, default=0.2,
        help="spool poll interval in seconds (--watch)",
    )
    srv.add_argument(
        "--stop-file", default=".stop",
        help="watch mode exits once this file exists in the spool directory",
    )
    srv.add_argument("--limit", type=int, default=None, help="stop after N jobs")
    srv.add_argument(
        "--log-format", choices=("text", "json"), default="text",
        help="structured-log format for serve-layer events on stderr "
        "(fleet workers inherit it)",
    )
    srv.add_argument(
        "--trace-sample-rate", type=float, default=1.0, metavar="RATE",
        help="fraction of requests recorded by the flight recorder "
        "(deterministic accumulator sampling; 0 disables tracing, except "
        "requests carrying X-Repro-Trace-Id, which are always traced)",
    )
    srv.add_argument(
        "--trace-ring", type=int, default=256, metavar="N",
        help="completed traces retained per worker for GET /v1/trace/{id}",
    )
    srv.add_argument(
        "--delta",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="dirty-tile incremental path for requests carrying a stream id "
        "(X-Repro-Stream-Id): only tiles changed since the stream's previous "
        "frame are re-segmented, bit-identical to a full recompute",
    )
    srv.add_argument(
        "--delta-tile", type=int, default=0, metavar="PIXELS",
        help="square delta-grid tile edge in pixels (0 = library default)",
    )
    srv.add_argument(
        "--delta-streams", type=int, default=256, metavar="N",
        help="temporal streams tracked per worker before the "
        "least-recently-updated ancestor frame is dropped",
    )

    met = sub.add_parser(
        "metrics",
        help="scrape one server's /v1/metrics endpoint (on a --workers fleet, "
        "whichever worker accepts the connection) and print a compact human summary",
    )
    met.add_argument("address", metavar="HOST:PORT", help="the serving endpoint to scrape")
    met.add_argument("--timeout", type=float, default=10.0, help="scrape timeout in seconds")
    met.add_argument(
        "--json", action="store_true",
        help="print the raw JSON snapshot instead of the summary table",
    )

    ev = sub.add_parser("evaluate", help="run the Table-III sweep on a synthetic dataset")
    ev.add_argument("--dataset", choices=("voc", "xview2"), default="voc")
    ev.add_argument("--samples", type=int, default=10)
    ev.add_argument("--executor", choices=("serial", "thread", "process"), default="serial")

    ex = sub.add_parser("experiment", help="regenerate a specific table/figure")
    ex.add_argument("name", choices=_EXPERIMENTS)
    ex.add_argument("--samples", type=int, default=None, help="dataset size override")
    return parser


def _cmd_segment(args: argparse.Namespace) -> int:
    from .baselines.registry import get_segmenter
    from .imaging.io_dispatch import read_image
    from .viz.export import save_label_map

    image = read_image(args.input)
    kwargs = {}
    if args.method == "iqft-rgb":
        kwargs["thetas"] = args.theta
    elif args.method == "iqft-gray":
        kwargs["theta"] = args.theta
    segmenter = get_segmenter(args.method, **kwargs)
    result = segmenter.segment(image)
    save_label_map(args.output, result.labels)
    print(
        f"method={result.method} segments={result.num_segments} "
        f"runtime={result.runtime_seconds:.3f}s -> {args.output}"
    )
    return 0


from .imaging.io_dispatch import IMAGE_EXTENSIONS as _IMAGE_EXTENSIONS


def _segmenter_kwargs(args: argparse.Namespace) -> dict:
    """Method-factory keyword arguments shared by ``batch`` and ``serve``.

    Delegates to :func:`repro.baselines.registry.method_kwargs` (a leaf
    module the CLI already depends on) so the method → keyword knowledge
    lives in exactly one place for every front end, fleet workers included.
    """
    from .baselines.registry import method_kwargs

    return method_kwargs(args.method, theta=float(args.theta), seed=args.seed)


def _make_executor(kind: str, jobs: Optional[int]):
    """Build an executor, forwarding ``--jobs`` as the worker count."""
    from .parallel.executor import executor_for_jobs

    return executor_for_jobs(kind, jobs)


def _load_binary_mask(path: str) -> np.ndarray:
    """Read a ground-truth image and collapse it to a {0, 1} mask."""
    from .imaging.color import rgb_to_gray
    from .imaging.io_dispatch import read_image

    arr = read_image(path)
    if arr.ndim == 3:
        arr = rgb_to_gray(arr)
        return (arr > 0.5).astype(np.int64)
    if arr.dtype == np.uint8:
        return (arr > 127).astype(np.int64)
    return (arr.astype(np.float64) > 0.5).astype(np.int64)


def _cmd_batch(args: argparse.Namespace) -> int:
    from .baselines.registry import get_segmenter
    from .engine import BatchSegmentationEngine
    from .imaging.io_dispatch import read_image

    if not os.path.isdir(args.input_dir):
        print(f"error: {args.input_dir!r} is not a directory", file=sys.stderr)
        return 2
    names = sorted(
        entry
        for entry in os.listdir(args.input_dir)
        if entry.lower().endswith(_IMAGE_EXTENSIONS)
    )
    if args.limit is not None:
        names = names[: max(0, int(args.limit))]
    if not names:
        print(f"error: no supported images found in {args.input_dir!r}", file=sys.stderr)
        return 2

    kwargs = _segmenter_kwargs(args)
    theta_used = float(args.theta) if ("thetas" in kwargs or "theta" in kwargs) else None
    try:
        segmenter = get_segmenter(args.method, **kwargs)
        engine = BatchSegmentationEngine(
            segmenter,
            use_lut=not args.no_lut,
            tiling="always" if args.tile else "auto",
            tile_shape=tuple(args.tile) if args.tile else (512, 512),
            executor=_make_executor(args.executor, args.jobs),
        )
    except ValueError as exc:  # ParameterError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # Load images with per-file isolation: an unreadable file becomes a
    # per-image error entry, exactly like a segmentation failure would.
    loaded = []  # (name, image, ground_truth) for readable files
    load_errors = {}
    for name in names:
        try:
            image = read_image(os.path.join(args.input_dir, name))
            ground_truth = None
            if args.gt_dir is not None:
                mask_path = os.path.join(args.gt_dir, name)
                if os.path.exists(mask_path):
                    ground_truth = _load_binary_mask(mask_path)
            loaded.append((name, image, ground_truth))
        except Exception as exc:  # reprolint: disable=RL004 surfaces as the image's report entry
            load_errors[name] = exc

    results = engine.map(
        [image for _, image, _ in loaded],
        [ground_truth for _, _, ground_truth in loaded],
        return_errors=True,
    )
    outcome = dict(load_errors)
    outcome.update({name: result for (name, _, _), result in zip(loaded, results)})

    entries = []
    failures = 0
    for name in names:
        result = outcome[name]
        if isinstance(result, Exception):
            failures += 1
            entries.append(
                {"file": name, "error": f"{type(result).__name__}: {result}"}
            )
            continue
        seg = result.segmentation
        entry = {
            "file": name,
            "shape": [int(v) for v in seg.labels.shape],
            "num_segments": int(seg.num_segments),
            "fast_path": str(seg.extras.get("fast_path", "direct")),
            "runtime_seconds": float(seg.runtime_seconds),
            "metrics": {key: float(value) for key, value in result.metrics.items()},
        }
        entries.append(entry)

    succeeded = [entry for entry in entries if "error" not in entry]
    scored = [entry for entry in succeeded if entry["metrics"]]
    summary = {
        "num_failed": failures,
        "total_runtime_seconds": float(
            sum(entry["runtime_seconds"] for entry in succeeded)
        ),
        "mean_num_segments": (
            float(np.mean([entry["num_segments"] for entry in succeeded]))
            if succeeded
            else None
        ),
        "mean_miou": (
            float(np.mean([entry["metrics"]["miou"] for entry in scored])) if scored else None
        ),
        "mean_pixel_accuracy": (
            float(np.mean([entry["metrics"]["pixel_accuracy"] for entry in scored]))
            if scored
            else None
        ),
        "mean_dice": (
            float(np.mean([entry["metrics"]["dice"] for entry in scored])) if scored else None
        ),
    }
    report = {
        "schema": "repro-batch-report/v1",
        "method": args.method,
        "parameters": {"theta": theta_used, "seed": args.seed},
        "engine": engine.describe(),
        "num_images": len(entries),
        "images": entries,
        "summary": summary,
    }
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    miou_text = f"{summary['mean_miou']:.4f}" if summary["mean_miou"] is not None else "n/a"
    print(
        f"batch: {len(succeeded)}/{len(entries)} image(s) ok, method={args.method}, "
        f"mean mIOU={miou_text}, total runtime={summary['total_runtime_seconds']:.3f}s"
        + (f" -> {args.report}" if args.report else ""),
        file=sys.stderr if not args.report else sys.stdout,
    )
    return 1 if failures else 0


def _parse_lane_weights(text: str) -> dict:
    """``"4:2:1"`` → ``{"high": 4, "normal": 2, "low": 1}``."""
    from .errors import ParameterError

    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--lane-weights must be HIGH:NORMAL:LOW, got {text!r}")
    try:
        weights = [int(part) for part in parts]
    except ValueError:
        raise ParameterError(f"--lane-weights must be three integers, got {text!r}") from None
    return dict(zip(("high", "normal", "low"), weights))


def _parse_http_address(text: str, flag: str = "--http") -> tuple:
    """``"HOST:PORT"`` → ``(host, port)``; the host defaults to loopback."""
    from .errors import ParameterError

    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise ParameterError(f"{flag} must be HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
        if not 0 <= port <= 65535:
            raise ValueError
    except ValueError:
        raise ParameterError(f"invalid {flag} port {port_text!r}") from None
    return host or "127.0.0.1", port


def _run_http_serve(args: argparse.Namespace, service, theta_used, host: str, port: int) -> int:
    """Drive the HTTP front end until SIGINT/SIGTERM, then drain and report."""
    import asyncio
    import signal

    from .serve import HttpSegmentationServer

    async def _drive() -> dict:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for signame in ("SIGINT", "SIGTERM"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, stop.set)
                hooked.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platform without signal support
        async with service:
            server = HttpSegmentationServer(
                service,
                host=host,
                port=port,
                max_body_bytes=int(args.max_body_mb * 1024 * 1024),
            )
            await server.start()
            print(
                f"http-serve: listening on http://{server.host}:{server.port} "
                "(SIGINT/SIGTERM drains and exits)",
                file=sys.stderr,
                flush=True,
            )
            try:
                await stop.wait()
            finally:
                for signum in hooked:
                    loop.remove_signal_handler(signum)
                print("http-serve: draining...", file=sys.stderr, flush=True)
                await server.aclose(drain=True, close_service=False)
            metrics = service.metrics()
            http_metrics = server.http_metrics()
        return {
            "schema": "repro-http-serve-report/v1",
            "method": args.method,
            "parameters": {"theta": theta_used, "seed": args.seed},
            "service": service.describe(),
            "metrics": metrics,
            "http": http_metrics,
        }

    report = asyncio.run(_drive())
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    print(
        f"http-serve: {report['metrics']['completed']} request(s) served, "
        f"{report['http']['requests']} HTTP request(s) total"
        + (f" -> {args.report}" if args.report else ""),
        file=sys.stderr,
        flush=True,
    )
    return 0


def _build_worker_spec(args: argparse.Namespace):
    """The picklable service recipe shared by every serve mode.

    Single-process ``--http``, the spool and JSONL drivers and the
    ``--workers N`` fleet all construct their service through one
    :class:`~repro.serve.WorkerSpec`, so a fleet worker is configured
    exactly like the single process it replaces.
    """
    from .serve import WorkerSpec

    return WorkerSpec(
        method=args.method,
        theta=float(args.theta),
        seed=args.seed,
        use_lut=not args.no_lut,
        executor=args.executor,
        jobs=args.jobs,
        max_batch_size=args.max_batch,
        queue_size=args.queue_size,
        cache_entries=args.cache_size,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        lane_weights=_parse_lane_weights(args.lane_weights) if args.lane_weights else None,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        default_deadline_seconds=(
            args.default_deadline_ms / 1000.0 if args.default_deadline_ms is not None else None
        ),
        adaptive=args.adaptive,
        max_body_bytes=int(args.max_body_mb * 1024 * 1024),
        shm_bytes=0 if args.no_shm else max(0, int(args.shm_mb * 1024 * 1024)),
        log_format=args.log_format,
        trace_sample_rate=args.trace_sample_rate,
        trace_ring=args.trace_ring,
        delta=args.delta,
        delta_tile=max(0, int(args.delta_tile)),
        delta_streams=max(1, int(args.delta_streams)),
    )


def _run_fleet_serve(  # pragma: no cover - driven via subprocess in the CLI tests
    args: argparse.Namespace, spec, theta_used, host: str, port: int
) -> int:
    """Drive a supervised worker fleet until SIGINT/SIGTERM, then drain."""
    import signal
    import threading
    import time

    from .serve import ServeFleet

    fleet = ServeFleet(spec, host=host, port=port, workers=args.workers)
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal handler signature
        stop.set()

    previous = {}
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # non-main thread: rely on the caller
            pass
    try:
        fleet.start()
        if not fleet.wait_ready(timeout=60, workers=1):
            # Not even one worker came up: report the failure instead of
            # advertising a listening address that answers nothing.
            print("error: no fleet worker became ready within 60s", file=sys.stderr)
            return 2
        fleet.wait_ready(timeout=10)  # best effort for the remaining workers
        print(
            f"http-serve: fleet of {fleet.workers} worker(s) listening on "
            f"http://{fleet.host}:{fleet.port} (SIGINT/SIGTERM drains and exits)",
            file=sys.stderr,
            flush=True,
        )
        for slot, pid in sorted(fleet.describe_fleet()["pids"].items()):
            print(f"http-serve: worker slot={slot} pid={pid}", file=sys.stderr, flush=True)
        # Poll, not stop.wait(): the kernel may hand the signal to another
        # thread (the fleet monitor, a BLAS worker), and its Python handler
        # then runs only when the main thread next executes bytecode, which
        # a thread blocked in stop.wait() never does.
        while not stop.is_set():
            time.sleep(0.1)
        print("http-serve: draining fleet...", file=sys.stderr, flush=True)
        fleet.shutdown(drain=True)
        metrics = fleet.final_metrics()
    finally:
        fleet.shutdown(drain=True)  # idempotent: covers the error paths
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    http = metrics.get("http") or {}
    report = {
        "schema": "repro-http-serve-report/v1",
        "method": spec.method,
        "parameters": {"theta": theta_used, "seed": spec.seed},
        "fleet": metrics.get("fleet", {}),
        "metrics": metrics,
        "http": http,
    }
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    print(
        f"http-serve: fleet served {report['metrics'].get('completed', 0)} request(s), "
        f"{http.get('requests', 0)} HTTP request(s) total, "
        f"{report['fleet'].get('restarts', 0)} restart(s)"
        + (f" -> {args.report}" if args.report else ""),
        file=sys.stderr,
        flush=True,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import CacheError
    from .obs import configure_logging
    from .serve import build_report, iter_jsonl_jobs, iter_spool_jobs, run_jobs_async

    configure_logging(format=args.log_format)
    http_mode = args.http is not None
    stdin_mode = args.source == "-"
    if http_mode and args.source is not None:
        print(
            "warning: --http serves network requests; the job source "
            f"{args.source!r} is ignored",
            file=sys.stderr,
        )
    if args.workers is not None and not http_mode:
        print("error: --workers requires --http", file=sys.stderr)
        return 2
    if not http_mode:
        if args.source is None:
            print("error: a job source is required unless --http is given", file=sys.stderr)
            return 2
        if not stdin_mode and not os.path.isdir(args.source):
            print(
                f"error: {args.source!r} is not a directory (or '-' for stdin)", file=sys.stderr
            )
            return 2

    fleet_mode = http_mode and args.workers is not None
    try:
        if args.workers is not None and args.workers < 1:
            from .errors import ParameterError

            raise ParameterError("--workers must be >= 1")
        if http_mode and int(args.max_body_mb * 1024 * 1024) < 1:
            from .errors import ParameterError

            raise ParameterError("--max-body-mb must allow at least one byte")
        if http_mode:
            http_host, http_port = _parse_http_address(args.http)
        spec = _build_worker_spec(args)
        theta_used = spec.theta_used
        service = spec.build_service()
        if fleet_mode:
            # Built only to validate the recipe in the parent: a bad
            # --method or an unwritable --cache-dir must exit 2 here, exactly
            # like the single-process path — not crash-loop inside the
            # workers, which build their own.
            service = None
    except (ValueError, CacheError) as exc:  # ParameterError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if http_mode:
        try:
            if fleet_mode:
                return _run_fleet_serve(args, spec, theta_used, http_host, http_port)
            return _run_http_serve(args, service, theta_used, http_host, http_port)
        except (ValueError, CacheError, OSError) as exc:
            # bind failures (port in use, privileged port) and config errors
            # follow the CLI convention: one error line, exit 2
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if stdin_mode:
        jobs = iter_jsonl_jobs(sys.stdin, priority_field=args.priority_field)
        if args.limit is not None:
            jobs = itertools.islice(jobs, max(0, int(args.limit)))
        out_dir = args.out_dir
    else:
        jobs = iter_spool_jobs(
            args.source,
            watch=args.watch,
            poll_seconds=args.poll,
            stop_file=args.stop_file,
            limit=args.limit,
        )
        out_dir = args.out_dir or os.path.join(args.source, "results")

    async def _drive() -> tuple:
        async with service:
            entries = await run_jobs_async(service, jobs, out_dir=out_dir)
            report = build_report(
                service,
                entries,
                method=args.method,
                parameters={"theta": theta_used, "seed": args.seed},
            )
        return entries, report

    entries, report = asyncio.run(_drive())

    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    summary = report["summary"]
    cache_stats = report["metrics"]["cache"]
    hit_text = f"{cache_stats['hit_rate']:.0%}" if cache_stats else "off"
    failures = summary["num_failed"]
    print(
        f"serve: {len(entries) - failures}/{len(entries)} job(s) ok, "
        f"method={args.method}, cache hit rate={hit_text}, "
        f"throughput={report['metrics']['throughput_rps']:.1f} req/s"
        + (f" -> {args.report}" if args.report else ""),
        file=sys.stderr if not args.report else sys.stdout,
    )
    return 1 if failures else 0


def _format_metrics_table(snapshot: dict) -> str:
    """A compact human summary of one server's ``/v1/metrics`` snapshot.

    Tolerates empty recorders: percentiles a fresh service has not earned
    yet render as ``n/a``, never as 0 or NaN.
    """

    def num(value) -> int:
        try:
            return int(value)
        except (TypeError, ValueError):
            return 0

    def ms(value) -> str:
        if isinstance(value, (int, float)):
            return f"{float(value) * 1000.0:.2f}ms"
        return "n/a"

    def rate(value) -> str:
        try:
            return f"{float(value):.0%}"
        except (TypeError, ValueError):
            return "n/a"

    lines = [
        "requests     "
        f"completed={num(snapshot.get('completed'))} "
        f"failed={num(snapshot.get('failed'))} "
        f"cancelled={num(snapshot.get('cancelled'))} "
        f"coalesced={num(snapshot.get('coalesced'))} "
        f"queue_depth={num(snapshot.get('queue_depth'))}"
    ]
    try:
        throughput = float(snapshot.get("throughput_rps") or 0.0)
        uptime = float(snapshot.get("uptime_seconds") or 0.0)
        mean_batch = float(snapshot.get("mean_batch_size") or 0.0)
    except (TypeError, ValueError):
        throughput, uptime, mean_batch = 0.0, 0.0, 0.0
    lines.append(
        f"throughput   {throughput:.2f} req/s over {uptime:.0f}s, mean batch {mean_batch:.2f}"
    )
    latency = snapshot.get("latency_seconds")
    latency = latency if isinstance(latency, dict) else {}
    lines.append(
        "latency      "
        f"p50={ms(latency.get('p50'))} p99={ms(latency.get('p99'))} "
        f"mean={ms(latency.get('mean'))} max={ms(latency.get('max'))}"
    )
    cache = snapshot.get("cache")
    if isinstance(cache, dict):
        tiers = [
            (name, cache[name])
            for name in ("l1", "shm", "l2")
            if isinstance(cache.get(name), dict)
        ]
        if tiers:
            parts = [f"{name}={rate(tier.get('hit_rate'))}" for name, tier in tiers]
            parts.append(f"overall={rate(cache.get('hit_rate'))}")
            lines.append("cache hits   " + " ".join(parts))
        else:
            lines.append(f"cache hits   memory={rate(cache.get('hit_rate'))}")
    else:
        lines.append("cache hits   off")
    lanes = snapshot.get("lanes")
    lanes = lanes if isinstance(lanes, dict) else {}
    for name in ("high", "normal", "low"):
        lane = lanes.get(name)
        if not isinstance(lane, dict):
            continue
        lane_latency = lane.get("latency_seconds")
        lane_latency = lane_latency if isinstance(lane_latency, dict) else {}
        shed = num(lane.get("shed_admission")) + num(lane.get("shed_expired"))
        lines.append(
            f"lane {name:<8}"
            f"depth={num(lane.get('depth'))} "
            f"completed={num(lane.get('completed'))} "
            f"shed={shed} "
            f"weight={num(lane.get('weight'))} "
            f"p99={ms(lane_latency.get('p99'))}"
        )
    adaptive = snapshot.get("adaptive")
    if isinstance(adaptive, dict):
        lines.append(
            "adaptive     "
            f"ticks={num(adaptive.get('ticks'))} "
            f"batch_adjustments={num(adaptive.get('batch_adjustments'))} "
            f"weight_adjustments={num(adaptive.get('weight_adjustments'))} "
            f"batch_size={num(adaptive.get('max_batch_size'))}"
        )
    else:
        lines.append("adaptive     off")
    delta = snapshot.get("delta")
    if isinstance(delta, dict):
        lines.append(
            "delta        "
            f"frames={num(delta.get('frames'))} "
            f"tiles_reused={num(delta.get('tiles_reused'))} "
            f"tiles_recomputed={num(delta.get('tiles_recomputed'))} "
            f"reuse_ratio={float(delta.get('reuse_ratio') or 0.0):.3f}"
        )
    trace = snapshot.get("trace")
    if isinstance(trace, dict):
        lines.append(
            "traces       "
            f"recorded={num(trace.get('recorded'))} "
            f"retained={num(trace.get('retained'))} "
            f"sampled_out={num(trace.get('sampled_out'))}"
        )
    exemplar = snapshot.get("latency_exemplar")
    if isinstance(exemplar, dict) and exemplar.get("trace_id"):
        lines.append(
            f"slowest      trace_id={exemplar.get('trace_id')} "
            f"at {ms(exemplar.get('seconds'))}"
        )
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .serve import SegmentClient

    try:
        host, port = _parse_http_address(args.address, flag="metrics address")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with SegmentClient(host, port, timeout=args.timeout) as client:
            snapshot = client.metrics()
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(snapshot, dict):
        print("error: the endpoint returned a non-object metrics document", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"metrics      http://{host}:{port}/v1/metrics")
    print(_format_metrics_table(snapshot))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .datasets.synthetic_voc import SyntheticVOCDataset
    from .datasets.synthetic_xview import SyntheticXView2Dataset
    from .experiments.table3 import format_table3, run_table3
    from .parallel.executor import get_executor

    if args.dataset == "voc":
        dataset = SyntheticVOCDataset(num_samples=args.samples)
    else:
        dataset = SyntheticXView2Dataset(num_samples=args.samples)
    executor = get_executor(args.executor)
    result = run_table3(dataset, executor=executor)
    print(format_table3([result]))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from . import experiments as ex

    name = args.name
    if name == "table1":
        print(ex.format_table1(ex.run_table1()))
    elif name == "table2":
        samples = args.samples or 100_000
        print(ex.format_table2(ex.run_table2(num_samples=samples)))
    elif name == "table3":
        from .experiments.table3 import default_datasets

        samples = args.samples or 20
        datasets = default_datasets(voc_samples=samples, xview_samples=samples)
        results = [ex.run_table3(ds) for ds in datasets.values()]
        print(ex.format_table3(results))
    elif name == "fig3":
        print(ex.format_figure3(ex.run_figure3()))
    elif name == "fig4":
        print(ex.format_figure4(ex.run_figure4()))
    elif name == "fig5":
        print(ex.format_figure5(ex.run_figure5()))
    elif name == "fig6":
        print(ex.format_figure6(ex.run_figure6()))
    elif name == "fig7":
        print(ex.format_figure7(ex.run_figure7()))
    elif name == "fig8":
        print(ex.format_example_table(ex.run_figure8(), "Figure 8 — VOC-style examples"))
    elif name == "fig9":
        print(ex.format_example_table(ex.run_figure9(), "Figure 9 — xVIEW2-style examples"))
    elif name == "fig10":
        print(ex.format_figure10(ex.run_figure10()))
    elif name == "theta-sweep":
        print(ex.format_theta_sensitivity(ex.run_theta_sensitivity(num_images=args.samples or 8)))
    elif name == "robustness":
        print(ex.format_noise_robustness(ex.run_noise_robustness(num_images=args.samples or 4)))
    elif name == "shots":
        from .quantum.noise_models import NoiseModel

        result = ex.run_shot_convergence(
            shots=(1, 8, 64, 256), noise_model=NoiseModel(phase_damping=0.01, readout_error=0.01)
        )
        print(ex.format_shot_convergence(result))
    else:  # pragma: no cover - argparse already restricts choices
        raise SystemExit(f"unknown experiment {name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "segment":
        return _cmd_segment(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    parser.error("unknown command")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Tests for the ``repro-segment serve`` CLI subcommand."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.imaging.io_dispatch import write_image

_REQUIRED_TOP_KEYS = {
    "schema",
    "method",
    "parameters",
    "service",
    "metrics",
    "num_jobs",
    "jobs",
    "summary",
}
_REQUIRED_JOB_KEYS = {
    "id",
    "file",
    "shape",
    "num_segments",
    "fast_path",
    "cache_hit",
    "coalesced",
    "runtime_seconds",
    "metrics",
    "result_file",
    "priority",
}


def _make_spool(directory, rng, count=3, size=(20, 24), duplicate_of=None):
    directory.mkdir(exist_ok=True)
    images = []
    for index in range(count):
        if duplicate_of is not None and index == count - 1:
            image = images[duplicate_of]
        else:
            image = (rng.random((size[0], size[1], 3)) * 255).astype(np.uint8)
        images.append(image)
        write_image(directory / f"job_{index}.png", image)
    return images


def test_serve_spool_writes_schema_conformant_report(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng)
    report_path = tmp_path / "report.json"
    exit_code = main(["serve", str(spool), "--report", str(report_path)])
    assert exit_code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == _REQUIRED_TOP_KEYS
    assert report["schema"] == "repro-serve-report/v1"
    assert report["method"] == "iqft-rgb"
    assert report["num_jobs"] == 3
    for job in report["jobs"]:
        assert set(job) == _REQUIRED_JOB_KEYS
        assert job["shape"] == [20, 24]
        assert job["fast_path"] == "palette-lut"
    # jobs processed in sorted order for determinism
    assert [job["id"] for job in report["jobs"]] == sorted(
        job["id"] for job in report["jobs"]
    )
    # service metrics are embedded
    assert report["metrics"]["completed"] == 3
    assert report["metrics"]["cache"]["max_entries"] == 256
    assert report["service"]["max_batch_size"] == 16


def test_serve_writes_per_job_result_files(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=2)
    assert main(["serve", str(spool), "--report", str(tmp_path / "r.json")]) == 0
    for index in range(2):
        result_file = spool / "results" / f"job_{index}.json"
        assert result_file.exists()
        entry = json.loads(result_file.read_text())
        assert entry["id"] == f"job_{index}.png"
        assert entry["num_segments"] >= 1


def test_serve_gives_same_stem_jobs_distinct_result_files(tmp_path, rng, monkeypatch):
    def _assert_own_files(report, expected):
        files = {job["id"]: job["result_file"] for job in report["jobs"]}
        assert files == expected
        for job_id, path in files.items():
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh)["id"] == job_id

    # x.png and x.ppm share the stem "x"; the later job (in sorted job order)
    # gets x-1.json instead of overwriting the earlier one's file.
    spool = tmp_path / "spool"
    spool.mkdir()
    for name in ("x.png", "x.ppm"):
        write_image(spool / name, (rng.random((6, 7, 3)) * 255).astype(np.uint8))
    report_path = tmp_path / "report.json"
    assert main(["serve", str(spool), "--report", str(report_path)]) == 0
    results = spool / "results"
    _assert_own_files(
        json.loads(report_path.read_text()),
        {"x.png": str(results / "x.json"), "x.ppm": str(results / "x-1.json")},
    )

    # Same stem from two directories, given as JSONL jobs with --out-dir.
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        write_image(tmp_path / sub / "x.png", (rng.random((6, 7, 3)) * 255).astype(np.uint8))
    lines = "\n".join(
        json.dumps({"path": str(tmp_path / sub / "x.png"), "id": sub}) for sub in ("a", "b")
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    out_dir = tmp_path / "out"
    assert main(["serve", "-", "--out-dir", str(out_dir), "--report", str(report_path)]) == 0
    _assert_own_files(
        json.loads(report_path.read_text()),
        {"a": str(out_dir / "x.json"), "b": str(out_dir / "x-1.json")},
    )


def test_serve_deduplicates_identical_images(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=3, duplicate_of=0)  # job_2 == job_0 byte-for-byte
    report_path = tmp_path / "report.json"
    assert main(["serve", str(spool), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    # the duplicate was answered without a second engine evaluation: either a
    # cache hit (different micro-batches) or coalesced (same micro-batch)
    duplicates = report["summary"]["num_cache_hits"] + report["summary"]["num_coalesced"]
    assert duplicates == 1
    assert report["metrics"]["cache"]["currsize"] == 2  # two distinct images


def test_serve_isolates_unreadable_jobs(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=2)
    (spool / "corrupt.png").write_bytes(b"not a png")
    report_path = tmp_path / "report.json"
    assert main(["serve", str(spool), "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    by_id = {job["id"]: job for job in report["jobs"]}
    assert "error" in by_id["corrupt.png"]
    assert report["summary"]["num_failed"] == 1
    assert by_id["job_0.png"]["num_segments"] >= 1
    # no result file is written for the failed job
    assert not (spool / "results" / "corrupt.json").exists()


def test_serve_reports_an_unreadable_job_in_spool_order(tmp_path, rng):
    spool = tmp_path / "spool"
    spool.mkdir()
    write_image(spool / "a.png", (rng.random((20, 24, 3)) * 255).astype(np.uint8))
    (spool / "b.png").write_bytes(b"not a png")
    write_image(spool / "c.png", (rng.random((20, 24, 3)) * 255).astype(np.uint8))
    report_path = tmp_path / "report.json"
    assert main(["serve", str(spool), "--report", str(report_path)]) == 1
    jobs = json.loads(report_path.read_text())["jobs"]
    assert [job["id"] for job in jobs] == ["a.png", "b.png", "c.png"]
    assert ["error" in job for job in jobs] == [False, True, False]


def test_serve_reports_jsonl_jobs_in_line_order(tmp_path, rng, monkeypatch):
    image_path = tmp_path / "input.png"
    write_image(image_path, (rng.random((10, 12, 3)) * 255).astype(np.uint8))
    lines = "\n".join(
        [
            json.dumps({"path": str(image_path), "id": "first"}),
            "this is not json",
            json.dumps({"path": str(image_path), "id": "third"}),
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    report_path = tmp_path / "report.json"
    assert main(["serve", "-", "--report", str(report_path)]) == 1
    jobs = json.loads(report_path.read_text())["jobs"]
    assert [job["id"] for job in jobs] == ["first", "line-2", "third"]
    assert ["error" in job for job in jobs] == [False, True, False]


def test_serve_jsonl_stdin_jobs(tmp_path, rng, monkeypatch, capsys):
    image_path = tmp_path / "input.png"
    write_image(image_path, (rng.random((10, 12, 3)) * 255).astype(np.uint8))
    lines = "\n".join(
        [
            json.dumps({"path": str(image_path), "id": "first"}),
            "",  # blank lines are skipped
            json.dumps({"path": str(image_path)}),  # id defaults to the path
            "this is not json",
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    report_path = tmp_path / "report.json"
    assert main(["serve", "-", "--report", str(report_path)]) == 1  # one malformed line
    report = json.loads(report_path.read_text())
    assert report["num_jobs"] == 3
    by_id = {job["id"]: job for job in report["jobs"]}
    assert by_id["first"]["num_segments"] >= 1
    assert str(image_path) in by_id
    assert "error" in by_id["line-4"]
    # stdin mode writes no per-job files unless --out-dir is given
    assert "result_file" not in by_id["first"]


def test_serve_jsonl_stdin_respects_limit(tmp_path, rng, monkeypatch):
    image_path = tmp_path / "input.png"
    write_image(image_path, (rng.random((8, 8, 3)) * 255).astype(np.uint8))
    lines = "\n".join(
        json.dumps({"path": str(image_path), "id": f"job-{i}"}) for i in range(5)
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    report_path = tmp_path / "report.json"
    assert main(["serve", "-", "--limit", "2", "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["num_jobs"] == 2


def test_serve_watch_mode_stops_on_stop_file(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=2)
    (spool / ".stop").touch()  # pre-arm: serve one scan, then exit
    report_path = tmp_path / "report.json"
    assert main(
        ["serve", str(spool), "--watch", "--poll", "0.01", "--report", str(report_path)]
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["num_jobs"] == 2


def test_iter_spool_jobs_watch_waits_for_files_to_settle(tmp_path, rng):
    from repro.serve import iter_spool_jobs

    write_image(tmp_path / "a.png", (rng.random((8, 8, 3)) * 255).astype(np.uint8))
    jobs = iter_spool_jobs(str(tmp_path), watch=True, poll_seconds=0.01)
    # without a stop file the first scan only records the size/mtime; the
    # file is yielded once a second scan sees it unchanged
    job = next(jobs)
    assert job.id == "a.png"
    (tmp_path / ".stop").touch()
    with pytest.raises(StopIteration):
        next(jobs)


def test_iter_spool_jobs_serves_files_spooled_before_the_stop_file(tmp_path, rng, monkeypatch):
    """Jobs dropped together with the stop file mid-scan must still be served.

    The producer writes ``b.png`` and then the stop file *while* the watcher
    is between its directory listing and its stop check.  Because the stop
    file is checked before each listing, the stop is only honoured on the
    next round — whose listing is guaranteed to include ``b.png``.
    """
    import os

    from repro.serve import _spool as spool

    write_image(tmp_path / "a.png", (rng.random((8, 8, 3)) * 255).astype(np.uint8))
    real_listdir = os.listdir
    state = {"scans": 0}

    def racing_listdir(path):
        names = real_listdir(path)
        state["scans"] += 1
        if state["scans"] == 1:
            # mid-scan: one more job lands, then the stop file right after it
            write_image(tmp_path / "b.png", (rng.random((8, 8, 3)) * 255).astype(np.uint8))
            (tmp_path / ".stop").touch()
        return names

    monkeypatch.setattr(spool.os, "listdir", racing_listdir)
    jobs = list(spool.iter_spool_jobs(str(tmp_path), watch=True, poll_seconds=0.01))
    assert sorted(job.id for job in jobs) == ["a.png", "b.png"]


def test_run_jobs_async_writes_a_result_while_the_job_source_blocks(tmp_path, rng):
    """A finished job's result file lands while run_jobs_async awaits the next job.

    The source yields one job, then blocks, as a watched spool does between
    files.  The test always releases it, so it cannot hang.
    """
    import asyncio
    import threading
    import time

    from repro import BatchSegmentationEngine, IQFTSegmenter
    from repro.serve import AsyncSegmentationService, Job, run_jobs_async

    write_image(tmp_path / "a.png", (rng.random((8, 8, 3)) * 255).astype(np.uint8))
    result_file = tmp_path / "results" / "a.json"
    release = threading.Event()

    def jobs():
        yield Job(id="a.png", path=str(tmp_path / "a.png"))
        release.wait(timeout=60)

    async def scenario():
        engine = BatchSegmentationEngine(IQFTSegmenter(thetas=np.pi))
        async with AsyncSegmentationService(engine) as service:
            run = asyncio.ensure_future(
                run_jobs_async(service, jobs(), out_dir=str(tmp_path / "results"))
            )
            try:
                deadline = time.monotonic() + 10
                while not result_file.exists() and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                written_while_blocked = result_file.exists()
            finally:
                release.set()
            return written_while_blocked, await run

    written_while_blocked, entries = asyncio.run(scenario())
    assert written_while_blocked
    assert [entry["id"] for entry in entries] == ["a.png"]
    assert json.loads(result_file.read_text())["id"] == "a.png"


def test_serve_watch_accepts_poll_seconds_flag(tmp_path, rng):
    spool_dir = tmp_path / "spool"
    _make_spool(spool_dir, rng, count=2)
    (spool_dir / ".stop").touch()
    report_path = tmp_path / "report.json"
    assert main(
        ["serve", str(spool_dir), "--watch", "--poll-seconds", "0.01",
         "--report", str(report_path)]
    ) == 0
    assert json.loads(report_path.read_text())["num_jobs"] == 2


def test_latency_recorder_summary_is_window_consistent():
    from repro.metrics.runtime import LatencyRecorder

    recorder = LatencyRecorder(max_samples=2)
    for value in (5.0, 0.1, 0.3):  # the 5 s outlier falls out of the window
        recorder.record(value)
    summary = recorder.summary()
    assert summary["count"] == 3.0
    assert summary["max"] == pytest.approx(0.3)
    assert summary["mean"] == pytest.approx(0.2)
    assert summary["p50"] == pytest.approx(0.2)


def test_serve_limit_and_no_cache(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=3)
    report_path = tmp_path / "report.json"
    code = main(
        ["serve", str(spool), "--limit", "2", "--no-cache", "--report", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["num_jobs"] == 2
    assert report["metrics"]["cache"] is None
    assert report["service"]["cache"] is None


def test_serve_prints_report_to_stdout_without_report_flag(tmp_path, rng, capsys):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=1)
    assert main(["serve", str(spool)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["schema"] == "repro-serve-report/v1"


def test_serve_is_deterministic_across_runs(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng)
    outcomes = []
    for run in range(2):
        path = tmp_path / f"report_{run}.json"
        assert main(["serve", str(spool), "--report", str(path)]) == 0
        report = json.loads(path.read_text())
        outcomes.append(
            [
                (job["id"], job["num_segments"], job["fast_path"])
                for job in report["jobs"]
            ]
        )
    assert outcomes[0] == outcomes[1]


def test_serve_rejects_bad_source_and_bad_method(tmp_path, rng, capsys):
    assert main(["serve", str(tmp_path / "missing")]) == 2
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=1)
    assert main(["serve", str(spool), "--method", "no-such-method"]) == 2
    assert "unknown segmenter" in capsys.readouterr().err
    assert main(["serve", str(spool), "--max-batch", "0"]) == 2


def test_serve_jobs_flag_sets_worker_count(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=2)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "serve",
            str(spool),
            "--executor",
            "thread",
            "--jobs",
            "2",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["service"]["engine"]["executor"] == "thread"
    assert report["metrics"]["completed"] == 2


def test_batch_jobs_flag_forwards_worker_count(tmp_path, rng):
    data = tmp_path / "data"
    data.mkdir()
    for index in range(2):
        write_image(
            data / f"img_{index}.png",
            (rng.random((12, 14, 3)) * 255).astype(np.uint8),
        )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "batch",
            str(data),
            "--executor",
            "thread",
            "--jobs",
            "2",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["engine"]["executor"] == "thread"
    # --jobs with the serial executor is accepted and ignored
    assert main(["batch", str(data), "--jobs", "4", "--report", str(report_path)]) == 0


# --------------------------------------------------------------------------- #
# lanes, deadlines + persistent disk cache
# --------------------------------------------------------------------------- #
def test_serve_async_jsonl_jobs_with_priorities(tmp_path, rng, monkeypatch):
    image_path = tmp_path / "input.png"
    write_image(image_path, (rng.random((10, 12, 3)) * 255).astype(np.uint8))
    lines = "\n".join(
        [
            json.dumps({"path": str(image_path), "id": "urgent", "priority": "high"}),
            json.dumps({"path": str(image_path), "id": "bulk", "priority": "low"}),
            json.dumps({"path": str(image_path), "id": "plain"}),
            json.dumps({"path": str(image_path), "id": "junk", "priority": "urgent"}),
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    report_path = tmp_path / "report.json"
    exit_code = main(["serve", "-", "--default-deadline-ms", "60000", "--report", str(report_path)])
    assert exit_code == 1  # the bogus priority is a per-job error
    report = json.loads(report_path.read_text())
    by_id = {job["id"]: job for job in report["jobs"]}
    assert by_id["urgent"]["priority"] == "high"
    assert by_id["bulk"]["priority"] == "low"
    assert by_id["plain"]["priority"] == "normal"
    assert "error" in by_id["junk"]
    lanes = report["metrics"]["lanes"]
    assert lanes["high"]["completed"] == 1
    assert lanes["low"]["completed"] == 1
    assert report["metrics"]["shed"] == {"admission": 0, "expired": 0}


def test_serve_spool_default_deadline_is_the_service_default(tmp_path, rng):
    # One path for spool and --http: the flag sets the service's default.
    spool = tmp_path / "spool"
    _make_spool(spool, rng, count=1)
    report_path = tmp_path / "report.json"
    args = ["serve", str(spool), "--default-deadline-ms", "60000", "--report", str(report_path)]
    assert main(args) == 0
    assert json.loads(report_path.read_text())["service"]["default_deadline"] == 60.0
    # A non-positive default is a configuration error, not a shed per job.
    assert main(["serve", str(spool), "--default-deadline-ms", "0"]) == 2


def test_serve_async_custom_priority_field(tmp_path, rng, monkeypatch):
    image_path = tmp_path / "input.png"
    write_image(image_path, (rng.random((8, 8, 3)) * 255).astype(np.uint8))
    lines = json.dumps({"path": str(image_path), "id": "job", "lane": "high"})
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    report_path = tmp_path / "report.json"
    assert main(["serve", "-", "--priority-field", "lane", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["metrics"]["lanes"]["high"]["completed"] == 1


def test_serve_async_spool_directory(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng)
    report_path = tmp_path / "report.json"
    assert main(["serve", str(spool), "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["num_jobs"] == 3
    for job in report["jobs"]:
        assert job["priority"] == "normal"
        assert "result_file" in job  # one per-job JSON file each


def test_serve_cache_dir_survives_process_restart(tmp_path, rng):
    spool = tmp_path / "spool"
    _make_spool(spool, rng)
    cache_dir = tmp_path / "cache"
    cold_report = tmp_path / "cold.json"
    warm_report = tmp_path / "warm.json"
    assert main(
        ["serve", str(spool), "--cache-dir", str(cache_dir), "--report", str(cold_report)]
    ) == 0
    # a brand-new process-equivalent run: fresh service, same cache directory
    assert main(
        ["serve", str(spool), "--cache-dir", str(cache_dir), "--report", str(warm_report)]
    ) == 0
    cold = json.loads(cold_report.read_text())
    warm = json.loads(warm_report.read_text())
    assert cold["summary"]["num_cache_hits"] == 0
    assert warm["summary"]["num_cache_hits"] == 3  # every job disk-warm
    assert warm["metrics"]["cache"]["l2"]["hits"] == 3
    # disk-warm answers must be bit-identical to the cold computation
    cold_by_id = {job["id"]: job for job in cold["jobs"]}
    for job in warm["jobs"]:
        assert job["num_segments"] == cold_by_id[job["id"]]["num_segments"]
        assert job["shape"] == cold_by_id[job["id"]]["shape"]


# --------------------------------------------------------------------------- #
# HTTP front end
# --------------------------------------------------------------------------- #
def test_serve_requires_a_source_unless_http(tmp_path, capsys):
    assert main(["serve"]) == 2
    assert "job source is required" in capsys.readouterr().err
    assert main(["serve", "--http", "not-an-address"]) == 2
    assert main(["serve", "--http", "127.0.0.1:notaport"]) == 2
    assert main(["serve", "--http", "127.0.0.1:8080", "--lane-weights", "4:2"]) == 2
    assert main(["serve", "--http", "127.0.0.1:8080", "--max-body-mb", "0"]) == 2


def test_serve_http_bind_failure_exits_2_with_an_error_line(capsys):
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        assert main(["serve", "--http", f"127.0.0.1:{port}"]) == 2
    assert "error:" in capsys.readouterr().err


def test_serve_http_end_to_end_with_graceful_sigterm(tmp_path, rng):
    import os
    import re
    import signal
    import subprocess
    import sys as _sys

    from repro.serve import SegmentClient

    report_path = tmp_path / "report.json"
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            _sys.executable, "-c",
            "from repro.cli import main; import sys; sys.exit(main(sys.argv[1:]))",
            "serve", "--http", "127.0.0.1:0", "--lane-weights", "6:3:1",
            "--report", str(report_path),
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # Structured serve-layer log events share stderr with the CLI's own
        # announcements, so scan for the listening line instead of assuming
        # it arrives first.
        match = None
        for _ in range(50):
            line = proc.stderr.readline()
            if not line:
                break
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match:
                break
        assert match, "no listening line in stderr"
        host, port = match.group(1), int(match.group(2))
        with SegmentClient(host, port, timeout=60) as client:
            assert client.health()["status_code"] == 200
            image = (rng.random((10, 12, 3)) * 255).astype(np.uint8)
            result = client.segment(image, priority="high")
            assert result.num_segments >= 1
            assert result.labels.shape == (10, 12)
            metrics = client.metrics()
            assert metrics["lanes"]["high"]["completed"] == 1
            assert metrics["lanes"]["high"]["weight"] == 6
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stderr.close()
    report = json.loads(report_path.read_text())
    assert report["schema"] == "repro-http-serve-report/v1"
    assert report["metrics"]["completed"] == 1
    assert report["http"]["requests"] >= 3
    assert report["http"]["draining"] is True


def test_serve_async_with_tiered_disk_cache(tmp_path, rng, monkeypatch):
    image_path = tmp_path / "input.png"
    write_image(image_path, (rng.random((10, 10, 3)) * 255).astype(np.uint8))
    cache_dir = tmp_path / "cache"
    lines = "\n".join(
        json.dumps({"path": str(image_path), "id": f"job-{i}"}) for i in range(3)
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    first_report = tmp_path / "first.json"
    assert main(["serve", "-", "--cache-dir", str(cache_dir), "--report", str(first_report)]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    second_report = tmp_path / "second.json"
    assert main(["serve", "-", "--cache-dir", str(cache_dir), "--report", str(second_report)]) == 0
    second = json.loads(second_report.read_text())
    assert second["summary"]["num_cache_hits"] == 3
    assert second["metrics"]["cache"]["l2_hit_rate"] > 0.0


def test_serve_http_worker_fleet_restarts_and_drains(tmp_path, rng):
    """`serve --http --workers N`: kill a worker, fleet recovers, SIGTERM drains."""
    import os
    import re
    import signal
    import subprocess
    import sys as _sys
    import time

    from repro.serve import SegmentClient

    report_path = tmp_path / "fleet-report.json"
    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            _sys.executable, "-c",
            "from repro.cli import main; import sys; sys.exit(main(sys.argv[1:]))",
            "serve", "--http", "127.0.0.1:0", "--workers", "2",
            "--cache-dir", str(tmp_path / "l2"), "--report", str(report_path),
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        # Supervisor and worker log events interleave with the CLI's own
        # announcements on stderr; scan for the lines we need rather than
        # assuming exact positions.
        match = None
        for _ in range(100):
            line = proc.stderr.readline()
            if not line:
                break
            match = re.search(r"listening on http://([\d.]+):(\d+)", line)
            if match:
                break
        assert match, "no listening line in stderr"
        host, port = match.group(1), int(match.group(2))
        pids = []
        for _ in range(100):
            pid_line = proc.stderr.readline()
            if not pid_line:
                break
            pid_match = re.search(r"worker slot=\d+ pid=(\d+)", pid_line)
            if pid_match:
                pids.append(int(pid_match.group(1)))
                if len(pids) == 2:
                    break
        assert len(pids) == 2, "missing worker pid lines in stderr"
        def _children(pid):
            # Union over every task: children are attributed to the thread
            # that spawned them, and restarts come from the monitor thread.
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                return None
            out = set()
            for task in tasks:
                try:
                    with open(f"/proc/{pid}/task/{task}/children") as fh:
                        out.update(int(p) for p in fh.read().split())
                except OSError:
                    continue
            return out

        before = _children(proc.pid)
        observable = before is not None
        os.kill(pids[0], signal.SIGKILL)
        image = (rng.random((10, 12, 3)) * 255).astype(np.uint8)
        deadline = time.monotonic() + 60
        served = False
        while time.monotonic() < deadline:
            try:
                with SegmentClient(host, port, timeout=30) as client:
                    result = client.segment(image)
                assert result.num_segments >= 1
                served = True
                break
            except Exception:  # noqa: BLE001 - killed worker's socket mid-restart
                time.sleep(0.2)
        assert served, "fleet never answered after the worker kill"
        # Wait for the supervisor to actually respawn the killed slot before
        # draining, so the report records the restart deterministically.
        restarted = not observable
        while observable and time.monotonic() < deadline:
            children = _children(proc.pid) or set()
            # The fleet is respawned once the child count is back to what it
            # was before the kill (workers + resource tracker) without the
            # victim among them.
            if len(children) >= len(before) and pids[0] not in children:
                restarted = True
                break
            time.sleep(0.1)
        assert restarted, "supervisor never respawned the killed worker"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=90) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stderr.close()
    report = json.loads(report_path.read_text())
    assert report["schema"] == "repro-http-serve-report/v1"
    if observable:
        assert report["fleet"]["restarts"] >= 1
    assert report["fleet"]["workers"] == 2
    assert report["metrics"]["completed"] >= 1
    assert report["http"]["draining"] is True


def test_serve_fleet_drains_when_another_thread_takes_the_signal(tmp_path):
    """SIGTERM handled on a thread other than the supervisor's main thread.

    The kernel may hand a process-directed signal to any thread that does
    not block it (the fleet monitor, a BLAS worker); the relay thread here
    makes that deterministic with ``pthread_kill`` on itself.
    """
    import os
    import subprocess
    import sys as _sys

    env = dict(os.environ)
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import signal, sys, threading\n"
        "def _relay():\n"
        "    sys.stdin.readline()\n"
        "    signal.pthread_kill(threading.get_ident(), signal.SIGTERM)\n"
        "threading.Thread(target=_relay, daemon=True).start()\n"
        "from repro.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    report_path = tmp_path / "report.json"
    proc = subprocess.Popen(
        [
            _sys.executable,
            "-c",
            code,
            "serve",
            "--http",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--no-shm",
            "--report",
            str(report_path),
        ],
        stdin=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = ""
        for _ in range(100):
            line = proc.stderr.readline()
            if not line or "worker slot=" in line:
                break
        assert "worker slot=" in line, "fleet never announced its worker"
        proc.stdin.write("go\n")
        proc.stdin.flush()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdin.close()
        proc.stderr.close()
    assert json.loads(report_path.read_text())["fleet"]["workers"] == 1


def test_serve_fleet_validates_the_spec_in_the_parent(capsys):
    """A bad --method exits 2 immediately instead of crash-looping workers."""
    assert main(["serve", "--http", "127.0.0.1:0", "--workers", "2",
                 "--method", "no-such-method"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["serve", "--http", "127.0.0.1:0", "--workers", "0"]) == 2

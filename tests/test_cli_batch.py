"""Tests for the ``repro-segment batch`` CLI subcommand."""

import json

import numpy as np

from repro.cli import main
from repro.imaging.io_dispatch import write_image

_REQUIRED_TOP_KEYS = {
    "schema",
    "method",
    "parameters",
    "engine",
    "num_images",
    "images",
    "summary",
}
_REQUIRED_IMAGE_KEYS = {"file", "shape", "num_segments", "fast_path", "runtime_seconds", "metrics"}


def _make_dataset(directory, rng, count=3, with_masks=None, size=(20, 24)):
    directory.mkdir(exist_ok=True)
    for index in range(count):
        image = (rng.random((size[0], size[1], 3)) * 255).astype(np.uint8)
        write_image(directory / f"img_{index}.png", image)
        if with_masks is not None:
            mask = (rng.random(size) > 0.5).astype(np.uint8) * 255
            write_image(with_masks / f"img_{index}.png", mask)


def _strip_runtimes(report):
    report = json.loads(json.dumps(report))  # deep copy
    report["summary"].pop("total_runtime_seconds")
    for entry in report["images"]:
        entry.pop("runtime_seconds")
    return report


def test_batch_writes_schema_conformant_report(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng)
    report_path = tmp_path / "report.json"
    exit_code = main(["batch", str(data), "--report", str(report_path)])
    assert exit_code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == _REQUIRED_TOP_KEYS
    assert report["schema"] == "repro-batch-report/v1"
    assert report["method"] == "iqft-rgb"
    assert report["num_images"] == 3
    assert len(report["images"]) == 3
    for entry in report["images"]:
        assert set(entry) == _REQUIRED_IMAGE_KEYS
        assert entry["fast_path"] == "rgb-lut"
        assert entry["shape"] == [20, 24]
        assert entry["num_segments"] >= 1
        assert entry["metrics"] == {}
    assert report["summary"]["mean_miou"] is None
    assert report["engine"]["use_lut"] is True
    # files are listed in sorted order for reproducibility
    assert [entry["file"] for entry in report["images"]] == sorted(
        entry["file"] for entry in report["images"]
    )


def test_batch_is_deterministic_across_runs(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng)
    reports = []
    for run in range(2):
        path = tmp_path / f"report_{run}.json"
        assert main(["batch", str(data), "--report", str(path)]) == 0
        reports.append(_strip_runtimes(json.loads(path.read_text())))
    assert reports[0] == reports[1]


def test_batch_seeded_stochastic_method_is_deterministic(tmp_path, rng):
    data = tmp_path / "data"
    masks = tmp_path / "masks"
    masks.mkdir()
    _make_dataset(data, rng, count=2, with_masks=masks)
    reports = []
    for run in range(2):
        path = tmp_path / f"report_{run}.json"
        code = main(
            [
                "batch",
                str(data),
                "--report",
                str(path),
                "--method",
                "kmeans",
                "--seed",
                "123",
                "--gt-dir",
                str(masks),
            ]
        )
        assert code == 0
        reports.append(_strip_runtimes(json.loads(path.read_text())))
    assert reports[0] == reports[1]
    assert reports[0]["parameters"]["seed"] == 123


def test_batch_with_ground_truth_reports_metrics(tmp_path, rng):
    data = tmp_path / "data"
    masks = tmp_path / "masks"
    masks.mkdir()
    _make_dataset(data, rng, count=2, with_masks=masks)
    report_path = tmp_path / "report.json"
    code = main(["batch", str(data), "--report", str(report_path), "--gt-dir", str(masks)])
    assert code == 0
    report = json.loads(report_path.read_text())
    for entry in report["images"]:
        assert set(entry["metrics"]) == {"miou", "pixel_accuracy", "dice"}
        assert 0.0 <= entry["metrics"]["miou"] <= 1.0
    assert report["summary"]["mean_miou"] is not None
    assert report["summary"]["mean_dice"] is not None


def test_batch_prints_report_to_stdout_without_report_flag(tmp_path, rng, capsys):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=1)
    assert main(["batch", str(data)]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["schema"] == "repro-batch-report/v1"


def test_batch_options_no_lut_tile_limit_and_gray(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=3, size=(30, 26))
    report_path = tmp_path / "report.json"
    code = main(
        [
            "batch",
            str(data),
            "--report",
            str(report_path),
            "--method",
            "iqft-gray",
            "--theta",
            "12.566",
            "--no-lut",
            "--tile",
            "12",
            "9",
            "--limit",
            "2",
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["num_images"] == 2
    assert report["engine"]["use_lut"] is False
    assert report["engine"]["tiling"] == "always"
    assert report["engine"]["tile_shape"] == [12, 9]
    for entry in report["images"]:
        assert entry["fast_path"] == "tiled"


def test_batch_isolates_per_image_failures(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=2)
    # a grayscale image is incompatible with the RGB method: it must be
    # recorded as a per-image error, not abort the batch
    write_image(data / "gray.pgm", (rng.random((12, 12)) * 255).astype(np.uint8))
    report_path = tmp_path / "report.json"
    assert main(["batch", str(data), "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert report["num_images"] == 3
    assert report["summary"]["num_failed"] == 1
    by_file = {entry["file"]: entry for entry in report["images"]}
    assert "ShapeError" in by_file["gray.pgm"]["error"]
    for name in ("img_0.png", "img_1.png"):
        assert by_file[name]["num_segments"] >= 1


def test_batch_isolates_unreadable_files(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=2)
    (data / "corrupt.png").write_bytes(b"not a png at all")
    report_path = tmp_path / "report.json"
    assert main(["batch", str(data), "--report", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    by_file = {entry["file"]: entry for entry in report["images"]}
    assert "error" in by_file["corrupt.png"]
    assert report["summary"]["num_failed"] == 1
    assert by_file["img_0.png"]["num_segments"] >= 1


def test_batch_theta_recorded_only_when_used(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=1)
    path = tmp_path / "report.json"
    assert main(["batch", str(data), "--method", "otsu", "--report", str(path)]) == 0
    assert json.loads(path.read_text())["parameters"]["theta"] is None
    assert main(["batch", str(data), "--method", "iqft-rgb", "--theta", "6.28",
                 "--report", str(path)]) == 0
    assert json.loads(path.read_text())["parameters"]["theta"] == 6.28


def test_batch_rejects_missing_or_empty_directory(tmp_path):
    assert main(["batch", str(tmp_path / "missing")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty)]) == 2


def test_batch_rejects_bad_method_and_tile_cleanly(tmp_path, rng, capsys):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=1)
    assert main(["batch", str(data), "--method", "no-such-method"]) == 2
    assert "unknown segmenter" in capsys.readouterr().err
    assert main(["batch", str(data), "--tile", "0", "0"]) == 2
    assert "tile_shape" in capsys.readouterr().err


def test_batch_executor_thread_matches_serial(tmp_path, rng):
    data = tmp_path / "data"
    _make_dataset(data, rng, count=2)
    out = {}
    for executor in ("serial", "thread"):
        path = tmp_path / f"report_{executor}.json"
        assert main(["batch", str(data), "--report", str(path), "--executor", executor]) == 0
        out[executor] = _strip_runtimes(json.loads(path.read_text()))
    out["serial"]["engine"].pop("executor")
    out["thread"]["engine"].pop("executor")
    assert out["serial"] == out["thread"]

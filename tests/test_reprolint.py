"""The reprolint static-analysis engine: rules, suppressions, baseline, CLI.

Each rule gets fixture snippets in both directions (firing and non-firing);
the suppression and baseline machinery is pinned down (line-scoped
suppressions, unknown-rule suppressions as findings, stale baseline entries
failing the run so the baseline only shrinks); and the self-clean test
asserts the real repo passes with the committed baseline — which is what
lets the tool sit in the tier-1 path.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.reprolint import META_RULE_ID, all_rules, analyze_paths  # noqa: E402
from tools.reprolint import baseline as baseline_mod  # noqa: E402
from tools.reprolint import sarif as sarif_mod  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402

EXPECTED_RULES = ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL008"]


def run_on_tree(tmp_path, files, rules=None):
    """Materialize ``{relpath: source}`` under ``tmp_path`` and analyze it."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return analyze_paths(tmp_path, rule_ids=rules)


def rule_ids(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #


def test_all_eight_rules_registered_with_metadata():
    rules = all_rules()
    assert [rule.id for rule in rules] == EXPECTED_RULES
    for rule in rules:
        assert rule.name and rule.description
        assert rule.severity in ("error", "warning")


# --------------------------------------------------------------------- #
# RL001 layering
# --------------------------------------------------------------------- #


def test_rl001_fires_on_core_import_in_serve(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {"src/repro/serve/offender.py": "from repro.core.lut import apply_lut\n"},
        rules=["RL001"],
    )
    assert rule_ids(findings) == ["RL001"]
    assert "repro.core.lut" in findings[0].message


def test_rl001_fires_on_relative_core_and_engine_submodule(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/offender.py": (
                "from ..core import IQFTSegmenter\n"
                "from repro.engine.engine import _hook\n"
                "from ..engine import BatchSegmentationEngine\n"  # sanctioned
            )
        },
        rules=["RL001"],
    )
    assert rule_ids(findings) == ["RL001", "RL001"]
    assert findings[0].line == 1 and findings[1].line == 2


def test_rl001_clean_on_engine_surface_and_outside_serve(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/fine.py": "from repro.engine import BatchSegmentationEngine\n",
            "src/repro/engine/impl.py": "from repro.core.lut import apply_lut\n",
        },
        rules=["RL001"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL002 wall clock
# --------------------------------------------------------------------- #


def test_rl002_fires_on_time_time_in_serve(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {"src/repro/serve/_aio.py": "import time\n\ndef now():\n    return time.time()\n"},
        rules=["RL002"],
    )
    assert rule_ids(findings) == ["RL002"]
    assert findings[0].line == 4


def test_rl002_fires_on_argless_datetime_now_but_not_tz_aware(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/obs/stamp.py": (
                "from datetime import datetime, timezone\n"
                "naive = datetime.now()\n"
                "aware = datetime.now(timezone.utc)\n"
                "legacy = datetime.utcnow()\n"
            )
        },
        rules=["RL002"],
    )
    assert [(f.rule, f.line) for f in findings] == [("RL002", 2), ("RL002", 4)]


def test_rl002_allowlists_diskcache_and_ignores_monotonic(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_diskcache.py": "import time\nage = time.time()\n",
            "src/repro/serve/_batcher.py": "import time\nnow = time.monotonic()\n",
            "src/repro/core/solver.py": "import time\nwall = time.time()\n",  # not serve path
        },
        rules=["RL002"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL003 blocking calls in async def
# --------------------------------------------------------------------- #


def test_rl003_fires_on_sleep_open_subprocess_in_async(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_aio.py": """\
                import subprocess
                import time

                async def handler(path):
                    time.sleep(1.0)
                    with open(path) as fh:
                        data = fh.read()
                    subprocess.run(["ls"])
                    return data
                """
        },
        rules=["RL003"],
    )
    assert rule_ids(findings) == ["RL003", "RL003", "RL003"]
    assert "handler" in findings[0].message


def test_rl003_clean_on_sync_defs_executor_thunks_and_callables(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_spool.py": """\
                import asyncio
                import time

                def sync_helper(path):
                    time.sleep(0.1)
                    with open(path) as fh:
                        return fh.read()

                async def handler(loop, path):
                    def thunk():
                        return open(path).read()

                    await loop.run_in_executor(None, thunk)
                    return await loop.run_in_executor(None, sync_helper, path)
                """
        },
        rules=["RL003"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL004 broad except
# --------------------------------------------------------------------- #


def test_rl004_fires_on_silent_broad_and_bare_except(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/worker.py": """\
                def run(task):
                    try:
                        task()
                    except Exception:
                        pass
                    try:
                        task()
                    except:
                        return None
                """
        },
        rules=["RL004"],
    )
    assert rule_ids(findings) == ["RL004", "RL004"]
    assert "except Exception" in findings[0].message
    assert "bare 'except:'" in findings[1].message


def test_rl004_clean_when_error_is_accounted_for(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/worker.py": """\
                def run(task, log, future):
                    try:
                        task()
                    except Exception:
                        raise RuntimeError("wrapped")
                    try:
                        task()
                    except Exception as exc:
                        log.warning("task_error", error=str(exc))
                    try:
                        task()
                    except Exception:
                        self._errors += 1
                    try:
                        task()
                    except Exception as exc:
                        future.set_exception(exc)
                    try:
                        task()
                    except ValueError:
                        pass
                """
        },
        rules=["RL004"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL005 pickle ban
# --------------------------------------------------------------------- #


def test_rl005_fires_on_pickle_import_and_implicit_np_load(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_diskcache.py": """\
                import pickle
                import numpy as np

                def load(path):
                    return np.load(path)

                def risky(path):
                    return np.load(path, allow_pickle=True)
                """
        },
        rules=["RL005"],
    )
    assert rule_ids(findings) == ["RL005", "RL005", "RL005"]
    assert "pickle-free" in findings[0].message
    assert "allow_pickle=False" in findings[1].message
    assert "re-enables pickle" in findings[2].message


def test_rl005_clean_on_explicit_false_and_outside_serve(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_diskcache.py": (
                "import numpy as np\n\ndef load(path):\n"
                "    return np.load(path, allow_pickle=False)\n"
            ),
            "src/repro/experiments/sweep.py": "import pickle\n",  # not a cache/IPC module
        },
        rules=["RL005"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL006 atomic publish
# --------------------------------------------------------------------- #


def test_rl006_fires_on_unreplaced_write_in_cache_module(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_diskcache.py": """\
                def store(path, payload):
                    with open(path, "wb") as fh:
                        fh.write(payload)
                """
        },
        rules=["RL006"],
    )
    assert rule_ids(findings) == ["RL006"]
    assert "os.replace" in findings[0].message


def test_rl006_clean_on_temp_then_replace_exclusive_create_and_noncache(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_diskcache.py": """\
                import os

                def store(path, payload):
                    tmp = path + ".tmp"
                    with open(tmp, "wb") as fh:
                        fh.write(payload)
                    os.replace(tmp, path)

                def lock(path):
                    with open(path, "x") as fh:
                        fh.write("owner")
                """,
            "src/repro/serve/_spool.py": (
                "def write(path, text):\n"
                '    with open(path, "w") as fh:\n'
                "        fh.write(text)\n"
            ),
        },
        rules=["RL006"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL007 lock discipline
# --------------------------------------------------------------------- #


def test_rl007_fires_on_unscoped_acquire_and_await_under_sync_lock(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_state.py": """\
                class State:
                    def leak(self):
                        self._lock.acquire()
                        self.value += 1
                        self._lock.release()

                    async def stall(self, task):
                        with self._lock:
                            await task
                """
        },
        rules=["RL007"],
    )
    assert rule_ids(findings) == ["RL007", "RL007"]
    assert "acquire()" in findings[0].message
    assert "holding synchronous lock" in findings[1].message


def test_rl007_clean_on_with_try_finally_and_async_lock(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/serve/_state.py": """\
                class State:
                    def scoped(self):
                        with self._lock:
                            self.value += 1

                    def manual(self):
                        self._lock.acquire()
                        try:
                            self.value += 1
                        finally:
                            self._lock.release()

                    async def fine(self, task):
                        async with self._alock:
                            await task
                        with self._lock:
                            self.value += 1
                """
        },
        rules=["RL007"],
    )
    assert findings == []


# --------------------------------------------------------------------- #
# RL008 public surface
# --------------------------------------------------------------------- #


def test_rl008_fires_on_unresolved_all_name(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/pkg.py": (
                '__all__ = ["exists", "ghost"]\n\ndef exists():\n    return 1\n'
            )
        },
        rules=["RL008"],
    )
    assert rule_ids(findings) == ["RL008"]
    assert "'ghost'" in findings[0].message


def test_rl008_understands_lazy_pep562_export_tables(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/pkg/__init__.py": """\
                _EXPORTS = {"Engine": "_impl", "Service": "_impl"}

                __all__ = list(_EXPORTS)

                def __getattr__(name):
                    raise AttributeError(name)
                """
        },
        rules=["RL008"],
    )
    assert findings == []


def test_rl008_fires_without_getattr_for_lazy_table(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/pkg/__init__.py": (
                '_EXPORTS = {"Engine": "_impl"}\n\n__all__ = list(_EXPORTS)\n'
            )
        },
        rules=["RL008"],
    )
    assert rule_ids(findings) == ["RL008"]


# --------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------- #


def test_suppression_honored_only_on_the_flagged_line(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/obs/clockuse.py": (
                "import time\n"
                "a = time.time()  # reprolint: disable=RL002 boot stamp only\n"
                "# reprolint: disable=RL002\n"
                "b = time.time()\n"  # the comment above does NOT cover this line
            )
        },
        rules=["RL002"],
    )
    assert [(f.rule, f.line) for f in findings] == [("RL002", 4)]


def test_suppression_supports_multiple_rules_per_comment(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/obs/clockuse.py": (
                "import time\n"
                "a = time.time()  # reprolint: disable=RL001,RL002 reason here\n"
            )
        },
        rules=["RL002"],
    )
    assert findings == []


def test_unknown_rule_in_suppression_is_itself_a_finding(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {"src/repro/obs/clockuse.py": "value = 1  # reprolint: disable=RL999\n"},
    )
    assert rule_ids(findings) == [META_RULE_ID]
    assert "RL999" in findings[0].message


def test_suppression_pattern_inside_a_string_is_ignored(tmp_path):
    findings = run_on_tree(
        tmp_path,
        {
            "src/repro/obs/clockuse.py": (
                '"""Docs showing the syntax: # reprolint: disable=RL999."""\n'
                "text = '# reprolint: disable=RL888'\n"
            )
        },
    )
    assert findings == []


# --------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------- #


def _violation_tree(tmp_path):
    return {
        "src/repro/obs/wallclock.py": "import time\n\ndef now():\n    return time.time()\n"
    }


def test_baseline_grandfathers_then_reports_stale_when_fixed(tmp_path, capsys):
    for rel, content in _violation_tree(tmp_path).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True)
        path.write_text(content, encoding="utf-8")
    baseline_file = tmp_path / "baseline.json"
    root_args = ["--root", str(tmp_path), "--baseline", str(baseline_file)]

    assert reprolint_main(root_args) == 1  # new finding, no baseline yet
    assert reprolint_main(root_args + ["--write-baseline"]) == 0
    assert reprolint_main(root_args) == 0  # grandfathered
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # fixing the violation makes the baseline entry stale — the run fails
    # until the baseline is shrunk, so it can only ever get smaller
    (tmp_path / "src/repro/obs/wallclock.py").write_text(
        "import time\n\ndef now():\n    return time.monotonic()\n", encoding="utf-8"
    )
    assert reprolint_main(root_args) == 1
    out = capsys.readouterr().out
    assert "stale baseline entry" in out
    assert reprolint_main(root_args + ["--write-baseline"]) == 0
    assert reprolint_main(root_args) == 0
    doc = json.loads(baseline_file.read_text(encoding="utf-8"))
    assert doc["findings"] == []


def test_baseline_excess_occurrences_are_new_findings(tmp_path):
    for rel, content in _violation_tree(tmp_path).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True)
        path.write_text(content + "\nmore = time.time()\n", encoding="utf-8")
    all_findings = analyze_paths(tmp_path, rule_ids=["RL002"])
    assert len(all_findings) == 2
    counts = baseline_mod.split(all_findings, {all_findings[0].baseline_key: 1})
    new, grandfathered, stale = counts
    assert len(new) == 1 and len(grandfathered) == 1 and stale == []


def test_partial_runs_do_not_report_out_of_scope_baseline_as_stale(tmp_path, capsys):
    tree = dict(_violation_tree(tmp_path))
    tree["src/repro/obs/other.py"] = "import time\nother = time.time()\n"
    for rel, content in tree.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    baseline_file = tmp_path / "baseline.json"
    base = ["--root", str(tmp_path), "--baseline", str(baseline_file)]
    assert reprolint_main(base + ["--write-baseline"]) == 0
    # analyzing only wallclock.py must not call other.py's baseline entry stale
    assert reprolint_main(base + ["src/repro/obs/wallclock.py"]) == 0


# --------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------- #


def test_sarif_output_is_structurally_valid(tmp_path):
    for rel, content in _violation_tree(tmp_path).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True)
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "report.sarif"
    rc = reprolint_main(
        ["--root", str(tmp_path), "--no-baseline", "--format", "sarif", "--output", str(out)]
    )
    assert rc == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    sarif_mod.validate(doc)
    results = doc["runs"][0]["results"]
    assert any(result["ruleId"] == "RL002" for result in results)
    driver_rules = {rule["id"] for rule in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert set(EXPECTED_RULES) | {META_RULE_ID} <= driver_rules


def test_json_report_counts_by_rule(tmp_path):
    for rel, content in _violation_tree(tmp_path).items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True)
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "report.json"
    rc = reprolint_main(
        ["--root", str(tmp_path), "--no-baseline", "--format", "json", "--output", str(out)]
    )
    assert rc == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "reprolint-report/v1"
    assert doc["counts"]["by_rule"] == {"RL002": 1}
    assert doc["findings"][0]["path"] == "src/repro/obs/wallclock.py"


# --------------------------------------------------------------------- #
# the real repo
# --------------------------------------------------------------------- #


def test_repo_is_clean_with_the_committed_baseline():
    """Self-clean: the full rule set over the real tree, inside the budget."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 5.0, f"reprolint took {elapsed:.1f}s — too slow for the tier-1 path"


def test_seeded_violation_fails_the_run(tmp_path):
    """A time.time() added to a serve module must flip the exit code."""
    findings = run_on_tree(
        tmp_path,
        {"src/repro/serve/_aio.py": "import time\n\ndef tick():\n    return time.time()\n"},
        rules=["RL002"],
    )
    assert rule_ids(findings) == ["RL002"]
    rc = reprolint_main(["--root", str(tmp_path), "--no-baseline", "--rules", "RL002"])
    assert rc == 1

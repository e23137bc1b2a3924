"""The serve layer imports compute only through the ``repro.engine`` surface.

reprolint rule RL001 (``python -m tools.reprolint --rules RL001``) is the CI
gate; these tests run the same checker in the tier-1 suite (so a violation
fails locally before CI sees it) and pin its detection logic against
synthetic trees — including the relative-import resolution, which is where
an AST-based checker most easily goes blind.
"""

import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
if str(_REPO) not in sys.path:
    sys.path.insert(0, str(_REPO))

from tools.reprolint.rules.layering import check_layering  # noqa: E402


def test_repo_tree_has_no_layering_violations():
    assert check_layering(_SRC) == []


def _write_tree(root: Path, serve_source: str) -> Path:
    serve = root / "repro" / "serve"
    serve.mkdir(parents=True)
    (root / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (serve / "__init__.py").write_text("", encoding="utf-8")
    (serve / "offender.py").write_text(serve_source, encoding="utf-8")
    return root


def test_checker_flags_absolute_core_import(tmp_path):
    _write_tree(tmp_path, "from repro.core.lut import apply_lut\n")
    violations = check_layering(tmp_path)
    assert len(violations) == 1
    assert "repro.core.lut" in violations[0]


def test_checker_flags_relative_core_import(tmp_path):
    _write_tree(tmp_path, "from ..core import IQFTSegmenter\n")
    violations = check_layering(tmp_path)
    assert len(violations) == 1
    assert "repro.core" in violations[0]


def test_checker_flags_engine_submodule_but_allows_surface(tmp_path):
    _write_tree(
        tmp_path,
        "from ..engine import BatchSegmentationEngine\n"  # sanctioned
        "from repro.engine.engine import _hook_accepts_backend\n",  # internal
    )
    violations = check_layering(tmp_path)
    assert len(violations) == 1
    assert "repro.engine.engine" in violations[0]


def test_checker_cli_exits_zero_on_the_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "--rules", "RL001"],
        cwd=_REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

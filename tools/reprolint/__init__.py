"""reprolint — repo-native static analysis for the serve stack's contracts.

Zero-dependency, AST-based: one parse per file, a registry of rules that
each enforce an invariant this codebase learned the hard way (monotonic
clocks on the serve path, a never-blocked event loop, strict
engine → serve layering, pickle-free shared caches, atomic cache
publishes, lock discipline, accountable broad excepts, a consistent public
surface).  Run ``python -m tools.reprolint`` from the repo root;
``--list-rules`` prints the rule table, ``--format sarif`` emits SARIF for
CI, and ``tools/reprolint/baseline.json`` grandfathers pre-existing
findings (the baseline only shrinks — stale entries fail the run).

New serve-layer invariants should land here as rules, not as ad-hoc
scripts — see CONTRIBUTING.md.
"""

from .cli import main
from .engine import (
    META_RULE_ID,
    FileContext,
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    get_rules,
    register,
)

__all__ = [
    "META_RULE_ID",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "get_rules",
    "main",
    "register",
]

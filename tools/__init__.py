"""Repo tooling namespace (``tools.reprolint``).

Nothing here ships in the wheel — the package exists so the static-analysis
engine can be invoked as ``python -m tools.reprolint`` from the repo root
and imported by the test suite.
"""

"""RL001 — the serve layer imports compute only via the ``repro.engine`` surface.

The architecture is a strict stack (``repro.backend -> repro.engine ->
repro.serve -> fleet/CLI``); serve code importing ``repro.core.*`` or an
engine *submodule* couples the serving stack to compute internals and makes
the public-surface promise in ``repro/__init__.py`` unenforceable.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

from ..engine import FileContext, Finding, Rule, module_name, register

#: Module prefixes the serve layer must not import (exact module or any
#: submodule).  ``repro.engine`` itself is NOT listed: the package surface
#: is the sanctioned route; only its submodules are internal.
FORBIDDEN_PREFIXES = ("repro.core",)

#: Packages whose *submodules* are internal even though the package surface
#: is public: ``from repro.engine import X`` is fine, ``from
#: repro.engine.engine import X`` is not.
SURFACE_ONLY_PACKAGES = ("repro.engine",)


def _resolve_relative(module: str, level: int, importing_module: str) -> str:
    """Absolute dotted name for a ``from ...module import`` statement."""
    package_parts = importing_module.split(".")[:-1]  # containing package
    if level > 1:
        package_parts = package_parts[: len(package_parts) - (level - 1)]
    base = ".".join(package_parts)
    if module:
        return f"{base}.{module}" if base else module
    return base


def imported_modules(tree: ast.AST, importing_module: str) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield (
                    node.lineno,
                    _resolve_relative(node.module or "", node.level, importing_module),
                )
            elif node.module:
                yield node.lineno, node.module


def violation_messages(tree: ast.AST, importing_module: str) -> Iterator[Tuple[int, str]]:
    for lineno, target in imported_modules(tree, importing_module):
        for prefix in FORBIDDEN_PREFIXES:
            if target == prefix or target.startswith(prefix + "."):
                yield (
                    lineno,
                    f"imports {target!r} — the serve layer must go through the "
                    f"repro.engine surface, never repro.core",
                )
        for package in SURFACE_ONLY_PACKAGES:
            if target.startswith(package + "."):
                yield (
                    lineno,
                    f"imports {target!r} — import from the {package!r} package "
                    f"surface instead of its submodules",
                )


@register
class LayeringRule(Rule):
    id = "RL001"
    name = "serve-layering"
    severity = "error"
    description = (
        "serve-layer modules must import compute only through the repro.engine "
        "package surface — never repro.core or engine submodules"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module == "repro.serve" or ctx.module.startswith("repro.serve.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for lineno, message in violation_messages(ctx.tree, ctx.module):
            yield ctx.finding(self, lineno, message)


def check_layering(src_root: Path) -> List[str]:
    """RL001 over ``<src_root>/repro/serve`` as one string per violation.

    Each string is ``path:line: message`` (absolute path); the list is empty
    when the serve layer respects the engine surface.
    """
    serve_dir = Path(src_root) / "repro" / "serve"
    out: List[str] = []
    for path in sorted(serve_dir.rglob("*.py")):
        importing_module = module_name(path, Path(src_root))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, message in violation_messages(tree, importing_module):
            out.append(f"{path}:{lineno}: {message}")
    return out

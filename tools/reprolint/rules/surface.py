"""RL008 — the public surface stays consistent.

Every name in a module's ``__all__`` must resolve — either defined/imported
statically, or reachable through the module's lazy PEP-562 export table (a
literal dict whose keys are the lazy names, when ``__getattr__`` is
defined).  ``__all__ = list(_EXPORTS)`` and ``[..., *_EXPORTS]`` are
understood.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..engine import FileContext, Finding, Rule, register


def _literal_str_elements(node: ast.AST, lazy_tables: dict) -> Optional[List[str]]:
    """Resolve an ``__all__`` value to a list of names, if statically possible."""
    if isinstance(node, (ast.List, ast.Tuple)):
        names: List[str] = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
            elif isinstance(element, ast.Starred):
                inner = _literal_str_elements(element.value, lazy_tables)
                if inner is None:
                    return None
                names.extend(inner)
            else:
                return None
        return names
    if isinstance(node, ast.Name) and node.id in lazy_tables:
        return list(lazy_tables[node.id])
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "sorted", "tuple")
        and len(node.args) == 1
    ):
        return _literal_str_elements(node.args[0], lazy_tables)
    return None


def _lazy_export_tables(tree: ast.Module) -> dict:
    """Top-level ``NAME = {literal str keys: ...}`` assignments."""
    tables = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Dict):
            continue
        keys = []
        for key in node.value.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.append(key.value)
            else:
                keys = None
                break
        if keys is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                tables[target.id] = keys
    return tables


def _defined_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    names.update(
                        element.id for element in target.elts if isinstance(element, ast.Name)
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # names bound on either branch count (TYPE_CHECKING blocks, guards)
            names.update(_defined_names(ast.Module(body=_branch_bodies(node), type_ignores=[])))
    return names


def _branch_bodies(node: ast.AST) -> List[ast.stmt]:
    bodies: List[ast.stmt] = []
    for attr in ("body", "orelse", "finalbody"):
        bodies.extend(getattr(node, attr, []) or [])
    for handler in getattr(node, "handlers", []) or []:
        bodies.extend(handler.body)
    return bodies


@register
class PublicSurfaceRule(Rule):
    id = "RL008"
    name = "public-surface-consistency"
    severity = "error"
    description = "__all__ names must resolve (statically or via the lazy export table)"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module == "repro" or ctx.module.startswith("repro.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        tree = ctx.tree
        lazy_tables = _lazy_export_tables(tree)
        has_getattr = any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in tree.body
        )
        resolvable = _defined_names(tree)
        if has_getattr:
            for keys in lazy_tables.values():
                resolvable.update(keys)
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                continue
            names = _literal_str_elements(node.value, lazy_tables)
            if names is None:
                continue  # dynamically built __all__: out of static reach
            for name in names:
                if name not in resolvable:
                    yield ctx.finding(
                        self,
                        node,
                        f"__all__ exports {name!r} but nothing in the module defines "
                        f"it (statically or via the lazy export table)",
                    )

"""P-rules: value-object purity and private-state boundaries.

The sweep pipeline's correctness story leans on frozen value objects
(:class:`AllocationPlan`, :class:`ScenarioSpec`, :class:`CellResult`,
...) being *actually* immutable once they leave their module: they
are hashed into manifests, pickled across processes and compared
against goldens.  Python's only escape hatch, ``object.__setattr__``,
is legitimate exactly once — a frozen dataclass normalising its own
fields in ``__post_init__`` (receiver ``self``).  Everything else is
a mutation of somebody else's sealed value:

- **P301** — ``object.__setattr__`` (or a local alias of it) with a
  receiver other than ``self``/``cls``, in any module.
- **P303** — in ``core/``, ``baselines/`` and ``sim/`` modules,
  ``x._name`` with a receiver other than ``self``/``cls`` where
  ``_name`` is not an attribute the same module defines (assigned on
  ``self``/``cls`` or bound in a class body).  Reading another
  module's private state couples a decision round, the plan
  controller or the reference loop to that module's internals; expose
  a public method or read-only view instead.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set

from repro.devtools.lint.core import Finding, LintConfig, snippet_at

_SELF_NAMES = ("self", "cls")

#: The policy, runtime and simulator layers, which reach other
#: objects through public seams only (P303).
_PRIVATE_SCOPE = (
    "src/repro/core/", "src/repro/baselines/", "src/repro/sim/",
)

__all__ = ["check_prules"]


def check_prules(
    tree: ast.AST,
    lines: Sequence[str],
    rel: str,
    config: LintConfig,
) -> List[Finding]:
    visitor = _PurityVisitor(lines, rel, config)
    if config.path_allowed(rel, _PRIVATE_SCOPE):
        visitor.own_private = _own_private_names(tree)
    visitor.visit(tree)
    return visitor.findings


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not (
        attr.startswith("__") and attr.endswith("__")
    )


def _own_private_names(tree: ast.AST) -> Set[str]:
    """Private attribute names the module itself defines: assigned on
    ``self``/``cls``, or bound by a def or assignment in a class
    body."""
    names: List[str] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id in _SELF_NAMES
        ):
            names.append(node.attr)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        stmt.targets if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    names.extend(
                        t.id for t in targets if isinstance(t, ast.Name)
                    )
    return {n for n in names if _is_private(n)}


def _is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


class _PurityVisitor(ast.NodeVisitor):
    def __init__(
        self, lines: Sequence[str], rel: str, config: LintConfig
    ) -> None:
        self.lines = lines
        self.rel = rel
        self.config = config
        self.findings: List[Finding] = []
        #: local names bound to object.__setattr__ (the
        #: ``st = object.__setattr__`` idiom).
        self._setattr_aliases: Set[str] = set()
        #: Private names this module defines (P303); None when the
        #: module is outside ``_PRIVATE_SCOPE``.
        self.own_private: Optional[Set[str]] = None

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.rel, line=node.lineno,
            col=node.col_offset, message=message,
            snippet=snippet_at(self.lines, node.lineno),
        ))

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_object_setattr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._setattr_aliases.add(target.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_object_setattr(node.func) or (
            isinstance(node.func, ast.Name)
            and node.func.id in self._setattr_aliases
        ):
            receiver = node.args[0] if node.args else None
            if not (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
            ):
                self._emit(
                    "P301", node,
                    "object.__setattr__ on a non-self receiver "
                    "mutates a frozen value object from outside; "
                    "normalise fields in the object's own "
                    "__post_init__ or build a new value",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        own = self.own_private
        if (
            own is not None
            and _is_private(node.attr)
            and node.attr not in own
            and not (
                isinstance(node.value, ast.Name)
                and node.value.id in _SELF_NAMES
            )
        ):
            self._emit(
                "P303", node,
                f"{node.attr} is private state of another module's "
                f"object; read it through a public read-only view",
            )
        self.generic_visit(node)

"""R-rules: lock coverage over thread-shared classes.

The PR 8 execution layer serves a :class:`Coordinator` from a
``ThreadingHTTPServer`` — every protocol verb runs on its own handler
thread, and the ledger/accumulator behind it are plain single-writer
value machines.  The invariant that keeps that sound is *lock
coverage*: all guarded state is only touched under ``self._lock``.
This module checks it statically, per class, for classes carrying a
``# repro-lint: thread-shared`` marker on their ``class`` line:

- **R201** — a write (``self._x = ...``, ``+=``, ``del``) to an
  underscore attribute outside ``__init__`` that is not dominated by
  ``with self.<lock>``.  With ``lock=none`` every such write is
  flagged (the class has declared it has no lock to hold).
- **R202** — a *public* method reading guarded state (underscore
  attributes, plus any ``guards=`` names from the marker, e.g. the
  coordinator's ``ledger``/``acc``/``workers``) outside the lock.
  This is the "every public verb acquires the lock on entry" rule.
- **R203** — a public method calling, outside the lock, a private
  helper that needs the lock held.  Private helpers are *assumed*
  lock-held (the coordinator's ``_worker_record`` pattern: acquire
  in the verb, share the helper), and the assumption is discharged
  at every call site; needing-the-lock propagates transitively
  through private-to-private calls.

Domination is lexical: a ``with self.<lock>:`` block covers its body,
including nested function definitions (the callback pattern).  The
analysis is intraprocedural per class — calls from *outside* the
class are the transport seam's problem, which is exactly where the
trust boundary already sits.

``# repro-lint: single-writer owner=X`` is the declarative escape
hatch for classes (``WorkLedger``) that are unlocked by design and
serialised by an owning class; the owner names them in its own
``guards=`` list, which is what proves the coverage.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.devtools.lint.core import (
    ClassMarker,
    Finding,
    LintConfig,
    snippet_at,
)

__all__ = ["check_rrules"]

#: Methods exempt from lock checks: construction happens-before
#: publication to other threads, and the context-manager protocol
#: only dispatches to public methods that lock for themselves.
_EXEMPT_METHODS = frozenset({
    "__init__", "__post_init__", "__new__", "__del__",
    "__enter__", "__exit__", "__repr__",
})


@dataclass
class _Access:
    attr: str
    line: int
    col: int
    locked: bool
    is_write: bool


@dataclass
class _MethodScan:
    name: str
    public: bool
    accesses: List[_Access] = field(default_factory=list)
    #: (helper_name, line, col, locked) for self._helper(...) calls.
    helper_calls: List[Tuple[str, int, int, bool]] = (
        field(default_factory=list)
    )


def check_rrules(
    tree: ast.AST,
    lines: Sequence[str],
    rel: str,
    config: LintConfig,
    markers_at: Dict[int, ClassMarker],
) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        marker = markers_at.get(node.lineno)
        if marker is None or marker.kind != "thread-shared":
            continue
        findings.extend(
            _check_class(node, marker, lines, rel)
        )
    return findings


def _check_class(
    cls: ast.ClassDef,
    marker: ClassMarker,
    lines: Sequence[str],
    rel: str,
) -> List[Finding]:
    lock = marker.lock
    guards = set(marker.guards)
    scans: Dict[str, _MethodScan] = {}
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan = _MethodScan(
                name=item.name,
                public=not item.name.startswith("_"),
            )
            _scan(item, lock, guards, scan, locked=False)
            scans[item.name] = scan

    findings: List[Finding] = []

    def emit(rule: str, line: int, col: int, message: str) -> None:
        findings.append(Finding(
            rule=rule, path=rel, line=line, col=col,
            message=message, snippet=snippet_at(lines, line),
        ))

    if lock == "none":
        # No lock to hold: any shared-attribute write outside
        # construction is a race by definition (suppress with a
        # reason when the write is genuinely GIL-atomic).
        for scan in scans.values():
            if scan.name in _EXEMPT_METHODS:
                continue
            for acc in scan.accesses:
                if acc.is_write:
                    emit(
                        "R201", acc.line, acc.col,
                        f"{cls.name}.{scan.name} writes shared "
                        f"'self.{acc.attr}' but the class is marked "
                        f"lock=none",
                    )
        return findings

    # Fixed point: which private methods need the lock held on entry?
    needs_lock: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for scan in scans.values():
            if scan.public or scan.name in needs_lock:
                continue
            if scan.name in _EXEMPT_METHODS:
                continue
            touches = any(
                not acc.locked for acc in scan.accesses
            ) or any(
                not locked and helper in needs_lock
                for helper, _, _, locked in scan.helper_calls
            )
            if touches:
                needs_lock.add(scan.name)
                changed = True

    for scan in scans.values():
        if scan.name in _EXEMPT_METHODS:
            continue
        if not scan.public:
            continue
        for acc in scan.accesses:
            if acc.locked:
                continue
            if acc.is_write:
                emit(
                    "R201", acc.line, acc.col,
                    f"{cls.name}.{scan.name} writes shared "
                    f"'self.{acc.attr}' outside 'with self.{lock}'",
                )
            else:
                emit(
                    "R202", acc.line, acc.col,
                    f"{cls.name}.{scan.name} is public and touches "
                    f"guarded 'self.{acc.attr}' outside "
                    f"'with self.{lock}'",
                )
        for helper, line, col, locked in scan.helper_calls:
            if not locked and helper in needs_lock:
                emit(
                    "R203", line, col,
                    f"{cls.name}.{scan.name} calls lock-requiring "
                    f"helper 'self.{helper}()' outside "
                    f"'with self.{lock}'",
                )
    return findings


def _is_lock_with(node, lock: str) -> bool:
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr == lock
        ):
            return True
        # self._lock.acquire()-style context managers or
        # `with self._lock as l` are covered by the Attribute case
        # above; condition variables (`with self._cv`) would need
        # their own marker option.
    return False


def _guarded_self_attr(
    node: ast.AST, lock: str, guards: Set[str]
) -> str:
    """The guarded attribute name a ``self.X`` node touches, or ''."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        attr = node.attr
        if attr == lock:
            return ""
        if attr.startswith("_") or attr in guards:
            return attr
    return ""


def _scan(
    node: ast.AST,
    lock: str,
    guards: Set[str],
    scan: _MethodScan,
    locked: bool,
) -> None:
    """Walk a method body recording guarded accesses with their
    lock-domination state."""
    if isinstance(node, (ast.With, ast.AsyncWith)):
        inner = locked or _is_lock_with(node, lock)
        for item in node.items:
            _scan(item.context_expr, lock, guards, scan, locked)
        for child in node.body:
            _scan(child, lock, guards, scan, inner)
        return
    if isinstance(node, ast.Attribute):
        attr = _guarded_self_attr(node, lock, guards)
        if attr:
            scan.accesses.append(_Access(
                attr=attr, line=node.lineno, col=node.col_offset,
                locked=locked,
                is_write=isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ),
            ))
        _scan(node.value, lock, guards, scan, locked)
        return
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr.startswith("_")
            and func.attr != lock
        ):
            scan.helper_calls.append(
                (func.attr, node.lineno, node.col_offset, locked)
            )
            # The attribute read itself (self._helper) is part of the
            # call record, not a state access: skip down to the args.
            for arg in node.args:
                _scan(arg, lock, guards, scan, locked)
            for kw in node.keywords:
                _scan(kw.value, lock, guards, scan, locked)
            return
        for child in ast.iter_child_nodes(node):
            _scan(child, lock, guards, scan, locked)
        return
    for child in ast.iter_child_nodes(node):
        _scan(child, lock, guards, scan, locked)

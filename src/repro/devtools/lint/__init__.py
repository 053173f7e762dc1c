"""repro-lint: project-specific static analysis.

Three rule families, tuned to the guarantees this codebase sells
rather than to generic style:

- **D-rules (determinism)** — every sweep artifact is golden-pinned
  byte-for-byte, so anything that could make two runs differ (global
  RNGs, wall-clock reads, unordered set iteration feeding ordered
  output, unsorted directory listings, ``hash()`` order) is flagged
  at the source level instead of caught by an expensive CI diff.
- **R-rules (lock coverage)** — the coordinator/worker execution
  layer mutates shared state from HTTP handler threads; classes
  marked ``# repro-lint: thread-shared`` get a lightweight race
  detector: shared-attribute writes and guarded-state access must be
  dominated by ``with self._lock``.
- **P-rules (value-object purity)** — frozen dataclasses are only
  mutated (``object.__setattr__``) by their own ``__post_init__``,
  and the policy, runtime and simulator layers read no other
  module's private state.

Entry points: :func:`lint_paths` (the ``scripts/lint_repro.py`` CLI
driver), :func:`lint_source` (fixture tests).  See
:mod:`repro.devtools.lint.core` for suppressions, markers and the
baseline format, and README.md ("Static analysis & invariants") for
the rule catalogue.
"""

from repro.devtools.lint.core import (
    RULES,
    Finding,
    LintConfig,
    LintReport,
    baseline_entries,
    lint_paths,
    lint_source,
    load_baseline,
    render_json,
    render_text,
    save_baseline,
)

__all__ = [
    "RULES",
    "Finding",
    "LintConfig",
    "LintReport",
    "baseline_entries",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "render_json",
    "render_text",
    "save_baseline",
]

"""repro-lint core: findings, directives, baseline, driver.

The analysis itself lives in the per-family modules
(:mod:`~repro.devtools.lint.drules`, :mod:`~repro.devtools.lint.
rrules`, :mod:`~repro.devtools.lint.prules`); this module owns
everything they share:

Directives
----------

All in-source communication with the linter rides one comment shape::

    # repro-lint: allow[D103] -- completion-order iteration; folded by index
    # repro-lint: allow[D102,D105] -- bench timing, never serialised
    class Coordinator:  # repro-lint: thread-shared guards=ledger,acc,workers
    class WorkLedger:   # repro-lint: single-writer owner=Coordinator._lock

``allow`` suppresses the named rules on its own line (or, when the
comment stands alone on a line, on the next line).  The reason after
``--`` is **mandatory** — a reasonless suppression is itself a finding
(L001), and naming an unknown rule is one too (L002).

``thread-shared`` marks a class for the R-family race detector.
Options: ``lock=NAME`` (the guarding attribute, default ``_lock``;
``lock=none`` for classes whose only cross-thread state is a
GIL-atomic flag — writes to ``self._*`` are then flagged
unconditionally), ``guards=a,b`` (extra non-underscore attributes,
e.g. ``ledger``, whose access must also be lock-dominated).
``single-writer`` is declarative: it documents that an unlocked class
is serialised by an external owner and is deliberately not checked
(the owner's ``guards=`` entry is what proves the coverage).

Baseline
--------

A checked-in JSON file recording findings that are understood and
accepted, so the lint gate stays at zero *new* findings.  Each entry
carries a mandatory reason and matches by ``(rule, path, snippet)`` —
the stripped source line — so entries survive unrelated edits moving
line numbers.  Entries for a linted file that no longer match anything
are reported as stale (a nudge to prune, not a failure).
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "RULES",
    "ClassMarker",
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

#: Every rule the pass can emit, with its one-line description.
RULES: Dict[str, str] = {
    "L001": "repro-lint suppression without a reason",
    "L002": "repro-lint directive names an unknown rule",
    "L003": "file does not parse",
    "D101": "unseeded random number generator (module-level random.* "
            "or random.Random() with no seed)",
    "D102": "wall-clock read (time.time / datetime.now) outside "
            "allowlisted timing code",
    "D103": "iteration over an unordered set may feed ordered "
            "accumulation or serialization",
    "D104": "unsorted filesystem enumeration (os.listdir / glob / "
            "iterdir) in artifact discovery",
    "D105": "builtin hash() is PYTHONHASHSEED-dependent for "
            "str/bytes keys",
    "R201": "write to shared attribute of a thread-shared class "
            "outside 'with self.<lock>'",
    "R202": "public method of a thread-shared class touches guarded "
            "state outside its lock",
    "R203": "lock-requiring private helper called outside the lock",
    "P301": "object.__setattr__ on a non-self receiver",
    "P303": "private attribute of another module's object read or "
            "written in a core/ or baselines/ module",
}

#: Rules that cannot be suppressed (they police the lint's own
#: directive hygiene — suppressing a missing reason with another
#: reasonless directive must not be expressible).
_UNSUPPRESSABLE = frozenset({"L001", "L002", "L003"})


@dataclass(frozen=True)
class Finding:
    """One lint finding, addressable for suppression and baseline."""

    rule: str
    path: str          #: repo-relative posix path
    line: int          #: 1-based
    col: int           #: 0-based
    message: str
    snippet: str       #: stripped source line (baseline match key)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass(frozen=True)
class ClassMarker:
    """A parsed class-line directive (``thread-shared`` /
    ``single-writer``)."""

    kind: str                       #: "thread-shared" | "single-writer"
    lock: str = "_lock"             #: guarding attribute; "none" = no lock
    guards: Tuple[str, ...] = ()    #: extra guarded attribute names
    owner: str = ""                 #: single-writer: documented owner
    line: int = 0


@dataclass
class LintConfig:
    """Knobs of the pass (defaults are the repo's own policy).

    Path values are repo-relative posix *prefixes* — an allowlist
    entry ``"scripts/"`` covers the whole directory.
    """

    #: Modules whose wall-clock reads are legitimate (CLI/bench
    #: timing that never flows into artifacts).
    wallclock_allow: Tuple[str, ...] = (
        "src/repro/cli.py",
        "scripts/",
    )
    #: Modules allowed to use builtin hash() (none in src today).
    hash_allow: Tuple[str, ...] = ("scripts/",)
    #: When set, only emit these rules (the --select knob).
    select: Optional[frozenset] = None

    def path_allowed(
        self, rel: str, prefixes: Tuple[str, ...]
    ) -> bool:
        return any(rel.startswith(p) for p in prefixes)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    stale_baseline: List[dict] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


# -- directive parsing -------------------------------------------------

_DIRECTIVE_RE = re.compile(r"#\s*repro-lint:\s*(.+?)\s*$")
_ALLOW_RE = re.compile(
    r"^allow\[([A-Za-z0-9,\s]*)\]\s*(?:--\s*(.*))?$"
)


def _comments(source: str) -> List[Tuple[int, int, str]]:
    """All comment tokens as ``(line, col, text)``.

    Tokenizer-based so directive examples inside docstrings and
    string literals are never mistaken for directives.  A source that
    fails to tokenize yields no comments — ``ast.parse`` will report
    it as L003.
    """
    import io
    import tokenize

    out: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(
            io.StringIO(source).readline
        ):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return out


def _parse_directives(
    source: str,
    lines: Sequence[str],
) -> Tuple[Dict[int, Tuple[frozenset, str]], Dict[int, ClassMarker],
           List[Finding]]:
    """Scan source comments for repro-lint directives.

    Returns ``(allow_at, markers_at, directive_findings)`` where
    ``allow_at`` maps the *effective* line (the directive's own line,
    or the next line for a standalone comment) to the suppressed rule
    set, and ``markers_at`` maps a class line to its marker.
    """
    allow_at: Dict[int, Tuple[frozenset, str]] = {}
    markers_at: Dict[int, ClassMarker] = {}
    problems: List[Finding] = []
    for i, col, raw in _comments(source):
        m = _DIRECTIVE_RE.search(raw)
        if not m:
            continue
        body = m.group(1)
        standalone = not lines[i - 1][:col].strip()
        target = i + 1 if standalone else i
        am = _ALLOW_RE.match(body)
        if am:
            rules = frozenset(
                r.strip() for r in am.group(1).split(",") if r.strip()
            )
            reason = (am.group(2) or "").strip()
            if not reason:
                problems.append(_directive_finding(
                    "L001", i, raw,
                    "suppression needs a reason: "
                    "'# repro-lint: allow[RULE] -- why'",
                ))
                continue
            unknown = sorted(r for r in rules if r not in RULES)
            if unknown or not rules:
                problems.append(_directive_finding(
                    "L002", i, raw,
                    f"unknown rule id(s) {unknown or ['<empty>']} "
                    f"(known: {', '.join(sorted(RULES))})",
                ))
                continue
            allow_at[target] = (rules, reason)
            continue
        tokens = body.split()
        if tokens and tokens[0] in ("thread-shared", "single-writer"):
            opts = {}
            bad = False
            for tok in tokens[1:]:
                if "=" not in tok:
                    bad = True
                    break
                key, _, value = tok.partition("=")
                opts[key] = value
            if bad or not set(opts) <= {"lock", "guards", "owner"}:
                problems.append(_directive_finding(
                    "L002", i, raw,
                    f"malformed {tokens[0]} marker (options: "
                    f"lock=NAME guards=a,b owner=X)",
                ))
                continue
            markers_at[target] = ClassMarker(
                kind=tokens[0],
                lock=opts.get("lock", "_lock"),
                guards=tuple(
                    g for g in opts.get("guards", "").split(",") if g
                ),
                owner=opts.get("owner", ""),
                line=target,
            )
            continue
        problems.append(_directive_finding(
            "L002", i, raw,
            f"unrecognised repro-lint directive {body!r}",
        ))
    return allow_at, markers_at, problems


def _directive_finding(
    rule: str, line: int, raw: str, message: str
) -> Finding:
    return Finding(
        rule=rule, path="", line=line, col=0, message=message,
        snippet=raw.strip(),
    )


# -- per-file driver ---------------------------------------------------

def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one module's source text (the fixture-test entry point).

    ``rel_path`` is the repo-relative posix path the allowlists and
    findings use; it need not exist on disk.
    """
    from repro.devtools.lint.drules import check_drules
    from repro.devtools.lint.prules import check_prules
    from repro.devtools.lint.rrules import check_rrules

    if config is None:
        config = LintConfig()
    lines = source.splitlines()
    allow_at, markers_at, problems = _parse_directives(source, lines)
    findings = [
        Finding(f.rule, rel_path, f.line, f.col, f.message, f.snippet)
        for f in problems
    ]
    suppressed_count = 0
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        findings.append(Finding(
            rule="L003", path=rel_path, line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
            snippet=(lines[exc.lineno - 1].strip()
                     if exc.lineno and exc.lineno <= len(lines)
                     else ""),
        ))
        return findings
    raw: List[Finding] = []
    raw.extend(check_drules(tree, lines, rel_path, config))
    raw.extend(check_rrules(tree, lines, rel_path, config, markers_at))
    raw.extend(check_prules(tree, lines, rel_path, config))
    for f in raw:
        if config.select is not None and f.rule not in config.select:
            continue
        if _is_suppressed(f, allow_at):
            suppressed_count += 1
            continue
        findings.append(f)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    # Stash the suppression count on the list for lint_paths to pick
    # up without changing the return type fixture tests rely on.
    findings = _FindingList(findings)
    findings.suppressed = suppressed_count
    return findings


class _FindingList(list):
    """A list of findings plus the per-file suppression count."""

    suppressed = 0


def _is_suppressed(
    finding: Finding,
    allow_at: Dict[int, Tuple[frozenset, str]],
) -> bool:
    if finding.rule in _UNSUPPRESSABLE:
        return False
    for line in (finding.line, finding.line - 1):
        entry = allow_at.get(line)
        if entry and finding.rule in entry[0]:
            return True
    return False


def snippet_at(lines: Sequence[str], lineno: int) -> str:
    """The stripped source line a finding anchors to."""
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


# -- baseline ----------------------------------------------------------

BASELINE_VERSION = 1


def load_baseline(path) -> List[dict]:
    """Read and validate a baseline file.

    Raises ``ValueError`` on malformed files or entries missing their
    mandatory reason — a baseline that cannot explain itself is a
    config error, not a soft warning.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}")
    if (
        not isinstance(payload, dict)
        or payload.get("version") != BASELINE_VERSION
        or not isinstance(payload.get("entries"), list)
    ):
        raise ValueError(
            f"baseline {path} is not a version-{BASELINE_VERSION} "
            f"repro-lint baseline"
        )
    entries = payload["entries"]
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict) or not (
            isinstance(entry.get("rule"), str)
            and isinstance(entry.get("path"), str)
            and isinstance(entry.get("snippet"), str)
        ):
            raise ValueError(
                f"baseline {path} entry {n} is malformed "
                f"(needs rule/path/snippet strings)"
            )
        if entry["rule"] not in RULES:
            raise ValueError(
                f"baseline {path} entry {n} names unknown rule "
                f"{entry['rule']!r}"
            )
        if not str(entry.get("reason", "")).strip():
            raise ValueError(
                f"baseline {path} entry {n} ({entry['rule']} at "
                f"{entry['path']}) has no reason; every accepted "
                f"finding must say why"
            )
    return entries


def save_baseline(path, entries: List[dict]) -> None:
    doc = {"version": BASELINE_VERSION, "entries": entries}
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def baseline_entries(
    findings: Iterable[Finding],
    reason: str = "TODO: justify this accepted finding",
) -> List[dict]:
    """Baseline entries for findings (dedup by match key), sorted."""
    seen = {}
    for f in findings:
        key = (f.rule, f.path, f.snippet)
        if key not in seen:
            seen[key] = {
                "rule": f.rule,
                "path": f.path,
                "snippet": f.snippet,
                "reason": reason,
            }
    return sorted(
        seen.values(),
        key=lambda e: (e["path"], e["rule"], e["snippet"]),
    )


def apply_baseline(
    findings: List[Finding],
    entries: List[dict],
    linted: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], int, List[dict]]:
    """Drop findings matched by the baseline.

    ``linted`` is the set of repo-relative paths the findings came
    from; an unmatched entry is stale only if its path was linted
    (a subset run cannot tell whether an entry elsewhere still
    matches).  ``None`` means every entry's path was linted.

    Returns ``(remaining, matched_count, stale_entries)``.
    """
    keys = {(e["rule"], e["path"], e["snippet"]) for e in entries}
    used = set()
    remaining = []
    matched = 0
    for f in findings:
        key = (f.rule, f.path, f.snippet)
        if f.rule not in _UNSUPPRESSABLE and key in keys:
            used.add(key)
            matched += 1
        else:
            remaining.append(f)
    checked = None if linted is None else set(linted)
    stale = [
        e for e in entries
        if (e["rule"], e["path"], e["snippet"]) not in used
        and (checked is None or e["path"] in checked)
    ]
    return remaining, matched, stale


# -- tree driver -------------------------------------------------------

def lint_paths(
    paths: Sequence,
    repo_root,
    config: Optional[LintConfig] = None,
    baseline: Optional[List[dict]] = None,
) -> LintReport:
    """Lint every ``.py`` file under the given paths.

    ``paths`` may mix files and directories; directories are walked
    recursively in sorted order (the linter practices what it
    preaches).  Findings are reported repo-root-relative.
    """
    if config is None:
        config = LintConfig()
    repo_root = Path(repo_root)
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    report = LintReport()
    all_findings: List[Finding] = []
    linted: List[str] = []
    for f in files:
        try:
            rel = f.resolve().relative_to(repo_root.resolve())
            rel_str = rel.as_posix()
        except ValueError:
            rel_str = f.as_posix()
        linted.append(rel_str)
        source = f.read_text()
        file_findings = lint_source(source, rel_str, config)
        all_findings.extend(file_findings)
        report.suppressed += getattr(file_findings, "suppressed", 0)
        report.files_checked += 1
    if baseline:
        all_findings, matched, stale = apply_baseline(
            all_findings, baseline, linted
        )
        report.baselined = matched
        report.stale_baseline = stale
    all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.findings = all_findings
    return report


# -- rendering ---------------------------------------------------------

def render_text(report: LintReport) -> str:
    out = []
    for f in report.findings:
        out.append(
            f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        )
        if f.snippet:
            out.append(f"    {f.snippet}")
    for e in report.stale_baseline:
        out.append(
            f"stale baseline entry: {e['rule']} at {e['path']} "
            f"({e['snippet']!r}) no longer matches anything — prune it"
        )
    out.append(
        f"repro-lint: {len(report.findings)} finding(s) in "
        f"{report.files_checked} file(s) "
        f"({report.suppressed} suppressed inline, "
        f"{report.baselined} baselined"
        + (f", {len(report.stale_baseline)} stale baseline entr"
           f"{'y' if len(report.stale_baseline) == 1 else 'ies'}"
           if report.stale_baseline else "")
        + ")"
    )
    return "\n".join(out)


def render_json(report: LintReport) -> str:
    return json.dumps(
        {
            "findings": [f.to_dict() for f in report.findings],
            "stale_baseline": report.stale_baseline,
            "files_checked": report.files_checked,
            "suppressed": report.suppressed,
            "baselined": report.baselined,
            "clean": report.clean,
        },
        indent=2,
        sort_keys=True,
    )

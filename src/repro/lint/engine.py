"""The lint engine: file discovery, rule execution, suppression filtering.

:func:`lint_source` checks one in-memory module; :func:`lint_sources`
checks a set of in-memory modules *as a project* (the whole-program
FLOW/RED rules see cross-file call chains); :func:`lint_paths`
recursively checks files and directories and aggregates a
:class:`LintResult`.  The engine owns three diagnostics of its own,
reported alongside rule findings:

* ``LNT001`` — the file failed to parse (nothing else can be checked);
* ``SUP001`` — a malformed / reason-less ``# repro: noqa`` marker;
* ``SUP002`` — a well-formed suppression that silenced nothing.

Rule selection accepts exact ids (``DET003``) or family prefixes
(``DET``); ``ignore`` wins over ``select``.  ``SUP``/``LNT``
diagnostics follow the same filters but are enabled by default.

Each run proceeds in two passes: the per-module rules visit every file
independently, then one :class:`~repro.lint.callgraph.ProjectIndex` +
:class:`~repro.lint.dataflow.DataflowAnalysis` is built over every file
that parsed and the project rules run once over it.  Suppressions apply
identically to both kinds of finding.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.lint.context import ModuleContext
from repro.lint.rules import (
    PARSE_ERROR_RULE_ID,
    SUPPRESSION_RULE_ID,
    UNUSED_SUPPRESSION_RULE_ID,
    ProjectRule,
    Rule,
    Violation,
    all_project_rules,
    all_rules,
)
from repro.lint.suppressions import scan_suppressions

__all__ = [
    "LintResult",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "iter_python_files",
]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: Violations silenced by valid suppressions (kept for statistics).
    suppressed: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the run found nothing."""
        return not self.violations

    def statistics(self) -> dict[str, object]:
        """Per-rule counts plus run totals (the ``--statistics`` payload)."""
        by_rule: dict[str, int] = {}
        for v in self.violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return {
            "files_checked": self.files_checked,
            "total": len(self.violations),
            "suppressed": len(self.suppressed),
            "by_rule": dict(sorted(by_rule.items())),
        }

    def to_json_dict(self) -> dict[str, object]:
        """The ``--format json`` document (schema v3)."""
        return {
            "version": 3,
            "files_checked": self.files_checked,
            "violations": [v.to_json_dict() for v in self.violations],
            "statistics": self.statistics(),
        }


def _rule_enabled(
    rule_id: str,
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> bool:
    def matches(patterns: Sequence[str]) -> bool:
        return any(rule_id == p or rule_id.startswith(p) for p in patterns)

    if ignore and matches(ignore):
        return False
    if select:
        return matches(select)
    return True


def _enabled_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[Rule]:
    return [
        rule
        for rule in all_rules()
        if _rule_enabled(rule.meta.id, select, ignore)
    ]


def _enabled_project_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[ProjectRule]:
    return [
        rule
        for rule in all_project_rules()
        if _rule_enabled(rule.meta.id, select, ignore)
    ]


# ------------------------------------------------------------------ pipeline


@dataclass
class _FileEntry:
    """One file of a run: parsed (ctx set) or broken (violation set)."""

    path: str
    source: str
    ctx: ModuleContext | None = None
    parse_violation: Violation | None = None


def _parse_entry(
    path: str,
    source: str,
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> _FileEntry:
    entry = _FileEntry(path=path, source=source)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        if _rule_enabled(PARSE_ERROR_RULE_ID, select, ignore):
            line = getattr(exc, "lineno", 1) or 1
            entry.parse_violation = Violation(
                rule=PARSE_ERROR_RULE_ID,
                path=path,
                line=line,
                col=1,
                message=f"file could not be parsed: {exc}",
                severity="error",
                fix_hint="fix the syntax error; nothing else was checked",
            )
        return entry
    entry.ctx = ModuleContext(path, source, tree)
    return entry


def _module_violations(
    entry: _FileEntry,
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> tuple[list[Violation], set[str]]:
    """Per-module rule findings for one parsed file + the ids evaluated."""
    assert entry.ctx is not None
    raw: list[Violation] = []
    enabled_ids: set[str] = set()
    for rule in _enabled_rules(select, ignore):
        enabled_ids.add(rule.meta.id)
        raw.extend(rule.run(entry.ctx))
    return raw, enabled_ids


def _project_violations(
    entries: Sequence[_FileEntry],
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> tuple[dict[str, list[Violation]], set[str]]:
    """Whole-program findings grouped by path + the project ids evaluated."""
    rules = _enabled_project_rules(select, ignore)
    enabled_ids = {rule.meta.id for rule in rules}
    by_path: dict[str, list[Violation]] = {}
    contexts = {e.path: e.ctx for e in entries if e.ctx is not None}
    if not rules or not contexts:
        return by_path, enabled_ids
    # Imported lazily: dataflow imports rules, which this module imports.
    from repro.lint.callgraph import ProjectIndex
    from repro.lint.dataflow import DataflowAnalysis

    analysis = DataflowAnalysis(ProjectIndex(contexts))
    for rule in rules:
        for v in rule.run(analysis):
            by_path.setdefault(v.path, []).append(v)
    return by_path, enabled_ids


def _finalize_file(
    entry: _FileEntry,
    raw: list[Violation],
    enabled_ids: set[str],
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> tuple[list[Violation], list[Violation]]:
    """Apply suppressions; return (kept, suppressed) for one file."""
    assert entry.ctx is not None
    kept: list[Violation] = []
    suppressed: list[Violation] = []
    scan = scan_suppressions(entry.source, entry.ctx.tree)
    if _rule_enabled(SUPPRESSION_RULE_ID, select, ignore):
        for line, problem in scan.malformed:
            raw = [
                *raw,
                Violation(
                    rule=SUPPRESSION_RULE_ID,
                    path=entry.path,
                    line=line,
                    col=1,
                    message=f"invalid `# repro: noqa` marker: {problem}",
                    severity="error",
                    fix_hint="write `# repro: noqa[RULE-ID] reason`",
                ),
            ]

    used: set[tuple[int, str]] = set()
    for v in raw:
        sup_ids = scan.ids_for_line(v.line)
        if v.rule in sup_ids:
            used.add((scan.anchor(v.line), v.rule))
            suppressed.append(v)
        else:
            kept.append(v)

    if _rule_enabled(UNUSED_SUPPRESSION_RULE_ID, select, ignore):
        for sup in scan.suppressions:
            for rid in sup.rule_ids:
                # Only judge ids this run actually evaluated: under
                # --select a foreign suppression is merely out of scope.
                if rid in enabled_ids and (scan.anchor(sup.line), rid) not in used:
                    kept.append(
                        Violation(
                            rule=UNUSED_SUPPRESSION_RULE_ID,
                            path=entry.path,
                            line=sup.line,
                            col=1,
                            message=(
                                f"suppression of {rid} silences nothing on "
                                "this statement"
                            ),
                            severity="error",
                            fix_hint="delete the stale noqa (or fix its line)",
                        )
                    )
    return kept, suppressed


def lint_sources(
    files: Mapping[str, str],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint a set of in-memory modules as one project.

    ``files`` maps (posix-style) paths to source text; the paths drive
    module naming for the call graph, so a fixture package should
    include its ``__init__.py`` entries.
    """
    result = LintResult()
    entries = [
        _parse_entry(path, files[path], select, ignore) for path in sorted(files)
    ]
    project_by_path, project_ids = _project_violations(entries, select, ignore)
    for entry in entries:
        result.files_checked += 1
        if entry.ctx is None:
            if entry.parse_violation is not None:
                result.violations.append(entry.parse_violation)
            continue
        raw, enabled_ids = _module_violations(entry, select, ignore)
        raw.extend(project_by_path.get(entry.path, []))
        kept, suppressed = _finalize_file(
            entry, raw, enabled_ids | project_ids, select, ignore
        )
        result.violations.extend(kept)
        result.suppressed.extend(suppressed)
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return result


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint one module's source text (project rules see just this file)."""
    return lint_sources({path: source}, select=select, ignore=ignore)


# ----------------------------------------------------------------- discovery


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``*.py`` file under ``paths``, depth-first, sorted.

    Symlinked directories are never followed (a checkout's venv or a
    build tree symlinked into the repo must not be linted — and link
    cycles must not hang the walk).  Files are listed in sorted order so
    reports — and therefore CI artifacts — are byte-stable across
    filesystems.
    """
    out: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for dirpath, dirnames, filenames in os.walk(p, followlinks=False):
                base = Path(dirpath)
                dirnames[:] = sorted(
                    d for d in dirnames if not (base / d).is_symlink()
                )
                for name in sorted(filenames):
                    f = base / name
                    if name.endswith(".py") and f.is_file():
                        out.append(f)
        elif p.suffix == ".py" and p.is_file():
            out.append(p)
        elif not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
    seen: set[Path] = set()
    unique: list[Path] = []
    for p in out:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def _read_files(
    files: Sequence[Path], result: LintResult
) -> dict[str, str]:
    """Read sources, recording unreadable files as LNT001 findings."""
    sources: dict[str, str] = {}
    for file in files:
        try:
            sources[str(file)] = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.violations.append(
                Violation(
                    rule=PARSE_ERROR_RULE_ID,
                    path=str(file),
                    line=1,
                    col=1,
                    message=f"file could not be read: {exc}",
                    severity="error",
                    fix_hint="make the file readable utf-8",
                )
            )
            result.files_checked += 1
    return sources


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint files and directories recursively; aggregate one result."""
    result = LintResult()
    sources = _read_files(iter_python_files(paths), result)
    inner = lint_sources(sources, select=select, ignore=ignore)
    result.violations.extend(inner.violations)
    result.suppressed.extend(inner.suppressed)
    result.files_checked += inner.files_checked
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return result

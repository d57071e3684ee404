"""The lint engine: file discovery, rule execution, suppression filtering.

:func:`lint_source` checks one in-memory module; :func:`lint_paths`
recursively checks files and directories, one visitor pass per file,
and aggregates a :class:`LintResult`.  The engine owns three
diagnostics of its own, reported alongside rule findings:

* ``LNT001`` — the file could not be read or parsed (nothing else can
  be checked);
* ``SUP001`` — a malformed / reason-less ``# repro: noqa`` marker;
* ``SUP002`` — a well-formed suppression that silenced nothing, or that
  names no rule.

Rule selection accepts exact ids (``DET003``) or family prefixes
(``DET``); ``ignore`` wins over ``select``.  ``SUP``/``LNT``
diagnostics follow the same filters but are enabled by default.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.context import ModuleContext
from repro.lint.rules import (
    PARSE_ERROR_RULE_ID,
    SUPPRESSION_RULE_ID,
    UNUSED_SUPPRESSION_RULE_ID,
    Rule,
    Violation,
    all_rules,
    rule_ids,
)
from repro.lint.suppressions import scan_suppressions

__all__ = [
    "LintResult",
    "lint_paths",
    "lint_source",
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
        """The ``--format json`` document (schema v4)."""
        return {
            "version": 4,
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


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        return _unchecked(
            path,
            getattr(exc, "lineno", 1) or 1,
            f"file could not be parsed: {exc}",
            "fix the syntax error; nothing else was checked",
            select,
            ignore,
        )
    result = LintResult(files_checked=1)
    ctx = ModuleContext(path, source, tree)
    raw: list[Violation] = []
    enabled_ids: set[str] = set()
    for rule in _enabled_rules(select, ignore):
        enabled_ids.add(rule.meta.id)
        raw.extend(rule.run(ctx))
    result.violations, result.suppressed = _apply_suppressions(
        ctx, raw, enabled_ids, select, ignore
    )
    result.violations.sort(key=_order)
    return result


def _order(v: Violation) -> tuple[str, int, int, str]:
    return (v.path, v.line, v.col, v.rule)


def _unchecked(
    path: str,
    line: int,
    message: str,
    fix_hint: str,
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> LintResult:
    """The result for a file no rule could check (``LNT001``)."""
    result = LintResult(files_checked=1)
    if _rule_enabled(PARSE_ERROR_RULE_ID, select, ignore):
        result.violations.append(
            Violation(
                rule=PARSE_ERROR_RULE_ID,
                path=path,
                line=line,
                col=1,
                message=message,
                severity="error",
                fix_hint=fix_hint,
            )
        )
    return result


def _apply_suppressions(
    ctx: ModuleContext,
    raw: list[Violation],
    enabled_ids: set[str],
    select: Sequence[str] | None,
    ignore: Sequence[str] | None,
) -> tuple[list[Violation], list[Violation]]:
    """Apply one file's suppressions; return (kept, suppressed)."""
    scan = scan_suppressions(ctx.source, ctx.tree)
    if _rule_enabled(SUPPRESSION_RULE_ID, select, ignore):
        for line, problem in scan.malformed:
            raw.append(
                Violation(
                    rule=SUPPRESSION_RULE_ID,
                    path=ctx.path,
                    line=line,
                    col=1,
                    message=f"invalid `# repro: noqa` marker: {problem}",
                    severity="error",
                    fix_hint="write `# repro: noqa[RULE-ID] reason`",
                )
            )

    kept: list[Violation] = []
    suppressed: list[Violation] = []
    used: set[tuple[int, str]] = set()
    for v in raw:
        if v.rule in scan.ids_for_line(v.line):
            used.add((scan.anchor(v.line), v.rule))
            suppressed.append(v)
        else:
            kept.append(v)

    if _rule_enabled(UNUSED_SUPPRESSION_RULE_ID, select, ignore):
        known = set(rule_ids())
        for sup in scan.suppressions:
            for rid in sup.rule_ids:
                if rid not in known:
                    problem = "names no rule (see `repro lint --list-rules`)"
                    hint = "delete the id, or correct its spelling"
                # Only judge ids this run actually evaluated: under
                # --select a foreign suppression is merely out of scope.
                elif rid in enabled_ids and (scan.anchor(sup.line), rid) not in used:
                    problem = "silences nothing on this statement"
                    hint = "delete the stale noqa (or fix its line)"
                else:
                    continue
                kept.append(
                    Violation(
                        rule=UNUSED_SUPPRESSION_RULE_ID,
                        path=ctx.path,
                        line=sup.line,
                        col=1,
                        message=f"suppression of {rid} {problem}",
                        severity="error",
                        fix_hint=hint,
                    )
                )
    return kept, suppressed


# ----------------------------------------------------------------- discovery


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``*.py`` file under ``paths``, depth-first, sorted.

    Symlinked directories are never followed (a checkout's venv or a
    build tree symlinked into the repo must not be linted — and link
    cycles must not hang the walk).  Files are listed in sorted order so
    reports — and therefore CI artifacts — are byte-stable across
    filesystems.

    Raises :class:`FileNotFoundError` for a path that does not exist and
    :class:`ValueError` for one that is neither a directory nor a
    ``*.py`` file, so a mistyped gate path fails instead of checking
    nothing.
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
        else:
            raise ValueError(f"not a Python file or directory: {p}")
    seen: set[Path] = set()
    unique: list[Path] = []
    for p in out:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def lint_paths(
    paths: Iterable[str | Path],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintResult:
    """Lint files and directories recursively; aggregate one result."""
    result = LintResult()
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            one = _unchecked(
                str(file),
                1,
                f"file could not be read: {exc}",
                "make the file readable utf-8",
                select,
                ignore,
            )
        else:
            one = lint_source(source, str(file), select=select, ignore=ignore)
        result.files_checked += one.files_checked
        result.violations.extend(one.violations)
        result.suppressed.extend(one.suppressed)
    result.violations.sort(key=_order)
    return result

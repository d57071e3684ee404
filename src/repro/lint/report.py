"""Reporters: render a :class:`~repro.lint.engine.LintResult`.

Three formats, mirroring common linter conventions:

* ``text`` — ``path:line:col: ID message`` plus an indented fix hint;
* ``json`` — the stable machine schema (``LintResult.to_json_dict``,
  schema v4);
* ``github`` — ``::error`` workflow commands that annotate PR diffs
  (paths are emitted relative to the repository root when one is given,
  so annotations attach correctly from subdirectory invocations, and
  escaped per the workflow-command grammar).

:func:`render_statistics` renders the per-rule count table and
:func:`statistics_json` the artifact payload CI uploads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.lint.engine import LintResult
from repro.lint.rules import all_rules

__all__ = [
    "FORMATS",
    "render",
    "render_text",
    "render_json",
    "render_github",
    "render_statistics",
    "render_rule_table",
    "statistics_json",
]

FORMATS = ("text", "json", "github")


def render_text(result: LintResult, *, fix_hints: bool = True) -> str:
    """Human-oriented report, one line per violation (plus hints)."""
    lines: list[str] = []
    for v in result.violations:
        lines.append(f"{v.path}:{v.line}:{v.col}: {v.rule} {v.message}")
        if fix_hints and v.fix_hint:
            lines.append(f"    fix: {v.fix_hint}")
    n = len(result.violations)
    noun = "violation" if n == 1 else "violations"
    suffix = f" ({len(result.suppressed)} suppressed)" if result.suppressed else ""
    lines.append(
        f"{n} {noun} in {result.files_checked} file(s){suffix}"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-readable document (schema version 4)."""
    return json.dumps(result.to_json_dict(), indent=2, sort_keys=True)


def _relative_to_root(path: str, root: str | Path | None) -> str:
    """``path`` relative to ``root`` (posix separators) when possible."""
    if root is None:
        return path
    try:
        rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    except ValueError:  # different drives on Windows
        return path
    if rel.startswith(".."):
        return path
    return rel.replace(os.sep, "/")


def _escape_data(text: str) -> str:
    """A workflow command's message: ``%``, CR and LF escaped."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(text: str) -> str:
    """A workflow command's property value: the message escapes plus
    ``:`` and ``,``, which delimit the properties."""
    return _escape_data(text).replace(":", "%3A").replace(",", "%2C")


def render_github(result: LintResult, *, root: str | Path | None = None) -> str:
    """GitHub Actions workflow commands (inline PR annotations).

    ``root`` is the repository root the annotation paths must be
    relative to; invocations from a subdirectory would otherwise emit
    paths the Checks API cannot attach to the diff.  Paths and messages
    are escaped, so a ``,`` or ``:`` in a file name cannot split the
    properties and a newline cannot end the command early.
    """
    lines = [
        f"::error file={_escape_property(_relative_to_root(v.path, root))},"
        f"line={v.line},col={v.col},title={v.rule}"
        f"::{_escape_data(v.message)}"
        for v in result.violations
    ]
    lines.append(
        f"{len(result.violations)} violation(s) in "
        f"{result.files_checked} file(s)"
    )
    return "\n".join(lines)


def render(result: LintResult, fmt: str, *, root: str | Path | None = None) -> str:
    """Dispatch on a ``--format`` value."""
    if fmt == "text":
        return render_text(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "github":
        return render_github(result, root=root)
    raise ValueError(f"unknown format: {fmt!r} (expected one of {FORMATS})")


def render_statistics(result: LintResult) -> str:
    """Per-rule count table (text companion of :func:`statistics_json`)."""
    stats = result.statistics()
    by_rule = stats["by_rule"]
    assert isinstance(by_rule, dict)
    lines = ["rule     count", "-------  -----"]
    for rid, count in by_rule.items():
        lines.append(f"{rid:<7}  {count:>5}")
    if not by_rule:
        lines.append("(none)   {:>5}".format(0))
    lines.append(
        f"total {stats['total']} across {stats['files_checked']} file(s), "
        f"{stats['suppressed']} suppressed"
    )
    return "\n".join(lines)


def statistics_json(result: LintResult) -> str:
    """The ``--statistics PATH`` artifact payload."""
    return json.dumps(result.statistics(), indent=2, sort_keys=True)


def render_rule_table() -> str:
    """The ``--list-rules`` output: every rule with its one-line summary."""
    lines = []
    for rule in all_rules():
        m = rule.meta
        lines.append(f"{m.id:<7}  {m.name:<26} [{m.severity}] {m.summary}")
    return "\n".join(lines)

"""Determinism & parallel-safety static analysis (``repro lint``).

An AST-based rule engine enforcing, at the source level, the invariants
the repo's equivalence and worker-count-invariance tests sample at
runtime: no ambient RNG, no wall-clock reads in library code, no
unordered iteration feeding numeric accumulation, pool-safe worker
functions, submission-order merges, and tracer spans/grafts kept inside
their sanctioned shapes.

Two rule tiers share one engine: per-module visitor rules (families
``DET`` / ``PAR`` / ``OBS``) and whole-program rules (``FLOW`` /
``RED``) that run over a project-wide call graph, so an RNG crossing a
``FanOut`` boundary two calls away, or a set returned by a helper in
another file, is still traced to its sink.

* :mod:`repro.lint.rules` — the visitor framework, rule metadata and
  both registries;
* :mod:`repro.lint.callgraph` — the project symbol table / call graph
  (alias and re-export resolution across files);
* :mod:`repro.lint.dataflow` — the abstract value-flow (RNG streams,
  set-valued and completion-ordered iterables) plus the FLOW/RED pack;
* :mod:`repro.lint.engine` — file discovery, rule execution and
  suppression filtering (:func:`lint_paths` / :func:`lint_sources`);
* :mod:`repro.lint.suppressions` — tokenizer-based
  ``# repro: noqa[RULE-ID] reason`` parsing (reasons are mandatory,
  markers apply per logical statement);
* :mod:`repro.lint.report` — text / json / github reporters and the
  statistics artifact (schema v3).

The rule pack and suppression syntax are documented in ``docs/api.md``
("Static analysis"); the CI gate requires
``repro lint src benchmarks perfbench`` to exit zero.  Span nesting is
not a lint rule: the test suite checks every trace it records against
the span-naming contract at runtime.
"""

from repro.lint.engine import (
    LintResult,
    iter_python_files,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.rules import (
    ProjectRule,
    Rule,
    RuleMeta,
    Violation,
    all_project_rules,
    all_rules,
    rule_ids,
)
from repro.lint.report import (
    FORMATS,
    render,
    render_rule_table,
    render_statistics,
    statistics_json,
)
from repro.lint.suppressions import Suppression, SuppressionScan, scan_suppressions

__all__ = [
    "FORMATS",
    "LintResult",
    "ProjectRule",
    "Rule",
    "RuleMeta",
    "Suppression",
    "SuppressionScan",
    "Violation",
    "all_project_rules",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "render",
    "render_rule_table",
    "render_statistics",
    "rule_ids",
    "scan_suppressions",
    "statistics_json",
]

"""Determinism & parallel-safety static analysis (``repro lint``).

An AST-based rule engine enforcing, at the source level, the invariants
the repo's equivalence and worker-count-invariance tests sample at
runtime: no ambient RNG, no wall-clock reads in library code, no
unordered iteration feeding numeric accumulation, pool-safe worker
functions, submission-order merges, and tracer spans/grafts kept inside
their sanctioned shapes.

Every rule is a visitor over one module (families ``DET`` / ``PAR`` /
``OBS``), so a run is one AST pass per file.  Whether an RNG or a
completion order crosses a process-pool boundary through several calls
is not read from the source: the worker-count-independence tests check
it when the code runs.

* :mod:`repro.lint.rules` — the visitor framework, rule metadata and
  the registry;
* :mod:`repro.lint.engine` — file discovery, rule execution and
  suppression filtering (:func:`lint_paths` / :func:`lint_source`);
* :mod:`repro.lint.suppressions` — tokenizer-based
  ``# repro: noqa[RULE-ID] reason`` parsing (reasons are mandatory,
  markers apply per logical statement);
* :mod:`repro.lint.report` — text / json / github reporters and the
  statistics artifact (json schema v4).

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
)
from repro.lint.rules import (
    Rule,
    RuleMeta,
    Violation,
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
    "Rule",
    "RuleMeta",
    "Suppression",
    "SuppressionScan",
    "Violation",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render",
    "render_rule_table",
    "render_statistics",
    "rule_ids",
    "scan_suppressions",
    "statistics_json",
]

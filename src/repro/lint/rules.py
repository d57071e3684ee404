"""Rule framework: metadata, the visitor base class and the registry.

Every rule is an :class:`ast.NodeVisitor` subclass carrying a
:class:`RuleMeta` block (identity, severity, rationale, fix hint and a
bad/good example pair — the same metadata the docs table and ``repro
lint --list-rules`` render).  Rules register themselves with
:func:`register` at import time; :func:`all_rules` instantiates the pack
in id order.

Rule ids are ``<FAMILY><NNN>`` — ``DET`` (determinism), ``PAR``
(process-pool safety), ``OBS`` (tracer hygiene) — plus the engine-owned
``SUP`` (suppression hygiene) and ``LNT`` (file-level) ids that have no
visitor class.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass
from typing import ClassVar

from repro.lint.context import ModuleContext

__all__ = [
    "RULE_ID_RE",
    "RuleMeta",
    "Rule",
    "Violation",
    "all_rules",
    "register",
    "rule_ids",
]

#: The shape every rule id (and every id inside a noqa) must have.
RULE_ID_RE = re.compile(r"^[A-Z]{3,4}\d{3}$")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    fix_hint: str = ""

    def to_json_dict(self) -> dict[str, object]:
        """Plain-JSON representation (the ``--format json`` schema v4)."""
        return asdict(self)


@dataclass(frozen=True)
class RuleMeta:
    """Identity and documentation of one rule."""

    id: str
    name: str
    family: str
    severity: str
    summary: str
    rationale: str
    fix_hint: str
    example_bad: str = ""
    example_good: str = ""


class Rule(ast.NodeVisitor):
    """Base class: one visitor pass over a module, emitting violations.

    Subclasses set :attr:`meta` and implement ``visit_*`` hooks; they
    call :meth:`report` with the offending node.  A fresh instance is
    used per module, so per-run state can live on ``self``.
    """

    meta: ClassVar[RuleMeta]

    def __init__(self) -> None:
        self.ctx: ModuleContext = None  # type: ignore[assignment]
        self.violations: list[Violation] = []

    def run(self, ctx: ModuleContext) -> list[Violation]:
        """Collect this rule's violations for one module."""
        self.ctx = ctx
        self.violations = []
        self.prepare(ctx)
        self.visit(ctx.tree)
        return self.violations

    def prepare(self, ctx: ModuleContext) -> None:
        """Hook for per-module precomputation before the visit pass."""

    def report(self, node: ast.AST, message: str) -> None:
        """Record one violation anchored at ``node``."""
        self.violations.append(
            Violation(
                rule=self.meta.id,
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                severity=self.meta.severity,
                fix_hint=self.meta.fix_hint,
            )
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a rule to the pack (ids must be unique)."""
    rid = cls.meta.id
    if not RULE_ID_RE.match(rid):
        raise ValueError(f"malformed rule id: {rid!r}")
    if rid in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rid}")
    _REGISTRY[rid] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    # Import the rule packs lazily so `rules` has no import cycle with them.
    from repro.lint import rules_det, rules_obs, rules_par  # noqa: F401

    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """Every id ``select``/``ignore`` can name, sorted: the registered
    rules plus the engine-owned diagnostics."""
    from repro.lint import rules_det, rules_obs, rules_par  # noqa: F401

    return sorted(
        [
            *_REGISTRY,
            SUPPRESSION_RULE_ID,
            UNUSED_SUPPRESSION_RULE_ID,
            PARSE_ERROR_RULE_ID,
        ]
    )


# Violation ids owned by the engine rather than a visitor rule:
#: a suppression comment that is malformed or reason-less.
SUPPRESSION_RULE_ID = "SUP001"
#: a well-formed suppression that silenced nothing or names no rule.
UNUSED_SUPPRESSION_RULE_ID = "SUP002"
#: a file the engine could not read or parse.
PARSE_ERROR_RULE_ID = "LNT001"

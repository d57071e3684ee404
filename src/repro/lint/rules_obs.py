"""OBS rules: tracer hygiene.

`repro.obs` spans are context managers whose exit both records the
duration and pops the tracer's nesting stack; `Tracer.graft` is the
exactly-once merge point for span trees shipped back from pool workers.
Misusing either corrupts the trace silently — spans never close (phase
timings stop tiling wall time) or worker spans merge twice.  These rules
keep new instrumentation inside the two sanctioned shapes.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.rules import Rule, RuleMeta, register
from repro.lint.rules_par import POOL_FACTORIES

__all__ = ["SpanNeedsWithRule", "GraftSiteRule"]


@register
class SpanNeedsWithRule(Rule):
    """OBS001: ``.span(...)`` opened outside a ``with`` statement."""

    meta = RuleMeta(
        id="OBS001",
        name="span-needs-with",
        family="OBS",
        severity="error",
        summary="`tracer.span(...)` not used as a `with` context manager",
        rationale=(
            "A span only records its duration — and only pops the tracer's "
            "nesting stack — in `__exit__`. A span that is created but never "
            "entered/exited leaves the trace mis-nested and its phase "
            "unaccounted, which breaks the spans-tile-wall-time invariant."
        ),
        fix_hint=(
            "open the span with `with tracer.span('name') as sp:` (assigning "
            "first and entering the name later is fine)"
        ),
        example_bad=(
            "sp = tracer.span('stage')\ndo_work()\nsp.incr('n', 1)"
        ),
        example_good=(
            "with tracer.span('stage') as sp:\n    do_work()\n"
            "    sp.incr('n', 1)"
        ),
    )

    def _with_context_names(self, scope: ast.AST) -> frozenset[str]:
        """Names used as `with X:` context expressions inside ``scope``."""
        names: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Name):
                        names.add(item.context_expr.id)
        return frozenset(names)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr == "span":
            if not self._is_with_managed(node):
                self.report(
                    node,
                    "span created but not managed by a `with` statement",
                )
        self.generic_visit(node)

    def _is_with_managed(self, call: ast.Call) -> bool:
        # Walk out of pure value-routing wrappers: conditional expressions
        # and boolean fallbacks still produce the span as the result.
        node: ast.AST = call
        parent = self.ctx.parent(node)
        while isinstance(parent, (ast.IfExp, ast.BoolOp)):
            node, parent = parent, self.ctx.parent(parent)
        if isinstance(parent, ast.withitem):
            return True
        if isinstance(parent, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets: list[ast.expr]
            if isinstance(parent, ast.Assign):
                targets = list(parent.targets)
            else:
                targets = [parent.target]
            scope = self.ctx.enclosing_function(call) or self.ctx.tree
            with_names = self._with_context_names(scope)
            return any(
                isinstance(t, ast.Name) and t.id in with_names for t in targets
            )
        if isinstance(parent, ast.Return):
            # A factory returning a span delegates the `with` to its caller;
            # flagging it would outlaw legitimate helpers.
            return True
        return False


@register
class GraftSiteRule(Rule):
    """OBS002: ``Tracer.graft`` called outside a pool-merge module."""

    meta = RuleMeta(
        id="OBS002",
        name="graft-site",
        family="OBS",
        severity="error",
        summary="`tracer.graft(...)` called in a module with no process pool",
        rationale=(
            "`graft` exists solely to merge span trees shipped back from "
            "pool workers, exactly once per worker tree, at the fan-out site "
            "that created them. A graft anywhere else duplicates spans or "
            "attaches them under the wrong parent, and there is no pool "
            "whose outcomes could justify it."
        ),
        fix_hint=(
            "record into the ambient tracer directly; only the pool fan-out "
            "helper that shipped the worker's span dict may graft it"
        ),
        example_bad=(
            "def combine(tracer, trace_dict):\n"
            "    tracer.graft(trace_dict)  # module has no pool"
        ),
        example_good=(
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "with ProcessPoolExecutor() as pool:\n"
            "    outcomes = list(pool.map(_work, jobs))\n"
            "for _result, trace in outcomes:\n"
            "    tracer.graft(trace)"
        ),
    )

    def prepare(self, ctx: ModuleContext) -> None:
        imported = set(ctx.from_imports.values())
        modules = set(ctx.module_aliases.values())
        self._has_pool = bool(
            imported & POOL_FACTORIES
            or {"multiprocessing", "multiprocessing.pool"} & modules
            or "concurrent.futures" in modules
        )

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "graft"
            and not self._has_pool
        ):
            self.report(
                node,
                "`graft` called in a module that runs no process pool; "
                "worker traces must merge at their fan-out site",
            )
        self.generic_visit(node)

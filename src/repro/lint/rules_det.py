"""DET rules: source-level determinism hazards.

The flow's headline numbers (CF-estimator error bars, SA convergence,
fast/reference kernel equivalence) are only meaningful because a fixed
seed reproduces them bitwise.  These rules catch the ways that property
silently erodes: ambient RNG state, wall-clock reads in library code,
and iteration orders the runtime does not guarantee.
"""

from __future__ import annotations

import ast

from repro.lint.context import ModuleContext
from repro.lint.rules import Rule, RuleMeta, register

__all__ = [
    "AmbientRandomRule",
    "AmbientNumpyRandomRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "UnsortedListingRule",
]


@register
class AmbientRandomRule(Rule):
    """DET001: calls into the stdlib ``random`` module's global state."""

    meta = RuleMeta(
        id="DET001",
        name="ambient-random",
        family="DET",
        severity="error",
        summary="call to the stdlib `random` module's ambient RNG",
        rationale=(
            "Module-level `random.*` draws from interpreter-global state, so "
            "results depend on every other draw in the process and on import "
            "order; a seeded generator threaded as a parameter is reproducible."
        ),
        fix_hint=(
            "thread a seeded generator instead: accept an "
            "`rng: np.random.Generator` parameter (see repro.utils.rng.stream)"
        ),
        example_bad="import random\nx = random.random()",
        example_good=(
            "from repro.utils.rng import stream\n"
            "rng = stream(seed, 'stage')\nx = rng.random()"
        ),
    )

    #: Explicit instance constructors are fine — they carry their own state.
    _ALLOWED = frozenset({"Random", "SystemRandom", "getstate"})

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.call_name(node)
        if name and name.startswith("random."):
            leaf = name.rsplit(".", 1)[1]
            if leaf not in self._ALLOWED:
                self.report(node, f"call to ambient RNG `{name}`")
        self.generic_visit(node)


@register
class AmbientNumpyRandomRule(Rule):
    """DET002: legacy ``numpy.random`` module-level RNG calls."""

    meta = RuleMeta(
        id="DET002",
        name="ambient-np-random",
        family="DET",
        severity="error",
        summary="call to numpy's legacy global RNG (`np.random.<fn>`)",
        rationale=(
            "`np.random.rand/seed/shuffle/...` mutate one process-wide "
            "RandomState; any concurrent or reordered draw changes every "
            "later result. `np.random.default_rng(seed)` gives an isolated, "
            "seedable Generator."
        ),
        fix_hint=(
            "use `np.random.default_rng(seed)` / repro.utils.rng.stream and "
            "pass the Generator down"
        ),
        example_bad="import numpy as np\nx = np.random.rand(3)",
        example_good="rng = np.random.default_rng(0)\nx = rng.random(3)",
    )

    #: Constructors of explicit, self-contained generator state.
    _ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "RandomState",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "MT19937",
            "Philox",
            "SFC64",
        }
    )

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.call_name(node)
        if name and name.startswith("numpy.random."):
            leaf = name.rsplit(".", 1)[1]
            if leaf not in self._ALLOWED:
                self.report(node, f"call to numpy's global RNG `{name}`")
        self.generic_visit(node)


@register
class WallClockRule(Rule):
    """DET003: wall-clock reads in library code."""

    meta = RuleMeta(
        id="DET003",
        name="wall-clock",
        family="DET",
        severity="error",
        summary="wall-clock read (`time.time()` / argless `datetime.now()`)",
        rationale=(
            "Wall time is not monotonic (NTP steps, DST) and never "
            "reproducible; durations must use `time.perf_counter()` and any "
            "timestamp a result needs must be injected at the CLI boundary."
        ),
        fix_hint=(
            "use `time.perf_counter()` for durations; pass timestamps in as "
            "arguments from the entry point"
        ),
        example_bad="import time\nt0 = time.time()",
        example_good="import time\nt0 = time.perf_counter()",
    )

    #: Always-flagged callables.
    _BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    #: Flagged only when called without arguments (`now(tz)` is at least
    #: explicit about being a timestamp; argless `now()` is the reflex).
    _BANNED_ARGLESS = frozenset({"datetime.datetime.now"})

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.call_name(node)
        if name in self._BANNED:
            self.report(node, f"wall-clock read `{name}()`")
        elif (
            name in self._BANNED_ARGLESS and not node.args and not node.keywords
        ):
            self.report(node, f"argless wall-clock read `{name}()`")
        self.generic_visit(node)


def _is_setish(node: ast.AST, ctx: ModuleContext, local_sets: frozenset[str]) -> bool:
    """Syntactically certain to evaluate to a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and (
        ctx.is_builtin_call(node, "set") or ctx.is_builtin_call(node, "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish(node.left, ctx, local_sets) or _is_setish(
            node.right, ctx, local_sets
        )
    if isinstance(node, ast.Name):
        return node.id in local_sets
    return False


def _set_typed_names(scope: ast.AST, ctx: ModuleContext) -> frozenset[str]:
    """Names bound to set expressions (or annotated as sets) in ``scope``."""
    names: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign):
            if _is_setish(node.value, ctx, frozenset(names)):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            text = None
            if isinstance(base, ast.Name):
                text = base.id
            elif isinstance(base, ast.Constant) and isinstance(base.value, str):
                text = base.value.split("[", 1)[0]
            if text in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}:
                names.add(node.target.id)
    return frozenset(names)


def _accumulates(body: list[ast.stmt]) -> bool:
    """Does a loop body feed an order-sensitive accumulation?"""
    ordered_mutators = {"append", "extend", "insert"}
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return True
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ordered_mutators:
                    return True
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if any(isinstance(t, ast.Subscript) for t in targets):
                    return True
    return False


@register
class UnorderedIterationRule(Rule):
    """DET004: iterating an unordered set into an ordered accumulation."""

    meta = RuleMeta(
        id="DET004",
        name="unordered-iteration",
        family="DET",
        severity="error",
        summary=(
            "iteration over a set feeding an order-sensitive accumulation "
            "without `sorted()`"
        ),
        rationale=(
            "Set iteration order follows string hashing, which PYTHONHASHSEED "
            "randomizes per process — float sums, appended lists and dict "
            "insertion orders built from it differ run to run and worker to "
            "worker. (CPython dicts are insertion-ordered and exempt; the "
            "hazard of completion-order insertion is PAR003's.)"
        ),
        fix_hint="iterate `sorted(the_set)` (or a stable key) instead",
        example_bad=(
            "total = 0.0\nfor name in {'b', 'a'}:\n    total += costs[name]"
        ),
        example_good=(
            "total = 0.0\nfor name in sorted({'b', 'a'}):\n"
            "    total += costs[name]"
        ),
    )

    #: Order-insensitive consumers of a generator over a set.
    _ORDER_FREE = frozenset(
        {"min", "max", "any", "all", "len", "sorted", "set", "frozenset", "sum"}
    )
    # `sum` over ints is order-free, over floats it is not — but flagging
    # every `sum(... for ... in set)` drowns real findings; the `for`-loop
    # accumulation form is where the repo's numeric code lives.

    def _local_sets(self, node: ast.AST) -> frozenset[str]:
        scope = self.ctx.enclosing_function(node) or self.ctx.tree
        return _set_typed_names(scope, self.ctx)

    def visit_For(self, node: ast.For) -> None:
        if _is_setish(node.iter, self.ctx, self._local_sets(node)) and _accumulates(
            node.body
        ):
            self.report(
                node.iter,
                "set iterated in hash order while the loop body accumulates "
                "an ordered result",
            )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        gen = node.generators[0]
        if _is_setish(gen.iter, self.ctx, self._local_sets(node)):
            self.report(
                gen.iter, "list built from a set in hash order; wrap in sorted()"
            )
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        gen = node.generators[0]
        if _is_setish(gen.iter, self.ctx, self._local_sets(node)):
            parent = self.ctx.parent(node)
            consumer = None
            if isinstance(parent, ast.Call):
                if isinstance(parent.func, ast.Name):
                    consumer = parent.func.id
                elif isinstance(parent.func, ast.Attribute):
                    consumer = parent.func.attr
            if consumer not in self._ORDER_FREE:
                self.report(
                    gen.iter,
                    "generator over a set consumed in hash order; wrap in "
                    "sorted()",
                )
        self.generic_visit(node)


@register
class UnsortedListingRule(Rule):
    """DET005: directory/glob listings consumed without ``sorted()``."""

    meta = RuleMeta(
        id="DET005",
        name="unsorted-listing",
        family="DET",
        severity="error",
        summary="`os.listdir`/`glob.glob`/`Path.iterdir` without `sorted()`",
        rationale=(
            "Directory enumeration order is filesystem-dependent (and differs "
            "across machines and runs); any result built from it inherits "
            "that order."
        ),
        fix_hint="wrap the listing in `sorted(...)` before consuming it",
        example_bad="import os\nfiles = os.listdir(path)",
        example_good="import os\nfiles = sorted(os.listdir(path))",
    )

    _MODULE_CALLS = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _METHOD_CALLS = frozenset({"iterdir", "glob", "rglob"})

    def visit_Call(self, node: ast.Call) -> None:
        name = self.ctx.call_name(node)
        hit: str | None = None
        if name in self._MODULE_CALLS:
            hit = name
        elif (
            name is None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._METHOD_CALLS
        ):
            # A method on a non-module object: Path-like by convention.
            hit = f"<path>.{node.func.attr}"
        if hit is not None and not self._order_safe(node):
            self.report(node, f"filesystem listing `{hit}(...)` not sorted")
        self.generic_visit(node)

    #: Sinks that erase iteration order entirely.
    _UNORDERED_SINKS = frozenset({"sorted", "set", "frozenset"})

    def _order_safe(self, call: ast.Call) -> bool:
        # Climb through comprehension plumbing: in
        # `sorted(q for q in p.rglob(...))` the listing's parent chain is
        # comprehension -> GeneratorExp -> the sorted() call.
        node: ast.AST = call
        parent = self.ctx.parent(node)
        while isinstance(
            parent, (ast.comprehension, ast.GeneratorExp, ast.ListComp)
        ):
            node, parent = parent, self.ctx.parent(parent)
        return isinstance(parent, ast.Call) and any(
            self.ctx.is_builtin_call(parent, sink)
            for sink in self._UNORDERED_SINKS
        )

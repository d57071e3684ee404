"""Per-module analysis context shared by every lint rule.

A :class:`ModuleContext` wraps one parsed source file and precomputes
the cross-cutting facts rules keep needing:

* a **parent map** (``ast`` nodes do not link upward), so rules can ask
  "is this call directly inside ``sorted(...)``?" or "which function
  encloses this node?";
* an **import table** that resolves local aliases back to canonical
  dotted names — ``np.random.rand`` resolves to ``numpy.random.rand``
  whether numpy was imported as ``np``, ``numpy``, or via
  ``from numpy import random as npr``.

Rules stay purely syntactic: no code is imported or executed, so the
linter is safe to run on arbitrary (even broken-at-runtime) sources.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["ModuleContext"]


class ModuleContext:
    """One parsed module plus the derived lookup tables rules share."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree

        #: child-id -> parent node (ast nodes are unhashable by value,
        #: identity keys are the standard trick).
        self._parents: dict[int, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent

        #: local name -> canonical dotted module path ("np" -> "numpy",
        #: "npr" -> "numpy.random") from ``import X [as Y]``.
        self.module_aliases: dict[str, str] = {}
        #: local name -> canonical dotted item ("randint" ->
        #: "random.randint") from ``from X import Y [as Z]``.
        self.from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{node.module}.{alias.name}"

    # ------------------------------------------------------------- navigation

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The direct parent of ``node`` (None for the module root)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of ``node`` from nearest to the module root."""
        cur = self.parent(node)
        while cur is not None:
            yield cur
            cur = self.parent(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The innermost function definition containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    # ------------------------------------------------------------- resolution

    def dotted_name(self, node: ast.AST) -> str | None:
        """The canonical dotted name of an attribute chain, or None.

        Leading local aliases are expanded through the import table, so
        the result is stable under renaming imports: ``np.random.rand``,
        ``numpy.random.rand`` and ``npr.rand`` all resolve to
        ``"numpy.random.rand"``.  Chains not rooted in an import (e.g.
        ``self.span``) return None.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        if head in self.module_aliases:
            parts.append(self.module_aliases[head])
        elif head in self.from_imports:
            parts.append(self.from_imports[head])
        else:
            return None
        return ".".join(reversed(parts))

    def call_name(self, call: ast.Call) -> str | None:
        """:meth:`dotted_name` of a call's callee."""
        return self.dotted_name(call.func)

    def is_builtin_call(self, call: ast.Call, name: str) -> bool:
        """True when ``call`` invokes the *builtin* ``name`` directly.

        A local import of the same name (``from x import set``) takes
        precedence and disqualifies the call.
        """
        return (
            isinstance(call.func, ast.Name)
            and call.func.id == name
            and call.func.id not in self.from_imports
            and call.func.id not in self.module_aliases
        )

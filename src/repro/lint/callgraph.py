"""Project-wide symbol table and call graph for whole-program lint rules.

A :class:`ProjectIndex` ties the per-module
:class:`~repro.lint.context.ModuleContext` tables together: every
function definition in every linted module gets a canonical qualified
name (``repro.flow.fanout.FanOut.run``), and every call site is resolved
— through the *existing* alias machinery (``import x as y`` /
``from x import y as z``) plus package re-export chains
(``from repro.flow import FanOut`` where ``FanOut`` really lives in
``repro.flow.fanout``) — back to the definition it invokes, when that
definition is inside the project.

:mod:`repro.lint.dataflow` runs its abstract value-flow over the
resolved graph (the FLOW/RED rules).

Resolution is deliberately conservative: a call that cannot be resolved
syntactically stays ``None`` and the dataflow rules treat it as opaque
(no tags propagate through it, no finding is based on it).  Nothing is
imported or executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.lint.context import ModuleContext

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name_for",
]


def module_name_for(path: str, package_files: Iterable[str]) -> str:
    """Dotted module name of ``path`` given the set of project files.

    Walks up from the file while a sibling ``__init__.py`` marks the
    directory as a package — the same rule the import system applies —
    so ``src/repro/flow/fanout.py`` maps to ``repro.flow.fanout``
    regardless of the ``src/`` prefix.  ``package_files`` is the
    (posix-slash) path set of every file in the lint run, used to probe
    for ``__init__.py`` without touching the filesystem, which keeps the
    function usable on in-memory sources.
    """
    norm = path.replace("\\", "/")
    files = {p.replace("\\", "/") for p in package_files}
    parts = norm.split("/")
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    pkg: list[str] = []
    # Climb while the parent directory is a package (has __init__.py).
    for depth in range(len(parts) - 1, 0, -1):
        parent = "/".join(parts[:depth])
        if f"{parent}/__init__.py" in files:
            pkg.insert(0, parts[depth - 1])
        else:
            break
    if stem == "__init__":
        return ".".join(pkg) if pkg else stem
    return ".".join(pkg + [stem])


@dataclass
class CallSite:
    """One call expression, resolved as far as syntax allows."""

    #: Canonical dotted target: a project function's qname, an external
    #: dotted name (``concurrent.futures.as_completed``), or None.
    callee: str | None
    node: ast.Call
    #: Qname of the enclosing function ("" for module-level code).
    caller: str


@dataclass
class FunctionInfo:
    """One function/method definition plus its resolved call sites."""

    qname: str
    module: str
    name: str
    params: tuple[str, ...]
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[CallSite] = field(default_factory=list)

    def param_index(self, name: str) -> int | None:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ModuleInfo:
    """One indexed module: context, definitions, outgoing call sites."""

    name: str
    ctx: ModuleContext
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Classes defined at module top level (names only; methods are
    #: indexed as ``module.Class.method`` functions).
    classes: tuple[str, ...] = ()
    #: Module-level (caller == "") call sites.
    toplevel_calls: list[CallSite] = field(default_factory=list)


class ProjectIndex:
    """Symbol table + call graph over every module of one lint run."""

    def __init__(self, contexts: dict[str, ModuleContext]) -> None:
        #: path -> dotted module name, and the reverse.
        paths = list(contexts)
        self.module_of_path: dict[str, str] = {
            p: module_name_for(p, paths) for p in paths
        }
        self.modules: dict[str, ModuleInfo] = {}
        #: qname -> FunctionInfo across the whole project.
        self.functions: dict[str, FunctionInfo] = {}
        for path, ctx in contexts.items():
            mod = self._index_module(self.module_of_path[path], ctx)
            self.modules[mod.name] = mod
        for mod in self.modules.values():
            self._resolve_calls(mod)

    # -------------------------------------------------------------- indexing

    def _index_module(self, name: str, ctx: ModuleContext) -> ModuleInfo:
        mod = ModuleInfo(name=name, ctx=ctx)
        classes: list[str] = []
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, prefix=name)
            elif isinstance(node, ast.ClassDef):
                classes.append(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(
                            mod, item, prefix=f"{name}.{node.name}"
                        )
        mod.classes = tuple(classes)
        return mod

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
    ) -> None:
        params = tuple(
            a.arg
            for a in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
        )
        info = FunctionInfo(
            qname=f"{prefix}.{node.name}",
            module=mod.name,
            name=node.name,
            params=params,
            node=node,
        )
        mod.functions[info.qname] = info
        self.functions[info.qname] = info

    # ------------------------------------------------------------ resolution

    def resolve_symbol(self, dotted: str, *, _seen: frozenset[str] = frozenset()) -> str | None:
        """Canonicalize ``dotted`` through package re-export chains.

        ``repro.flow.FanOut`` resolves to ``repro.flow.fanout.FanOut``
        when ``repro.flow``'s ``__init__`` does
        ``from repro.flow.fanout import FanOut``.  Chains are followed
        transitively with a cycle guard; a name that never lands on a
        project definition returns its deepest resolved form.
        """
        if dotted in _seen:
            return dotted
        if dotted in self.functions:
            return dotted
        head, _, leaf = dotted.rpartition(".")
        mod = self.modules.get(head)
        if mod is None:
            return dotted
        if dotted in mod.functions or leaf in mod.classes:
            return dotted
        target = mod.ctx.from_imports.get(leaf)
        if target is not None:
            return self.resolve_symbol(target, _seen=_seen | {dotted})
        alias = mod.ctx.module_aliases.get(leaf)
        if alias is not None:
            return alias
        return dotted

    def resolve_call(self, ctx: ModuleContext, mod_name: str, call: ast.Call) -> str | None:
        """Canonical dotted target of ``call`` inside module ``mod_name``."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            mod = self.modules[mod_name]
            if f"{mod_name}.{name}" in mod.functions or name in mod.classes:
                return self.resolve_symbol(f"{mod_name}.{name}")
            if name in ctx.from_imports:
                return self.resolve_symbol(ctx.from_imports[name])
            if name in ctx.module_aliases:
                return ctx.module_aliases[name]
            return None
        dotted = ctx.dotted_name(func)
        if dotted is not None:
            resolved = self.resolve_symbol(dotted)
            # `Class.method` / `module.Class(...)` style: also try the
            # class-resolved form so `flow.FanOut` chases the re-export.
            return resolved
        # `obj.method(...)`: resolvable only when `obj` is typed locally;
        # the dataflow layer handles the receiver-type cases it needs.
        return None

    def _resolve_calls(self, mod: ModuleInfo) -> None:
        ctx = mod.ctx
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            enclosing = ctx.enclosing_function(node)
            caller = ""
            if enclosing is not None:
                caller = self._qname_of_def(mod, enclosing) or ""
            site = CallSite(
                callee=self.resolve_call(ctx, mod.name, node),
                node=node,
                caller=caller,
            )
            if caller and caller in mod.functions:
                mod.functions[caller].calls.append(site)
            else:
                mod.toplevel_calls.append(site)

    def _qname_of_def(
        self, mod: ModuleInfo, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> str | None:
        parent = mod.ctx.parent(node)
        if isinstance(parent, ast.Module):
            q = f"{mod.name}.{node.name}"
        elif isinstance(parent, ast.ClassDef) and isinstance(
            mod.ctx.parent(parent), ast.Module
        ):
            q = f"{mod.name}.{parent.name}.{node.name}"
        else:
            return None  # nested functions are opaque to the call graph
        return q if q in mod.functions else None

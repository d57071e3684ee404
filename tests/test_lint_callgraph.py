"""Pinned-fixture tests for the project symbol table / call graph.

The fixture package exercises exactly the resolution paths the
FLOW/RED rules depend on: module naming under a ``src/`` prefix,
``import x as y`` aliases, ``from x import y as z``, and a package
``__init__`` re-export chain a per-module pass cannot see through.
"""

from __future__ import annotations

import ast

import pytest

from repro.lint.callgraph import ProjectIndex, module_name_for
from repro.lint.context import ModuleContext

# A small pinned project: pkg.api re-exports pkg.core.engine, pkg.app
# calls it through three different spellings.
FIXTURE = {
    "src/pkg/__init__.py": "from pkg.core import engine\n",
    "src/pkg/core.py": (
        "def engine(seed):\n"
        "    return helper(seed)\n\n"
        "def helper(seed):\n"
        "    return seed + 1\n\n"
        "class Machine:\n"
        "    def crank(self, n):\n"
        "        return engine(n)\n"
    ),
    "src/pkg/app.py": (
        "import pkg.core as core\n"
        "from pkg import engine\n"
        "from pkg.core import helper as h\n\n"
        "def direct(seed):\n"
        "    return core.engine(seed)\n\n"
        "def reexported(seed):\n"
        "    return engine(seed)\n\n"
        "def aliased(seed):\n"
        "    return h(seed)\n"
    ),
    "scripts/tool.py": "def standalone():\n    return 0\n",
}


def build_index(files: dict[str, str]) -> ProjectIndex:
    return ProjectIndex(
        {p: ModuleContext(p, src, ast.parse(src)) for p, src in files.items()}
    )


@pytest.fixture()
def index() -> ProjectIndex:
    return build_index(FIXTURE)


# ------------------------------------------------------------- module naming


def test_module_name_climbs_packages_past_src_prefix():
    files = list(FIXTURE)
    assert module_name_for("src/pkg/core.py", files) == "pkg.core"
    assert module_name_for("src/pkg/__init__.py", files) == "pkg"
    # No __init__.py above it: bare stem.
    assert module_name_for("scripts/tool.py", files) == "tool"


def test_module_name_for_nested_subpackage():
    files = ["src/a/__init__.py", "src/a/b/__init__.py", "src/a/b/c.py"]
    assert module_name_for("src/a/b/c.py", files) == "a.b.c"
    # Break in the package chain stops the climb.
    files_no_mid = ["src/a/__init__.py", "src/a/b/c.py"]
    assert module_name_for("src/a/b/c.py", files_no_mid) == "c"


# ---------------------------------------------------------------- resolution


def test_functions_and_methods_get_qualified_names(index):
    assert "pkg.core.engine" in index.functions
    assert "pkg.core.helper" in index.functions
    assert "pkg.core.Machine.crank" in index.functions
    assert index.functions["pkg.core.engine"].params == ("seed",)


def test_calls_resolve_through_module_alias(index):
    direct = index.functions["pkg.app.direct"]
    assert [s.callee for s in direct.calls] == ["pkg.core.engine"]


def test_calls_resolve_through_package_reexport(index):
    # `from pkg import engine` must land on pkg.core.engine via the
    # __init__ re-export — the chain a single-module pass cannot follow.
    reexported = index.functions["pkg.app.reexported"]
    assert [s.callee for s in reexported.calls] == ["pkg.core.engine"]


def test_calls_resolve_through_from_import_alias(index):
    aliased = index.functions["pkg.app.aliased"]
    assert [s.callee for s in aliased.calls] == ["pkg.core.helper"]


def test_local_call_and_method_body_resolution(index):
    engine = index.functions["pkg.core.engine"]
    assert [s.callee for s in engine.calls] == ["pkg.core.helper"]
    crank = index.functions["pkg.core.Machine.crank"]
    assert [s.callee for s in crank.calls] == ["pkg.core.engine"]


def test_unresolvable_call_stays_opaque():
    index = build_index(
        {"m.py": "def f(obj):\n    return obj.method() + unknown()\n"}
    )
    assert [s.callee for s in index.functions["m.f"].calls] == [None, None]

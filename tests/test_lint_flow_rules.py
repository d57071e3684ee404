"""Whole-program FLOW/RED rules: metadata examples + cross-file cases.

Every cross-file fixture is checked twice: linting the files *together*
must fire the rule, and linting each file *individually* must stay
quiet — the proof that a single-module pass cannot catch the hazard.
"""

from __future__ import annotations

import pytest

from repro.lint import all_project_rules, lint_sources


def rules_fired(files: dict[str, str]) -> set[str]:
    return {v.rule for v in lint_sources(files).violations}


def findings(files: dict[str, str], rule: str):
    return [v for v in lint_sources(files).violations if v.rule == rule]


# ------------------------------------------------- metadata self-consistency


@pytest.mark.parametrize(
    "rule_cls", all_project_rules(), ids=lambda c: c.meta.id
)
def test_project_rule_examples_are_self_consistent(rule_cls):
    meta = rule_cls.meta
    assert meta.id in rules_fired({"example_bad.py": meta.example_bad}), (
        f"{meta.id} example_bad does not fire its own rule"
    )
    assert meta.id not in rules_fired({"example_good.py": meta.example_good}), (
        f"{meta.id} example_good fires its own rule"
    )


# ------------------------------------------------------ cross-file fixtures
#
# Each fixture splits source and sink of a hazard across modules, with a
# package __init__ so imports resolve through real module names.

PKG_INIT = {"pkg/__init__.py": ""}


def assert_cross_file_only(files: dict[str, str], rule: str) -> list:
    """The rule fires on the whole project but on no file alone."""
    hits = findings(files, rule)
    assert hits, f"{rule} did not fire on the combined fixture"
    for path, src in files.items():
        solo = findings({path: src}, rule)
        assert not solo, f"{rule} fired on {path} alone: {solo}"
    return hits


def test_flow001_ambient_rng_forwarded_across_modules():
    files = {
        **PKG_INIT,
        "pkg/workers.py": (
            "from concurrent.futures import ProcessPoolExecutor\n\n"
            "def work(rng):\n"
            "    return rng.random()\n\n"
            "def launch(rng):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        fut = pool.submit(work, rng)\n"
            "    return fut.result()\n"
        ),
        "pkg/driver.py": (
            "import numpy as np\n\n"
            "from pkg.workers import launch\n\n"
            "def main():\n"
            "    rng = np.random.default_rng()\n"
            "    return launch(rng)\n"
        ),
    }
    hits = assert_cross_file_only(files, "FLOW001")
    # The finding lands at the hand-off in driver.py and carries a
    # two-frame trace ending at the fan-out.
    assert hits[0].path == "pkg/driver.py"
    assert len(hits[0].trace) == 2
    assert "pkg/workers.py" in hits[0].trace[1]
    # Seeding the generator at the source fixes it.
    fixed = dict(files)
    fixed["pkg/driver.py"] = files["pkg/driver.py"].replace(
        "default_rng()", "default_rng(7)"
    )
    assert not findings(fixed, "FLOW001")


def test_flow002_shared_rng_with_worker_in_another_module():
    files = {
        **PKG_INIT,
        "pkg/fan.py": (
            "class FanOut:\n"
            "    def run(self, worker, jobs):\n"
            "        return [worker(j) for j in jobs]\n"
        ),
        "pkg/workers.py": (
            "def work(rng):\n"
            "    return rng.random()\n"
        ),
        "pkg/driver.py": (
            "import numpy as np\n\n"
            "from pkg.fan import FanOut\n"
            "from pkg.workers import work\n\n"
            "def launch(seed, n):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    fan = FanOut()\n"
            "    return fan.run(work, [rng for _ in range(n)])\n"
        ),
    }
    hits = assert_cross_file_only(files, "FLOW002")
    assert hits[0].path == "pkg/driver.py"
    assert "rng" in hits[0].message
    assert any("pkg/workers.py" in frame for frame in hits[0].trace)
    # Per-job substreams are the sanctioned shape.
    fixed = dict(files)
    fixed["pkg/driver.py"] = files["pkg/driver.py"].replace(
        "[rng for _ in range(n)]", "rng.spawn(n)"
    )
    assert not findings(fixed, "FLOW002")


def test_red001_set_provenance_from_another_module():
    files = {
        **PKG_INIT,
        "pkg/helper.py": (
            "def pending():\n"
            "    return {'b', 'a'}\n"
        ),
        "pkg/driver.py": (
            "from pkg.helper import pending\n\n"
            "def total(costs):\n"
            "    acc = 0.0\n"
            "    for name in pending():\n"
            "        acc += costs[name]\n"
            "    return acc\n"
        ),
    }
    hits = assert_cross_file_only(files, "RED001")
    assert hits[0].path == "pkg/driver.py"
    assert "acc" in hits[0].message
    # sorted() at the consumption site restores a reproducible order.
    fixed = dict(files)
    fixed["pkg/driver.py"] = files["pkg/driver.py"].replace(
        "in pending()", "in sorted(pending())"
    )
    assert not findings(fixed, "RED001")

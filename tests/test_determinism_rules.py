"""Source rules that keep seeded runs bitwise reproducible, over ``src/``.

* DET001: no call into the stdlib ``random`` module's global state
  (``random.Random(seed)`` instances carry their own);
* DET002: no legacy ``numpy.random`` module-level call (seeded
  ``default_rng`` and the generator classes are fine);
* DET003: no wall-clock read (``time.time()``, argless ``now()``);
  durations use ``time.perf_counter()``.

Calls resolve through the module's imports, so ``import numpy as np``,
``from numpy import random as npr`` and ``from time import time`` are
all seen.  The cross-process tests check the property itself.
"""

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_NP_OK = {"default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator",
          "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
_CLOCKS = {"time.time", "time.time_ns", "datetime.datetime.utcnow",
           "datetime.datetime.today", "datetime.date.today"}
RULES = {
    "DET001": lambda name, call: name.startswith("random.")
    and name.rsplit(".", 1)[1] not in {"Random", "SystemRandom", "getstate"},
    "DET002": lambda name, call: name.startswith("numpy.random.")
    and name.rsplit(".", 1)[1] not in _NP_OK,
    "DET003": lambda name, call: name in _CLOCKS or (
        name == "datetime.datetime.now" and not call.args and not call.keywords),
}


def violations(source: str, rule: str) -> list[str]:
    """``line: dotted.name()`` for each call in ``source`` that breaks ``rule``."""
    tree = ast.parse(source)
    aliases = {}  # local name -> the dotted name it was imported as
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.name.split(".", 1)[0]
                aliases[a.asname or head] = a.name if a.asname else head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in aliases:
            name = ".".join([aliases[func.id], *reversed(parts)])
            if RULES[rule](name, node):
                found.append(f"{node.lineno}: {name}()")
    return found


@pytest.mark.parametrize("rule", sorted(RULES))
def test_src_obeys(rule):
    bad = [f"{path.relative_to(SRC)}:{v}" for path in sorted(SRC.rglob("*.py"))
           for v in violations(path.read_text(), rule)]
    assert not bad, f"{rule} broken at:\n" + "\n".join(bad)


#: Per rule: two aliased violations among allowed look-alikes.
_ALIASED = {
    "DET001": "import random as r\nfrom random import shuffle as mix\n"
              "r.random()\nmix([1])\nr.Random(0).random()",
    "DET002": "import numpy as np\nfrom numpy import random as npr\n"
              "np.random.seed(0)\nnpr.rand(3)\nnp.random.default_rng(0)",
    "DET003": "import datetime as dt\nfrom time import perf_counter, time\n"
              "time()\ndt.datetime.now()\ndt.datetime.now(dt.timezone.utc)\nperf_counter()",
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_sees_through_aliases(rule):
    assert [v.split(":")[0] for v in violations(_ALIASED[rule], rule)] == ["3", "4"]


def _hits(source: str, rule: str) -> list[str]:
    return violations(textwrap.dedent(source), rule)


def test_det001_fires_on_module_level_random():
    hits = _hits("""
        import random
        def jitter():
            return random.random() + random.randint(0, 3)
    """, "DET001")
    assert len(hits) == 2
    assert "random.random" in hits[0]


def test_det001_fires_on_from_import():
    assert len(_hits("""
        from random import shuffle
        def mix(items):
            shuffle(items)
    """, "DET001")) == 1


def test_det001_quiet_on_threaded_generator():
    assert _hits("""
        import numpy as np
        def jitter(rng: np.random.Generator) -> float:
            return float(rng.random())
    """, "DET001") == []


def test_det001_quiet_on_explicit_instance():
    assert _hits("""
        import random
        def make(seed):
            return random.Random(seed)
    """, "DET001") == []


def test_det002_fires_on_legacy_numpy_rng():
    assert len(_hits("""
        import numpy as np
        def noise(n):
            np.random.seed(0)
            return np.random.rand(n)
    """, "DET002")) == 2


def test_det002_fires_through_import_alias():
    assert len(_hits("""
        from numpy import random as npr
        x = npr.randint(0, 5)
    """, "DET002")) == 1


def test_det002_quiet_on_default_rng():
    assert _hits("""
        import numpy as np
        rng = np.random.default_rng(42)
        x = rng.normal(size=3)
        seq = np.random.SeedSequence(7)
    """, "DET002") == []


def test_det003_fires_on_time_time_and_argless_now():
    assert len(_hits("""
        import time
        from datetime import datetime
        def stamp():
            return time.time(), datetime.now(), datetime.utcnow()
    """, "DET003")) == 3


def test_det003_quiet_on_perf_counter_and_tz_aware_now():
    assert _hits("""
        import time
        from datetime import datetime, timezone
        def dur():
            t0 = time.perf_counter()
            return time.perf_counter() - t0, datetime.now(timezone.utc)
    """, "DET003") == []

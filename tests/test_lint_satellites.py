"""Satellite coverage: statement-scoped suppressions, file discovery,
CLI exit codes and usage errors, json output, and github annotations
from subdirectory invocations."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths, lint_source
from repro.lint.engine import LintResult, iter_python_files
from repro.lint.report import render_github
from repro.lint.rules import Violation

# -------------------------------------------- statement-scoped suppressions


def rules(source: str) -> set[str]:
    return {v.rule for v in lint_source(source).violations}


def test_noqa_on_closing_line_of_multiline_call_suppresses():
    # The violation is reported on the statement's first line; the
    # marker sits two lines down on the closing paren.  Exact-line
    # matching (the pre-fix behaviour) would miss it.
    src = (
        "import time\n\n"
        "value = max(\n"
        "    time.time(),\n"
        ")  # repro: noqa[DET003] wall-clock stamp is intentional here\n"
    )
    result = lint_source(src)
    assert "DET003" not in {v.rule for v in result.violations}
    assert "SUP002" not in {v.rule for v in result.violations}
    assert any(v.rule == "DET003" for v in result.suppressed)


def test_noqa_on_def_line_suppresses_decorator_violation():
    src = (
        "import time\n\n"
        "@DEADLINE.register(time.time())\n"
        "def job():  # repro: noqa[DET003] registration stamp is fine\n"
        "    return 1\n"
    )
    result = lint_source(src)
    assert "DET003" not in {v.rule for v in result.violations}
    assert any(v.rule == "DET003" for v in result.suppressed)


def test_header_noqa_does_not_leak_into_function_body():
    # The def header and the body are different logical statements: a
    # marker on the header must not silence body violations (and is
    # itself reported as unused).
    src = (
        "import time\n\n"
        "def job():  # repro: noqa[DET003] misplaced\n"
        "    return time.time()\n"
    )
    fired = rules(src)
    assert "DET003" in fired
    assert "SUP002" in fired


def test_unused_suppression_is_flagged_with_its_rule_id():
    for rid, problem in (
        ("DET005", "silences nothing"),
        ("ZZZ999", "names no rule"),
        ("FLOW001", "names no rule"),
    ):
        src = f"x = 1  # repro: noqa[{rid}] nothing to silence\n"
        result = lint_source(src)
        sup = [v for v in result.violations if v.rule == "SUP002"]
        assert len(sup) == 1, rid
        assert f"suppression of {rid} {problem}" in sup[0].message


# ------------------------------------------------------------ file discovery


@pytest.fixture()
def tree(tmp_path: Path) -> Path:
    (tmp_path / "a.py").write_text("A = 1\n", encoding="utf-8")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.py").write_text("B = 2\n", encoding="utf-8")
    (sub / "gen_pb2.py").write_text("G = 3\n", encoding="utf-8")
    venv = tmp_path / ".venv"
    venv.mkdir()
    (venv / "c.py").write_text("C = 3\n", encoding="utf-8")
    return tmp_path


def names(files: list[Path], root: Path) -> list[str]:
    return [f.relative_to(root).as_posix() for f in files]


def test_iter_python_files_sorted_recursive(tree):
    found = names(iter_python_files([tree]), tree)
    # Deterministic order: each directory's files first, then its
    # subdirectories, everything sorted.
    assert found == ["a.py", ".venv/c.py", "sub/b.py", "sub/gen_pb2.py"]
    assert found == names(iter_python_files([tree]), tree)


def test_iter_python_files_skips_symlinked_dirs(tree, tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "d.py").write_text("D = 4\n", encoding="utf-8")
    link = tree / "linked"
    try:
        link.symlink_to(outside, target_is_directory=True)
    except OSError:
        pytest.skip("platform does not allow symlinks")
    found = names(iter_python_files([tree]), tree)
    assert not any(n.startswith("linked/") for n in found)
    # The real directory is still walked when named directly.
    assert iter_python_files([outside]) == [outside / "d.py"]


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        iter_python_files([tmp_path / "nope"])


def test_iter_python_files_non_python_path_raises(tmp_path):
    notes = tmp_path / "notes.txt"
    notes.write_text("not code\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a Python file or directory"):
        iter_python_files([notes])


def test_unreadable_file_is_lnt001_and_follows_filters(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_bytes(b'x = "\xff"\n')
    result = lint_paths([bad])
    assert [v.rule for v in result.violations] == ["LNT001"]
    assert "could not be read" in result.violations[0].message
    assert result.files_checked == 1
    # Like a parse failure, LNT001 follows --select/--ignore.
    assert lint_paths([bad], ignore=["LNT001"]).violations == []
    assert lint_paths([bad], select=["DET"]).violations == []


# ------------------------------------------------------- CLI + github output


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n", encoding="utf-8")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nT = time.time()\n", encoding="utf-8")
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")

    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(dirty)]) == 1
    # Unparsable input is a reported violation (LNT001), not a crash.
    assert main(["lint", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "LNT001" in out
    # A missing path is a usage error, not a lint failure.
    assert main(["lint", str(tmp_path / "absent.py")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro lint: error: no such file or directory: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--select", "--ignore"])
@pytest.mark.parametrize("pattern", ["DETT", "det003", "DET003,SPAN", "FLOW"])
def test_cli_rejects_patterns_matching_no_rule(option, pattern, tmp_path, capsys):
    # A typo must not silently turn the gate off: the file has a DET003
    # finding, and a pattern naming no rule is a usage error (exit 2).
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nT = time.time()\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(dirty), option, pattern])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    bad = pattern.split(",")[-1]
    assert f"argument {option}: '{bad}' matches no rule id" in err


def test_cli_accepts_engine_ids_and_family_prefixes(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nT = time.time()\n", encoding="utf-8")
    assert main(["lint", str(dirty), "--select", "D,SUP,LNT001"]) == 1
    assert main(["lint", str(dirty), "--ignore", "DET003"]) == 0


@pytest.mark.parametrize("to_file", [False, True])
def test_cli_json_stdout_is_one_document_with_statistics(to_file, tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nT = time.time()\n", encoding="utf-8")
    stats_path = tmp_path / "stats.json"
    flag = [str(stats_path)] if to_file else []
    code = main(["lint", str(dirty), "--format", "json", "--statistics", *flag])
    assert code == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["statistics"]["by_rule"] == {"DET003": 1}
    # The human-readable extras go to stderr, not into the document.
    if to_file:
        assert "statistics written to" in captured.err
        assert json.loads(stats_path.read_text()) == doc["statistics"]
    else:
        assert "DET003" in captured.err and "total 1" in captured.err


def test_github_renderer_paths_relative_to_git_root(tmp_path, monkeypatch, capsys):
    (tmp_path / ".git").mkdir()
    sub = tmp_path / "tools" / "inner"
    sub.mkdir(parents=True)
    (sub / "m.py").write_text("import time\nT = time.time()\n", encoding="utf-8")
    (sub / "n.py").write_text(
        "import os\nF = os.listdir('.')\n", encoding="utf-8"
    )
    monkeypatch.chdir(sub)
    code = main(["lint", "m.py", "n.py", "--format", "github"])
    out = capsys.readouterr().out
    assert code == 1
    # Annotations carry paths relative to the repository root, not to
    # the invocation directory — multi-file, one annotation each.
    assert "::error file=tools/inner/m.py,line=2,col=5,title=DET003::" in out
    assert "::error file=tools/inner/n.py,line=2," in out


def test_github_renderer_without_git_root_keeps_given_paths(
    tmp_path, monkeypatch, capsys
):
    f = tmp_path / "m.py"
    f.write_text("import time\nT = time.time()\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "m.py", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=m.py,line=2," in out


def test_github_renderer_escapes_properties_and_messages(
    tmp_path, monkeypatch, capsys
):
    # A ',' in a file name would split the annotation's properties.
    f = tmp_path / "a,b.py"
    f.write_text("import time\nT = time.time()\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "a,b.py", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=a%2Cb.py,line=2,col=5,title=DET003::" in out

    result = LintResult(
        violations=[
            Violation(
                rule="DET003", path="x:y,z.py", line=1, col=1,
                message="50% of\r\nlines",
            )
        ],
        files_checked=1,
    )
    assert render_github(result).splitlines()[0] == (
        "::error file=x%3Ay%2Cz.py,line=1,col=1,title=DET003"
        "::50%25 of%0D%0Alines"
    )

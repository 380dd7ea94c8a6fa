# tests/test_readme.py
"""The README's claims table names real things: every `verify` check it
lists appears in that suite's report, every test it lists is collected, and
every package name it lists resolves."""
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dpsmap
from dpsmap import suites

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _claims_rows():
    """The (claim, code, checks, tests) cells of each row of the table."""
    section = README.split("## The paper's claims", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    assert rows[:2] == ["| claim | code | `verify` checks | tests |", "|---|---|---|---|"]
    cells = [[cell.strip() for cell in row.strip("|").split(" | ")] for row in rows[2:]]
    assert cells and all(len(row) == 4 for row in cells)
    return cells


def _ticked(text):
    return re.findall(r"`([^`]+)`", text)


def _named_checks():
    """suite -> the check names the table lists for it, with ``<conv>``
    expanded to each convention the README says it stands for."""
    convs = re.search(r"where `<conv>` is\s+`([^`]+)` or `([^`]+)`", README).groups()
    named = {}
    for row in _claims_rows():
        suite = None
        for segment in row[2].split(";"):
            head = re.match(r"\s*(\w+)[:,]", segment)
            if head and head.group(1) in suites.SUITE_NAMES:
                suite = head.group(1)
            for name in _ticked(segment):
                assert suite, f"check {name!r} names no suite"
                expanded = [name.replace("<conv>", c) for c in convs] if "<conv>" in name else [name]
                named.setdefault(suite, set()).update(expanded)
    return named


def test_every_named_check_is_in_its_suites_report():
    named = _named_checks()
    assert set(named) == {"kernel", "symmetric", "theorem", "tomographic"}
    for suite, names in named.items():
        _, lo, hi = suites._SUITES[suite]
        missing = set(names)
        for n in range(lo, hi + 1):
            missing -= {c["name"] for c in suites.run_suite(suite, n)["checks"]}
            if not missing:
                break
        assert missing == set(), (suite, missing)


def _collected(files):
    """Node ids pytest collects from ``files``, without parameters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dpsmap.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", *sorted(files)],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True).stdout
    return {line.split("[")[0] for line in out.splitlines() if "::" in line}


def test_every_named_test_is_collected():
    files, tests = set(), set()
    for row in _claims_rows():
        current = None
        for name in _ticked(row[3]):
            path = name.split("::")[0]
            if path.endswith(".py"):
                path = path if path.startswith("tests/") else f"tests/{path}"
                assert (ROOT / path).is_file(), path
                if Path(path).name.startswith("test_"):
                    files.add(path)
                    current = path
            if "::" in name:
                tests.add(f"{path}::{name.split('::')[1]}")
            elif name.startswith("test_") and not name.endswith(".py"):
                tests.add(f"{current}::{name}")
    assert len(tests) >= 5
    collected = _collected(files)
    for test in tests:
        if test.endswith("*"):
            assert any(c.startswith(test[:-1]) for c in collected), test
        else:
            assert test in collected, test


MODULES = {path.stem for path in Path(dpsmap.__file__).parent.glob("*.py")}


def _lookup(dotted):
    """The package object a dotted name names: from a module of dpsmap or
    a name dpsmap exports."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"dpsmap.{head}") if head in MODULES else getattr(dpsmap, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("column", [0, 1, 3], ids=["claim", "code", "tests"])
def test_every_named_package_name_resolves(column):
    """A dotted name, or a module's name, resolves from the package; a bare
    name belongs to the last such name of its cell, to an owner of it, or
    to the package."""
    for row in _claims_rows():
        owners = [dpsmap]
        for name in _ticked(row[column]):
            if name.endswith(".py") or name.startswith("test_") or "::" in name:
                continue
            if "." in name or name in MODULES:
                parts = name.split(".")
                owners = [_lookup(".".join(parts[:i])) for i in range(len(parts), 0, -1)]
                owners.append(dpsmap)
            else:
                assert any(hasattr(owner, name) for owner in owners), (name, owners[0])

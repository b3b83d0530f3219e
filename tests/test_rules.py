"""The design-rules gate (tools/rules.py) passes on this repository and
fails on each rule's planted violation.

Each planted test copies src/ into a temporary tree, adds one violation
and checks that exactly one rule fails, naming the violation's
`file:line`.  Every one of the scope rows gets its own planted use.
"""

import ast
import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("rules",
                                              ROOT / "tools" / "rules.py")
rules = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rules)


@pytest.fixture
def tree(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return tmp_path


def _plant(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(path.read_text() + source if path.exists() else source)


def _failures(root, capsys):
    code = rules.main(root)
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == (1 if failed else 0)
    return failed, out


def test_the_repository_passes(capsys):
    failed, out = _failures(ROOT, capsys)
    assert failed == []
    # one summary line per rule: four file rules, the scope rows and the
    # one-term product rule
    assert len(out.splitlines()) == len(rules.RULES) == 16
    assert len(rules.SCOPE_ROWS) == 11


_ERJW = "src/erjw/planted.py"
_CACHED = "\n\n\n{}\ndef f():\n    return 1\n"
# (file, source, the failing rule's summary, the violation it prints)
_PLANTED = {
    "unused-in-tests": ("tests/test_planted.py", "import json\n",
                        "unused imports", "tests/test_planted.py:1: json"),
    "unused-alias": (_ERJW, "import os.path as p, sys\nprint(sys)\n",
                     "unused imports", f"{_ERJW}:1: p"),
    "private-relative": (_ERJW, "from .graded import _root_key\n"
                         "print(_root_key)\n",
                         "private name", f"{_ERJW}:1: _root_key"),
    "private-absolute": (_ERJW, "from erjw.bss import _merge\n"
                         "print(_merge)\n",
                         "private name", f"{_ERJW}:1: _merge"),
    "import-dataclasses": (_ERJW, "import dataclasses\nprint(dataclasses)\n",
                           "imports dataclasses",
                           f"{_ERJW}:1: import dataclasses"),
    "from-dataclasses": (_ERJW, "from dataclasses import field\n"
                         "print(field)\n", "imports dataclasses",
                         f"{_ERJW}:1: from dataclasses import field"),
    "maxsize-none": (_ERJW, "from functools import lru_cache"
                     + _CACHED.format("@lru_cache(maxsize=None)"),
                     "finite int maxsize", f"{_ERJW}:4: lru_cache without"),
    "bare-lru-cache": (_ERJW, "import functools"
                       + _CACHED.format("@functools.lru_cache"),
                       "finite int maxsize", f"{_ERJW}:4: lru_cache without"),
    "float-maxsize": (_ERJW, "import functools"
                      + _CACHED.format("@functools.lru_cache(maxsize=2.5)"),
                      "finite int maxsize", f"{_ERJW}:4: lru_cache without"),
    "functools-cache": (_ERJW, "import functools"
                        + _CACHED.format("@functools.cache"),
                        "finite int maxsize",
                        f"{_ERJW}:4: functools.cache is unbounded"),
    "import-cache": (_ERJW, "from functools import cache"
                     + _CACHED.format("@cache"), "finite int maxsize",
                     f"{_ERJW}:1: functools.cache is unbounded"),
    "one-term-product": (_ERJW, "from .graded import GradedSeries\n\n\n"
                         "def f(a, s):\n"
                         "    return a * GradedSeries.monomial(s, vn=1)\n",
                         "one-term series is multiplied",
                         f"{_ERJW}:5: a * GradedSeries.monomial(s, vn=1)"),
    "one-term-in-place": (_ERJW, "from .graded import GradedSeries\n\n\n"
                          "def f(a, s):\n    a *= GradedSeries(s, {})\n"
                          "    return a\n", "one-term series is multiplied",
                          f"{_ERJW}:5: a *= GradedSeries(s, {{}})"),
}


@pytest.mark.parametrize("relpath, source, rule, violation",
                         list(_PLANTED.values()), ids=list(_PLANTED))
def test_each_rule_fails_on_its_planted_violation(tree, capsys, relpath,
                                                  source, rule, violation):
    _plant(tree, relpath, source)
    failed, out = _failures(tree, capsys)
    assert len(failed) == 1 and rule in failed[0], out
    assert f"    {violation}" in out


def test_unused_import_exemptions_still_hold(tree, capsys):
    _plant(tree, "tests/test_planted.py",
           "from __future__ import annotations\n"
           "import os  # noqa: F401\n"
           "import sys\n"
           "import json\n"
           "__all__ = ['sys']\n")
    failed, out = _failures(tree, capsys)
    assert len(failed) == 1
    assert [line.strip() for line in out.splitlines()
            if line.startswith("    ")] == ["tests/test_planted.py:4: json"]


def test_bounded_caches_pass(tree, capsys):
    _plant(tree, _ERJW, "import functools\nfrom functools import lru_cache"
           + _CACHED.format("@lru_cache(8)")
           + _CACHED.format("@functools.lru_cache(maxsize=1 << 4)"))
    assert _failures(tree, capsys)[0] == []


@pytest.mark.parametrize("row", rules.SCOPE_ROWS,
                         ids=lambda row: "-".join(sorted(row[0])))
def test_each_scope_row_fails_on_a_planted_use(tree, capsys, row):
    names, _, _ = row
    name = sorted(names)[0]
    _plant(tree, _ERJW, f"def planted(x):\n    return x.{name}\n")
    failed, out = _failures(tree, capsys)
    row = f"FAIL {', '.join(sorted(names))} named by"
    assert len(failed) == 1 and failed[0].startswith(row), out
    assert f"    {_ERJW}:2: {name} in planted" in out


@pytest.mark.parametrize("relpath, name", [("src/erjw/graded.py", "_nums"),
                                           ("src/erjw/scalar2.py", "row_basis")])
def test_a_left_out_file_may_name_its_names(tree, capsys, relpath, name):
    _plant(tree, relpath, f"\n\ndef planted(x):\n    return x.{name}\n")
    assert _failures(tree, capsys)[0] == []


def test_a_nested_def_or_lambda_does_not_hide_a_use(tree, capsys):
    _plant(tree, _ERJW, "class TruncatedOracle:\n"
           "    def chart_at(self):\n"
           "        return lambda: self._chart\n")
    failed, out = _failures(tree, capsys)
    assert len(failed) == 1
    assert (f"    {_ERJW}:3: _chart in"
            " TruncatedOracle.chart_at.<lambda>") in out


def test_a_row_fails_when_an_expected_scope_names_nothing(tree):
    title, files, check = rules.scope_row({"_planted"}, {"f"}, None)
    path = tree / "src" / "erjw" / "planted.py"
    path.write_text("def f():\n    return 1\n")
    assert (title, files) == ("_planted named by f", (rules.ERJW,))
    assert check([rules.Source(tree, path)]) == ["f names none of them"]


def test_scoped_qualifies_every_scope():
    source = ("x = 1\n"
              "class A:\n"
              "    def m(self):\n"
              "        def inner():\n"
              "            return y\n"
              "        return lambda: z\n"
              "f = lambda: w\n")
    scopes = {node.id: scope for node, scope in rules.scoped(ast.parse(source))
              if isinstance(node, ast.Name)}
    assert scopes == {"x": "<module>", "y": "A.m.inner", "z": "A.m.<lambda>",
                      "w": "<lambda>", "f": "<module>"}

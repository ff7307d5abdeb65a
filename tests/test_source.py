"""Checks on the package source itself.

Every operation is a pure function (README): a call's work and result never
depend on what ran before it in the process.  A memoising decorator would
keep a cache across calls, so none may appear; a pass keeps its caches in
a table of its own (``chains._Intervals``) that dies with it.

A map applied to int rows is one product kernel, ``linalg._images``, so
``operator.mul``, which it multiplies with, appears in ``linalg`` alone.
Likewise only ``linalg`` knows how a subspace is stored: no other module
calls ``Subspace(...)`` itself, and a space of known canonical basis comes
from ``Subspace._from_echelon``.

A CLI call imports no module it does not run: ``import lgseries.cli`` loads
neither ``dataclasses`` (the report records derive from ``fields.Record``),
nor ``inspect``, which ``dataclasses`` pulls in, nor ``csv``, which
``cli._to_csv`` imports when a ``--format csv`` report is written, nor
``argparse`` (with ``gettext`` and ``locale``), which only help imports; a
whole call loads none of the last three either.
"""

import ast
import json
import os
import subprocess
import sys

import lgseries

PACKAGE = os.path.dirname(lgseries.__file__)
CACHES = {"lru_cache", "cache"}


def _decorator_name(node: ast.expr) -> str:
    """The last name of a decorator: ``lru_cache`` for ``@lru_cache``,
    ``@lru_cache(maxsize=64)`` and ``@functools.lru_cache``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _cached(source: str) -> list:
    """(line, name) of each memoising decorator, and each import of one
    from functools, in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.lineno, node.name)
                      for dec in node.decorator_list
                      if _decorator_name(dec) in CACHES]
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in CACHES]
    return sorted(found)


def test_the_checker_finds_memoising_decorators():
    source = ("import functools\nfrom functools import lru_cache\n"
              "@lru_cache(maxsize=64)\ndef a(): pass\n"
              "@functools.cache\ndef b(): pass\n"
              "@staticmethod\ndef c(): pass\n")
    assert _cached(source) == [(2, "lru_cache"), (4, "a"), (6, "b")]


def test_no_function_keeps_a_cache_across_calls():
    names = sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
    assert "linalg.py" in names and "chains.py" in names
    for name in names:
        with open(os.path.join(PACKAGE, name)) as fh:
            assert _cached(fh.read()) == [], name


def _mul_uses(source: str) -> list:
    """Lines of ``source`` that import ``operator.mul`` or read it as an
    attribute of ``operator``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            found += [node.lineno for alias in node.names
                      if alias.name == "mul"]
        elif (isinstance(node, ast.Attribute) and node.attr == "mul"
              and isinstance(node.value, ast.Name)
              and node.value.id == "operator"):
            found.append(node.lineno)
    return sorted(found)


def test_the_checker_finds_operator_mul():
    source = ("import operator\nfrom operator import add, mul\n"
              "times = operator.mul\nfrom operator import itemgetter\n"
              "mul = 3\n")
    assert _mul_uses(source) == [2, 3]


def test_only_linalg_imports_operator_mul():
    found = []
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        with open(os.path.join(PACKAGE, name)) as fh:
            if _mul_uses(fh.read()):
                found.append(name)
    assert found == ["linalg.py"]


def _subspace_calls(source: str) -> list:
    """Lines of ``source`` that call ``Subspace`` itself, by its name or
    as an attribute (``linalg.Subspace(...)``), not one of its methods."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", "")
            if name == "Subspace":
                found.append(node.lineno)
    return sorted(found)


def test_the_checker_finds_subspace_calls():
    source = ("Subspace(ring, 2, m, (), True)\nlinalg.Subspace(1)\n"
              "Subspace.from_rows(ring, 2, [])\nmake = Subspace\n"
              "Subspace._from_echelon(ring, 2, (), ())\n")
    assert _subspace_calls(source) == [1, 2]


def test_only_linalg_builds_a_subspace_from_its_parts():
    found = {}
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        with open(os.path.join(PACKAGE, name)) as fh:
            found[name] = _subspace_calls(fh.read())
    assert "chains.py" in found and "series.py" in found
    assert {name: lines for name, lines in found.items()
            if lines and name != "linalg.py"} == {}


def test_importing_the_cli_loads_no_module_it_does_not_run():
    src = os.path.dirname(PACKAGE)
    code = ("import json, sys\n"
            "sys.path.insert(0, %r)\n"
            "before = set(sys.modules)\n"
            "import lgseries.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    loaded = json.loads(out)
    assert "lgseries.cli" in loaded and "lgseries.chains" in loaded
    assert [m for m in ("dataclasses", "inspect", "csv", "argparse",
                        "gettext", "locale") if m in loaded] == []


def test_a_call_loads_no_argparse_gettext_or_locale():
    src = os.path.dirname(PACKAGE)
    calls = [["census", "--kind", "section", "--degree", "2", "--rank", "0",
              "--p", "3", "--budget", "10000"],
             ["fr-image", "--degree", "2", "--rank", "0", "--p", "2",
              "--budget", "100000"],
             ["enum-lls", "--degree", "2", "--rank", "0", "--p", "2",
              "--budget", "100000"]]
    code = ("import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "sys.path.insert(0, %r)\n"
            "before = set(sys.modules)\n"
            "from lgseries.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in %r]\n"
            "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n"
            % (src, calls))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    codes, loaded = json.loads(out)
    assert codes == [0, 0, 0] and "lgseries.series" in loaded
    assert [m for m in ("argparse", "gettext", "locale") if m in loaded] == []

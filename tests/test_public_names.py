"""Every public name has a reader outside the tests.

A name in a module's `__all__` must be read somewhere in the library
outside its own definition, by the benchmark harness (`perfbench/`, which
also wraps library functions by their attribute names), or by the console
entry point in `pyproject.toml`.  Re-exports in `impactlab/__init__.py` do
not count as readers; oracles that only the tests call belong in
`tests/helpers.py`.  A module-level private function or class needs a
reader too: the library outside its own definition, or the benchmark
harness, so a helper whose last caller went does not stay behind.
"""

import ast
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "impactlab"
MODULES = ("market", "payoffs", "pricing", "dual", "limits", "cli")


def _reads(tree: ast.AST, strings: bool) -> set:
    """Names a module reads: loaded names and attributes, each outside a
    top-level definition of the same name, and with `strings` also string
    constants (the benchmark wraps library functions by attribute name)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and owner is None:
            owner = node.name
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name != owner:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _read_names() -> set:
    """Every name the library (re-exports aside), the benchmark and the
    entry points read."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            names |= _reads(ast.parse(path.read_text()), strings=False)
    for path in (ROOT / "perfbench").rglob("*.py"):
        names |= _reads(ast.parse(path.read_text()), strings=True)
    # entry points name their target as "impactlab.<module>:<name>"
    return names | set(re.findall(r'"impactlab\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_reader_outside_the_tests(module):
    unread = sorted(set(importlib.import_module(f"impactlab.{module}").__all__) - _read_names())
    assert unread == [], f"impactlab.{module} exports names that no library, benchmark or entry-point code reads: {unread}"


def _private_definitions() -> list:
    """`module.name` of every module-level private function and class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defines = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if defines and node.name.startswith("_") and not node.name.startswith("__"):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_every_private_helper_has_a_reader_outside_the_tests():
    names = _read_names()
    unread = [qual for qual in _private_definitions() if qual.split(".", 1)[1] not in names]
    assert unread == [], f"private helpers that no library or benchmark code reads: {unread}"

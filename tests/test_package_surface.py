"""The package's public surface: export lists that resolve, and no test code.

Every module under ``repro`` is imported (walked with :mod:`pkgutil`); each
name in an ``__all__`` must resolve with ``getattr`` on its module, so an
export list cannot name a function that moved or left.  No module under
``src/repro`` may import from ``tests``: the reference implementations there
are oracles of the library, never part of it.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent


def _module_names():
    names = ["repro"]
    names += [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    return names


MODULES = _module_names()


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, "%s.__all__ names what the module lacks: %s" % (module_name, missing)


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_no_library_module_imports_from_tests():
    sources = sorted(SOURCE_ROOT.rglob("*.py"))
    assert sources, "no library sources found under %s" % SOURCE_ROOT
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _imported_modules(tree):
            if name == "tests" or name.startswith("tests."):
                offenders.append("%s imports %s" % (path.relative_to(SOURCE_ROOT.parent), name))
    assert not offenders, offenders


def test_the_walk_covers_the_source_tree():
    """Every source file is a module the export check imports."""
    from_files = {
        ".".join(path.relative_to(SOURCE_ROOT.parent).with_suffix("").parts).replace(
            ".__init__", ""
        )
        for path in SOURCE_ROOT.rglob("*.py")
    }
    assert from_files == set(MODULES)

"""The package's public names: what ``twincal`` re-exports and each module's ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twincal

INIT = Path(twincal.__file__)
MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(twincal.__path__)
    if hasattr(importlib.import_module(f"twincal.{name}"), "__all__")
)


def reexports():
    """(module, name) for every name ``twincal/__init__.py`` imports from a module."""
    tree = ast.parse(INIT.read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_reexport_is_in_its_modules_all():
    names = reexports()
    assert len(names) > 50
    missing = [f"{module}.{name}" for module, name in names
               if name not in importlib.import_module(f"twincal.{module}").__all__]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves_and_is_public(module):
    mod = importlib.import_module(f"twincal.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert [name for name in mod.__all__ if name.startswith("_")] == []
    assert len(set(mod.__all__)) == len(mod.__all__)

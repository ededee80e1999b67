"""Every public name of the package resolves: each name in a module's
``__all__``, and each name that ``dunklqm/__init__.py`` imports, which must
also be listed in its module's ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dunklqm

MODULES = [m.name for m in pkgutil.iter_modules(dunklqm.__path__)
           if hasattr(importlib.import_module(f"dunklqm.{m.name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"dunklqm.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _package_imports() -> list:
    """(module, name) of each ``from .module import name`` in the package."""
    tree = ast.parse(Path(dunklqm.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_package_imports_resolve():
    imported = _package_imports()
    assert len(imported) > 50
    for module_name, name in imported:
        module = importlib.import_module(f"dunklqm.{module_name}")
        assert getattr(dunklqm, name) is getattr(module, name, None), name


def test_package_imports_are_in_module_all():
    """A name the package re-exports is public in its own module too, so
    ``from dunklqm.module import *`` provides it."""
    missing = [f"{module_name}.{name}" for module_name, name in _package_imports()
               if name not in importlib.import_module(f"dunklqm.{module_name}").__all__]
    assert missing == []


def test_scarf_params_is_the_jacobi_family_parameter_object():
    """The extended Scarf I system at (alpha, beta) has the little -1 Jacobi
    polynomials at the same (alpha, beta) as eigenfunctions: one class."""
    from dunklqm import jacobi, susyqm

    assert susyqm.ScarfParams is jacobi.Jacobi1Params
    assert dunklqm.ScarfParams is dunklqm.Jacobi1Params

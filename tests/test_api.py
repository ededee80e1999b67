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


@pytest.mark.parametrize("name", [m.name for m in
                                  pkgutil.iter_modules(dunklqm.__path__)])
def test_no_module_holds_a_process_wide_cache(name):
    """A command runs once per process, so a cache kept between calls only
    pays off for a caller that repeats a call in one process; no module
    keeps one (``functools.lru_cache`` and ``cache`` add ``cache_info``)."""
    module = importlib.import_module(f"dunklqm.{name}")
    cached = [attr for attr, value in vars(module).items()
              if hasattr(value, "cache_info")]
    assert cached == []


def test_scarf_params_is_the_jacobi_family_parameter_object():
    """The extended Scarf I system at (alpha, beta) has the little -1 Jacobi
    polynomials at the same (alpha, beta) as eigenfunctions: one class."""
    from dunklqm import jacobi, susyqm

    assert susyqm.ScarfParams is jacobi.Jacobi1Params
    assert dunklqm.ScarfParams is dunklqm.Jacobi1Params


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads_of_other_modules(source: str) -> list:
    """Each underscore name of another ``dunklqm`` module that ``source``
    reads: through ``from .x import _y`` or as ``alias._y`` of a module
    imported as ``from . import x as alias``."""
    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 or (node.module or "").startswith("dunklqm")
            for alias in node.names if package else ():
                if node.module in (None, "dunklqm"):
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"from {node.module} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dunklqm.") and alias.asname:
                    aliases[alias.asname] = alias.name
    found += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)]
    return found


def test_private_read_detection():
    assert sorted(_private_reads_of_other_modules(
        "from . import grid as gridmod\n"
        "from .opalg import _Primitive, Poly\n"
        "from dunklqm.exact import _rat\n"
        "import dunklqm.refcalc as refc\n"
        "gridmod._richardson_step(v, 2); gridmod.Grid; refc._words; x._y\n"
    )) == ["from dunklqm.exact import _rat", "from opalg import _Primitive",
           "gridmod._richardson_step", "refc._words"]


@pytest.mark.parametrize("path", sorted(Path(dunklqm.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_reads_another_modules_private_name(path):
    """A module uses another module only through its public names, so a
    private helper can change without breaking a caller elsewhere."""
    assert _private_reads_of_other_modules(path.read_text()) == []

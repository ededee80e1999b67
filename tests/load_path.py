"""Load a Python file by path, for the test tools that read scripts which
are not part of a package: ``bench/*.py`` and the tools under ``tests/``."""

import importlib.util
import sys
from pathlib import Path


def load_path(name: str, path: Path):
    """The module at ``path``, executed under ``name``; sys.path is left as
    it was, whatever the file does to it."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module

"""Every name a module exports exists, so deleting a function without its
``__all__`` entries (or the reverse) fails here rather than at a user's
``from cbbench import *``."""

import importlib
import pkgutil

import pytest

import cbbench

# __main__ runs the command line when imported
MODULES = ["cbbench"] + [f"cbbench.{m.name}" for m in pkgutil.iter_modules(cbbench.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

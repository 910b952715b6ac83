"""Every name a module exports exists, so deleting a function without its
``__all__`` entries (or the reverse) fails here rather than at a user's
``from cbbench import *``; and each public name is declared once, in its
module's ``__all__``, which the package re-exports."""

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


# the modules whose names the package exports: all but itself and the command line
LIBRARY = [importlib.import_module(n) for n in MODULES if n not in ("cbbench", "cbbench.cli")]
DECLARED = sorted(["__version__"] + [name for m in LIBRARY for name in getattr(m, "__all__", [])])


def test_every_library_module_declares_its_names():
    assert [m.__name__ for m in LIBRARY if not hasattr(m, "__all__")] == []


def test_no_name_is_public_in_two_modules():
    owners = {}
    for module in LIBRARY:
        for name in getattr(module, "__all__", []):
            owners.setdefault(name, []).append(module.__name__)
    assert {n: mods for n, mods in owners.items() if len(mods) > 1} == {}


def test_package_exports_exactly_the_modules_names():
    assert len(set(cbbench.__all__)) == len(cbbench.__all__)
    assert sorted(cbbench.__all__) == DECLARED


def test_star_import_binds_exactly_the_modules_names():
    namespace = {}
    exec("from cbbench import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == DECLARED


def test_protected_matrix_is_public_in_protocol_only():
    # the benchmark tracer times metrics.protected_matrix and the CLI calls
    # protocol's: one function, so the tracer's rebinding reaches both
    from cbbench import cli, metrics, protocol

    assert "protected_matrix" not in metrics.__all__
    assert metrics.protected_matrix is protocol.protected_matrix is cli.protected_matrix

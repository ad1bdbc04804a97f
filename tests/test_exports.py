"""Every exported name of the package and of its modules resolves."""

import importlib
import pkgutil

import pytest

import semireg

MODULES = [semireg] + [importlib.import_module(f"semireg.{info.name}")
                       for info in pkgutil.iter_modules(semireg.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    # a module without __all__ (the CLI) exports nothing to check
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []

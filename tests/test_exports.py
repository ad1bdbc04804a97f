"""Every exported name of the package and of its modules resolves."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import semireg

MODULES = [semireg] + [importlib.import_module(f"semireg.{info.name}")
                       for info in pkgutil.iter_modules(semireg.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    # a module without __all__ (the CLI) exports nothing to check
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_runtime_imports_only_the_standard_library():
    # numpy, sympy, mpmath and hypothesis serve the tests and benchmarks only
    outside = []
    for path in sorted(Path(semireg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []

"""Every exported name of the package and of its modules resolves and the
README's Library section names each package export; the modules import each
other in layers: no cycle, with `exact` at the bottom."""

import ast
import importlib
import pkgutil
import re
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


def _internal_imports() -> dict[str, set[str]]:
    """Module name -> the package modules it imports (relative imports)."""
    graph = {}
    for path in sorted(Path(semireg.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= ({node.module} if node.module
                             else {alias.name for alias in node.names})
        graph[path.stem] = imported
    return graph


def test_exact_imports_only_intervals():
    # the exact stream is the base every other route is checked against
    assert _internal_imports()["exact"] <= {"intervals"}


def test_internal_imports_have_no_cycle():
    graph = _internal_imports()
    del graph["__init__"]  # the package imports every module it re-exports
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module not in done:
            path.append(module)
            for dependency in sorted(graph[module]):
                visit(dependency)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)


def test_every_package_name_is_in_the_readme_library_section():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in semireg.__all__ if name != "__version__"
               and not re.search(rf"\b{re.escape(name)}\b", library)]
    assert missing == []

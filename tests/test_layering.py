"""Static import layering of the package, read with ``ast``: no module is
imported and no process is started.

The modules form the layers core -> noise -> instrument -> {estimate, oracle}
-> config -> cli; each may import only modules of a lower layer, so the
import graph has no cycle.  Package modules are imported at module level
only (a function-local import is how a cycle hides), and no module imports
scipy, anywhere: the package depends on numpy alone.
"""

import ast
from pathlib import Path

import omsqueeze

PACKAGE = Path(omsqueeze.__file__).resolve().parent
LAYERS = {
    "core": 0,
    "noise": 1,
    "instrument": 2,
    "estimate": 3,
    "oracle": 3,
    "config": 4,
    "cli": 5,
    "__init__": 6,
}


def _imports(tree):
    """``(imported module, inside a function)`` for every import statement;
    relative imports are resolved to ``omsqueeze.<module>``."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, in_function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.level and child.module is None:  # from . import core
                    found.extend((f"omsqueeze.{a.name}", in_function) for a in child.names)
                elif child.level:
                    found.append((f"omsqueeze.{child.module}", in_function))
                else:
                    found.append((child.module, in_function))
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, in_function or nested)

    visit(tree, False)
    return found


MODULES = {
    path.stem: _imports(ast.parse(path.read_text(encoding="utf-8")))
    for path in sorted(PACKAGE.glob("*.py"))
}


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS)


def test_no_function_local_package_import():
    local = [
        (module, name)
        for module, imports in MODULES.items()
        for name, in_function in imports
        if in_function and name.split(".")[0] == "omsqueeze"
    ]
    assert local == []


def test_no_module_imports_scipy():
    scipy_imports = [
        (module, name)
        for module, imports in MODULES.items()
        for name, _ in imports
        if name.split(".")[0] == "scipy"
    ]
    assert scipy_imports == []


def test_imports_point_to_lower_layers():
    upward = [
        (module, name)
        for module, imports in MODULES.items()
        for name, _ in imports
        if name.startswith("omsqueeze.")
        and not LAYERS[name.split(".")[1]] < LAYERS[module]
    ]
    assert upward == []

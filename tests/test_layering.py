"""Module layering and imports, checked on the source text.

The IR and the stages below the simulator must not import the simulator or
the CLI, and no module may pull in ``scipy.optimize`` (slow to import, and
the compiler has no use for a numeric solver).  No module or test imports a
name it never uses; the package ``__init__`` only re-exports, so it is exempt.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "atomqc"


def _imports(path):
    """Dotted names a source file imports; relative names resolve under atomqc."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = "atomqc" + (f".{node.module}" if node.module else "")
            else:
                module = node.module
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["circuit", "barenco", "quaternion", "retarget", "formats"])
def test_lower_layers_do_not_import_simulator_or_cli(module):
    imported = _imports(SRC / f"{module}.py")
    assert not {name for name in imported if name.startswith(("atomqc.simulate", "atomqc.cli"))}


def test_no_module_imports_scipy_optimize():
    for path in sorted(SRC.glob("*.py")):
        imported = _imports(path)
        assert not {name for name in imported if name.startswith("scipy.optimize")}, path.name


def _unused_imports(path):
    """Names a source file imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    unused = {p.name: names for p in paths if (names := _unused_imports(p))}
    assert not unused

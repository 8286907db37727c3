"""Module layering, imports and thresholds, checked on the source text.

The IR and the stages below the simulator must not import the simulator or
the CLI, the text formats must not import a compiler, and no module may pull
in ``scipy.optimize`` (slow to import, and the compiler has no use for a
numeric solver).  No module reaches for another module's ``_``-prefixed
names.  No module or test imports a name it never uses; the package
``__init__`` only re-exports, so it is exempt.  Every small float threshold
is a named module constant, and no two constants share a value.
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


def test_formats_imports_no_compiler():
    imported = _imports(SRC / "formats.py")
    assert not imported & {"atomqc.barenco", "atomqc.qrd", "atomqc.qsd"}


def _private_uses(path):
    """``_``-prefixed names a module takes from another atomqc module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    modules = set()  # local names bound to atomqc modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("atomqc")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add(alias.name)
                if not node.module:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.add(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_no_private_names_across_modules():
    found = {p.name: names for p in sorted(SRC.glob("*.py")) if (names := _private_uses(p))}
    assert not found


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


# Literals at or above this are structural (pi/2, 0.5, 2.0), not thresholds.
_SMALL = 1e-3


def _named_thresholds(path):
    """Module constants with a small float value, and small float literals elsewhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    constants = {}
    named = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.lstrip("_").isupper()
                and isinstance(node.value, ast.Constant)):
            constants[node.targets[0].id] = node.value.value
            named.add(id(node.value))
    stray = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < node.value < _SMALL and id(node) not in named
    ]
    small = {k: v for k, v in constants.items() if isinstance(v, float) and 0 < v < _SMALL}
    return small, stray


def test_thresholds_named_once():
    by_value = {}
    strays = []
    for path in sorted(SRC.glob("*.py")):
        small, stray = _named_thresholds(path)
        strays += stray
        for name, value in small.items():
            by_value.setdefault(value, []).append(f"{path.name}:{name}")
    shared = {v: names for v, names in by_value.items() if len(names) > 1}
    assert (strays, shared) == ([], {})

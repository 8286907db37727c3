"""Module layering, imports and thresholds, checked on the source text.

The IR, the compilers and the stages below the simulator must not import the
simulator or the CLI, the text formats must not import a compiler, no module
calls ``np.moveaxis``, only ``circuit`` walks and folds single-qubit runs,
Barenco lowering builds its one ``Circuit`` and checks unitarity only in
``lower_circuit`` and takes ZY angles only in ``fill_rotations``, the
stages that write columns build circuits only through
``Circuit.from_columns``, one
function computes the determinant (the phase split), only ``canonical_angles``
and ``wrap_angle`` take an angle modulo 2pi, and no module may pull
in ``scipy.optimize`` (slow to import, and the compiler has no use for a
numeric solver).  No module reaches for another module's ``_``-prefixed
names.  Every function reads each of its parameters.  No module or test
imports a name it never uses; the package ``__init__`` only re-exports, so
it is exempt.  Every small float threshold is a named module constant, and
no two constants share a value.  No module calls ``scipy.linalg.schur`` or
``cossin``, which ask LAPACK for the workspace again on every call.
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


@pytest.mark.parametrize(
    "module", ["circuit", "barenco", "qrd", "qsd", "quaternion", "retarget", "formats"]
)
def test_lower_layers_do_not_import_simulator_or_cli(module):
    imported = _imports(SRC / f"{module}.py")
    assert not {name for name in imported if name.startswith(("atomqc.simulate", "atomqc.cli"))}


def test_no_module_calls_moveaxis():
    # A gate meets basis states only through the views of circuit.pair_views.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "moveaxis"
    ]
    assert not calls


def test_one_run_walker():
    # Retarget and the simulator collect and fold single-qubit runs through
    # circuit.collect_runs, so a fold bug shows on both sides.
    walkers = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and node.name.lstrip("_") in ("fold", "collect_runs")
    ]
    assert walkers == ["circuit.py:_fold", "circuit.py:collect_runs"]


def _callers(path, names):
    """Top-level functions of ``path`` that call each of ``names``, one entry per call."""
    calls = {}
    for fn in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in names:
                    calls.setdefault(name, []).append(getattr(fn, "name", None))
    return calls


def test_barenco_builds_and_checks_only_in_lower_circuit():
    # Each construction appends to the caller's item list, so one Circuit is
    # built and each block's unitarity is checked once, at lower_circuit,
    # and one zy_angles pass fills every slot.
    calls = _callers(SRC / "barenco.py", ("Circuit", "from_columns", "check_unitary", "zy_angles"))
    assert calls == {
        "from_columns": ["lower_circuit"],
        "check_unitary": ["lower_circuit"],
        "zy_angles": ["fill_rotations"],
    }


def test_columns_enter_a_circuit_through_from_columns():
    # Stages that write columns build their circuit through one constructor.
    callers = {path.name: calls["from_columns"] for path in sorted(SRC.glob("*.py"))
               if "from_columns" in (calls := _callers(path, ("from_columns",)))}
    assert callers == {"barenco.py": ["lower_circuit"], "qsd.py": ["qsd_compile"],
                       "retarget.py": ["retarget_circuit"]}


def test_one_phase_split():
    # The ZY angles and the quaternions take their (phase, SU(2)) split from
    # one function, so the package has one det call.
    calls = {p.name: c["det"] for p in sorted(SRC.glob("*.py")) if (c := _callers(p, ("det",)))}
    assert calls == {"quaternion.py": ["_phase_split"]}


def _unread_parameters(path):
    """``function:parameter`` for each parameter a ``def`` of ``path`` never reads."""
    unread = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, ast.FunctionDef):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{fn.name}:{p.arg}" for p in params if p.arg not in read]
    return unread


def test_every_parameter_is_read():
    # A parameter no body reads still costs every caller an argument.
    unread = {p.name: names for p in sorted(SRC.glob("*.py")) if (names := _unread_parameters(p))}
    assert not unread


def _takes_pi_modulus(node):
    """Whether ``node`` is ``x % m``, or a ``mod``/``fmod``/``remainder`` call, with pi in ``m``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        modulus = node.right
    elif (isinstance(node, ast.Call) and len(node.args) == 2
          and getattr(node.func, "attr", getattr(node.func, "id", None))
          in ("mod", "fmod", "remainder")):
        modulus = node.args[1]
    else:
        return False
    return any(getattr(n, "attr", getattr(n, "id", None)) in ("pi", "tau")
               for n in ast.walk(modulus))


def test_one_wrap_rule_per_range():
    # canonical_angles maps angles into [0, 2pi) and wrap_angle into
    # (-pi, pi]; a second copy of either rule could forget the wrap's phase.
    found = [
        f"{path.name}:{fn.name}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef) and any(map(_takes_pi_modulus, ast.walk(fn)))
    ]
    assert found == ["circuit.py:canonical_angles", "linalg.py:wrap_angle"]


def test_formats_imports_no_compiler():
    imported = _imports(SRC / "formats.py")
    assert not imported & {"atomqc.barenco", "atomqc.qrd", "atomqc.qsd"}


def test_qsd_imports_no_other_compiler():
    # QSD takes its Gray codes from its own ladder code, not from QRD.
    imported = _imports(SRC / "qsd.py")
    assert not {name for name in imported if name.startswith("atomqc.qrd")}


def test_no_module_calls_scipy_schur_or_cossin():
    # The scipy wrappers ask LAPACK for the workspace on every call; the
    # compilers call zgees and zuncsd directly with each size's cached lwork.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("schur", "cossin"))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
            and {alias.name for alias in node.names} & {"schur", "cossin"})
    ]
    assert not found


def test_linalg_imports_no_scipy():
    # The shared layer is numpy only; the factorizations live with QSD.
    imported = _imports(SRC / "linalg.py")
    assert not {name for name in imported if name.split(".")[0] == "scipy"}


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

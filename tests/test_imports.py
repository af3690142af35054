"""The package's import graph: module-level imports only, no cycles, a
bare `import mesoped` that leaves the command-line module unloaded, numpy
imported by the listed modules alone, and commands that load none of
`numpy.random`, OpenSSL and `configparser`."""

import ast
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import mesoped

SOURCES = sorted(Path(mesoped.__file__).parent.glob("*.py"))
# Each module imports only modules before it here.
LAYERS = ("kernel", "layout", "floorfield", "engine", "scenario", "metrics", "cli")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_imports_sit_at_module_level():
    nested = []
    for path in SOURCES:
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, SCOPES):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside a function or class: {nested}"


def relative_imports(path: Path) -> set[str]:
    """The sibling modules `path` imports with `from .x import ...` or
    `from . import x`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_relative_import_graph_is_acyclic():
    graph = {path.stem: relative_imports(path) for path in SOURCES}
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    for module, imported in graph.items():
        if module != "__init__":
            later = LAYERS[LAYERS.index(module):]
            assert not imported & set(later), f"{module} imports {imported & set(later)}"


def imported_modules(path: Path) -> set[str]:
    """The top-level packages that `path` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


# The modules that keep numpy: `FloorField.values` is an ndarray. Every
# other module's work is in the kernel or the standard library.
WITH_NUMPY = ("floorfield",)


def test_only_the_listed_modules_import_numpy():
    importers = [path.stem for path in SOURCES if "numpy" in imported_modules(path)]
    assert importers == sorted(WITH_NUMPY)


def test_import_mesoped_leaves_cli_unloaded():
    code = "import sys, mesoped; print('mesoped.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(mesoped.__file__).parents[1])
    assert out.stdout.strip() == "False"


# The run's generator is the kernel's own; nothing a command does needs numpy's.
# Scenario files are read by `scenario._read_ini`, not by configparser.
UNLOADED = ("numpy.random", "secrets", "hashlib", "_hashlib", "configparser")


def test_commands_leave_numpy_random_and_openssl_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from mesoped.cli import main\n"
        f"assert main(['run', 'cinema_a', '--out', {str(tmp_path / 'run')!r}]) == 0\n"
        "assert main(['compare', 'compare_10x15', 'compare_10x15_micro', '--pop', '1..3',\n"
        f"             '--seeds', '2', '--out', {str(tmp_path / 'compare')!r}]) == 0\n"
        f"print(*[m for m in {UNLOADED!r} if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(mesoped.__file__).parents[1])
    assert out.stdout.splitlines()[-1] == ""
    assert (tmp_path / "compare" / "comparison.csv").is_file()

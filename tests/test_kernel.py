"""Building and caching the C kernel (`mesoped.kernel.kernel`).

The library is compiled at the first use of the kernel in a process, which
is the first field solve of set-up or of a field export, and kept next to
`step.c` or in `$XDG_CACHE_HOME/mesoped`. Every command needs it, so a
missing compiler fails set-up and `export-field` as it fails `run`. Each
test points `KERNEL_SOURCE` at a copy in its own directory, so it starts
with no build and leaves the real one alone.
"""

import ctypes
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mesoped
from mesoped import engine, kernel
from mesoped.engine import MESO_TABLE, Simulation, SpawnEntry
from mesoped.floorfield import compute_field
from mesoped.kernel import KernelBuildError
from mesoped.layout import parse_layout
from mesoped.scenario import build_runtime, load_scenario

CORRIDOR_1X3 = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"
MISSING_CC = "no-such-cc-for-mesoped"


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A directory holding a copy of `step.c` that the kernel is built from;
    `kernel()` forgets its loaded library before and after the test."""
    directory = tmp_path / "package"
    directory.mkdir()
    monkeypatch.setattr(kernel, "KERNEL_SOURCE",
                        Path(shutil.copy(kernel.KERNEL_SOURCE, directory)))
    kernel.kernel.cache_clear()
    yield directory
    kernel.kernel.cache_clear()


def compiler_runs(monkeypatch) -> list:
    """Each `subprocess.run` call the kernel's build makes from now on."""
    calls = []
    run = subprocess.run

    def counting(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(kernel.subprocess, "run", counting)
    return calls


def corridor_run() -> Simulation:
    grid = parse_layout(CORRIDOR_1X3)
    sim = Simulation(grid, compute_field(grid), MESO_TABLE, (SpawnEntry((0, 0), 1),))
    sim.run(100)
    assert sim.completed
    return sim


def test_second_simulation_does_not_recompile(package, monkeypatch):
    calls = compiler_runs(monkeypatch)
    first, second = corridor_run(), corridor_run()
    assert len(calls) == 1
    kernel.kernel.cache_clear()  # as in a new process: the build on disk is loaded
    third = corridor_run()
    assert len(calls) == 1
    # the build sits next to its source, and no temporary file is left
    assert sorted(p.name for p in package.iterdir()) == sorted(["step.c",
                                                                kernel.kernel_path().name])
    assert first.events == second.events == third.events


def test_library_name_is_keyed_by_the_source(package, monkeypatch):
    """The same source keeps its library name across `cache_clear()`; a
    one-byte edit names a new library, built by one more compiler call. The
    new build replaces the old one of the same `$CC`, and any build named
    before the name held a `$CC` key."""
    calls = compiler_runs(monkeypatch)
    (package / "_step-0123abcd.so").write_bytes(b"")
    corridor_run()
    name = kernel.kernel_path().name
    kernel.kernel.cache_clear()
    assert kernel.kernel_path().name == name
    source = kernel.KERNEL_SOURCE
    source.write_bytes(source.read_bytes() + b"\n")
    kernel.kernel.cache_clear()
    corridor_run()
    assert kernel.kernel_path().name != name and len(calls) == 2
    assert [p.name for p in package.glob("_step-*")] == [kernel.kernel_path().name]


def test_library_name_is_keyed_by_the_compiler(package, monkeypatch):
    """`$CC` as set is part of the library name: another compiler command
    names a new library, built by one more compiler call, and the same
    command loads its own build again without compiling."""
    calls = compiler_runs(monkeypatch)
    cc = shlex.join(kernel.compiler())
    monkeypatch.setenv("CC", cc)
    corridor_run()
    name = kernel.kernel_path().name
    monkeypatch.setenv("CC", f"{cc} -g")
    kernel.kernel.cache_clear()
    corridor_run()
    assert kernel.kernel_path().name != name and len(calls) == 2
    for command, built in ((f"{cc} -g", kernel.kernel_path().name), (cc, name)):
        monkeypatch.setenv("CC", command)
        kernel.kernel.cache_clear()
        corridor_run()
        assert kernel.kernel_path().name == built and len(calls) == 2
    assert len(list(package.glob("_step-*.so"))) == 2


def test_read_only_package_directory_builds_in_xdg_cache(package, tmp_path, monkeypatch):
    # root ignores mode bits, so writes are also denied through os.access
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
        False if Path(path) == package and mode & os.W_OK else access(path, mode, **kw)))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    package.chmod(0o555)
    try:
        corridor_run()
    finally:
        package.chmod(0o755)
    assert [p.name for p in package.iterdir()] == ["step.c"]
    assert [p.name for p in (tmp_path / "cache" / "mesoped").iterdir()] == \
        [kernel.kernel_path().name]


def cli_without_compiler(tmp_path, *argv: str) -> subprocess.CompletedProcess:
    """`python -m mesoped.cli *argv` in a fresh interpreter over a copy of
    the package with no build, and with `CC` naming no compiler."""
    shutil.copytree(Path(mesoped.__file__).parent, tmp_path / "mesoped",
                    ignore=shutil.ignore_patterns("_step-*", "__pycache__"))
    env = dict(os.environ, CC=MISSING_CC, PYTHONPATH=str(tmp_path))
    return subprocess.run([sys.executable, "-m", "mesoped.cli", *argv],
                          env=env, capture_output=True, text=True, cwd=tmp_path)


def assert_one_error_line(proc: subprocess.CompletedProcess) -> None:
    """Exit 2 with one `error:` line naming the compiler and `step.c`, and no traceback."""
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert MISSING_CC in lines[0] and "step.c" in lines[0]


def test_missing_compiler_fails_set_up_and_field_export(package, tmp_path, monkeypatch):
    """The field is solved in the kernel, so set-up raises `KernelBuildError`
    and `export-field` exits 2 with one `error:` line; neither writes a file."""
    monkeypatch.setenv("CC", MISSING_CC)
    with pytest.raises(KernelBuildError, match=MISSING_CC):
        build_runtime(load_scenario("cinema_a"))
    assert [p.name for p in package.iterdir()] == ["step.c"]
    assert_one_error_line(cli_without_compiler(
        tmp_path, "export-field", "cinema_a", "--out", str(tmp_path / "field.csv")))
    assert not (tmp_path / "field.csv").exists()
    assert [p.name for p in (tmp_path / "mesoped").glob("_step-*")] == []


def test_missing_compiler_fails_run_with_one_error_line(tmp_path):
    """In a fresh interpreter over a copy of the package with no build, `run`
    exits 2 with one `error:` line naming the compiler, and no traceback."""
    assert_one_error_line(cli_without_compiler(
        tmp_path, "run", "cinema_a", "--out", str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()
    assert [p.name for p in (tmp_path / "mesoped").glob("_step-*")] == []


def test_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run([*kernel.compiler(), *kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "step.so"), str(kernel.KERNEL_SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# The ctypes type of each C type in step.c's structs and exported functions;
# any pointer is c_void_p.
C_TYPES = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "uint32_t": ctypes.c_uint32,
           "int": ctypes.c_int, "double": ctypes.c_double}


def declared(decl: str) -> list[tuple[str, type]]:
    """The names that one C declaration such as `const int32_t *a, b`
    declares, in order, each with its ctypes type."""
    base, declarators = re.fullmatch(r"\s*(?:const\s+)?(struct \w+|\w+)\s+(.*)",
                                     decl, re.S).groups()
    return [(d.lstrip("*"), ctypes.c_void_p if d.startswith("*") else C_TYPES[base])
            for d in map(str.strip, declarators.split(","))]


def struct_members(source: str, name: str) -> list[tuple[str, type]]:
    """The members of `struct name { ... };` in C source, in order, each as
    its name and ctypes type."""
    body = re.search(rf"struct {name} {{(.*?)\n}};", source, re.S).group(1)
    decls = re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]
    return [member for decl in decls for member in declared(decl)]


def test_run_struct_mirrors_match():
    """`engine._Run` lists `struct run`'s members in step.c's order with
    matching types; a mismatch would have the kernel read the wrong fields."""
    members = struct_members(kernel.KERNEL_SOURCE.read_text(), "run")
    assert members == list(engine._Run._fields_)


def test_pcg64_struct_mirrors_match():
    """`engine.PCG64` lists `struct pcg64`'s members in step.c's order with
    matching types, so the kernel's draws advance the state Python seeded."""
    members = struct_members(kernel.KERNEL_SOURCE.read_text(), "pcg64")
    assert members == list(engine.PCG64._fields_)


def test_event_codes_match_kinds():
    """step.c's event codes are `engine.KINDS` in order: the kernel logs
    them and `metrics.summarize` and the CSV writer read them."""
    names = re.search(r"enum \{([^}]*)\}", kernel.KERNEL_SOURCE.read_text()).group(1)
    assert [name.strip() for name in names.split(",")] == [k.upper() for k in engine.KINDS]


def test_run_statuses_match():
    """step.c's `run` statuses are `engine.DONE`, `ROOM` and `FULL_LOG`, in
    order: `Simulation` grows the columns on ROOM and raises on FULL_LOG."""
    names = re.search(r"enum \{ *(DONE[^}]*)\}", kernel.KERNEL_SOURCE.read_text()).group(1)
    assert [getattr(engine, name.strip()) for name in names.split(",")] == list(range(3))


def test_kernel_declares_every_exported_signature():
    """`kernel()` gives each function that step.c defines without `static`
    the argument and result types of its definition. Without them ctypes
    would pass an int64_t or a double argument as a C int."""
    source = kernel.KERNEL_SOURCE.read_text()
    defined = re.findall(r"^(?!static\b)(\w+) (\w+)\(([^)]*)\)\s*\{", source, re.M)
    assert {name for _, name, _ in defined} == {
        "parse_walls", "edge_conflict", "open_perimeter", "neighbours", "solve", "run",
        "shuffle", "draw", "summarize", "events_csv", "number_values", "field_csv"}
    lib = kernel.kernel()
    for result, name, params in defined:
        function = getattr(lib, name)
        assert list(function.argtypes or ()) == [t for param in params.split(",")
                                                 for _, t in declared(param)], name
        assert function.restype == (None if result == "void" else C_TYPES[result]), name

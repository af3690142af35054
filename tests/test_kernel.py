"""Building and caching the C step kernel (`mesoped.engine.kernel`).

The library is compiled at the first `Simulation` of a process, kept next to
`step.c` or in `$XDG_CACHE_HOME/mesoped`, and never compiled while set-up or
a field export runs. Each test points `KERNEL_SOURCE` at a copy in its own
directory, so it starts with no build and leaves the real one alone.
"""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mesoped
from mesoped import engine
from mesoped.cli import main
from mesoped.engine import MESO_TABLE, Simulation, SpawnEntry
from mesoped.floorfield import compute_field
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
    monkeypatch.setattr(engine, "KERNEL_SOURCE",
                        Path(shutil.copy(engine.KERNEL_SOURCE, directory)))
    engine.kernel.cache_clear()
    yield directory
    engine.kernel.cache_clear()


def compiler_runs(monkeypatch) -> list:
    """Each `subprocess.run` call the engine makes from now on."""
    calls = []
    run = subprocess.run

    def counting(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(engine.subprocess, "run", counting)
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
    engine.kernel.cache_clear()  # as in a new process: the build on disk is loaded
    third = corridor_run()
    assert len(calls) == 1
    # the build sits next to its source, and no temporary file is left
    assert sorted(p.name for p in package.iterdir()) == sorted(["step.c",
                                                                engine.kernel_path().name])
    assert first.events == second.events == third.events


def test_library_name_is_keyed_by_the_source(package, monkeypatch):
    """The same source keeps its library name across `cache_clear()`; a
    one-byte edit names a new library, built by one more compiler call."""
    calls = compiler_runs(monkeypatch)
    corridor_run()
    name = engine.kernel_path().name
    engine.kernel.cache_clear()
    assert engine.kernel_path().name == name
    source = engine.KERNEL_SOURCE
    source.write_bytes(source.read_bytes() + b"\n")
    engine.kernel.cache_clear()
    corridor_run()
    assert engine.kernel_path().name != name and len(calls) == 2
    assert sorted(p.name for p in package.glob("_step-*.so")) == \
        sorted([name, engine.kernel_path().name])


def test_library_name_is_keyed_by_the_compiler(package, monkeypatch):
    """`$CC` as set is part of the library name: another compiler command
    names a new library, built by one more compiler call, and the same
    command loads its own build again without compiling."""
    calls = compiler_runs(monkeypatch)
    cc = shlex.join(engine.compiler())
    monkeypatch.setenv("CC", cc)
    corridor_run()
    name = engine.kernel_path().name
    monkeypatch.setenv("CC", f"{cc} -g")
    engine.kernel.cache_clear()
    corridor_run()
    assert engine.kernel_path().name != name and len(calls) == 2
    for command, built in ((f"{cc} -g", engine.kernel_path().name), (cc, name)):
        monkeypatch.setenv("CC", command)
        engine.kernel.cache_clear()
        corridor_run()
        assert engine.kernel_path().name == built and len(calls) == 2
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
        [engine.kernel_path().name]


def test_missing_compiler_spares_set_up_and_field_export(package, tmp_path, monkeypatch):
    monkeypatch.setenv("CC", MISSING_CC)
    runtime = build_runtime(load_scenario("cinema_a"))
    assert runtime.field.values.max() > 0
    assert main(["export-field", "cinema_a", "--out", str(tmp_path / "field.csv")]) == 0
    assert (tmp_path / "field.csv").read_bytes()
    assert [p.name for p in package.iterdir()] == ["step.c"]


def test_missing_compiler_fails_run_with_one_error_line(tmp_path):
    """In a fresh interpreter over a copy of the package with no build, `run`
    exits 2 with one `error:` line naming the compiler, and no traceback."""
    shutil.copytree(Path(mesoped.__file__).parent, tmp_path / "mesoped",
                    ignore=shutil.ignore_patterns("_step-*", "__pycache__"))
    env = dict(os.environ, CC=MISSING_CC, PYTHONPATH=str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "mesoped.cli", "run", "cinema_a",
                           "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert MISSING_CC in lines[0] and "step.c" in lines[0]
    assert not (tmp_path / "run").exists()
    assert [p.name for p in (tmp_path / "mesoped").glob("_step-*")] == []


def test_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run([*engine.compiler(), *engine.CFLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "step.so"), str(engine.KERNEL_SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

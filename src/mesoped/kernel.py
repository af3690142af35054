"""The compiled kernel: `step.c`, which holds the field solve and the step
loop, built once, cached, and loaded through ctypes with every function's
signature. Structures are passed by `ctypes.byref` (`engine._Run`, `engine.PCG64`).
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import zlib
from functools import cache
from pathlib import Path


class KernelBuildError(Exception):
    """The C kernel could not be compiled."""


KERNEL_SOURCE = Path(__file__).with_name("step.c")
# -ffp-contract=off keeps `a * b` and `a + b` two roundings, as in Python;
# -ffast-math would let the compiler reorder them.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def compiler() -> list[str]:
    """The C compiler command: `$CC`, else the one Python was built with."""
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def kernel_path() -> Path:
    """Where the library built from `step.c` lives: next to the source, or in
    `$XDG_CACHE_HOME/mesoped` (default `~/.cache/mesoped`) when the package
    directory is not writable. Its name is keyed by the CRC-32 of the
    source, the flags and `$CC` as set, so that no compiler's build is
    loaded for another's."""
    cc = os.environ.get("CC") or ""
    key = zlib.crc32(b"\0".join([KERNEL_SOURCE.read_bytes(), *map(str.encode, (*CFLAGS, cc))]))
    name = f"_step-{key:08x}.so"
    if os.access(KERNEL_SOURCE.parent, os.W_OK):
        return KERNEL_SOURCE.parent / name
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mesoped" / name


def _build_kernel(path: Path) -> None:
    """Compile `step.c` into `path` under a temporary name, then rename it
    into place, so that concurrent builds do not collide."""
    cc = compiler()
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([*cc, *CFLAGS, "-o", str(tmp), str(KERNEL_SOURCE)],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, path)
    except (OSError, subprocess.CalledProcessError) as exc:
        reason = " ".join((getattr(exc, "stderr", "") or str(exc)).split())
        raise KernelBuildError(f"cannot compile {KERNEL_SOURCE} with C compiler "
                               f"{shlex.join(cc)!r} (set CC to choose one): {reason}") from None
    finally:
        tmp.unlink(missing_ok=True)


@cache
def kernel() -> ctypes.CDLL:
    """The kernel library, built on first use unless a build is cached."""
    path = kernel_path()
    if not path.exists():
        _build_kernel(path)
    lib = ctypes.CDLL(str(path))
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.solve.argtypes, lib.solve.restype = [p, p, i64, ctypes.c_double, p, p, p, p], i64
    lib.run.argtypes, lib.run.restype = [p, ctypes.c_int], ctypes.c_int
    lib.shuffle.argtypes, lib.shuffle.restype = [p, i64, p], None
    lib.draw.argtypes, lib.draw.restype = [ctypes.c_uint64, p], ctypes.c_uint64
    return lib

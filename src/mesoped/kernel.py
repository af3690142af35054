"""The compiled kernel `step.c` (the wall-code parse, the layout checks, the
move table, the field solve, the step loop, the log walk of `metrics.summarize`
and the CSV writers), built once, cached, and loaded through ctypes with every
function's signature; structures go by `ctypes.byref` (`engine._Run`,
`engine.PCG64`). The CSV writers hand out their text through `csv_blocks`.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import subprocess
import sysconfig
import zlib
from array import array
from collections.abc import Callable, Iterator
from functools import cache
from itertools import accumulate
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
    loaded for another's. The name starts with a key of `$CC` alone, which
    tells `_build_kernel` which builds it replaces."""
    cc = os.environ.get("CC") or ""
    key = zlib.crc32(b"\0".join([KERNEL_SOURCE.read_bytes(), *map(str.encode, (*CFLAGS, cc))]))
    name = f"_step-{zlib.crc32(cc.encode()):08x}-{key:08x}.so"
    if os.access(KERNEL_SOURCE.parent, os.W_OK):
        return KERNEL_SOURCE.parent / name
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mesoped" / name


def _build_kernel(path: Path) -> None:
    """Compile `step.c` into `path` under a temporary name, then rename it
    into place, so that concurrent builds do not collide. Next to the source,
    the builds it replaces are then removed: those of an older `step.c` with
    the same `$CC`, and those named before the name held a `$CC` key. The
    shared cache keeps them, since another installed copy may load them."""
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
    if path.parent == KERNEL_SOURCE.parent:
        same_cc = path.name.rsplit("-", 1)[0]
        for old in (*path.parent.glob(f"{same_cc}-*.so"), *path.parent.glob("_step-????????.so")):
            if old != path:
                old.unlink(missing_ok=True)


@cache
def kernel() -> ctypes.CDLL:
    """The kernel library, built on first use unless a build is cached."""
    path = kernel_path()
    if not path.exists():
        _build_kernel(path)
    lib = ctypes.CDLL(str(path))
    p, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.neighbours.argtypes, lib.neighbours.restype = [p, i64, i64, p], None
    lib.parse_walls.argtypes, lib.edge_conflict.argtypes = [p, i64, i64, p], [p, i64, i64]
    lib.open_perimeter.argtypes = [p, p, i64, i64]
    lib.parse_walls.restype = lib.edge_conflict.restype = lib.open_perimeter.restype = i64
    lib.solve.argtypes, lib.solve.restype = [p, p, i64, f64, p, p, p, p], i64
    lib.run.argtypes, lib.run.restype = [p, ctypes.c_int], ctypes.c_int
    lib.shuffle.argtypes, lib.shuffle.restype = [p, i64, p], None
    lib.draw.argtypes, lib.draw.restype = [ctypes.c_uint64, p], ctypes.c_uint64
    lib.summarize.argtypes = [p, i64, p, p, p, i64, i64, f64, f64, f64, i64, p, p, p, p, p, p]
    lib.summarize.restype = ctypes.c_int
    lib.events_csv.argtypes = [p, p, p, i64, i64, p, i64, p, p, p, p, i64]
    lib.number_values.argtypes = [p, i64, p, p, p, i64]
    lib.field_csv.argtypes = [p, i64, i64, p, p, p, p, i64]
    lib.events_csv.restype = lib.number_values.restype = lib.field_csv.restype = i64
    return lib


# The size of the one block that a CSV writer fills, and copies out, at a time.
CSV_BLOCK_BYTES = 1 << 16


def packed(texts: list[str]) -> tuple[bytes, array]:
    """ASCII texts as the kernel takes them: joined, with the offset at which
    each one ends."""
    return "".join(texts).encode(), array("q", accumulate(map(len, texts)))


def csv_blocks(fill: Callable[[ctypes.Array, int], int], longest: int) -> Iterator[bytes]:
    """A copy of the text each call of `fill(block, room)` writes at the
    start of one reused block, until a call writes nothing. The block holds
    `CSV_BLOCK_BYTES`, or `longest` bytes if that is more, so that every line
    or cell fits in it."""
    room = max(CSV_BLOCK_BYTES, longest)
    block = ctypes.create_string_buffer(room)
    while n := fill(block, room):
        yield ctypes.string_at(block, n)

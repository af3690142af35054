"""Time `load_scenario` + `build_runtime` in a fresh interpreter.

    python3 perfbench/setup_time.py OUT.json SECONDS SCENARIO...

Imports mesoped, then sets up every scenario once per repetition, with
tracing off, until SECONDS have passed (at least one repetition), and
writes the seconds each repetition took to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    out, seconds, scenarios = Path(argv[0]), float(argv[1]), argv[2:]
    from mesoped.scenario import build_runtime, load_scenario
    samples: list[float] = []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        t = perf_counter()
        for path in scenarios:
            build_runtime(load_scenario(path))
        samples.append(perf_counter() - t)
    out.write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

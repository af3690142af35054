"""Traced CLI command: spans around the calls into each mesoped layer.

Run in a fresh interpreter with `mesoped` importable:

    python3 perfbench/tracer.py SPANS.json -- run some.scenario --out DIR
    python3 perfbench/tracer.py SPANS.json --ladder WORK_DIR

The first form times `import mesoped.cli`, wraps the public functions named
in TARGETS wherever a caller looks them up, calls `mesoped.cli.main` and
writes the spans and counts when it returns. The second solves the
big_hall field at each LADDER size. A target a later version no longer has
is listed as missing and reported as not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (span name, defining module, attribute path)
TARGETS = (
    ("layout.parse_layout", "mesoped.layout", "parse_layout"),
    ("floorfield.build_rewards", "mesoped.floorfield", "build_rewards"),
    ("floorfield.solve_q", "mesoped.floorfield", "solve_q"),
    ("floorfield.extract_field", "mesoped.floorfield", "extract_field"),
    ("floorfield.compute_field", "mesoped.floorfield", "compute_field"),
    ("floorfield.field_to_csv", "mesoped.floorfield", "field_to_csv"),
    ("scenario.load_scenario", "mesoped.scenario", "load_scenario"),
    ("scenario.build_runtime", "mesoped.scenario", "build_runtime"),
    ("scenario.make_simulation", "mesoped.scenario", "make_simulation"),
    ("engine.Simulation.run", "mesoped.engine", "Simulation.run"),
    ("engine.events_to_csv", "mesoped.engine", "events_to_csv"),
    ("metrics.summarize", "mesoped.metrics", "summarize"),
    ("metrics.sweep", "mesoped.metrics", "sweep"),
    ("metrics.metrics_csv", "mesoped.metrics", "metrics_csv"),
    ("metrics.comparison_csv", "mesoped.metrics", "comparison_csv"),
    ("cli.main", "mesoped.cli", "main"),
)
# The calls build_runtime makes to solve the navigation field.
SOLVE_SPANS = frozenset(("floorfield.build_rewards", "floorfield.solve_q",
                         "floorfield.extract_field", "floorfield.compute_field"))
LAYERS = ("layout", "floorfield", "scenario", "engine", "metrics", "cli")
LADDER = (50, 100, 200)


class Tracer:
    """Spans [name, start, end, parent index] and the return values counts need."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = start, end
            if keep:
                self.kept[name].append((args, result))
            return result
        return traced

    def install(self, keep=frozenset(), targets=TARGETS) -> None:
        """Replace every binding of each target in the loaded mesoped modules."""
        for name, module_name, attr in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original, name in keep)
            setattr(owner, leaf, traced)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mesoped" or mod_name.startswith("mesoped."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)


ENGINE_COUNTS = tuple(f"engine.{key}" for key in
                      ("runs", "steps", "agent_steps", "events", "moves", "stays"))


def engine_counts(runs) -> Counter:
    """Steps, events, moves, stays and agent-steps from each run's event log.

    An agent placed at step s (0 = before the first step) is visited by the
    move pass of steps max(s, 1) .. e-1, where e is its exit step, or of
    every remaining step if it never exits.
    """
    counts = Counter(dict.fromkeys(ENGINE_COUNTS, 0))
    for sim in runs:
        last = sim.state.step_index
        counts["engine.runs"] += 1
        counts["engine.steps"] += last
        counts["engine.events"] += len(sim.events)
        first: dict[int, int] = {}
        for step, _, aid, kind, _, _ in sim.events:
            if kind == "spawn":
                first[aid] = max(step, 1)
            elif kind == "exit":
                counts["engine.agent_steps"] += step - first.pop(aid)
            elif kind == "move":
                counts["engine.moves"] += 1
            elif kind == "stay":
                counts["engine.stays"] += 1
        counts["engine.agent_steps"] += sum(last + 1 - s for s in first.values())
    return counts


def runtime_counts(runtimes) -> Counter:
    counts = Counter()
    for runtime in runtimes:
        counts["floorfield.sweeps"] += runtime.sweeps
        counts["floorfield.reached_cells"] += int((runtime.field.values > 0).sum())
    return counts


# (count group, kept target, the metrics it gives, how they are counted
# from that target's kept (args, result) pairs)
COUNT_GROUPS = (
    ("counts.layout", "layout.parse_layout", ("layout.cells",),
     lambda kept: {"layout.cells": sum(g.rows * g.cols for _, g in kept)}),
    ("counts.runtime", "scenario.build_runtime", ("floorfield.sweeps", "floorfield.reached_cells"),
     lambda kept: runtime_counts(r for _, r in kept)),
    ("counts.engine", "engine.Simulation.run", ENGINE_COUNTS,
     lambda kept: engine_counts(a[0] for a, _ in kept)),
    ("counts.events_csv", "engine.events_to_csv", ("engine.events_csv_bytes",),
     lambda kept: {"engine.events_csv_bytes": sum(len(t) for _, t in kept)}),
    ("counts.field_csv", "floorfield.field_to_csv", ("floorfield.field_csv_bytes",),
     lambda kept: {"floorfield.field_csv_bytes": sum(len(t) for _, t in kept)}),
)
# Targets whose arguments and results the counts are taken from.
KEEP = frozenset(target for _, target, _, _ in COUNT_GROUPS)


def collect_counts(tracer: Tracer) -> dict[str, int]:
    """Counts from the kept results of the targets that were called.

    A group whose attributes are gone is listed as missing.
    """
    counts = {}
    for group, target, _, count in COUNT_GROUPS:
        if tracer.kept[target]:
            try:
                counts.update(count(tracer.kept[target]))
            except AttributeError:
                tracer.missing.append(group)
    return counts


def traced_command(argv: list[str]) -> dict:
    start = perf_counter()
    import mesoped.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install(keep=KEEP)
    exit_code = mesoped.cli.main(argv)
    counts = collect_counts(tracer)
    return {"import_s": import_s, "exit_code": exit_code, "spans": tracer.spans,
            "counts": counts, "missing": tracer.missing}


def ladder(work_dir: Path) -> dict:
    """Field solve time and sweeps of the big_hall generator at each LADDER size."""
    import workloads
    from mesoped import scenario
    tracer = Tracer()
    tracer.install()
    out = {}
    for size in LADDER:
        first = len(tracer.spans)
        config = scenario.load_scenario(workloads.write_hall(size, workloads.DEFAULT_SEED, work_dir))
        runtime = scenario.build_runtime(config)
        out[f"floorfield.solve_s.hall{size}"] = solve_time(tracer.spans, first)
        if hasattr(runtime, "sweeps"):
            out[f"floorfield.sweeps.hall{size}"] = runtime.sweeps
    return {"ladder": out, "missing": tracer.missing}


def solve_time(spans: list[list], first: int = 0) -> float:
    """Time in field-solve calls from spans[first:], nested solve calls counted once."""
    return sum(end - start for name, start, end, parent in spans[first:]
               if name in SOLVE_SPANS and (parent < 0 or spans[parent][0] not in SOLVE_SPANS))


# Timed metrics: (statistic, the spans it sums).
TIMED = {
    "layout.parse_s": ("total", ("layout.parse_layout",)),
    "floorfield.build_rewards_s": ("total", ("floorfield.build_rewards",)),
    "floorfield.solve_q_s": ("total", ("floorfield.solve_q",)),
    "floorfield.field_csv_s": ("total", ("floorfield.field_to_csv",)),
    "scenario.load_s": ("total", ("scenario.load_scenario",)),
    "scenario.build_runtime_s": ("total", ("scenario.build_runtime",)),
    "scenario.build_runtime_calls": ("calls", ("scenario.build_runtime",)),
    "scenario.make_simulation_s": ("total", ("scenario.make_simulation",)),
    "scenario.make_simulation_calls": ("calls", ("scenario.make_simulation",)),
    "engine.run_s": ("own", ("engine.Simulation.run",)),
    "engine.events_csv_s": ("total", ("engine.events_to_csv",)),
    "metrics.summarize_s": ("total", ("metrics.summarize",)),
    "metrics.summarize_calls": ("calls", ("metrics.summarize",)),
    "metrics.sweep_s": ("own", ("metrics.sweep",)),
    "metrics.csv_s": ("total", ("metrics.metrics_csv", "metrics.comparison_csv")),
}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer times, counts and shares from one traced command.

    A metric is left out when none of the calls it comes from was made, so
    it does not apply to the command, or when its target or count is missing.
    """
    spans = trace["spans"]
    duration = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
    stats = {"total": defaultdict(float), "own": defaultdict(float), "calls": Counter()}
    layer_own = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _, _, _) in enumerate(spans):
        stats["total"][name] += duration[i]
        stats["own"][name] += duration[i] - children[i]
        stats["calls"][name] += 1
        layer_own[name.split(".")[0]] += duration[i] - children[i]
    called = stats["calls"]
    m = {"cli.import_s": trace["import_s"], "cli.self_s": stats["own"]["cli.main"]}
    for metric, (stat, names) in TIMED.items():
        if any(called[n] for n in names):
            m[metric] = sum(stats[stat][n] for n in names)
    if any(called[n] for n in SOLVE_SPANS):
        m["floorfield.solve_s"] = solve_time(spans)
    m.update(trace["counts"])
    if m.get("engine.run_s") and "engine.agent_steps" in m:
        m["engine.agent_steps_per_s"] = m["engine.agent_steps"] / m["engine.run_s"]
    attempts = m.get("engine.moves", 0) + m.get("engine.stays", 0)
    if attempts:
        m["engine.move_share"] = m["engine.moves"] / attempts
    main_s = stats["total"]["cli.main"]
    if main_s:
        m.update({f"{layer}.share": own / main_s for layer, own in layer_own.items()})
    return m


def not_measured(missing: list[str]) -> list[str]:
    """Metrics that cannot be taken because every target they time, or their count group,
    is in `missing`."""
    gone = set(missing)
    out = [metric for metric, (_, names) in TIMED.items() if set(names) <= gone]
    if SOLVE_SPANS <= gone:
        out.append("floorfield.solve_s")
    out += [metric for group, _, metrics, _ in COUNT_GROUPS if group in gone for metric in metrics]
    return sorted(out)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    if argv[1] == "--ladder":
        result = ladder(Path(argv[2]))
    else:
        result = traced_command(argv[2:])
    out.write_text(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark self-tests: deterministic inputs, output checks, trace arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import gate
import tracer
import workloads as wl
from mesoped import engine, scenario
from mesoped.layout import parse_layout


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_deterministic_for_a_seed(tmp_path, workload):
    wl.write_inputs(workload, 7, tmp_path / "a")
    wl.write_inputs(workload, 7, tmp_path / "b")
    wl.write_inputs(workload, 8, tmp_path / "c")
    a, b, c = (tree(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    changed = [name for name in a if a[name] != c[name]]
    assert all(name.endswith(".scenario") for name in changed)


def test_hall_generator_matches_its_description():
    grid = parse_layout(wl.hall_layout(50))
    assert (grid.rows, grid.cols, grid.cell_size_m) == (50, 50, 1.0)
    assert [cell for cell, _ in grid.sinks] == [(r, 49) for r in range(23, 27)]
    assert grid.sources == tuple((r, 0) for r in range(5, 45))


@pytest.fixture(scope="module")
def hall_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("hall")
    rc, out = gate.workload_run("big_hall", work)
    assert rc == 0
    return out


def corrupted(out: Path, tmp_path: Path, name: str, edit) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    (copy / name).write_text(edit((copy / name).read_text()))
    return copy


def test_check_accepts_recorded_outputs(hall_output):
    assert wl.check_outputs("big_hall", hall_output, wl.load_digests()["workloads"]["big_hall"]) == []


def test_check_catches_a_changed_byte(hall_output, tmp_path):
    copy = corrupted(hall_output, tmp_path, "events.csv", lambda t: t.replace("move", "mova", 1))
    problems = wl.check_outputs("big_hall", copy, wl.load_digests()["workloads"]["big_hall"])
    assert any("events.csv digest" in p for p in problems)


def test_check_catches_a_lost_exit_without_digests(hall_output, tmp_path):
    def drop_exit(text):
        lines = text.splitlines(keepends=True)
        return "".join(ln for i, ln in enumerate(lines)
                       if ",exit," not in ln or i != len(lines) - 1)
    copy = corrupted(hall_output, tmp_path, "events.csv", drop_exit)
    assert any("spawns 40 and exits 39" in p for p in wl.check_outputs("big_hall", copy, None))


def test_check_reports_a_malformed_log(hall_output, tmp_path):
    copy = corrupted(hall_output, tmp_path, "events.csv", lambda t: t + "7,3.5,oops\n")
    assert any("malformed artifact" in p for p in wl.check_outputs("big_hall", copy, None))


def test_check_catches_an_unreached_field_cell(hall_output, tmp_path):
    copy = corrupted(hall_output, tmp_path, "field.csv",
                     lambda t: "0.0" + t[t.index(","):])
    assert any("1 cells with value <= 0" in p for p in wl.check_outputs("big_hall", copy, None))


def test_engine_counts_match_a_direct_count(tmp_path, monkeypatch):
    visits = []
    original = engine.dwell_elapsed
    monkeypatch.setattr(engine, "dwell_elapsed", lambda *a: visits.append(1) or original(*a))
    [path] = wl.write_inputs("crowd_run", 3, tmp_path)
    config = scenario.load_scenario(path)
    runtime = scenario.build_runtime(config)
    sims = []
    for steps in (60, 400):  # 400 steps leave agents inside
        sim = scenario.make_simulation(runtime, config)
        sim.run(steps)
        sims.append(sim)
    counts = tracer.engine_counts(sims)
    assert counts["engine.agent_steps"] == len(visits)
    assert counts["engine.steps"] == 460
    assert counts["engine.events"] == sum(len(s.events) for s in sims)


def test_layer_metrics_self_time_and_solve_time():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["scenario.build_runtime", 1.0, 5.0, 0],
             ["floorfield.compute_field", 2.0, 4.0, 1],
             ["floorfield.solve_q", 2.5, 3.5, 2],
             ["engine.Simulation.run", 5.0, 9.0, 0]]
    m = tracer.layer_metrics({"spans": spans, "counts": {}, "import_s": 0.1})
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["floorfield.solve_s"] == pytest.approx(2.0)
    assert m["engine.run_s"] == pytest.approx(4.0)
    assert m["scenario.build_runtime_calls"] == 1
    assert sum(m[f"{layer}.share"] for layer in tracer.LAYERS) == pytest.approx(1.0)


def test_metrics_of_uncalled_functions_are_left_out():
    spans = [["cli.main", 0.0, 10.0, -1], ["metrics.comparison_csv", 1.0, 2.0, 0]]
    m = tracer.layer_metrics({"spans": spans, "counts": {}, "import_s": 0.1})
    assert m["metrics.csv_s"] == pytest.approx(1.0)
    assert not {"engine.events_csv_s", "engine.run_s", "floorfield.solve_s",
                "metrics.sweep_s"} & set(m)


def test_missing_target_is_not_measured():
    t = tracer.Tracer()
    t.install(targets=(("engine.gone", "mesoped.engine", "no_such_function"),))
    assert t.missing == ["engine.gone"]
    assert tracer.not_measured(["floorfield.solve_q"]) == ["floorfield.solve_q_s"]


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(parent, [x * 0.8 for x in parent], 10, 10, 0.1, True) == "better"
    assert compare.verdict(parent, [x * 1.2 for x in parent], 0, 10, 0.1, True) == "worse"
    assert compare.verdict(parent, [x * 1.02 for x in parent], 3, 10, 0.1, True) == "within bound"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.6, 1.1, 0.9]
    assert compare.verdict(noisy, noisy, 0, 10, 0.1, True) == "unresolved"


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    root = wl.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "big_hall",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_benchmark_json_lists_metrics_a_traced_command_reports():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    spans = [[name, 0.0, 1.0, -1] for name, _, _ in tracer.TARGETS]
    counts = {metric: 1 for _, _, metrics, _ in tracer.COUNT_GROUPS for metric in metrics}
    m = tracer.layer_metrics({"spans": spans, "counts": counts, "import_s": 0.1})
    produced = set(m) | {"cli.artifact_bytes", "trace.overhead_s"} | {
        f"floorfield.{kind}.hall{n}" for kind in ("solve_s", "sweeps") for n in tracer.LADDER}
    assert {p["name"] for p in spec["per_layer"]} <= produced
    assert {e["name"] for e in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}

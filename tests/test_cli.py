"""Command-line behavior: artifacts, exit codes, and error reporting."""

import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesoped
import oracle
from gridgen import corridor_layout, random_grid, refined
from mesoped import cli, engine, kernel, metrics
from mesoped.cli import (DimensionMismatch, check_refinement, main,
                         parse_populations)
from mesoped.engine import Simulation
from mesoped.layout import parse_layout, serialize_layout
from mesoped.scenario import (SCENARIOS_DIR, ConfigError, build_runtime,
                              bundled_scenarios, load_scenario, make_simulation)

CORRIDOR_LAYOUT = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"
CORRIDOR_SCENARIO = """
[run]
mode = meso
dt_s = 0.5
max_steps = 100
seed = 3

[layout]
path = corridor.layout

[spawn]
0,0 = 1@0
"""

GOLDEN_EVENTS = (
    "step,clock_s,agent_id,event,row,col\n"
    "0,0.0,0,spawn,0,0\n"
    "2,1.0,0,move,0,1\n"
    "4,2.0,0,move,0,2\n"
    "5,2.5,0,exit,0,2\n"
)


@pytest.fixture
def corridor_scenario(tmp_path):
    (tmp_path / "corridor.layout").write_text(CORRIDOR_LAYOUT)
    path = tmp_path / "corridor.scenario"
    path.write_text(CORRIDOR_SCENARIO)
    return path


def test_run_writes_artifacts(corridor_scenario, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", str(corridor_scenario), "--out", str(out)])
    assert code == 0
    assert (out / "events.csv").read_text() == GOLDEN_EVENTS
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "population,avg_travel_time_s,avg_distance_m,exit_0_2_count,completed"
    assert metrics[1] == "1,2.5,2.0,1,true"
    assert (out / "field.csv").read_text() == "64.0,80.0,100.0\n"
    assert not (out / "snapshots.txt").exists()
    assert "corridor: spawned 1, exited 1" in capsys.readouterr().out


def test_run_snapshots_flag(corridor_scenario, tmp_path):
    out = tmp_path / "artifacts"
    code = main(["run", str(corridor_scenario), "--out", str(out), "--snapshots"])
    assert code == 0
    art = (out / "snapshots.txt").read_text()
    assert "# step 0 clock 0.0" in art
    assert "# step 5 clock 2.5" in art
    assert "+" in art and "1" in art


def stepped_snapshots(config, max_steps):
    """`snapshots.txt` drawn from live state: step a `Simulation` and picture
    `state.density` before the first step and after each one, with a blank
    line between pictures."""
    sim = make_simulation(build_runtime(config))
    pictures = []
    while True:
        state = sim.state
        pictures.append(f"# step {state.step_index} clock {state.clock!r}\n"
                        + mesoped.render_snapshot(sim.grid, state.density))
        if sim.completed or state.step_index == max_steps:
            return "\n".join(pictures).encode()
        sim.step()


@pytest.mark.parametrize("name, steps", [(name, None) for name in bundled_scenarios()]
                         + [("cinema_a", 7), ("cinema_a", 0)])
def test_run_snapshots_equal_the_stepped_live_density(name, steps, tmp_path):
    """Each bundled scenario at its own seed, and cinema_a cut at 7 steps
    (agents still inside) and at 0 (one picture)."""
    config = load_scenario(name)
    argv = ["run", name, "--snapshots", "--out", str(tmp_path)]
    if steps is not None:
        argv += ["--steps", str(steps)]
    assert main(argv) == (0 if steps is None else 3)
    expected = stepped_snapshots(config, config.max_steps if steps is None else steps)
    assert (tmp_path / "snapshots.txt").read_bytes() == expected
    if steps is not None:
        assert expected.count(b"# step ") == steps + 1


def test_run_snapshots_digest_is_pinned(tmp_path):
    """cinema_b at seed 5, as recorded before snapshots were replayed from
    the log, so the reference above and the writer cannot drift together."""
    assert main(["run", "cinema_b", "--seed", "5", "--snapshots", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "snapshots.txt").read_bytes()).hexdigest()
    assert digest == "b2d00bde976203ba6f4469459548fcebf3acd11a1ffdaafdf458e355a3ce4f95"


def test_run_step_limit_reports_incomplete(corridor_scenario, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", str(corridor_scenario), "--out", str(out), "--steps", "0"])
    assert code == 3
    lines = (out / "events.csv").read_text().splitlines()
    assert [ln.split(",")[3] for ln in lines[1:]] == ["spawn"]
    assert (out / "metrics.csv").read_text().splitlines()[1].endswith("false")


def test_run_long_corridor_agent_exits(tmp_path):
    """A lone agent 199 hops from the exit still sees a field that leads it out."""
    (tmp_path / "corridor.layout").write_text(corridor_layout(200))
    path = tmp_path / "long.scenario"
    path.write_text("[run]\nmax_steps = 1000\n[layout]\npath = corridor.layout\n"
                    "[spawn]\n0,0 = 1@0\n")
    out = tmp_path / "artifacts"
    assert main(["run", str(path), "--out", str(out)]) == 0
    field = [float(v) for v in (out / "field.csv").read_text().strip().split(",")]
    assert len(field) == 200 and min(field) > 0.0
    kinds = [ln.split(",")[3] for ln in (out / "events.csv").read_text().splitlines()[1:]]
    assert kinds.count("move") == 199 and kinds[-1] == "exit"
    assert "stay" not in kinds


LATE_SPAWN_SCENARIO = ("[run]\nmode = {mode}\nmax_steps = 100\n[layout]\npath = {layout}\n"
                       "[spawn]\n0,0 = 1@0, 1@5000\n")
MICRO_CORRIDOR_LAYOUT = ("2 6 0.5\n9 8 8 8 8 8\n3 2 2 2 2 2\n"
                         "sink 0 5 1\nsink 1 5 1\nsource 0 0\n")


def late_spawn_scenarios(tmp_path):
    """A meso corridor and its micro refinement, each scheduling one agent at
    step 0 and one at step 5000, past the 100-step limit."""
    paths = []
    for mode, layout in (("meso", CORRIDOR_LAYOUT), ("micro", MICRO_CORRIDOR_LAYOUT)):
        (tmp_path / f"{mode}.layout").write_text(layout)
        path = tmp_path / f"late_{mode}.scenario"
        path.write_text(LATE_SPAWN_SCENARIO.format(mode=mode, layout=f"{mode}.layout"))
        paths.append(str(path))
    return paths


def test_run_with_unspawned_agents_is_incomplete(tmp_path, capsys):
    """Agents still waiting to spawn at the step limit leave the run incomplete,
    in the exit code and in metrics.csv alike."""
    meso, _ = late_spawn_scenarios(tmp_path)
    out = tmp_path / "artifacts"
    assert main(["run", meso, "--out", str(out)]) == 3
    assert "1 scheduled agents never spawned" in capsys.readouterr().err
    assert (out / "metrics.csv").read_text().splitlines()[1] == "1,2.5,2.0,1,false"


def test_sweep_with_unspawned_agents_is_incomplete(tmp_path):
    meso, _ = late_spawn_scenarios(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", meso, "--pop", "2", "--seeds", "1", "--out", str(out)]) == 3
    assert (out / "metrics.csv").read_text().splitlines()[1] == "2,2.5,2.0,1.0,false"


def test_compare_with_unspawned_agents_is_incomplete(tmp_path):
    meso, micro = late_spawn_scenarios(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", meso, micro, "--pop", "2", "--seeds", "1", "--out", str(out)]) == 3
    row = (out / "comparison.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "2" and row[3] == "false" and row[6] == "false"


def test_run_defaults_to_env_out_dir(corridor_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("MESOPED_OUT", str(tmp_path / "envout"))
    code = main(["run", str(corridor_scenario)])
    assert code == 0
    assert (tmp_path / "envout" / "corridor-seed3" / "events.csv").exists()


def test_run_seed_override_names_out_dir(corridor_scenario, tmp_path, monkeypatch):
    monkeypatch.setenv("MESOPED_OUT", str(tmp_path / "envout"))
    code = main(["run", str(corridor_scenario), "--seed", "9"])
    assert code == 0
    assert (tmp_path / "envout" / "corridor-seed9" / "events.csv").exists()


def test_run_twice_is_byte_identical(corridor_scenario, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(corridor_scenario), "--out", str(out_a)]) == 0
    assert main(["run", str(corridor_scenario), "--out", str(out_b)]) == 0
    for name in ("events.csv", "metrics.csv", "field.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_streams_events_csv_in_blocks(tmp_path, monkeypatch):
    """With 256-byte blocks, `run` writes cinema_a's `events.csv` as
    hundreds of chunks of whole lines, the last one short; the file is still
    the per-event writer's text."""
    monkeypatch.setattr(kernel, "CSV_BLOCK_BYTES", 256)
    config = load_scenario("cinema_a")
    sim = make_simulation(build_runtime(config))
    sim.run(config.max_steps)
    blocks = list(engine.events_csv_blocks(sim.state.log))
    assert len(blocks) > 100 and len(blocks[-1]) < 256
    assert all(len(block) <= 256 and block.endswith(b"\n") for block in blocks)
    assert main(["run", "cinema_a", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "events.csv").read_bytes() == oracle.events_to_csv(sim.events).encode()


def test_run_events_csv_is_a_directory_is_config_error(corridor_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "events.csv").mkdir(parents=True)
    assert main(["run", str(corridor_scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out / "events.csv") in err


def test_run_unknown_scenario_is_config_error(capsys):
    code = main(["run", "definitely_not_bundled"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("section,key", [
    pytest.param(section, key, id=key) for section, key in [
        ("field", "epsilon = 1e-9"), ("field", "max_sweeps = 500"),
        ("field", "gama = 0.3"), ("run", "max_step = 1"), ("DEFAULT", "max_steps = 5")]])
def test_run_removed_field_key_is_config_error(corridor_scenario, section, key, capsys):
    """Removed and misspelled keys, and a [DEFAULT] section, which some INI
    readers copy into every section, stop the run instead of being ignored."""
    header = f"[{section}]\n"
    text = (CORRIDOR_SCENARIO.replace(header, header + key + "\n") if header in CORRIDOR_SCENARIO
            else CORRIDOR_SCENARIO + f"\n{header}{key}\n")
    corridor_scenario.write_text(text)
    assert main(["run", str(corridor_scenario)]) == 2
    err = capsys.readouterr().err
    assert ("[DEFAULT]" if section == "DEFAULT" else f"[{section}] {key.split()[0]}") in err


def test_run_cell_named_twice_is_config_error(tmp_path, capsys):
    """cinema_a's main exit (8,29) written a second time as `8, 29` would
    have its multiplier applied twice, a weight of 10 x 3 x 3."""
    text = (SCENARIOS_DIR / "cinema_a.scenario").read_text()
    text = text.replace("8,29 = 3.0\n", "8,29 = 3.0\n8, 29 = 3.0\n")
    assert "8, 29 = 3.0" in text
    (tmp_path / "cinema.layout").write_text((SCENARIOS_DIR / "cinema.layout").read_text())
    path = tmp_path / "cinema_a.scenario"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[sinks] 8,29 and 8, 29" in err
    assert not out.exists()


def test_export_field(corridor_scenario, tmp_path):
    out = tmp_path / "field.csv"
    code = main(["export-field", str(corridor_scenario), "--out", str(out)])
    assert code == 0
    assert out.read_text() == "64.0,80.0,100.0\n"


@pytest.mark.parametrize("name", bundled_scenarios())
def test_export_field_writes_field_to_csv(name, tmp_path):
    out = tmp_path / "field.csv"
    assert main(["export-field", name, "--out", str(out)]) == 0
    assert out.read_text() == oracle.field_to_csv(build_runtime(load_scenario(name)).field)


def test_run_directory_as_scenario_is_config_error(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    assert main(["run", str(scenario_dir), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(scenario_dir) in err


def test_directory_does_not_shadow_bundled_scenario(tmp_path, monkeypatch):
    """A bare name is a bundled scenario, even when the working directory
    holds a directory of that name (such as an earlier run's --out)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "compare_10x15").mkdir()
    assert main(["run", "compare_10x15", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "events.csv").is_file()


def test_path_without_suffix_is_not_a_bundled_name(corridor_scenario, capsys):
    """Only a bare name is looked up among the bundled scenarios; a path to
    `corridor.scenario` that drops the suffix is neither."""
    source = str(corridor_scenario.with_suffix(""))
    assert main(["run", source, "--out", str(corridor_scenario.parent / "out")]) == 2
    err = capsys.readouterr().err
    assert "neither a scenario file nor a bundled scenario" in err and source in err


def test_export_field_to_directory_is_config_error(corridor_scenario, tmp_path, capsys):
    assert main(["export-field", str(corridor_scenario), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err


@pytest.mark.parametrize("target", ["below_file", "directory"])
def test_export_field_checks_out_before_solving(corridor_scenario, tmp_path, capsys,
                                                monkeypatch, target):
    """A doomed --out fails before the layout is parsed or the field solved."""
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "f.csv" if target == "below_file" else tmp_path / "fields"
    if target == "directory":
        out.mkdir()

    def build_runtime(config):
        raise AssertionError("build_runtime was called")
    monkeypatch.setattr("mesoped.cli.build_runtime", build_runtime)
    assert main(["export-field", str(corridor_scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert taken.read_text() == "not a directory\n"


def test_run_out_is_existing_file_is_config_error(corridor_scenario, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["run", str(corridor_scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert out.read_text() == "not a directory\n"


def test_sweep_writes_one_row_per_population(corridor_scenario, tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep", str(corridor_scenario), "--pop", "1,2",
                 "--seeds", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("2,")


# Counts and populations at the edges of int32 agent ids and of int64.
HUGE = [2**31 - 2, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**64]


@st.composite
def cli_cases(draw):
    """A small random layout and the same room at twice the resolution
    (`gridgen.refined`), scenario texts for both whose spawns are on their
    sources, and `run`/`sweep`/`compare` flags, some of them out of range.
    Now and then a spawn count or a population is near 2**31 or 2**63."""
    grid = random_grid(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       max_rows=8, max_cols=8)
    grid = dataclasses.replace(grid, cell_size_m=draw(st.sampled_from([0.5, 1.0, 2.5])))
    count = st.integers(0, 19).flatmap(
        lambda k: st.sampled_from(HUGE) if k == 0 else st.integers(0, 6))
    terms = st.lists(st.tuples(count, st.integers(0, 8)), min_size=1, max_size=3)
    spawn = [(cell, draw(terms)) for cell in grid.sources]
    sinks = [(cell, draw(st.sampled_from([0.5, 1, 3]))) for cell, _ in grid.sinks
             if draw(st.booleans())]
    run = (f"dt_s = {draw(st.sampled_from([0.3, 0.5, 1.0]))}\n"
           f"max_steps = {draw(st.integers(0, 80))}\nseed = {draw(st.integers(0, 2**32))}\n")
    gamma = draw(st.sampled_from([0.5, 0.8, 0.95]))

    def scenario(mode, layout, k):
        """The scenario on `layout`, its cells scaled by `k`: each sink's
        multiplier on all k * k of its cells, each spawn on the north-west one."""
        sink_lines = "".join(f"{k * r + dr},{k * c + dc} = {m}\n" for (r, c), m in sinks
                             for dr in range(k) for dc in range(k))
        spawn_lines = "".join(f"{k * r},{k * c} = " + ", ".join(f"{n}@{s}" for n, s in t) + "\n"
                              for (r, c), t in spawn)
        return (f"[run]\nmode = {mode}\n{run}[layout]\npath = {layout}\n"
                f"[field]\ngamma = {gamma}\n[sinks]\n{sink_lines}[spawn]\n{spawn_lines}")

    scenarios = (scenario(draw(st.sampled_from(["meso", "micro"])), "room.layout", 1),
                 scenario("micro", "micro.layout", 2))
    steps = draw(st.one_of(st.none(), st.integers(-1, 80)))
    seed = draw(st.one_of(st.none(), st.integers(-1, 2**40)))
    seed_flags = [] if seed is None else ["--seed", str(seed)]
    run_flags = ([] if steps is None else ["--steps", str(steps)]) + seed_flags
    pop = draw(st.sampled_from([*map(str, HUGE), f"1,{2**31}", f"{2**31 - 2}..{2**31}",
                                f"{2**63 - 1}..{2**63}"] if draw(st.integers(0, 3)) == 0
                               else ["0", "3", "1,4", "2..4", "4..2", "x", "-1"]))
    pop_flags = [f"--pop={pop}", f"--seeds={draw(st.integers(0, 3))}"]
    return grid, scenarios, run_flags, pop_flags, seed_flags


def read_events(path: Path) -> list[tuple]:
    """`events.csv` as `(step, clock, agent, kind, row, col)` tuples."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(int(s), float(t), int(a), kind, int(r), int(c)) for s, t, a, kind, r, c in rows]


@settings(max_examples=60, deadline=None)
@given(cli_cases())
def test_commands_through_main_agree_with_their_artifacts(case):
    """`run`, `sweep`, `export-field` and `compare` return 0, 2 or 3 and
    never raise; `run`'s metrics are the oracle's summary of its
    `events.csv`, its `field.csv` is `export-field`'s file, 3 comes exactly
    with a row that says `completed=false`, and `compare`'s meso columns are
    `sweep`'s at the scenario's own seed."""
    grid, (scenario, micro_scenario), run_flags, pop_flags, seed_flags = case
    sinks = [cell for cell, _ in grid.sinks]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        tmp = Path(tmp)
        (tmp / "room.layout").write_text(serialize_layout(grid))
        (tmp / "micro.layout").write_text(serialize_layout(refined(grid)))
        path, micro = tmp / "room.scenario", tmp / "micro.scenario"
        path.write_text(scenario)
        micro.write_text(micro_scenario)
        code = main(["run", str(path), "--out", str(tmp / "run"), *run_flags])
        assert code in (0, 2, 3)
        if code != 2:
            ref = oracle.summarize(read_events(tmp / "run" / "events.csv"), grid.cell_size_m)
            assert (tmp / "run" / "metrics.csv").read_text() == metrics.metrics_csv(
                [dataclasses.replace(ref, completed=code == 0)], sinks)
            assert main(["export-field", str(path), "--out", str(tmp / "field.csv")]) == 0
            assert (tmp / "field.csv").read_bytes() == (tmp / "run" / "field.csv").read_bytes()
        code = main(["sweep", str(path), "--out", str(tmp / "sweep"), *pop_flags, *seed_flags])
        assert code in (0, 2, 3)
        if code != 2:
            rows = (tmp / "sweep" / "metrics.csv").read_text().splitlines()[1:]
            assert (code == 3) == any(row.endswith(",false") for row in rows)
        swept = code
        code = main(["compare", str(path), str(micro), "--out", str(tmp / "cmp"), *pop_flags])
        assert code in (0, 2, 3)
        if code != 2:
            rows = [row.split(",") for row in
                    (tmp / "cmp" / "comparison.csv").read_text().splitlines()[1:]]
            assert (code == 3) == any("false" in row for row in rows)
            if swept != 2 and not seed_flags:
                swept_rows = [row.split(",") for row in
                              (tmp / "sweep" / "metrics.csv").read_text().splitlines()[1:]]
                assert [row[:4] for row in rows] == [[*s[:3], s[-1]] for s in swept_rows]


# What a mutation inserts: numbers at the edges, the format's own tokens and
# names, blanks, and characters that are not UTF-8 once written.
INSERTS = st.one_of(st.sampled_from([
    "", "0", "-1", "1.5", "1e400", "nan", "inf", str(2**31), str(2**63), "9" * 400,
    "[", "]", "=", ":", "#", ",", "@", "..", "\n", "\n ", " ", "\t", "\r", "\x00", "\u0663",
    "\ud800", "\udc80", "\udcff", "\udfff",
    "sink", "source", "[run]", "[layout]", "[field]", "[sinks]", "[spawn]", "[table]",
    "path", "mode", "micro", "seed", "gamma", "max_steps", "dt_s", "base_reward",
]), st.text(max_size=3))


@st.composite
def mutated_cases(draw):
    """A `cli_cases` room, its refined twin and their scenarios, one to four
    of the four texts with one to three edits: a cut of up to three
    characters where something is inserted."""
    grid, scenarios, _, pop_flags, _ = draw(cli_cases())
    texts = [serialize_layout(grid), serialize_layout(refined(grid)), *scenarios]
    for k in draw(st.sets(st.integers(0, 3), min_size=1)):
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(texts[k])))
            texts[k] = texts[k][:at] + draw(INSERTS) + texts[k][at + draw(st.integers(0, 3)):]
    return texts, pop_flags


@settings(max_examples=150, deadline=None)
@given(mutated_cases())
def test_mutated_texts_through_main_exit_0_2_or_3(case):
    """Layout and scenario texts with a few edits, written as UTF-8 or not,
    through `main` for every command: each returns 0, 2 or 3 and raises
    nothing, and 2 comes with exactly one line on stderr, an `error:` line."""
    texts, pop_flags = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        names = ("room.layout", "micro.layout", "room.scenario", "micro.scenario")
        for name, text in zip(names, texts):
            (tmp / name).write_bytes(text.encode(errors="surrogatepass"))
        meso, micro = str(tmp / "room.scenario"), str(tmp / "micro.scenario")
        for argv in (["run", meso, "--out", str(tmp / "run")],
                     ["export-field", meso, "--out", str(tmp / "field.csv")],
                     ["sweep", meso, "--out", str(tmp / "sweep"), *pop_flags],
                     ["compare", meso, micro, "--out", str(tmp / "cmp"), *pop_flags]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), argv[0]
            if code == 2:
                lines = err.getvalue().split("\n")
                assert len(lines) == 2 and lines[0].startswith("error: ") and not lines[1], \
                    (argv[0], lines)


def test_compare_bundled_pair(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "compare_10x15", "compare_10x15_micro",
                 "--pop", "1", "--seeds", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[1] == "1,14.5,14.0,true,15.0,14.5,true"


# Twice the corridor's rows and columns, but cells of the same size.
STRETCHED_LAYOUT = ("2 6 1.0\n11 10 10 10 10 10\n11 10 10 10 10 10\n"
                    "sink 0 5 1\nsink 1 5 1\nsource 0 0\n")


def test_compare_rejects_mismatched_grids(capsys):
    code = main(["compare", "compare_10x15", "escalator_stair",
                 "--pop", "1", "--seeds", "1"])
    assert code == 2
    assert "is not twice the meso grid" in capsys.readouterr().err


def test_compare_rejects_mismatched_cell_size(tmp_path, capsys):
    """A micro grid of twice the rows and columns but not half the cell size
    is a configuration error: exit 2, nothing written."""
    (tmp_path / "meso.layout").write_text(CORRIDOR_LAYOUT)
    (tmp_path / "micro.layout").write_text(STRETCHED_LAYOUT)
    for mode in ("meso", "micro"):
        (tmp_path / f"{mode}.scenario").write_text(
            f"[run]\nmode = {mode}\n[layout]\npath = {mode}.layout\n[spawn]\n0,0 = 1@0\n")
    out = tmp_path / "cmp"
    code = main(["compare", str(tmp_path / "meso.scenario"), str(tmp_path / "micro.scenario"),
                 "--pop", "1", "--seeds", "1", "--out", str(out)])
    assert code == 2
    assert "half the meso cell size" in capsys.readouterr().err
    assert not out.exists()


def test_check_refinement_wants_half_cells():
    meso = parse_layout(CORRIDOR_LAYOUT)
    with pytest.raises(DimensionMismatch, match="cell size"):
        check_refinement(meso, parse_layout(STRETCHED_LAYOUT))
    assert issubclass(DimensionMismatch, ConfigError)


def test_bad_population_spec(capsys):
    code = main(["sweep", "compare_10x15", "--pop", "abc"])
    assert code == 2
    assert "population spec" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "compare_10x15", "--pop", "1", "--seeds", "0"],
    ["sweep", "compare_10x15", "--pop", "1", "--seeds", "-2"],
    ["compare", "compare_10x15", "compare_10x15_micro", "--pop", "1", "--seeds", "0"],
])
def test_seeds_below_one_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "seeds per population must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needle", [
    (["compare", "compare_10x15", "{no_spawn}", "--pop", "1..50", "--seeds", "2"],
     "no_spawn: cannot sweep populations: [spawn] is empty"),
    (["compare", "compare_10x15", "compare_10x15_micro", "--pop", "1..50", "--seeds", "0"],
     "seeds per population must be at least 1"),
    (["sweep", "{no_spawn}", "--pop", "1,2", "--seeds", "2"],
     "no_spawn: cannot sweep populations: [spawn] is empty"),
    (["sweep", "compare_10x15", "--pop", "1", "--seeds", "-1"],
     "seeds per population must be at least 1"),
], ids=["compare_no_spawn", "compare_seeds", "sweep_no_spawn", "sweep_seeds"])
def test_sweep_checks_fail_before_any_field_or_run(tmp_path, capsys, monkeypatch, argv, needle):
    """A sweep that cannot run stops before it solves a field: a compare
    with a spawnless second scenario used to run the whole first sweep."""
    micro = SCENARIOS_DIR / "compare_10x15_micro.scenario"
    no_spawn = tmp_path / "no_spawn.scenario"
    no_spawn.write_text(micro.read_text().split("[spawn]")[0].replace(
        "room_10x15_micro.layout", str(SCENARIOS_DIR / "room_10x15_micro.layout")))
    calls = []
    monkeypatch.setattr(cli, "build_runtime", lambda *a: calls.append("build_runtime"))
    monkeypatch.setattr(metrics, "make_simulation", lambda *a, **k: calls.append("run"))
    out = tmp_path / "out"
    argv = [arg.format(no_spawn=no_spawn) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv,needle", [
    (["run", "{big}"], "big: [spawn] totals 2147483703 agents"),
    (["sweep", "{big}", "--pop", "3", "--seeds", "1"], "big: [spawn] totals 2147483703 agents"),
    (["sweep", "compare_10x15", "--pop", str(2**31), "--seeds", "1"], f"--pop {2**31}"),
    (["sweep", "compare_10x15", "--pop", f"{2**31 - 2}..{2**31}", "--seeds", "1"],
     f"--pop {2**31}"),
    (["compare", "compare_10x15", "compare_10x15_micro", "--pop", f"1,{2**31}", "--seeds", "1"],
     f"--pop {2**31}"),
], ids=["run", "sweep_file", "sweep_pop", "sweep_pop_range", "compare_pop"])
def test_more_agents_than_int32_ids_is_config_error(tmp_path, capsys, monkeypatch, argv, needle):
    """A schedule or a population of 2**31 agents or more is refused before
    the field solve; agent ids are int32. cinema_a with one door's 5 agents
    made 2**31 totals 2**31 + 55."""
    text = (SCENARIOS_DIR / "cinema_a.scenario").read_text()
    text = text.replace("2,0 = 5@0\n", f"2,0 = {2**31}@0\n")
    assert f"2,0 = {2**31}@0" in text
    (tmp_path / "cinema.layout").write_text((SCENARIOS_DIR / "cinema.layout").read_text())
    (tmp_path / "big.scenario").write_text(text)
    monkeypatch.setattr(cli, "build_runtime", lambda *a: pytest.fail("build_runtime was called"))
    out = tmp_path / "out"
    argv = [arg.format(big=tmp_path / "big.scenario") for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and needle in err
    assert not out.exists()


@pytest.mark.parametrize("pop", ["", " ", ","])
def test_empty_population_spec_is_usage_error(pop, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "compare_10x15", "--pop", pop, "--out", str(out)]) == 2
    assert "population spec" in capsys.readouterr().err
    assert not out.exists()


def test_run_negative_steps_is_usage_error(corridor_scenario, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", str(corridor_scenario), "--out", str(out), "--steps", "-1"]) == 2
    assert "--steps must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_run_walled_off_source_is_config_error(tmp_path, capsys):
    (tmp_path / "walled.layout").write_text("1 3 1.0\n15 11 10\nsink 0 2 1\nsource 0 0\n")
    path = tmp_path / "walled.scenario"
    path.write_text("[layout]\npath = walled.layout\n[spawn]\n0,0 = 1@0\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "source (0, 0)" in capsys.readouterr().err


def test_parse_populations_forms():
    assert parse_populations("25") == [25]
    assert parse_populations("1,5,10") == [1, 5, 10]
    assert parse_populations("1..4") == [1, 2, 3, 4]
    assert parse_populations(" 2 , 3 ") == [2, 3]
    for bad in ("abc", "5..3", "-1..2", "1..x", "", ",", "-1", "3,-2"):
        with pytest.raises(ConfigError):
            parse_populations(bad)


# Each case: layout text, extra scenario lines, and the text the error must
# carry (the key, line or cell at fault). Every one of these ran to exit 0 or
# 3 before non-finite numbers were rejected where they are parsed.
NAN_SPEED_TABLE = "[table]\n0 = 1.44 1.0\n1 = nan 0.5\n2 = 0.0 0.0\n"


@pytest.mark.parametrize("layout,extra,needle", [
    (CORRIDOR_LAYOUT, "[run]\ndt_s = inf\n", "dt_s"),
    (CORRIDOR_LAYOUT, "[run]\ndt_s = nan\n", "dt_s"),
    ("1 3 nan\n11 10 14\nsink 0 2 1\nsource 0 0\n", "", "line 1"),
    ("1 3 inf\n11 10 14\nsink 0 2 1\nsource 0 0\n", "", "line 1"),
    (CORRIDOR_LAYOUT, "[field]\nbase_reward = inf\n", "base_reward"),
    (CORRIDOR_LAYOUT, "[field]\nbase_reward = nan\n", "base_reward"),
    (CORRIDOR_LAYOUT, "[field]\ngamma = nan\n", "gamma"),
    ("1 3 1.0\n11 10 14\nsink 0 2 nan\nsource 0 0\n", "", "line 3"),
    ("1 3 1.0\n11 10 14\nsink 0 2 inf\nsource 0 0\n", "", "line 3"),
    (CORRIDOR_LAYOUT, "[sinks]\n0,2 = nan\n", "[sinks] 0,2"),
    (CORRIDOR_LAYOUT, "[sinks]\n0,2 = inf\n", "[sinks] 0,2"),
    (CORRIDOR_LAYOUT, NAN_SPEED_TABLE, "density 1"),
    ("1 3 1.0\n11 10 14\nsink 0 2 1e300\nsource 0 0\n",
     "[field]\nbase_reward = 1e10\n", "sink (0, 2)"),
    (CORRIDOR_LAYOUT, "[field]\nbase_reward = 1e300\n[sinks]\n0,2 = 1e10\n", "sink (0, 2)"),
], ids=["dt_inf", "dt_nan", "cell_size_nan", "cell_size_inf", "base_reward_inf",
        "base_reward_nan", "gamma_nan", "sink_weight_nan", "sink_weight_inf",
        "multiplier_nan", "multiplier_inf", "table_speed_nan",
        "reward_times_weight_overflows", "reward_times_multiplier_overflows"])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, layout, extra, needle):
    (tmp_path / "corridor.layout").write_text(layout)
    path = tmp_path / "bad.scenario"
    path.write_text("[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n" + extra)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not out.exists()


def test_run_table_with_zero_speed_below_capacity_is_config_error(tmp_path, capsys):
    """A lone agent in a cell it may share with nobody walks at speed 0: it
    would stay until the step limit."""
    (tmp_path / "corridor.layout").write_text(CORRIDOR_LAYOUT)
    path = tmp_path / "frozen.scenario"
    path.write_text("[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n"
                    "[table]\n0 = 0 1.0\n1 = 0 0\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[table]" in err and "density 0" in err
    assert not out.exists()


@pytest.mark.parametrize("rows,needle", [
    ("1 = 1.0 1.0\n2 = 0.5 0.0\n", "densities must run 0..1, got 1, 2"),
    ("0 = 1.0 1.0\n2 = 0.5 0.0\n", "densities must run 0..1, got 0, 2"),
], ids=["not_from_0", "gap"])
def test_run_table_densities_not_0_to_n_is_config_error(tmp_path, capsys, rows, needle):
    (tmp_path / "corridor.layout").write_text(CORRIDOR_LAYOUT)
    path = tmp_path / "gappy.scenario"
    path.write_text("[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n[table]\n" + rows)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"[table] {needle}" in err
    assert not out.exists()


def test_run_subnormal_plateau_is_config_error(tmp_path, capsys):
    """On a 1 x 3500 corridor at gamma 0.8 the field sticks at the smallest
    subnormals far from the sink, where greedy descent finds no ascent."""
    (tmp_path / "corridor.layout").write_text(corridor_layout(3500))
    path = tmp_path / "long.scenario"
    path.write_text("[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "plateau" in err and "cell (0, " in err
    assert not out.exists()


def refuse_to_run(monkeypatch):
    """Make any simulation run fail the test: the command must stop first."""
    def run(self, *args, **kwargs):
        raise AssertionError("Simulation.run was called")
    monkeypatch.setattr(Simulation, "run", run)


@pytest.mark.parametrize("command", [
    ["run", "{scenario}"],
    ["sweep", "{scenario}", "--pop", "1,2", "--seeds", "2"],
    ["compare", "compare_10x15", "compare_10x15_micro", "--pop", "1", "--seeds", "1"],
], ids=["run", "sweep", "compare"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_unwritable_out_fails_before_any_run(corridor_scenario, tmp_path, capsys,
                                             monkeypatch, command, below):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "sub" if below else taken
    refuse_to_run(monkeypatch)
    argv = [arg.format(scenario=corridor_scenario) for arg in command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv,needle", [
    (["run", "{scenario}", "--seed", "-1"], "--seed"),
    (["sweep", "compare_10x15", "--pop", "1", "--seeds", "1", "--seed", "-3"], "--seed"),
    (["compare", "compare_10x15", "compare_10x15_micro", "--pop", "-1", "--seeds", "1"],
     "population spec"),
    (["compare", "compare_10x15", "compare_10x15_micro", "--pop", "2,-1", "--seeds", "1"],
     "population spec"),
    (["sweep", "compare_10x15", "--pop", "-4", "--seeds", "1"], "population spec"),
], ids=["run_seed", "sweep_seed", "compare_pop", "compare_pop_list", "sweep_pop"])
def test_negative_seed_or_population_is_usage_error(corridor_scenario, tmp_path, capsys,
                                                    argv, needle):
    out = tmp_path / "out"
    argv = [arg.format(scenario=corridor_scenario) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not out.exists()


def test_negative_scenario_seed_is_config_error(corridor_scenario, tmp_path, capsys):
    corridor_scenario.write_text(CORRIDOR_SCENARIO.replace("seed = 3", "seed = -1"))
    out = tmp_path / "out"
    assert main(["run", str(corridor_scenario), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[run] seed" in err
    assert not out.exists()


def test_run_nul_in_layout_path_is_config_error(tmp_path, capsys):
    path = tmp_path / "nul.scenario"
    path.write_text("[layout]\npath = a\x00b\n[spawn]\n0,0 = 1@0\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[layout] path" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[layout]\npath = room.layout\n  more\n[spawn]\n0,0 = 1@0\n",
                                  "[layout]\npath = room.layout\n[spawn]\n0,0 = 1@0\n"],
                         ids=["line_break_in_path", "undecodable_layout"])
def test_an_unreadable_layout_is_one_error_line(text, tmp_path, capsys):
    """A layout path that a continuation line breaks in two, and a layout
    file that is not UTF-8: each is one `error:` line naming the layout,
    exit 2. The first once printed its path over two lines, and the second
    ended in a UnicodeDecodeError traceback."""
    (tmp_path / "room.layout").write_bytes(CORRIDOR_LAYOUT.encode() + b"# \xff\n")
    path = tmp_path / "room.scenario"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: room: cannot read layout ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_an_undecodable_scenario_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "room.scenario"
    path.write_bytes(b"[run]\nmode = meso\xff\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read scenario file {path}: ") and err.count("\n") == 1


def package_env() -> dict:
    """The environment with this checkout's mesoped first on `PYTHONPATH`."""
    src = Path(mesoped.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_python_m_cli_runs_without_runtime_warning(tmp_path):
    """`python -m mesoped.cli` must not import `mesoped.cli` twice: runpy warns
    when the package's `__init__` has already imported it."""
    out = tmp_path / "field.csv"
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "mesoped.cli",
         "export-field", "escalator_stair", "--out", str(out)],
        capture_output=True, text=True, env=package_env(), cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert out.read_text() == oracle.field_to_csv(
        build_runtime(load_scenario("escalator_stair")).field)


# `main` with Python's stdout and stderr redirected, as a benchmark that runs
# commands in its own process does; it exits 1 if a command does not return 0.
IN_PROCESS_COMMANDS = """
import contextlib, io, sys
from mesoped.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["run", "cinema_a", "--snapshots", "--out", "run"]),
             main(["compare", "compare_10x15", "compare_10x15_micro",
                   "--pop", "1,5", "--seeds", "2", "--out", "cmp"]),
             main(["sweep", "cinema_b", "--pop", "1,20", "--seeds", "2", "--out", "sweep"]),
             main(["export-field", "escalator_stair", "--out", "field.csv"])]
sys.exit(codes != [0] * 4 or out.getvalue().count("->") != 4)
"""


def test_in_process_commands_write_nothing_past_python_streams(tmp_path):
    """Through `main` with `sys.stdout` and `sys.stderr` redirected, `run
    --snapshots`, `compare`, `sweep` and `export-field` write nothing to the
    process's own stdout and stderr, up to and including interpreter exit
    under `-X dev`: output from C or from shutdown would land after a
    caller's last line. The kernel includes no stdio, so it cannot print."""
    source = kernel.KERNEL_SOURCE.read_text()
    assert "<stdio.h>" not in source and "<unistd.h>" not in source
    done = subprocess.run([sys.executable, "-X", "dev", "-c", IN_PROCESS_COMMANDS],
                          capture_output=True, env=package_env(), cwd=tmp_path, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert (tmp_path / "run" / "snapshots.txt").stat().st_size > 0
    assert (tmp_path / "cmp" / "comparison.csv").read_text().count("\n") == 3
    assert (tmp_path / "sweep" / "metrics.csv").read_text().count("\n") == 3
    assert (tmp_path / "field.csv").read_text() == oracle.field_to_csv(
        build_runtime(load_scenario("escalator_stair")).field)


def test_zip_imported_package_says_scenarios_are_not_files(tmp_path):
    """A zip-imported mesoped has no scenarios directory to list; the error
    says so instead of listing no bundled scenario."""
    package = Path(mesoped.__file__).resolve().parent
    archive = tmp_path / "mesoped.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent))
    done = subprocess.run(
        [sys.executable, "-m", "mesoped.cli", "run", "cinema_a", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(archive)},
        cwd=tmp_path, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "not installed as files" in done.stderr and str(archive) in done.stderr
    assert "(bundled: )" not in done.stderr
    assert not (tmp_path / "out").exists()

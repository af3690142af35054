"""Scenario parsing, overrides, bundled files, and runtime assembly."""

import configparser
import importlib.util
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from gridgen import corridor_layout
from mesoped.cli import _with_seed, main
from mesoped.engine import MESO_TABLE, MICRO_TABLE, SpawnEntry
from mesoped.scenario import (ConfigError, ScenarioConfig, _read_ini,
                              apply_sink_multipliers, build_runtime,
                              bundled_scenarios, load_scenario, make_simulation,
                              parse_scenario, redistribute)

CORRIDOR_LAYOUT = "1 3 1.0\n11 10 14\nsink 0 2 1\nsource 0 0\n"

FULL_TEXT = """
[run]
mode = micro          # inline comments are allowed
dt_s = 0.25
max_steps = 400
seed = 7

[layout]
path = corridor.layout

[field]
gamma = 0.9
base_reward = 50

[sinks]
0,2 = 2.5

[spawn]
0,0 = 3@0, 2@10
"""


@pytest.fixture
def corridor_dir(tmp_path):
    (tmp_path / "corridor.layout").write_text(CORRIDOR_LAYOUT)
    return tmp_path


def test_parse_full_scenario(corridor_dir):
    cfg = parse_scenario(FULL_TEXT, "demo", corridor_dir)
    assert cfg.name == "demo"
    assert cfg.layout_path == (corridor_dir / "corridor.layout").resolve()
    assert cfg.dt_s == 0.25
    assert cfg.max_steps == 400
    assert cfg.seed == 7
    assert cfg.gamma == 0.9
    assert cfg.base_reward == 50.0
    assert cfg.sink_multipliers == (((0, 2), 2.5),)
    assert cfg.schedule == (SpawnEntry((0, 0), 3, 0), SpawnEntry((0, 0), 2, 10))
    assert cfg.table == MICRO_TABLE


def test_parse_defaults(corridor_dir):
    cfg = parse_scenario("[layout]\npath = corridor.layout\n", "d", corridor_dir)
    assert cfg.table == MESO_TABLE
    assert cfg.dt_s == 0.5
    assert cfg.max_steps == 1000
    assert cfg.seed == 0
    assert cfg.gamma == 0.8
    assert cfg.base_reward == 100.0
    assert cfg.sink_multipliers == ()
    assert cfg.schedule == ()


def test_parse_skips_blank_spawn_terms(corridor_dir):
    text = "[layout]\npath = corridor.layout\n[spawn]\n0,0 = , 3@0,, 2@10 ,\n"
    cfg = parse_scenario(text, "d", corridor_dir)
    assert cfg.schedule == (SpawnEntry((0, 0), 3, 0), SpawnEntry((0, 0), 2, 10))


def test_parse_custom_table(corridor_dir):
    """A [table] section replaces the table that `mode` would pick."""
    text = ("[run]\nmode = micro\n[layout]\npath = corridor.layout\n"
            "[table]\n0 = 1.0 1.0\n1 = 0.5 0.5\n2 = 0.0 0.0\n")
    cfg = parse_scenario(text, "d", corridor_dir)
    assert cfg.table not in (MESO_TABLE, MICRO_TABLE)
    assert cfg.table.capacity == 2
    assert cfg.table.speeds == (1.0, 0.5, 0.0)
    assert cfg.table.probs == (1.0, 0.5, 0.0)


@pytest.mark.parametrize("text,needle", [
    ("[layout]\npath = corridor.layout\n[junk]\nx = 1\n", "unknown section"),
    ("[run]\nmode = macro\n[layout]\npath = corridor.layout\n", "mode"),
    ("[run]\ndt_s = 0\n[layout]\npath = corridor.layout\n", "dt_s"),
    ("[run]\nmax_steps = -1\n[layout]\npath = corridor.layout\n", "max_steps"),
    ("[run]\nmax_steps = soon\n[layout]\npath = corridor.layout\n", "max_steps"),
    ("[field]\ngamma = 1.0\n[layout]\npath = corridor.layout\n", "gamma"),
    ("[field]\nbase_reward = 0\n[layout]\npath = corridor.layout\n", "base_reward"),
    ("[field]\nepsilon = 1e-9\n[layout]\npath = corridor.layout\n", "[field] epsilon"),
    ("[field]\nmax_sweeps = 99\n[layout]\npath = corridor.layout\n", "[field] max_sweeps"),
    ("[run]\nmode = meso\n", "missing [layout] path"),
    ("[layout]\npath = corridor.layout\n[sinks]\n0 = 2\n", "row,col"),
    ("[layout]\npath = corridor.layout\n[sinks]\n0,2 = -1\n", "positive"),
    ("[layout]\npath = corridor.layout\n[spawn]\n0,0 = 5@\n", "spawn term"),
    ("[layout]\npath = corridor.layout\n[spawn]\n0,0 = x@0\n", "spawn term"),
    (f"[layout]\npath = corridor.layout\n[spawn]\n0,0 = {2**63}@0\n",
     "[spawn] 0,0: spawn counts and steps must be non-negative and below 2**63"),
    ("[layout]\npath = corridor.layout\n[spawn]\n0,0 = ,\n", "[spawn] 0,0: empty spawn value"),
    ("[layout]\npath = corridor.layout\n[table]\n0 = 1.0\n", "[table]"),
    ("[run]\nseed = -1\n[layout]\npath = corridor.layout\n", "[run] seed"),
    ("[layout]\npath = a\x00b\n", "bad: [layout] path"),   # NUL: no such file name
    # Misspelled keys, and keys some INI readers copy into every section.
    ("[run]\nmax_step = 1\n[layout]\npath = corridor.layout\n", "unknown key [run] max_step"),
    ("[field]\ngama = 0.3\n[layout]\npath = corridor.layout\n", "unknown key [field] gama"),
    ("[layout]\npath = corridor.layout\nmode = micro\n", "unknown key [layout] mode"),
    ("[DEFAULT]\nmax_steps = 5\n[layout]\npath = corridor.layout\n",
     "unknown section [DEFAULT]"),
    ("[DEFAULT]\nmax_steps = 5\n[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n",
     "unknown section [DEFAULT]"),
    # One cell under two spellings.
    ("[layout]\npath = corridor.layout\n[sinks]\n0,2 = 2\n0, 2 = 3\n",
     "[sinks] 0,2 and 0, 2 name the same cell (0, 2)"),
    ("[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n00,0 = 2@0\n",
     "[spawn] 0,0 and 00,0 name the same cell (0, 0)"),
    # One density under two spellings.
    ("[layout]\npath = corridor.layout\n[table]\n0 = 1 1\n1 = 0.5 0.5\n01 = 0.4 0.4\n2 = 0 0\n",
     "[table] 1 and 01 name the same density 1"),
    # Densities that must run 0..n-1: from 0, and with no gap.
    ("[layout]\npath = corridor.layout\n[table]\n1 = 1 1\n2 = 0.5 0\n",
     "[table] densities must run 0..1, got 1, 2"),
    ("[layout]\npath = corridor.layout\n[table]\n0 = 1 1\n2 = 0.5 0\n",
     "[table] densities must run 0..1, got 0, 2"),
])
def test_parse_rejects_bad_configs(corridor_dir, text, needle):
    with pytest.raises(ConfigError, match="(?i)" + re.escape(needle)):
        parse_scenario(text, "bad", corridor_dir)


def test_error_messages_name_the_scenario(corridor_dir):
    with pytest.raises(ConfigError, match="myscenario"):
        parse_scenario("[run]\nmode = nope\n[layout]\npath = corridor.layout\n",
                       "myscenario", corridor_dir)


def test_with_seed_and_population():
    cfg = ScenarioConfig(name="x", layout_path=Path("x"),
                         schedule=(SpawnEntry((0, 0), 3, 0),
                                   SpawnEntry((1, 0), 3, 4)))
    assert _with_seed(cfg, 9) == replace(cfg, seed=9)
    assert _with_seed(cfg, None) is cfg
    repop = redistribute(cfg.schedule, 5)
    assert [e.count for e in repop] == [3, 2]
    assert [e.release_step for e in repop] == [0, 4]


def test_redistribute_round_robin():
    schedule = (SpawnEntry((0, 0), 1), SpawnEntry((1, 0), 1), SpawnEntry((2, 0), 1))
    assert [e.count for e in redistribute(schedule, 7)] == [3, 2, 2]
    assert [e.count for e in redistribute(schedule, 0)] == [0, 0, 0]
    with pytest.raises(ConfigError):
        redistribute((), 5)
    with pytest.raises(ConfigError):
        redistribute(schedule, -1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.integers(0, 60), st.integers(0, 5))
def test_redistribute_matches_round_robin(entries, population, first_release):
    """Agent k goes to entry k mod len(schedule); cells and release steps stay."""
    schedule = tuple(SpawnEntry((k, 0), 1, first_release + k) for k in range(entries))
    counts = [0] * entries
    for k in range(population):
        counts[k % entries] += 1
    repop = redistribute(schedule, population)
    assert [e.count for e in repop] == counts
    assert [(e.cell, e.release_step) for e in repop] == [(e.cell, e.release_step) for e in schedule]


def test_redistribute_huge_population_is_immediate():
    """The spread is arithmetic, not a loop over agents: 10**18 agents over
    seven entries takes no time (a loop would take millennia)."""
    code = ("from mesoped.engine import SpawnEntry\n"
            "from mesoped.scenario import redistribute\n"
            "schedule = tuple(SpawnEntry((k, 0), 1) for k in range(7))\n"
            "print([e.count for e in redistribute(schedule, 10**18)])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=10, env=env)
    q, r = divmod(10**18, 7)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[q + 1] * r + [q] * (7 - r)}\n"


def test_load_scenario_from_path(corridor_dir):
    path = corridor_dir / "demo.scenario"
    path.write_text(FULL_TEXT)
    cfg = load_scenario(path)
    assert cfg.name == "demo"
    assert cfg.layout_path.exists()


def test_load_scenario_unknown_name():
    with pytest.raises(ConfigError, match="bundled"):
        load_scenario("no_such_scenario")


def test_bundled_scenarios_all_build():
    names = bundled_scenarios()
    assert {"cinema_a", "cinema_b", "escalator_stair",
            "compare_10x15", "compare_10x15_micro"} <= set(names)
    for name in names:
        cfg = load_scenario(name)
        runtime = build_runtime(cfg)
        for cell in runtime.grid.sources:
            assert runtime.field.values[cell] > 0, (name, cell)
        total = sum(e.count for e in cfg.schedule)
        assert total > 0, name


def test_bundled_modes_pick_tables():
    meso = build_runtime(load_scenario("compare_10x15"))
    micro = build_runtime(load_scenario("compare_10x15_micro"))
    assert meso.config.table == MESO_TABLE
    assert micro.config.table == MICRO_TABLE
    assert micro.grid.cell_size_m == 0.5


def test_apply_sink_multipliers():
    cfg = load_scenario("cinema_a")
    runtime = build_runtime(cfg)
    weights = dict(runtime.grid.sinks)
    assert weights[(8, 29)] == 30.0, "base 10 times the 3.0 multiplier"
    assert weights[(0, 1)] == 1.0


def test_apply_sink_multipliers_rejects_non_sinks():
    cfg = load_scenario("compare_10x15")
    runtime = build_runtime(cfg)
    with pytest.raises(ConfigError, match="not a sink"):
        apply_sink_multipliers(runtime.grid, (((0, 0), 2.0),))


def test_build_runtime_missing_layout(tmp_path):
    cfg = ScenarioConfig(name="x", layout_path=tmp_path / "nope.layout")
    with pytest.raises(ConfigError, match="cannot read layout"):
        build_runtime(cfg)


def test_build_runtime_rejects_non_source_spawn(corridor_dir):
    text = "[layout]\npath = corridor.layout\n[spawn]\n0,1 = 2@0\n"
    cfg = parse_scenario(text, "bad", corridor_dir)
    with pytest.raises(ConfigError, match="not a source"):
        build_runtime(cfg)


def test_build_runtime_rejects_walled_off_source(tmp_path):
    """The source cell is closed on all four sides; before this check its agent
    logged `stay` until the step limit."""
    (tmp_path / "walled.layout").write_text("1 3 1.0\n15 11 10\nsink 0 2 1\nsource 0 0\n")
    cfg = ScenarioConfig(name="walled", layout_path=tmp_path / "walled.layout")
    with pytest.raises(ConfigError, match=r"source \(0, 0\) has navigation value 0"):
        build_runtime(cfg)


def test_build_runtime_rejects_source_where_field_underflows(tmp_path):
    """400 hops at gamma 0.1 take 100 x 0.1**399 below the smallest double."""
    (tmp_path / "long.layout").write_text(corridor_layout(400))
    cfg = ScenarioConfig(name="long", layout_path=tmp_path / "long.layout", gamma=0.1)
    with pytest.raises(ConfigError, match=r"source \(0, 0\).*gamma 0.1"):
        build_runtime(cfg)
    assert build_runtime(replace(cfg, gamma=0.8)).field.values[0, 0] > 0.0


def test_build_runtime_rejects_a_sink_reward_that_rounds_to_0(tmp_path):
    """Base reward 1e-300 times weight 1e-100 is 0.0: the set-up names the sink
    and its reward, not only the source that such a sink leaves at value 0."""
    (tmp_path / "faint.layout").write_text("1 3 1.0\n11 10 14\nsink 0 2 1e-100\nsource 0 0\n")
    cfg = ScenarioConfig(name="faint", layout_path=tmp_path / "faint.layout", base_reward=1e-300)
    with pytest.raises(ConfigError, match=r"faint: sink \(0, 2\) has reward 0\.0 "):
        build_runtime(cfg)


def test_build_runtime_rejects_subnormal_plateau(tmp_path):
    """Past about 3,350 hops at gamma 0.8 the field sticks at 1e-323: 147
    cells of a 1 x 3500 corridor share that value and none has a higher
    neighbour. The far end's own value is positive, so only the plateau
    check stops it."""
    (tmp_path / "long.layout").write_text(corridor_layout(3500))
    cfg = ScenarioConfig(name="long", layout_path=tmp_path / "long.layout")
    with pytest.raises(ConfigError, match=r"cell \(0, \d+\) lies on a plateau .* at 1e-323, "
                                          r"with no higher neighbour.*gamma 0.8"):
        build_runtime(cfg)
    assert build_runtime(replace(cfg, gamma=0.9)).field.values[0, 0] > 1e-300


@pytest.mark.parametrize("text,needle", [
    ("[run]\ndt_s = inf\n", "[run] dt_s"),
    ("[run]\ndt_s = nan\n", "[run] dt_s"),
    ("[field]\nbase_reward = inf\n", "[field] base_reward"),
    ("[field]\nbase_reward = nan\n", "[field] base_reward"),
    ("[sinks]\n0,2 = nan\n", "[sinks] 0,2"),
    ("[table]\n0 = 1.0 1.0\n1 = nan 0.5\n2 = 0.0 0.0\n", "density 1"),
])
def test_parse_rejects_non_finite_numbers(corridor_dir, text, needle):
    with pytest.raises(ConfigError, match=needle.replace("[", r"\[")):
        parse_scenario("[layout]\npath = corridor.layout\n" + text, "bad", corridor_dir)


def test_simulate_corridor_end_to_end(corridor_dir):
    text = "[layout]\npath = corridor.layout\n[spawn]\n0,0 = 1@0\n"
    cfg = parse_scenario(text, "demo", corridor_dir)
    sim = make_simulation(build_runtime(cfg))
    sim.run(cfg.max_steps)
    assert sim.completed
    assert sim.events[-1] == (5, 2.5, 0, "exit", 0, 2)


# The keys each section knows, plus some it does not.
SECTION_KEYS = {
    "run": ["mode", "dt_s", "max_steps", "seed", "x", "max_step"],
    "layout": ["path", "paths"],
    "field": ["gamma", "base_reward", "epsilon", "max_sweeps", "gama"],
    "sinks": ["0,2", "0", "x,y"],
    "spawn": ["0,0", "1"],
    "table": ["0", "1", "x"],
    "junk": ["x"],
    "DEFAULT": ["max_steps", "0,0"],
}
# Values near the edges of each key: signs, non-finite and huge numbers,
# spawn terms and table rows.
VALUES = st.one_of(
    st.sampled_from(["meso", "micro", "0", "-1", "0.5", "nan", "inf", "1e400", "9" * 5000,
                     "3@0, 2@10", "5@", "@", "1.0 1.0", "%(x)s", ""]),
    st.integers(-5, 5).map(str),
    st.text(max_size=8),
)
# Layout paths, NUL bytes among them: no file name can hold one.
PATHS = st.one_of(st.sampled_from(["corridor.layout", "a\x00b", "\x00", "../x", "/", ""]),
                  st.text(max_size=8))


@st.composite
def scenario_texts(draw):
    """Arbitrary text, or sections of `key = value` lines drawn from the keys
    each section knows (a `[layout] path` with NUL among them)."""
    if draw(st.booleans()):
        return draw(st.text())
    lines = []
    for section in draw(st.lists(st.sampled_from(list(SECTION_KEYS)), max_size=4, unique=True)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(SECTION_KEYS[section]), max_size=3, unique=True)):
            lines.append(f"{key} = {draw(PATHS if key == 'path' else VALUES)}")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(scenario_texts())
def test_parse_scenario_raises_only_config_errors(text):
    try:
        parse_scenario(text, "fuzz", Path(__file__).resolve().parent)
    except ConfigError:
        pass


# What each rule of the INI grammar turns on: brackets, both delimiters,
# both comment marks, [DEFAULT], keys that differ only in case, and
# whitespace that `str.strip` removes though no line ends at it.
SPACES = st.sampled_from(["", " ", "\t", "\r", "\x0b", "\x85", "  "])
NAMES = st.one_of(st.sampled_from(["run", "Run", "DEFAULT", "seed", "Seed", "0,0", "a]b",
                                   "a b", "x=y", "k:v", "#", ";", ""]), st.text(max_size=4))
VALUES = st.one_of(st.sampled_from(["1", "", "a#b", "a #b", "1:2", "=", "[x]", "3@0, 2@10"]),
                   st.text(max_size=4))
TAILS = st.sampled_from(["", " # c", "\t#", "#x", " ; c", "]", " x", "\x85# c"])
PIECES = st.sampled_from(["[", "]", "=", ":", "#", ";", " ", "\t", "\r", "\x0b", "\x85", "\n",
                          "\n  ", "[run]", "[DEFAULT]", "a", "Key", "key", "x = 1", "y: 2"])


@st.composite
def ini_texts(draw):
    """Arbitrary text, a string of INI pieces, or lines of headers, keys,
    comments and blanks, some indented, which both readers often accept."""
    form = draw(st.integers(0, 3))
    if form == 0:
        return draw(st.text())
    if form == 1:
        return "".join(draw(st.lists(PIECES, max_size=30)))
    lines = [f"[{draw(NAMES)}]"] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            line = f"[{draw(NAMES)}]{draw(TAILS)}"
        elif kind < 4:
            line = (draw(NAMES) + draw(SPACES) + draw(st.sampled_from("=:")) + draw(SPACES)
                    + draw(VALUES) + draw(TAILS))
        else:
            line = draw(st.sampled_from(["", " ", "# c", "; c", "\t# c", "x # y", "a#b"]))
        lines.append(draw(SPACES) + line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=5000, deadline=None)
@given(ini_texts())
def test_read_ini_matches_configparser(text):
    """The scenario reader and configparser, with the settings it replaced,
    give the same sections, keys and values in the same order, or both
    refuse the text."""
    try:
        expected = oracle.read_ini(text)
    except configparser.Error:
        with pytest.raises(ConfigError, match=r"^fuzz: line \d+: "):
            _read_ini(text, "fuzz")
    else:
        assert [(section, list(keys.items()))
                for section, keys in _read_ini(text, "fuzz").items()] == expected


def test_read_ini_grammar():
    text = ("# comment\n[run]  ; after the header\nMode = meso # inline\n"
            "Path: a#b ;c\nspan = first\n\n  second # dropped\n\t\n   ; a comment\n"
            "   third\n\n[Run]\nempty =\n")
    assert _read_ini(text, "x") == {
        "run": {"mode": "meso", "path": "a#b ;c", "span": "first\n\nsecond\n\nthird"},
        "Run": {"empty": ""}}


@pytest.mark.parametrize("text,needle", [
    ("[run]\nseed = 1\n[layout]\npath = x\n[run]\nmode = meso\n",
     "line 5: section [run] is given twice"),
    ("[run]\nseed = 1\n\nseed = 2\n", "line 4: [run] seed is given twice"),
    ("[run]\nSeed = 1\nseed = 2\n", "line 3: [run] seed is given twice"),
    ("# a comment\nseed = 1\n[run]\n", "line 2: 'seed = 1' comes before any [section]"),
    ("[run]\nseed = 1\nmax_steps\n", "line 3: expected KEY = VALUE, got 'max_steps'"),
    ("[run]\n = 1\n", "line 2: expected KEY = VALUE, got '= 1'"),
], ids=["section", "key", "key_case", "before_header", "no_delimiter", "no_key"])
def test_read_ini_refusals_name_the_scenario_and_line(text, needle):
    with pytest.raises(ConfigError, match=re.escape(f"bad: {needle}")):
        _read_ini(text, "bad")
    with pytest.raises(configparser.Error):
        oracle.read_ini(text)


def test_duplicate_key_through_main_is_one_error_line(corridor_dir, capsys):
    path = corridor_dir / "twice.scenario"
    path.write_text("[layout]\npath = corridor.layout\n[run]\nSeed = 1\nseed = 2\n")
    out = corridor_dir / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: twice: line 5: [run] seed is given twice\n"
    assert not out.exists()


# Every number a scenario holds, by section and key, as FULL_TEXT sets it.
NUMERIC_KEYS = [("run", "dt_s"), ("run", "max_steps"), ("run", "seed"),
                ("field", "gamma"), ("field", "base_reward"), ("sinks", "0,2")]
NUMBERS = st.one_of(st.floats().map(repr), st.integers().map(str),
                    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "9" * 5000]))


@pytest.mark.parametrize("section,key", NUMERIC_KEYS)
@settings(max_examples=30, deadline=None)
@given(number=NUMBERS)
def test_parse_scenario_numbers_are_finite_or_rejected(section, key, number):
    text = FULL_TEXT.replace(f"\n{key} = ", f"\n{key} = {number} # ", 1)
    assert f"{key} = {number} #" in text and f"[{section}]" in text
    try:
        cfg = parse_scenario(text, "fuzz", Path(__file__).resolve().parent)
    except ConfigError:
        return
    assert 0 < cfg.dt_s < math.inf and 0 < cfg.gamma < 1 and 0 < cfg.base_reward < math.inf
    assert cfg.max_steps >= 0 and cfg.seed >= 0
    assert all(0 < factor < math.inf for _, factor in cfg.sink_multipliers)


def test_names_the_benchmark_tracer_reads_are_kept():
    """perfbench/tracer.py wraps the functions in its TARGETS and counts from
    `Runtime.sweeps`, `FloorField.values` (an ndarray it compares with 0),
    `Simulation.events` and `SimulationState.step_index`. It drops a metric
    when a name is gone, and a traced result that lacks a per-layer metric
    fails the byte-identity gate. Five targets have long been gone, and their
    metrics are reported as not measured."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    gone = {"floorfield.build_rewards", "floorfield.solve_q", "floorfield.extract_field",
            "floorfield.field_to_csv", "engine.events_to_csv"}
    for name, module, attr in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert owner is not None or name in gone, name
    runtime = build_runtime(load_scenario("compare_10x15"))
    counts = tracer.runtime_counts([runtime])
    assert counts["floorfield.sweeps"] == runtime.field.rounds > 0
    assert counts["floorfield.reached_cells"] > 0
    sim = make_simulation(runtime, population=3)
    sim.run(10_000)
    counts = tracer.engine_counts([sim])
    assert counts["engine.events"] == len(sim.events) > 0 and counts["engine.agent_steps"] > 0

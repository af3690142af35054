"""Event-log summaries, population sweeps, and metrics CSV output."""

import math

from mesoped.metrics import (RunMetrics, SweepPoint, comparison_csv,
                             metrics_csv, run_seed_sequence, summarize, sweep)
from mesoped.scenario import build_runtime, load_scenario

CORRIDOR_EVENTS = [
    (0, 0.0, 0, "spawn", 0, 0),
    (2, 1.0, 0, "move", 0, 1),
    (4, 2.0, 0, "move", 0, 2),
    (5, 2.5, 0, "exit", 0, 2),
]


def test_summarize_corridor_oracle():
    m = summarize(CORRIDOR_EVENTS, cell_size_m=1.0)
    assert m.n_agents == 1
    assert m.n_exited == 1
    assert m.avg_travel_time_s == 2.5
    assert m.avg_distance_m == 2.0
    assert m.per_exit_counts == {(0, 2): 1}
    assert m.completed


def test_summarize_scales_distance_with_cell_size():
    m = summarize(CORRIDOR_EVENTS, cell_size_m=0.5)
    assert m.avg_distance_m == 1.0


def test_summarize_counts_diagonal_moves():
    events = [
        (0, 0.0, 0, "spawn", 0, 0),
        (2, 1.0, 0, "move", 1, 1),
        (3, 1.5, 0, "exit", 1, 1),
    ]
    m = summarize(events, cell_size_m=1.0)
    assert m.avg_distance_m == math.sqrt(2.0)


def test_summarize_empty_log():
    m = summarize([], cell_size_m=1.0)
    assert m.n_agents == 0
    assert m.avg_travel_time_s is None
    assert m.avg_distance_m is None
    assert m.per_exit_counts == {}
    assert m.completed


def test_summarize_ignores_stays_and_averages_pairs():
    events = [
        (0, 0.0, 0, "spawn", 0, 0),
        (0, 0.0, 1, "spawn", 0, 0),
        (2, 1.0, 0, "move", 0, 1),
        (2, 1.0, 1, "stay", 0, 0),
        (4, 2.0, 0, "move", 0, 2),
        (4, 2.0, 1, "move", 0, 1),
        (5, 2.5, 0, "exit", 0, 2),
        (6, 3.0, 1, "move", 0, 2),
        (7, 3.5, 1, "exit", 0, 2),
    ]
    m = summarize(events, cell_size_m=1.0)
    assert m.n_agents == 2
    assert m.avg_travel_time_s == 3.0
    assert m.avg_distance_m == 2.0
    assert m.per_exit_counts == {(0, 2): 2}
    assert m.completed


def test_summarize_flags_incomplete_runs():
    m = summarize(CORRIDOR_EVENTS[:-1], cell_size_m=1.0)
    assert not m.completed
    assert m.n_agents == 1 and m.n_exited == 0
    assert m.avg_travel_time_s is None


def test_seed_sequences_are_distinct_and_stable():
    a = run_seed_sequence(1, 10, 0)
    b = run_seed_sequence(1, 10, 1)
    c = run_seed_sequence(1, 11, 0)
    assert a.entropy == [1, 10, 0]
    states = {tuple(s.generate_state(4)) for s in (a, b, c)}
    assert len(states) == 3
    again = run_seed_sequence(1, 10, 0)
    assert tuple(again.generate_state(4)) == tuple(a.generate_state(4))


def test_sweep_is_deterministic():
    config = load_scenario("compare_10x15")
    a = sweep(config, [1, 3], 2, build_runtime(config))
    b = sweep(config, [1, 3], 2, build_runtime(config))
    assert a == b
    assert [p.population for p in a] == [1, 3]
    assert all(p.completed and p.n_runs == 2 for p in a)
    assert a[0].avg_travel_time_s == 14.5


def test_metrics_csv_layout():
    m = RunMetrics(n_agents=2, avg_travel_time_s=2.5, avg_distance_m=2.0,
                   per_exit_counts={(0, 2): 2}, completed=True)
    text = metrics_csv([(2, m)], sinks=[(0, 2)])
    assert text == ("population,avg_travel_time_s,avg_distance_m,"
                    "exit_0_2_count,completed\n"
                    "2,2.5,2.0,2,true\n")


def test_metrics_csv_handles_missing_values():
    m = RunMetrics(n_agents=1, avg_travel_time_s=None, avg_distance_m=None,
                   per_exit_counts={}, completed=False)
    text = metrics_csv([(1, m)], sinks=[(0, 2)])
    assert text.splitlines()[1] == "1,,,0,false"


def test_comparison_csv_pairs_rows():
    a = SweepPoint(1, 14.5, 14.0, {}, True, 10)
    b = SweepPoint(1, 15.0, 14.5, {}, True, 10)
    text = comparison_csv([1], [a], [b])
    lines = text.splitlines()
    assert lines[0].startswith("population,meso_avg_travel_time_s")
    assert lines[1] == "1,14.5,14.0,true,15.0,14.5,true"

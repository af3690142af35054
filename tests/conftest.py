"""Shared pytest config: import path, shared random layouts, and the
acceptance summary block."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gridgen import random_grid  # noqa: E402


@pytest.fixture(scope="session")
def random_grids():
    """200 seeded random layouts, shared by the field and move-table checks."""
    return [random_grid(np.random.default_rng(1000 + seed)) for seed in range(200)]


# One label per acceptance criterion, keyed by test function name.
ACCEPTANCE_LABELS = {
    "test_criterion_1_speed_density_table":
        "1 speed/entry-probability lookups match the reference table exactly",
    "test_criterion_2_field_descent_and_shortest_paths":
        "2 monotone descent + greedy equals BFS distance on 50 random layouts",
    "test_criterion_3_sink_weight_scaling":
        "3 sink-weight scaling: N scales by c, move sequences bit-identical",
    "test_criterion_4_exit_choice_shares":
        "4 tripled main exit dominates; halved weight lowers its share",
    "test_criterion_5_escalator_preference":
        "5 escalator approach outvalues stair approach at equal hop distance",
    "test_criterion_6_resolution_comparison":
        "6 single-agent meso/micro parity; travel and distance rise with population",
    "test_criterion_7_conservation_and_capacity":
        "7 conservation and capacity hold per step on 100 fuzzed scenarios",
    "test_criterion_8_deterministic_artifacts":
        "8 same seed reproduces byte-identical event and metrics CSVs",
}

_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if name not in ACCEPTANCE_LABELS:
        return
    if report.when == "call":
        _outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _outcomes[name] = "error" if report.outcome == "failed" else report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in ACCEPTANCE_LABELS.items():
        outcome = _outcomes.get(name)
        if outcome is None:
            continue
        word = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{word:7s} criterion {label}")

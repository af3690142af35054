"""Mesoscopic pedestrian simulator: navigation fields solved exactly as the
fixed point of the Q-learning update over edge-walled grids, plus a
density-coupled discrete-time movement engine."""

from .layout import (
    BoundaryError, ConsistencyError, EmptyError, LayoutError, LayoutGrid,
    ParseError, parse_layout, render_snapshot, serialize_layout,
)
from .floorfield import FloorField, compute_field, field_csv_blocks
from .engine import (
    MESO_TABLE, MICRO_TABLE, Simulation, SpawnEntry, SpeedDensityTable, events_csv_blocks,
)
from .scenario import (
    ConfigError, ScenarioConfig, Runtime, build_runtime, bundled_scenarios,
    load_scenario, make_simulation,
)
from .metrics import RunMetrics, summarize, sweep

__version__ = "0.1.0"

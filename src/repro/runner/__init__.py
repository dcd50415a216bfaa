"""Parallel sweep execution with persistent, content-addressed results.

The runner turns a figure's scenario grid into independent
:class:`~repro.runner.cells.SweepCell` units, executes them in-process or
across a :mod:`multiprocessing` pool (:class:`~repro.runner.runner.SweepRunner`),
and memoises every computed result in a sharded JSON-lines
:class:`~repro.runner.store.ResultsStore` keyed by a content hash of the cell
configuration.  Grids are declared with :class:`~repro.runner.grid.GridSpec`
(axis products fanned out over one or more seeds) and reduced across seeds by
the aggregation layer (:func:`~repro.runner.grid.aggregate_cells`: mean ±
bootstrap CI per grid point).  Hybrid grids that evaluate one gateway under
many network conditions factor the expensive event simulation into shared,
cacheable gateway captures (:mod:`repro.runner.capture`).  See
``docs/running.md`` for the CLI, the cache layout and how CI exercises
warm-cache sweeps.

The process pool (:mod:`multiprocessing`, :mod:`concurrent.futures`) loads
only when a run has cells for two or more workers, and ``repro bench`` only
when used; import it from :mod:`repro.runner.bench`.
"""

from repro.exceptions import SweepError
from repro.runner.capture import (
    CaptureResult,
    CaptureSpec,
    hybrid_captures_from_gateway,
    run_capture,
)
from repro.runner.cells import (
    DEFAULT_FEATURES,
    KDE_BANDWIDTH_RULES,
    SCHEMA_VERSION,
    CellResult,
    SweepCell,
    run_cell,
)
from repro.runner.defaults import BACKEND_NAMES
from repro.runner.execute import TaskFailure, available_cpu_count, resolve_jobs
from repro.runner.grid import (
    SEED_TAG,
    AggregatedCellResult,
    ExperimentView,
    GridPoint,
    GridSpec,
    aggregate_cells,
    experiment_view,
    mean_and_ci,
    point_bootstrap_rng,
    seed_range,
    split_seed_key,
)
from repro.runner.runner import SweepReport, SweepRunner
from repro.runner.store import CompactionStats, ResultsStore, StoreStats

__all__ = [
    "BACKEND_NAMES",
    "TaskFailure",
    "available_cpu_count",
    "resolve_jobs",
    "DEFAULT_FEATURES",
    "KDE_BANDWIDTH_RULES",
    "SCHEMA_VERSION",
    "SEED_TAG",
    "AggregatedCellResult",
    "ExperimentView",
    "CaptureResult",
    "CaptureSpec",
    "CellResult",
    "CompactionStats",
    "GridPoint",
    "GridSpec",
    "ResultsStore",
    "StoreStats",
    "SweepCell",
    "SweepError",
    "SweepReport",
    "SweepRunner",
    "aggregate_cells",
    "experiment_view",
    "hybrid_captures_from_gateway",
    "mean_and_ci",
    "point_bootstrap_rng",
    "run_capture",
    "run_cell",
    "seed_range",
    "split_seed_key",
]

"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.sim import RandomStreams
from repro.sim.engine import Simulator
from repro.sim.random import derived_rng
from repro.stats.bootstrap import BootstrapResult


@pytest.fixture
def simulator() -> Simulator:
    """A fresh simulator starting at t = 0."""
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams shared by tests that need randomness."""
    return RandomStreams(seed=12345)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator."""
    return np.random.default_rng(987654321)


def _reference_bootstrap_ci(
    sample,
    statistic=np.mean,
    confidence=0.95,
    resamples=2000,
    rng=None,
    seed=0,
):
    """The per-resample loop ``bootstrap_ci`` used before batched resampling.

    Kept verbatim as the reference the batched draw must equal bit for bit:
    one ``generator.integers`` call and one ``statistic`` call per resample.
    """
    array = np.asarray(list(sample), dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise AnalysisError("bootstrap needs a 1-D sample with at least 2 observations")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError("confidence must lie in (0, 1)")
    if resamples < 10:
        raise AnalysisError("use at least 10 bootstrap resamples")
    generator = rng if rng is not None else derived_rng("bootstrap", seed)
    estimates = np.empty(resamples)
    n = array.size
    for i in range(resamples):
        indices = generator.integers(0, n, size=n)
        estimates[i] = float(statistic(array[indices]))
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(estimates, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return BootstrapResult(
        estimate=float(statistic(array)),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
        resamples=resamples,
    )


@pytest.fixture(scope="session")
def reference_bootstrap_ci():
    """The per-resample bootstrap loop, the reference for batched resampling."""
    return _reference_bootstrap_ci


def _reference_scenario_dict(scenario):
    """A scenario's fingerprinted form rebuilt with plain ``asdict``."""
    data = asdict(scenario)
    data["policy"].pop("name", None)
    return data


def _reference_capture_config(spec):
    """``CaptureSpec.config_dict`` as it was before scenario dicts were cached."""
    from repro.runner.capture import GATEWAY_SCENARIO_FIELDS
    from repro.runner.cells import SCHEMA_VERSION

    scenario = _reference_scenario_dict(spec.scenario)
    return {
        "schema": SCHEMA_VERSION,
        "kind": "gateway-capture",
        "scenario": {name: scenario[name] for name in GATEWAY_SCENARIO_FIELDS},
        "n_intervals": spec.n_intervals,
        "seed": spec.seed,
        "seed_offsets": list(spec.seed_offsets),
    }


def _reference_cell_config(cell):
    """``SweepCell.config_dict`` as it was before scenario dicts were cached."""
    from repro.runner.cells import SCHEMA_VERSION

    config = {
        "schema": SCHEMA_VERSION,
        "scenario": _reference_scenario_dict(cell.scenario),
        "sample_sizes": list(cell.sample_sizes),
        "trials": cell.trials,
        "mode": cell.mode.value,
        "seed": cell.seed,
        "features": list(cell.features),
        "entropy_bin_width": cell.entropy_bin_width,
        "seed_offsets": list(cell.seed_offsets),
        "collect_piat_stats": cell.collect_piat_stats,
    }
    if cell.capture is not None:
        config["capture"] = _reference_capture_config(cell.capture)
    if cell.noise_offsets is not None:
        config["noise_offsets"] = list(cell.noise_offsets)
    if cell.kde_bandwidth is not None:
        config["kde_bandwidth"] = cell.kde_bandwidth
    if cell.rate_classes is not None:
        config["rate_classes"] = list(cell.rate_classes)
    return config


@pytest.fixture(scope="session")
def reference_cell_config():
    """Cell config built with plain ``asdict``, the reference for cached dicts."""
    return _reference_cell_config


@pytest.fixture(scope="session")
def reference_capture_config():
    """Capture config built with plain ``asdict``, the reference for cached dicts."""
    return _reference_capture_config


def _put_capture_record(store, fingerprint, config, result):
    """Append a ``"kind": "capture"`` record to ``store`` byte for byte as
    earlier releases wrote one; the store itself writes cell records only."""
    from repro.runner.cells import SCHEMA_VERSION

    record = {
        "schema": SCHEMA_VERSION,
        "kind": "capture",
        "fingerprint": fingerprint,
        "config": config,
        "result": result,
    }
    path = store.shard_path(fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def put_capture_record():
    """Writes a capture record as a store from an earlier release holds one."""
    return _put_capture_record


@pytest.fixture(scope="session")
def registered_cells():
    """Every cell of every registered experiment at the smoke and fast presets,
    at the default seed and fanned out over two seeds."""
    from repro.api import get_experiment, list_experiments

    return [
        cell
        for preset in ("smoke", "fast")
        for name in list_experiments()
        for seeds in (None, (2003, 2004))
        for cell in get_experiment(name, preset).cells(seeds)
    ]

"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

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

"""Two-level sweep cells: a shared gateway capture feeding cheap children.

In the ``hybrid`` collection mode a cell's gateway capture is the part that
does not depend on the network; the analytic (M/D/1) network noise applied
afterwards depends on it alone.  Grids like Figure 8's 24-hour sweep
evaluate the *same* gateway under many different network conditions, so
capturing the gateway per grid point repeats identical work once per hour.

This module splits such cells in two:

* :class:`CaptureSpec` — the *parent*: one gateway capture (both payload
  rates, both seed offsets), keyed by a fingerprint over exactly the fields
  the gateway simulation reads (policy, payload rates, disturbance, packet
  size, warmup, seed, offsets — **not** the hop count, link rate or
  utilization, which only affect the analytic noise).  The fingerprint
  enters every child's fingerprint and is the key the runner shares one
  capture under; a capture is simulated once per sweep and never stored.
* the *children* — ordinary :class:`~repro.runner.cells.SweepCell` objects
  carrying a ``capture`` reference; executing one applies the per-scenario
  network noise to the parent's intervals and mounts the attack.

Determinism contract: a child cell produces **bit-identical** numbers to a
self-contained hybrid cell with the same scenario, seed and seed offsets,
because the noise generators are derived from the same named random streams
(:class:`repro.sim.random.RandomStreams` derives streams from the master seed
and the stream *name* only, never from creation order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.base import (
    CollectionMode,
    PaddedStreamCapture,
    ScenarioConfig,
    apply_analytic_network_noise,
    simulate_gateway_capture,
)
from repro.sim.random import RandomStreams
from repro.runner.fingerprint import fingerprint_payload

#: Scenario fields the gateway simulation actually reads.  Everything else
#: (hops, link rate, utilization) only affects the analytic network noise and
#: is deliberately excluded from the capture fingerprint, so one capture
#: serves every network condition of a grid.
GATEWAY_SCENARIO_FIELDS: Tuple[str, ...] = (
    "policy",
    "low_rate_pps",
    "high_rate_pps",
    "disturbance",
    "packet_size_bytes",
    "warmup_time",
)


def gateway_config_dict(scenario: ScenarioConfig) -> Dict[str, Any]:
    """The gateway-affecting subset of a scenario as JSON-able data.

    A new dict over the values of the scenario's shared
    :attr:`~repro.experiments.base.ScenarioConfig.fingerprint_dict` (so the
    policy's display name stays out); the nested values must not be mutated.
    """
    full = scenario.fingerprint_dict
    return {name: full[name] for name in GATEWAY_SCENARIO_FIELDS}


@dataclass(frozen=True)
class CaptureSpec:
    """One schedulable gateway capture: the parent of two-level sweep cells.

    Attributes
    ----------
    key:
        Display label (progress lines and failure reports only); excluded
        from the fingerprint.
    scenario:
        The padded-link scenario.  Only the gateway-affecting fields enter
        the fingerprint (see :data:`GATEWAY_SCENARIO_FIELDS`).
    n_intervals:
        Gateway intervals captured per payload rate and seed offset.  Child
        cells may consume any prefix, so a larger capture serves smaller
        children.
    seed:
        Master random seed, shared with the child cells.
    seed_offsets:
        Stream-name tags for the training and test captures.
    """

    key: str
    scenario: ScenarioConfig
    n_intervals: int
    seed: int = 2003
    seed_offsets: Tuple[str, str] = ("train", "test")

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key:
            raise ConfigurationError(f"capture key={self.key!r} must be a non-empty string")
        object.__setattr__(self, "seed_offsets", tuple(str(o) for o in self.seed_offsets))
        if self.n_intervals < 3:
            raise ConfigurationError(
                f"n_intervals={self.n_intervals!r} must be >= 3 (children need n+1)"
            )
        if len(self.seed_offsets) != 2 or self.seed_offsets[0] == self.seed_offsets[1]:
            raise ConfigurationError(
                f"seed_offsets={self.seed_offsets!r} must be two distinct tags"
            )

    def config_dict(self) -> Dict[str, Any]:
        """The result-affecting configuration as plain JSON-able data."""
        from repro.runner.cells import SCHEMA_VERSION

        return {
            "schema": SCHEMA_VERSION,
            "kind": "gateway-capture",
            "scenario": gateway_config_dict(self.scenario),
            "n_intervals": self.n_intervals,
            "seed": self.seed,
            "seed_offsets": list(self.seed_offsets),
        }

    def fingerprint(self) -> str:
        """Content hash of :meth:`config_dict`; the capture's sharing key.

        Hashed once per instance (every field is frozen) and kept in ``__dict__``.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_payload(self.config_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass
class CaptureResult:
    """The gateway intervals produced by one executed :class:`CaptureSpec`.

    ``intervals`` maps seed offset → class label → gateway-egress PIATs.
    Held in memory only, from the first child that needs it to the last.
    """

    key: str
    fingerprint: str
    intervals: Dict[str, Dict[str, np.ndarray]]
    elapsed_seconds: float = 0.0


def run_capture(spec: CaptureSpec) -> CaptureResult:
    """Execute one gateway capture: the expensive half of a two-level cell.

    Pure function of the spec's fields, exactly like
    :func:`repro.runner.cells.run_cell` — which is what makes the capture
    shareable across cells and workers.
    """
    start = time.perf_counter()
    streams = RandomStreams(seed=spec.seed)
    intervals: Dict[str, Dict[str, np.ndarray]] = {}
    for offset in spec.seed_offsets:
        intervals[offset] = {}
        for label, rate in spec.scenario.rate_labels.items():
            intervals[offset][label] = simulate_gateway_capture(
                spec.scenario,
                rate,
                spec.n_intervals,
                streams,
                label=f"{offset}-{label}",
                with_network=False,
            )
    return CaptureResult(
        key=spec.key,
        fingerprint=spec.fingerprint(),
        intervals=intervals,
        elapsed_seconds=time.perf_counter() - start,
    )


def hybrid_captures_from_gateway(
    scenario: ScenarioConfig,
    n_intervals_per_class: int,
    seed: int,
    seed_offsets: Tuple[str, str],
    capture: CaptureResult,
    noise_offsets: Optional[Tuple[str, str]] = None,
) -> Dict[str, PaddedStreamCapture]:
    """Apply per-scenario analytic network noise to a shared gateway capture.

    Returns one :class:`PaddedStreamCapture` per seed offset.  Bit-identical
    to running :func:`repro.experiments.base.collect_labelled_intervals` in
    hybrid mode with the same ``(scenario, seed, seed_offset,
    noise_offset)``: the gateway intervals are the same simulation output,
    and the noise generator is the same named stream
    (``net-noise-<tag>-<label>``) of the same master seed.  ``noise_offsets``
    salts the noise streams independently of the gateway streams — grid
    points sharing one capture use a per-point salt so their network noise
    stays statistically independent.
    """
    noise_tags = noise_offsets if noise_offsets is not None else seed_offsets
    streams = RandomStreams(seed=seed)
    captures: Dict[str, PaddedStreamCapture] = {}
    for offset, noise_tag in zip(seed_offsets, noise_tags):
        if offset not in capture.intervals:
            raise ConfigurationError(
                f"gateway capture {capture.key!r} holds offsets "
                f"{sorted(capture.intervals)}, not {offset!r}"
            )
        per_label: Dict[str, np.ndarray] = {}
        for label in scenario.rate_labels:
            gateway = capture.intervals[offset].get(label)
            if gateway is None:
                raise ConfigurationError(
                    f"gateway capture {capture.key!r} has no class {label!r}"
                )
            if gateway.size < n_intervals_per_class + 1:
                raise ConfigurationError(
                    f"gateway capture {capture.key!r} holds {gateway.size} intervals; "
                    f"a child needs {n_intervals_per_class + 1}"
                )
            noisy = apply_analytic_network_noise(
                gateway[: n_intervals_per_class + 1],
                scenario,
                streams.get(f"net-noise-{noise_tag}-{label}"),
            )
            per_label[label] = noisy[:n_intervals_per_class]
        captures[offset] = PaddedStreamCapture(
            scenario=scenario, mode=CollectionMode.HYBRID, intervals=per_label
        )
    return captures


__all__ = [
    "GATEWAY_SCENARIO_FIELDS",
    "CaptureSpec",
    "CaptureResult",
    "gateway_config_dict",
    "hybrid_captures_from_gateway",
    "run_capture",
]

"""Shared machinery for the figure experiments.

The central primitive is :func:`collect_labelled_intervals`: given a padding
policy, the two (or more) candidate payload rates and a description of the
unprotected path, produce one long labelled PIAT capture per payload rate —
the raw material for both off-line training and run-time classification.

Three collection modes trade fidelity against run time:

``simulation``
    The full testbed: Poisson payload source → sender gateway (timer +
    interrupt disturbance) → chain of FIFO routers with cross traffic → tap.
    This is the closest analogue of the paper's testbed.  The vectorized
    kernel computes it byte-identically to the event-driven reference (see
    :func:`simulate_gateway_capture`).

``hybrid``
    The gateway capture comes from the same kernel (so the payload-dependent
    jitter is mechanistic, not assumed), but the network is applied
    analytically: each captured packet receives an independent queueing
    delay drawn from a normal distribution whose variance comes from the
    M/D/1 model of :mod:`repro.network.delay_models`.  Grids that evaluate
    one gateway under many network conditions (Figure 8's hours, the tap
    ablation's hop counts) share one gateway capture across their points in
    this mode.  It keeps the path's ``sigma_net^2`` but not the shape of the
    queueing delay, and the independent delays can reorder packets, which a
    FIFO path never does.

``analytic``
    PIATs are drawn directly from the calibrated Gaussian model
    (:class:`repro.core.model.GaussianPIATModel`).  Fastest; used in unit
    tests and quick what-if runs.

A note on the payload process: the experiments drive the gateway with
**Poisson** payload at the configured rate rather than a perfectly periodic
source.  A perfectly periodic payload whose period is an exact multiple of
the padding timer's period can phase-lock with the timer, in which case the
NIC interrupts always fall just after the padding interrupt and never delay
it — an artefact of idealised simulation that does not survive contact with
real clocks.  Poisson arrivals match the independence assumption of the
analytical model and of the paper's testbed traffic generator.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import GaussianPIATModel
from repro.exceptions import ConfigurationError
from repro.network.delay_models import path_piat_variance
from repro.network.topology import HOP_PROPAGATION_DELAY_S, cross_traffic_rate_for_utilization
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import PaddingPolicy, cit_policy
from repro.sim.kernel import simulate_padded_capture, tandem_fifo_exit_times
from repro.sim.random import RandomStreams
from repro.units import (
    PAPER_HIGH_RATE_PPS,
    PAPER_LOW_RATE_PPS,
    PAPER_PACKET_SIZE_BYTES,
    serialization_delay,
)


def resolve_seeds(default_seed, seeds=None):
    """Normalise an experiment's ``seeds`` argument to a tuple of ints.

    ``None`` (or an empty sequence) keeps the historical single-seed
    behaviour: the experiment runs at its configured master seed, cell keys
    stay bare, and reports are byte-identical to the one-seed-per-cell
    layout.  A sequence of two or more seeds switches the experiment to the
    multi-seed grid (``@seed=N`` cell keys, aggregated results).
    """
    if seeds is None:
        return (int(default_seed),)
    resolved = tuple(int(s) for s in seeds)
    if not resolved:
        return (int(default_seed),)
    if len(set(resolved)) != len(resolved):
        raise ConfigurationError(f"duplicate seeds in {resolved!r}")
    return resolved


class CollectionMode(str, enum.Enum):
    """How labelled PIAT captures are produced."""

    SIMULATION = "simulation"
    HYBRID = "hybrid"
    ANALYTIC = "analytic"


@dataclass(frozen=True)
class ScenarioConfig:
    """One padded-link scenario: policy, payload rates and tap environment.

    Attributes
    ----------
    policy:
        Padding policy at the sender gateway.
    low_rate_pps, high_rate_pps:
        The candidate payload rates the adversary must distinguish.
    disturbance:
        Gateway interrupt-disturbance model.
    n_hops:
        Number of routers between the gateway and the adversary's tap.
    link_rate_bps:
        Output-link rate of each router.
    cross_utilization:
        Total utilization (padded + cross) of each router's output link.
    packet_size_bytes:
        Constant packet size on the padded link.
    warmup_time:
        Simulated seconds discarded at the start of every capture.
    """

    policy: PaddingPolicy = field(default_factory=cit_policy)
    low_rate_pps: float = PAPER_LOW_RATE_PPS
    high_rate_pps: float = PAPER_HIGH_RATE_PPS
    disturbance: InterruptDisturbance = field(default_factory=InterruptDisturbance)
    n_hops: int = 0
    link_rate_bps: float = 80e6
    cross_utilization: float = 0.0
    packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES
    warmup_time: float = 2.0

    def __post_init__(self) -> None:
        if not self.low_rate_pps >= 0.0:
            raise ConfigurationError(f"low_rate_pps={self.low_rate_pps!r} must be >= 0")
        if not self.packet_size_bytes > 0:
            raise ConfigurationError(
                f"packet_size_bytes={self.packet_size_bytes!r} must be > 0"
            )
        if not self.link_rate_bps > 0.0:
            raise ConfigurationError(f"link_rate_bps={self.link_rate_bps!r} must be > 0")
        if self.high_rate_pps <= self.low_rate_pps:
            raise ConfigurationError(
                f"high_rate_pps={self.high_rate_pps!r} must exceed "
                f"low_rate_pps={self.low_rate_pps!r}"
            )
        if self.high_rate_pps > self.policy.padded_rate_pps:
            raise ConfigurationError(
                f"high_rate_pps={self.high_rate_pps!r} exceeds the padded rate "
                f"{self.policy.padded_rate_pps!r} pps of policy {self.policy.name!r} "
                f"(1/mean_interval must cover the highest payload rate)"
            )
        if self.n_hops < 0:
            raise ConfigurationError(f"n_hops={self.n_hops!r} must be >= 0")
        if not 0.0 <= self.cross_utilization < 1.0:
            raise ConfigurationError(
                f"cross_utilization={self.cross_utilization!r} must lie in [0, 1)"
            )
        if self.cross_utilization > 0.0 and self.n_hops == 0:
            raise ConfigurationError(
                f"cross_utilization={self.cross_utilization!r} > 0 requires at least "
                f"one router hop to carry the cross traffic, got n_hops={self.n_hops!r}"
            )
        if self.warmup_time < 0.0:
            raise ConfigurationError(f"warmup_time={self.warmup_time!r} must be >= 0")

    # ------------------------------------------------------------- utilities
    @cached_property
    def fingerprint_dict(self) -> Dict[str, Any]:
        """This scenario as JSON-able data, as cell and capture fingerprints embed it.

        ``dataclasses.asdict`` minus the policy's ``name``: a display label
        (report text only), kept out so that renaming a policy does not cold
        the cache.  Built once per instance (every field is frozen) and
        shared by every config dict that embeds it, so callers must never
        mutate it.
        """
        config = asdict(self)
        config["policy"].pop("name", None)
        return config

    @property
    def rate_labels(self) -> Dict[str, float]:
        """Mapping from class label to payload rate in pps."""
        return {"low": self.low_rate_pps, "high": self.high_rate_pps}

    @property
    def hop_service_time(self) -> float:
        """Per-hop serialisation time of one padded packet."""
        return self.packet_size_bytes * 8.0 / self.link_rate_bps

    def with_cross_utilization(self, utilization: float) -> "ScenarioConfig":
        """Copy of this scenario at a different shared-link utilization."""
        return replace(self, cross_utilization=utilization)

    def with_policy(self, policy: PaddingPolicy) -> "ScenarioConfig":
        """Copy of this scenario under a different padding policy."""
        return replace(self, policy=policy)

    def with_hops(
        self, n_hops: int, link_rate_bps: Optional[float] = None
    ) -> "ScenarioConfig":
        """Copy of this scenario with a different path length (and link rate)."""
        if link_rate_bps is None:
            return replace(self, n_hops=n_hops)
        return replace(self, n_hops=n_hops, link_rate_bps=link_rate_bps)

    def net_piat_variance(self) -> float:
        """Analytic ``sigma_net^2`` of the path between gateway and tap."""
        if self.n_hops == 0 or self.cross_utilization == 0.0:
            return 0.0
        return path_piat_variance(
            [self.cross_utilization] * self.n_hops,
            [self.hop_service_time] * self.n_hops,
            model="md1",
        )

    def gaussian_model(self) -> GaussianPIATModel:
        """The calibrated analytic PIAT model for this scenario."""
        return GaussianPIATModel.from_components(
            gw_variance_low=self.disturbance.piat_variance(self.low_rate_pps),
            gw_variance_high=self.disturbance.piat_variance(self.high_rate_pps),
            timer_variance=self.policy.timer_variance,
            net_variance=self.net_piat_variance(),
            tau=self.policy.mean_interval,
        )

    def variance_ratio(self) -> float:
        """The predicted ``r`` for this scenario."""
        return self.gaussian_model().variance_ratio


@dataclass
class PaddedStreamCapture:
    """Labelled PIAT captures plus the scenario they came from."""

    scenario: ScenarioConfig
    mode: CollectionMode
    intervals: Dict[str, np.ndarray]

    def measured_variance_ratio(self) -> float:
        """Empirical ``r`` from the captured intervals."""
        low = float(np.var(self.intervals["low"], ddof=1))
        high = float(np.var(self.intervals["high"], ddof=1))
        if low <= 0.0:
            raise ConfigurationError("low-rate capture has zero variance")
        return high / low

    def measured_means(self) -> Dict[str, float]:
        """Empirical PIAT means per class (should all equal ``tau``)."""
        return {label: float(np.mean(values)) for label, values in self.intervals.items()}


# --------------------------------------------------------------------------- collection
def _capture_horizon(
    scenario: ScenarioConfig, n_intervals: int, with_network: bool
) -> Tuple[float, int, float]:
    """``(duration, n_hops, cross_rate)`` of one capture, shared by both paths.

    ``cross_rate`` is the per-hop cross-traffic rate (pps) that loads each
    router to the scenario's utilization.
    """
    # Enough simulated time to capture warmup + the requested intervals, with
    # a small margin for the packets still in flight across the path.
    duration = scenario.warmup_time + (n_intervals + 20) * scenario.policy.mean_interval + 0.5
    n_hops = scenario.n_hops if with_network else 0
    cross_rate = 0.0
    if n_hops > 0 and scenario.cross_utilization != 0.0:
        cross_rate = cross_traffic_rate_for_utilization(
            scenario.cross_utilization,
            scenario.link_rate_bps,
            scenario.packet_size_bytes,
            padded_rate_pps=scenario.policy.padded_rate_pps,
        )
    return duration, n_hops, cross_rate


def _first_intervals(intervals: np.ndarray, n_intervals: int, label: str) -> np.ndarray:
    """The first ``n_intervals`` captured intervals, refused if there are fewer."""
    if intervals.size < n_intervals:
        raise ConfigurationError(
            f"capture for class {label!r} produced only {intervals.size} intervals; "
            f"{n_intervals} requested (increase the horizon margin)"
        )
    return intervals[:n_intervals]


def simulate_gateway_capture(
    scenario: ScenarioConfig,
    payload_rate_pps: float,
    n_intervals: int,
    streams: RandomStreams,
    label: str,
    with_network: bool,
) -> np.ndarray:
    """Simulate one payload rate's padded capture and return tap intervals.

    ``with_network`` sends the padded stream through the scenario's
    ``n_hops`` shared routers before the tap (simulation mode); without it
    the tap sits at the gateway's output (hybrid mode).  The capture runs
    through the vectorized closed-form kernel (:mod:`repro.sim.kernel`),
    which is byte-identical to the event-engine replay
    :func:`simulate_gateway_capture_events`.  The kernel covers the standard
    :class:`InterruptDisturbance` (or none); any other disturbance raises
    :class:`ConfigurationError`, and only the reference replays it.
    """
    duration, n_hops, cross_rate = _capture_horizon(scenario, n_intervals, with_network)
    disturbance = scenario.disturbance
    if disturbance is not None and type(disturbance) is not InterruptDisturbance:
        raise ConfigurationError(
            f"the capture kernel covers InterruptDisturbance only, not "
            f"{type(disturbance).__name__}; the event reference "
            f"simulate_gateway_capture_events replays it"
        )
    stamps = simulate_padded_capture(
        interval_generator=scenario.policy.make_timer(),
        payload_rate_pps=payload_rate_pps,
        duration=duration,
        timer_rng=streams.get(f"gateway-{label}"),
        payload_rng=streams.get(f"payload-{label}"),
        jitter_rng=streams.get(f"gateway-jitter-{label}"),
        blocking_rng=streams.get(f"gateway-blocking-{label}"),
        base_jitter_std=disturbance.base_jitter_std if disturbance else 0.0,
        blocking_window=disturbance.blocking_window if disturbance else 0.0,
        blocking_delay_mean=disturbance.blocking_delay_mean if disturbance else 0.0,
    )
    if n_hops > 0:
        stamps = tandem_fifo_exit_times(
            stamps,
            cross_rngs=[streams.get(f"cross-{label}-hop{hop}") for hop in range(n_hops)],
            cross_rate_pps=cross_rate,
            service_time=float(
                serialization_delay(scenario.packet_size_bytes, scenario.link_rate_bps)
            ),
            propagation_delay=HOP_PROPAGATION_DELAY_S,
            horizon=duration,
        )
    stamps = stamps[stamps >= scenario.warmup_time]
    intervals = np.diff(stamps) if stamps.size >= 2 else np.empty(0, dtype=float)
    return _first_intervals(intervals, n_intervals, label)


def simulate_gateway_capture_events(
    scenario: ScenarioConfig,
    payload_rate_pps: float,
    n_intervals: int,
    streams: RandomStreams,
    label: str,
    with_network: bool,
) -> np.ndarray:
    """The event-engine replay of :func:`simulate_gateway_capture` (the reference).

    Same arguments, same streams, same intervals to the bit; the equivalence
    tests and ``repro bench`` call it by name.  It also accepts a disturbance
    subclass the kernel refuses.  Its modules are imported here, so nothing
    else loads the event engine.
    """
    from repro.adversary.tap import Tap
    from repro.network.path import UnprotectedPath
    from repro.padding.gateway import SenderGateway
    from repro.sim.engine import Simulator
    from repro.traffic.sources import PoissonSource

    duration, n_hops, cross_rate = _capture_horizon(scenario, n_intervals, with_network)
    simulator = Simulator()
    tap = Tap(simulator, name=f"tap-{label}")

    if n_hops > 0:
        path = UnprotectedPath(
            simulator,
            exit_sink=tap.observe,
            n_hops=n_hops,
            link_rate_bps=scenario.link_rate_bps,
            propagation_delay=HOP_PROPAGATION_DELAY_S,
            packet_size_bytes=scenario.packet_size_bytes,
            name=f"path-{label}",
        )
        if cross_rate > 0.0:
            for hop in range(n_hops):
                path.attach_cross_traffic(
                    hop, cross_rate, rng=streams.get(f"cross-{label}-hop{hop}")
                )
            path.start_cross_traffic()
        gateway_output = path.entry
    else:
        gateway_output = tap.observe

    gateway = SenderGateway(
        simulator,
        interval_generator=scenario.policy.make_timer(),
        output=gateway_output,
        rng=streams.get(f"gateway-{label}"),
        jitter_rng=streams.get(f"gateway-jitter-{label}"),
        blocking_rng=streams.get(f"gateway-blocking-{label}"),
        disturbance=scenario.disturbance,
        dummy_size_bytes=scenario.packet_size_bytes,
    )
    source = PoissonSource(
        simulator,
        gateway.accept_payload,
        rate=payload_rate_pps,
        rng=streams.get(f"payload-{label}"),
        packet_size_bytes=scenario.packet_size_bytes,
    )
    gateway.start()
    source.start()
    simulator.run(until=duration)
    gateway.stop()
    source.stop()
    return _first_intervals(tap.intervals(since=scenario.warmup_time), n_intervals, label)


def apply_analytic_network_noise(
    intervals: np.ndarray, scenario: ScenarioConfig, rng: np.random.Generator
) -> np.ndarray:
    """Add per-packet M/D/1 queueing delays to a gateway-egress capture.

    Each packet's path delay is independent; the PIAT perturbation is the
    difference of consecutive delays, which reproduces the ``2 Var(W)`` PIAT
    variance of the analytic model.
    """
    net_variance = scenario.net_piat_variance()
    if net_variance == 0.0:
        return intervals
    # net_variance is the PIAT variance (2 Var(W)); per-packet delays need Var(W).
    per_packet_std = float(np.sqrt(net_variance / 2.0))
    timestamps = np.zeros(len(intervals) + 1)
    np.cumsum(intervals, out=timestamps[1:])
    # In place, the draws and bits of rng.normal(0.0, per_packet_std, size).
    delays = rng.standard_normal(timestamps.size)
    timestamps += np.multiply(delays, per_packet_std, out=delays)
    timestamps.sort(kind="stable")  # nearly sorted: long merge runs
    return np.diff(timestamps)


def collect_labelled_intervals(
    scenario: ScenarioConfig,
    n_intervals_per_class: int,
    mode: CollectionMode = CollectionMode.SIMULATION,
    seed: int = 0,
    seed_offset: str = "train",
    noise_offset: Optional[str] = None,
) -> PaddedStreamCapture:
    """Produce one labelled PIAT capture per payload rate.

    Parameters
    ----------
    scenario:
        The padded-link scenario.
    n_intervals_per_class:
        Length of each class's capture.
    mode:
        Collection mode (see module docstring).
    seed:
        Master seed; the same seed and scenario give identical captures.
    seed_offset:
        Extra tag mixed into the stream names so that training and test
        captures of one experiment are independent ("train" / "test").
    noise_offset:
        Optional tag for the hybrid mode's network-noise streams, when they
        must be salted differently from the gateway streams — e.g. grid
        points that share one gateway capture but need statistically
        independent per-point noise.  Defaults to ``seed_offset``.
    """
    if n_intervals_per_class < 2:
        raise ConfigurationError(
            f"n_intervals_per_class={n_intervals_per_class!r} must be >= 2"
        )
    try:
        mode = CollectionMode(mode)
    except ValueError:
        valid = ", ".join(repr(m.value) for m in CollectionMode)
        raise ConfigurationError(
            f"mode={mode!r} is not a collection mode; choose one of {valid}"
        ) from None
    streams = RandomStreams(seed=seed)
    intervals: Dict[str, np.ndarray] = {}
    if mode is CollectionMode.ANALYTIC:
        model = scenario.gaussian_model()
        for label in scenario.rate_labels:
            rng = streams.get(f"analytic-{seed_offset}-{label}")
            intervals[label] = model.sample_intervals(label, n_intervals_per_class, rng=rng)
    elif mode is CollectionMode.SIMULATION:
        for label, rate in scenario.rate_labels.items():
            intervals[label] = simulate_gateway_capture(
                scenario,
                rate,
                n_intervals_per_class,
                streams,
                label=f"{seed_offset}-{label}",
                with_network=True,
            )
    else:  # HYBRID
        noise_tag = noise_offset if noise_offset is not None else seed_offset
        for label, rate in scenario.rate_labels.items():
            gateway_intervals = simulate_gateway_capture(
                scenario,
                rate,
                n_intervals_per_class + 1,
                streams,
                label=f"{seed_offset}-{label}",
                with_network=False,
            )
            noisy = apply_analytic_network_noise(
                gateway_intervals, scenario, streams.get(f"net-noise-{noise_tag}-{label}")
            )
            intervals[label] = noisy[:n_intervals_per_class]
    return PaddedStreamCapture(scenario=scenario, mode=mode, intervals=intervals)


def multiclass_rate_labels(rate_classes: "Sequence[float]") -> Dict[str, float]:
    """Mapping from class label to payload rate for an arbitrary rate mix.

    Labels are the ``%g``-formatted rates (``2``, ``5.5``, ``10``) — compact,
    unambiguous, and numerically sortable by
    :func:`repro.adversary.multiclass.sorted_labels`.
    """
    labels = {f"{float(rate):g}": float(rate) for rate in rate_classes}
    if len(labels) != len(tuple(rate_classes)):
        raise ConfigurationError(
            f"rate_classes={tuple(rate_classes)!r} contain rates that collide "
            f"under the %g label format"
        )
    return labels


def collect_multiclass_intervals(
    scenario: ScenarioConfig,
    rate_classes: "Sequence[float]",
    n_intervals_per_class: int,
    seed: int = 0,
    seed_offset: str = "train",
) -> PaddedStreamCapture:
    """Analytic labelled captures for an arbitrary number of payload rates.

    The Section 6 extension of :func:`collect_labelled_intervals`: one
    Gaussian PIAT capture per rate class, with the per-class variance built
    from the same components the calibrated two-rate model uses —
    ``sigma_r^2 = timer variance + gateway disturbance variance at rate r +
    analytic network variance``.  Streams are named exactly like the binary
    analytic mode (``analytic-<offset>-<label>``), so a three-class capture
    whose extreme rates match a binary scenario draws the extreme classes
    from *different* streams only via their labels, never via call order.
    """
    if n_intervals_per_class < 2:
        raise ConfigurationError(
            f"n_intervals_per_class={n_intervals_per_class!r} must be >= 2"
        )
    labels = multiclass_rate_labels(rate_classes)
    streams = RandomStreams(seed=seed)
    tau = scenario.policy.mean_interval
    base_variance = scenario.policy.timer_variance + scenario.net_piat_variance()
    intervals: Dict[str, np.ndarray] = {}
    for label, rate in labels.items():
        sigma = float(np.sqrt(base_variance + scenario.disturbance.piat_variance(rate)))
        rng = streams.get(f"analytic-{seed_offset}-{label}")
        draws = rng.normal(tau, sigma, size=n_intervals_per_class)
        # PIATs are strictly positive; clip exactly like GaussianPIATModel.
        intervals[label] = np.maximum(draws, 1e-9)
    return PaddedStreamCapture(
        scenario=scenario, mode=CollectionMode.ANALYTIC, intervals=intervals
    )


__all__ = [
    "CollectionMode",
    "resolve_seeds",
    "simulate_gateway_capture",
    "simulate_gateway_capture_events",
    "ScenarioConfig",
    "PaddedStreamCapture",
    "collect_labelled_intervals",
    "collect_multiclass_intervals",
    "multiclass_rate_labels",
    "apply_analytic_network_noise",
]

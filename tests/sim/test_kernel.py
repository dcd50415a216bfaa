"""Equivalence and contract tests for the vectorized capture kernel.

The load-bearing guarantee of :mod:`repro.sim.kernel` is *byte-identity*: for
every scenario it covers the closed-form capture must equal the event-engine
capture exactly, not approximately, because cached sweep results are
fingerprinted on configuration and silently switching kernels must never
change a figure.  These tests pin that guarantee across every timer family,
the disturbance on/off matrix, routed paths (hop count x utilization), a
property over random scenarios, the FIFO primitive's sequential fallback,
the kernel-selection plumbing, and the constants the kernel mirrors from the
gateway and source modules.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments import base as base_module
from repro.experiments.base import (
    KERNEL_ENV_VAR,
    KERNEL_MODES,
    ScenarioConfig,
    resolve_kernel_mode,
    simulate_gateway_capture,
)
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.gateway import _MIN_TX_SPACING_S
from repro.padding.policies import cit_policy, vit_policy
from repro.sim import kernel
from repro.sim.random import RandomStreams


def _capture(
    scenario: ScenarioConfig,
    kernel_mode: str,
    n: int = 800,
    seed: int = 42,
    with_network: bool = False,
):
    streams = RandomStreams(seed)
    return {
        label: simulate_gateway_capture(
            scenario, rate, n, streams, label, with_network=with_network, kernel=kernel_mode
        )
        for label, rate in scenario.rate_labels.items()
    }


class _CustomDisturbance(InterruptDisturbance):
    """A disturbance subclass: outside the kernel's proof, event engine only."""


def _scalar_departures(arrivals, service):
    """The router's FIFO recursion, one packet at a time."""
    departures, last = [], float("-inf")
    for arrival in arrivals:
        last = max(arrival, last) + service
        departures.append(last)
    return np.array(departures, dtype=float)


class TestByteIdentity:
    """vectorized == event, bit for bit, for every gateway configuration."""

    @pytest.mark.parametrize(
        "policy",
        [
            cit_policy(),
            vit_policy(sigma_t=1e-3),
            vit_policy(sigma_t=1e-3, family="uniform"),
            vit_policy(sigma_t=1e-3, family="exponential"),
            vit_policy(sigma_t=1e-3, family="lognormal"),
        ],
        ids=["cit", "vit-normal", "vit-uniform", "vit-exponential", "vit-lognormal"],
    )
    def test_every_timer_family_matches(self, policy):
        scenario = ScenarioConfig(policy=policy)
        event = _capture(scenario, "event")
        vectorized = _capture(scenario, "vectorized")
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label]), label

    def test_disturbance_free_gateway_matches(self):
        scenario = ScenarioConfig(disturbance=None)
        event = _capture(scenario, "event")
        vectorized = _capture(scenario, "vectorized")
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label])

    @pytest.mark.parametrize("rate", [10.0, 20.0, 40.0, 80.0])
    def test_every_rate_under_the_padded_rate_matches(self, rate):
        """The multi-rate example's rates: one gateway capture each, kernel == event."""
        scenario = ScenarioConfig(low_rate_pps=10.0, high_rate_pps=80.0)
        captures = [
            simulate_gateway_capture(
                scenario, rate, 400, RandomStreams(99), f"{rate:.0f}pps",
                with_network=False, kernel=kernel_mode,
            )
            for kernel_mode in ("event", "vectorized")
        ]
        assert np.array_equal(captures[0], captures[1])

    def test_extreme_vit_exercises_the_spacing_clamp(self):
        """sigma_T near the mean makes tiny interval draws: the clamp fires."""
        scenario = ScenarioConfig(policy=vit_policy(sigma_t=9e-3))
        event = _capture(scenario, "event", n=600)
        vectorized = _capture(scenario, "vectorized", n=600)
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label])


class TestRoutedByteIdentity:
    """Routed SIMULATION captures: tandem-FIFO kernel == event engine, bit for bit."""

    @pytest.mark.parametrize("n_hops", [1, 2, 3])
    @pytest.mark.parametrize("utilization", [0.0, 0.05, 0.2, 0.5])
    @pytest.mark.parametrize(
        "policy", [cit_policy(), vit_policy(sigma_t=1e-3)], ids=["cit", "vit-normal"]
    )
    @pytest.mark.parametrize(
        "disturbance", [InterruptDisturbance(), None], ids=["disturbed", "quiet"]
    )
    def test_routed_capture_matches_the_event_engine(
        self, n_hops, utilization, policy, disturbance
    ):
        # 20 Mbit/s links keep the event engine's cross-packet count small;
        # utilization 0 leaves routers that carry only the padded stream.
        scenario = ScenarioConfig(
            policy=policy,
            disturbance=disturbance,
            n_hops=n_hops,
            link_rate_bps=20e6,
            cross_utilization=utilization,
            warmup_time=0.5,
        )
        event = _capture(scenario, "event", n=200, seed=7, with_network=True)
        vectorized = _capture(scenario, "vectorized", n=200, seed=7, with_network=True)
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label]), label

    def test_hybrid_capture_ignores_the_routers(self):
        """Without the network, a routed scenario is the zero-hop capture."""
        routed = ScenarioConfig(n_hops=2, cross_utilization=0.3)
        bare = ScenarioConfig()
        for mode in ("event", "vectorized"):
            with_hops = _capture(routed, mode, n=200)
            without = _capture(bare, mode, n=200)
            for label in ("low", "high"):
                assert np.array_equal(with_hops[label], without[label])


_VIT_FAMILIES = ("normal", "uniform", "exponential", "lognormal")


@st.composite
def _routed_scenarios(draw):
    """Random scenarios over every timer family, disturbance and path shape.

    Utilization is 0 or at least 0.05: below about 0.02 the padded stream
    alone over-loads a 20 Mbit/s link and the scenario is refused.
    """
    family = draw(st.sampled_from(("cit",) + _VIT_FAMILIES))
    if family == "cit":
        policy = cit_policy()
    else:
        sigma_t = draw(st.floats(min_value=1e-4, max_value=5e-3))
        policy = vit_policy(sigma_t=sigma_t, family=family)
    n_hops = draw(st.integers(min_value=0, max_value=3))
    utilization = 0.0
    if n_hops > 0:
        utilization = draw(st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.5)))
    return ScenarioConfig(
        policy=policy,
        disturbance=draw(st.sampled_from((InterruptDisturbance(), None))),
        n_hops=n_hops,
        link_rate_bps=20e6,
        cross_utilization=utilization,
        warmup_time=0.5,
    )


class TestKernelMatchesTheEventEngine:
    """The property that lets the runtime take the kernel with no fallback."""

    @settings(max_examples=30, deadline=None)
    @given(
        scenario=_routed_scenarios(),
        n=st.integers(min_value=20, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        with_network=st.booleans(),
    )
    def test_random_scenarios_are_bit_identical(self, scenario, n, seed, with_network):
        event = _capture(scenario, "event", n=n, seed=seed, with_network=with_network)
        vectorized = _capture(scenario, "vectorized", n=n, seed=seed, with_network=with_network)
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label]), label


class TestFifoDepartures:
    def test_exact_ties_force_the_sequential_fallback(self, monkeypatch):
        service = 0.1
        # Packet 1 arrives exactly as packet 0 departs (A_n == D_{n-1});
        # packet 8 arrives one ulp after the chained departure 0.7999999999999999,
        # which the real-arithmetic guess reads as "still busy".
        arrivals = np.array([0.0] + [0.1] * 7 + [0.8, 0.8, 1.0])
        reference = _scalar_departures(arrivals, service)
        assert arrivals[1] == reference[0]
        assert arrivals[8] == np.nextafter(reference[7], np.inf)
        assert arrivals[10] == reference[9]

        fallbacks = []
        sequential = kernel._sequential_departures

        def spy(*args):
            fallbacks.append(args[-1])
            return sequential(*args)

        monkeypatch.setattr(kernel, "_sequential_departures", spy)
        departures = kernel.fifo_departures(arrivals, service)
        assert fallbacks == [8]
        assert np.array_equal(departures, reference)

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.integers(min_value=0, max_value=4).map(float),
            ),
            max_size=120,
        ),
        service=st.one_of(
            st.floats(min_value=1e-6, max_value=2.0, allow_nan=False),
            st.sampled_from([0.1, 0.25, 1.0]),
        ),
    )
    def test_matches_the_scalar_lindley_loop(self, gaps, service):
        # Cumulative sums of mixed real/integer gaps give sorted arrivals
        # with plenty of exact ties against multiples of the service time.
        arrivals = np.cumsum(np.array(gaps, dtype=float))
        departures = kernel.fifo_departures(arrivals, service)
        assert np.array_equal(departures, _scalar_departures(arrivals.tolist(), service))

    def test_rejects_a_non_positive_service_time(self):
        with pytest.raises(SimulationError):
            kernel.fifo_departures(np.array([0.0, 1.0]), 0.0)

    def test_zero_hops_leave_the_stream_untouched(self):
        times = np.array([0.1, 0.2, 0.3])
        exit_times = kernel.tandem_fifo_exit_times(
            times,
            cross_rngs=[],
            cross_rate_pps=100.0,
            service_time=1e-3,
            propagation_delay=1e-3,
            horizon=1.0,
        )
        assert np.array_equal(exit_times, times)


class TestKernelSelection:
    def test_resolve_prefers_argument_over_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "event")
        assert resolve_kernel_mode("vectorized") == "vectorized"
        assert resolve_kernel_mode() == "event"
        monkeypatch.delenv(KERNEL_ENV_VAR)
        assert resolve_kernel_mode() == "vectorized"

    def test_only_the_kernel_and_its_reference_are_modes(self):
        assert KERNEL_MODES == ("vectorized", "event")

    @pytest.mark.parametrize("mode", ["turbo", "auto"])
    def test_resolve_rejects_unknown_modes(self, mode, monkeypatch):
        with pytest.raises(ConfigurationError, match=KERNEL_ENV_VAR):
            resolve_kernel_mode(mode)
        monkeypatch.setenv(KERNEL_ENV_VAR, mode)
        with pytest.raises(ConfigurationError, match=KERNEL_ENV_VAR):
            resolve_kernel_mode()

    @pytest.mark.parametrize(
        "n_hops, utilization, with_network",
        [(0, 0.0, False), (2, 0.2, True)],
        ids=["gateway", "routed"],
    )
    def test_kernel_refuses_a_disturbance_subclass(
        self, n_hops, utilization, with_network, monkeypatch
    ):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        scenario = ScenarioConfig(
            n_hops=n_hops, cross_utilization=utilization, disturbance=_CustomDisturbance()
        )
        for kernel_mode in (None, "vectorized"):
            with pytest.raises(ConfigurationError) as excinfo:
                simulate_gateway_capture(
                    scenario, 10.0, 50, RandomStreams(1), "low",
                    with_network=with_network, kernel=kernel_mode,
                )
            assert "_CustomDisturbance" in str(excinfo.value)
            assert f"{KERNEL_ENV_VAR}=event" in str(excinfo.value)

    def test_event_reference_accepts_a_disturbance_subclass(self, monkeypatch):
        scenario = ScenarioConfig(
            n_hops=1, cross_utilization=0.1, disturbance=_CustomDisturbance()
        )

        def forbidden(**kwargs):
            raise AssertionError("the event reference reached the vectorized kernel")

        monkeypatch.setattr(base_module, "simulate_padded_capture", forbidden)
        intervals = simulate_gateway_capture(
            scenario, 10.0, 50, RandomStreams(1), "low", with_network=True, kernel="event"
        )
        assert intervals.shape == (50,)
        monkeypatch.setenv(KERNEL_ENV_VAR, "event")
        from_env = simulate_gateway_capture(
            scenario, 10.0, 50, RandomStreams(1), "low", with_network=True
        )
        assert np.array_equal(from_env, intervals)


class TestMirroredConstants:
    """The kernel duplicates two constants to avoid upward imports; pin them."""

    def test_min_tx_spacing_matches_the_gateway(self):
        assert kernel.MIN_TX_SPACING_S == _MIN_TX_SPACING_S

    def test_min_payload_gap_matches_the_source(self):
        from repro.sim.engine import Simulator
        from repro.traffic.sources import PoissonSource

        # The source floors every gap at its minimum; the kernel must use the
        # same floor.  Exercise the floor with a huge rate, where raw
        # exponential draws routinely undercut any fixed epsilon.
        source = PoissonSource(
            Simulator(), lambda p: None, 1e15, rng=np.random.default_rng(0)
        )
        gaps = [source._next_interval() for _ in range(2000)]
        assert min(gaps) == kernel.MIN_PAYLOAD_GAP_S


class TestKernelPrimitives:
    def test_blocking_counts_windows_do_not_double_count(self):
        arrivals = np.array([0.5, 1.1, 1.9, 2.05, 2.9])
        due = np.array([1.0, 2.0, 3.0])
        # Window covers [due-0.15, due]; arrivals before the previous due
        # time are excluded even when the window would reach back to them.
        counts = kernel.blocking_counts(arrivals, due, window=0.15)
        assert counts.tolist() == [0, 1, 1]
        # A huge window never re-counts across interrupts.
        assert kernel.blocking_counts(arrivals, due, window=10.0).tolist() == [1, 2, 2]

    def test_clamp_is_identity_for_well_spaced_times(self):
        times = np.array([0.0, 1.0, 2.0])
        assert kernel.clamp_min_spacing(times) is times

    def test_clamp_fixes_violations_sequentially(self):
        times = np.array([0.0, 1.0, 1.0, 1.0])
        clamped = kernel.clamp_min_spacing(times, spacing=0.5)
        assert clamped.tolist() == [0.0, 1.0, 1.5, 2.0]
        assert times.tolist() == [0.0, 1.0, 1.0, 1.0]  # input untouched

    def test_poisson_rate_zero_yields_no_arrivals(self):
        rng = np.random.default_rng(0)
        assert kernel.poisson_arrival_times(rng, 0.0, 100.0).size == 0

    def test_capture_requires_jitter_stream_when_jitter_enabled(self):
        with pytest.raises(SimulationError):
            kernel.simulate_padded_capture(
                interval_generator=cit_policy().make_timer(),
                payload_rate_pps=10.0,
                duration=1.0,
                timer_rng=np.random.default_rng(0),
                payload_rng=np.random.default_rng(1),
                base_jitter_std=1e-5,
            )


class TestSampleBatchContract:
    """sample_batch(rng, n) must equal n scalar sample() calls, bit for bit."""

    @pytest.mark.parametrize(
        "policy",
        [
            cit_policy(),
            vit_policy(sigma_t=1e-3),
            vit_policy(sigma_t=1e-3, family="uniform"),
            vit_policy(sigma_t=1e-3, family="exponential"),
            vit_policy(sigma_t=1e-3, family="lognormal"),
        ],
        ids=["cit", "normal", "uniform", "exponential", "lognormal"],
    )
    def test_batch_equals_scalar_stream(self, policy):
        generator = policy.make_timer()
        batch = generator.sample_batch(np.random.default_rng(7), 500)
        scalar_rng = np.random.default_rng(7)
        scalars = np.array([generator.sample(scalar_rng) for _ in range(500)])
        assert np.array_equal(batch, scalars)


def _event_times_oracle(draw_chunk, horizon, expected_count):
    """The straightforward formulation of ``kernel._event_times_until``:
    re-sum every draw after each top-up and cut with a boolean mask."""
    chunk = max(256, int(expected_count * 1.05) + 16)
    chunks = [draw_chunk(chunk)]
    approx_total = float(np.sum(chunks[-1]))
    while approx_total <= horizon:
        chunks.append(draw_chunk(chunk))
        approx_total += float(np.sum(chunks[-1]))
    times = np.cumsum(np.concatenate(chunks))
    while times.size and times[-1] <= horizon:
        chunks.append(draw_chunk(chunk))
        times = np.cumsum(np.concatenate(chunks))
    return times[times <= horizon]


class TestEventTimesUntil:
    """The chunked event-time sums equal the straightforward oracle bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.5, max_value=5000.0),
        horizon=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_poisson_arrivals_match_the_oracle(self, seed, rate, horizon):
        rng = np.random.default_rng(seed)
        times = kernel.poisson_arrival_times(rng, rate, horizon)
        oracle_rng = np.random.default_rng(seed)
        expected = _event_times_oracle(
            lambda size: np.maximum(
                oracle_rng.exponential(1.0 / rate, size=size), kernel.MIN_PAYLOAD_GAP_S
            ),
            horizon,
            int(horizon * rate) + 1,
        )
        assert times.dtype == expected.dtype
        assert np.array_equal(times, expected)
        # Same number of draws taken: the stream continues identically.
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        horizon=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_timer_due_times_match_the_oracle(self, seed, horizon):
        generator = vit_policy(sigma_t=1e-3).make_timer()
        rng = np.random.default_rng(seed)
        times = kernel.timer_due_times(generator, rng, horizon)
        oracle_rng = np.random.default_rng(seed)
        expected = _event_times_oracle(
            lambda size: generator.sample_batch(oracle_rng, size),
            horizon,
            int(horizon / generator.mean) + 1,
        )
        assert np.array_equal(times, expected)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_top_up_continues_the_sequential_sum(self, seed):
        # The first chunk's pairwise sum lands above its sequential total,
        # and the horizon lies between the two: the guard stops after one
        # chunk, yet the last exact time is inside the horizon, so the
        # top-up branch must run.  Its draws are about one ulp each, so some of
        # the topped-up times fall inside the horizon and their rounding
        # shows whether the sum continued in sequential order.
        first = np.random.default_rng(seed).exponential(1e-3, size=256)
        total = float(np.cumsum(first)[-1])
        horizon = float(np.nextafter(np.sum(first), -np.inf))
        assume(horizon > total)
        ulp = float(np.spacing(total))

        def chunks(calls):
            rng = np.random.default_rng(seed)

            def draw(size):
                calls.append(size)
                if len(calls) == 1:
                    return rng.exponential(1e-3, size=size)
                return rng.uniform(0.55, 1.0, size=size) * ulp

            return draw

        calls, oracle_calls = [], []
        times = kernel._event_times_until(chunks(calls), horizon, 0)
        expected = _event_times_oracle(chunks(oracle_calls), horizon, 0)
        assert len(calls) == len(oracle_calls) >= 2
        assert times.size > first.size
        assert np.array_equal(times, expected)

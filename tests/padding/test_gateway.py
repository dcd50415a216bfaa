"""Tests for the sender gateway (queue + padding timer + dummy injection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.detection import evaluate_attack
from repro.adversary.features import MeanFeature
from repro.adversary.tap import Tap
from repro.exceptions import PaddingError
from repro.network.link import CountingSink
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.gateway import AdaptiveMaskingGateway, SenderGateway
from repro.padding.timer import ConstantInterval, NormalInterval
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.packet import PacketKind
from repro.traffic.sources import CBRSource, PoissonSource


def make_gateway(simulator, sink, rng, interval=ConstantInterval(0.01), disturbance=None, **kwargs):
    return SenderGateway(
        simulator,
        interval_generator=interval,
        output=sink,
        rng=rng,
        disturbance=disturbance,
        **kwargs,
    )


class TestPaddingInvariants:
    def test_output_rate_is_timer_rate_regardless_of_payload(self, simulator, rng):
        """Padded output is one packet per timer interval: payload rate is hidden."""
        for rate in (10.0, 40.0):
            sim_sink = CountingSink()
            gateway = make_gateway(simulator, sim_sink, rng)
            source = CBRSource(simulator, gateway.accept_payload, rate=rate, rng=rng)
            gateway.start()
            source.start()
            start_count = sim_sink.total
            t0 = simulator.now
            simulator.run(until=t0 + 10.0)
            gateway.stop()
            source.stop()
            emitted = sim_sink.total - start_count
            assert emitted == pytest.approx(1000, abs=3)

    def test_payload_plus_dummy_equals_total(self, simulator, rng):
        sink = CountingSink()
        gateway = make_gateway(simulator, sink, rng)
        source = CBRSource(simulator, gateway.accept_payload, rate=40.0, rng=rng)
        gateway.start()
        source.start()
        simulator.run(until=20.0)
        total = gateway.counters.get("packets_sent")
        assert total == gateway.counters.get("payload_sent") + gateway.counters.get("dummy_sent")
        assert sink.total == total

    def test_all_payload_is_eventually_sent_fifo(self, simulator, rng):
        sink = CountingSink()
        gateway = make_gateway(simulator, sink, rng)
        source = CBRSource(simulator, gateway.accept_payload, rate=40.0, rng=rng)
        gateway.start()
        source.start()
        simulator.run(until=30.0)
        source.stop()
        simulator.run(until=32.0)
        # 100 pps padding > 40 pps payload: queue drains, all payload forwarded.
        sent_payload = [p for p in sink.packets if p.kind is PacketKind.PAYLOAD]
        assert gateway.counters.get("payload_dropped") == 0
        assert len(sent_payload) == gateway.counters.get("payload_received")
        created = [p.created_at for p in sent_payload]
        assert created == sorted(created)

    def test_dummy_fraction_reflects_payload_rate(self, simulator, rng):
        results = {}
        for rate in (10.0, 40.0):
            sink = CountingSink(keep_packets=False)
            gateway = make_gateway(simulator, sink, rng)
            source = CBRSource(simulator, gateway.accept_payload, rate=rate, rng=rng)
            gateway.start()
            source.start()
            t0 = simulator.now
            simulator.run(until=t0 + 20.0)
            gateway.stop()
            source.stop()
            results[rate] = gateway.dummy_fraction
        assert results[10.0] == pytest.approx(0.9, abs=0.02)
        assert results[40.0] == pytest.approx(0.6, abs=0.02)

    def test_cit_piat_without_disturbance_is_exactly_periodic(self, simulator, rng):
        sink = CountingSink()
        gateway = make_gateway(simulator, sink, rng, disturbance=None)
        source = CBRSource(simulator, gateway.accept_payload, rate=40.0, rng=rng)
        gateway.start()
        source.start()
        simulator.run(until=5.0)
        times = np.array([p.sent_at for p in sink.packets])
        assert np.allclose(np.diff(times), 0.01, atol=1e-9)

    def test_dummy_packets_match_payload_size(self, simulator, rng):
        sink = CountingSink()
        gateway = make_gateway(simulator, sink, rng)
        source = CBRSource(
            simulator, gateway.accept_payload, rate=10.0, rng=rng, packet_size_bytes=256
        )
        gateway.start()
        source.start()
        simulator.run(until=5.0)
        sizes = {p.size_bytes for p in sink.packets if p.is_dummy}
        # The first dummy may be emitted before any payload arrives (default size);
        # all dummies after the first payload arrival must copy the payload size.
        assert 256 in sizes
        assert sizes <= {256, 512}


class TestDisturbanceCoupling:
    def test_piat_variance_grows_with_payload_rate(self, simulator, rng):
        """The core leak: higher payload rate -> larger padded-PIAT variance.

        Payload is Poisson so that NIC interrupts are independent of the
        padding timer's phase (a perfectly periodic payload that is
        phase-locked to the timer would never block it — see the note in
        ``repro.experiments.base`` on why the experiments use Poisson
        payload).
        """
        variances = {}
        disturbance = InterruptDisturbance()
        for rate in (10.0, 40.0):
            sink = CountingSink()
            gateway = make_gateway(simulator, sink, rng, disturbance=disturbance)
            source = PoissonSource(simulator, gateway.accept_payload, rate=rate, rng=rng)
            gateway.start()
            source.start()
            t0 = simulator.now
            simulator.run(until=t0 + 120.0)
            gateway.stop()
            source.stop()
            times = np.array([p.sent_at for p in sink.packets if p.sent_at >= t0])
            variances[rate] = np.var(np.diff(times))
        assert variances[40.0] > variances[10.0]
        ratio = variances[40.0] / variances[10.0]
        assert 1.1 < ratio < 4.0

    def test_piat_mean_is_independent_of_payload_rate(self, simulator, rng):
        means = {}
        for rate in (10.0, 40.0):
            sink = CountingSink()
            gateway = make_gateway(simulator, sink, rng, disturbance=InterruptDisturbance())
            source = PoissonSource(simulator, gateway.accept_payload, rate=rate, rng=rng)
            gateway.start()
            source.start()
            t0 = simulator.now
            simulator.run(until=t0 + 60.0)
            gateway.stop()
            source.stop()
            times = np.array([p.sent_at for p in sink.packets if p.sent_at >= t0])
            means[rate] = np.mean(np.diff(times))
        assert means[10.0] == pytest.approx(means[40.0], rel=1e-3)
        assert means[10.0] == pytest.approx(0.01, rel=1e-3)


class TestVITGateway:
    def test_vit_piat_variance_dominated_by_timer(self, simulator, rng):
        sink = CountingSink()
        gateway = make_gateway(
            simulator,
            sink,
            rng,
            interval=NormalInterval(0.01, 0.002),
            disturbance=InterruptDisturbance(),
        )
        source = CBRSource(simulator, gateway.accept_payload, rate=40.0, rng=rng)
        gateway.start()
        source.start()
        simulator.run(until=120.0)
        times = np.array([p.sent_at for p in sink.packets])
        piat_std = np.std(np.diff(times))
        assert piat_std == pytest.approx(0.002, rel=0.15)

    def test_transmissions_are_strictly_ordered(self, simulator, rng):
        sink = CountingSink()
        gateway = make_gateway(
            simulator, sink, rng, interval=NormalInterval(0.002, 0.002)
        )
        source = CBRSource(simulator, gateway.accept_payload, rate=40.0, rng=rng)
        gateway.start()
        source.start()
        simulator.run(until=20.0)
        times = np.array([p.sent_at for p in sink.packets])
        assert np.all(np.diff(times) > 0.0)


class TestQueueAndErrors:
    def test_bounded_queue_drops_excess_payload(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        gateway = make_gateway(simulator, sink, rng, max_queue_packets=5)
        # Payload at 400 pps vastly exceeds the 100 pps padded rate.
        source = CBRSource(simulator, gateway.accept_payload, rate=400.0, rng=rng)
        gateway.start()
        source.start()
        simulator.run(until=10.0)
        assert gateway.counters.get("payload_dropped") > 0
        assert gateway.queue_depth <= 5
        assert gateway.max_queue_depth_seen <= 5

    def test_double_start_rejected(self, simulator, rng):
        gateway = make_gateway(simulator, CountingSink(), rng)
        gateway.start()
        with pytest.raises(PaddingError):
            gateway.start()

    def test_stop_halts_output(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        gateway = make_gateway(simulator, sink, rng)
        gateway.start()
        simulator.run(until=1.0)
        gateway.stop()
        count = sink.total
        simulator.run(until=5.0)
        assert sink.total <= count + 1  # at most the already-scheduled interrupt

    def test_invalid_construction(self, simulator, rng):
        with pytest.raises(PaddingError):
            SenderGateway(simulator, ConstantInterval(0.01), output="nope", rng=rng)
        with pytest.raises(PaddingError):
            make_gateway(simulator, CountingSink(), rng, max_queue_packets=0)

    def test_dummy_fraction_before_any_send_raises(self, simulator, rng):
        gateway = make_gateway(simulator, CountingSink(), rng)
        with pytest.raises(PaddingError):
            _ = gateway.dummy_fraction


class TestAdaptiveMaskingGateway:
    SAMPLE_SIZE = 300
    TRIALS = 12
    RATES = {"low": 10.0, "high": 40.0}

    def test_padded_rate_tracks_payload_rate(self, simulator, rng):
        """The adaptive baseline leaks the payload rate by design."""
        rates = {}
        for rate in (10.0, 40.0):
            sink = CountingSink(keep_packets=False)
            gateway = AdaptiveMaskingGateway(
                simulator,
                ConstantInterval(0.01),
                CountingSink(keep_packets=False),
                rng=rng,
                headroom=1.5,
                min_interval=1e-3,
                max_interval=0.05,
            )
            gateway.output = sink
            source = CBRSource(simulator, gateway.accept_payload, rate=rate, rng=rng)
            gateway.start()
            source.start()
            t0 = simulator.now
            simulator.run(until=t0 + 30.0)
            gateway.stop()
            source.stop()
            rates[rate] = sink.total / 30.0
        assert rates[40.0] > rates[10.0] * 1.5

    @staticmethod
    def _cit_gateway(simulator, tap, rng):
        return SenderGateway(
            simulator, ConstantInterval(0.01), output=tap, rng=rng, disturbance=InterruptDisturbance()
        )

    @staticmethod
    def _adaptive_gateway(simulator, tap, rng):
        return AdaptiveMaskingGateway(
            simulator,
            ConstantInterval(0.01),
            output=tap,
            rng=rng,
            disturbance=InterruptDisturbance(),
            headroom=1.5,
            min_interval=2e-3,
            max_interval=0.05,
        )

    def _capture(self, gateway_factory, seed_offset: str):
        """Padded-stream intervals and the mean padded rate per payload class."""
        streams = RandomStreams(seed=41)
        intervals = {}
        padded_rates = {}
        for label, rate in self.RATES.items():
            simulator = Simulator()
            tap = Tap(simulator)
            gateway = gateway_factory(simulator, tap, streams.get(f"gw-{seed_offset}-{label}"))
            source = PoissonSource(
                simulator, gateway.accept_payload, rate=rate, rng=streams.get(f"pl-{seed_offset}-{label}")
            )
            gateway.start()
            source.start()
            needed_seconds = (self.SAMPLE_SIZE * self.TRIALS) * 0.01 * 1.3 + 5.0
            simulator.run(until=needed_seconds)
            captured = tap.intervals(since=2.0)
            intervals[label] = captured[: self.SAMPLE_SIZE * self.TRIALS]
            padded_rates[label] = tap.observed_rate_pps()
        return intervals, padded_rates

    def test_adaptive_masking_leaks_rate(self):
        """Against the CIT gateway on the same payload classes, even the sample
        mean detects adaptive masking, because its padded rate tracks the payload."""
        results = {}
        for name, factory in (("CIT", self._cit_gateway), ("adaptive", self._adaptive_gateway)):
            train, _ = self._capture(factory, "train")
            test, padded_rates = self._capture(factory, "test")
            mean = evaluate_attack(
                train, test, MeanFeature(), self.SAMPLE_SIZE, max_samples_per_class=self.TRIALS
            )
            results[name] = {
                "mean": mean.detection_rate,
                "padded_rate_low": padded_rates["low"],
                "padded_rate_high": padded_rates["high"],
            }

        # CIT hides the rate from the sample mean; adaptive masking hands it over.
        assert results["CIT"]["mean"] < 0.75
        assert results["adaptive"]["mean"] > 0.8
        # The bandwidth saving is real: the adaptive scheme's padded rate tracks
        # the payload (well below CIT's constant 100 pps at the low rate, and well
        # above it at the high rate), which is exactly the leak.
        assert results["adaptive"]["padded_rate_low"] < 90.0
        assert results["adaptive"]["padded_rate_high"] > 150.0
        assert results["CIT"]["padded_rate_low"] > 95.0

    def test_validation(self, simulator, rng):
        with pytest.raises(PaddingError):
            AdaptiveMaskingGateway(
                simulator, ConstantInterval(0.01), CountingSink(), rng=rng, headroom=0.5
            )
        with pytest.raises(PaddingError):
            AdaptiveMaskingGateway(
                simulator, ConstantInterval(0.01), CountingSink(), rng=rng, rate_smoothing=0.0
            )
        with pytest.raises(PaddingError):
            AdaptiveMaskingGateway(
                simulator,
                ConstantInterval(0.01),
                CountingSink(),
                rng=rng,
                min_interval=0.1,
                max_interval=0.01,
            )

"""End-to-end integration tests: the full system wired together by hand.

The experiment harness (tests/experiments) drives the same components through
the ``ScenarioConfig`` path; these tests build the Figure 1 system explicitly
— payload source → sender gateway → unprotected path with cross traffic →
adversary tap → receiver gateway → destination — and check the cross-cutting
invariants that no single-module test can see:

* payload is conserved end to end and dummies never reach the destination,
* the padded stream observed by the tap hides the payload *rate* but leaks
  its *variance signature* under CIT padding,
* the same wiring with a VIT timer removes the leak,
* the analytical model built from the same parameters predicts what the
  simulation measures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import Tap, VarianceFeature, evaluate_attack
from repro.core import GaussianPIATModel, detection_rate_variance
from repro.network import CountingSink, UnprotectedPath
from repro.network.crosstraffic import cross_traffic_rate_for_utilization
from repro.padding import (
    InterruptDisturbance,
    ReceiverGateway,
    SenderGateway,
    cit_policy,
    vit_policy,
)
from repro.sim import RandomStreams, Simulator
from repro.traffic import PacketKind, PoissonSource
from repro.units import PAPER_PACKET_SIZE_BYTES


def build_system(policy, payload_rate_pps, utilization, seed, duration):
    """Wire the complete Figure 1 system and run it for ``duration`` seconds."""
    streams = RandomStreams(seed=seed)
    simulator = Simulator()
    destination = CountingSink()
    receiver = ReceiverGateway(simulator, destination=destination)
    tap = Tap(simulator)

    def tap_then_receive(packet):
        tap.observe(packet)
        receiver.accept(packet)

    path = UnprotectedPath(simulator, exit_sink=tap_then_receive, n_hops=1, link_rate_bps=80e6)
    if utilization > 0.0:
        cross_rate = cross_traffic_rate_for_utilization(
            utilization, 80e6, PAPER_PACKET_SIZE_BYTES, padded_rate_pps=policy.padded_rate_pps
        )
        path.attach_cross_traffic(0, cross_rate, rng=streams.get("cross"))
        path.start_cross_traffic()
    gateway = SenderGateway(
        simulator,
        policy.make_timer(),
        output=path.entry,
        rng=streams.get("gateway"),
        disturbance=InterruptDisturbance(),
    )
    source = PoissonSource(
        simulator, gateway.accept_payload, rate=payload_rate_pps, rng=streams.get("payload")
    )
    gateway.start()
    source.start()
    simulator.run(until=duration)
    source.stop()
    gateway.stop()
    path.stop_cross_traffic()
    simulator.run(until=duration + 0.5)
    return {
        "gateway": gateway,
        "path": path,
        "tap": tap,
        "receiver": receiver,
        "destination": destination,
    }


class TestEndToEndDataPath:
    @pytest.fixture(scope="class")
    def system(self):
        return build_system(cit_policy(), payload_rate_pps=40.0, utilization=0.2, seed=1, duration=60.0)

    def test_payload_conservation(self, system):
        gateway = system["gateway"]
        receiver = system["receiver"]
        destination = system["destination"]
        sent_payload = gateway.counters.get("payload_sent")
        assert destination.total == sent_payload
        assert receiver.payload_delivered == sent_payload
        assert gateway.counters.get("payload_dropped") == 0

    def test_dummies_are_stripped_at_gw2(self, system):
        receiver = system["receiver"]
        destination = system["destination"]
        assert receiver.dummies_discarded == system["gateway"].counters.get("dummy_sent")
        assert all(p.kind is PacketKind.PAYLOAD for p in destination.packets)

    def test_cross_traffic_never_reaches_the_receiver(self, system):
        assert system["receiver"].counters.get("packets_received") == system["gateway"].packets_sent

    def test_tap_sees_the_padded_rate_not_the_payload_rate(self, system):
        observed = system["tap"].observed_rate_pps()
        assert observed == pytest.approx(100.0, rel=0.02)
        assert not observed == pytest.approx(40.0, rel=0.2)

    def test_padded_piat_mean_equals_timer_interval(self, system):
        intervals = system["tap"].intervals(since=2.0)
        assert np.mean(intervals) == pytest.approx(0.01, rel=1e-3)

    def test_router_utilization_matches_target(self, system):
        assert system["path"].routers[0].measured_utilization() == pytest.approx(0.2, rel=0.1)

    def test_payload_latency_is_bounded(self, system):
        # 100 pps padding drains a 40 pps payload: latency stays near one interval.
        assert system["receiver"].mean_payload_latency() < 0.03


class TestEndToEndAttack:
    def _captures(self, policy, utilization, seed):
        captures = {}
        # The label's index, not hash(label): string hashing varies per process.
        for index, (label, rate) in enumerate((("low", 10.0), ("high", 40.0))):
            system = build_system(policy, rate, utilization, seed=seed + index, duration=130.0)
            captures[label] = system["tap"].intervals(since=2.0)[:12_000]
        return captures

    def test_cit_leaks_and_vit_does_not(self):
        feature = VarianceFeature()
        sample_size = 1000

        cit_train = self._captures(cit_policy(), 0.0, seed=10)
        cit_test = self._captures(cit_policy(), 0.0, seed=20)
        cit = evaluate_attack(cit_train, cit_test, feature, sample_size)

        vit_policy_ = vit_policy(sigma_t=1e-3)
        vit_train = self._captures(vit_policy_, 0.0, seed=30)
        vit_test = self._captures(vit_policy_, 0.0, seed=40)
        vit = evaluate_attack(vit_train, vit_test, feature, sample_size)

        assert cit.detection_rate > 0.85
        assert vit.detection_rate < 0.7
        assert cit.detection_rate - vit.detection_rate > 0.2

    def test_simulation_matches_analytic_model(self):
        """The measured PIAT variances agree with the Gaussian model the theory uses."""
        policy = cit_policy()
        captures = self._captures(policy, 0.0, seed=50)
        model = GaussianPIATModel.from_system(policy, InterruptDisturbance())
        measured_low = float(np.var(captures["low"]))
        measured_high = float(np.var(captures["high"]))
        assert measured_low == pytest.approx(model.variance_low, rel=0.3)
        assert measured_high == pytest.approx(model.variance_high, rel=0.3)
        measured_r = measured_high / measured_low
        assert measured_r == pytest.approx(model.variance_ratio, rel=0.3)
        # And the closed form evaluated at the *measured* r still predicts a
        # highly effective attack at n = 1000, as observed empirically above.
        assert detection_rate_variance(measured_r, 1000) > 0.9

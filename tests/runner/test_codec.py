"""Tests for the queue codec: config dict → cell/capture reconstruction.

The codec is what lets a pull-based worker execute work it never built in
Python: every reconstruction must round-trip to the *exact* claimed
fingerprint, and anything this build cannot faithfully rebuild must be
refused loudly — silently executing with different parameters would poison
the content-addressed cache.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import cit_policy, vit_policy
from repro.runner import SweepCell
from repro.runner.backends.codec import (
    capture_from_config,
    cell_from_config,
    policy_from_config,
    scenario_from_config,
    verify_fingerprint,
)
from repro.runner.capture import GATEWAY_SCENARIO_FIELDS, CaptureSpec


def make_cell(**overrides) -> SweepCell:
    params = dict(
        key="codec/cell",
        scenario=ScenarioConfig(n_hops=1, cross_utilization=0.15),
        sample_sizes=(50, 100),
        trials=4,
        mode=CollectionMode.ANALYTIC,
        seed=11,
    )
    params.update(overrides)
    return SweepCell(**params)


class TestVerifyFingerprint:
    def test_matching_fingerprint_is_returned(self):
        cell = make_cell()
        config = cell.config_dict()
        assert verify_fingerprint(cell.key, config, cell.fingerprint()) == (
            cell.fingerprint()
        )

    def test_mismatch_names_both_fingerprints(self):
        cell = make_cell()
        with pytest.raises(ConfigurationError) as excinfo:
            verify_fingerprint(cell.key, cell.config_dict(), "deadbeef")
        message = str(excinfo.value)
        assert "deadbeef" in message
        assert cell.fingerprint() in message

    def test_tampered_config_is_refused(self):
        cell = make_cell()
        config = cell.config_dict()
        config["trials"] = 999
        with pytest.raises(ConfigurationError):
            verify_fingerprint(cell.key, config, cell.fingerprint())


class TestCellRoundTrip:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"mode": CollectionMode.SIMULATION, "collect_piat_stats": True},
            {"entropy_bin_width": 0.005},
            {"kde_bandwidth": 0.002},
            {"sample_sizes": (10,), "seed": 2003, "trials": 2},
        ],
    )
    def test_fingerprint_exact_reconstruction(self, overrides):
        cell = make_cell(**overrides)
        rebuilt = cell_from_config(cell.key, cell.config_dict())
        assert rebuilt.fingerprint() == cell.fingerprint()
        assert rebuilt.config_dict() == cell.config_dict()

    def test_policy_variants_round_trip(self):
        for policy in (cit_policy(0.01), vit_policy(0.003, 0.01, "uniform")):
            cell = make_cell(scenario=ScenarioConfig(policy=policy))
            rebuilt = cell_from_config(cell.key, cell.config_dict())
            assert rebuilt.fingerprint() == cell.fingerprint()

    def test_disturbance_round_trips(self):
        scenario = ScenarioConfig(
            disturbance=InterruptDisturbance(
                base_jitter_std=2e-4, blocking_window=0.02, blocking_delay_mean=1e-3
            )
        )
        cell = make_cell(scenario=scenario)
        rebuilt = cell_from_config(cell.key, cell.config_dict())
        assert rebuilt.fingerprint() == cell.fingerprint()

    def test_undisturbed_gateway_round_trips(self):
        cell = make_cell(scenario=ScenarioConfig(disturbance=None))
        rebuilt = cell_from_config(cell.key, cell.config_dict())
        assert rebuilt.scenario.disturbance is None
        assert rebuilt.fingerprint() == cell.fingerprint()

    def test_hybrid_cell_with_capture_round_trips(self):
        scenario = ScenarioConfig(n_hops=1, cross_utilization=0.15)
        spec = CaptureSpec(
            key="codec/cell/capture",
            scenario=scenario,
            n_intervals=64,
            seed=11,
        )
        cell = make_cell(
            scenario=scenario,
            mode=CollectionMode.HYBRID,
            capture=spec,
            sample_sizes=(10,),
            trials=4,
            noise_offsets=("noise-train", "noise-test"),
        )
        rebuilt = cell_from_config(cell.key, cell.config_dict())
        assert rebuilt.capture is not None
        assert rebuilt.capture.fingerprint() == cell.capture.fingerprint()
        assert rebuilt.fingerprint() == cell.fingerprint()

    def test_wrong_schema_version_is_refused(self):
        cell = make_cell()
        config = cell.config_dict()
        config["schema"] = 999
        with pytest.raises(ConfigurationError) as excinfo:
            cell_from_config(cell.key, config)
        assert "schema" in str(excinfo.value)

    def test_missing_field_is_a_configuration_error(self):
        cell = make_cell()
        config = cell.config_dict()
        del config["trials"]
        with pytest.raises(ConfigurationError):
            cell_from_config(cell.key, config)

    def test_unknown_policy_kind_is_refused(self):
        with pytest.raises(ConfigurationError) as excinfo:
            policy_from_config({"kind": "FIFO", "mean_interval": 0.01})
        assert "FIFO" in str(excinfo.value)

    def test_scenario_without_policy_is_refused(self):
        with pytest.raises(ConfigurationError):
            scenario_from_config({"low_rate_pps": 10.0})


class TestCaptureRoundTrip:
    def _spec(self) -> CaptureSpec:
        return CaptureSpec(
            key="codec/capture",
            scenario=ScenarioConfig(n_hops=1),
            n_intervals=128,
            seed=3,
        )

    def test_fingerprint_exact_reconstruction(self):
        spec = self._spec()
        rebuilt = capture_from_config(spec.key, spec.config_dict())
        assert rebuilt.fingerprint() == spec.fingerprint()
        assert rebuilt.config_dict() == spec.config_dict()

    def test_non_capture_kind_is_refused(self):
        cell = make_cell()
        with pytest.raises(ConfigurationError) as excinfo:
            capture_from_config("x", cell.config_dict())
        assert "gateway-capture" in str(excinfo.value)

    def test_key_is_cosmetic_and_excluded_from_the_fingerprint(self):
        spec = self._spec()
        rebuilt = capture_from_config("a/totally/different/key", spec.config_dict())
        assert rebuilt.fingerprint() == spec.fingerprint()


# --------------------------------------------------------------------------- properties
_TAGS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=8)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _distinct_pair(tags):
    return st.tuples(tags, tags).filter(lambda pair: pair[0] != pair[1])


@st.composite
def _policies(draw):
    mean_interval = draw(st.sampled_from((0.005, 0.01, 0.02)))
    family = draw(st.sampled_from(("cit", "normal", "uniform", "exponential", "lognormal")))
    if family == "cit":
        return cit_policy(mean_interval)
    sigma_t = draw(st.floats(min_value=1e-5, max_value=mean_interval / 2))
    return vit_policy(sigma_t, mean_interval, family)


_DISTURBANCES = st.one_of(
    st.none(),
    st.builds(
        InterruptDisturbance,
        base_jitter_std=st.floats(min_value=0.0, max_value=1e-3),
        blocking_window=st.floats(min_value=0.0, max_value=2e-2),
        blocking_delay_mean=st.floats(min_value=0.0, max_value=1e-3),
    ),
)


@st.composite
def _scenarios(draw):
    n_hops = draw(st.integers(min_value=0, max_value=15))
    utilization = 0.0
    if n_hops > 0:
        utilization = draw(st.floats(min_value=0.0, max_value=0.9))
    return ScenarioConfig(
        policy=draw(_policies()),
        disturbance=draw(_DISTURBANCES),
        n_hops=n_hops,
        cross_utilization=utilization,
    )


@st.composite
def _captures(draw, scenario=None, seed=None, seed_offsets=None, min_intervals=3):
    return CaptureSpec(
        key=draw(_TAGS),
        scenario=scenario if scenario is not None else draw(_scenarios()),
        n_intervals=draw(st.integers(min_value=min_intervals, max_value=min_intervals + 5000)),
        seed=seed if seed is not None else draw(_SEEDS),
        seed_offsets=seed_offsets if seed_offsets is not None else draw(_distinct_pair(_TAGS)),
    )


@st.composite
def _cells(draw):
    mode = draw(st.sampled_from(tuple(CollectionMode)))
    scenario = draw(_scenarios())
    sample_sizes = tuple(draw(st.lists(st.integers(2, 500), min_size=1, max_size=4)))
    trials = draw(st.integers(min_value=2, max_value=50))
    seed = draw(_SEEDS)
    seed_offsets = draw(_distinct_pair(_TAGS))
    capture = noise_offsets = None
    if mode is CollectionMode.HYBRID:
        if draw(st.booleans()):
            # A hybrid child: its parent shares the gateway configuration
            # but may be captured for a different network (hops/utilization).
            parent = replace(
                draw(_scenarios()),
                policy=scenario.policy,
                disturbance=scenario.disturbance,
            )
            capture = draw(
                _captures(
                    scenario=parent,
                    seed=seed,
                    seed_offsets=seed_offsets,
                    min_intervals=max(sample_sizes) * trials + 1,
                )
            )
        noise_offsets = draw(st.one_of(st.none(), _distinct_pair(_TAGS)))
    return SweepCell(
        key=draw(_TAGS),
        scenario=scenario,
        sample_sizes=sample_sizes,
        trials=trials,
        mode=mode,
        seed=seed,
        seed_offsets=seed_offsets,
        capture=capture,
        noise_offsets=noise_offsets,
        kde_bandwidth=draw(
            st.one_of(st.none(), st.sampled_from(("silverman", "scott")), st.floats(0.1, 4.0))
        ),
    )


def _over_the_wire(config):
    """The config as a queue worker receives it: through JSON."""
    return json.loads(json.dumps(config))


def _gateway_only(spec: CaptureSpec) -> CaptureSpec:
    """``spec`` with its non-gateway scenario fields at their defaults.

    A capture serialises only the gateway fields, so this canonical form is
    what reconstruction can return.
    """
    defaults = ScenarioConfig()
    network = {
        f.name: getattr(defaults, f.name)
        for f in fields(ScenarioConfig)
        if f.name not in GATEWAY_SCENARIO_FIELDS
    }
    return replace(spec, scenario=replace(spec.scenario, **network))


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(cell=_cells())
    def test_every_cell_round_trips(self, cell):
        rebuilt = cell_from_config(cell.key, _over_the_wire(cell.config_dict()))
        assert rebuilt.fingerprint() == cell.fingerprint()
        if cell.capture is None:
            assert rebuilt == cell
        else:
            assert rebuilt.capture.fingerprint() == cell.capture.fingerprint()
            assert rebuilt.capture == replace(
                _gateway_only(cell.capture), key=rebuilt.capture.key
            )
            assert rebuilt == replace(cell, capture=rebuilt.capture)

    @settings(max_examples=150, deadline=None)
    @given(spec=_captures())
    def test_every_capture_round_trips(self, spec):
        rebuilt = capture_from_config(spec.key, _over_the_wire(spec.config_dict()))
        assert rebuilt.fingerprint() == spec.fingerprint()
        assert rebuilt == _gateway_only(spec)

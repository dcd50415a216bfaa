"""Tests for the multi-rate extension and confusion-matrix utilities."""

from __future__ import annotations

import pytest

from repro.adversary import (
    VarianceFeature,
    confusion_matrix,
    evaluate_multiclass_attack,
    per_class_detection_rates,
)
from repro.adversary.detection import empirical_detection_rate, train_classifier
from repro.adversary.multiclass import (
    overall_detection_rate,
    random_guessing_rate,
    sorted_labels,
)
from repro.core.model import GaussianPIATModel
from repro.exceptions import AnalysisError
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import cit_policy, vit_policy
from repro.sim.random import RandomStreams


class TestConfusionMatrix:
    def test_counts(self):
        matrix = confusion_matrix(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        assert matrix["a"]["a"] == 1
        assert matrix["a"]["b"] == 1
        assert matrix["b"]["b"] == 2
        assert matrix["b"]["a"] == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            confusion_matrix(["a"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            confusion_matrix([], [])

    def test_per_class_rates(self):
        matrix = confusion_matrix(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        rates = per_class_detection_rates(matrix)
        assert rates["a"] == pytest.approx(0.5)
        assert rates["b"] == pytest.approx(1.0)

    def test_overall_rate(self):
        matrix = confusion_matrix(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        assert overall_detection_rate(matrix) == pytest.approx(0.75)

    def test_numeric_labels_order_by_value_not_lexicographically(self):
        """Regression: "10" must sort after "2"/"5", not before them.

        Rate-class labels are numeric strings; lexicographic ordering put
        the 10-pps row first and scrambled every rendered matrix.
        """
        matrix = confusion_matrix(["2", "5", "10"], ["2", "5", "10"])
        assert list(matrix) == ["2", "5", "10"]
        assert all(list(row) == ["2", "5", "10"] for row in matrix.values())

    def test_sorted_labels_numeric_and_fallback(self):
        assert sorted_labels({"10", "2", "5.5"}) == ["2", "5.5", "10"]
        # Equal values in different spellings stay total and deterministic.
        assert sorted_labels({"2.0", "2"}) == ["2", "2.0"]
        # A single non-numeric label falls back to plain string order.
        assert sorted_labels({"10", "2", "low"}) == ["10", "2", "low"]


class TestRandomGuessing:
    def test_equal_priors(self):
        assert random_guessing_rate(2) == 0.5
        assert random_guessing_rate(4) == 0.25

    def test_unequal_priors(self):
        assert random_guessing_rate(2, [0.8, 0.2]) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            random_guessing_rate(1)
        with pytest.raises(AnalysisError):
            random_guessing_rate(2, [0.5, 0.6])
        with pytest.raises(AnalysisError):
            random_guessing_rate(3, [0.5, 0.5])


class TestMulticlassAttack:
    RATES_PPS = (10.0, 20.0, 40.0, 80.0)
    SAMPLE_SIZE = 2000
    TRIALS = 25

    def test_four_rate_extension(self, rng):
        """Section 6: the technique extends to m > 2 rates via more training."""
        # Build four classes with increasing PIAT variance (more payload ->
        # more gateway disturbance), sampled from the Gaussian model.
        sigmas = {"r10": 2.1e-5, "r20": 2.5e-5, "r40": 3.0e-5, "r80": 3.7e-5}
        train = {k: rng.normal(0.01, s, size=60_000) for k, s in sigmas.items()}
        test = {k: rng.normal(0.01, s, size=60_000) for k, s in sigmas.items()}
        result = evaluate_multiclass_attack(
            train, test, VarianceFeature(), sample_size=2000
        )
        assert result.trials == 4 * 30
        # Better than random guessing among four classes, but harder than two.
        assert result.detection_rate > 2.0 * random_guessing_rate(4)
        assert set(result.per_class_rates) == set(sigmas)

    def _captures(self, policy, seed_offset: str) -> dict:
        """One capture per payload rate from the calibrated Gaussian model: the
        gateway disturbance variance as a function of the payload rate."""
        disturbance = InterruptDisturbance()
        streams = RandomStreams(seed=31)
        captures = {}
        for rate in self.RATES_PPS:
            gw_variance = disturbance.piat_variance(rate)
            model = GaussianPIATModel.from_components(
                gw_variance_low=gw_variance,
                gw_variance_high=gw_variance,
                timer_variance=policy.timer_variance,
                tau=policy.mean_interval,
            )
            rng = streams.get(f"{seed_offset}-{rate}")
            captures[f"{rate:.0f}pps"] = model.sample_intervals(
                "low", self.SAMPLE_SIZE * self.TRIALS, rng=rng
            )
        return captures

    def _detection_rate(self, policy) -> float:
        feature = VarianceFeature()
        classifier = train_classifier(
            self._captures(policy, "train"),
            feature,
            self.SAMPLE_SIZE,
            max_samples_per_class=self.TRIALS,
        )
        return empirical_detection_rate(
            classifier,
            self._captures(policy, "test"),
            feature,
            self.SAMPLE_SIZE,
            max_samples_per_class=self.TRIALS,
        ).detection_rate

    def test_cit_leaks_and_vit_hides_among_four_rates(self):
        """CIT leaks even among four candidate rates; VIT pins the adversary
        near four-way random guessing."""
        guessing = random_guessing_rate(len(self.RATES_PPS))
        assert self._detection_rate(cit_policy()) > 2.5 * guessing
        assert self._detection_rate(vit_policy(sigma_t=1e-3)) < 1.6 * guessing

    def test_rejects_two_class_input(self, rng):
        data = {
            "low": rng.normal(0.01, 1e-5, size=5000),
            "high": rng.normal(0.01, 2e-5, size=5000),
        }
        with pytest.raises(AnalysisError):
            evaluate_multiclass_attack(data, data, VarianceFeature(), sample_size=500)

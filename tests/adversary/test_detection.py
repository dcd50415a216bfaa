"""Tests for the attack pipeline and detection-rate measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    EntropyFeature,
    MeanFeature,
    VarianceFeature,
    empirical_detection_rate,
    evaluate_attack,
    extract_feature_samples,
    slice_into_samples,
    train_classifier,
)
from repro.core import GaussianPIATModel
from repro.exceptions import AnalysisError


@pytest.fixture
def cit_model():
    """Analytic PIAT model matching the calibrated CIT / no-cross-traffic setup."""
    return GaussianPIATModel.from_components(
        gw_variance_low=4.5e-10, gw_variance_high=8.1e-10, tau=0.01
    )


def labelled_intervals(model, rng, n_intervals):
    return {
        "low": model.sample_intervals("low", n_intervals, rng=rng),
        "high": model.sample_intervals("high", n_intervals, rng=rng),
    }


class TestSlicing:
    def test_non_overlapping_slices(self):
        intervals = np.arange(100.0)
        samples = slice_into_samples(intervals, 30)
        assert len(samples) == 3
        assert np.array_equal(samples[0], np.arange(30.0))
        assert np.array_equal(samples[2], np.arange(60.0, 90.0))

    def test_max_samples_cap(self):
        assert len(slice_into_samples(np.arange(100.0), 10, max_samples=4)) == 4

    def test_validation(self):
        with pytest.raises(AnalysisError):
            slice_into_samples(np.arange(5.0), 10)
        with pytest.raises(AnalysisError):
            slice_into_samples(np.arange(5.0), 0)
        with pytest.raises(AnalysisError):
            slice_into_samples(np.zeros((2, 2)), 1)

    def test_extract_feature_samples(self):
        intervals = np.tile([1.0, 2.0, 3.0], 10)
        values = extract_feature_samples(intervals, MeanFeature(), 3)
        assert values.shape == (10,)
        assert np.allclose(values, 2.0)


class TestTrainAndClassify:
    def test_variance_feature_detects_rate_with_large_samples(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 40_000)
        data_test = labelled_intervals(cit_model, rng, 40_000)
        result = evaluate_attack(
            data_train, data_test, VarianceFeature(), sample_size=1000
        )
        assert result.detection_rate > 0.9
        assert result.trials == 80
        assert set(result.per_class_rates) == {"low", "high"}

    def test_entropy_feature_detects_rate_with_large_samples(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 40_000)
        data_test = labelled_intervals(cit_model, rng, 40_000)
        result = evaluate_attack(
            data_train, data_test, EntropyFeature(bin_width=5e-6), sample_size=1000
        )
        assert result.detection_rate > 0.85

    def test_mean_feature_stays_near_random_guessing(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 40_000)
        data_test = labelled_intervals(cit_model, rng, 40_000)
        result = evaluate_attack(data_train, data_test, MeanFeature(), sample_size=1000)
        assert result.detection_rate < 0.7

    def test_detection_improves_with_sample_size(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 60_000)
        data_test = labelled_intervals(cit_model, rng, 60_000)
        small = evaluate_attack(data_train, data_test, VarianceFeature(), sample_size=50)
        large = evaluate_attack(data_train, data_test, VarianceFeature(), sample_size=2000)
        assert large.detection_rate >= small.detection_rate

    def test_vit_padding_defeats_the_attack(self, rng):
        """Adding timer variance collapses the detection rate toward 50%."""
        vit_model = GaussianPIATModel.from_components(
            gw_variance_low=4.5e-10,
            gw_variance_high=8.1e-10,
            timer_variance=(1e-3) ** 2,
            tau=0.01,
        )
        data_train = labelled_intervals(vit_model, rng, 40_000)
        data_test = labelled_intervals(vit_model, rng, 40_000)
        result = evaluate_attack(data_train, data_test, VarianceFeature(), sample_size=1000)
        assert result.detection_rate < 0.65

    def test_confusion_matrix_counts_match_trials(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 20_000)
        data_test = labelled_intervals(cit_model, rng, 20_000)
        result = evaluate_attack(data_train, data_test, VarianceFeature(), sample_size=500)
        total = sum(sum(row.values()) for row in result.confusion.values())
        assert total == result.trials == len(result.correct_flags)

    def test_confidence_interval_brackets_rate(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 20_000)
        data_test = labelled_intervals(cit_model, rng, 20_000)
        result = evaluate_attack(data_train, data_test, VarianceFeature(), sample_size=500)
        ci = result.confidence_interval(rng=rng)
        assert ci.lower <= result.detection_rate <= ci.upper

    def test_train_classifier_needs_enough_samples(self, cit_model, rng):
        data = labelled_intervals(cit_model, rng, 1000)
        with pytest.raises(AnalysisError):
            train_classifier(data, VarianceFeature(), sample_size=900)

    def test_empirical_detection_needs_test_samples(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 20_000)
        classifier = train_classifier(data_train, VarianceFeature(), sample_size=500)
        short_test = labelled_intervals(cit_model, rng, 100)
        with pytest.raises(AnalysisError):
            empirical_detection_rate(classifier, short_test, VarianceFeature(), sample_size=500)

    def test_priors_forwarded(self, cit_model, rng):
        data_train = labelled_intervals(cit_model, rng, 20_000)
        classifier = train_classifier(
            data_train, VarianceFeature(), sample_size=500, priors={"low": 0.9, "high": 0.1}
        )
        assert classifier.is_fitted

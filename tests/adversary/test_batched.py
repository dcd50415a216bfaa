"""The batched attack layer against its per-sample, per-value references.

Feature extraction summarises every sample of a capture in one row-wise call
and the classifier decides every test value in one batched call.  These
property tests pin both to the one-sample-at-a-time definitions bit for bit:
the 1-D statistics (``sample_mean``, ``sample_variance``,
``moddemeijer_entropy`` and the median/percentile forms of MAD and IQR) over
an explicit slicing loop, and the strict ``>`` Bayes rule over per-value KDE
evaluations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    EntropyFeature,
    InterquartileRangeFeature,
    KDEBayesClassifier,
    MeanFeature,
    MedianAbsoluteDeviationFeature,
    VarianceFeature,
    empirical_detection_rate,
    extract_feature_samples,
    slice_into_samples,
    train_classifier,
)
from repro.exceptions import AnalysisError
from repro.stats.descriptive import sample_mean, sample_variance
from repro.stats.entropy import moddemeijer_entropy, moddemeijer_entropy_rows
from repro.stats.kde import GaussianKDE

BIN_WIDTH = 5e-5


def _mad(sample: np.ndarray) -> float:
    return float(np.median(np.abs(sample - np.median(sample))))


def _iqr(sample: np.ndarray) -> float:
    q75, q25 = np.percentile(sample, [75.0, 25.0])
    return float(q75 - q25)


#: Each feature with its 1-D reference statistic.
FEATURES = {
    "mean": (MeanFeature(), sample_mean),
    "variance": (VarianceFeature(), sample_variance),
    "entropy": (EntropyFeature(BIN_WIDTH), lambda s: moddemeijer_entropy(s, BIN_WIDTH)),
    "mad": (MedianAbsoluteDeviationFeature(), _mad),
    "iqr": (InterquartileRangeFeature(), _iqr),
}


def reference_samples(intervals, sample_size, max_samples=None, overlap=False):
    """The slicing loop the strided sample matrix replaces."""
    array = np.asarray(intervals, dtype=float)
    step = sample_size // 2 if overlap and sample_size > 1 else sample_size
    samples = []
    start = 0
    while start + sample_size <= array.size:
        samples.append(array[start : start + sample_size].copy())
        start += step
        if max_samples is not None and len(samples) >= max_samples:
            break
    return samples


def reference_features(intervals, name, sample_size, max_samples=None, overlap=False):
    _, statistic = FEATURES[name]
    return np.array(
        [statistic(s) for s in reference_samples(intervals, sample_size, max_samples, overlap)]
    )


def same_bits(a, b) -> bool:
    """Equal as IEEE bit patterns: ``-0.0`` differs from ``0.0``, NaNs compare."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


@st.composite
def captures(draw):
    """PIAT-like captures, edge-aligned captures and captures with constant runs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(4, 400))
    kind = draw(st.sampled_from(["normal", "edges", "constant", "mixed"]))
    if kind == "normal":
        scale = draw(st.sampled_from([1e-6, 2e-5, 1e-4, 1e-3]))
        return rng.normal(0.01, scale, size)
    if kind == "edges":
        # Every value sits exactly on a histogram edge of some sample.
        low = float(rng.normal(0.01, 1e-3))
        return low + BIN_WIDTH * rng.integers(0, 30, size).astype(float)
    if kind == "constant":
        return np.repeat(rng.normal(0.01, 1e-3, size // 4 + 1), 4)[:size]
    values = np.round(rng.normal(0.0, 4.0, size)) * BIN_WIDTH + 0.01
    values[rng.random(size) < 0.05] = 0.25
    return values


class TestBatchedFeatures:
    @pytest.mark.parametrize("name", sorted(FEATURES))
    @given(
        capture=captures(),
        sample_size=st.integers(4, 64),
        max_samples=st.none() | st.integers(1, 12),
        overlap=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_per_sample_reference(
        self, name, capture, sample_size, max_samples, overlap
    ):
        if capture.size < sample_size:
            sample_size = capture.size
        feature, _ = FEATURES[name]
        got = extract_feature_samples(
            capture, feature, sample_size, max_samples=max_samples, overlap=overlap
        )
        expected = reference_features(capture, name, sample_size, max_samples, overlap)
        assert same_bits(got, expected)

    @pytest.mark.parametrize("name", sorted(FEATURES))
    @given(capture=captures())
    @settings(max_examples=30, deadline=None)
    def test_compute_is_the_one_row_case(self, name, capture):
        feature, statistic = FEATURES[name]
        assert same_bits(feature.compute(capture), statistic(capture))

    def test_entropy_on_bin_edges_and_degenerate_rows(self):
        low = 0.0123
        rows = np.array(
            [
                low + BIN_WIDTH * np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0, 7.0, 9.0]),
                np.full(8, low),
                # Distinct values inside one bin: the 1-D path returns -0.0.
                low + np.array([0.0, 1e-7, 2e-7, 1e-7, 0.0, 3e-7, 0.0, 1e-7]),
                low + BIN_WIDTH / 3.0 * np.arange(8.0),
            ]
        )
        expected = [moddemeijer_entropy(row, BIN_WIDTH) for row in rows]
        assert same_bits(moddemeijer_entropy_rows(rows, BIN_WIDTH), expected)
        assert math.copysign(1.0, expected[1]) == 1.0
        assert math.copysign(1.0, expected[2]) == -1.0

    def test_entropy_drops_values_above_the_last_edge(self):
        # Rounding leaves low + BIN_WIDTH * n_bins just below this row's
        # maximum, so np.histogram, and the 1-D entropy, drop that value.
        low, high = -1.4164641168210923e-05, 0.0017358353588317894
        n_bins = int(np.ceil((high - low) / BIN_WIDTH))
        assert low + BIN_WIDTH * n_bins < high
        row = np.array([low, low + 3e-4, low + 3.1e-4, 1e-3, high, high])
        rows = np.stack([row, row[::-1], np.linspace(low, high, 6)])
        expected = [moddemeijer_entropy(r, BIN_WIDTH) for r in rows]
        assert same_bits(moddemeijer_entropy_rows(rows, BIN_WIDTH), expected)

    def test_samples_are_read_only_views_of_the_capture(self):
        capture = np.arange(100.0)
        samples = slice_into_samples(capture, 10, overlap=True)
        assert samples.shape == (19, 10)
        assert np.shares_memory(samples, capture)
        assert not samples.flags.writeable
        expected = reference_samples(capture, 10, overlap=True)
        assert all(np.array_equal(row, ref) for row, ref in zip(samples, expected))


class TestBatchedErrors:
    @pytest.mark.parametrize("name", ["mean", "variance", "entropy"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @given(position=st.integers(0, 59))
    @settings(max_examples=15, deadline=None)
    def test_non_finite_inside_a_used_sample_raises_as_before(self, name, bad, position):
        capture = np.random.default_rng(7).normal(0.01, 1e-4, 90)
        capture[position] = bad
        with pytest.raises(AnalysisError) as expected:
            reference_features(capture, name, 10, max_samples=6)
        with pytest.raises(AnalysisError) as got:
            extract_feature_samples(capture, FEATURES[name][0], 10, max_samples=6)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("name", sorted(FEATURES))
    @given(position=st.integers(60, 89))
    @settings(max_examples=10, deadline=None)
    def test_non_finite_outside_the_window_is_ignored(self, name, position):
        capture = np.random.default_rng(7).normal(0.01, 1e-4, 90)
        capture[position] = np.nan
        got = extract_feature_samples(capture, FEATURES[name][0], 10, max_samples=6)
        assert same_bits(got, reference_features(capture, name, 10, max_samples=6))

    @pytest.mark.parametrize("name", ["mad", "iqr"])
    def test_robust_features_pass_nan_through_like_the_reference(self, name):
        capture = np.random.default_rng(7).normal(0.01, 1e-4, 40)
        capture[13] = np.nan
        got = extract_feature_samples(capture, FEATURES[name][0], 10)
        expected = reference_features(capture, name, 10)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.isnan(got[1]) and not np.isnan(got[0])


def reference_classify(training, value, priors=None):
    """The per-value Bayes rule: strict ``>`` over sorted labels from ``-inf``."""
    labels = sorted(training)
    best_label, best_value = None, -np.inf
    for label in labels:
        prior = 1.0 / len(labels) if priors is None else priors[label]
        log_posterior = float(GaussianKDE(training[label]).logpdf(float(value))) + float(
            np.log(prior)
        )
        if log_posterior > best_value:
            best_label, best_value = label, log_posterior
    return best_label


@st.composite
def training_sets(draw):
    """Two to four classes; some share identical training data (exact ties)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(
        st.lists(st.sampled_from(["a", "b", "c", "d", "10", "2"]), min_size=2, max_size=4,
                 unique=True)
    )
    n = draw(st.integers(2, 40))
    training = {}
    for index, label in enumerate(labels):
        if index > 0 and draw(st.booleans()):
            training[label] = training[labels[0]].copy()
        else:
            training[label] = rng.normal(float(rng.normal(0.0, 2.0)), 1.0, n)
    return training


class TestBatchedDecisions:
    @given(
        training=training_sets(),
        values=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_decisions_match_the_per_value_rule(self, training, values):
        classifier = KDEBayesClassifier().fit(training)
        expected = [reference_classify(training, v) for v in values]
        assert classifier.classify_many(values) == expected
        assert [classifier.labels[i] for i in classifier.decide(values)] == expected
        assert classifier.classify(values[0]) == expected[0]

    @given(values=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_exact_ties_go_to_the_smallest_label(self, values):
        sample = np.random.default_rng(3).normal(0.0, 1.0, 50)
        other = np.random.default_rng(4).normal(0.0, 1.0, 50)
        classifier = KDEBayesClassifier().fit({"z": sample, "c": sample.copy(), "m": other})
        for value, label in zip(values, classifier.classify_many(values)):
            assert label in ("c", "m")
            assert label == reference_classify({"z": sample, "c": sample, "m": other}, value)

    def test_log_posteriors_match_per_class_evaluation(self):
        rng = np.random.default_rng(5)
        training = {"low": rng.normal(0.0, 1.0, 30), "high": rng.normal(2.0, 1.0, 30)}
        classifier = KDEBayesClassifier().fit(training, priors={"low": 0.3, "high": 0.7})
        posteriors = classifier.log_posteriors(0.7)
        assert list(posteriors) == ["high", "low"]
        for label, prior in (("low", 0.3), ("high", 0.7)):
            expected = float(GaussianKDE(training[label]).logpdf(0.7)) + float(np.log(prior))
            assert same_bits(posteriors[label], expected)

    def test_value_without_a_finite_posterior_is_an_error(self):
        rng = np.random.default_rng(6)
        classifier = KDEBayesClassifier().fit(
            {"a": rng.normal(0.0, 1.0, 20), "b": rng.normal(1.0, 1.0, 20)}
        )
        with pytest.raises(AnalysisError):
            classifier.decide([0.5, np.nan])

    @pytest.mark.parametrize("name", sorted(FEATURES))
    def test_detection_result_matches_the_per_value_loop(self, name):
        rng = np.random.default_rng(8)
        feature, _ = FEATURES[name]

        def capture(scale):
            return 0.01 + np.round(rng.normal(0.0, scale, 2000) / BIN_WIDTH * 4) * BIN_WIDTH / 4

        train = {"high": capture(1e-4), "low": capture(2e-4), "mid": capture(1.5e-4)}
        test = {"mid": capture(1.5e-4), "high": capture(1e-4), "low": capture(2e-4)}
        classifier = train_classifier(train, feature, 50, max_samples_per_class=30)
        result = empirical_detection_rate(
            classifier, test, feature, 50, max_samples_per_class=30
        )
        confusion = {label: {p: 0 for p in sorted(train)} for label in sorted(test)}
        flags = []
        training = {
            label: reference_features(train[label], name, 50, max_samples=30) for label in train
        }
        for label in sorted(test):
            for value in reference_features(test[label], name, 50, max_samples=30):
                predicted = reference_classify(training, value)
                confusion[label][predicted] += 1
                flags.append(predicted == label)
        assert result.confusion == confusion
        assert list(result.confusion["low"]) == sorted(train)
        assert result.correct_flags == flags
        assert same_bits(result.detection_rate, float(np.mean(flags)))

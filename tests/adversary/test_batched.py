"""The batched attack layer against its per-sample, per-value references.

Feature extraction summarises every sample of a capture in one row-wise call
and the classifier decides every test value in one batched call.  These
property tests pin both to the one-sample-at-a-time definitions bit for bit:
the 1-D statistics (``sample_mean``, ``sample_variance``,
``moddemeijer_entropy`` and the median/percentile forms of MAD and IQR) over
an explicit slicing loop, the strict ``>`` Bayes rule over per-value KDE
evaluations, the row-wise bandwidth rules over ``np.std``/``np.percentile``,
the stacked class scores over a per-class log-density loop, and
``evaluate_attack`` over list bookkeeping, the classifier-batched KDE kernel
over one call per classifier, and the per-cell ``detection_rates`` pass over
a loop of one classifier per (feature, sample size).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.adversary.bayes as bayes_module
import repro.adversary.detection as detection_module
import repro.stats.kde as kde_module
from repro.adversary import (
    EntropyFeature,
    InterquartileRangeFeature,
    KDEBayesClassifier,
    MeanFeature,
    MedianAbsoluteDeviationFeature,
    VarianceFeature,
    empirical_detection_rate,
    evaluate_attack,
    extract_feature_samples,
    slice_into_samples,
    train_classifier,
)
from repro.adversary.detection import detection_rates, training_features
from repro.api import get_experiment
from repro.exceptions import AnalysisError
from repro.runner import run_cell
from repro.stats.descriptive import sample_mean, sample_variance
from repro.stats.entropy import moddemeijer_entropy, moddemeijer_entropy_rows
from repro.stats.kde import (
    GaussianKDE,
    kde_log_densities,
    scott_bandwidth,
    scott_bandwidths,
    silverman_bandwidth,
    silverman_bandwidths,
)

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


def reference_silverman(sample) -> float:
    """The 1-D Silverman rule as first written: ``np.std`` and ``np.percentile``."""
    array = np.asarray(sample, dtype=float)
    std = float(np.std(array, ddof=1))
    q75, q25 = np.percentile(array, [75.0, 25.0])
    candidates = [value for value in (std, float(q75 - q25) / 1.34) if value > 0.0]
    if not candidates:
        return 1e-12 * max(abs(float(np.mean(array))), 1.0)
    return 0.9 * min(candidates) * array.size ** (-0.2)


def reference_scott(sample) -> float:
    array = np.asarray(sample, dtype=float)
    std = float(np.std(array, ddof=1))
    if std == 0.0:
        return 1e-12 * max(abs(float(np.mean(array))), 1.0)
    return 1.06 * std * array.size ** (-0.2)


REFERENCE_RULES = {"silverman": reference_silverman, "scott": reference_scott}


def reference_logpdf(sample, bandwidth, points) -> np.ndarray:
    """One class's log-density as first written: a (points, sample) log-mean-exp."""
    z = (np.asarray(points, dtype=float)[:, None] - sample[None, :]) / bandwidth
    log_kernels = -0.5 * z**2 - 0.5 * np.log(2.0 * np.pi) - np.log(bandwidth)
    max_log = np.max(log_kernels, axis=1, keepdims=True)
    return max_log[:, 0] + np.log(np.mean(np.exp(log_kernels - max_log), axis=1))


def reference_posteriors(training, bandwidth, points, priors=None) -> np.ndarray:
    """The per-class oracle: one density per class, rows in sorted-label order."""
    labels = sorted(training)
    rows = []
    for label in labels:
        sample = np.asarray(training[label], dtype=float)
        if isinstance(bandwidth, str):
            h = REFERENCE_RULES[bandwidth](sample)
        else:
            h = float(bandwidth)
        prior = 1.0 / len(labels) if priors is None else priors[label]
        rows.append(reference_logpdf(sample, h, points) + float(np.log(prior)))
    return np.stack(rows)


@st.composite
def bandwidth_stacks(draw):
    """``(rows, n)`` stacks: normal rows, ties, constant rows, scales 1e-8..1e2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    rows = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-8, 2))
    kind = draw(st.sampled_from(["normal", "ties", "constant", "mixed"]))
    matrix = rng.normal(float(rng.normal(0.0, 10.0)), scale, (rows, n))
    if kind == "ties":
        matrix = np.round(matrix / scale * 2.0) * scale / 2.0
    elif kind == "constant":
        matrix[:] = matrix[:, :1]
    elif kind == "mixed":
        matrix[0] = matrix[0, 0]
        matrix[-1, : n // 2 + 1] = matrix[-1, 0]
    return matrix


class TestRowWiseBandwidths:
    @given(matrix=bandwidth_stacks())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_one_dimensional_rules(self, matrix):
        assert same_bits(
            silverman_bandwidths(matrix), [reference_silverman(row) for row in matrix]
        )
        assert same_bits(scott_bandwidths(matrix), [reference_scott(row) for row in matrix])
        assert same_bits(
            [silverman_bandwidth(row) for row in matrix],
            [reference_silverman(row) for row in matrix],
        )
        assert same_bits(
            [scott_bandwidth(row) for row in matrix], [reference_scott(row) for row in matrix]
        )

    @pytest.mark.parametrize(
        "row",
        [[1.0, 2.0], [3.0, 3.0], [0.0, 0.0], [-5.0, -5.0, -5.0], [1.0, 1.0, 1.0, 9.0],
         [1e-8, 2e-8, 2e-8, 2e-8, 3e-8], [100.0, 100.0, 250.0, 250.0]],
    )
    def test_small_and_degenerate_rows(self, row):
        matrix = np.array([row])
        assert same_bits(silverman_bandwidths(matrix), [reference_silverman(row)])
        assert same_bits(scott_bandwidths(matrix), [reference_scott(row)])
        assert silverman_bandwidths(matrix)[0] > 0.0

    def test_a_row_needs_two_observations(self):
        with pytest.raises(AnalysisError):
            silverman_bandwidths(np.zeros((3, 1)))
        with pytest.raises(AnalysisError):
            scott_bandwidth([1.0])


@st.composite
def stacked_training_sets(draw):
    """Two to five classes, equal or unequal sizes, with a bandwidth choice."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "10", "2"]), min_size=2,
                 max_size=5, unique=True)
    )
    equal = draw(st.booleans())
    n = draw(st.integers(2, 30))
    scale = 10.0 ** draw(st.integers(-6, 1))
    training = {}
    for label in labels:
        size = n if equal else draw(st.integers(2, 30))
        training[label] = rng.normal(float(rng.normal(0.0, 3.0)) * scale, scale, size)
    bandwidth = draw(st.sampled_from(["silverman", "scott", 0.5, 2.0]))
    if not isinstance(bandwidth, str):
        bandwidth *= scale
    points = rng.normal(0.0, 4.0 * scale, draw(st.integers(1, 40)))
    return training, bandwidth, points


class TestStackedClassifier:
    @given(case=stacked_training_sets())
    @settings(max_examples=150, deadline=None)
    def test_stacked_scores_match_the_per_class_oracle(self, case):
        training, bandwidth, points = case
        classifier = KDEBayesClassifier(bandwidth=bandwidth).fit(training)
        expected = reference_posteriors(training, bandwidth, points)
        assert same_bits(classifier.log_posterior_matrix(points), expected)
        kde_loop = np.stack(
            [
                GaussianKDE(training[label], bandwidth=bandwidth).logpdf(points)
                + float(np.log(1.0 / len(training)))
                for label in sorted(training)
            ]
        )
        assert same_bits(kde_loop, expected)
        winners = np.argmax(np.where(np.isnan(expected), -np.inf, expected), axis=0)
        assert np.array_equal(classifier.decide(points), winners)

    @given(case=stacked_training_sets())
    @settings(max_examples=40, deadline=None)
    def test_stacked_helper_rows_are_the_one_row_calls(self, case):
        training, _, points = case
        n = min(values.size for values in training.values())
        matrix = np.stack([training[label][:n] for label in sorted(training)])
        bandwidths = silverman_bandwidths(matrix)
        stacked = kde_log_densities(matrix[None], bandwidths[None], points)[0]
        for row, sample, h in zip(stacked, matrix, bandwidths):
            assert same_bits(row, kde_log_densities(sample[None, None, :], [[h]], points)[0, 0])

    def test_priors_enter_every_row(self):
        rng = np.random.default_rng(12)
        training = {label: rng.normal(i, 1.0, 25) for i, label in enumerate("abc")}
        priors = {"a": 0.2, "b": 0.5, "c": 0.3}
        points = np.linspace(-3.0, 5.0, 50)
        classifier = KDEBayesClassifier().fit(training, priors=priors)
        expected = reference_posteriors(training, "silverman", points, priors)
        assert same_bits(classifier.log_posterior_matrix(points), expected)

    def test_block_bound_does_not_change_values(self, monkeypatch):
        import repro.stats.kde as kde

        rng = np.random.default_rng(13)
        matrix = rng.normal(0.0, 1.0, (3, 40))
        points = rng.normal(0.0, 2.0, 500)
        bandwidths = scott_bandwidths(matrix)[None]
        whole = kde_log_densities(matrix[None], bandwidths, points)
        monkeypatch.setattr(kde, "_BLOCK_KERNELS", 7 * matrix.size)
        assert same_bits(kde_log_densities(matrix[None], bandwidths, points), whole)


def reference_detection(train, test, name, sample_size, trials):
    """``evaluate_attack`` as first written: oracle scores, list bookkeeping."""
    training = {
        label: reference_features(train[label], name, sample_size, max_samples=trials)
        for label in train
    }
    classes = sorted(training)
    labels = sorted(test)
    confusion, flags = {}, []
    for label in labels:
        values = reference_features(test[label], name, sample_size, max_samples=trials)
        scores = reference_posteriors(training, "silverman", values)
        predicted = np.argmax(np.where(np.isnan(scores), -np.inf, scores), axis=0)
        counts = np.bincount(predicted, minlength=len(classes))
        confusion[label] = {c: int(k) for c, k in zip(classes, counts)}
        truth = classes.index(label) if label in classes else -1
        flags.extend((predicted == truth).tolist())
    per_class = {
        label: confusion[label].get(label, 0) / sum(confusion[label].values())
        for label in labels
    }
    return float(np.mean(flags)), per_class, confusion, flags


class TestEvaluateAttack:
    @pytest.mark.parametrize("name", ["mean", "variance", "entropy"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(2, 4),
        sample_size=st.integers(5, 40),
        trials=st.integers(2, 12),
    )
    @settings(max_examples=25, deadline=None)
    def test_result_matches_the_reference_pipeline(
        self, name, seed, n_classes, sample_size, trials
    ):
        rng = np.random.default_rng(seed)
        feature, _ = FEATURES[name]
        labels = ["high", "low", "mid", "x"][:n_classes]
        scales = {label: 1e-4 * (1.0 + 0.3 * i) for i, label in enumerate(labels)}
        size = sample_size * trials

        def capture(label):
            draws = rng.normal(0.0, scales[label], size)
            return 0.01 + np.round(draws / BIN_WIDTH * 4) * BIN_WIDTH / 4

        train = {label: capture(label) for label in labels}
        test = {label: capture(label) for label in reversed(labels)}
        result = evaluate_attack(train, test, feature, sample_size, max_samples_per_class=trials)
        rate, per_class, confusion, flags = reference_detection(
            train, test, name, sample_size, trials
        )
        assert same_bits(result.detection_rate, rate)
        assert result.per_class_rates == per_class
        assert all(same_bits(result.per_class_rates[k], v) for k, v in per_class.items())
        assert result.confusion == confusion
        assert result.correct_flags == flags
        assert all(type(flag) is bool for flag in result.correct_flags)
        assert result.trials == len(flags)


@st.composite
def classifier_stacks(draw):
    """``(K, C, n)`` training stacks with rule bandwidths and ``(K, P)`` points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 40)))
    scale = 10.0 ** draw(st.integers(-6, 1))
    samples = rng.normal(0.0, scale, shape)
    if draw(st.booleans()):
        samples = np.round(samples / scale * 4.0) * scale / 4.0
    rule = draw(st.sampled_from([silverman_bandwidths, scott_bandwidths]))
    bandwidths = rule(samples.reshape(-1, shape[2])).reshape(shape[:2])
    points = rng.normal(0.0, 3.0 * scale, (shape[0], draw(st.integers(1, 50))))
    return samples, bandwidths, points


class TestClassifierBatchedKernel:
    @given(case=classifier_stacks(), budget=st.sampled_from([1, 7, 97, 1 << 13, 1 << 20]))
    @settings(max_examples=200, deadline=None)
    def test_batched_values_are_the_single_classifier_calls(self, case, budget):
        samples, bandwidths, points = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kde_module, "_BLOCK_KERNELS", budget)
            batched = kde_log_densities(samples, bandwidths, points)
        assert batched.shape == samples.shape[:2] + points.shape[1:]
        for k in range(samples.shape[0]):
            single = kde_log_densities(samples[k : k + 1], bandwidths[k : k + 1], points[k])
            assert same_bits(batched[k], single[0])
            for c in range(samples.shape[1]):
                oracle = reference_logpdf(samples[k, c], bandwidths[k, c], points[k])
                assert same_bits(batched[k, c], oracle)


def loop_rates(train, test, features, sample_sizes, trials, bandwidth):
    """The per-pair loop the batched pass replaces: one classifier per pair."""
    rates = {}
    for name, feature in features.items():
        for n in sample_sizes:
            if bandwidth == "silverman":
                result = evaluate_attack(train, test, feature, n, max_samples_per_class=trials)
            else:
                trained = training_features(train, feature, n, max_samples_per_class=trials)
                h = bandwidth
                if not isinstance(bandwidth, str):
                    pooled = np.concatenate([trained[label] for label in sorted(trained)])
                    h = bandwidth * silverman_bandwidth(pooled)
                classifier = KDEBayesClassifier(bandwidth=h).fit(trained)
                result = empirical_detection_rate(
                    classifier, test, feature, n, max_samples_per_class=trials
                )
            rates[name, n] = result.detection_rate
    return rates


def outcome(function, *args):
    """The rates, or the type and message of the error raised."""
    try:
        return function(*args)
    except AnalysisError as exc:
        return type(exc), str(exc)


def assert_same_outcome(train, test, features, sample_sizes, trials, bandwidth):
    args = (train, test, features, sample_sizes, trials, bandwidth)
    expected = outcome(loop_rates, *args)
    got = outcome(detection_rates, *args)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert list(got) == list(expected)
        assert all(same_bits(got[key], expected[key]) for key in expected)
    return got


@st.composite
def cell_cases(draw):
    """Captures of two or three rates, some short, some tied, and the attack's settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = draw(
        st.lists(st.sampled_from(["high", "low", "mid", "2", "10"]), min_size=2, max_size=3,
                 unique=True)
    )
    names = draw(st.lists(st.sampled_from(sorted(FEATURES)), min_size=1, max_size=3, unique=True))
    sample_sizes = draw(st.lists(st.integers(3, 30), min_size=1, max_size=3))
    trials = draw(st.integers(2, 8))
    full = max(sample_sizes) * trials

    def capture(index):
        # Most captures give every pair ``trials`` samples; some give fewer
        # (unequal class sizes), one or none (errors).
        length = draw(st.sampled_from([full, full, full + 7, full // 2 + 1, full // 5 + 2]))
        draws = rng.normal(0.0, 1e-4 * (1.0 + 0.4 * index), length)
        return 0.01 + np.round(draws / BIN_WIDTH * 4) * BIN_WIDTH / 4

    train = {label: capture(i) for i, label in enumerate(labels)}
    if draw(st.booleans()):
        train[labels[1]] = train[labels[0]].copy()  # exact ties everywhere
    test = {label: capture(i) for i, label in reversed(list(enumerate(labels)))}
    features = {name: FEATURES[name][0] for name in names}
    bandwidth = draw(st.sampled_from(["silverman", "scott", 0.5, 2.0]))
    return train, test, features, sample_sizes, trials, bandwidth


class TestDetectionRates:
    @given(case=cell_cases())
    @settings(max_examples=200, deadline=None)
    def test_rates_and_errors_match_the_per_pair_loop(self, case):
        assert_same_outcome(*case)

    @pytest.mark.parametrize("bandwidth", ["silverman", "scott", 0.5, 2.0])
    def test_unequal_class_sizes(self, bandwidth):
        rng = np.random.default_rng(21)
        train = {"low": rng.normal(0.01, 1e-4, 400), "high": rng.normal(0.01, 2e-4, 150)}
        test = {"low": rng.normal(0.01, 1e-4, 90), "high": rng.normal(0.01, 2e-4, 400)}
        features = {"variance": VarianceFeature(), "mean": MeanFeature()}
        rates = assert_same_outcome(train, test, features, (10, 20, 40), 12, bandwidth)
        assert len(rates) == 6

    def test_exact_ties_go_to_the_smallest_label(self):
        rng = np.random.default_rng(22)
        capture = rng.normal(0.01, 1e-4, 600)
        train = {"low": capture, "high": capture.copy()}
        test = {"low": rng.normal(0.01, 1e-4, 300), "high": rng.normal(0.01, 1e-4, 600)}
        rates = assert_same_outcome(train, test, {"mean": MeanFeature()}, (10, 30), 20, "silverman")
        # Every value ties and goes to "high": its 20 samples are right, the
        # 20 (n=10) or 10 (n=30) of "low" are wrong.
        assert rates == {("mean", 10): 20 / 40, ("mean", 30): 20 / 30}

    @pytest.mark.parametrize("order", [("mad", "mean"), ("mean", "mad")])
    def test_the_first_failing_pair_raises(self, order):
        # A NaN in the test capture leaves MAD with a value that has no
        # finite posterior (at decision time) and makes the mean refuse its
        # sample (at extraction time); whichever pair comes first wins.
        rng = np.random.default_rng(23)
        train = {"low": rng.normal(0.01, 1e-4, 400), "high": rng.normal(0.01, 2e-4, 400)}
        test = {"low": rng.normal(0.01, 1e-4, 400), "high": rng.normal(0.01, 2e-4, 400)}
        test["high"][5] = np.nan
        features = {name: FEATURES[name][0] for name in order}
        got = assert_same_outcome(train, test, features, (10, 20), 15, "silverman")
        assert got[0] is AnalysisError
        assert ("no finite posterior" in got[1]) == (order[0] == "mad")

    def test_a_class_with_fewer_than_two_training_samples(self):
        rng = np.random.default_rng(24)
        train = {"low": rng.normal(0.01, 1e-4, 400), "high": rng.normal(0.01, 2e-4, 45)}
        test = {"low": rng.normal(0.01, 1e-4, 400), "high": rng.normal(0.01, 2e-4, 400)}
        features = {"variance": VarianceFeature()}
        got = assert_same_outcome(train, test, features, (10, 30), 10, "silverman")
        assert got == (
            AnalysisError,
            "class 'high': only 1 training samples of size 30 could be formed; "
            "capture more traffic",
        )

    def test_a_non_positive_multiplier_is_refused(self):
        rng = np.random.default_rng(25)
        train = {"low": rng.normal(0.01, 1e-4, 100), "high": rng.normal(0.01, 2e-4, 100)}
        with pytest.raises(AnalysisError, match="bandwidth must be positive"):
            detection_rates(train, train, {"mean": MeanFeature()}, (10,), 5, 0.0)


class TestOnePassPerCell:
    def test_a_fig4_cell_scores_every_classifier_in_one_kde_call(self, monkeypatch):
        calls = []
        kernel = kde_module.kde_log_densities

        def counting(samples, bandwidths, points):
            calls.append(samples.shape)
            return kernel(samples, bandwidths, points)

        for module in (kde_module, bayes_module, detection_module):
            monkeypatch.setattr(module, "kde_log_densities", counting)
        [cell] = get_experiment("fig4", "smoke", 2003).cells()
        result = run_cell(cell)
        pairs = len(cell.features) * len(cell.sample_sizes)
        assert pairs == 6
        assert sum(len(by_n) for by_n in result.empirical_detection_rate.values()) == pairs
        # One class-size group, so one call holding all six classifiers.
        assert calls == [(pairs, 2, cell.trials)]

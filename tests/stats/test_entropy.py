"""Tests for entropy estimators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AnalysisError
from repro.stats import histogram_entropy, moddemeijer_entropy, normal_differential_entropy
from repro.stats.entropy import moddemeijer_entropy_rows

BIN_WIDTH = 5e-5


class TestNormalDifferentialEntropy:
    def test_standard_normal_value(self):
        # 0.5 * ln(2 pi e) ~= 1.4189
        assert normal_differential_entropy(1.0) == pytest.approx(1.41894, abs=1e-4)

    def test_monotone_in_variance(self):
        assert normal_differential_entropy(4.0) > normal_differential_entropy(1.0)

    def test_invalid_variance(self):
        with pytest.raises(AnalysisError):
            normal_differential_entropy(0.0)


class TestHistogramEntropy:
    def test_estimates_normal_entropy(self, rng):
        sigma = 2.0
        data = rng.normal(0.0, sigma, size=100_000)
        estimate = histogram_entropy(data, bin_width=0.05, include_bin_width_term=True)
        assert estimate == pytest.approx(normal_differential_entropy(sigma**2), abs=0.05)

    def test_estimates_uniform_entropy(self, rng):
        # Uniform on [0, 4]: differential entropy = ln(4)
        data = rng.uniform(0.0, 4.0, size=100_000)
        estimate = histogram_entropy(data, bin_width=0.05, include_bin_width_term=True)
        assert estimate == pytest.approx(np.log(4.0), abs=0.05)

    def test_bin_width_term_is_additive_constant(self, rng):
        data = rng.normal(size=5000)
        with_term = histogram_entropy(data, bin_width=0.1, include_bin_width_term=True)
        without = histogram_entropy(data, bin_width=0.1, include_bin_width_term=False)
        assert with_term - without == pytest.approx(np.log(0.1))

    def test_degenerate_sample(self):
        data = np.full(100, 2.5)
        assert histogram_entropy(data, bin_width=0.1, include_bin_width_term=False) == 0.0

    def test_automatic_binning(self, rng):
        data = rng.normal(size=2000)
        value = histogram_entropy(data)
        assert np.isfinite(value)

    def test_validation(self, rng):
        data = rng.normal(size=100)
        with pytest.raises(AnalysisError):
            histogram_entropy(data, bin_width=0.1, bins=10)
        with pytest.raises(AnalysisError):
            histogram_entropy(data, bin_width=-0.1)
        with pytest.raises(AnalysisError):
            histogram_entropy([1.0])
        with pytest.raises(AnalysisError):
            histogram_entropy(np.array([[1.0, 2.0]]))
        with pytest.raises(AnalysisError):
            histogram_entropy([1.0, np.inf])


class TestModdemeijerEntropy:
    def test_distinguishes_variances(self, rng):
        """Larger spread -> larger histogram entropy (the attack's core signal)."""
        bin_width = 0.01
        narrow = moddemeijer_entropy(rng.normal(0.0, 0.05, size=2000), bin_width)
        wide = moddemeijer_entropy(rng.normal(0.0, 0.10, size=2000), bin_width)
        assert wide > narrow

    def test_robust_to_a_single_outlier(self, rng):
        """An extreme outlier barely moves the entropy but inflates the variance."""
        bin_width = 0.01
        base = rng.normal(0.0, 0.05, size=2000)
        polluted = np.concatenate([base, [50.0]])
        entropy_shift = abs(
            moddemeijer_entropy(polluted, bin_width) - moddemeijer_entropy(base, bin_width)
        )
        variance_ratio = np.var(polluted, ddof=1) / np.var(base, ddof=1)
        assert entropy_shift < 0.05       # entropy: essentially unchanged
        assert variance_ratio > 100.0     # variance: catastrophically inflated

    def test_scale_equivariance_through_bins(self, rng):
        """Doubling both the data spread and the bin width leaves the estimate unchanged."""
        data = rng.normal(0.0, 1.0, size=5000)
        a = moddemeijer_entropy(data, 0.05)
        b = moddemeijer_entropy(2.0 * data, 0.10)
        assert a == pytest.approx(b, abs=0.05)

    @given(scale=st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_entropy_increases_with_scale(self, scale):
        rng = np.random.default_rng(42)
        data = rng.normal(0.0, 1.0, size=3000)
        narrow = moddemeijer_entropy(data, 0.05)
        wide = moddemeijer_entropy(data * (1.0 + scale), 0.05)
        assert wide > narrow


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def entropy_rows(draw):
    """Rows in each of ``np.sum``'s pairwise regimes (< 8, 8-128 and > 128
    occupied bins), rows with an outlier thousands of bins away and rows
    lying exactly on bin edges."""
    size = draw(st.integers(100, 2000))
    n_rows = draw(st.integers(1, 5))
    rows = []
    for _ in range(n_rows):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["few", "mid", "many", "outlier", "edges"]))
        low = float(rng.normal(0.01, 1e-3))
        if kind == "edges":
            # low itself is edge 0, so every value is one of the row's edges.
            steps = rng.integers(0, draw(st.integers(1, 300)), size)
            steps[0] = 0
            rows.append(low + BIN_WIDTH * steps.astype(float))
            continue
        if kind == "outlier":
            row = rng.normal(low, 2e-4, size)
            row[rng.integers(0, size, draw(st.integers(1, 3)))] = low + draw(
                st.floats(0.1, 0.5)
            )
            rows.append(row)
            continue
        bounds = {"few": (1, 7), "mid": (8, 128), "many": (129, 2000)}[kind]
        n_bins = draw(st.integers(bounds[0], max(bounds[0], min(bounds[1], size))))
        position = rng.integers(0, n_bins, size) + rng.uniform(0.05, 0.95, size)
        rows.append(low + BIN_WIDTH * position)
    return np.stack(rows)


class TestModdemeijerEntropyRows:
    """The one-pass row kernel against the 1-D ``np.histogram`` reference."""

    @given(rows=entropy_rows())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_one_dimensional_estimator(self, rows):
        expected = [moddemeijer_entropy(row, BIN_WIDTH) for row in rows]
        assert _bits(moddemeijer_entropy_rows(rows, BIN_WIDTH)) == _bits(expected)

    def test_reduceat_after_a_zero_slot_is_the_one_dimensional_sum(self):
        """The kernel's summation rests on this numpy property: it pins it for
        segments of 1-1,100 terms, across all of ``np.sum``'s pairwise
        regimes, so that a numpy release that breaks it fails here."""
        rng = np.random.default_rng(42)
        lengths = np.arange(1, 1101)
        segments = [rng.uniform(-0.37, 0.0, n) * 10.0 ** rng.uniform(-6.0, 0.0, n) for n in lengths]
        flat = np.concatenate([np.concatenate(([0.0], terms)) for terms in segments])
        starts = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
        expected = [np.sum(terms) for terms in segments]
        assert _bits(np.add.reduceat(flat, starts)) == _bits(expected)

    @pytest.mark.parametrize(
        "rows, bin_width, message",
        [
            (np.array([np.nan, 1.0]), -1.0, "expects a 2-D matrix"),
            (np.full((3, 1), np.nan), -1.0, "at least 2 observations"),
            (np.array([[1.0, np.nan], [1.0, 2.0]]), -1.0, "non-finite"),
            (np.array([[1.0, 2.0], [np.inf, 2.0]]), 1.0, "non-finite"),
            (np.array([[1.0, 2.0], [-np.inf, 2.0]]), 1.0, "non-finite"),
            (np.empty((0, 4)), 0.0, "bin_width must be positive"),
        ],
    )
    def test_errors_keep_their_precedence(self, rows, bin_width, message):
        with pytest.raises(AnalysisError, match=message):
            moddemeijer_entropy_rows(rows, bin_width)

    def test_an_empty_matrix_has_no_entropies(self):
        assert moddemeijer_entropy_rows(np.empty((0, 4)), BIN_WIDTH).shape == (0,)

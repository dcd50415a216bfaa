"""Statistics toolbox shared by the adversary and the analysis code.

* :mod:`repro.stats.descriptive` — sample mean/variance and friends with the
  exact conventions used by the paper (unbiased sample variance, etc.).
* :mod:`repro.stats.kde` — Gaussian kernel density estimation with Silverman
  and Scott bandwidth rules; the paper's adversary uses a Gaussian kernel
  estimator to model the feature PDFs during off-line training.
* :mod:`repro.stats.entropy` — histogram-based differential entropy
  estimators, including the Moddemeijer estimator the paper adopts for its
  robustness to outliers.
* :mod:`repro.stats.normality` — diagnostics used to validate the paper's
  Gaussian PIAT assumption on simulated traces.
* :mod:`repro.stats.bootstrap` — bootstrap confidence intervals for the
  empirical detection-rate estimates reported by the experiments.
"""

# np.percentile (bootstrap bands, descriptive summaries, the Silverman and
# IQR statistics) imports numpy.ma on its first call.  Load it with the
# package so that one-off cost stays in start-up, not in the first attack.
import numpy.ma  # noqa: F401

from repro.stats.bootstrap import bootstrap_ci, bootstrap_detection_rate_ci
from repro.stats.descriptive import (
    coefficient_of_variation,
    sample_mean,
    sample_moments,
    sample_variance,
    standard_error_of_mean,
    summarize,
)
from repro.stats.entropy import (
    histogram_entropy,
    moddemeijer_entropy,
    moddemeijer_entropy_rows,
    normal_differential_entropy,
)
from repro.stats.kde import GaussianKDE, scott_bandwidth, silverman_bandwidth
from repro.stats.normality import jarque_bera_normality, normality_report, qq_deviation

__all__ = [
    "sample_mean",
    "sample_variance",
    "sample_moments",
    "standard_error_of_mean",
    "coefficient_of_variation",
    "summarize",
    "GaussianKDE",
    "silverman_bandwidth",
    "scott_bandwidth",
    "histogram_entropy",
    "moddemeijer_entropy",
    "moddemeijer_entropy_rows",
    "normal_differential_entropy",
    "jarque_bera_normality",
    "qq_deviation",
    "normality_report",
    "bootstrap_ci",
    "bootstrap_detection_rate_ci",
]

"""KDE-based Bayes classifier (off-line training, run-time classification).

Section 3.3 of the paper: during off-line training the adversary reconstructs
the padding system, collects labelled feature samples for every candidate
payload rate, estimates the conditional feature PDFs ``f(s | omega_i)`` with a
Gaussian kernel estimator, and derives Bayes decision rules

``decide omega_i  if  f(s | omega_i) P(omega_i) >= f(s | omega_j) P(omega_j)``
for all ``j`` (equation (2)).

At run time each feature value computed from a captured PIAT sample is
pushed through the rules; :meth:`KDEBayesClassifier.decide` does so for a
whole array of values at once.  The classifier below is agnostic to the
number of classes, so the two-rate evaluation and the Section 6 multi-rate
extension use the same code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import AnalysisError, NotFittedError, TrainingError
from repro.stats.kde import GaussianKDE


class KDEBayesClassifier:
    """Bayes decision rules over Gaussian-KDE class-conditional densities.

    Parameters
    ----------
    bandwidth:
        Bandwidth rule or value forwarded to
        :class:`repro.stats.kde.GaussianKDE` ("silverman" by default, the
        estimator referenced by the paper).
    """

    def __init__(self, bandwidth="silverman") -> None:
        self.bandwidth = bandwidth
        self._densities: Dict[str, GaussianKDE] = {}
        self._log_priors: Dict[str, float] = {}
        self._labels: List[str] = []

    # ------------------------------------------------------------- training
    def fit(
        self,
        training_features: Mapping[str, Sequence[float]],
        priors: Optional[Mapping[str, float]] = None,
    ) -> "KDEBayesClassifier":
        """Off-line training.

        Parameters
        ----------
        training_features:
            Mapping from class label (e.g. ``"low"``/``"high"`` or the rate in
            pps) to the labelled feature values collected for that class.
        priors:
            A-priori class probabilities ``P(omega_i)``.  Defaults to equal
            priors, the paper's evaluation setting.  They must sum to 1.

        Returns
        -------
        self, to allow ``classifier = KDEBayesClassifier().fit(...)``.
        """
        if len(training_features) < 2:
            raise TrainingError("need at least two classes to train a classifier")
        labels = [str(label) for label in training_features]
        if len(set(labels)) != len(labels):
            raise TrainingError("duplicate class labels in training data")

        if priors is None:
            prior_map = {label: 1.0 / len(labels) for label in labels}
        else:
            prior_map = {str(label): float(p) for label, p in priors.items()}
            if set(prior_map) != set(labels):
                raise TrainingError("priors must be given for exactly the training classes")
            if any(p <= 0.0 for p in prior_map.values()):
                raise TrainingError("priors must be strictly positive")
            total = sum(prior_map.values())
            if not np.isclose(total, 1.0, atol=1e-9):
                raise TrainingError(f"priors must sum to 1, got {total}")

        densities: Dict[str, GaussianKDE] = {}
        for label, values in training_features.items():
            sample = np.asarray(list(values), dtype=float)
            if sample.size < 2:
                raise TrainingError(
                    f"class {label!r} has only {sample.size} training samples; need >= 2"
                )
            if not np.all(np.isfinite(sample)):
                raise TrainingError(f"class {label!r} contains non-finite feature values")
            densities[str(label)] = GaussianKDE(sample, bandwidth=self.bandwidth)

        self._densities = densities
        self._log_priors = {label: float(np.log(prior_map[label])) for label in labels}
        self._labels = sorted(labels)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return bool(self._densities)

    @property
    def labels(self) -> List[str]:
        """Class labels known to the classifier (sorted)."""
        self._require_fitted()
        return list(self._labels)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("classifier has not been trained; call fit() first")

    # --------------------------------------------------------- classification
    def log_posterior_matrix(
        self, feature_values: Union[Sequence[float], np.ndarray]
    ) -> np.ndarray:
        """``log f(s|omega) + log P(omega)`` as a ``(n_classes, n_values)`` matrix.

        Rows follow :attr:`labels`; each class density is evaluated once, on
        every value.
        """
        self._require_fitted()
        values = np.asarray(feature_values, dtype=float).reshape(-1)
        return np.stack(
            [
                self._densities[label].logpdf(values) + self._log_priors[label]
                for label in self._labels
            ]
        )

    def decide(self, feature_values: Union[Sequence[float], np.ndarray]) -> np.ndarray:
        """Index into :attr:`labels` of the Bayes decision for every feature value.

        A value goes to the first class, in sorted-label order, whose log
        posterior is the largest; a NaN log posterior never wins.  Ties thus
        go to the lexicographically smallest label, which keeps repeated runs
        identical.
        """
        values = np.asarray(feature_values, dtype=float).reshape(-1)
        scores = self.log_posterior_matrix(values)
        scores[np.isnan(scores)] = -np.inf
        winners = np.argmax(scores, axis=0)
        undecided = scores.max(axis=0, initial=-np.inf) == -np.inf
        if undecided.any():
            value = values[undecided][0]
            raise AnalysisError(
                f"feature value {float(value)!r} has no finite posterior under any class"
            )
        return winners

    def log_posteriors(self, feature_value: float) -> Dict[str, float]:
        """Unnormalised log posteriors ``log f(s|omega) + log P(omega)`` per class."""
        column = self.log_posterior_matrix([float(feature_value)])[:, 0]
        return {label: float(value) for label, value in zip(self._labels, column)}

    def posterior_probabilities(self, feature_value: float) -> Dict[str, float]:
        """Normalised posterior probabilities ``P(omega | s)`` per class."""
        log_posteriors = self.log_posteriors(feature_value)
        values = np.array(list(log_posteriors.values()))
        values -= values.max()
        weights = np.exp(values)
        weights /= weights.sum()
        return {label: float(w) for label, w in zip(log_posteriors.keys(), weights)}

    def classify(self, feature_value: float) -> str:
        """Apply the Bayes decision rule (:meth:`decide`) to a single feature value."""
        return self._labels[self.decide([float(feature_value)])[0]]

    def classify_many(self, feature_values: Iterable[float]) -> List[str]:
        """Classify a sequence of feature values in one batched decision."""
        values = np.fromiter(feature_values, dtype=float)
        return [self._labels[index] for index in self.decide(values)]

    def decision_threshold(self, label_a: str, label_b: str, grid_points: int = 4001) -> float:
        """Approximate the boundary ``d`` where the two posteriors cross (Figure 2).

        Only meaningful for one-dimensional features with a single crossing,
        which holds for the Gaussian-like feature distributions in this
        problem.  Used by reports to visualise the decision geometry.
        """
        self._require_fitted()
        for label in (label_a, label_b):
            if label not in self._densities:
                raise TrainingError(f"unknown class label {label!r}")
        lows, highs = [], []
        for label in (label_a, label_b):
            grid = self._densities[label].grid(64)
            lows.append(grid[0])
            highs.append(grid[-1])
        grid = np.linspace(min(lows), max(highs), grid_points)
        diff = (
            self._densities[label_a].logpdf(grid) + self._log_priors[label_a]
            - self._densities[label_b].logpdf(grid) - self._log_priors[label_b]
        )
        sign_changes = np.where(np.diff(np.sign(diff)) != 0)[0]
        if sign_changes.size == 0:
            raise TrainingError(
                "posteriors never cross on the evaluation grid; classes may be "
                "perfectly separated or identical"
            )
        index = sign_changes[0]
        return float(0.5 * (grid[index] + grid[index + 1]))


__all__ = ["KDEBayesClassifier"]

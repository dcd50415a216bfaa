"""KDE-based Bayes classifier (off-line training, run-time classification).

Section 3.3 of the paper: during off-line training the adversary reconstructs
the padding system, collects labelled feature samples for every candidate
payload rate, estimates the conditional feature PDFs ``f(s | omega_i)`` with a
Gaussian kernel estimator, and derives Bayes decision rules

``decide omega_i  if  f(s | omega_i) P(omega_i) >= f(s | omega_j) P(omega_j)``
for all ``j`` (equation (2)).

At run time each feature value computed from a captured PIAT sample is
pushed through the rules.  :func:`training_rows` (the checks of ``fit``)
and :func:`bayes_decisions` (the rule on stacked log posteriors) are
shared with the per-cell attack of
:func:`repro.adversary.detection.detection_rates`, which scores many
classifiers at once; :class:`KDEBayesClassifier` is the one-classifier
form, agnostic to the number of classes (two rates or Section 6's many).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import AnalysisError, NotFittedError, TrainingError
from repro.stats.kde import kde_log_densities, rule_bandwidths


def training_rows(
    training_features: Mapping[str, Sequence[float]],
    priors: Optional[Mapping[str, float]] = None,
) -> Tuple[List[str], List[np.ndarray], np.ndarray]:
    """Sorted labels, their training rows and log priors, as checked by ``fit``."""
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
    samples: Dict[str, np.ndarray] = {}
    for label, values in training_features.items():
        sample = np.asarray(values if isinstance(values, np.ndarray) else list(values), float)
        if sample.ndim != 1:
            raise TrainingError(f"class {label!r} training features must be one-dimensional")
        if sample.size < 2:
            raise TrainingError(
                f"class {label!r} has only {sample.size} training samples; need >= 2"
            )
        if not np.isfinite(sample).all():
            raise TrainingError(f"class {label!r} contains non-finite feature values")
        samples[str(label)] = sample

    ordered = sorted(labels)
    return ordered, [samples[label] for label in ordered], np.log([prior_map[k] for k in ordered])


def bayes_decisions(scores: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the first largest of the ``(..., classes, values)`` log posteriors.

    A NaN never wins; the first of ``values`` (``scores`` without the class
    axis) with no finite posterior raises :class:`AnalysisError`.
    """
    scores = np.where(np.isnan(scores), -np.inf, scores)
    winners = np.argmax(scores, axis=-2)
    undecided = scores.max(axis=-2, initial=-np.inf) == -np.inf
    if undecided.any():
        value = float(values[undecided][0])
        raise AnalysisError(f"feature value {value!r} has no finite posterior under any class")
    return winners


class KDEBayesClassifier:
    """Bayes decision rules over Gaussian-KDE class-conditional densities.

    Parameters
    ----------
    bandwidth:
        Bandwidth rule (``"silverman"`` by default, the estimator referenced
        by the paper, or ``"scott"``) or one positive bandwidth for every
        class; see :func:`repro.stats.kde.rule_bandwidths`.
    """

    def __init__(self, bandwidth="silverman") -> None:
        self.bandwidth = bandwidth
        # (samples matrix, bandwidths) groups whose rows follow ``_labels``:
        # one group when every class has the same size (the sweep paths,
        # where ``trials`` caps every class), else one ``(1, n)`` row each.
        self._groups: List[Tuple[np.ndarray, np.ndarray]] = []
        self._log_priors = np.empty(0)
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
        self._labels, rows, self._log_priors = training_rows(training_features, priors)
        if len({row.size for row in rows}) == 1:
            matrices = [np.stack(rows)]
        else:
            matrices = [row[None, :] for row in rows]
        self._groups = [(m, rule_bandwidths(m, self.bandwidth)) for m in matrices]
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return bool(self._labels)

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

        Rows follow :attr:`labels`; every class density is evaluated on every
        value in one stacked call (one per class when class sizes differ).
        """
        self._require_fitted()
        values = np.asarray(feature_values, dtype=float).reshape(-1)
        blocks = [kde_log_densities(m[None], h[None], values)[0] for m, h in self._groups]
        log_densities = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return log_densities + self._log_priors[:, None]

    def decide(self, feature_values: Union[Sequence[float], np.ndarray]) -> np.ndarray:
        """Index into :attr:`labels` of the Bayes decision for every feature value.

        A value goes to the first class, in sorted-label order, whose log
        posterior is the largest; a NaN log posterior never wins.  Ties thus
        go to the lexicographically smallest label, which keeps repeated runs
        identical.
        """
        values = np.asarray(feature_values, dtype=float).reshape(-1)
        return bayes_decisions(self.log_posterior_matrix(values), values)

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
            if label not in self._labels:
                raise TrainingError(f"unknown class label {label!r}")
        rows = [self._labels.index(label) for label in (label_a, label_b)]
        classes = [pair for matrix, h in self._groups for pair in zip(matrix, h)]
        # Both classes' samples plus three bandwidths on either side.
        low = min(classes[r][0].min() - 3.0 * classes[r][1] for r in rows)
        high = max(classes[r][0].max() + 3.0 * classes[r][1] for r in rows)
        grid = np.linspace(low, high, grid_points)
        scores = self.log_posterior_matrix(grid)
        diff = scores[rows[0]] - scores[rows[1]]
        sign_changes = np.where(np.diff(np.sign(diff)) != 0)[0]
        if sign_changes.size == 0:
            raise TrainingError(
                "posteriors never cross on the evaluation grid; classes may be "
                "perfectly separated or identical"
            )
        index = sign_changes[0]
        return float(0.5 * (grid[index] + grid[index + 1]))


__all__ = ["KDEBayesClassifier", "bayes_decisions", "training_rows"]

"""Paper-preset shape checks of the three ablation experiments.

Each test runs a registered ablation at its ``paper`` preset, the grid
``repro run <name> --preset paper --seed <seed>`` runs, and asserts the shape
the ablation exists to show.
"""

from __future__ import annotations

from repro.api import get_experiment, run_experiment


def test_estimator_settings_ablation():
    """Figure 4's scenario under other entropy bin widths and KDE bandwidth rules:
    variance/entropy succeeding is not an artefact of one estimator setting."""
    experiment = get_experiment("ablation_estimators", preset="paper", seed=17)
    result = run_experiment(experiment).result

    # The attack succeeds across a decade of bin widths and bandwidth choices.
    bin_rates = list(result.detection_rate_by_bin_width.values())
    assert sum(rate > 0.85 for rate in bin_rates) >= 3
    assert all(rate > 0.85 for rate in result.detection_rate_by_bandwidth.values())


def test_tap_position_ablation():
    """Detection against the number of loaded hops between gateway and tap."""
    result = run_experiment(get_experiment("ablation_tap", preset="paper", seed=23)).result

    variance = result.empirical_detection_rate["variance"]
    # Detection is best right at the gateway and degrades with distance...
    assert variance[0] > variance[15] - 0.05
    assert variance[0] > 0.9
    # ...but a moderate number of loaded hops does not push it to the floor,
    # which is the paper's warning about relying on network noise.
    assert result.empirical_detection_rate["entropy"][3] > 0.6


def test_vit_distribution_family_ablation():
    """Figure 5's sigma_T = 0.3 ms point under four VIT interval families at the
    same (tau, sigma_T): the defence needs variance, not a particular shape."""
    experiment = get_experiment("ablation_vit", preset="paper", seed=7)
    result = run_experiment(experiment).result

    # Every family with the same sigma_T suppresses the attack comparably.
    for family in experiment.config.families:
        assert result.empirical_detection_rate["variance"][family] < 0.75
        assert result.empirical_detection_rate["entropy"][family] < 0.75

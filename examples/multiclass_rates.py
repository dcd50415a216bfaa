#!/usr/bin/env python
"""Extension: distinguishing more than two payload rates (Section 6).

The paper evaluates a two-rate system and notes that the attack extends to
multiple rates with more off-line training.  This example builds a four-rate
scenario (10 / 20 / 40 / 80 pps), trains the KDE Bayes classifier on padded
captures of each rate, and prints the confusion matrix and per-rate detection
rates under CIT and VIT padding.

The captures are simulated by the capture kernel (one sender gateway per
payload rate, tap at the gateway's output), so the payload-rate-dependent
gateway jitter the attack relies on is mechanistic, not assumed.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.detection import empirical_detection_rate, train_classifier
from repro.adversary.features import VarianceFeature
from repro.adversary.multiclass import random_guessing_rate
from repro.experiments.base import ScenarioConfig, simulate_gateway_capture
from repro.experiments.report import format_table
from repro.padding.policies import PaddingPolicy, cit_policy, vit_policy
from repro.sim.random import RandomStreams

RATES_PPS = (10.0, 20.0, 40.0, 80.0)
SAMPLE_SIZE = 1000
TRIALS = 12
SEED = 99


def capture(policy: PaddingPolicy, seed_offset: str) -> dict:
    """Simulate the padded link once per payload rate and return PIAT captures."""
    scenario = ScenarioConfig(
        policy=policy, low_rate_pps=min(RATES_PPS), high_rate_pps=max(RATES_PPS)
    )
    streams = RandomStreams(seed=SEED)
    return {
        f"{rate:.0f}pps": simulate_gateway_capture(
            scenario,
            payload_rate_pps=rate,
            n_intervals=SAMPLE_SIZE * TRIALS,
            streams=streams,
            label=f"{seed_offset}-{rate:.0f}pps",
            with_network=False,
        )
        for rate in RATES_PPS
    }


def evaluate(policy: PaddingPolicy) -> None:
    print(f"--- {policy.describe()} ---")
    feature = VarianceFeature()
    train = capture(policy, "train")
    test = capture(policy, "test")
    classifier = train_classifier(train, feature, SAMPLE_SIZE, max_samples_per_class=TRIALS)
    result = empirical_detection_rate(
        classifier, test, feature, SAMPLE_SIZE, max_samples_per_class=TRIALS
    )

    labels = sorted(result.confusion)
    rows = [
        (true, *[result.confusion[true][predicted] for predicted in labels])
        for true in labels
    ]
    print(format_table(["true \\ predicted"] + labels, rows))
    print()
    print(
        format_table(
            ["payload rate", "detection rate"],
            sorted(result.per_class_rates.items()),
        )
    )
    print(
        f"overall detection rate: {result.detection_rate:.2f} "
        f"(random guessing among {len(RATES_PPS)} rates: "
        f"{random_guessing_rate(len(RATES_PPS)):.2f})\n"
    )


def main() -> None:
    np.set_printoptions(precision=3)
    print(f"Four payload rates: {RATES_PPS} pps, sample size {SAMPLE_SIZE}\n")
    evaluate(cit_policy())
    evaluate(vit_policy(sigma_t=1e-3))
    print(
        "CIT padding leaks enough for the adversary to tell four rates apart far\n"
        "better than chance; VIT padding pushes the confusion matrix back toward\n"
        "uniform — the Section 6 extension behaves exactly like the two-rate case."
    )


if __name__ == "__main__":
    main()

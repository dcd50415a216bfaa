#!/usr/bin/env python
"""A day in the life of a remote adversary (the Figure 8 scenario).

The padded stream crosses either a campus network (3 routers, light diurnal
load) or a WAN path (15 routers, heavier load); the adversary taps right in
front of the receiver gateway and classifies the hidden payload rate once
every two hours through a full day.

The example prints the hourly detection rates for both environments and then
asks the design question the paper ends with: given how well the remote
attack still works against CIT padding, what VIT setting would have been
needed to keep the adversary near coin-flipping even at the quietest hour?
"""

from __future__ import annotations

from repro.api import run_experiment
from repro.core.guidelines import recommend_policy, safe_observation_budget
from repro.experiments.base import CollectionMode
from repro.experiments.fig8 import Fig8Config, Fig8Experiment
from repro.padding.policies import cit_policy


def main() -> None:
    config = Fig8Config(
        networks=("campus", "wan"),
        hours=tuple(range(0, 24, 2)),
        sample_size=1000,
        trials=15,
        mode=CollectionMode.HYBRID,
    )
    print("Simulating 24 hours of observations over the campus and WAN paths...")
    result = run_experiment(Fig8Experiment(config)).result
    print(result.to_text())

    for network in config.networks:
        variance_rates = result.empirical_detection_rate[network]["variance"]
        quiet_hour = min(result.utilizations[network], key=result.utilizations[network].get)
        busy_hour = max(result.utilizations[network], key=result.utilizations[network].get)
        print(
            f"{network:>6}: detection (variance feature) {variance_rates[quiet_hour]:.0%} at "
            f"{quiet_hour:02d}:00 (quiet) vs {variance_rates[busy_hour]:.0%} at "
            f"{busy_hour:02d}:00 (busy)"
        )

    print()
    print("Design response (Section 6 guidance):")
    budget_cit = safe_observation_budget(cit_policy(), max_detection_rate=0.6)
    print(
        f"  With CIT padding the adversary needs only ~{budget_cit:.0f} intervals "
        f"(~{budget_cit * 0.01:.0f} s of traffic) to exceed a 60% detection rate."
    )
    guideline = recommend_policy(max_detection_rate=0.6, max_observable_sample=10_000_000)
    print("  Recommended configuration for a 60% detection-rate budget against an")
    print("  adversary who can collect up to 1e7 intervals at one payload rate:")
    for line in guideline.summary().splitlines():
        print("    " + line)


if __name__ == "__main__":
    main()

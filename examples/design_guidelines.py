#!/usr/bin/env python
"""Design guidelines: configuring a link-padding system for a security budget.

The paper's goal is to give a manager the tools to "properly configure a
system in order to minimize the detection rate".  This example plays the
manager's role:

1. audit the default CIT configuration — how quickly does the attack succeed,
   and how does that change with the adversary's vantage point?
2. ask the analytical framework for the VIT setting that keeps the worst-case
   detection rate under a budget, for several assumptions about how much
   traffic the adversary can observe at a single payload rate;
3. show the bandwidth/latency price of padding, which is what the operator is
   trading against.

Everything here uses the closed-form framework (no simulation), so it runs in
well under a second — the point of having closed forms.
"""

from __future__ import annotations

from repro.core.guidelines import (
    padding_bandwidth_overhead,
    recommend_policy,
    safe_observation_budget,
)
from repro.core.model import GaussianPIATModel
from repro.core.sample_size import sample_size_for_detection
from repro.experiments.report import format_table
from repro.network.delay_models import path_piat_variance
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import cit_policy, vit_policy
from repro.units import PAPER_HIGH_RATE_PPS, PAPER_LOW_RATE_PPS


def audit_cit() -> None:
    print("1. Auditing the common configuration (CIT, 10 ms timer)")
    print("   ----------------------------------------------------")
    disturbance = InterruptDisturbance()
    rows = []
    for label, hops, utilization in (
        ("tap at the sender gateway", 0, 0.0),
        ("behind 1 router at 20% load", 1, 0.2),
        ("behind 15 routers at 25% load", 15, 0.25),
    ):
        net_variance = (
            path_piat_variance([utilization] * hops, [512 * 8 / 80e6] * hops) if hops else 0.0
        )
        model = GaussianPIATModel.from_system(
            cit_policy(),
            disturbance,
            path_utilizations=[utilization] * hops,
            hop_service_time=512 * 8 / 80e6,
        )
        needed = sample_size_for_detection(0.9, model.variance_ratio, feature="entropy")
        rows.append((label, model.variance_ratio, needed, needed * 0.01))
        del net_variance
    print(
        format_table(
            ["adversary position", "r", "intervals for 90% detection", "seconds of traffic"],
            rows,
        )
    )
    print()


def recommend() -> None:
    print("2. Choosing a VIT configuration for a detection-rate budget of 60%")
    print("   ----------------------------------------------------------------")
    rows = []
    for observable in (100_000, 10_000_000, 1_000_000_000):
        guideline = recommend_policy(max_detection_rate=0.6, max_observable_sample=observable)
        rows.append(
            (
                f"{observable:.0e} intervals",
                guideline.policy.sigma_t * 1e3,
                guideline.worst_case_detection,
                guideline.attack_sample_for_99pct,
            )
        )
    print(
        format_table(
            [
                "adversary observation budget",
                "recommended sigma_T (ms)",
                "worst-case detection",
                "sample needed for 99%",
            ],
            rows,
        )
    )
    print()


def price() -> None:
    print("3. The price of padding")
    print("   ---------------------")
    policy = vit_policy(sigma_t=1e-3)
    rows = [
        (
            f"{rate:.0f} pps payload",
            padding_bandwidth_overhead(rate, policy.padded_rate_pps),
            safe_observation_budget(policy, max_detection_rate=0.6),
        )
        for rate in (PAPER_LOW_RATE_PPS, PAPER_HIGH_RATE_PPS)
    ]
    print(
        format_table(
            ["payload rate", "dummy fraction of padded stream", "safe observation budget (intervals)"],
            rows,
        )
    )
    print(
        "\nThe dummy overhead is the cost of rate camouflage; the safe observation\n"
        "budget is what it buys.  VIT padding with sigma_T = 1 ms keeps the padded\n"
        "rate (and therefore the overhead) identical to CIT while multiplying the\n"
        "adversary's required observation by several orders of magnitude."
    )


def main() -> None:
    audit_cit()
    recommend()
    price()


if __name__ == "__main__":
    main()

"""Experiment harness: one module per figure of the paper's evaluation.

Each experiment pairs a configuration dataclass with an ``Experiment`` class
that carries its registry ``presets``, expands its grid into sweep cells,
and assembles the measured detection rates and the corresponding
closed-form predictions into a result object with ``rows()`` /
``to_text()`` for reporting.

===========  =============================================================
module       reproduces
===========  =============================================================
``fig4``     Figure 4: CIT padding without cross traffic — PIAT PDFs and
             detection rate vs. sample size for mean/variance/entropy.
``fig5``     Figure 5: VIT padding — detection rate vs. ``sigma_T`` at a
             fixed sample size, and the theoretical sample size needed for
             99 % detection vs. ``sigma_T``.
``fig6``     Figure 6: CIT padding behind a shared router — detection rate
             vs. cross-traffic link utilization.
``fig8``     Figure 8: CIT padding observed across a campus network and a
             WAN over 24 hours of diurnal cross traffic.
===========  =============================================================

Collection modes (see :mod:`repro.experiments.base`):

* ``"simulation"`` — full simulation (gateway + routers), computed by the
  vectorized kernel byte-identically to the event-driven reference.
* ``"hybrid"`` — simulated gateway, analytic (M/D/1) network noise; used
  where full simulation of many hops over many hours would be prohibitively
  slow.
* ``"analytic"`` — samples drawn directly from the Gaussian PIAT model; the
  fastest mode, used in unit tests and quick sanity checks.
"""

from repro.experiments.ablations import (
    EstimatorAblationConfig,
    EstimatorAblationExperiment,
    EstimatorAblationResult,
    TapAblationConfig,
    TapAblationExperiment,
    TapAblationResult,
    VitFamilyAblationConfig,
    VitFamilyAblationExperiment,
    VitFamilyAblationResult,
)
from repro.experiments.base import (
    CollectionMode,
    PaddedStreamCapture,
    ScenarioConfig,
    collect_labelled_intervals,
    resolve_seeds,
    simulate_gateway_capture,
)
from repro.experiments.fig4 import Fig4Config, Fig4Experiment, Fig4Result
from repro.experiments.fig5 import Fig5Config, Fig5Experiment, Fig5Result
from repro.experiments.fig6 import Fig6Config, Fig6Experiment, Fig6Result
from repro.experiments.fig8 import Fig8Config, Fig8Experiment, Fig8Result
from repro.experiments.report import (
    format_interval,
    format_table,
    render_experiment_report,
)

__all__ = [
    "CollectionMode",
    "EstimatorAblationConfig",
    "EstimatorAblationExperiment",
    "EstimatorAblationResult",
    "TapAblationConfig",
    "TapAblationExperiment",
    "TapAblationResult",
    "VitFamilyAblationConfig",
    "VitFamilyAblationExperiment",
    "VitFamilyAblationResult",
    "ScenarioConfig",
    "PaddedStreamCapture",
    "collect_labelled_intervals",
    "resolve_seeds",
    "simulate_gateway_capture",
    "Fig4Config",
    "Fig4Experiment",
    "Fig4Result",
    "Fig5Config",
    "Fig5Experiment",
    "Fig5Result",
    "Fig6Config",
    "Fig6Experiment",
    "Fig6Result",
    "Fig8Config",
    "Fig8Experiment",
    "Fig8Result",
    "format_interval",
    "format_table",
    "render_experiment_report",
]

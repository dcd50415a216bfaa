"""Registry definitions for the ablation experiments.

Registering the ablations makes them runnable from the CLI for the first
time (``repro run ablation_tap --preset fast``) and lets ``repro sweep``
pool their cells with the figures'.  The ``paper`` presets are the
settings ``tests/experiments/test_ablations.py`` checks the paper's shape
at; ``fast`` keeps the full grids on cheaper
collection modes; ``quick``/``smoke`` shrink the grids to seconds for CLI
tests and CI.
"""

from __future__ import annotations

from repro.api.registry import ExperimentDefinition, register_experiment
from repro.experiments import (
    CollectionMode,
    EstimatorAblationConfig,
    EstimatorAblationExperiment,
    TapAblationConfig,
    TapAblationExperiment,
    VitFamilyAblationConfig,
    VitFamilyAblationExperiment,
)


@register_experiment("ablation_estimators")
class EstimatorAblationDefinition(ExperimentDefinition):
    """Ablation: the adversary's entropy bin width and KDE bandwidth rule."""

    config_cls = EstimatorAblationConfig

    def build(self, config: EstimatorAblationConfig) -> EstimatorAblationExperiment:
        return EstimatorAblationExperiment(config)

    def preset_config(self, preset: str, seed: int) -> EstimatorAblationConfig:
        if preset == "paper":
            return EstimatorAblationConfig(seed=seed)
        if preset == "fast":
            return EstimatorAblationConfig(
                trials=10, mode=CollectionMode.ANALYTIC, seed=seed
            )
        if preset == "quick":
            return EstimatorAblationConfig(
                bin_widths=(2e-5, 2e-4),
                kde_bandwidths=("silverman", 2.0),
                sample_size=300,
                trials=6,
                mode=CollectionMode.ANALYTIC,
                seed=seed,
            )
        return EstimatorAblationConfig(
            bin_widths=(2e-5,),
            kde_bandwidths=("silverman", 2.0),
            sample_size=100,
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=seed,
        )


@register_experiment("ablation_tap")
class TapAblationDefinition(ExperimentDefinition):
    """Ablation: detection rate vs the tap's distance behind loaded routers."""

    config_cls = TapAblationConfig

    def build(self, config: TapAblationConfig) -> TapAblationExperiment:
        return TapAblationExperiment(config)

    def preset_config(self, preset: str, seed: int) -> TapAblationConfig:
        if preset == "paper":
            return TapAblationConfig(seed=seed)
        if preset == "fast":
            return TapAblationConfig(
                sample_size=400, trials=8, mode=CollectionMode.HYBRID, seed=seed
            )
        if preset == "quick":
            return TapAblationConfig(
                hop_counts=(0, 3, 15),
                sample_size=300,
                trials=6,
                mode=CollectionMode.ANALYTIC,
                seed=seed,
            )
        return TapAblationConfig(
            hop_counts=(0, 3),
            sample_size=100,
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=seed,
        )


@register_experiment("ablation_vit")
class VitFamilyAblationDefinition(ExperimentDefinition):
    """Ablation: VIT interval distribution families at identical (tau, sigma_T)."""

    config_cls = VitFamilyAblationConfig

    def build(self, config: VitFamilyAblationConfig) -> VitFamilyAblationExperiment:
        return VitFamilyAblationExperiment(config)

    def preset_config(self, preset: str, seed: int) -> VitFamilyAblationConfig:
        if preset == "paper":
            return VitFamilyAblationConfig(seed=seed)
        if preset == "fast":
            return VitFamilyAblationConfig(
                sample_size=400, trials=6, mode=CollectionMode.SIMULATION, seed=seed
            )
        if preset == "quick":
            return VitFamilyAblationConfig(
                families=("normal", "uniform"),
                sample_size=200,
                trials=4,
                mode=CollectionMode.SIMULATION,
                seed=seed,
            )
        # smoke: the analytic model sees only sigma_T (not the family), so
        # this exercises the pipeline rather than the families themselves.
        return VitFamilyAblationConfig(
            families=("normal", "uniform"),
            sample_size=100,
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=seed,
        )


__all__ = [
    "EstimatorAblationDefinition",
    "TapAblationDefinition",
    "VitFamilyAblationDefinition",
]

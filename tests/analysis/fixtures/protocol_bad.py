"""Fixture: contract gaps that must raise EXP001/EXP002."""

from repro.api.registry import ExperimentDefinition, register_experiment


class BrokenExperiment:  # EXP002: missing config, cells, assemble
    name = "broken"

    def describe(self) -> str:
        return "not actually runnable"


@register_experiment("halfbaked")
class HalfBakedDefinition(ExperimentDefinition):  # EXP001: missing preset_config, build
    config_cls = dict

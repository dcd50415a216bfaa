"""The public experiment API: protocol, registry, results, and scenario files.

This package is the stable surface for defining and running evaluations:

* :class:`~repro.api.protocol.Experiment` — the formal protocol every
  experiment satisfies (``name`` / ``describe()`` / ``cells(seeds)`` /
  ``assemble(view)``); :func:`~repro.api.protocol.run_experiment` runs one,
  registered or not.
* the **registry** — one table of experiment classes, each carrying its
  ``config_cls`` and a ``presets`` table;
  :func:`~repro.api.registry.get_experiment` builds one from a preset plus
  ``--set``-style overrides; :func:`~repro.api.registry.list_experiments`
  enumerates them.  The paper's figures (``fig4``–``fig8``), the three
  ablations and the population experiment are registered.
* :class:`~repro.api.protocol.ExperimentResult` — a typed wrapper around
  one executed experiment: rendered tables, raw cell results, and full
  provenance (preset, seeds, confidence, cell fingerprints).
* **scenario files** — :class:`~repro.api.scenario.ScenarioSpec` defines a
  brand-new scenario grid in a dict or TOML file and
  :class:`~repro.api.scenario.ScenarioExperiment` runs it like any
  registered experiment (``repro run --scenario my_wan.toml``).

Quick tour:

.. code-block:: python

    from repro.api import get_experiment, list_experiments, run_experiment

    list_experiments()
    # ['ablation_estimators', ..., 'fig4', 'fig5', 'fig6', 'fig8']

    experiment = get_experiment("fig6", preset="fast", overrides={"trials": 30})
    outcome = run_experiment(experiment, seeds=range(2003, 2008), confidence=0.95)
    print(outcome.to_text())          # the figure's report, mean ± CI per point
    outcome.provenance()              # seeds, preset, cell fingerprints, ...

See ``docs/api.md`` for the scenario-file schema and a worked example.
"""

from repro.api.protocol import Experiment, ExperimentResult, run_experiment
from repro.api.registry import (
    DEFAULT_SEED,
    PRESETS,
    apply_overrides,
    describe_experiment,
    get_experiment,
    list_experiments,
    parse_set_options,
)
from repro.api.scenario import (
    TOML_AVAILABLE,
    ScenarioExperiment,
    ScenarioPoint,
    ScenarioResult,
    ScenarioSpec,
    parse_policy,
)

__all__ = [
    "DEFAULT_SEED",
    "PRESETS",
    "TOML_AVAILABLE",
    "Experiment",
    "ExperimentResult",
    "ScenarioExperiment",
    "ScenarioPoint",
    "ScenarioResult",
    "ScenarioSpec",
    "apply_overrides",
    "describe_experiment",
    "get_experiment",
    "list_experiments",
    "parse_policy",
    "parse_set_options",
    "run_experiment",
]

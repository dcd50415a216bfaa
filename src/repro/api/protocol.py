"""The formal ``Experiment`` protocol and the typed ``ExperimentResult``.

:class:`Experiment` states the contract between the CLI, the sweep runner
and the experiments as a :func:`typing.runtime_checkable` protocol, so
anything that satisfies it — the figures, the ablations, a
:class:`~repro.api.scenario.ScenarioExperiment` built from a TOML file, or
user code — plugs into the CLI and the sweep runner identically.  A
registered experiment also carries ``config_cls`` and ``presets`` (see
:mod:`repro.api.registry`); an unregistered one needs only this protocol.

:func:`run_experiment` is the one way to run an experiment: expand its
cells once, execute them through a :class:`~repro.runner.runner.SweepRunner`
(parallelism, caching), build the :class:`~repro.runner.grid.ExperimentView`
of those cells, assemble the experiment-specific result from it, and wrap
everything in an :class:`ExperimentResult` carrying the raw cell results and
full provenance (seeds, confidence, preset, cell fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.experiments.base import resolve_seeds
from repro.runner import (
    CellResult,
    ExperimentView,
    SweepCell,
    SweepReport,
    SweepRunner,
    experiment_view,
)


@runtime_checkable
class Experiment(Protocol):
    """What the registry, the CLI and the sweep runner require of an experiment.

    An experiment is a *declarative* object: it owns a typed configuration,
    expands it into independent :class:`~repro.runner.cells.SweepCell` units,
    and folds the view of their results back into a figure-style result
    object with ``rows()``-like accessors and ``to_text()``.  It never executes cells
    itself — that is the runner's job — which is what lets ``repro sweep``
    pool cells from any mix of experiments into one worker pool and one
    cache.

    Contract (enforced for registered experiments by the registry contract
    test in ``tests/api/test_registry.py``):

    * ``name`` is unique among registered experiments and prefixes every
      cell key the experiment emits.
    * ``cells(seeds)`` is deterministic: two calls with equal configuration
      and seeds return cells with identical keys and fingerprints.
    * ``assemble(view)`` reads only the
      :class:`~repro.runner.grid.ExperimentView` its caller built from this
      experiment's cells (``experiment_view(report, cells, confidence)``),
      so a report pooled across many experiments assembles per-experiment
      results independently, and the cells are expanded once per run.

    To run one experiment, call :func:`run_experiment`.
    """

    name: str
    config: Any

    def describe(self) -> str:
        """One-line human-readable summary (shown by ``repro list``)."""
        ...

    def cells(self, seeds: Optional[Sequence[int]] = None) -> List[SweepCell]:
        """The experiment's grid as schedulable sweep cells."""
        ...

    def assemble(self, view: ExperimentView) -> Any:
        """Fold the view of this experiment's cells into a result."""
        ...


@dataclass
class ExperimentResult:
    """One executed experiment with its provenance.

    Attributes
    ----------
    name:
        The experiment's registry name.
    result:
        The experiment-specific result object (``Fig6Result``, an ablation
        result, a :class:`~repro.api.scenario.ScenarioResult`, ...); its
        ``to_text()`` renders the report tables.
    report:
        The raw :class:`~repro.runner.runner.SweepReport` the result was
        assembled from — per-cell empirical measurements plus cache
        accounting.
    seeds:
        The master seeds every grid point ran at.
    confidence:
        Bootstrap confidence level of the aggregated intervals, or ``None``.
    preset:
        The named preset the configuration came from, when the experiment
        was built by :func:`repro.api.registry.get_experiment`.
    overrides:
        Configuration overrides applied on top of the preset.
    fingerprints:
        Cell key → content-hash fingerprint, the exact identity of every
        record this run read or wrote in a results store.
    """

    name: str
    result: Any
    report: SweepReport
    seeds: Tuple[int, ...]
    confidence: Optional[float] = None
    preset: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)

    @property
    def cell_results(self) -> Dict[str, CellResult]:
        """Raw per-cell results keyed by cell key."""
        return self.report.results

    def to_text(self) -> str:
        """The rendered report tables (identical to the wrapped result's)."""
        return self.result.to_text()

    def provenance(self) -> Dict[str, Any]:
        """Everything needed to reproduce or audit this run, as plain data."""
        return {
            "experiment": self.name,
            "preset": self.preset,
            "overrides": dict(self.overrides),
            "seeds": list(self.seeds),
            "confidence": self.confidence,
            "fingerprints": dict(self.fingerprints),
        }


def run_experiment(
    experiment: Experiment,
    runner: Optional[SweepRunner] = None,
    seeds: Optional[Sequence[int]] = None,
    confidence: Optional[float] = None,
    preset: Optional[str] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one experiment end to end and wrap the outcome with provenance.

    ``preset`` and ``overrides`` are recorded verbatim in the result's
    provenance; pass what the experiment was built from (the CLI does).
    """
    runner = runner if runner is not None else SweepRunner()
    cells = experiment.cells(seeds)
    report = runner.run(cells)
    result = experiment.assemble(experiment_view(report, cells, confidence))
    default_seed = getattr(experiment.config, "seed", 0)
    return ExperimentResult(
        name=experiment.name,
        result=result,
        report=report,
        seeds=resolve_seeds(default_seed, seeds),
        confidence=confidence,
        preset=preset,
        overrides=dict(overrides) if overrides else {},
        fingerprints={cell.key: cell.fingerprint() for cell in cells},
    )


__all__ = ["Experiment", "ExperimentResult", "run_experiment"]

"""The benchmark's workloads: which ``repro`` invocation each one times.

Every workload is one ``repro.cli.main(argv)`` call with the serial
backend.  The benchmark's ``--seed`` reaches the program only as the CLI's
``--seed``; everything else about the inputs is fixed here, so a run does
a fixed amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: Seed whose reports are pinned by ``digests.json``.
DEFAULT_SEED = 2003

#: Every experiment registered at the time the benchmark was defined.  Kept
#: fixed (not read from the registry) so that a later registration does not
#: silently change the amount of work a workload measures.
EXPERIMENTS: Tuple[str, ...] = (
    "ablation_estimators",
    "ablation_tap",
    "ablation_vit",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "population",
)

#: Master seeds per grid point in the sweep workloads.
SWEEP_SEEDS = 3

ROUTED_SCENARIO = HERE / "routed.toml"


@dataclass(frozen=True)
class Workload:
    """One workload.

    ``store`` is ``None`` (no results store), ``"fresh"`` (a new empty store
    per invocation) or ``"filled"`` (one store filled before timing by an
    untimed cold run of the same arguments, whose report is the reference
    every timed warm report must equal).  ``invocation_s`` is about how long
    one invocation (set-up plus ``main``) takes on a 2-vCPU machine; it fixes
    how many invocations a run of a given length makes, so that the count
    does not follow the machine's speed at the time.
    """

    name: str
    why: str
    store: Optional[str]
    invocation_s: float

    def argv(self, seed: int, store_dir: Optional[Path] = None) -> List[str]:
        """The timed CLI arguments for ``seed``."""
        if self.name == "routed-sim":
            return [
                "run", "--scenario", str(ROUTED_SCENARIO),
                "--seed", str(seed), "--backend", "serial",
            ]
        argv = [
            "sweep", "--experiments", *EXPERIMENTS, "--preset", "fast",
            "--seed", str(seed), "--seeds", str(SWEEP_SEEDS),
            "--backend", "serial", "--cache-dir", str(store_dir),
        ]
        if self.name == "sweep-warm":
            argv.append("--ci")
        return argv


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "routed-sim",
            "simulation-mode scenario over a hops x utilization grid: the event "
            "engine, routers and cross traffic do the work",
            store=None,
            invocation_s=6.5,
        ),
        Workload(
            "sweep-cold",
            "every experiment at the fast preset into an empty store: attack "
            "layer, vectorized and shared captures, store writes",
            store="fresh",
            invocation_s=6.5,
        ),
        Workload(
            "sweep-warm",
            "the same sweep with --ci against a filled store: bootstrap bands, "
            "store reads, assemble and render, no simulation",
            store="filled",
            invocation_s=12.0,
        ),
    )
}


def invocation_cells(workload: Workload, seed: int) -> list:
    """The cells ``workload.argv(seed)`` runs, derived the way the CLI derives
    them from its parsed arguments (imports ``repro``)."""
    import repro.cli
    from repro.api import get_experiment
    from repro.runner import seed_range

    args = repro.cli.build_parser().parse_args(workload.argv(seed, Path("store")))
    if workload.name == "routed-sim":
        experiment = repro.cli._load_scenario(args.scenario, args.seed)
        return experiment.cells(repro.cli._scenario_seeds(experiment, args.seeds))
    seeds = seed_range(args.seed, args.seeds) if args.seeds > 1 else None
    return [
        cell
        for name in args.figures
        for cell in get_experiment(name, args.preset, args.seed).cells(seeds)
    ]


def routed_point_keys() -> List[str]:
    """Grid-point keys of the routed scenario; each must appear in its report."""
    from repro.api import ScenarioExperiment, ScenarioSpec

    spec = ScenarioSpec.from_toml(ROUTED_SCENARIO)
    keys = ScenarioExperiment(spec).grid().point_keys()
    return [key.removeprefix(f"{spec.name}/") for key in keys]

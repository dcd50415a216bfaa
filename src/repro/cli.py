"""Command-line entry point, driven by the experiment registry.

``python -m repro`` (or the ``repro`` console script) is a thin veneer over
:mod:`repro.api`: every subcommand resolves experiments through the registry,
so a newly registered experiment — or a declarative scenario file — is
runnable without touching this module:

```
python -m repro list                          # registered experiments
python -m repro run fig6 --preset fast        # any registered experiment
python -m repro run fig6 --set trials=30 --set utilizations=0.1,0.3
python -m repro run ablation_tap --preset quick
python -m repro run --scenario my_wan.toml --jobs 4   # no Python needed
python -m repro sweep --preset smoke --jobs 2 --cache-dir .sweep-cache
python -m repro sweep --experiments fig6 ablation_vit --scenario my_wan.toml
python -m repro sweep --preset fast --seeds 5 --ci    # mean ± 95% CI per point
python -m repro cache stats --cache-dir .sweep-cache  # store health counters
python -m repro cache compact --cache-dir .sweep-cache
python -m repro serve --cache-dir .sweep-cache        # read-only JSON HTTP API over the store
python -m repro bench run --pr pr6 --output BENCH_pr6.json
python -m repro bench compare BENCH_new.json BENCH_pr6.json --max-regression 0.2
```

Every run accepts ``--jobs`` (worker processes for independent grid cells),
``--cache-dir`` (a persistent :class:`repro.runner.ResultsStore`; re-running
the same grid against the same cache directory performs zero simulations),
``--seeds N`` (fan every grid point out over ``N`` consecutive master seeds
and report per-point means) and ``--ci`` (add a bootstrap confidence interval
column; needs ``--seeds`` >= 2 — rejected at argument-parse time otherwise).
``--set key=value`` overrides any field of the preset's configuration
dataclass; anything richer is done in Python against :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro._version import __version__
from repro.defaults import (
    BACKEND_NAMES,
    DEFAULT_MAX_REGRESSION,
    DEFAULT_SEED,
    EXPERIMENT_NAMES,
    PRESETS,
)
from repro.exceptions import ConfigurationError, ReproError

if TYPE_CHECKING:  # pragma: no cover - types only; handlers import what they run
    from repro.api import ScenarioExperiment

#: Confidence level of the ``--ci`` bootstrap bands.
CI_CONFIDENCE = 0.95

#: Preset used when ``--preset`` is not given.
DEFAULT_PRESET = "fast"

#: The experiments ``repro sweep`` pools when ``--experiments`` is not given.
DEFAULT_SWEEP = ("fig4", "fig5", "fig6", "fig8")


def _parse_jobs_option(value: str):
    """``--jobs`` accepts a worker count or the literal ``auto``."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not an integer or 'auto'"
        ) from None


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    # Sentinel defaults (resolved in main) so scenario files can tell an
    # explicit --seed/--preset apart from the absent flag: a scenario keeps
    # its own seed unless the user explicitly overrides it, and --preset is
    # rejected there instead of being silently swallowed.
    parser.add_argument(
        "--preset",
        choices=PRESETS,
        default=None,
        help=f"fidelity/run-time preset (default: {DEFAULT_PRESET})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master random seed (default: {DEFAULT_SEED}; an explicit value "
        "also overrides a scenario file's run.seed)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="run every grid point at N consecutive master seeds (starting at "
        "--seed) and report the per-point mean (default: 1, the historical "
        "single-seed layout)",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        # argparse %-formats help strings, so the percent sign is doubled.
        help=f"add a {CI_CONFIDENCE:.0%}".replace("%", "%%")
        + " bootstrap confidence interval per grid point (needs --seeds >= 2)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--jobs",
        type=_parse_jobs_option,
        default=1,
        metavar="N|auto",
        help="worker processes for independent sweep cells; 'auto' sizes to "
        "the CPUs actually available to this process (default: 1)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default="process",
        help="execution backend: 'process' (worker pool, the default) or "
        "'serial' (inline, no pool/pickle overhead — fastest for warm or "
        "small sweeps)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="persist cell results under this directory; repeated runs with the "
        "same grid skip the simulation entirely",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures of Fu et al., ICPP 2003 (link-padding countermeasures).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    names = EXPERIMENT_NAMES
    subcommands = parser.add_subparsers(
        dest="command",
        metavar="command",
        required=True,
        help="'run' any registered experiment or scenario file, 'list' the "
        "registry, 'sweep' several experiments at once, or 'cache' for store "
        "maintenance",
    )

    subcommands.add_parser(
        "list", help="list the registered experiments and their summaries"
    )

    run_parser = subcommands.add_parser(
        "run",
        help="run one registered experiment (or a --scenario TOML file)",
    )
    run_parser.add_argument(
        "experiment",
        nargs="?",
        choices=names,
        metavar="EXPERIMENT",
        help=f"a registered experiment: {', '.join(names)}",
    )
    run_parser.add_argument(
        "--scenario",
        type=Path,
        default=None,
        metavar="FILE",
        help="run a declarative scenario file (TOML) instead of a registered "
        "experiment; the report ends with the sweep's cache accounting line",
    )
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one field of the preset's configuration (repeatable); "
        "tuples are comma-separated, e.g. --set utilizations=0.1,0.3",
    )
    _add_common_options(run_parser)

    sweep = subcommands.add_parser(
        "sweep",
        help="run several experiment grids through one parallel sweep runner",
    )
    _add_common_options(sweep)
    sweep.add_argument(
        "--experiments",
        # perfbench/workloads.py reads the parsed list as ``args.figures``.
        dest="figures",
        nargs="+",
        choices=names,
        default=list(DEFAULT_SWEEP),
        metavar="NAME",
        help="registered experiments to pool into the sweep "
        f"(default: {' '.join(DEFAULT_SWEEP)})",
    )
    sweep.add_argument(
        "--scenario",
        dest="scenarios",
        action="append",
        type=Path,
        default=[],
        metavar="FILE_OR_DIR",
        help="also pool the cells of a declarative scenario file, or of every "
        "*.toml inside a scenario directory (repeatable)",
    )

    bench = subcommands.add_parser(
        "bench",
        help="measure hot-path performance; write/compare BENCH_<pr>.json artifacts",
    )
    bench_sub = bench.add_subparsers(
        dest="bench_command",
        metavar="action",
        required=True,
        help="'run' the benchmark suite or 'compare' two artifacts",
    )
    bench_run = bench_sub.add_parser(
        "run",
        help="time the capture kernel against its event-engine reference, and a "
        "quick sweep cold and warm",
    )
    bench_run.add_argument(
        "--pr",
        default="local",
        help="label recorded in the artifact (e.g. pr6; default: local)",
    )
    bench_run.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the machine-readable artifact here (e.g. BENCH_pr6.json)",
    )
    bench_run.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="after running, compare against this committed artifact and exit "
        "non-zero on regression",
    )
    bench_run.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        metavar="FRAC",
        help="tolerated relative regression per metric for --baseline "
        f"(default: {DEFAULT_MAX_REGRESSION})",
    )
    bench_run.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the vectorized kernel beats the event engine by at "
        "least this factor (CI uses 3; the target is 10)",
    )
    bench_run.add_argument(
        "--metric",
        dest="metrics",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict the --baseline comparison to these metrics (repeatable; "
        "default: the machine-independent ratio metrics)",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best-of (default: 3)"
    )
    bench_run.add_argument(
        "--intervals",
        type=int,
        default=4000,
        help="intervals per class in the capture benchmark (default: 4000)",
    )
    bench_run.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"master seed (default: {DEFAULT_SEED})"
    )
    bench_compare = bench_sub.add_parser(
        "compare", help="diff two benchmark artifacts with direction-aware tolerances"
    )
    bench_compare.add_argument("current", type=Path, help="the fresh BENCH json")
    bench_compare.add_argument("baseline", type=Path, help="the committed BENCH json")
    bench_compare.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        metavar="FRAC",
        help=f"tolerated relative regression per metric (default: {DEFAULT_MAX_REGRESSION})",
    )
    bench_compare.add_argument(
        "--metric",
        dest="metrics",
        action="append",
        default=[],
        metavar="NAME",
        help="compare only these metrics (repeatable; default: every shared metric)",
    )

    check = subcommands.add_parser(
        "check",
        help="run the static determinism analysis (RNG discipline, wall-clock, "
        "ordering; docs/determinism.md)",
    )
    check.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory containing the repro/ package to check "
        "(default: this installation's own source tree)",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human-readable text or machine-readable JSON (default: text)",
    )
    check.add_argument(
        "--rule",
        dest="rules",
        action="append",
        default=[],
        metavar="ID",
        help="restrict the run to these rule ids (repeatable, e.g. --rule RNG001)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and their contracts, then exit",
    )

    cache = subcommands.add_parser(
        "cache",
        help="maintain a persistent results store",
    )
    cache.add_argument(
        "action",
        choices=("compact", "stats"),
        help="compact: drop superseded duplicate records; stats: report "
        "record/shard counts, store size and schema versions",
    )
    cache.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the results store to maintain",
    )

    serve = subcommands.add_parser(
        "serve",
        help="serve a results store over a read-only JSON HTTP API "
        "(GET /experiments, /points, /point/<key>, /report/<name>; "
        "docs/serving.md)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the results store to serve; its grid-point labels are built "
        "in memory at start-up and every request reads the store's shards",
    )
    serve.add_argument(
        "--host",
        default=None,
        help="interface to bind (default: loopback only)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port to listen on (default: 8321; 0 picks a free port)",
    )
    return parser


def _validate_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-option validation, reported as argparse errors (exit code 2).

    Doing this at parse time means ``repro run fig8 --ci`` fails in
    milliseconds with usage text instead of deep inside the experiment.
    """
    if getattr(args, "seeds", 1) < 1:
        parser.error(f"--seeds {args.seeds} must be >= 1")
    if getattr(args, "ci", False) and args.seeds < 2:
        parser.error(
            "--ci requires --seeds >= 2: a confidence interval needs repeated "
            "trials per grid point"
        )
    if args.command == "run":
        if (args.experiment is None) == (args.scenario is None):
            parser.error(
                "exactly one of EXPERIMENT or --scenario FILE is required "
                "(see 'repro list' for registered experiments)"
            )
        if args.scenario is not None and args.overrides:
            parser.error(
                "--set overrides apply to registered experiments only; edit "
                "the scenario file instead"
            )
        if args.scenario is not None and args.preset is not None:
            parser.error(
                "--preset applies to registered experiments only; a scenario "
                "file's [run] table is its configuration (--seed and --seeds "
                "do apply)"
            )


def _render_list() -> str:
    from repro.api import describe_experiment, list_experiments

    names = list_experiments()
    width = max(len(name) for name in names)
    lines = ["registered experiments (repro run <name> [--preset ...]):", ""]
    lines += [f"  {name.ljust(width)}  {describe_experiment(name)}" for name in names]
    lines += [
        "",
        f"presets: {', '.join(PRESETS)}",
        "scenario files: repro run --scenario FILE.toml (see docs/api.md)",
    ]
    return "\n".join(lines)


def _run_bench_command(args: argparse.Namespace) -> int:
    """``repro bench run`` / ``repro bench compare``; returns the exit code.

    Handled outside the generic report plumbing because ``--output`` here
    names the JSON artifact (not a text report) and a regression must map to
    a non-zero exit code for CI, not to usage error 2.
    """
    from repro.runner.bench import RATIO_METRICS, BenchResult, compare, run_bench

    if args.bench_command == "compare":
        comparison = compare(
            BenchResult.load(args.current),
            BenchResult.load(args.baseline),
            max_regression=args.max_regression,
            metrics=args.metrics or None,
        )
        print(comparison.to_text())
        return 0 if comparison.ok else 1

    result = run_bench(
        args.pr,
        seed=args.seed,
        capture_intervals=args.intervals,
        repeats=args.repeats,
    )
    print(result.to_text())
    if args.output is not None:
        result.save(args.output)
        print(f"benchmark artifact written to {args.output}")
    exit_code = 0
    if args.min_speedup is not None:
        speedup = result.metrics["cold_capture_speedup"]
        if speedup < args.min_speedup:
            print(
                f"FAIL: cold_capture_speedup {speedup:.2f}x is below the "
                f"required {args.min_speedup:g}x",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(f"speedup gate passed: {speedup:.2f}x >= {args.min_speedup:g}x")
    if args.baseline is not None:
        comparison = compare(
            result,
            BenchResult.load(args.baseline),
            max_regression=args.max_regression,
            metrics=args.metrics or list(RATIO_METRICS),
        )
        print(comparison.to_text())
        if not comparison.ok:
            exit_code = 1
    return exit_code


def _run_check_command(args: argparse.Namespace) -> int:
    """``repro check``; returns the exit code (0 clean, 1 findings).

    Handled outside the generic report plumbing because findings must map
    to exit code 1 for CI (2 stays reserved for usage/configuration
    errors, matching the rest of the CLI).
    """
    from repro.analysis import all_rules
    from repro.analysis.checker import run_check

    if args.list_rules:
        rules = all_rules()
        width = max(len(rule.rule_id) for rule in rules)
        lines = ["registered determinism rules (docs/determinism.md):", ""]
        lines += [f"  {rule.rule_id.ljust(width)}  {rule.title}" for rule in rules]
        print("\n".join(lines))
        return 0
    report = run_check(root=args.root, rule_filter=args.rules or None)
    print(report.to_json() if args.format == "json" else report.to_text())
    return report.exit_code


def _run_cache_command(args: argparse.Namespace) -> str:
    from repro.runner import ResultsStore

    store = ResultsStore(args.cache_dir)
    if args.action == "compact":
        return f"cache compact: {store.compact()}"
    return f"cache stats: {store.stats()}"


def _run_serve_command(args: argparse.Namespace) -> int:
    """``repro serve``; blocks until interrupted (returns 0 on Ctrl-C)."""
    from repro.store import DEFAULT_HOST, DEFAULT_PORT, create_server

    server = create_server(
        args.cache_dir,
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
    )
    host, port = server.server_address[:2]
    print(f"serving {args.cache_dir} on http://{host}:{port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
    return 0


def _load_scenario(path: Path, explicit_seed: Optional[int]) -> ScenarioExperiment:
    """A scenario experiment from a file, honouring an explicit ``--seed``.

    Scenario files own their run settings, so the spec's ``run.seed`` wins
    unless the user explicitly passed ``--seed`` on the command line.
    """
    from dataclasses import replace

    from repro.api import ScenarioExperiment, ScenarioSpec

    spec = ScenarioSpec.from_toml(path)
    if explicit_seed is not None:
        spec = replace(spec, seed=explicit_seed)
    return ScenarioExperiment(spec)


def _expand_scenario_paths(paths: Sequence[Path]) -> List[Path]:
    """Scenario arguments with directories expanded to their ``*.toml`` files.

    A directory is a *scenario suite*: every ``*.toml`` inside pools into
    the sweep, in sorted filename order so the combined report is stable
    across filesystems.
    """
    expanded: List[Path] = []
    for path in paths:
        if path.is_dir():
            found = sorted(path.glob("*.toml"))
            if not found:
                raise ConfigurationError(
                    f"scenario directory {str(path)!r} contains no *.toml files"
                )
            expanded.extend(found)
        else:
            expanded.append(path)
    return expanded


def _scenario_seeds(experiment: ScenarioExperiment, count: int):
    """A scenario's multi-seed fan-out, based on its own (resolved) seed."""
    from repro.runner import seed_range

    if count > 1:
        return seed_range(experiment.spec.seed, count)
    return None


def _run_experiments(args: argparse.Namespace) -> Tuple[str, Optional[str]]:
    """``repro run`` / ``repro sweep``: the report and the stderr accounting line."""
    from repro.api import get_experiment, parse_set_options, run_experiment
    from repro.runner import (
        ResultsStore,
        SweepRunner,
        experiment_view,
        resolve_jobs,
        seed_range,
    )

    preset = args.preset if args.preset is not None else DEFAULT_PRESET
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    seeds = seed_range(seed, args.seeds) if args.seeds > 1 else None
    confidence = CI_CONFIDENCE if args.ci else None
    store = ResultsStore(args.cache_dir) if args.cache_dir is not None else None
    runner = SweepRunner(jobs=resolve_jobs(args.jobs), store=store, backend=args.backend)

    if args.command == "sweep":
        # One combined runner call: every selected experiment's cells share
        # the worker pool, so e.g. fig4's single cell runs alongside fig8's
        # 24-hour grid instead of serialising per experiment.  Each
        # experiment keeps its own seed base — the CLI seed for registered
        # experiments, the spec's run.seed for scenario files (unless --seed
        # was given explicitly) — so the --seeds fan-out never silently
        # reseeds a scenario.
        pooled: List = []
        for name in args.figures:
            experiment = get_experiment(name, preset, seed)
            pooled.append((experiment, experiment.cells(seeds)))
        for path in _expand_scenario_paths(args.scenarios):
            experiment = _load_scenario(path, args.seed)
            its_seeds = _scenario_seeds(experiment, args.seeds)
            pooled.append((experiment, experiment.cells(its_seeds)))
        combined = runner.run([cell for _, cells in pooled for cell in cells])
        reports = [
            experiment.assemble(experiment_view(combined, cells, confidence)).to_text()
            for experiment, cells in pooled
        ]
        return "\n\n".join(reports) + "\n\n" + runner.summary(), None
    if args.scenario is not None:
        experiment = _load_scenario(args.scenario, args.seed)
        outcome = run_experiment(
            experiment,
            runner=runner,
            seeds=_scenario_seeds(experiment, args.seeds),
            confidence=confidence,
        )
        return outcome.to_text() + "\n" + runner.summary(), None
    overrides = parse_set_options(args.overrides)
    experiment = get_experiment(args.experiment, preset, seed, overrides=overrides or None)
    outcome = run_experiment(
        experiment,
        runner=runner,
        seeds=seeds,
        confidence=confidence,
        preset=preset,
        overrides=overrides,
    )
    # Cache accounting on stderr: the report bytes (and an --output file)
    # stay those of a storeless run.
    return outcome.to_text(), runner.summary() if store is not None else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns a process exit code.

    Parsing needs only :mod:`repro.defaults`; each command's handler imports
    the library code it runs, so ``--version``, ``--help`` and argument
    errors load no numpy.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    accounting: Optional[str] = None
    try:
        if args.command == "list":
            report = _render_list()
        elif args.command == "bench":
            return _run_bench_command(args)
        elif args.command == "check":
            return _run_check_command(args)
        elif args.command == "cache":
            report = _run_cache_command(args)
        elif args.command == "serve":
            return _run_serve_command(args)
        else:
            report, accounting = _run_experiments(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2

    print(report)
    if accounting is not None:
        print(accounting, file=sys.stderr)
    output = getattr(args, "output", None)
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(report)
        print(f"report written to {output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())


__all__ = [
    "build_parser",
    "main",
    "CI_CONFIDENCE",
    "DEFAULT_PRESET",
    "DEFAULT_SWEEP",
    "PRESETS",
]

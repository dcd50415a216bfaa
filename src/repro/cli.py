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
python -m repro fig4                          # legacy alias of 'run fig4'
python -m repro sweep --preset smoke --jobs 2 --cache-dir .sweep-cache
python -m repro sweep --experiments fig6 ablation_vit --scenario my_wan.toml
python -m repro sweep --preset fast --seeds 5 --ci    # mean ± 95% CI per point
python -m repro cache stats --cache-dir .sweep-cache  # store health counters
python -m repro cache compact --cache-dir .sweep-cache
python -m repro cache index --cache-dir .sweep-cache  # build/refresh the sqlite query index
python -m repro serve --cache-dir .sweep-cache        # JSON HTTP API over the indexed store
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

The legacy per-figure spellings (``repro fig4`` … ``repro fig8``) are aliases
of ``repro run <figure>`` and print byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.api import (
    DEFAULT_SEED,
    PRESETS,
    ScenarioExperiment,
    ScenarioSpec,
    describe_experiment,
    get_experiment,
    list_experiments,
    parse_set_options,
    run_experiment,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.base import resolve_kernel_mode
from repro.runner import ResultsStore, SweepRunner, resolve_jobs, seed_range
from repro.runner.defaults import (
    BACKEND_NAMES,
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_MAX_REGRESSION,
    DEFAULT_POLL_INTERVAL,
)

#: Confidence level of the ``--ci`` bootstrap bands.
CI_CONFIDENCE = 0.95

#: Preset used when ``--preset`` is not given.
DEFAULT_PRESET = "fast"

#: The historical per-figure subcommands, kept as aliases of ``run <name>``.
LEGACY_FIGURES = ("fig4", "fig5", "fig6", "fig8")


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
        help="execution backend: 'process' (worker pool, the default), "
        "'serial' (inline, no pool/pickle overhead — fastest for warm or "
        "small sweeps) or 'queue' (filesystem work queue under --cache-dir, "
        "executed by --jobs local workers and any external 'repro worker' "
        "processes; docs/distributed.md)",
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
    names = list_experiments()
    subcommands = parser.add_subparsers(
        dest="command",
        metavar="command",
        required=True,
        help="'run' any registered experiment or scenario file, 'list' the "
        "registry, 'sweep' several experiments at once, 'cache' for store "
        "maintenance, or a legacy figure alias",
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

    for name in LEGACY_FIGURES:
        figure_parser = subcommands.add_parser(
            name, help=f"regenerate {name} of the paper (alias of 'run {name}')"
        )
        _add_common_options(figure_parser)

    sweep = subcommands.add_parser(
        "sweep",
        help="run several experiment grids through one parallel sweep runner",
    )
    _add_common_options(sweep)
    sweep.add_argument(
        "--experiments",
        "--figures",
        dest="figures",
        nargs="+",
        choices=names,
        default=list(LEGACY_FIGURES),
        metavar="NAME",
        help="registered experiments to pool into the sweep "
        f"(default: {' '.join(LEGACY_FIGURES)})",
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
        "ordering, schema drift, protocol conformance; docs/determinism.md)",
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
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="justified-suppressions file (default: analysis-baseline.toml "
        "next to the checked root)",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="report raw findings, ignoring any baseline (CI uses this on "
        "doctored trees to prove the rules still fire)",
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
        choices=("compact", "stats", "index"),
        help="compact: drop superseded duplicate records (also refreshes an "
        "existing sqlite index); stats: report record/shard counts, store "
        "size and schema versions; index: build or incrementally refresh "
        "the store's sqlite query index (index.sqlite, used by 'repro serve')",
    )
    cache.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the results store to maintain",
    )

    worker = subcommands.add_parser(
        "worker",
        help="run a pull-based queue worker against a shared results store "
        "(claims work from <cache-dir>/queue/ until stopped; "
        "docs/distributed.md)",
    )
    worker.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the results store whose queue/ directory this worker drains; "
        "must be the same directory (or mount) the sweep parent uses",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="stable identifier for heartbeat and lease files "
        "(default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=DEFAULT_POLL_INTERVAL,
        metavar="SEC",
        help=f"seconds to sleep when the queue is empty (default: {DEFAULT_POLL_INTERVAL})",
    )
    worker.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        metavar="SEC",
        help="heartbeat silence after which a sibling worker is presumed dead "
        f"and its leases are stolen (default: {DEFAULT_LEASE_TIMEOUT:g}; must "
        "match the sweep parent's setting)",
    )
    worker.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SEC",
        help="exit after this many seconds without claimable work "
        "(default: run until interrupted)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N queue entries (default: unlimited)",
    )

    queue_cmd = subcommands.add_parser(
        "queue",
        help="inspect or drain the filesystem work queue of a results store "
        "('drain' merges every entry the queue owes — from POST /enqueue or "
        "an interrupted queue-backed sweep — into the store; "
        "docs/distributed.md)",
    )
    queue_cmd.add_argument(
        "action",
        choices=("drain", "status"),
        help="drain: fingerprint-verify every queued, leased and unmerged "
        "entry and merge worker results into the store; status: print queue "
        "counters",
    )
    queue_cmd.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the results store whose queue to use",
    )
    queue_cmd.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="local worker processes to spawn for the drain (default: 0 — "
        "rely on externally started 'repro worker' processes)",
    )
    queue_cmd.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts granted to a failing cell before the drain "
        "aborts (default: 0)",
    )
    queue_cmd.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="abort the drain if entries are still outstanding after this "
        "many seconds (default: wait forever; set this when relying on "
        "external workers so an empty fleet fails loudly)",
    )
    queue_cmd.add_argument(
        "--lease-timeout",
        type=float,
        default=DEFAULT_LEASE_TIMEOUT,
        metavar="SEC",
        help="heartbeat silence after which a worker is presumed dead and its "
        f"leases are requeued (default: {DEFAULT_LEASE_TIMEOUT:g})",
    )

    serve = subcommands.add_parser(
        "serve",
        help="serve an indexed results store over a read-only JSON HTTP API "
        "(GET /experiments, /points, /point/<key>, /report/<name>; "
        "POST /enqueue; docs/serving.md)",
    )
    serve.add_argument(
        "--cache-dir",
        type=Path,
        required=True,
        help="the results store to serve; its sqlite index is built "
        "automatically when missing",
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
    report = run_check(
        root=args.root,
        baseline_path=args.baseline,
        use_baseline=not args.no_baseline,
        rule_filter=args.rules or None,
    )
    print(report.to_json() if args.format == "json" else report.to_text())
    return report.exit_code


def _run_cache_command(args: argparse.Namespace) -> str:
    from repro.store import StoreIndex

    store = ResultsStore(args.cache_dir)
    if args.action == "index":
        return f"cache index: {StoreIndex(args.cache_dir).refresh()}"
    if args.action == "compact":
        report = f"cache compact: {store.compact()}"
        index = StoreIndex(args.cache_dir)
        if index.path.exists():
            # Compaction rewrites shard files; an existing index would be
            # stale (every rewritten file re-scans), so refresh it in the
            # same maintenance pass.
            report += f"\ncache index: {index.refresh()}"
        return report
    return f"cache stats: {store.stats()}"


def _run_worker_command(args: argparse.Namespace) -> int:
    """``repro worker``; blocks until stopped, idle-timeout or task budget."""
    from repro.runner.backends.queue import run_worker

    try:
        executed = run_worker(
            args.cache_dir,
            worker_id=args.worker_id,
            poll_interval=args.poll_interval,
            lease_timeout=args.lease_timeout,
            max_idle=args.max_idle,
            max_tasks=args.max_cells,
            progress=print,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        return 0
    print(f"worker done: {executed} task(s) executed")
    return 0


def _run_queue_command(args: argparse.Namespace) -> int:
    """``repro queue drain`` / ``repro queue status``."""
    from repro.runner.backends.queue import WorkQueue, drain_queue

    store = ResultsStore(args.cache_dir)
    if args.action == "status":
        counters = WorkQueue(store.root).status(args.lease_timeout)
        print(
            "queue status: "
            + ", ".join(f"{name}={value}" for name, value in counters.items())
        )
        return 0
    report = drain_queue(
        store.root,
        workers=args.workers,
        retries=args.retries,
        timeout=args.timeout,
        lease_timeout=args.lease_timeout,
        progress=print,
    )
    print(f"queue drain: {report}")
    return 0


def _run_serve_command(args: argparse.Namespace) -> int:
    """``repro serve``; blocks until interrupted (returns 0 on Ctrl-C)."""
    from repro.store import DEFAULT_HOST, DEFAULT_PORT, StoreIndex, create_server

    index = StoreIndex(args.cache_dir)
    if not index.path.exists():
        print(f"cache index: {index.refresh()}")
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
    if count > 1:
        return seed_range(experiment.spec.seed, count)
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    accounting: Optional[str] = None
    try:
        if args.command in ("run", "sweep", "worker", *LEGACY_FIGURES) or (
            args.command == "queue" and args.action == "drain"
        ):
            # A bad $REPRO_SIM_KERNEL is a one-line error before any work,
            # not a worker traceback out of the first capture.
            resolve_kernel_mode()
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
        elif args.command == "worker":
            return _run_worker_command(args)
        elif args.command == "queue":
            return _run_queue_command(args)
        else:
            preset = args.preset if args.preset is not None else DEFAULT_PRESET
            seed = args.seed if args.seed is not None else DEFAULT_SEED
            seeds = seed_range(seed, args.seeds) if args.seeds > 1 else None
            confidence = CI_CONFIDENCE if args.ci else None
            store = ResultsStore(args.cache_dir) if args.cache_dir is not None else None
            runner = SweepRunner(
                jobs=resolve_jobs(args.jobs), store=store, backend=args.backend
            )

            if args.command == "sweep":
                # One combined runner call: every selected experiment's cells
                # share the worker pool, so e.g. fig4's single cell runs
                # alongside fig8's 24-hour grid instead of serialising per
                # experiment.  Each experiment keeps its own seed base — the
                # CLI seed for registered experiments, the spec's run.seed
                # for scenario files (unless --seed was given explicitly) —
                # so the --seeds fan-out never silently reseeds a scenario.
                pooled: List = [
                    (get_experiment(name, preset, seed), seeds)
                    for name in args.figures
                ]
                for path in _expand_scenario_paths(args.scenarios):
                    experiment = _load_scenario(path, args.seed)
                    pooled.append((experiment, _scenario_seeds(experiment, args.seeds)))
                all_cells = [
                    cell
                    for experiment, its_seeds in pooled
                    for cell in experiment.cells(its_seeds)
                ]
                combined = runner.run(all_cells)
                reports = [
                    experiment.assemble(
                        combined, seeds=its_seeds, confidence=confidence
                    ).to_text()
                    for experiment, its_seeds in pooled
                ]
                report = "\n\n".join(reports) + "\n\n" + runner.summary()
            elif args.command == "run" and args.scenario is not None:
                experiment = _load_scenario(args.scenario, args.seed)
                outcome = run_experiment(
                    experiment,
                    runner=runner,
                    seeds=_scenario_seeds(experiment, args.seeds),
                    confidence=confidence,
                )
                report = outcome.to_text() + "\n" + runner.summary()
            else:
                # 'run NAME' and the legacy figure aliases share one code
                # path, which is what keeps their reports byte-identical.
                name = args.experiment if args.command == "run" else args.command
                overrides = parse_set_options(getattr(args, "overrides", []))
                experiment = get_experiment(
                    name, preset, seed, overrides=overrides or None
                )
                outcome = run_experiment(
                    experiment,
                    runner=runner,
                    seeds=seeds,
                    confidence=confidence,
                    preset=preset,
                    overrides=overrides,
                )
                report = outcome.to_text()
                if store is not None:
                    # Cache accounting on stderr: the report bytes (and an
                    # --output file) stay those of a storeless run.
                    accounting = runner.summary()
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
    "LEGACY_FIGURES",
    "PRESETS",
]

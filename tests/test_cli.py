"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.api import TOML_AVAILABLE
from repro.cli import PRESETS, build_parser, main

needs_toml = pytest.mark.skipif(not TOML_AVAILABLE, reason="no TOML parser available")

#: The example scripts.
EXAMPLES = sorted((Path(repro.__file__).resolve().parents[2] / "examples").glob("*.py"))

#: The routed simulation-mode scenario file (hops {1, 3} x utilization {0.05, 0.45}).
ROUTED_SMOKE = (
    Path(repro.__file__).resolve().parents[2] / "examples" / "scenarios" / "routed_smoke.toml"
)

SCENARIO_TOML = """\
name = "cli_wan"
title = "CLI scenario smoke"

[grid]
utilizations = [0.1, 0.3]

[base]
n_hops = 2

[run]
mode = "analytic"
sample_sizes = [100]
trials = 4
"""


class TestParser:
    def test_requires_a_figure(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_rejects_unknown_figure(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])
        capsys.readouterr()

    def test_defaults(self):
        # Sentinel None defaults let scenario runs distinguish an explicit
        # --seed/--preset; main() resolves them to "fast" / 2003.
        args = build_parser().parse_args(["run", "fig4"])
        assert args.preset is None
        assert args.seed is None
        assert args.output is None

    def test_default_preset_and_seed_resolve_as_before(self, capsys):
        """Omitting --preset/--seed is identical to the historical defaults."""
        assert main(["run", "fig4", "--preset", "quick"]) == 0
        explicit_seed = capsys.readouterr().out
        assert main(["run", "fig4", "--preset", "quick", "--seed", "2003"]) == 0
        assert capsys.readouterr().out == explicit_seed

    def test_presets_are_accepted(self):
        for preset in PRESETS:
            args = build_parser().parse_args(["run", "fig5", "--preset", preset])
            assert args.preset == preset

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestMain:
    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6", "fig8"])
    def test_quick_preset_runs_every_figure(self, figure, capsys):
        exit_code = main(["run", figure, "--preset", "quick", "--seed", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure" in out
        assert "detection" in out.lower()

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "reports" / "fig4.txt"
        exit_code = main(["run", "fig4", "--preset", "quick", "--output", str(target)])
        assert exit_code == 0
        assert target.exists()
        assert "Figure 4" in target.read_text()
        capsys.readouterr()

    def test_seed_changes_empirical_numbers_but_not_structure(self, capsys):
        main(["run", "fig4", "--preset", "quick", "--seed", "1"])
        first = capsys.readouterr().out
        main(["run", "fig4", "--preset", "quick", "--seed", "2"])
        second = capsys.readouterr().out
        assert first.splitlines()[0] == second.splitlines()[0]
        assert first != second

    def test_same_seed_is_reproducible(self, capsys):
        main(["run", "fig5", "--preset", "quick", "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", "fig5", "--preset", "quick", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestListCommand:
    def test_lists_every_registered_experiment(self, capsys):
        from repro.api import list_experiments

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in list_experiments():
            assert name in out
        assert "presets:" in out
        assert "--scenario" in out


class TestRunCommand:
    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6", "fig8"])
    def test_a_bare_figure_name_is_not_a_command(self, figure, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([figure, "--preset", "smoke"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument command: invalid choice: {figure!r}" in captured.err

    def test_runs_an_ablation_from_the_registry(self, capsys):
        assert main(["run", "ablation_estimators", "--preset", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Ablation — adversary estimator settings" in out

    def test_set_overrides_change_the_configuration(self, capsys):
        assert main(["run", "fig6", "--preset", "smoke"]) == 0
        default = capsys.readouterr().out
        argv = ["run", "fig6", "--preset", "smoke", "--set", "utilizations=0.05,0.4"]
        assert main(argv) == 0
        overridden = capsys.readouterr().out
        assert default != overridden
        assert "0.4" in overridden

    def test_bad_override_key_exits_cleanly(self, capsys):
        assert main(["run", "fig6", "--preset", "smoke", "--set", "utilisation=1"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "utilizations" in err  # the message names the valid fields

    def test_run_requires_exactly_one_target(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        scenario = tmp_path / "s.toml"
        scenario.write_text(SCENARIO_TOML)
        with pytest.raises(SystemExit):
            main(["run", "fig6", "--scenario", str(scenario)])
        capsys.readouterr()

    def test_set_is_rejected_with_scenario_files(self, capsys, tmp_path):
        scenario = tmp_path / "s.toml"
        scenario.write_text(SCENARIO_TOML)
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(scenario), "--set", "trials=9"])
        assert "--set" in capsys.readouterr().err

    def test_ci_without_enough_seeds_is_an_argparse_error(self, capsys):
        """The satellite acceptance: rejected at parse time, not mid-experiment."""
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig8", "--preset", "smoke", "--ci"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--ci requires --seeds >= 2" in err

    def test_multi_seed_run_with_ci(self, capsys):
        argv = ["run", "fig6", "--preset", "smoke", "--seeds", "2", "--ci"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "mean of 2 seeds" in out
        assert "ci95%" in out


class TestScenarioCli:
    # Python 3.10 without the tomli backport has no TOML parser; the
    # scenario *dict* surface is covered by tests/api/test_scenario.py.
    pytestmark = needs_toml

    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "cli_wan.toml"
        path.write_text(SCENARIO_TOML)
        return path

    def test_scenario_file_runs_end_to_end(self, scenario_path, capsys):
        assert main(["run", "--scenario", str(scenario_path)]) == 0
        out = capsys.readouterr().out
        assert "CLI scenario smoke" in out
        assert "utilization=0.3" in out
        assert "sweep summary:" in out

    def test_scenario_warm_cache_round_trip(self, scenario_path, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["run", "--scenario", str(scenario_path), "--cache-dir", str(cache)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "2 simulated" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulated" in warm and "2 cache hits" in warm

        def strip(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("sweep summary:")
            ]

        assert strip(cold) == strip(warm)

    def test_sweep_pools_scenario_cells_with_registered_experiments(
        self, scenario_path, capsys
    ):
        argv = [
            "sweep",
            "--experiments", "fig5", "ablation_tap",
            "--scenario", str(scenario_path),
            "--preset", "smoke",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Ablation — adversary tap position" in out
        assert "CLI scenario smoke" in out
        assert "sweep summary:" in out

    def test_missing_scenario_file_exits_cleanly(self, capsys, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "nope.toml")]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("packet_size_bytes = 0", "packet_size_bytes=0"),
            ("link_rate_bps = 0.0", "link_rate_bps=0.0"),
            ("low_rate_pps = -5.0", "low_rate_pps=-5.0"),
        ],
    )
    def test_degenerate_scenario_file_exits_cleanly(self, tmp_path, capsys, line, fragment):
        """Regression: a zero packet size used to print a full simulated report."""
        path = tmp_path / "degenerate.toml"
        path.write_text(
            'name = "degenerate"\ntitle = "degenerate"\n\n'
            f"[base]\n{line}\n\n"
            '[run]\nmode = "simulation"\nsample_sizes = [100]\ntrials = 2\n'
        )
        assert main(["run", "--scenario", str(path), "--backend", "serial"]) == 2
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert "sweep summary:" not in captured.out

    def test_explicit_seed_overrides_the_scenario_seed(self, scenario_path, capsys):
        """--seed is not silently swallowed: it reseeds the scenario's cells."""
        assert main(["run", "--scenario", str(scenario_path)]) == 0
        default = capsys.readouterr().out
        assert main(["run", "--scenario", str(scenario_path), "--seed", "7"]) == 0
        reseeded = capsys.readouterr().out
        assert default != reseeded
        # The scenario's own seed equals the file's run.seed, so passing it
        # explicitly reproduces the default output.
        assert main(["run", "--scenario", str(scenario_path), "--seed", "2003"]) == 0
        assert capsys.readouterr().out == default

    def test_preset_is_rejected_with_scenario_files(self, scenario_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", str(scenario_path), "--preset", "smoke"])
        assert "--preset" in capsys.readouterr().err

    def test_sweep_multi_seed_keeps_the_scenario_seed_base(self, tmp_path, capsys):
        """sweep --scenario --seeds N fans out from the file's run.seed, like run."""
        path = tmp_path / "seeded.toml"
        path.write_text(SCENARIO_TOML + "seed = 42\n")

        def stripped(text):
            return [
                line
                for line in text.splitlines()
                if line.strip() and not line.startswith("sweep summary:")
            ]

        assert main(["run", "--scenario", str(path), "--seeds", "2", "--ci"]) == 0
        via_run = capsys.readouterr().out
        argv = ["sweep", "--experiments", "fig5", "--scenario", str(path),
                "--preset", "smoke", "--seeds", "2", "--ci"]
        assert main(argv) == 0
        via_sweep = capsys.readouterr().out
        assert "mean of 2 seeds" in via_sweep
        for line in stripped(via_run):
            assert line in via_sweep


class TestCacheStats:
    def test_stats_reports_store_health(self, tmp_path, capsys, put_capture_record):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        store.put("aaaa11", {}, {"x": 1})
        store.put("aaaa11", {}, {"x": 2})
        put_capture_record(store, "bbbb22", {}, {"y": 1})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache stats:" in out
        assert "2 records (1 cells, 1 captures)" in out
        assert "2 shard files" in out
        assert "1 superseded duplicates" in out
        assert "schema versions: 1" in out

    def test_stats_on_an_empty_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 records" in out
        assert "(empty store)" in out


class TestBenchCommand:
    """repro bench run / compare, exercised end-to-end at miniature sizes."""

    MINI = ["bench", "run", "--intervals", "400", "--repeats", "1"]

    def test_run_writes_the_artifact_and_gates_on_speedup(self, tmp_path, capsys):
        from repro.runner.bench import BenchResult

        artifact = tmp_path / "BENCH_test.json"
        code = main(self.MINI + ["--pr", "test", "--output", str(artifact), "--min-speedup", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup gate passed" in out
        assert BenchResult.load(artifact).pr == "test"

    def test_unreachable_min_speedup_fails(self, capsys):
        code = main(self.MINI + ["--min-speedup", "1e9"])
        captured = capsys.readouterr()
        assert code == 1
        assert "below the required" in captured.err

    def test_compare_detects_a_synthetic_regression(self, tmp_path, capsys):
        import json

        from repro.runner.bench import BenchResult, collect_machine_info

        current = BenchResult(
            pr="t",
            machine=collect_machine_info(),
            metrics={"cold_capture_speedup": 10.0},
        )
        doctored = BenchResult(
            pr="t",
            machine=collect_machine_info(),
            metrics={"cold_capture_speedup": 100.0},
        )
        current_path, baseline_path = tmp_path / "cur.json", tmp_path / "base.json"
        current.save(current_path)
        doctored.save(baseline_path)
        assert main(["bench", "compare", str(current_path), str(baseline_path)]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert main(["bench", "compare", str(current_path), str(current_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_committed_artifact_is_loadable_and_fast(self):
        """The repo's own BENCH_pr6.json parses and records the >=3x speedup."""
        from pathlib import Path

        from repro.runner.bench import BenchResult

        artifact = Path(__file__).resolve().parents[1] / "BENCH_pr6.json"
        result = BenchResult.load(artifact)
        assert result.metrics["cold_capture_speedup"] >= 3.0
        assert result.notes["captures_identical"] is True


@pytest.fixture
def through_both_paths(monkeypatch):
    """``through_both_paths(render)`` calls ``render()`` on the kernel, then
    again on the event reference, and returns both outputs.

    The second call swaps ``simulate_gateway_capture_events`` in for
    ``simulate_gateway_capture`` at both runtime call sites,
    ``experiments/base.py`` and ``runner/capture.py``.  The kernel's gateway
    step, which every kernel capture calls once whoever calls it, counts the
    run's gateway captures; the reference must run for each of them, and the
    kernel for none, so a call site that bypasses the swap fails the test
    instead of comparing the kernel with itself.
    """
    from repro.experiments import base
    from repro.runner import capture

    calls = {"kernel": 0, "reference": 0}
    kernel_step = base.simulate_padded_capture

    def counted_kernel_step(*args, **kwargs):
        calls["kernel"] += 1
        return kernel_step(*args, **kwargs)

    def reference(*args, **kwargs):
        calls["reference"] += 1
        return base.simulate_gateway_capture_events(*args, **kwargs)

    def render_both(render):
        monkeypatch.setattr(base, "simulate_padded_capture", counted_kernel_step)
        kernel_output = render()
        captures, calls["kernel"] = calls["kernel"], 0
        assert captures > 0
        for module in (base, capture):
            monkeypatch.setattr(module, "simulate_gateway_capture", reference)
        reference_output = render()
        assert calls == {"kernel": 0, "reference": captures}
        return kernel_output, reference_output

    return render_both


class TestCaptureKernel:
    """The kernel renders the same reports as its event reference."""

    @pytest.mark.parametrize(
        "experiment, preset",
        [
            ("fig8", "quick"),
            ("fig6", "quick"),
            ("ablation_vit", "quick"),
            ("ablation_tap", "fast"),
        ],
        ids=["fig8-quick", "fig6-quick", "ablation_vit-quick", "ablation_tap-fast"],
    )
    def test_event_reference_renders_the_same_report(
        self, experiment, preset, through_both_paths, capsys
    ):
        """Every experiment whose report needs gateway captures, at a preset
        the event engine renders in about a second; fig8 quick shares one
        gateway capture per network among its cells."""
        argv = ["run", experiment, "--preset", preset, "--backend", "serial"]

        def render():
            assert main(argv) == 0
            return capsys.readouterr().out

        kernel_report, reference_report = through_both_paths(render)
        assert reference_report == kernel_report


class TestBackendChoices:
    """``serial`` and ``process`` are the only backends; nothing else parses."""

    def test_queue_backend_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig6", "--backend", "queue"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [error] = [line for line in captured.err.splitlines() if "error:" in line]
        assert "argument --backend: invalid choice: 'queue'" in error
        assert "'serial'" in error and "'process'" in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["worker", "--cache-dir", "store", "--max-idle", "0"],
            ["queue", "drain", "--cache-dir", "store", "--timeout", "1"],
            ["queue", "status", "--cache-dir", "store"],
        ],
        ids=["worker", "queue-drain", "queue-status"],
    )
    def test_queue_commands_are_unknown(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"invalid choice: {argv[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--experiments", "fig6"], ["run", "fig6"]],
        ids=["sweep", "run"],
    )
    def test_every_experiment_command_refuses_the_queue_backend(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--backend", "queue"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --backend: invalid choice: 'queue'" in captured.err

    def test_help_lists_no_queue_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        usage = capsys.readouterr().out
        assert "serve" in usage
        for retired in ("worker", "queue", "distributed.md"):
            assert retired not in usage


class TestServeCommand:
    def test_parser_accepts_serve_options(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", ".sweep-cache", "--host", "0.0.0.0", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.port == 0

    def test_serve_help_names_no_write_endpoint(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        usage = capsys.readouterr().out
        assert "read-only" in usage
        assert "POST" not in usage and "enqueue" not in usage

    def test_serve_requires_a_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve"])
        assert excinfo.value.code == 2

    def test_serve_on_a_non_directory_store_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        assert main(["serve", "--cache-dir", str(path)]) == 2
        assert "repro: error:" in capsys.readouterr().err


class TestStartup:
    """Neither networkx nor scipy is a runtime dependency; nothing may load them,
    and start-up loads only the serial execution path."""

    #: Event-engine modules the runtime must never load; only
    #: ``simulate_gateway_capture_events`` imports them, all but
    #: ``repro.padding.receiver`` (``repro.traffic`` covers every
    #: ``repro.traffic.*`` module).
    EVENT_MODULES = (
        "repro.sim.engine",
        "repro.sim.events",
        "repro.sim.process",
        "repro.sim.monitor",
        "repro.network.router",
        "repro.network.link",
        "repro.network.path",
        "repro.network.crosstraffic",
        "repro.padding.gateway",
        "repro.padding.receiver",
        "repro.traffic",
        "repro.adversary.tap",
    )

    @staticmethod
    def run_python(code: str, **environment: str) -> str:
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, **environment)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return completed.stdout.strip()

    @pytest.mark.parametrize("library", ["networkx", "scipy"])
    def test_cli_import_does_not_load(self, library):
        code = f"import sys, repro.cli; print({library!r} in sys.modules)"
        assert self.run_python(code) == "False"

    def test_start_up_loads_no_module_that_only_some_runs_use(self):
        """``numpy.ma`` serves no run; ``statistics`` loads with fig4's Q–Q
        test and ``tomllib`` with a scenario file, not at start-up."""
        code = (
            "import sys, repro.cli\nfrom repro.api import ScenarioSpec\n"
            "print([m for m in ('numpy.ma', 'statistics', 'tomllib') if m in sys.modules])"
        )
        assert self.run_python(code) == "[]"

    @pytest.mark.parametrize(
        "argv, status",
        [(["--version"], 0), (["--help"], 0), (["run", "nosuch"], 2)],
        ids=["version", "help", "usage-error"],
    )
    def test_parsing_alone_loads_no_library(self, argv, status):
        """What argparse answers by itself (the version, the help text, a
        usage error) needs only ``repro.defaults``: no numpy, no experiment."""
        code = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit as exit:\n"
            "        status = exit.code\n"
            "print(status, sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'numpy' or m.startswith('repro.experiments')))"
        )
        assert self.run_python(code) == f"{status} []"

    def test_parse_time_experiment_names_are_the_registry(self):
        from repro.api import list_experiments
        from repro.defaults import EXPERIMENT_NAMES

        assert list(EXPERIMENT_NAMES) == list_experiments()

    #: What no serial run executes: the process pool (:mod:`concurrent.futures`
    #: and :mod:`multiprocessing`) and ``repro bench``.
    SCALE_OUT_MODULES = (
        "concurrent.futures",
        "repro.runner.bench",
        "multiprocessing",
    )

    @pytest.mark.parametrize(
        "code",
        [
            "import repro.cli\nfrom repro.api import ScenarioSpec\n",
            "import contextlib, io\nfrom repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['sweep', '--preset', 'smoke', '--backend', 'serial']) == 0\n",
        ],
        ids=["start-up", "serial-sweep"],
    )
    def test_serial_path_loads_no_scale_out_module(self, code):
        code += (
            "import sys\n"
            f"print(sorted(k for k in sys.modules if k.startswith({self.SCALE_OUT_MODULES!r})))"
        )
        assert self.run_python(code) == "[]"

    def test_a_two_worker_run_loads_multiprocessing(self):
        """fig6 smoke has two pending cells: ``--jobs 2`` starts a pool."""
        code = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['run', 'fig6', '--preset', 'smoke', '--jobs', '2'])\n"
            "print(status, 'multiprocessing' in sys.modules)"
        )
        assert self.run_python(code) == "0 True"

    def test_the_serial_backend_ignores_jobs(self):
        """``--backend serial`` runs every cell in the parent at any ``--jobs``,
        and the summary still reports both."""
        code = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    status = main(['sweep', '--experiments', 'fig6', '--preset', 'smoke',\n"
            "                   '--backend', 'serial', '--jobs', '4'])\n"
            "print(status, 'multiprocessing' in sys.modules)\n"
            "print(out.getvalue().splitlines()[-1])"
        )
        status, summary = self.run_python(code).splitlines()
        assert status == "0 False"
        assert summary == (
            "sweep summary: 2 cells, 2 simulated, 0 cache hits, jobs=4, backend=serial"
        )

    def test_smoke_sweep_loads_no_scipy(self):
        code = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(['sweep', '--preset', 'smoke', '--backend', 'serial'])\n"
            "print(status, sorted(k for k in sys.modules if k.startswith('scipy')))"
        )
        assert self.run_python(code) == "0 []"

    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.cli",
            "repro.api",
            "repro.experiments",
            "repro.runner",
            "repro.population",
            "repro.store",
            "repro.sim",
            "repro.sim.kernel",
            "repro.network",
            "repro.padding",
            "repro.adversary",
        ],
    )
    def test_runtime_import_loads_no_event_module(self, module):
        code = (
            f"import importlib, sys; importlib.import_module({module!r}); "
            f"print(sorted(k for k in sys.modules if k.startswith({self.EVENT_MODULES!r})))"
        )
        assert self.run_python(code) == "[]"

    @pytest.mark.parametrize(
        "package", ["repro.sim", "repro.network", "repro.padding", "repro.adversary"]
    )
    def test_package_exports_no_event_class(self, package):
        """Reference classes are imported from their own modules, not re-exported."""
        module = importlib.import_module(package)
        assert module.__all__
        for name in module.__all__:
            origin = getattr(getattr(module, name), "__module__", None) or ""
            assert not origin.startswith(self.EVENT_MODULES), (name, origin)

    @pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
    def test_example_runs_without_the_event_reference(self, script, tmp_path, monkeypatch):
        """Each example script prints its report and loads neither the
        reference nor scipy, which only the test extra installs."""
        monkeypatch.chdir(tmp_path)
        code = (
            "import contextlib, io, runpy, sys\n"
            f"sys.argv = [{str(script)!r}]\n"
            "output = io.StringIO()\n"
            "with contextlib.redirect_stdout(output):\n"
            f"    runpy.run_path({str(script)!r}, run_name='__main__')\n"
            "print(len(output.getvalue().splitlines()), "
            f"sorted(k for k in sys.modules if k.startswith({self.EVENT_MODULES!r} + ('scipy',))))"
        )
        lines, _, modules = self.run_python(code).rpartition("\n")[2].partition(" ")
        assert int(lines) > 0
        assert modules == "[]"

    def test_event_modules_are_what_the_reference_loads(self):
        """One routed reference capture loads every listed module but
        ``repro.padding.receiver``, so no entry of ``EVENT_MODULES`` is stale
        and the tests that find none of them loaded mean something."""
        code = (
            "import sys\n"
            "from repro.experiments.base import ScenarioConfig, "
            "simulate_gateway_capture_events\n"
            "from repro.sim.random import RandomStreams\n"
            "scenario = ScenarioConfig(n_hops=2, cross_utilization=0.2)\n"
            "simulate_gateway_capture_events(scenario, 10.0, 20, RandomStreams(1), 'low', "
            "with_network=True)\n"
            f"print(sorted(m for m in {self.EVENT_MODULES!r} if m not in sys.modules))"
        )
        assert self.run_python(code) == "['repro.padding.receiver']"

    @needs_toml
    def test_routed_scenario_matches_the_event_reference(self, tmp_path, through_both_paths):
        """The runtime never imports the event engine, and the reference renders
        the same routed report to the byte."""
        def argv(name):
            return ["run", "--scenario", str(ROUTED_SMOKE), "--backend", "serial",
                    "--output", str(tmp_path / name)]

        code = (
            "import contextlib, io, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({argv('runtime.txt')!r})\n"
            f"print(status, sorted(k for k in sys.modules if k.startswith({self.EVENT_MODULES!r})))"
        )
        assert self.run_python(code) == "0 []"

        def render():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv("report.txt")) == 0
            return (tmp_path / "report.txt").read_bytes()

        kernel_report, reference_report = through_both_paths(render)
        assert kernel_report == (tmp_path / "runtime.txt").read_bytes()
        assert reference_report == kernel_report
        assert b"hops=3/utilization=0.45" in kernel_report

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig8", "--preset", "quick", "--backend", "serial"],
            pytest.param(
                ["run", "--scenario", str(ROUTED_SMOKE), "--backend", "serial"],
                marks=needs_toml,
            ),
        ],
        ids=["fig8-quick", "routed-smoke"],
    )
    def test_runtime_ignores_the_retired_kernel_variable(self, argv, monkeypatch):
        """``REPRO_SIM_KERNEL`` no longer picks a capture path: any value gives
        the unset run's exit status and bytes, and loads no event module."""
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        code = (
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "output = io.StringIO()\n"
            "with contextlib.redirect_stdout(output):\n"
            f"    status = main({argv!r})\n"
            "print(json.dumps([status, output.getvalue(), "
            f"sorted(k for k in sys.modules if k.startswith({self.EVENT_MODULES!r}))]))"
        )
        unset = json.loads(self.run_python(code))
        assert unset[0] == 0 and unset[1] and unset[2] == []
        for value in ("event", "auto"):
            assert json.loads(self.run_python(code, REPRO_SIM_KERNEL=value)) == unset, value

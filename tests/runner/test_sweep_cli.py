"""End-to-end tests for the ``repro sweep`` subcommand and the CI cache fixture."""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from repro.api import TOML_AVAILABLE, list_experiments
from repro.cli import build_parser, main

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"


def strip_summary(output: str) -> str:
    """The report text without the trailing ``sweep summary:`` accounting line."""
    return "\n".join(
        line for line in output.splitlines() if not line.startswith("sweep summary:")
    )


def summary_line(output: str) -> str:
    """The one ``sweep summary:`` line of a report."""
    [line] = [line for line in output.splitlines() if line.startswith("sweep summary:")]
    return line


def cold_cell_count(output: str, tail: str) -> int:
    """The cell count of a cold sweep's summary: every cell simulated, no hit."""
    match = re.fullmatch(
        rf"sweep summary: ([1-9][0-9]*) cells, \1 simulated, 0 cache hits, {tail}",
        summary_line(output),
    )
    assert match, summary_line(output)
    return int(match.group(1))


def warm_summary(cells: int, tail: str) -> str:
    """The summary of a sweep that served all ``cells`` from its store."""
    return f"sweep summary: {cells} cells, 0 simulated, {cells} cache hits, {tail}"


class TestSweepParser:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.figures == ["fig4", "fig5", "fig6", "fig8"]
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_figure_selection(self):
        args = build_parser().parse_args(["sweep", "--experiments", "fig6", "fig8"])
        assert args.figures == ["fig6", "fig8"]

    def test_jobs_and_cache_dir_accepted_on_run(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--jobs", "4", "--cache-dir", "/tmp/cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == Path("/tmp/cache")


class TestSweepCommand:
    def test_jobs_count_does_not_change_the_results(self, capsys):
        """The acceptance bar: fig6-style grid, bit-identical at --jobs 1 vs 4."""
        argv = ["sweep", "--experiments", "fig6", "--preset", "smoke"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert strip_summary(serial) == strip_summary(parallel)
        assert "jobs=1" in serial and "jobs=4" in parallel

    def test_second_invocation_performs_zero_simulations(self, tmp_path, capsys):
        """The default smoke sweep on two workers, cold into an empty sharded
        store, then warm from it: the same report, nothing simulated."""
        argv = ["sweep", "--preset", "smoke", "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cells = cold_cell_count(cold, "jobs=2, backend=process")
        shards = [path.relative_to(tmp_path) for path in tmp_path.rglob("*") if path.is_file()]
        assert len(shards) == cells
        assert all(
            len(shard.parts) == 2 and shard.suffix == ".jsonl"
            and shard.parent.name == shard.stem[:2]
            for shard in shards
        )
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert summary_line(warm) == warm_summary(cells, "jobs=2, backend=process")
        assert strip_summary(cold) == strip_summary(warm)

    def test_cache_survives_jobs_count_changes(self, tmp_path, capsys):
        base = ["sweep", "--experiments", "fig5", "--preset", "smoke", "--cache-dir", str(tmp_path)]
        main(base + ["--jobs", "2"])
        capsys.readouterr()
        main(base + ["--jobs", "1"])
        assert "0 simulated" in capsys.readouterr().out

    def test_sweep_output_file(self, tmp_path, capsys):
        target = tmp_path / "reports" / "sweep.txt"
        assert (
            main(
                ["sweep", "--experiments", "fig6", "--preset", "smoke", "--output", str(target)]
            )
            == 0
        )
        capsys.readouterr()
        assert "Figure 6" in target.read_text()

    def test_configuration_errors_exit_cleanly(self, capsys):
        """No traceback for bad values that pass argparse but fail validation."""
        assert main(["run", "fig6", "--preset", "smoke", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "jobs=0" in captured.err

    def test_run_accepts_jobs_and_cache(self, tmp_path, capsys):
        argv = ["run", "fig6", "--preset", "smoke", "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        from repro.runner import ResultsStore

        assert ResultsStore(tmp_path).stats().cells > 0
        assert list(tmp_path.glob("??/*.jsonl"))  # sharded layout on disk


class TestRunCacheAccounting:
    """``repro run NAME --cache-dir`` reports its cache outcome on stderr."""

    def test_cold_fig6_fast_simulates_one_capture_per_seed(self, tmp_path, capsys):
        argv = [
            "run", "fig6", "--preset", "fast", "--seeds", "3",
            "--backend", "serial", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert cold.err.splitlines() == [
            "sweep summary: 18 cells, 18 simulated, 0 cache hits, "
            "3 gateway captures simulated, jobs=1, backend=serial"
        ]
        assert "sweep summary" not in cold.out
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "18 cells, 0 simulated, 18 cache hits" in warm.err
        assert warm.out == cold.out

    def test_report_and_output_file_match_a_storeless_run(self, tmp_path, capsys):
        base = ["run", "fig6", "--preset", "smoke", "--backend", "serial"]
        assert main(base + ["--output", str(tmp_path / "plain.txt")]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        cached = base + ["--cache-dir", str(tmp_path / "store")]
        assert main(cached + ["--output", str(tmp_path / "cached.txt")]) == 0
        with_store = capsys.readouterr()
        assert "sweep summary:" in with_store.err
        assert with_store.out.replace("cached.txt", "plain.txt") == plain.out
        assert (tmp_path / "cached.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()


class TestMultiSeedCli:
    """``--seeds N --ci``: mean ± bootstrap CI per grid point, from the CLI."""

    def test_single_seed_output_is_unchanged_by_the_seeds_flag(self, capsys):
        argv = ["sweep", "--experiments", "fig6", "--preset", "smoke"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--seeds", "1"]) == 0
        explicit = capsys.readouterr().out
        assert bare == explicit

    def test_multi_seed_sweep_reports_mean_and_ci_for_every_figure(self, capsys):
        assert main(["sweep", "--preset", "smoke", "--seeds", "3", "--ci"]) == 0
        out = capsys.readouterr().out
        for figure_title in ("Figure 4", "Figure 5", "Figure 6", "Figure 8"):
            assert figure_title in out
        assert out.count("mean of 3 seeds") >= 4
        assert "ci95%" in out
        assert "[" in out and "]" in out
        assert "27 cells" in out  # 3 seeds: the 9-cell smoke grid tripled

    def test_ci_without_enough_seeds_fails_at_parse_time(self, capsys):
        """The bad combination is an argparse error, not a deep experiment one."""
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig6", "--preset", "smoke", "--ci"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "--ci requires --seeds >= 2" in err

    def test_ci_report_equals_the_per_resample_loop(
        self, monkeypatch, capsys, reference_bootstrap_ci
    ):
        """Batched resampling leaves every ``--ci`` band of the report unchanged."""
        import repro.runner.grid
        import repro.stats.bootstrap

        argv = ["sweep", "--preset", "smoke", "--seeds", "3", "--ci"]
        assert main(argv) == 0
        batched = capsys.readouterr().out

        calls = []

        def reference(*args, **kwargs):
            calls.append(args)
            return reference_bootstrap_ci(*args, **kwargs)

        monkeypatch.setattr(repro.stats.bootstrap, "bootstrap_ci", reference)
        monkeypatch.setattr(repro.runner.grid, "bootstrap_ci", reference)
        assert main(argv) == 0
        looped = capsys.readouterr().out
        assert calls  # the bands really came from the reference loop
        assert strip_summary(batched) == strip_summary(looped)

    def test_multi_seed_cache_round_trip(self, tmp_path, capsys):
        """The ``--ci`` bands a warm store serves equal those of the run that
        simulated the cells, for every registered experiment in one sweep."""
        argv = [
            "sweep", "--experiments", *list_experiments(), "--preset", "smoke",
            "--seeds", "3", "--ci", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "ci95%" in cold
        cells = cold_cell_count(cold, "jobs=1, backend=process")
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert summary_line(warm) == warm_summary(cells, "jobs=1, backend=process")
        assert strip_summary(warm) == strip_summary(cold)


GALLERY = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


@pytest.mark.skipif(not TOML_AVAILABLE, reason="no TOML parser available")
class TestScenarioGallery:
    """The scenario files under ``examples/scenarios`` through the sweep
    runner and its store."""

    @pytest.mark.parametrize("name", ["wan_smoke", "population_smoke"])
    def test_scenario_replays_from_the_store(self, name, tmp_path, capsys):
        """Cold on two workers simulates every cell, warm none, and both
        print the same report; the store holds one record per cell."""
        argv = [
            "run", "--scenario", str(GALLERY / f"{name}.toml"),
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        cells = cold_cell_count(cold, "jobs=2, backend=process")
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert summary_line(warm) == warm_summary(cells, "jobs=2, backend=process")
        assert strip_summary(warm) == strip_summary(cold)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith(
            f"cache stats: {cells} records ({cells} cells, 0 captures)"
        )

    def test_a_directory_pools_the_whole_gallery(self, tmp_path, capsys):
        """A directory given to ``--scenario`` adds every file in it to the sweep."""
        argv = [
            "sweep", "--experiments", "fig4", "--scenario", str(GALLERY),
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        cold_cell_count(out, "jobs=1, backend=process")
        for title in (
            "Figure 4 — CIT padding, no cross traffic",
            "Named defence configurations",
            "Per-AS detection on a generated 5-AS topology",
            "CIT across a loaded WAN path",
            "CIT behind shared routers",
        ):
            assert title in out


class TestCacheCommand:
    def test_compact_drops_duplicates(self, tmp_path, capsys):
        from repro.runner import ResultsStore

        store = ResultsStore(tmp_path)
        store.put("abc", {}, {"x": 1})
        store.put("abc", {}, {"x": 2})
        store.put("def", {}, {"x": 3})
        assert main(["cache", "compact", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache compact: 2 records kept, 1 superseded duplicates dropped" in out
        reopened = ResultsStore(tmp_path)
        assert reopened.get("abc")["result"] == {"x": 2}
        assert reopened.get("def")["result"] == {"x": 3}
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert "0 superseded duplicates" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["cache", "stats"],
            ["cache", "compact"],
            ["sweep", "--experiments", "fig6", "--preset", "smoke"],
        ],
    )
    def test_pre_sharding_store_is_a_cli_error(self, tmp_path, capsys, command):
        """An old flat store fails loudly instead of reading as an empty cache."""
        flat = tmp_path / "results.jsonl"
        flat.write_text("{}\n")
        assert main(command + ["--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "results.jsonl" in captured.err
        assert "repro cache compact" in captured.err
        assert captured.out == ""
        assert sorted(path.name for path in tmp_path.iterdir()) == ["results.jsonl"]

    def test_index_is_not_a_cache_action(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "index", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [error] = [line for line in captured.err.splitlines() if "error:" in line]
        assert "argument action: invalid choice: 'index'" in error
        assert "'compact'" in error and "'stats'" in error
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_is_required(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "compact"])
        capsys.readouterr()


class TestCommittedFixture:
    """The mini store committed for the warm-cache smoke sweep stays warm."""

    #: The default smoke sweep on two workers, as CI's installed-package
    #: job runs it against a copy of the fixture.
    ARGV = ["sweep", "--preset", "smoke", "--jobs", "2"]
    TAIL = "jobs=2, backend=process"

    def sweep(self, capsys, *options: str) -> str:
        assert main(self.ARGV + list(options)) == 0
        return capsys.readouterr().out

    def test_fixture_exists(self):
        shards = sorted(FIXTURE_CACHE.glob("??/*.jsonl"))
        assert len(shards) == 9
        assert all(shard.parent.name == shard.stem[:2] for shard in shards)
        assert not (FIXTURE_CACHE / "results.jsonl").exists()

    def test_smoke_sweep_is_fully_cached_by_the_fixture(self, tmp_path, capsys):
        """Every cell of the default smoke grid must hit the committed cache.

        If this fails after an intentional change to the smoke preset, the
        cell schema or the scenario defaults, regenerate the fixture:

            rm -rf tests/fixtures/sweep_cache/??
            PYTHONPATH=src python -m repro sweep --preset smoke --jobs 2 \
                --cache-dir tests/fixtures/sweep_cache
        """
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, cache)
        replayed = self.sweep(capsys, "--cache-dir", str(cache))

        # The replayed numbers must match a fresh simulation — "0 simulated"
        # alone would also pass for a stale fixture.
        fresh = self.sweep(capsys)
        cells = cold_cell_count(fresh, self.TAIL)
        assert summary_line(replayed) == warm_summary(cells, self.TAIL)
        assert strip_summary(replayed) == strip_summary(fresh)

    def test_compaction_keeps_what_the_store_serves(self, tmp_path, capsys):
        """A fixture copy whose every shard holds a stale record before its
        winner: compaction drops exactly the stale records, and the warm
        sweep after it still equals a cold one."""
        cold = self.sweep(capsys)
        cells = cold_cell_count(cold, self.TAIL)
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, cache)
        for shard in cache.glob("??/*.jsonl"):
            [winner] = shard.read_text(encoding="utf-8").splitlines()
            stale = json.loads(winner)
            stale["result"]["empirical_detection_rate"] = {
                feature: dict.fromkeys(rates, -1.0)
                for feature, rates in stale["result"]["empirical_detection_rate"].items()
            }
            shard.write_text(f"{json.dumps(stale, sort_keys=True)}\n{winner}\n", encoding="utf-8")

        assert main(["cache", "compact", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == (
            f"cache compact: {cells} records kept, {cells} superseded duplicates dropped\n"
        )
        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert f"{cells} shard files, 0 superseded duplicates" in capsys.readouterr().out
        compacted = self.sweep(capsys, "--cache-dir", str(cache))
        assert summary_line(compacted) == warm_summary(cells, self.TAIL)
        assert strip_summary(compacted) == strip_summary(cold)

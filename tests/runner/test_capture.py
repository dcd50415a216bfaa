"""Tests for two-level shared-capture cells (gateway capture + noise children)."""

from __future__ import annotations

import base64
import pickle
from dataclasses import replace

import pytest

from repro.exceptions import ConfigurationError
from repro.api import get_experiment
from repro.experiments import (
    CollectionMode,
    Fig6Config,
    Fig6Experiment,
    Fig8Config,
    Fig8Experiment,
    ScenarioConfig,
)
from repro.runner import (
    CaptureSpec,
    GridSpec,
    ResultsStore,
    SweepCell,
    SweepRunner,
    run_capture,
    run_cell,
)
from repro.runner.fingerprint import fingerprint_payload


def lab_scenario(utilization: float = 0.2) -> ScenarioConfig:
    return ScenarioConfig(n_hops=3, cross_utilization=utilization)


def two_level_cell(utilization: float = 0.2, **overrides) -> SweepCell:
    scenario = lab_scenario(utilization)
    params = dict(
        key=f"child/util={utilization!r}",
        scenario=scenario,
        sample_sizes=(60,),
        trials=4,
        mode=CollectionMode.HYBRID,
        seed=11,
        seed_offsets=("train-x", "test-x"),
    )
    params.update(overrides)
    capture = CaptureSpec(
        key="parent",
        scenario=params["scenario"],
        n_intervals=max(params["sample_sizes"]) * params["trials"] + 1,
        seed=params["seed"],
        seed_offsets=params["seed_offsets"],
    )
    return SweepCell(capture=capture, **params)


class TestCaptureSpec:
    def test_fingerprint_ignores_network_conditions(self):
        """One capture serves every (hops, link rate, utilization) of a grid."""
        a = CaptureSpec(key="a", scenario=lab_scenario(0.1), n_intervals=100, seed=11)
        b = CaptureSpec(key="b", scenario=lab_scenario(0.5), n_intervals=100, seed=11)
        c = CaptureSpec(
            key="c",
            scenario=replace(lab_scenario(0.1), n_hops=15, link_rate_bps=10e6),
            n_intervals=100,
            seed=11,
        )
        assert a.fingerprint() == b.fingerprint() == c.fingerprint()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(seed=12),
            dict(n_intervals=101),
            dict(seed_offsets=("train-y", "test-y")),
            dict(scenario=replace(lab_scenario(), warmup_time=1.0)),
            dict(scenario=replace(lab_scenario(), low_rate_pps=5.0)),
        ],
    )
    def test_fingerprint_tracks_gateway_affecting_fields(self, overrides):
        base = dict(key="a", scenario=lab_scenario(), n_intervals=100, seed=11)
        changed = {**base, **overrides}
        assert CaptureSpec(**base).fingerprint() != CaptureSpec(**changed).fingerprint()

    def test_fingerprint_is_cached_per_instance(self):
        spec = CaptureSpec(key="a", scenario=lab_scenario(), n_intervals=100, seed=11)
        first = spec.fingerprint()
        assert first == fingerprint_payload(spec.config_dict())
        assert spec.fingerprint() is first
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec and restored.fingerprint() == first
        changed = replace(spec, n_intervals=101)
        assert changed.fingerprint() == fingerprint_payload(changed.config_dict()) != first

    def test_every_registered_capture_fingerprint_equals_the_asdict_oracle(
        self, registered_cells, reference_capture_config
    ):
        specs = [cell.capture for cell in registered_cells if cell.capture is not None]
        assert len(specs) > 50
        for spec in specs:
            expected = reference_capture_config(spec)
            assert spec.fingerprint() == fingerprint_payload(expected), spec.key
            assert spec.config_dict() == expected, spec.key

    def test_gateway_dict_is_new_and_leaves_the_scenario_dict_alone(self):
        from repro.runner.capture import gateway_config_dict

        scenario = lab_scenario()
        first = gateway_config_dict(scenario)
        first.pop("policy")
        second = gateway_config_dict(scenario)
        assert "policy" in second and second is not first
        assert second["policy"] is scenario.fingerprint_dict["policy"]
        assert set(scenario.fingerprint_dict) > set(second)

    def test_replace_on_a_gateway_field_builds_a_new_fingerprint(self):
        scenario = lab_scenario()
        spec = CaptureSpec(key="a", scenario=scenario, n_intervals=100, seed=11)
        before = spec.fingerprint()
        changed = replace(scenario, warmup_time=1.0)
        assert changed.fingerprint_dict is not scenario.fingerprint_dict
        assert replace(spec, scenario=changed).fingerprint() != before
        assert CaptureSpec(key="b", scenario=scenario, n_intervals=100, seed=11).fingerprint() == before

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CaptureSpec(key="", scenario=lab_scenario(), n_intervals=100)
        with pytest.raises(ConfigurationError):
            CaptureSpec(key="a", scenario=lab_scenario(), n_intervals=2)
        with pytest.raises(ConfigurationError):
            CaptureSpec(
                key="a", scenario=lab_scenario(), n_intervals=100,
                seed_offsets=("same", "same"),
            )


class TestChildCellValidation:
    def test_child_requires_hybrid_mode(self):
        with pytest.raises(ConfigurationError) as excinfo:
            two_level_cell(mode=CollectionMode.ANALYTIC)
        assert "hybrid" in str(excinfo.value)

    def test_child_rejects_seed_mismatch(self):
        capture = CaptureSpec(
            key="p", scenario=lab_scenario(), n_intervals=241, seed=12,
            seed_offsets=("train-x", "test-x"),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )
        assert "seed" in str(excinfo.value)

    def test_child_rejects_too_short_capture(self):
        capture = CaptureSpec(
            key="p", scenario=lab_scenario(), n_intervals=100, seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )
        assert "241" in str(excinfo.value)

    def test_child_rejects_gateway_config_mismatch(self):
        capture = CaptureSpec(
            key="p", scenario=replace(lab_scenario(), low_rate_pps=5.0),
            n_intervals=241, seed=11, seed_offsets=("train-x", "test-x"),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )
        assert "gateway configuration" in str(excinfo.value)

    def test_mismatch_raises_with_both_scenario_dicts_already_built(self):
        scenario = lab_scenario()
        other = replace(scenario, low_rate_pps=5.0)
        for built in (scenario, other):
            assert "name" not in built.fingerprint_dict["policy"]
        capture = CaptureSpec(
            key="p", scenario=other, n_intervals=241, seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        capture.fingerprint()
        with pytest.raises(ConfigurationError, match="gateway configuration"):
            SweepCell(
                key="c", scenario=scenario, sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )

    def test_policy_display_name_does_not_count_as_a_mismatch(self):
        from repro.padding import cit_policy

        renamed = replace(lab_scenario(), policy=cit_policy(name="CIT-renamed"))
        capture = CaptureSpec(
            key="p", scenario=renamed, n_intervals=241, seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        child = SweepCell(
            key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
            mode=CollectionMode.HYBRID, seed=11,
            seed_offsets=("train-x", "test-x"), capture=capture,
        )
        assert renamed.policy.name == "CIT-renamed"
        assert child.capture.fingerprint() == replace(capture, scenario=lab_scenario()).fingerprint()

    def test_equal_but_distinct_scenario_is_compared_field_by_field(self):
        def child_over(capture_scenario):
            capture = CaptureSpec(
                key="p", scenario=capture_scenario, n_intervals=241, seed=11,
                seed_offsets=("train-x", "test-x"),
            )
            return SweepCell(
                key="c", scenario=lab_scenario(), sample_sizes=(60,), trials=4,
                mode=CollectionMode.HYBRID, seed=11,
                seed_offsets=("train-x", "test-x"), capture=capture,
            )

        child = child_over(lab_scenario())  # accepted
        assert child.capture.scenario is not child.scenario
        assert child.capture.scenario == child.scenario
        with pytest.raises(ConfigurationError, match="gateway configuration"):
            child_over(replace(lab_scenario(), packet_size_bytes=1000))

    def test_shared_scenario_object_skips_the_gateway_comparison(self, monkeypatch):
        import repro.runner.cells as cells_module

        calls = []
        real = cells_module.gateway_config_dict

        def counting(scenario):
            calls.append(scenario)
            return real(scenario)

        monkeypatch.setattr(cells_module, "gateway_config_dict", counting)
        scenario = lab_scenario()
        capture = CaptureSpec(
            key="p", scenario=scenario, n_intervals=241, seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        SweepCell(
            key="c", scenario=scenario, sample_sizes=(60,), trials=4,
            mode=CollectionMode.HYBRID, seed=11,
            seed_offsets=("train-x", "test-x"), capture=capture,
        )
        assert calls == []

    def test_running_a_child_without_its_capture_fails_loudly(self):
        with pytest.raises(ConfigurationError) as excinfo:
            run_cell(two_level_cell())
        assert "two-level" in str(excinfo.value)

    def test_fingerprint_distinguishes_two_level_from_flat(self):
        child = two_level_cell()
        flat = replace(child, capture=None)
        assert child.fingerprint() != flat.fingerprint()


class TestBitForBitEquivalence:
    """The acceptance bar: two-level numbers == self-contained hybrid numbers."""

    def test_child_matches_self_contained_hybrid_cell(self):
        children = [two_level_cell(u) for u in (0.1, 0.4)]
        flat = [replace(cell, capture=None) for cell in children]
        two_level = SweepRunner().run(children)
        one_level = SweepRunner().run(flat)
        for cell in children:
            a, b = two_level[cell.key], one_level[cell.key]
            assert a.empirical_detection_rate == b.empirical_detection_rate
            assert a.measured_variance_ratio == b.measured_variance_ratio
            assert a.measured_means == b.measured_means

    def test_fig8_two_level_matches_per_hour_hybrid_cells(self):
        """Figure 8's grid, bit-for-bit against one-level cells at one seed."""
        config = Fig8Config(
            networks=("campus",),
            hours=(2, 14),
            sample_size=80,
            trials=4,
            mode=CollectionMode.HYBRID,
            seed=11,
        )
        cells = Fig8Experiment(config).cells()
        assert all(cell.capture is not None for cell in cells)
        flat = [replace(cell, capture=None) for cell in cells]
        two_level = SweepRunner().run(cells)
        one_level = SweepRunner().run(flat)
        for cell in cells:
            a, b = two_level[cell.key], one_level[cell.key]
            assert a.empirical_detection_rate == b.empirical_detection_rate
            assert a.measured_variance_ratio == b.measured_variance_ratio

    @pytest.mark.parametrize("preset", ["fast", "quick"])
    def test_fig6_hybrid_presets_share_one_capture_per_seed(self, preset):
        experiment = get_experiment("fig6", preset, 5)
        assert experiment.config.mode is CollectionMode.HYBRID
        seeds = (5, 6, 7)
        cells = experiment.cells(seeds)
        by_seed = {}
        for cell in cells:
            assert cell.capture is not None
            assert cell.capture.key == "fig6/gateway-capture"
            assert cell.capture.seed == cell.seed
            assert cell.noise_offsets is None
            by_seed.setdefault(cell.seed, set()).add(cell.capture.fingerprint())
        assert sorted(by_seed) == list(seeds)
        assert all(len(fingerprints) == 1 for fingerprints in by_seed.values())
        assert len(set().union(*by_seed.values())) == len(seeds)
        utilizations = len(experiment.config.utilizations)
        assert len(cells) == utilizations * len(seeds)

    @pytest.mark.parametrize("preset", ["smoke", "paper"])
    def test_fig6_other_presets_keep_self_contained_cells(self, preset):
        cells = get_experiment("fig6", preset, 5).cells((5, 6))
        assert all(cell.capture is None for cell in cells)

    def test_fig6_two_level_matches_self_contained_hybrid_cells(self):
        """Figure 6's shared capture leaves every number of the old
        self-contained grid unchanged, seed by seed."""
        config = Fig6Config(
            utilizations=(0.05, 0.3, 0.5),
            sample_size=80,
            trials=4,
            mode=CollectionMode.HYBRID,
            seed=11,
        )
        seeds = (11, 12)
        cells = Fig6Experiment(config).cells(seeds)
        flat = GridSpec.product(
            "fig6",
            config.scenario,
            utilizations=config.utilizations,
            seeds=seeds,
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
        ).cells()
        assert [cell.key for cell in flat] == [cell.key for cell in cells]
        assert [replace(cell, capture=None) for cell in cells] == flat
        report = SweepRunner().run(cells)
        assert report.captures_simulated == len(seeds)
        one_level = SweepRunner().run(flat)
        for cell in cells:
            a, b = report[cell.key], one_level[cell.key]
            assert replace(a, fingerprint="") == replace(b, fingerprint="")

    def test_shared_capture_points_draw_independent_noise(self):
        """Points sharing a gateway capture are salted per point: the same
        scenario under two salts yields different (independent) noise draws."""
        base = two_level_cell(0.3)
        salted_a = replace(base, key="a", noise_offsets=("na-train", "na-test"))
        salted_b = replace(base, key="b", noise_offsets=("nb-train", "nb-test"))
        report = SweepRunner().run([salted_a, salted_b])
        assert (
            report["a"].empirical_detection_rate != report["b"].empirical_detection_rate
            or report["a"].measured_variance_ratio != report["b"].measured_variance_ratio
        )

    def test_fig8_hybrid_hours_have_distinct_noise_salts(self):
        config = Fig8Config(
            networks=("campus",), hours=(2, 14), sample_size=80, trials=4,
            mode=CollectionMode.HYBRID, seed=11,
        )
        cells = Fig8Experiment(config).cells()
        assert len({cell.noise_offsets for cell in cells}) == len(cells)
        assert len({cell.seed_offsets for cell in cells}) == 1  # shared gateway


class TestCaptureCaching:
    def test_cold_run_simulates_one_capture_for_many_children(self, tmp_path):
        children = [two_level_cell(u) for u in (0.1, 0.2, 0.4)]
        assert len({cell.capture.fingerprint() for cell in children}) == 1
        runner = SweepRunner(store=ResultsStore(tmp_path))
        report = runner.run(children)
        assert report.captures_simulated == 1
        assert "1 gateway captures simulated" in report.summary()
        stats = ResultsStore(tmp_path).stats()
        assert (stats.cells, stats.captures) == (3, 0)  # captures are never stored

    def test_legacy_capture_record_is_simulated_again(
        self, tmp_path, put_capture_record, capsys
    ):
        """A store from an earlier release may hold a shared capture: the
        sweep never reads it back, and the store keeps it untouched."""
        from repro.cli import main

        cells = get_experiment("fig6", "quick").cells()
        [spec] = {cell.capture.fingerprint(): cell.capture for cell in cells}.values()
        store = ResultsStore(tmp_path / "legacy")
        intervals = run_capture(spec).intervals
        put_capture_record(  # the payload form the last release to store captures wrote
            store,
            spec.fingerprint(),
            spec.config_dict(),
            {
                "intervals": {
                    offset: {
                        label: base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")
                        for label, values in per_label.items()
                    }
                    for offset, per_label in intervals.items()
                },
                "elapsed_seconds": 0.01,
            },
        )
        shard = store.shard_path(spec.fingerprint())
        written = shard.read_bytes()

        base = ["run", "fig6", "--preset", "quick", "--backend", "serial"]
        assert main(base) == 0
        storeless = capsys.readouterr().out
        assert main(base + ["--cache-dir", str(store.root)]) == 0
        cold = capsys.readouterr()
        assert cold.out == storeless
        assert "1 gateway captures simulated" in cold.err
        assert ", 0 cache hits" in cold.err

        assert store.get(spec.fingerprint()) is None
        assert store.stats().captures == 1
        store.compact()
        assert shard.read_bytes() == written
        assert store.stats().captures == 1

    @pytest.mark.parametrize(
        "backend", [["--backend", "serial"], ["--backend", "process", "--jobs", "2"]],
        ids=["serial", "process-2"],
    )
    def test_a_partly_warm_store_simulates_the_missing_seeds_capture(
        self, tmp_path, capsys, backend
    ):
        """Cells of one seed left in the store: the other seed's cells and
        its shared capture are simulated again, and the report is unchanged."""
        from repro.cli import main
        from repro.runner import seed_range

        argv = ["run", "fig6", "--preset", "fast", "--seeds", "2", *backend,
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "2 gateway captures simulated" in cold.err
        store = ResultsStore(tmp_path)
        cells = get_experiment("fig6", "fast").cells(seed_range(2003, 2))
        dropped = [cell for cell in cells if cell.seed == 2004]
        assert 0 < len(dropped) < len(cells)
        for cell in dropped:
            store.shard_path(cell.fingerprint()).unlink()

        assert main(argv) == 0
        partial = capsys.readouterr()
        assert partial.out == cold.out
        assert (
            f"{len(cells)} cells, {len(dropped)} simulated, "
            f"{len(cells) - len(dropped)} cache hits, 1 gateway captures simulated"
        ) in partial.err

    def test_serial_run_holds_one_capture_at_a_time(self, tmp_path, monkeypatch):
        """Three captures, each with a contiguous group of children: a capture
        is freed once its last child is done, so while a group runs its
        capture is the only one alive."""
        import weakref

        import repro.runner.runner as runner_module

        children = [
            two_level_cell(u, seed=seed, key=f"seed={seed}/util={u!r}")
            for seed in (11, 12, 13)
            for u in (0.1, 0.2, 0.4)
        ]
        captures = []  # weakrefs, in resolution order
        alive_per_child = []

        def tracked_capture(spec):
            result = run_capture(spec)
            captures.append(weakref.ref(result))
            return result

        def tracked_cell(cell, capture=None):
            alive_per_child.append([i for i, ref in enumerate(captures) if ref() is not None])
            return run_cell(cell, capture=capture)

        monkeypatch.setattr(runner_module, "run_capture", tracked_capture)
        monkeypatch.setattr(runner_module, "run_cell", tracked_cell)
        runner = SweepRunner(backend="serial", store=ResultsStore(tmp_path))
        report = runner.run(children)
        assert report.captures_simulated == 3
        assert alive_per_child == [[0]] * 3 + [[1]] * 3 + [[2]] * 3
        assert [ref() for ref in captures] == [None] * 3

    def test_fully_warm_run_needs_neither_captures_nor_cells(self, tmp_path):
        children = [two_level_cell(u) for u in (0.1, 0.4)]
        SweepRunner(store=ResultsStore(tmp_path)).run(children)
        warm = SweepRunner(store=ResultsStore(tmp_path)).run(children)
        assert (warm.hits, warm.misses) == (2, 0)
        assert warm.captures_simulated == 0  # warm cells never resolve their parent

    def test_warm_capture_performs_zero_gateway_simulations(self, tmp_path, monkeypatch):
        """With every child's cell in the store, the gateway simulator never runs."""
        children = [two_level_cell(u) for u in (0.1, 0.4)]
        cold = SweepRunner(store=ResultsStore(tmp_path)).run(children)

        import repro.runner.capture as capture_module

        def forbidden(*args, **kwargs):
            raise AssertionError("gateway simulation ran for a warm child")

        monkeypatch.setattr(capture_module, "simulate_gateway_capture", forbidden)
        warm = SweepRunner(store=ResultsStore(tmp_path)).run(children)
        assert warm.captures_simulated == 0
        for cell in children:
            assert warm[cell.key].from_cache
            assert replace(warm[cell.key], from_cache=False) == cold[cell.key]

    def test_capture_results_are_deterministic_across_jobs(self):
        children = [two_level_cell(u) for u in (0.1, 0.2, 0.3, 0.4)]
        serial = SweepRunner(jobs=1).run(children)
        parallel = SweepRunner(jobs=4).run(children)
        for cell in children:
            assert (
                serial[cell.key].empirical_detection_rate
                == parallel[cell.key].empirical_detection_rate
            )

    def test_spawned_workers_receive_the_shared_capture(self, monkeypatch):
        """Under ``spawn`` (the macOS default) no parent state is inherited:
        each child's task must carry its resolved capture to the worker."""
        import repro.runner.execute as execute_module

        started = []

        def spawn() -> str:
            started.append("spawn")
            return "spawn"

        monkeypatch.setattr(execute_module, "default_mp_context", spawn)
        children = [two_level_cell(u) for u in (0.1, 0.2, 0.3, 0.4)]
        serial = SweepRunner(backend="serial").run(children)
        spawned = SweepRunner(jobs=2, backend="process").run(children)
        assert started == ["spawn"]
        for cell in children:
            assert spawned[cell.key] == serial[cell.key]

"""Tests for the grid builder and the multi-seed aggregation layer."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.padding.policies import cit_policy, vit_policy
from repro.runner import (
    GridPoint,
    GridSpec,
    SweepRunner,
    aggregate_cells,
    experiment_view,
    seed_range,
    split_seed_key,
)


def analytic_grid(**overrides) -> GridSpec:
    params = dict(
        prefix="g",
        scenario=ScenarioConfig(n_hops=1),
        utilizations=(0.1, 0.4),
        seeds=(7,),
        sample_sizes=(50,),
        trials=4,
        mode=CollectionMode.ANALYTIC,
    )
    params.update(overrides)
    scenario = params.pop("scenario")
    prefix = params.pop("prefix")
    return GridSpec.product(prefix, scenario, **params)


class TestSeedHelpers:
    def test_seed_range(self):
        assert seed_range(2003, 3) == (2003, 2004, 2005)
        with pytest.raises(ConfigurationError):
            seed_range(2003, 0)

    def test_split_seed_key(self):
        assert split_seed_key("fig6/utilization=0.2@seed=7") == ("fig6/utilization=0.2", 7)
        assert split_seed_key("fig6/utilization=0.2") == ("fig6/utilization=0.2", None)
        with pytest.raises(ConfigurationError):
            split_seed_key("point@seed=banana")


class TestGridProduct:
    def test_full_axis_product(self):
        grid = GridSpec.product(
            "grid",
            ScenarioConfig(n_hops=1),
            policies=(cit_policy(), vit_policy(sigma_t=1e-4)),
            rate_pairs=((10.0, 40.0), (10.0, 30.0)),
            hops=(1, 3),
            utilizations=(0.1, 0.3),
            seeds=(7, 8, 9),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
        )
        cells = grid.cells()
        assert len(cells) == 2 * 2 * 2 * 2 * 3
        assert len({cell.key for cell in cells}) == len(cells)
        assert len({cell.fingerprint() for cell in cells}) == len(cells)
        assert len(grid.point_keys()) == 16
        sample = cells[0]
        assert sample.key.startswith("grid/policy=")
        assert "rates=10x40" in cells[0].key or "rates=10x40" in cells[1].key

    def test_axis_values_reach_the_scenario(self):
        grid = GridSpec.product(
            "g",
            ScenarioConfig(),
            rate_pairs=((5.0, 20.0),),
            hops=(2,),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
        )
        (point,) = grid.points
        assert point.scenario.low_rate_pps == 5.0
        assert point.scenario.high_rate_pps == 20.0
        assert point.scenario.n_hops == 2

    def test_no_axes_is_a_single_point_named_by_the_prefix(self):
        grid = GridSpec.product(
            "fig4", ScenarioConfig(), sample_sizes=(50,), trials=4,
            mode=CollectionMode.ANALYTIC,
        )
        assert grid.point_keys() == ["fig4"]
        assert [cell.key for cell in grid.cells()] == ["fig4"]

    def test_single_seed_keys_are_bare_multi_seed_keys_are_tagged(self):
        single = analytic_grid(seeds=(7,))
        assert [cell.key for cell in single.cells()] == [
            "g/utilization=0.1", "g/utilization=0.4",
        ]
        multi = analytic_grid(seeds=(7, 8))
        assert [cell.key for cell in multi.cells()] == [
            "g/utilization=0.1@seed=7", "g/utilization=0.4@seed=7",
            "g/utilization=0.1@seed=8", "g/utilization=0.4@seed=8",
        ]

    def test_shared_capture_product_salts_noise_per_point(self):
        """Points that share one gateway capture draw independent noise."""
        grid = GridSpec.product(
            "g",
            ScenarioConfig(n_hops=2),
            utilizations=(0.1, 0.3),
            shared_capture=True,
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.HYBRID,
        )
        cells = grid.cells()
        assert len({cell.capture.fingerprint() for cell in cells}) == 1
        assert len({cell.noise_offsets for cell in cells}) == len(cells)
        assert len({cell.seed_offsets for cell in cells}) == 1

    def test_shared_capture_is_inert_outside_hybrid_mode(self):
        grid = GridSpec.product(
            "g",
            ScenarioConfig(n_hops=1),
            utilizations=(0.1, 0.3),
            shared_capture=True,
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
        )
        for cell in grid.cells():
            assert cell.capture is None
            assert cell.noise_offsets is None

    def test_invalid_axis_combination_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            GridSpec.product(
                "g",
                ScenarioConfig(),
                hops=(0,),
                utilizations=(0.3,),  # cross traffic needs at least one hop
                sample_sizes=(50,),
                trials=4,
                mode=CollectionMode.ANALYTIC,
            )

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ConfigurationError):
            analytic_grid(utilizations=())

    def test_duplicate_seeds_are_rejected(self):
        with pytest.raises(ConfigurationError):
            analytic_grid(seeds=(7, 7))

    def test_point_keys_must_not_carry_the_seed_tag(self):
        with pytest.raises(ConfigurationError):
            GridPoint(key="p@seed=1", scenario=ScenarioConfig())


class TestAggregation:
    def test_grouping_ignores_seed_but_nothing_else(self):
        """Cells differing only in seed aggregate; anything else refuses."""
        grid = analytic_grid(seeds=(7, 8, 9))
        cells = grid.cells()
        report = SweepRunner(jobs=2).run(cells)
        aggregated = aggregate_cells(cells, report)
        assert set(aggregated.results) == {"g/utilization=0.1", "g/utilization=0.4"}
        assert all(point.n_seeds == 3 for point in aggregated.results.values())

        # Same point key, different trials: a grid construction bug.
        from dataclasses import replace

        tampered = list(cells)
        tampered[0] = replace(tampered[0], trials=5)
        bad_report = SweepRunner(jobs=2).run(tampered)
        with pytest.raises(ConfigurationError) as excinfo:
            aggregate_cells(tampered, bad_report)
        assert "more than the seed" in str(excinfo.value)

    def test_mean_is_the_per_seed_average(self):
        import numpy as np

        grid = analytic_grid(seeds=(7, 8, 9))
        report = SweepRunner().run(grid.cells())
        aggregated = aggregate_cells(grid.cells(), report)
        for point_key, point in aggregated.results.items():
            per_seed = [
                report[f"{point_key}@seed={seed}"].empirical_detection_rate["variance"][50]
                for seed in (7, 8, 9)
            ]
            assert point.empirical_detection_rate["variance"][50] == pytest.approx(
                float(np.mean(per_seed))
            )

    def test_single_seed_aggregation_has_no_ci(self):
        grid = analytic_grid(seeds=(7,))
        report = SweepRunner().run(grid.cells())
        aggregated = aggregate_cells(grid.cells(), report, confidence=0.95)
        point = aggregated["g/utilization=0.1"]
        assert point.n_seeds == 1
        assert point.detection_rate_ci is None
        assert point.variance_ratio_ci is None

    def test_ci_brackets_the_mean_and_is_deterministic(self):
        grid = analytic_grid(seeds=(7, 8, 9, 10))
        report = SweepRunner(jobs=2).run(grid.cells())
        first = aggregate_cells(grid.cells(), report, confidence=0.95)
        second = aggregate_cells(grid.cells(), report, confidence=0.95)
        for point_key in first.results:
            a, b = first[point_key], second[point_key]
            assert a.detection_rate_ci == b.detection_rate_ci  # derived rng, no global state
            for feature, by_n in a.detection_rate_ci.items():
                for n, (lower, upper) in by_n.items():
                    assert lower <= a.empirical_detection_rate[feature][n] <= upper

    def test_ci_width_shrinks_with_seed_count(self):
        """More seeds per grid point tighten the bootstrap band."""

        def ci_width(n_seeds):
            grid = GridSpec.product(
                "w",
                ScenarioConfig(n_hops=1, cross_utilization=0.4),
                utilizations=(0.4,),
                seeds=tuple(range(100, 100 + n_seeds)),
                sample_sizes=(50,),
                trials=4,
                mode=CollectionMode.ANALYTIC,
            )
            report = SweepRunner(jobs=4).run(grid.cells())
            aggregated = aggregate_cells(grid.cells(), report, confidence=0.95)
            point = aggregated["w/utilization=0.4"]
            lower, upper = point.detection_rate_ci["variance"][50]
            return upper - lower

        assert ci_width(12) < ci_width(3)

    def test_rejects_bad_confidence(self):
        grid = analytic_grid(seeds=(7, 8))
        report = SweepRunner().run(grid.cells())
        with pytest.raises(ConfigurationError):
            aggregate_cells(grid.cells(), report, confidence=1.5)

    def test_piat_stats_average_across_seeds(self):
        grid = GridSpec.product(
            "p",
            ScenarioConfig(),
            seeds=(7, 8),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
            collect_piat_stats=True,
        )
        report = SweepRunner().run(grid.cells())
        point = aggregate_cells(grid.cells(), report)["p"]
        assert set(point.piat_stats) == {"low", "high"}
        assert 0.0 <= point.piat_stats["low"]["looks_normal"] <= 1.0


class TestExperimentView:
    def test_single_seed_view_reads_the_raw_report(self):
        grid = analytic_grid(seeds=(7,))
        cells = grid.cells()
        report = SweepRunner().run(cells)
        view = experiment_view(report, cells, confidence=0.95)
        assert view.results is report  # nothing aggregated
        assert view.n_seeds == 1 and view.confidence is None
        rates, bands = view.table({0.1: ("g/utilization=0.1", 50)}, ("variance",))
        assert rates == {
            "variance": {0.1: report["g/utilization=0.1"].empirical_detection_rate["variance"][50]}
        }
        assert bands is None

    def test_multi_seed_view_is_the_aggregation(self):
        grid = analytic_grid(seeds=(7, 8, 9))
        cells = grid.cells()
        report = SweepRunner().run(cells)
        view = experiment_view(report, cells, confidence=0.95)
        expected = aggregate_cells(cells, report, confidence=0.95)
        assert view.n_seeds == 3 and view.confidence == 0.95
        axis = {u: (f"g/utilization={u}", 50) for u in (0.1, 0.4)}
        rates, bands = view.table(axis, ("mean", "variance"))
        for feature in ("mean", "variance"):
            for u, (key, n) in axis.items():
                point = expected[key]
                assert rates[feature][u] == point.empirical_detection_rate[feature][n]
                assert bands[feature][u] == point.detection_rate_ci[feature][n]

    def test_multi_seed_view_without_a_confidence_has_no_bands(self):
        grid = analytic_grid(seeds=(7, 8))
        cells = grid.cells()
        view = experiment_view(SweepRunner().run(cells), cells)
        assert view.n_seeds == 2 and view.confidence is None
        _, bands = view.table({0.1: ("g/utilization=0.1", 50)}, ("entropy",))
        assert bands is None

"""Tests for the multi-AS generator: determinism, connectivity, rendering."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.population import ASGraphSpec, generate_as_topology
from repro.population.topology import CUSTOMER_PROVIDER, PEER


@pytest.fixture
def topology():
    return generate_as_topology(ASGraphSpec(n_as=12, seed=2003))


class TestASGraphSpec:
    def test_defaults_are_valid(self):
        ASGraphSpec()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_as": 2},
            {"m_attach": 0},
            {"n_as": 4, "m_attach": 3},
            {"peer_fraction": 1.5},
            {"hops_per_as": 0},
            {"min_utilization": 0.5, "max_utilization": 0.2},
            {"max_utilization": 1.0},
            {"link_rate_bps": 0.0},
        ],
    )
    def test_rejects_invalid_parameters(self, overrides):
        with pytest.raises(ConfigurationError):
            ASGraphSpec(**overrides)


class TestGenerator:
    def test_edge_count_matches_the_growth_model(self, topology):
        spec = topology.spec
        core_size = spec.m_attach + 1
        clique_edges = core_size * (core_size - 1) // 2
        grown_edges = (spec.n_as - core_size) * spec.m_attach
        assert len(topology.edges) == clique_edges + grown_edges

    def test_every_as_reaches_the_core(self, topology):
        for src in range(topology.spec.n_as):
            path = topology.as_path(src)
            assert path[0] == src and path[-1] == topology.core_as

    def test_same_seed_reproduces_the_graph_exactly(self):
        spec = ASGraphSpec(n_as=12, seed=2003)
        a = generate_as_topology(spec)
        b = generate_as_topology(spec)
        assert a.edges == b.edges
        assert a.utilizations == b.utilizations
        assert a.core_as == b.core_as
        assert a.degrees() == b.degrees()

    def test_different_seed_changes_the_graph(self):
        a = generate_as_topology(ASGraphSpec(n_as=12, seed=2003))
        b = generate_as_topology(ASGraphSpec(n_as=12, seed=2004))
        assert a.utilizations != b.utilizations

    def test_edge_labels(self, topology):
        spec = topology.spec
        core_size = spec.m_attach + 1
        labels = {label for _, _, label in topology.edges}
        assert labels <= {PEER, CUSTOMER_PROVIDER}
        # The founding clique peers; each later AS's first link is bought.
        clique_edges = core_size * (core_size - 1) // 2
        assert all(label == PEER for _, _, label in topology.edges[:clique_edges])
        first_links = {}
        for a, b, label in topology.edges[clique_edges:]:
            if a not in first_links:
                first_links[a] = label
        assert all(label == CUSTOMER_PROVIDER for label in first_links.values())

    def test_core_is_the_highest_degree_as(self, topology):
        degrees = topology.degrees()
        assert degrees[topology.core_as] == max(degrees.values())

    def test_utilizations_respect_the_configured_range(self, topology):
        spec = topology.spec
        assert all(
            spec.min_utilization <= u <= spec.max_utilization
            for u in topology.utilizations
        )


class TestPaths:
    def test_path_hops_are_graph_edges(self, topology):
        adjacency = topology.adjacency()
        for src in range(topology.spec.n_as):
            path = topology.as_path(src)
            for a, b in zip(path, path[1:]):
                assert b in adjacency[a]

    def test_core_sender_has_trivial_path(self, topology):
        assert topology.as_path(topology.core_as) == (topology.core_as,)
        assert topology.path_depth(topology.core_as) == 0
        assert topology.path_utilization(topology.core_as) == 0.0

    def test_path_utilization_is_the_mean_over_traversed_ases(self, topology):
        src = next(
            as_id for as_id in range(topology.spec.n_as) if as_id != topology.core_as
        )
        path = topology.as_path(src)
        expected = round(
            sum(topology.utilizations[as_id] for as_id in path) / len(path), 4
        )
        assert topology.path_utilization(src) == expected

    def test_unknown_as_rejected(self, topology):
        with pytest.raises(ConfigurationError):
            topology.as_path(topology.spec.n_as)


class TestRendering:
    def test_scenario_for_scales_hops_with_depth(self, topology):
        from repro.experiments.base import ScenarioConfig

        base = ScenarioConfig()
        for src in range(topology.spec.n_as):
            scenario = topology.scenario_for(base, src)
            depth = topology.path_depth(src)
            if depth == 0:
                assert scenario.n_hops == 0
                assert scenario.cross_utilization == 0.0
            else:
                assert scenario.n_hops == topology.spec.hops_per_as * (depth + 1)
                assert scenario.cross_utilization == topology.path_utilization(src)
            assert scenario.link_rate_bps == topology.spec.link_rate_bps

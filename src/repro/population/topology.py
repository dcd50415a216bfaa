"""Deterministic multi-AS topology generation.

The generator grows an autonomous-system graph by preferential attachment —
each new AS connects to ``m_attach`` existing ASes sampled proportionally to
their degree — which reproduces the heavy-tailed degree structure of measured
AS graphs.  Edges carry a ``relationship`` label in the style of CAIDA's
AS-relationship datasets: the first link a new AS buys is a
``customer-provider`` edge (the new AS is the customer), later links are
``peer`` with probability ``peer_fraction``.

The highest-degree AS is the *core*: the receiver gateway (GW2 of the
paper's Figure 3) sits there, and every sender's traffic follows the shortest
AS-path towards it.  A sender's AS-path renders into the existing single-path
machinery — a :class:`~repro.experiments.base.ScenarioConfig` whose hop count
and cross-traffic utilization summarise the traversed ASes, and a
:class:`~repro.network.topology.TopologySpec` that
:func:`~repro.network.topology.build_path` can materialise into a wired
:class:`~repro.network.path.UnprotectedPath`.

All randomness is drawn from two declared streams of one
:class:`~repro.sim.random.RandomStreams` registry: ``population-topology``
(growth and edge labels) and ``population-utilization`` (per-AS load), so the
graph is a pure function of the spec and regenerating it can never perturb
any other stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.base import ScenarioConfig
from repro.network.link import PacketSink
from repro.network.path import UnprotectedPath
from repro.network.topology import TopologySpec, build_path
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

#: Edge relationship labels (CAIDA convention: ``customer-provider`` edges
#: are stored with the customer first, ``peer`` edges are symmetric).
CUSTOMER_PROVIDER = "customer-provider"
PEER = "peer"


@dataclass(frozen=True)
class ASGraphSpec:
    """Declarative description of a generated multi-AS topology.

    Attributes
    ----------
    n_as:
        Number of autonomous systems.
    m_attach:
        Links each new AS creates when it joins (preferential attachment).
    peer_fraction:
        Probability that an attachment link beyond the first is a ``peer``
        edge rather than a ``customer-provider`` edge.
    hops_per_as:
        Router hops the padded stream traverses inside each AS on its path.
    min_utilization, max_utilization:
        Range of the per-AS shared-link utilization (uniform draw).
    link_rate_bps:
        Output-link capacity of every router.
    seed:
        Master seed of the ``population-*`` streams.
    """

    n_as: int = 12
    m_attach: int = 2
    peer_fraction: float = 0.25
    hops_per_as: int = 2
    min_utilization: float = 0.08
    max_utilization: float = 0.3
    link_rate_bps: float = 80e6
    seed: int = 2003

    def __post_init__(self) -> None:
        if self.n_as < 3:
            raise ConfigurationError(f"n_as={self.n_as!r} must be >= 3")
        if not 1 <= self.m_attach <= self.n_as - 2:
            raise ConfigurationError(
                f"m_attach={self.m_attach!r} must lie in [1, n_as - 2]"
            )
        if not 0.0 <= self.peer_fraction <= 1.0:
            raise ConfigurationError(
                f"peer_fraction={self.peer_fraction!r} must lie in [0, 1]"
            )
        if self.hops_per_as < 1:
            raise ConfigurationError(f"hops_per_as={self.hops_per_as!r} must be >= 1")
        if not 0.0 <= self.min_utilization <= self.max_utilization < 1.0:
            raise ConfigurationError(
                f"utilization range [{self.min_utilization!r}, "
                f"{self.max_utilization!r}] must satisfy 0 <= min <= max < 1"
            )
        if self.link_rate_bps <= 0:
            raise ConfigurationError(
                f"link_rate_bps={self.link_rate_bps!r} must be positive"
            )


@dataclass(frozen=True)
class ASTopology:
    """A generated AS graph: edges, per-AS load, and the core AS.

    ``edges`` holds ``(a, b, relationship)`` triples in creation order;
    ``customer-provider`` edges store the customer first.  ``utilizations``
    is indexed by AS id.  ``core_as`` is the highest-degree AS (lowest id on
    ties) — the receiver gateway's AS that every sender routes towards.
    """

    spec: ASGraphSpec
    edges: Tuple[Tuple[int, int, str], ...]
    utilizations: Tuple[float, ...]
    core_as: int

    # --------------------------------------------------------------- views
    def degrees(self) -> Dict[int, int]:
        """Degree of every AS."""
        degree = {as_id: 0 for as_id in range(self.spec.n_as)}
        for a, b, _ in self.edges:
            degree[a] += 1
            degree[b] += 1
        return degree

    def adjacency(self) -> Dict[int, List[int]]:
        """Sorted adjacency lists (sorted so traversals are deterministic)."""
        neighbours: Dict[int, List[int]] = {as_id: [] for as_id in range(self.spec.n_as)}
        for a, b, _ in self.edges:
            neighbours[a].append(b)
            neighbours[b].append(a)
        return {as_id: sorted(adj) for as_id, adj in neighbours.items()}

    def as_path(self, src: int) -> Tuple[int, ...]:
        """The shortest AS-path from ``src`` to the core (BFS, lowest-id ties).

        The tie-break is the sorted adjacency order, so the path depends only
        on the graph — never on dict iteration order.
        """
        if not 0 <= src < self.spec.n_as:
            raise ConfigurationError(f"AS {src!r} is not in the topology")
        if src == self.core_as:
            return (src,)
        adjacency = self.adjacency()
        parent: Dict[int, int] = {src: src}
        frontier = [src]
        while frontier and self.core_as not in parent:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbour in adjacency[node]:
                    if neighbour not in parent:
                        parent[neighbour] = node
                        next_frontier.append(neighbour)
            frontier = next_frontier
        if self.core_as not in parent:
            raise ConfigurationError(
                f"AS {src!r} has no path to the core AS {self.core_as!r}"
            )
        path = [self.core_as]
        while path[-1] != src:
            path.append(parent[path[-1]])
        return tuple(reversed(path))

    def path_depth(self, src: int) -> int:
        """Number of inter-AS hops from ``src`` to the core."""
        return len(self.as_path(src)) - 1

    def path_utilization(self, src: int) -> float:
        """Mean per-AS utilization over every AS the stream traverses.

        The sender's own AS counts too — its gateway-to-border hops share
        that AS's links — which is what differentiates senders sitting at
        the same depth.  A sender inside the core is tapped at its gateway
        and reports zero.
        """
        path = self.as_path(src)
        if len(path) < 2:
            return 0.0
        traversed = [self.utilizations[as_id] for as_id in path]
        return round(sum(traversed) / len(traversed), 4)

    # ----------------------------------------------------------- rendering
    def scenario_for(self, base: ScenarioConfig, src: int) -> ScenarioConfig:
        """Render ``src``'s AS-path into a single-path scenario.

        The path collapses into the existing per-hop model: ``hops_per_as``
        router hops per traversed AS (the sender's own AS included), all at
        the path's mean utilization and the spec's link rate.  This is what
        lets population cells reuse the calibrated M/D/1 noise model and the
        vectorized capture kernel unchanged.
        """
        depth = self.path_depth(src)
        return replace(
            base,
            n_hops=self.spec.hops_per_as * (depth + 1) if depth else 0,
            cross_utilization=self.path_utilization(src) if depth else 0.0,
            link_rate_bps=self.spec.link_rate_bps,
        )


def generate_as_topology(spec: ASGraphSpec) -> ASTopology:
    """Grow the AS graph by preferential attachment, deterministically.

    The first ``m_attach + 1`` ASes form a fully-meshed peering core; each
    later AS attaches to ``m_attach`` distinct earlier ASes sampled from the
    degree-proportional "repeated nodes" list.  The same spec always yields
    the same graph: the only entropy source is the ``population-topology``
    stream, and node ids are assigned in creation order.
    """
    streams = RandomStreams(seed=spec.seed)
    growth_rng = streams.get("population-topology")
    utilization_rng = streams.get("population-utilization")

    edges: List[Tuple[int, int, str]] = []
    # Degree-proportional sampling: each endpoint appears once per incident
    # edge, so a uniform index draw is a draw proportional to degree.
    repeated: List[int] = []
    core_size = spec.m_attach + 1
    for a in range(core_size):
        for b in range(a + 1, core_size):
            edges.append((a, b, PEER))
            repeated.extend((a, b))

    for new_as in range(core_size, spec.n_as):
        targets: List[int] = []
        while len(targets) < spec.m_attach:
            pick = repeated[int(growth_rng.integers(len(repeated)))]
            if pick not in targets:
                targets.append(pick)
        for rank, target in enumerate(targets):
            if rank == 0:
                relationship = CUSTOMER_PROVIDER
            else:
                relationship = (
                    PEER
                    if float(growth_rng.random()) < spec.peer_fraction
                    else CUSTOMER_PROVIDER
                )
            edges.append((new_as, target, relationship))
            repeated.extend((new_as, target))

    utilizations = tuple(
        round(float(u), 4)
        for u in utilization_rng.uniform(
            spec.min_utilization, spec.max_utilization, size=spec.n_as
        )
    )

    degree = {as_id: 0 for as_id in range(spec.n_as)}
    for a, b, _ in edges:
        degree[a] += 1
        degree[b] += 1
    core_as = max(sorted(degree), key=lambda as_id: degree[as_id])

    return ASTopology(
        spec=spec, edges=tuple(edges), utilizations=utilizations, core_as=core_as
    )


def sender_topology_spec(topology: ASTopology, src: int) -> TopologySpec:
    """The :class:`TopologySpec` of one sender's rendered AS-path.

    Bridges the population layer into the existing topology machinery: the
    returned spec names its streams ``population-as<k>-...``, which stays
    inside the declared ``population-*`` namespace.
    """
    depth = topology.path_depth(src)
    return TopologySpec(
        name=f"population-as{src}",
        n_hops=topology.spec.hops_per_as * (depth + 1) if depth else 0,
        link_rate_bps=topology.spec.link_rate_bps,
        cross_utilization=topology.path_utilization(src) if depth else 0.0,
    )


def build_sender_path(
    topology: ASTopology,
    src: int,
    simulator: Simulator,
    exit_sink: PacketSink,
    streams: Optional[RandomStreams] = None,
) -> UnprotectedPath:
    """Materialise one sender's AS-path as a wired :class:`UnprotectedPath`."""
    return build_path(
        sender_topology_spec(topology, src), simulator, exit_sink, streams=streams
    )


__all__ = [
    "CUSTOMER_PROVIDER",
    "PEER",
    "ASGraphSpec",
    "ASTopology",
    "build_sender_path",
    "generate_as_topology",
    "sender_topology_spec",
]

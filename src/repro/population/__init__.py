"""Population-scale topology subsystem.

The paper evaluates one protected sender at a time; a realistic deployment
protects a *population* of flows scattered across an internetwork.  This
package generates deterministic multi-AS topologies (preferential-attachment
degree structure with customer/provider and peer edge labels, in the style of
CAIDA AS-relationship graphs), places hundreds-to-thousands of flows onto
shared sender gateways, and evaluates the traffic-analysis attack against the
whole population:

* :mod:`repro.population.topology` — the AS-graph generator and the rendering
  of each sender's AS-path into the existing per-hop path machinery.
* :mod:`repro.population.flows` — flow placement and the per-AS / multi-rate
  sweep grids.
* :mod:`repro.population.metrics` — anonymity-set sizes, the fraction of the
  population an adversary identifies at a given sample size, and summed
  multi-rate confusion matrices.
* :mod:`repro.population.experiment` — the registered ``population``
  experiment tying it all together.

All randomness flows through :class:`~repro.sim.random.RandomStreams` under
the declared ``population-*`` stream names, so the whole subsystem is
reproducible from one integer seed and ``repro check`` can audit every call
site.
"""

from repro.population.topology import (
    ASGraphSpec,
    ASTopology,
    generate_as_topology,
)
from repro.population.flows import (
    Flow,
    FlowPopulation,
    RateClass,
    assemble_population,
    hybrid_population_grid,
    multiclass_population_grid,
)
from repro.population.metrics import (
    aggregate_confusion,
    anonymity_set_distribution,
    anonymity_summary,
    identification_curve,
)
from repro.population.experiment import (
    PopulationConfig,
    PopulationExperiment,
    PopulationResult,
)

__all__ = [
    "ASGraphSpec",
    "ASTopology",
    "Flow",
    "FlowPopulation",
    "PopulationConfig",
    "PopulationExperiment",
    "PopulationResult",
    "RateClass",
    "aggregate_confusion",
    "anonymity_set_distribution",
    "anonymity_summary",
    "assemble_population",
    "generate_as_topology",
    "hybrid_population_grid",
    "identification_curve",
    "multiclass_population_grid",
]

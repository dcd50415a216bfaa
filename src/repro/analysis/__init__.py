"""Static determinism analysis for the reproduction (``repro check``).

A custom AST-based pass that turns the repository's determinism contracts
— seeded named RNG streams, no wall-clock in result paths, ordered
iteration — into machine-checkable rules.  ``repro check`` runs them all;
every finding is an error and CI requires a clean tree.  Rule table:
``docs/determinism.md``.
"""

from repro.analysis.checker import CheckReport, all_rules, default_root, run_check
from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, ModuleRule, ProjectRule, Rule

__all__ = [
    "CheckReport",
    "Finding",
    "ModuleContext",
    "ModuleRule",
    "ProjectRule",
    "Rule",
    "all_rules",
    "default_root",
    "run_check",
]

"""Static determinism analysis for the reproduction (``repro check``).

A custom AST-based pass that turns the repository's determinism contracts
— seeded named RNG streams, no wall-clock in result paths, ordered
iteration — into machine-checkable rules.  ``repro check`` runs them all;
CI requires a clean (or explicitly baselined) tree.  Rule table and
baseline: ``docs/determinism.md``.
"""

from repro.analysis.baseline import BaselineEntry, apply_baseline, load_baseline
from repro.analysis.checker import CheckReport, all_rules, default_root, run_check
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import ModuleContext, ModuleRule, ProjectRule, Rule

__all__ = [
    "BaselineEntry",
    "CheckReport",
    "Finding",
    "ModuleContext",
    "ModuleRule",
    "ProjectRule",
    "Rule",
    "Severity",
    "all_rules",
    "apply_baseline",
    "default_root",
    "load_baseline",
    "run_check",
]

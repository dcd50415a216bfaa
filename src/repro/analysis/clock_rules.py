"""Wall-clock and ordering-hazard rules.

Simulation results must be a pure function of configuration and seed.  Two
classic leaks break that purity without failing any test on the machine that
introduced them:

* reading the **wall clock** (``time.time``, ``datetime.now``) anywhere
  in the package — a date that can reach an artifact makes two runs of one
  configuration differ (CLK001; duration-only clocks like
  ``perf_counter``/``monotonic`` stay legal, they time work that is
  explicitly excluded from reports);
* iterating a **set** (hash order varies across processes under
  ``PYTHONHASHSEED``) or an **unsorted directory listing** (filesystem
  order is arbitrary) anywhere the order can reach a report or a
  fingerprint (ORD001/ORD002).
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, ModuleRule

#: Call targets that read the wall clock or the calendar.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Unqualified method tails that read the wall clock on a datetime class
#: imported under an alias the resolver cannot follow.
_WALL_CLOCK_TAILS = frozenset({".utcnow"})

#: Filesystem-listing calls whose order is not guaranteed.
_LISTING_CALLS = frozenset({"os.listdir", "os.scandir", "glob.glob", "glob.iglob"})
_LISTING_METHODS = frozenset({"glob", "iterdir", "rglob"})

#: Builtins through which a set's arbitrary order escapes into a sequence.
_ORDER_ESCAPES = frozenset({"list", "tuple", "enumerate", "iter", "next"})


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _inside_sorted(module: ModuleContext, node: ast.AST) -> bool:
    """Whether an expression is (transitively) an argument of ``sorted``/``min``/``max``."""
    for ancestor in module.parent_chain(node):
        if isinstance(ancestor, ast.Call) and isinstance(ancestor.func, ast.Name):
            if ancestor.func.id in ("sorted", "min", "max", "sum", "len", "any", "all"):
                return True
        if isinstance(ancestor, ast.stmt):
            break
    return False


class WallClockRule(ModuleRule):
    """CLK001: no wall-clock or calendar reads in package code."""

    rule_id = "CLK001"
    title = (
        "no time.time()/datetime.now()-style wall-clock reads in package "
        "code (perf_counter/monotonic durations stay legal)"
    )

    def check_module(self, module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.qualified_call(node)
            if target in _WALL_CLOCK_CALLS or target in _WALL_CLOCK_TAILS:
                findings.append(
                    self.finding(
                        module.rel,
                        node.lineno,
                        f"{target}() reads the wall clock; results must be a "
                        "pure function of configuration and seed "
                        "(use perf_counter/monotonic to time work, and stamp "
                        "no date on any output)",
                        context=target,
                    )
                )
        return findings


class UnorderedSetIterationRule(ModuleRule):
    """ORD001: set order must never escape into iteration or a sequence."""

    rule_id = "ORD001"
    title = (
        "no iteration over sets and no list()/tuple() of a set without "
        "sorted() — hash order varies across processes"
    )

    def check_module(self, module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            offender: ast.AST | None = None
            if isinstance(node, ast.For) and _is_set_expression(node.iter):
                offender = node.iter
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)):
                for generator in node.generators:
                    if _is_set_expression(generator.iter):
                        offender = generator.iter
                        break
                # Building another set from a set is order-free.
                if isinstance(node, ast.SetComp):
                    offender = None
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_ESCAPES
                and node.args
                and _is_set_expression(node.args[0])
            ):
                offender = node.args[0]
            if offender is not None and not _inside_sorted(module, offender):
                findings.append(
                    self.finding(
                        module.rel,
                        offender.lineno,
                        "iterating a set exposes hash order, which varies "
                        "across processes and PYTHONHASHSEED; wrap the set in "
                        "sorted(...) before its order can reach a report or "
                        "fingerprint",
                        context="set-iteration",
                    )
                )
        return findings


class UnsortedListingRule(ModuleRule):
    """ORD002: directory listings are sorted before anything iterates them."""

    rule_id = "ORD002"
    title = "no unsorted glob()/iterdir()/listdir() — filesystem order is arbitrary"

    def check_module(self, module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.qualified_call(node)
            is_listing = target in _LISTING_CALLS or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _LISTING_METHODS
                and not target.startswith("repro.")
            )
            if is_listing and not _inside_sorted(module, node):
                name = target.rsplit(".", 1)[-1] or "listing"
                findings.append(
                    self.finding(
                        module.rel,
                        node.lineno,
                        f"{name}() returns entries in arbitrary filesystem "
                        "order; wrap the listing in sorted(...) so downstream "
                        "iteration is deterministic",
                        context=name,
                    )
                )
        return findings


__all__ = ["UnorderedSetIterationRule", "UnsortedListingRule", "WallClockRule"]

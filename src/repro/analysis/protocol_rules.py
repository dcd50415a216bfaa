"""Experiment protocol conformance, checked statically.

The registry raises at *registration time* when a definition is malformed,
and :class:`repro.api.protocol.Experiment` is ``runtime_checkable`` — but
both only fire for code paths a test actually imports and instantiates.  A
new experiment that forgets ``assemble`` fails the first time a user runs
it, not in CI.  These rules close that gap:

* EXP001 — every class decorated with ``@register_experiment`` defines (or
  inherits from a non-stub base) ``config_cls``, ``preset_config`` and
  ``build``, the full :class:`~repro.api.registry.ExperimentDefinition`
  surface.
* EXP002 — every ``*Experiment`` class in ``repro/experiments`` and
  ``repro/api`` satisfies the :class:`~repro.api.protocol.Experiment`
  protocol surface, with the required surface *parsed from protocol.py
  itself* so the rule can never drift from the protocol.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, ProjectRule, register_rule, resolve_name

#: Where the protocol that defines the required surface lives.
PROTOCOL_MODULE = "repro/api/protocol.py"

#: Packages whose ``*Experiment`` classes must satisfy the protocol.
_EXPERIMENT_PACKAGES = ("api", "experiments")

#: The definition base class whose members are raising stubs, not
#: implementations — inheriting from it alone satisfies nothing.
_DEFINITION_BASE = "ExperimentDefinition"


class _ClassIndex:
    """Simple-name -> ClassDef lookup across the whole scanned tree."""

    def __init__(self, modules: Dict[str, ModuleContext]) -> None:
        self._by_name: Dict[str, Tuple[ModuleContext, ast.ClassDef]] = {}
        for rel in sorted(modules):
            module = modules[rel]
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    # First definition wins; simple names are unique enough
                    # for base resolution inside one package tree.
                    self._by_name.setdefault(node.name, (module, node))

    def resolve_base(
        self, module: ModuleContext, base: ast.expr
    ) -> Optional[Tuple[ModuleContext, ast.ClassDef]]:
        dotted = resolve_name(base, module.imports)
        simple = dotted.rsplit(".", 1)[-1]
        return self._by_name.get(simple)

    def mro(
        self, module: ModuleContext, class_def: ast.ClassDef
    ) -> Iterator[Tuple[ModuleContext, ast.ClassDef]]:
        """The class and its resolvable ancestors, nearest first."""
        seen: Set[str] = set()
        stack: List[Tuple[ModuleContext, ast.ClassDef]] = [(module, class_def)]
        while stack:
            current_module, current = stack.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            yield current_module, current
            for base in current.bases:
                resolved = self.resolve_base(current_module, base)
                if resolved is not None:
                    stack.append(resolved)


def _class_surface(class_def: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """(methods, attributes) one class body provides.

    Attributes count whether declared in the body or assigned to ``self``
    inside any method (the ``self.config = ...`` idiom), and properties
    count as attributes too.
    """
    methods: Set[str] = set()
    attrs: Set[str] = set()
    for node in class_def.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            is_property = any(
                (isinstance(dec, ast.Name) and dec.id == "property")
                or (isinstance(dec, ast.Attribute) and dec.attr in ("getter", "setter"))
                for dec in node.decorator_list
            )
            if is_property:
                attrs.add(node.name)
            else:
                methods.add(node.name)
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            attrs.add(node.target.id)
    return methods, attrs


def extract_protocol_surface(
    protocol_module: ModuleContext,
) -> Optional[Tuple[Set[str], Set[str]]]:
    """(methods, attributes) the ``Experiment`` protocol class requires."""
    for node in protocol_module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Experiment":
            is_protocol = any(
                resolve_name(base, protocol_module.imports).endswith("Protocol")
                for base in node.bases
            )
            if not is_protocol:
                continue
            methods: Set[str] = set()
            attrs: Set[str] = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    methods.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    attrs.add(item.target.id)
            return methods, attrs
    return None


@register_rule
class RegisteredDefinitionRule(ProjectRule):
    """EXP001: ``@register_experiment`` classes carry the full definition surface."""

    rule_id = "EXP001"
    title = (
        "every @register_experiment class defines config_cls, preset_config "
        "and build (inherited stubs from ExperimentDefinition do not count)"
    )

    def check_project(
        self, modules: Dict[str, ModuleContext], root: Path
    ) -> List[Finding]:
        index = _ClassIndex(modules)
        findings: List[Finding] = []
        for rel in sorted(modules):
            module = modules[rel]
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                if not self._is_registered(module, node):
                    continue
                provided: Set[str] = set()
                for owner_module, owner in index.mro(module, node):
                    if owner.name == _DEFINITION_BASE:
                        continue  # raising stubs and config_cls = None
                    methods, attrs = _class_surface(owner)
                    provided |= methods | attrs
                missing = sorted(
                    member
                    for member in ("config_cls", "preset_config", "build")
                    if member not in provided
                )
                if missing:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            f"registered experiment definition {node.name} is "
                            f"missing {', '.join(missing)}; the registry will "
                            "reject or misbuild it the first time anything "
                            "imports this module",
                            context=f"{node.name}:{','.join(missing)}",
                        )
                    )
        return findings

    @staticmethod
    def _is_registered(module: ModuleContext, class_def: ast.ClassDef) -> bool:
        for dec in class_def.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if resolve_name(target, module.imports).endswith("register_experiment"):
                return True
        return False


@register_rule
class ExperimentProtocolRule(ProjectRule):
    """EXP002: ``*Experiment`` classes satisfy the Experiment protocol surface."""

    rule_id = "EXP002"
    title = (
        "every *Experiment class in repro/api and repro/experiments provides "
        "the protocol surface parsed from api/protocol.py "
        "(name, config, describe, cells, assemble)"
    )

    def check_project(
        self, modules: Dict[str, ModuleContext], root: Path
    ) -> List[Finding]:
        protocol_module = modules.get(PROTOCOL_MODULE)
        if protocol_module is None:
            return []  # not a repro tree shaped like this package
        surface = extract_protocol_surface(protocol_module)
        if surface is None:
            return [
                self.finding(
                    PROTOCOL_MODULE,
                    0,
                    "the Experiment protocol class is missing from "
                    "api/protocol.py; the conformance contract cannot be "
                    "checked",
                    context="Experiment",
                )
            ]
        required_methods, required_attrs = surface
        index = _ClassIndex(modules)
        findings: List[Finding] = []
        for rel in sorted(modules):
            module = modules[rel]
            if module.package not in _EXPERIMENT_PACKAGES:
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                if not node.name.endswith("Experiment") or node.name == "Experiment":
                    continue
                provided_methods: Set[str] = set()
                provided_attrs: Set[str] = set()
                for _owner_module, owner in index.mro(module, node):
                    methods, attrs = _class_surface(owner)
                    provided_methods |= methods
                    provided_attrs |= attrs
                missing = sorted(
                    [m for m in required_methods if m not in provided_methods]
                    + [
                        a
                        for a in required_attrs
                        if a not in provided_attrs and a not in provided_methods
                    ]
                )
                if missing:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            f"{node.name} does not satisfy the Experiment "
                            f"protocol: missing {', '.join(missing)}; the CLI "
                            "and sweep runner require the full surface "
                            "(see repro/api/protocol.py)",
                            context=f"{node.name}:{','.join(missing)}",
                        )
                    )
        return findings


__all__ = [
    "PROTOCOL_MODULE",
    "ExperimentProtocolRule",
    "RegisteredDefinitionRule",
    "extract_protocol_surface",
]

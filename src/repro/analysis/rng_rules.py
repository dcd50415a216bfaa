"""RNG discipline rules: every random draw is seeded, named, and declared.

The reproduction's byte-identity guarantees hold only if every random draw
descends from the master seed through a *named* stream
(:class:`repro.sim.random.RandomStreams`).  These rules make the three ways
that discipline historically eroded into static errors:

* an **unseeded generator** slipped in as a convenience fallback (RNG001),
* a draw from the **legacy global numpy RNG** or stdlib entropy, which is
  process-global state no seed threading can reach (RNG002/RNG003),
* a **typo in a stream name**, which silently derives a different
  independent stream and changes every number downstream (RNG004).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, ModuleRule, ProjectRule

#: The one module allowed to construct generators and own stream names.
RNG_HOME = "repro/sim/random.py"

#: numpy.random attributes that are constructors/types, not the legacy
#: global-state distribution API.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

#: Call targets that read OS entropy: nondeterministic by construction.
_ENTROPY_CALLS = frozenset({"os.urandom", "os.getrandom", "uuid.uuid4", "uuid.uuid1"})

#: Stdlib modules whose import alone signals undisciplined randomness.
_ENTROPY_MODULES = frozenset({"random", "secrets"})


class UnseededRngRule(ModuleRule):
    """RNG001: no unseeded generator construction outside ``sim/random.py``."""

    rule_id = "RNG001"
    title = (
        "generators are constructed seeded, via repro.sim.random "
        "(seeded_rng / derived_rng / RandomStreams) — never default_rng()"
    )

    def check_module(self, module: ModuleContext) -> List[Finding]:
        if module.rel == RNG_HOME:
            return []
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.qualified_call(node)
            if target == "numpy.random.default_rng":
                if not node.args and not node.keywords:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            "np.random.default_rng() without a seed is "
                            "irreproducible; thread an rng parameter or derive "
                            "one with repro.sim.random.derived_rng",
                            context="numpy.random.default_rng()",
                        )
                    )
                else:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            "construct seeded generators through "
                            "repro.sim.random.seeded_rng so determinism tooling "
                            "can audit every construction site",
                            context="numpy.random.default_rng(seed)",
                        )
                    )
            elif target.endswith("RandomStreams") and target.startswith("repro."):
                has_seed = bool(node.args) or any(
                    keyword.arg == "seed" for keyword in node.keywords
                )
                if not has_seed:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            "RandomStreams() without an explicit seed draws OS "
                            "entropy; pass the experiment's master seed",
                            context="RandomStreams()",
                        )
                    )
        return findings


class LegacyGlobalRngRule(ModuleRule):
    """RNG002: no draws from the legacy global numpy RNG."""

    rule_id = "RNG002"
    title = "no legacy global-state numpy RNG (np.random.<dist>/np.random.seed)"

    def check_module(self, module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = module.qualified_call(node)
            if not target.startswith("numpy.random."):
                continue
            tail = target.rsplit(".", 1)[-1]
            if tail not in _NUMPY_RANDOM_ALLOWED:
                findings.append(
                    self.finding(
                        module.rel,
                        node.lineno,
                        f"np.random.{tail}() draws from process-global state no "
                        "seed threading reaches; use a Generator from a named "
                        "RandomStreams stream",
                        context=target,
                    )
                )
        return findings


class StdlibEntropyRule(ModuleRule):
    """RNG003: no stdlib ``random``/``secrets`` or OS entropy in the package."""

    rule_id = "RNG003"
    title = "no stdlib random/secrets imports, os.urandom or uuid4 calls"

    def check_module(self, module: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _ENTROPY_MODULES:
                        findings.append(
                            self.finding(
                                module.rel,
                                node.lineno,
                                f"import {alias.name}: stdlib randomness bypasses "
                                "the named-stream registry; use "
                                "repro.sim.random instead",
                                context=f"import {alias.name}",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _ENTROPY_MODULES and not node.level:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            f"from {node.module} import ...: stdlib randomness "
                            "bypasses the named-stream registry; use "
                            "repro.sim.random instead",
                            context=f"from {node.module} import",
                        )
                    )
            elif isinstance(node, ast.Call):
                target = module.qualified_call(node)
                if target in _ENTROPY_CALLS:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            f"{target}() reads OS entropy and can never be "
                            "reproduced from a master seed",
                            context=target,
                        )
                    )
        return findings


def _stream_template(node: ast.AST) -> Optional[str]:
    """A wildcard template for a stream-name argument, or None if opaque.

    String constants map to themselves; f-strings map formatted values to
    ``*`` (``f"gateway-{label}"`` -> ``"gateway-*"``); anything else —
    a variable, a call — returns ``None``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: List[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def _templates_compatible(call_template: str, declared: str) -> bool:
    """Whether a call-site template can produce a name the declaration covers.

    Exact names use glob matching against the declaration.  Wildcarded
    call templates (from f-strings) are compared by literal prefix: the
    call's constant prefix must agree with the declaration's constant
    prefix, which is exactly the part a typo corrupts.
    """
    if "*" not in call_template:
        return fnmatchcase(call_template, declared)
    call_prefix = call_template.split("*", 1)[0]
    declared_prefix = declared.split("*", 1)[0]
    return call_prefix.startswith(declared_prefix) or declared_prefix.startswith(
        call_prefix
    )


def extract_declared_streams(module: ModuleContext) -> Optional[Tuple[str, ...]]:
    """The ``DECLARED_STREAMS`` tuple of a parsed ``sim/random.py``, statically."""
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "DECLARED_STREAMS":
                if isinstance(value, (ast.Tuple, ast.List)):
                    names = []
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                    return tuple(names)
    return None


class UndeclaredStreamRule(ProjectRule):
    """RNG004: stream names fetched via ``streams.get`` match the registry.

    The rule recognises stream fetches by the codebase convention that the
    registry variable is called ``streams`` (``streams.get(...)``,
    ``self.streams.get(...)``, ``streams.spawn(...)``).
    """

    rule_id = "RNG004"
    title = (
        "RandomStreams.get names match DECLARED_STREAMS in sim/random.py "
        "(typos become errors, additions are declared)"
    )

    def check_project(self, modules: Dict[str, ModuleContext]) -> List[Finding]:
        home = modules.get(RNG_HOME)
        if home is None:
            return []  # not a repro tree shaped like this package
        declared = extract_declared_streams(home)
        if declared is None:
            return [
                self.finding(
                    RNG_HOME,
                    0,
                    "DECLARED_STREAMS registry is missing from sim/random.py; "
                    "the stream-name contract cannot be checked",
                    context="DECLARED_STREAMS",
                )
            ]
        findings: List[Finding] = []
        for rel, module in sorted(modules.items()):
            if rel == RNG_HOME:
                continue
            findings.extend(self._check_module(module, declared))
        return findings

    def _check_module(
        self, module: ModuleContext, declared: Tuple[str, ...]
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in ("get", "spawn"):
                continue
            receiver = func.value
            receiver_name = ""
            if isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            if receiver_name != "streams":
                continue
            if not node.args:
                continue
            template = _stream_template(node.args[0])
            if func.attr == "spawn" and template is not None:
                template = f"{template}[*]"
            if template is None:
                findings.append(
                    self.finding(
                        module.rel,
                        node.lineno,
                        "stream name is not a string literal or f-string; the "
                        "declared-stream contract cannot be checked statically",
                        context="streams.get(<dynamic>)",
                    )
                )
            elif template.startswith("*"):
                findings.append(
                    self.finding(
                        module.rel,
                        node.lineno,
                        f"stream name template {template!r} starts with a "
                        "formatted value, so its registry entry cannot be "
                        "matched; lead with a literal component name",
                        context=template,
                    )
                )
            elif not any(
                _templates_compatible(template, entry)
                for entry in declared + tuple(f"{d}[*]" for d in declared)
            ):
                findings.append(
                    self.finding(
                        module.rel,
                        node.lineno,
                        f"stream name {template!r} matches no entry of "
                        "DECLARED_STREAMS in sim/random.py; a typo here would "
                        "silently derive a different stream — declare the name "
                        "or fix the spelling",
                        context=template,
                    )
                )
        return findings


__all__ = [
    "RNG_HOME",
    "LegacyGlobalRngRule",
    "StdlibEntropyRule",
    "UndeclaredStreamRule",
    "UnseededRngRule",
    "extract_declared_streams",
]

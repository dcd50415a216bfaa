"""The experiment registry: plugin-style registration and typed lookup.

Experiments are published by registering a small *definition* class:

.. code-block:: python

    from repro.api import register_experiment, ExperimentDefinition

    @register_experiment("fig6")
    class Fig6Definition(ExperimentDefinition):
        \"\"\"Figure 6: detection rate vs shared-link utilization.\"\"\"

        config_cls = Fig6Config

        def build(self, config):
            return Fig6Experiment(config)

        def preset_config(self, preset, seed):
            ...

A definition owns the mapping from a named *preset* (``paper`` / ``fast`` /
``quick`` / ``smoke``) plus a master seed to a typed configuration, and the
construction of the experiment object from that configuration.  Consumers
never touch definitions directly:

* :func:`get_experiment` — ``get_experiment("fig6", preset="fast",
  overrides={"trials": 30})`` builds a ready-to-run
  :class:`~repro.api.protocol.Experiment`.
* :func:`list_experiments` — the registered names, sorted.
* :func:`describe_experiment` — one-line summary per name (``repro list``).

Overrides are applied with :func:`dataclasses.replace` against the preset's
configuration, with string coercion driven by the replaced field's current
value — which is what lets the CLI forward ``--set trials=30 --set
utilizations=0.1,0.3`` without per-experiment plumbing.  Invalid keys and
invalid values fail loudly with the configuration class's own message.
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.api.protocol import Experiment

#: The named fidelity/run-time presets every registered experiment provides.
#: ``paper`` runs figure-sized grids through the capture kernels, in
#: simulation mode or, where the points share one gateway capture (Figure 8,
#: the tap ablation, population), in hybrid mode; ``fast``
#: switches to the hybrid/analytic models; ``quick`` additionally shrinks the
#: grids to seconds; ``smoke`` is a tiny all-analytic grid for CI.
PRESETS: Tuple[str, ...] = ("paper", "fast", "quick", "smoke")

#: Default master seed of CLI runs (the paper's publication year).
DEFAULT_SEED = 2003


class ExperimentDefinition:
    """Base class for registry entries.

    Subclasses set :attr:`config_cls` and implement :meth:`preset_config`
    and :meth:`build`.
    """

    #: Registry name; filled in by :func:`register_experiment`.
    name: str = ""

    #: The experiment's configuration dataclass.
    config_cls: Optional[Type[Any]] = None

    def preset_config(self, preset: str, seed: int) -> Any:
        """The configuration realising ``preset`` at master seed ``seed``."""
        raise NotImplementedError

    def build(self, config: Any) -> Experiment:
        """Construct the experiment object from a configuration."""
        raise NotImplementedError

    @property
    def summary(self) -> str:
        """One-line description shown by ``repro list``.

        Delegates to the built experiment's ``describe()`` so there is a
        single source of truth for every experiment's summary — a definition
        docstring cannot drift from what the experiment says about itself.
        """
        return self.build(self.preset_config("smoke", DEFAULT_SEED)).describe()


_REGISTRY: Dict[str, ExperimentDefinition] = {}


def register_experiment(
    name: str,
) -> Callable[[Type[ExperimentDefinition]], Type[ExperimentDefinition]]:
    """Class decorator registering an :class:`ExperimentDefinition` under ``name``.

    Names must be unique; re-registering a name is almost always an import
    mistake and raises loudly.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"experiment name {name!r} must be a non-empty string")

    def decorator(cls: Type[ExperimentDefinition]) -> Type[ExperimentDefinition]:
        if not (isinstance(cls, type) and issubclass(cls, ExperimentDefinition)):
            raise ConfigurationError(
                f"@register_experiment({name!r}) must decorate an "
                f"ExperimentDefinition subclass, got {cls!r}"
            )
        if name in _REGISTRY:
            raise ConfigurationError(
                f"experiment {name!r} is already registered "
                f"(by {type(_REGISTRY[name]).__name__})"
            )
        definition = cls()
        definition.name = name
        if definition.config_cls is None or not is_dataclass(definition.config_cls):
            raise ConfigurationError(
                f"experiment {name!r}: config_cls must be a configuration dataclass"
            )
        _REGISTRY[name] = definition
        return cls

    return decorator


def list_experiments() -> List[str]:
    """The registered experiment names, sorted."""
    return sorted(_REGISTRY)


def experiment_definition(name: str) -> ExperimentDefinition:
    """The registry entry for ``name``; unknown names raise with the known set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None


def describe_experiment(name: str) -> str:
    """One-line summary of a registered experiment."""
    return experiment_definition(name).summary


def get_experiment(
    name: str,
    preset: str = "fast",
    seed: int = DEFAULT_SEED,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Experiment:
    """Build a registered experiment from a preset plus optional overrides."""
    definition = experiment_definition(name)
    if preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose one of {', '.join(PRESETS)}"
        )
    config = definition.preset_config(preset, seed)
    if overrides:
        config = apply_overrides(config, overrides)
    return definition.build(config)


# ------------------------------------------------------------------ overrides
def parse_set_options(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse CLI ``--set key=value`` pairs into an override mapping."""
    overrides: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"override {pair!r} is not of the form key=value"
            )
        if key in overrides:
            raise ConfigurationError(f"override key {key!r} given twice")
        overrides[key] = value.strip()
    return overrides


def _coerce_scalar(value: str, reference: Any) -> Any:
    """Coerce one string to the type of ``reference`` (a current field value)."""
    if isinstance(reference, bool):
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"{value!r} is not a boolean")
    if isinstance(reference, enum.Enum):
        return type(reference)(value)
    if isinstance(reference, int) and not isinstance(reference, bool):
        return int(value)
    if isinstance(reference, float):
        return float(value)
    return value


def _coerce_scalar_best_effort(value: str) -> Any:
    """Numeric-looking strings become numbers; anything else stays a string."""
    try:
        return float(value)
    except ValueError:
        return value


def _coerce_override(name: str, value: Any, current: Any) -> Any:
    """Coerce a ``--set`` string against the field's current value.

    Non-string overrides (from Python callers) pass through untouched — the
    configuration dataclass's ``__post_init__`` remains the validator of
    record.  Tuples are spelled as comma-separated items (``"0.1,0.3"``);
    when the current tuple's items share one type each item follows it, and
    for mixed-type or empty tuples (e.g. ``kde_bandwidths`` holding rule
    names and multipliers) numeric-looking items become floats and the rest
    stay strings.
    """
    if not isinstance(value, str):
        return value
    try:
        if isinstance(current, tuple):
            items = [item.strip() for item in value.split(",") if item.strip()]
            item_types = {type(item) for item in current}
            if len(item_types) == 1:
                reference = current[0]
                return tuple(_coerce_scalar(item, reference) for item in items)
            return tuple(_coerce_scalar_best_effort(item) for item in items)
        if current is None:
            # Unset optionals (e.g. entropy_bin_width): best effort numeric.
            return _coerce_scalar_best_effort(value)
        return _coerce_scalar(value, current)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"cannot coerce override {name}={value!r} against current value "
            f"{current!r}: {exc}"
        ) from None


def apply_overrides(config: Any, overrides: Mapping[str, Any]) -> Any:
    """A copy of ``config`` with the overrides applied field by field."""
    if not is_dataclass(config):
        raise ConfigurationError(
            f"cannot apply overrides to non-dataclass config {config!r}"
        )
    valid = {f.name for f in fields(config)}
    coerced: Dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in valid:
            raise ConfigurationError(
                f"{type(config).__name__} has no field {name!r}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        coerced[name] = _coerce_override(name, value, getattr(config, name))
    return replace(config, **coerced)


__all__ = [
    "DEFAULT_SEED",
    "PRESETS",
    "ExperimentDefinition",
    "apply_overrides",
    "describe_experiment",
    "experiment_definition",
    "get_experiment",
    "list_experiments",
    "parse_set_options",
    "register_experiment",
]

"""The experiment registry: one table of experiment classes.

Every registered experiment is a class that carries its own presets:

.. code-block:: python

    class Fig6Experiment:
        name = "fig6"
        config_cls = Fig6Config
        presets = {
            "paper": {},
            "fast": dict(trials=15, mode=CollectionMode.HYBRID),
            ...
        }

``presets`` maps each name in :data:`PRESETS` to the keyword arguments of
``config_cls``; the master seed is added by :func:`get_experiment`.  A new
experiment joins the registry by being added to the ``_EXPERIMENTS`` tuple
below, and its name to :data:`repro.defaults.EXPERIMENT_NAMES`, which the CLI
parses with before it imports any experiment.  Consumers go through three
functions:

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
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.api.protocol import Experiment
from repro.defaults import DEFAULT_SEED, PRESETS
from repro.exceptions import ConfigurationError
from repro.experiments import (
    EstimatorAblationExperiment,
    Fig4Experiment,
    Fig5Experiment,
    Fig6Experiment,
    Fig8Experiment,
    TapAblationExperiment,
    VitFamilyAblationExperiment,
)
from repro.population import PopulationExperiment

_EXPERIMENTS: Dict[str, Any] = {
    cls.name: cls
    for cls in (
        Fig4Experiment,
        Fig5Experiment,
        Fig6Experiment,
        Fig8Experiment,
        EstimatorAblationExperiment,
        TapAblationExperiment,
        VitFamilyAblationExperiment,
        PopulationExperiment,
    )
}


def list_experiments() -> List[str]:
    """The registered experiment names, sorted."""
    return sorted(_EXPERIMENTS)


def _experiment_class(name: str) -> Any:
    """The registered class for ``name``; unknown names raise with the known set."""
    try:
        return _EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered experiments: "
            f"{', '.join(sorted(_EXPERIMENTS))}"
        ) from None


def describe_experiment(name: str) -> str:
    """One-line summary of a registered experiment (its ``describe()``)."""
    return get_experiment(name, "smoke").describe()


def get_experiment(
    name: str,
    preset: str = "fast",
    seed: int = DEFAULT_SEED,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Experiment:
    """Build a registered experiment from a preset plus optional overrides."""
    cls = _experiment_class(name)
    if preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose one of {', '.join(PRESETS)}"
        )
    config = cls.config_cls(**cls.presets[preset], seed=seed)
    return cls(apply_overrides(config, overrides) if overrides else config)


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
    "apply_overrides",
    "describe_experiment",
    "get_experiment",
    "list_experiments",
    "parse_set_options",
]

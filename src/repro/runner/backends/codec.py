"""Rebuilding sweep cells and capture specs from their stored config dicts.

The queue backend ships work between processes (and potentially hosts) as
JSON: the same ``config`` payload that
:meth:`~repro.runner.cells.SweepCell.config_dict` fingerprints and the
results store records.  A pull-based worker holds none of the Python objects
the parent built, so this module inverts ``config_dict`` — policy,
disturbance, scenario, capture spec, cell — and *proves* the inversion by
re-deriving the fingerprint: a config this build cannot faithfully rebuild
is refused, never silently executed with different parameters.

The display ``name`` of a policy and the ``key`` of a cell are excluded from
fingerprints by design, so reconstruction synthesises fresh labels without
affecting the hash.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.exceptions import ConfigurationError
from repro.experiments.base import ScenarioConfig
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import PaddingPolicy, cit_policy, vit_policy
from repro.runner.capture import CaptureSpec
from repro.runner.cells import SweepCell
from repro.runner.fingerprint import fingerprint_payload


def verify_fingerprint(key: str, config: Dict[str, Any], fingerprint: str) -> str:
    """Check a claimed fingerprint against the recomputed config hash.

    Returns the (verified) fingerprint; raises a
    :class:`~repro.exceptions.ConfigurationError` naming the mismatch
    otherwise.  Every entry point that accepts a ``(fingerprint, config)``
    pair from outside the process — ``POST /enqueue`` payloads, the entries a
    worker claims, the units ``repro queue drain`` merges — goes through this
    check, so a tampered or stale fingerprint can never alias a record onto
    the wrong cache key.
    """
    recomputed = fingerprint_payload(config)
    if fingerprint != recomputed:
        raise ConfigurationError(
            f"cell {key!r}: claimed fingerprint {fingerprint!r} does not match "
            f"its config (recomputed {recomputed!r}); refusing the payload"
        )
    return recomputed


def policy_from_config(payload: Dict[str, Any]) -> PaddingPolicy:
    """A :class:`PaddingPolicy` from its ``config_dict`` form (name-less)."""
    data = dict(payload)
    data.pop("name", None)  # display label, excluded from fingerprints
    kind = data.get("kind")
    if kind == "CIT":
        return cit_policy(data["mean_interval"])
    if kind == "VIT":
        return vit_policy(
            data["sigma_t"], data["mean_interval"], data.get("family", "normal")
        )
    raise ConfigurationError(f"policy config kind={kind!r} must be 'CIT' or 'VIT'")


def disturbance_from_config(payload: Dict[str, Any]) -> InterruptDisturbance:
    """An :class:`InterruptDisturbance` from its ``asdict`` form."""
    try:
        return InterruptDisturbance(**payload)
    except TypeError as exc:
        raise ConfigurationError(f"malformed disturbance config: {exc}") from None


def scenario_from_config(payload: Dict[str, Any]) -> ScenarioConfig:
    """A :class:`ScenarioConfig` from its (possibly gateway-only) dict form.

    Capture specs serialise only the gateway-affecting scenario subset
    (:data:`~repro.runner.capture.GATEWAY_SCENARIO_FIELDS`); the remaining
    fields take their dataclass defaults, which is sound because the gateway
    simulation never reads them.
    """
    data = dict(payload)
    try:
        policy = policy_from_config(data.pop("policy"))
        if data["disturbance"] is not None:  # None: an undisturbed gateway
            data["disturbance"] = disturbance_from_config(data["disturbance"])
    except KeyError as exc:
        raise ConfigurationError(f"scenario config is missing {exc}") from None
    try:
        return ScenarioConfig(policy=policy, **data)
    except TypeError as exc:
        raise ConfigurationError(f"malformed scenario config: {exc}") from None


def capture_from_config(key: str, config: Dict[str, Any]) -> CaptureSpec:
    """A :class:`CaptureSpec` from its ``config_dict`` form, fingerprint-verified."""
    if not isinstance(config, dict):
        raise ConfigurationError(f"capture {key!r}: config must be an object")
    if config.get("kind") != "gateway-capture":
        raise ConfigurationError(
            f"capture {key!r}: config kind={config.get('kind')!r} is not "
            f"'gateway-capture'"
        )
    _check_schema("capture", key, config)
    try:
        spec = CaptureSpec(
            key=key,
            scenario=scenario_from_config(config["scenario"]),
            n_intervals=config["n_intervals"],
            seed=config["seed"],
            seed_offsets=tuple(config["seed_offsets"]),
        )
    except KeyError as exc:
        raise ConfigurationError(f"capture {key!r}: config is missing {exc}") from None
    _check_roundtrip("gateway capture", key, spec.config_dict(), config)
    return spec


def cell_from_config(key: str, config: Dict[str, Any]) -> SweepCell:
    """A :class:`SweepCell` from its ``config_dict`` form, fingerprint-verified.

    The optional fields (``capture``, ``noise_offsets``, ``kde_bandwidth``,
    ...) are reconstructed only when present, mirroring how ``config_dict``
    serialises them only when set — which is what keeps the round-trip
    fingerprint-exact for stores written before those fields existed.
    """
    if not isinstance(config, dict):
        raise ConfigurationError(f"cell {key!r}: config must be an object")
    _check_schema("cell", key, config)
    capture: Optional[CaptureSpec] = None
    if "capture" in config:
        capture = capture_from_config(f"{key}/capture", config["capture"])
    try:
        cell = SweepCell(
            key=key,
            scenario=scenario_from_config(config["scenario"]),
            sample_sizes=tuple(config["sample_sizes"]),
            trials=config["trials"],
            mode=config["mode"],
            seed=config["seed"],
            features=tuple(config["features"]),
            entropy_bin_width=config.get("entropy_bin_width"),
            seed_offsets=tuple(config["seed_offsets"]),
            collect_piat_stats=config.get("collect_piat_stats", False),
            capture=capture,
            noise_offsets=(
                tuple(config["noise_offsets"]) if "noise_offsets" in config else None
            ),
            kde_bandwidth=config.get("kde_bandwidth"),
            rate_classes=(
                tuple(config["rate_classes"]) if "rate_classes" in config else None
            ),
        )
    except KeyError as exc:
        raise ConfigurationError(f"cell {key!r}: config is missing {exc}") from None
    except TypeError as exc:
        raise ConfigurationError(f"cell {key!r}: malformed config: {exc}") from None
    _check_roundtrip("cell", key, cell.config_dict(), config)
    return cell


def _check_schema(unit: str, key: str, config: Dict[str, Any]) -> None:
    from repro.runner.cells import SCHEMA_VERSION

    schema = config.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{unit} {key!r}: config schema {schema!r} is not the schema "
            f"{SCHEMA_VERSION} this build executes"
        )


def _check_roundtrip(
    unit: str, key: str, rebuilt: Dict[str, Any], given: Dict[str, Any]
) -> None:
    """The reconstructed object must hash to exactly the given config."""
    rebuilt_fp = fingerprint_payload(rebuilt)
    given_fp = fingerprint_payload(given)
    if rebuilt_fp != given_fp:
        raise ConfigurationError(
            f"{unit} {key!r}: config does not round-trip through reconstruction "
            f"(given {given_fp}, rebuilt {rebuilt_fp}); this build cannot "
            f"faithfully execute it"
        )


__all__ = [
    "capture_from_config",
    "cell_from_config",
    "disturbance_from_config",
    "policy_from_config",
    "scenario_from_config",
    "verify_fingerprint",
]

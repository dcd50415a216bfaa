"""Typed queries over a results store, answered from its JSON-lines shards.

:class:`StoreQuery` is the read side of the store subsystem: it answers the
questions a results consumer — the ``repro serve`` HTTP API, a notebook —
would otherwise need a full sweep replay for:

* :meth:`points` — every labelled grid point of an experiment, with the full
  JSON result payload exactly as stored.
* :meth:`point` — every per-seed record behind one grid-point key.
* :meth:`ci_band` — mean ± percentile-bootstrap interval per feature/sample
  size across the seeds of one grid point.  Reuses
  :func:`repro.runner.grid.mean_and_ci` with the aggregation layer's exact
  per-feature stream keys, so a served band is byte-identical to the one a
  ``repro sweep --ci`` report prints for the same data.

Labels are built once, at construction: every registered experiment × preset
is expanded at every distinct cell seed in the store, and each cell's
fingerprint is mapped to its experiment, preset, grid-point key and seed.
Fingerprints hash the seed-inclusive configuration, so a label is an exact
identity; records no expansion produces (scenario files, foreign tools) stay
unlabelled.

Records are read per query through a fresh
:class:`~repro.runner.store.ResultsStore`, so every answer reflects the
shards as they are now: a cell stored after start-up at a known seed is
served, and a rewritten cell serves its newest record.  The label map is
never mutated after construction, so one :class:`StoreQuery` is safe to
share across server threads while a sweep appends to the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.exceptions import ConfigurationError, ReproError
from repro.runner.grid import mean_and_ci, split_seed_key
from repro.runner.store import ResultsStore


@dataclass(frozen=True)
class PointRecord:
    """One labelled (grid point, seed) record, as served by :meth:`points`."""

    experiment: str
    preset: str
    point_key: str
    seed: int
    fingerprint: str
    policy_kind: Optional[str]
    variance_ratio: Optional[float]
    result: Dict[str, Any]

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able form (the server's ``/points`` payload element)."""
        return {
            "experiment": self.experiment,
            "preset": self.preset,
            "point_key": self.point_key,
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "policy_kind": self.policy_kind,
            "variance_ratio": self.variance_ratio,
            "result": self.result,
        }


@dataclass(frozen=True)
class CIBand:
    """Mean ± bootstrap interval for one grid point, across its seeds.

    ``detection_rate`` maps feature → sample size → ``(mean, lower, upper)``;
    ``variance_ratio`` is the same triple for the measured variance ratio.
    Derived with the aggregation layer's generator convention, so the values
    match a ``repro sweep --seeds N --ci`` report byte for byte.
    """

    point_key: str
    confidence: float
    seeds: Tuple[int, ...]
    detection_rate: Dict[str, Dict[int, Tuple[float, float, float]]]
    variance_ratio: Tuple[float, float, float]

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able form (the server's ``/point`` payload extension)."""
        return {
            "point_key": self.point_key,
            "confidence": self.confidence,
            "seeds": list(self.seeds),
            "detection_rate": {
                feature: {str(n): list(band) for n, band in by_n.items()}
                for feature, by_n in self.detection_rate.items()
            },
            "variance_ratio": list(self.variance_ratio),
        }


class _Label(NamedTuple):
    """Where one fingerprint sits in a registered grid.

    Field order is the :meth:`StoreQuery.points` listing order.
    """

    experiment: str
    point_key: str
    seed: int
    fingerprint: str
    preset: str


def _scalar(value: Any, kind: type) -> Any:
    """``value`` coerced to ``kind``, or ``None`` for a bool, ``None`` or non-number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        return None


def _expand_labels(store: ResultsStore) -> List[_Label]:
    """Every registered grid cell's label, expanded at the store's cell seeds.

    Returns the labels in :meth:`StoreQuery.points` order.  An experiment
    whose expansion rejects a seed or preset is skipped, not fatal.
    """
    # Imported here: repro.api pulls in every experiment module.
    from repro.api import PRESETS, get_experiment, list_experiments

    seeds = set()
    for path in store.shard_files():
        record = store.get(path.stem)
        if record is not None:
            seed = _scalar((record.get("config") or {}).get("seed"), int)
            if seed is not None:
                seeds.add(seed)
    labels: Dict[Tuple[str, str, str], _Label] = {}
    for name in list_experiments():
        for preset in PRESETS:
            for seed in sorted(seeds):
                try:
                    cells = get_experiment(name, preset, seed).cells()
                except ReproError:
                    continue
                for cell in cells:
                    fingerprint = cell.fingerprint()
                    point_key, _ = split_seed_key(cell.key)
                    labels[(fingerprint, name, preset)] = _Label(
                        name, point_key, cell.seed, fingerprint, preset
                    )
    return sorted(labels.values())


def _point_record(label: _Label, record: Dict[str, Any]) -> PointRecord:
    scenario = (record.get("config") or {}).get("scenario") or {}
    policy_kind = (scenario.get("policy") or {}).get("kind")
    return PointRecord(
        experiment=label.experiment,
        preset=label.preset,
        point_key=label.point_key,
        seed=label.seed,
        fingerprint=label.fingerprint,
        policy_kind=policy_kind if isinstance(policy_kind, str) else None,
        variance_ratio=_scalar(record["result"].get("measured_variance_ratio"), float),
        result=record["result"],
    )


class StoreQuery:
    """Read-only queries against one results store."""

    def __init__(self, store_root: Union[str, Path]) -> None:
        store = ResultsStore(store_root)
        self._root = store.root
        self._labels = _expand_labels(store)

    @property
    def store_root(self) -> Path:
        """The queried store's root directory."""
        return self._root

    def _stored(self, labels: Iterable[_Label]) -> Iterator[Tuple[_Label, Dict[str, Any]]]:
        """Each label whose fingerprint has a cell record now, with that record."""
        store = ResultsStore(self._root)
        for label in labels:
            record = store.get(label.fingerprint)
            if record is not None:
                yield label, record

    # ---------------------------------------------------------------- queries
    def experiments(self) -> List[Dict[str, Any]]:
        """Per-experiment label summary: points, records and seeds stored."""
        # Every label is asked about, and most (other presets' and seeds'
        # cells) have no shard: one listing skips them without a lookup each.
        present = {path.stem for path in ResultsStore(self._root).shard_files()}
        stored: Dict[str, List[_Label]] = {}
        for label, _ in self._stored(l for l in self._labels if l.fingerprint in present):
            stored.setdefault(label.experiment, []).append(label)
        return [
            {
                "experiment": name,
                "points": len({label.point_key for label in labels}),
                "records": len({label.fingerprint for label in labels}),
                "seeds": len({label.seed for label in labels}),
                "presets": sorted({label.preset for label in labels}),
            }
            for name, labels in sorted(stored.items())
        ]

    def points(
        self,
        experiment: Optional[str] = None,
        preset: Optional[str] = None,
        policy: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[PointRecord]:
        """Labelled grid-point records, ordered by experiment, point key and seed.

        Filters are conjunctive; ``policy`` matches the scenario's policy
        kind case-insensitively (``"cit"`` / ``"vit"``).  One stored record
        can satisfy several presets (preset grids often share cells); when
        no ``preset`` filter is given, each distinct ``(point_key, seed,
        fingerprint)`` is reported once, under its alphabetically first
        preset — the physical record is the same either way.
        """
        labels = (
            label
            for label in self._labels
            if (experiment is None or label.experiment == experiment)
            and (preset is None or label.preset == preset)
            and (seed is None or label.seed == int(seed))
        )
        points: List[PointRecord] = []
        seen = set()
        for label, record in self._stored(labels):
            point = _point_record(label, record)
            if policy is not None and (
                point.policy_kind is None or point.policy_kind.lower() != policy.lower()
            ):
                continue
            if preset is None and label[:4] in seen:
                continue
            seen.add(label[:4])
            points.append(point)
        return points

    def point(self, point_key: str) -> List[PointRecord]:
        """Every per-seed record behind one grid-point key (any experiment)."""
        labels = sorted(
            (label for label in self._labels if label.point_key == point_key),
            key=lambda label: (label.seed, label.fingerprint, label.experiment, label.preset),
        )
        points: List[PointRecord] = []
        seen = set()
        for label, record in self._stored(labels):
            if label.fingerprint not in seen:
                seen.add(label.fingerprint)
                points.append(_point_record(label, record))
        return points

    def ci_band(self, point_key: str, confidence: float = 0.95) -> CIBand:
        """Mean ± bootstrap interval for one grid point, across its seeds.

        Requires at least two distinct seeds behind the point; values enter
        the bootstrap in ascending seed order with the aggregation layer's
        per-feature stream keys (``<point>/<feature>/<n>``, ``<point>/r``),
        which is what makes the band byte-identical to a ``--ci`` report of
        the same records.
        """
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError(f"confidence={confidence!r} must lie in (0, 1)")
        records = sorted(self.point(point_key), key=lambda r: r.seed)
        seeds = tuple(record.seed for record in records)
        if len(set(seeds)) < 2:
            raise ConfigurationError(
                f"grid point {point_key!r} has {len(set(seeds))} seed(s) in the index; "
                "a confidence band needs at least two"
            )
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(
                f"grid point {point_key!r} has duplicate seeds {seeds!r} in the index"
            )

        results = [record.result for record in records]
        bands: Dict[str, Dict[int, Tuple[float, float, float]]] = {}
        for feature in sorted(results[0].get("empirical_detection_rate", {})):
            bands[feature] = {}
            for n_text in sorted(
                results[0]["empirical_detection_rate"][feature], key=int
            ):
                n = int(n_text)
                values = [
                    float(result["empirical_detection_rate"][feature][n_text])
                    for result in results
                ]
                mean, ci = mean_and_ci(values, f"{point_key}/{feature}/{n}", confidence)
                assert ci is not None  # >= 2 seeds and a confidence level
                bands[feature][n] = (mean, ci[0], ci[1])
        ratio_mean, ratio_ci = mean_and_ci(
            [float(result["measured_variance_ratio"]) for result in results],
            f"{point_key}/r",
            confidence,
        )
        assert ratio_ci is not None
        return CIBand(
            point_key=point_key,
            confidence=confidence,
            seeds=seeds,
            detection_rate=bands,
            variance_ratio=(ratio_mean, ratio_ci[0], ratio_ci[1]),
        )


__all__ = ["CIBand", "PointRecord", "StoreQuery"]

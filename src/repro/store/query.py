"""Typed queries against an indexed results store.

:class:`StoreQuery` is the read side of the store subsystem: given a store
root whose ``index.sqlite`` has been built (``repro cache index``), it
answers the questions a results consumer — the ``repro serve`` HTTP API, a
notebook, a scheduler — would otherwise need a full sweep replay for:

* :meth:`points` — every labelled grid point of an experiment, with the full
  JSON result payload exactly as stored.
* :meth:`point` — every per-seed record behind one grid-point key.
* :meth:`ci_band` — mean ± percentile-bootstrap interval per feature/sample
  size across the seeds of one grid point.  Reuses
  :func:`repro.runner.grid.mean_and_ci` with the aggregation layer's exact
  per-feature stream keys, so a band served from the index is byte-identical
  to the one a ``repro sweep --ci`` report prints for the same data.

Connections are opened read-only (sqlite URI ``mode=ro``) and per-thread, so
one :class:`StoreQuery` is safe to share across server threads while a sweep
appends to the store — the index is refreshed explicitly, never by readers.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.runner.grid import mean_and_ci
from repro.store.index import StoreIndex


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


class StoreQuery:
    """Read-only queries against one indexed results store."""

    def __init__(
        self,
        store_root: Union[str, Path],
        index_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self._index = StoreIndex(store_root, path=index_path)
        if not self._index.path.exists():
            raise ConfigurationError(
                f"no index at {str(self._index.path)!r}; build one with "
                f"'repro cache index --cache-dir {self._index.store.root}'"
            )
        self._local = threading.local()

    @property
    def index_path(self) -> Path:
        """The sqlite index being queried."""
        return self._index.path

    @property
    def store_root(self) -> Path:
        """The indexed store's root directory."""
        return self._index.store.root

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._index.connect_readonly()
            self._local.connection = connection
        return connection

    # ---------------------------------------------------------------- queries
    def experiments(self) -> List[Dict[str, Any]]:
        """Per-experiment label summary: points, records and seeds indexed."""
        rows = self._connection().execute(
            "SELECT experiment, COUNT(DISTINCT point_key) AS points, "
            "COUNT(DISTINCT fingerprint) AS records, "
            "COUNT(DISTINCT seed) AS seeds, "
            "GROUP_CONCAT(DISTINCT preset) AS presets "
            "FROM labels GROUP BY experiment ORDER BY experiment"
        ).fetchall()
        return [
            {
                "experiment": row["experiment"],
                "points": row["points"],
                "records": row["records"],
                "seeds": row["seeds"],
                "presets": sorted((row["presets"] or "").split(",")),
            }
            for row in rows
        ]

    def points(
        self,
        experiment: Optional[str] = None,
        preset: Optional[str] = None,
        policy: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[PointRecord]:
        """Labelled grid-point records, newest-label-first deduplicated.

        Filters are conjunctive; ``policy`` matches the scenario's policy
        kind case-insensitively (``"cit"`` / ``"vit"``).  One stored record
        can satisfy several presets (preset grids often share cells); when
        no ``preset`` filter is given, each distinct ``(point_key, seed,
        fingerprint)`` is reported once, under its alphabetically first
        preset — the physical record is the same either way.
        """
        clauses = ["r.kind = 'cell'"]
        parameters: List[Any] = []
        if experiment is not None:
            clauses.append("l.experiment = ?")
            parameters.append(experiment)
        if preset is not None:
            clauses.append("l.preset = ?")
            parameters.append(preset)
        if policy is not None:
            clauses.append("LOWER(r.policy_kind) = LOWER(?)")
            parameters.append(policy)
        if seed is not None:
            clauses.append("l.seed = ?")
            parameters.append(int(seed))
        rows = self._connection().execute(
            "SELECT l.experiment, l.preset, l.point_key, l.seed, l.fingerprint, "
            "r.policy_kind, r.variance_ratio, r.result_json "
            "FROM labels l JOIN records r ON r.fingerprint = l.fingerprint "
            f"WHERE {' AND '.join(clauses)} "
            "ORDER BY l.experiment, l.point_key, l.seed, l.fingerprint, l.preset",
            parameters,
        ).fetchall()
        points: List[PointRecord] = []
        seen = set()
        for row in rows:
            identity = (row["experiment"], row["point_key"], row["seed"], row["fingerprint"])
            if preset is None and identity in seen:
                continue
            seen.add(identity)
            points.append(
                PointRecord(
                    experiment=row["experiment"],
                    preset=row["preset"],
                    point_key=row["point_key"],
                    seed=row["seed"],
                    fingerprint=row["fingerprint"],
                    policy_kind=row["policy_kind"],
                    variance_ratio=row["variance_ratio"],
                    result=json.loads(row["result_json"]) if row["result_json"] else {},
                )
            )
        return points

    def point(self, point_key: str) -> List[PointRecord]:
        """Every per-seed record behind one grid-point key (any experiment)."""
        rows = self._connection().execute(
            "SELECT l.experiment, l.preset, l.point_key, l.seed, l.fingerprint, "
            "r.policy_kind, r.variance_ratio, r.result_json "
            "FROM labels l JOIN records r ON r.fingerprint = l.fingerprint "
            "WHERE l.point_key = ? AND r.kind = 'cell' "
            "ORDER BY l.seed, l.fingerprint, l.experiment, l.preset",
            (point_key,),
        ).fetchall()
        points: List[PointRecord] = []
        seen = set()
        for row in rows:
            if row["fingerprint"] in seen:
                continue
            seen.add(row["fingerprint"])
            points.append(
                PointRecord(
                    experiment=row["experiment"],
                    preset=row["preset"],
                    point_key=row["point_key"],
                    seed=row["seed"],
                    fingerprint=row["fingerprint"],
                    policy_kind=row["policy_kind"],
                    variance_ratio=row["variance_ratio"],
                    result=json.loads(row["result_json"]) if row["result_json"] else {},
                )
            )
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

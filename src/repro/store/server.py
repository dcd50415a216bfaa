"""``repro serve`` — a read-only JSON HTTP API over a results store.

The server is deliberately stdlib-only: a
:class:`http.server.ThreadingHTTPServer` whose handler answers every request
from the store's JSON-lines shards, labelled by the grid-point map that
:class:`~repro.store.query.StoreQuery` builds at start-up, so no request
ever takes a lock on the store and a sweep can keep appending while the
server runs.  Endpoints:

================================  ==============================================
``GET /``                         endpoint listing (this table, as JSON)
``GET /experiments``              registered experiments + indexed label summary
``GET /points?experiment=NAME``   labelled grid-point records with full results
                                  (optional ``preset=`` / ``seed=`` / ``policy=``)
``GET /point/<point-key>``        every per-seed record behind one grid point
                                  (optional ``confidence=`` adds the CI band)
``GET /report/<experiment>``      the experiment's rendered report text,
                                  assembled purely from cached records
                                  (optional ``preset=`` / ``seed=`` / ``seeds=``
                                  / ``confidence=``; 409 lists missing cells)
================================  ==============================================

The server only reads: it never computes a cell or writes to the store.  A
report whose cells the store lacks answers 409 with the missing cell keys;
``repro run NAME --preset P --cache-dir DIR`` fills them.  A method without
a handler (``POST`` included) is answered by :mod:`http.server` itself with
501.

See ``docs/serving.md`` for worked examples.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlparse

from repro.exceptions import ConfigurationError, ReproError
from repro.runner.cells import CellResult
from repro.runner.grid import experiment_view, seed_range
from repro.runner.store import ResultsStore
from repro.store.query import StoreQuery

#: Loopback by default: the server is an internal results surface, not an
#: internet-facing service; bind wider interfaces explicitly.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

_ENDPOINTS = {
    "GET /experiments": "registered experiments plus the indexed label summary",
    "GET /points?experiment=NAME": "grid-point records (preset=, seed=, policy= filters)",
    "GET /point/<point-key>": "per-seed records of one point (confidence= adds a CI band)",
    "GET /report/<experiment>": "rendered report from cache (preset=, seed=, seeds=, confidence=)",
}


class _HTTPError(Exception):
    """An error with a status code, rendered as a JSON body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ResultsServer(ThreadingHTTPServer):
    """The threaded HTTP server; one per served store."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        query: StoreQuery,
        quiet: bool = False,
    ) -> None:
        self.query = query
        self.store_root = query.store_root
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server: ResultsServer

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _query_params(self) -> Dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {name: values[-1] for name, values in parsed.items()}

    @staticmethod
    def _int_param(params: Dict[str, str], name: str) -> Optional[int]:
        if name not in params:
            return None
        try:
            return int(params[name])
        except ValueError:
            raise _HTTPError(
                400, f"query parameter {name}={params[name]!r} is not an integer"
            ) from None

    @staticmethod
    def _float_param(params: Dict[str, str], name: str) -> Optional[float]:
        if name not in params:
            return None
        try:
            return float(params[name])
        except ValueError:
            raise _HTTPError(
                400, f"query parameter {name}={params[name]!r} is not a number"
            ) from None

    # --------------------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802 - http.server spelling
        try:
            payload, status = self._route_get()
        except _HTTPError as exc:
            payload, status = {"error": str(exc)}, exc.status
        except ConfigurationError as exc:
            payload, status = {"error": str(exc)}, 400
        except ReproError as exc:  # pragma: no cover - defensive
            payload, status = {"error": str(exc)}, 500
        self._send_json(payload, status)

    def _route_get(self) -> Tuple[Dict[str, Any], int]:
        path = unquote(urlparse(self.path).path)
        if path in ("", "/"):
            return {"endpoints": _ENDPOINTS, "store": str(self.server.store_root)}, 200
        if path.rstrip("/") == "/experiments":
            return self._experiments(), 200
        if path.rstrip("/") == "/points":
            return self._points(), 200
        if path.startswith("/point/"):
            return self._point(path[len("/point/"):])
        if path.startswith("/report/"):
            return self._report(path[len("/report/"):])
        raise _HTTPError(404, f"unknown endpoint {path!r}")

    # ------------------------------------------------------------- endpoints
    def _experiments(self) -> Dict[str, Any]:
        from repro.api import describe_experiment, list_experiments

        indexed = {entry["experiment"]: entry for entry in self.server.query.experiments()}
        experiments = []
        for name in list_experiments():
            entry: Dict[str, Any] = {
                "experiment": name,
                "description": describe_experiment(name),
                "indexed": indexed.pop(name, None),
            }
            experiments.append(entry)
        return {"experiments": experiments}

    def _points(self) -> Dict[str, Any]:
        from repro.api import list_experiments

        params = self._query_params()
        experiment = params.get("experiment")
        if not experiment:
            raise _HTTPError(400, "the 'experiment' query parameter is required")
        if experiment not in list_experiments():
            raise _HTTPError(404, f"unknown experiment {experiment!r}")
        points = self.server.query.points(
            experiment=experiment,
            preset=params.get("preset"),
            policy=params.get("policy"),
            seed=self._int_param(params, "seed"),
        )
        return {
            "experiment": experiment,
            "count": len(points),
            "points": [point.to_json_dict() for point in points],
        }

    def _point(self, key: str) -> Tuple[Dict[str, Any], int]:
        params = self._query_params()
        key = key.rstrip("/")
        records = self.server.query.point(key)
        if not records:
            raise _HTTPError(404, f"no indexed records for grid point {key!r}")
        payload: Dict[str, Any] = {
            "point_key": key,
            "count": len(records),
            "records": [record.to_json_dict() for record in records],
        }
        confidence = self._float_param(params, "confidence")
        if confidence is not None:
            payload["ci_band"] = self.server.query.ci_band(key, confidence).to_json_dict()
        return payload, 200

    def _resolve_experiment(self, name: str, preset: str, seed: int) -> Any:
        from repro.api import get_experiment, list_experiments

        if name not in list_experiments():
            raise _HTTPError(404, f"unknown experiment {name!r}")
        return get_experiment(name, preset, seed)

    def _report(self, name: str) -> Tuple[Dict[str, Any], int]:
        params = self._query_params()
        name = name.rstrip("/")
        preset = params.get("preset", "fast")
        seed = self._int_param(params, "seed")
        seed = seed if seed is not None else _default_seed()
        count = self._int_param(params, "seeds")
        if count is not None and count < 1:
            raise _HTTPError(400, f"query parameter seeds={count} must be at least 1")
        confidence = self._float_param(params, "confidence")
        experiment = self._resolve_experiment(name, preset, seed)

        # A fresh store per request, so records appended since start-up are
        # served.
        store = ResultsStore(self.server.store_root)
        shards = len(store.shard_files())
        if count is not None and count > max(shards, 1):
            # Every stored seed has at least one shard, so this count can
            # never be served; refused before count x cells are expanded.
            return (
                {
                    "error": f"query parameter seeds={count} asks for more seeds than "
                    f"the store can hold: each seed needs a shard file and it has "
                    f"{shards}; compute them with "
                    f"repro run NAME --preset P --seeds N --cache-dir DIR",
                    "experiment": name,
                    "preset": preset,
                    "missing": None,
                },
                409,
            )
        seeds = seed_range(seed, count) if count is not None and count > 1 else None
        cells = experiment.cells(seeds)
        report: Dict[str, CellResult] = {}
        missing: List[str] = []
        for cell in cells:
            record = store.get(cell.fingerprint())
            if record is None:
                missing.append(cell.key)
                continue
            report[cell.key] = CellResult.from_json_dict(
                cell.key, cell.fingerprint(), record["result"]
            )
        if missing:
            return (
                {
                    "error": f"store is missing {len(missing)} of {len(cells)} cells "
                    f"for {name!r} (preset {preset!r}); compute them with "
                    f"repro run NAME --preset P --cache-dir DIR",
                    "experiment": name,
                    "preset": preset,
                    "missing": missing,
                },
                409,
            )
        result = experiment.assemble(experiment_view(report, cells, confidence))
        return (
            {
                "experiment": name,
                "preset": preset,
                "seed": seed,
                "seeds": list(seeds) if seeds is not None else [seed],
                "confidence": confidence,
                "report": result.to_text(),
            },
            200,
        )


def _default_seed() -> int:
    from repro.api import DEFAULT_SEED

    return int(DEFAULT_SEED)


def create_server(
    store_root: Union[str, Path],
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    quiet: bool = False,
) -> ResultsServer:
    """A ready-to-run server over ``store_root`` (``port=0`` picks a free one).

    Builds the query's label map before binding, so the first request is
    answered without expanding the registered grids.
    """
    query = StoreQuery(store_root)
    return ResultsServer((host, port), query, quiet=quiet)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ResultsServer",
    "create_server",
]

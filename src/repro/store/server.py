"""``repro serve`` — a read-only JSON HTTP API over an indexed results store.

The server is deliberately stdlib-only: a
:class:`http.server.ThreadingHTTPServer` whose handler answers every request
from the sqlite index through per-thread read-only connections
(:class:`~repro.store.query.StoreQuery`), so no request ever takes a lock on
the store and a sweep can keep appending while the server runs.  Endpoints:

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
``POST /enqueue``                 diff an experiment grid against the store and
                                  append the missing cells to a pending-cells
                                  file a worker fleet can drain
================================  ==============================================

``POST /enqueue`` writes ``pending_cells.jsonl`` at the store root — one JSON
line per missing cell (``cell_key``, ``fingerprint``, ``experiment``,
``preset``, ``seed``, full ``config``), deduplicated by fingerprint under a
process-wide lock.  It is the hand-off point for the distributed backend the
roadmap schedules against: this server names the work, it never executes it.

See ``docs/serving.md`` for the index schema and worked examples.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlparse

from repro.exceptions import ConfigurationError, ReproError
from repro.runner.cells import CellResult, SCHEMA_VERSION
from repro.runner.grid import seed_range
from repro.runner.store import ResultsStore
from repro.store.query import StoreQuery

#: File at the store root collecting cells enqueued via ``POST /enqueue``.
PENDING_FILENAME = "pending_cells.jsonl"

#: Loopback by default: the server is an internal results surface, not an
#: internet-facing service; bind wider interfaces explicitly.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

_ENDPOINTS = {
    "GET /experiments": "registered experiments plus the indexed label summary",
    "GET /points?experiment=NAME": "grid-point records (preset=, seed=, policy= filters)",
    "GET /point/<point-key>": "per-seed records of one point (confidence= adds a CI band)",
    "GET /report/<experiment>": "rendered report from cache (preset=, seed=, seeds=, confidence=)",
    "POST /enqueue": "append an experiment's missing cells to the pending-cells file",
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
        self.pending_path = query.store_root / PENDING_FILENAME
        self.pending_lock = threading.Lock()
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
    def _int_field(body: Dict[str, Any], name: str, default: int) -> int:
        """``body[name]`` as an int (``default`` when absent), else a 400."""
        value = body.get(name, default)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise _HTTPError(400, f"JSON field {name}={value!r} is not an integer") from None

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

    def do_POST(self) -> None:  # noqa: N802 - http.server spelling
        try:
            if urlparse(self.path).path.rstrip("/") != "/enqueue":
                raise _HTTPError(404, f"unknown endpoint {self.path!r}")
            payload, status = self._enqueue()
        except _HTTPError as exc:
            payload, status = {"error": str(exc)}, exc.status
        except ConfigurationError as exc:
            payload, status = {"error": str(exc)}, 400
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
        # Labels always come from the registry, but index the leftovers
        # defensively (e.g. an index built by a newer registry).
        for name in sorted(indexed):
            experiments.append(
                {"experiment": name, "description": None, "indexed": indexed[name]}
            )
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
        confidence = self._float_param(params, "confidence")
        experiment = self._resolve_experiment(name, preset, seed)
        seeds = seed_range(seed, count) if count is not None and count > 1 else None
        cells = experiment.cells(seeds)

        # A fresh store per request: records appended since the index was
        # built are still served (the JSONL files are the truth; the index
        # is only used to *find* work, never to render a report).
        store = ResultsStore(self.server.store_root)
        report: Dict[str, CellResult] = {}
        missing: List[str] = []
        for cell in cells:
            record = store.get(cell.fingerprint(), kind="cell")
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
                    f"for {name!r} (preset {preset!r}); enqueue them via POST /enqueue",
                    "experiment": name,
                    "preset": preset,
                    "missing": missing,
                },
                409,
            )
        result = experiment.assemble(report, seeds=seeds, confidence=confidence)
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

    def _enqueue(self) -> Tuple[Dict[str, Any], int]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            raise _HTTPError(
                400, f"Content-Length header {header!r} is not a non-negative integer"
            )
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise _HTTPError(400, "request body is not valid JSON") from None
        if isinstance(body, dict) and "cells" in body:
            return self._enqueue_cells(body)
        if not isinstance(body, dict) or not body.get("experiment"):
            raise _HTTPError(
                400, "JSON body with an 'experiment' or 'cells' field is required"
            )
        name = str(body["experiment"])
        preset = str(body.get("preset", "fast"))
        seed = self._int_field(body, "seed", _default_seed())
        count = self._int_field(body, "seeds", 1)
        experiment = self._resolve_experiment(name, preset, seed)
        seeds = seed_range(seed, count) if count > 1 else None
        cells = experiment.cells(seeds)
        missing = self.server.query.missing_cells(cells)

        enqueued = 0
        already_pending = 0
        with self.server.pending_lock:
            pending = _pending_fingerprints(self.server.pending_path)
            lines = []
            for cell in missing:
                fingerprint = cell.fingerprint()
                if fingerprint in pending:
                    already_pending += 1
                    continue
                pending.add(fingerprint)
                lines.append(
                    json.dumps(
                        {
                            "schema": SCHEMA_VERSION,
                            "cell_key": cell.key,
                            "fingerprint": fingerprint,
                            "experiment": name,
                            "preset": preset,
                            "seed": cell.seed,
                            "config": cell.config_dict(),
                        },
                        sort_keys=True,
                    )
                )
                enqueued += 1
            if lines:
                with self.server.pending_path.open("a", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
        return (
            {
                "experiment": name,
                "preset": preset,
                "requested": len(cells),
                "cached": len(cells) - len(missing),
                "enqueued": enqueued,
                "already_pending": already_pending,
                "pending_file": str(self.server.pending_path),
            },
            200,
        )

    def _enqueue_cells(self, body: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
        """``POST /enqueue`` with explicit cell payloads.

        Each entry must carry ``cell_key``, ``fingerprint`` and ``config``,
        and the fingerprint must hash from the config *exactly* — a payload
        whose claimed fingerprint does not match is rejected with 400 naming
        the mismatch, because accepting it would let a tampered (or stale)
        client alias a record onto the wrong cache key when the queue is
        drained.
        """
        from repro.runner.backends.codec import verify_fingerprint

        cells = body.get("cells")
        if not isinstance(cells, list) or not cells:
            raise _HTTPError(400, "'cells' must be a non-empty list of objects")
        entries: List[Dict[str, Any]] = []
        for position, payload in enumerate(cells):
            if not isinstance(payload, dict) or not all(
                key in payload for key in ("cell_key", "fingerprint", "config")
            ):
                raise _HTTPError(
                    400,
                    f"cells[{position}] needs cell_key, fingerprint and "
                    f"config fields",
                )
            try:
                verify_fingerprint(
                    str(payload["cell_key"]),
                    payload["config"],
                    str(payload["fingerprint"]),
                )
            except ConfigurationError as exc:
                raise _HTTPError(400, f"cells[{position}]: {exc}") from None
            entries.append(payload)

        store = ResultsStore(self.server.store_root)
        enqueued = 0
        already_pending = 0
        cached = 0
        with self.server.pending_lock:
            pending = _pending_fingerprints(self.server.pending_path)
            lines = []
            for payload in entries:
                fingerprint = str(payload["fingerprint"])
                if store.get(fingerprint) is not None:
                    cached += 1
                    continue
                if fingerprint in pending:
                    already_pending += 1
                    continue
                pending.add(fingerprint)
                lines.append(
                    json.dumps(
                        {
                            "schema": SCHEMA_VERSION,
                            "cell_key": str(payload["cell_key"]),
                            "fingerprint": fingerprint,
                            "config": payload["config"],
                        },
                        sort_keys=True,
                    )
                )
                enqueued += 1
            if lines:
                with self.server.pending_path.open("a", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
        return (
            {
                "requested": len(entries),
                "cached": cached,
                "enqueued": enqueued,
                "already_pending": already_pending,
                "pending_file": str(self.server.pending_path),
            },
            200,
        )


def _default_seed() -> int:
    from repro.api import DEFAULT_SEED

    return int(DEFAULT_SEED)


def _pending_fingerprints(path: Path) -> set:
    """Fingerprints already named in the pending-cells file."""
    fingerprints: set = set()
    if not path.exists():
        return fingerprints
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and isinstance(record.get("fingerprint"), str):
            fingerprints.add(record["fingerprint"])
    return fingerprints


def create_server(
    store_root: Union[str, Path],
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    index_path: Optional[Union[str, Path]] = None,
    quiet: bool = False,
) -> ResultsServer:
    """A ready-to-run server over ``store_root`` (``port=0`` picks a free one).

    Raises :class:`~repro.exceptions.ConfigurationError` when the store has
    no index yet — build one with ``repro cache index`` first (the CLI's
    ``repro serve`` does this automatically).
    """
    query = StoreQuery(store_root, index_path=index_path)
    return ResultsServer((host, port), query, quiet=quiet)


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PENDING_FILENAME",
    "ResultsServer",
    "create_server",
]

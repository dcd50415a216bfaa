"""The queryable side of the results store: sqlite index, queries, serving.

The sharded JSON-lines :class:`~repro.runner.store.ResultsStore` is the
append-optimised *write* side of the results pipeline.  This package is the
*read* side:

* :class:`~repro.store.index.StoreIndex` — builds/refreshes ``index.sqlite``
  at the store root (``repro cache index``; ``repro cache compact`` refreshes
  an existing index automatically).  Incremental: unchanged shard files are
  never reopened.
* :class:`~repro.store.query.StoreQuery` — typed queries over the index:
  labelled grid points per experiment and per-point CI bands
  (byte-identical to ``repro sweep --ci`` output).
* :func:`~repro.store.server.create_server` /
  :class:`~repro.store.server.ResultsServer` — the ``repro serve`` JSON HTTP
  API over a store, including ``POST /enqueue``, which puts a grid's missing
  cells on the store's work queue for ``repro worker`` processes.

The sqlite file is always a cache of the JSONL truth: deleting it loses
nothing, and every refresh re-derives rows through the store's own parsing
contract.  See ``docs/serving.md``.
"""

from repro.store.index import (
    INDEX_FILENAME,
    INDEX_SCHEMA_VERSION,
    IndexStats,
    StoreIndex,
)
from repro.store.query import CIBand, PointRecord, StoreQuery
from repro.store.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ResultsServer,
    create_server,
)

__all__ = [
    "CIBand",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "INDEX_FILENAME",
    "INDEX_SCHEMA_VERSION",
    "IndexStats",
    "PointRecord",
    "ResultsServer",
    "StoreIndex",
    "StoreQuery",
    "create_server",
]

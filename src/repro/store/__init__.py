"""The queryable side of the results store: queries and serving.

The sharded JSON-lines :class:`~repro.runner.store.ResultsStore` is the
append-optimised *write* side of the results pipeline.  This package is the
*read* side:

* :class:`~repro.store.query.StoreQuery` — typed queries over the store:
  labelled grid points per experiment and per-point CI bands
  (byte-identical to ``repro sweep --ci`` output).  Its grid-point labels
  are built in memory once, at construction; every query reads the shards.
* :func:`~repro.store.server.create_server` /
  :class:`~repro.store.server.ResultsServer` — the ``repro serve`` read-only
  JSON HTTP API over a store.

See ``docs/serving.md``.
"""

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
    "PointRecord",
    "ResultsServer",
    "StoreQuery",
    "create_server",
]

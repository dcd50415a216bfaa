"""Persistent sweep results: a sharded, append-only JSON-lines store.

Layout: one JSON-lines file per fingerprint, sharded by the first two hex
characters of the fingerprint under the store's root directory::

    <root>/
    ├── ab/
    │   ├── abcd0…e1.jsonl     # every record ever written for this fingerprint
    │   └── ab9f3…77.jsonl
    └── c0/
        └── c04d1…38.jsonl

Each line is a self-contained record::

    {"schema": 1, "kind": "cell", "fingerprint": "<sha256>", "config": {...}, "result": {...}}

``fingerprint`` is the content hash of the cell configuration
(:meth:`repro.runner.cells.SweepCell.fingerprint`); ``config`` is the full
configuration dict kept alongside for auditability (a record can be traced
back to its scenario without the code that produced it); ``result`` is the
:meth:`repro.runner.cells.CellResult.to_json_dict` payload.  Only cell
records are written.  Stores from earlier releases may also hold shared
gateway captures (``"kind": "capture"``): :meth:`~ResultsStore.get` never
serves one, :meth:`~ResultsStore.stats` counts them and
:meth:`~ResultsStore.compact` keeps them.  A record without ``kind`` counts
as a cell.

Sharding keeps lookups O(1) file reads — a warm sweep never loads the whole
store — and keeps any one directory small enough for ordinary tooling once
stores grow to many thousands of records.  :meth:`compact` drops superseded
duplicate records.  A :class:`ResultsStore` instance holds no records in
memory: every :meth:`~ResultsStore.get` reads its shard.

The format is deliberately boring: an append is one ``write`` call of the
record's line (finished by further calls only after a short write), a
half-written last line (from a killed run) is skipped on load, duplicate
fingerprints resolve to the *last* record, and the files diff/merge cleanly
enough to commit a small fixture store for CI warm-cache runs.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.runner.cells import SCHEMA_VERSION

#: Fingerprints become file names; restrict them to boring hash-like tokens.
_FINGERPRINT_RE = re.compile(r"[0-9a-zA-Z]{3,128}")


def _append(path: Path, line: bytes) -> None:
    """Append ``line`` to ``path`` in one ``write`` call, more only after a short write."""
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        # First record of this shard directory (or the directory was
        # removed since): create it once instead of before every put.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(line)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _sorted_entries(path: Union[str, Path]) -> List[os.DirEntry]:
    """The entries of directory ``path``, sorted by name (``sorted`` exhausts
    the iterator, which closes it)."""
    return sorted(os.scandir(path), key=lambda entry: entry.name)


@dataclass(frozen=True)
class StoreStats:
    """Health snapshot of a results store (``repro cache stats``).

    ``records`` counts winning records (one per fingerprint); ``cells`` /
    ``captures`` split them by record kind (only earlier releases wrote
    capture records).  ``superseded`` counts lines shadowed by a newer
    record for the same fingerprint — the waste a
    compaction targets, though :meth:`ResultsStore.compact` deliberately
    leaves files it cannot fully interpret (foreign-schema or truncated
    lines) untouched, so the counter can stay non-zero after compacting.
    ``schema_versions`` lists every ``schema`` value present, including
    versions this code cannot read — a store carrying foreign versions after
    an upgrade/rollback is worth noticing in nightly-sweep logs.
    """

    records: int
    cells: int
    captures: int
    shard_files: int
    superseded: int
    total_bytes: int
    #: Every distinct ``schema`` value found, foreign types included (a
    #: record written by another tool may carry a string or float version).
    schema_versions: Tuple[Any, ...]

    def __str__(self) -> str:
        versions = ", ".join(str(v) for v in self.schema_versions) or "(empty store)"
        return (
            f"{self.records} records ({self.cells} cells, {self.captures} captures), "
            f"{self.shard_files} shard files, {self.superseded} superseded duplicates, "
            f"{self.total_bytes} bytes, schema versions: {versions}"
        )


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of :meth:`ResultsStore.compact`."""

    records_kept: int
    superseded_dropped: int

    def __str__(self) -> str:
        return (
            f"{self.records_kept} records kept, "
            f"{self.superseded_dropped} superseded duplicates dropped"
        )


class ResultsStore:
    """A directory-backed cache of cell results, keyed by config fingerprint."""

    def __init__(self, root: Union[str, Path]) -> None:
        self._root = Path(root)
        if self._root.exists() and not self._root.is_dir():
            raise ConfigurationError(
                f"results store root {str(self._root)!r} exists and is not a directory"
            )
        # Pre-sharding releases kept every record in one flat file at the
        # root.  Nothing here reads it, so such a store would look empty and
        # every cell would silently be recomputed; refuse it instead.
        flat = self._root / "results.jsonl"
        if flat.exists():
            raise ConfigurationError(
                f"{str(flat)!r} is a flat store file from a pre-sharding release; "
                f"convert it into shards with 'repro cache compact' from an earlier "
                f"release that still reads that layout"
            )

    # ----------------------------------------------------------------- layout
    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    def shard_path(self, fingerprint: str) -> Path:
        """The shard file holding every record for ``fingerprint``."""
        self._check_fingerprint(fingerprint)
        return self._root / fingerprint[:2] / f"{fingerprint}.jsonl"

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> None:
        if not isinstance(fingerprint, str) or not _FINGERPRINT_RE.fullmatch(fingerprint):
            raise ConfigurationError(
                f"fingerprint {fingerprint!r} is not a hash-like token"
            )

    # ---------------------------------------------------------------- records
    @staticmethod
    def _raw_records(path: Path) -> List[Dict[str, Any]]:
        """Every parseable JSON record in ``path`` with a string ``fingerprint``.

        Blank lines and truncated final lines (killed writers) are skipped;
        complete records before them are still usable.  Foreign-schema
        records are kept, so :meth:`stats` can report versions this code
        cannot serve.
        """
        records: List[Dict[str, Any]] = []
        if not path.exists():
            return records
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and isinstance(record.get("fingerprint"), str):
                records.append(record)
        return records

    @classmethod
    def read_records(cls, path: Path) -> List[Dict[str, Any]]:
        """Every valid record in ``path``, in file order.

        The parseable records of :meth:`_raw_records` that carry this code's
        schema version and a dict ``result``.  This is the one parsing
        contract shared by lookups, listings and compaction.
        """
        return [
            record
            for record in cls._raw_records(path)
            if record.get("schema") == SCHEMA_VERSION
            and isinstance(record.get("result"), dict)
        ]

    @classmethod
    def shard_winner(cls, path: Path) -> Optional[Dict[str, Any]]:
        """The last valid record in shard ``path`` for the fingerprint it is named after.

        Lines carrying any other fingerprint (a doctored or foreign-tool
        shard) are skipped, never served for an unrelated lookup.  Lookups
        and listings both resolve a shard through this rule.
        """
        records = [r for r in cls.read_records(path) if r["fingerprint"] == path.stem]
        return records[-1] if records else None

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cell record for ``fingerprint``, or ``None`` on a cache miss.

        Read from its shard on every call.  Within a shard the last valid
        record wins; a winner that is not a cell (a capture record from an
        earlier release) is a miss, never a fallback to an older cell record
        of the same shard.
        """
        try:
            record = self.shard_winner(self.shard_path(fingerprint))
        except ConfigurationError:
            return None  # not a hash-like token, so never stored
        if record is None or record.get("kind", "cell") != "cell":
            return None
        return record

    def put(self, fingerprint: str, config: Dict[str, Any], result: Dict[str, Any]) -> None:
        """Append one cell record to its shard file.

        The line is ``json.dumps(record, sort_keys=True) + "\\n"``.
        """
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "cell",
            "fingerprint": fingerprint,
            "config": config,
            "result": result,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        _append(self.shard_path(fingerprint), line.encode("utf-8"))

    # ------------------------------------------------------------- compaction
    def shard_files(self) -> List[Path]:
        """Every shard file in the store, in sorted (deterministic) order.

        Public for read-side tooling — compaction, ``repro cache stats``,
        :class:`~repro.store.query.StoreQuery` and ``repro serve`` all walk
        the same listing: every ``*.jsonl`` file in a directory with a
        two-character name at the root.  Each ``DirEntry`` knows its own
        type, so the walk stats no shard (symbolic links are followed, as by
        ``Path.is_file``).
        """
        if not self._root.is_dir():
            return []
        shards: List[Path] = []
        for directory in _sorted_entries(self._root):
            if len(directory.name) == 2 and directory.is_dir():
                shards.extend(
                    Path(entry.path)
                    for entry in _sorted_entries(directory.path)
                    if entry.name.endswith(".jsonl") and entry.is_file()
                )
        return shards

    @staticmethod
    def _count_data_lines(path: Path) -> int:
        return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())

    def compact(self) -> CompactionStats:
        """Drop superseded duplicate records.

        Every shard file is rewritten to its last (winning) record.  The
        store's observable contents are unchanged — and so are records this
        code version cannot interpret: a file containing foreign-schema or
        partial lines (e.g. a store restored from a cache written by a
        different ``SCHEMA_VERSION``) is left exactly as it is, so a rollback
        still finds its data.
        """
        superseded = 0
        kept = 0
        for path in self.shard_files():
            records = self.read_records(path)
            if len(records) != self._count_data_lines(path):
                # Foreign-schema or truncated lines present: not ours to drop.
                kept += len({record["fingerprint"] for record in records})
                continue
            if not records:
                path.unlink()
                continue
            last_by_fingerprint: Dict[str, Dict[str, Any]] = {}
            for record in records:
                last_by_fingerprint[record["fingerprint"]] = record
            superseded += len(records) - len(last_by_fingerprint)
            kept += len(last_by_fingerprint)
            if len(records) != len(last_by_fingerprint):
                lines = [
                    json.dumps(record, sort_keys=True)
                    for record in last_by_fingerprint.values()
                ]
                # Rewrite atomically: a crash mid-compaction must never turn a
                # cached fingerprint into a miss (the store's crash-tolerance
                # contract covers compaction too).
                scratch = path.with_suffix(".jsonl.tmp")
                scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
                os.replace(scratch, path)
        return CompactionStats(records_kept=kept, superseded_dropped=superseded)

    # ------------------------------------------------------------------ stats
    def stats(self) -> StoreStats:
        """Aggregate store-health counters (see :class:`StoreStats`).

        Reads every file once; intended for maintenance commands and
        nightly-sweep logs, not the warm-sweep hot path.
        """
        shard_files = self.shard_files()
        winners: Dict[str, Dict[str, Any]] = {}
        superseded = 0
        total_bytes = 0
        schema_versions: set = set()
        for path in shard_files:
            total_bytes += path.stat().st_size
            records = self._raw_records(path)
            last: Dict[str, Dict[str, Any]] = {}
            for record in records:
                schema_versions.add(record.get("schema"))
                last[record["fingerprint"]] = record
            superseded += len(records) - len(last)
            winners.update(last)
        cells = sum(1 for r in winners.values() if r.get("kind", "cell") == "cell")
        captures = sum(1 for r in winners.values() if r.get("kind") == "capture")
        return StoreStats(
            records=len(winners),
            cells=cells,
            captures=captures,
            shard_files=len(shard_files),
            superseded=superseded,
            total_bytes=total_bytes,
            schema_versions=tuple(
                sorted((v for v in schema_versions if v is not None), key=str)
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultsStore(root={str(self._root)!r})"


__all__ = ["CompactionStats", "ResultsStore", "StoreStats"]

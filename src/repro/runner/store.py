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

``fingerprint`` is the content hash of the cell (or capture) configuration
(:meth:`repro.runner.cells.SweepCell.fingerprint`); ``config`` is the full
configuration dict kept alongside for auditability (a record can be traced
back to its scenario without the code that produced it); ``result`` is the
:meth:`repro.runner.cells.CellResult.to_json_dict` (or
:meth:`repro.runner.capture.CaptureResult.to_json_dict`) payload; ``kind``
distinguishes ordinary sweep cells from shared gateway captures (a record
without one counts as a cell).  A capture record's ``result`` holds each
interval array as one base64 string of its little-endian float64 bytes::

    {"schema": 1, "kind": "capture", ..., "result": {"intervals": {"train": {"low": "AAAA…", ...}}, ...}}

Capture records written as lists of floats by earlier releases are still
read; only :mod:`repro.runner.capture` knows either form.

Sharding keeps lookups O(1) file reads — a warm sweep never loads the whole
store — and keeps any one directory small enough for ordinary tooling once
stores grow to many thousands of records.  :meth:`compact` drops superseded
duplicate records.

A :class:`ResultsStore` instance keeps an in-memory index of every shard it
has parsed or written: the kind of its winning record and nothing else.  No
record payload is held there; :meth:`~ResultsStore.get` reads a record back
from its shard on every call, while existence checks (``in``,
:meth:`~ResultsStore.has`, :meth:`~ResultsStore.fingerprints`) answer from the
index, so each shard is parsed at most once for them.

The format is deliberately boring: an append is one ``writev`` call of the
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
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.runner.cells import SCHEMA_VERSION

#: Fingerprints become file names; restrict them to boring hash-like tokens.
_FINGERPRINT_RE = re.compile(r"[0-9a-zA-Z]{3,128}")

#: Strings ``json.dumps`` writes verbatim between quotes: printable ASCII
#: other than ``"`` and ``\``.
_VERBATIM_STRING_RE = re.compile(r'[ !#-\[\]-~]*')

#: A verbatim string at least this long (a capture's base64 intervals) is
#: appended from a buffer of its own instead of being copied into the line.
_OWN_BUFFER_CHARS = 1024

#: ``json.dumps(value, sort_keys=True)`` without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode

#: Buffers per ``writev`` call (``IOV_MAX`` on Linux and macOS).
_IOV_MAX = 1024


def _line_pieces(record: Dict[str, Any]) -> List[bytes]:
    """``json.dumps(record, sort_keys=True) + "\\n"``, encoded, as a list of buffers.

    Joining the pieces gives exactly that line.  Dicts with string keys are
    walked so that each long verbatim string becomes a buffer of its own,
    encoded once and never quoted, joined or newline-copied; every other
    value is serialised by ``json.dumps`` into the buffers between them, so
    a record without long verbatim strings is a single buffer.
    """
    pieces: List[bytes] = []
    text: List[str] = []
    _emit(record, pieces, text)
    text.append("\n")
    pieces.append("".join(text).encode("ascii"))
    return pieces


def _emit(value: Any, pieces: List[bytes], text: List[str]) -> None:
    """Serialise ``value`` onto ``text``, moving long verbatim strings to ``pieces``.

    A module-level function, not a closure: a recursive closure is a
    reference cycle, which would keep every buffer of a ``put`` alive until
    the cyclic garbage collector runs.
    """
    if (
        isinstance(value, str)
        and len(value) >= _OWN_BUFFER_CHARS
        and _VERBATIM_STRING_RE.fullmatch(value)
    ):
        text.append('"')
        pieces.append("".join(text).encode("ascii"))
        pieces.append(value.encode("ascii"))
        text.clear()
        text.append('"')
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        text.append("{")
        for position, key in enumerate(sorted(value)):
            if position:
                text.append(", ")
            text.append(_encode(key))
            text.append(": ")
            _emit(value[key], pieces, text)
        text.append("}")
    else:
        text.append(_encode(value))


def _append(path: Path, pieces: List[bytes]) -> None:
    """Append ``pieces`` to ``path`` in one ``writev`` call.

    Further calls happen only to finish a short write or to pass more than
    ``_IOV_MAX`` buffers.
    """
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        # First record of this shard directory (or the directory was
        # removed since): create it once instead of before every put.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        buffers = [memoryview(piece) for piece in pieces]
        while buffers:
            written = os.writev(fd, buffers[:_IOV_MAX])
            while buffers and written >= len(buffers[0]):
                written -= len(buffers.pop(0))
            if written:
                buffers[0] = buffers[0][written:]
    finally:
        os.close(fd)


@dataclass(frozen=True)
class StoreStats:
    """Health snapshot of a results store (``repro cache stats``).

    ``records`` counts winning records (one per fingerprint); ``cells`` /
    ``captures`` split them by record kind.  ``superseded`` counts lines
    shadowed by a newer record for the same fingerprint — the waste a
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
        # fingerprint -> kind of its winning record; payloads stay on disk.
        self._index: Dict[str, str] = {}

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

    # ------------------------------------------------------------------ index
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

    def _remember(self, fingerprint: str, record: Dict[str, Any]) -> None:
        """Index ``record`` by its kind alone (a record without one is a cell)."""
        self._index[fingerprint] = record.get("kind", "cell")

    def _load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Parse the shard winner of ``fingerprint`` and index it; ``None`` if absent."""
        try:
            record = self.shard_winner(self.shard_path(fingerprint))
        except ConfigurationError:
            return None  # not a hash-like token, so never stored
        if record is not None:
            self._remember(fingerprint, record)
        return record

    def get(self, fingerprint: str, kind: str = "cell") -> Optional[Dict[str, Any]]:
        """The record for ``fingerprint``, or ``None`` on a cache miss.

        Within a shard the last record wins.  ``kind`` filters out records
        of the other record family (a record without ``kind`` counts as a
        cell).  The record is read from its shard on every call (see the
        module docstring) unless the index already knows the fingerprint is
        of another kind, so callers that only ask whether a record exists
        should use :meth:`has`.

        The kind filter applies *after* the winner is resolved: when a shard
        holds a winning record of the wrong ``kind``, the lookup returns
        ``None`` without falling back to an older same-kind record.  This is
        deliberate last-record-wins semantics: the newest record for a
        fingerprint is the truth about it, and a kind mismatch means the
        caller is asking for a record family that fingerprint no longer is
        (pinned by tests in ``tests/runner/test_store.py``).
        """
        indexed = self._index.get(fingerprint)
        if indexed is not None and indexed != kind:
            return None
        record = self._load(fingerprint)
        if record is None or record.get("kind", "cell") != kind:
            return None
        return record

    def has(self, fingerprint: str, kind: str = "cell") -> bool:
        """Whether a ``kind`` record is stored for ``fingerprint``.

        Answers from the in-memory index once the shard has been parsed, and
        keeps no record payload in memory.
        """
        if fingerprint not in self._index:
            self._load(fingerprint)
        return self._index.get(fingerprint) == kind

    def put(
        self,
        fingerprint: str,
        config: Dict[str, Any],
        result: Dict[str, Any],
        kind: str = "cell",
    ) -> None:
        """Append one record to its shard file and index its kind.

        The line is ``json.dumps(record, sort_keys=True) + "\\n"`` to the
        byte, written from its pieces (see :func:`_line_pieces`) so that a
        capture's payload is never copied into one whole line.
        """
        record = {
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "config": config,
            "result": result,
        }
        _append(self.shard_path(fingerprint), _line_pieces(record))
        self._remember(fingerprint, record)

    # ------------------------------------------------------------- compaction
    def shard_files(self) -> List[Path]:
        """Every shard file in the store, in sorted (deterministic) order.

        Public for read-side tooling — compaction, ``repro cache stats``,
        :class:`~repro.store.query.StoreQuery` and ``repro serve`` all walk
        the same listing.
        """
        if not self._root.is_dir():
            return []
        return sorted(
            path
            for path in self._root.glob("??/*.jsonl")
            if path.is_file()
        )

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

    # -------------------------------------------------------------- protocols
    def fingerprints(self) -> Iterator[str]:
        """All cached fingerprints, in shard path order.

        Each shard is parsed at most once per store instance (the kind of its
        winner is indexed), so repeated listings of a large
        store cost one directory scan plus dictionary lookups.
        """
        seen: List[str] = []
        seen_set = set()
        for path in self.shard_files():
            fingerprint = path.stem
            if fingerprint in seen_set:
                continue
            if fingerprint not in self._index:
                record = self.shard_winner(path)
                if record is None:
                    continue
                self._remember(fingerprint, record)
            seen.append(fingerprint)
            seen_set.add(fingerprint)
        return iter(seen)

    def __contains__(self, fingerprint: str) -> bool:
        return self.has(fingerprint, kind="cell") or self.has(fingerprint, kind="capture")

    def __len__(self) -> int:
        return sum(1 for _ in self.fingerprints())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ResultsStore(root={str(self._root)!r}, records={len(self)})"


__all__ = ["CompactionStats", "ResultsStore", "StoreStats"]

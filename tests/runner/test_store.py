"""Tests for the sharded JSON-lines results store."""

from __future__ import annotations

import gc
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.api import DEFAULT_SEED, get_experiment
from repro.exceptions import ConfigurationError
from repro.runner import SCHEMA_VERSION, ResultsStore, SweepRunner


@pytest.fixture
def store(tmp_path):
    return ResultsStore(tmp_path / "cache")


RESULT = {"empirical_detection_rate": {"variance": {"50": 0.9}}, "measured_variance_ratio": 1.5}


def raw_record(fingerprint, result, schema=SCHEMA_VERSION):
    return json.dumps(
        {"schema": schema, "fingerprint": fingerprint, "config": {}, "result": result}
    )


class TestResultsStore:
    def test_miss_returns_none(self, store):
        assert store.get("deadbeef") is None
        assert store.stats().records == 0

    def test_put_then_get(self, store):
        store.put("abc", {"seed": 1}, RESULT)
        record = store.get("abc")
        assert record["result"] == RESULT
        assert record["config"] == {"seed": 1}
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "cell"

    def test_persists_across_instances(self, store):
        store.put("abc", {}, RESULT)
        reopened = ResultsStore(store.root)
        assert reopened.get("abc")["result"] == RESULT

    def test_layout_is_sharded_by_fingerprint_prefix(self, store):
        store.put("abcd01", {}, RESULT)
        store.put("abff02", {}, RESULT)
        store.put("c0ffee", {}, RESULT)
        assert store.shard_path("abcd01") == store.root / "ab" / "abcd01.jsonl"
        assert store.shard_path("abcd01").is_file()
        assert store.shard_path("abff02").is_file()
        assert (store.root / "c0" / "c0ffee.jsonl").is_file()
        record = json.loads(store.shard_path("abcd01").read_text())
        assert record["schema"] == SCHEMA_VERSION
        assert record["kind"] == "cell"

    def test_shard_listing_is_the_glob_rule(self, store):
        """The listing is ``sorted(p for p in root.glob("??/*.jsonl") if
        p.is_file())``, stray files and shard-named directories included."""
        for fingerprint in ("c0ffee", "abff02", "abcd01", "ab0003", "ffee04"):
            store.put(fingerprint, {}, RESULT)
        root = store.root
        (root / "ab" / "notes.txt").write_text("stray\n")
        (root / "ab" / "abdir5.jsonl").mkdir()  # a directory named like a shard
        (root / "ab" / ".hidden.jsonl").write_text("\n")
        (root / "zz").write_text("a file named like a shard directory\n")
        (root / "abc").mkdir()
        (root / "abc" / "abc006.jsonl").write_text("\n")  # three-letter directory
        (root / "stray.jsonl").write_text("\n")
        (root / ".q").mkdir()
        (root / ".q" / "q00007.jsonl").write_text("\n")  # a hidden two-letter directory
        expected = sorted(path for path in root.glob("??/*.jsonl") if path.is_file())
        assert store.shard_files() == expected
        assert expected[:3] == [
            root / ".q" / "q00007.jsonl",
            root / "ab" / ".hidden.jsonl",
            root / "ab" / "ab0003.jsonl",
        ]
        assert len(expected) == 7

    def test_shard_listing_of_a_relative_root_matches_the_glob_rule(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        store = ResultsStore(".")
        store.put("abcd01", {}, RESULT)
        listing = store.shard_files()
        assert listing == sorted(p for p in Path(".").glob("??/*.jsonl") if p.is_file())
        assert listing == [Path("ab/abcd01.jsonl")]

    def test_put_recreates_a_shard_directory_deleted_between_puts(self, store):
        store.put("abcd01", {}, RESULT)
        shutil.rmtree(store.root / "ab")
        store.put("abff02", {"seed": 2}, RESULT)
        assert store.shard_path("abff02").is_file()
        reopened = ResultsStore(store.root)
        assert reopened.get("abff02")["config"] == {"seed": 2}
        assert reopened.get("abcd01") is None

    def test_put_creates_a_missing_store_root(self, tmp_path):
        store = ResultsStore(tmp_path / "absent" / "cache")
        assert not (tmp_path / "absent").exists()
        store.put("abcd01", {}, RESULT)
        assert ResultsStore(store.root).get("abcd01")["result"] == RESULT

    def test_lookup_reads_only_one_shard(self, store):
        """Point lookups never load the whole store (the sharding payoff)."""
        store.put("abcd01", {}, RESULT)
        store.put("c0ffee", {}, RESULT)
        fresh = ResultsStore(store.root)
        # Corrupt an unrelated shard: the lookup must not even parse it.
        store.shard_path("c0ffee").write_text("not json at all")
        assert fresh.get("abcd01")["result"] == RESULT

    def test_last_record_wins_on_duplicate_fingerprints(self, store):
        store.put("abc", {}, {"measured_variance_ratio": 1.0})
        store.put("abc", {}, {"measured_variance_ratio": 2.0})
        reopened = ResultsStore(store.root)
        assert reopened.get("abc")["result"]["measured_variance_ratio"] == 2.0
        assert len(store.shard_path("abc").read_text().splitlines()) == 2

    def test_truncated_final_line_is_skipped(self, store):
        store.put("abc", {}, RESULT)
        with store.shard_path("abc").open("a") as handle:
            handle.write('{"schema": 1, "fingerprint": "abc", "resu')  # killed mid-write
        reopened = ResultsStore(store.root)
        assert reopened.get("abc")["result"] == RESULT

    def test_foreign_schema_records_are_ignored(self, store):
        path = store.shard_path("xyz9")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(raw_record("xyz9", RESULT, schema=SCHEMA_VERSION + 1) + "\n")
        assert store.get("xyz9") is None

    def test_capture_records_are_never_served(self, store, put_capture_record):
        put_capture_record(store, "abc", {}, RESULT)
        assert store.get("abc") is None
        assert ResultsStore.shard_winner(store.shard_path("abc"))["kind"] == "capture"

    def test_rejects_pathological_fingerprints_on_put(self, store):
        for bad in ("", "ab", "a/../b", "a b"):
            with pytest.raises(ConfigurationError):
                store.put(bad, {}, RESULT)

    @pytest.mark.parametrize(
        "token, valid",
        [
            ("", False),
            ("ab", False),
            ("a/../b", False),
            ("a b", False),
            ("ab.c", False),
            ("x" * 129, False),
            ("...", False),
            ("abc\n", False),
            ("ab_c", False),
            ("ab-c", False),
            ("abc/", False),
            ("\u00e9\u00e9\u00e9", False),
            ("\uff11\uff12\uff13", False),
            ("abc", True),
            ("A1b2C3", True),
            ("000", True),
            ("f" * 128, True),
        ],
    )
    def test_only_hashlike_tokens_become_shard_paths(self, store, token, valid):
        """Fingerprints become file names: 3-128 ASCII letters and digits."""
        if valid:
            assert store.shard_path(token).name == f"{token}.jsonl"
        else:
            with pytest.raises(ConfigurationError):
                store.shard_path(token)

    @pytest.mark.parametrize("token", [None, 123, b"abc"], ids=["none", "int", "bytes"])
    def test_non_string_fingerprints_are_refused(self, store, token):
        with pytest.raises(ConfigurationError):
            store.shard_path(token)

    def test_root_that_is_a_file_is_rejected(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.touch()
        with pytest.raises(ConfigurationError) as excinfo:
            ResultsStore(target)
        assert "not a directory" in str(excinfo.value)

    def test_directory_created_lazily_on_first_put(self, tmp_path):
        store = ResultsStore(tmp_path / "nested" / "cache")
        assert not store.root.exists()  # reads never create the directory
        store.put("abc", {}, RESULT)
        assert store.shard_path("abc").exists()

    def test_pre_sharding_flat_file_is_refused(self, tmp_path):
        """An old flat store must fail loudly, never read as an empty cache."""
        root = tmp_path / "cache"
        root.mkdir()
        flat = root / "results.jsonl"
        flat.write_text(raw_record("abc", RESULT) + "\n")
        with pytest.raises(ConfigurationError) as excinfo:
            ResultsStore(root)
        message = str(excinfo.value)
        assert str(flat) in message
        assert "repro cache compact" in message


class TestCompaction:
    def test_compact_drops_superseded_shard_records(self, store):
        store.put("abc", {}, {"measured_variance_ratio": 1.0})
        store.put("abc", {}, {"measured_variance_ratio": 2.0})
        stats = store.compact()
        assert stats.superseded_dropped == 1
        assert len(store.shard_path("abc").read_text().splitlines()) == 1
        assert ResultsStore(store.root).get("abc")["result"]["measured_variance_ratio"] == 2.0

    def test_compact_on_empty_store_is_a_noop(self, store):
        stats = store.compact()
        assert (stats.records_kept, stats.superseded_dropped) == (0, 0)

    def test_compact_leaves_foreign_schema_shards_untouched(self, store):
        """A store written by a different SCHEMA_VERSION is not ours to drop."""
        foreign = store.shard_path("abc123")
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign_line = raw_record("abc123", RESULT, schema=SCHEMA_VERSION + 1) + "\n"
        foreign.write_text(foreign_line)
        store.put("abc456", {}, RESULT)
        store.put("abc456", {}, RESULT)
        stats = store.compact()
        assert foreign.read_text() == foreign_line  # byte-identical
        assert (stats.records_kept, stats.superseded_dropped) == (1, 1)
        assert ResultsStore(store.root).get("abc456")["result"] == RESULT

    def test_compact_preserves_capture_kind(self, store, put_capture_record):
        put_capture_record(store, "abc", {}, RESULT)
        put_capture_record(store, "abc", {}, RESULT)
        store.compact()
        assert len(store.shard_path("abc").read_text().splitlines()) == 1
        assert ResultsStore.shard_winner(store.shard_path("abc"))["kind"] == "capture"
        assert ResultsStore(store.root).get("abc") is None


class TestStoreStats:
    """``ResultsStore.stats()`` — the counters behind ``repro cache stats``."""

    def test_empty_store(self, store):
        stats = store.stats()
        assert (stats.records, stats.shard_files) == (0, 0)
        assert stats.total_bytes == 0
        assert stats.schema_versions == ()
        assert "(empty store)" in str(stats)

    def test_counts_winners_kinds_and_superseded(self, store, put_capture_record):
        store.put("aaa1", {}, RESULT)
        store.put("aaa1", {}, RESULT)  # superseded duplicate in the same shard
        put_capture_record(store, "bbb2", {}, RESULT)
        stats = store.stats()
        assert stats.records == 2
        assert (stats.cells, stats.captures) == (1, 1)
        assert stats.shard_files == 2
        assert stats.superseded == 1
        assert stats.total_bytes > 0
        assert stats.schema_versions == (SCHEMA_VERSION,)

    def test_reports_foreign_schema_versions(self, store):
        """Stats must surface versions this code cannot serve (get() skips them)."""
        store.put("aaa1", {}, RESULT)
        foreign = store.shard_path("ccc3")
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign.write_text(raw_record("ccc3", RESULT, schema=SCHEMA_VERSION + 1) + "\n")
        stats = store.stats()
        assert stats.schema_versions == (SCHEMA_VERSION, SCHEMA_VERSION + 1)
        assert str(SCHEMA_VERSION + 1) in str(stats)

    def test_reports_non_integer_schema_versions(self, store):
        """Foreign tools may write string/float versions; they must not vanish."""
        store.put("aaa1", {}, RESULT)
        foreign = store.shard_path("ddd4")
        foreign.parent.mkdir(parents=True, exist_ok=True)
        foreign.write_text(raw_record("ddd4", RESULT, schema="2.experimental") + "\n")
        stats = store.stats()
        assert set(stats.schema_versions) == {SCHEMA_VERSION, "2.experimental"}
        assert "2.experimental" in str(stats)


class TestDoctoredShards:
    """Hardening: hand-edited or foreign-tool shard lines must degrade to skips."""

    def test_shard_winner_is_the_last_line_named_after_the_shard(self, store):
        path = store.shard_path("abcd01")
        assert ResultsStore.shard_winner(path) is None  # no file yet
        store.put("abcd01", {}, {"x": 1})
        store.put("abcd01", {}, {"x": 2})
        with path.open("a", encoding="utf-8") as handle:
            handle.write(raw_record("abcd02", {"x": 3}) + "\n")  # stray line
        assert ResultsStore.shard_winner(path)["result"] == {"x": 2}

    def test_record_without_fingerprint_does_not_break_the_lookup(self, store):
        store.put("abcd01", {"seed": 1}, RESULT)
        doctored = json.dumps(
            {"schema": SCHEMA_VERSION, "kind": "cell", "config": {}, "result": {"x": 1}}
        )
        with store.shard_path("abcd01").open("a", encoding="utf-8") as handle:
            handle.write(doctored + "\n")
        reopened = ResultsStore(store.root)
        # The keyless line is skipped; the good record still wins — no KeyError.
        assert reopened.get("abcd01")["result"] == RESULT
        assert reopened.stats().records == 1

    def test_non_string_fingerprint_is_skipped(self, store):
        store.put("abcd01", {}, RESULT)
        doctored = json.dumps(
            {"schema": SCHEMA_VERSION, "fingerprint": 12345, "config": {}, "result": {"x": 1}}
        )
        with store.shard_path("abcd01").open("a", encoding="utf-8") as handle:
            handle.write(doctored + "\n")
        assert ResultsStore(store.root).get("abcd01")["result"] == RESULT


class TestKindFilterPrecedence:
    """Pin the audited kind-filter semantics: precedence first, kind second.

    The winning record (the last line in a shard) is the truth about a
    fingerprint; a winner that is not a cell is a miss, never a fallback to
    an older cell record.
    """

    def test_wrong_kind_shard_winner_hides_an_older_shard_record(
        self, store, put_capture_record
    ):
        store.put("abc", {}, RESULT)
        put_capture_record(store, "abc", {}, RESULT)  # last record wins
        assert ResultsStore(store.root).get("abc") is None


class TestLookups:
    """A store holds no records in memory: every lookup reads its shard."""

    def test_cells_are_read_from_their_shard_on_every_get(self, store, monkeypatch):
        store.put("abcd01", {}, RESULT)
        fresh = ResultsStore(store.root)
        reads = []
        original = ResultsStore.read_records

        def spy(path):
            reads.append(path.stem)
            return original(path)

        monkeypatch.setattr(ResultsStore, "read_records", staticmethod(spy))
        assert fresh.get("abcd01")["result"] == RESULT
        assert fresh.get("abcd01")["result"] == RESULT
        assert reads == ["abcd01", "abcd01"]

    def test_unknown_and_malformed_fingerprints_miss(self, store):
        for fingerprint in ("deadbeef", "a/../b", "a b"):
            assert store.get(fingerprint) is None

    def test_warm_sweep_keeps_no_record_in_memory(self, tmp_path):
        cache = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, cache)
        store = ResultsStore(cache)
        cells = [
            cell
            for name in ("fig4", "fig5", "fig6", "fig8")
            for cell in get_experiment(name, "smoke", DEFAULT_SEED).cells()
        ]
        report = SweepRunner(store=store).run(cells)
        assert (report.hits, report.misses) == (len(cells), 0)
        assert vars(store) == {"_root": cache}


FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"

#: Strings ``json.dumps`` must escape, short and long.
ESCAPED_CELL = {
    "label": 'a "quoted" \\ caf\u00e9 \n' * 200,
    "tags": ["x" * 2000, "\u2603"],
    "empty": {},
    "nested": {"b": 1, "a": {"z": None, "y": True}},
}


#: Floats whose shortest ``repr`` must survive the line unchanged.
EXTREME_FLOATS = {
    "values": [0.25, -0.0, 5e-324, 1.7976931348623157e308, 1e-3, 0.1 + 0.2],
    "series": [0.01 * i for i in range(300)],
}


class TestAppend:
    """``put`` appends ``json.dumps(record, sort_keys=True) + "\\n"``."""

    @staticmethod
    def spy_write(monkeypatch, short=None):
        """Record each ``os.write`` call; the first writes only ``short`` bytes."""
        calls = []
        real = os.write

        def spy(fd, data):
            data = bytes(data)
            calls.append(data)
            if short is not None and len(calls) == 1:
                return real(fd, data[:short])
            return real(fd, data)

        monkeypatch.setattr(os, "write", spy)
        return calls

    @staticmethod
    def expected_line(fingerprint, config, result):
        record = {
            "schema": SCHEMA_VERSION,
            "kind": "cell",
            "fingerprint": fingerprint,
            "config": config,
            "result": result,
        }
        return (json.dumps(record, sort_keys=True) + "\n").encode("ascii")

    @pytest.mark.parametrize(
        "config",
        [{"seed": 3, "scenario": {"n_hops": 2}}, ESCAPED_CELL, EXTREME_FLOATS],
        ids=["cell", "escaped-strings", "extreme-floats"],
    )
    def test_put_writes_the_json_dumps_line_in_one_write(self, store, monkeypatch, config):
        store.put("abcd01", {}, RESULT)
        calls = self.spy_write(monkeypatch)
        store.put("abcd01", config, RESULT)
        line = self.expected_line("abcd01", config, RESULT)
        assert calls == [line]
        assert store.shard_path("abcd01").read_bytes().splitlines(keepends=True)[1] == line
        assert ResultsStore(store.root).get("abcd01")["config"] == config

    def test_put_leaves_no_reference_cycle(self, store):
        """A cycle would keep a record's encoded line alive until a collection."""
        store.put("cafe01", {}, RESULT)
        gc.collect()
        store.put("cafe01", ESCAPED_CELL, RESULT)
        assert gc.collect() == 0

    @pytest.mark.parametrize("short", [1, 40, 1100, 5000])
    def test_put_finishes_a_short_write(self, store, monkeypatch, short):
        calls = self.spy_write(monkeypatch, short=short)
        store.put("cafe01", ESCAPED_CELL, RESULT)
        line = self.expected_line("cafe01", ESCAPED_CELL, RESULT)
        assert len(line) > 5000
        assert calls[1] == line[short:]
        assert store.shard_path("cafe01").read_bytes() == line

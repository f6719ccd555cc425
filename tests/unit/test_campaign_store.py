"""ResultStore: content-addressed memoisation, persistence, recovery."""

import json

import pytest

from repro.campaign import (
    RESULTS_FILENAME,
    ResultStore,
    canonical_json,
    record_line,
)
from repro.core.errors import ConfigurationError


def record(key: str, **extra):
    return {"key": key, "schema_version": 1, "report": {"n_ok": 1}, **extra}


class TestMemoryStore:
    def test_put_get_roundtrip(self):
        store = ResultStore.memory()
        assert store.put(record("k1"))
        assert store.get("k1")["report"] == {"n_ok": 1}
        assert "k1" in store
        assert len(store) == 1
        assert store.path is None

    def test_identical_reput_is_a_noop(self):
        store = ResultStore.memory()
        assert store.put(record("k1"))
        assert not store.put(record("k1"))
        assert len(store) == 1

    def test_missing_key_is_none(self):
        assert ResultStore.memory().get("nope") is None

    def test_record_without_key_rejected(self):
        with pytest.raises(ConfigurationError, match="key"):
            ResultStore.memory().put({"report": {}})


class TestDiskStore:
    def test_persists_and_reloads(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.put(record("k2", params={"x": 1}))

        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 2
        assert reopened.get("k2")["params"] == {"x": 1}
        assert reopened.keys() == ["k1", "k2"]

    def test_lines_are_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1", params={"b": 2, "a": 1}))
        lines = (tmp_path / "store" / RESULTS_FILENAME).read_text().splitlines()
        assert lines == [canonical_json(record("k1", params={"b": 2, "a": 1}))]
        # Canonical = sorted keys: insertion order cannot leak.
        assert lines[0].index('"a"') < lines[0].index('"b"')

    def test_append_only_last_write_wins(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        changed = record("k1")
        changed["report"] = {"n_ok": 2}
        assert store.put(changed)
        raw = (tmp_path / "store" / RESULTS_FILENAME).read_text()
        assert len(raw.splitlines()) == 2  # history kept
        assert ResultStore(tmp_path / "store").get("k1")["report"] == {
            "n_ok": 2
        }

    def test_torn_tail_rolled_back_on_open(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        path = tmp_path / "store" / RESULTS_FILENAME
        with open(path, "a") as handle:
            handle.write('{"key": "k2", "repo')   # killed mid-append

        reopened = ResultStore(tmp_path / "store")
        assert len(reopened) == 1
        assert "k2" not in reopened
        # The partial line is gone from disk; new appends start clean.
        assert path.read_bytes().endswith(b"\n")
        reopened.put(record("k3"))
        assert ResultStore(tmp_path / "store").keys() == ["k1", "k3"]

    def test_corrupt_interior_line_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        path = tmp_path / "store" / RESULTS_FILENAME
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        store2 = ResultStore(tmp_path / "store")
        store2.put(record("k2"))
        assert ResultStore(tmp_path / "store").keys() == ["k1", "k2"]

    def test_future_schema_records_still_load(self, tmp_path):
        """Satellite: unknown keys in stored records are tolerated —
        a store written by a newer schema version still opens."""
        store = ResultStore(tmp_path / "store")
        futuristic = record("k1", schema_version=99, hologram={"v": 1})
        store.put(futuristic)
        reopened = ResultStore(tmp_path / "store")
        loaded = reopened.get("k1")
        assert loaded["hologram"] == {"v": 1}
        assert loaded["schema_version"] == 99

    def test_entries_are_the_persisted_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.put(record("k2"))
        on_disk = (
            (tmp_path / "store" / RESULTS_FILENAME).read_text().splitlines()
        )
        assert store.entries() == on_disk
        assert [json.loads(line)["key"] for line in on_disk] == ["k1", "k2"]


class TestStoredLine:
    """``put`` keeps the one canonical line it writes; the record is
    decoded from that line on first ``get``."""

    def test_get_after_put_is_an_equal_independent_dict(self):
        store = ResultStore.memory()
        mine = record("k1", params={"x": [1, 2]})
        store.put(mine)
        got = store.get("k1")
        assert got == mine
        assert got is not mine
        mine["params"]["x"].append(3)
        mine["report"]["n_ok"] = 7
        assert store.get("k1") == record("k1", params={"x": [1, 2]})

    def test_line_is_the_written_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1", params={"b": 2, "a": 1}))
        on_disk = (tmp_path / "store" / RESULTS_FILENAME).read_text()
        assert store.line("k1") + "\n" == on_disk
        assert store.line("k1") == canonical_json(store.get("k1"))
        assert store.line("missing") is None

    def test_put_stores_a_given_line_verbatim(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        mine = record("k1", params={"b": 2, "a": 1})
        line = record_line(mine)
        assert store.put(mine, line) is True
        assert store.line("k1") == line
        assert store.put(mine) is False   # the same bytes: a no-op
        on_disk = (tmp_path / "store" / RESULTS_FILENAME).read_text()
        assert on_disk == line + "\n"
        assert ResultStore(tmp_path / "store").get("k1") == mine

    def test_superseding_put_replaces_a_decoded_record(self):
        store = ResultStore.memory()
        store.put(record("k1"))
        assert store.get("k1")["report"] == {"n_ok": 1}
        store.put(record("k1", report={"n_ok": 2}))
        assert store.get("k1")["report"] == {"n_ok": 2}
        assert store.line("k1") == canonical_json(
            record("k1", report={"n_ok": 2})
        )

    def test_records_and_entries_keep_first_seen_order(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for key in ("k2", "k1", "k3"):
            store.put(record(key))
        store.put(record("k1", report={"n_ok": 5}))   # keeps its slot
        assert store.keys() == ["k2", "k1", "k3"]
        assert [r["key"] for r in store.records()] == ["k2", "k1", "k3"]
        assert [r["report"]["n_ok"] for r in store.records()] == [1, 5, 1]
        assert store.entries() == [
            store.line(key) for key in ("k2", "k1", "k3")
        ]

    def test_compact_and_reload_of_never_decoded_records(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        store.put(record("k2"))
        store.put(record("k1", report={"n_ok": 2}))
        assert store.compact() == 1
        reopened = ResultStore(tmp_path / "store")
        assert reopened.entries() == store.entries()
        assert list(reopened.records()) == list(store.records())

    def test_torn_tail_reload_after_puts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(record("k1"))
        path = tmp_path / "store" / RESULTS_FILENAME
        with open(path, "a") as handle:
            handle.write('{"key": "k2", "repo')
        reopened = ResultStore(tmp_path / "store")
        assert reopened.entries() == store.entries()
        assert reopened.get("k1") == store.get("k1")

    def test_refresh_sees_another_writers_puts(self, tmp_path):
        observer = ResultStore(tmp_path / "store", readonly=True)
        writer = ResultStore(tmp_path / "store")
        writer.put(record("k1"))
        writer.put(record("k2", params={"x": 1}))
        assert observer.refresh() == 2
        assert observer.entries() == writer.entries()
        assert observer.get("k2") == writer.get("k2")

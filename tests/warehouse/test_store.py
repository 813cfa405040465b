"""ResultWarehouse disk behaviour: round-trips, durability, maintenance."""

from __future__ import annotations

import base64
import json
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.engine import METRIC_COLUMNS, ColumnBlock
from repro.warehouse.store import (
    DISK_FORMAT_VERSION,
    ENV_CACHE_DIR,
    ENV_NO_WAREHOUSE,
    ENV_WAREHOUSE_DIR,
    EXPORT_PAYLOAD_FIELD,
    ResultWarehouse,
    default_warehouse,
    default_warehouse_dir,
)

SPEC = {"app": "adpcm-encode", "seed": 0}
RECORDS = [{"seed": 0, "energy_nj": 12.5}]


def _put(warehouse: ResultWarehouse, key: str = "k" * 64, **overrides) -> bool:
    kwargs = dict(
        spec=SPEC,
        records=RECORDS,
        kind="execute",
        engine="behavioural",
        fingerprint="fp",
    )
    kwargs.update(overrides)
    return warehouse.put(key, **kwargs)


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        entry = warehouse.get("k" * 64)
        assert entry is not None
        assert entry.spec == SPEC
        assert entry.records == (RECORDS[0],)
        assert entry.block is None
        assert entry.kind == "execute"
        assert entry.engine == "behavioural"
        assert entry.fingerprint == "fp"
        assert entry.rows == 1
        assert warehouse.stats.as_dict()["hits"] == 1
        assert warehouse.stats.as_dict()["stores"] == 1

    def test_artifact_round_trips_through_pickle(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        artifact = {"boundary": [(16, 3), (32, 2)], "note": "rich object"}
        assert _put(warehouse, kind="feasibility", artifact=artifact)
        entry = warehouse.get("k" * 64)
        assert entry.artifact == artifact

    def test_put_is_idempotent(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse) is True
        assert _put(warehouse) is False  # content-addressed: immutable
        assert warehouse.stats.as_dict()["stores"] == 1

    def test_absent_key_is_a_plain_miss(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert warehouse.get("feed" * 16) is None
        assert warehouse.stats.as_dict() == {
            "hits": 0,
            "misses": 1,
            "stores": 0,
            "corrupt": 0,
        }

    def test_non_json_records_degrade_to_not_stored(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert not _put(warehouse, records=[{"bad": {1, 2}}])
        assert warehouse.get("k" * 64) is None

    def test_unpicklable_artifact_degrades_to_not_stored(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert not _put(warehouse, kind="pareto", artifact=lambda: None)
        assert warehouse.get("k" * 64) is None


def _block(seeds=(3, 1, 2**53 + 1)) -> ColumnBlock:
    columns = {}
    for offset, name in enumerate(METRIC_COLUMNS):
        columns[name] = np.arange(len(seeds), dtype=np.float64) / 3.0 + offset
    return ColumnBlock(tuple(seeds), ("adpcm-encode", "hybrid-optimal", "storm"), columns)


def _put_block(warehouse: ResultWarehouse, key: str = "b" * 64, block=None) -> bool:
    return warehouse.put(
        key,
        spec=SPEC,
        kind="execute",
        engine="batched",
        block=block if block is not None else _block(),
        fingerprint="fp",
    )


def _assert_same_block(served: ColumnBlock, expected: ColumnBlock) -> None:
    assert np.array_equal(served.seeds, expected.seeds)
    assert served.labels == expected.labels
    assert list(served.columns) == list(METRIC_COLUMNS)
    for name in METRIC_COLUMNS:
        assert served.columns[name].tobytes() == expected.columns[name].tobytes(), name


def _read_entry(path) -> tuple[dict, bytes | None]:
    """An entry file's header document and its payload (``None`` without a newline)."""
    header, newline, payload = path.read_bytes().partition(b"\n")
    return json.loads(header), payload if newline else None


def _write_entry(path, document: dict, payload: bytes | None) -> None:
    data = json.dumps(document).encode("utf-8")
    path.write_bytes(data if payload is None else data + b"\n" + payload)


#: Raw float64 bit patterns the byte layout must carry verbatim: signed
#: zeros, infinities, quiet and signalling NaNs with payloads, subnormals.
_SPECIAL_BITS = (
    0x0000000000000000,
    0x8000000000000000,
    0x7FF0000000000000,
    0xFFF0000000000000,
    0x7FF8000000000000,
    0x7FF0000000000001,
    0xFFF8DEADBEEF0001,
    0x0000000000000001,
    0x000FFFFFFFFFFFFF,
    0x800FFFFFFFFFFFFF,
)
_SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from((2**53 + 1, 2**63, 2**64 - 2, 2**64 - 1)),
)
_BITS = st.one_of(st.integers(min_value=0, max_value=2**64 - 1), st.sampled_from(_SPECIAL_BITS))


@st.composite
def _drawn_blocks(draw) -> ColumnBlock:
    seeds = draw(st.lists(_SEEDS, min_size=1, max_size=6))
    width = len(METRIC_COLUMNS)
    bits = draw(st.lists(_BITS, min_size=width * len(seeds), max_size=width * len(seeds)))
    values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(width, len(seeds))
    columns = dict(zip(METRIC_COLUMNS, values))
    return ColumnBlock(tuple(seeds), ("adpcm-encode", "hybrid-optimal", "storm"), columns)


def _block_field(name: str, value):
    def damage(document: dict, payload: bytes):
        document["block"][name] = value
        return document, payload

    return damage


def _as_solo(document: dict, payload: bytes):
    document = {name: value for name, value in document.items() if name != "block"}
    return document | {"records": RECORDS}, payload


class TestBlockUnits:
    def test_block_round_trips_exactly(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put_block(warehouse)
        entry = warehouse.get("b" * 64)
        expected = _block()
        assert np.array_equal(entry.block.seeds, expected.seeds)
        assert entry.block.labels == expected.labels
        assert list(entry.block.columns) == list(METRIC_COLUMNS)
        for name in METRIC_COLUMNS:
            assert entry.block.columns[name].tobytes() == expected.columns[name].tobytes()
        assert entry.records == ()
        assert (entry.specs, entry.rows) == (3, 3)

    def test_block_bits_round_trip(self, tmp_path) -> None:
        # Seeds anywhere in [0, 2**64) and any float64 bit pattern come
        # back exactly: the payload is raw bytes, never a printed number.
        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(block=_drawn_blocks())
        def check(block: ColumnBlock) -> None:
            warehouse = ResultWarehouse(tempfile.mkdtemp(dir=tmp_path))
            assert _put_block(warehouse, block=block)
            _assert_same_block(warehouse.get("b" * 64).block, block)

        check()

    def test_block_stores_columns_not_rows(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put_block(warehouse)
        path = tmp_path / ("b" * 64 + ".json")
        document, payload = _read_entry(path)
        assert document["block"] == {
            "rows": 3,
            "labels": ["adpcm-encode", "hybrid-optimal", "storm"],
            "columns": list(METRIC_COLUMNS),  # the seeds carry the seed column
        }
        assert "records" not in document
        # 8 bytes per seed and per metric column; the entry's size is the file's.
        assert len(payload) == 8 * 3 * (1 + len(METRIC_COLUMNS))
        assert warehouse.get("b" * 64).nbytes == path.stat().st_size

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda document, payload: (document, payload[:-1]), id="payload-short"),
            pytest.param(
                lambda document, payload: (document, payload + b"\0"), id="payload-long"
            ),
            pytest.param(_block_field("rows", 2), id="rows-under"),
            pytest.param(_block_field("rows", 4), id="rows-over"),
            pytest.param(_block_field("rows", 0), id="rows-zero"),
            pytest.param(_block_field("rows", True), id="rows-bool"),
            pytest.param(_block_field("rows", "3"), id="rows-str"),
            pytest.param(
                _block_field("columns", [*METRIC_COLUMNS[1::-1], *METRIC_COLUMNS[2:]]),
                id="columns-reordered",
            ),
            pytest.param(_block_field("columns", list(METRIC_COLUMNS[1:])), id="columns-missing"),
            pytest.param(
                _block_field("labels", ["adpcm-encode", "hybrid-optimal"]), id="labels-short"
            ),
            pytest.param(_as_solo, id="solo-with-payload"),
            pytest.param(lambda document, payload: (document, None), id="block-without-payload"),
        ],
    )
    def test_malformed_block_is_corrupt_and_misses(self, tmp_path, damage) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put_block(warehouse)
        path = tmp_path / ("b" * 64 + ".json")
        _write_entry(path, *damage(*_read_entry(path)))
        assert warehouse.get("b" * 64) is None
        assert warehouse.stats.as_dict()["corrupt"] == 1

    def test_block_with_records_is_corrupt(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put_block(warehouse)
        path = tmp_path / ("b" * 64 + ".json")
        document, payload = _read_entry(path)
        document["records"] = RECORDS
        _write_entry(path, document, payload)
        assert warehouse.get("b" * 64) is None


class TestEnvironment:
    def test_kill_switch_disables_reads_and_writes(self, tmp_path, monkeypatch) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        monkeypatch.setenv(ENV_NO_WAREHOUSE, "1")
        assert not warehouse.enabled
        assert warehouse.get("k" * 64) is None
        assert not _put(warehouse, key="x" * 64)
        monkeypatch.delenv(ENV_NO_WAREHOUSE)
        assert warehouse.enabled
        assert warehouse.get("k" * 64) is not None

    def test_directory_override(self, tmp_path, monkeypatch) -> None:
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(ENV_WAREHOUSE_DIR, str(override))
        assert default_warehouse_dir() == override
        warehouse = ResultWarehouse()
        assert _put(warehouse)
        assert (override / ("k" * 64 + ".json")).is_file()

    def test_default_dir_shares_the_cache_root(self, monkeypatch) -> None:
        monkeypatch.delenv(ENV_WAREHOUSE_DIR, raising=False)
        assert default_warehouse_dir().name == "warehouse"

    def test_cache_dir_relocates_the_warehouse_root(self, tmp_path, monkeypatch) -> None:
        monkeypatch.delenv(ENV_WAREHOUSE_DIR, raising=False)
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "root"))
        assert default_warehouse_dir() == tmp_path / "root" / "warehouse"
        assert _put(ResultWarehouse())
        assert (tmp_path / "root" / "warehouse" / ("k" * 64 + ".json")).is_file()

    def test_default_root_is_the_home_cache(self, tmp_path, monkeypatch) -> None:
        monkeypatch.delenv(ENV_WAREHOUSE_DIR, raising=False)
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_warehouse_dir() == tmp_path / ".cache" / "repro" / "warehouse"

    def test_default_warehouse_is_process_wide(self) -> None:
        assert default_warehouse() is default_warehouse()


class TestCorruption:
    def _path(self, tmp_path, key: str = "k" * 64):
        return tmp_path / f"{key}.json"

    def test_truncated_json_misses(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        path = self._path(tmp_path)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        assert warehouse.get("k" * 64) is None
        assert warehouse.stats.as_dict()["corrupt"] == 1

    def test_wrong_version_misses(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        path = self._path(tmp_path)
        document = json.loads(path.read_text())
        document["version"] = DISK_FORMAT_VERSION + 1
        path.write_text(json.dumps(document), encoding="utf-8")
        assert warehouse.get("k" * 64) is None

    def test_renamed_entry_misses(self, tmp_path) -> None:
        # A document whose embedded key disagrees with its filename was
        # moved or tampered with — it cannot be trusted as an answer.
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        self._path(tmp_path).rename(self._path(tmp_path, "e" * 64))
        assert warehouse.get("e" * 64) is None
        assert warehouse.stats.as_dict()["corrupt"] == 1

    def test_malformed_records_miss(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        path = self._path(tmp_path)
        document = json.loads(path.read_text())
        document["records"].append([])
        path.write_text(json.dumps(document), encoding="utf-8")
        assert warehouse.get("k" * 64) is None
        assert warehouse.stats.as_dict()["corrupt"] == 1

    def test_corrupt_artifact_misses(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse, kind="pareto", artifact=(1, 2, 3))
        path = self._path(tmp_path)
        document = json.loads(path.read_text())
        document["artifact"] = "bm90LXBpY2tsZQ=="  # valid base64, invalid pickle
        path.write_text(json.dumps(document), encoding="utf-8")
        assert warehouse.get("k" * 64) is None

    def test_put_replaces_a_corrupt_entry(self, tmp_path) -> None:
        # A file that no longer decodes must not block its own
        # replacement; it is counted corrupt by the lookup, not by put.
        warehouse = ResultWarehouse(tmp_path)
        self._path(tmp_path).write_text("{broken", encoding="utf-8")
        assert warehouse.get("k" * 64) is None
        assert _put(warehouse) is True
        assert warehouse.get("k" * 64).records == (RECORDS[0],)
        assert warehouse.stats.as_dict() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 1}

    def test_corrupt_entries_are_skipped_by_listing(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        assert _put(warehouse)
        (tmp_path / ("f" * 64 + ".json")).write_text("{broken", encoding="utf-8")
        assert [entry.key for entry in warehouse.entries()] == ["k" * 64]


class TestConcurrency:
    def test_racing_writers_leave_one_valid_entry(self, tmp_path) -> None:
        # Atomic temp+rename writes race benignly: both writers carry the
        # same content-addressed payload, so last rename wins and the entry
        # is always whole.
        warehouse = ResultWarehouse(tmp_path)
        barrier = threading.Barrier(8)

        def writer() -> None:
            barrier.wait()
            _put(warehouse)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entry = warehouse.get("k" * 64)
        assert entry is not None
        assert entry.records == (RECORDS[0],)
        assert not list(tmp_path.glob("*.tmp")), "a temp file leaked"


class TestMaintenance:
    def test_summary_counts(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse, key="a" * 64)
        _put(warehouse, key="b" * 64, kind="pareto", artifact=(1,))
        summary = warehouse.summary()
        assert summary["entries"] == 2
        assert summary["specs"] == 2
        assert summary["rows"] == 2
        assert summary["bytes"] > 0
        assert summary["by_kind"] == {"execute": 1, "pareto": 1}
        # Entries written under fingerprint "fp" are stale w.r.t. the
        # current code fingerprint.
        assert summary["stale"] == 2

    def test_gc_stale(self, tmp_path) -> None:
        from repro.warehouse.keys import fingerprint_digest

        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse, key="a" * 64)  # fingerprint "fp": stale
        _put(warehouse, key="b" * 64, fingerprint=fingerprint_digest())
        assert warehouse.gc(stale=True) == {"scanned": 2, "removed": 1}
        assert warehouse.get("b" * 64) is not None

    def test_gc_age(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse)
        path = tmp_path / ("k" * 64 + ".json")
        document = json.loads(path.read_text())
        document["created_at"] = 1.0  # 1970: older than any bound
        path.write_text(json.dumps(document), encoding="utf-8")
        assert warehouse.gc(max_age_s=3600.0)["removed"] == 1

    def test_gc_all(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse, key="a" * 64)
        _put(warehouse, key="b" * 64)
        assert warehouse.gc(drop_all=True) == {"scanned": 2, "removed": 2}
        assert warehouse.entries() == []

    def test_gc_always_collects_corrupt_files(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        (tmp_path / ("c" * 64 + ".json")).write_text("{broken", encoding="utf-8")
        assert warehouse.gc()["removed"] == 1

    def test_export_round_trips_documents(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse, key="a" * 64)
        _put(warehouse, key="b" * 64)
        document = warehouse.export()
        assert document["version"] == DISK_FORMAT_VERSION
        assert len(document["entries"]) == 2
        # Exported documents are verbatim on-disk entries: re-importing is
        # just writing them back under their key.
        restored = ResultWarehouse(tmp_path / "restored")
        (tmp_path / "restored").mkdir()
        for entry in document["entries"]:
            target = tmp_path / "restored" / (entry["key"] + ".json")
            target.write_text(json.dumps(entry), encoding="utf-8")
        assert {e.key for e in restored.entries()} == {"a" * 64, "b" * 64}

    def test_export_restores_solo_and_block_entries(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse, key="a" * 64)
        assert _put_block(warehouse)
        document = warehouse.export()
        assert len(document["entries"]) == 2
        # Restoring an entry writes its document as one line, then a
        # newline and the decoded payload, if it has one.
        (tmp_path / "restored").mkdir()
        for entry in document["entries"]:
            payload = entry.pop(EXPORT_PAYLOAD_FIELD, None)
            target = tmp_path / "restored" / (entry["key"] + ".json")
            _write_entry(target, entry, None if payload is None else base64.b64decode(payload))
        restored = ResultWarehouse(tmp_path / "restored")
        assert restored.get("a" * 64).records == (RECORDS[0],)
        _assert_same_block(restored.get("b" * 64).block, _block())
        assert restored.stats.corrupt == 0

    def test_export_key_prefix_filter(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        _put(warehouse, key="a" * 64)
        _put(warehouse, key="b" * 64)
        document = warehouse.export(key_prefix="a")
        assert [entry["key"] for entry in document["entries"]] == ["a" * 64]

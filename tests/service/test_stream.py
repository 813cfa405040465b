"""The results stream: seed blocks cross the wire as their codec bytes.

The server's writer and the client's one reader
(:func:`~repro.service.client.read_results`) are driven here without
HTTP; ``ServiceClient.results`` reads the same lines through a stubbed
``stream_lines``.
"""

from __future__ import annotations

import base64
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.api.spec import ExperimentSpec
from repro.batch.engine import METRIC_COLUMNS, ColumnBlock, records_from_columns
from repro.service.client import RemoteExecutor, ServiceClient, ServiceError, read_results
from repro.utils.rng import seed_array

LABELS = ("adpcm-encode", "hybrid-optimal", "none")
JOB_ID = "job-stream"

#: Float64 values the codec must carry bit for bit, besides drawn ones.
_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, np.inf, -np.inf, np.nan)
_SEED_EDGES = (0, 2**63, 2**64 - 1)


@st.composite
def _blocks(draw) -> ColumnBlock:
    rows = draw(st.integers(min_value=1, max_value=300))
    seeds = draw(
        st.lists(
            st.one_of(st.sampled_from(_SEED_EDGES), st.integers(0, 2**64 - 1)),
            min_size=rows,
            max_size=rows,
        )
    )
    seeds[: len(_SEED_EDGES)] = _SEED_EDGES[:rows]
    values = draw(
        arrays(
            np.float64,
            (len(METRIC_COLUMNS), rows),
            elements=st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
        )
    )
    return ColumnBlock(seeds, LABELS, dict(zip(METRIC_COLUMNS, values)))


def _job(*results, state: str = "done"):
    """A job of one shard per result, each shard over the next specs in order."""
    shards, start = [], 0
    for index, result in enumerate(results):
        runs = len(result.seeds) if isinstance(result, ColumnBlock) else len(result)
        shards.append(SimpleNamespace(index=index, spec_indices=tuple(range(start, start + runs))))
        start += runs
    return SimpleNamespace(
        id=JOB_ID,
        request=SimpleNamespace(label="stream", spec_hash="0" * 64),
        error=None,
        state=state,
        shards=shards,
        shard_results=list(results),
        ready_prefix=lambda: start,
    )


def _client(lines: list[str]) -> ServiceClient:
    client = ServiceClient("http://127.0.0.1:9")
    client.stream_lines = lambda job_id, wait=True: iter(lines)
    return client


def _block(seeds=(0, 1, 2)) -> ColumnBlock:
    values = np.arange(len(seeds), dtype=np.float64)
    return ColumnBlock(seeds, LABELS, {name: values + i for i, name in enumerate(METRIC_COLUMNS)})


class TestRoundTrip:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(block=_blocks())
    def test_block_bytes_and_rows_survive_the_stream(self, write_stream, block):
        lines = write_stream(_job(block))
        assert len(lines) == 3  # header, one block line, trailer
        _, rows, ((specs, served),) = read_results(lines, JOB_ID)
        assert rows == [] and specs == list(range(len(block.seeds)))
        assert served.seeds.tobytes() == block.seeds.astype("<u8").tobytes()
        assert served.labels == LABELS
        for name in METRIC_COLUMNS:
            assert served.columns[name].tobytes() == block.columns[name].tobytes(), name
        meta, rows = _client(lines).results(JOB_ID)
        expected = records_from_columns(block)
        for index, row in enumerate(expected):
            row["_spec"] = index
        assert json.dumps(rows) == json.dumps(expected)
        assert meta["rows"] == len(block.seeds)
        assert meta["columns"] == ["application", "strategy", "scenario", "seed", *METRIC_COLUMNS]

    def test_record_rows_and_blocks_read_back_in_spec_order(self, write_stream):
        lines = write_stream(_job(_block((4, 5)), [[{"a": 1}], [{"a": 2}, {"a": 3}]], _block((6,))))
        _, rows = _client(lines).results(JOB_ID)
        assert [(row["_spec"], row.get("seed", row.get("a"))) for row in rows] == [
            (0, 4), (1, 5), (2, 1), (3, 2), (3, 3), (4, 6),
        ]


def _damage_block(change):
    def damage(lines: list[str]) -> list[str]:
        header, line, trailer = lines
        block = json.loads(line)
        change(block)
        return [header, json.dumps(block), trailer]

    return damage


def _truncate(block: dict) -> None:
    block["payload"] = base64.b64encode(base64.b64decode(block["payload"])[:-8]).decode("ascii")


def _untrailed(damage):
    """``damage``, with the trailer's row count dropped so only the line can tell."""

    def without_count(lines: list[str]) -> list[str]:
        *head, trailer = damage(lines)
        return [*head, json.dumps({k: v for k, v in json.loads(trailer).items() if k != "rows"})]

    return without_count


def _recount(lines: list[str]) -> list[str]:
    trailer = json.loads(lines[-1])
    trailer["rows"] += 1
    return [*lines[:-1], json.dumps(trailer)]


class TestMalformedStreams:
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(_damage_block(_truncate), id="truncated-payload"),
            pytest.param(
                _damage_block(lambda block: block["block"]["columns"].reverse()),
                id="wrong-columns",
            ),
            pytest.param(
                _damage_block(lambda block: block["block"]["columns"].pop()), id="short-columns"
            ),
            pytest.param(_damage_block(lambda block: block["_spec"].pop()), id="short-spec-list"),
            pytest.param(
                _untrailed(_damage_block(lambda block: block["_spec"].pop())),
                id="short-spec-list-uncounted",
            ),
            pytest.param(
                _untrailed(_damage_block(lambda block: block.update(_spec=["0", "1", "2"]))),
                id="spec-list-of-strings",
            ),
            pytest.param(
                _damage_block(lambda block: block.update(payload="not base64!")), id="not-base64"
            ),
            pytest.param(_recount, id="trailer-miscount"),
        ],
    )
    def test_damaged_block_line_raises_naming_the_job(self, write_stream, damage):
        lines = damage(write_stream(_job(_block())))
        with pytest.raises(ServiceError, match=JOB_ID):
            _client(lines).results(JOB_ID)

    def test_foreign_seeds_are_refused(self, write_stream):
        lines = write_stream(_job(_block((7, 8, 9))))
        fake = SimpleNamespace(
            base_url="http://127.0.0.1:9",
            submit=lambda payload: {"job_id": JOB_ID},
            stream_lines=lambda job_id, wait=True: iter(lines),
        )
        runner = RemoteExecutor(fake).block_runner(ExperimentSpec(app="adpcm-encode"))
        served = runner(seed_array([7, 8, 9]))
        assert served.seeds.tolist() == [7, 8, 9]
        with pytest.raises(ServiceError, match=JOB_ID):
            runner(seed_array([0, 1, 2]))

    def test_stream_without_header_is_rejected(self):
        with pytest.raises(ServiceError, match="header"):
            read_results([json.dumps({"a": 1, "_spec": 0})], JOB_ID)
        with pytest.raises(ServiceError, match="header"):
            read_results([], JOB_ID)

    def test_malformed_line_names_its_line_number(self, write_stream):
        header, *rest = write_stream(_job([[{"a": 1}]]))
        with pytest.raises(ServiceError, match="line 2 is not a JSON object"):
            read_results([header, "{not json", *rest], JOB_ID)
        with pytest.raises(ServiceError, match="line 2 is not a JSON object"):
            read_results([header, "[1, 2]", *rest], JOB_ID)
        with pytest.raises(ServiceError, match="line 2 is neither a row nor a block"):
            read_results([header, json.dumps({"a": 1}), *rest], JOB_ID)


class TestMetadata:
    def test_metadata_merges_with_the_header_first(self, write_stream):
        lines = write_stream(_job([[{"a": 1}]], state="running"))
        trailer = json.loads(lines[-1]) | {"state": "done"}
        meta, _, _ = read_results([*lines[:-1], json.dumps(trailer)], JOB_ID)
        assert meta["title"] == "stream" and meta["job_id"] == JOB_ID
        assert meta["spec_sha256"] == "0" * 64
        assert meta["state"] == "done"  # the trailer merged over the header
        assert "__ndjson__" not in meta

    def test_result_set_keeps_meta_out_of_its_serialized_forms(self, write_stream):
        result = _client(write_stream(_job([[{"a": 1}]]))).result_set(JOB_ID)
        assert result.meta["job_id"] == JOB_ID
        assert result.columns == ("a",)  # the private _spec key stays hidden
        assert JOB_ID not in result.to_json() + result.to_csv()
        assert result.to_json() == type(result).from_records("stream", [{"a": 1}]).to_json()

"""Job-queue lifecycle tests: claim, complete, fail, cancel, stream order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch.engine import METRIC_COLUMNS, ColumnBlock, records_from_columns
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SHARD_DISPATCHED,
    SHARD_SKIPPED,
    JobQueue,
)
from repro.service.wire import validate_job_payload


def _submit(queue: JobQueue, seeds: int = 4, shard_size: int = 2):
    payload = {
        "kind": "campaign",
        "spec": {"base": {"app": "adpcm-encode"}, "seeds": list(range(seeds))},
        "shard_size": shard_size,
    }
    return queue.submit(validate_job_payload(payload))


def _records(shard) -> list[list[dict]]:
    return [[{"seed": index}] for index in shard.spec_indices]


class TestLifecycle:
    def test_submit_assigns_sequential_ids(self):
        queue = JobQueue()
        assert _submit(queue).id == "job-000001"
        assert _submit(queue).id == "job-000002"

    def test_claim_marks_running(self):
        queue = JobQueue()
        job = _submit(queue)
        assert job.state == QUEUED
        claimed_job, shard = queue.claim_shard(timeout=0)
        assert claimed_job is job
        assert job.state == RUNNING
        assert job.shard_states[shard.index] == SHARD_DISPATCHED

    def test_complete_all_shards_finishes_job(self, stream_job):
        queue = JobQueue()
        job = _submit(queue, seeds=4, shard_size=2)
        while (claimed := queue.claim_shard(timeout=0)) is not None:
            _, shard = claimed
            queue.complete_shard(job.id, shard.index, _records(shard))
        assert job.state == DONE
        assert job.ready_prefix() == 4
        assert [row["seed"] for row in stream_job(job)[1]] == [0, 1, 2, 3]

    def test_out_of_order_completion_streams_in_order(self):
        queue = JobQueue()
        job = _submit(queue, seeds=4, shard_size=2)
        _, first = queue.claim_shard(timeout=0)
        _, second = queue.claim_shard(timeout=0)
        queue.complete_shard(job.id, second.index, _records(second))
        # The later shard landed first: nothing is observable yet, because
        # rows stream strictly in spec order.
        assert job.ready_prefix() == 0
        queue.complete_shard(job.id, first.index, _records(first))
        assert job.ready_prefix() == 4

    def test_fail_shard_fails_job_and_skips_pending(self):
        queue = JobQueue()
        job = _submit(queue, seeds=6, shard_size=2)
        _, shard = queue.claim_shard(timeout=0)
        queue.fail_shard(job.id, shard.index, "ValueError: boom")
        assert job.state == FAILED
        assert job.error == "ValueError: boom"
        assert SHARD_SKIPPED in job.shard_states
        assert queue.claim_shard(timeout=0) is None

    def test_cancel_skips_pending_and_drains_inflight(self):
        queue = JobQueue()
        job = _submit(queue, seeds=6, shard_size=2)
        _, inflight = queue.claim_shard(timeout=0)
        queue.cancel(job.id)
        assert job.state == CANCELLED
        # A late result from the already-dispatched shard is dropped.
        queue.complete_shard(job.id, inflight.index, _records(inflight))
        assert job.state == CANCELLED
        assert queue.claim_shard(timeout=0) is None

    def test_cancel_unknown_job_returns_none(self):
        assert JobQueue().cancel("job-999999") is None

    def test_terminal_job_not_claimable(self):
        queue = JobQueue()
        job = _submit(queue, seeds=2, shard_size=2)
        queue.cancel(job.id)
        assert queue.claim_shard(timeout=0) is None


class TestAccounting:
    def test_active_shards_counts_live_jobs_only(self):
        queue = JobQueue()
        job = _submit(queue, seeds=4, shard_size=2)
        assert queue.active_shards() == 2
        queue.claim_shard(timeout=0)
        assert queue.active_shards() == 2  # dispatched still counts as active
        queue.cancel(job.id)
        assert queue.active_shards() == 0

    def test_stats_shape(self):
        queue = JobQueue()
        _submit(queue)
        stats = queue.stats()
        assert stats["jobs"][QUEUED] == 1
        assert stats["total_submitted"] == 1
        assert stats["shards"]["active"] == 2

    def test_describe_is_json_able(self):
        import json

        queue = JobQueue()
        job = _submit(queue)
        payload = job.describe()
        assert json.loads(json.dumps(payload))["job_id"] == job.id
        assert payload["shards"]["total"] == 2


def _submit_batched(queue: JobQueue, seeds: int = 4, cached=None):
    base = {"app": "adpcm-encode", "engine": "batched"}
    payload = {"kind": "campaign", "spec": {"base": base, "seeds": list(range(seeds))}}
    return queue.submit(validate_job_payload(payload), cached=cached)


def _block(seeds) -> ColumnBlock:
    """A column block whose every metric counts up from ``seeds[0] * 10``."""
    seeds = tuple(seeds)
    values = np.arange(len(seeds), dtype=np.float64) + seeds[0] * 10
    columns = {name: values.copy() for name in METRIC_COLUMNS}
    return ColumnBlock(seeds, ("adpcm-encode", "default", "none"), columns)


class TestColumnarResults:
    """Seed-block shards keep their column blocks; only the reader renders rows."""

    def test_blocks_stream_in_spec_order(self, monkeypatch, stream_job):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "2")
        queue = JobQueue()
        job = _submit_batched(queue, seeds=4)
        _, first = queue.claim_shard(timeout=0)
        _, second = queue.claim_shard(timeout=0)
        queue.complete_shard(job.id, second.index, _block(second.payload["seeds"]))
        assert job.ready_prefix() == 0
        assert job.describe()["rows_ready"] == 2
        queue.complete_shard(job.id, first.index, _block(first.payload["seeds"]))
        assert job.state == DONE
        assert job.ready_prefix() == 4
        assert all(isinstance(result, ColumnBlock) for result in job.shard_results)
        meta, rows = stream_job(job)
        assert [row.pop("_spec") for row in rows] == [0, 1, 2, 3]
        assert meta["rows"] == 4
        assert [row["seed"] for row in rows] == [0, 1, 2, 3]
        assert [row["energy_nj"] for row in rows] == [0.0, 1.0, 20.0, 21.0]
        assert rows == records_from_columns(_block([0, 1])) + records_from_columns(
            _block([2, 3])
        )

    def test_cached_block_is_split_into_shard_views(self, monkeypatch, stream_job):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "3")
        block = _block(range(5))
        job = _submit_batched(JobQueue(), seeds=5, cached=block)
        assert job.cached and job.state == DONE
        assert [result.seeds.tolist() for result in job.shard_results] == [[0, 1, 2], [3, 4]]
        assert all(
            np.shares_memory(result.columns["energy_nj"], block.columns["energy_nj"])
            for result in job.shard_results
        )
        rows = stream_job(job)[1]
        assert [row.pop("_spec") for row in rows] == list(range(5))
        assert rows == records_from_columns(block)

    def test_cached_records_fill_spec_list_shards(self, stream_job):
        queue = JobQueue()
        records = [[{"seed": index}] for index in range(4)]
        payload = {
            "kind": "campaign",
            "spec": {"base": {"app": "adpcm-encode"}, "seeds": [0, 1, 2, 3]},
            "shard_size": 3,
        }
        job = queue.submit(validate_job_payload(payload), cached=records)
        assert job.shard_results == [records[:3], records[3:]]
        assert stream_job(job)[1] == [{"seed": index, "_spec": index} for index in range(4)]
        assert job.describe()["rows_ready"] == 4

    def test_cached_result_must_cover_every_run(self):
        with pytest.raises(ValueError, match="covers 3 runs"):
            _submit_batched(JobQueue(), seeds=4, cached=_block(range(3)))

    def test_snapshot_streams_the_landed_prefix(self, monkeypatch, stream_job):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "2")
        queue = JobQueue()
        job = _submit_batched(queue, seeds=4)
        _, first = queue.claim_shard(timeout=0)
        queue.complete_shard(job.id, first.index, _block(first.payload["seeds"]))
        meta, rows = stream_job(job)
        assert meta["state"] == RUNNING and meta["rows"] == 2
        assert [(row["_spec"], row["seed"]) for row in rows] == [(0, 0), (1, 1)]

"""Job-queue lifecycle tests: claim, complete, fail, cancel, stream order."""

from __future__ import annotations

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

    def test_complete_all_shards_finishes_job(self):
        queue = JobQueue()
        job = _submit(queue, seeds=4, shard_size=2)
        while (claimed := queue.claim_shard(timeout=0)) is not None:
            _, shard = claimed
            queue.complete_shard(job.id, shard.index, _records(shard))
        assert job.state == DONE
        assert job.ready_prefix() == 4
        assert [records[0]["seed"] for records in job.records_per_spec] == [0, 1, 2, 3]

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

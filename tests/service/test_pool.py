"""Worker-pool tests: execution, elasticity, and the no-orphans guarantee."""

from __future__ import annotations

import multiprocessing
import time

from repro.service.jobs import CANCELLED, DONE, JobQueue
from repro.service.pool import WorkerPool
from repro.service.scaling import ScalingPolicy
from repro.service.wire import validate_job_payload


def _submit(queue: JobQueue, seeds: int = 4, shard_size: int = 2):
    return queue.submit(
        validate_job_payload(
            {
                "kind": "campaign",
                "spec": {"base": {"app": "adpcm-encode"}, "seeds": list(range(seeds))},
                "shard_size": shard_size,
            }
        )
    )


def _wait_for(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _policy(**overrides) -> ScalingPolicy:
    defaults = dict(
        min_workers=1, init_workers=1, max_workers=3, idle_timeout_s=0.5, interval_s=0.05
    )
    return ScalingPolicy(**{**defaults, **overrides})


class TestThreadPool:
    def test_runs_a_job_to_done(self, stream_job):
        queue = JobQueue()
        job = _submit(queue, seeds=4, shard_size=2)
        with WorkerPool(queue, policy=_policy(), mode="thread"):
            assert _wait_for(lambda: job.state == DONE)
        assert job.ready_prefix() == 4
        assert [row["seed"] for row in stream_job(job)[1]] == [0, 1, 2, 3]

    def test_scales_up_under_load_and_down_when_idle(self, monkeypatch):
        # The four jobs are identical; without this the result warehouse
        # serves jobs 2-4 from job 1's shards and the pool never needs to
        # scale.  Elasticity is only observable on real work.
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        queue = JobQueue()
        with WorkerPool(queue, policy=_policy(max_workers=3), mode="thread") as pool:
            # A one-seed shard takes a few milliseconds: the burst must
            # outlast several 0.05 s scaling ticks, or it can finish
            # before any tick sees it.
            jobs = [_submit(queue, seeds=40, shard_size=1) for _ in range(4)]
            saw_scale_up = _wait_for(lambda: pool.worker_count() >= 3, timeout=10.0)
            assert saw_scale_up, "pool never scaled up under a 160-shard burst"
            assert _wait_for(lambda: all(job.state == DONE for job in jobs))
            assert _wait_for(lambda: pool.worker_count() == 1, timeout=10.0), (
                "pool never scaled back down to min_workers after going idle"
            )
            reasons = [d["reason"] for d in pool.stats()["decisions"]]
            assert any("scale up" in reason for reason in reasons)
            # The pool can hit the floor via a plain scale-down before an
            # idle tick is recorded; wait for the idle decision itself.
            assert _wait_for(
                lambda: any(
                    "idle" in d["reason"] for d in pool.stats()["decisions"]
                ),
                timeout=10.0,
            ), "no idle-driven scaling decision was ever recorded"

    def test_failed_shard_fails_job_not_pool(self):
        queue = JobQueue()
        bad = queue.submit(
            validate_job_payload(
                {
                    "kind": "campaign",
                    # 'hybrid' without chunk_words raises inside the worker.
                    "spec": {
                        "base": {"app": "adpcm-encode", "strategy": "hybrid"},
                        "seeds": [0, 1],
                    },
                }
            )
        )
        good = _submit(queue, seeds=2, shard_size=2)
        with WorkerPool(queue, policy=_policy(), mode="thread"):
            assert _wait_for(lambda: bad.state == "failed")
            assert "chunk" in bad.error
            assert _wait_for(lambda: good.state == DONE)

    def test_stats_shape(self):
        queue = JobQueue()
        with WorkerPool(queue, policy=_policy(), mode="thread") as pool:
            stats = pool.stats()
        assert stats["mode"] == "thread"
        assert stats["policy"]["max_workers"] == 3
        assert stats["spawned_total"] >= 1


class TestProcessPool:
    def test_runs_and_leaves_no_orphans(self):
        queue = JobQueue()
        job = _submit(queue, seeds=2, shard_size=1)
        pool = WorkerPool(queue, policy=_policy(max_workers=2), mode="process")
        pool.start()
        try:
            assert _wait_for(lambda: job.state == DONE, timeout=60.0)
        finally:
            pool.stop()
        assert not multiprocessing.active_children(), "stop() left orphaned workers"

    def test_cancelled_campaign_leaves_no_orphans(self):
        # Regression: a cancelled campaign must not strand worker
        # processes on in-flight shards.
        queue = JobQueue()
        job = _submit(queue, seeds=24, shard_size=1)
        pool = WorkerPool(queue, policy=_policy(max_workers=2), mode="process")
        pool.start()
        try:
            assert _wait_for(lambda: job.state == "running", timeout=60.0)
            queue.cancel(job.id)
            assert job.state == CANCELLED
        finally:
            pool.stop()
        assert not multiprocessing.active_children(), (
            "cancelling a campaign left orphaned worker processes"
        )

    def test_stop_is_idempotent(self):
        pool = WorkerPool(JobQueue(), policy=_policy(), mode="process")
        pool.start()
        pool.stop()
        pool.stop()

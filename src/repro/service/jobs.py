"""The in-process job queue: states, bookkeeping, and streaming waits.

One :class:`JobQueue` instance is shared by the HTTP server (submit,
status, cancel, stream) and the worker pool (claim shards, deliver
results).  Jobs move ``queued → running → done | failed | cancelled``;
shards move ``pending → dispatched → done | failed | skipped``.  All
mutation happens under one lock, and a single condition variable wakes
both the pool's dispatcher (new work) and streaming result readers (new
rows), so a ``GET /v1/jobs/{id}/results?wait=1`` can emit rows the moment
their shard lands.

The queue is *persistent in-process*: finished jobs (and their rows) stay
addressable for the lifetime of the server, which is what lets clients
submit, disconnect and fetch results later.  A job keeps each shard's
result as it landed: a seed block, of a campaign on either engine,
stays its :class:`~repro.batch.engine.ColumnBlock`, streamed as its
codec bytes.  A finished 200-seed batched campaign job holds ~36 KiB
instead of the ~284 KiB its row dicts took.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..telemetry import counter as _telemetry_counter
from ..telemetry import gauge as _telemetry_gauge
from .shards import Shard, ShardResult, plan_shards, shard_row_count, split_result
from .wire import JobRequest

#: Jobs accepted by the queue, by request kind.
JOBS_SUBMITTED = _telemetry_counter(
    "repro_jobs_submitted_total",
    "Jobs accepted by the queue, by request kind.",
    labels=("kind",),
)

#: Jobs that reached a terminal state, by that state.
JOBS_FINISHED = _telemetry_counter(
    "repro_jobs_finished_total",
    "Jobs that reached a terminal state (done, failed, cancelled).",
    labels=("state",),
)

#: Shards planned at submission time.
SHARDS_SUBMITTED = _telemetry_counter(
    "repro_shards_submitted_total",
    "Shards planned across all submitted jobs.",
)

#: Shards whose results were recorded successfully.
SHARDS_COMPLETED = _telemetry_counter(
    "repro_shards_completed_total",
    "Shards whose results were recorded successfully.",
)

#: Shards that failed (their jobs fail with them).
SHARDS_FAILED = _telemetry_counter(
    "repro_shards_failed_total",
    "Shards that raised during execution.",
)

#: Outstanding (pending + dispatched) shards across live jobs.
QUEUE_DEPTH = _telemetry_gauge(
    "repro_queue_depth_shards",
    "Outstanding (pending + dispatched) shards across live jobs.",
)

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES: tuple[str, ...] = (DONE, FAILED, CANCELLED)

#: Shard lifecycle states.
SHARD_PENDING = "pending"
SHARD_DISPATCHED = "dispatched"
SHARD_DONE = "done"
SHARD_FAILED = "failed"
SHARD_SKIPPED = "skipped"


@dataclass
class Job:
    """One submitted job and everything it has produced so far."""

    id: str
    request: JobRequest
    shards: list[Shard]
    run_id: str | None = None
    state: str = QUEUED
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    shard_states: list[str] = field(default_factory=list)
    #: Each shard's result once it landed, stored as the worker returned it.
    shard_results: list[ShardResult | None] = field(default_factory=list)
    #: Whether the job was answered from the result warehouse at submit
    #: time (it never reached the worker pool).
    cached: bool = False

    def __post_init__(self) -> None:
        if not self.shard_states:
            self.shard_states = [SHARD_PENDING] * len(self.shards)
        if not self.shard_results:
            self.shard_results = [None] * len(self.shards)

    # ------------------------------------------------------------------ #
    @property
    def duration_s(self) -> float | None:
        """Wall-clock seconds from first dispatch to completion, if known."""
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None else time.time()
        return end - self.started_at

    def ready_prefix(self) -> int:
        """Number of leading specs whose results are available.

        The results stream walks the specs in order, so only the
        contiguous completed prefix is observable — that keeps a streamed
        result in the finished job's row order.  Every shard lists its
        specs in ascending order, so the prefix ends at the first spec of
        the earliest shard still without a result.
        """
        return min(
            (
                shard.spec_indices[0]
                for shard, result in zip(self.shards, self.shard_results)
                if result is None
            ),
            default=self.request.runs,
        )

    def describe(self) -> dict[str, Any]:
        """JSON-able status payload for ``GET /v1/jobs/{id}``."""
        payload: dict[str, Any] = {
            "job_id": self.id,
            "kind": self.request.kind,
            "label": self.request.label,
            "state": self.state,
            "cached": self.cached,
            "spec_sha256": self.request.spec_hash,
            "specs": self.request.runs,
            "shards": {
                "total": len(self.shards),
                "pending": self.shard_states.count(SHARD_PENDING),
                "dispatched": self.shard_states.count(SHARD_DISPATCHED),
                "done": self.shard_states.count(SHARD_DONE),
            },
            "rows_ready": sum(
                shard_row_count(result) for result in self.shard_results if result is not None
            ),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
        }
        if self.run_id is not None:
            payload["run_id"] = self.run_id
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobQueue:
    """Thread-safe queue + registry of every job the server has seen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    # Submission / lookup
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: JobRequest,
        run_id: str | None = None,
        cached: ShardResult | None = None,
    ) -> Job:
        """Plan the job's shards and enqueue it.

        ``run_id`` is the submitter's correlation ID (from the
        ``X-Repro-Run-Id`` header or the ambient span); it rides on the
        job so dispatch/worker/completion events all carry it.

        ``cached`` — the whole request's result, which the result
        warehouse already holds: a campaign's column block or one record
        list per run — takes the fast path: the job enters the
        queue already ``done`` with every shard's part filled in, never
        touching the worker pool, so a repeat submission streams
        instantly.  The shard plan is still recorded (and counted as
        submitted *and* completed) so queue accounting stays consistent
        with cold jobs.
        """
        shards = plan_shards(request)
        with self._changed:
            job = Job(
                id=f"job-{next(self._ids):06d}",
                request=request,
                shards=shards,
                run_id=run_id,
            )
            if cached is not None:
                now = time.time()
                job.cached = True
                job.shard_results = split_result(cached, shards)
                job.shard_states = [SHARD_DONE] * len(shards)
                job.state = DONE
                job.started_at = now
                job.finished_at = now
            self._jobs[job.id] = job
            self._order.append(job.id)
            JOBS_SUBMITTED.inc(kind=request.kind)
            SHARDS_SUBMITTED.inc(len(shards))
            if job.cached:
                SHARDS_COMPLETED.inc(len(shards))
                JOBS_FINISHED.inc(state=DONE)
            QUEUE_DEPTH.set(self._active_shards_locked())
            self._changed.notify_all()
        return job

    def get(self, job_id: str) -> Job | None:
        """Look one job up by id (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, oldest first."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    # ------------------------------------------------------------------ #
    # Worker-pool side
    # ------------------------------------------------------------------ #
    def claim_shard(self, timeout: float | None = None) -> tuple[Job, Shard] | None:
        """Claim the next pending shard, blocking up to ``timeout`` seconds.

        Marks the shard dispatched (and its job running).  Returns ``None``
        when nothing became available before the timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            while True:
                claimed = self._claim_locked()
                if claimed is not None:
                    return claimed
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._changed.wait(remaining)

    def _claim_locked(self) -> tuple[Job, Shard] | None:
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.state not in (QUEUED, RUNNING):
                continue
            for shard in job.shards:
                if job.shard_states[shard.index] == SHARD_PENDING:
                    job.shard_states[shard.index] = SHARD_DISPATCHED
                    if job.state == QUEUED:
                        job.state = RUNNING
                        job.started_at = time.time()
                    return job, shard
        return None

    def complete_shard(self, job_id: str, shard_index: int, result: ShardResult) -> None:
        """Store a shard's result as it came; finishes the job when it was the last."""
        with self._changed:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return  # cancelled/failed while in flight: drain silently
            job.shard_states[shard_index] = SHARD_DONE
            job.shard_results[shard_index] = result
            SHARDS_COMPLETED.inc()
            if all(state == SHARD_DONE for state in job.shard_states):
                job.state = DONE
                job.finished_at = time.time()
                JOBS_FINISHED.inc(state=DONE)
            QUEUE_DEPTH.set(self._active_shards_locked())
            self._changed.notify_all()

    def fail_shard(self, job_id: str, shard_index: int, error: str) -> None:
        """Mark a shard (and thereby its job) failed; pending shards are skipped."""
        with self._changed:
            job = self._jobs.get(job_id)
            if job is None or job.state in TERMINAL_STATES:
                return
            job.shard_states[shard_index] = SHARD_FAILED
            for index, state in enumerate(job.shard_states):
                if state == SHARD_PENDING:
                    job.shard_states[index] = SHARD_SKIPPED
            job.state = FAILED
            job.error = error
            job.finished_at = time.time()
            SHARDS_FAILED.inc()
            JOBS_FINISHED.inc(state=FAILED)
            QUEUE_DEPTH.set(self._active_shards_locked())
            self._changed.notify_all()

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job: pending shards are skipped, in-flight results drained."""
        with self._changed:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state not in TERMINAL_STATES:
                for index, state in enumerate(job.shard_states):
                    if state == SHARD_PENDING:
                        job.shard_states[index] = SHARD_SKIPPED
                job.state = CANCELLED
                job.finished_at = time.time()
                JOBS_FINISHED.inc(state=CANCELLED)
                QUEUE_DEPTH.set(self._active_shards_locked())
                self._changed.notify_all()
            return job

    def active_shards(self) -> int:
        """Outstanding (pending + dispatched) shards across live jobs."""
        with self._lock:
            return self._active_shards_locked()

    def _active_shards_locked(self) -> int:
        total = 0
        for job in self._jobs.values():
            if job.state in (QUEUED, RUNNING):
                total += sum(
                    1
                    for state in job.shard_states
                    if state in (SHARD_PENDING, SHARD_DISPATCHED)
                )
        return total

    def wait_for_change(self, predicate, timeout: float | None = None) -> bool:
        """Block until ``predicate()`` holds (evaluated under the lock)."""
        with self._changed:
            return self._changed.wait_for(predicate, timeout)

    def stats(self) -> dict[str, Any]:
        """Queue-depth snapshot for ``GET /v1/stats``."""
        with self._lock:
            states = {state: 0 for state in (QUEUED, RUNNING, *TERMINAL_STATES)}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "jobs": states,
                "shards": {"active": self._active_shards_locked()},
                "total_submitted": len(self._jobs),
            }

"""The elastic worker pool: processes (or threads) serving the job queue.

Architecture (all coordination lives in the server process)::

    JobQueue ──claim──> dispatcher ──task queue──> worker 0..N  (procs)
       ^                                               │
       └────────────── collector <──result queue───────┘
                            scaler (periodic ScalingPolicy ticks)

* The **dispatcher** claims pending shards and ships their JSON payloads
  to the shared task queue, keeping at most ``2 × max_workers`` shards in
  flight so a cancelled job's remaining shards stay in the
  :class:`~repro.service.jobs.JobQueue` (where cancellation can skip
  them) instead of being irrevocably queued to workers.
* **Workers** loop ``task → execute_shard_payload → result``; a ``None``
  task is the retirement pill.  Process workers ignore ``SIGINT`` so the
  server process owns shutdown ordering.  A seed block's result travels
  as its column block (pickled through the process queue), not as rows.
* The **collector** records shard results (results of cancelled/failed
  jobs are drained and discarded).
* The **scaler** applies a Parsl-style
  :class:`~repro.service.scaling.ScalingPolicy` every tick: scale up
  toward pending-work parallelism within ``min/init/max`` bounds, scale
  down to ``min_workers`` after the idle timeout.  Decisions are kept for
  ``GET /v1/stats``.

The pool is a context manager, registers an ``atexit`` guard, and
``stop()`` retires, joins and — for stubborn process workers —
terminates, so no campaign (cancelled or not) leaves orphans behind.
"""

from __future__ import annotations

import atexit
import collections
import multiprocessing
import queue as queue_mod
import signal
import threading
import time
from functools import partial
from typing import Any

from ..telemetry import counter as _telemetry_counter
from ..telemetry import gauge as _telemetry_gauge
from ..telemetry import histogram as _telemetry_histogram
from ..telemetry import span
from ..telemetry.logs import get_logger
from ..telemetry.logs import log_event as _log_event
from .jobs import JobQueue
from .scaling import ScalingDecision, ScalingPolicy
from .shards import execute_shard_payload

log_event = partial(_log_event, logger_=get_logger("service"))

#: Supported worker backends.
MODES: tuple[str, ...] = ("process", "thread")

#: Workers currently alive, per backend mode.
POOL_WORKERS = _telemetry_gauge(
    "repro_pool_workers",
    "Workers currently alive in the elastic pool.",
    labels=("mode",),
)

#: Elastic scaling decisions that changed the pool size.
SCALE_EVENTS = _telemetry_counter(
    "repro_pool_scale_events_total",
    "Scaling decisions that changed the pool size, by direction.",
    labels=("direction",),
)

#: Per-shard wall-clock execution latency, recorded by the collector.
#:
#: Workers time their own execution and ship ``elapsed`` back in the
#: result tuple — process workers live in a forked registry the server
#: cannot see, so the server-side collector is the one place every
#: shard's latency (thread or process mode) can land in *this* registry.
SHARD_SECONDS = _telemetry_histogram(
    "repro_shard_seconds",
    "Wall-clock seconds spent executing one shard, by outcome.",
    labels=("status",),
)


def _worker_loop(worker_id: int, tasks, results, is_process: bool = False) -> None:
    """Body of one worker: execute shard payloads until the ``None`` pill."""
    if is_process:
        # The server process owns shutdown ordering; a terminal Ctrl-C
        # must not kill workers before their pills arrive.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, shard_index, payload, run_id = task
        started = time.monotonic()
        with span("worker.shard", run_id=run_id, job=job_id, shard=shard_index,
                  worker=worker_id):
            try:
                result = execute_shard_payload(payload)
                elapsed = time.monotonic() - started
                log_event("worker.shard_done", elapsed_s=round(elapsed, 6))
                results.put((job_id, shard_index, "ok", result, worker_id, elapsed))
            except Exception as error:  # noqa: BLE001 - shipped to the queue as job failure
                elapsed = time.monotonic() - started
                log_event("worker.shard_error", error=f"{type(error).__name__}: {error}")
                results.put(
                    (
                        job_id,
                        shard_index,
                        "error",
                        f"{type(error).__name__}: {error}",
                        worker_id,
                        elapsed,
                    )
                )


#: Live pools, for the atexit guard.
_LIVE_POOLS: "list[WorkerPool]" = []


@atexit.register
def _stop_live_pools() -> None:
    """Last-resort guard: stop any pool the host forgot to stop."""
    for pool in list(_LIVE_POOLS):
        pool.stop(timeout=2.0)


class WorkerPool:
    """Elastic pool of shard workers bound to one :class:`JobQueue`.

    Parameters
    ----------
    jobs:
        The queue to serve.
    policy:
        Scaling bounds and pacing (default: a 1–4 worker pool).
    mode:
        ``"process"`` (default) runs workers as OS processes —
        real CPU parallelism for behavioural campaigns; ``"thread"`` runs
        them as threads in-process (cheap, used by tests and suitable for
        the vectorized batched engine, which releases the GIL in NumPy).
    """

    def __init__(
        self,
        jobs: JobQueue,
        policy: ScalingPolicy | None = None,
        mode: str = "process",
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown worker mode {mode!r}; expected one of {MODES}")
        self.jobs = jobs
        self.policy = policy if policy is not None else ScalingPolicy()
        self.mode = mode
        self._ctx = None
        if mode == "process":
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                self._ctx = multiprocessing.get_context()
        self._tasks: Any = None
        self._results: Any = None
        self._workers: dict[int, Any] = {}
        self._worker_ids = iter(range(1, 1_000_000))
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self._dispatch_window = threading.Semaphore(2 * self.policy.max_workers)
        self._idle_since: float | None = None
        self._decisions: collections.deque[ScalingDecision] = collections.deque(maxlen=64)
        self._spawned_total = 0
        self._retired_total = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Provision ``init_workers`` and start the coordination threads."""
        if self._started:
            return self
        if self.mode == "process":
            self._tasks = self._ctx.Queue()
            self._results = self._ctx.Queue()
        else:
            self._tasks = queue_mod.Queue()
            self._results = queue_mod.Queue()
        self._stop.clear()
        for _ in range(self.policy.init_workers):
            self._spawn_worker()
        self._threads = [
            threading.Thread(target=self._dispatch_loop, name="repro-dispatcher", daemon=True),
            threading.Thread(target=self._collect_loop, name="repro-collector", daemon=True),
            threading.Thread(target=self._scale_loop, name="repro-scaler", daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        self._started = True
        _LIVE_POOLS.append(self)
        log_event(
            "pool.start",
            mode=self.mode,
            min=self.policy.min_workers,
            init=self.policy.init_workers,
            max=self.policy.max_workers,
        )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop coordination, retire every worker, and reap stragglers."""
        if not self._started:
            return
        self._started = False
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        # One pill per worker; pills queue behind any remaining tasks, so
        # workers drain in-flight shards first, then exit.
        for _ in list(self._workers):
            self._tasks.put(None)
        deadline = time.monotonic() + timeout
        for worker_id, handle in list(self._workers.items()):
            handle.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.is_alive() and self.mode == "process":
                handle.terminate()  # never leave orphans, even on a hung shard
                handle.join(timeout=2.0)
            self._workers.pop(worker_id, None)
        if self.mode == "process":
            for q in (self._tasks, self._results):
                q.close()
                q.cancel_join_thread()
        if self in _LIVE_POOLS:
            _LIVE_POOLS.remove(self)
        POOL_WORKERS.set(0, mode=self.mode)
        log_event("pool.stop", mode=self.mode)

    def __enter__(self) -> "WorkerPool":
        """Start the pool when entering a ``with`` block."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the pool (and reap every worker) when the block ends."""
        self.stop()

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> None:
        worker_id = next(self._worker_ids)
        if self.mode == "process":
            handle = self._ctx.Process(
                target=_worker_loop,
                args=(worker_id, self._tasks, self._results, True),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
        else:
            handle = threading.Thread(
                target=_worker_loop,
                args=(worker_id, self._tasks, self._results, False),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
        handle.start()
        self._workers[worker_id] = handle
        self._spawned_total += 1
        POOL_WORKERS.set(len(self._workers), mode=self.mode)
        log_event("pool.spawn", worker=worker_id, count=len(self._workers))

    def _retire_worker(self) -> None:
        self._tasks.put(None)
        self._retired_total += 1

    def _reap_workers(self) -> None:
        for worker_id, handle in list(self._workers.items()):
            if not handle.is_alive():
                handle.join(timeout=0.0)
                self._workers.pop(worker_id, None)
                POOL_WORKERS.set(len(self._workers), mode=self.mode)
                log_event("pool.reap", worker=worker_id, count=len(self._workers))

    def worker_count(self) -> int:
        """Workers currently alive (after reaping finished ones)."""
        self._reap_workers()
        return len(self._workers)

    # ------------------------------------------------------------------ #
    # Coordination loops
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            if not self._dispatch_window.acquire(timeout=0.1):
                continue
            claimed = self.jobs.claim_shard(timeout=0.1)
            if claimed is None:
                self._dispatch_window.release()
                continue
            job, shard = claimed
            with self._state_lock:
                self._in_flight += 1
            self._tasks.put((job.id, shard.index, shard.payload, job.run_id))
            fields = {"job": job.id, "shard": shard.index, "specs": len(shard.spec_indices)}
            if job.run_id is not None:
                fields["run_id"] = job.run_id
            log_event("job.dispatch", **fields)

    def _collect_loop(self) -> None:
        while not self._stop.is_set() or self._in_flight > 0:
            try:
                result = self._results.get(timeout=0.1)
            except queue_mod.Empty:
                continue
            job_id, shard_index, status, payload, worker_id, elapsed = result
            with self._state_lock:
                self._in_flight = max(0, self._in_flight - 1)
            self._dispatch_window.release()
            SHARD_SECONDS.observe(elapsed, status=status)
            job = self.jobs.get(job_id)
            fields = {"job": job_id, "shard": shard_index, "worker": worker_id,
                      "elapsed_s": round(elapsed, 6)}
            if job is not None and job.run_id is not None:
                fields["run_id"] = job.run_id
            if status == "ok":
                self.jobs.complete_shard(job_id, shard_index, payload)
                log_event("job.shard_done", **fields)
            else:
                self.jobs.fail_shard(job_id, shard_index, payload)
                log_event("job.shard_failed", error=payload, **fields)

    def _scale_loop(self) -> None:
        while not self._stop.wait(self.policy.interval_s):
            self.scale_tick()

    def scale_tick(self) -> ScalingDecision:
        """Run one scaling decision and apply it (also used by tests)."""
        active = self.jobs.active_shards()
        now = time.monotonic()
        if active > 0:
            self._idle_since = None
            idle_seconds = 0.0
        else:
            if self._idle_since is None:
                self._idle_since = now
            idle_seconds = now - self._idle_since
        current = self.worker_count()
        decision = self.policy.target(active, current, idle_seconds)
        last = self._decisions[-1] if self._decisions else None
        if last is None or decision.changed or decision.reason != last.reason:
            self._decisions.append(decision)
        if decision.target > current:
            for _ in range(decision.target - current):
                self._spawn_worker()
            SCALE_EVENTS.inc(direction="up")
            log_event("pool.scale_up", **decision.to_dict())
        elif decision.target < current:
            for _ in range(current - decision.target):
                self._retire_worker()
            SCALE_EVENTS.inc(direction="down")
            log_event("pool.scale_down", **decision.to_dict())
        return decision

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Pool snapshot for ``GET /v1/stats``."""
        with self._state_lock:
            in_flight = self._in_flight
        return {
            "mode": self.mode,
            "workers": self.worker_count(),
            "busy": min(in_flight, len(self._workers)),
            "in_flight_shards": in_flight,
            "spawned_total": self._spawned_total,
            "retired_total": self._retired_total,
            "policy": {
                "min_workers": self.policy.min_workers,
                "init_workers": self.policy.init_workers,
                "max_workers": self.policy.max_workers,
                "parallelism": self.policy.parallelism,
                "idle_timeout_s": self.policy.idle_timeout_s,
                "interval_s": self.policy.interval_s,
            },
            "decisions": [decision.to_dict() for decision in self._decisions],
        }

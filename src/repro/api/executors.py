"""Pluggable execution backends for experiment specs.

:func:`execute_spec` is the single worker function turning one
:class:`~repro.api.spec.ExperimentSpec` into a :class:`RunOutcome`; it is
a module-level function precisely so :class:`ParallelExecutor` can ship it
to :class:`concurrent.futures.ProcessPoolExecutor` workers (specs are
picklable by construction).

Every executor preserves input order — ``map(specs)[i]`` is always the
outcome of ``specs[i]`` — so any aggregate computed over the outcomes is
bit-identical regardless of the backend or the number of workers.
``engine="batched"`` records do not depend on how seeds are grouped
either (counter-based fault streams, workload profiled at seed 0), and
the design kinds, which always run on the grid solvers of
:mod:`repro.batch`, carry no randomness at all.

:meth:`Executor.map` runs specs on their declared engines, and
:meth:`Executor.block_runner` runs the seed blocks the warehouse planner
cuts for every campaign and batched seed group, under every executor.
"""

from __future__ import annotations

import abc
import atexit
import os
import time
import weakref
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from ..batch import BatchTaskModel
from ..batch.design import grid_feasible_region, grid_optimize
from ..batch.engine import (
    ColumnBlock,
    block_from_records,
    iter_column_blocks,
    join_blocks,
    records_from_columns,
)
from ..batch.pareto import grid_pareto_front
from ..runtime.executor import TaskExecutor
from ..telemetry import counter as _telemetry_counter
from ..telemetry import histogram as _telemetry_histogram
from ..telemetry import log_event
from .registry import build_fault_model, build_scenario, build_strategy
from .spec import ExperimentSpec

#: Specs executed, labeled by spec kind and engine.
SPECS_EXECUTED = _telemetry_counter(
    "repro_specs_executed_total",
    "Experiment specs executed, by spec kind and engine.",
    labels=("kind", "engine"),
)

#: One per task model a block runner builds: a batched campaign, a
#: ``run_all`` seed group of two or more seeds, or a service block shard
#: that misses a block (a fully warehoused one builds none).
BATCH_GROUPS = _telemetry_counter(
    "repro_batch_groups_total",
    "Task models built to simulate the seed blocks of one batched base spec.",
)

#: Wall-clock of whole executor map() calls, by executor backend.
MAP_SECONDS = _telemetry_histogram(
    "repro_executor_map_seconds",
    "Wall-clock seconds of executor map() calls, by backend.",
    labels=("executor",),
)


@dataclass
class RunOutcome:
    """Everything one spec execution produced.

    Attributes
    ----------
    spec:
        The spec that was executed.
    records:
        Flat, JSON-able metric rows (usually exactly one; feasibility
        sweeps yield one row per boundary point).
    artifact:
        Optional rich result object for in-process consumers — the
        :class:`~repro.core.optimizer.OptimizationResult` of an
        ``optimize`` run, the :class:`~repro.core.feasibility.FeasibleRegion`
        of a ``feasibility`` run.  Always picklable, never JSON-serialized.
    """

    spec: ExperimentSpec
    records: list[dict[str, Any]] = field(default_factory=list)
    artifact: Any = None

    @property
    def record(self) -> dict[str, Any]:
        """The single record of a one-row outcome."""
        if len(self.records) != 1:
            raise ValueError(f"outcome has {len(self.records)} records, expected exactly 1")
        return self.records[0]


# ---------------------------------------------------------------------- #
# The worker function
# ---------------------------------------------------------------------- #
def _execute_behavioural(spec: ExperimentSpec) -> RunOutcome:
    app = spec.resolve_app()
    strategy = build_strategy(spec.strategy, app, spec.constraints, **spec.strategy_params)
    fault_model = build_fault_model(spec.fault_model, **spec.fault_params)
    scenario = build_scenario(
        spec.scenario, base_rate=spec.constraints.error_rate, **spec.scenario_params
    )
    executor = TaskExecutor(
        app,
        strategy,
        constraints=spec.constraints,
        seed=spec.seed,
        fault_model=fault_model,
        collect_trace=spec.collect_trace,
        scenario=scenario,
    )
    result = executor.run()
    stats = result.stats
    record: dict[str, Any] = {
        "application": stats.application,
        "strategy": stats.configuration,
        "scenario": spec.scenario_name,
        "seed": spec.seed,
        **stats.as_dict(),
        "energy_nj": stats.total_energy_nj,
        "deadline_met": 1.0 if stats.deadline_met else 0.0,
        "fully_mitigated": 1.0 if stats.fully_mitigated else 0.0,
    }
    return RunOutcome(spec=spec, records=[record])


def _execute_optimization(spec: ExperimentSpec) -> RunOutcome:
    app = spec.resolve_app()
    result = grid_optimize(app, spec.constraints, seed=spec.seed)
    best = result.best
    record: dict[str, Any] = {
        "application": app.name,
        "seed": spec.seed,
        "chunk_words": result.chunk_words,
        "num_checkpoints": result.num_checkpoints,
        "expected_faulty_chunks": best.expected_faulty_chunks,
        "energy_overhead_fraction": best.energy_overhead_fraction,
        "cycle_overhead_fraction": best.cycle_overhead_fraction,
        "area_fraction": best.area_fraction,
        "buffer_capacity_words": best.buffer_capacity_words,
    }
    return RunOutcome(spec=spec, records=[record], artifact=result)


def _execute_feasibility(spec: ExperimentSpec) -> RunOutcome:
    params = dict(spec.params)
    max_chunk_words = int(params.pop("max_chunk_words", 512))
    max_correctable_bits = int(params.pop("max_correctable_bits", 18))
    chunk_stride = int(params.pop("chunk_stride", 1))
    if params:
        raise ValueError(f"unknown feasibility params: {sorted(params)}")
    region = grid_feasible_region(
        constraints=spec.constraints,
        chunk_sizes=range(1, max_chunk_words + 1, chunk_stride),
        correctable_bits=range(1, max_correctable_bits + 1),
    )
    records = [
        {"chunk_words": chunk, "max_correctable_bits": bits}
        for chunk, bits in region.boundary()
    ]
    return RunOutcome(spec=spec, records=records, artifact=region)


def _execute_pareto(spec: ExperimentSpec) -> RunOutcome:
    app = spec.resolve_app()
    params = dict(spec.params)
    kwargs: dict[str, Any] = {}
    for axis in ("objectives", "nodes", "schemes", "correctable_bits", "rate_levels"):
        if axis in params:
            # Passed through verbatim: the explorer normalizes bare
            # scalars itself (tuple("65nm") would explode the name).
            kwargs[axis] = params.pop(axis)
    max_chunk_words = int(params.pop("max_chunk_words", 512))
    chunk_stride = int(params.pop("chunk_stride", 1))
    if params:
        raise ValueError(f"unknown pareto params: {sorted(params)}")
    # The spec's fault model shapes the failure objective (None keeps the
    # explorer's default SMU mixture, matching the executor default).
    if spec.fault_model is None and spec.fault_params:
        raise ValueError(
            "pareto specs need fault_model set for fault_params to apply "
            "(the default SMU mixture would silently ignore them)"
        )
    fault_model = build_fault_model(spec.fault_model, **spec.fault_params)
    front = grid_pareto_front(
        app,
        constraints=spec.constraints,
        seed=spec.seed,
        max_chunk_words=max_chunk_words,
        chunk_stride=chunk_stride,
        fault_model=fault_model,
        **kwargs,
    )
    return RunOutcome(spec=spec, records=front.rows(), artifact=front)


def _build_batch_model(spec: ExperimentSpec) -> BatchTaskModel:
    app = spec.resolve_app()
    strategy = build_strategy(spec.strategy, app, spec.constraints, **spec.strategy_params)
    fault_model = build_fault_model(spec.fault_model, **spec.fault_params)
    scenario = build_scenario(
        spec.scenario, base_rate=spec.constraints.error_rate, **spec.scenario_params
    )
    return BatchTaskModel(
        app,
        strategy,
        constraints=spec.constraints,
        fault_model=fault_model,
        scenario=scenario,
    )


class BlockSimulator:
    """Simulates seed blocks of one batched base spec on one task model.

    The model is built on first use: a fully warehoused campaign builds none.
    """

    def __init__(self, base: ExperimentSpec) -> None:
        self.base = base
        self._model: BatchTaskModel | None = None

    def __call__(self, seeds: np.ndarray) -> ColumnBlock:
        if self._model is None:
            self._model = _build_batch_model(self.base)
            BATCH_GROUPS.inc()
        block = join_blocks(iter_column_blocks(self._model, seeds, label=self.base.scenario_name))
        SPECS_EXECUTED.inc(len(seeds), kind="execute", engine="batched")
        return block


def _execute_batched(spec: ExperimentSpec) -> RunOutcome:
    model = _build_batch_model(spec)
    (block,) = iter_column_blocks(model, [spec.seed], label=spec.scenario_name)
    return RunOutcome(spec=spec, records=records_from_columns(block))


def _execute_one(spec: ExperimentSpec) -> RunOutcome:
    if spec.engine == "batched":
        return _execute_batched(spec)
    return _execute_behavioural(spec)


_KIND_HANDLERS = {
    "execute": _execute_one,
    "optimize": _execute_optimization,
    "feasibility": _execute_feasibility,
    "pareto": _execute_pareto,
}


def execute_spec(spec: ExperimentSpec) -> RunOutcome:
    """Execute one spec in the current process and return its outcome."""
    outcome = _KIND_HANDLERS[spec.kind](spec)
    SPECS_EXECUTED.inc(kind=spec.kind, engine=spec.engine)
    return outcome


# ---------------------------------------------------------------------- #
# Executors
# ---------------------------------------------------------------------- #
class Executor(abc.ABC):
    """Backend turning a batch of specs into outcomes, preserving order."""

    name: str = "abstract"

    @abc.abstractmethod
    def map(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """Execute every spec and return outcomes in input order."""

    def block_runner(self, base: ExperimentSpec) -> Callable[[np.ndarray], ColumnBlock]:
        """A callable running seed blocks (``uint64`` arrays) of the ``execute`` spec ``base``.

        A batched base runs in process on one task model; a behavioural one
        runs one spec per seed through :meth:`map`, packed as columns.
        """
        if base.engine == "batched":
            return BlockSimulator(base)

        def run(seeds: np.ndarray) -> ColumnBlock:
            outcomes = self.map([replace(base, seed=seed) for seed in seeds.tolist()])
            return block_from_records([outcome.record for outcome in outcomes], seeds)

        return run

    def close(self) -> None:
        """Release any resources held between :meth:`map` calls (no-op here)."""

    def __enter__(self) -> "Executor":
        """Enter a scope that guarantees :meth:`close` on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Release held resources when the scope ends."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


#: Executors holding live worker pools, so one atexit pass can release
#: them even when an interpreter shutdown interrupts a campaign mid-map.
_LIVE_EXECUTORS: "weakref.WeakSet[ParallelExecutor]" = weakref.WeakSet()


@atexit.register
def _shutdown_live_executors() -> None:
    """Last-resort guard: never leave orphaned worker processes behind."""
    for executor in list(_LIVE_EXECUTORS):
        executor.close(wait=False)


class SerialExecutor(Executor):
    """Runs every spec sequentially in the calling process."""

    name = "serial"

    def map(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """Execute the specs one by one, in place, in input order."""
        started = time.monotonic()
        try:
            return [execute_spec(spec) for spec in specs]
        finally:
            MAP_SECONDS.observe(time.monotonic() - started, executor=self.name)


class ParallelExecutor(Executor):
    """Fans specs out across worker processes.

    Results are returned in input order, so aggregates computed from them
    are bit-identical to a :class:`SerialExecutor` run of the same specs.

    The process pool is created lazily, sized to ``min(jobs, len(specs))``
    (a 4-spec campaign never provisions 16 workers), and reused across
    :meth:`map` calls.  Interrupting a campaign (``SIGINT``/``SIGTERM``,
    or any error raised by a spec) cancels the pending specs and releases
    the pool immediately; :meth:`close`, the context-manager protocol,
    garbage collection and a process-wide ``atexit`` guard all release it
    too, so a cancelled campaign cannot leave orphaned workers behind.

    Parameters
    ----------
    jobs:
        Number of worker processes; defaults to the machine's CPU count.
        Batches smaller than two specs (or ``jobs=1``) run serially to
        avoid pointless process start-up cost.
    """

    name = "parallel"

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = int(jobs)
        # The pool lives in a shared one-slot holder so the gc finalizer
        # can reach it without keeping the executor itself alive.
        self._pool_holder: list[ProcessPoolExecutor] = []
        self._pool_size = 0
        _LIVE_EXECUTORS.add(self)
        self._finalizer = weakref.finalize(self, _release_pool_holder, self._pool_holder)

    def effective_workers(self, spec_count: int) -> int:
        """Worker count actually provisioned for a batch of ``spec_count``."""
        return max(1, min(self.jobs, spec_count))

    @property
    def _pool(self) -> ProcessPoolExecutor | None:
        return self._pool_holder[0] if self._pool_holder else None

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        if self._pool_holder and self._pool_size < workers:
            self.close()
        if not self._pool_holder:
            self._pool_holder.append(ProcessPoolExecutor(max_workers=workers))
            self._pool_size = workers
            log_event("executor.pool_start", executor=self.name, workers=workers)
        return self._pool_holder[0]

    def map(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """Fan the specs out across worker processes, preserving input order."""
        specs = list(specs)
        started = time.monotonic()
        if len(specs) < 2 or self.jobs == 1:
            try:
                return [execute_spec(spec) for spec in specs]
            finally:
                MAP_SECONDS.observe(time.monotonic() - started, executor=self.name)
        pool = self._ensure_pool(self.effective_workers(len(specs)))
        futures = [pool.submit(execute_spec, spec) for spec in specs]
        try:
            outcomes = [future.result() for future in futures]
        except BaseException as error:
            # KeyboardInterrupt / SIGTERM / a failing spec: drop the
            # not-yet-started specs and tear the pool down rather than
            # letting __exit__-style semantics block on in-flight work.
            cancelled = sum(1 for future in futures if future.cancel())
            log_event(
                "executor.pool_cancel",
                executor=self.name,
                specs=len(specs),
                cancelled=cancelled,
                cause=type(error).__name__,
            )
            self.close(wait=False)
            raise
        for spec in specs:
            SPECS_EXECUTED.inc(kind=spec.kind, engine=spec.engine)
        MAP_SECONDS.observe(time.monotonic() - started, executor=self.name)
        return outcomes

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down (idempotent; pending work is cancelled)."""
        self._pool_size = 0
        had_pool = bool(self._pool_holder)
        while self._pool_holder:
            self._pool_holder.pop().shutdown(wait=wait, cancel_futures=True)
        if had_pool:
            log_event("executor.pool_teardown", executor=self.name, waited=wait)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelExecutor(jobs={self.jobs})"


def _release_pool_holder(holder: list[ProcessPoolExecutor]) -> None:
    """Finalizer body: shut down whatever pool the executor still held."""
    while holder:
        holder.pop().shutdown(wait=False, cancel_futures=True)


class BatchCampaignExecutor(Executor):
    """Vectorized backend: simulates same-experiment seed groups in one shot.

    :meth:`map` plans its specs through
    :func:`repro.warehouse.planner.plan_and_run`: batched ``execute``
    specs equal except for their seed run their seed blocks on one
    :class:`~repro.batch.BatchTaskModel`, so a 1000-seed campaign costs
    one task profile plus array operations instead of 1000 event-by-event
    simulations, and the rows keep the behavioural record shape.

    Every other spec — behavioural runs, the design-space kinds and
    batched specs whose group has one seed — is delegated to ``fallback``
    (default: a :class:`SerialExecutor`), which runs it on the engine its
    spec names; a parallel fallback thus spreads a one-seed-per-point
    sweep across its workers.  The executor never changes a spec's engine.

    Every group's workload input is profiled at the canonical seed 0 and
    each run's fault stream is counter-based on its own seed
    (:meth:`repro.batch.BatchTaskModel.make_streams`), so grouped, sharded
    or solo, a (spec, seed) pair emits the same row.
    """

    name = "batched"

    def __init__(self, fallback: Executor | None = None) -> None:
        self.fallback = fallback if fallback is not None else SerialExecutor()

    def close(self) -> None:
        """Release whatever resources the fallback executor holds."""
        self.fallback.close()

    def block_runner(self, base: ExperimentSpec) -> Callable[[np.ndarray], ColumnBlock]:
        """The fallback's runner: a block's seeds were planned already."""
        return self.fallback.block_runner(base)

    def map(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """Run ``specs`` through the warehouse planner on ``fallback`` (see class)."""
        from ..warehouse.planner import plan_and_run

        started = time.monotonic()
        try:
            return plan_and_run(specs, self.fallback)
        finally:
            MAP_SECONDS.observe(time.monotonic() - started, executor=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchCampaignExecutor(fallback={self.fallback!r})"


def make_executor(jobs: int | None) -> Executor:
    """Executor for ``--jobs N`` style requests.

    ``None``/``0``/``1`` jobs mean serial and more mean a process pool.
    The engine is not the executor's to choose: it is a field of each
    spec, and the planner groups batched seeds under every executor.
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)

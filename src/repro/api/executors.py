"""Pluggable execution backends for experiment specs.

:func:`execute_spec` is the single worker function turning one
:class:`~repro.api.spec.ExperimentSpec` into a :class:`RunOutcome`; it is
a module-level function precisely so :class:`ParallelExecutor` can ship it
to :class:`concurrent.futures.ProcessPoolExecutor` workers (specs are
picklable by construction).

Every executor preserves input order — ``map(specs)[i]`` is always the
outcome of ``specs[i]`` — so any aggregate computed over the outcomes is
bit-identical regardless of the backend or the number of workers.  This
now includes ``engine="batched"`` specs: their fault streams are
counter-based per (seed, draw) — see :mod:`repro.batch.substrate` — and
every batched path profiles the workload at the canonical seed 0, so a
spec's record no longer depends on how an executor groups seeds.  A
:class:`SerialExecutor` run, a grouped :class:`BatchCampaignExecutor`
run and a sharded service run of the same specs emit identical rows.
``optimize`` / ``feasibility`` / ``pareto`` specs carry no randomness at
all: the vectorized design engines serving their ``engine="batched"``
path (:mod:`repro.batch.design`, :mod:`repro.batch.pareto`) are
bit-identical to the behavioural sweeps, on every executor.
"""

from __future__ import annotations

import abc
import atexit
import json
import os
import time
import weakref
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

from ..batch import BatchTaskModel
from ..batch.design import grid_feasible_region, grid_optimize
from ..batch.pareto import grid_pareto_front, reference_pareto_front
from ..core.feasibility import feasible_region
from ..core.optimizer import ChunkSizeOptimizer
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

#: Vectorized seed groups served by the batch campaign executor.
BATCH_GROUPS = _telemetry_counter(
    "repro_batch_groups_total",
    "Same-experiment seed groups simulated vectorized by BatchCampaignExecutor.",
)

#: Specs the batch executor could not vectorize (behavioural fallback).
BATCH_FALLBACKS = _telemetry_counter(
    "repro_batch_fallback_specs_total",
    "Specs BatchCampaignExecutor delegated to its behavioural fallback.",
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
    if spec.engine == "batched":
        # Vectorized grid engine — bit-identical to the behavioural sweep
        # (same candidates, same argmin), evaluated as array operations.
        result = grid_optimize(app, spec.constraints, seed=spec.seed)
    else:
        result = ChunkSizeOptimizer(spec.constraints).optimize(app, seed=spec.seed)
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
    sweep = grid_feasible_region if spec.engine == "batched" else feasible_region
    region = sweep(
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
    # Both engines are bit-identical (tests/batch/test_pareto.py); the
    # scalar reference exists for exact-equality testing.
    explore = grid_pareto_front if spec.engine == "batched" else reference_pareto_front
    front = explore(
        app,
        constraints=spec.constraints,
        seed=spec.seed,
        max_chunk_words=max_chunk_words,
        chunk_stride=chunk_stride,
        fault_model=fault_model,
        **kwargs,
    )
    return RunOutcome(spec=spec, records=front.rows(), artifact=front)


def _build_batch_model(spec: ExperimentSpec, profile_seed: int = 0) -> BatchTaskModel:
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
        profile_seed=profile_seed,
    )


def _execute_batched(spec: ExperimentSpec) -> RunOutcome:
    # profile_seed is pinned to 0 on every batched path (solo, grouped,
    # sharded) so a seed's record is composition-invariant.
    model = _build_batch_model(spec)
    records = model.simulate([spec.seed], scenario_label=spec.scenario_name)
    return RunOutcome(spec=spec, records=records)


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

    #: Whether this backend already serves ``engine="batched"`` specs
    #: vectorized (or ships them somewhere that does).  ``Session.campaign``
    #: wraps executors that do not in a :class:`BatchCampaignExecutor`.
    serves_batched: bool = False

    @abc.abstractmethod
    def map(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """Execute every spec and return outcomes in input order."""

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

    Specs are grouped by everything except their seed; each group runs
    through one :class:`~repro.batch.BatchTaskModel`, so a 1000-seed
    campaign costs one task profile plus array operations instead of 1000
    event-by-event simulations.  Outcomes come back in input order with
    the behavioural record shape, so sessions, campaigns, sweeps and the
    figure harnesses consume them unchanged.

    ``optimize``, ``feasibility`` and ``pareto`` specs are served by the
    vectorized design engines (:mod:`repro.batch.design`,
    :mod:`repro.batch.pareto`) — bit-identical to the behavioural
    per-point sweeps, so unlike execute-kind batching there is no
    statistical caveat.  Only specs no batch path can serve —
    trace-collecting runs — are delegated to ``fallback`` (default: a
    :class:`SerialExecutor`).

    Every group's workload input is profiled at the canonical seed 0 and
    each run's fault stream is counter-based on its own seed
    (:meth:`repro.batch.BatchTaskModel.make_streams`), so a run's record
    is independent of its batch composition: extending the seed list,
    splitting the campaign into shards or replaying one seed solo all
    emit identical rows, across processes and machines.  Individual
    (spec, seed) pairs — not whole campaigns — are the unit of
    reproducibility.
    """

    name = "batched"
    serves_batched = True

    def __init__(self, fallback: Executor | None = None) -> None:
        self.fallback = fallback if fallback is not None else SerialExecutor()

    def close(self) -> None:
        """Release whatever resources the fallback executor holds."""
        self.fallback.close()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _group_key(spec: ExperimentSpec):
        """Hashable identity of a spec minus its seed (None = not batchable)."""
        if spec.kind != "execute" or spec.collect_trace:
            return None
        try:
            payload = spec.to_dict()
            payload.pop("seed")
            return json.dumps(payload, sort_keys=True, default=repr)
        except ValueError:
            # Live application / scenario instances: group by object
            # identity — campaigns reuse the same instance across seeds.
            app = spec.app if isinstance(spec.app, str) else id(spec.app)
            scenario = (
                spec.scenario if isinstance(spec.scenario, str) else id(spec.scenario)
            )
            return (
                app,
                spec.strategy,
                repr(sorted(spec.strategy_params.items())),
                spec.constraints,
                spec.fault_model,
                repr(sorted(spec.fault_params.items())),
                scenario,
                repr(sorted(spec.scenario_params.items())),
            )

    def map(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """Serve each same-experiment seed group in one vectorized shot.

        Consults the result warehouse first (group units — one per seed
        group, keyed by the ordered seed list); only missing groups are
        simulated, and calls already planned by an enclosing
        :meth:`Session.run_all` pass straight through.
        """
        from ..warehouse.planner import plan_and_run

        return plan_and_run(list(specs), self._map_uncached, grouped=True)

    def _map_uncached(self, specs: Sequence[ExperimentSpec]) -> list[RunOutcome]:
        """The vectorized execution body, bypassing the warehouse."""
        specs = list(specs)
        started = time.monotonic()
        outcomes: list[RunOutcome | None] = [None] * len(specs)
        groups: dict[Any, list[int]] = {}
        passthrough: list[int] = []
        for index, spec in enumerate(specs):
            key = self._group_key(spec)
            if key is not None:
                groups.setdefault(key, []).append(index)
            elif spec.kind in ("optimize", "feasibility", "pareto") and not spec.collect_trace:
                # Design-space kinds vectorize per spec (no seed grouping
                # needed); results are bit-identical to the behavioural
                # path, so there is nothing to fall back for.
                outcomes[index] = _KIND_HANDLERS[spec.kind](
                    spec if spec.engine == "batched" else replace(spec, engine="batched")
                )
                SPECS_EXECUTED.inc(kind=spec.kind, engine="batched")
            else:
                passthrough.append(index)

        for indices in groups.values():
            group = [specs[i] for i in indices]
            model = _build_batch_model(group[0])
            records = model.simulate(
                [spec.seed for spec in group], scenario_label=group[0].scenario_name
            )
            for i, spec, record in zip(indices, group, records):
                outcomes[i] = RunOutcome(spec=spec, records=[record])
            BATCH_GROUPS.inc()
            SPECS_EXECUTED.inc(len(group), kind="execute", engine="batched")

        if passthrough:
            BATCH_FALLBACKS.inc(len(passthrough))
            delegated = self.fallback.map([specs[i] for i in passthrough])
            for i, outcome in zip(passthrough, delegated):
                outcomes[i] = outcome
        MAP_SECONDS.observe(time.monotonic() - started, executor=self.name)
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchCampaignExecutor(fallback={self.fallback!r})"


def make_executor(jobs: int | None, engine: str | None = None) -> Executor:
    """Executor for ``--jobs N`` / ``--engine`` style requests.

    ``engine="batched"`` returns a :class:`BatchCampaignExecutor` whose
    fallback (for non-batchable specs) honours ``jobs``; otherwise
    ``None``/``0``/``1`` jobs mean serial and more mean a process pool.
    Unknown engine names are rejected rather than silently ignored.
    """
    from .spec import ENGINES

    if engine is not None and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "batched":
        return BatchCampaignExecutor(
            fallback=make_executor(jobs) if jobs and jobs > 1 else None
        )
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)

"""The Session facade: one front door for running experiments.

A :class:`Session` binds a default operating point and execution backend,
and exposes the three workload shapes every harness reduces to:

* :meth:`Session.run` — one spec, one outcome;
* :meth:`Session.sweep` — a parameter grid, merged into one
  :class:`~repro.api.results.ResultSet` with the swept coordinates as
  leading columns;
* :meth:`Session.campaign` — the same experiment over many fault seeds,
  aggregated through :func:`repro.faults.campaign.aggregate_runs` into a
  :class:`~repro.faults.campaign.CampaignReport` (mean / stdev / median /
  p95 / min / max per metric);
* :meth:`Session.pareto` — the cross-technology multi-objective design
  sweep of :mod:`repro.batch.pareto`, returning a
  :class:`~repro.batch.pareto.ParetoFront`.

Every entry point accepts an ``executor`` (or ``jobs``) override, so the
same code runs serially or fans out across cores; outcome ordering — and
therefore every aggregate — is identical either way.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from typing import Any

from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..faults.campaign import CampaignReport, aggregate_runs
from ..telemetry import log_event, span
from ..telemetry import snapshot as _telemetry_snapshot
from .executors import (
    BatchCampaignExecutor,
    Executor,
    RunOutcome,
    SerialExecutor,
    make_executor,
)
from .results import ResultSet
from .spec import CampaignSpec, ENGINES, ExperimentSpec, SweepSpec


class Session:
    """Runs experiment specs against a chosen execution backend.

    Parameters
    ----------
    constraints:
        Default operating point for specs built via :meth:`spec`
        (defaults to the paper's).
    executor:
        Default execution backend (defaults to :class:`SerialExecutor`).
    """

    def __init__(
        self,
        constraints: DesignConstraints | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
        self.executor = executor if executor is not None else SerialExecutor()

    @classmethod
    def connect(
        cls,
        url: str,
        constraints: DesignConstraints | None = None,
        timeout: float = 300.0,
    ) -> "Session":
        """Open a session that executes on a remote experiment server.

        The returned session is a thin HTTP client: every entry point
        (``run`` / ``sweep`` / ``campaign``) submits its specs to the
        ``repro-experiments serve`` instance at ``url`` as one job on the
        same queue the service CLI uses, streams the outcome rows back,
        and aggregates locally — so a campaign submitted over HTTP is
        bit-identical (same rows, same order) to the in-process run, for
        both engines.  Specs must be registry-named (serializable), and
        rich artifacts (``optimize``/``pareto`` objects) stay server-side:
        only metric records travel.

        >>> session = Session.connect("http://127.0.0.1:8077")  # doctest: +SKIP
        >>> session.campaign(spec).mean("energy_nj")  # doctest: +SKIP
        """
        from ..service.client import RemoteExecutor, ServiceClient

        return cls(
            constraints=constraints,
            executor=RemoteExecutor(ServiceClient(url, timeout=timeout)),
        )

    def _resolve_executor(self, executor: Executor | None, jobs: int | None) -> Executor:
        if executor is not None:
            return executor
        if jobs is not None:
            return make_executor(jobs)
        return self.executor

    @staticmethod
    def metrics() -> dict[str, Any]:
        """A snapshot of the process-wide telemetry registry.

        Counters/gauges/histograms accumulated by everything this process
        ran — executors, engines, the profile cache, service clients —
        keyed by metric name (see :func:`repro.telemetry.snapshot`).
        """
        return _telemetry_snapshot()

    # ------------------------------------------------------------------ #
    # Spec construction sugar
    # ------------------------------------------------------------------ #
    def spec(self, app, **kwargs) -> ExperimentSpec:
        """Build a spec carrying this session's default constraints."""
        kwargs.setdefault("constraints", self.constraints)
        return ExperimentSpec(app=app, **kwargs)

    # ------------------------------------------------------------------ #
    # Execution entry points
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: ExperimentSpec,
        executor: Executor | None = None,
        jobs: int | None = None,
    ) -> RunOutcome:
        """Execute one spec and return its outcome."""
        return self.run_all([spec], executor=executor, jobs=jobs)[0]

    def run_all(
        self,
        specs: Sequence[ExperimentSpec],
        executor: Executor | None = None,
        jobs: int | None = None,
    ) -> list[RunOutcome]:
        """Execute a batch of specs, preserving input order.

        Consults the result warehouse first: specs whose units are already
        stored are served from disk, only the delta executes, and fresh
        results sync back — bit-identical to a cold run, on every backend
        (disable with ``REPRO_NO_WAREHOUSE=1``).
        """
        # Deferred import: the warehouse depends on the executor layer.
        from ..warehouse.planner import plan_and_run

        # One correlation span per entry: nested calls (campaign → run_all)
        # inherit the enclosing run ID, and Session.connect submits carry
        # it over the wire to the server.
        with span("session.run_all"):
            chosen = self._resolve_executor(executor, jobs)
            # Grouped executors serve batched execute specs as whole seed
            # groups, so the warehouse must plan (and store) group units.
            return plan_and_run(list(specs), chosen.map, grouped=chosen.serves_batched)

    def sweep(
        self,
        spec: SweepSpec,
        executor: Executor | None = None,
        jobs: int | None = None,
        title: str | None = None,
    ) -> ResultSet:
        """Execute a parameter grid and merge it into one result set.

        Each outcome record is prefixed with its swept coordinates (axis
        name → value), so the returned :class:`ResultSet` is directly
        renderable and machine-readable.
        """
        with span("session.sweep") as sweep_span:
            points = spec.points()
            log_event("sweep.start", points=len(points))
            outcomes = self.run_all(spec.expand(), executor=executor, jobs=jobs)
            records = []
            for point, outcome in zip(points, outcomes):
                for record in outcome.records:
                    records.append({**point, **record})
            axes = ", ".join(spec.parameters)
            log_event(
                "sweep.done",
                points=len(points),
                rows=len(records),
                elapsed_s=round(sweep_span.elapsed(), 6),
            )
            return ResultSet.from_records(
                title if title is not None else f"Sweep over {axes}",
                records,
            ).with_metrics(_telemetry_snapshot())

    def campaign(
        self,
        spec: CampaignSpec | ExperimentSpec,
        seeds: Sequence[int] | None = None,
        executor: Executor | None = None,
        jobs: int | None = None,
        engine: str | None = None,
        stream: bool = False,
    ) -> CampaignReport:
        """Run a multi-seed campaign and aggregate its metrics.

        Accepts a :class:`CampaignSpec`, or a bare :class:`ExperimentSpec`
        plus ``seeds`` (defaulting to ``range(10)``) for convenience.  The
        aggregation is order-stable: serial and parallel executors produce
        bit-identical reports for the same seed set.

        ``engine="batched"`` (or a base spec carrying
        ``engine="batched"``) routes the whole campaign through the
        vectorized :class:`BatchCampaignExecutor` — one task profile plus
        array operations for all seeds, statistically equivalent to the
        behavioural engine and dramatically faster at campaign scale.

        ``stream=True`` (batched ``execute`` campaigns only) runs the
        campaign out-of-core: seeds execute in fixed-size blocks
        (``REPRO_BATCH_BLOCK``) folded through a
        :class:`~repro.batch.streaming.StreamingAggregator`, so memory is
        bounded by the block size instead of the seed count.  The
        report's statistics are bit-identical to the materialized path;
        its ``raw`` per-run rows are empty (that is the point), and the
        streamed run bypasses the result warehouse — per-row caching
        would re-materialize exactly what streaming avoids.
        """
        if isinstance(spec, ExperimentSpec):
            spec = CampaignSpec(base=spec, seeds=tuple(seeds) if seeds is not None else ())
        elif seeds is not None:
            raise ValueError("pass seeds inside the CampaignSpec, not alongside it")
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        if engine is None:
            engine = spec.base.engine
        elif engine != spec.base.engine:
            # An explicit engine argument wins over the base spec, so e.g.
            # engine="behavioural" really cross-checks a batched spec
            # against the ground-truth engine instead of being ignored.
            spec = replace(spec, base=replace(spec.base, engine=engine))
        if stream:
            return self._stream_campaign(spec, engine)
        if engine == "batched":
            executor = self._resolve_executor(executor, jobs)
            if not executor.serves_batched:
                # Keep the vectorized grouping (one task model per seed
                # group) and let the caller's executor serve whatever the
                # batch engine cannot — running batched specs one by one
                # through a plain executor would rebuild the model per seed.
                # Backends that already serve batched specs vectorized
                # (BatchCampaignExecutor itself, the service's
                # RemoteExecutor) pass through untouched.
                executor = BatchCampaignExecutor(fallback=executor)
            jobs = None
        expanded = spec.expand()
        with span("session.campaign") as campaign_span:
            log_event("campaign.start", seeds=len(expanded), engine=engine)
            outcomes = self.run_all(expanded, executor=executor, jobs=jobs)
            log_event(
                "campaign.done",
                seeds=len(expanded),
                engine=engine,
                elapsed_s=round(campaign_span.elapsed(), 6),
            )
        raw = [outcome.record for outcome in outcomes]
        metrics: Sequence[str] = spec.metrics
        if not metrics:
            # The seed is a run identity, not an outcome — aggregating it
            # would report noise statistics. It stays available through
            # report.raw and can be requested explicitly via spec.metrics.
            observed = {
                name
                for row in raw
                for name, value in row.items()
                if name != "seed" and isinstance(value, (bool, int, float))
            }
            metrics = sorted(observed)
        return aggregate_runs(raw, metrics=metrics, allow_ragged=spec.allow_ragged)

    def _stream_campaign(self, spec: CampaignSpec, engine: str) -> CampaignReport:
        """Out-of-core campaign body: block-wise simulate + streaming fold."""
        # Deferred imports keep the batch engines out of behavioural-only
        # sessions (and avoid importing numpy machinery at session import).
        from ..batch.engine import METRIC_COLUMNS, iter_column_blocks
        from ..batch.streaming import StreamingAggregator
        from .executors import _build_batch_model

        if engine != "batched":
            raise ValueError("stream=True requires the batched engine")
        base = spec.base
        if base.kind != "execute":
            raise ValueError("stream=True only applies to execute-kind campaigns")
        if base.engine != "batched":
            base = replace(base, engine="batched")
        metrics: Sequence[str] = spec.metrics
        if not metrics:
            # Mirror the materialized path: the seed column is a run
            # identity, not an outcome, so it is not aggregated by default.
            metrics = sorted(name for name in METRIC_COLUMNS if name != "seed")
        model = _build_batch_model(base)
        aggregator = StreamingAggregator(metrics=metrics)
        with span("session.campaign") as campaign_span:
            log_event("campaign.start", seeds=len(spec.seeds), engine=engine, stream=True)
            for columns in iter_column_blocks(model, list(spec.seeds)):
                aggregator.update(columns)
            log_event(
                "campaign.done",
                seeds=len(spec.seeds),
                engine=engine,
                stream=True,
                elapsed_s=round(campaign_span.elapsed(), 6),
            )
        return aggregator.report()

    def pareto(
        self,
        app,
        objectives=None,
        nodes=None,
        ecc=None,
        correctable_bits=None,
        rate_levels=None,
        max_chunk_words: int = 512,
        chunk_stride: int = 1,
        seed: int = 0,
        constraints: DesignConstraints | None = None,
        fault_model: str | None = None,
        fault_params: dict | None = None,
        engine: str = "batched",
        executor: Executor | None = None,
        jobs: int | None = None,
    ):
        """Explore the cross-technology design space and return its Pareto front.

        Builds a ``kind="pareto"`` spec over the (technology node x ECC
        family x correction strength x chunk size x fault-rate level)
        grid and executes it, returning the
        :class:`~repro.batch.pareto.ParetoFront` artifact.  ``None`` axes
        fall back to the defaults of :mod:`repro.batch.pareto`; ``ecc``
        names the redundancy-sizing schemes (``"bch"``,
        ``"interleaved-secded"``, ...).  ``fault_model``/``fault_params``
        select the registry fault model shaping the failure objective
        (default: the SMU-dominated mixture).  When ``rate_levels`` is not
        given, an operating point with a non-paper ``error_rate`` pins the
        single rate level (the environment you asked about); otherwise the
        explorer's default levels apply.  The default ``engine="batched"``
        evaluates the grid vectorized; ``"behavioural"`` walks it point by
        point — the fronts are bit-identical either way.

        Examples
        --------
        >>> front = Session().pareto("adpcm-encode", nodes=("65nm",),
        ...                          ecc=("bch",), rate_levels=(1e-6,))
        >>> front.knee_point().technology
        '65nm'
        """
        params: dict = {"max_chunk_words": max_chunk_words, "chunk_stride": chunk_stride}
        for name, value in (
            ("objectives", objectives),
            ("nodes", nodes),
            ("schemes", ecc),
            ("correctable_bits", correctable_bits),
            ("rate_levels", rate_levels),
        ):
            if value is not None:
                # Bare scalars ("65nm", 4, 1e-6) pass through and are
                # wrapped by the explorer; tuple("65nm") would explode
                # a name into per-character axis values.
                params[name] = list(value) if isinstance(value, (list, tuple)) else value
        spec = ExperimentSpec(
            app=app,
            kind="pareto",
            constraints=constraints if constraints is not None else self.constraints,
            fault_model=fault_model,
            fault_params=dict(fault_params or {}),
            params=params,
            seed=seed,
            engine=engine,
        )
        return self.run(spec, executor=executor, jobs=jobs).artifact

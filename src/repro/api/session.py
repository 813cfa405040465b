"""The Session facade: one front door for running experiments.

A :class:`Session` binds a default operating point and execution backend,
and exposes the three workload shapes every harness reduces to:

* :meth:`Session.run` — one spec, one outcome;
* :meth:`Session.sweep` — a parameter grid, merged into one
  :class:`~repro.api.results.ResultSet` with the swept coordinates as
  leading columns;
* :meth:`Session.campaign` — the same experiment over many fault seeds,
  folded through :func:`repro.faults.campaign.aggregate_columns` into a
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
from functools import partial
from typing import Any

from ..batch.engine import join_blocks, records_from_columns
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..faults.campaign import CampaignReport, aggregate_columns, aggregate_runs
from ..telemetry import log_event, span
from ..telemetry import snapshot as _telemetry_snapshot
from .executors import Executor, RunOutcome, SerialExecutor, make_executor
from .results import ResultSet
from .spec import CampaignSpec, ExperimentSpec, SweepSpec


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
        ``repro-experiments serve`` instance at ``url`` as jobs on the
        same queue the service CLI uses (one ``campaign`` job per missing
        seed block of a batched campaign or seed group, one ``batch`` job
        for the other specs), streams the outcome rows back,
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

        Each spec runs on the engine it declares, through
        :func:`~repro.warehouse.planner.plan_and_run`: batched ``execute``
        specs equal except for their seed run as one seed group, block by
        block, on the executor's block runner (one task model per group
        instead of one per seed); every other spec goes to the executor's
        ``map``.

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
            return plan_and_run(specs, self._resolve_executor(executor, jobs))

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
    ) -> CampaignReport:
        """Run a multi-seed campaign and aggregate its metrics.

        Accepts a :class:`CampaignSpec`, or a bare :class:`ExperimentSpec`
        plus ``seeds`` (defaulting to ``range(10)``) for convenience.  The
        aggregation is order-stable: serial and parallel executors produce
        bit-identical reports for the same seed set.

        The engine is a field of the base spec; ``engine=`` only writes
        it there.  A batched ``execute`` campaign never expands its seeds
        into specs: it walks them in ``REPRO_BATCH_BLOCK`` blocks, each
        served from the warehouse or simulated by the executor's block
        runner (one task model in process, one campaign job per block for
        a :meth:`connect` session), keeps 8 bytes per (run, metric column)
        and rebuilds ``raw`` rows from them on each read.  Every other
        campaign runs its expanded specs through :meth:`run_all`.
        """
        # Deferred import: the warehouse depends on the executor layer.
        from ..warehouse.planner import campaign_blocks

        if isinstance(spec, ExperimentSpec):
            spec = CampaignSpec(base=spec, seeds=tuple(seeds) if seeds is not None else ())
        elif seeds is not None:
            raise ValueError("pass seeds inside the CampaignSpec, not alongside it")
        if engine is not None and engine != spec.base.engine:
            # An explicit engine argument wins over the base spec, so e.g.
            # engine="behavioural" really cross-checks a batched spec
            # against the ground-truth engine instead of being ignored.
            spec = replace(spec, base=replace(spec.base, engine=engine))
        engine = spec.base.engine
        with span("session.campaign") as campaign_span:
            log_event("campaign.start", seeds=len(spec.seeds), engine=engine)
            if spec.base.seed_grouped:
                runner = self._resolve_executor(executor, jobs).block_runner(spec.base)
                block = join_blocks(campaign_blocks(spec.base, spec.seeds, runner))
                rows = partial(records_from_columns, block)
                report = aggregate_columns(block.columns, len(block.seeds), spec.metrics, rows)
            else:
                outcomes = self.run_all(spec.expand(), executor=executor, jobs=jobs)
                report = aggregate_runs(
                    [outcome.record for outcome in outcomes], metrics=spec.metrics
                )
            log_event(
                "campaign.done",
                seeds=len(spec.seeds),
                engine=engine,
                elapsed_s=round(campaign_span.elapsed(), 6),
            )
        return report

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
        explorer's default levels apply.  The grid is evaluated by
        :func:`~repro.batch.pareto.grid_pareto_front`.

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
        )
        return self.run(spec, executor=executor, jobs=jobs).artifact

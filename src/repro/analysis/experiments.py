"""Experiment harnesses regenerating every table and figure of the paper.

Each public function reproduces one evaluation artefact:

* :func:`fig4_feasible_region` — Fig. 4, the feasible (chunk size,
  correctable bits) region under the 5 % area budget;
* :func:`table1_optimal_chunks` — Table I, the optimum protected-buffer
  size per benchmark;
* :func:`fig5_energy` — Fig. 5, normalized energy of Default / SW / HW /
  Proposed(optimal) / Proposed(sub-optimal) per benchmark plus the
  average, measured on the behavioural platform under fault injection;
* :func:`timing_overhead` — the Section III-B execution-time observation
  (the proposal honours the 10 % cycle budget, the baselines do not);
* the ``ablation_*`` functions — sensitivity studies of the knobs the
  paper fixes (upset rate, area budget, correction strength, drain
  latency);
* :func:`scenario_sweep` — beyond the paper: the same workload under a
  grid of time-varying fault environments (:mod:`repro.scenarios`) and
  mitigation strategies, comparing the static design against the
  scenario-adaptive one.

Every harness expresses its workload as declarative
:class:`~repro.api.spec.ExperimentSpec` runs executed through a
:class:`~repro.api.session.Session` — pass ``session=`` or ``jobs=`` to
fan the underlying simulations out across cores, and ``engine="batched"``
(written into every spec the harness builds) to run on the NumPy
engines of :mod:`repro.batch`: statistically
equivalent for the fault-injection harnesses (fig5, timing, scenario
sweeps), *bit-identical* for the design-space ones (fig4, table1, the
optimize/feasibility ablations).  All functions return
plain dataclasses with ``rows()`` / ``render()`` helpers plus a
``to_result_set()`` bridge into the machine-readable results layer shared
by the CLI and the benchmarks.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..api.results import ResultSet
from ..api.session import Session
from ..api.spec import ExperimentSpec, SweepSpec
from ..apps.base import StreamingApplication
from ..apps.registry import PAPER_BENCHMARK_ORDER, canonical_name, get_application
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..core.feasibility import FeasibleRegion
from ..core.optimizer import ChunkSizeOptimizer, OptimizationResult
from ..core.strategies import HybridStrategy, MitigationStrategy, paper_strategies
from . import paper_data
from .tables import render_table


def _session(session: Session | None) -> Session:
    return session if session is not None else Session()


def _resolve_app_refs(
    applications: list[StreamingApplication] | list[str] | None,
) -> list[tuple[str | StreamingApplication, StreamingApplication]]:
    """Resolve apps to (spec reference, instance) pairs.

    Registry names stay strings so the resulting specs remain fully
    serializable; live instances (the tests' reduced-size workloads) are
    passed through and ride along via pickling.
    """
    if applications is None:
        return [(name, get_application(name)) for name in PAPER_BENCHMARK_ORDER]
    refs: list[tuple[str | StreamingApplication, StreamingApplication]] = []
    for app in applications:
        if isinstance(app, str):
            name = canonical_name(app)
            refs.append((name, get_application(name)))
        else:
            refs.append((app, app))
    return refs


def _resolve_apps(
    applications: list[StreamingApplication] | list[str] | None,
) -> list[StreamingApplication]:
    """Accept application instances, names, or None (= the paper's five)."""
    return [app for _, app in _resolve_app_refs(applications)]


# ---------------------------------------------------------------------- #
# Fig. 4 — feasible chunk sizes vs correctable bits
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Fig4Result:
    """Reproduction of Fig. 4."""

    region: FeasibleRegion
    constraints: DesignConstraints

    def rows(self) -> list[tuple]:
        """(chunk size, max feasible correctable bits) boundary samples."""
        return [
            (chunk, bits)
            for chunk, bits in self.region.boundary()
        ]

    def series(self) -> dict[int, int]:
        """The boundary as a mapping chunk size -> max correctable bits."""
        return dict(self.region.boundary())

    def _title(self) -> str:
        return (
            f"Fig. 4 — feasible protected-buffer configurations under a "
            f"{self.constraints.area_overhead:.0%} area budget of the 64 KB L1"
        )

    def to_result_set(self) -> ResultSet:
        """The full boundary as a machine-readable result set."""
        return ResultSet.from_records(
            self._title(),
            [
                {"chunk_words": chunk, "max_correctable_bits": bits}
                for chunk, bits in self.rows()
            ],
        )

    def render(self) -> str:
        """ASCII rendering of the Fig. 4 boundary (subsampled for width)."""
        rows = [row for row in self.rows() if row[0] % 32 == 1 or row[0] in (16, 512)]
        table = render_table(["chunk size (words)", "max correctable bits/word"], rows)
        return self._title() + "\n" + table


def fig4_spec(
    constraints: DesignConstraints,
    max_chunk_words: int,
    max_correctable_bits: int,
    chunk_stride: int,
    engine: str = "behavioural",
) -> ExperimentSpec:
    """The declarative form of the Fig. 4 sweep."""
    return ExperimentSpec(
        kind="feasibility",
        constraints=constraints,
        params={
            "max_chunk_words": max_chunk_words,
            "max_correctable_bits": max_correctable_bits,
            "chunk_stride": chunk_stride,
        },
        engine=engine,
    )


def fig4_feasible_region(
    constraints: DesignConstraints | None = None,
    max_chunk_words: int = paper_data.PAPER_FIG4_MAX_CHUNK_WORDS,
    max_correctable_bits: int = paper_data.PAPER_FIG4_MAX_CORRECTABLE_BITS,
    chunk_stride: int = 1,
    session: Session | None = None,
    engine: str | None = None,
) -> Fig4Result:
    """Reproduce the Fig. 4 sweep.

    ``chunk_stride`` subsamples the x-axis (use >1 to speed up smoke runs).
    ``engine="batched"`` evaluates the grid through the vectorized design
    engine of :mod:`repro.batch.design` — bit-identical boundary, a
    fraction of the wall clock.
    """
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    spec = fig4_spec(
        constraints,
        max_chunk_words,
        max_correctable_bits,
        chunk_stride,
        engine=engine if engine is not None else "behavioural",
    )
    outcome = _session(session).run(spec)
    return Fig4Result(region=outcome.artifact, constraints=constraints)


# ---------------------------------------------------------------------- #
# Table I — optimum chunk sizes
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Table1Row:
    """One benchmark's optimization outcome next to the paper's value."""

    application: str
    chunk_words: int
    num_checkpoints: int
    paper_chunk_words: int | None
    predicted_energy_overhead: float
    predicted_cycle_overhead: float
    buffer_capacity_words: int
    area_fraction: float


@dataclass(frozen=True)
class Table1Result:
    """Reproduction of Table I."""

    rows_by_app: dict[str, Table1Row]
    optimizations: dict[str, OptimizationResult]
    constraints: DesignConstraints

    def rows(self) -> list[tuple]:
        return [
            (
                row.application,
                row.chunk_words,
                row.paper_chunk_words if row.paper_chunk_words is not None else "-",
                row.num_checkpoints,
                f"{row.predicted_energy_overhead:.1%}",
                f"{row.predicted_cycle_overhead:.1%}",
                f"{row.area_fraction:.2%}",
            )
            for row in self.rows_by_app.values()
        ]

    def to_result_set(self) -> ResultSet:
        """Per-benchmark optimization outcomes, machine-readable."""
        records = []
        for row in self.rows_by_app.values():
            record = {
                "application": row.application,
                "chunk_words": row.chunk_words,
                "num_checkpoints": row.num_checkpoints,
                "predicted_energy_overhead": row.predicted_energy_overhead,
                "predicted_cycle_overhead": row.predicted_cycle_overhead,
                "buffer_capacity_words": row.buffer_capacity_words,
                "area_fraction": row.area_fraction,
            }
            if row.paper_chunk_words is not None:
                record["paper_chunk_words"] = row.paper_chunk_words
            records.append(record)
        columns = (
            "application",
            "chunk_words",
            "paper_chunk_words",
            "num_checkpoints",
            "predicted_energy_overhead",
            "predicted_cycle_overhead",
            "buffer_capacity_words",
            "area_fraction",
        )
        return ResultSet.from_records(
            "Table I — optimum protected-buffer size per benchmark",
            records,
            columns=columns,
        )

    def render(self) -> str:
        table = render_table(
            [
                "benchmark",
                "optimum buffer (words)",
                "paper (words)",
                "N_CH",
                "pred. energy ovh",
                "pred. cycle ovh",
                "L1' area / L1",
            ],
            self.rows(),
        )
        return "Table I — optimum protected-buffer size per benchmark\n" + table


def table1_optimal_chunks(
    constraints: DesignConstraints | None = None,
    applications: list[StreamingApplication] | list[str] | None = None,
    seed: int = 0,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> Table1Result:
    """Reproduce Table I by running the chunk-size optimizer per benchmark.

    ``engine="batched"`` solves each optimization through the vectorized
    design engine — same argmin chunk, same candidate costs, bit for bit.
    """
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    refs = _resolve_app_refs(applications)
    specs = [
        ExperimentSpec(
            app=ref,
            kind="optimize",
            constraints=constraints,
            seed=seed,
            engine=engine if engine is not None else "behavioural",
        )
        for ref, _ in refs
    ]
    outcomes = _session(session).run_all(specs, jobs=jobs)
    rows: dict[str, Table1Row] = {}
    optimizations: dict[str, OptimizationResult] = {}
    for (_, app), outcome in zip(refs, outcomes):
        record = outcome.record
        optimizations[app.name] = outcome.artifact
        rows[app.name] = Table1Row(
            application=app.name,
            chunk_words=record["chunk_words"],
            num_checkpoints=record["num_checkpoints"],
            paper_chunk_words=paper_data.PAPER_TABLE1_OPTIMUM_WORDS.get(app.name),
            predicted_energy_overhead=record["energy_overhead_fraction"],
            predicted_cycle_overhead=record["cycle_overhead_fraction"],
            buffer_capacity_words=record["buffer_capacity_words"],
            area_fraction=record["area_fraction"],
        )
    return Table1Result(rows_by_app=rows, optimizations=optimizations, constraints=constraints)


# ---------------------------------------------------------------------- #
# Fig. 5 — normalized energy, and the Section III-B timing observation
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StrategyOutcome:
    """Averaged behavioural-simulation outcome of one (benchmark, strategy)."""

    application: str
    strategy: str
    normalized_energy: float
    normalized_cycles: float
    energy_nj: float
    cycles: float
    upsets: float
    errors_detected: float
    rollbacks: float
    task_restarts: float
    fully_mitigated_fraction: float
    deadline_met_fraction: float
    paper_normalized_energy: float | None


@dataclass(frozen=True)
class Fig5Result:
    """Reproduction of Fig. 5 (and the timing data of Section III-B)."""

    outcomes: list[StrategyOutcome]
    constraints: DesignConstraints
    seeds: tuple[int, ...]

    def outcome(self, application: str, strategy: str) -> StrategyOutcome:
        """Look up one (benchmark, strategy) cell."""
        for entry in self.outcomes:
            if entry.application == application and entry.strategy == strategy:
                return entry
        raise KeyError(f"no outcome for {application!r} / {strategy!r}")

    def strategies(self) -> list[str]:
        seen: list[str] = []
        for entry in self.outcomes:
            if entry.strategy not in seen:
                seen.append(entry.strategy)
        return seen

    def applications(self) -> list[str]:
        seen: list[str] = []
        for entry in self.outcomes:
            if entry.application not in seen:
                seen.append(entry.application)
        return seen

    def average_normalized_energy(self, strategy: str) -> float:
        """The "Average" group of Fig. 5 for one strategy."""
        values = [e.normalized_energy for e in self.outcomes if e.strategy == strategy]
        return statistics.fmean(values)

    def average_normalized_cycles(self, strategy: str) -> float:
        """Average normalized execution time for one strategy."""
        values = [e.normalized_cycles for e in self.outcomes if e.strategy == strategy]
        return statistics.fmean(values)

    def max_normalized_energy(self, strategy: str) -> float:
        """Worst-case normalized energy across benchmarks for one strategy."""
        return max(e.normalized_energy for e in self.outcomes if e.strategy == strategy)

    def rows(self) -> list[tuple]:
        rows = []
        for entry in self.outcomes:
            rows.append(
                (
                    entry.application,
                    entry.strategy,
                    round(entry.normalized_energy, 3),
                    entry.paper_normalized_energy
                    if entry.paper_normalized_energy is not None
                    else "-",
                    round(entry.normalized_cycles, 3),
                    round(entry.energy_nj, 1),
                    round(entry.fully_mitigated_fraction, 2),
                    round(entry.deadline_met_fraction, 2),
                )
            )
        for strategy in self.strategies():
            rows.append(
                (
                    "AVERAGE",
                    strategy,
                    round(self.average_normalized_energy(strategy), 3),
                    "-",
                    round(self.average_normalized_cycles(strategy), 3),
                    "-",
                    "-",
                    "-",
                )
            )
        return rows

    def _footer(self) -> str:
        avg = self.average_normalized_energy("hybrid-optimal") - 1.0
        worst = self.max_normalized_energy("hybrid-optimal") - 1.0
        return (
            f"Proposed (optimal): average energy overhead {avg:.1%} "
            f"(paper: {paper_data.PAPER_PROPOSED_AVG_ENERGY_OVERHEAD:.1%}), "
            f"maximum {worst:.1%} (paper: {paper_data.PAPER_PROPOSED_MAX_ENERGY_OVERHEAD:.0%})"
        )

    def to_result_set(self) -> ResultSet:
        """Full-precision Fig. 5 numbers (incl. the AVERAGE rows)."""
        records = []
        for entry in self.outcomes:
            record = {
                "application": entry.application,
                "strategy": entry.strategy,
                "normalized_energy": entry.normalized_energy,
                "normalized_cycles": entry.normalized_cycles,
                "energy_nj": entry.energy_nj,
                "cycles": entry.cycles,
                "upsets": entry.upsets,
                "errors_detected": entry.errors_detected,
                "rollbacks": entry.rollbacks,
                "task_restarts": entry.task_restarts,
                "fully_mitigated_fraction": entry.fully_mitigated_fraction,
                "deadline_met_fraction": entry.deadline_met_fraction,
            }
            if entry.paper_normalized_energy is not None:
                record["paper_normalized_energy"] = entry.paper_normalized_energy
            records.append(record)
        for strategy in self.strategies():
            records.append(
                {
                    "application": "AVERAGE",
                    "strategy": strategy,
                    "normalized_energy": self.average_normalized_energy(strategy),
                    "normalized_cycles": self.average_normalized_cycles(strategy),
                }
            )
        columns = (
            "application",
            "strategy",
            "normalized_energy",
            "paper_normalized_energy",
            "normalized_cycles",
            "energy_nj",
            "cycles",
            "upsets",
            "errors_detected",
            "rollbacks",
            "task_restarts",
            "fully_mitigated_fraction",
            "deadline_met_fraction",
        )
        return ResultSet.from_records(
            "Fig. 5 — normalized energy consumption per benchmark",
            records,
            columns=columns,
            footer=self._footer(),
        )

    def render(self) -> str:
        table = render_table(
            [
                "benchmark",
                "configuration",
                "norm. energy",
                "paper (approx)",
                "norm. time",
                "energy (nJ)",
                "mitigated",
                "deadline met",
            ],
            self.rows(),
        )
        return (
            "Fig. 5 — normalized energy consumption per benchmark\n"
            + table
            + "\n"
            + self._footer()
        )


def _average(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _spec_for_strategy(strategy: MitigationStrategy) -> tuple[str, dict]:
    """Translate a built strategy into its (registry name, params) spec form."""
    if isinstance(strategy, HybridStrategy):
        return "hybrid", {
            "chunk_words": strategy.chunk_words,
            "extra_buffer_words": strategy.extra_buffer_words,
            "label": strategy.name,
        }
    return strategy.name, {}


def fig5_specs(
    app_ref: str | StreamingApplication,
    app: StreamingApplication,
    optimal_chunk: int,
    suboptimal_chunk: int,
    constraints: DesignConstraints,
    seed: int,
    engine: str = "behavioural",
) -> list[ExperimentSpec]:
    """The five Fig. 5 configurations of one benchmark as declarative specs.

    The configuration set, ordering and labels come straight from
    :func:`repro.core.strategies.paper_strategies` — the single source of
    truth for the paper's comparison.  ``engine`` is written into every
    spec.
    """
    specs = []
    for strategy in paper_strategies(
        optimal_chunk,
        suboptimal_chunk,
        extra_buffer_words=app.state_words(),
        constraints=constraints,
    ):
        name, params = _spec_for_strategy(strategy)
        specs.append(
            ExperimentSpec(
                app=app_ref,
                strategy=name,
                strategy_params=params,
                constraints=constraints,
                seed=seed,
                engine=engine,
            )
        )
    return specs


def fig5_energy(
    constraints: DesignConstraints | None = None,
    applications: list[StreamingApplication] | list[str] | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    suboptimal_factor: float = 4.0,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> Fig5Result:
    """Reproduce Fig. 5 by behavioural simulation under fault injection.

    For every benchmark the chunk size is first optimized (Table I), then
    the five configurations are executed on the behavioural platform for
    each seed; energies and cycle counts are normalized per-seed to the
    Default run of the same seed and averaged.  The per-run simulations
    are independent specs, so ``jobs=N`` (or a parallel session executor)
    fans the whole campaign out across cores with bit-identical results.

    ``engine="batched"`` is the fast path: it is written into every
    spec, and each (benchmark, strategy) group of seeds runs through the
    vectorized campaign engine of :mod:`repro.batch` — statistically
    equivalent numbers at a fraction of the wall clock, which is what
    makes many-seed Fig. 5 averages cheap.
    """
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    engine = engine if engine is not None else "behavioural"
    refs = _resolve_app_refs(applications)
    if not seeds:
        raise ValueError("at least one seed is required")
    optimizer = ChunkSizeOptimizer(constraints)

    # Design-time sizing stays serial: one optimization per benchmark.
    chunk_plan: list[tuple[int, int]] = []
    for _, app in refs:
        optimization = optimizer.optimize(app, seed=seeds[0])
        suboptimal = optimization.suboptimal(suboptimal_factor)
        chunk_plan.append((optimization.chunk_words, suboptimal.chunk_words))

    specs: list[ExperimentSpec] = []
    strategy_labels: list[str] = []
    for (ref, app), (optimal_chunk, suboptimal_chunk) in zip(refs, chunk_plan):
        for seed in seeds:
            spec_block = fig5_specs(
                ref, app, optimal_chunk, suboptimal_chunk, constraints, seed, engine
            )
            if not strategy_labels:
                strategy_labels = [
                    s.strategy_params.get("label", s.strategy) for s in spec_block
                ]
            specs.extend(spec_block)
    results = _session(session).run_all(specs, jobs=jobs)
    records = [outcome.record for outcome in results]

    outcomes: list[StrategyOutcome] = []
    cursor = 0
    for (_, app), _plan in zip(refs, chunk_plan):
        per_strategy: dict[str, list[dict[str, float]]] = {
            name: [] for name in strategy_labels
        }
        for _seed in seeds:
            block = records[cursor : cursor + len(strategy_labels)]
            cursor += len(strategy_labels)
            baseline = block[0]
            if baseline["strategy"] != "default":
                raise RuntimeError("the Default strategy must run first")
            for record in block:
                per_strategy[record["strategy"]].append(
                    {
                        "normalized_energy": record["energy_pj"] / baseline["energy_pj"],
                        "normalized_cycles": record["total_cycles"]
                        / baseline["total_cycles"],
                        "energy_nj": record["energy_nj"],
                        "cycles": record["total_cycles"],
                        "upsets": record["upsets_injected"],
                        "errors_detected": record["errors_detected"],
                        "rollbacks": record["rollbacks"],
                        "task_restarts": record["task_restarts"],
                        "fully_mitigated": record["fully_mitigated"],
                        "deadline_met": record["deadline_met"],
                    }
                )

        paper_reference = paper_data.PAPER_FIG5_NORMALIZED_ENERGY.get(app.name, {})
        for strategy in strategy_labels:
            samples = per_strategy[strategy]
            outcomes.append(
                StrategyOutcome(
                    application=app.name,
                    strategy=strategy,
                    normalized_energy=_average([s["normalized_energy"] for s in samples]),
                    normalized_cycles=_average([s["normalized_cycles"] for s in samples]),
                    energy_nj=_average([s["energy_nj"] for s in samples]),
                    cycles=_average([s["cycles"] for s in samples]),
                    upsets=_average([s["upsets"] for s in samples]),
                    errors_detected=_average([s["errors_detected"] for s in samples]),
                    rollbacks=_average([s["rollbacks"] for s in samples]),
                    task_restarts=_average([s["task_restarts"] for s in samples]),
                    fully_mitigated_fraction=_average([s["fully_mitigated"] for s in samples]),
                    deadline_met_fraction=_average([s["deadline_met"] for s in samples]),
                    paper_normalized_energy=paper_reference.get(strategy),
                )
            )
    return Fig5Result(outcomes=outcomes, constraints=constraints, seeds=tuple(seeds))


# ---------------------------------------------------------------------- #
# Section III-B — execution-time overhead
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TimingResult:
    """Normalized execution time per (benchmark, strategy), from Fig. 5 runs."""

    fig5: Fig5Result

    def rows(self) -> list[tuple]:
        rows = []
        budget = 1.0 + self.fig5.constraints.cycle_overhead
        for entry in self.fig5.outcomes:
            rows.append(
                (
                    entry.application,
                    entry.strategy,
                    round(entry.normalized_cycles, 3),
                    entry.normalized_cycles <= budget,
                )
            )
        return rows

    def violations(self) -> list[tuple[str, str, float]]:
        """All (benchmark, strategy) pairs exceeding the cycle budget."""
        budget = 1.0 + self.fig5.constraints.cycle_overhead
        return [
            (e.application, e.strategy, e.normalized_cycles)
            for e in self.fig5.outcomes
            if e.normalized_cycles > budget
        ]

    def to_result_set(self) -> ResultSet:
        """Full-precision timing data, machine-readable."""
        budget = 1.0 + self.fig5.constraints.cycle_overhead
        records = [
            {
                "application": entry.application,
                "strategy": entry.strategy,
                "normalized_cycles": entry.normalized_cycles,
                "within_budget": entry.normalized_cycles <= budget,
            }
            for entry in self.fig5.outcomes
        ]
        return ResultSet.from_records(
            "Section III-B — execution-time overhead per configuration",
            records,
        )

    def render(self) -> str:
        table = render_table(
            ["benchmark", "configuration", "norm. execution time", "within 10% budget"],
            self.rows(),
        )
        return "Section III-B — execution-time overhead per configuration\n" + table


def timing_overhead(
    constraints: DesignConstraints | None = None,
    applications: list[StreamingApplication] | list[str] | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    fig5: Fig5Result | None = None,
    session: Session | None = None,
    jobs: int | None = None,
) -> TimingResult:
    """Reproduce the execution-time observation of Section III-B.

    Reuses an existing :class:`Fig5Result` when provided (the underlying
    simulations are identical) and runs them otherwise.
    """
    if fig5 is None:
        fig5 = fig5_energy(
            constraints=constraints,
            applications=applications,
            seeds=seeds,
            session=session,
            jobs=jobs,
        )
    return TimingResult(fig5=fig5)


# ---------------------------------------------------------------------- #
# Ablations
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AblationResult:
    """Generic one-parameter sweep result."""

    parameter: str
    headers: tuple[str, ...]
    table_rows: tuple[tuple, ...]
    records: tuple[dict, ...] = field(default=())

    def rows(self) -> list[tuple]:
        return list(self.table_rows)

    def to_result_set(self) -> ResultSet:
        """Machine-readable sweep records (raw values, not table strings)."""
        title = f"Ablation — sensitivity to {self.parameter}"
        if self.records:
            return ResultSet.from_records(title, self.records)
        return ResultSet.from_records(
            title,
            [dict(zip(self.headers, row)) for row in self.table_rows],
        )

    def render(self) -> str:
        return (
            f"Ablation — sensitivity to {self.parameter}\n"
            + render_table(list(self.headers), self.rows())
        )


def _ablation_app_ref(
    application: str | StreamingApplication,
) -> tuple[str | StreamingApplication, StreamingApplication]:
    if isinstance(application, str):
        name = canonical_name(application)
        return name, get_application(name)
    return application, application


def ablation_error_rate(
    rates: list[float] | None = None,
    application: str | StreamingApplication = "g721-decode",
    constraints: DesignConstraints | None = None,
    seed: int = 0,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> AblationResult:
    """How the optimum chunk size and overhead move with the upset rate."""
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if rates is None:
        # The default sweep stays within the feasible range of the paper's
        # OV2 budget for every benchmark; rates much beyond 2e-6 make the
        # expected recovery time alone exceed 10 % on the long decoders.
        rates = [1e-8, 1e-7, 5e-7, 1e-6, 2e-6]
    ref, app = _ablation_app_ref(application)
    sweep = SweepSpec(
        base=ExperimentSpec(
            app=ref,
            kind="optimize",
            constraints=constraints,
            seed=seed,
            engine=engine if engine is not None else "behavioural",
        ),
        parameters={"constraints.error_rate": tuple(rates)},
    )
    result_set = _session(session).sweep(sweep, jobs=jobs)
    rows = [
        (
            f"{record['constraints.error_rate']:.0e}",
            record["chunk_words"],
            record["num_checkpoints"],
            f"{record['expected_faulty_chunks']:.2f}",
            f"{record['energy_overhead_fraction']:.1%}",
        )
        for record in result_set.records
    ]
    return AblationResult(
        parameter=f"error rate ({app.name})",
        headers=("error rate (/word/cycle)", "optimum chunk", "N_CH", "err", "energy ovh"),
        table_rows=tuple(rows),
        records=tuple(result_set.records),
    )


def ablation_area_budget(
    budgets: list[float] | None = None,
    constraints: DesignConstraints | None = None,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> AblationResult:
    """How the feasible buffer space shrinks as the area budget OV1 tightens."""
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if budgets is None:
        budgets = [0.01, 0.02, 0.05, 0.10, 0.20]
    sweep = SweepSpec(
        base=ExperimentSpec(
            kind="feasibility",
            constraints=constraints,
            params={"max_chunk_words": 513, "chunk_stride": 4},
            engine=engine if engine is not None else "behavioural",
        ),
        parameters={"constraints.area_overhead": tuple(budgets)},
    )
    outcomes = _session(session).run_all(sweep.expand(), jobs=jobs)
    rows = []
    records = []
    for budget, outcome in zip(budgets, outcomes):
        region = outcome.artifact
        max_at_t = region.max_chunk_words(constraints.correctable_bits)
        max_at_8 = region.max_chunk_words(8)
        max_t_at_65 = region.max_correctable_bits(65)
        rows.append((f"{budget:.0%}", max_at_t, max_at_8, max_t_at_65))
        records.append(
            {
                "area_budget": budget,
                f"max_chunk_at_t{constraints.correctable_bits}": max_at_t,
                "max_chunk_at_t8": max_at_8,
                "max_t_at_65_words": max_t_at_65,
            }
        )
    return AblationResult(
        parameter="area budget OV1",
        headers=(
            "area budget",
            f"max chunk @ t={constraints.correctable_bits}",
            "max chunk @ t=8",
            "max t @ 65 words",
        ),
        table_rows=tuple(rows),
        records=tuple(records),
    )


def ablation_correction_strength(
    strengths: list[int] | None = None,
    application: str | StreamingApplication = "jpeg-decode",
    constraints: DesignConstraints | None = None,
    seed: int = 0,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> AblationResult:
    """Impact of the L1' correction strength on the optimum and its area."""
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if strengths is None:
        strengths = [1, 2, 4, 8]
    ref, app = _ablation_app_ref(application)
    sweep = SweepSpec(
        base=ExperimentSpec(
            app=ref,
            kind="optimize",
            constraints=constraints,
            seed=seed,
            engine=engine if engine is not None else "behavioural",
        ),
        parameters={"constraints.correctable_bits": tuple(strengths)},
    )
    result_set = _session(session).sweep(sweep, jobs=jobs)
    rows = [
        (
            record["constraints.correctable_bits"],
            record["chunk_words"],
            f"{record['area_fraction']:.2%}",
            f"{record['energy_overhead_fraction']:.1%}",
        )
        for record in result_set.records
    ]
    return AblationResult(
        parameter=f"L1' correction strength ({app.name})",
        headers=("correctable bits", "optimum chunk", "L1' area / L1", "energy ovh"),
        table_rows=tuple(rows),
        records=tuple(result_set.records),
    )


def ablation_drain_latency(
    latencies: list[int] | None = None,
    application: str | StreamingApplication = "adpcm-encode",
    constraints: DesignConstraints | None = None,
    seed: int = 0,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> AblationResult:
    """Sensitivity to the exposure window of produced data (calibration knob)."""
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if latencies is None:
        latencies = [250, 500, 1000, 2000, 4000]
    ref, app = _ablation_app_ref(application)
    sweep = SweepSpec(
        base=ExperimentSpec(
            app=ref,
            kind="optimize",
            constraints=constraints,
            seed=seed,
            engine=engine if engine is not None else "behavioural",
        ),
        parameters={"constraints.drain_latency_cycles": tuple(latencies)},
    )
    result_set = _session(session).sweep(sweep, jobs=jobs)
    rows = [
        (
            record["constraints.drain_latency_cycles"],
            record["chunk_words"],
            f"{record['expected_faulty_chunks']:.2f}",
            f"{record['energy_overhead_fraction']:.1%}",
        )
        for record in result_set.records
    ]
    return AblationResult(
        parameter=f"drain latency ({app.name})",
        headers=("drain latency (cycles)", "optimum chunk", "err", "energy ovh"),
        table_rows=tuple(rows),
        records=tuple(result_set.records),
    )


# ---------------------------------------------------------------------- #
# Scenario sweep — time-varying fault environments (beyond the paper)
# ---------------------------------------------------------------------- #
#: Default environment grid of :func:`scenario_sweep`.
DEFAULT_SCENARIOS: tuple[str, ...] = ("paper-constant", "burst", "duty-cycle", "ramp", "storm")

#: Default strategy grid: the paper's static optimum vs the adaptive one.
DEFAULT_SCENARIO_STRATEGIES: tuple[str, ...] = ("hybrid-optimal", "hybrid-adaptive")

#: The oracle strategy regret is measured against: it reads the scenario's
#: true rate, so no honest (estimator-driven) strategy can beat it except
#: by sampling luck.
ORACLE_STRATEGY = "hybrid-adaptive"


@dataclass(frozen=True)
class ScenarioCell:
    """Averaged behavioural outcome of one (scenario, strategy) pair.

    ``regret`` is the mean over seeds of the *per-realization* energy gap
    to the oracle adaptive strategy under the same scenario and seed
    (``None`` when the oracle is not part of the sweep's strategy grid).
    The oracle's own regret is identically 0; an estimator-driven
    strategy's regret measures what rate *estimation* costs relative to
    rate *knowledge*.
    """

    scenario: str
    strategy: str
    energy_nj: float
    cycles: float
    upsets: float
    errors_detected: float
    rollbacks: float
    checkpoints: float
    fully_mitigated_fraction: float
    relative_energy: float
    regret: float | None = None


@dataclass(frozen=True)
class ScenarioSweepResult:
    """Reproduction-quality comparison of strategies across environments.

    ``relative_energy`` normalizes each cell to the first strategy of the
    grid under the *same* scenario, so the adaptive strategy's win/loss
    against the static design is read off directly.
    """

    application: str
    cells: tuple[ScenarioCell, ...]
    constraints: DesignConstraints
    seeds: tuple[int, ...]

    def cell(self, scenario: str, strategy: str) -> ScenarioCell:
        """Look up one (scenario, strategy) cell."""
        for entry in self.cells:
            if entry.scenario == scenario and entry.strategy == strategy:
                return entry
        raise KeyError(f"no cell for {scenario!r} / {strategy!r}")

    def scenarios(self) -> list[str]:
        seen: list[str] = []
        for entry in self.cells:
            if entry.scenario not in seen:
                seen.append(entry.scenario)
        return seen

    def strategies(self) -> list[str]:
        seen: list[str] = []
        for entry in self.cells:
            if entry.strategy not in seen:
                seen.append(entry.strategy)
        return seen

    def rows(self) -> list[tuple]:
        return [
            (
                entry.scenario,
                entry.strategy,
                round(entry.energy_nj, 1),
                round(entry.relative_energy, 3),
                round(entry.regret, 2) if entry.regret is not None else "-",
                round(entry.upsets, 1),
                round(entry.errors_detected, 1),
                round(entry.rollbacks, 1),
                round(entry.checkpoints, 1),
                round(entry.fully_mitigated_fraction, 2),
            )
            for entry in self.cells
        ]

    def _title(self) -> str:
        return f"Scenario sweep — {self.application} across fault environments"

    def to_result_set(self) -> ResultSet:
        records = []
        for entry in self.cells:
            record = {
                "scenario": entry.scenario,
                "strategy": entry.strategy,
                "energy_nj": entry.energy_nj,
                "relative_energy": entry.relative_energy,
                "cycles": entry.cycles,
                "upsets": entry.upsets,
                "errors_detected": entry.errors_detected,
                "rollbacks": entry.rollbacks,
                "checkpoints": entry.checkpoints,
                "fully_mitigated_fraction": entry.fully_mitigated_fraction,
            }
            if entry.regret is not None:
                record["regret"] = entry.regret
            records.append(record)
        return ResultSet.from_records(self._title(), records)

    def render(self) -> str:
        table = render_table(
            [
                "scenario",
                "strategy",
                "energy (nJ)",
                "rel. energy",
                "regret (nJ)",
                "upsets",
                "errors",
                "rollbacks",
                "checkpoints",
                "mitigated",
            ],
            self.rows(),
        )
        return self._title() + "\n" + table


def scenario_sweep(
    scenarios: list[str] | None = None,
    application: str | StreamingApplication = "adpcm-encode",
    strategies: list[str] | None = None,
    constraints: DesignConstraints | None = None,
    seeds: tuple[int, ...] = (0, 1, 2),
    scenario_params: dict[str, dict] | None = None,
    session: Session | None = None,
    jobs: int | None = None,
    engine: str | None = None,
) -> ScenarioSweepResult:
    """Run one workload under a grid of fault environments and strategies.

    Every (scenario, strategy, seed) triple is an independent
    :class:`~repro.api.spec.ExperimentSpec`, so ``jobs=N`` fans the whole
    grid out across cores with bit-identical aggregates.
    ``scenario_params`` optionally maps a scenario name to factory
    overrides (e.g. ``{"burst": {"burst_factor": 100}}``).
    ``engine="batched"``, written into every spec, simulates each
    (scenario, strategy) seed group through the vectorized campaign
    engine instead — the fast path for many-seed sweeps.
    """
    constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
    if not seeds:
        raise ValueError("at least one seed is required")
    scenarios = list(scenarios) if scenarios is not None else list(DEFAULT_SCENARIOS)
    strategies = (
        list(strategies) if strategies is not None else list(DEFAULT_SCENARIO_STRATEGIES)
    )
    if not scenarios or not strategies:
        raise ValueError("the sweep needs at least one scenario and one strategy")
    scenario_params = dict(scenario_params or {})
    ref, app = _ablation_app_ref(application)

    specs = [
        ExperimentSpec(
            app=ref,
            strategy=strategy,
            constraints=constraints,
            scenario=scenario,
            scenario_params=scenario_params.get(scenario, {}),
            seed=seed,
            engine=engine if engine is not None else "behavioural",
        )
        for scenario in scenarios
        for strategy in strategies
        for seed in seeds
    ]
    outcomes = _session(session).run_all(specs, jobs=jobs)
    records = [outcome.record for outcome in outcomes]

    cells: list[ScenarioCell] = []
    cursor = 0
    for scenario in scenarios:
        baseline_energy: float | None = None
        blocks: dict[str, list[dict]] = {}
        for strategy in strategies:
            blocks[strategy] = records[cursor : cursor + len(seeds)]
            cursor += len(seeds)
        # Regret is computed per realization: strategy and oracle are
        # compared on the same (scenario, seed) — the same sample path —
        # then averaged, so realization-to-realization variance cancels.
        oracle_block = blocks.get(ORACLE_STRATEGY)
        for strategy in strategies:
            block = blocks[strategy]
            energy = _average([r["energy_nj"] for r in block])
            if baseline_energy is None:
                baseline_energy = energy
            regret = None
            if oracle_block is not None:
                regret = _average(
                    [
                        r["energy_nj"] - oracle["energy_nj"]
                        for r, oracle in zip(block, oracle_block)
                    ]
                )
            cells.append(
                ScenarioCell(
                    scenario=scenario,
                    strategy=strategy,
                    energy_nj=energy,
                    cycles=_average([r["total_cycles"] for r in block]),
                    upsets=_average([r["upsets_injected"] for r in block]),
                    errors_detected=_average([r["errors_detected"] for r in block]),
                    rollbacks=_average([r["rollbacks"] for r in block]),
                    checkpoints=_average([r["checkpoints_committed"] for r in block]),
                    fully_mitigated_fraction=_average([r["fully_mitigated"] for r in block]),
                    relative_energy=energy / baseline_energy if baseline_energy else 0.0,
                    regret=regret,
                )
            )
    return ScenarioSweepResult(
        application=app.name,
        cells=tuple(cells),
        constraints=constraints,
        seeds=tuple(seeds),
    )

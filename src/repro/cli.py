"""Command-line front-end: ``repro-experiments``.

Regenerates the paper's artefacts and runs ad-hoc experiments from the
terminal through the unified experiment API::

    repro-experiments fig4
    repro-experiments table1 --format csv --output table1.csv
    repro-experiments fig5 --seeds 0 1 2 --jobs 4 --format json
    repro-experiments timing
    repro-experiments ablations
    repro-experiments all

    repro-experiments run --app adpcm-encode --strategy hybrid-optimal
    repro-experiments campaign --app jpeg-decode --strategy hybrid-optimal --runs 20 --jobs 4
    repro-experiments sweep --app g721-decode --param constraints.error_rate \
        --values 1e-8 1e-7 1e-6

    repro-experiments pareto --app adpcm-encode --nodes 45nm 65nm \
        --ecc bch interleaved-secded --objectives energy area failure

    repro-experiments serve --port 8077 --max-workers 4
    repro-experiments submit --app adpcm-encode --strategy hybrid-optimal --runs 20
    repro-experiments jobs
    repro-experiments results job-000001

    repro-experiments list
    repro-experiments scenarios list
    repro-experiments scenarios run --app adpcm-encode --strategy hybrid-adaptive \
        --scenario burst --scenario-param burst_factor=100
    repro-experiments scenarios sweep --app adpcm-encode --jobs 4 --format json

    repro-experiments warehouse stats
    repro-experiments warehouse ls --kind execute
    repro-experiments warehouse gc --stale
    repro-experiments warehouse export warehouse.json

Every subcommand accepts ``--format table|json|csv`` and ``--output PATH``
for machine-readable results, and the behavioural workloads accept
``--jobs N`` to fan the underlying simulations out across CPU cores.
The fault-injection subcommands accept ``--engine batched`` to run on the
vectorized campaign engine; the design-space artefacts (fig4, table1,
ablations, pareto, optimize sweeps) always run on the grid solvers.
Completed results land in the content-addressed warehouse
(``~/.cache/repro/warehouse``; ``REPRO_CACHE_DIR`` relocates the root,
``REPRO_WAREHOUSE_DIR`` the warehouse), so re-running an artefact or
campaign replays instantly from disk; set ``REPRO_NO_WAREHOUSE=1`` to
force cold runs.  Task profiles are memoized per process only
(``REPRO_NO_CACHE=1`` turns the memo off).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

from .analysis import (
    ablation_area_budget,
    ablation_correction_strength,
    ablation_drain_latency,
    ablation_error_rate,
    fig4_feasible_region,
    fig5_energy,
    scenario_sweep,
    table1_optimal_chunks,
    timing_overhead,
)
from .analysis.experiments import DEFAULT_SCENARIO_STRATEGIES, DEFAULT_SCENARIOS
from .api.registry import (
    available_fault_models,
    available_scenarios,
    available_strategies,
    scenario_description,
)
from .api.results import FORMATS, ResultSet, render_result_sets, write_report
from .api.session import Session
from .api.spec import CampaignSpec, ENGINES, ExperimentSpec, SweepSpec
from .apps.registry import available_applications
from .batch.pareto import (
    DEFAULT_CORRECTABLE_BITS,
    DEFAULT_NODES,
    DEFAULT_RATE_LEVELS,
    DEFAULT_SCHEMES,
    OBJECTIVES,
)
from .core.config import PAPER_OPERATING_POINT
from .ecc.redundancy import available_schemes
from .memmodel.technology import available_nodes

#: The paper artefacts and the composite ``all``.
ARTEFACTS: tuple[str, ...] = ("fig4", "table1", "fig5", "timing", "ablations", "all")

#: Where service-client subcommands connect when ``--url`` is not given.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8077"


def _default_service_url() -> str:
    return os.environ.get("REPRO_SERVICE_URL", DEFAULT_SERVICE_URL)


def _parse_value(text: str):
    """Parse a CLI sweep/strategy value: int, then float, then bare string."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _parse_kv_params(pairs: list[str] | None) -> dict:
    """Parse repeated ``key=value`` options into a typed parameter dict."""
    params = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        params[key] = _parse_value(value)
    return params


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of stdout",
    )


def _add_metrics_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="append one JSON telemetry snapshot line to PATH after the "
        "run (a metrics.jsonl file: counters, gauges and histograms of "
        "this process)",
    )


def _add_jobs_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the underlying simulations (default: 1)",
    )


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="behavioural",
        help="engine of the fault-injection runs: 'behavioural' replays "
        "every event, 'batched' vectorizes campaigns (all seeds at once); "
        "design-space specs always run on the grid solvers "
        "(default: behavioural)",
    )


def _add_constraint_options(
    parser: argparse.ArgumentParser, error_rate_default: float | None = None
) -> None:
    # None means "not overridden" so subcommands with their own rate axis
    # (pareto) can distinguish an explicit request from the default; the
    # paper value is substituted in _constraints_from_args either way.
    parser.add_argument(
        "--error-rate",
        type=float,
        default=error_rate_default,
        help="upset rate per word per cycle (default: the paper's 1e-6)",
    )
    parser.add_argument(
        "--area-budget",
        type=float,
        default=PAPER_OPERATING_POINT.area_overhead,
        help="affordable area overhead OV1 (default: 0.05)",
    )
    parser.add_argument(
        "--cycle-budget",
        type=float,
        default=PAPER_OPERATING_POINT.cycle_overhead,
        help="affordable cycle overhead OV2 (default: 0.10)",
    )


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--app",
        required=True,
        metavar="NAME",
        help=f"application to run (one of: {', '.join(available_applications())})",
    )
    parser.add_argument(
        "--strategy",
        default="default",
        metavar="NAME",
        help=f"mitigation strategy (one of: {', '.join(available_strategies())})",
    )
    parser.add_argument(
        "--chunk-words",
        type=int,
        default=None,
        metavar="N",
        help="explicit chunk size for the 'hybrid' strategy",
    )
    parser.add_argument(
        "--fault-model",
        default=None,
        metavar="NAME",
        help=f"upset model (one of: {', '.join(available_fault_models())}; "
        "default: the SMU-dominated mixture)",
    )
    parser.add_argument(
        "--scenario",
        default="paper-constant",
        metavar="NAME",
        help=f"fault environment (one of: {', '.join(available_scenarios())}; "
        "default: paper-constant)",
    )
    parser.add_argument(
        "--scenario-param",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="scenario factory parameter (repeatable), e.g. burst_factor=100",
    )


def _add_seeds_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[0, 1, 2],
        help="fault-injection seeds for the behavioural experiments",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the DATE 2012 hybrid "
        "HW-SW intermittent error mitigation paper, or run ad-hoc experiments "
        "through the unified spec/session API.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    # --- paper artefacts ------------------------------------------------ #
    artefact_help = {
        "fig4": "Fig. 4 feasible (chunk size, correctable bits) region",
        "table1": "Table I optimum protected-buffer size per benchmark",
        "fig5": "Fig. 5 normalized energy under fault injection",
        "timing": "Section III-B execution-time overhead",
        "ablations": "sensitivity studies (error rate, area, ECC strength, drain)",
        "all": "every artefact above, in paper order",
    }
    for name in ARTEFACTS:
        sub = subparsers.add_parser(name, help=artefact_help[name])
        _add_constraint_options(sub)
        _add_output_options(sub)
        if name in ("fig5", "timing", "all"):
            _add_engine_option(sub)
            _add_seeds_option(sub)
        if name in ("table1", "fig5", "timing", "ablations", "all"):
            _add_jobs_option(sub)

    # --- ad-hoc spec execution ------------------------------------------ #
    run = subparsers.add_parser("run", help="execute one experiment spec")
    _add_spec_options(run)
    run.add_argument("--seed", type=int, default=0, help="workload/fault seed (default: 0)")
    _add_constraint_options(run)
    _add_output_options(run)

    campaign = subparsers.add_parser(
        "campaign", help="repeat one experiment over many fault seeds and aggregate"
    )
    _add_spec_options(campaign)
    campaign.add_argument(
        "--seeds", type=int, nargs="+", default=None, help="explicit campaign seeds"
    )
    campaign.add_argument(
        "--runs", type=int, default=10, help="number of runs when --seeds is not given"
    )
    _add_constraint_options(campaign)
    _add_jobs_option(campaign)
    _add_engine_option(campaign)
    _add_metrics_option(campaign)
    _add_output_options(campaign)

    sweep = subparsers.add_parser(
        "sweep", help="sweep spec parameters on a cartesian grid"
    )
    _add_spec_options(sweep)
    sweep.add_argument(
        "--kind",
        choices=("optimize", "execute"),
        default="optimize",
        help="what each grid point runs (default: optimize)",
    )
    sweep.add_argument(
        "--param",
        required=True,
        metavar="NAME",
        help="swept parameter, e.g. constraints.error_rate or seed",
    )
    sweep.add_argument(
        "--values",
        required=True,
        nargs="+",
        metavar="VALUE",
        help="values of the swept parameter",
    )
    sweep.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    _add_engine_option(sweep)
    _add_constraint_options(sweep)
    _add_jobs_option(sweep)
    _add_metrics_option(sweep)
    _add_output_options(sweep)

    # --- cross-technology Pareto exploration ------------------------------ #
    pareto = subparsers.add_parser(
        "pareto",
        help="cross-technology multi-objective design-space Pareto front",
    )
    pareto.add_argument(
        "--app",
        required=True,
        metavar="NAME",
        help=f"application to explore (one of: {', '.join(available_applications())})",
    )
    pareto.add_argument(
        "--nodes",
        nargs="+",
        default=None,
        metavar="NODE",
        help=f"technology nodes to sweep (known: {', '.join(available_nodes())}; "
        f"default: {' '.join(DEFAULT_NODES)})",
    )
    pareto.add_argument(
        "--ecc",
        nargs="+",
        default=None,
        metavar="SCHEME",
        help=f"ECC families to sweep (known: {', '.join(available_schemes())}; "
        f"default: {' '.join(DEFAULT_SCHEMES)})",
    )
    pareto.add_argument(
        "--objectives",
        nargs="+",
        choices=OBJECTIVES,
        default=None,
        metavar="NAME",
        help=f"objectives to minimize (subset of: {', '.join(OBJECTIVES)}; "
        "default: all four)",
    )
    pareto.add_argument(
        "--correctable-bits",
        nargs="+",
        type=int,
        default=None,
        metavar="T",
        help="ECC correction strengths to sweep "
        f"(default: {' '.join(str(t) for t in DEFAULT_CORRECTABLE_BITS)})",
    )
    pareto.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=None,
        metavar="RATE",
        help="fault-rate levels (upsets/word/cycle); dominance is compared "
        "within each level (default: an overridden --error-rate, else "
        f"{' '.join(f'{r:g}' for r in DEFAULT_RATE_LEVELS)})",
    )
    pareto.add_argument(
        "--max-chunk",
        type=int,
        default=512,
        metavar="N",
        help="largest candidate chunk size in words (default: 512)",
    )
    pareto.add_argument(
        "--chunk-stride",
        type=int,
        default=1,
        metavar="N",
        help="subsample the chunk axis (use >1 to speed up smoke runs)",
    )
    pareto.add_argument(
        "--fault-model",
        default=None,
        metavar="NAME",
        help=f"upset model shaping the failure objective (one of: "
        f"{', '.join(available_fault_models())}; default: the SMU-dominated mixture)",
    )
    pareto.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    _add_constraint_options(pareto)
    _add_metrics_option(pareto)
    _add_output_options(pareto)

    # --- campaign-as-a-service ------------------------------------------- #
    serve = subparsers.add_parser(
        "serve", help="run the long-lived experiment server (HTTP + worker pool)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8077, help="bind port (default: 8077)")
    serve.add_argument(
        "--mode",
        choices=("process", "thread"),
        default="process",
        help="worker backend (default: process)",
    )
    serve.add_argument(
        "--min-workers", type=int, default=1, help="pool floor (default: 1)"
    )
    serve.add_argument(
        "--init-workers", type=int, default=None,
        help="workers at startup (default: --min-workers)",
    )
    serve.add_argument(
        "--max-workers", type=int, default=4, help="pool ceiling (default: 4)"
    )
    serve.add_argument(
        "--parallelism",
        type=float,
        default=1.0,
        help="shards-per-worker pressure in (0, 1] (default: 1.0)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="empty-queue seconds before scaling down to the floor (default: 30)",
    )
    serve.add_argument(
        "--scale-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between scaling ticks (default: 1)",
    )

    def _add_url_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url",
            default=None,
            help="server base URL (default: $REPRO_SERVICE_URL "
            f"or {DEFAULT_SERVICE_URL})",
        )

    submit = subparsers.add_parser(
        "submit", help="submit a campaign to a running experiment server"
    )
    _add_url_option(submit)
    _add_spec_options(submit)
    submit.add_argument(
        "--seeds", type=int, nargs="+", default=None, help="explicit campaign seeds"
    )
    submit.add_argument(
        "--runs", type=int, default=10, help="number of runs when --seeds is not given"
    )
    submit.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="seeds per block shard of a behavioural campaign (default: 4); "
        "a batched one is sharded by its REPRO_BATCH_BLOCK seed blocks",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="stream the results and render them instead of printing the job id",
    )
    _add_engine_option(submit)
    _add_constraint_options(submit)
    _add_output_options(submit)

    jobs_cmd = subparsers.add_parser("jobs", help="list a server's jobs")
    _add_url_option(jobs_cmd)
    _add_output_options(jobs_cmd)

    results_cmd = subparsers.add_parser(
        "results", help="fetch (and by default follow) one job's result rows"
    )
    _add_url_option(results_cmd)
    results_cmd.add_argument("job_id", help="job id, e.g. job-000001")
    results_cmd.add_argument(
        "--no-wait",
        action="store_true",
        help="return only the rows ready now instead of following the job",
    )
    _add_output_options(results_cmd)

    stats_cmd = subparsers.add_parser(
        "stats", help="show a running server's queue/pool/telemetry summary"
    )
    _add_url_option(stats_cmd)
    stats_cmd.add_argument(
        "--watch",
        action="store_true",
        help="keep polling and reprinting the summary until interrupted",
    )
    stats_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between polls with --watch (default: 2)",
    )
    stats_cmd.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="stop after N polls with --watch (default: until Ctrl-C)",
    )
    _add_output_options(stats_cmd)

    # --- registry discovery ---------------------------------------------- #
    listing = subparsers.add_parser(
        "list", help="enumerate every registry (apps, strategies, fault models, scenarios)"
    )
    _add_output_options(listing)

    # --- time-varying fault environments --------------------------------- #
    scenarios = subparsers.add_parser(
        "scenarios", help="time-varying fault environments (list / run / sweep)"
    )
    scenario_sub = scenarios.add_subparsers(
        dest="scenario_command", required=True, metavar="action"
    )

    scn_list = scenario_sub.add_parser("list", help="list registered scenarios")
    _add_output_options(scn_list)

    scn_run = scenario_sub.add_parser(
        "run", help="execute one experiment under a fault environment"
    )
    _add_spec_options(scn_run)
    scn_run.add_argument("--seed", type=int, default=0, help="workload/fault seed (default: 0)")
    _add_constraint_options(scn_run)
    _add_output_options(scn_run)

    scn_sweep = scenario_sub.add_parser(
        "sweep", help="grid of (scenario, strategy) pairs on one workload"
    )
    scn_sweep.add_argument(
        "--app",
        default="adpcm-encode",
        metavar="NAME",
        help=f"application to run (one of: {', '.join(available_applications())})",
    )
    scn_sweep.add_argument(
        "--scenarios",
        nargs="+",
        default=list(DEFAULT_SCENARIOS),
        metavar="NAME",
        help=f"environments to sweep (default: {' '.join(DEFAULT_SCENARIOS)})",
    )
    scn_sweep.add_argument(
        "--strategies",
        nargs="+",
        default=list(DEFAULT_SCENARIO_STRATEGIES),
        metavar="NAME",
        help="strategies to compare; relative energy is vs the first "
        f"(default: {' '.join(DEFAULT_SCENARIO_STRATEGIES)})",
    )
    _add_seeds_option(scn_sweep)
    _add_constraint_options(scn_sweep)
    _add_jobs_option(scn_sweep)
    _add_engine_option(scn_sweep)
    _add_output_options(scn_sweep)

    # --- result warehouse ------------------------------------------------- #
    warehouse = subparsers.add_parser(
        "warehouse",
        help="inspect and manage the content-addressed result warehouse "
        "(stats / ls / gc / export)",
    )
    warehouse_sub = warehouse.add_subparsers(
        dest="warehouse_command", required=True, metavar="action"
    )

    wh_stats = warehouse_sub.add_parser(
        "stats", help="entry counts, disk usage and staleness of the store"
    )
    _add_output_options(wh_stats)

    wh_ls = warehouse_sub.add_parser("ls", help="list stored result units, oldest first")
    wh_ls.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="only units of this spec kind (execute, optimize, feasibility, pareto)",
    )
    wh_ls.add_argument(
        "--stale",
        action="store_true",
        help="only units whose code/data fingerprint no longer matches this build",
    )
    _add_output_options(wh_ls)

    wh_gc = warehouse_sub.add_parser(
        "gc",
        help="drop stale, old or all units (corrupt files are always collected)",
    )
    wh_gc.add_argument(
        "--stale",
        action="store_true",
        help="drop units whose code/data fingerprint no longer matches this build",
    )
    wh_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="drop units older than DAYS",
    )
    wh_gc.add_argument(
        "--all", dest="drop_all", action="store_true", help="drop every unit"
    )
    _add_output_options(wh_gc)

    wh_export = warehouse_sub.add_parser(
        "export", help="dump stored units as one portable JSON document"
    )
    wh_export.add_argument(
        "path", metavar="PATH", help="file the JSON document is written to"
    )
    wh_export.add_argument(
        "--key",
        default=None,
        metavar="PREFIX",
        help="only units whose content key starts with PREFIX",
    )
    _add_output_options(wh_export)

    return parser


def _constraints_from_args(args: argparse.Namespace):
    error_rate = args.error_rate
    if error_rate is None:
        error_rate = PAPER_OPERATING_POINT.error_rate
    return PAPER_OPERATING_POINT.with_overrides(
        error_rate=error_rate,
        area_overhead=args.area_budget,
        cycle_overhead=args.cycle_budget,
    )


def _spec_from_args(args: argparse.Namespace, kind: str = "execute") -> ExperimentSpec:
    strategy_params = {}
    if args.chunk_words is not None:
        strategy_params["chunk_words"] = args.chunk_words
    return ExperimentSpec(
        app=args.app,
        strategy=args.strategy,
        kind=kind,
        strategy_params=strategy_params,
        constraints=_constraints_from_args(args),
        fault_model=args.fault_model,
        scenario=getattr(args, "scenario", "paper-constant"),
        scenario_params=_parse_kv_params(getattr(args, "scenario_param", None)),
        seed=getattr(args, "seed", 0),
        engine=getattr(args, "engine", "behavioural"),
    )


def _registry_listing() -> ResultSet:
    """Every registry name, one row per (registry, name) pair."""
    records = []
    for app in available_applications():
        records.append({"registry": "app", "name": app, "description": ""})
    for strategy in available_strategies():
        records.append({"registry": "strategy", "name": strategy, "description": ""})
    for model in available_fault_models():
        records.append({"registry": "fault-model", "name": model, "description": ""})
    for scenario in available_scenarios():
        records.append(
            {
                "registry": "scenario",
                "name": scenario,
                "description": scenario_description(scenario),
            }
        )
    return ResultSet.from_records(
        "Registries — valid names for specs and CLI options", records
    )


def _scenario_listing() -> ResultSet:
    """The scenario registry with factory descriptions."""
    return ResultSet.from_records(
        "Fault environments — registered scenarios",
        [
            {"name": name, "description": scenario_description(name)}
            for name in available_scenarios()
        ],
    )


def _run_spec_section(
    args: argparse.Namespace, session: Session, show_scenario: bool = False
) -> list:
    """Shared implementation of ``run`` and ``scenarios run``."""
    spec = _spec_from_args(args)
    outcome = session.run(spec)
    environment = f" under {spec.scenario_name}" if show_scenario else ""
    title = f"Run — {spec.app_name} / {spec.strategy}{environment} (seed {spec.seed})"
    return [ResultSet.from_records(title, outcome.records)]


def _scenario_sections(args: argparse.Namespace, session: Session) -> list:
    if args.scenario_command == "list":
        return [_scenario_listing()]

    if args.scenario_command == "run":
        return _run_spec_section(args, session, show_scenario=True)

    if args.scenario_command == "sweep":
        result = scenario_sweep(
            scenarios=args.scenarios,
            application=args.app,
            strategies=args.strategies,
            constraints=_constraints_from_args(args),
            seeds=tuple(args.seeds),
            session=session,
            jobs=args.jobs,
            engine=getattr(args, "engine", None),
        )
        return [result]

    raise AssertionError(
        f"unhandled scenarios action {args.scenario_command!r}"
    )  # pragma: no cover


def _artefact_sections(args: argparse.Namespace, session: Session) -> list:
    constraints = _constraints_from_args(args)
    jobs = getattr(args, "jobs", 1)
    seeds = tuple(getattr(args, "seeds", (0, 1, 2)))
    name = args.command

    sections: list[ResultSet] = []
    if name in ("fig4", "all"):
        sections.append(fig4_feasible_region(constraints, session=session))
    if name in ("table1", "all"):
        sections.append(table1_optimal_chunks(constraints, session=session, jobs=jobs))
    if name in ("fig5", "timing", "all"):
        fig5 = fig5_energy(
            constraints,
            seeds=seeds,
            session=session,
            jobs=jobs,
            engine=args.engine,
        )
        if name in ("fig5", "all"):
            sections.append(fig5)
        if name in ("timing", "all"):
            sections.append(timing_overhead(fig5=fig5))
    if name in ("ablations", "all"):
        common = {"constraints": constraints, "session": session, "jobs": jobs}
        sections.append(ablation_error_rate(**common))
        sections.append(ablation_area_budget(**common))
        sections.append(ablation_correction_strength(**common))
        sections.append(ablation_drain_latency(**common))
    return sections


def _serve(args: argparse.Namespace) -> int:
    """Run the experiment server until SIGINT/SIGTERM."""
    from .telemetry.logs import configure_logging
    from .service.scaling import ScalingPolicy
    from .service.server import ExperimentServer

    configure_logging()
    policy = ScalingPolicy(
        min_workers=args.min_workers,
        init_workers=args.init_workers if args.init_workers is not None else args.min_workers,
        max_workers=args.max_workers,
        parallelism=args.parallelism,
        idle_timeout_s=args.idle_timeout,
        interval_s=args.scale_interval,
    )
    server = ExperimentServer(host=args.host, port=args.port, policy=policy, mode=args.mode)

    def _shutdown(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    print(f"repro-experiments: serving on {server.url} (Ctrl-C to stop)", file=sys.stderr)
    server.serve_forever()
    return 0


def _service_sections(args: argparse.Namespace) -> list:
    """Shared implementation of ``submit``, ``jobs`` and ``results``."""
    from urllib.error import URLError

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url or _default_service_url())
    try:
        return _service_sections_inner(args, client)
    except ServiceError as error:
        hint = ""
        if error.choices:
            hint = "".join(
                f"; valid {name}: {', '.join(values)}"
                for name, values in error.choices.items()
            )
        raise ValueError(f"{error}{hint}") from None
    except URLError as error:
        raise ValueError(
            f"cannot reach {client.base_url} ({error.reason}); "
            "is `repro-experiments serve` running?"
        ) from None


def _stats_record(stats: dict) -> dict:
    """Flatten one ``/v1/stats`` payload into a single summary row."""
    queue = stats.get("queue", {})
    pool = stats.get("pool", {})
    jobs = queue.get("jobs", {})
    uptime = stats.get("uptime_s")
    return {
        "uptime_s": None if uptime is None else round(uptime, 1),
        "mode": pool.get("mode"),
        "workers": pool.get("workers"),
        "busy": pool.get("busy"),
        "active_shards": queue.get("shards", {}).get("active"),
        "queued": jobs.get("queued"),
        "running": jobs.get("running"),
        "done": jobs.get("done"),
        "failed": jobs.get("failed"),
        "cancelled": jobs.get("cancelled"),
        "submitted": queue.get("total_submitted"),
        "telemetry": "on" if stats.get("telemetry", {}).get("enabled") else "off",
    }


def _stats_watch(args: argparse.Namespace, client) -> int:
    """Poll ``/v1/stats`` and reprint the summary every ``--interval``."""
    from urllib.error import URLError

    polls = 0
    try:
        while args.count is None or polls < args.count:
            section = ResultSet.from_records(
                f"Stats — {client.base_url}", [_stats_record(client.stats())]
            )
            print(section.render(), flush=True)
            polls += 1
            if args.count is not None and polls >= args.count:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    except URLError as error:
        print(
            f"repro-experiments: error: cannot reach {client.base_url} "
            f"({error.reason}); is `repro-experiments serve` running?",
            file=sys.stderr,
        )
        return 2
    return 0


def _service_sections_inner(args: argparse.Namespace, client) -> list:
    if args.command == "stats":
        return [
            ResultSet.from_records(
                f"Stats — {client.base_url}", [_stats_record(client.stats())]
            )
        ]

    if args.command == "jobs":
        records = [
            {
                "job_id": job["job_id"],
                "state": job["state"],
                "kind": job["kind"],
                "specs": job["specs"],
                "rows_ready": job["rows_ready"],
                "duration_s": job["duration_s"],
                "label": job["label"],
            }
            for job in client.jobs()
        ]
        return [ResultSet.from_records(f"Jobs — {client.base_url}", records)]

    if args.command == "results":
        return [client.result_set(args.job_id, wait=not args.no_wait)]

    # submit
    spec = CampaignSpec(
        base=_spec_from_args(args),
        seeds=tuple(args.seeds) if args.seeds is not None else (),
        runs=args.runs,
    )
    payload: dict = {"kind": "campaign", "spec": spec.to_dict()}
    if args.shard_size is not None:
        payload["shard_size"] = args.shard_size
    job = client.submit(payload)
    if args.wait:
        return [client.result_set(job["job_id"], wait=True)]
    return [
        ResultSet.from_records(
            f"Submitted — {job['job_id']}",
            [
                {
                    "job_id": job["job_id"],
                    "state": job["state"],
                    "specs": job["specs"],
                    "shards": job["shards"]["total"],
                    "spec_sha256": job["spec_sha256"],
                }
            ],
        )
    ]


def _warehouse_sections(args: argparse.Namespace) -> list:
    """The ``warehouse stats|ls|gc|export`` maintenance surface."""
    import json

    from .warehouse import default_warehouse, fingerprint_digest

    warehouse = default_warehouse()
    action = args.warehouse_command

    if action == "stats":
        summary = warehouse.summary()
        by_kind = summary.pop("by_kind")
        record = {
            **summary,
            **{f"{kind}_entries": count for kind, count in sorted(by_kind.items())},
        }
        return [ResultSet.from_records(f"Warehouse — {summary['directory']}", [record])]

    if action == "ls":
        current = fingerprint_digest()
        records = []
        for entry in warehouse.entries():
            stale = entry.fingerprint != current
            if args.kind is not None and entry.kind != args.kind:
                continue
            if args.stale and not stale:
                continue
            records.append(
                {
                    "key": entry.key[:16],
                    "kind": entry.kind,
                    "engine": entry.engine,
                    "specs": entry.specs,
                    "rows": entry.rows,
                    "bytes": entry.nbytes,
                    "artifact": "yes" if entry.artifact is not None else "-",
                    "stale": "yes" if stale else "-",
                }
            )
        return [
            ResultSet.from_records(
                f"Warehouse units — {warehouse.directory}",
                records,
                columns=(
                    "key", "kind", "engine", "specs", "rows", "bytes", "artifact", "stale",
                ),
            )
        ]

    if action == "gc":
        max_age_s = None if args.max_age_days is None else args.max_age_days * 86400.0
        result = warehouse.gc(
            max_age_s=max_age_s, stale=args.stale, drop_all=args.drop_all
        )
        return [
            ResultSet.from_records(f"Warehouse gc — {warehouse.directory}", [result])
        ]

    if action == "export":
        document = warehouse.export(key_prefix=args.key)
        write_report(args.path, json.dumps(document, indent=2))
        return [
            ResultSet.from_records(
                f"Warehouse export — {args.path}",
                [
                    {
                        "entries": len(document["entries"]),
                        "path": args.path,
                        "fingerprint": document["fingerprint"][:16],
                    }
                ],
            )
        ]

    raise AssertionError(
        f"unhandled warehouse action {action!r}"
    )  # pragma: no cover


def _run_sections(args: argparse.Namespace) -> list:
    if args.command in ("submit", "jobs", "results", "stats"):
        return _service_sections(args)

    if args.command == "warehouse":
        return _warehouse_sections(args)

    session = Session()
    if args.command in ARTEFACTS:
        return _artefact_sections(args, session)

    if args.command == "list":
        return [_registry_listing()]

    if args.command == "scenarios":
        return _scenario_sections(args, session)

    if args.command == "run":
        return _run_spec_section(args, session)

    if args.command == "pareto":
        # The grid's rate axis supersedes the scalar --error-rate: an
        # explicitly passed --error-rate becomes the (single) rate level
        # rather than being silently ignored; combining both is ambiguous
        # and rejected loudly.
        rates = args.rates
        if rates is not None and args.error_rate is not None:
            raise ValueError(
                "pass either --rates (the grid's fault-rate levels) or "
                "--error-rate (a single level), not both"
            )
        if rates is None and args.error_rate is not None:
            rates = [args.error_rate]
        front = session.pareto(
            args.app,
            objectives=args.objectives,
            nodes=args.nodes,
            ecc=args.ecc,
            correctable_bits=args.correctable_bits,
            rate_levels=rates,
            max_chunk_words=args.max_chunk,
            chunk_stride=args.chunk_stride,
            seed=args.seed,
            constraints=_constraints_from_args(args),
            fault_model=args.fault_model,
        )
        return [front.to_result_set()]

    if args.command == "campaign":
        spec = CampaignSpec(
            base=_spec_from_args(args),
            seeds=tuple(args.seeds) if args.seeds is not None else (),
            runs=args.runs,
        )
        report = session.campaign(spec, jobs=args.jobs)
        title = f"Campaign — {spec.base.app_name} / {spec.base.strategy}"
        return [report.to_result_set(title)]

    if args.command == "sweep":
        sweep = SweepSpec(
            base=_spec_from_args(args, kind=args.kind),
            parameters={args.param: tuple(_parse_value(v) for v in args.values)},
        )
        title = f"Sweep — {sweep.base.app_name} / {args.param}"
        return [session.sweep(sweep, jobs=args.jobs, title=title)]

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """Entry point used by the ``repro-experiments`` console script."""
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    try:
        if args.command == "stats" and args.watch:
            from .service.client import ServiceClient

            return _stats_watch(args, ServiceClient(args.url or _default_service_url()))
        sections = _run_sections(args)
    except (KeyError, ValueError) as error:
        # Spec construction / registry lookup problems carry a readable
        # message; surface it as a CLI error instead of a traceback.
        message = error.args[0] if error.args else str(error)
        print(f"repro-experiments: error: {message}", file=sys.stderr)
        return 2
    if getattr(args, "metrics_out", None):
        from .telemetry import append_snapshot

        append_snapshot(args.metrics_out, command=args.command)
        print(f"appended metrics snapshot to {args.metrics_out}", file=sys.stderr)
    if args.format == "table":
        # Human output keeps each artefact's curated rendering (subsampled
        # Fig. 4 boundary, percent-formatted Table I/Fig. 5 columns, ...).
        text = "\n\n".join(section.render() for section in sections)
    else:
        result_sets = [
            section if isinstance(section, ResultSet) else section.to_result_set()
            for section in sections
        ]
        text = render_result_sets(result_sets, fmt=args.format)
    if args.output:
        # Creates missing parent directories, so reports can target fresh
        # paths like results/2026-07/fig5.json directly.
        write_report(args.output, text)
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())

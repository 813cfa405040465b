"""Benchmark: vectorized batch campaign engine vs the behavioural engine.

The batched engine exists to make fig5-scale fault-injection campaigns —
hundreds to thousands of seeds per (app, strategy) — cheap.  This bench
runs the same 1000-run campaign through both engines, asserts the
≥10x speedup the engine was built for, checks the aggregates agree, and
archives the measurement as ``benchmarks/results/BENCH_batch.json`` — the
perf-trajectory artefact CI uploads next to ``BENCH_scenarios.json``::

    PYTHONPATH=src python benchmarks/bench_batch.py --smoke

``--smoke`` measures one (app, strategy) cell; the full mode covers all
five Fig. 5 configurations.

On top of the engine-vs-engine cells the artefact carries a
**seeds-vs-memory scaling** curve: streamed campaigns at growing seed
counts under the default block size, recording the
``repro_batch_peak_bytes`` working-set high-water mark.  The memory gate
asserts a million-seed streamed campaign stays under a fixed byte
budget: out-of-core blocking means memory is O(block), not O(seeds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.api.executors import ParallelExecutor
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.batch.streaming import (
    batch_block_size,
    blocks_total,
    peak_bytes,
    reset_block_metrics,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: The campaign scale the speedup claim is made at.
CAMPAIGN_RUNS = 1000

#: Seed counts of the seeds-vs-memory scaling curve (the last point is
#: the memory gate's million-seed campaign).
SCALING_SEEDS = (10_000, 100_000, 1_000_000)

#: Fixed working-set budget for the million-seed streamed campaign.
#: The default 64Ki block accounts ~16 MB live arrays; the budget leaves
#: headroom without ever permitting O(seeds) growth (10^6 seeds
#: materialized would account >240 MB).
MEMORY_BUDGET_BYTES = 64 * 2**20

#: Metrics whose campaign means must agree between the engines (z-bound).
CHECKED_METRICS = ("energy_nj", "total_cycles", "upsets_injected", "rollbacks")

BENCH_APP = "adpcm-encode"
SMOKE_STRATEGIES = (("hybrid-optimal", {}),)
FULL_STRATEGIES = (
    ("default", {}),
    ("sw-mitigation", {}),
    ("hw-mitigation", {}),
    ("hybrid-optimal", {}),
    ("hybrid-suboptimal", {}),
)


def _campaign_spec(strategy: str, params: dict, runs: int) -> CampaignSpec:
    return CampaignSpec(
        base=ExperimentSpec(app=BENCH_APP, strategy=strategy, strategy_params=params),
        runs=runs,
    )


def _agreement(report_a, report_b, runs: int) -> list[dict]:
    """Welch-style z per metric between the two engines' campaign means."""
    rows = []
    for metric in CHECKED_METRICS:
        a, b = report_a[metric], report_b[metric]
        spread = (a.stdev**2 / runs + b.stdev**2 / runs) ** 0.5
        z = abs(a.mean - b.mean) / spread if spread else 0.0
        rows.append(
            {
                "metric": metric,
                "behavioural_mean": a.mean,
                "batched_mean": b.mean,
                "z": z,
            }
        )
    return rows


def _run_cell(strategy: str, params: dict, runs: int, jobs: int) -> dict:
    session = Session()
    spec = _campaign_spec(strategy, params, runs)

    start = time.perf_counter()
    behavioural = session.campaign(spec, executor=ParallelExecutor(jobs=jobs))
    behavioural_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = session.campaign(spec, engine="batched")
    batched_seconds = time.perf_counter() - start

    agreement = _agreement(behavioural, batched, runs)
    return {
        "strategy": strategy,
        "runs": runs,
        "behavioural_seconds": round(behavioural_seconds, 3),
        "batched_seconds": round(batched_seconds, 3),
        "speedup": round(behavioural_seconds / batched_seconds, 1),
        "agreement": agreement,
        "max_z": round(max(row["z"] for row in agreement), 2),
    }


def _memory_scaling(seed_counts: tuple[int, ...]) -> list[dict]:
    """Streamed campaigns at growing seed counts, one peak reading each.

    The point of the curve: runtime grows linearly with the seed count
    while ``peak_bytes`` stays flat at the per-block working set.
    """
    session = Session()
    base = ExperimentSpec(app=BENCH_APP, strategy="hybrid-optimal", engine="batched")
    points = []
    for count in seed_counts:
        reset_block_metrics()
        start = time.perf_counter()
        report = session.campaign(base, seeds=range(count), stream=True)
        seconds = time.perf_counter() - start
        points.append(
            {
                "seeds": count,
                "block": batch_block_size(),
                "blocks": int(blocks_total("campaign")),
                "peak_bytes": int(peak_bytes("campaign")),
                "seconds": round(seconds, 3),
                "mean_energy_nj": report["energy_nj"].mean,
            }
        )
    return points


def test_batch_engine_speedup(benchmark, save_result):
    """pytest-benchmark probe: the batched 1000-run campaign itself."""
    session = Session()
    spec = _campaign_spec("hybrid-optimal", {}, CAMPAIGN_RUNS)
    report = benchmark.pedantic(
        lambda: session.campaign(spec, engine="batched"), rounds=1, iterations=1
    )
    save_result("batch_campaign", report)
    assert report.runs == CAMPAIGN_RUNS
    assert report["fully_mitigated"].mean == 1.0

    # Per-run cost comparison against a behavioural sample: the batched
    # engine must be at least an order of magnitude faster per run.
    sample = 50
    start = time.perf_counter()
    session.campaign(_campaign_spec("hybrid-optimal", {}, sample))
    behavioural_per_run = (time.perf_counter() - start) / sample
    start = time.perf_counter()
    session.campaign(spec, engine="batched")
    batched_per_run = (time.perf_counter() - start) / CAMPAIGN_RUNS
    assert behavioural_per_run / batched_per_run >= 10.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one (app, strategy) cell instead of all five Fig. 5 configurations",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="behavioural worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--output",
        default=str(RESULTS_DIR / "BENCH_batch.json"),
        metavar="PATH",
        help="where to write the JSON artefact",
    )
    args = parser.parse_args(argv)

    strategies = SMOKE_STRATEGIES if args.smoke else FULL_STRATEGIES
    jobs = args.jobs if args.jobs is not None else (ParallelExecutor().jobs)

    cells = []
    for strategy, params in strategies:
        cell = _run_cell(strategy, params, CAMPAIGN_RUNS, jobs)
        cells.append(cell)
        print(
            f"{BENCH_APP}/{strategy}: behavioural {cell['behavioural_seconds']:.1f}s "
            f"(ParallelExecutor, jobs={jobs}), batched {cell['batched_seconds']:.2f}s "
            f"-> {cell['speedup']:.0f}x, max |z| = {cell['max_z']:.2f}"
        )

    scaling = _memory_scaling(SCALING_SEEDS)
    for point in scaling:
        print(
            f"streamed {point['seeds']:>9,} seeds: {point['blocks']} blocks, "
            f"peak {point['peak_bytes'] / 2**20:.1f} MiB, {point['seconds']:.2f}s"
        )
    gate = scaling[-1]

    speedups = [cell["speedup"] for cell in cells]
    payload = {
        "bench": "batch",
        "mode": "smoke" if args.smoke else "full",
        "app": BENCH_APP,
        "runs": CAMPAIGN_RUNS,
        "behavioural_executor": f"ParallelExecutor(jobs={jobs})",
        "min_speedup": min(speedups),
        "median_speedup": statistics.median(speedups),
        "cells": cells,
        "memory_scaling": scaling,
        "memory_budget_bytes": MEMORY_BUDGET_BYTES,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[{payload['mode']}] archived to {output}")

    if min(speedups) < 10.0:
        print(
            f"FAIL: minimum speedup {min(speedups):.1f}x is below the 10x bar",
            file=sys.stderr,
        )
        return 1
    if any(cell["max_z"] > 6.0 for cell in cells):
        print("FAIL: engine aggregates diverge (|z| > 6)", file=sys.stderr)
        return 1
    if gate["peak_bytes"] > MEMORY_BUDGET_BYTES:
        print(
            f"FAIL: {gate['seeds']:,}-seed streamed campaign accounted "
            f"{gate['peak_bytes'] / 2**20:.1f} MiB, over the "
            f"{MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

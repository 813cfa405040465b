"""Benchmark: strategies under time-varying fault environments.

Sweeps one benchmark across the registered scenario grid — deterministic
and stochastic (Markov-modulated, random-burst) environments — with the
static (``hybrid-optimal``), oracle-adaptive (``hybrid-adaptive``) and
estimator-driven (``hybrid-estimating``) designs, and records how much of
the oracle's ``storm`` energy win over the static design the honest
estimator recovers (``storm_recovery``; CI gates it at 0.5)::

    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke

runs a reduced grid, times it, prints the table and archives
``benchmarks/results/BENCH_scenarios.json`` — the artefact CI uploads so
the perf trajectory accumulates run over run.  The scenario claims
themselves (adaptive equals static at the paper's constant rate, costs no
more under bursts, non-negative storm regret) are tier-1 tests.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis import scenario_sweep

RESULTS_DIR = Path(__file__).parent / "results"

#: Environments × strategies exercised by the full bench.  The first three
#: are the smoke slice, so it covers a constant, the storm (where the
#: estimator's regret is measured) and a stochastic process.
BENCH_SCENARIOS = (
    "paper-constant",
    "storm",
    "markov",
    "burst",
    "duty-cycle",
    "ramp",
    "random-burst",
)
BENCH_STRATEGIES = ("hybrid-optimal", "hybrid-adaptive", "hybrid-estimating")


def _run_sweep(seeds, scenarios=BENCH_SCENARIOS):
    return scenario_sweep(
        scenarios=list(scenarios),
        application="adpcm-encode",
        strategies=list(BENCH_STRATEGIES),
        seeds=seeds,
    )


def _storm_recovery(result) -> float:
    """Fraction of the oracle's storm energy win the estimator recovers."""
    static = result.cell("storm", "hybrid-optimal").energy_nj
    oracle = result.cell("storm", "hybrid-adaptive").energy_nj
    estimating = result.cell("storm", "hybrid-estimating").energy_nj
    win = static - oracle
    return (static - estimating) / win if win else 0.0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point archiving BENCH_scenarios.json for CI."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced grid (2 seeds, 3 scenarios) for CI smoke runs",
    )
    parser.add_argument(
        "--output",
        default=str(RESULTS_DIR / "BENCH_scenarios.json"),
        metavar="PATH",
        help="where to write the JSON artefact",
    )
    args = parser.parse_args(argv)

    seeds = (0, 1) if args.smoke else (0, 1, 2, 3, 4)
    scenarios = BENCH_SCENARIOS[:3] if args.smoke else BENCH_SCENARIOS

    start = time.perf_counter()
    result = _run_sweep(seeds, scenarios)
    elapsed = time.perf_counter() - start

    payload = {
        "bench": "scenarios",
        "mode": "smoke" if args.smoke else "full",
        "seeds": list(seeds),
        "wall_seconds": round(elapsed, 3),
        "storm_recovery": round(_storm_recovery(result), 4),
        "result": result.to_result_set().to_dict(),
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(result.render())
    print(f"\n[{payload['mode']}] {elapsed:.2f}s, archived to {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

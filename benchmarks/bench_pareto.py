"""Benchmark: vectorized Pareto explorer vs the scalar reference sweep.

The cross-technology explorer in :mod:`repro.batch.pareto` evaluates the
(technology node x ECC family x correction strength x chunk size x
fault-rate level) space and extracts exact per-rate Pareto fronts.  This
bench runs the same grids through both engines, verifies the fronts are
**bit-identical** (they must be — any divergence is a bug, not noise),
and archives the measurement as ``benchmarks/results/BENCH_pareto.json``
— the perf-trajectory artefact CI uploads next to ``BENCH_designspace.json``::

    PYTHONPATH=src python benchmarks/bench_pareto.py --smoke

The bench **fails** (exit 1) when any app's end-to-end speedup drops
below the 5x floor or when any front diverges.  ``--smoke`` explores one
benchmark (adpcm-encode); the full mode sweeps all five paper apps.

Methodology matches ``bench_designspace.py``: the task-profile cache is
redirected to a temporary directory (hermetic), characterizations are
computed once up front (shared by both engines), and per-engine timings
are best-of-N so the speedup isolates the engines themselves.

The artefact also carries a blocked run of the first app's grid
explorer (``block=256``), whose front must equal the unblocked one bit
for bit — the out-of-core streaming front is a pure partition of the
same work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.batch.pareto import grid_pareto_front, reference_pareto_front
from repro.runtime.executor import characterize_app
from repro.runtime.profile_cache import ENV_CACHE_DIR, default_cache

RESULTS_DIR = Path(__file__).parent / "results"

#: The bench fails below this per-app end-to-end speedup.
SPEEDUP_FLOOR = 5.0

#: The single benchmark of the smoke (CI) configuration.
SMOKE_APPS = ("adpcm-encode",)


def _best_of(repeats: int, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _check_fronts(reference, vectorized) -> list[str]:
    problems = []
    if vectorized.evaluated_points != reference.evaluated_points:
        problems.append("evaluated grid sizes differ between engines")
    if vectorized.points != reference.points:
        problems.append("pareto front points differ between engines")
    if vectorized != reference:
        problems.append("pareto fronts differ between engines")
    return problems


def _measure_cells(apps: tuple[str, ...], repeats: int) -> list[dict]:
    from repro.apps.registry import get_application

    characterizations = [
        characterize_app(get_application(name), 0) for name in apps
    ]
    cells = []
    for name, characterization in zip(apps, characterizations):
        # The scalar reference is the slow side; one timed run keeps the
        # bench quick while the grid engine gets best-of-N.
        reference_seconds, reference_front = _best_of(
            1, lambda c=characterization: reference_pareto_front(c)
        )
        grid_seconds, grid_front = _best_of(
            repeats, lambda c=characterization: grid_pareto_front(c)
        )
        cells.append(
            {
                "application": name,
                "grid_points": grid_front.evaluated_points,
                "front_points": len(grid_front),
                "rate_levels": len(grid_front.rate_levels()),
                "reference_seconds": round(reference_seconds, 4),
                "grid_seconds": round(grid_seconds, 4),
                "speedup": round(reference_seconds / grid_seconds, 1),
                "problems": _check_fronts(reference_front, grid_front),
            }
        )
    return cells


def _blocked_cell(characterization, repeats: int) -> dict:
    """Re-time the grid explorer in 256-point blocks.

    The blocked front must equal the unblocked one exactly: dominance is
    set-determined, so the block size may change only the wall clock,
    never a point.
    """
    reference = grid_pareto_front(characterization)
    block = 256
    seconds, blocked = _best_of(
        repeats, lambda c=characterization: grid_pareto_front(c, block=block)
    )
    return {
        "block": block,
        "grid_seconds": round(seconds, 4),
        "front_identical": blocked == reference,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="explore adpcm-encode only (the CI configuration); full mode "
        "sweeps all five paper benchmarks",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats for the grid engine; the best run is kept "
        "(default: 3)",
    )
    parser.add_argument(
        "--output",
        default=str(RESULTS_DIR / "BENCH_pareto.json"),
        metavar="PATH",
        help="where to write the JSON artefact",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        apps = SMOKE_APPS
    else:
        from repro.apps.registry import available_applications

        apps = tuple(available_applications())

    # Hermetic profile cache: never reads or pollutes ~/.cache/repro.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ[ENV_CACHE_DIR] = tmp
        default_cache().clear()
        cells = _measure_cells(apps, args.repeats)
        from repro.apps.registry import get_application

        blocked = _blocked_cell(characterize_app(get_application(apps[0]), 0), args.repeats)

    print(
        f"block={blocked['block']}: grid {blocked['grid_seconds'] * 1000:.0f}ms, "
        f"front identical: {blocked['front_identical']}"
    )

    problems = [problem for cell in cells for problem in cell["problems"]]
    if not blocked["front_identical"]:
        problems.append(f"block={blocked['block']} front differs from the unblocked front")
    for cell in cells:
        print(
            f"{cell['application']}: reference {cell['reference_seconds'] * 1000:.0f}ms, "
            f"grid {cell['grid_seconds'] * 1000:.0f}ms -> {cell['speedup']:.0f}x "
            f"({cell['front_points']} non-dominated of {cell['grid_points']} points)"
            + (f"  PROBLEMS: {cell['problems']}" if cell["problems"] else "")
        )

    speedups = [cell["speedup"] for cell in cells]
    payload = {
        "bench": "pareto",
        "mode": "smoke" if args.smoke else "full",
        "floor": SPEEDUP_FLOOR,
        "repeats": args.repeats,
        "min_speedup": min(speedups),
        "median_speedup": statistics.median(speedups),
        "cells": cells,
        "blocked_cell": blocked,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[{payload['mode']}] archived to {output}")

    if problems:
        print(f"FAIL: engine fronts diverge: {problems}", file=sys.stderr)
        return 1
    if min(speedups) < SPEEDUP_FLOOR:
        print(
            f"FAIL: minimum speedup {min(speedups):.1f}x is below the "
            f"{SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

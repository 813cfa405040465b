"""Benchmark: vectorized design-space engine vs the scalar reference walkers.

The grid solver in :mod:`repro.batch.design` is the only engine of the
design kinds, and exists to make design-space studies — the Fig. 4
feasible region, the Table I chunk optimizations and the
optimize/feasibility ablations — interactive.  This bench times the
scalar references (:func:`repro.core.feasibility.feasible_region`,
:meth:`repro.core.optimizer.ChunkSizeOptimizer.optimize`) against the
grid functions on the artefacts' own inputs, verifies the results are
identical (exact boundary/argmin, energies to ppm), and archives the
measurement as ``benchmarks/results/BENCH_designspace.json`` — the
perf-trajectory artefact CI uploads next to ``BENCH_batch.json``::

    PYTHONPATH=src python benchmarks/bench_designspace.py --smoke

The bench **fails** (exit 1) when the end-to-end speedup drops below the
5x floor or when any result diverges; the target the engine was built for
is >=20x on the raw sweeps.

Methodology: both sides are called directly, never through a
``Session``, so no repeat is served from the result warehouse.  The
task-profile cache is redirected to a temporary directory (hermetic),
the *cold vs warm* profiling cost is recorded once to show the cache
win, and the timings are then taken warm (best of N repeats) so the
speedup isolates the solver itself rather than the shared cache.
``--smoke`` measures fig4 + table1; the full mode adds the sweep points
of the four ablations and a scenario-rate grid.
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

from repro.apps.registry import get_application, paper_benchmarks
from repro.batch.design import grid_feasible_region, grid_optimal_chunks_for_rates, grid_optimize
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.feasibility import feasible_region
from repro.core.optimizer import ChunkSizeOptimizer
from repro.runtime.executor import characterize_app
from repro.runtime.profile_cache import ENV_CACHE_DIR, default_cache

RESULTS_DIR = Path(__file__).parent / "results"

#: The bench fails below this end-to-end speedup.
SPEEDUP_FLOOR = 5.0

#: Relative tolerance on energy figures ("to ppm").
ENERGY_RTOL = 1e-6

#: The default sweep points of the four ablations of
#: :mod:`repro.analysis.experiments`: (application, constraint field,
#: values), where ``None`` marks the area-budget feasibility sweep.
ABLATION_POINTS = (
    ("g721-decode", "error_rate", (1e-8, 1e-7, 5e-7, 1e-6, 2e-6)),
    (None, "area_overhead", (0.01, 0.02, 0.05, 0.10, 0.20)),
    ("jpeg-decode", "correctable_bits", (1, 2, 4, 8)),
    ("adpcm-encode", "drain_latency_cycles", (250, 500, 1000, 2000, 4000)),
)

#: The area-budget ablation's grid (``max_chunk_words=513``, stride 4).
ABLATION_GRID = {"chunk_sizes": range(1, 514, 4), "correctable_bits": range(1, 19)}

#: Rates of the full mode's scenario-rate-grid cell (what adaptive
#: strategies evaluate per scenario level).
RATE_GRID = tuple(coefficient * 10.0**exponent
                  for exponent in range(-9, -5)
                  for coefficient in (1.0, 2.0, 5.0))


def _best_of(repeats: int, fn):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _energies_close(a: float, b: float) -> bool:
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) <= ENERGY_RTOL * scale


def _reference_optimize(app, constraints):
    return ChunkSizeOptimizer(constraints).optimize(app)


def _check_region(label: str, reference, grid) -> list[str]:
    problems = []
    if reference.boundary() != grid.boundary():
        problems.append(f"{label} boundary differs from the reference")
    if reference.points != grid.points:
        problems.append(f"{label} grid points differ from the reference")
    return problems


def _check_optimization(label: str, reference, grid) -> list[str]:
    problems = []
    if (reference.chunk_words, reference.num_checkpoints) != (
        grid.chunk_words,
        grid.num_checkpoints,
    ):
        problems.append(f"{label} argmin differs")
    if not _energies_close(
        reference.best.energy_overhead_fraction, grid.best.energy_overhead_fraction
    ):
        problems.append(f"{label} energy overhead diverges")
    for ours, theirs in zip(reference.candidates, grid.candidates):
        if not _energies_close(ours.objective_pj, theirs.objective_pj):
            problems.append(f"{label} candidate energies diverge")
            break
    return problems


def _run_table1(optimize, apps):
    return [optimize(app, PAPER_OPERATING_POINT) for app in apps]


def _ablation_points():
    """Every ablation sweep point as (label, application or None, constraints)."""
    points = []
    for name, field, values in ABLATION_POINTS:
        app = get_application(name) if name is not None else None
        for value in values:
            constraints = PAPER_OPERATING_POINT.with_overrides(**{field: value})
            points.append((f"ablation {field}={value}", app, constraints))
    return points


def _run_ablations(walk_region, optimize, points):
    return [
        walk_region(constraints=constraints, **ABLATION_GRID)
        if app is None
        else optimize(app, constraints)
        for _, app, constraints in points
    ]


def _run_rate_grid_scalar(characterizations):
    chunks = {}
    for characterization in characterizations:
        per_rate = []
        for rate in RATE_GRID:
            optimizer = ChunkSizeOptimizer(
                PAPER_OPERATING_POINT.with_overrides(error_rate=rate)
            )
            try:
                per_rate.append(
                    optimizer.optimize_characterization(characterization).chunk_words
                )
            except ValueError:
                per_rate.append(1)
        chunks[characterization.name] = per_rate
    return chunks


def _run_rate_grid_vectorized(characterizations):
    return {
        characterization.name: grid_optimal_chunks_for_rates(
            characterization, PAPER_OPERATING_POINT, list(RATE_GRID), infeasible_chunk=1
        )
        for characterization in characterizations
    }


def _cell(artefact: str, reference_seconds: float, grid_seconds: float, problems, **extra):
    return {
        "artefact": artefact,
        **extra,
        "reference_seconds": round(reference_seconds, 4),
        "grid_seconds": round(grid_seconds, 4),
        "speedup": round(reference_seconds / grid_seconds, 1),
        "problems": problems,
    }


def _measure_cells(repeats: int, full: bool) -> tuple[list[dict], float, float]:
    # Cold vs warm characterization: the cache win shared by both sides
    # (input generation + workload walk on the first call, a content-keyed
    # memo hit afterwards).
    start = time.perf_counter()
    apps = paper_benchmarks()
    characterizations = [characterize_app(app, 0) for app in apps]
    cold_profile_seconds = time.perf_counter() - start
    start = time.perf_counter()
    for app in paper_benchmarks():
        characterize_app(app, 0)
    warm_profile_seconds = time.perf_counter() - start

    cells = []

    reference_seconds, reference_fig4 = _best_of(repeats, feasible_region)
    grid_seconds, grid_fig4 = _best_of(repeats, grid_feasible_region)
    cells.append(
        _cell(
            "fig4", reference_seconds, grid_seconds,
            _check_region("fig4", reference_fig4, grid_fig4),
            grid_points=len(reference_fig4.points),
        )
    )

    reference_seconds, reference_table1 = _best_of(
        repeats, lambda: _run_table1(_reference_optimize, apps)
    )
    grid_seconds, grid_table1 = _best_of(repeats, lambda: _run_table1(grid_optimize, apps))
    problems = []
    for app, ours, theirs in zip(apps, reference_table1, grid_table1):
        problems += _check_optimization(f"table1 {app.name}", ours, theirs)
    cells.append(
        _cell("table1", reference_seconds, grid_seconds, problems, benchmarks=len(apps))
    )

    if full:
        points = _ablation_points()
        reference_seconds, reference_abl = _best_of(
            repeats, lambda: _run_ablations(feasible_region, _reference_optimize, points)
        )
        grid_seconds, grid_abl = _best_of(
            repeats, lambda: _run_ablations(grid_feasible_region, grid_optimize, points)
        )
        problems = []
        for (label, app, _), ours, theirs in zip(points, reference_abl, grid_abl):
            check = _check_region if app is None else _check_optimization
            problems += check(label, ours, theirs)
        cells.append(
            _cell("ablations", reference_seconds, grid_seconds, problems, points=len(points))
        )

        reference_seconds, scalar_chunks = _best_of(
            1, lambda: _run_rate_grid_scalar(characterizations)
        )
        grid_seconds, vector_chunks = _best_of(
            repeats, lambda: _run_rate_grid_vectorized(characterizations)
        )
        cells.append(
            _cell(
                "rate-grid", reference_seconds, grid_seconds,
                []
                if scalar_chunks == vector_chunks
                else ["rate-grid argmin chunks differ from the reference"],
                rates=len(RATE_GRID),
            )
        )

    return cells, cold_profile_seconds, warm_profile_seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fig4 + table1 only (the CI configuration); full mode adds "
        "the ablation suite and the scenario-rate grid",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats per side; the best run is kept (default: 3)",
    )
    parser.add_argument(
        "--output",
        default=str(RESULTS_DIR / "BENCH_designspace.json"),
        metavar="PATH",
        help="where to write the JSON artefact",
    )
    args = parser.parse_args(argv)

    # Hermetic profile cache: never reads or pollutes ~/.cache/repro, and
    # the first characterization in this process is genuinely cold.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ[ENV_CACHE_DIR] = tmp
        default_cache().clear()
        cells, cold_profile, warm_profile = _measure_cells(
            args.repeats, full=not args.smoke
        )

    problems = [problem for cell in cells for problem in cell["problems"]]
    for cell in cells:
        print(
            f"{cell['artefact']}: reference {cell['reference_seconds'] * 1000:.1f}ms, "
            f"grid {cell['grid_seconds'] * 1000:.1f}ms "
            f"-> {cell['speedup']:.0f}x"
            + (f"  PROBLEMS: {cell['problems']}" if cell["problems"] else "")
        )
    print(
        f"profile cache: cold {cold_profile * 1000:.1f}ms -> warm "
        f"{warm_profile * 1000:.1f}ms for the five paper benchmarks"
    )

    speedups = [cell["speedup"] for cell in cells]
    payload = {
        "bench": "designspace",
        "mode": "smoke" if args.smoke else "full",
        "floor": SPEEDUP_FLOOR,
        "repeats": args.repeats,
        "min_speedup": min(speedups),
        "median_speedup": statistics.median(speedups),
        "profile_cache": {
            "cold_seconds": round(cold_profile, 4),
            "warm_seconds": round(warm_profile, 4),
        },
        "cells": cells,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[{payload['mode']}] archived to {output}")

    if problems:
        print(f"FAIL: grid results diverge from the reference: {problems}", file=sys.stderr)
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

#!/usr/bin/env python3
"""Design-space exploration around the paper's operating point.

Regenerates the designer-facing views of the proposal:

* the Fig. 4 feasible region (how strong an ECC the protected buffer can
  carry at each size under the 5 % area budget);
* the Table I optimum chunk sizes for all five benchmarks;
* sensitivity of the optimum to the area budget OV1 and to the upset rate
  (the ablations of :mod:`repro.analysis.experiments`).

Run with:  python examples/design_space_exploration.py

Every sweep runs on the vectorized grid solver of
:mod:`repro.batch.design`, which is what makes full-resolution
exploration interactive:

    python examples/design_space_exploration.py --full

``--jobs N`` fans the per-benchmark optimizations out across processes.
"""

from __future__ import annotations

import argparse
import time

from repro.analysis import (
    ablation_area_budget,
    ablation_error_rate,
    fig4_feasible_region,
    table1_optimal_chunks,
)
from repro.core import PAPER_OPERATING_POINT


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the per-benchmark optimizations (default: 1)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-resolution Fig. 4 grid (chunk stride 1 instead of 4)",
    )
    args = parser.parse_args(argv)

    constraints = PAPER_OPERATING_POINT
    start = time.perf_counter()

    print(fig4_feasible_region(constraints, chunk_stride=1 if args.full else 4).render())
    print()
    print(table1_optimal_chunks(constraints, jobs=args.jobs).render())
    print()
    print(ablation_area_budget(constraints=constraints).render())
    print()
    print(ablation_error_rate(constraints=constraints, jobs=args.jobs).render())
    print()
    print(
        "Reading the tables: the area budget caps how large (and how strongly\n"
        "protected) L1' can be; the upset rate moves the optimum chunk size —\n"
        "higher rates favour smaller chunks because re-computation dominates,\n"
        "lower rates favour larger chunks because checkpoint triggers dominate."
    )
    print(f"\n[{time.perf_counter() - start:.2f}s]")


if __name__ == "__main__":
    main()

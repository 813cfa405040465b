#!/usr/bin/env python3
"""Cross-technology Pareto exploration of the mitigation design space.

The paper sizes one design (65 nm, 4-bit-correcting buffer) for one
operating point.  This example asks the broader design-review questions:

1. how do the Table I optima and the Fig. 4 budgets move across process
   nodes (45/65/90 nm) — ``repro.analysis.cross_technology_sweep``;
2. which (node, ECC family, correction strength, chunk size)
   configurations are Pareto-optimal over energy / runtime / area /
   residual-failure probability at each fault-rate level — the
   ``repro.batch.pareto`` explorer;
3. which single configuration is the balanced compromise (the knee point)
   per environment.

Run with:  python examples/pareto_explorer.py
           python examples/pareto_explorer.py --app jpeg-decode

The whole grid is evaluated as NumPy array operations, bit-identical to
the point-by-point scalar reference (that equivalence is
regression-tested and benchmarked by ``benchmarks/bench_pareto.py``).
"""

from __future__ import annotations

import argparse
import time

from repro.analysis import cross_technology_sweep
from repro.api import Session


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--app", default="adpcm-encode", help="application to explore")
    parser.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=None,
        help="fault-rate levels (default: 1e-7 1e-6 5e-6)",
    )
    args = parser.parse_args(argv)

    # --- 1. per-node replays of the paper's design-space artefacts -------
    start = time.perf_counter()
    nodes = cross_technology_sweep(applications=[args.app])
    print(nodes.render())
    print(f"(swept {len(nodes.nodes)} nodes in {time.perf_counter() - start:.2f}s)")
    print()

    # --- 2. the multi-objective front ------------------------------------
    session = Session()
    start = time.perf_counter()
    front = session.pareto(args.app, rate_levels=args.rates)
    elapsed = time.perf_counter() - start
    print(
        f"Explored {front.evaluated_points} design points in {elapsed:.2f}s: "
        f"{len(front)} are Pareto-optimal."
    )
    print()

    # --- 3. the balanced compromise per environment ----------------------
    print("Knee configuration per fault-rate level:")
    for rate in front.rate_levels():
        knee = front.knee_point(rate)
        print(
            f"  rate {rate:8.1e}: {knee.technology} {knee.scheme} "
            f"t={knee.correctable_bits} chunk={knee.chunk_words} words -> "
            f"energy +{knee.energy_overhead:.1%}, runtime +{knee.cycle_overhead:.1%}, "
            f"area {knee.area_fraction:.2%}, "
            f"P(unmitigated) {knee.failure_probability:.2e}"
        )
    print()
    print("Front sizes per rate level:", {
        f"{rate:g}": len(front.at_rate(rate)) for rate in front.rate_levels()
    })
    print()
    print("Tip: front.to_result_set() / to_json() / to_csv() feed the same")
    print("machine-readable results layer as every other artefact; the CLI")
    print("equivalent is `repro-experiments pareto --app ... --format json`.")


if __name__ == "__main__":
    main()

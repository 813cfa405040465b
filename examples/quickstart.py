#!/usr/bin/env python3
"""Quickstart: protect one streaming task with the hybrid HW-SW scheme.

This walks through the paper's flow end to end on a single benchmark,
using the unified experiment API (specs + Session):

1. pick a MediaBench-class workload (IMA ADPCM encoding of a speech frame);
2. solve the chunk-size optimization (Eq. 3–7) for the paper's constraints
   (5 % area, 10 % cycles, 1e-6 upsets/word/cycle) — an ``optimize`` spec;
3. run the task on the behavioural SoC platform without protection and
   with the hybrid scheme, under the same fault stream — ``execute`` specs;
4. aggregate a short multi-seed campaign (mean / median / p95) the way a
   production fleet would judge tail behaviour.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import CampaignSpec, ExperimentSpec, PAPER_OPERATING_POINT, Session


def main() -> None:
    constraints = PAPER_OPERATING_POINT
    session = Session(constraints=constraints)

    # --- 1. design-time: size the protected buffer L1' -------------------
    sizing = session.run(ExperimentSpec(app="adpcm-encode", kind="optimize"))
    best = sizing.record
    optimization = sizing.artifact  # the full OptimizationResult object
    print("=== Design-time optimization (Eq. 3-7) ===")
    print(f"application            : {best['application']}")
    print(f"optimum chunk size     : {best['chunk_words']} words")
    print(f"checkpoints per task   : {best['num_checkpoints']}")
    print(
        f"L1' area / L1 area     : {best['area_fraction']:.2%} "
        f"(budget {constraints.area_overhead:.0%})"
    )
    print(f"predicted energy ovh.  : {best['energy_overhead_fraction']:.1%}")
    print(
        f"predicted cycle ovh.   : {best['cycle_overhead_fraction']:.1%} "
        f"(budget {constraints.cycle_overhead:.0%})"
    )
    print()

    # --- 2. run-time: execute with and without the mitigation ------------
    # A moderately elevated upset rate makes the demo deterministic enough
    # to actually show a recovery within one frame.
    demo_point = constraints.with_overrides(error_rate=1e-5)
    seed = 7
    specs = [
        ExperimentSpec(app="adpcm-encode", strategy="default",
                       constraints=demo_point, seed=seed),
        ExperimentSpec(
            app="adpcm-encode",
            strategy="hybrid",
            strategy_params={"chunk_words": optimization.chunk_words},
            constraints=demo_point,
            seed=seed,
        ),
    ]
    unprotected, protected = session.run_all(specs)

    print("=== Behavioural execution under fault injection ===")
    for outcome in (unprotected, protected):
        record = outcome.record
        print(f"[{record['strategy']}]")
        print(f"  energy            : {record['energy_nj']:10.1f} nJ")
        print(f"  execution cycles  : {record['total_cycles']:.0f}")
        print(f"  upsets injected   : {record['upsets_injected']:.0f}")
        print(f"  errors detected   : {record['errors_detected']:.0f}")
        print(f"  rollbacks         : {record['rollbacks']:.0f}")
        print(f"  output correct    : {record['output_correct'] == 1.0}")
        print(f"  deadline met      : {record['deadline_met'] == 1.0}")

    ratio = protected.record["energy_pj"] / unprotected.record["energy_pj"]
    print()
    print(f"Energy overhead of full mitigation on this frame: {ratio - 1.0:.1%}")
    print("(the paper reports 10.1 % on average, 22 % in the worst case)")
    print()

    # --- 3. fleet view: a short campaign with tail statistics ------------
    campaign = CampaignSpec(
        base=ExperimentSpec(
            app="adpcm-encode",
            strategy="hybrid",
            strategy_params={"chunk_words": optimization.chunk_words},
            constraints=demo_point,
        ),
        seeds=range(8),
        metrics=("energy_nj", "total_cycles", "rollbacks", "output_correct"),
    )
    # Add jobs=4 (or executor=ParallelExecutor(jobs=...)) to fan out across
    # cores.  On the base spec, engine="batched" simulates every seed at
    # once on the vectorized campaign engine, and scenario="burst" (etc.)
    # swaps in a time-varying fault environment.
    report = session.campaign(campaign)
    print(report.render("Hybrid mitigation across 8 fault streams"))


if __name__ == "__main__":
    main()

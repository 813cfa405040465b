#!/usr/bin/env python3
"""JPEG-decode fault-injection campaign.

Decodes a compressed image block by block on the behavioural platform
while upsets strike the vulnerable L1, repeating the experiment over many
independent fault streams (a :meth:`repro.Session.campaign`).  For the
unprotected platform it reports how often the decoded image is
corrupted; for the hybrid scheme it shows full mitigation and the energy
price paid for it — the Fig. 5 "jpg decode" comparison in miniature.

Run with:  python examples/jpeg_fault_campaign.py [--runs N]
"""

from __future__ import annotations

import argparse

from repro import PAPER_OPERATING_POINT, Session
from repro.apps.jpeg import JpegDecodeApp
from repro.core import optimize_chunk_size


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10, help="independent fault streams")
    parser.add_argument("--size", type=int, default=64, help="square image edge (multiple of 8)")
    args = parser.parse_args()

    app = JpegDecodeApp(width=args.size, height=args.size)
    # Size the buffer at the paper's design-time operating point, then run
    # the campaign at an elevated rate so a short demo shows recoveries.
    optimization = optimize_chunk_size(app, PAPER_OPERATING_POINT)
    session = Session(constraints=PAPER_OPERATING_POINT.with_overrides(error_rate=2e-6))
    print(
        f"Optimum protected buffer for {app.name}: {optimization.chunk_words} words "
        f"(paper reports 44 words for the MediaBench input)\n"
    )

    # Specs accept live application instances; the seeds are the fault streams.
    seeds = range(args.runs)
    unprotected = session.campaign(session.spec(app, strategy="default"), seeds=seeds)
    hybrid = session.campaign(
        session.spec(
            app, strategy="hybrid", strategy_params={"chunk_words": optimization.chunk_words}
        ),
        seeds=seeds,
    )

    print(f"=== Unprotected decode ({args.runs} fault streams) ===")
    print(f"  images decoded correctly : {unprotected.mean('output_correct') * 100:.0f}%")
    print(f"  corrupted words per run  : {unprotected.mean('silent_corruptions'):.1f}")
    print(f"  energy per image         : {unprotected.mean('energy_nj'):.1f} nJ")
    print()
    print(f"=== Hybrid mitigation ({args.runs} fault streams) ===")
    print(f"  images decoded correctly : {hybrid.mean('output_correct') * 100:.0f}%")
    print(f"  rollbacks per run        : {hybrid.mean('rollbacks'):.2f}")
    print(f"  energy per image         : {hybrid.mean('energy_nj'):.1f} nJ")
    overhead = hybrid.mean("energy_nj") / unprotected.mean("energy_nj") - 1.0
    print(f"  energy overhead          : {overhead:.1%}")


if __name__ == "__main__":
    main()

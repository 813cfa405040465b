"""Benchmark: the result warehouse — warm-replay speedups, zero recompute.

Runs each paper artefact twice inside a fresh, isolated warehouse and
measures the cold/warm contrast:

* **fig4 warm replay**: the feasible-region sweep, cold vs served from
  the warehouse (must recompute zero specs and match byte for byte),
* **campaign warm replay**: a batched multi-seed campaign, same bars,
* **delta widening**: growing the campaign's seed set, asserting only
  the new seeds execute,
* **service fast path**: a repeat ``POST /v1/experiments`` answered
  ``"cached": true`` with a byte-identical stream, plus a scrape of the
  ``repro_warehouse_events_total`` counters off ``/v1/metrics``,
* **replay vs recompute**: a warm batched ``Session().campaign`` report
  against the same campaign under ``REPRO_NO_WAREHOUSE=1``, best of 3
  each (5,000 seeds under ``--smoke``, 20,000 in full mode).  The rows
  are not built: at these sizes building them costs more than the store
  and would hide it.

and archives everything as ``benchmarks/results/BENCH_warehouse.json``::

    PYTHONPATH=src python benchmarks/bench_warehouse.py --smoke

``--smoke`` uses reduced sweep bounds and seed counts (CI-friendly);
the full mode replays fig4 at paper scale and a 2000-seed campaign.
Correctness bars (zero recompute, byte identity, cached fast path) are
asserted in both modes — the benchmark doubles as the warm-replay gate.
It exits 1 unless the warm replay is at least :data:`REPLAY_SPEEDUP_FLOOR`
times faster than recomputing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis.experiments import fig4_feasible_region
from repro.api.executors import SPECS_EXECUTED
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.service import ExperimentServer, ScalingPolicy, ServiceClient
from repro.telemetry import parse_prometheus, series_total
from repro.warehouse import ENV_NO_WAREHOUSE, default_warehouse

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_APP = "adpcm-encode"
BENCH_STRATEGY = "hybrid-optimal"

#: Timed repeats of each side of the replay-vs-recompute gate (best wins).
BEST_OF = 3

#: How many times faster than recomputing a warm campaign replay must be.
#: A warm replay reads one entry per block, hashes 8 bytes per seed for its
#: key and parses no float, so it stays far below simulating the seeds.
REPLAY_SPEEDUP_FLOOR = 10.0


def _spec() -> ExperimentSpec:
    return ExperimentSpec(app=BENCH_APP, strategy=BENCH_STRATEGY)


def _executed() -> float:
    """Process-wide total of executed specs, across kinds and engines."""
    return sum(sample["value"] for sample in SPECS_EXECUTED.samples())


def _replay(label: str, run) -> dict:
    """Run ``run()`` twice; assert the warm pass recomputes nothing and
    matches the cold pass byte for byte."""
    start = time.perf_counter()
    cold = run()
    cold_s = time.perf_counter() - start
    executed = _executed()
    start = time.perf_counter()
    warm = run()
    warm_s = time.perf_counter() - start
    recomputed = _executed() - executed
    assert recomputed == 0, f"{label}: warm replay recomputed {recomputed:.0f} specs"
    assert warm.to_json() == cold.to_json(), f"{label}: warm replay diverged"
    return {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
        "recomputed_specs": 0,
        "byte_identical": True,
    }


def _fig4_replay(max_chunk_words: int, max_correctable_bits: int, stride: int) -> dict:
    result = _replay(
        "fig4",
        lambda: fig4_feasible_region(
            max_chunk_words=max_chunk_words,
            max_correctable_bits=max_correctable_bits,
            chunk_stride=stride,
        ).to_result_set(),
    )
    return result | {
        "max_chunk_words": max_chunk_words,
        "max_correctable_bits": max_correctable_bits,
        "chunk_stride": stride,
    }


def _campaign_replay(seeds: int) -> dict:
    session = Session()
    spec = replace(_spec(), engine="batched")
    result = _replay(
        "campaign", lambda: session.campaign(spec, seeds=range(seeds)).to_result_set()
    )
    return result | {"seeds": seeds, "engine": "batched"}


def _delta_widening(seeds: int) -> dict:
    """Widen a warm campaign's seed set; only the new seeds may execute."""
    session = Session()
    session.campaign(_spec(), seeds=range(seeds))
    executed = _executed()
    widened = seeds + max(2, seeds // 4)
    session.campaign(_spec(), seeds=range(widened))
    delta = _executed() - executed
    assert delta == widened - seeds, (
        f"widening {seeds}->{widened} seeds executed {delta:.0f} specs, "
        f"expected {widened - seeds}"
    )
    return {"seeds": seeds, "widened_to": widened, "recomputed_specs": int(delta)}


def _best_of(run) -> float:
    """Fastest of :data:`BEST_OF` timed calls of ``run()``, in seconds."""
    times = []
    for _ in range(BEST_OF):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def _replay_vs_recompute(seeds: int) -> dict:
    """A warm batched campaign replay against recomputing the campaign."""
    # Seeds disjoint from the other sections, so the cold pass is cold.
    campaign = CampaignSpec(
        base=ExperimentSpec(app=BENCH_APP, strategy=BENCH_STRATEGY, engine="batched"),
        seeds=tuple(range(20_000, 20_000 + seeds)),
    )
    start = time.perf_counter()
    Session().campaign(campaign)
    cold_s = time.perf_counter() - start
    warm_s = _best_of(lambda: Session().campaign(campaign))
    os.environ[ENV_NO_WAREHOUSE] = "1"
    try:
        off_s = _best_of(lambda: Session().campaign(campaign))
    finally:
        del os.environ[ENV_NO_WAREHOUSE]
    return {
        "seeds": seeds,
        "engine": "batched",
        "best_of": BEST_OF,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "off_s": round(off_s, 4),
        "speedup": round(off_s / warm_s, 1),
        "speedup_floor": REPLAY_SPEEDUP_FLOOR,
    }


def _service_fast_path(seeds: int) -> dict:
    """A repeat submission must be answered cached, byte for byte."""
    policy = ScalingPolicy(
        min_workers=1, init_workers=1, max_workers=2, idle_timeout_s=1.0, interval_s=0.05
    )
    # Seeds disjoint from the earlier sections, so the first submission
    # is genuinely cold rather than answered from their entries.
    payload = {
        "kind": "campaign",
        "spec": {"base": _spec().to_dict(), "seeds": list(range(10_000, 10_000 + seeds))},
    }
    with ExperimentServer(port=0, policy=policy, mode="thread") as server:
        client = ServiceClient(server.url, timeout=120.0)
        start = time.perf_counter()
        first = client.submit(payload)
        client.results(first["job_id"], wait=True)
        cold_s = time.perf_counter() - start
        assert first["cached"] is False

        start = time.perf_counter()
        repeat = client.submit(payload)
        meta, _rows = client.results(repeat["job_id"], wait=False)
        warm_s = time.perf_counter() - start
        assert repeat["cached"] is True, "repeat submission was not served cached"
        assert repeat["state"] == "done"
        assert meta["state"] == "done"
        identical = client.result_set(repeat["job_id"]).to_json() == client.result_set(
            first["job_id"]
        ).to_json()
        assert identical, "cached stream diverged from the computed one"

        parsed = parse_prometheus(client.metrics_text())
        events = series_total(parsed, "repro_warehouse_events_total")
        assert events > 0, "no warehouse events visible on /v1/metrics"
    return {
        "seeds": seeds,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 1) if warm_s > 0 else None,
        "cached": True,
        "byte_identical": identical,
        "warehouse_events_total": events,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced sweep bounds and seed counts (CI-friendly)",
    )
    parser.add_argument(
        "--output",
        default=str(RESULTS_DIR / "BENCH_warehouse.json"),
        metavar="PATH",
        help="where to write the JSON artefact",
    )
    args = parser.parse_args(argv)

    # A fresh warehouse per run: the cold pass must actually be cold, and
    # the bench must not pollute (or be served by) the developer's store.
    staging = tempfile.mkdtemp(prefix="repro-bench-warehouse-")
    os.environ["REPRO_WAREHOUSE_DIR"] = staging
    try:
        return _bench(args)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _bench(args: argparse.Namespace) -> int:
    if args.smoke:
        fig4 = _fig4_replay(max_chunk_words=128, max_correctable_bits=6, stride=4)
        campaign = _campaign_replay(seeds=200)
        widening = _delta_widening(seeds=20)
        service = _service_fast_path(seeds=6)
        versus = _replay_vs_recompute(seeds=5_000)
    else:
        fig4 = _fig4_replay(max_chunk_words=512, max_correctable_bits=8, stride=1)
        campaign = _campaign_replay(seeds=2000)
        widening = _delta_widening(seeds=100)
        service = _service_fast_path(seeds=32)
        versus = _replay_vs_recompute(seeds=20_000)

    print(f"fig4: {fig4['cold_s']:.2f}s cold -> {fig4['warm_s']:.3f}s warm "
          f"({fig4['speedup']}x, zero recompute)")
    print(f"campaign: {campaign['seeds']} seeds, {campaign['cold_s']:.2f}s cold -> "
          f"{campaign['warm_s']:.3f}s warm ({campaign['speedup']}x)")
    print(f"widening: {widening['seeds']} -> {widening['widened_to']} seeds "
          f"recomputed {widening['recomputed_specs']}")
    print(f"service: cached resubmit in {service['warm_s']:.3f}s "
          f"(vs {service['cold_s']:.2f}s cold), "
          f"{service['warehouse_events_total']:.0f} warehouse events on /v1/metrics")
    print(f"replay vs recompute: {versus['seeds']} seeds, warm {versus['warm_s'] * 1e3:.1f} ms "
          f"vs warehouse off {versus['off_s'] * 1e3:.1f} ms ({versus['speedup']}x, "
          f"best of {BEST_OF})")

    summary = default_warehouse().summary()
    print(f"warehouse: {summary['entries']} entries, {summary['rows']} rows, "
          f"{summary['bytes']} bytes in {summary['directory']}")

    payload = {
        "bench": "warehouse",
        "mode": "smoke" if args.smoke else "full",
        "app": BENCH_APP,
        "strategy": BENCH_STRATEGY,
        "fig4_replay": fig4,
        "campaign_replay": campaign,
        "delta_widening": widening,
        "service_fast_path": service,
        "replay_vs_recompute": versus,
        "store": {
            "entries": summary["entries"],
            "specs": summary["specs"],
            "rows": summary["rows"],
            "bytes": summary["bytes"],
            "by_kind": summary["by_kind"],
        },
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[{payload['mode']}] archived to {output}")
    if versus["off_s"] < REPLAY_SPEEDUP_FLOOR * versus["warm_s"]:
        print(
            f"FAIL: a warm campaign replay is {versus['speedup']}x faster than recomputing "
            f"it, below the {REPLAY_SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

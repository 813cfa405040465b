"""Benchmark: the experiment service — latency, streaming rate, elasticity.

Boots an :class:`~repro.service.server.ExperimentServer` in-process,
measures the service-layer costs that matter to a client —

* **submit latency**: wall-clock of ``POST /v1/experiments`` (median over
  a handful of submissions),
* **streaming rate**: rows/second of a campaign streamed back over the
  NDJSON results endpoint,
* **scale-up reaction**: seconds from a burst of queued jobs to the pool
  reaching ``max_workers`` (observed via ``GET /v1/stats``),
* **idle scale-down**: seconds from the burst's last shard landing to the
  pool being back at ``min_workers`` (none when the pool had already
  shrunk there with its queue); the bench fails when this beats the idle
  timeout, which no correct pool can,
* **instrumentation overhead**: telemetry-on vs telemetry-off wall-clock
  of a batched campaign (the acceptance bar is < 2 % at 1000 seeds),
* **retained job memory**: bytes a finished 200-seed batched campaign job
  keeps alive in the server, measured with ``tracemalloc``; the bench
  fails above 128 KiB per job (row dicts took ~284 KiB, seed-block
  columns take ~36 KiB),

asserts the service's correctness contract (a campaign over HTTP is
byte-identical to the in-process ``Session`` run, for both engines),
archives a ``metrics.jsonl`` snapshot of the server's registry, and
archives everything as ``benchmarks/results/BENCH_service.json``.  It
runs against a fresh, temporary result warehouse, removed on exit, so
no earlier run answers the burst or the timed campaigns from disk::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke

``--smoke`` uses a thread-mode pool and small campaigns (CI-friendly);
the full mode uses a process pool at fig5 campaign scale.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from repro import telemetry
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.service import ExperimentServer, ScalingPolicy, ServiceClient
from repro.telemetry import append_snapshot, parse_prometheus, series_total

RESULTS_DIR = Path(__file__).parent / "results"

BENCH_APP = "adpcm-encode"
BENCH_STRATEGY = "hybrid-optimal"

#: Jobs in the scale-up burst (the acceptance bar is ≥ 8 queued jobs).
BURST_JOBS = 8

#: Most bytes a finished 200-seed batched campaign job may keep alive.
RETAINED_JOB_LIMIT_BYTES = 128 * 1024


def _spec() -> ExperimentSpec:
    return ExperimentSpec(app=BENCH_APP, strategy=BENCH_STRATEGY)


def _submit_latency(client: ServiceClient, samples: int) -> dict:
    """Median/percentile wall-clock of POST /v1/experiments."""
    latencies = []
    for _ in range(samples):
        start = time.perf_counter()
        job = client.submit(
            {"kind": "experiment", "spec": _spec().to_dict()}
        )
        latencies.append((time.perf_counter() - start) * 1000.0)
        client.results(job["job_id"], wait=True)  # drain before the next probe
    return {
        "samples": samples,
        "median_ms": round(statistics.median(latencies), 3),
        "max_ms": round(max(latencies), 3),
    }


def _streaming_rate(client: ServiceClient, seeds: int) -> dict:
    """Rows/second of one campaign streamed over the results endpoint."""
    spec = _spec().to_dict() | {"engine": "batched"}
    job = client.submit(
        {"kind": "campaign", "spec": {"base": spec, "seeds": list(range(seeds))}}
    )
    start = time.perf_counter()
    meta, rows = client.results(job["job_id"], wait=True)
    elapsed = time.perf_counter() - start
    assert meta["state"] == "done", f"stream ended in state {meta['state']!r}"
    assert len(rows) == seeds, f"streamed {len(rows)} rows, expected {seeds}"
    return {
        "rows": len(rows),
        "seconds": round(elapsed, 3),
        "rows_per_second": round(len(rows) / elapsed, 1),
    }


def _last_shard_landed(client: ServiceClient, jobs: list[dict]) -> float:
    """Poll ``GET /v1/jobs/{id}`` until every job is done; return when the last shard landed.

    That is the latest ``finished_at`` the jobs report: the server's
    ``time.time()`` when it stored the burst's last shard, which is when the
    pool's queue went empty.
    """
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        described = [client.job(job["job_id"]) for job in jobs]
        if all(job["state"] == "done" for job in described):
            return max(job["finished_at"] for job in described)
        time.sleep(0.02)
    raise AssertionError("burst jobs never finished")


def _scale_reaction(client: ServiceClient, policy: ScalingPolicy, seeds: int) -> dict:
    """Seconds from a burst of jobs to the pool reaching max_workers,
    then from the burst's last shard landing back to min_workers."""
    # Each job runs its own seeds, none of them the submit probes' seed 0:
    # with the warehouse on, a job of stored seeds would be answered from
    # disk and put no load on the pool.
    start = time.perf_counter()
    jobs = [
        client.submit(
            {
                "kind": "campaign",
                "spec": {"base": _spec().to_dict(), "seeds": list(range(first, first + seeds))},
                "shard_size": 1,
            }
        )
        for first in range(seeds, seeds * (BURST_JOBS + 1), seeds)
    ]
    scale_up_s = None
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if client.stats()["pool"]["workers"] >= policy.max_workers:
            scale_up_s = time.perf_counter() - start
            break
        time.sleep(0.02)
    assert scale_up_s is not None, "pool never reached max_workers under the burst"

    landed = _last_shard_landed(client, jobs)
    scale_down_s = None
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        pool = client.stats()["pool"]
        if pool["workers"] <= policy.min_workers:
            scale_down_s = time.time() - landed
            break
        time.sleep(0.05)
    assert scale_down_s is not None, "pool never scaled back down to min_workers"
    # The pool also shrinks with its queue: when a scaling tick sees one
    # shard left it retires down to min_workers before the last shard
    # lands, and the idle timeout then has nothing to retire.
    before = [decision for decision in pool["decisions"] if decision["at"] <= landed]
    drained = bool(before) and before[-1]["target"] <= policy.min_workers
    return {
        "burst_jobs": BURST_JOBS,
        "max_workers": policy.max_workers,
        "scale_up_reaction_s": round(scale_up_s, 3),
        "drained_before_idle": drained,
        "scale_down_after_idle_s": None if drained else round(scale_down_s, 3),
    }


def _telemetry_overhead(seeds: int, repeats: int = 3) -> dict:
    """Telemetry-on vs telemetry-off wall-clock of one batched campaign.

    The campaign runs once first to warm the profile cache, then each
    configuration takes the best of ``repeats`` timings so scheduler
    noise does not masquerade as instrumentation cost.
    """
    spec = CampaignSpec(
        base=ExperimentSpec(app=BENCH_APP, strategy=BENCH_STRATEGY, engine="batched"),
        seeds=tuple(range(seeds)),
    )
    session = Session()
    session.campaign(spec)  # warm the profile cache

    def best_of() -> float:
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            session.campaign(spec)
            timings.append(time.perf_counter() - start)
        return min(timings)

    enabled_s = best_of()
    telemetry.set_enabled(False)
    try:
        disabled_s = best_of()
    finally:
        telemetry.set_enabled(True)
    overhead_pct = (enabled_s - disabled_s) / disabled_s * 100.0
    return {
        "seeds": seeds,
        "repeats": repeats,
        "enabled_s": round(enabled_s, 4),
        "disabled_s": round(disabled_s, 4),
        "overhead_pct": round(overhead_pct, 2),
    }


def _retained_job_memory(seeds: int = 200, warmup: int = 30, jobs: int = 40) -> dict:
    """Bytes each finished batched campaign job keeps alive in the server.

    A thread-mode server with the result warehouse off serves ``warmup``
    jobs first, so caches and bounded buffers are full.  ``tracemalloc``
    then counts what ``jobs`` more jobs, each submitted and streamed to
    the end, leave allocated after a collection.  Every job runs its own
    seed range, as a client's successive campaigns do.
    """
    spec = _spec().to_dict() | {"engine": "batched"}
    policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=2)
    previous = os.environ.get("REPRO_NO_WAREHOUSE")
    os.environ["REPRO_NO_WAREHOUSE"] = "1"
    try:
        with ExperimentServer(port=0, policy=policy, mode="thread") as server:
            client = ServiceClient(server.url, timeout=120.0)
            next_seed = 0

            def run_job() -> None:
                nonlocal next_seed
                request = list(range(next_seed, next_seed + seeds))
                next_seed += seeds
                job = client.submit({"kind": "campaign", "spec": {"base": spec, "seeds": request}})
                meta, rows = client.results(job["job_id"], wait=True)
                assert meta["state"] == "done" and len(rows) == seeds, "a measured job failed"

            for _ in range(warmup):
                run_job()
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(jobs):
                    run_job()
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NO_WAREHOUSE", None)
        else:
            os.environ["REPRO_NO_WAREHOUSE"] = previous
    per_job = (after - before) / jobs
    return {
        "seeds": seeds,
        "warmup_jobs": warmup,
        "jobs": jobs,
        "bytes_per_job": round(per_job),
        "limit_bytes": RETAINED_JOB_LIMIT_BYTES,
    }


def _scrape_metrics(client: ServiceClient) -> dict:
    """Scrape /v1/metrics and sanity-check the headline series."""
    parsed = parse_prometheus(client.metrics_text())
    requests = series_total(parsed, "repro_http_requests_total")
    submitted = series_total(parsed, "repro_shards_submitted_total")
    completed = series_total(parsed, "repro_shards_completed_total")
    assert requests > 0, "server served requests but repro_http_requests_total is 0"
    assert submitted == completed, (
        f"shards diverged: {submitted} submitted vs {completed} completed"
    )
    return {
        "http_requests_total": requests,
        "shards_submitted_total": submitted,
        "shards_completed_total": completed,
    }


def _byte_equality(server_url: str, seeds: int) -> dict:
    """Assert HTTP campaigns match in-process Session runs byte for byte."""
    local, remote = Session(), Session.connect(server_url)
    verdicts = {}
    for engine in ("behavioural", "batched"):
        spec = replace(_spec(), engine=engine)
        a = local.campaign(spec, seeds=range(seeds)).to_result_set()
        b = remote.campaign(spec, seeds=range(seeds)).to_result_set()
        identical = a.to_json() == b.to_json()
        assert identical, f"{engine} campaign over HTTP diverged from in-process run"
        verdicts[engine] = identical
    return {"seeds": seeds, "identical": verdicts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="thread-mode pool and small campaigns (CI-friendly)",
    )
    parser.add_argument(
        "--output",
        default=str(RESULTS_DIR / "BENCH_service.json"),
        metavar="PATH",
        help="where to write the JSON artefact",
    )
    args = parser.parse_args(argv)

    # A fresh warehouse per run, as the server's workers read it too: the
    # caller's store must neither answer the burst nor keep what it computes.
    staging = tempfile.mkdtemp(prefix="repro-bench-service-")
    os.environ["REPRO_WAREHOUSE_DIR"] = staging
    try:
        return _bench(args)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _bench(args: argparse.Namespace) -> int:
    mode = "thread" if args.smoke else "process"
    stream_seeds = 200 if args.smoke else 2000
    burst_seeds = 3 if args.smoke else 8
    equality_seeds = 6 if args.smoke else 32
    overhead_seeds = 200 if args.smoke else 1000
    policy = ScalingPolicy(
        min_workers=1,
        init_workers=1,
        max_workers=3 if args.smoke else 4,
        idle_timeout_s=1.0,
        interval_s=0.05,
    )

    with ExperimentServer(port=0, policy=policy, mode=mode) as server:
        client = ServiceClient(server.url, timeout=120.0)
        submit = _submit_latency(client, samples=5)
        print(f"submit latency: median {submit['median_ms']:.1f} ms")
        stream = _streaming_rate(client, seeds=stream_seeds)
        print(
            f"streaming: {stream['rows']} rows in {stream['seconds']:.2f}s "
            f"-> {stream['rows_per_second']:.0f} rows/s"
        )
        scaling = _scale_reaction(client, policy, seeds=burst_seeds)
        if scaling["drained_before_idle"]:
            scale_down = "already there when the last shard landed"
        else:
            scale_down = f"after {scaling['scale_down_after_idle_s']:.2f}s idle"
        print(
            f"scaling: {policy.max_workers} workers in "
            f"{scaling['scale_up_reaction_s']:.2f}s under {BURST_JOBS} jobs, "
            f"back to {policy.min_workers} {scale_down}"
        )
        equality = _byte_equality(server.url, seeds=equality_seeds)
        print(f"byte-equality (behavioural + batched over HTTP): {equality['identical']}")
        scraped = _scrape_metrics(client)
        print(
            f"metrics: {scraped['http_requests_total']:.0f} requests, "
            f"{scraped['shards_completed_total']:.0f}/"
            f"{scraped['shards_submitted_total']:.0f} shards completed"
        )
        metrics_path = Path(args.output).parent / "metrics.jsonl"
        append_snapshot(metrics_path, bench="service", pool_mode=mode)
        print(f"metrics snapshot appended to {metrics_path}")

    retained = _retained_job_memory()
    print(
        f"retained memory: {retained['bytes_per_job'] / 1024:.1f} KiB per finished "
        f"{retained['seeds']}-seed job (limit {RETAINED_JOB_LIMIT_BYTES / 1024:.0f} KiB)"
    )

    overhead = _telemetry_overhead(seeds=overhead_seeds)
    print(
        f"telemetry overhead: {overhead['overhead_pct']:+.2f}% "
        f"({overhead['enabled_s']:.3f}s on vs {overhead['disabled_s']:.3f}s off, "
        f"{overhead_seeds} seeds, batched)"
    )

    payload = {
        "bench": "service",
        "mode": "smoke" if args.smoke else "full",
        "pool_mode": mode,
        "app": BENCH_APP,
        "strategy": BENCH_STRATEGY,
        "submit_latency": submit,
        "streaming": stream,
        "scaling": scaling,
        "byte_equality": equality,
        "metrics": scraped,
        "telemetry_overhead": overhead,
        "retained_job_memory": retained,
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\n[{payload['mode']}] archived to {output}")
    scale_down_s = scaling["scale_down_after_idle_s"]
    if scale_down_s is not None and scale_down_s < policy.idle_timeout_s:
        print(
            f"FAIL: the pool scaled down {scale_down_s}s after its last shard landed, "
            f"inside the {policy.idle_timeout_s}s idle timeout",
            file=sys.stderr,
        )
        return 1
    if retained["bytes_per_job"] > RETAINED_JOB_LIMIT_BYTES:
        print(
            f"FAIL: a finished job retains {retained['bytes_per_job']} bytes, "
            f"above the {RETAINED_JOB_LIMIT_BYTES}-byte limit",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

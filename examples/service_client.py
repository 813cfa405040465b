#!/usr/bin/env python3
"""Campaign as a service: submit, stream, and verify over HTTP.

This walks the whole service loop against an in-process server (so the
example is self-contained — point ``SERVICE_URL`` at a real
``repro-experiments serve`` instance to run it against a daemon):

1. boot an :class:`~repro.service.server.ExperimentServer` with an
   elastic worker pool;
2. discover the valid spec ingredients from ``GET /v1/registries``;
3. submit a fault-injection campaign as JSON and watch its lifecycle;
4. stream the results back while shards complete (each seed block
   travels once, as its bytes) and rebuild the rows;
5. run the same campaign through ``Session.connect`` and check the
   transported rows are bit-identical to an in-process run;
6. read the pool's scaling decisions from ``GET /v1/stats``.

Run with:  python examples/service_client.py
"""

from __future__ import annotations

import os

from repro.api import Session
from repro.api.spec import ExperimentSpec
from repro.service import ExperimentServer, ScalingPolicy, ServiceClient

#: Point this at a running ``repro-experiments serve`` to skip the
#: in-process server (e.g. ``http://127.0.0.1:8077``).
SERVICE_URL = os.environ.get("REPRO_SERVICE_URL")


def demo(url: str) -> None:
    client = ServiceClient(url)

    # --- 2. discovery ----------------------------------------------------
    registries = client.registries()
    print("=== Registries (GET /v1/registries) ===")
    print(f"apps       : {', '.join(registries['apps'])}")
    print(f"strategies : {', '.join(registries['strategies'])}")
    print()

    # --- 3. submit a campaign as plain JSON -------------------------------
    spec = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal")
    job = client.submit(
        {
            "kind": "campaign",
            "spec": {"base": spec.to_dict(), "seeds": list(range(20))},
            "shard_size": 4,
        }
    )
    print("=== Submitted (POST /v1/experiments) ===")
    print(f"job id     : {job['job_id']}")
    print(f"state      : {job['state']}")
    print(f"shards     : {job['shards']['total']}")
    print(f"spec hash  : {job['spec_sha256'][:16]}…")
    print()

    # --- 4. stream the results back and rebuild the rows ------------------
    meta, rows = client.results(job["job_id"])
    status = client.job(job["job_id"])
    print("=== Streamed (GET /v1/jobs/{id}/results) ===")
    print(f"rows       : {len(rows)}")
    print(f"state      : {meta['state']} in {status['duration_s']:.2f}s")
    assert len(rows) == 20
    print()

    # --- 5. the same campaign through a connected Session ------------------
    remote = Session.connect(url).campaign(spec, seeds=range(20)).to_result_set()
    local = Session().campaign(spec, seeds=range(20)).to_result_set()
    identical = remote.to_json() == local.to_json()
    print("=== Session.connect vs in-process Session ===")
    print(f"bit-identical results over HTTP: {identical}")
    assert identical
    print()

    # --- 6. observability ---------------------------------------------------
    stats = client.stats()
    print("=== Stats (GET /v1/stats) ===")
    print(f"jobs       : {stats['queue']['jobs']}")
    print(f"workers    : {stats['pool']['workers']} ({stats['pool']['mode']} mode)")
    for decision in stats["pool"]["decisions"][-3:]:
        print(f"  scaling  : {decision['reason']}")


def main() -> None:
    if SERVICE_URL:
        demo(SERVICE_URL)
        return
    policy = ScalingPolicy(
        min_workers=1, init_workers=1, max_workers=3, idle_timeout_s=5.0, interval_s=0.1
    )
    with ExperimentServer(port=0, policy=policy, mode="process") as server:
        print(f"(booted an in-process server on {server.url})\n")
        demo(server.url)


if __name__ == "__main__":
    main()

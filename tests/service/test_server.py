"""End-to-end HTTP tests: the v1 API, streaming, and bit-identity."""

from __future__ import annotations

import base64
import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.executors import SerialExecutor
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.batch.engine import ColumnBlock
from repro.service import RemoteExecutor, ServiceClient, ServiceError

SPEC = {"app": "adpcm-encode", "strategy": "hybrid-optimal"}


def _wait_until(predicate, timeout: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def _post_raw(url: str, body: bytes, content_type: str = "application/json"):
    request = urllib.request.Request(
        url + "/v1/experiments",
        data=body,
        method="POST",
        headers={"Content-Type": content_type},
    )
    return urllib.request.urlopen(request, timeout=30)


class TestEndpoints:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["workers"] >= 1

    def test_registries_lists_every_ingredient(self, client):
        regs = client.registries()
        assert "adpcm-encode" in regs["apps"]
        assert "hybrid-optimal" in regs["strategies"]
        assert regs["engines"] == ["behavioural", "batched"]
        assert set(regs["job_kinds"]) == {"experiment", "campaign", "sweep", "batch"}

    def test_submit_status_results_lifecycle(self, client):
        job = client.submit(
            {"kind": "campaign", "spec": {"base": SPEC, "seeds": [0, 1, 2]}}
        )
        assert job["state"] == "queued"
        assert len(job["spec_sha256"]) == 64
        meta, rows = client.results(job["job_id"], wait=True)
        assert meta["state"] == "done"
        assert meta["spec_sha256"] == job["spec_sha256"]
        assert [row["seed"] for row in rows] == [0, 1, 2]
        status = client.job(job["job_id"])
        assert status["state"] == "done"
        assert status["rows_ready"] == 3
        assert status["duration_s"] is not None

    def test_jobs_listing(self, client):
        client.submit({"kind": "experiment", "spec": SPEC})
        assert _wait_until(lambda: client.jobs()[-1]["state"] == "done")
        assert client.jobs()[-1]["kind"] == "experiment"

    def test_cancel_returns_cancelled_state(self, client):
        job = client.submit(
            {
                "kind": "campaign",
                "spec": {"base": SPEC, "seeds": list(range(50))},
                "shard_size": 1,
            }
        )
        cancelled = client.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        meta, _rows = client.results(job["job_id"], wait=True)
        assert meta["state"] == "cancelled"

    def test_stats_exposes_queue_pool_and_decisions(self, client):
        stats = client.stats()
        assert stats["uptime_s"] >= 0
        assert stats["pool"]["mode"] == "thread"
        assert "active" in stats["queue"]["shards"]
        assert isinstance(stats["pool"]["decisions"], list)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-424242")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404


class TestWireErrorsOverHTTP:
    """Satellite: malformed submissions are structured 400s, never 500s."""

    def _submit_error(self, client, payload) -> ServiceError:
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400, "validation must 400, not 500"
        return excinfo.value

    def test_malformed_json_body(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url, b"{not json")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "not valid JSON" in body["error"]["message"]

    def test_empty_body(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url, b"")
        assert excinfo.value.code == 400

    def test_unknown_app_offers_choices(self, client):
        error = self._submit_error(
            client, {"kind": "experiment", "spec": {"app": "not-an-app"}}
        )
        assert "adpcm-encode" in error.choices["app"]

    def test_unknown_strategy_offers_choices(self, client):
        error = self._submit_error(
            client,
            {"kind": "experiment", "spec": {**SPEC, "strategy": "not-a-strategy"}},
        )
        assert "hybrid-optimal" in error.choices["strategy"]

    def test_unknown_scenario_offers_choices(self, client):
        error = self._submit_error(
            client,
            {"kind": "experiment", "spec": {**SPEC, "scenario": "not-a-scenario"}},
        )
        assert "paper-constant" in error.choices["scenario"]

    def test_bad_engine_offers_choices(self, client):
        error = self._submit_error(
            client, {"kind": "experiment", "spec": {**SPEC, "engine": "warp"}}
        )
        assert error.choices["engine"] == ["behavioural", "batched"]

    def test_unknown_kind_offers_choices(self, client):
        error = self._submit_error(client, {"kind": "teleport"})
        assert "campaign" in error.choices["kind"]

    def test_design_kind_campaign_is_a_structured_400(self, client):
        base = {**SPEC, "kind": "optimize"}
        error = self._submit_error(
            client, {"kind": "campaign", "spec": {"base": base, "seeds": [0, 1]}}
        )
        assert "got a 'optimize' base" in str(error)

    def test_nan_parameter_is_a_structured_400(self, server):
        # Python's json.loads admits the non-RFC literal NaN, so it can
        # arrive over the wire — but it has no canonical hash, so the
        # submission must fail structurally instead of minting a bogus
        # spec identity (or crashing with a 500).
        body = (
            b'{"kind": "experiment", "spec": {"app": "adpcm-encode", '
            b'"strategy": "hybrid-optimal", "params": {"rate": NaN}}}'
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_raw(server.url, body)
        assert excinfo.value.code == 400
        message = json.loads(excinfo.value.read())["error"]["message"]
        assert "NaN" in message or "hashable" in message


class TestStreaming:
    def test_stream_has_header_block_trailer(self, client):
        job = client.submit(
            {"kind": "campaign", "spec": {"base": SPEC, "seeds": [0, 1]}}
        )
        lines = [json.loads(line) for line in client.stream_lines(job["job_id"])]
        assert lines[0]["__ndjson__"] == "repro.resultset/v2"
        assert lines[0]["job_id"] == job["job_id"]
        assert lines[-1]["__ndjson__"] == "end"
        assert lines[-1]["state"] == "done"
        assert lines[-1]["rows"] == 2
        # The campaign's one seed block travels once, as its codec bytes.
        (block,) = lines[1:-1]
        assert block["_spec"] == [0, 1]
        assert block["block"]["rows"] == 2
        payload = base64.b64decode(block["payload"])
        assert np.frombuffer(payload, dtype="<u8", count=2).tolist() == [0, 1]
        assert lines[-1]["columns"][:4] == ["application", "strategy", "scenario", "seed"]

    def test_snapshot_does_not_wait(self, client):
        job = client.submit(
            {
                "kind": "campaign",
                "spec": {"base": SPEC, "seeds": list(range(30))},
                "shard_size": 1,
            }
        )
        lines = [json.loads(line) for line in client.stream_lines(job["job_id"], wait=False)]
        # Snapshot returns immediately: trailer present, job possibly unfinished.
        assert lines[-1]["__ndjson__"] == "end"
        client.cancel(job["job_id"])

    def test_job_finishing_mid_read_streams_every_row(self, write_stream):
        # The last shard lands between the stream's prefix read and its
        # state check; the stream must still end with every row.
        from repro.service.jobs import DONE, RUNNING

        class Job:
            id = "job-race"
            request = SimpleNamespace(label="race", spec_hash="0" * 64)
            error = None
            state = RUNNING
            shards = [SimpleNamespace(index=0, spec_indices=(0,)),
                      SimpleNamespace(index=1, spec_indices=(1,))]
            shard_results = [[[{"seed": 0}]], None]

            def ready_prefix(self):
                ready = 1 if self.shard_results[1] is None else 2
                self.shard_results[1] = [[{"seed": 1}]]
                self.state = DONE
                return ready

        lines = [json.loads(line) for line in write_stream(Job(), wait=True)]
        assert [line["seed"] for line in lines[1:-1]] == [0, 1]
        assert lines[-1]["rows"] == 2

    def test_result_set_parses_stream(self, client):
        job = client.submit(
            {"kind": "campaign", "spec": {"base": SPEC, "seeds": [0, 1]}}
        )
        result_set = client.result_set(job["job_id"])
        assert len(result_set) == 2
        assert "energy_nj" in result_set.columns
        assert "_spec" not in result_set.columns  # private keys stay hidden


class TestBitIdentity:
    """The service's core contract: HTTP == in-process, byte for byte."""

    @pytest.mark.parametrize("engine", ["behavioural", "batched"])
    def test_campaign_over_http_matches_in_process(self, server, engine):
        spec = ExperimentSpec(**SPEC, engine=engine)
        seeds = range(6)
        local = Session().campaign(spec, seeds=seeds).to_result_set()
        remote = Session.connect(server.url).campaign(spec, seeds=seeds).to_result_set()
        assert remote.to_json() == local.to_json()

    def test_run_over_http_matches_in_process(self, server):
        spec = ExperimentSpec(**SPEC, seed=3)
        local = Session().run(spec)
        remote = Session.connect(server.url).run(spec)
        assert remote.records == local.records

    def test_sweep_over_http_matches_in_process(self, server):
        from repro.api.spec import SweepSpec

        sweep = SweepSpec(base=ExperimentSpec(**SPEC), parameters={"seed": (0, 1, 2)})
        local = Session().sweep(sweep)
        remote = Session.connect(server.url).sweep(sweep)
        assert remote.to_json() == local.to_json()

    def test_mixed_batch_job_reads_back_in_spec_order(self, client, monkeypatch):
        # A batched seed group (specs 0, 2 and 4) travels as one block line
        # between the row lines of solo behavioural and design specs.
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        batched = ExperimentSpec(**SPEC, engine="batched")
        behavioural = ExperimentSpec(**SPEC)
        specs = [
            replace(batched, seed=0),
            replace(behavioural, seed=0),
            replace(batched, seed=5),
            ExperimentSpec(app="adpcm-encode", kind="optimize"),
            replace(batched, seed=2**63),
            replace(behavioural, seed=1),
        ]
        job = client.submit({"kind": "batch", "specs": [spec.to_dict() for spec in specs]})
        meta, rows = client.results(job["job_id"], wait=True)
        local = SerialExecutor().map(specs)
        assert meta["state"] == "done"
        assert [row.pop("_spec") for row in rows] == list(range(len(specs)))
        assert json.dumps(rows) == json.dumps([row for o in local for row in o.records])
        lines = [json.loads(line) for line in client.stream_lines(job["job_id"])]
        assert [line["_spec"] for line in lines if "block" in line] == [[0, 2, 4]]
        remote = RemoteExecutor(client).map(specs)
        assert json.dumps([o.records for o in remote]) == json.dumps([o.records for o in local])


class TestSeedBlocks:
    """A batched campaign job travels as (base spec, seed blocks), never per seed."""

    BASE = ExperimentSpec(**SPEC, engine="batched")

    def _payload(self, seeds) -> dict:
        return {"kind": "campaign", "spec": {"base": self.BASE.to_dict(), "seeds": list(seeds)}}

    def test_server_builds_no_per_seed_specs(self, server, client, monkeypatch):
        built, expanded = [], []
        post_init, expand = ExperimentSpec.__post_init__, CampaignSpec.expand

        def counting_post_init(spec):
            built.append(spec.seed)
            post_init(spec)

        def counting_expand(campaign):
            expanded.append(len(campaign))
            return expand(campaign)

        streamed, constructions = {}, {}
        with monkeypatch.context() as patch:
            patch.setattr(ExperimentSpec, "__post_init__", counting_post_init)
            patch.setattr(CampaignSpec, "expand", counting_expand)
            for seeds in (range(20), range(1000, 1400)):
                before = len(built)
                job = client.submit(self._payload(seeds))
                meta, rows = client.results(job["job_id"], wait=True)
                constructions[len(seeds)] = len(built) - before
                assert meta["state"] == "done"
                streamed[len(seeds)] = ([row.pop("_spec") for row in rows], rows)
        assert constructions[20] == constructions[400]
        assert expanded == []
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        for seeds in (range(20), range(1000, 1400)):
            positions, rows = streamed[len(seeds)]
            assert positions == list(range(len(seeds)))
            local = Session().campaign(CampaignSpec(base=self.BASE, seeds=tuple(seeds)))
            assert json.dumps(rows) == json.dumps(local.raw)

    def test_shards_are_the_engine_blocks(self, server, client, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "3")
        job = client.submit(self._payload(range(7)))
        client.results(job["job_id"], wait=True)
        shards = server.jobs.get(job["job_id"]).shards
        assert [shard.payload["seeds"].tolist() for shard in shards] == [[0, 1, 2], [3, 4, 5], [6]]
        assert all(set(shard.payload) == {"base", "seeds"} for shard in shards)
        assert client.job(job["job_id"])["shards"]["total"] == 3
        monkeypatch.delenv("REPRO_BATCH_BLOCK")
        job = client.submit(self._payload(range(10, 17)))
        client.results(job["job_id"], wait=True)
        assert client.job(job["job_id"])["shards"]["total"] == 1

    def test_finished_jobs_keep_column_blocks(self, server, client, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "3")
        cold = client.submit(self._payload(range(7)))
        _, cold_rows = client.results(cold["job_id"], wait=True)
        warm = client.submit(self._payload(range(7)))
        assert warm["cached"] is True
        _, warm_rows = client.results(warm["job_id"], wait=True)
        assert warm_rows == cold_rows
        for job_id in (cold["job_id"], warm["job_id"]):
            results = server.jobs.get(job_id).shard_results
            assert all(isinstance(result, ColumnBlock) for result in results)
            assert [result.seeds.tolist() for result in results] == [[0, 1, 2], [3, 4, 5], [6]]
            assert client.job(job_id)["rows_ready"] == 7

    def test_remote_sessions_submit_campaign_jobs(self, server, client, monkeypatch):
        seen = len(client.jobs())
        remote = Session.connect(server.url)
        report = remote.campaign(self.BASE, seeds=range(5))
        group = [self.BASE.with_overrides(seed=seed) for seed in range(20, 26)]
        outcomes = remote.run_all(group)
        kinds = [job["kind"] for job in client.jobs()[seen:]]
        assert kinds == ["campaign", "campaign"]
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        local = Session().campaign(self.BASE, seeds=range(5))
        assert json.dumps(report.raw) == json.dumps(local.raw)
        assert [o.records for o in outcomes] == [o.records for o in Session().run_all(group)]


class TestBehaviouralCampaignJobs:
    """A behavioural campaign job stays whole too: (base spec, seed blocks)."""

    BASE = ExperimentSpec(**SPEC)

    def _payload(self, seeds) -> dict:
        return {"kind": "campaign", "spec": {"base": self.BASE.to_dict(), "seeds": list(seeds)}}

    def test_server_builds_no_per_seed_specs(self, server, client, monkeypatch):
        built, expanded = [], []
        post_init, expand = ExperimentSpec.__post_init__, CampaignSpec.expand

        def counting_post_init(spec):
            # Workers run one spec per seed; the server around them builds none.
            if not threading.current_thread().name.startswith("repro-worker-"):
                built.append(spec.seed)
            post_init(spec)

        def counting_expand(campaign):
            expanded.append(len(campaign))
            return expand(campaign)

        constructions = {}
        with monkeypatch.context() as patch:
            patch.setattr(ExperimentSpec, "__post_init__", counting_post_init)
            patch.setattr(CampaignSpec, "expand", counting_expand)
            for seeds in (range(20), range(1000, 1400)):
                before = len(built)
                job = client.submit(self._payload(seeds))
                if len(seeds) == 20:
                    meta, rows = client.results(job["job_id"], wait=True)
                    assert meta["state"] == "done"
                else:  # 400 behavioural runs are not worth waiting for
                    client.cancel(job["job_id"])
                constructions[len(seeds)] = len(built) - before
        assert constructions[20] == constructions[400]
        assert expanded == []
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        local = Session().campaign(CampaignSpec(base=self.BASE, seeds=tuple(range(20))))
        assert [row.pop("_spec") for row in rows] == list(range(20))
        assert json.dumps(rows) == json.dumps(local.raw)

    def test_shard_size_seed_blocks_stay_column_blocks(self, server, client):
        cold = client.submit(self._payload(range(10)))
        _, cold_rows = client.results(cold["job_id"], wait=True)
        shards = server.jobs.get(cold["job_id"]).shards
        assert [shard.payload["seeds"].tolist() for shard in shards] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9],
        ]
        assert all(set(shard.payload) == {"base", "seeds"} for shard in shards)
        warm = client.submit(self._payload(range(10)))
        assert warm["cached"] is True
        _, warm_rows = client.results(warm["job_id"], wait=True)
        assert warm_rows == cold_rows
        for job_id in (cold["job_id"], warm["job_id"]):
            results = server.jobs.get(job_id).shard_results
            assert all(isinstance(result, ColumnBlock) for result in results)
            assert [result.seeds.tolist() for result in results] == [
                [0, 1, 2, 3],
                [4, 5, 6, 7],
                [8, 9],
            ]
            assert client.job(job_id)["rows_ready"] == 10


class TestWarehouseFastPath:
    """Acceptance: a repeat submission is answered from the warehouse."""

    PAYLOAD = {"kind": "campaign", "spec": {"base": SPEC, "seeds": [0, 1, 2]}}

    def test_repeat_submission_is_served_cached(self, client):
        first = client.submit(self.PAYLOAD)
        meta, rows = client.results(first["job_id"], wait=True)
        assert meta["state"] == "done"
        repeat = client.submit(self.PAYLOAD)
        # Answered at submit time: already done, marked cached, no waiting.
        assert repeat["cached"] is True
        assert repeat["state"] == "done"
        assert client.job(repeat["job_id"])["cached"] is True
        _, cached_rows = client.results(repeat["job_id"], wait=False)
        assert cached_rows == rows

    def test_cached_stream_is_byte_identical(self, client):
        first = client.submit(self.PAYLOAD)
        client.results(first["job_id"], wait=True)
        repeat = client.submit(self.PAYLOAD)
        cold = client.result_set(first["job_id"])
        warm = client.result_set(repeat["job_id"])
        assert warm.to_json() == cold.to_json()

    def test_first_submission_is_not_cached(self, client):
        job = client.submit(self.PAYLOAD)
        assert job["cached"] is False

    def test_kill_switch_disables_the_fast_path(self, client, monkeypatch):
        first = client.submit(self.PAYLOAD)
        client.results(first["job_id"], wait=True)
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        repeat = client.submit(self.PAYLOAD)
        assert repeat["cached"] is False

    def test_cached_jobs_keep_the_metrics_invariant(self, client):
        # The CI health gate asserts submitted == completed on
        # /v1/metrics; a warehouse-answered job must count on both sides
        # even though no shard ever runs.
        def scrape(name: str) -> float:
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in client.metrics_text().splitlines()
                if line.startswith(name) and not line.startswith("#")
            )

        first = client.submit(self.PAYLOAD)
        client.results(first["job_id"], wait=True)
        submitted = scrape("repro_jobs_submitted_total")
        finished = scrape("repro_jobs_finished_total")
        cached = client.submit(self.PAYLOAD)
        assert cached["cached"] is True
        assert scrape("repro_jobs_submitted_total") == submitted + 1
        assert scrape("repro_jobs_finished_total") == finished + 1
        assert scrape("repro_warehouse_events_total") > 0


class TestElasticity:
    """Satellite/acceptance: burst of jobs scales up, idle scales down."""

    def test_burst_scales_up_then_idles_down(self, server, monkeypatch):
        # The eight jobs are identical; without this the result warehouse
        # answers jobs 2-8 from job 1's shards and the pool never needs to
        # scale.  Elasticity is only observable on real work.
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        client = ServiceClient(server.url, timeout=60.0)
        floor = server.pool.policy.min_workers
        ceiling = server.pool.policy.max_workers
        jobs = [
            client.submit(
                {
                    "kind": "campaign",
                    "spec": {"base": SPEC, "seeds": list(range(4))},
                    "shard_size": 1,
                }
            )
            for _ in range(8)
        ]
        assert _wait_until(
            lambda: client.stats()["pool"]["workers"] >= ceiling, timeout=30.0
        ), "burst of 8 queued jobs never scaled the pool to max_workers"
        assert _wait_until(
            lambda: all(
                client.job(job["job_id"])["state"] == "done" for job in jobs
            ),
            timeout=120.0,
        )
        assert _wait_until(
            lambda: client.stats()["pool"]["workers"] == floor, timeout=30.0
        ), "pool never scaled back down to min_workers after the queue idled"
        reasons = [d["reason"] for d in client.stats()["pool"]["decisions"]]
        assert any("scale up" in reason for reason in reasons)
        # The idle decision may land a tick after the floor is reached.
        assert _wait_until(
            lambda: any(
                "idle" in d["reason"]
                for d in client.stats()["pool"]["decisions"]
            ),
            timeout=10.0,
        ), "no idle-driven scaling decision was ever recorded"

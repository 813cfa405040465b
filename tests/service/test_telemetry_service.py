"""Service-side telemetry: /v1/metrics, /v1/stats, correlation IDs."""

from __future__ import annotations

import io
import json
import logging
import time

import pytest

from repro import telemetry
from repro.api.session import Session
from repro.telemetry import parse_prometheus, series_total, span
from repro.telemetry.logs import configure_logging


@pytest.fixture(autouse=True)
def clean_registry():
    """Service telemetry tests assert absolute counts; start from zero."""
    telemetry.reset()
    telemetry.set_enabled(True)
    yield
    telemetry.reset()


def _scrape_until(client, predicate, timeout: float = 2.0) -> dict:
    """Poll /v1/metrics until ``predicate(parsed)`` holds (or timeout).

    Request counters increment just *after* the response bytes flush, so
    a scrape issued immediately after a request can race the increment.
    """
    deadline = time.monotonic() + timeout
    while True:
        parsed = parse_prometheus(client.metrics_text())
        if predicate(parsed) or time.monotonic() >= deadline:
            return parsed
        time.sleep(0.02)


def _submit_small_campaign(client, runs: int = 4) -> str:
    job = client.submit(
        {
            "kind": "campaign",
            "label": "telemetry-e2e",
            "spec": {
                "base": {"app": "adpcm-encode", "strategy": "hybrid-optimal"},
                "runs": runs,
            },
            "shard_size": 2,
        }
    )
    client.results(job["job_id"], wait=True)
    return job["job_id"]


class TestMetricsEndpoint:
    def test_exposition_is_parseable_and_typed(self, client):
        client.healthz()
        text = client.metrics_text()
        assert "# TYPE repro_http_requests_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_pool_workers gauge" in text
        # The healthz request is counted just after its response flushes.
        parsed = _scrape_until(
            client, lambda p: series_total(p, "repro_http_requests_total") >= 1.0
        )
        assert series_total(parsed, "repro_http_requests_total") >= 1.0

    def test_request_counter_labels_routes(self, client):
        client.healthz()
        client.stats()
        parsed = _scrape_until(
            client,
            lambda p: sum(
                1
                for labels in p.get("repro_http_requests_total", {})
                if 'route="/v1/healthz"' in labels or 'route="/v1/stats"' in labels
            )
            >= 2,
        )
        series = parsed["repro_http_requests_total"]
        assert any('route="/v1/healthz"' in labels for labels in series)
        assert any('route="/v1/stats"' in labels for labels in series)

    def test_unknown_paths_collapse_to_other_route(self, client):
        from repro.service.client import ServiceError

        for path in ("nonsense", "garbage-42"):
            with pytest.raises(ServiceError):
                client._request("GET", f"/v1/{path}")
        parsed = parse_prometheus(client.metrics_text())
        series = parsed["repro_http_requests_total"]
        other = [labels for labels in series if 'route="other"' in labels]
        assert other  # both 404s landed on one bounded label

    def test_job_ids_collapse_to_template_route(self, client):
        job_id = _submit_small_campaign(client)
        client.job(job_id)
        parsed = _scrape_until(
            client,
            lambda p: any(
                'route="/v1/jobs/{id}"' in labels
                for labels in p.get("repro_http_requests_total", {})
            ),
        )
        series = parsed["repro_http_requests_total"]
        assert any('route="/v1/jobs/{id}"' in labels for labels in series)
        assert not any(job_id in labels for labels in series)

    def test_queue_pool_and_shard_series_after_a_job(self, client):
        _submit_small_campaign(client, runs=4)
        parsed = parse_prometheus(client.metrics_text())
        submitted = series_total(parsed, "repro_shards_submitted_total")
        completed = series_total(parsed, "repro_shards_completed_total")
        assert submitted == 2.0  # 4 seeds / shard_size 2
        assert completed == submitted
        assert series_total(parsed, "repro_jobs_submitted_total") == 1.0
        assert series_total(parsed, "repro_shard_seconds_count") == 2.0
        assert series_total(parsed, "repro_pool_workers") >= 1.0
        assert parsed["repro_queue_depth_shards"][""] == 0.0


class TestStatsTelemetry:
    def test_stats_carries_telemetry_section(self, client):
        stats = client.stats()
        assert stats["telemetry"]["enabled"] is True
        assert "repro_http_requests_total" in stats["telemetry"]["metrics"]


class TestCorrelation:
    def _events(self, stream: io.StringIO) -> list[dict]:
        events = []
        for line in stream.getvalue().splitlines():
            _, _, payload = line.partition("{")
            if payload:
                events.append(json.loads("{" + payload))
        return events

    def test_submit_run_id_reaches_job_and_worker_logs(self, server, client):
        stream = io.StringIO()
        configure_logging(level=logging.INFO, stream=stream)
        with span("campaign", run_id="run-corr-e2e"):
            job_id = _submit_small_campaign(client)
        # The job adopted the header's run ID...
        assert client.job(job_id)["run_id"] == "run-corr-e2e"
        # ...and every hop logged it: HTTP request, dispatch, worker, done.
        by_event: dict[str, list[dict]] = {}
        for event in self._events(stream):
            by_event.setdefault(event["event"], []).append(event)
        assert any(
            e.get("run_id") == "run-corr-e2e" for e in by_event.get("job.submitted", [])
        )
        assert any(
            e.get("run_id") == "run-corr-e2e" for e in by_event.get("job.dispatch", [])
        )
        assert any(
            e.get("run_id") == "run-corr-e2e"
            for e in by_event.get("worker.shard_done", [])
        )
        assert any(
            e.get("run_id") == "run-corr-e2e" for e in by_event.get("job.shard_done", [])
        )

    def test_server_mints_run_id_when_header_absent(self, client):
        job_id = _submit_small_campaign(client)
        run_id = client.job(job_id).get("run_id")
        assert run_id and run_id.startswith("run-")

    def test_session_connect_propagates_ambient_run_id(self, server):
        session = Session.connect(server.url)
        with span("campaign", run_id="run-session-e2e"):
            report = session.campaign(
                session.spec("adpcm-encode", strategy="hybrid-optimal"),
                seeds=(0, 1),
            )
        assert report.runs == 2
        jobs = session.executor.client.jobs()
        assert jobs[-1]["run_id"] == "run-session-e2e"


class TestRemoteBitIdentity:
    def test_http_campaign_matches_local_with_telemetry_enabled(self, server):
        local = Session()
        remote = Session.connect(server.url)
        spec_local = local.spec("adpcm-encode", strategy="hybrid-optimal")
        spec_remote = remote.spec("adpcm-encode", strategy="hybrid-optimal")
        a = local.campaign(spec_local, seeds=(0, 1, 2))
        b = remote.campaign(spec_remote, seeds=(0, 1, 2))
        assert a.raw == b.raw

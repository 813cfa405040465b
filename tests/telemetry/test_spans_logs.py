"""Correlation spans, structured log stamping, and configure_logging."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.telemetry import (
    current_ids,
    current_run_id,
    current_span,
    log_event,
    new_run_id,
    resolve_level,
    span,
)
from repro.telemetry.logs import ROOT_LOGGER_NAME, configure_logging


class TestSpans:
    def test_no_ambient_span_by_default(self):
        assert current_span() is None
        assert current_ids() == {}
        assert current_run_id() is None

    def test_span_mints_run_id(self):
        with span("campaign") as sp:
            assert sp.run_id.startswith("run-")
            assert current_run_id() == sp.run_id
        assert current_run_id() is None

    def test_explicit_run_id_is_adopted(self):
        with span("campaign", run_id="run-fixed"):
            assert current_run_id() == "run-fixed"

    def test_children_inherit_and_override(self):
        with span("campaign", run_id="run-outer", job="job-1"):
            with span("shard", shard=3) as inner:
                assert inner.ids == {"run_id": "run-outer", "job": "job-1", "shard": 3}
            with span("other", job="job-2"):
                assert current_ids()["job"] == "job-2"
            assert current_ids()["job"] == "job-1"

    def test_none_ids_are_dropped(self):
        with span("request", run_id=None, job=None) as sp:
            assert "job" not in sp.ids
            assert sp.run_id.startswith("run-")  # minted, not None

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()

    def test_elapsed_advances(self):
        with span("x") as sp:
            assert sp.elapsed() >= 0.0


@pytest.fixture
def log_stream():
    stream = io.StringIO()
    configure_logging(level=logging.INFO, stream=stream)
    return stream


def _events(stream: io.StringIO) -> list[dict]:
    events = []
    for line in stream.getvalue().splitlines():
        _, _, payload = line.partition("{")
        if payload:
            events.append(json.loads("{" + payload))
    return events


class TestLogEvent:
    def test_stamps_ambient_ids(self, log_stream):
        with span("campaign", run_id="run-stamp", job="job-7"):
            log_event("campaign.start", seeds=10)
        (event,) = _events(log_stream)
        assert event == {
            "event": "campaign.start",
            "run_id": "run-stamp",
            "job": "job-7",
            "seeds": 10,
        }

    def test_explicit_fields_win_over_ambient(self, log_stream):
        with span("x", run_id="run-ambient"):
            log_event("e", run_id="run-explicit")
        (event,) = _events(log_stream)
        assert event["run_id"] == "run-explicit"

    def test_custom_logger_stays_in_hierarchy(self, log_stream):
        from repro.telemetry.logs import get_logger

        log_event("job.submitted", logger_=get_logger("service"), job="job-1")
        assert "repro.service" in log_stream.getvalue()
        (event,) = _events(log_stream)
        assert event["event"] == "job.submitted"

    def test_suppressed_below_level(self, log_stream):
        configure_logging(level=logging.WARNING, stream=log_stream)
        log_event("quiet")
        assert log_stream.getvalue() == ""


class TestConfigureLogging:
    def test_idempotent_single_handler(self):
        configure_logging()
        configure_logging()
        root = logging.getLogger(ROOT_LOGGER_NAME)
        ours = [h for h in root.handlers if isinstance(h, logging.StreamHandler)]
        assert len(ours) == 1

    def test_reconfigure_changes_level(self):
        handler = configure_logging(level=logging.INFO)
        assert handler.level == logging.INFO
        handler = configure_logging(level=logging.DEBUG)
        assert handler.level == logging.DEBUG
        assert logging.getLogger(ROOT_LOGGER_NAME).level == logging.DEBUG

    def test_env_level_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "WARNING")
        handler = configure_logging()
        assert handler.level == logging.WARNING

    def test_explicit_level_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        handler = configure_logging(level="debug")
        assert handler.level == logging.DEBUG


class TestResolveLevel:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (None, logging.INFO),
            (logging.ERROR, logging.ERROR),
            ("DEBUG", logging.DEBUG),
            ("warning", logging.WARNING),
            ("15", 15),
            ("nonsense", logging.INFO),
        ],
    )
    def test_values(self, value, expected, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        assert resolve_level(value) == expected

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "ERROR")
        assert resolve_level(None) == logging.ERROR
        monkeypatch.setenv("REPRO_LOG_LEVEL", "")
        assert resolve_level(None) == logging.INFO

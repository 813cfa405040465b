"""Shared fixtures for the service tests: fast thread-mode servers."""

from __future__ import annotations

import io
from types import SimpleNamespace

import pytest

from repro.service import ExperimentServer, ScalingPolicy, ServiceClient
from repro.service.client import read_results, spec_rows
from repro.service.server import _Handler


@pytest.fixture
def fast_policy() -> ScalingPolicy:
    """A snappy policy so scaling behaviour is observable in test time."""
    return ScalingPolicy(
        min_workers=1,
        init_workers=1,
        max_workers=3,
        idle_timeout_s=1.0,
        interval_s=0.05,
    )


@pytest.fixture
def server(fast_policy):
    """A running thread-mode server on an ephemeral port."""
    with ExperimentServer(port=0, policy=fast_policy, mode="thread") as srv:
        yield srv


@pytest.fixture
def client(server) -> ServiceClient:
    """A client bound to the test server."""
    return ServiceClient(server.url, timeout=60.0)


def _write_stream(job, wait: bool = False) -> list[str]:
    jobs = SimpleNamespace(wait_for_change=lambda predicate, timeout: None)
    handler = SimpleNamespace(
        server=SimpleNamespace(service=SimpleNamespace(jobs=jobs)),
        send_response=lambda status: None,
        send_header=lambda name, value: None,
        end_headers=lambda: None,
        wfile=io.BytesIO(),
    )
    _Handler._stream_results(handler, job, wait=wait)
    return handler.wfile.getvalue().decode("utf-8").splitlines()


@pytest.fixture(scope="session")
def write_stream():
    """The lines the server's results writer emits for a job, without HTTP."""
    return _write_stream


@pytest.fixture(scope="session")
def stream_job():
    """Read a job back through the server's writer and the client's reader: (meta, rows)."""

    def stream(job, wait: bool = False):
        meta, rows, blocks = read_results(_write_stream(job, wait=wait), job.id)
        return meta, spec_rows(rows, blocks)

    return stream

"""The experiment server: campaigns as a service over plain HTTP.

Built on :class:`http.server.ThreadingHTTPServer` — no dependency beyond
the standard library.  Endpoints:

========  ==============================  =======================================
Method    Path                            Purpose
========  ==============================  =======================================
POST      ``/v1/experiments``             submit a job (202 + job id)
GET       ``/v1/jobs``                    list all jobs
GET       ``/v1/jobs/{id}``               one job's status + timings
GET       ``/v1/jobs/{id}/results``       stream results as NDJSON (``?wait=0``
                                          for a non-blocking snapshot)
DELETE    ``/v1/jobs/{id}``               cancel a job
GET       ``/v1/registries``              valid spec ingredient names
GET       ``/v1/stats``                   queue depth, pool size, scaling log
GET       ``/v1/healthz``                 liveness probe
========  ==============================  =======================================

Validation errors surface as structured 400 bodies (message + the
registry's valid choices, via :class:`~repro.service.wire.WireError`) —
never a traceback.  The server is the one writer of the results stream
(see :mod:`~repro.service.wire`), and it renders no rows from a block.
"""

from __future__ import annotations

import json
import threading
import time
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from ..api.results import _infer_columns
from ..api.spec import ENGINES, KINDS
from ..apps.registry import available_applications
from ..batch.engine import LABELS, METRIC_COLUMNS, ColumnBlock
from ..telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    RUN_ID_HEADER,
    current_run_id,
    enabled as telemetry_enabled,
    render_prometheus,
    snapshot as telemetry_snapshot,
    span,
)
from ..telemetry import counter as _telemetry_counter
from ..telemetry import histogram as _telemetry_histogram
from ..telemetry.logs import get_logger
from ..telemetry.logs import log_event as _log_event
from .jobs import TERMINAL_STATES, JobQueue
from .pool import WorkerPool
from .scaling import ScalingPolicy
from .shards import ShardResult
from .wire import (
    NDJSON_FORMAT,
    NDJSON_META_KEY,
    SPEC_INDEX_KEY,
    WIRE_KINDS,
    WireError,
    block_line,
    validate_job_payload,
)

log_event = partial(_log_event, logger_=get_logger("service"))

#: Default bind address of ``repro-experiments serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8077

#: Requests served, by method / route template / status class.
HTTP_REQUESTS = _telemetry_counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, route template and status.",
    labels=("method", "route", "status"),
)

#: Request latency per route template.
HTTP_SECONDS = _telemetry_histogram(
    "repro_http_request_seconds",
    "Wall-clock seconds spent serving one HTTP request, by route template.",
    labels=("route",),
)

#: First path segments under ``/v1`` that map to real routes; anything
#: else collapses to the ``other`` route label so hostile or mistyped
#: paths cannot inflate label cardinality.
_KNOWN_HEADS = frozenset(
    {"healthz", "registries", "stats", "metrics", "experiments", "jobs"}
)


def route_template(parts: list[str]) -> str:
    """Normalize a request path to a bounded-cardinality route label.

    Job IDs collapse to ``{id}`` (``/v1/jobs/{id}/results``), and paths
    outside the known API surface collapse to ``other``.
    """
    if len(parts) < 2 or parts[0] != "v1" or parts[1] not in _KNOWN_HEADS:
        return "other"
    if parts[1] != "jobs":
        return f"/v1/{parts[1]}" if len(parts) == 2 else "other"
    if len(parts) == 2:
        return "/v1/jobs"
    if len(parts) == 3:
        return "/v1/jobs/{id}"
    if len(parts) == 4 and parts[3] == "results":
        return "/v1/jobs/{id}/results"
    return "other"


def registries_payload() -> dict[str, list[str]]:
    """Every valid spec ingredient name, for ``GET /v1/registries``."""
    from ..api.registry import (
        available_fault_models,
        available_scenarios,
        available_strategies,
    )

    return {
        "apps": available_applications(),
        "strategies": available_strategies(),
        "fault_models": available_fault_models(),
        "scenarios": available_scenarios(),
        "engines": list(ENGINES),
        "kinds": list(KINDS),
        "job_kinds": list(WIRE_KINDS),
    }


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying a reference to the service state."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, service: "ExperimentServer") -> None:
        self.service = service
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    """Routes the v1 API onto the job queue and worker pool."""

    server: _ServiceHTTPServer

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        """Route default request lines through the structured logger."""
        log_event("http.raw", line=format % args)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        run_id = current_run_id()
        if run_id is not None:
            self.send_header(RUN_ID_HEADER, run_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, error: WireError) -> None:
        self._send_json(error.payload(), status=error.status)

    def _not_found(self, what: str) -> None:
        self._send_error_payload(WireError(f"{what} not found", status=404))

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise WireError("request body is empty; expected a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise WireError(f"request body is not valid JSON: {error}") from None

    def _handle(self, method: str) -> None:
        started = time.monotonic()
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        route = route_template(parts)
        status = 200
        # Adopt the client's correlation ID when the header carries one;
        # otherwise the span mints a fresh run ID for this request.
        with span("http.request", run_id=self.headers.get(RUN_ID_HEADER) or None):
            try:
                status = self._route(method, parts, parse_qs(parsed.query)) or 200
            except WireError as error:
                status = error.status
                self._send_error_payload(error)
            except BrokenPipeError:  # client went away mid-stream
                status = 499
            except Exception as error:  # noqa: BLE001 - surface as structured 500
                status = 500
                self._send_json(
                    {"error": {"status": 500, "message": f"{type(error).__name__}: {error}"}},
                    status=500,
                )
            finally:
                elapsed = time.monotonic() - started
                HTTP_REQUESTS.inc(method=method, route=route, status=status)
                HTTP_SECONDS.observe(elapsed, route=route)
                log_event(
                    "http.request",
                    method=method,
                    path=parsed.path,
                    route=route,
                    status=status,
                    ms=round(elapsed * 1000.0, 3),
                )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Serve the read-only endpoints."""
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Serve job submission."""
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        """Serve job cancellation."""
        self._handle("DELETE")

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route(self, method: str, parts: list[str], query: dict) -> int:
        service = self.server.service
        if len(parts) < 2 or parts[0] != "v1":
            raise WireError(f"unknown path {self.path!r}", status=404)
        head, rest = parts[1], parts[2:]

        if method == "GET" and head == "healthz" and not rest:
            self._send_json(
                {"status": "ok", "workers": service.pool.worker_count(), "url": service.url}
            )
            return 200
        if method == "GET" and head == "registries" and not rest:
            self._send_json(registries_payload())
            return 200
        if method == "GET" and head == "stats" and not rest:
            self._send_json(service.stats())
            return 200
        if method == "GET" and head == "metrics" and not rest:
            self._send_text(render_prometheus(), PROMETHEUS_CONTENT_TYPE)
            return 200
        if method == "POST" and head == "experiments" and not rest:
            return self._submit()
        if head == "jobs":
            if method == "GET" and not rest:
                self._send_json({"jobs": [job.describe() for job in service.jobs.jobs()]})
                return 200
            if rest:
                job = service.jobs.get(rest[0])
                if job is None:
                    self._not_found(f"job {rest[0]!r}")
                    return 404
                if method == "GET" and len(rest) == 1:
                    self._send_json(job.describe())
                    return 200
                if method == "GET" and rest[1:] == ["results"]:
                    wait = query.get("wait", ["1"])[0] not in ("0", "false", "no")
                    self._stream_results(job, wait=wait)
                    return 200
                if method == "DELETE" and len(rest) == 1:
                    cancelled = service.jobs.cancel(job.id)
                    log_event("job.cancelled", job=job.id)
                    self._send_json(cancelled.describe())
                    return 200
        raise WireError(f"unknown path {self.path!r}", status=404)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _submit(self) -> int:
        service = self.server.service
        request = validate_job_payload(self._read_json_body())
        # The request span's run ID (header-adopted or freshly minted)
        # rides on the job, stamping every dispatch/worker/completion
        # event downstream with the submitter's correlation ID.
        job = service.jobs.submit(
            request,
            run_id=current_run_id(),
            cached=service.warehouse_records(request),
        )
        log_event(
            "job.submitted",
            job=job.id,
            kind=request.kind,
            label=request.label,
            specs=request.runs,
            shards=len(job.shards),
            spec_sha256=request.spec_hash,
            cached=job.cached,
        )
        self._send_json(job.describe(), status=202)
        return 202

    def _stream_results(self, job, wait: bool) -> None:
        """Write the job's results stream, following the job live if asked.

        The walk follows the specs of the landed prefix in order: a seed
        block is written once, at its first spec; other results row by row.
        """
        service = self.server.service
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()

        def emit(*objects: dict) -> None:
            self.wfile.write(b"".join(json.dumps(obj).encode("utf-8") + b"\n" for obj in objects))
            self.wfile.flush()

        emit(
            {
                NDJSON_META_KEY: NDJSON_FORMAT,
                "title": job.request.label,
                "job_id": job.id,
                "spec_sha256": job.request.spec_hash,
            }
        )
        slots = {
            index: (shard, position)
            for shard in job.shards
            for position, index in enumerate(shard.spec_indices)
        }
        rows = 0
        keys: dict[str, None] = {}  # every row key, first seen first
        emitted_specs = 0
        while True:
            # Read the state before the prefix: a job that finishes between
            # the two reads would otherwise end the stream short of rows.
            finished = job.state in TERMINAL_STATES
            ready = job.ready_prefix()
            lines = []
            for index in range(emitted_specs, ready):
                shard, position = slots[index]
                result = job.shard_results[shard.index]
                if not isinstance(result, ColumnBlock):
                    for record in result[position]:
                        rows += 1
                        keys.update(dict.fromkeys(record))
                        lines.append({**record, SPEC_INDEX_KEY: index})
                elif position == 0:
                    rows += len(result.seeds)
                    keys.update(dict.fromkeys((*LABELS, "seed", *METRIC_COLUMNS)))
                    lines.append(block_line(shard.spec_indices, result))
            emit(*lines)
            emitted_specs = ready
            if finished or not wait:
                break
            service.jobs.wait_for_change(
                lambda: job.state in TERMINAL_STATES or job.ready_prefix() > emitted_specs,
                timeout=1.0,
            )
        trailer: dict[str, Any] = {
            NDJSON_META_KEY: "end",
            "state": job.state,
            "rows": rows,
            "columns": _infer_columns([keys]),
        }
        if job.error is not None:
            trailer["error"] = job.error
        emit(trailer)


class ExperimentServer:
    """The long-running service: HTTP front end + queue + elastic pool.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (tests do this).
    policy:
        Worker-pool :class:`~repro.service.scaling.ScalingPolicy`.
    mode:
        Worker backend, ``"process"`` (default) or ``"thread"``.

    Usable as a context manager; :meth:`start` is non-blocking (the HTTP
    loop runs on a daemon thread), :meth:`serve_forever` blocks for CLI
    use and stops cleanly on ``SIGINT``/``SIGTERM``.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        policy: ScalingPolicy | None = None,
        mode: str = "process",
    ) -> None:
        self.jobs = JobQueue()
        self.pool = WorkerPool(self.jobs, policy=policy, mode=mode)
        self._http = _ServiceHTTPServer((host, port), _Handler, service=self)
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL clients should connect to."""
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentServer":
        """Start the pool and the HTTP loop (non-blocking)."""
        if self._thread is None:
            self.pool.start()
            self._thread = threading.Thread(
                target=self._http.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-http",
                daemon=True,
            )
            self._thread.start()
            self._started_at = time.time()
            log_event("server.start", url=self.url, mode=self.pool.mode)
        return self

    def stop(self) -> None:
        """Stop the HTTP loop, then the pool (joining every worker)."""
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()
        self.pool.stop()
        log_event("server.stop", url=self.url)

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: run until interrupted."""
        self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ExperimentServer":
        """Start the service when entering a ``with`` block."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the service (server first, then the pool) on exit."""
        self.stop()

    def warehouse_records(self, request) -> ShardResult | None:
        """The whole request's result when the warehouse fully covers it.

        Returns ``None`` — the normal submission path — unless *every*
        run of the request is already warehoused, in which case the
        result feeds :meth:`JobQueue.submit`'s cached fast path and the
        job streams instantly.  Partially cached jobs go through the
        pool: the workers consult the warehouse per shard, so only the
        genuinely missing units execute.  A campaign is looked up by its
        block keys, the units its shards would compute, and its stored
        column block goes to the job as it is; any other request gets one
        record list per run.
        """
        from ..warehouse import DeltaPlanner, default_warehouse
        from ..warehouse.planner import stored_campaign

        warehouse = default_warehouse()
        if not warehouse.enabled:
            return None
        campaign = request.campaign
        if campaign is not None:
            return stored_campaign(campaign.base, campaign.seeds)
        plan = DeltaPlanner(warehouse).plan(list(request.specs))
        if not plan.fully_cached:
            return None
        outcomes = plan.merge([])
        return [[dict(record) for record in outcome.records] for outcome in outcomes]

    def stats(self) -> dict[str, Any]:
        """Aggregate stats payload for ``GET /v1/stats``."""
        return {
            "uptime_s": None if self._started_at is None else time.time() - self._started_at,
            "queue": self.jobs.stats(),
            "pool": self.pool.stats(),
            "jobs": [job.describe() for job in self.jobs.jobs()],
            "telemetry": {
                "enabled": telemetry_enabled(),
                "metrics": telemetry_snapshot(),
            },
        }

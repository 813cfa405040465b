"""Thin client for the experiment service (urllib only, no new deps).

Two layers:

* :class:`ServiceClient` — speaks the raw v1 HTTP API: submit payloads,
  poll job status, stream NDJSON results, cancel, read stats.
* :class:`RemoteExecutor` — an :class:`~repro.api.executors.Executor`
  that ships every ``map()`` call to the service as a ``batch`` job and
  reassembles :class:`~repro.api.executors.RunOutcome` objects from the
  streamed rows.  ``Session.connect(url)`` plugs one into an ordinary
  :class:`~repro.api.session.Session`, so ``run`` / ``sweep`` /
  ``campaign`` work unchanged against a remote server — including
  campaigns and batched seed groups, whose missing seed blocks each
  travel as one ``campaign`` job of (base spec, seeds); the server runs
  the same units, so the rows stay bit-identical to a local run.

Server-side validation failures surface as :class:`ServiceError`
carrying the structured 400 body (message + valid choices), not a bare
HTTP error.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from collections.abc import Callable, Iterable, Iterator
from typing import Any

import numpy as np

from ..api.executors import Executor, RunOutcome
from ..api.results import ResultSet, parse_ndjson
from ..api.spec import ExperimentSpec
from ..batch.engine import ColumnBlock, block_from_records
from ..telemetry import RUN_ID_HEADER, current_run_id, log_event, span

#: Row key carrying the originating spec index over the wire.
SPEC_INDEX_KEY = "_spec"


class ServiceError(RuntimeError):
    """A structured error response from the experiment service."""

    def __init__(
        self, message: str, status: int = 500, choices: dict[str, list[str]] | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.choices = choices

    @classmethod
    def from_http(cls, error: urllib.error.HTTPError) -> "ServiceError":
        """Build from an HTTPError, decoding the JSON error body if present."""
        message = f"HTTP {error.code}: {error.reason}"
        choices = None
        try:
            payload = json.loads(error.read()).get("error", {})
            message = payload.get("message", message)
            choices = payload.get("choices")
        except (ValueError, AttributeError):
            pass
        return cls(message, status=error.code, choices=choices)


class ServiceClient:
    """Synchronous HTTP client for one experiment server.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``"http://127.0.0.1:8077"``.
    timeout:
        Socket timeout in seconds for every request (streaming reads
        included — it bounds the gap between bytes, not the whole job).
    """

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r})"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, body: Any = None) -> Any:
        headers = {"Accept": "application/json"}
        run_id = current_run_id()
        if run_id is not None:
            # Carry the ambient correlation ID over the wire: the server
            # adopts it for the request's span (and the submitted job).
            headers[RUN_ID_HEADER] = run_id
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            raise ServiceError.from_http(error) from None

    # ------------------------------------------------------------------ #
    # v1 API
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict[str, Any]:
        """``GET /v1/healthz``."""
        return self._request("GET", "/v1/healthz")

    def registries(self) -> dict[str, list[str]]:
        """``GET /v1/registries`` — valid spec ingredient names."""
        return self._request("GET", "/v1/registries")

    def stats(self) -> dict[str, Any]:
        """``GET /v1/stats`` — queue depth, pool size, scaling log."""
        return self._request("GET", "/v1/stats")

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — the server's Prometheus exposition text."""
        request = urllib.request.Request(
            self.base_url + "/v1/metrics", headers={"Accept": "text/plain"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServiceError.from_http(error) from None

    def submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        """``POST /v1/experiments`` — returns the job's status payload."""
        return self._request("POST", "/v1/experiments", body=payload)

    def jobs(self) -> list[dict[str, Any]]:
        """``GET /v1/jobs`` — every job's status payload."""
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/{id}``."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``DELETE /v1/jobs/{id}``."""
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def stream_lines(self, job_id: str, wait: bool = True) -> Iterator[str]:
        """Yield raw NDJSON lines from ``GET /v1/jobs/{id}/results``.

        With ``wait=True`` (default) the connection follows the job live
        and closes after the completion trailer; ``wait=False`` returns a
        snapshot of whatever rows are ready now.
        """
        path = f"/v1/jobs/{job_id}/results" + ("" if wait else "?wait=0")
        request = urllib.request.Request(self.base_url + path)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                for raw in response:
                    line = raw.decode("utf-8").rstrip("\n")
                    if line:
                        yield line
        except urllib.error.HTTPError as error:
            raise ServiceError.from_http(error) from None

    def results_text(self, job_id: str, wait: bool = True) -> str:
        """The job's full NDJSON stream as one string."""
        return "".join(line + "\n" for line in self.stream_lines(job_id, wait=wait))

    def results(self, job_id: str, wait: bool = True) -> tuple[dict[str, Any], list[dict]]:
        """Parsed results: ``(meta, rows)``.

        ``meta`` merges the stream's header and trailer (title, columns,
        ``spec_sha256``, final ``state``, ``error`` if any); each row still
        carries its :data:`SPEC_INDEX_KEY`.
        """
        meta, records = parse_ndjson(self.results_text(job_id, wait=wait))
        return meta or {}, records

    def result_set(self, job_id: str, wait: bool = True) -> ResultSet:
        """The job's rows as a :class:`~repro.api.results.ResultSet`."""
        return ResultSet.from_ndjson(self.results_text(job_id, wait=wait))


class RemoteExecutor(Executor):
    """Run specs on an experiment server instead of in-process.

    :meth:`map` ships specs as one ``batch`` job, and :meth:`block_runner`
    ships each seed block of a base spec as one ``campaign`` job.  The
    server shards and runs them itself; a row depends only on its spec
    and seed, so it matches a local run exactly, whatever the blocks.
    """

    def __init__(self, client: ServiceClient, label: str = "remote") -> None:
        self.client = client
        self.label = label
        self.last_job_id: str | None = None

    def __repr__(self) -> str:
        return f"RemoteExecutor({self.client.base_url!r})"

    def _run_job(self, payload: dict[str, Any], runs: int) -> list[dict[str, Any]]:
        """Submit one job, await it and return its rows (``_spec`` kept)."""
        with span("remote.map"):
            job = self.client.submit(payload)
            self.last_job_id = job["job_id"]
            log_event("client.submitted", job=job["job_id"], specs=runs, url=self.client.base_url)
            meta, rows = self.client.results(job["job_id"], wait=True)
        state = meta.get("state")
        if state != "done":
            detail = meta.get("error") or f"job finished in state {state!r}"
            raise ServiceError(f"remote job {job['job_id']} failed: {detail}")
        return rows

    def map(self, specs: Iterable[ExperimentSpec]) -> list[RunOutcome]:
        """Submit the specs as one ``batch`` job and await all outcomes."""
        specs = list(specs)
        if not specs:
            return []
        payload = {"kind": "batch", "label": self.label, "specs": [s.to_dict() for s in specs]}
        grouped: dict[int, list[dict[str, Any]]] = {}
        for row in self._run_job(payload, len(specs)):
            index = int(row.pop(SPEC_INDEX_KEY))
            grouped.setdefault(index, []).append(row)
        return [
            RunOutcome(spec=spec, records=grouped.get(index, []))
            for index, spec in enumerate(specs)
        ]

    def block_runner(self, base: ExperimentSpec) -> Callable[[np.ndarray], ColumnBlock]:
        """Run each seed block as one ``campaign`` job and rebuild its columns."""
        base_dict = base.to_dict()

        def run(seeds: np.ndarray) -> ColumnBlock:
            payload = {"kind": "campaign", "spec": {"base": base_dict, "seeds": seeds.tolist()}}
            rows = self._run_job(payload, len(seeds))
            for row in rows:
                del row[SPEC_INDEX_KEY]
            return block_from_records(rows, seeds)

        return run

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
  travel as one ``campaign`` job of (base spec, seeds) and come back as
  its codec bytes; the server runs the same units, so the rows stay
  bit-identical to a local run.

:func:`read_results` is the one reader of the results stream.
Server-side validation failures and streams that do not read back
surface as :class:`ServiceError` (a 400 carries its message and the
valid choices), not a bare HTTP error.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from collections.abc import Callable, Iterable, Iterator
from dataclasses import replace
from operator import itemgetter
from typing import Any

import numpy as np

from ..api.executors import Executor, RunOutcome
from ..api.results import ResultSet
from ..api.spec import ExperimentSpec
from ..batch.engine import ColumnBlock, join_blocks, records_from_columns
from ..telemetry import RUN_ID_HEADER, current_run_id, log_event, span
from .wire import NDJSON_META_KEY, SPEC_INDEX_KEY, read_block_line

#: A block line of a results stream: its spec indices and its block.
SpecBlock = tuple[list[int], ColumnBlock]


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


def read_results(
    lines: Iterable[str], job_id: str
) -> tuple[dict[str, Any], list[dict[str, Any]], list[SpecBlock]]:
    """Read a job's results stream into ``(meta, rows, blocks)``.

    ``meta`` merges the header and the trailer, header first; ``rows``
    are the row lines, ``blocks`` each block line's spec indices and
    decoded :class:`~repro.batch.engine.ColumnBlock` (views of the line's
    bytes).  A stream that does not start with a header, a line that is
    not a JSON object, a row without its spec index, a block that does
    not decode or name one spec index per row, and a trailer that counts
    other rows raise :class:`ServiceError` naming the job.
    """
    meta: dict[str, Any] | None = None
    rows: list[dict[str, Any]] = []
    blocks: list[SpecBlock] = []
    for number, line in enumerate(lines, start=1):
        where = f"job {job_id}: results line {number}"
        try:
            payload = json.loads(line)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            raise ServiceError(f"{where} is not a JSON object")
        specs = payload.get(SPEC_INDEX_KEY)
        if NDJSON_META_KEY in payload:
            del payload[NDJSON_META_KEY]
            meta = {**(meta or {}), **payload}
        elif meta is None:
            raise ServiceError(f"{where} comes before the stream's header line")
        elif type(specs) is int:
            rows.append(payload)
        elif (block := read_block_line(payload)) is None:
            raise ServiceError(f"{where} is neither a row nor a block with its spec indices")
        else:
            blocks.append((specs, block))
    if meta is None:
        raise ServiceError(f"job {job_id}: the results stream has no header line")
    count = len(rows) + sum(len(specs) for specs, _ in blocks)
    if meta.get("rows", count) != count:
        raise ServiceError(f"job {job_id}: the trailer counts {meta['rows']} rows, not {count}")
    return meta, rows, blocks


def spec_rows(rows: list[dict[str, Any]], blocks: list[SpecBlock]) -> list[dict[str, Any]]:
    """Every row of a read stream in spec order, each with its spec index.

    A block's rows are rebuilt through
    :func:`~repro.batch.engine.records_from_columns`; rows of one spec
    keep their stream order.
    """
    rows = list(rows)
    for specs, block in blocks:
        for index, row in zip(specs, records_from_columns(block)):
            row[SPEC_INDEX_KEY] = index
            rows.append(row)
    return sorted(rows, key=itemgetter(SPEC_INDEX_KEY))


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

    def results(self, job_id: str, wait: bool = True) -> tuple[dict[str, Any], list[dict]]:
        """Parsed results: ``(meta, rows)``.

        ``meta`` merges the stream's header and trailer (title, columns,
        ``spec_sha256``, final ``state``, ``error`` if any); ``rows`` come
        in spec order, each still carrying its :data:`SPEC_INDEX_KEY`.
        """
        meta, rows, blocks = read_results(self.stream_lines(job_id, wait=wait), job_id)
        return meta, spec_rows(rows, blocks)

    def result_set(self, job_id: str, wait: bool = True) -> ResultSet:
        """The job's rows as a :class:`~repro.api.results.ResultSet`, ``meta`` kept."""
        meta, rows = self.results(job_id, wait=wait)
        result = ResultSet.from_records(meta.get("title", ""), rows, columns=meta.get("columns"))
        return replace(result, meta=meta)


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

    def _run_job(
        self, payload: dict[str, Any], runs: int
    ) -> tuple[list[dict[str, Any]], list[SpecBlock]]:
        """Submit one job, await it and return its row lines and blocks."""
        with span("remote.map"):
            job = self.client.submit(payload)
            job_id = self.last_job_id = job["job_id"]
            log_event("client.submitted", job=job_id, specs=runs, url=self.client.base_url)
            meta, rows, blocks = read_results(self.client.stream_lines(job_id), job_id)
        state = meta.get("state")
        if state != "done":
            detail = meta.get("error") or f"job finished in state {state!r}"
            raise ServiceError(f"remote job {job_id} failed: {detail}")
        return rows, blocks

    def map(self, specs: Iterable[ExperimentSpec]) -> list[RunOutcome]:
        """Submit the specs as one ``batch`` job and await all outcomes."""
        specs = list(specs)
        if not specs:
            return []
        payload = {"kind": "batch", "label": self.label, "specs": [s.to_dict() for s in specs]}
        rows, blocks = self._run_job(payload, len(specs))
        grouped: dict[int, list[dict[str, Any]]] = {}
        for row in spec_rows(rows, blocks):
            grouped.setdefault(row.pop(SPEC_INDEX_KEY), []).append(row)
        return [
            RunOutcome(spec=spec, records=grouped.get(index, []))
            for index, spec in enumerate(specs)
        ]

    def block_runner(self, base: ExperimentSpec) -> Callable[[np.ndarray], ColumnBlock]:
        """Run each seed block as one ``campaign`` job and join the blocks it streams."""
        base_dict = base.to_dict()

        def run(seeds: np.ndarray) -> ColumnBlock:
            payload = {"kind": "campaign", "spec": {"base": base_dict, "seeds": seeds.tolist()}}
            rows, blocks = self._run_job(payload, len(seeds))
            block = None if rows or not blocks else join_blocks(block for _, block in blocks)
            if block is None or not np.array_equal(block.seeds, seeds):
                raise ServiceError(f"remote job {self.last_job_id} returned other seeds' results")
            return block

        return run

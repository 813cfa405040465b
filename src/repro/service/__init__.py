"""Campaign-as-a-service: experiment server, job queue, elastic workers.

The service layer turns the in-process experiment engine into a
long-running daemon: clients ``POST`` JSON experiment/sweep/campaign
specs, the server shards them across an elastically scaled worker pool,
and results stream back as NDJSON the moment each shard lands —
bit-identical to an in-process :class:`~repro.api.session.Session` run.

Quick start::

    # server
    repro-experiments serve --port 8077

    # client (or ``repro-experiments submit``)
    from repro.api import Session
    session = Session.connect("http://127.0.0.1:8077")
    results = session.campaign(batched_spec, seeds=range(64))

Modules: :mod:`~repro.service.wire` (payload validation),
:mod:`~repro.service.shards` (campaign sharding),
:mod:`~repro.service.jobs` (queue + job lifecycle),
:mod:`~repro.service.scaling` (Parsl-style elastic policy),
:mod:`~repro.service.pool` (worker pool),
:mod:`~repro.service.server` (stdlib HTTP server),
:mod:`~repro.service.client` (urllib client + remote executor).
"""

from .client import RemoteExecutor, ServiceClient, ServiceError
from .jobs import Job, JobQueue
from .pool import WorkerPool
from .scaling import ScalingDecision, ScalingPolicy
from .server import ExperimentServer
from .shards import Shard, plan_shards
from .wire import JobRequest, WireError, spec_sha256, validate_job_payload

__all__ = [
    "ExperimentServer",
    "Job",
    "JobQueue",
    "JobRequest",
    "RemoteExecutor",
    "ScalingDecision",
    "ScalingPolicy",
    "ServiceClient",
    "ServiceError",
    "Shard",
    "spec_sha256",
    "validate_job_payload",
    "WireError",
    "WorkerPool",
    "plan_shards",
]

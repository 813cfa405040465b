"""Wire-level request validation and canonical spec hashing.

The experiment server accepts JSON job payloads of four kinds::

    {"kind": "experiment", "spec": {...ExperimentSpec...}}
    {"kind": "campaign",   "spec": {...CampaignSpec...}}
    {"kind": "sweep",      "spec": {...SweepSpec...}}
    {"kind": "batch",      "specs": [{...ExperimentSpec...}, ...]}

:func:`validate_job_payload` turns such a payload into a
:class:`JobRequest` — the queue's unit of work — or raises a
:class:`WireError` whose :meth:`WireError.payload` is the structured 400
body the server returns: a message plus, for registry lookups, the
registry's valid choices.  Validation happens *before* any spec object is
built, so a malformed request never reaches the executor layer (and never
surfaces as a 500/traceback).

:func:`spec_sha256` is the canonical content hash of a payload — the
identity the results stream's header carries so a stream can be matched
to the spec that produced it.

The results stream (format :data:`NDJSON_FORMAT`) is a header line, one
line per seed block (:func:`block_line`), one line per row of every other
result (the row plus its ``"_spec"``) and a trailer with the final
``state``, ``rows``, ``columns`` and ``error``.  The server writes it and
:func:`~repro.service.client.read_results` reads it.
"""

from __future__ import annotations

import base64
import hashlib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..api.registry import (
    available_fault_models,
    available_scenarios,
    available_strategies,
    scenario_known,
    strategy_known,
)
from ..api.spec import ENGINES, KINDS, CampaignSpec, ExperimentSpec, SweepSpec
from ..apps.registry import available_applications, canonical_name
from ..batch.engine import ColumnBlock, decode_block, encode_block
from ..warehouse.keys import canonical_json

#: Job kinds accepted by ``POST /v1/experiments``.
WIRE_KINDS: tuple[str, ...] = ("experiment", "campaign", "sweep", "batch")

#: Key marking the results stream's metadata lines (header and trailer).
NDJSON_META_KEY = "__ndjson__"

#: Format tag carried by the results stream's header line.
NDJSON_FORMAT = "repro.resultset/v2"

#: Key carrying a result line's spec index (a row) or indices (a block).
SPEC_INDEX_KEY = "_spec"


def block_line(specs: Sequence[int], block: ColumnBlock) -> dict[str, Any]:
    """The results-stream line of the seed block answering ``specs``.

    ``{"_spec": [...], "block": ..., "payload": ...}``: the
    :func:`~repro.batch.engine.encode_block` header and its bytes in
    base64, the pair ``warehouse export`` ships for a block entry.
    """
    header, payload = encode_block(block)
    encoded = base64.b64encode(payload).decode("ascii")
    return {SPEC_INDEX_KEY: list(specs), "block": header, "payload": encoded}


def read_block_line(line: Mapping[str, Any]) -> ColumnBlock | None:
    """The block of a :func:`block_line`; ``None`` unless it decodes with one spec index per row."""
    specs = line.get(SPEC_INDEX_KEY)
    try:
        payload = base64.b64decode(line["payload"])
    except (KeyError, TypeError, ValueError):
        return None
    block = decode_block(line.get("block"), payload)
    if not isinstance(specs, list) or block is None or len(specs) != len(block.seeds):
        return None
    return block if {*map(type, specs)} == {int} else None


class WireError(Exception):
    """A request problem that maps to a structured HTTP error response.

    Parameters
    ----------
    message:
        Human-readable description of what is wrong with the request.
    status:
        HTTP status code (default 400).
    choices:
        Optional mapping of field name to its valid values — filled for
        registry lookups so clients can self-correct without a round-trip
        to ``GET /v1/registries``.
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        choices: Mapping[str, Sequence[str]] | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.status = int(status)
        self.choices = {name: list(values) for name, values in (choices or {}).items()}

    def payload(self) -> dict[str, Any]:
        """The JSON body the server sends for this error."""
        error: dict[str, Any] = {"status": self.status, "message": self.message}
        if self.choices:
            error["choices"] = self.choices
        return {"error": error}


def spec_sha256(payload: Mapping[str, Any]) -> str:
    """Canonical content hash of a JSON-able payload.

    Key order and whitespace are normalized before hashing, so the hash is
    a pure function of the payload's content — the same identity whether
    the spec was submitted by the CLI, a client library or raw curl.

    Values without a canonical JSON form raise a :class:`WireError`
    (→ structured 400): stringifying them (the old ``default=str``
    behaviour) could make two distinct payloads share a hash, and
    ``NaN``/``Infinity`` — which ``json.loads`` happily admits — have no
    RFC-8259 serialization at all, so a hash over them would not be
    canonical.  The same strict serialization keys the result warehouse
    (:func:`repro.warehouse.canonical_json`).
    """
    try:
        canonical = canonical_json(payload)
    except (TypeError, ValueError) as error:
        raise WireError(
            f"payload is not canonically hashable (non-JSON or NaN/Infinity value): {error}"
        ) from None
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobRequest:
    """A validated job: the runs it executes and the hash of its payload.

    Attributes
    ----------
    kind:
        One of :data:`WIRE_KINDS`.
    specs:
        The concrete :class:`~repro.api.spec.ExperimentSpec` list the job
        executes, in result order; empty for a campaign.
    label:
        Human-readable one-line description for listings and logs.
    spec_hash:
        :func:`spec_sha256` of the request payload, its spec dicts
        re-serialized via ``to_dict`` so the hash ignores field order.
    shard_size:
        Specs per shard outside batched seed groups, and seeds per shard
        of a behavioural campaign (``None`` = the planner's default).
    campaign:
        A campaign, kept whole: it runs as (base spec, seed blocks).
    """

    kind: str
    specs: tuple[ExperimentSpec, ...]
    label: str
    spec_hash: str
    shard_size: int | None = None
    campaign: CampaignSpec | None = None

    @property
    def runs(self) -> int:
        """Number of runs (result rows' ``_spec`` slots) the job produces."""
        return len(self.campaign) if self.campaign is not None else len(self.specs)


def _check_registry_names(spec_dict: Mapping[str, Any], where: str) -> None:
    """Reject unknown registry names with the valid choices attached."""
    if not isinstance(spec_dict, Mapping):
        raise WireError(f"{where} must be a JSON object, got {type(spec_dict).__name__}")
    kind = spec_dict.get("kind", "execute")
    if kind not in KINDS:
        raise WireError(
            f"{where}: unknown experiment kind {kind!r}", choices={"kind": list(KINDS)}
        )
    engine = spec_dict.get("engine", "behavioural")
    if engine not in ENGINES:
        raise WireError(
            f"{where}: unknown engine {engine!r}", choices={"engine": list(ENGINES)}
        )
    app = spec_dict.get("app")
    if app is None:
        if kind != "feasibility":
            raise WireError(
                f"{where}: kind={kind!r} requires an application",
                choices={"app": available_applications()},
            )
    elif isinstance(app, str):
        try:
            canonical_name(app)
        except KeyError:
            raise WireError(
                f"{where}: unknown application {app!r}",
                choices={"app": available_applications()},
            ) from None
    else:
        raise WireError(f"{where}: 'app' must be a registry name string")
    strategy = spec_dict.get("strategy", "default")
    if kind == "execute" and not strategy_known(strategy):
        raise WireError(
            f"{where}: unknown strategy {strategy!r}",
            choices={"strategy": available_strategies()},
        )
    fault_model = spec_dict.get("fault_model")
    if fault_model is not None and fault_model not in available_fault_models():
        raise WireError(
            f"{where}: unknown fault model {fault_model!r}",
            choices={"fault_model": available_fault_models()},
        )
    scenario = spec_dict.get("scenario", "paper-constant")
    if isinstance(scenario, str) and not scenario_known(scenario):
        raise WireError(
            f"{where}: unknown scenario {scenario!r}",
            choices={"scenario": available_scenarios()},
        )


def _build_spec(spec_dict: Mapping[str, Any], where: str) -> ExperimentSpec:
    _check_registry_names(spec_dict, where)
    try:
        return ExperimentSpec.from_dict(spec_dict)
    except (TypeError, ValueError) as error:
        raise WireError(f"{where}: {error}") from None


def _spec_label(spec: ExperimentSpec) -> str:
    app = spec.app_name or spec.kind
    return f"{app}/{spec.strategy}" if spec.kind == "execute" else f"{app} [{spec.kind}]"


def validate_job_payload(payload: Any) -> JobRequest:
    """Validate a submitted job payload into a :class:`JobRequest`.

    Raises :class:`WireError` (→ structured 400) on every malformed shape:
    non-object bodies, unknown job kinds, unknown registry names (with the
    registry's valid choices), bad engines, empty spec lists.
    """
    if not isinstance(payload, Mapping):
        raise WireError(f"request body must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind", "experiment")
    if kind not in WIRE_KINDS:
        raise WireError(
            f"unknown job kind {kind!r}", choices={"kind": list(WIRE_KINDS)}
        )
    shard_size = payload.get("shard_size")
    if shard_size is not None:
        if not isinstance(shard_size, int) or isinstance(shard_size, bool) or shard_size < 1:
            raise WireError("'shard_size' must be a positive integer")

    campaign: CampaignSpec | None = None
    if kind == "batch":
        raw_specs = payload.get("specs")
        if not isinstance(raw_specs, Sequence) or isinstance(raw_specs, (str, bytes)):
            raise WireError("'specs' must be a list of experiment spec objects")
        if not raw_specs:
            raise WireError("'specs' must contain at least one spec")
        specs = tuple(
            _build_spec(entry, f"specs[{index}]") for index, entry in enumerate(raw_specs)
        )
        label = f"batch of {len(specs)} specs ({_spec_label(specs[0])}, ...)"
        canonical = {"kind": kind, "specs": [spec.to_dict() for spec in specs]}
    elif kind == "experiment":
        spec = _build_spec(_require_spec(payload), "spec")
        specs = (spec,)
        label = f"experiment {_spec_label(spec)} (seed {spec.seed})"
        canonical = {"kind": kind, "spec": spec.to_dict()}
    elif kind == "campaign":
        raw = _require_spec(payload)
        base = _build_spec(_require_field(raw, "base", "spec.base"), "spec.base")
        try:
            campaign = CampaignSpec(
                base=base,
                seeds=raw.get("seeds", ()),
                runs=raw.get("runs", 10),
                metrics=raw.get("metrics", ()),
            )
        except (TypeError, ValueError) as error:
            raise WireError(f"spec: {error}") from None
        specs = ()  # the seeds run as (base spec, seed blocks), never per-seed specs
        label = f"campaign {_spec_label(base)} ({len(campaign)} seeds)"
        canonical = {"kind": kind, "spec": campaign.to_dict()}
    else:  # sweep
        raw = _require_spec(payload)
        base = _build_spec(_require_field(raw, "base", "spec.base"), "spec.base")
        try:
            sweep = SweepSpec(base=base, parameters=raw.get("parameters", {}))
            specs = tuple(sweep.expand())
        except (TypeError, ValueError) as error:
            raise WireError(f"spec: {error}") from None
        axes = ", ".join(sweep.parameters)
        label = f"sweep {_spec_label(base)} over {axes} ({len(specs)} points)"
        canonical = {"kind": kind, "spec": sweep.to_dict()}

    if shard_size is not None:
        canonical["shard_size"] = shard_size
    return JobRequest(
        kind=kind,
        specs=specs,
        label=label,
        spec_hash=spec_sha256(canonical),
        shard_size=shard_size,
        campaign=campaign,
    )


def _require_spec(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    spec = payload.get("spec")
    if not isinstance(spec, Mapping):
        raise WireError("'spec' must be a JSON object")
    return spec


def _require_field(raw: Mapping[str, Any], name: str, where: str) -> Mapping[str, Any]:
    value = raw.get(name)
    if not isinstance(value, Mapping):
        raise WireError(f"{where} must be a JSON object")
    return value

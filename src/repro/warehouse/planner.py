"""Delta planning: diff a desired spec set against the warehouse.

The sync pattern is compute-wanted → diff-against-store → execute only
the deltas → sync them back.  :meth:`DeltaPlanner.plan` splits a spec
list into *units* — the atomic blocks the warehouse stores — looks every
unit up, and returns a :class:`DeltaPlan` that knows which specs still
need executing and how to merge fresh outcomes back into the original
order, bit-identical to a cold run.

Unit granularity follows the engines' reproducibility contracts:

* behavioural specs and all design-space kinds are one unit per spec —
  their outcome depends only on the spec itself;
* ``engine="batched"`` execute specs are grouped by same-experiment and
  split into consecutive seed **blocks** of the engine's execution block
  size (:func:`repro.batch.streaming.batch_block_size`, i.e.
  ``REPRO_BATCH_BLOCK``), one unit per block keyed by its ordered seed
  sub-list.  The batch engine's fault streams are counter-based per
  (seed, draw), so rows are independent of block composition — the
  blocking is safe under any executor, blocks hit or miss independently
  and a partially synced campaign resumes as a delta of its remaining
  blocks rather than re-executing whole.

Every unit is keyed on the spec's declared ``engine``, and no executor
overrides it, so a unit's key always names the engine that computed it.

Specs with no canonical JSON form — live application/scenario instances,
``collect_trace`` runs, ``NaN`` parameters — are *uncacheable*: they
always execute and are never stored.

:func:`plan_and_run` is the one-call integration surface used by
:class:`~repro.api.session.Session`, the batch executor and the service
workers.  A thread-local reentrancy guard makes nested calls (session →
executor) pass straight through, so a spec set is planned and synced
exactly once per logical run.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..api.executors import RunOutcome
from ..api.spec import ExperimentSpec
from ..batch.streaming import batch_block_size
from .keys import canonical_json, fingerprint_digest, unit_key
from .store import ResultWarehouse, WarehouseEntry, WAREHOUSE_EVENTS, default_warehouse

#: Kinds whose outcomes carry a rich artifact consumers rely on
#: (fig4 reads the region, Session.pareto returns the front).  Units of
#: these kinds are only stored — and only served — with the artifact.
ARTIFACT_KINDS: tuple[str, ...] = ("optimize", "feasibility", "pareto")


@dataclass(frozen=True)
class Unit:
    """One atomic warehouse block of a planned spec set.

    ``key is None`` marks an uncacheable unit: it always executes and is
    never stored.
    """

    indices: tuple[int, ...]
    key: str | None
    spec_dicts: tuple[dict[str, Any], ...]
    kind: str
    engine: str


def _spec_payload(spec: ExperimentSpec) -> dict[str, Any] | None:
    """The spec's canonical dict, or ``None`` when it has no JSON form."""
    if spec.collect_trace:
        # Traces are rich in-process objects the record stream does not
        # carry; replaying from records would silently drop them.
        return None
    try:
        payload = spec.to_dict()
        canonical_json(payload)  # reject NaN / non-JSON parameter values
    except (TypeError, ValueError):
        return None
    return payload


def plan_units(specs: Sequence[ExperimentSpec]) -> list[Unit]:
    """Split a spec list into warehouse units (see module docstring)."""
    fingerprint = fingerprint_digest()
    units: list[Unit] = []
    groups: dict[str, list[int]] = {}
    payloads: dict[int, dict[str, Any]] = {}
    for index, spec in enumerate(specs):
        payload = _spec_payload(spec)
        if payload is None:
            units.append(
                Unit(
                    indices=(index,),
                    key=None,
                    spec_dicts=(),
                    kind=spec.kind,
                    engine=spec.engine,
                )
            )
            continue
        payloads[index] = payload
        if spec.seed_grouped:
            # Group by everything except the seed.  Rows are
            # composition-invariant, so the blocks cut below need not
            # match how any executor batches the group.
            group = canonical_json({k: v for k, v in payload.items() if k != "seed"})
            groups.setdefault(group, []).append(index)
        else:
            units.append(
                Unit(
                    indices=(index,),
                    key=unit_key([payload], fingerprint),
                    spec_dicts=(payload,),
                    kind=spec.kind,
                    engine=spec.engine,
                )
            )
    block = batch_block_size()
    for indices in groups.values():
        # Per-block units: a million-seed campaign stores (and resumes)
        # as independent block deltas instead of one atomic entry.
        step = block if block is not None else len(indices)
        for start in range(0, len(indices), step):
            chunk = indices[start : start + step]
            spec_dicts = tuple(payloads[index] for index in chunk)
            units.append(
                Unit(
                    indices=tuple(chunk),
                    key=unit_key(list(spec_dicts), fingerprint),
                    spec_dicts=spec_dicts,
                    kind="execute",
                    engine="batched",
                )
            )
    return units


@dataclass
class DeltaPlan:
    """The diff of a desired spec set against the warehouse."""

    specs: list[ExperimentSpec]
    units: list[Unit]
    entries: dict[int, WarehouseEntry]
    warehouse: ResultWarehouse
    fingerprint: str = field(default_factory=fingerprint_digest)

    # ------------------------------------------------------------------ #
    @property
    def fully_cached(self) -> bool:
        """Whether every spec is served from the warehouse."""
        return not self.missing_indices()

    def cached_spec_count(self) -> int:
        """Number of specs the warehouse answers."""
        return sum(len(self.units[position].indices) for position in self.entries)

    def missing_indices(self) -> list[int]:
        """Spec indices that still need executing, in input order."""
        missing: list[int] = []
        for position, unit in enumerate(self.units):
            if position not in self.entries:
                missing.extend(unit.indices)
        return sorted(missing)

    def missing_specs(self) -> list[ExperimentSpec]:
        """The specs behind :meth:`missing_indices`, in that order."""
        return [self.specs[index] for index in self.missing_indices()]

    # ------------------------------------------------------------------ #
    def merge(self, outcomes: Sequence[RunOutcome], sync: bool = True) -> list[RunOutcome]:
        """Interleave fresh outcomes with cached ones, in original order.

        ``outcomes`` must be the executor's results for
        :meth:`missing_specs`, in that order.  With ``sync=True`` the
        fresh units are written back to the warehouse, so the next plan
        over the same specs is fully cached.
        """
        missing = self.missing_indices()
        if len(outcomes) != len(missing):
            raise ValueError(
                f"merge got {len(outcomes)} outcomes for {len(missing)} missing specs"
            )
        merged: list[RunOutcome | None] = [None] * len(self.specs)
        for position, unit in enumerate(self.units):
            entry = self.entries.get(position)
            if entry is None:
                continue
            for offset, index in enumerate(unit.indices):
                merged[index] = RunOutcome(
                    spec=self.specs[index],
                    records=[dict(row) for row in entry.records_per_spec[offset]],
                    # Group units are execute-kind (artifact-free); solo
                    # units hand the decoded artifact straight back.
                    artifact=entry.artifact if len(unit.indices) == 1 else None,
                )
        by_index = dict(zip(missing, outcomes))
        for index, outcome in by_index.items():
            merged[index] = outcome
        if sync:
            self._sync(by_index)
        return merged  # type: ignore[return-value]

    def _sync(self, by_index: dict[int, RunOutcome]) -> None:
        """Write every freshly executed, cacheable unit back to the store."""
        for position, unit in enumerate(self.units):
            if unit.key is None or position in self.entries:
                continue
            unit_outcomes = [by_index[index] for index in unit.indices]
            artifact = None
            if unit.kind in ARTIFACT_KINDS:
                artifact = unit_outcomes[0].artifact
                if artifact is None:
                    # Remote executions keep artifacts server-side; a
                    # record-only entry would later be served to callers
                    # that need the artifact (fig4, Session.pareto).
                    continue
            self.warehouse.put(
                unit.key,
                spec_dicts=list(unit.spec_dicts),
                records_per_spec=[
                    [dict(row) for row in outcome.records] for outcome in unit_outcomes
                ],
                kind=unit.kind,
                engine=unit.engine,
                artifact=artifact,
                fingerprint=self.fingerprint,
            )


class DeltaPlanner:
    """Plans spec sets against one warehouse instance."""

    def __init__(self, warehouse: ResultWarehouse | None = None) -> None:
        self.warehouse = warehouse if warehouse is not None else default_warehouse()

    def plan(self, specs: Sequence[ExperimentSpec]) -> DeltaPlan:
        """Diff ``specs`` against the store and return the delta plan."""
        specs = list(specs)
        units = plan_units(specs)
        entries: dict[int, WarehouseEntry] = {}
        for position, unit in enumerate(units):
            if unit.key is None:
                WAREHOUSE_EVENTS.inc(len(unit.indices), outcome="uncacheable")
                continue
            entry = self.warehouse.get(unit.key)
            if entry is None:
                continue
            if len(entry.records_per_spec) != len(unit.indices):
                continue  # malformed pairing: execute rather than trust it
            if unit.kind in ARTIFACT_KINDS and entry.artifact is None:
                continue  # artifact consumers need more than the records
            entries[position] = entry
        return DeltaPlan(
            specs=specs,
            units=units,
            entries=entries,
            warehouse=self.warehouse,
        )


_ACTIVE = threading.local()


def plan_and_run(
    specs: Sequence[ExperimentSpec],
    run: Callable[[list[ExperimentSpec]], Sequence[RunOutcome]],
) -> list[RunOutcome]:
    """Run ``specs`` through ``run``, serving cached units from the warehouse.

    The transparent-caching entry point: plans the delta, executes only
    the missing specs (skipping the call entirely on a full hit), syncs
    fresh results back and returns outcomes in input order.  Nested calls
    on the same thread — a session delegating to an executor that also
    consults the warehouse — pass straight through, so each logical run
    is planned exactly once.  With the warehouse disabled this is exactly
    ``run(list(specs))``.
    """
    specs = list(specs)
    warehouse = default_warehouse()
    if not warehouse.enabled or getattr(_ACTIVE, "depth", 0):
        return list(run(specs))
    plan = DeltaPlanner(warehouse).plan(specs)
    missing = plan.missing_specs()
    _ACTIVE.depth = getattr(_ACTIVE, "depth", 0) + 1
    try:
        outcomes = list(run(missing)) if missing else []
    finally:
        _ACTIVE.depth -= 1
    return plan.merge(outcomes)

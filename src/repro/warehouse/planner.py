"""Delta planning: diff a desired spec set against the warehouse.

The sync pattern is compute-wanted → diff-against-store → execute only
the deltas → sync them back.  :meth:`DeltaPlanner.plan` splits a spec
list into *units* — the atomic blocks the warehouse stores — looks every
unit up, and returns a :class:`DeltaPlan` that knows which specs still
need executing and how to merge fresh outcomes back into the original
order, bit-identical to a cold run.

Unit granularity follows the engines' reproducibility contracts:

* design-space kinds are one unit per spec — their outcome depends only
  on the spec itself;
* ``execute`` specs are cut per base spec (everything but the seed) into
  consecutive seed **blocks** of ``REPRO_BATCH_BLOCK`` seeds holding
  their metric columns.  A batched block is one unit: counter-based
  fault streams make rows independent of block composition, so a
  partially synced campaign resumes as a delta of its missing blocks.
  A behavioural block is one unit per seed, as a lone spec is.

Only this module groups and cuts seeds: a campaign, a ``run_all`` seed
group (:func:`group_seeds`) or a service worker's shard travels as
(base spec, seed blocks) through :func:`campaign_blocks`, so a unit
stored by any of them serves the others.

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
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from ..api.executors import Executor, RunOutcome
from ..api.spec import ExperimentSpec
from ..batch.engine import (
    ColumnBlock,
    block_from_records,
    join_blocks,
    records_from_columns,
    slice_block,
)
from ..batch.streaming import iter_blocks
from ..utils.rng import seed_array
from .keys import block_keys, canonical_json, fingerprint_digest, unit_key
from .store import ResultWarehouse, WarehouseEntry, WAREHOUSE_EVENTS, default_warehouse

#: Kinds whose outcomes carry a rich artifact consumers rely on
#: (fig4 reads the region, Session.pareto returns the front).  Units of
#: these kinds are only stored — and only served — with the artifact.
ARTIFACT_KINDS: tuple[str, ...] = ("optimize", "feasibility", "pareto")


@dataclass(frozen=True)
class Unit:
    """One atomic warehouse block of a planned spec set.

    ``key is None`` marks an uncacheable unit: it always executes and is
    never stored.  A block unit's ``spec`` is its base (no ``seed``) and
    its ``seeds`` a view of its group's ``uint64`` seed array; a solo
    unit has no seeds.
    """

    indices: tuple[int, ...]
    key: str | None
    spec: dict[str, Any] | None
    kind: str
    engine: str
    seeds: np.ndarray | tuple[()] = ()


@dataclass(frozen=True)
class SeedGroup:
    """Batched specs equal but for their seed: the first one, positions, seeds.

    ``seeds`` is one read-only ``uint64`` array, in ``indices`` order.
    """

    base: ExperimentSpec
    indices: tuple[int, ...]
    seeds: np.ndarray


def _spec_payload(spec: ExperimentSpec, seedless: bool = False) -> dict[str, Any] | None:
    """The spec's canonical dict (minus ``seed``), or ``None`` without a JSON form."""
    if spec.collect_trace:
        # Traces are rich in-process objects the record stream does not
        # carry; replaying from records would silently drop them.
        return None
    try:
        payload = spec.to_dict()
        if seedless:
            del payload["seed"]
        canonical_json(payload)  # reject NaN / non-JSON parameter values
    except (TypeError, ValueError):
        return None
    return payload


def _identity(spec: ExperimentSpec) -> tuple:
    """Hashable identity of a batched spec minus its seed."""
    # Live application / scenario instances group by identity:
    # campaigns reuse the same instance across seeds.
    return (
        spec.app if isinstance(spec.app, str) else id(spec.app),
        spec.strategy,
        repr(sorted(spec.strategy_params.items())),
        spec.constraints,
        spec.fault_model,
        repr(sorted(spec.fault_params.items())),
        spec.scenario if isinstance(spec.scenario, str) else id(spec.scenario),
        repr(sorted(spec.scenario_params.items())),
        repr(sorted(spec.params.items())),
    )


def group_seeds(specs: Sequence[ExperimentSpec]) -> tuple[list[SeedGroup], list[int]]:
    """The batched seed groups of two or more seeds, and every other spec's index.

    A lone batched spec stays solo, so a parallel executor still spreads
    a one-seed-per-point sweep; behavioural specs share no task model.
    Grouping only decides how seeds share a task model, never a number.
    """
    members: dict[tuple, list[int]] = {}
    solo: list[int] = []
    for index, spec in enumerate(specs):
        if spec.kind == "execute" and spec.engine == "batched":
            members.setdefault(_identity(spec), []).append(index)
        else:
            solo.append(index)
    groups: list[SeedGroup] = []
    for indices in members.values():
        if len(indices) == 1:
            solo.append(indices[0])
        else:
            seeds = seed_array([specs[index].seed for index in indices])
            groups.append(SeedGroup(specs[indices[0]], tuple(indices), seeds))
    return groups, sorted(solo)


def plan_units(specs: Sequence[ExperimentSpec]) -> list[Unit]:
    """Split a spec list into warehouse units (see module docstring)."""
    fingerprint = fingerprint_digest()
    groups, solo = group_seeds(specs)
    units: list[Unit] = []
    for index in solo:
        spec = specs[index]
        if spec.kind == "execute":
            # Keyed like the one-seed campaign block of the same spec.
            groups.append(SeedGroup(spec, (index,), seed_array([spec.seed])))
            continue
        payload = _spec_payload(spec)
        key = None if payload is None else unit_key(payload, fingerprint)
        units.append(Unit((index,), key, payload, spec.kind, spec.engine))
    for group in groups:
        base = _spec_payload(group.base, seedless=True)
        keyer = None if base is None else block_keys(base, fingerprint)
        for piece in iter_blocks(len(group.seeds)):
            seeds = group.seeds[piece]
            key = None if keyer is None else keyer(seeds)
            units.append(Unit(group.indices[piece], key, base, "execute", group.base.engine, seeds))
    return units


def campaign_blocks(
    base: ExperimentSpec,
    seeds: Sequence[int] | np.ndarray,
    compute: Callable[[np.ndarray], ColumnBlock],
) -> Iterator[ColumnBlock]:
    """A campaign's seed blocks, in order, served or computed.

    The seeds (one :func:`~repro.utils.rng.seed_array`) are cut into
    ``REPRO_BATCH_BLOCK`` blocks, each into the units :func:`plan_units`
    gives the expanded campaign: the whole block if ``base`` is batched,
    else one per seed.  ``compute(seeds)``, an executor's block runner,
    fills a block's missing units in one call; each is stored alone.
    """
    seeds = seed_array(seeds)
    warehouse = default_warehouse()
    payload = _spec_payload(base, seedless=True) if warehouse.enabled else None
    if warehouse.enabled and payload is None:
        WAREHOUSE_EVENTS.inc(len(seeds), outcome="uncacheable")
    fingerprint = fingerprint_digest()
    store = partial(
        warehouse.put, spec=payload, kind="execute", engine=base.engine, fingerprint=fingerprint
    )
    keyer = None if payload is None else block_keys(payload, fingerprint)
    for piece in iter_blocks(len(seeds)):
        block_seeds = seeds[piece]
        if keyer is None:
            yield compute(block_seeds)
            continue
        width = len(block_seeds) if base.engine == "batched" else 1
        units = [block_seeds[unit] for unit in iter_blocks(len(block_seeds), width)]
        keys = [keyer(unit) for unit in units]
        entries = [warehouse.get(key) for key in keys]
        parts = [
            entry.block if entry is not None and np.array_equal(entry.seeds, unit) else None
            for entry, unit in zip(entries, units)
        ]
        missing = [index for index, part in enumerate(parts) if part is None]
        if missing:
            fresh = compute(np.concatenate([units[index] for index in missing]))
            offsets = np.cumsum([0] + [len(units[index]) for index in missing]).tolist()
            for index, start, stop in zip(missing, offsets, offsets[1:]):
                parts[index] = slice_block(fresh, slice(start, stop))
                store(keys[index], block=parts[index])
        yield join_blocks(parts)


class _Missing(Exception):
    """A campaign block the warehouse does not hold."""


def _missing(block_seeds: np.ndarray) -> ColumnBlock:
    raise _Missing(block_seeds)


def stored_campaign(base: ExperimentSpec, seeds: Sequence[int] | np.ndarray) -> ColumnBlock | None:
    """A campaign's runs if the warehouse holds every unit, else ``None``."""
    try:
        return join_blocks(campaign_blocks(base, seeds, _missing))
    except _Missing:
        return None  # stopped at the first block the warehouse lacks


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
        return sorted(
            index
            for position, unit in enumerate(self.units)
            if position not in self.entries
            for index in unit.indices
        )

    def missing_specs(self) -> list[ExperimentSpec]:
        """The specs behind :meth:`missing_indices`, in that order."""
        return [self.specs[index] for index in self.missing_indices()]

    # ------------------------------------------------------------------ #
    def merge(self, outcomes: Sequence[RunOutcome]) -> list[RunOutcome]:
        """Interleave fresh outcomes with cached ones, in original order.

        ``outcomes`` must be the executor's results for
        :meth:`missing_specs`, in that order.  The fresh units are written
        back to the warehouse, so the next plan over the same specs is
        fully cached.
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
            if entry.block is not None:
                for index, record in zip(unit.indices, records_from_columns(entry.block)):
                    merged[index] = RunOutcome(spec=self.specs[index], records=[record])
            else:
                (index,) = unit.indices
                merged[index] = RunOutcome(
                    spec=self.specs[index],
                    records=[dict(row) for row in entry.records],
                    artifact=entry.artifact,
                )
        by_index = dict(zip(missing, outcomes))
        for index, outcome in by_index.items():
            merged[index] = outcome
        self._sync(by_index)
        return merged  # type: ignore[return-value]

    def _sync(self, by_index: dict[int, RunOutcome]) -> None:
        """Write every freshly executed, cacheable unit back to the store."""
        for position, unit in enumerate(self.units):
            if unit.key is None or position in self.entries:
                continue
            records = [row for index in unit.indices for row in by_index[index].records]
            stored: dict[str, Any] = {"records": records}
            if len(unit.seeds):
                try:
                    stored = {"block": block_from_records(records, unit.seeds)}
                except ValueError:
                    continue  # rows no engine emitted have no column form
            elif unit.kind in ARTIFACT_KINDS:
                stored["artifact"] = by_index[unit.indices[0]].artifact
                if stored["artifact"] is None:
                    # Remote executions keep artifacts server-side; a
                    # record-only entry would later be served to callers
                    # that need the artifact (fig4, Session.pareto).
                    continue
            self.warehouse.put(
                unit.key,
                spec=unit.spec,
                kind=unit.kind,
                engine=unit.engine,
                fingerprint=self.fingerprint,
                **stored,
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
            if not np.array_equal(entry.seeds, unit.seeds):
                continue  # not this unit's shape or seeds: execute rather than trust it
            if unit.kind in ARTIFACT_KINDS and entry.artifact is None:
                continue  # artifact consumers need more than the records
            entries[position] = entry
        return DeltaPlan(specs=specs, units=units, entries=entries, warehouse=self.warehouse)


_ACTIVE = threading.local()


def plan_and_run(specs: Sequence[ExperimentSpec], executor: Executor) -> list[RunOutcome]:
    """Run ``specs`` on ``executor``, serving stored units from the warehouse.

    Each seed group walks :func:`campaign_blocks` on
    ``executor.block_runner(base)``.  Every other spec is diffed by
    :class:`DeltaPlanner` and only the missing ones go to one
    ``executor.map`` call (none on a full hit).  Outcomes return in
    input order.  A nested call on the same thread — an executor whose
    ``map`` plans again — passes straight through to ``executor.map``.
    """
    specs = list(specs)
    if getattr(_ACTIVE, "depth", 0):
        return list(executor.map(specs))
    _ACTIVE.depth = 1
    try:
        outcomes: list[RunOutcome | None] = [None] * len(specs)
        groups, solo = group_seeds(specs)
        for group in groups:
            runner = executor.block_runner(group.base)
            block = join_blocks(campaign_blocks(group.base, group.seeds, runner))
            for index, record in zip(group.indices, records_from_columns(block)):
                outcomes[index] = RunOutcome(spec=specs[index], records=[record])
        rest = [specs[index] for index in solo]
        warehouse = default_warehouse()
        if rest and warehouse.enabled:
            plan = DeltaPlanner(warehouse).plan(rest)
            missing = plan.missing_specs()
            done = plan.merge(list(executor.map(missing)) if missing else [])
        else:
            done = list(executor.map(rest)) if rest else []
        for index, outcome in zip(solo, done):
            outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]
    finally:
        _ACTIVE.depth = 0

"""Campaign sharding: how a job becomes worker-sized units.

A *shard* is the unit the elastic worker pool schedules: one worker call
over part of a job's results.  Shards follow the warehouse planner's
grouping (:func:`repro.warehouse.planner.group_seeds`):

* a campaign job, and each batched seed group of a job, is cut into
  seed blocks, one shard each with payload ``{"base": ..., "seeds":
  <uint64 view>}``: a batched one into the ``REPRO_BATCH_BLOCK`` blocks an
  in-process campaign cuts, so a small campaign is one shard amortizing
  one task profile; a behavioural one into blocks of ``shard_size``
  seeds, so the pool spreads it;
* every other spec — behavioural runs, design kinds, a lone batched
  spec — goes into shards of ``shard_size`` specs with payload
  ``{"specs": [...]}``.

Rows do not depend on the cut (a behavioural run depends only on its
spec, batched fault streams are counter-based per seed), so the shards
reassembled in result order are bit-identical to an in-process run.  The
pool's scaling policy clamps its worker target to the outstanding shards.

:func:`execute_shard_payload` is the module-level worker function that
process workers run: a picklable payload in, a :data:`ShardResult` out.
A seed block's result stays its :class:`~repro.batch.engine.ColumnBlock`
from the worker to the finished job, and the results stream ships its
codec bytes; only the client renders rows from it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..api.executors import BatchCampaignExecutor, SerialExecutor
from ..api.spec import ExperimentSpec
from ..batch.engine import ColumnBlock, join_blocks, slice_block
from ..batch.streaming import iter_blocks
from ..warehouse.planner import SeedGroup, campaign_blocks, group_seeds
from .wire import JobRequest

#: What one shard produces: a seed block's runs as one column block, or
#: a spec list's records, one list per spec.
ShardResult = ColumnBlock | list[list[dict[str, Any]]]

#: Default specs per shard outside batched seed groups, and seeds per
#: shard of a behavioural campaign.  Small enough that a burst of modest
#: behavioural campaigns produces real queue pressure for the scaler to
#: react to, large enough to amortize dispatch overhead.
DEFAULT_SHARD_SIZE = 4


@dataclass(frozen=True)
class Shard:
    """One schedulable block of a job.

    Attributes
    ----------
    index:
        Position within the job's shard plan.
    spec_indices:
        Indices into the job's results served by this shard, in order.
    payload:
        The work order shipped to a worker: JSON-able but for a seed
        block's ``seeds``, a read-only ``uint64`` view.
    """

    index: int
    spec_indices: tuple[int, ...]
    payload: Mapping[str, Any]


def plan_shards(request: JobRequest) -> list[Shard]:
    """Partition a validated job into schedulable shards (see module docstring)."""
    shard_size = request.shard_size if request.shard_size is not None else DEFAULT_SHARD_SIZE
    groups, solo = group_seeds(request.specs)  # a campaign job has no specs
    campaign = request.campaign
    if campaign is not None:
        groups.append(SeedGroup(campaign.base, tuple(range(len(campaign))), campaign.seeds))
    shards: list[Shard] = []
    for group in groups:
        base = group.base.to_dict()
        del base["seed"]
        block = None if group.base.engine == "batched" else shard_size
        for piece in iter_blocks(len(group.seeds), block):
            payload = {"base": base, "seeds": group.seeds[piece]}
            shards.append(Shard(len(shards), group.indices[piece], payload))
    for start in range(0, len(solo), shard_size):
        chunk = tuple(solo[start : start + shard_size])
        payload = {"specs": [request.specs[index].to_dict() for index in chunk]}
        shards.append(Shard(len(shards), chunk, payload))
    return shards


def execute_shard_payload(payload: Mapping[str, Any]) -> ShardResult:
    """Execute one shard work order and return its :data:`ShardResult`.

    The inverse of :attr:`Shard.payload`.  A seed block walks
    :func:`~repro.warehouse.planner.campaign_blocks` on a serial block
    runner, exactly as an in-process campaign does, and returns the
    block's columns; a spec list runs through one
    :class:`~repro.api.executors.BatchCampaignExecutor` call and returns
    its records.  Both consult the warehouse with the same unit keys as
    an in-process run.  Module-level, dict-typed in and picklable out, so
    process workers can exchange it over ``multiprocessing`` queues.
    """
    if "seeds" in payload:
        base = ExperimentSpec.from_dict(payload["base"])
        runner = SerialExecutor().block_runner(base)
        return join_blocks(campaign_blocks(base, payload["seeds"], runner))
    specs = [ExperimentSpec.from_dict(entry) for entry in payload["specs"]]
    outcomes = BatchCampaignExecutor().map(specs)
    return [[dict(record) for record in outcome.records] for outcome in outcomes]


def shard_row_count(result: ShardResult) -> int:
    """How many rows a shard result holds, without rendering them."""
    if isinstance(result, ColumnBlock):
        return len(result.seeds)
    return sum(len(records) for records in result)


def split_result(result: ShardResult, shards: Sequence[Shard]) -> list[ShardResult]:
    """Cut a whole job's result into the results of its ``shards``.

    ``result`` covers every run of the job in result order: a
    campaign's column block, whose shards are contiguous seed blocks
    (each part is a view of the block), or one record list per spec.
    Raises ``ValueError`` when ``result`` covers a different run count.
    """
    covered = len(result.seeds) if isinstance(result, ColumnBlock) else len(result)
    runs = sum(len(shard.spec_indices) for shard in shards)
    if covered != runs:
        raise ValueError(f"the result covers {covered} runs, the job has {runs}")
    if isinstance(result, ColumnBlock):
        return [
            slice_block(result, slice(shard.spec_indices[0], shard.spec_indices[-1] + 1))
            for shard in shards
        ]
    return [[result[index] for index in shard.spec_indices] for shard in shards]

"""Campaign sharding: how a job's specs become worker-sized units.

A *shard* is the unit the elastic worker pool schedules: a contiguous
block of a job's specs executed by one worker call, through
:class:`~repro.api.executors.BatchCampaignExecutor` — which vectorizes
the batched ``execute`` specs and runs every other spec on its declared
engine.  The planner follows the engines' reproducibility contracts:

* ``engine="batched"`` specs are split into seed blocks of
  ``batched_shard_size`` (default: the engine's own execution block
  size, ``REPRO_BATCH_BLOCK``).  The batch engine's fault streams are
  counter-based per (seed, draw) (:mod:`repro.batch.substrate`), so
  every row is independent of shard composition and any partition
  reassembled in input order is bit-identical to an in-process
  :meth:`Session.campaign`.  Small campaigns stay one shard; blocks are
  sized so each worker call amortizes one task profile over many seeds.
* ``engine="behavioural"`` specs are split into seed blocks of
  ``shard_size`` — each spec's outcome depends only on the spec itself,
  so any partition reassembled in input order is bit-identical to a
  serial run.

The shard count is clamped to the spec count by construction
(``shard_size >= 1``), and the pool's scaling policy in turn clamps its
worker target to the number of outstanding shards — so a 4-seed campaign
never provisions 16 workers no matter what ``max_workers`` allows.

:func:`execute_shard_payload` is the module-level worker function
(picklable, JSON-in/JSON-out) that process workers run.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..api.executors import BatchCampaignExecutor
from ..api.spec import ExperimentSpec
from ..batch.streaming import batch_block_size

#: Default behavioural seeds per shard.  Small enough that a burst of
#: modest campaigns produces real queue pressure for the scaler to react
#: to, large enough to amortize dispatch overhead.
DEFAULT_SHARD_SIZE = 4


@dataclass(frozen=True)
class Shard:
    """One schedulable block of a job.

    Attributes
    ----------
    index:
        Position within the job's shard plan.
    spec_indices:
        Indices into the job's spec list served by this shard, in result
        order.
    """

    index: int
    spec_indices: tuple[int, ...]

    def payload(self, spec_dicts: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        """The JSON-able work order shipped to a worker."""
        return {"specs": [dict(spec_dicts[i]) for i in self.spec_indices]}


def plan_shards(
    spec_dicts: Sequence[Mapping[str, Any]],
    shard_size: int | None = None,
    batched_shard_size: int | None = None,
) -> list[Shard]:
    """Partition a job's spec dicts into schedulable shards.

    Batched specs form seed blocks of ``batched_shard_size`` (default:
    :func:`repro.batch.streaming.batch_block_size`, i.e.
    ``REPRO_BATCH_BLOCK``) — the batch engine's per-seed rows are
    composition-invariant, so the partition is free to follow worker
    economics rather than reproducibility constraints.  Behavioural specs
    form seed blocks of ``shard_size``.  The plan never contains more
    shards than specs.
    """
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    if shard_size < 1:
        raise ValueError("shard_size must be at least 1")
    if batched_shard_size is None:
        batched_shard_size = batch_block_size()
    if batched_shard_size is not None and batched_shard_size < 1:
        raise ValueError("batched_shard_size must be at least 1")
    batched = [i for i, spec in enumerate(spec_dicts) if spec.get("engine") == "batched"]
    serial = [i for i, spec in enumerate(spec_dicts) if spec.get("engine") != "batched"]
    shards: list[Shard] = []
    batched_step = batched_shard_size if batched_shard_size is not None else max(1, len(batched))
    for start in range(0, len(batched), batched_step):
        block = tuple(batched[start : start + batched_step])
        shards.append(Shard(index=len(shards), spec_indices=block))
    for start in range(0, len(serial), shard_size):
        block = tuple(serial[start : start + shard_size])
        shards.append(Shard(index=len(shards), spec_indices=block))
    return shards


def max_useful_workers(shards: Sequence[Shard]) -> int:
    """Largest worker count a shard plan can keep busy."""
    return max(1, len(shards))


def execute_shard_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one shard work order and return its per-spec records.

    The inverse of :meth:`Shard.payload`: rebuilds the specs, runs them
    through one :class:`~repro.api.executors.BatchCampaignExecutor` call
    (which consults the warehouse, with the same unit keys as an
    in-process run) and returns records in spec order.  Module-level and
    dict-typed on both ends so process workers can receive it over a
    ``multiprocessing`` queue.
    """
    specs = [ExperimentSpec.from_dict(entry) for entry in payload["specs"]]
    outcomes = BatchCampaignExecutor().map(specs)
    return {
        "records_per_spec": [
            [dict(record) for record in outcome.records] for outcome in outcomes
        ]
    }

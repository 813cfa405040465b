"""Vectorized campaign simulation over a :class:`BatchTaskModel`.

:func:`iter_column_blocks` runs every seed of a campaign, one block of
seeds at a time, into :class:`ColumnBlock` metric columns.  All runs
share the task skeleton (phases, per-phase costs); only the fault
streams differ.  The per-phase dynamics mirror the behavioural
executor:

* **inline / none recovery** (Default, HW-mitigation): every phase is
  executed and drained once; detected-uncorrectable words are consumed.
* **rollback** (Hybrid): a phase whose drain detects an uncorrectable
  word services the Read Error Interrupt and re-executes, up to
  :data:`~repro.runtime.executor.MAX_ROLLBACK_ATTEMPTS` times, then
  consumes the corrupted chunk.
* **restart** (SW-mitigation): the first failing phase aborts the pass and
  the whole task restarts, up to ``strategy.max_restarts`` times, after
  which one final best-effort pass consumes its errors.

Upset counts per (run, phase, attempt) are Poisson draws against the
scenario's cumulative rate over that attempt's exposure window — the
window follows each run's own clock, so recovery activity shifts later
windows exactly as it does behaviourally.  Each upset is thinned into
corrected / detected / silent / benign outcomes with the probabilities
measured from the platform's ECC code, and distinct-corrupted-word counts
are drawn from their exact marginal distribution (the per-word Poisson
split of a uniform strike pattern).

Execution is *blocked*: fault sampling runs on counter-based per-run
streams (:mod:`~repro.batch.substrate`), and :func:`iter_column_blocks`
walks the seed list in :func:`~repro.batch.streaming.batch_block_size`-sized
blocks so the working set is ``O(block)``, not ``O(seeds)``.  Because each
run's stream is a pure function of its seed, the block partition (and the
batch composition) changes no emitted number.  The warehouse, the
campaign report and finished service jobs keep :class:`ColumnBlock`
columns and turn them into rows (:func:`records_from_columns`) only when
rows are asked for.  :func:`encode_block` / :func:`decode_block` are the
one byte codec of a block, shared by warehouse entries, their export and
the service's results stream.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..core.strategies import RecoveryPolicy
from ..runtime.executor import MAX_ROLLBACK_ATTEMPTS
from ..utils.rng import seed_array
from .model import BatchTaskModel, OutcomeProbabilities, RunLayout
from .streaming import iter_blocks, note_blocks, note_peak_bytes
from .substrate import SUBSTRATE, RunStreams

#: Order (and exact key spelling) of the per-run metric columns, which a
#: row carries after its labels and ``seed`` as ``execute_spec`` does.
METRIC_COLUMNS = (
    "total_cycles",
    "useful_cycles",
    "checkpoint_cycles",
    "recovery_cycles",
    "energy_pj",
    "upsets_injected",
    "errors_detected",
    "errors_corrected_inline",
    "rollbacks",
    "task_restarts",
    "output_correct",
    "silent_corruptions",
    "checkpoints_committed",
    "energy_nj",
    "deadline_met",
    "fully_mitigated",
)

#: Label keys leading every batched record, ahead of its seed and metrics.
LABELS = ("application", "strategy", "scenario")


@dataclass(frozen=True)
class ColumnBlock:
    """One seed block's runs: a float64 entry per seed in every metric column.

    ``seeds`` is one read-only ``uint64`` array (any integer sequence
    passed in is converted by :func:`~repro.utils.rng.seed_array`), the
    block's only copy of its seeds: ``columns`` holds the
    :data:`METRIC_COLUMNS`, and rows take their seed from ``seeds`` as
    Python ints, so seeds above 2**53 print exactly.  ``labels`` holds the
    :data:`LABELS` values all runs share.
    """

    seeds: np.ndarray
    labels: tuple[str, ...]
    columns: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", seed_array(self.seeds))

    def __reduce__(self):
        # Through __init__, so a block a process worker sends back keeps
        # read-only seeds (NumPy unpickles arrays writeable).
        return ColumnBlock, (self.seeds, self.labels, dict(self.columns))


def seed_column(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """The float64 ``seed`` metric column of ``seeds``."""
    return np.asarray(seeds, dtype=np.float64)


def encode_block(block: ColumnBlock) -> tuple[dict[str, Any], bytes]:
    """A block's codec header and byte payload.

    The payload is the seeds as ``<u8``, then each of the header's
    ``columns`` (the :data:`METRIC_COLUMNS`) as ``<f8``; the header also
    names the row count and the labels.  Raises ``ValueError`` for a
    column whose length is not the seed count.
    """
    seeds = np.asarray(block.seeds, dtype="<u8")
    columns = np.stack([block.columns[name] for name in METRIC_COLUMNS]).astype("<f8", copy=False)
    if columns.shape != (len(METRIC_COLUMNS), len(seeds)):
        raise ValueError("block columns do not match its seeds")
    header = {"rows": len(seeds), "labels": list(block.labels), "columns": list(METRIC_COLUMNS)}
    return header, seeds.tobytes() + columns.tobytes()


def decode_block(header: Any, payload: bytes | memoryview) -> ColumnBlock | None:
    """Inverse of :func:`encode_block`; ``None`` for any malformed pair.

    The seeds and columns are read-only views of ``payload``.
    """
    if not isinstance(header, dict):
        return None
    rows, labels = header.get("rows"), header.get("labels")
    if not (
        type(rows) is int
        and rows > 0
        and header.get("columns") == list(METRIC_COLUMNS)
        and isinstance(labels, list)
        and len(labels) == len(LABELS)
        and set(map(type, labels)) == {str}
        and len(payload) == 8 * rows * (1 + len(METRIC_COLUMNS))
    ):
        return None
    seeds = np.frombuffer(payload, dtype="<u8", count=rows)
    columns = np.frombuffer(payload, dtype="<f8", offset=8 * rows)
    return ColumnBlock(
        seeds, tuple(labels), dict(zip(METRIC_COLUMNS, columns.reshape(len(METRIC_COLUMNS), rows)))
    )


def _split_outcomes(
    model: BatchTaskModel,
    streams: RunStreams,
    counts,
    idx,
) -> tuple:
    """Thin upset counts into (detected, corrected, silent) sub-counts.

    Benign flips are the remainder; sequential binomial thinning of a
    Poisson count is an exact multinomial split.  Which thinning steps
    consume stream draws depends only on the model's (constant) outcome
    probabilities, so consumption stays identical across runs.
    """
    probs: OutcomeProbabilities = model.outcomes
    zeros = np.zeros(counts.shape, dtype=np.int64)

    def thin(trials, p: float):
        return SUBSTRATE.binomial(streams, trials, min(p, 1.0), idx) if p > 0 else zeros

    detected = thin(counts, probs.detected)
    rest = counts - detected
    denom = 1.0 - probs.detected
    corrected = thin(rest, probs.corrected / denom if denom > 0 else 0.0)
    rest = rest - corrected
    denom -= probs.corrected
    silent = thin(rest, probs.silent / denom if denom > 0 else 0.0)
    return detected, corrected, silent


class _RunTotals:
    """Mutable per-run accumulators for one simulated block."""

    def __init__(self, runs: int) -> None:
        self.clock = np.zeros(runs, dtype=np.int64)
        self.energy = np.zeros(runs, dtype=np.float64)
        self.recovery_cycles = np.zeros(runs, dtype=np.int64)
        self.checkpoint_cycles = np.zeros(runs, dtype=np.int64)
        self.upsets = np.zeros(runs, dtype=np.int64)
        self.errors_detected = np.zeros(runs, dtype=np.int64)
        self.corrected = np.zeros(runs, dtype=np.int64)
        self.rollbacks = np.zeros(runs, dtype=np.int64)
        self.restarts = np.zeros(runs, dtype=np.int64)
        self.silent = np.zeros(runs, dtype=np.int64)
        self.checkpoints = np.zeros(runs, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        """Accounted bytes of the accumulator arrays."""
        return int(self.clock.nbytes) * 10 + int(self.energy.nbytes)


def _sample_attempt(
    model: BatchTaskModel,
    layout: RunLayout,
    streams: RunStreams,
    window_end,
    live: int,
    words: int,
    idx=None,
) -> tuple:
    """Upset counts and outcome split for one exposure window per run."""
    lam = words * layout.rate.integral(window_end - live, window_end, runs=idx)
    counts = SUBSTRATE.poisson(streams, lam, idx)
    detected, corrected, silent = _split_outcomes(model, streams, counts, idx)
    return counts, detected, corrected, silent


# ---------------------------------------------------------------------- #
# Inline / none / rollback recovery: every phase retries locally
# ---------------------------------------------------------------------- #
def _simulate_phase_loop(
    model: BatchTaskModel, layout: RunLayout, streams: RunStreams, totals: _RunTotals
) -> None:
    costs = layout.costs
    max_attempts = (
        MAX_ROLLBACK_ATTEMPTS
        if model.strategy.recovery == RecoveryPolicy.ROLLBACK
        else 0
    )
    commits = model.strategy.uses_checkpoints
    for p in range(layout.num_phases):
        words = int(costs.words[p])
        exec_c = int(costs.exec_cycles[p])
        drain_c = int(costs.drain_cycles[p])
        live = int(costs.live_cycles[p])
        exec_e = float(costs.exec_energy[p])
        drain_e = float(costs.drain_energy[p])

        totals.clock += exec_c
        counts, detected, corrected, silent = _sample_attempt(
            model, layout, streams, totals.clock, live, words
        )
        totals.clock += drain_c
        totals.energy += exec_e + drain_e
        totals.upsets += counts
        totals.corrected += SUBSTRATE.distinct_words(streams, corrected, words)
        last_detected = detected
        last_silent = silent
        failed = detected > 0

        for _attempt in range(max_attempts):
            if not bool(failed.any()):
                break
            failed_idx = np.flatnonzero(failed)
            totals.errors_detected[failed] += 1
            totals.rollbacks[failed] += 1
            totals.clock[failed] += layout.isr_cycles
            totals.energy[failed] += layout.isr_energy
            totals.recovery_cycles[failed] += layout.isr_cycles

            window_end = totals.clock[failed] + exec_c
            counts, detected, corrected, silent = _sample_attempt(
                model, layout, streams, window_end, live, words, failed_idx
            )
            totals.clock[failed] += exec_c + drain_c
            totals.energy[failed] += exec_e + drain_e
            totals.recovery_cycles[failed] += exec_c + drain_c
            totals.upsets[failed] += counts
            totals.corrected[failed] += SUBSTRATE.distinct_words(
                streams, corrected, words, failed_idx
            )
            last_detected[failed] = detected
            last_silent[failed] = silent
            still = failed.copy()
            still[failed] = detected > 0
            failed = still

        # Runs still failing consume the corrupted chunk (one final
        # detection, no further retry); everyone else consumes only the
        # silently corrupted words of their last (successful) attempt.
        totals.errors_detected[failed] += 1
        consumed = np.where(failed, last_detected, 0) + last_silent
        totals.silent += SUBSTRATE.distinct_words(streams, consumed, words)

        if commits:
            totals.clock += int(costs.checkpoint_cycles[p])
            totals.energy += float(costs.checkpoint_energy[p])
            totals.checkpoint_cycles += int(costs.checkpoint_cycles[p])
            totals.checkpoints += 1


# ---------------------------------------------------------------------- #
# Restart recovery: the first failing phase aborts the whole pass
# ---------------------------------------------------------------------- #
def _simulate_restart(
    model: BatchTaskModel, layout: RunLayout, streams: RunStreams, totals: _RunTotals
) -> None:
    costs = layout.costs
    runs = totals.clock.shape[0]
    max_restarts = int(getattr(model.strategy, "max_restarts", 1))
    committed = np.zeros(runs, dtype=bool)

    while not bool(committed.all()):
        active = ~committed
        accept = active & (totals.restarts >= max_restarts)
        in_recovery = active & (totals.restarts > 0)
        running = active.copy()
        pass_silent = np.zeros(runs, dtype=np.int64)

        for p in range(layout.num_phases):
            if not bool(running.any()):
                break
            running_idx = np.flatnonzero(running)
            words = int(costs.words[p])
            exec_c = int(costs.exec_cycles[p])
            drain_c = int(costs.drain_cycles[p])
            live = int(costs.live_cycles[p])

            totals.clock[running] += exec_c
            counts, detected, corrected, silent = _sample_attempt(
                model, layout, streams, totals.clock[running], live, words, running_idx
            )
            totals.clock[running] += drain_c
            totals.energy[running] += float(costs.exec_energy[p]) + float(
                costs.drain_energy[p]
            )
            rec = running & in_recovery
            totals.recovery_cycles[rec] += exec_c + drain_c
            totals.upsets[running] += counts
            totals.corrected[running] += SUBSTRATE.distinct_words(
                streams, corrected, words, running_idx
            )

            failed_here = np.zeros(runs, dtype=bool)
            failed_here[running] = detected > 0
            failed_here &= ~accept
            totals.errors_detected[failed_here] += 1

            # Runs that keep the chunk (no restart this phase) consume its
            # corrupted words.  On the final best-effort pass that includes
            # the detected-uncorrectable ones; on a clean pass only silent
            # flips remain (a normal run with detections restarts instead).
            mismatches = np.zeros(runs, dtype=np.int64)
            mismatches[running] = SUBSTRATE.distinct_words(
                streams, detected + silent, words, running_idx
            )
            mismatches[failed_here] = 0
            pass_silent += mismatches
            running = running & ~failed_here

        committed_now = running
        committed |= committed_now
        totals.silent[committed_now] += pass_silent[committed_now]
        failed_runs = active & ~committed_now
        totals.restarts[failed_runs] += 1


# ---------------------------------------------------------------------- #
def _simulate_block(model: BatchTaskModel, seeds: np.ndarray) -> dict[str, np.ndarray]:
    """Simulate one block of seeds into host float64 metric columns.

    Seed-dependent schedules (stochastic scenario × scenario-reading
    planner, or a seed-consuming planner) force one layout — and hence
    one sub-block — per seed; seed-dependent rate paths alone keep the
    shared layout and swap in a per-run breakpoint table.  Either way a
    run's row is a pure function of ``(spec, seed)``, so the partition
    stays invisible in the emitted columns.
    """
    if model.schedule_seed_dependent:
        pieces = [
            _simulate_layout_block(model, model.layout_for_seed(seed), seeds[index : index + 1])
            for index, seed in enumerate(seeds.tolist())
        ]
        if len(pieces) == 1:
            return pieces[0]
        return {
            name: np.concatenate([piece[name] for piece in pieces])
            for name in METRIC_COLUMNS
        }
    layout = model.layout
    if model.rate_seed_dependent:
        layout = replace(layout, rate=model.rate_for_block(seeds))
    return _simulate_layout_block(model, layout, seeds)


def _simulate_layout_block(
    model: BatchTaskModel, layout: RunLayout, seeds: np.ndarray
) -> dict[str, np.ndarray]:
    """Simulate one block of seeds that share a single run layout."""
    streams = model.make_streams(seeds)
    totals = _RunTotals(len(seeds))
    if model.strategy.recovery == RecoveryPolicy.RESTART:
        _simulate_restart(model, layout, streams, totals)
    else:
        _simulate_phase_loop(model, layout, streams, totals)

    clock = totals.clock
    energy = totals.energy + (
        layout.leakage_mw * clock.astype(np.float64) / model.frequency_hz * 1e9
    )
    silent = totals.silent
    correct = (silent == 0).astype(np.float64)
    if model.deadline_cycles == 0:
        deadline_met = np.ones(len(seeds), dtype=np.float64)
    else:
        deadline_met = (clock <= model.deadline_cycles).astype(np.float64)
    columns = {
        "total_cycles": clock.astype(np.float64),
        "useful_cycles": np.full(len(seeds), float(model.useful_cycles)),
        "checkpoint_cycles": totals.checkpoint_cycles.astype(np.float64),
        "recovery_cycles": totals.recovery_cycles.astype(np.float64),
        "energy_pj": energy,
        "upsets_injected": totals.upsets.astype(np.float64),
        "errors_detected": totals.errors_detected.astype(np.float64),
        "errors_corrected_inline": totals.corrected.astype(np.float64),
        "rollbacks": totals.rollbacks.astype(np.float64),
        "task_restarts": totals.restarts.astype(np.float64),
        "output_correct": correct,
        "silent_corruptions": silent.astype(np.float64),
        "checkpoints_committed": totals.checkpoints.astype(np.float64),
        "energy_nj": energy * 1e-3,
        "deadline_met": deadline_met,
        "fully_mitigated": correct.copy(),
    }
    accounted = (
        totals.nbytes
        + streams.nbytes
        + sum(column.nbytes for column in columns.values())
    )
    note_peak_bytes("campaign", accounted)
    return columns


def iter_column_blocks(
    model: BatchTaskModel,
    seeds: Sequence[int] | np.ndarray,
    block: int | None = None,
    label: str | None = None,
) -> Iterator[ColumnBlock]:
    """Simulate ``seeds`` block by block, yielding one :class:`ColumnBlock` each.

    ``block=None`` resolves through
    :func:`~repro.batch.streaming.batch_block_size` (``REPRO_BATCH_BLOCK``).
    Per-run counter-based streams make the partition invisible: joining
    the yielded blocks equals a single-block run bit for bit.  ``label``
    names the rows' scenario (default: the scenario's description).
    Each block's seeds are a view of one :func:`~repro.utils.rng.seed_array`.
    """
    seeds = seed_array(seeds)
    if label is None:
        label = model.scenario.describe() if model.scenario is not None else "none"
    labels = (model.app.name, model.strategy.name, label)
    for piece in iter_blocks(len(seeds), block):
        block_seeds = seeds[piece]
        columns = _simulate_block(model, block_seeds)
        note_blocks("campaign")
        yield ColumnBlock(block_seeds, labels, columns)


def join_blocks(blocks: Iterable[ColumnBlock]) -> ColumnBlock:
    """One block holding the runs of ``blocks`` in order (all share labels)."""
    blocks = list(blocks)
    if len(blocks) == 1:
        return blocks[0]
    columns = {
        name: np.concatenate([piece.columns[name] for piece in blocks])
        for name in METRIC_COLUMNS
    }
    seeds = np.concatenate([piece.seeds for piece in blocks])
    return ColumnBlock(seeds, blocks[0].labels, columns)


def slice_block(block: ColumnBlock, piece: slice) -> ColumnBlock:
    """The runs ``piece`` of ``block``; its seeds and columns are views, not copies."""
    columns = {name: column[piece] for name, column in block.columns.items()}
    return ColumnBlock(block.seeds[piece], block.labels, columns)


def records_from_columns(block: ColumnBlock) -> list[dict]:
    """Materialize behavioural-shaped per-run records from a column block.

    The records carry exactly the keys (and key order) the behavioural
    ``execute_spec`` worker produces, so campaign aggregation, result
    sets and the figure harnesses consume them unchanged.
    """
    head = dict(zip(LABELS, block.labels))
    values = zip(*(block.columns[name].tolist() for name in METRIC_COLUMNS))
    records: list[dict] = []
    for seed, row in zip(block.seeds.tolist(), values):
        record = {**head, "seed": seed}
        record.update(zip(METRIC_COLUMNS, row))
        records.append(record)
    return records


def block_from_records(
    records: Sequence[Mapping], seeds: Sequence[int] | np.ndarray
) -> ColumnBlock:
    """The :class:`ColumnBlock` behind ``execute`` ``records`` of ``seeds``, on either engine.

    The inverse of :func:`records_from_columns`: raises ``ValueError``
    unless the block's rows reproduce ``records`` byte for byte.
    """
    seeds = seed_array(seeds)
    try:
        labels = tuple(records[0][name] for name in LABELS)
        columns = {
            name: np.array([record[name] for record in records], dtype=np.float64)
            for name in METRIC_COLUMNS
        }
    except (IndexError, KeyError, TypeError, ValueError) as error:
        raise ValueError(f"not the execute rows of seeds {seeds.tolist()}") from error
    block = ColumnBlock(seeds, labels, columns)
    if json.dumps(records_from_columns(block)) != json.dumps(list(records)):
        raise ValueError(f"not the execute rows of seeds {seeds.tolist()}")
    return block

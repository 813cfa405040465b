"""Vectorized campaign simulation over a :class:`BatchTaskModel`.

One call to :func:`simulate_campaign` runs every seed of a campaign.
All runs share the task skeleton (phases, per-phase costs); only the
fault streams differ.  The per-phase dynamics mirror the behavioural
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
streams (:mod:`~repro.batch.substrate`), and
:func:`simulate_columns` / :func:`iter_column_blocks` walk the seed list
in :func:`~repro.batch.streaming.batch_block_size`-sized blocks so the
working set is ``O(block)``, not ``O(seeds)``.  Because each run's stream
is a pure function of its seed, the block partition (and the batch
composition) changes no emitted number.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import replace

import numpy as np

from ..core.strategies import RecoveryPolicy
from ..runtime.executor import MAX_ROLLBACK_ATTEMPTS
from .model import BatchTaskModel, OutcomeProbabilities, RunLayout
from .streaming import iter_blocks, note_blocks, note_peak_bytes
from .substrate import SUBSTRATE, RunStreams

#: Order (and exact key spelling) of the per-run metric columns; the
#: behavioural ``execute_spec`` worker produces the same keys.
METRIC_COLUMNS = (
    "seed",
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
def _simulate_block(model: BatchTaskModel, seeds: Sequence[int]) -> dict[str, np.ndarray]:
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
            _simulate_layout_block(model, model.layout_for_seed(int(seed)), [seed])
            for seed in seeds
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
    model: BatchTaskModel, layout: RunLayout, seeds: Sequence[int]
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
        "seed": np.asarray([int(s) for s in seeds], dtype=np.float64),
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
    seeds: Sequence[int],
    block: int | None = None,
) -> Iterator[dict[str, np.ndarray]]:
    """Simulate ``seeds`` block by block, yielding per-block metric columns.

    ``block=None`` resolves through
    :func:`~repro.batch.streaming.batch_block_size` (``REPRO_BATCH_BLOCK``).
    Per-run counter-based streams make the partition invisible in the
    results: concatenating the yielded blocks equals a single-block run
    bit for bit.  Each yielded mapping carries :data:`METRIC_COLUMNS`
    (float64, one entry per seed of the block).
    """
    seeds = list(seeds)
    for piece in iter_blocks(len(seeds), block):
        columns = _simulate_block(model, seeds[piece])
        note_blocks("campaign")
        yield columns


def simulate_columns(
    model: BatchTaskModel,
    seeds: Sequence[int],
    block: int | None = None,
) -> dict[str, np.ndarray]:
    """Simulate one run per seed into full-campaign metric columns."""
    blocks = list(iter_column_blocks(model, seeds, block))
    if not blocks:
        return {name: np.zeros(0, dtype=np.float64) for name in METRIC_COLUMNS}
    if len(blocks) == 1:
        return blocks[0]
    return {
        name: np.concatenate([piece[name] for piece in blocks])
        for name in METRIC_COLUMNS
    }


def simulate_campaign(
    model: BatchTaskModel, seeds: list[int], scenario_label: str | None = None
) -> list[dict]:
    """Simulate one run per seed; returns behavioural-shaped metric records."""
    if not seeds:
        return []
    columns = simulate_columns(model, seeds)
    label = scenario_label if scenario_label is not None else (
        model.scenario.describe() if model.scenario is not None else "none"
    )
    return records_from_columns(model, columns, label)


def records_from_columns(
    model: BatchTaskModel, columns: dict[str, np.ndarray], label: str
) -> list[dict]:
    """Materialize behavioural-shaped per-run records from metric columns.

    The records carry exactly the keys (and key order) the behavioural
    ``execute_spec`` worker produces, so campaign aggregation, result
    sets and the figure harnesses consume them unchanged.
    """
    records: list[dict] = []
    for i in range(columns["seed"].size):
        record = {
            "application": model.app.name,
            "strategy": model.strategy.name,
            "scenario": label,
        }
        for name in METRIC_COLUMNS:
            value = float(columns[name][i])
            record[name] = int(value) if name == "seed" else value
        records.append(record)
    return records

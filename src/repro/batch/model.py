"""Batch campaign model: shared task skeleton + vectorized fault sampling.

A :class:`BatchTaskModel` captures everything about one campaign
configuration — (application, strategy, constraints, fault model,
scenario) — that is shared across seeds: the profiled step costs, the
checkpoint schedule, the platform's per-access energies and latencies, the
ECC outcome probabilities and the scenario's cumulative rate function.
:func:`repro.batch.engine.iter_column_blocks` then runs any number of
seeds at once with array operations.

Fidelity contract (verified by ``tests/batch/``):

* **Fault-free runs are exact.**  The per-phase cost model reproduces the
  behavioural executor's cycle counts bit for bit and its energy totals to
  floating-point accumulation order.
* **Faulty runs are statistically equivalent.**  Upset counts, detection /
  correction outcomes, rollback and restart dynamics and their cycle and
  energy costs follow the same distributions as the behavioural engine.
  Four deliberate approximations remain: the workload content is frozen
  at seed 0's input (output-word counts are seed-invariant for every
  registered codec; only jpeg-decode's step cycles vary, by well under
  1 %), interactions between several upsets striking the same word are
  ignored (their probability is quadratically small in the per-window
  expectation), the number of *distinct* corrupted words is sampled
  from its exact marginal distribution instead of tracked per address,
  and per-upset decode outcomes come from the status-level classes of
  :func:`classify_outcomes`, enumerated exactly over the fault model's
  pattern law (see its docstring for what the classes conflate).
* **Per-seed rows are composition-invariant.**  Fault sampling runs on
  counter-based per-run streams (:meth:`BatchTaskModel.make_streams`,
  see :mod:`repro.batch.substrate`): a seed's row is a pure function of
  ``(spec, seed)`` and does not depend on which other seeds share its
  batch, its execution block, shard or executor.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..apps.base import StreamingApplication
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..core.strategies import MitigationStrategy, RecoveryPolicy
from ..ecc.base import Code, DecodeStatus
from ..faults.models import FaultModel, default_smu_model
from ..runtime.executor import profile_app
from ..runtime.profile_cache import default_cache
from ..scenarios.base import Scenario
from ..soc.interrupt import DEFAULT_ENTRY_CYCLES, DEFAULT_EXIT_CYCLES
from ..utils.bitops import flip_bits
from .substrate import SUBSTRATE, RunStreams

#: Domain-separation tag mixed into the campaign RNG seed so the batched
#: stream never collides with the behavioural injector streams.
_STREAM_TAG = 0xBA7C4ED

#: The workload input every batched run is profiled on.  One fixed seed
#: keeps a seed's row independent of the batch, block or shard it runs in.
_PROFILE_SEED = 0


class CumulativeRate:
    """Vectorized cumulative integral of a scenario's upset rate.

    ``integral(start, end)`` returns ``∫ rate(t) dt`` over ``[start, end)``
    for arrays of window boundaries in one shot.  Piecewise-constant
    scenarios are converted to a breakpoint table so the integral is a pair
    of ``np.interp`` lookups; constant rates use a closed form.  The table
    is grown on demand when a window reaches past the current horizon.

    Passing a *sequence* of scenarios (realized per-run sample paths of a
    stochastic environment) builds one breakpoint table **per run**: row
    ``i`` integrates scenario ``i``, and ``integral(..., runs=idx)``
    selects which rows the window boundaries belong to.  This is what
    lets the batched engine drive each run of a block along its own
    realized rate path without leaving array land.
    """

    def __init__(
        self,
        scenario: Scenario | Sequence[Scenario] | None,
        fixed_rate: float,
        horizon: int = 1,
    ) -> None:
        self.fixed_rate = float(fixed_rate)
        self._breaks: np.ndarray | None = None
        self._cum: np.ndarray | None = None
        self._horizon = 0
        if isinstance(scenario, Scenario) or scenario is None:
            self._run_scenarios: list[Scenario] | None = None
            self.scenario = scenario
            if scenario is not None and scenario.is_constant:
                # Degenerate to the closed form: one rate for all time.
                self.fixed_rate = float(scenario.rate_at(0))
                self.scenario = None
            if self.scenario is not None:
                self._extend(max(1, int(horizon)))
        else:
            self._run_scenarios = list(scenario)
            self.scenario = None
            if not self._run_scenarios:
                raise ValueError("per-run mode needs at least one scenario")
            self._run_rates: np.ndarray | None = None
            self._extend_runs(max(1, int(horizon)))

    @property
    def per_run(self) -> bool:
        """Whether this table integrates one rate path per run."""
        return self._run_scenarios is not None

    def _extend(self, horizon: int) -> None:
        segments = self.scenario.segments(0, horizon)
        breaks = np.empty(len(segments) + 1, dtype=np.float64)
        cum = np.empty(len(segments) + 1, dtype=np.float64)
        breaks[0] = 0.0
        cum[0] = 0.0
        for index, segment in enumerate(segments):
            breaks[index + 1] = segment.end
            cum[index + 1] = cum[index] + segment.rate * segment.cycles
        self._breaks = breaks
        self._cum = cum
        self._horizon = horizon

    def _extend_runs(self, horizon: int) -> None:
        """Rebuild the padded per-run breakpoint tables to ``horizon``.

        Every row's segments tile ``[0, horizon)`` exactly, so rows end on
        the same final break; shorter rows are right-padded by repeating
        that final break with zero rate, which keeps the row-wise lookup
        exact at every ``t`` in ``[0, horizon]``.
        """
        tables = [scenario.segments(0, horizon) for scenario in self._run_scenarios]
        width = max(len(segments) for segments in tables)
        runs = len(tables)
        breaks = np.full((runs, width + 1), float(horizon), dtype=np.float64)
        cum = np.empty((runs, width + 1), dtype=np.float64)
        rates = np.zeros((runs, width), dtype=np.float64)
        for row, segments in enumerate(tables):
            breaks[row, 0] = 0.0
            cum[row, 0] = 0.0
            for index, segment in enumerate(segments):
                breaks[row, index + 1] = segment.end
                cum[row, index + 1] = cum[row, index] + segment.rate * segment.cycles
                rates[row, index] = segment.rate
            cum[row, len(segments):] = cum[row, len(segments)]
        self._breaks = breaks
        self._cum = cum
        self._run_rates = rates
        self._horizon = horizon

    def _cum_at_runs(self, t, rows):
        """Cumulative integral at times ``t`` along rows ``rows``."""
        row_breaks = self._breaks[rows]
        row_cum = self._cum[rows]
        row_rates = self._run_rates[rows]
        width = row_rates.shape[1]
        index = np.clip(
            np.sum(row_breaks <= t[:, None], axis=1) - 1, 0, width - 1
        )
        gather = np.take_along_axis
        base_break = gather(row_breaks, index[:, None], axis=1)[:, 0]
        base_cum = gather(row_cum, index[:, None], axis=1)[:, 0]
        rate = gather(row_rates, index[:, None], axis=1)[:, 0]
        return base_cum + (t - base_break) * rate

    def integral(self, start, end, runs=None) -> np.ndarray:
        """``∫ rate dt`` over ``[start, end)``, elementwise over arrays.

        Windows must be well-formed: every ``end`` must be ``>= start``
        (a reversed window would silently return a negative integral,
        which the Poisson sampler downstream would reject much less
        legibly).  In per-run mode ``runs`` holds the row index of each
        window (``None`` means window ``i`` belongs to run ``i``);
        otherwise it is ignored.
        """
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        if bool(np.any(end < start)):
            raise ValueError("integral window is reversed: every end must be >= start")
        if self._run_scenarios is not None:
            top = float(end.max()) if end.size else 0.0
            while top > self._horizon:
                self._extend_runs(max(int(top * 2) + 1, self._horizon * 2))
            start = np.atleast_1d(start)
            end = np.atleast_1d(end)
            if runs is None:
                if start.shape[0] != len(self._run_scenarios):
                    raise ValueError(
                        "per-run integral needs one window per run (or explicit runs)"
                    )
                rows = np.arange(len(self._run_scenarios))
            else:
                rows = np.asarray(runs)
            return self._cum_at_runs(end, rows) - self._cum_at_runs(start, rows)
        if self.scenario is None:
            return self.fixed_rate * (end - start)
        top = float(end.max()) if end.size else 0.0
        while top > self._horizon:
            self._extend(max(int(top * 2) + 1, self._horizon * 2))
        return np.interp(end, self._breaks, self._cum) - np.interp(
            start, self._breaks, self._cum
        )


@dataclass(frozen=True)
class OutcomeProbabilities:
    """Per-upset decode-outcome mixture under one (code, fault model) pair.

    ``corrected``: the decoder repairs the word transparently;
    ``detected``: the decoder flags it uncorrectable (raising the Read
    Error Interrupt / restart trigger); ``silent``: the word decodes as
    usable but wrong (silent data corruption, including miscorrections);
    ``benign``: the flips cancel out architecturally (data intact with no
    corrective action — essentially only possible for degenerate codes).
    """

    corrected: float
    detected: float
    silent: float
    benign: float


def classify_outcomes(code: Code, fault_model: FaultModel) -> OutcomeProbabilities:
    """The exact decode-outcome mixture of single upsets.

    Enumerates every bit pattern the fault model can flip in one codeword
    with its probability (:meth:`~repro.faults.models.FaultModel.pattern_weights`),
    applies each to a few representative encoded data words and weights
    the decode classes by the pattern's probability.  The registered
    (code, fault model) pairs cost 0.4–41 ms a call, so task models go
    through :func:`outcome_mixture`, which keeps one mixture per (code,
    fault model) in the profile cache's derived tier; this function stays
    the reference it is tested against.

    The classes are status-level: a miscorrection is charged as silent
    corruption rather than as an inline correction, and a
    detected-uncorrectable pattern is assumed to have corrupted data even
    when its flips hit only check bits.  Neither case is reachable with
    the registered codes under the contiguous-cluster fault models.
    """
    data_words = (0, code.data_mask, 0x5A5A5A5A & code.data_mask)
    codewords = [code.encode(data) for data in data_words]
    classes = [0.0, 0.0, 0.0, 0.0]
    total = 0.0
    for pattern, weight in fault_model.pattern_weights(code.codeword_bits).items():
        counts = [0, 0, 0, 0]
        for data, codeword in zip(data_words, codewords):
            result = code.decode(flip_bits(codeword, pattern))
            if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                counts[1] += 1
            elif result.data != data:
                counts[2] += 1
            elif result.status is DecodeStatus.CORRECTED:
                counts[0] += 1
            else:
                counts[3] += 1
        # weight * (count / n), not weight * count / n: a pattern wholly in
        # one class then adds exactly its weight, so a single-class mixture
        # divides to exactly 1.0.
        for index, count in enumerate(counts):
            classes[index] += weight * (count / len(data_words))
        total += weight
    return OutcomeProbabilities(*(share / total for share in classes))


@dataclass(frozen=True)
class _MixtureKey:
    """What decides an outcome mixture: the code's and the fault model's identity."""

    code: tuple
    fault_model: tuple


def outcome_mixture(code: Code, fault_model: FaultModel) -> OutcomeProbabilities:
    """:func:`classify_outcomes` of ``(code, fault_model)``, once per process.

    The mixture depends only on the code and the fault model, so it is
    kept in the profile cache's derived tier, keyed on
    :meth:`~repro.ecc.base.Code.identity` and
    :meth:`~repro.faults.models.FaultModel.identity`.  Every task model
    of one code shape shares one classification; ``REPRO_NO_CACHE=1`` and
    :meth:`~repro.runtime.profile_cache.ProfileCache.clear` recompute it.
    """
    store = default_cache()
    key = None
    if store.enabled:
        key = store.key_for(_MixtureKey(code.identity(), fault_model.identity()), None)
    if key is not None:
        hit = store.derived_get(key)
        if hit is not None:
            return hit
    outcomes = classify_outcomes(code, fault_model)
    if key is not None:
        store.derived_put(key, outcomes)
    return outcomes


@dataclass(frozen=True)
class _PhaseCosts:
    """Per-phase cost arrays shared by every run of a campaign."""

    words: np.ndarray            # realized chunk size per phase
    exec_cycles: np.ndarray      # compute + L1 traffic cycles per attempt
    drain_cycles: np.ndarray     # chunk drain (read-back) cycles
    checkpoint_cycles: np.ndarray
    live_cycles: np.ndarray      # exposure window length per attempt
    exec_energy: np.ndarray      # pJ per attempt (compute + write traffic)
    drain_energy: np.ndarray     # pJ per drain
    checkpoint_energy: np.ndarray


@dataclass(frozen=True)
class RunLayout:
    """Everything seed-dependent planning can change about a run.

    For deterministic scenarios and oracle-free strategies one layout is
    shared by every seed (bit-identical to the pre-stochastic engine).
    Stochastic scenarios realize a rate path per seed, and seed-consuming
    planners (:class:`~repro.core.strategies.EstimatingAdaptiveStrategy`)
    additionally re-plan the schedule — and with it the platform sizing,
    ISR cost and leakage — per seed.
    """

    schedule: object             # CheckpointSchedule
    costs: _PhaseCosts
    isr_cycles: int
    isr_energy: float
    leakage_mw: float
    rate: CumulativeRate

    @property
    def num_phases(self) -> int:
        return len(self.schedule.phases)


class BatchTaskModel:
    """One campaign configuration, ready to simulate many seeds at once.

    Parameters mirror :class:`~repro.runtime.executor.TaskExecutor`.
    Every simulated run shares the profile of seed 0's workload input (see
    the module docstring for the approximation).
    """

    def __init__(
        self,
        app: StreamingApplication,
        strategy: MitigationStrategy,
        constraints: DesignConstraints | None = None,
        fault_model: FaultModel | None = None,
        scenario: Scenario | None = None,
    ) -> None:
        self.app = app
        self.strategy = strategy
        self.constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
        self.fault_model = fault_model if fault_model is not None else default_smu_model()
        self.scenario = scenario
        self._build()

    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        # Shared with TaskExecutor (repro.runtime.executor.profile_task),
        # so both engines plan from bit-identical profiles and schedules;
        # a warm build reaches it by seed, without regenerating the input.
        profile = profile_app(self.app, _PROFILE_SEED)
        if profile.total_words == 0:
            raise ValueError("the task produced no output words; nothing to protect")
        self._profile = profile

        self.useful_cycles = profile.baseline_cycles
        self.deadline_cycles = math.ceil(
            self.useful_cycles * (1.0 + self.constraints.cycle_overhead)
        )

        # Seed-dependence flags drive the engine's layout strategy:
        # a stochastic scenario makes the *rate path* per-seed; it makes
        # the *schedule* per-seed only if the planner reads the scenario,
        # and a seed-consuming planner (simulated observation channel)
        # makes the schedule per-seed even under deterministic scenarios.
        stochastic = self.scenario is not None and self.scenario.is_stochastic
        plan_uses_scenario = bool(getattr(self.strategy, "plan_uses_scenario", False))
        plan_depends_on_seed = bool(getattr(self.strategy, "plan_depends_on_seed", False))
        self.rate_seed_dependent = stochastic
        self.schedule_seed_dependent = self.scenario is not None and (
            (stochastic and plan_uses_scenario) or plan_depends_on_seed
        )
        self._layout_cache: dict[int, RunLayout] = {}

        # The representative layout: for seed-independent campaigns it is
        # *the* layout (bit-identical to the pre-stochastic engine); for
        # seed-dependent ones it plans against the unrealized scenario
        # (the process's mean path).
        self.layout = self._layout_for(self.scenario, seed=0)

    def _layout_for(self, scenario: Scenario | None, seed: int) -> RunLayout:
        """Plan one run layout: schedule, per-phase costs, ISR, leakage."""
        profile = self._profile
        step_words = profile.step_words
        step_cycles = profile.step_cycles
        step_reads = profile.step_reads
        step_writes = profile.step_writes

        schedule = self.strategy.plan_schedule(
            step_words,
            profile.estimated_step_cycles,
            scenario=scenario,
            seed=seed,
        )
        state_words = self.app.state_words()
        platform = self.strategy.build_platform(
            required_buffer_words=schedule.max_phase_words + state_words
        )
        spec = platform.processor.spec
        l1 = platform.l1
        l1p = platform.l1p

        e_cycle = spec.dynamic_energy_per_cycle_pj
        acc = l1.access_cycles
        state_region = state_words + spec.status_register_words

        phases = schedule.phases
        words = np.empty(len(phases), dtype=np.int64)
        exec_cycles = np.empty(len(phases), dtype=np.int64)
        exec_energy = np.empty(len(phases), dtype=np.float64)
        for i, phase in enumerate(phases):
            cyc = sum(step_cycles[phase.first_step : phase.last_step + 1])
            reads = sum(step_reads[phase.first_step : phase.last_step + 1])
            writes = sum(step_writes[phase.first_step : phase.last_step + 1])
            words[i] = phase.output_words
            stall = (reads + writes + phase.output_words) * acc
            exec_cycles[i] = cyc + stall
            exec_energy[i] = (
                cyc * e_cycle
                + 0.4 * e_cycle * stall
                + reads * l1.read_energy_pj
                + (writes + phase.output_words) * l1.write_energy_pj
            )
        drain_cycles = words * acc
        drain_energy = words * l1.read_energy_pj + 0.4 * e_cycle * words * acc
        if self.strategy.uses_checkpoints and l1p is not None:
            ckpt_words = state_region + words
            checkpoint_cycles = spec.context_save_cycles + ckpt_words * l1p.access_cycles
            checkpoint_energy = (
                spec.context_save_cycles * e_cycle
                + 0.4 * e_cycle * ckpt_words * l1p.access_cycles
                + ckpt_words * l1p.write_energy_pj
            )
        else:
            checkpoint_cycles = np.zeros(len(phases), dtype=np.int64)
            checkpoint_energy = np.zeros(len(phases), dtype=np.float64)
        live_cycles = np.minimum(exec_cycles, self.constraints.drain_latency_cycles)

        costs = _PhaseCosts(
            words=words,
            exec_cycles=exec_cycles,
            drain_cycles=drain_cycles.astype(np.int64),
            checkpoint_cycles=np.broadcast_to(
                np.asarray(checkpoint_cycles, dtype=np.int64), (len(phases),)
            ).copy(),
            live_cycles=live_cycles,
            exec_energy=exec_energy,
            drain_energy=np.asarray(drain_energy, dtype=np.float64),
            checkpoint_energy=np.broadcast_to(
                np.asarray(checkpoint_energy, dtype=np.float64), (len(phases),)
            ).copy(),
        )

        # Read Error Interrupt service cost (entry + Fig. 2(b) routine + exit).
        if self.strategy.recovery == RecoveryPolicy.ROLLBACK:
            if l1p is None:
                raise ValueError("rollback recovery requires a protected buffer L1'")
            handler_cycles = (
                spec.pipeline_flush_cycles
                + state_region * l1p.access_cycles
                + spec.context_restore_cycles
                + 4
            )
            isr_cycles = DEFAULT_ENTRY_CYCLES + handler_cycles + DEFAULT_EXIT_CYCLES
            isr_energy = isr_cycles * e_cycle + state_region * l1p.read_energy_pj
        else:
            isr_cycles = 0
            isr_energy = 0.0

        # Platform-wide constants (identical across layouts: the L1 code
        # and clock never depend on the planned schedule).
        self.frequency_hz = spec.frequency_hz
        self.word_bits = l1.code.codeword_bits
        if not hasattr(self, "outcomes"):
            self.outcomes = outcome_mixture(l1.code, self.fault_model)

        rate = CumulativeRate(
            scenario,
            self.constraints.error_rate,
            horizon=int(costs.exec_cycles.sum() + costs.drain_cycles.sum()) + 1,
        )
        return RunLayout(
            schedule=schedule,
            costs=costs,
            isr_cycles=isr_cycles,
            isr_energy=isr_energy,
            leakage_mw=spec.static_power_mw + platform.total_memory_leakage_mw(),
            rate=rate,
        )

    # ------------------------------------------------------------------ #
    def layout_for_seed(self, seed: int) -> RunLayout:
        """The run layout of one seed (the shared layout when possible).

        Seed-dependent layouts are cached (bounded), keyed by seed: the
        realized scenario and the planned schedule are pure functions of
        ``(spec, seed)``, so a cache hit is exactly a recomputation.
        """
        if not self.schedule_seed_dependent:
            return self.layout
        seed = int(seed)
        layout = self._layout_cache.get(seed)
        if layout is None:
            realized = self.scenario.realize(seed)
            layout = self._layout_for(realized, seed)
            if len(self._layout_cache) >= 256:
                self._layout_cache.pop(next(iter(self._layout_cache)))
            self._layout_cache[seed] = layout
        return layout

    def rate_for_block(self, seeds: Sequence[int]) -> CumulativeRate:
        """The cumulative-rate table of one block of seeds.

        Deterministic scenarios share one table; stochastic scenarios get
        one realized breakpoint row per seed (each row a pure function of
        its seed, so the block partition stays invisible in the results).
        """
        if not self.rate_seed_dependent:
            return self.layout.rate
        realized = [self.scenario.realize(int(seed)) for seed in seeds]
        costs = self.layout.costs
        horizon = int(costs.exec_cycles.sum() + costs.drain_cycles.sum()) + 1
        return CumulativeRate(realized, self.constraints.error_rate, horizon=horizon)

    def make_streams(self, seeds) -> RunStreams:
        """One independent counter-based fault stream per seed.

        Each run's stream identity is a pure function of ``(tag, seed)``
        (the domain-separation tag keeps batched streams disjoint from
        the behavioural injector streams), so a seed's record does *not*
        depend on which other seeds share its batch, block or shard:
        simulating seeds ``[3]`` and ``[0..9]`` produces the identical
        seed-3 row.  This composition invariance is what lets the
        warehouse resume partial campaigns as per-block deltas and the
        service split batched campaigns into shards without changing a
        single emitted number.
        """
        return SUBSTRATE.make_streams(seeds, _STREAM_TAG)

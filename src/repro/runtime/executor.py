"""Behavioural execution engine: runs a workload under a mitigation strategy.

The :class:`TaskExecutor` is where everything meets: it replays a
streaming application step by step on the behavioural platform, writes the
produced data into the vulnerable L1, exposes it to the fault injector,
drains it through the memory's ECC path (the paper's Fig. 2(a) read
check), and reacts to detected errors according to the mitigation
strategy — ignoring them (*Default*), relying on inline correction (*HW*),
restarting the task (*SW*), or servicing a Read Error Interrupt and
rolling back one chunk (*Hybrid*, Fig. 2(b)).

Steps are replayed from the task's fault-free :class:`TaskProfile`, not
re-executed.  A step is a pure function of (input, step, state), and in
this model a fault never reaches codec state: the state lives outside the
simulated memories (L1' buffers zeros for its region).  So a step re-run
after a rollback or restart writes and costs exactly what the profiled
step did.

It produces a :class:`~repro.soc.stats.SimulationStats` with the energy,
cycle, recovery and correctness figures that the Fig. 5 and timing
experiments aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..apps.base import AppCharacterization, StreamingApplication
from ..core.chunking import CheckpointSchedule, Phase
from ..core.config import DesignConstraints, PAPER_OPERATING_POINT
from ..core.strategies import MitigationStrategy, RecoveryPolicy
from ..ecc import DecodeResult, DecodeStatus
from ..faults.injector import ExposureWindow, FaultInjector
from ..faults.models import FaultModel
from ..scenarios.base import Scenario
from ..soc.energy import (
    CATEGORY_CHECKPOINT,
    CATEGORY_COMPUTE,
    CATEGORY_MEMORY_READ,
    CATEGORY_MEMORY_WRITE,
    CATEGORY_RECOVERY,
)
from ..soc.interrupt import READ_ERROR_INTERRUPT
from ..soc.platform import Platform
from ..soc.stats import SimulationStats
from . import profile_cache
from .isr import ReadErrorServiceRoutine
from .trace import EventKind, ExecutionTrace

#: Safety bound on consecutive rollbacks of the same phase.
MAX_ROLLBACK_ATTEMPTS = 6


class _TaskRestartRequested(Exception):
    """Internal control-flow signal of the SW-mitigation restart policy."""


@dataclass
class ExecutionResult:
    """Everything produced by one simulated task execution."""

    stats: SimulationStats
    output: list[int]
    golden: list[int]
    schedule: CheckpointSchedule
    trace: ExecutionTrace
    platform: Platform

    @property
    def output_matches_golden(self) -> bool:
        """True when the produced stream is bit-identical to the reference."""
        return self.output == self.golden


@dataclass
class TaskProfile:
    """Fault-free profile of the task collected before the real run."""

    step_words: list[int]
    step_cycles: list[int]
    step_reads: list[int]
    step_writes: list[int]
    golden: list[int]

    @property
    def total_words(self) -> int:
        return sum(self.step_words)

    @property
    def total_accesses(self) -> int:
        return sum(self.step_reads) + sum(self.step_writes) + 2 * self.total_words

    @property
    def baseline_cycles(self) -> int:
        """Expected cycles on the unprotected platform (1-cycle L1)."""
        return sum(self.step_cycles) + self.total_accesses

    @property
    def estimated_step_cycles(self) -> list[int]:
        """Per-step cycles (compute + L1 traffic) on the 1-cycle baseline.

        This timeline is what adaptive strategies align chunk sizes with;
        the batched engine shares it so both engines plan identical
        schedules from identical estimates.
        """
        return [
            cycles + reads + writes + 2 * words
            for cycles, reads, writes, words in zip(
                self.step_cycles, self.step_reads, self.step_writes, self.step_words
            )
        ]


def _profile_uncached(app: StreamingApplication, task_input) -> TaskProfile:
    state = app.initial_state(task_input)
    step_words, step_cycles, step_reads, step_writes = [], [], [], []
    golden: list[int] = []
    for index in range(app.num_steps(task_input)):
        result = app.run_step(task_input, index, state)
        step_words.append(len(result.output_words))
        step_cycles.append(result.cycles)
        step_reads.append(result.l1_reads)
        step_writes.append(result.l1_writes)
        golden.extend(result.output_words)
        state = result.state
    return TaskProfile(step_words, step_cycles, step_reads, step_writes, golden)


def profile_task(app: StreamingApplication, task_input) -> TaskProfile:
    """Run the task fault-free and collect its per-step cost profile.

    The single profiling path shared by the behavioural executor, the
    batched campaign engine (:mod:`repro.batch`) and the design-space
    optimizer, so their task skeletons cannot drift apart.  Results are
    memoized through the content-keyed
    :mod:`~repro.runtime.profile_cache` (one profile per (app, params,
    input) per process); a cache hit returns a bit-identical fresh copy,
    so cached and uncached runs are indistinguishable.
    """
    store = profile_cache.default_cache()
    key = store.key_for(app, task_input) if store.enabled else None
    if key is not None:
        payload = store.get(key)
        if payload is not None:
            return TaskProfile(**payload)
    profile = _profile_uncached(app, task_input)
    if key is not None:
        store.put(
            key,
            {
                "step_words": profile.step_words,
                "step_cycles": profile.step_cycles,
                "step_reads": profile.step_reads,
                "step_writes": profile.step_writes,
                "golden": profile.golden,
            },
        )
    return profile


def _characterize_profile(app: StreamingApplication, profile: TaskProfile) -> "AppCharacterization":
    """The static characterization of ``app`` summed from one task's profile."""
    return AppCharacterization(
        name=app.name,
        steps=len(profile.step_words),
        output_words=profile.total_words,
        compute_cycles=sum(profile.step_cycles),
        l1_reads=sum(profile.step_reads),
        l1_writes=sum(profile.step_writes),
        state_words=app.state_words(),
    )


def characterize_task(app: StreamingApplication, task_input) -> "AppCharacterization":
    """Static per-task characterization, derived from the cached profile.

    Numerically identical to :meth:`StreamingApplication.characterize`
    (the per-step sums commute), but routed through :func:`profile_task`
    so design-time consumers — the chunk-size optimizer, hybrid strategy
    sizing, the vectorized design engine — share one profiling run with
    the execution engines instead of re-walking the workload.
    """
    return _characterize_profile(app, profile_task(app, task_input))


def profile_app(app: StreamingApplication, seed: int = 0) -> TaskProfile:
    """Profile ``app`` on its seed-``seed`` generated input, memoized by seed.

    The one path from a seed to its profile: model builds and
    :func:`characterize_app` both read it.  A seed-keyed entry in the
    profile cache's derived tier holds the content key under which
    :func:`profile_task` stored the profile, so a warm call neither
    regenerates the input (for g721-decode most of a model build) nor
    pickles it for a key.  It answers through that same content-keyed
    entry, so a hit is a fresh copy, bit-identical to a recomputation.
    """
    store = profile_cache.default_cache()
    seed_key = store.key_for(app, ("profile-seed", seed)) if store.enabled else None
    if seed_key is not None:
        content_key = store.derived_get(seed_key)
        payload = store.get(content_key) if content_key is not None else None
        if payload is not None:
            return TaskProfile(**payload)
    task_input = app.generate_input(seed)
    profile = profile_task(app, task_input)
    content_key = store.key_for(app, task_input) if seed_key is not None else None
    if content_key is not None:
        store.derived_put(seed_key, content_key)
    return profile


def characterize_app(app: StreamingApplication, seed: int = 0) -> "AppCharacterization":
    """Characterize ``app`` on its seed-``seed`` generated input, memoized.

    Design-time consumers (optimizer, strategy sizing, the vectorized
    design engine) all characterize on ``app.generate_input(seed)``; this
    entry memoizes the *whole* step, keyed on the app's content and the
    seed, and on a miss sums the :func:`profile_app` profile, so it
    shares that input walk with the model builds.  The characterization
    is a frozen dataclass, so sharing the instance is safe.
    """
    store = profile_cache.default_cache()
    key = store.key_for(app, ("characterize-seed", seed)) if store.enabled else None
    if key is not None:
        hit = store.derived_get(key)
        if hit is not None:
            return hit
    characterization = _characterize_profile(app, profile_app(app, seed))
    if key is not None:
        store.derived_put(key, characterization)
    return characterization


class TaskExecutor:
    """Runs one application task under one mitigation strategy.

    Parameters
    ----------
    app:
        The streaming workload.
    strategy:
        Mitigation strategy deciding platform protection and recovery.
    constraints:
        Design constraints (error rate, overhead budgets, drain latency).
    seed:
        Seed controlling both the workload input and the fault stream.
    fault_model:
        Upset bit-pattern model; defaults to the SMU-dominated mixture.
    collect_trace:
        Whether to record a detailed :class:`ExecutionTrace`.
    scenario:
        Optional time-varying fault environment.  ``None`` keeps the
        paper's constant ``constraints.error_rate``; a
        :class:`~repro.scenarios.ConstantRate` at that same rate is
        bit-identical to ``None``.  The scenario also reaches the
        strategy's :meth:`~repro.core.strategies.MitigationStrategy.plan_schedule`
        hook, so adaptive strategies can shape checkpoint density to it.
    """

    def __init__(
        self,
        app: StreamingApplication,
        strategy: MitigationStrategy,
        constraints: DesignConstraints | None = None,
        seed: int = 0,
        fault_model: FaultModel | None = None,
        collect_trace: bool = False,
        scenario: Scenario | None = None,
    ) -> None:
        self.app = app
        self.strategy = strategy
        self.constraints = constraints if constraints is not None else PAPER_OPERATING_POINT
        self.seed = seed
        self.fault_model = fault_model
        self.collect_trace = collect_trace
        self.scenario = scenario

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self, task_input=None) -> ExecutionResult:
        """Execute the task once and return the full result.

        Without ``task_input`` the task is the app's seed-``seed`` input,
        replayed from its memoized profile (:func:`profile_app`), so a warm
        run generates no input.
        """
        if task_input is None:
            profile = profile_app(self.app, self.seed)
        else:
            profile = profile_task(self.app, task_input)
        if profile.total_words == 0:
            raise ValueError("the task produced no output words; nothing to protect")

        # Stochastic scenarios realize one concrete sample path per spec
        # seed; deterministic scenarios pass through unchanged.  The
        # realized path is shared by the planner and the injector, and is
        # the same path the batched engine derives from (spec, seed).
        scenario = (
            self.scenario.realize(self.seed) if self.scenario is not None else None
        )

        # Estimated per-step cycles (compute + L1 traffic) give adaptive
        # strategies a timeline to align chunk sizes with the scenario.
        schedule = self.strategy.plan_schedule(
            profile.step_words,
            profile.estimated_step_cycles,
            scenario=scenario,
            seed=self.seed,
        )

        state_words = self.app.state_words()
        platform = self.strategy.build_platform(
            required_buffer_words=schedule.max_phase_words + state_words
        )
        trace = ExecutionTrace(enabled=self.collect_trace)
        injector = FaultInjector(
            rate_per_word_cycle=self.constraints.error_rate,
            fault_model=self.fault_model,
            seed=self.seed + 1,
            scenario=scenario,
        )

        stats = SimulationStats(
            configuration=self.strategy.name,
            application=self.app.name,
            deadline_cycles=math.ceil(
                profile.baseline_cycles * (1.0 + self.constraints.cycle_overhead)
            ),
        )
        stats.useful_cycles = profile.baseline_cycles

        runner = _RunState(
            executor=self,
            profile=profile,
            schedule=schedule,
            platform=platform,
            injector=injector,
            stats=stats,
            trace=trace,
            state_words=state_words,
        )
        output = runner.execute()

        platform.finalize_leakage()
        stats.energy = platform.energy
        stats.total_cycles = platform.clock.cycles
        stats.upsets_injected = platform.l1.stats.upsets_injected
        stats.errors_corrected_inline = platform.l1.stats.errors_corrected

        mismatches = sum(1 for got, want in zip(output, profile.golden) if got != want)
        mismatches += abs(len(output) - len(profile.golden))
        stats.silent_corruptions = mismatches
        stats.output_correct = mismatches == 0
        trace.record(EventKind.TASK_END, platform.clock.cycles, detail=f"mismatches={mismatches}")

        return ExecutionResult(
            stats=stats,
            output=output,
            golden=profile.golden,
            schedule=schedule,
            trace=trace,
            platform=platform,
        )


class _RunState:
    """Mutable execution state of one task run (kept out of the public API)."""

    def __init__(
        self,
        executor: TaskExecutor,
        profile: TaskProfile,
        schedule: CheckpointSchedule,
        platform: Platform,
        injector: FaultInjector,
        stats: SimulationStats,
        trace: ExecutionTrace,
        state_words: int,
    ) -> None:
        self.strategy = executor.strategy
        self.constraints = executor.constraints
        self.profile = profile
        self.schedule = schedule
        self.platform = platform
        self.injector = injector
        self.stats = stats
        self.trace = trace
        self.state_words = state_words
        self.l1 = platform.l1
        self.l1p = platform.l1p
        self.cpu = platform.processor
        self._isr: ReadErrorServiceRoutine | None = None
        if self.strategy.recovery == RecoveryPolicy.ROLLBACK:
            if self.l1p is None:
                raise ValueError("rollback recovery requires a protected buffer L1'")
            self._isr = ReadErrorServiceRoutine(
                protected_buffer=self.l1p,
                processor_spec=self.cpu.spec,
                state_words=self.state_words + self.cpu.spec.status_register_words,
                state_base=0,
            )
            platform.interrupts.register(READ_ERROR_INTERRUPT, self._isr)
        #: word index inside L1' where buffered chunk data begins (the
        #: state/status region occupies the words below it).
        self._chunk_base = self.state_words + self.cpu.spec.status_register_words

    # ------------------------------------------------------------------ #
    # Top-level control: task restarts (SW policy) wrap the phase loop
    # ------------------------------------------------------------------ #
    def execute(self) -> list[int]:
        max_restarts = getattr(self.strategy, "max_restarts", 1)
        while True:
            try:
                return self._execute_phases()
            except _TaskRestartRequested:
                self.stats.task_restarts += 1
                self.trace.record(
                    EventKind.TASK_RESTART,
                    self.platform.clock.cycles,
                    detail=f"restart #{self.stats.task_restarts}",
                )
                if self.stats.task_restarts >= max_restarts:
                    # Give up: one final best-effort pass whose errors are
                    # accepted, so the run terminates and reports the
                    # corruption honestly.
                    return self._execute_phases(accept_errors=True)

    # ------------------------------------------------------------------ #
    def _execute_phases(self, accept_errors: bool = False) -> list[int]:
        output: list[int] = []
        first_pass = self.stats.task_restarts == 0

        for phase in self.schedule.phases:
            attempts = 0
            while True:
                category = (
                    CATEGORY_COMPUTE if attempts == 0 and first_pass else CATEGORY_RECOVERY
                )
                start_cycle = self.platform.clock.cycles
                self.trace.record(EventKind.PHASE_START, start_cycle, phase.index)
                phase_words, base_address = self._run_phase_steps(
                    phase, len(output), category
                )
                phase_cycles = self.platform.clock.cycles - start_cycle
                self._inject_phase_faults(phase, base_address, phase_words, phase_cycles)

                drained, had_uncorrectable, corrected = self._drain_chunk(
                    base_address, phase_words, category
                )
                attempt_cycles = self.platform.clock.cycles - start_cycle
                if attempts == 0 and first_pass:
                    pass  # first-pass work is the useful baseline
                else:
                    self.stats.recovery_cycles += attempt_cycles

                if had_uncorrectable and not accept_errors:
                    self.stats.errors_detected += 1
                    self.trace.record(
                        EventKind.ERROR_DETECTED, self.platform.clock.cycles, phase.index
                    )
                    recovery = self.strategy.recovery
                    if recovery == RecoveryPolicy.RESTART:
                        raise _TaskRestartRequested()
                    if recovery == RecoveryPolicy.ROLLBACK and attempts < MAX_ROLLBACK_ATTEMPTS:
                        self._service_read_error(phase)
                        attempts += 1
                        continue
                    # Default / inline policies (or rollback giving up)
                    # consume the corrupted data.
                    self.trace.record(
                        EventKind.SILENT_CORRUPTION, self.platform.clock.cycles, phase.index
                    )
                elif corrected:
                    self.trace.record(
                        EventKind.ERROR_CORRECTED_INLINE,
                        self.platform.clock.cycles,
                        phase.index,
                        detail=f"corrected={corrected}",
                    )

                if self.strategy.uses_checkpoints:
                    self._commit_checkpoint(phase, drained)
                output.extend(drained)
                self.trace.record(EventKind.PHASE_END, self.platform.clock.cycles, phase.index)
                break
        return output

    # ------------------------------------------------------------------ #
    # Phase execution
    # ------------------------------------------------------------------ #
    def _run_phase_steps(
        self, phase: Phase, words_before: int, category: str
    ) -> tuple[int, int]:
        """Replay the steps of one phase from the profile, writing output into L1.

        Each step charges its profiled compute cycles and L1 traffic, then
        writes its slice of the golden stream; the phase's words start at
        ``words_before``, the output committed so far.  Returns the number
        of words written and the L1 address of the first.
        """
        profile = self.profile
        base_address = words_before % self.l1.capacity_words
        written = 0
        for step_index in range(phase.first_step, phase.last_step + 1):
            self.cpu.execute(profile.step_cycles[step_index], category=category)
            self._charge_abstract_l1_traffic(
                profile.step_reads[step_index], profile.step_writes[step_index]
            )
            for _ in range(profile.step_words[step_index]):
                address = (base_address + written) % self.l1.capacity_words
                self.l1.write_word(address, profile.golden[words_before + written])
                self.cpu.stall(self.l1.access_cycles)
                written += 1
        return written, base_address

    def _charge_abstract_l1_traffic(self, reads: int, writes: int) -> None:
        """Charge energy and stall cycles for the step's internal L1 traffic."""
        if reads:
            self.platform.energy.charge(
                self.l1.name, CATEGORY_MEMORY_READ, reads * self.l1.read_energy_pj
            )
        if writes:
            self.platform.energy.charge(
                self.l1.name, CATEGORY_MEMORY_WRITE, writes * self.l1.write_energy_pj
            )
        total = reads + writes
        if total:
            self.cpu.stall(total * self.l1.access_cycles)

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def _inject_phase_faults(
        self, phase: Phase, base_address: int, live_words: int, phase_cycles: int
    ) -> None:
        """Expose the phase's live chunk to upsets and apply them to L1."""
        if live_words == 0:
            return
        if self.injector.scenario is None and self.constraints.error_rate == 0:
            return
        live_cycles = min(phase_cycles, self.constraints.drain_latency_cycles)
        window = ExposureWindow(live_words=live_words, cycles=live_cycles)
        # The chunk sits exposed in L1 over the *last* live_cycles before
        # the drain that is about to happen — sample the scenario rate
        # over that interval, not the cycles after it.  (For a constant
        # rate the window position only relabels event cycles; counts,
        # draws and therefore all statistics are unchanged.)
        exposure_start = self.platform.clock.cycles - live_cycles
        events = self.injector.sample_events(
            window, word_bits=self.l1.code.codeword_bits, start_cycle=exposure_start
        )
        for event in events:
            address = (base_address + event.word_index) % self.l1.capacity_words
            mapped = type(event)(
                word_index=address, bit_positions=event.bit_positions, cycle=event.cycle
            )
            landed = self.l1.inject(mapped)
            self.trace.record(
                EventKind.FAULT_INJECTED,
                event.cycle,
                phase.index,
                detail=f"addr={address} bits={len(event.bit_positions)} live={landed}",
            )

    # ------------------------------------------------------------------ #
    # Drain / commit / recovery
    # ------------------------------------------------------------------ #
    def _drain_chunk(
        self, base_address: int, count: int, category: str
    ) -> tuple[list[int], bool, int]:
        """Stream the chunk out of L1 through its ECC path (Fig. 2(a) check)."""
        drained: list[int] = []
        had_uncorrectable = False
        corrected = 0
        for offset in range(count):
            address = (base_address + offset) % self.l1.capacity_words
            result: DecodeResult = self.l1.read_word(address)
            self.cpu.stall(self.l1.access_cycles)
            drained.append(result.data)
            if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                had_uncorrectable = True
            elif result.status is DecodeStatus.CORRECTED:
                corrected += 1
        return drained, had_uncorrectable, corrected

    def _commit_checkpoint(self, phase: Phase, chunk: list[int]) -> None:
        """Buffer the chunk and the status registers into L1' (checkpoint commit)."""
        if self.l1p is None:
            return
        start = self.platform.clock.cycles
        # Save the architectural status registers plus the codec state.
        self.cpu.execute(self.cpu.spec.context_save_cycles, category=CATEGORY_CHECKPOINT)
        state_region = self.state_words + self.cpu.spec.status_register_words
        for offset in range(state_region):
            self.l1p.write_word(offset, 0)
            self.cpu.stall(self.l1p.access_cycles)
        # Buffer the (error-free) data chunk.
        for offset, word in enumerate(chunk):
            self.l1p.write_word(self._chunk_base + offset, word)
            self.cpu.stall(self.l1p.access_cycles)
        self.stats.checkpoint_cycles += self.platform.clock.cycles - start
        self.stats.checkpoints_committed += 1
        self.trace.record(
            EventKind.CHECKPOINT_COMMIT,
            self.platform.clock.cycles,
            phase.index,
            detail=f"words={len(chunk)}",
        )

    def _service_read_error(self, phase: Phase) -> None:
        """Raise the Read Error Interrupt and account the rollback."""
        start = self.platform.clock.cycles
        self.platform.interrupts.raise_interrupt(READ_ERROR_INTERRUPT, payload=phase.index)
        self.stats.rollbacks += 1
        self.stats.recovery_cycles += self.platform.clock.cycles - start
        self.trace.record(EventKind.ROLLBACK, self.platform.clock.cycles, phase.index)


def run_task(
    app: StreamingApplication,
    strategy: MitigationStrategy,
    constraints: DesignConstraints | None = None,
    seed: int = 0,
    fault_model: FaultModel | None = None,
    collect_trace: bool = False,
    scenario: Scenario | None = None,
) -> ExecutionResult:
    """Convenience wrapper: build a :class:`TaskExecutor` and run it once."""
    executor = TaskExecutor(
        app,
        strategy,
        constraints=constraints,
        seed=seed,
        fault_model=fault_model,
        collect_trace=collect_trace,
        scenario=scenario,
    )
    return executor.run()

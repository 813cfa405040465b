"""Tests for the behavioural execution engine under every recovery policy."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import PAPER_OPERATING_POINT
from repro.core.strategies import (
    DefaultStrategy,
    HwMitigationStrategy,
    HybridStrategy,
    SwMitigationStrategy,
)
from repro.runtime import EventKind, TaskExecutor, run_task


@pytest.fixture
def fault_free() -> object:
    """Constraints with a zero error rate: executions must be transparent."""
    return PAPER_OPERATING_POINT.with_overrides(error_rate=1e-30)


class TestFaultFreeExecution:
    @pytest.mark.parametrize(
        "strategy_factory",
        [
            DefaultStrategy,
            SwMitigationStrategy,
            HwMitigationStrategy,
            lambda constraints=None: HybridStrategy(8, constraints),
        ],
    )
    def test_output_matches_golden_without_faults(
        self, small_adpcm_encode, fault_free, strategy_factory
    ):
        result = run_task(small_adpcm_encode, strategy_factory(), constraints=fault_free, seed=0)
        assert result.output == result.golden
        assert result.stats.fully_mitigated
        assert result.stats.rollbacks == 0
        assert result.stats.task_restarts == 0

    def test_energy_and_cycles_are_positive_and_consistent(self, small_adpcm_encode, fault_free):
        result = run_task(small_adpcm_encode, DefaultStrategy(), constraints=fault_free, seed=0)
        stats = result.stats
        assert stats.total_cycles > 0
        assert stats.total_energy_pj > 0
        assert stats.total_cycles >= stats.useful_cycles * 0.95
        assert stats.deadline_met

    def test_hybrid_commits_one_checkpoint_per_phase(self, small_adpcm_encode, fault_free):
        result = run_task(
            small_adpcm_encode, HybridStrategy(8), constraints=fault_free, seed=0
        )
        assert result.stats.checkpoints_committed == result.schedule.num_checkpoints
        assert result.stats.checkpoint_cycles > 0

    def test_hybrid_costs_more_than_default_but_not_much(self, small_adpcm_encode, fault_free):
        base = run_task(small_adpcm_encode, DefaultStrategy(), constraints=fault_free, seed=0)
        hybrid = run_task(small_adpcm_encode, HybridStrategy(8), constraints=fault_free, seed=0)
        ratio = hybrid.stats.total_energy_pj / base.stats.total_energy_pj
        assert 1.0 < ratio < 1.3

    def test_hw_mitigation_is_expensive(self, small_adpcm_encode, fault_free):
        base = run_task(small_adpcm_encode, DefaultStrategy(), constraints=fault_free, seed=0)
        hw = run_task(small_adpcm_encode, HwMitigationStrategy(), constraints=fault_free, seed=0)
        assert hw.stats.total_energy_pj > 1.5 * base.stats.total_energy_pj
        assert hw.stats.total_cycles > base.stats.total_cycles


class TestFaultyExecution:
    """Elevated error rates force every recovery path to actually trigger."""

    def test_default_strategy_silently_corrupts(self, small_adpcm_encode, stress_constraints):
        corrupted_runs = 0
        for seed in range(6):
            result = run_task(
                small_adpcm_encode, DefaultStrategy(), constraints=stress_constraints, seed=seed
            )
            if result.stats.silent_corruptions:
                corrupted_runs += 1
                assert not result.stats.output_correct
                assert result.stats.errors_detected == 0
        assert corrupted_runs > 0

    def test_hybrid_strategy_fully_mitigates(self, small_adpcm_encode, stress_constraints):
        rollbacks = 0
        for seed in range(6):
            result = run_task(
                small_adpcm_encode,
                HybridStrategy(8),
                constraints=stress_constraints,
                seed=seed,
            )
            assert result.stats.fully_mitigated, f"seed {seed} corrupted the output"
            rollbacks += result.stats.rollbacks
        assert rollbacks > 0  # the mechanism was actually exercised

    def test_hw_strategy_corrects_inline(self, small_adpcm_encode, stress_constraints):
        corrected = 0
        for seed in range(6):
            result = run_task(
                small_adpcm_encode,
                HwMitigationStrategy(),
                constraints=stress_constraints,
                seed=seed,
            )
            assert result.stats.fully_mitigated
            assert result.stats.rollbacks == 0
            corrected += result.stats.errors_corrected_inline
        assert corrected > 0

    def test_sw_strategy_restarts_the_task(self, small_adpcm_encode):
        # A moderate rate: restarts happen but converge within the cap.
        constraints = PAPER_OPERATING_POINT.with_overrides(error_rate=1.2e-5)
        restarts = 0
        mitigated = 0
        for seed in range(8):
            result = run_task(
                small_adpcm_encode,
                SwMitigationStrategy(),
                constraints=constraints,
                seed=seed,
            )
            restarts += result.stats.task_restarts
            mitigated += result.stats.fully_mitigated
        assert restarts > 0
        assert mitigated >= 6  # restarts recover correctness in almost every run

    def test_rollback_energy_is_much_cheaper_than_restart(self, small_g721_decode):
        constraints = PAPER_OPERATING_POINT.with_overrides(error_rate=1.5e-5)
        hybrid_total, sw_total, base_total = 0.0, 0.0, 0.0
        for seed in range(4):
            base = run_task(
                small_g721_decode, DefaultStrategy(), constraints=constraints, seed=seed
            )
            hybrid = run_task(
                small_g721_decode, HybridStrategy(8), constraints=constraints, seed=seed
            )
            sw = run_task(
                small_g721_decode, SwMitigationStrategy(), constraints=constraints, seed=seed
            )
            base_total += base.stats.total_energy_pj
            hybrid_total += hybrid.stats.total_energy_pj
            sw_total += sw.stats.total_energy_pj
        assert hybrid_total < sw_total
        assert hybrid_total < 1.6 * base_total


class TestTraceAndBookkeeping:
    def test_trace_records_phases_and_checkpoints(self, small_adpcm_encode, stress_constraints):
        executor = TaskExecutor(
            small_adpcm_encode,
            HybridStrategy(8),
            constraints=stress_constraints,
            seed=1,
            collect_trace=True,
        )
        result = executor.run()
        trace = result.trace
        assert trace.count(EventKind.PHASE_START) >= result.schedule.num_checkpoints
        assert trace.count(EventKind.CHECKPOINT_COMMIT) == result.stats.checkpoints_committed
        assert trace.count(EventKind.TASK_END) == 1
        if result.stats.rollbacks:
            assert trace.count(EventKind.ROLLBACK) == result.stats.rollbacks
            assert trace.phases_rolled_back()

    def test_trace_disabled_by_default(self, small_adpcm_encode, fault_free):
        result = run_task(small_adpcm_encode, DefaultStrategy(), constraints=fault_free, seed=0)
        assert result.trace.events == []

    def test_run_accepts_precomputed_input(self, small_adpcm_encode, fault_free):
        task_input = small_adpcm_encode.generate_input(3)
        executor = TaskExecutor(small_adpcm_encode, DefaultStrategy(), constraints=fault_free)
        result = executor.run(task_input)
        assert result.golden == small_adpcm_encode.golden_output(task_input)

    def test_stats_identify_configuration_and_application(self, small_adpcm_encode, fault_free):
        result = run_task(small_adpcm_encode, HybridStrategy(8), constraints=fault_free, seed=0)
        assert result.stats.configuration == "hybrid-optimal"
        assert result.stats.application == "adpcm-encode"


class TestRunTaskFaultModelForwarding:
    def test_run_task_forwards_fault_model(self, small_adpcm_encode, stress_constraints):
        from repro.core.strategies import DefaultStrategy
        from repro.faults.models import SingleBitUpset

        class RecordingModel(SingleBitUpset):
            """Counts pattern draws so forwarding is observable."""

            def __init__(self):
                self.calls = 0

            def sample_pattern(self, word_bits, rng):
                self.calls += 1
                return super().sample_pattern(word_bits, rng)

        model = RecordingModel()
        result = run_task(
            small_adpcm_encode,
            DefaultStrategy(stress_constraints),
            constraints=stress_constraints,
            seed=5,
            fault_model=model,
        )
        assert result.stats.upsets_injected > 0
        # The wrapper must hand the model to the injector; if the argument
        # were dropped the default SMU mixture would be used instead and no
        # pattern would ever be drawn from ours.
        assert model.calls == result.stats.upsets_injected


def spying(app):
    """A copy of ``app`` that counts the calls which generate or execute its task.

    The counts live outside the instance, so the copy's profile-cache key
    (its class name and ``__dict__``) stays the same while they change.
    """
    calls: Counter = Counter()

    class Spy(type(app)):
        def generate_input(self, seed=0):
            calls["generate_input"] += 1
            return super().generate_input(seed)

        def initial_state(self, task_input):
            calls["initial_state"] += 1
            return super().initial_state(task_input)

        def run_step(self, task_input, step_index, state):
            calls["run_step"] += 1
            return super().run_step(task_input, step_index, state)

    spy = Spy.__new__(Spy)
    spy.__dict__.update(vars(app))
    return spy, calls


def _row(result) -> tuple:
    """Everything a run reports: its stats, energy ledger and output stream."""
    return result.stats.as_dict(), result.stats.energy.breakdown(), result.output


#: One strategy per recovery path: rollback, restart, inline correction.
RECOVERING_STRATEGIES = {
    "hybrid": lambda: HybridStrategy(8),
    "sw": SwMitigationStrategy,
    "hw": HwMitigationStrategy,
}


class TestReplayFromProfile:
    """A run replays its task from the fault-free profile, exactly."""

    @pytest.mark.parametrize("strategy", sorted(RECOVERING_STRATEGIES))
    def test_warm_run_generates_and_executes_nothing(
        self, small_adpcm_encode, stress_constraints, strategy
    ):
        spy, calls = spying(small_adpcm_encode)
        events = 0
        for seed in range(3):
            executor = TaskExecutor(
                spy,
                RECOVERING_STRATEGIES[strategy](),
                constraints=stress_constraints,
                seed=seed,
            )
            cold = executor.run()
            assert calls["run_step"] > 0  # the first run profiled the seed
            calls.clear()
            warm = executor.run()
            assert calls == Counter()
            assert _row(warm) == _row(cold)
            events += warm.stats.rollbacks + warm.stats.task_restarts
            events += warm.stats.errors_corrected_inline
        assert events > 0  # recovery actually replayed steps

    @pytest.mark.parametrize("strategy", sorted(RECOVERING_STRATEGIES))
    def test_row_is_the_same_under_any_cache_state(
        self, small_adpcm_encode, stress_constraints, strategy, monkeypatch
    ):
        def row(seed, task_input=None):
            executor = TaskExecutor(
                small_adpcm_encode,
                RECOVERING_STRATEGIES[strategy](),
                constraints=stress_constraints,
                seed=seed,
            )
            return _row(executor.run(task_input))

        seeds = range(3)
        cold = [row(seed) for seed in seeds]
        warm = [row(seed) for seed in seeds]
        given = [row(seed, small_adpcm_encode.generate_input(seed)) for seed in seeds]
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        uncached = [row(seed) for seed in seeds]
        assert warm == cold == given == uncached


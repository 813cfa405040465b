"""Unit tests of the batch campaign model: cost fidelity and sampling.

The headline property: a fault-free batched run reproduces the
behavioural executor's cycle accounting **bit for bit** and its energy
totals to floating-point accumulation order, for every mitigation
strategy.  This is what makes the statistical-equivalence tests of
``test_equivalence.py`` meaningful — any drift there is attributable to
the fault dynamics, not to the cost model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchTaskModel, CumulativeRate, classify_outcomes
from repro.batch.substrate import SUBSTRATE
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.strategies import (
    DefaultStrategy,
    HwMitigationStrategy,
    HybridStrategy,
    SwMitigationStrategy,
)
from repro.ecc import NoCode
from repro.ecc.interleaved import InterleavedParityCode, InterleavedSecDedCode
from repro.faults.models import MixedUpset, MultiBitUpset, SingleBitUpset, default_smu_model
from repro.runtime.executor import run_task
from repro.scenarios.base import BurstScenario, ConstantRate, RampScenario

ZERO_RATE = PAPER_OPERATING_POINT.with_overrides(error_rate=0.0)


def _strategies(app, constraints):
    return [
        DefaultStrategy(constraints),
        SwMitigationStrategy(constraints),
        HwMitigationStrategy(constraints),
        HybridStrategy(64, constraints, extra_buffer_words=app.state_words()),
    ]


class TestFaultFreeExactness:
    """Zero-rate batched runs must match the behavioural engine exactly."""

    @pytest.mark.parametrize("strategy_index", range(4))
    def test_adpcm_all_strategies(self, small_adpcm_encode, strategy_index):
        app = small_adpcm_encode
        strategy = _strategies(app, ZERO_RATE)[strategy_index]
        behavioural = run_task(app, strategy, constraints=ZERO_RATE, seed=0).stats
        model = BatchTaskModel(app, strategy, constraints=ZERO_RATE, profile_seed=0)
        record = model.simulate([0])[0]

        assert record["total_cycles"] == behavioural.total_cycles
        assert record["useful_cycles"] == behavioural.useful_cycles
        assert record["checkpoint_cycles"] == behavioural.checkpoint_cycles
        assert record["recovery_cycles"] == behavioural.recovery_cycles == 0
        assert record["energy_pj"] == pytest.approx(
            behavioural.total_energy_pj, rel=1e-9
        )
        assert record["checkpoints_committed"] == behavioural.checkpoints_committed
        assert record["upsets_injected"] == 0
        assert record["output_correct"] == 1.0
        assert record["deadline_met"] == (1.0 if behavioural.deadline_met else 0.0)

    def test_jpeg_hybrid(self, small_jpeg_decode):
        app = small_jpeg_decode
        strategy = HybridStrategy(64, ZERO_RATE, extra_buffer_words=app.state_words())
        behavioural = run_task(app, strategy, constraints=ZERO_RATE, seed=0).stats
        record = BatchTaskModel(
            app, strategy, constraints=ZERO_RATE, profile_seed=0
        ).simulate([0])[0]
        assert record["total_cycles"] == behavioural.total_cycles
        assert record["energy_pj"] == pytest.approx(behavioural.total_energy_pj, rel=1e-9)

    def test_records_carry_behavioural_keys(self, small_adpcm_encode):
        from repro.api.executors import execute_spec
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec(app=small_adpcm_encode, strategy="default")
        behavioural_record = execute_spec(spec).record
        batched_record = BatchTaskModel(
            small_adpcm_encode, DefaultStrategy(PAPER_OPERATING_POINT)
        ).simulate([0], scenario_label="paper-constant")[0]
        assert set(batched_record) == set(behavioural_record)


class TestCumulativeRate:
    def test_constant_closed_form(self):
        rate = CumulativeRate(None, 1e-6)
        np.testing.assert_allclose(
            rate.integral([0, 500], [1000, 1500]), [1e-3, 1e-3]
        )

    def test_constant_scenario_degenerates(self):
        rate = CumulativeRate(ConstantRate(2e-6), 1e-6)
        assert rate.scenario is None
        np.testing.assert_allclose(rate.integral(0, 1000), 2e-3)

    def test_burst_matches_segmentwise_expectation(self):
        scenario = BurstScenario(
            quiescent_rate=1e-7, burst_rate=5e-6, period=10_000, burst_cycles=1_000
        )
        rate = CumulativeRate(scenario, 1e-6, horizon=100)
        for start, cycles in [(0, 500), (500, 2_000), (9_500, 1_200), (0, 35_000)]:
            expected = sum(
                seg.rate * seg.cycles for seg in scenario.segments(start, cycles)
            )
            assert rate.integral([start], [start + cycles])[0] == pytest.approx(expected)

    def test_horizon_extends_on_demand(self):
        scenario = RampScenario(1e-7, 1e-5, duration=10_000, steps=8)
        rate = CumulativeRate(scenario, 1e-6, horizon=100)
        far = rate.integral([50_000], [60_000])[0]
        assert far == pytest.approx(1e-5 * 10_000)

    def test_reversed_window_is_rejected(self):
        # A reversed window would silently emit a negative expectation on
        # the constant closed form (and garbage on the interpolated path).
        rate = CumulativeRate(None, 1e-6)
        with pytest.raises(ValueError, match="reversed"):
            rate.integral([1000], [500])
        scenario_rate = CumulativeRate(
            BurstScenario(
                quiescent_rate=1e-7, burst_rate=5e-6, period=10_000, burst_cycles=1_000
            ),
            1e-6,
        )
        with pytest.raises(ValueError, match="reversed"):
            scenario_rate.integral([0, 600], [1000, 500])
        # Degenerate (empty) windows are fine and integrate to zero.
        assert rate.integral([500], [500])[0] == 0.0


class TestOutcomeClassification:
    def test_nocode_is_always_silent(self):
        probs = classify_outcomes(NoCode(32), default_smu_model())
        assert probs.silent == 1.0

    def test_interleaved_parity_detects_all_clusters(self):
        probs = classify_outcomes(InterleavedParityCode(32, ways=4), default_smu_model())
        assert probs.detected == 1.0

    def test_interleaved_secded_corrects_all_clusters(self):
        probs = classify_outcomes(InterleavedSecDedCode(32, ways=8), default_smu_model())
        assert probs.corrected == 1.0

    def test_weak_interleaving_leaks_wide_clusters(self):
        # 2-way interleaved SECDED sees 2 flips per lane for width-4
        # clusters: detected-uncorrectable, not corrected.
        wide = MultiBitUpset(min_width=4, max_width=4)
        probs = classify_outcomes(InterleavedSecDedCode(32, ways=2), wide)
        assert probs.detected == 1.0
        narrow = SingleBitUpset()
        probs = classify_outcomes(InterleavedSecDedCode(32, ways=2), narrow)
        assert probs.corrected == 1.0

    def test_mixture_blends_constituents(self):
        code = InterleavedParityCode(32, ways=2)
        mixed = MixedUpset(smu_fraction=0.5, smu=MultiBitUpset(min_width=2, max_width=2))
        probs = classify_outcomes(code, mixed)
        # Single-bit flips are always detected by parity; width-2 clusters
        # land one flip in each of the two lanes — also detected.
        assert probs.detected == 1.0


class TestDistinctWords:
    def test_zero_upsets_strike_nothing(self):
        sub = SUBSTRATE
        streams = sub.make_streams(np.arange(4), tag=0)
        assert sub.distinct_words(streams, np.zeros(4, dtype=np.int64), 64).sum() == 0

    def test_mean_matches_occupancy_formula(self):
        sub = SUBSTRATE
        streams = sub.make_streams(np.arange(20_000), tag=1)
        counts = np.full(20_000, 8, dtype=np.int64)
        words = 16
        distinct = sub.distinct_words(streams, counts, words)
        expected = words * (1.0 - (1.0 - 1.0 / words) ** 8)
        assert distinct.mean() == pytest.approx(expected, rel=0.02)
        assert distinct.max() <= min(8, words)

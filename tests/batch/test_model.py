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

from repro.batch import BatchTaskModel, CumulativeRate, classify_outcomes, outcome_mixture
from repro.batch.engine import iter_column_blocks, records_from_columns
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


def _solo_record(model: BatchTaskModel) -> dict:
    """The batched record of seed 0."""
    (block,) = iter_column_blocks(model, [0])
    (record,) = records_from_columns(block)
    return record


class TestFaultFreeExactness:
    """Zero-rate batched runs must match the behavioural engine exactly."""

    @pytest.mark.parametrize("strategy_index", range(4))
    def test_adpcm_all_strategies(self, small_adpcm_encode, strategy_index):
        app = small_adpcm_encode
        strategy = _strategies(app, ZERO_RATE)[strategy_index]
        behavioural = run_task(app, strategy, constraints=ZERO_RATE, seed=0).stats
        model = BatchTaskModel(app, strategy, constraints=ZERO_RATE, profile_seed=0)
        record = _solo_record(model)

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
        record = _solo_record(
            BatchTaskModel(app, strategy, constraints=ZERO_RATE, profile_seed=0)
        )
        assert record["total_cycles"] == behavioural.total_cycles
        assert record["energy_pj"] == pytest.approx(behavioural.total_energy_pj, rel=1e-9)

    def test_records_carry_behavioural_keys(self, small_adpcm_encode):
        from repro.api.executors import execute_spec
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec(app=small_adpcm_encode, strategy="default")
        behavioural_record = execute_spec(spec).record
        batched_record = _solo_record(
            BatchTaskModel(small_adpcm_encode, DefaultStrategy(PAPER_OPERATING_POINT))
        )
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


#: Every (code, fault model) pair of TestOutcomeClassification, as factories
#: so each lookup sees fresh instances.
_PAIRS = (
    (lambda: NoCode(32), default_smu_model),
    (lambda: InterleavedParityCode(32, ways=4), default_smu_model),
    (lambda: InterleavedSecDedCode(32, ways=8), default_smu_model),
    (lambda: InterleavedSecDedCode(32, ways=2), lambda: MultiBitUpset(min_width=4, max_width=4)),
    (lambda: InterleavedSecDedCode(32, ways=2), SingleBitUpset),
    (
        lambda: InterleavedParityCode(32, ways=2),
        lambda: MixedUpset(smu_fraction=0.5, smu=MultiBitUpset(min_width=2, max_width=2)),
    ),
)


@pytest.fixture
def classified(monkeypatch):
    """Counts the ``classify_outcomes`` calls the memo makes."""
    import repro.batch.model as model_module

    calls = []

    def counting(code, fault_model):
        calls.append((code, fault_model))
        return classify_outcomes(code, fault_model)

    monkeypatch.setattr(model_module, "classify_outcomes", counting)
    return calls


class TestOutcomeMixtureMemo:
    """``outcome_mixture`` keys its memo on the code's and fault model's identity."""

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_memo_equals_reference_in_either_lookup_order(self, order):
        from repro.runtime.profile_cache import default_cache

        pairs = _PAIRS[::order]
        for make_code, make_model in pairs:
            memo = outcome_mixture(make_code(), make_model())
            assert memo == classify_outcomes(make_code(), make_model())
        assert len(default_cache()._derived) == len(_PAIRS)
        for make_code, make_model in pairs:  # served from the memo now
            assert outcome_mixture(make_code(), make_model()) == classify_outcomes(
                make_code(), make_model()
            )

    def test_interleaving_ways_and_fault_shapes_get_their_own_entries(self, classified):
        wide = MultiBitUpset(min_width=4, max_width=4)
        two_way = outcome_mixture(InterleavedSecDedCode(32, ways=2), wide)
        eight_way = outcome_mixture(InterleavedSecDedCode(32, ways=8), wide)
        single = outcome_mixture(InterleavedSecDedCode(32, ways=2), SingleBitUpset())
        assert len(classified) == 3
        assert two_way.detected == 1.0
        assert eight_way.corrected == 1.0
        assert single.corrected == 1.0

    def test_equal_instances_share_one_entry(self, classified):
        code = InterleavedSecDedCode(32, ways=2)
        code.encode(0x1234)  # lookup tables land in the instance dict
        first = outcome_mixture(code, SingleBitUpset())
        second = outcome_mixture(InterleavedSecDedCode(32, ways=2), SingleBitUpset())
        assert second == first
        assert len(classified) == 1

    def test_changed_fault_model_field_gets_a_fresh_mixture(self, classified):
        code = InterleavedSecDedCode(32, ways=2)
        cluster = MultiBitUpset(min_width=4, max_width=4)
        assert outcome_mixture(code, cluster).detected == 1.0
        cluster.min_width = cluster.max_width = 1
        fresh = outcome_mixture(code, cluster)
        assert len(classified) == 2
        assert fresh == classify_outcomes(code, cluster)
        assert fresh.corrected == 1.0

    def test_no_cache_and_clear_recompute_identical_numbers(self, classified, monkeypatch):
        from repro.runtime.profile_cache import ENV_NO_CACHE, default_cache

        code, fault_model = InterleavedSecDedCode(32, ways=8), default_smu_model()
        cached = outcome_mixture(code, fault_model)
        default_cache().clear()
        assert outcome_mixture(code, fault_model) == cached
        assert len(classified) == 2
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        assert outcome_mixture(code, fault_model) == cached
        assert outcome_mixture(code, fault_model) == cached
        assert len(classified) == 4

    def test_second_model_build_skips_seed_independent_design_steps(
        self, classified, monkeypatch
    ):
        from repro.api.executors import _build_batch_model
        from repro.api.spec import ExperimentSpec
        from repro.core.optimizer import ChunkSizeOptimizer

        optimized = []
        scalar = ChunkSizeOptimizer.optimize_characterization

        def counting(self, characterization):
            optimized.append(characterization)
            return scalar(self, characterization)

        monkeypatch.setattr(ChunkSizeOptimizer, "optimize_characterization", counting)
        spec = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal", engine="batched")
        first = _build_batch_model(spec)
        assert len(classified) == 1
        del classified[:]
        second = _build_batch_model(spec)
        assert classified == []
        assert optimized == []
        assert second.outcomes == first.outcomes
        assert second.layout.schedule == first.layout.schedule


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

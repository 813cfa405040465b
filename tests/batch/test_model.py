"""Unit tests of the batch campaign model: cost fidelity and sampling.

The headline property: a fault-free batched run reproduces the
behavioural executor's cycle accounting **bit for bit** and its energy
totals to floating-point accumulation order, for every mitigation
strategy.  This is what makes the statistical-equivalence tests of
``test_equivalence.py`` meaningful — any drift there is attributable to
the fault dynamics, not to the cost model.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import PAPER_BENCHMARK_ORDER, get_application
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
from repro.ecc.base import DecodeStatus
from repro.ecc.interleaved import (
    InterleavedHammingCode,
    InterleavedParityCode,
    InterleavedSecDedCode,
)
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
        model = BatchTaskModel(app, strategy, constraints=ZERO_RATE)
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
        record = _solo_record(BatchTaskModel(app, strategy, constraints=ZERO_RATE))
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


#: Draws the Monte-Carlo reference below takes per mixture.
_MC_SAMPLES = 4096


def _monte_carlo_outcomes(code, fault_model) -> np.ndarray:
    """Sampled (corrected, detected, silent, benign) frequencies of single upsets.

    The fixed-seed sampling loop ``classify_outcomes`` used before it
    enumerated the pattern law; kept as an independent reference.
    """
    rng = np.random.default_rng(0x0DDC0DE)
    data_words = (0, code.data_mask, 0x5A5A5A5A & code.data_mask)
    cache: dict[tuple[int, ...], np.ndarray] = {}
    totals = np.zeros(4)
    for _ in range(_MC_SAMPLES):
        pattern = tuple(fault_model.sample_pattern(code.codeword_bits, rng))
        shares = cache.get(pattern)
        if shares is None:
            counts = [0, 0, 0, 0]
            for data in data_words:
                codeword = code.encode(data)
                for position in pattern:
                    codeword ^= 1 << position
                result = code.decode(codeword)
                if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                    counts[1] += 1
                elif result.data != data:
                    counts[2] += 1
                elif result.status is DecodeStatus.CORRECTED:
                    counts[0] += 1
                else:
                    counts[3] += 1
            shares = cache[pattern] = np.array(counts) / len(data_words)
        totals += shares
    return totals / _MC_SAMPLES


_multibit_models = st.integers(min_value=1, max_value=6).flatmap(
    lambda low: st.builds(
        MultiBitUpset,
        min_width=st.just(low),
        max_width=st.integers(min_value=low, max_value=low + 10),
        geometric_p=st.floats(min_value=0.05, max_value=1.0),
    )
)
_fault_models = st.one_of(
    _multibit_models,
    st.builds(
        MixedUpset,
        smu_fraction=st.floats(min_value=0.0, max_value=1.0),
        smu=_multibit_models,
    ),
)
_interleaved_codes = st.builds(
    lambda family, ways: family(32, ways=ways),
    st.sampled_from([InterleavedSecDedCode, InterleavedParityCode, InterleavedHammingCode]),
    st.integers(min_value=1, max_value=8),
)


class TestExactOutcomeMixture:
    """``classify_outcomes`` enumerates the fault model's exact pattern law."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(code=_interleaved_codes, fault_model=_fault_models)
    def test_matches_monte_carlo_within_five_standard_errors(self, code, fault_model):
        exact = astuple(classify_outcomes(code, fault_model))
        sampled = _monte_carlo_outcomes(code, fault_model)
        assert math.fsum(exact) == pytest.approx(1.0, abs=1e-12)
        for probability, frequency in zip(exact, sampled):
            # A per-draw share in [0, 1] with mean p has variance at most
            # p * (1 - p); at p = 0 or 1 this demands exact agreement.
            error = math.sqrt(probability * (1.0 - probability) / _MC_SAMPLES)
            assert abs(probability - frequency) <= 5.0 * error + 1e-12

    def test_two_way_secded_splits_the_paper_mixture(self):
        # Clusters of widths 1-2 land at most one flip per lane (corrected);
        # widths 3-4 land two flips in one lane (detected).  The paper's
        # mixture is 40 % single bits plus 60 % clusters of width 2 (p = 0.55),
        # 3 or 4, so 0.4 + 0.6 * 0.55 is corrected and 0.6 * 0.45 detected.
        probs = classify_outcomes(InterleavedSecDedCode(32, ways=2), default_smu_model())
        assert probs.corrected == pytest.approx(0.73, abs=1e-12)
        assert probs.detected == pytest.approx(0.27, abs=1e-12)
        assert probs.silent == probs.benign == 0.0

    def test_registered_strategies_and_fault_models_are_single_class(
        self, small_adpcm_encode
    ):
        # Single-class mixtures are where the exact and Monte-Carlo
        # classifiers agree to the last bit: no default row moved.
        from repro.api.registry import (
            available_fault_models,
            available_strategies,
            build_fault_model,
            build_strategy,
        )

        fault_models = [None, *available_fault_models()]
        for name in available_strategies():
            params = {"chunk_words": 64} if name == "hybrid" else {}
            strategy = build_strategy(name, small_adpcm_encode, PAPER_OPERATING_POINT, **params)
            code = strategy.build_platform(required_buffer_words=64).l1.code
            for fault_name in fault_models:
                fault_model = build_fault_model(fault_name) or default_smu_model()
                shares = sorted(astuple(classify_outcomes(code, fault_model)))
                assert shares == [0.0, 0.0, 0.0, 1.0], (name, fault_name)


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


class TestProfileBySeed:
    """A model build reaches its profile by seed, without regenerating the input."""

    @staticmethod
    def _rows(app: str) -> list[dict]:
        from repro.api.executors import execute_spec
        from repro.api.spec import ExperimentSpec

        spec = ExperimentSpec(app=app, strategy="hybrid-optimal", engine="batched", seed=5)
        return execute_spec(spec).records

    @pytest.mark.parametrize("app", PAPER_BENCHMARK_ORDER)
    def test_second_build_regenerates_no_input(self, app, monkeypatch):
        first = self._rows(app)

        def regenerated(self, seed):
            raise AssertionError(f"{self.name} regenerated its input for seed {seed}")

        monkeypatch.setattr(type(get_application(app)), "generate_input", regenerated)
        assert self._rows(app) == first

    def test_builds_without_the_cache(self, monkeypatch):
        from repro.runtime.profile_cache import ENV_NO_CACHE

        cached = self._rows("adpcm-encode")
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        assert self._rows("adpcm-encode") == cached


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

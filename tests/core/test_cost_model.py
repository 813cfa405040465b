"""Tests for the analytical cost model (Eq. 1–2)."""

from __future__ import annotations

import pytest

from repro.core.config import PAPER_OPERATING_POINT
from repro.core.cost_model import MitigationCostModel, PlatformCostParameters


@pytest.fixture(scope="module")
def platform_params() -> PlatformCostParameters:
    return PlatformCostParameters.from_defaults()


@pytest.fixture
def adpcm_model(small_adpcm_encode, platform_params) -> MitigationCostModel:
    char = small_adpcm_encode.characterize(small_adpcm_encode.generate_input(0))
    return MitigationCostModel(char, PAPER_OPERATING_POINT, platform_params)


class TestPlatformParameters:
    def test_derived_from_memory_model(self, platform_params):
        assert platform_params.l1_read_pj > 1.0
        assert platform_params.l1_write_pj > platform_params.l1_read_pj
        assert platform_params.l1_access_cycles >= 1
        assert platform_params.l1_area_mm2 > 0.1
        assert platform_params.isr_overhead_cycles > 0


class TestBaselineFigures:
    def test_baseline_energy_and_cycles_positive(self, adpcm_model):
        assert adpcm_model.baseline_energy_pj() > 0
        assert adpcm_model.baseline_cycles() > adpcm_model.app.compute_cycles

    def test_recompute_energy_per_word_consistent(self, adpcm_model):
        per_word = adpcm_model.energy_per_recomputed_word_pj()
        assert per_word * adpcm_model.app.output_words == pytest.approx(
            adpcm_model.baseline_energy_pj()
        )


class TestEquationComponents:
    def test_num_checkpoints_covers_all_data(self, adpcm_model):
        total = adpcm_model.app.output_words
        for chunk in (1, 7, 16, total):
            n = adpcm_model.num_checkpoints_for(chunk)
            assert n * chunk >= total
            assert (n - 1) * chunk < total

    def test_expected_faulty_chunks_scales_with_error_rate(self, small_adpcm_encode, platform_params):
        char = small_adpcm_encode.characterize(small_adpcm_encode.generate_input(0))
        low = MitigationCostModel(
            char, PAPER_OPERATING_POINT.with_overrides(error_rate=1e-7), platform_params
        )
        high = MitigationCostModel(
            char, PAPER_OPERATING_POINT.with_overrides(error_rate=1e-5), platform_params
        )
        chunk = 8
        n = low.num_checkpoints_for(chunk)
        assert high.expected_faulty_chunks(chunk, n) == pytest.approx(
            100 * low.expected_faulty_chunks(chunk, n), rel=1e-6
        )

    def test_zero_error_rate_means_no_recovery_cost(self, small_adpcm_encode, platform_params):
        char = small_adpcm_encode.characterize(small_adpcm_encode.generate_input(0))
        model = MitigationCostModel(
            char, PAPER_OPERATING_POINT.with_overrides(error_rate=0.0), platform_params
        )
        breakdown = model.evaluate(8)
        assert breakdown.expected_faulty_chunks == 0.0
        # Compute cost reduces to the checkpoint-trigger term only.
        assert breakdown.compute_cost_pj == pytest.approx(
            breakdown.num_checkpoints * model.checkpoint_energy_pj(8)
        )

    def test_checkpoint_energy_grows_with_state_size(
        self, small_adpcm_encode, small_g721_encode, platform_params
    ):
        adpcm = MitigationCostModel(
            small_adpcm_encode.characterize(small_adpcm_encode.generate_input(0)),
            PAPER_OPERATING_POINT,
            platform_params,
        )
        g721 = MitigationCostModel(
            small_g721_encode.characterize(small_g721_encode.generate_input(0)),
            PAPER_OPERATING_POINT,
            platform_params,
        )
        assert g721.checkpoint_energy_pj(16) > adpcm.checkpoint_energy_pj(16)

    def test_recompute_energy_linear_in_chunk(self, adpcm_model):
        assert adpcm_model.chunk_recompute_energy_pj(20) == pytest.approx(
            2 * adpcm_model.chunk_recompute_energy_pj(10)
        )

    def test_storage_cost_matches_equation_one(self, adpcm_model):
        chunk = 10
        n = adpcm_model.num_checkpoints_for(chunk)
        err = adpcm_model.expected_faulty_chunks(chunk, n)
        buffer = adpcm_model.buffer_estimate(chunk)
        expected = (n * chunk + err * chunk) * buffer.write_energy_pj
        assert adpcm_model.storage_cost_pj(chunk, n) == pytest.approx(expected)

    def test_compute_cost_matches_equation_two(self, adpcm_model):
        chunk = 10
        n = adpcm_model.num_checkpoints_for(chunk)
        err = adpcm_model.expected_faulty_chunks(chunk, n)
        expected = n * adpcm_model.checkpoint_energy_pj(chunk) + err * (
            adpcm_model.isr_energy_pj(chunk) + adpcm_model.chunk_recompute_energy_pj(chunk)
        )
        assert adpcm_model.compute_cost_pj(chunk, n) == pytest.approx(expected)


class TestEvaluation:
    def test_objective_is_sum_of_costs(self, adpcm_model):
        breakdown = adpcm_model.evaluate(8)
        assert breakdown.objective_pj == pytest.approx(
            breakdown.storage_cost_pj + breakdown.compute_cost_pj
        )

    def test_feasibility_flags(self, adpcm_model):
        breakdown = adpcm_model.evaluate(8)
        assert breakdown.area_feasible
        assert breakdown.cycle_feasible
        assert breakdown.feasible

    def test_small_chunks_blow_the_cycle_budget(self, adpcm_model):
        # One-word chunks mean a checkpoint after every word: the commit
        # traffic alone exceeds the 10 % cycle budget.
        breakdown = adpcm_model.evaluate(1)
        assert not breakdown.cycle_feasible

    def test_huge_buffer_violates_area_budget(self, small_jpeg_decode, platform_params):
        char = small_jpeg_decode.characterize(small_jpeg_decode.generate_input(0))
        model = MitigationCostModel(char, PAPER_OPERATING_POINT, platform_params)
        # A thousand-word multi-bit-protected buffer no longer fits in 5 %
        # of the 64 KB L1 area.
        breakdown = model.evaluate(1200)
        assert breakdown.area_fraction > 0.05
        assert not breakdown.area_feasible
        assert not breakdown.feasible

    def test_invalid_arguments_rejected(self, adpcm_model):
        with pytest.raises(ValueError):
            adpcm_model.evaluate(0)
        with pytest.raises(ValueError):
            adpcm_model.evaluate(8, num_checkpoints=0)

    def test_interior_optimum_exists(self, adpcm_model):
        # The objective should not be monotone: an interior chunk size beats
        # both the smallest and the largest feasible candidates.
        candidates = [adpcm_model.evaluate(chunk) for chunk in range(1, 41)]
        objectives = [c.objective_pj for c in candidates]
        best_index = objectives.index(min(objectives))
        assert 0 < best_index < len(objectives) - 1


class TestLifetime:
    def test_model_is_collected_after_optimization(
        self, small_adpcm_encode, platform_params, monkeypatch
    ):
        import gc
        import weakref

        from repro.core.optimizer import ChunkSizeOptimizer

        built = []
        init = MitigationCostModel.__init__

        def tracking(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(MitigationCostModel, "__init__", tracking)
        char = small_adpcm_encode.characterize(small_adpcm_encode.generate_input(0))
        optimizer = ChunkSizeOptimizer(PAPER_OPERATING_POINT, platform_params)
        for _ in range(3):
            optimizer.optimize_characterization(char)
        gc.collect()
        assert len(built) == 3
        assert [ref() for ref in built] == [None, None, None]

    def test_buffer_estimates_are_shared_within_one_model(self, adpcm_model):
        first = adpcm_model.buffer_estimate(16)
        assert adpcm_model.buffer_estimate(16) is first
        assert adpcm_model.buffer_estimate(17) is not first

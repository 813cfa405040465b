"""End-to-end checks of the paper's headline claims (on reduced workloads).

These tests assert the *shape* of the published results — who wins, by
roughly what factor, and which constraints hold — not the absolute
numbers, which depend on the synthetic inputs.  The ablation and scenario
claims are the design choices the harnesses sweep beyond the paper.
``repro-experiments all`` regenerates every artefact at full scale.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ablation_correction_strength,
    ablation_drain_latency,
    fig5_energy,
    scenario_sweep,
    table1_optimal_chunks,
    timing_overhead,
)
from repro.apps.adpcm import AdpcmDecodeApp, AdpcmEncodeApp
from repro.apps.g721 import G721EncodeApp
from repro.apps.jpeg import JpegDecodeApp
from repro.core.config import PAPER_OPERATING_POINT


@pytest.fixture(scope="module")
def reduced_apps():
    """Reduced-size versions of three paper benchmarks (keeps the suite fast)."""
    return [
        AdpcmEncodeApp(frame_samples=960),
        AdpcmDecodeApp(frame_samples=960),
        JpegDecodeApp(width=48, height=48),
    ]


@pytest.fixture(scope="module")
def fig5(reduced_apps):
    return fig5_energy(applications=reduced_apps, seeds=(0, 1, 2))


class TestTableIClaims:
    def test_optimum_buffers_are_tens_of_words(self):
        apps = [
            AdpcmEncodeApp(frame_samples=960),
            G721EncodeApp(frame_samples=640),
            JpegDecodeApp(width=48, height=48),
        ]
        result = table1_optimal_chunks(applications=apps)
        for row in result.rows_by_app.values():
            assert 4 <= row.chunk_words <= 128
            assert row.area_fraction <= PAPER_OPERATING_POINT.area_overhead
            assert row.predicted_cycle_overhead <= PAPER_OPERATING_POINT.cycle_overhead + 1e-9

    def test_jpeg_needs_a_larger_buffer_than_adpcm(self):
        apps = [AdpcmEncodeApp(frame_samples=960), JpegDecodeApp(width=48, height=48)]
        result = table1_optimal_chunks(applications=apps)
        assert (
            result.rows_by_app["jpeg-decode"].chunk_words
            > result.rows_by_app["adpcm-encode"].chunk_words
        )


class TestFig5Claims:
    def test_proposed_scheme_has_single_digit_to_low_tens_overhead(self, fig5):
        for app in fig5.applications():
            overhead = fig5.outcome(app, "hybrid-optimal").normalized_energy - 1.0
            assert 0.0 <= overhead <= 0.30  # paper: 10.1 % average, 22 % max

    def test_hw_and_sw_baselines_cost_far_more_than_the_proposal(self, fig5):
        avg_hybrid = fig5.average_normalized_energy("hybrid-optimal")
        avg_hw = fig5.average_normalized_energy("hw-mitigation")
        assert avg_hw > avg_hybrid + 0.5
        assert fig5.max_normalized_energy("hw-mitigation") > 2.0  # >100 % overhead

    def test_proposal_fully_mitigates_errors(self, fig5):
        for app in fig5.applications():
            assert fig5.outcome(app, "hybrid-optimal").fully_mitigated_fraction == 1.0
            assert fig5.outcome(app, "hw-mitigation").fully_mitigated_fraction == 1.0

    def test_default_case_is_the_cheapest_but_unprotected(self, fig5):
        for app in fig5.applications():
            default = fig5.outcome(app, "default")
            assert default.normalized_energy == pytest.approx(1.0)
            for strategy in ("hybrid-optimal", "hw-mitigation", "sw-mitigation"):
                assert fig5.outcome(app, strategy).normalized_energy >= 0.999


class TestTimingClaims:
    def test_proposal_meets_the_cycle_budget_and_hw_does_not(self, fig5):
        timing = timing_overhead(fig5=fig5)
        budget = 1.0 + PAPER_OPERATING_POINT.cycle_overhead
        for app in fig5.applications():
            # The optimally-sized proposal honours the 10 % cycle budget on
            # every benchmark; the sub-optimal sizing may exceed it on an
            # unlucky fault placement, which is exactly why the optimization
            # matters and is not asserted here.
            assert fig5.outcome(app, "hybrid-optimal").normalized_cycles <= budget
        violating = {strategy for _, strategy, _ in timing.violations()}
        assert "hw-mitigation" in violating
        assert "hybrid-optimal" not in violating


class TestAblationClaims:
    def test_stronger_buffer_codes_cost_more_area(self):
        result = ablation_correction_strength(
            strengths=[1, 8], application=AdpcmEncodeApp(frame_samples=640)
        )
        weak, strong = (record["area_fraction"] for record in result.records)
        assert strong > weak

    def test_longer_exposure_never_lowers_the_expected_faulty_chunks(self):
        result = ablation_drain_latency(
            latencies=[250, 1000, 4000], application=AdpcmEncodeApp(frame_samples=640)
        )
        faulty = [record["expected_faulty_chunks"] for record in result.records]
        assert faulty == sorted(faulty)


class TestScenarioClaims:
    @pytest.fixture(scope="class")
    def sweep(self):
        result = scenario_sweep(
            scenarios=["paper-constant", "burst", "storm"],
            application=AdpcmEncodeApp(frame_samples=960),
            strategies=["hybrid-optimal", "hybrid-adaptive"],
            seeds=(0, 1),
        )
        return {(cell.scenario, cell.strategy): cell for cell in result.cells}

    def test_adaptive_equals_static_at_the_paper_constant_rate(self, sweep):
        adaptive = sweep["paper-constant", "hybrid-adaptive"]
        assert adaptive.energy_nj == sweep["paper-constant", "hybrid-optimal"].energy_nj
        assert adaptive.fully_mitigated_fraction == 1.0

    @pytest.mark.parametrize("scenario", ["burst", "storm"])
    def test_adaptive_costs_no_more_than_static_under_bursts(self, sweep, scenario):
        adaptive, static = sweep[scenario, "hybrid-adaptive"], sweep[scenario, "hybrid-optimal"]
        assert adaptive.energy_nj <= static.energy_nj
        # At 50-100x burst rates parity can miss an even-width SMU (the
        # paper's detection scheme), so mitigation only has a floor here.
        assert min(adaptive.fully_mitigated_fraction, static.fully_mitigated_fraction) >= 0.6

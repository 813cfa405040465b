"""Tests for the cross-technology Table I / Fig. 4 replay harness."""

from __future__ import annotations

import pytest

from repro.analysis import cross_technology_sweep
from repro.analysis.cross_technology import CrossTechnologyRow
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.cost_model import PlatformCostParameters
from repro.core.feasibility import feasible_region
from repro.core.optimizer import ChunkSizeOptimizer
from repro.memmodel import NODE_65NM, get_node
from repro.runtime.executor import characterize_app


class TestCrossTechnologySweep:
    def test_engines_bit_identical(self, small_adpcm_encode, small_g721_encode):
        apps = [small_adpcm_encode, small_g721_encode]
        result = cross_technology_sweep(applications=apps)
        assert result.nodes == ("45nm", "65nm", "90nm")
        constraints = PAPER_OPERATING_POINT
        for name in result.nodes:
            node = get_node(name)
            platform = PlatformCostParameters.from_defaults(technology=node)
            region = feasible_region(constraints=constraints, technology=node)
            for app, row in zip(apps, result.rows_for(name), strict=True):
                optimizer = ChunkSizeOptimizer(constraints, platform)
                best = optimizer.optimize_characterization(characterize_app(app, 0)).best
                assert row == CrossTechnologyRow(
                    technology=name,
                    application=app.name,
                    chunk_words=best.chunk_words,
                    num_checkpoints=best.num_checkpoints,
                    energy_overhead=best.energy_overhead_fraction,
                    cycle_overhead=best.cycle_overhead_fraction,
                    area_fraction=best.area_fraction,
                    buffer_capacity_words=best.buffer_capacity_words,
                    fig4_max_chunk_words=region.max_chunk_words(constraints.correctable_bits),
                    fig4_max_t_at_64_words=region.max_correctable_bits(64),
                    l1_area_mm2=region.l1_area_mm2,
                )

    def test_row_shape_and_lookup(self, small_adpcm_encode):
        result = cross_technology_sweep(
            nodes=("65nm",), applications=[small_adpcm_encode]
        )
        (row,) = result.rows_for("65nm")
        assert row.application == small_adpcm_encode.name
        assert row.chunk_words > 0
        assert row.fig4_max_chunk_words > 0
        assert row.fig4_max_t_at_64_words > 0
        assert 0.0 < row.area_fraction <= result.constraints.area_overhead
        records = result.to_result_set().to_dict()["rows"]
        assert records[0]["technology"] == "65nm"
        assert "node" in result.render()

    def test_scaled_overrides_change_the_replay(self, small_adpcm_encode):
        baseline = cross_technology_sweep(
            nodes=("65nm",), applications=[small_adpcm_encode]
        )
        # Pricier ECC logic gates inflate only the protected buffer (the
        # vulnerable L1 carries no decoder), shrinking the feasible space.
        shrunk = cross_technology_sweep(
            nodes=("65nm",),
            applications=[small_adpcm_encode],
            scale_overrides={"65nm": {"logic_gate_area_um2": 4.8}},
        )
        assert (
            shrunk.rows_for("65nm")[0].fig4_max_chunk_words
            < baseline.rows_for("65nm")[0].fig4_max_chunk_words
        )
        assert shrunk.rows_for("65nm")[0].l1_area_mm2 == (
            baseline.rows_for("65nm")[0].l1_area_mm2
        )

    def test_technology_node_instances_accepted(self, small_adpcm_encode):
        variant = NODE_65NM.scaled(name="65nm-lowleak", leakage_uw_per_kb=0.5)
        result = cross_technology_sweep(
            nodes=(variant,), applications=[small_adpcm_encode]
        )
        assert result.nodes == ("65nm-lowleak",)

    def test_bad_inputs_rejected(self, small_adpcm_encode):
        with pytest.raises(KeyError, match="unknown nodes"):
            cross_technology_sweep(
                nodes=("65nm",),
                applications=[small_adpcm_encode],
                scale_overrides={"28nm": {"vdd": 1.0}},
            )
        with pytest.raises(ValueError, match="at least one technology node"):
            cross_technology_sweep(nodes=(), applications=[small_adpcm_encode])
        with pytest.raises(ValueError, match="nodes must be unique"):
            cross_technology_sweep(
                nodes=("65nm", "65nm"), applications=[small_adpcm_encode]
            )

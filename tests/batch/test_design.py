"""Cross-engine equivalence of the vectorized design-space engine.

Unlike the batched *campaign* engine (statistically equivalent), the
design engine must be **bit-identical** to the scalar per-point walkers
it replaced as the design kinds' only engine: same Fig. 4 points and
boundary, same Table I argmin chunks, same candidate cost breakdowns,
float for float.  These tests hold it to exact equality over the full
paper grid, over constraint variations, and — through the golden
fixtures — to the repository's frozen history.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis import fig4_feasible_region, fig5_energy, table1_optimal_chunks
from repro.api.executors import BatchCampaignExecutor, execute_spec
from repro.api.spec import ExperimentSpec
from repro.apps.registry import available_applications, get_application
from repro.batch.design import (
    grid_feasible_region,
    grid_optimal_chunks_for_rates,
    grid_optimize,
    grid_optimize_characterization,
)
from repro.batch.pareto import reference_pareto_front
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.feasibility import feasible_region
from repro.core.optimizer import ChunkSizeOptimizer
from repro.warehouse.planner import plan_units

GOLDEN_FIXTURES = Path(__file__).parent.parent / "golden" / "fixtures"

#: Constraint variations the engines must agree on beyond the paper point.
CONSTRAINT_VARIANTS = (
    PAPER_OPERATING_POINT,
    PAPER_OPERATING_POINT.with_overrides(area_overhead=0.02),
    PAPER_OPERATING_POINT.with_overrides(error_rate=1e-7, cycle_overhead=0.05),
    PAPER_OPERATING_POINT.with_overrides(correctable_bits=8),
)


def _golden_payload(name: str) -> dict:
    return json.loads((GOLDEN_FIXTURES / f"{name}.json").read_text(encoding="utf-8"))[
        "payload"
    ]


class TestFeasibilityEquivalence:
    def test_full_paper_grid_bit_identical(self):
        behavioural = feasible_region()
        vectorized = grid_feasible_region()
        assert vectorized.l1_area_mm2 == behavioural.l1_area_mm2
        assert vectorized.area_budget == behavioural.area_budget
        assert vectorized.points == behavioural.points
        assert vectorized.boundary() == behavioural.boundary()

    @pytest.mark.parametrize("constraints", CONSTRAINT_VARIANTS)
    def test_constraint_variants(self, constraints):
        kwargs = dict(
            constraints=constraints,
            chunk_sizes=range(1, 129, 2),
            correctable_bits=range(1, 11),
        )
        assert grid_feasible_region(**kwargs).points == feasible_region(**kwargs).points

    def test_interleaved_scheme(self):
        kwargs = dict(
            chunk_sizes=range(1, 65), correctable_bits=range(1, 7),
            scheme="interleaved-secded",
        )
        assert grid_feasible_region(**kwargs).points == feasible_region(**kwargs).points

    def test_lookup_helpers_match_behavioural(self):
        behavioural = feasible_region(chunk_sizes=range(1, 200, 3))
        vectorized = grid_feasible_region(chunk_sizes=range(1, 200, 3))
        for t in range(0, 20):
            assert vectorized.max_chunk_words(t) == behavioural.max_chunk_words(t)
        for chunk in (0, 1, 7, 64, 199, 500):
            assert vectorized.max_correctable_bits(chunk) == (
                behavioural.max_correctable_bits(chunk)
            )


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("name", sorted(available_applications()))
    def test_every_registered_app_bit_identical(self, name):
        app = get_application(name)
        characterization = app.characterize(app.generate_input(0))
        behavioural = ChunkSizeOptimizer(PAPER_OPERATING_POINT).optimize_characterization(
            characterization
        )
        vectorized = grid_optimize_characterization(characterization, PAPER_OPERATING_POINT)
        assert vectorized.chunk_words == behavioural.chunk_words
        assert vectorized.num_checkpoints == behavioural.num_checkpoints
        assert vectorized.best == behavioural.best
        assert vectorized.candidates == behavioural.candidates
        assert vectorized.suboptimal(4.0) == behavioural.suboptimal(4.0)

    @pytest.mark.parametrize("constraints", CONSTRAINT_VARIANTS)
    def test_constraint_variants(self, constraints, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        behavioural = ChunkSizeOptimizer(constraints).optimize_characterization(
            characterization
        )
        vectorized = grid_optimize_characterization(characterization, constraints)
        assert vectorized.best == behavioural.best
        assert vectorized.candidates == behavioural.candidates

    def test_infeasible_constraints_raise_the_same_error(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        impossible = PAPER_OPERATING_POINT.with_overrides(area_overhead=0.0001)
        with pytest.raises(ValueError, match="no feasible chunk size"):
            grid_optimize_characterization(characterization, impossible)

    def test_rate_grid_matches_per_rate_scalar(self, small_g721_decode):
        characterization = small_g721_decode.characterize(
            small_g721_decode.generate_input(0)
        )
        rates = [0.0, 1e-9, 1e-8, 1e-7, 5e-7, 1e-6, 5e-6, 1e-4]
        vectorized = grid_optimal_chunks_for_rates(
            characterization, PAPER_OPERATING_POINT, rates, infeasible_chunk=1
        )
        reference = []
        for rate in rates:
            optimizer = ChunkSizeOptimizer(
                PAPER_OPERATING_POINT.with_overrides(error_rate=rate)
            )
            try:
                reference.append(
                    optimizer.optimize_characterization(characterization).chunk_words
                )
            except ValueError:
                reference.append(1)
        assert vectorized == reference

    def test_grid_optimize_shares_the_profile_cache(self, small_adpcm_encode):
        from repro.runtime.profile_cache import default_cache

        ChunkSizeOptimizer(PAPER_OPERATING_POINT).optimize(small_adpcm_encode, seed=0)
        hits_before = default_cache().stats.memory_hits
        grid_optimize(small_adpcm_encode, PAPER_OPERATING_POINT, seed=0)
        assert default_cache().stats.memory_hits > hits_before


class TestEngineRouting:
    """Design specs reach the grid solver through every API layer."""

    def test_execute_spec_dispatches_feasibility(self):
        outcome = execute_spec(ExperimentSpec(kind="feasibility", params={"max_chunk_words": 64}))
        reference = feasible_region(chunk_sizes=range(1, 65), correctable_bits=range(1, 19))
        assert outcome.artifact.points == reference.points
        assert [tuple(r.values()) for r in outcome.records] == reference.boundary()

    def test_execute_spec_dispatches_optimization(self, small_adpcm_encode):
        outcome = execute_spec(ExperimentSpec(app=small_adpcm_encode, kind="optimize"))
        reference = ChunkSizeOptimizer(PAPER_OPERATING_POINT).optimize(small_adpcm_encode)
        assert outcome.artifact == reference
        assert outcome.record["chunk_words"] == reference.chunk_words

    def test_batch_executor_serves_design_kinds_vectorized(
        self, small_adpcm_encode, engine_runs
    ):
        specs = [
            ExperimentSpec(kind="feasibility", params={"max_chunk_words": 48}),
            ExperimentSpec(app=small_adpcm_encode, kind="optimize"),
        ]
        outcomes = BatchCampaignExecutor().map(specs)
        assert [o.spec.engine for o in outcomes] == ["batched", "batched"]
        assert engine_runs("batched", kind="feasibility") == 1
        assert engine_runs("batched", kind="optimize") == 1
        assert outcomes[0].artifact.points == feasible_region(chunk_sizes=range(1, 49)).points
        assert outcomes[1].artifact == ChunkSizeOptimizer(PAPER_OPERATING_POINT).optimize(
            small_adpcm_encode
        )

    def test_fig4_harness_matches_the_reference(self):
        fig4 = fig4_feasible_region()
        assert fig4.region.points == feasible_region().points
        # The kept keyword is ignored: there is one engine.
        assert fig4_feasible_region(engine="behavioural").rows() == fig4.rows()

    def test_table1_harness_matches_the_reference(self):
        table1 = table1_optimal_chunks()
        optimizer = ChunkSizeOptimizer(PAPER_OPERATING_POINT)
        for name, optimization in table1.optimizations.items():
            assert optimization == optimizer.optimize(get_application(name))
        assert table1_optimal_chunks(engine="behavioural").rows_by_app == table1.rows_by_app


class TestOneDesignEngine:
    """A design spec runs on the grid solver whatever engine it declares."""

    SPECS = {
        "feasibility": dict(kind="feasibility", params={"max_chunk_words": 48}),
        "optimize": dict(app="adpcm-encode", kind="optimize"),
        "pareto": dict(
            app="adpcm-encode",
            kind="pareto",
            params={
                "nodes": ["65nm"],
                "schemes": ["bch"],
                "correctable_bits": [2, 4],
                "rate_levels": [1e-6],
                "max_chunk_words": 48,
            },
        ),
    }

    @pytest.fixture
    def no_scalar_walkers(self, monkeypatch):
        """Make every scalar design walker raise, wherever it is bound."""

        def refuse(*args, **kwargs):
            raise AssertionError("a scalar design walker ran")

        monkeypatch.setattr(ChunkSizeOptimizer, "optimize_characterization", refuse)
        for walker in (feasible_region, reference_pareto_front):
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, walker.__name__, None) is walker
                ):
                    monkeypatch.setattr(module, walker.__name__, refuse)

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_declared_behavioural_runs_the_grid(self, kind, no_scalar_walkers, engine_runs):
        declared = ExperimentSpec(**self.SPECS[kind], engine="behavioural")
        batched = ExperimentSpec(**self.SPECS[kind], engine="batched")
        assert declared.engine == "batched"
        assert declared == batched
        assert plan_units([declared])[0].key == plan_units([batched])[0].key
        outcome = execute_spec(declared)
        assert outcome.records
        assert engine_runs("batched", kind=kind) == 1
        assert engine_runs("behavioural", kind=kind) == 0

    def test_fig5_sizes_on_the_grid(self, small_adpcm_encode, no_scalar_walkers):
        result = fig5_energy(applications=[small_adpcm_encode], seeds=(0,), engine="batched")
        assert result.outcome(small_adpcm_encode.name, "default").normalized_energy == 1.0


class TestGoldenFixtures:
    """The vectorized path reproduces the committed golden artefacts."""

    def test_fig4_golden_reproduced_by_grid_engine(self):
        payload = fig4_feasible_region().to_result_set().to_dict()
        canonical = json.loads(json.dumps(payload, sort_keys=True))
        assert canonical == _golden_payload("fig4")

    def test_table1_golden_reproduced_by_grid_engine(self):
        payload = table1_optimal_chunks().to_result_set().to_dict()
        canonical = json.loads(json.dumps(payload, sort_keys=True))
        assert canonical == _golden_payload("table1")

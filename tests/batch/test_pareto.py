"""Cross-engine equivalence and semantics of the Pareto design-space explorer.

Like the design engine (``test_design.py``), the Pareto explorer must be
**bit-identical** between its two engines: the scalar reference
(:func:`reference_pareto_front`, per-point ``MitigationCostModel``
evaluation plus an incremental front scan) and the vectorized grid engine
(:func:`grid_pareto_front`, array evaluation plus array dominance
filtering).  These tests hold them to exact equality over the full paper
grid on every registered application, plus the semantic contracts: weak
dominance, duplicate retention, per-rate conditioning, and invariance of
the front under objective-column permutation.
"""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.executors import BatchCampaignExecutor, execute_spec
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.apps.registry import available_applications
from repro.batch.pareto import (
    _MERGE_TILE_ELEMENTS,
    DesignPoint,
    ParetoFront,
    _StreamingFront,
    grid_pareto_front,
    reference_non_dominated,
    reference_pareto_front,
    uncorrectable_upset_fraction,
)
from repro.batch.substrate import SUBSTRATE
from repro.core.config import PAPER_OPERATING_POINT
from repro.faults.models import FaultModel, MixedUpset, MultiBitUpset, SingleBitUpset

#: Trimmed axes for the cheap unit tests (the full default grid is
#: exercised by the per-app equivalence tests below).
SMALL_AXES = dict(
    nodes=("65nm",),
    schemes=("bch",),
    correctable_bits=(2, 4),
    rate_levels=(1e-6,),
)


def _identity(point: DesignPoint) -> tuple:
    return (
        point.technology,
        point.scheme,
        point.correctable_bits,
        point.chunk_words,
        point.error_rate,
    )


# ---------------------------------------------------------------------- #
# Engine equivalence
# ---------------------------------------------------------------------- #
class TestFrontEquivalence:
    @pytest.mark.parametrize("name", sorted(available_applications()))
    def test_full_paper_grid_bit_identical(self, name):
        reference = reference_pareto_front(name)
        vectorized = grid_pareto_front(name)
        assert vectorized.evaluated_points == reference.evaluated_points
        assert vectorized.objectives == reference.objectives
        assert vectorized.points == reference.points
        assert vectorized == reference

    def test_constraint_variants(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        for constraints in (
            PAPER_OPERATING_POINT,
            PAPER_OPERATING_POINT.with_overrides(area_overhead=0.02),
            PAPER_OPERATING_POINT.with_overrides(cycle_overhead=0.05),
        ):
            kwargs = dict(SMALL_AXES, constraints=constraints, max_chunk_words=64)
            assert grid_pareto_front(characterization, **kwargs) == (
                reference_pareto_front(characterization, **kwargs)
            )

    def test_custom_fault_model_and_objectives(self, small_g721_encode):
        characterization = small_g721_encode.characterize(
            small_g721_encode.generate_input(0)
        )
        kwargs = dict(
            nodes=("45nm", "90nm"),
            schemes=("interleaved-secded",),
            correctable_bits=(1, 3),
            rate_levels=(1e-7, 2e-6),
            objectives=("energy", "failure"),
            fault_model=MixedUpset(smu_fraction=0.8, smu=MultiBitUpset(2, 6, 0.4)),
            max_chunk_words=96,
        )
        assert grid_pareto_front(characterization, **kwargs) == (
            reference_pareto_front(characterization, **kwargs)
        )

    def test_chunk_stride_subsamples_both_engines(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        kwargs = dict(SMALL_AXES, chunk_stride=7, max_chunk_words=80)
        grid = grid_pareto_front(characterization, **kwargs)
        assert grid == reference_pareto_front(characterization, **kwargs)
        assert all(point.chunk_words % 7 == 1 for point in grid)


class TestObjectivePermutation:
    def test_front_invariant_under_objective_permutation(self, small_adpcm_encode):
        """The retained design-point set must not depend on column order."""
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        baseline = None
        for permutation in itertools.permutations(("energy", "runtime", "area", "failure")):
            front = grid_pareto_front(
                characterization, objectives=permutation, **SMALL_AXES
            )
            identities = {_identity(point) for point in front}
            if baseline is None:
                baseline = identities
            assert identities == baseline
            assert front.objectives == permutation

    def test_reference_engine_is_permutation_invariant_too(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        forward = reference_pareto_front(
            characterization, objectives=("energy", "area"), **SMALL_AXES
        )
        backward = reference_pareto_front(
            characterization, objectives=("area", "energy"), **SMALL_AXES
        )
        assert {_identity(p) for p in forward} == {_identity(p) for p in backward}


# ---------------------------------------------------------------------- #
# Dominance filters
# ---------------------------------------------------------------------- #
class TestDominanceFilters:
    def test_dominated_points_removed(self):
        values = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0], [1.0, 0.5]])
        mask = SUBSTRATE.non_dominated_mask(values)
        assert mask.tolist() == [False, False, True, True]

    def test_weak_dominance_removes_tied_worse_points(self):
        # (1, 2) weakly dominates (1, 3): equal first axis, better second.
        values = np.array([[1.0, 2.0], [1.0, 3.0]])
        assert SUBSTRATE.non_dominated_mask(values).tolist() == [True, False]

    def test_exact_duplicates_are_all_kept(self):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.5], [1.0, 2.0]])
        mask = SUBSTRATE.non_dominated_mask(values)
        assert mask.tolist() == [True, True, True, True]

    def test_empty_and_single_point(self):
        assert SUBSTRATE.non_dominated_mask(np.empty((0, 3))).tolist() == []
        assert SUBSTRATE.non_dominated_mask(np.array([[4.0, 2.0]])).tolist() == [True]

    @pytest.mark.parametrize("objectives", [1, 2, 4])
    def test_matches_reference_on_random_clouds(self, objectives):
        rng = np.random.default_rng(1234 + objectives)
        values = rng.normal(size=(400, objectives)).round(1)  # rounding forces ties
        mask = SUBSTRATE.non_dominated_mask(values)
        expected = reference_non_dominated([tuple(row) for row in values.tolist()])
        assert np.flatnonzero(mask).tolist() == expected

    def test_reference_scan_preserves_evaluation_order(self):
        values = [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0), (0.5, 0.5)]
        # (0.5, 0.5) dominates everything else but arrives last.
        assert reference_non_dominated(values) == [3]

    @pytest.mark.parametrize(
        "values",
        [
            [[math.nan, 1.0], [2.0, 2.0], [3.0, 3.0]],
            # A NaN pivot used to drop itself and skip the row after it,
            # emptying the front down to the non-dominated (1, 1).
            [[1.0, 1.0], [math.nan, 0.5], [2.0, 2.0], [0.5, 3.0]],
        ],
    )
    def test_nan_rejected_by_both_filters(self, values):
        with pytest.raises(ValueError, match="NaN"):
            SUBSTRATE.non_dominated_mask(np.array(values))
        with pytest.raises(ValueError, match="NaN"):
            reference_non_dominated([tuple(row) for row in values])

    def test_infinities_are_ordinary_values(self):
        inf = math.inf
        values = np.array(
            [[inf, 1.0], [1.0, inf], [-inf, 5.0], [2.0, 2.0], [inf, inf],
             [-inf, inf], [inf, -inf], [-inf, 5.0]]
        )
        mask = SUBSTRATE.non_dominated_mask(values)
        expected = reference_non_dominated([tuple(row) for row in values.tolist()])
        assert np.flatnonzero(mask).tolist() == expected == [2, 3, 6, 7]


# ---------------------------------------------------------------------- #
# Streaming front folds
# ---------------------------------------------------------------------- #
#: A coarse value grid, so ties and exact duplicates are common and land in
#: different blocks; the infinities are repeated less often than the grid.
_COARSE_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0) * 3 + (math.inf, -math.inf)


@st.composite
def _partitioned_clouds(draw):
    """A point cloud of 2-4 objectives and a partition of it into blocks."""
    objectives = draw(st.integers(min_value=2, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(_COARSE_VALUES)] * objectives),
            min_size=1,
            max_size=80,
        )
    )
    layout = draw(st.sampled_from((1, 7, "cuts")))
    if layout == "cuts":
        cuts = draw(st.sets(st.integers(min_value=1, max_value=len(rows))))
    else:
        cuts = set(range(0, len(rows), layout))
    bounds = sorted(cuts | {0, len(rows)})
    return np.array(rows, dtype=np.float64), list(zip(bounds, bounds[1:]))


def _fold_cloud(cloud: np.ndarray, blocks) -> _StreamingFront:
    front = _StreamingFront()
    for start, stop in blocks:
        front.fold(
            cloud[start:stop],
            {
                "index": np.arange(start, stop, dtype=np.int64),
                "first": cloud[start:stop, 0].copy(),
            },
        )
    return front


class TestStreamingFold:
    @given(_partitioned_clouds())
    @settings(max_examples=200, deadline=None)
    def test_any_partition_folds_to_the_reference_front(self, partitioned):
        cloud, blocks = partitioned
        front = _fold_cloud(cloud, blocks)
        order = np.argsort(front.payload["index"], kind="stable")
        index = front.payload["index"][order]
        expected = reference_non_dominated([tuple(row) for row in cloud.tolist()])
        assert index.tolist() == expected
        # Payload columns stay aligned with the values they travel with.
        np.testing.assert_array_equal(front.values[order], cloud[index])
        np.testing.assert_array_equal(front.payload["first"][order], cloud[index, 0])

    def test_nan_block_raises_and_leaves_the_front_untouched(self):
        cloud = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        front = _fold_cloud(cloud, [(0, 3)])
        with pytest.raises(ValueError, match="NaN"):
            front.fold(
                np.array([[0.5, math.nan], [0.0, 0.0]]),
                {"index": np.array([3, 4]), "first": np.array([0.5, 0.0])},
            )
        np.testing.assert_array_equal(front.values, cloud)
        assert front.payload["index"].tolist() == [0, 1, 2]

    def test_merge_working_set_stays_within_the_tile_budget(self):
        # 8,000 distinct integer points on the plane a + b + c + d = 57 are
        # mutually non-dominated, so every pair is compared and all survive.
        rng = np.random.default_rng(0)
        a, b, c = np.meshgrid(np.arange(20), np.arange(20), np.arange(20))
        plane = np.column_stack(
            [a.ravel(), b.ravel(), c.ravel(), 57 - a.ravel() - b.ravel() - c.ravel()]
        ).astype(np.float64)[rng.permutation(8000)]
        front = _StreamingFront()
        front.values = plane[:4000]
        front.payload = {"index": np.arange(4000), "first": plane[:4000, 0].copy()}
        block = plane[4000:]
        payload = {"index": np.arange(4000, 8000), "first": block[:, 0].copy()}

        tracemalloc.start()
        try:
            tile_bytes = front.fold(block, payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert len(front.values) == 8000
        assert 0 < tile_bytes <= 4 * _MERGE_TILE_ELEMENTS
        # The tile plus a few copies of the two sets (the block sweep, the
        # grown front): about 3 MiB, where an untiled merge would allocate
        # block x front x objectives = 64 MB of booleans per comparison.
        assert peak < 4 * _MERGE_TILE_ELEMENTS + 8 * plane.nbytes


# ---------------------------------------------------------------------- #
# Residual-failure closed forms
# ---------------------------------------------------------------------- #
class TestUncorrectableFraction:
    def test_single_bit_tail(self):
        model = SingleBitUpset()
        assert uncorrectable_upset_fraction(model, 0) == 1.0
        assert uncorrectable_upset_fraction(model, 1) == 0.0

    def test_truncated_geometric_tail(self):
        model = MultiBitUpset(min_width=2, max_width=4, geometric_p=0.55)
        assert uncorrectable_upset_fraction(model, 1) == 1.0
        assert uncorrectable_upset_fraction(model, 2) == pytest.approx(0.45)
        assert uncorrectable_upset_fraction(model, 3) == pytest.approx(0.45**2)
        assert uncorrectable_upset_fraction(model, 4) == 0.0
        assert uncorrectable_upset_fraction(model, 18) == 0.0

    def test_mixture_is_convex_combination(self):
        mixed = MixedUpset(smu_fraction=0.6, smu=MultiBitUpset(2, 4, 0.55))
        assert uncorrectable_upset_fraction(mixed, 1) == pytest.approx(0.6)
        assert uncorrectable_upset_fraction(mixed, 2) == pytest.approx(0.6 * 0.45)
        assert uncorrectable_upset_fraction(mixed, 8) == 0.0

    def test_tail_matches_sampled_multiplicities(self):
        model = MultiBitUpset(min_width=2, max_width=5, geometric_p=0.5)
        rng = np.random.default_rng(7)
        widths = [len(model.sample_pattern(64, rng)) for _ in range(4000)]
        for t in (2, 3, 4):
            empirical = sum(1 for w in widths if w > t) / len(widths)
            assert uncorrectable_upset_fraction(model, t) == pytest.approx(
                empirical, abs=0.03
            )

    def test_monotone_non_increasing_in_t(self):
        model = MixedUpset(smu_fraction=0.5, smu=MultiBitUpset(2, 8, 0.3))
        tails = [uncorrectable_upset_fraction(model, t) for t in range(0, 10)]
        assert tails == sorted(tails, reverse=True)

    def test_unknown_fault_model_rejected(self):
        class Exotic(SingleBitUpset):
            pass

        class NotClosedForm(FaultModel):
            def sample_pattern(self, word_bits, rng):
                return (0,)

        # Subclasses of the known models still take the closed form...
        assert uncorrectable_upset_fraction(Exotic(), 1) == 0.0
        # ...but a model without an exact width law cannot be built.
        with pytest.raises(TypeError, match="abstract"):
            NotClosedForm()


# ---------------------------------------------------------------------- #
# ParetoFront semantics
# ---------------------------------------------------------------------- #
def _point(**overrides) -> DesignPoint:
    defaults = dict(
        technology="65nm",
        scheme="bch",
        correctable_bits=4,
        chunk_words=8,
        error_rate=1e-6,
        num_checkpoints=25,
        buffer_capacity_words=27,
        energy_overhead=0.05,
        cycle_overhead=0.04,
        area_fraction=0.01,
        failure_probability=0.0,
        within_budgets=True,
    )
    defaults.update(overrides)
    return DesignPoint(**defaults)


class TestParetoFront:
    def test_dominates_is_weak_dominance(self):
        front = ParetoFront("app", ("energy", "area"), (), 0)
        a = _point(energy_overhead=0.1, area_fraction=0.2)
        b = _point(energy_overhead=0.1, area_fraction=0.3)
        assert front.dominates(a, b)
        assert not front.dominates(b, a)
        assert not front.dominates(a, a)  # equal points never dominate

    def test_points_at_different_rates_are_incomparable(self):
        front = ParetoFront("app", ("energy",), (), 0)
        cheap = _point(energy_overhead=0.01, error_rate=1e-7)
        costly = _point(energy_overhead=0.99, error_rate=1e-6)
        assert not front.dominates(cheap, costly)

    def test_knee_point_balances_normalized_objectives(self):
        corner_a = _point(energy_overhead=0.1, area_fraction=0.9, chunk_words=1)
        middle = _point(energy_overhead=0.5, area_fraction=0.5, chunk_words=2)
        corner_b = _point(energy_overhead=0.9, area_fraction=0.1, chunk_words=3)
        front = ParetoFront("app", ("energy", "area"), (corner_a, middle, corner_b), 3)
        assert front.knee_point() is middle

    def test_knee_point_first_of_ties_and_rate_conditioning(self):
        low = _point(energy_overhead=0.2, error_rate=1e-7, chunk_words=1)
        high = _point(energy_overhead=0.4, error_rate=1e-6, chunk_words=2)
        front = ParetoFront("app", ("energy",), (low, high), 2)
        # Degenerate span per rate level: first point wins within the level.
        assert front.knee_point(1e-7) is low
        assert front.knee_point(1e-6) is high
        with pytest.raises(ValueError, match="no front points"):
            front.at_rate(3e-3)

    def test_rate_levels_and_at_rate(self):
        points = (
            _point(error_rate=1e-6, chunk_words=1),
            _point(error_rate=1e-7, chunk_words=2),
            _point(error_rate=1e-6, chunk_words=3),
        )
        front = ParetoFront("app", ("energy",), points, 10)
        assert front.rate_levels() == (1e-7, 1e-6)
        sub = front.at_rate(1e-6)
        assert [p.chunk_words for p in sub] == [1, 3]
        assert sub.objectives == front.objectives

    def test_at_rate_rescales_evaluated_points(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        front = grid_pareto_front(
            characterization,
            nodes=("65nm",),
            schemes=("bch",),
            correctable_bits=(2, 4),
            rate_levels=(1e-7, 1e-6),
            max_chunk_words=32,
        )
        sub = front.at_rate(1e-6)
        # Each rate level evaluates the same design cells: half the grid.
        assert sub.evaluated_points == front.evaluated_points // 2
        assert f"of {sub.evaluated_points} " in sub.to_result_set().footer

    def test_metric_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            _point().metric("latency")

    def test_rows_and_result_set_shapes(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        front = grid_pareto_front(characterization, **SMALL_AXES)
        assert len(front) == len(front.rows()) > 0
        record = front.rows()[0]
        assert record["technology"] == "65nm"
        assert set(record) >= {
            "scheme", "correctable_bits", "chunk_words", "error_rate",
            "energy_overhead", "cycle_overhead", "area_fraction",
            "failure_probability", "within_budgets",
        }
        result_set = front.to_result_set()
        assert "Pareto front" in result_set.title
        assert "knee per rate level" in result_set.footer
        assert len(result_set) == len(front)

        payload = json.loads(front.to_json())
        assert len(payload["rows"]) == len(front)
        csv_text = front.to_csv()
        assert csv_text.splitlines()[0].startswith("technology,")
        assert len(csv_text.splitlines()) == len(front) + 1

    def test_objective_subset_orders_record_columns(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        front = grid_pareto_front(
            characterization, objectives=("area", "energy"), **SMALL_AXES
        )
        columns = list(front.to_result_set().columns)
        assert columns.index("area_fraction") < columns.index("energy_overhead")


# ---------------------------------------------------------------------- #
# Spec / executor / session integration
# ---------------------------------------------------------------------- #
class TestSpecIntegration:
    PARAMS = {
        "nodes": ["65nm"],
        "schemes": ["bch"],
        "correctable_bits": [2, 4],
        "rate_levels": [1e-6],
        "max_chunk_words": 64,
    }

    def test_spec_round_trips_through_json(self):
        spec = ExperimentSpec(app="adpcm-encode", kind="pareto", params=self.PARAMS)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_execute_spec_matches_the_reference(self, small_adpcm_encode):
        outcome = execute_spec(
            ExperimentSpec(app=small_adpcm_encode, kind="pareto", params=self.PARAMS)
        )
        assert outcome.artifact == reference_pareto_front(small_adpcm_encode, **self.PARAMS)
        assert outcome.records == outcome.artifact.rows()

    def test_unknown_params_rejected(self, small_adpcm_encode):
        spec = ExperimentSpec(
            app=small_adpcm_encode, kind="pareto", params={"nodez": ["65nm"]}
        )
        with pytest.raises(ValueError, match="unknown pareto params"):
            execute_spec(spec)

    def test_pareto_requires_an_application(self):
        with pytest.raises(ValueError, match="requires an application"):
            ExperimentSpec(kind="pareto")

    def test_batch_campaign_executor_serves_pareto_vectorized(
        self, small_adpcm_encode, engine_runs
    ):
        pareto_spec = ExperimentSpec(app=small_adpcm_encode, kind="pareto", params=self.PARAMS)
        optimize_spec = ExperimentSpec(app=small_adpcm_encode, kind="optimize")
        outcomes = BatchCampaignExecutor().map([pareto_spec, optimize_spec])
        # The spec names the engine that ran.
        assert outcomes[0].spec.kind == "pareto"
        assert outcomes[0].spec.engine == "batched"
        assert engine_runs("batched", kind="pareto") == 1
        assert outcomes[0].artifact == reference_pareto_front(small_adpcm_encode, **self.PARAMS)
        assert outcomes[1].record["chunk_words"] > 0

    def test_session_pareto_returns_the_front(self, small_adpcm_encode):
        session = Session()
        front = session.pareto(
            small_adpcm_encode,
            ecc=("bch",),
            nodes=("65nm",),
            correctable_bits=(2, 4),
            rate_levels=(1e-6,),
            max_chunk_words=64,
        )
        assert isinstance(front, ParetoFront)
        assert front == reference_pareto_front(
            small_adpcm_encode,
            schemes=("bch",),
            nodes=("65nm",),
            correctable_bits=(2, 4),
            rate_levels=(1e-6,),
            max_chunk_words=64,
        )

    def test_invalid_axes_rejected(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        with pytest.raises(ValueError, match="unknown objectives"):
            grid_pareto_front(characterization, objectives=("energy", "latency"))
        with pytest.raises(ValueError, match="unique"):
            grid_pareto_front(characterization, objectives=("energy", "energy"))
        with pytest.raises(ValueError, match="correctable_bits"):
            grid_pareto_front(characterization, correctable_bits=(0,))
        with pytest.raises(ValueError, match="rate_levels must be unique"):
            grid_pareto_front(characterization, rate_levels=(1e-6, 1e-6))
        with pytest.raises(ValueError, match="nodes must be unique"):
            grid_pareto_front(characterization, nodes=("65nm", "65nm"))
        with pytest.raises(ValueError, match="schemes must be unique"):
            grid_pareto_front(characterization, schemes=("bch", "bch"))
        with pytest.raises(ValueError, match="correctable_bits must be unique"):
            grid_pareto_front(characterization, correctable_bits=(4, 4))
        with pytest.raises(KeyError, match="unknown technology node"):
            grid_pareto_front(characterization, nodes=("28nm",))
        with pytest.raises(ValueError, match="chunk_stride"):
            grid_pareto_front(characterization, chunk_stride=0)

    def test_overridden_operating_point_rate_pins_the_rate_level(
        self, small_adpcm_encode
    ):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        harsh = PAPER_OPERATING_POINT.with_overrides(error_rate=2e-6)
        front = grid_pareto_front(
            characterization, constraints=harsh, **{
                k: v for k, v in SMALL_AXES.items() if k != "rate_levels"
            },
        )
        assert front.rate_levels() == (2e-6,)
        # An explicit rate axis still wins over the operating point.
        explicit = grid_pareto_front(
            characterization, constraints=harsh, rate_levels=(1e-7,), **{
                k: v for k, v in SMALL_AXES.items() if k != "rate_levels"
            },
        )
        assert explicit.rate_levels() == (1e-7,)
        assert front == reference_pareto_front(
            characterization, constraints=harsh, **{
                k: v for k, v in SMALL_AXES.items() if k != "rate_levels"
            },
        )

    def test_bare_scalar_axes_are_wrapped_not_exploded(self, small_adpcm_encode):
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        scalar = grid_pareto_front(
            characterization, nodes="65nm", schemes="bch",
            correctable_bits=4, rate_levels=1e-6, objectives="energy",
            max_chunk_words=32,
        )
        wrapped = grid_pareto_front(
            characterization, nodes=("65nm",), schemes=("bch",),
            correctable_bits=(4,), rate_levels=(1e-6,), objectives=("energy",),
            max_chunk_words=32,
        )
        assert scalar == wrapped
        session_front = Session().pareto(
            small_adpcm_encode, nodes="65nm", ecc="bch",
            correctable_bits=4, rate_levels=1e-6, objectives="energy",
            max_chunk_words=32,
        )
        assert session_front == wrapped

    def test_fault_params_without_fault_model_rejected(self, small_adpcm_encode):
        spec = ExperimentSpec(
            app=small_adpcm_encode,
            kind="pareto",
            params=self.PARAMS,
            fault_params={"smu_fraction": 0.9},
        )
        with pytest.raises(ValueError, match="fault_model"):
            execute_spec(spec)

    def test_spec_fault_model_shapes_the_failure_objective(self, small_adpcm_encode):
        from repro.faults.models import SingleBitUpset

        base = dict(app=small_adpcm_encode, kind="pareto", params=self.PARAMS)
        default_front = execute_spec(ExperimentSpec(**base)).artifact
        ssu_front = execute_spec(ExperimentSpec(**base, fault_model="ssu")).artifact
        # Single-bit upsets are always correctable at t>=1: failure == 0
        # everywhere, unlike the default SMU mixture at t=2.
        assert all(p.failure_probability == 0.0 for p in ssu_front)
        assert ssu_front != default_front
        characterization = small_adpcm_encode.characterize(
            small_adpcm_encode.generate_input(0)
        )
        direct = grid_pareto_front(
            characterization,
            nodes=("65nm",),
            schemes=("bch",),
            correctable_bits=(2, 4),
            rate_levels=(1e-6,),
            max_chunk_words=64,
            fault_model=SingleBitUpset(),
        )
        assert direct == ssu_front

"""Out-of-core blocking and streaming aggregation.

The load-bearing property: **the block partition changes no emitted
number**.  Campaign metric columns,
Pareto fronts and rate-grid optima must be *bit-identical* for block
sizes 1, 7, 64 and "everything in one block" — including ragged last
blocks — because the engines' fault streams are counter-based per run
and the grid models are elementwise along the blocked axes.  The
Hypothesis suites below state exactly that, over both campaign and
pareto kinds; the deterministic tests cover the aggregator's running
moments, merge associativity, error paths and the blocks/peak-bytes
telemetry.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.adpcm import AdpcmEncodeApp
from repro.batch.design import grid_optimal_chunks_for_rates
from repro.batch.engine import METRIC_COLUMNS, iter_column_blocks, simulate_columns
from repro.batch.model import BatchTaskModel
from repro.batch.pareto import grid_pareto_front
from repro.batch.streaming import (
    DEFAULT_BLOCK,
    ENV_BLOCK,
    StreamingAggregator,
    _BLOCKS,
    _PEAK,
    batch_block_size,
    iter_blocks,
    note_blocks,
    note_peak_bytes,
)
from repro.core.config import PAPER_OPERATING_POINT
from repro.core.strategies import HybridStrategy
from repro.faults.campaign import aggregate_runs

#: The block sizes of the invariance contract (None = one single block).
BLOCK_SIZES = (1, 7, 64, None)

STRESS = PAPER_OPERATING_POINT.with_overrides(error_rate=2e-4)

_MODEL_CACHE: dict[str, object] = {}


def _campaign_model() -> BatchTaskModel:
    """One module-cached small campaign model (profiling is the slow part)."""
    model = _MODEL_CACHE.get("model")
    if model is None:
        app = AdpcmEncodeApp(frame_samples=320)
        strategy = HybridStrategy(64, STRESS, extra_buffer_words=app.state_words())
        model = BatchTaskModel(app, strategy, constraints=STRESS)
        _MODEL_CACHE["model"] = model
    return model


class TestBlockSizeConfig:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_BLOCK, raising=False)
        assert batch_block_size() == DEFAULT_BLOCK

    def test_zero_disables_blocking(self, monkeypatch):
        monkeypatch.setenv(ENV_BLOCK, "0")
        assert batch_block_size() is None

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv(ENV_BLOCK, "1234")
        assert batch_block_size() == 1234

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(ENV_BLOCK, "lots")
        with pytest.raises(ValueError, match="not an integer"):
            batch_block_size()
        monkeypatch.setenv(ENV_BLOCK, "-3")
        with pytest.raises(ValueError, match=">= 0"):
            batch_block_size()


class TestIterBlocks:
    @given(
        total=st.integers(min_value=0, max_value=300),
        block=st.sampled_from(BLOCK_SIZES),
    )
    @settings(max_examples=60, deadline=None)
    def test_slices_partition_the_range(self, total, block):
        pieces = list(iter_blocks(total, block))
        covered = [i for piece in pieces for i in range(piece.start, piece.stop)]
        assert covered == list(range(total))
        if block is not None:
            assert all(piece.stop - piece.start <= block for piece in pieces)
            # Only the last block may be ragged.
            assert all(
                piece.stop - piece.start == block for piece in pieces[:-1]
            )

    def test_none_resolves_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_BLOCK, "5")
        assert [s.stop - s.start for s in iter_blocks(12)] == [5, 5, 2]
        monkeypatch.setenv(ENV_BLOCK, "0")
        assert [s for s in iter_blocks(12)] == [slice(0, 12)]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            list(iter_blocks(-1))
        with pytest.raises(ValueError):
            list(iter_blocks(10, -2))


class TestTelemetry:
    def test_note_blocks_counts(self):
        before = _BLOCKS.value(kind="unit-test")
        note_blocks("unit-test")
        note_blocks("unit-test", 3)
        assert _BLOCKS.value(kind="unit-test") == before + 4

    def test_peak_bytes_keeps_the_maximum(self):
        note_peak_bytes("unit-test-peak", 100)
        note_peak_bytes("unit-test-peak", 40)  # lower: ignored
        assert _PEAK.value(kind="unit-test-peak") == 100.0
        note_peak_bytes("unit-test-peak", 250)
        assert _PEAK.value(kind="unit-test-peak") == 250.0

    def test_campaign_blocks_are_counted(self):
        model = _campaign_model()
        before = _BLOCKS.value(kind="campaign")
        list(iter_column_blocks(model, range(10), block=3))
        assert _BLOCKS.value(kind="campaign") == before + 4
        assert _PEAK.value(kind="campaign") > 0


# ---------------------------------------------------------------------- #
# StreamingAggregator vs the unblocked aggregation path
# ---------------------------------------------------------------------- #
_columns_strategy = st.integers(min_value=1, max_value=40).flatmap(
    lambda rows: st.fixed_dictionaries(
        {
            name: st.lists(
                st.floats(
                    min_value=-1e9, max_value=1e9, allow_nan=False, width=64
                ),
                min_size=rows,
                max_size=rows,
            )
            for name in ("alpha", "beta", "gamma")
        }
    )
)


class TestStreamingAggregator:
    @given(columns=_columns_strategy, block=st.sampled_from(BLOCK_SIZES))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_aggregate_runs(self, columns, block):
        arrays = {name: np.asarray(vals) for name, vals in columns.items()}
        rows = len(arrays["alpha"])
        aggregator = StreamingAggregator()
        for piece in iter_blocks(rows, block):
            aggregator.update({n: a[piece] for n, a in arrays.items()})
        report = aggregator.report()
        reference = aggregate_runs(
            [{n: a[i] for n, a in arrays.items()} for i in range(rows)]
        )
        assert report.runs == reference.runs == rows
        assert sorted(report.metrics) == sorted(reference.metrics)
        for name in report.metrics:
            got, want = report[name], reference[name]
            for stat in ("count", "mean", "stdev", "median", "p95", "minimum", "maximum"):
                assert getattr(got, stat) == getattr(want, stat), (name, stat)

    @given(columns=_columns_strategy, split=st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_single_aggregator(self, columns, split):
        arrays = {name: np.asarray(vals) for name, vals in columns.items()}
        rows = len(arrays["alpha"])
        split = min(split, rows)
        left, right = StreamingAggregator(), StreamingAggregator()
        if split:
            left.update({n: a[:split] for n, a in arrays.items()})
        if rows - split:
            right.update({n: a[split:] for n, a in arrays.items()})
        left.merge(right)
        whole = StreamingAggregator()
        whole.update(arrays)
        assert left.runs == whole.runs
        for name in whole._states:
            assert left.mean(name) == pytest.approx(whole.mean(name), rel=1e-12, abs=1e-12)
            assert left.report()[name].median == whole.report()[name].median

    def test_running_moments_match_statistics(self):
        values = [1.0, 4.0, -2.5, 8.0, 0.25, 9.5, 3.0]
        aggregator = StreamingAggregator()
        for value in values:
            aggregator.update({"m": [value]})
        assert aggregator.mean("m") == pytest.approx(statistics.fmean(values))
        assert aggregator.stdev("m") == pytest.approx(statistics.stdev(values))
        assert aggregator.nbytes == len(values) * 8

    def test_requested_metrics_filter_and_order(self):
        aggregator = StreamingAggregator(metrics=("b", "a"))
        aggregator.update({"a": [1.0], "b": [2.0], "noise": [9.0]})
        report = aggregator.report()
        assert list(report.metrics) == ["b", "a"]

    def test_error_paths(self):
        aggregator = StreamingAggregator(metrics=("a",))
        with pytest.raises(ValueError, match="missing requested"):
            aggregator.update({"b": [1.0]})
        ragged = StreamingAggregator()
        with pytest.raises(ValueError, match="ragged"):
            ragged.update({"a": [1.0, 2.0], "b": [1.0]})
        with pytest.raises(ValueError, match="no aggregatable"):
            StreamingAggregator(metrics=()).update({})
        drift = StreamingAggregator()
        drift.update({"a": [1.0]})
        with pytest.raises(ValueError, match="metric set changed"):
            drift.update({"a": [1.0], "b": [2.0]})
        with pytest.raises(ValueError, match="at least one run"):
            StreamingAggregator().report()
        other = StreamingAggregator()
        other.update({"z": [1.0]})
        with pytest.raises(ValueError, match="different metric sets"):
            drift.merge(other)

    def test_stdev_of_single_run_is_zero(self):
        aggregator = StreamingAggregator()
        aggregator.update({"m": [3.0]})
        assert aggregator.stdev("m") == 0.0
        assert math.isinf(aggregator._states["m"].minimum) is False


# ---------------------------------------------------------------------- #
# Block-size invariance of the engines (campaign + pareto + rate grid)
# ---------------------------------------------------------------------- #
class TestCampaignBlockInvariance:
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=1,
            max_size=70,
            unique=True,
        ),
        block=st.sampled_from(BLOCK_SIZES),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_columns_byte_identical_for_every_block_size(self, seeds, block):
        model = _campaign_model()
        reference = simulate_columns(model, seeds, block=len(seeds))
        blocked = simulate_columns(model, seeds, block=block)
        assert set(blocked) == set(reference) == set(METRIC_COLUMNS)
        for name in METRIC_COLUMNS:
            assert blocked[name].dtype == reference[name].dtype
            assert blocked[name].tobytes() == reference[name].tobytes(), name

    def test_streamed_report_matches_materialized(self):
        model = _campaign_model()
        seeds = list(range(71))  # ragged against both 7 and 64
        reference = aggregate_runs(
            [
                {n: c[i] for n, c in simulate_columns(model, seeds).items()}
                for i in range(len(seeds))
            ],
            metrics=[n for n in METRIC_COLUMNS if n != "seed"],
        )
        for block in BLOCK_SIZES:
            aggregator = StreamingAggregator(
                metrics=[n for n in METRIC_COLUMNS if n != "seed"]
            )
            for columns in iter_column_blocks(model, seeds, block=block):
                aggregator.update(columns)
            report = aggregator.report()
            for name in reference.metrics:
                for stat in ("count", "mean", "stdev", "median", "p95"):
                    assert getattr(report[name], stat) == getattr(
                        reference[name], stat
                    ), (block, name, stat)


class TestGridBlockInvariance:
    def _front(self, block):
        return grid_pareto_front(
            "adpcm-encode",
            nodes=("65nm",),
            schemes=("bch",),
            correctable_bits=(2, 4),
            rate_levels=(1e-6, 1e-5),
            max_chunk_words=33,  # ragged against 7 and 64
            block=block,
        )

    @given(block=st.sampled_from(BLOCK_SIZES))
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pareto_front_identical_for_every_block_size(self, block):
        reference = _MODEL_CACHE.get("front")
        if reference is None:
            reference = _MODEL_CACHE["front"] = self._front(None)
        front = self._front(block)
        assert front.evaluated_points == reference.evaluated_points
        assert front.points == reference.points
        assert front == reference

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_rate_grid_optima_identical(self, block):
        app = AdpcmEncodeApp(frame_samples=320)
        characterization = app.characterize(app.generate_input(0))
        rates = np.logspace(-8, -4, 23)
        reference = grid_optimal_chunks_for_rates(
            characterization,
            PAPER_OPERATING_POINT,
            rates,
            max_chunk_words=64,
            infeasible_chunk=0,
        )
        blocked = grid_optimal_chunks_for_rates(
            characterization,
            PAPER_OPERATING_POINT,
            rates,
            max_chunk_words=64,
            infeasible_chunk=0,
            block=block,
        )
        assert 0 in blocked  # the infeasible tail is really exercised
        assert blocked == reference

"""Tests for the fault-injection campaign aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import aggregate_columns, aggregate_runs


def _runs(seeds, metric=lambda seed: {"value": float(seed)}):
    return [metric(seed) for seed in seeds]


class TestCampaignAggregation:
    def test_aggregates_mean_min_max(self):
        report = aggregate_runs(_runs([1, 2, 3, 4]))
        result = report["value"]
        assert result.mean == pytest.approx(2.5)
        assert result.minimum == 1.0
        assert result.maximum == 4.0
        assert report.runs == 4
        assert report.mean("value") == pytest.approx(2.5)

    def test_stdev_zero_for_single_run(self):
        report = aggregate_runs(_runs([0], lambda seed: {"value": 3.0}))
        assert report["value"].stdev == 0.0

    def test_multiple_metrics(self):
        report = aggregate_runs(
            _runs(range(5), lambda seed: {"energy": seed * 2.0, "cycles": seed + 10.0})
        )
        assert set(report.metrics) == {"energy", "cycles"}
        assert report["cycles"].mean == pytest.approx(12.0)

    def test_raw_results_preserved(self):
        report = aggregate_runs(_runs([5, 6]))
        assert report.raw == [{"value": 5.0}, {"value": 6.0}]

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError, match="at least one run"):
            aggregate_runs([])


class TestTailStatistics:
    def test_count_median_p95(self):
        report = aggregate_runs(_runs(range(1, 11)))
        result = report["value"]
        assert result.count == 10
        assert result.median == pytest.approx(5.5)
        # numpy-style linear interpolation: 0.95 * (10 - 1) = rank 8.55.
        assert result.p95 == pytest.approx(9.55)

    def test_single_run_tail_statistics_degenerate(self):
        report = aggregate_runs(_runs([0], lambda seed: {"value": 3.0}))
        assert report["value"].median == 3.0
        assert report["value"].p95 == 3.0
        assert report["value"].count == 1

    def test_render_surfaces_tail_columns(self):
        report = aggregate_runs(_runs([0, 1, 2]))
        text = report.render("Demo campaign")
        assert "Demo campaign (3 runs)" in text
        for column in ("count", "mean", "median", "p95"):
            assert column in text


class TestRaggedMetricSets:
    @staticmethod
    def _ragged(seed):
        outcome = {"always": float(seed)}
        if seed % 2 == 0:
            outcome["sometimes"] = float(seed)
        return outcome

    def test_ragged_metrics_raise_by_default(self):
        with pytest.raises(ValueError, match=r"'sometimes' is missing from runs \[1\]"):
            aggregate_runs(_runs([0, 1, 2], self._ragged))

    def test_aggregate_runs_ignores_labels_and_restricts_metrics(self):
        raw = [
            {"application": "adpcm-encode", "energy": 1.0, "cycles": 10.0},
            {"application": "adpcm-encode", "energy": 2.0, "cycles": 20.0},
        ]
        report = aggregate_runs(raw, metrics=["energy"])
        assert set(report.metrics) == {"energy"}
        assert report["energy"].mean == pytest.approx(1.5)

    def test_aggregate_runs_rejects_unreported_metric(self):
        with pytest.raises(ValueError, match="'missing' was reported by no run"):
            aggregate_runs([{"a": 1.0}], metrics=["missing"])

    def test_boolean_metrics_aggregate_as_zero_one(self):
        report = aggregate_runs(
            _runs([0, 1, 2], lambda seed: {"ok": seed % 2 == 0, "v": float(seed)})
        )
        assert report["ok"].values == (1.0, 0.0, 1.0)
        assert report["ok"].mean == pytest.approx(2 / 3)


class TestMetricRule:
    def test_default_is_every_numeric_column_but_the_seed_sorted(self):
        raw = [{"seed": 7, "zeta": 1.0, "label": "x", "alpha": 2}]
        report = aggregate_runs(raw)
        assert list(report.metrics) == ["alpha", "zeta"]
        assert report.raw == raw

    def test_named_metrics_keep_their_order_and_may_include_the_seed(self):
        raw = [{"seed": 7, "zeta": 1.0, "alpha": 2.0}]
        report = aggregate_runs(raw, metrics=["zeta", "seed", "zeta"])
        assert list(report.metrics) == ["zeta", "seed"]
        assert report["seed"].values == (7.0,)


class TestAggregateColumns:
    def test_columns_fold_in_run_order_without_the_seed(self):
        columns = {
            "seed": np.array([0.0, 1.0, 2.0]),
            "b": np.array([3.0, 1.0, 2.0]),
            "a": np.array([5.0, 6.0, 7.0]),
        }
        report = aggregate_columns(columns, runs=3)
        assert list(report.metrics) == ["a", "b"]
        assert report.runs == 3
        assert report.raw == []
        assert report["b"].values.tolist() == [3.0, 1.0, 2.0]
        assert report["b"].median == 2.0

    def test_columns_are_kept_as_given(self):
        column = (1.0, 2.0)
        report = aggregate_columns({"a": column}, runs=2)
        assert report["a"].values is column

    def test_requested_metric_missing_from_the_columns_raises(self):
        with pytest.raises(ValueError, match="'b' was reported by no run"):
            aggregate_columns({"a": np.ones(2)}, runs=2, metrics=("b",))

    def test_requires_at_least_one_run(self):
        with pytest.raises(ValueError, match="at least one run"):
            aggregate_columns({}, runs=0)

    def test_rows_are_rebuilt_on_every_read(self):
        calls = []
        report = aggregate_columns({"a": (1.0,)}, runs=1, rows=lambda: calls.append(1) or [])
        assert report.raw == [] and report.raw == []
        assert len(calls) == 2

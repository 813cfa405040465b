"""Tests for the Session facade and the uniform ResultSet container."""

from __future__ import annotations

import json

import pytest

from repro.api.results import ResultSet, render_result_sets
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec, SweepSpec


class TestResultSet:
    @pytest.fixture
    def result_set(self):
        return ResultSet.from_records(
            "Demo",
            [
                {"name": "a", "value": 1.5, "_private": "hidden"},
                {"name": "b", "extra": True},
            ],
            footer="two rows",
        )

    def test_columns_inferred_in_first_seen_order(self, result_set):
        assert result_set.columns == ("name", "value", "extra")

    def test_rows_follow_columns_with_placeholder(self, result_set):
        assert result_set.rows() == [("a", 1.5, "-"), ("b", "-", True)]

    def test_to_dict_omits_missing_and_private(self, result_set):
        payload = result_set.to_dict()
        assert payload["rows"] == [{"name": "a", "value": 1.5}, {"name": "b", "extra": True}]
        assert payload["footer"] == "two rows"

    def test_json_round_trip(self, result_set):
        payload = json.loads(result_set.to_json())
        assert payload["title"] == "Demo"
        assert payload["columns"] == ["name", "value", "extra"]

    def test_csv_header_and_blanks(self, result_set):
        lines = result_set.to_csv().splitlines()
        assert lines[0] == "name,value,extra"
        assert lines[1] == "a,1.5,"

    def test_render_contains_title_and_footer(self, result_set):
        text = result_set.render()
        assert text.startswith("Demo\n")
        assert text.endswith("two rows")

    def test_formatted_dispatch(self, result_set):
        assert result_set.formatted("table") == result_set.render()
        assert result_set.formatted("csv") == result_set.to_csv()
        with pytest.raises(ValueError):
            result_set.formatted("yaml")

    def test_render_many_json_list(self, result_set):
        text = render_result_sets([result_set, result_set], fmt="json")
        assert [s["title"] for s in json.loads(text)] == ["Demo", "Demo"]


class TestSession:
    def test_run_uses_session_constraints_for_spec_sugar(self, stress_constraints):
        session = Session(constraints=stress_constraints)
        spec = session.spec("adpcm-encode", strategy="hybrid-optimal")
        assert spec.constraints == stress_constraints

    def test_sweep_merges_point_columns(self, small_adpcm_encode):
        session = Session()
        sweep = SweepSpec(
            base=ExperimentSpec(app=small_adpcm_encode, kind="optimize"),
            parameters={"constraints.error_rate": (1e-7, 1e-6)},
        )
        result = session.sweep(sweep)
        assert result.columns[0] == "constraints.error_rate"
        assert [r["constraints.error_rate"] for r in result.records] == [1e-7, 1e-6]
        assert all("chunk_words" in r for r in result.records)

    def test_campaign_accepts_bare_spec_with_seeds(self, small_adpcm_encode):
        session = Session()
        report = session.campaign(
            ExperimentSpec(app=small_adpcm_encode), seeds=(0, 1, 2)
        )
        assert report.runs == 3
        assert report["total_cycles"].count == 3

    def test_campaign_rejects_seeds_alongside_campaign_spec(self, small_adpcm_encode):
        session = Session()
        campaign = CampaignSpec(base=ExperimentSpec(app=small_adpcm_encode), seeds=(0,))
        with pytest.raises(ValueError):
            session.campaign(campaign, seeds=(1, 2))

    def test_campaign_rejects_a_metric_no_run_reports(self, small_adpcm_encode):
        campaign = CampaignSpec(
            base=ExperimentSpec(app=small_adpcm_encode, engine="batched"),
            seeds=(0, 1),
            metrics=("energy_nj", "no_such_metric"),
        )
        with pytest.raises(ValueError, match="'no_such_metric' was reported by no run"):
            Session().campaign(campaign)

    def test_campaign_report_result_set_surfaces_tail_metrics(self, small_adpcm_encode):
        session = Session()
        report = session.campaign(ExperimentSpec(app=small_adpcm_encode), seeds=(0, 1))
        result = report.to_result_set("ADPCM campaign")
        assert result.title == "ADPCM campaign (2 runs)"
        assert result.columns == (
            "metric", "count", "mean", "stdev", "median", "p95", "min", "max",
        )
        rendered = result.render()
        assert "median" in rendered and "p95" in rendered


class TestHarnessResultSets:
    def test_fig5_result_set_reproduces_numbers(self, small_adpcm_encode):
        from repro.analysis import fig5_energy

        fig5 = fig5_energy(applications=[small_adpcm_encode], seeds=(0,))
        payload = json.loads(fig5.to_result_set().to_json())
        rows = {
            (row["application"], row["strategy"]): row for row in payload["rows"]
        }
        entry = fig5.outcome("adpcm-encode", "hybrid-optimal")
        assert rows[("adpcm-encode", "hybrid-optimal")]["normalized_energy"] == (
            entry.normalized_energy
        )
        assert ("AVERAGE", "default") in rows

    def test_ablation_result_set_keeps_raw_values(self, small_adpcm_encode):
        from repro.analysis import ablation_error_rate

        result = ablation_error_rate(
            rates=[1e-7, 1e-6], application=small_adpcm_encode
        )
        records = result.to_result_set().records
        assert [r["constraints.error_rate"] for r in records] == [1e-7, 1e-6]

    def test_campaign_excludes_seed_identity_from_metrics(self, small_adpcm_encode):
        session = Session()
        report = session.campaign(ExperimentSpec(app=small_adpcm_encode), seeds=(0, 1))
        assert "seed" not in report.metrics
        assert "total_cycles" in report.metrics
        # The identity stays inspectable through the raw rows.
        assert [row["seed"] for row in report.raw] == [0, 1]

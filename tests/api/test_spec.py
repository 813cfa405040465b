"""Tests for the declarative experiment specs and their serialization."""

from __future__ import annotations

import pickle

import pytest

from repro.api.spec import CampaignSpec, ExperimentSpec, SweepSpec
from repro.core.config import PAPER_OPERATING_POINT


class TestExperimentSpec:
    def test_app_names_are_canonicalized(self):
        spec = ExperimentSpec(app="adpcm encode")
        assert spec.app == "adpcm-encode"

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            ExperimentSpec(app="not-a-benchmark")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(app="adpcm-encode", strategy="not-a-strategy")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(app="adpcm-encode", kind="train")

    def test_execute_requires_app(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="execute")

    def test_feasibility_needs_no_app(self):
        spec = ExperimentSpec(kind="feasibility")
        assert spec.app is None
        assert spec.app_name == ""

    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            app="jpeg-decode",
            strategy="hybrid",
            strategy_params={"chunk_words": 65, "label": "hybrid-optimal"},
            constraints=PAPER_OPERATING_POINT.with_overrides(error_rate=2e-6),
            fault_model="mixed",
            fault_params={"smu_fraction": 0.5},
            seed=7,
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ExperimentSpec(app="g721-encode", strategy="hybrid-optimal", seed=3)
        restored = ExperimentSpec.from_json(spec.to_json(indent=2))
        assert restored == spec
        assert restored.constraints == PAPER_OPERATING_POINT

    def test_from_dict_rejects_unknown_fields(self):
        data = ExperimentSpec(app="adpcm-encode").to_dict()
        data["batch_size"] = 4
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict(data)

    def test_instance_apps_pickle_but_refuse_json(self, small_adpcm_encode):
        spec = ExperimentSpec(app=small_adpcm_encode)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.app_name == spec.app_name
        with pytest.raises(ValueError):
            spec.to_dict()

    def test_with_overrides_plain_and_dotted(self):
        spec = ExperimentSpec(app="adpcm-encode", strategy="hybrid",
                              strategy_params={"chunk_words": 16})
        derived = spec.with_overrides(
            seed=9,
            **{"constraints.error_rate": 1e-7, "strategy_params.chunk_words": 32},
        )
        assert derived.seed == 9
        assert derived.constraints.error_rate == 1e-7
        assert derived.strategy_params["chunk_words"] == 32
        # The original is frozen and untouched.
        assert spec.seed == 0
        assert spec.strategy_params["chunk_words"] == 16

    def test_with_overrides_rejects_unknown_fields(self):
        spec = ExperimentSpec(app="adpcm-encode")
        with pytest.raises(ValueError):
            spec.with_overrides(batch_size=4)
        with pytest.raises(ValueError):
            spec.with_overrides(**{"seed.nested": 1})

    def test_substrate_is_not_a_spec_field(self):
        # The batched engines run on NumPy only; there is nothing to select.
        data = ExperimentSpec(app="adpcm-encode", engine="batched").to_dict()
        assert "substrate" not in data
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict({**data, "substrate": "numpy"})


class TestSweepSpec:
    def test_expand_is_cartesian_in_axis_order(self):
        sweep = SweepSpec(
            base=ExperimentSpec(app="adpcm-encode", kind="optimize"),
            parameters={"constraints.error_rate": (1e-7, 1e-6), "seed": (0, 1)},
        )
        assert len(sweep) == 4
        points = sweep.points()
        assert points[0] == {"constraints.error_rate": 1e-7, "seed": 0}
        assert points[1] == {"constraints.error_rate": 1e-7, "seed": 1}
        assert points[3] == {"constraints.error_rate": 1e-6, "seed": 1}
        specs = sweep.expand()
        assert specs[3].constraints.error_rate == 1e-6
        assert specs[3].seed == 1

    def test_empty_axes_rejected(self):
        base = ExperimentSpec(app="adpcm-encode")
        with pytest.raises(ValueError):
            SweepSpec(base=base, parameters={})
        with pytest.raises(ValueError):
            SweepSpec(base=base, parameters={"seed": ()})

    def test_json_round_trip(self):
        sweep = SweepSpec(
            base=ExperimentSpec(app="adpcm-encode", kind="optimize"),
            parameters={"constraints.error_rate": (1e-7, 1e-6)},
        )
        assert SweepSpec.from_json(sweep.to_json()) == sweep


class TestCampaignSpec:
    def test_runs_expand_to_range_seeds(self):
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), runs=4)
        assert campaign.seeds == (0, 1, 2, 3)
        assert [s.seed for s in campaign.expand()] == [0, 1, 2, 3]

    def test_explicit_seeds_win(self):
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), seeds=(5, 6))
        assert campaign.runs == 2
        assert [s.seed for s in campaign.expand()] == [5, 6]

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), runs=0)

    def test_json_round_trip(self):
        campaign = CampaignSpec(
            base=ExperimentSpec(app="jpeg-decode", strategy="hybrid-optimal"),
            seeds=(0, 1, 2),
            metrics=("energy_pj", "total_cycles"),
            allow_ragged=True,
        )
        assert CampaignSpec.from_json(campaign.to_json()) == campaign

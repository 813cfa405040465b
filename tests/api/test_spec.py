"""Tests for the declarative experiment specs and their serialization."""

from __future__ import annotations

import pickle
import re
import time

import numpy as np
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
        assert campaign.seeds.tolist() == [0, 1, 2, 3]
        assert [s.seed for s in campaign.expand()] == [0, 1, 2, 3]

    def test_explicit_seeds_win(self):
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), seeds=(5, 6))
        assert campaign.runs == 2
        assert [s.seed for s in campaign.expand()] == [5, 6]

    def test_invalid_runs_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), runs=0)

    @pytest.mark.parametrize("runs", (True, "5", 2.0, None, -3))
    def test_non_integer_runs_rejected(self, runs):
        with pytest.raises(ValueError, match="runs must be an integer"):
            CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), runs=runs)

    def test_integer_runs_of_any_integer_type_accepted(self):
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), runs=np.int64(3))
        assert campaign.seeds.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("metrics", ("energy_nj", ["energy_nj", 3], 5))
    def test_metrics_must_be_a_sequence_of_names(self, metrics):
        # A bare string would otherwise be split into one-letter metrics.
        with pytest.raises(ValueError, match="metrics must be a sequence"):
            CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), seeds=(1, 2), metrics=metrics)

    def test_metric_lists_become_tuples(self):
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), metrics=["energy_nj"])
        assert campaign.metrics == ("energy_nj",)

    def test_json_round_trip(self):
        campaign = CampaignSpec(
            base=ExperimentSpec(app="jpeg-decode", strategy="hybrid-optimal"),
            seeds=(0, 1, 2),
            metrics=("energy_pj", "total_cycles"),
        )
        assert CampaignSpec.from_json(campaign.to_json()) == campaign

    @pytest.mark.parametrize("kind", ("optimize", "feasibility", "pareto"))
    def test_design_kind_base_rejected(self, kind):
        # A design kind has no fault seeds: repeating it would silently
        # run something else or nothing at all.
        with pytest.raises(ValueError, match=f"got a '{kind}' base"):
            CampaignSpec(base=ExperimentSpec(app="adpcm-encode", kind=kind), seeds=range(2))


class TestSeedDomain:
    """Seeds are ints (not bools) in [0, 2**64), checked where specs are built."""

    BAD = (-1, 2**64, 2.5, 2.0, "3", True, None)

    @pytest.mark.parametrize("seed", BAD)
    @pytest.mark.parametrize("engine", ("behavioural", "batched"))
    def test_experiment_rejects_non_seeds(self, seed, engine):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            ExperimentSpec(app="adpcm-encode", seed=seed, engine=engine)

    @pytest.mark.parametrize(
        ("seeds", "bad"),
        [
            ([1.5, 2.7], 1.5),
            (["3"], "3"),
            ([True], True),
            ([0, -1], -1),
            ([2**64], 2**64),
            ((0, True), True),
            ([0, True], True),
            (np.array([True, False]), True),
            ((0, 1.5), 1.5),
            ([2.0], 2.0),
            (np.array([0.0, 1.5]), 0.0),
            ((0, -1), -1),
            ([-1, 0], -1),
            (range(-5, 5), -5),
            (range(2, -3, -1), -1),
            (np.array([0, 7, -1, -2]), -1),
            ((2**64,), 2**64),
            ([0, 2**64], 2**64),
            (range(2**64 - 2, 2**64 + 3), 2**64),
            (range(2**64 - 1, 2**70, 2**65), 2**64 - 1 + 2**65),
            (np.array([0, 2**64], dtype=object), 2**64),
        ],
    )
    def test_campaign_rejects_non_seeds(self, seeds, bad):
        # In any container, the message names the first element outside the domain.
        domain = r"campaign seeds must be an integer in \[0, 2\*\*64\), got "
        with pytest.raises(ValueError, match=domain + ".*" + re.escape(str(bad))):
            CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), seeds=seeds)

    def test_campaign_seeds_are_one_read_only_uint64_array(self):
        base = ExperimentSpec(app="adpcm-encode")
        forms = ((3, 2**63, 7), [3, 2**63, 7], np.array([3, 2**63, 7], dtype=np.uint64))
        campaigns = [CampaignSpec(base=base, seeds=form) for form in forms]
        for campaign in campaigns:
            assert campaign.seeds.dtype == np.uint64
            assert not campaign.seeds.flags.writeable
            assert campaign == campaigns[0]
        assert campaigns[0] != CampaignSpec(base=base, seeds=(7, 2**63, 3))
        assert campaigns[0] != CampaignSpec(base=base, seeds=(3, 2**63, 7), metrics=("energy_nj",))
        stepped = CampaignSpec(base=base, seeds=range(0, 6, 2))
        assert stepped == CampaignSpec(base=base, seeds=(0, 2, 4))
        assert campaigns[0].to_dict()["seeds"] == [3, 2**63, 7]
        assert CampaignSpec.from_dict(campaigns[0].to_dict()) == campaigns[0]
        assert [spec.seed for spec in campaigns[0].expand()] == [3, 2**63, 7]

    @staticmethod
    def _writeable():
        seeds = np.arange(3)
        return seeds, seeds

    @staticmethod
    def _read_only_view():
        buffer = np.arange(3, dtype=np.uint64)
        view = buffer[:]
        view.flags.writeable = False
        return view, buffer

    @staticmethod
    def _read_only_owner():
        seeds = np.arange(3, dtype=np.uint64)
        seeds.flags.writeable = False
        return seeds, seeds

    @pytest.mark.parametrize("make", ["_writeable", "_read_only_view", "_read_only_owner"])
    def test_campaign_copies_an_array_the_caller_can_still_change(self, make):
        seeds, handle = getattr(self, make)()
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), seeds=seeds)
        handle.flags.writeable = True  # an array that owns its data may be reopened
        handle[0] = 7
        assert campaign.seeds.tolist() == [0, 1, 2]

    def test_a_million_seed_range_validates_by_its_bounds(self):
        start = time.perf_counter()
        campaign = CampaignSpec(base=ExperimentSpec(app="adpcm-encode"), seeds=range(10**6))
        assert time.perf_counter() - start < 0.1
        assert len(campaign) == campaign.runs == 10**6
        assert campaign.seeds[-1] == 10**6 - 1

    def test_domain_edges_and_integer_types_are_accepted(self):
        top = ExperimentSpec(app="adpcm-encode", seed=2**64 - 1)
        assert top.seed == 2**64 - 1
        spec = ExperimentSpec(app="adpcm-encode", seed=np.int64(7))
        assert spec.seed == 7 and type(spec.seed) is int
        campaign = CampaignSpec(base=spec, seeds=(np.uint64(3), 0))
        assert campaign.seeds.tolist() == [3, 0]
        assert all(type(seed) is int for seed in campaign.to_dict()["seeds"])

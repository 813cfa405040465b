"""Shard-planning tests: spec-list shards, campaign and batched seed-block shards."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.api.executors import BatchCampaignExecutor, execute_spec
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.batch.engine import ColumnBlock, records_from_columns
from repro.service.shards import DEFAULT_SHARD_SIZE, execute_shard_payload, plan_shards
from repro.service.wire import validate_job_payload


def _specs(count: int, engine: str = "behavioural", **overrides) -> list[ExperimentSpec]:
    return [
        ExperimentSpec(app="adpcm-encode", seed=seed, engine=engine, **overrides)
        for seed in range(count)
    ]


def _batch(specs: list[ExperimentSpec], shard_size: int | None = None):
    payload: dict = {"kind": "batch", "specs": [spec.to_dict() for spec in specs]}
    if shard_size is not None:
        payload["shard_size"] = shard_size
    return validate_job_payload(payload)


def _campaign(seeds: int, engine: str = "batched", shard_size: int | None = None):
    base = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal", engine=engine)
    spec = {"base": base.to_dict(), "seeds": list(range(seeds))}
    payload: dict = {"kind": "campaign", "spec": spec}
    if shard_size is not None:
        payload["shard_size"] = shard_size
    return validate_job_payload(payload)


def _kind(shard) -> str:
    """Which work order a shard ships: a seed block or a spec list."""
    return "block" if "seeds" in shard.payload else "specs"


class TestPlanShards:
    def test_behavioural_blocks(self):
        shards = plan_shards(_batch(_specs(10), shard_size=4))
        assert [shard.spec_indices for shard in shards] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert all(_kind(shard) == "specs" for shard in shards)
        assert [spec["seed"] for spec in shards[2].payload["specs"]] == [8, 9]

    def test_default_shard_size(self):
        shards = plan_shards(_batch(_specs(DEFAULT_SHARD_SIZE + 1)))
        assert len(shards) == 2

    def test_small_batched_campaign_stays_one_shard(self):
        # Under the default (64Ki-seed) block size a modest campaign is
        # one worker call amortizing one task profile.
        request = _campaign(32)
        assert request.specs == () and request.runs == 32
        (shard,) = plan_shards(request)
        assert shard.spec_indices == tuple(range(32))
        # The payload carries the campaign's read-only uint64 seed view, not a copy.
        assert shard.payload["seeds"].dtype == np.uint64
        assert not shard.payload["seeds"].flags.writeable
        assert shard.payload["seeds"].tolist() == list(range(32))
        assert "seed" not in shard.payload["base"]

    def test_batched_specs_split_into_seed_blocks(self, monkeypatch):
        # Counter-based streams make rows composition-invariant, so a
        # seed group is cut into the engine's blocks, one shard each.
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "4")
        shards = plan_shards(_batch(_specs(10, engine="batched"), shard_size=1))
        assert [shard.spec_indices for shard in shards] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert all(_kind(shard) == "block" for shard in shards)

    def test_batched_block_follows_engine_block_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "3")
        shards = plan_shards(_campaign(7))
        assert [shard.payload["seeds"].tolist() for shard in shards] == [[0, 1, 2], [3, 4, 5], [6]]
        assert [shard.spec_indices for shard in shards] == [(0, 1, 2), (3, 4, 5), (6,)]
        assert all(set(shard.payload) == {"base", "seeds"} for shard in shards)
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "0")  # unlimited: one shard
        assert len(plan_shards(_campaign(7))) == 1

    def test_one_seed_batched_campaign_is_one_block(self):
        (shard,) = plan_shards(_campaign(1))
        assert shard.payload["seeds"].tolist() == [0]

    def test_behavioural_campaign_ships_shard_size_seed_blocks(self, monkeypatch):
        # A behavioural campaign stays whole on the wire; its seeds are cut
        # by shard_size, not by the batched engine's block size, so a
        # process pool still spreads it.
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "3")
        shards = plan_shards(_campaign(10, engine="behavioural"))
        assert [shard.payload["seeds"].tolist() for shard in shards] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9],
        ]
        assert [shard.spec_indices for shard in shards] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert all(set(shard.payload) == {"base", "seeds"} for shard in shards)
        assert shards[0].payload["base"]["engine"] == "behavioural"
        assert "seed" not in shards[0].payload["base"]
        assert len(plan_shards(_campaign(3, engine="behavioural", shard_size=1))) == 3

    def test_mixed_engines_split_correctly(self):
        shards = plan_shards(_batch(_specs(3) + _specs(5, engine="batched"), shard_size=2))
        blocks = [shard for shard in shards if _kind(shard) == "block"]
        lists = [shard for shard in shards if _kind(shard) == "specs"]
        assert [shard.spec_indices for shard in blocks] == [(3, 4, 5, 6, 7)]
        assert [shard.spec_indices for shard in lists] == [(0, 1), (2,)]

    def test_lone_batched_specs_ship_as_spec_lists(self):
        # A one-seed group gains nothing from a block shard; spec-list
        # shards let the pool spread a one-seed-per-point sweep.
        specs = [
            ExperimentSpec(app="adpcm-encode", strategy=strategy, engine="batched")
            for strategy in ("default", "sw-mitigation", "hybrid-optimal")
        ]
        shards = plan_shards(_batch(specs, shard_size=2))
        assert [_kind(shard) for shard in shards] == ["specs", "specs"]
        assert [shard.spec_indices for shard in shards] == [(0, 1), (2,)]

    def test_distinct_batched_bases_are_separate_groups(self):
        specs = _specs(2, engine="batched") + _specs(2, engine="batched", strategy="hw-mitigation")
        shards = plan_shards(_batch(specs[::2] + specs[1::2]))
        assert [shard.spec_indices for shard in shards] == [(0, 2), (1, 3)]
        assert [shard.payload["base"]["strategy"] for shard in shards] == [
            "default",
            "hw-mitigation",
        ]

    def test_split_batched_execution_is_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "2")
        shards = plan_shards(_campaign(6))
        assert len(shards) == 3
        rows: list[list[dict]] = []
        for shard in shards:
            block = execute_shard_payload(shard.payload)
            rows.extend([row] for row in records_from_columns(block))
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        base = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal", engine="batched")
        local = Session().campaign(CampaignSpec(base=base, seeds=tuple(range(6))))
        assert rows == [[row] for row in local.raw]

    def test_shard_indices_are_contiguous_ids(self):
        shards = plan_shards(_batch(_specs(6), shard_size=2))
        assert [shard.index for shard in shards] == [0, 1, 2]


class TestExecuteShardPayload:
    def test_behavioural_block_payload_runs_every_seed(self, engine_runs):
        (shard,) = plan_shards(_campaign(3, engine="behavioural"))
        block = execute_shard_payload(shard.payload)
        assert isinstance(block, ColumnBlock)
        assert engine_runs("behavioural") == 3
        assert engine_runs("batched") == 0
        execute_shard_payload(shard.payload)  # served the units it stored
        assert engine_runs("behavioural") == 3
        base = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal")
        assert records_from_columns(block) == [
            execute_spec(replace(base, seed=seed)).record for seed in range(3)
        ]

    def test_behavioural_payload_runs(self, engine_runs):
        (shard,) = plan_shards(_batch(_specs(2), shard_size=2))
        assert list(shard.payload) == ["specs"]
        records_per_spec = execute_shard_payload(shard.payload)
        assert len(records_per_spec) == 2
        assert records_per_spec[0][0]["seed"] == 0
        assert engine_runs("behavioural") == 2
        assert engine_runs("batched") == 0

    def test_batched_payload_matches_local_batch_executor(self, engine_runs):
        specs = _specs(6, engine="batched")
        (shard,) = plan_shards(_batch(specs))
        remote = execute_shard_payload(shard.payload)
        assert engine_runs("batched") == 6
        local = BatchCampaignExecutor().map(specs)  # served the block the shard stored
        assert engine_runs("batched") == 6
        rows = [[row] for row in records_from_columns(remote)]
        assert rows == [outcome.records for outcome in local]

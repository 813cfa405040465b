"""Shard-planning tests: behavioural blocks, batched seed-block splits."""

from __future__ import annotations

from repro.api.spec import ExperimentSpec
from repro.service.shards import (
    DEFAULT_SHARD_SIZE,
    execute_shard_payload,
    max_useful_workers,
    plan_shards,
)


def _dicts(count: int, engine: str = "behavioural") -> list[dict]:
    return [
        ExperimentSpec(app="adpcm-encode", seed=seed, engine=engine).to_dict()
        for seed in range(count)
    ]


def _engine(shard, dicts: list[dict]) -> str:
    """The one engine every spec of ``shard`` declares."""
    (engine,) = {dicts[i]["engine"] for i in shard.spec_indices}
    return engine


class TestPlanShards:
    def test_behavioural_blocks(self):
        dicts = _dicts(10)
        shards = plan_shards(dicts, shard_size=4)
        assert [shard.spec_indices for shard in shards] == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert all(_engine(shard, dicts) == "behavioural" for shard in shards)

    def test_default_shard_size(self):
        shards = plan_shards(_dicts(DEFAULT_SHARD_SIZE + 1))
        assert len(shards) == 2

    def test_small_batched_campaign_stays_one_shard(self):
        # Under the default (64Ki-seed) batched block size a modest
        # campaign is one worker call amortizing one task profile.
        dicts = _dicts(32, engine="batched")
        shards = plan_shards(dicts, shard_size=4)
        assert len(shards) == 1
        assert _engine(shards[0], dicts) == "batched"
        assert shards[0].spec_indices == tuple(range(32))

    def test_batched_specs_split_into_seed_blocks(self):
        # Counter-based streams make rows composition-invariant, so the
        # batched side may block too — reassembly is bit-identical.
        dicts = _dicts(10, engine="batched")
        shards = plan_shards(dicts, shard_size=4, batched_shard_size=4)
        assert [shard.spec_indices for shard in shards] == [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9),
        ]
        assert all(_engine(shard, dicts) == "batched" for shard in shards)

    def test_batched_block_follows_engine_block_size(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "3")
        shards = plan_shards(_dicts(7, engine="batched"))
        assert [len(shard.spec_indices) for shard in shards] == [3, 3, 1]
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "0")  # unlimited: one shard
        assert len(plan_shards(_dicts(7, engine="batched"))) == 1

    def test_mixed_engines_split_correctly(self):
        dicts = _dicts(3) + _dicts(5, engine="batched")
        shards = plan_shards(dicts, shard_size=2)
        batched = [shard for shard in shards if _engine(shard, dicts) == "batched"]
        behavioural = [shard for shard in shards if _engine(shard, dicts) == "behavioural"]
        assert len(batched) == 1
        assert batched[0].spec_indices == (3, 4, 5, 6, 7)
        assert [shard.spec_indices for shard in behavioural] == [(0, 1), (2,)]

    def test_split_batched_execution_is_bit_identical(self):
        from repro.api.executors import BatchCampaignExecutor
        from repro.api.spec import ExperimentSpec

        dicts = _dicts(6, engine="batched")
        shards = plan_shards(dicts, batched_shard_size=2)
        assert len(shards) == 3
        rows: list[list[dict]] = []
        for shard in shards:
            rows.extend(execute_shard_payload(shard.payload(dicts))["records_per_spec"])
        whole = BatchCampaignExecutor().map([ExperimentSpec.from_dict(d) for d in dicts])
        assert rows == [outcome.records for outcome in whole]

    def test_shard_indices_are_contiguous_ids(self):
        shards = plan_shards(_dicts(6), shard_size=2)
        assert [shard.index for shard in shards] == [0, 1, 2]

    def test_max_useful_workers(self):
        shards = plan_shards(_dicts(10), shard_size=4)
        assert max_useful_workers(shards) == 3
        assert max_useful_workers([]) == 1


class TestExecuteShardPayload:
    def test_behavioural_payload_runs(self, engine_runs):
        shards = plan_shards(_dicts(2), shard_size=2)
        payload = shards[0].payload(_dicts(2))
        assert list(payload) == ["specs"]
        result = execute_shard_payload(payload)
        assert len(result["records_per_spec"]) == 2
        assert result["records_per_spec"][0][0]["seed"] == 0
        assert engine_runs("behavioural") == 2
        assert engine_runs("batched") == 0

    def test_batched_payload_matches_local_batch_executor(self):
        from repro.api.executors import BatchCampaignExecutor
        from repro.api.spec import ExperimentSpec

        dicts = _dicts(6, engine="batched")
        shards = plan_shards(dicts)
        payload = shards[0].payload(dicts)
        assert list(payload) == ["specs"]
        remote = execute_shard_payload(payload)
        local = BatchCampaignExecutor().map(
            [ExperimentSpec.from_dict(d) for d in dicts]
        )
        assert remote["records_per_spec"] == [outcome.records for outcome in local]

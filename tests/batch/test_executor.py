"""API plumbing of the batched engine: executor, spec field, session, CLI."""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api.executors import (
    BATCH_GROUPS,
    BatchCampaignExecutor,
    SerialExecutor,
    _build_batch_model,
    execute_spec,
)
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.batch.engine import (
    block_from_records,
    iter_column_blocks,
    join_blocks,
    records_from_columns,
    slice_block,
)
from repro.core.config import PAPER_OPERATING_POINT
from repro.warehouse import ResultWarehouse

STRESS = PAPER_OPERATING_POINT.with_overrides(error_rate=5e-5)


class TestSpecEngineField:
    def test_defaults_to_behavioural(self):
        assert ExperimentSpec(app="adpcm-encode").engine == "behavioural"

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExperimentSpec(app="adpcm-encode", engine="warp")

    def test_batched_refuses_traces(self):
        with pytest.raises(ValueError, match="trace"):
            ExperimentSpec(app="adpcm-encode", engine="batched", collect_trace=True)

    def test_round_trips_through_dict_and_json(self):
        spec = ExperimentSpec(app="adpcm-encode", engine="batched")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_old_payloads_without_engine_still_load(self):
        payload = ExperimentSpec(app="adpcm-encode").to_dict()
        payload.pop("engine")
        assert ExperimentSpec.from_dict(payload).engine == "behavioural"


class TestBatchCampaignExecutor:
    def test_preserves_input_order_and_seeds(self, small_adpcm_encode, engine_runs):
        specs = [
            ExperimentSpec(
                app=small_adpcm_encode, strategy="default", seed=seed, engine="batched"
            )
            for seed in (5, 1, 9)
        ]
        outcomes = BatchCampaignExecutor().map(specs)
        assert [o.record["seed"] for o in outcomes] == [5, 1, 9]
        assert all(o.spec is spec for o, spec in zip(outcomes, specs))
        assert engine_runs("batched") == 3

    def test_groups_by_everything_but_seed(self, small_adpcm_encode, engine_runs):
        interleaved = []
        for seed in range(3):
            interleaved.append(
                ExperimentSpec(
                    app=small_adpcm_encode, strategy="default", seed=seed, engine="batched"
                )
            )
            interleaved.append(
                ExperimentSpec(
                    app=small_adpcm_encode,
                    strategy="hybrid",
                    strategy_params={"chunk_words": 64},
                    seed=seed,
                    engine="batched",
                )
            )
        groups = BATCH_GROUPS.value()
        outcomes = BatchCampaignExecutor().map(interleaved)
        strategies = [o.record["strategy"] for o in outcomes]
        assert strategies == ["default", "hybrid-optimal"] * 3
        assert BATCH_GROUPS.value() - groups == 2
        assert engine_runs("batched") == 6

    def test_non_execute_kinds_fall_back(self, small_adpcm_encode, engine_runs):
        # Everything but batched execute specs runs on the fallback with
        # its spec's engine: behavioural execute specs keep theirs, and a
        # design spec always names the grid solver.
        behavioural = ExperimentSpec(app=small_adpcm_encode, strategy="hybrid-optimal", seed=3)
        specs = [
            ExperimentSpec(app=small_adpcm_encode, kind="optimize"),
            ExperimentSpec(app=small_adpcm_encode, strategy="default", seed=1, engine="batched"),
            behavioural,
        ]
        outcomes = BatchCampaignExecutor().map(specs)
        assert outcomes[0].record["chunk_words"] > 0
        assert outcomes[0].spec.engine == "batched"
        assert engine_runs("batched", kind="optimize") == 1
        assert outcomes[1].record["strategy"] == "default"
        assert engine_runs("batched") == 1
        assert outcomes[2].record == execute_spec(behavioural).record
        assert outcomes[2].spec.engine == "behavioural"

    def test_groups_of_one_seed_go_to_the_fallback(self, small_adpcm_encode):
        class Recording(SerialExecutor):
            def map(self, specs):
                self.seen = list(specs)
                return super().map(specs)

        def spec(strategy, seed):
            return ExperimentSpec(
                app=small_adpcm_encode, strategy=strategy, seed=seed, engine="batched"
            )

        specs = [spec("default", 0), spec("sw-mitigation", 0), spec("default", 1)]
        fallback = Recording()
        groups = BATCH_GROUPS.value()
        outcomes = BatchCampaignExecutor(fallback=fallback).map(specs)
        assert fallback.seen == [specs[1]]
        assert BATCH_GROUPS.value() - groups == 1
        assert [o.record for o in outcomes] == [execute_spec(s).record for s in specs]

    def test_rows_report_seeds_above_2_53_exactly(self):
        # The float64 seed column rounds 2**53 + 1; rows take the int seed.
        seeds = (2**53 + 1, 2**64 - 1)
        base = ExperimentSpec(app="adpcm-encode", strategy="default", engine="batched")
        solo = execute_spec(replace(base, seed=seeds[0])).record
        assert solo["seed"] == seeds[0]
        grouped = BatchCampaignExecutor().map([replace(base, seed=seed) for seed in seeds])
        assert [outcome.record["seed"] for outcome in grouped] == list(seeds)
        report = Session().campaign(CampaignSpec(base=base, seeds=seeds))
        assert [row["seed"] for row in report.raw] == list(seeds)


class TestSeedArrays:
    """``ColumnBlock.seeds`` is one read-only ``uint64`` array on every path."""

    SEEDS = [3, 2**53 + 1, 2**63, 2**64 - 1]

    def test_every_block_path_keeps_a_read_only_uint64_array(self, tmp_path):
        base = ExperimentSpec(app="adpcm-encode", strategy="default", engine="batched")
        blocks = list(iter_column_blocks(_build_batch_model(base), self.SEEDS, block=3))
        joined = join_blocks(blocks)
        sliced = slice_block(joined, slice(1, 3))
        rebuilt = block_from_records(records_from_columns(joined), self.SEEDS)
        warehouse = ResultWarehouse(tmp_path)
        assert warehouse.put(
            "k" * 64, spec={}, kind="execute", engine="batched", block=joined, fingerprint="fp"
        )
        served = warehouse.get("k" * 64).block
        shipped = pickle.loads(pickle.dumps(joined))  # a process worker's result
        for block in (*blocks, joined, sliced, rebuilt, served, shipped):
            assert isinstance(block.seeds, np.ndarray)
            assert block.seeds.dtype == np.uint64
            assert not block.seeds.flags.writeable
        assert [len(block.seeds) for block in blocks] == [3, 1]
        for block in (joined, rebuilt, served, shipped):
            assert block.seeds.tolist() == self.SEEDS
        assert sliced.seeds.tolist() == self.SEEDS[1:3]
        assert np.shares_memory(sliced.seeds, joined.seeds)
        rows = records_from_columns(served)
        assert [row["seed"] for row in rows] == self.SEEDS
        assert all(type(row["seed"]) is int for row in rows)
        with pytest.raises(ValueError, match="read-only"):
            joined.seeds[0] = 1


class TestSessionEngine:
    def test_campaign_engine_argument(self, small_adpcm_encode, engine_runs):
        session = Session(constraints=STRESS)
        base = session.spec(small_adpcm_encode, strategy="default")
        spec = CampaignSpec(base=replace(base, engine="batched"), runs=16)
        report = session.campaign(spec)
        assert report.runs == 16
        assert report["upsets_injected"].mean > 0
        assert engine_runs("batched") == 16
        assert engine_runs("behavioural") == 0

    def test_campaign_honours_spec_engine(self, small_adpcm_encode):
        session = Session(constraints=STRESS)
        base = session.spec(small_adpcm_encode, strategy="default", engine="batched")
        report = session.campaign(CampaignSpec(base=base, runs=8))
        behavioural = session.campaign(
            CampaignSpec(base=session.spec(small_adpcm_encode, strategy="default"), runs=8)
        )
        # Both engines must agree on the deterministic skeleton metrics.
        assert report["total_cycles"].mean == behavioural["total_cycles"].mean
        assert report["useful_cycles"].mean == behavioural["useful_cycles"].mean

    def test_campaign_rejects_unknown_engine(self, small_adpcm_encode):
        session = Session()
        with pytest.raises(ValueError, match="unknown engine"):
            session.campaign(
                CampaignSpec(base=session.spec(small_adpcm_encode, engine="quantum"), runs=2)
            )

    def test_campaign_takes_no_engine_argument(self, small_adpcm_encode):
        # The spec alone picks the engine; there is no second place to say it.
        session = Session()
        with pytest.raises(TypeError, match="engine"):
            session.campaign(session.spec(small_adpcm_encode), seeds=range(2), engine="batched")

    def test_explicit_behavioural_overrides_batched_spec(self, small_adpcm_encode):
        # Cross-checking a batched spec against the ground truth must
        # really run the behavioural engine, not silently stay batched.
        session = Session(constraints=STRESS)
        batched_base = session.spec(
            small_adpcm_encode, strategy="hybrid",
            strategy_params={"chunk_words": 64}, engine="batched",
        )
        behavioural_base = batched_base.with_overrides(engine="behavioural")
        overridden = session.campaign(
            CampaignSpec(base=replace(batched_base, engine="behavioural"), runs=4)
        )
        reference = session.campaign(CampaignSpec(base=behavioural_base, runs=4))
        assert [dict(r) for r in overridden.raw] == [dict(r) for r in reference.raw]

    def test_custom_executor_is_wrapped_for_batched_groups(self, small_adpcm_encode):
        # A user-supplied executor must not degrade a batched campaign to
        # one model build per seed; the vectorized grouping is kept and
        # the caller's executor only serves non-batchable specs.
        session = Session(constraints=STRESS)
        base = session.spec(small_adpcm_encode, strategy="default")
        spec = CampaignSpec(base=replace(base, engine="batched"), runs=10)
        groups = BATCH_GROUPS.value()
        wrapped = session.campaign(spec, executor=SerialExecutor())
        assert BATCH_GROUPS.value() - groups == 1
        default = session.campaign(spec)
        assert [dict(r) for r in wrapped.raw] == [dict(r) for r in default.raw]

    def test_single_spec_execution_respects_engine_field(self, small_adpcm_encode):
        session = Session(constraints=STRESS)
        outcome = session.run(
            session.spec(small_adpcm_encode, strategy="default", engine="batched")
        )
        assert outcome.record["strategy"] == "default"
        assert outcome.record["total_cycles"] > 0


class TestDeterminism:
    """The batched engine is bit-identical for a fixed seed set."""

    SCRIPT = """
import json, sys
from repro.api.executors import SPECS_EXECUTED, BatchCampaignExecutor
from repro.api.spec import ExperimentSpec
from repro.core.config import PAPER_OPERATING_POINT

constraints = PAPER_OPERATING_POINT.with_overrides(error_rate=5e-5)
specs = [
    ExperimentSpec(
        app="adpcm-encode",
        strategy="hybrid",
        strategy_params={"chunk_words": 64},
        constraints=constraints,
        seed=seed,
        engine="batched",
    )
    for seed in range(12)
]
outcomes = BatchCampaignExecutor().map(specs)
batched_runs = SPECS_EXECUTED.value(kind="execute", engine="batched")
print(json.dumps([batched_runs, [o.record for o in outcomes]], sort_keys=True))
"""

    def _run_once(self, cache_dir: Path) -> str:
        root = Path(__file__).resolve().parents[2]
        # Both runs must compute: a warehouse hit in the second would
        # compare the store against itself.
        env = {
            "PYTHONPATH": str(root / "src"),
            "PATH": "/usr/bin:/bin",
            "REPRO_CACHE_DIR": str(cache_dir),
            "REPRO_NO_WAREHOUSE": "1",
        }
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
            check=True,
        )
        return result.stdout.strip()

    def test_bit_identical_across_processes(self, tmp_path):
        first = self._run_once(tmp_path)
        second = self._run_once(tmp_path)
        assert first == second
        batched_runs, records = json.loads(first)
        assert batched_runs == 12
        assert len(records) == 12
        assert any(r["upsets_injected"] > 0 for r in records)

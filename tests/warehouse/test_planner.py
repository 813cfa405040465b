"""Delta-planner tests: unit granularity, diffing, merge order, sync rules."""

from __future__ import annotations

import pytest

from repro.api.executors import Executor, RunOutcome, execute_spec
from repro.api.spec import ExperimentSpec
from repro.warehouse.keys import block_key, fingerprint_digest
from repro.warehouse.planner import DeltaPlanner, group_seeds, plan_and_run, plan_units
from repro.warehouse.store import ResultWarehouse


def _spec(seed: int = 0, **overrides) -> ExperimentSpec:
    kwargs = dict(app="adpcm-encode", strategy="hybrid-optimal", seed=seed)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def _outcome(spec: ExperimentSpec, value: float, artifact=None) -> RunOutcome:
    return RunOutcome(
        spec=spec, records=[{"seed": spec.seed, "energy_nj": value}], artifact=artifact
    )


class _Run(Executor):
    """An executor whose ``map`` is ``run``."""

    def __init__(self, run) -> None:
        self.run = run

    def map(self, specs):
        return self.run(list(specs))


class TestGroupSeeds:
    def test_batched_specs_group_by_everything_but_seed(self) -> None:
        # A lone batched spec stays solo: one-seed groups go to the
        # executor's map, so a parallel executor spreads them.
        specs = [
            _spec(seed=3, engine="batched"),
            _spec(seed=0),
            _spec(seed=1, engine="batched"),
            _spec(seed=0, engine="batched", strategy="default"),
            _spec(seed=0, engine="batched", app="adpcm-decode"),
        ]
        (group,), solo = group_seeds(specs)
        assert (group.indices, group.seeds.tolist()) == ((0, 2), [3, 1])
        assert group.base is specs[0]
        assert solo == [1, 3, 4]

    def test_live_instances_group_by_identity(self, small_adpcm_encode) -> None:
        same = [_spec(seed=s, app=small_adpcm_encode, engine="batched") for s in (0, 1)]
        other = _spec(seed=2, app=type(small_adpcm_encode)(frame_samples=320), engine="batched")
        groups, solo = group_seeds([*same, other])
        assert [group.indices for group in groups] == [(0, 1)]
        assert solo == [2]


class TestPlanUnits:
    def test_behavioural_specs_are_solo_units_in_order(self) -> None:
        specs = [_spec(seed=s) for s in range(3)]
        units = plan_units(specs)
        assert [unit.indices for unit in units] == [(0,), (1,), (2,)]
        assert all(unit.key for unit in units)

    def test_behavioural_spec_is_a_one_seed_block(self) -> None:
        # Keyed like the one-seed unit a behavioural campaign stores for
        # the same seed, so run_all and Session.campaign serve each other.
        spec = _spec(seed=7)
        (unit,) = plan_units([spec])
        base = {k: v for k, v in spec.to_dict().items() if k != "seed"}
        assert unit.key == block_key(base, (7,), fingerprint_digest())
        assert (unit.seeds.tolist(), unit.engine) == ([7], "behavioural")

    def test_grouped_batched_specs_form_one_ordered_group(self) -> None:
        specs = [_spec(seed=s, engine="batched") for s in (2, 0, 1)]
        (unit,) = plan_units(specs)
        assert unit.indices == (0, 1, 2)
        assert unit.seeds.tolist() == [2, 0, 1]
        assert "seed" not in unit.spec  # the base spec: everything but the seed
        assert unit.engine == "batched"

    def test_group_of_one_is_a_one_seed_block(self) -> None:
        # A lone batched spec is keyed like the one-seed campaign block
        # Session.campaign plans for it, so either path serves the other.
        spec = _spec(seed=7, engine="batched")
        (group,) = plan_units([spec])
        base = {k: v for k, v in spec.to_dict().items() if k != "seed"}
        assert group.key == block_key(base, (7,), fingerprint_digest())

    def test_distinct_experiments_group_separately(self) -> None:
        specs = [
            _spec(seed=0, engine="batched"),
            _spec(seed=0, engine="batched", app="adpcm-decode"),
            _spec(seed=1, engine="batched"),
        ]
        units = plan_units(specs)
        assert sorted(unit.indices for unit in units) == [(0, 2), (1,)]

    def test_grouped_batched_units_split_by_engine_block(self, monkeypatch) -> None:
        # Counter-based streams make each seed's row invariant to the
        # block it runs in, so a campaign warehouses as per-block deltas:
        # resuming after a crash replays only the missing blocks.
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "2")
        specs = [_spec(seed=s, engine="batched") for s in range(5)]
        units = plan_units(specs)
        assert [unit.indices for unit in units] == [(0, 1), (2, 3), (4,)]
        assert all(unit.engine == "batched" for unit in units)
        assert len({unit.key for unit in units}) == 3  # distinct cache keys

    def test_block_units_resume_and_merge_bit_identical(
        self, monkeypatch, tmp_path
    ) -> None:
        from repro.api.executors import BatchCampaignExecutor

        specs = [_spec(seed=s, engine="batched") for s in range(5)]
        whole = BatchCampaignExecutor().map(specs)
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "2")
        warehouse = ResultWarehouse(tmp_path)
        first = DeltaPlanner(warehouse).plan(specs[:4])
        first.merge(BatchCampaignExecutor().map(first.missing_specs()))
        # Widening the campaign replays the stored blocks and executes
        # only the new tail block — and the stitched rows equal one
        # unblocked execution of the full campaign.
        widened = DeltaPlanner(warehouse).plan(specs)
        assert widened.missing_indices() == [4]
        merged = widened.merge(BatchCampaignExecutor().map(widened.missing_specs()))
        assert [o.records for o in merged] == [o.records for o in whole]

    def test_trace_collection_is_uncacheable(self) -> None:
        (unit,) = plan_units([_spec(collect_trace=True)])
        assert unit.key is None

    def test_nan_parameter_is_uncacheable(self) -> None:
        (unit,) = plan_units([_spec(params={"x": float("nan")})])
        assert unit.key is None

    def test_live_app_instance_is_uncacheable(self, small_adpcm_encode) -> None:
        (unit,) = plan_units([_spec(app=small_adpcm_encode)])
        assert unit.key is None


class TestDeltaPlan:
    def test_cold_plan_misses_everything(self, tmp_path) -> None:
        planner = DeltaPlanner(ResultWarehouse(tmp_path))
        specs = [_spec(seed=s) for s in range(3)]
        plan = planner.plan(specs)
        assert not plan.fully_cached
        assert plan.missing_indices() == [0, 1, 2]
        assert plan.cached_spec_count() == 0

    def test_merge_syncs_and_warms_the_next_plan(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        specs = [_spec(seed=s) for s in range(3)]
        plan = DeltaPlanner(warehouse).plan(specs)
        merged = plan.merge([execute_spec(spec) for spec in specs])
        assert [outcome.records[0]["seed"] for outcome in merged] == [0, 1, 2]
        warm = DeltaPlanner(warehouse).plan(specs)
        assert warm.fully_cached
        assert warm.cached_spec_count() == 3
        replay = warm.merge([])
        assert [o.records for o in replay] == [o.records for o in merged]

    def test_partial_hit_executes_only_the_delta(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        first = [_spec(seed=s) for s in (0, 1)]
        plan = DeltaPlanner(warehouse).plan(first)
        plan.merge([execute_spec(spec) for spec in first])
        widened = [_spec(seed=s) for s in (0, 1, 2, 3)]
        delta = DeltaPlanner(warehouse).plan(widened)
        assert delta.missing_indices() == [2, 3]
        assert [spec.seed for spec in delta.missing_specs()] == [2, 3]
        merged = delta.merge([execute_spec(spec) for spec in delta.missing_specs()])
        assert [outcome.records[0]["seed"] for outcome in merged] == [0, 1, 2, 3]
        assert [outcome.records for outcome in merged] == [
            execute_spec(spec).records for spec in widened
        ]

    def test_merge_interleaves_in_input_order(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        DeltaPlanner(warehouse).plan([_spec(seed=1)]).merge([execute_spec(_spec(seed=1))])
        specs = [_spec(seed=s) for s in (2, 1, 0)]  # cached spec in the middle
        plan = DeltaPlanner(warehouse).plan(specs)
        assert plan.missing_indices() == [0, 2]
        merged = plan.merge([execute_spec(spec) for spec in plan.missing_specs()])
        assert [outcome.records[0]["seed"] for outcome in merged] == [2, 1, 0]

    def test_merge_rejects_wrong_outcome_count(self, tmp_path) -> None:
        plan = DeltaPlanner(ResultWarehouse(tmp_path)).plan([_spec()])
        with pytest.raises(ValueError, match="1 missing"):
            plan.merge([])

    def test_uncacheable_specs_always_execute(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        spec = _spec(collect_trace=True)
        plan = DeltaPlanner(warehouse).plan([spec])
        plan.merge([_outcome(spec, 1.0)])
        again = DeltaPlanner(warehouse).plan([spec])
        assert again.missing_indices() == [0]  # never stored, never served
        assert warehouse.entries() == []

    def test_grouped_unit_hits_atomically(self, tmp_path) -> None:
        # A cached (0, 1) group must not answer a (0, 1, 2) group: unit
        # keys hash the whole block, so reuse happens at block
        # granularity (rows are composition-invariant, lookups are not).
        warehouse = ResultWarehouse(tmp_path)
        pair = [_spec(seed=s, engine="batched") for s in (0, 1)]
        plan = DeltaPlanner(warehouse).plan(pair)
        plan.merge([execute_spec(spec) for spec in pair])
        assert DeltaPlanner(warehouse).plan(pair).fully_cached
        triple = [_spec(seed=s, engine="batched") for s in (0, 1, 2)]
        wider = DeltaPlanner(warehouse).plan(triple)
        assert wider.missing_indices() == [0, 1, 2]

    def test_block_units_store_only_batched_rows(self, tmp_path) -> None:
        # A block stores columns; rows that are not the batched engine's
        # exact row shape have no column form and are simply not stored.
        warehouse = ResultWarehouse(tmp_path)
        pair = [_spec(seed=s, engine="batched") for s in (0, 1)]
        DeltaPlanner(warehouse).plan(pair).merge([_outcome(spec, 1.0) for spec in pair])
        assert warehouse.entries() == []


class TestArtifactRules:
    def test_artifact_kinds_store_and_serve_the_artifact(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        spec = ExperimentSpec(
            kind="feasibility", params={"max_chunk_words": 4, "max_correctable_bits": 1}
        )
        region = {"boundary": [(16, 3)]}
        plan = DeltaPlanner(warehouse).plan([spec])
        plan.merge([_outcome(spec, 1.0, artifact=region)])
        warm = DeltaPlanner(warehouse).plan([spec])
        assert warm.fully_cached
        (outcome,) = warm.merge([])
        assert outcome.artifact == region

    def test_artifact_free_outcome_is_not_stored_for_artifact_kinds(
        self, tmp_path
    ) -> None:
        # Remote executions carry records only; caching them would later
        # serve artifact-less outcomes to fig4 / Session.pareto.
        warehouse = ResultWarehouse(tmp_path)
        spec = ExperimentSpec(
            kind="feasibility", params={"max_chunk_words": 4, "max_correctable_bits": 1}
        )
        plan = DeltaPlanner(warehouse).plan([spec])
        plan.merge([_outcome(spec, 1.0, artifact=None)])
        assert warehouse.entries() == []

    def test_execute_outcomes_do_not_require_an_artifact(self, tmp_path) -> None:
        warehouse = ResultWarehouse(tmp_path)
        spec = _spec()
        DeltaPlanner(warehouse).plan([spec]).merge([execute_spec(spec)])
        assert len(warehouse.entries()) == 1


class TestPlanAndRun:
    def test_full_hit_skips_the_executor_entirely(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        spec = _spec(seed=5)
        plan_and_run([spec], _Run(lambda missing: [execute_spec(s) for s in missing]))

        def exploding_run(missing):
            raise AssertionError("a fully cached plan must never call run()")

        (outcome,) = plan_and_run([spec], _Run(exploding_run))
        assert outcome.records[0]["seed"] == 5

    def test_kill_switch_is_a_passthrough(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        spec = _spec()
        calls = []

        def run(missing):
            calls.append(len(missing))
            return [_outcome(s, 1.0) for s in missing]

        plan_and_run([spec], _Run(run))
        plan_and_run([spec], _Run(run))
        assert calls == [1, 1]  # executed twice: nothing stored, nothing served

    def test_nested_calls_pass_through(self, tmp_path, monkeypatch) -> None:
        # Session.run_all delegates to an executor whose map() also calls
        # plan_and_run; the inner call must not re-plan or double-sync.
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))
        spec = _spec()
        inner_calls = []

        def inner_run(missing):
            inner_calls.append(len(missing))
            return [execute_spec(s) for s in missing]

        def outer_run(missing):
            return plan_and_run(missing, _Run(inner_run))

        plan_and_run([spec], _Run(outer_run))
        assert inner_calls == [1]
        plan_and_run([spec], _Run(outer_run))
        assert inner_calls == [1]  # warm: neither level re-executed

    def test_seed_groups_walk_blocks_with_the_warehouse_off(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        monkeypatch.setenv("REPRO_BATCH_BLOCK", "2")
        blocks, mapped = [], []

        class Recording(_Run):
            def block_runner(self, base):
                runner = super().block_runner(base)

                def run(seeds):
                    blocks.append(tuple(seeds))
                    return runner(seeds)

                return run

        def run(specs):
            mapped.extend(spec.seed for spec in specs)
            return [execute_spec(spec) for spec in specs]

        specs = [_spec(seed=s, engine="batched") for s in (4, 5, 6)]
        specs.insert(1, _spec(seed=9, engine="batched", strategy="default"))
        outcomes = plan_and_run(specs, Recording(run))
        assert blocks == [(4, 5), (6,)]
        assert mapped == [9]
        assert [o.record for o in outcomes] == [execute_spec(s).record for s in specs]

    def test_empty_spec_list_never_calls_run(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_WAREHOUSE_DIR", str(tmp_path))

        def exploding_run(missing):
            raise AssertionError("run() must not be called for zero specs")

        assert plan_and_run([], _Run(exploding_run)) == []

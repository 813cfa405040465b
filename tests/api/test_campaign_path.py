"""One campaign path for both engines: (base spec, seed blocks) → columns.

A behavioural campaign runs as the batched one does: its seeds walk the
warehouse planner's blocks, each block's missing seeds run through the
executor's ``map`` and come back as one column block, and the report is
folded from columns.  These tests pin that no campaign takes the old
detour through per-seed specs (:meth:`CampaignSpec.expand`) and row
dicts (:func:`aggregate_runs`) — in process, on a process pool and over
``Session.connect`` — and that the report still equals
:func:`aggregate_runs` over cold solo rows, statistic for statistic.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from repro.api.executors import ParallelExecutor, execute_spec
from repro.api.registry import available_strategies
from repro.api.session import Session
from repro.api.spec import CampaignSpec, ExperimentSpec
from repro.batch.engine import block_from_records, records_from_columns
from repro.faults.campaign import aggregate_runs
from repro.scenarios.registry import available_scenarios
from repro.service import ExperimentServer, ScalingPolicy

STATISTICS = ("count", "mean", "stdev", "median", "p95", "minimum", "maximum")

BASE = ExperimentSpec(app="adpcm-encode", strategy="hybrid-adaptive", scenario="storm")
METRICS = ((), ("energy_nj", "seed"))


def _campaign(metrics) -> CampaignSpec:
    return CampaignSpec(base=BASE, seeds=(5, 1, 9, 2), metrics=metrics)


def _refuse(*_args, **_kwargs):
    raise AssertionError("a campaign took the per-seed spec / row-dict path")


@pytest.fixture
def one_path(monkeypatch):
    """``campaign -> (reference report, rows)``, with the old path refused.

    The reference is :func:`aggregate_runs` over cold solo
    ``execute_spec`` rows, computed before ``CampaignSpec.expand`` and
    every ``aggregate_runs`` binding in the package are made to raise.
    """
    references = {}
    for metrics in METRICS:
        campaign = _campaign(metrics)
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_WAREHOUSE", "1")
            rows = [execute_spec(spec).record for spec in campaign.expand()]
        references[metrics] = (aggregate_runs(rows, metrics=metrics), rows)
    monkeypatch.setattr(CampaignSpec, "expand", _refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "aggregate_runs", None) is aggregate_runs:
            monkeypatch.setattr(module, "aggregate_runs", _refuse)
    return references


def _assert_matches(report, reference, rows) -> None:
    assert report.runs == reference.runs == len(rows)
    assert list(report.metrics) == list(reference.metrics)
    for name, result in reference.metrics.items():
        for stat in STATISTICS:
            assert getattr(report[name], stat) == getattr(result, stat), (name, stat)
    assert json.dumps(report.raw) == json.dumps(rows)


@pytest.mark.parametrize("metrics", METRICS)
def test_serial_campaign_equals_aggregated_solo_rows(metrics, one_path):
    reference, rows = one_path[metrics]
    for _ in ("cold", "warm"):
        _assert_matches(Session().campaign(_campaign(metrics)), reference, rows)


def test_parallel_campaign_fans_out_and_equals_aggregated_solo_rows(one_path):
    reference, rows = one_path[()]
    executor = ParallelExecutor(jobs=2)
    try:
        report = Session(executor=executor).campaign(_campaign(()))
        assert executor._pool_holder, "the behavioural block never reached the pool"
    finally:
        executor.close()
    _assert_matches(report, reference, rows)


def test_connected_campaign_equals_aggregated_solo_rows(one_path, monkeypatch):
    # Cold on both sides: the warehouse is off for the session and the
    # in-process server alike, so every seed runs on the server's workers.
    monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
    policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=2)
    with ExperimentServer(port=0, policy=policy, mode="thread") as server:
        remote = Session.connect(server.url)
        for metrics in METRICS:
            reference, rows = one_path[metrics]
            _assert_matches(remote.campaign(_campaign(metrics)), reference, rows)
        assert remote.executor.last_job_id is not None


def test_a_behavioural_base_stays_behavioural(engine_runs):
    report = Session().campaign(BASE, seeds=range(3))
    assert engine_runs("behavioural") == 3
    assert engine_runs("batched") == 0
    assert [row["seed"] for row in report.raw] == [0, 1, 2]


def test_run_all_and_campaign_share_units(engine_runs):
    specs = [replace(BASE, seed=seed) for seed in (1, 2)]
    Session().run_all(specs)
    report = Session().campaign(BASE, seeds=(1, 2, 3))
    assert engine_runs("behavioural") == 3  # seeds 1 and 2 were served
    served = Session().run_all([*specs, replace(BASE, seed=3)])
    assert engine_runs("behavioural") == 3
    assert [outcome.record for outcome in served] == report.raw


@pytest.mark.parametrize("strategy", available_strategies())
def test_behavioural_rows_pack_into_columns_exactly(strategy):
    # Every registered strategy under every scenario a spec can name
    # without parameters: the behavioural row is the batched row shape,
    # so a block of them loses nothing.
    params = {"chunk_words": 64} if strategy == "hybrid" else {}
    for scenario in available_scenarios():
        if scenario == "trace":
            continue  # needs a trace file
        spec = ExperimentSpec(
            app="adpcm-encode", strategy=strategy, strategy_params=params, scenario=scenario, seed=3
        )
        rows = execute_spec(spec).records
        assert json.dumps(records_from_columns(block_from_records(rows, [3]))) == json.dumps(rows)

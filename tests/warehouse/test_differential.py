"""Differential harness: every served result equals a cold solo recomputation.

Hypothesis draws small sets of specs across both engines (duplicates
allowed):

* single ``execute`` specs under the paper's constant rate;
* seed groups of the seed-dependent planners (``hybrid-adaptive`` and
  ``hybrid-estimating`` under ``storm`` and ``markov``), so their
  schedules run grouped on the batched engine against solo runs;
* the design kinds (``optimize``, ``feasibility``, ``pareto``).

Each set runs through every executor under four warehouse states:

* cold — an empty warehouse;
* warm — the same call twice;
* partial — a prefix of the specs ran first;
* cross-engine — the same specs with every engine flipped ran first.

Every served outcome must be byte-identical, in input order, to
``execute_spec(spec)`` computed with the warehouse disabled: its records,
and for in-process executors its artifact, compared by canonical dump
(the remote executor keeps artifacts server-side).  Each example gets
its own warehouse directory and draws the engines' block size
(``REPRO_BATCH_BLOCK``) from 1, 7 and the default.

A second property checks the one campaign path, on both engines: a
``Session.campaign`` report equals :func:`aggregate_runs` over the cold
solo ``execute_spec`` rows of its seeds — all seven statistics per metric
and every ``raw`` row — under five cache states:

* cold, warm and partial (a prefix of the seeds ran first), as above;
* ``run_all`` first — the expanded specs ran through ``Session.run_all``
  first, and the campaign must be served their stored blocks;
* campaign first — the campaign ran first, and ``Session.run_all`` over
  the expanded specs must be served its blocks, row for row.

A third property submits each drawn campaign as a raw ``campaign`` job
through :class:`~repro.service.ServiceClient`, as the service-roundtrip
benchmark does.  With ``_spec`` stripped, the streamed
rows must be byte-identical to ``Session().campaign(...).raw`` computed
with the warehouse off, under five states:

* cold, and warm — the repeat submission is answered ``cached``;
* partial — a prefix of the seeds ran in-process first;
* campaign first — an in-process campaign of the same seeds ran first,
  and the job recomputes nothing;
* job first — the job ran first, and an in-process campaign of the same
  seeds then recomputes nothing.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.executors import (
    SPECS_EXECUTED,
    BatchCampaignExecutor,
    ParallelExecutor,
    execute_spec,
)
from repro.api.session import Session
from repro.api.spec import ENGINES, CampaignSpec, ExperimentSpec
from repro.batch.streaming import ENV_BLOCK
from repro.faults.campaign import aggregate_runs
from repro.service import ExperimentServer, ScalingPolicy, ServiceClient
from repro.warehouse.store import ENV_CACHE_DIR, ENV_NO_WAREHOUSE, ENV_WAREHOUSE_DIR

EXECUTORS = ("serial", "parallel", "batched", "remote")
CACHE_STATES = ("cold", "warm", "partial", "cross-engine")
CAMPAIGN_STATES = ("cold", "warm", "partial", "run_all-first", "campaign-first")
JOB_STATES = ("cold", "warm", "partial", "campaign-first", "job-first")
STATISTICS = ("count", "mean", "stdev", "median", "p95", "minimum", "maximum")

#: ``REPRO_BATCH_BLOCK`` values drawn per example (``None`` = the default).
BLOCK_SIZES = ("1", "7", None)

APPS = st.sampled_from(("adpcm-encode", "g721-encode"))
SEED_DEPENDENT = {
    "strategy": st.sampled_from(("hybrid-adaptive", "hybrid-estimating")),
    "scenario": st.sampled_from(("storm", "markov")),
}
PARETO_PARAMS = {
    "nodes": ["65nm"],
    "schemes": ["bch"],
    "correctable_bits": [2, 4],
    "rate_levels": [1e-6],
    "max_chunk_words": 48,
}

_singles = st.builds(
    ExperimentSpec,
    app=APPS,
    strategy=st.sampled_from(("default", "hybrid-optimal")),
    engine=st.sampled_from(ENGINES),
    seed=st.integers(min_value=0, max_value=5),
).map(lambda spec: [spec])

_seed_groups = st.builds(
    lambda base, seeds: [base.with_overrides(seed=seed) for seed in seeds],
    base=st.builds(ExperimentSpec, app=APPS, engine=st.just("batched"), **SEED_DEPENDENT),
    seeds=st.lists(st.integers(min_value=0, max_value=11), min_size=2, max_size=9, unique=True),
)

_design = st.one_of(
    st.builds(ExperimentSpec, app=APPS, kind=st.just("optimize")),
    st.builds(
        ExperimentSpec,
        kind=st.just("feasibility"),
        params=st.just({"max_chunk_words": 64, "max_correctable_bits": 8}),
    ),
    st.builds(ExperimentSpec, app=APPS, kind=st.just("pareto"), params=st.just(PARETO_PARAMS)),
).flatmap(
    lambda spec: st.sampled_from(ENGINES).map(lambda engine: [spec.with_overrides(engine=engine)])
)

_spec_lists = st.lists(
    st.one_of(_singles, _seed_groups, _design), min_size=1, max_size=3
).map(lambda parts: [spec for part in parts for spec in part])

_campaigns = st.builds(
    CampaignSpec,
    base=st.builds(
        ExperimentSpec,
        app=APPS,
        strategy=st.sampled_from(
            ("default", "hybrid-optimal", "hybrid-adaptive", "hybrid-estimating")
        ),
        scenario=st.sampled_from(("paper-constant", "storm", "markov")),
        engine=st.sampled_from(ENGINES),
    ),
    seeds=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=9, unique=True),
    metrics=st.sampled_from(((), ("energy_nj", "seed"), ("rollbacks", "total_cycles"))),
)

#: Cold solo (records, artifact dump) per spec JSON, with the warehouse off.
_REFERENCE: dict[str, tuple[str, str | None]] = {}


def _executed() -> float:
    return sum(sample["value"] for sample in SPECS_EXECUTED.samples())


def _solo_rows(campaign: CampaignSpec) -> list[dict]:
    """Cold solo ``execute_spec`` rows of every campaign seed (cached per spec)."""
    rows = []
    for spec in campaign.expand():
        key = spec.to_json()
        if key not in _REFERENCE:
            _REFERENCE[key] = (json.dumps(execute_spec(spec).records), None)
        (row,) = json.loads(_REFERENCE[key][0])
        rows.append(row)
    return rows


def _flipped(spec: ExperimentSpec) -> ExperimentSpec:
    (other,) = set(ENGINES) - {spec.engine}
    return spec.with_overrides(engine=other)


def _dump(artifact) -> str | None:
    """Canonical form of a design artifact (all are frozen dataclasses)."""
    if artifact is None:
        return None
    return json.dumps(dataclasses.asdict(artifact), sort_keys=True)


def _set_block(monkeypatch, block: str | None) -> None:
    if block is None:
        monkeypatch.delenv(ENV_BLOCK, raising=False)
    else:
        monkeypatch.setenv(ENV_BLOCK, block)


@pytest.fixture(scope="module")
def runners(tmp_path_factory):
    """One ``specs -> outcomes`` callable per executor under test."""
    parallel = ParallelExecutor(jobs=2)
    with pytest.MonkeyPatch.context() as patch:
        # Fork the worker pool before the server starts its threads.
        patch.setenv(ENV_CACHE_DIR, str(tmp_path_factory.mktemp("warehouse-root")))
        parallel.map([ExperimentSpec(app="adpcm-encode", seed=seed) for seed in (0, 1)])
    policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=2)
    with ExperimentServer(port=0, policy=policy, mode="thread") as server:
        yield {
            "serial": lambda specs: Session().run_all(specs),
            "parallel": lambda specs: Session(executor=parallel).run_all(specs),
            "batched": lambda specs: BatchCampaignExecutor().map(specs),
            "remote": lambda specs: Session.connect(server.url).run_all(specs),
            "server": server,
        }
    parallel.close()


@pytest.mark.parametrize("state", CACHE_STATES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_served_outcomes_equal_cold_solo_recomputation(
    executor, state, runners, tmp_path, monkeypatch
):
    run = runners[executor]

    def reference(spec: ExperimentSpec) -> tuple[str, str | None]:
        key = spec.to_json()
        if key not in _REFERENCE:
            with monkeypatch.context() as patch:
                patch.setenv(ENV_NO_WAREHOUSE, "1")
                outcome = execute_spec(spec)
            _REFERENCE[key] = (json.dumps(outcome.records), _dump(outcome.artifact))
        return _REFERENCE[key]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(specs=_spec_lists, block=st.sampled_from(BLOCK_SIZES), data=st.data())
    def check(specs, block, data):
        monkeypatch.setenv(ENV_WAREHOUSE_DIR, tempfile.mkdtemp(dir=tmp_path))
        _set_block(monkeypatch, block)
        if state == "partial" and len(specs) > 1:
            run(specs[: data.draw(st.integers(min_value=1, max_value=len(specs) - 1))])
        elif state == "cross-engine":
            run([_flipped(spec) for spec in specs])
        calls = 2 if state == "warm" else 1
        expected = [reference(spec) for spec in specs]
        for _ in range(calls):
            served = run(specs)
            assert [json.dumps(outcome.records) for outcome in served] == [
                records for records, _ in expected
            ]
            if executor != "remote":
                assert [_dump(outcome.artifact) for outcome in served] == [
                    artifact for _, artifact in expected
                ]

    check()


@pytest.mark.parametrize("state", CAMPAIGN_STATES)
def test_campaign_equals_aggregated_solo_rows(state, tmp_path, monkeypatch):
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(campaign=_campaigns, block=st.sampled_from(BLOCK_SIZES), data=st.data())
    def check(campaign, block, data):
        monkeypatch.setenv(ENV_WAREHOUSE_DIR, tempfile.mkdtemp(dir=tmp_path))
        _set_block(monkeypatch, block)
        rows = _solo_rows(campaign)
        if state == "partial" and len(campaign.seeds) > 1:
            cut = data.draw(st.integers(min_value=1, max_value=len(campaign.seeds) - 1))
            Session().campaign(dataclasses.replace(campaign, seeds=campaign.seeds[:cut]))
        elif state == "run_all-first":
            Session().run_all(campaign.expand())
        elif state == "campaign-first":
            Session().campaign(campaign)
            executed = _executed()
            served = Session().run_all(campaign.expand())
            assert _executed() == executed, "run_all recomputed blocks the campaign stored"
            assert json.dumps([outcome.record for outcome in served]) == json.dumps(rows)
        executed = _executed()
        for _ in range(2 if state == "warm" else 1):
            report = Session().campaign(campaign)
            reference = aggregate_runs(rows, metrics=campaign.metrics)
            assert report.runs == reference.runs == len(campaign.seeds)
            assert list(report.metrics) == list(reference.metrics)
            for name, result in reference.metrics.items():
                for stat in STATISTICS:
                    assert getattr(report[name], stat) == getattr(result, stat), (name, stat)
            assert json.dumps(report.raw) == json.dumps(rows)
        if state in ("run_all-first", "campaign-first"):
            assert _executed() == executed, "the campaign recomputed stored blocks"
        elif state == "partial" and len(campaign.seeds) > 1 and campaign.base.engine != "batched":
            # One unit per behavioural seed: only the seeds past the prefix run.
            assert _executed() == executed + len(campaign.seeds) - cut

    check()


@pytest.mark.parametrize("state", JOB_STATES)
def test_campaign_job_rows_equal_the_in_process_campaign(state, runners, tmp_path, monkeypatch):
    client = ServiceClient(runners["server"].url, timeout=60.0)

    def submit(campaign: CampaignSpec) -> tuple[dict, list[dict]]:
        spec = {"base": campaign.base.to_dict(), "seeds": campaign.seeds.tolist()}
        job = client.submit({"kind": "campaign", "spec": spec})
        meta, rows = client.results(job["job_id"], wait=True)
        assert meta["state"] == "done"
        return job, [{k: v for k, v in row.items() if k != "_spec"} for row in rows]

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(campaign=_campaigns, block=st.sampled_from(BLOCK_SIZES), data=st.data())
    def check(campaign, block, data):
        monkeypatch.setenv(ENV_WAREHOUSE_DIR, tempfile.mkdtemp(dir=tmp_path))
        _set_block(monkeypatch, block)
        with monkeypatch.context() as patch:
            patch.setenv(ENV_NO_WAREHOUSE, "1")
            expected = json.dumps(Session().campaign(campaign).raw)
        if state == "partial" and len(campaign.seeds) > 1:
            cut = data.draw(st.integers(min_value=1, max_value=len(campaign.seeds) - 1))
            Session().campaign(dataclasses.replace(campaign, seeds=campaign.seeds[:cut]))
        elif state == "campaign-first":
            Session().campaign(campaign)
        executed = _executed()
        job, rows = submit(campaign)
        assert json.dumps(rows) == expected
        if state == "campaign-first":
            assert job["cached"] and _executed() == executed, "the job recomputed stored blocks"
        elif state == "warm":
            repeat, rows = submit(campaign)
            assert repeat["cached"], "the repeat submission was not served from the warehouse"
            assert json.dumps(rows) == expected
        elif state == "job-first":
            executed = _executed()
            report = Session().campaign(campaign)
            assert _executed() == executed, "the campaign recomputed blocks the job stored"
            assert json.dumps(report.raw) == expected

    check()


def test_in_process_batched_campaign_never_expands(monkeypatch):
    def refuse(self):
        raise AssertionError("a batched campaign expanded into per-seed specs")

    monkeypatch.setattr(CampaignSpec, "expand", refuse)
    base = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal", engine="batched")
    campaign = CampaignSpec(base=base, seeds=tuple(range(5)))
    cold = Session().campaign(campaign)
    warm = Session().campaign(campaign)
    assert json.dumps(warm.raw) == json.dumps(cold.raw)


def test_remote_batched_campaign_computes_on_the_server(runners, monkeypatch):
    base = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal", engine="batched")
    campaign = CampaignSpec(base=base, seeds=(4, 2, 9))
    remote = Session.connect(runners["server"].url)
    served = remote.campaign(campaign)
    assert remote.executor.last_job_id is not None  # the blocks ran on the server
    monkeypatch.setenv(ENV_NO_WAREHOUSE, "1")
    local = Session().campaign(campaign)
    assert json.dumps(served.raw) == json.dumps(local.raw)
    assert served.to_result_set().to_json() == local.to_result_set().to_json()

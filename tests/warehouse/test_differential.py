"""Differential harness: every served result equals a cold solo recomputation.

Hypothesis draws small sets of ``execute`` specs across both engines
(duplicates allowed).  Each set runs through every executor under four
warehouse states:

* cold — an empty warehouse;
* warm — the same call twice;
* partial — a prefix of the specs ran first;
* cross-engine — the same specs with every engine flipped ran first.

Every served outcome must be byte-identical, in input order, to
``execute_spec(spec)`` computed with the warehouse disabled.  Each
example gets its own warehouse directory.
"""

from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.executors import BatchCampaignExecutor, ParallelExecutor, execute_spec
from repro.api.session import Session
from repro.api.spec import ENGINES, ExperimentSpec
from repro.runtime.profile_cache import ENV_CACHE_DIR
from repro.service import ExperimentServer, ScalingPolicy
from repro.warehouse.store import ENV_NO_WAREHOUSE, ENV_WAREHOUSE_DIR

EXECUTORS = ("serial", "parallel", "batched", "remote")
CACHE_STATES = ("cold", "warm", "partial", "cross-engine")

_spec_lists = st.lists(
    st.builds(
        ExperimentSpec,
        app=st.sampled_from(("adpcm-encode", "g721-encode")),
        strategy=st.sampled_from(("default", "hybrid-optimal")),
        engine=st.sampled_from(ENGINES),
        seed=st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=4,
)

#: Cold solo records per spec JSON, computed once with the warehouse off.
_REFERENCE: dict[str, str] = {}


def _flipped(spec: ExperimentSpec) -> ExperimentSpec:
    (other,) = set(ENGINES) - {spec.engine}
    return spec.with_overrides(engine=other)


@pytest.fixture(scope="module")
def runners(tmp_path_factory):
    """One ``specs -> outcomes`` callable per executor under test."""
    parallel = ParallelExecutor(jobs=2)
    with pytest.MonkeyPatch.context() as patch:
        # Fork the worker pool before the server starts its threads.
        patch.setenv(ENV_CACHE_DIR, str(tmp_path_factory.mktemp("profiles")))
        parallel.map([ExperimentSpec(app="adpcm-encode", seed=seed) for seed in (0, 1)])
    policy = ScalingPolicy(min_workers=1, init_workers=1, max_workers=2)
    with ExperimentServer(port=0, policy=policy, mode="thread") as server:
        yield {
            "serial": lambda specs: Session().run_all(specs),
            "parallel": lambda specs: Session(executor=parallel).run_all(specs),
            "batched": lambda specs: BatchCampaignExecutor().map(specs),
            "remote": lambda specs: Session.connect(server.url).run_all(specs),
        }
    parallel.close()


@pytest.mark.parametrize("state", CACHE_STATES)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_served_outcomes_equal_cold_solo_recomputation(
    executor, state, runners, tmp_path, monkeypatch
):
    run = runners[executor]

    def reference(spec: ExperimentSpec) -> str:
        key = spec.to_json()
        if key not in _REFERENCE:
            with monkeypatch.context() as patch:
                patch.setenv(ENV_NO_WAREHOUSE, "1")
                _REFERENCE[key] = json.dumps(execute_spec(spec).records)
        return _REFERENCE[key]

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(specs=_spec_lists, data=st.data())
    def check(specs, data):
        monkeypatch.setenv(ENV_WAREHOUSE_DIR, tempfile.mkdtemp(dir=tmp_path))
        if state == "partial" and len(specs) > 1:
            run(specs[: data.draw(st.integers(min_value=1, max_value=len(specs) - 1))])
        elif state == "cross-engine":
            run([_flipped(spec) for spec in specs])
        calls = 2 if state == "warm" else 1
        expected = [reference(spec) for spec in specs]
        for _ in range(calls):
            served = run(specs)
            assert [json.dumps(outcome.records) for outcome in served] == expected

    check()
